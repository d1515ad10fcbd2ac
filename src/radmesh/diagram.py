"""Power diagram (radical partition) extraction, dual to the regular triangulation.

Everything is read off the triangle table of ``RegularTriangulation``.
Dual vertices are the triangle orthocenters; adjacent triangles whose
orthocenters lie within a merge tolerance (exact-tie artifacts, cocircular
fans) are grouped by the connected components of that relation
(``geom.components``), and each group collapses into one vertex, the
polygonal vertex of the paper's non-simplicial cells.  Each non-redundant
ball owns a convex polygonal cell whose vertices follow the ball's corners
counterclockwise through the neighbor array; hull balls own unbounded cells.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import geom
from .errors import CollinearPoints, RadmeshError
from .geom import Ball, Point2, paraboloid
from .triangulation import RegularTriangulation


@dataclass
class DualVertex:
    position: Point2
    tau: float
    source_triangles: list[int]


@dataclass
class PowerCell:
    ball_index: int
    vertices: list[DualVertex]  # CCW
    bounded: bool
    free: bool = True  # ball has at least one free degree of freedom
    # outward ray directions of the two infinite edges (unbounded cells only)
    ray_start: Point2 | None = None
    ray_end: Point2 | None = None

    def vertex_positions(self) -> list[Point2]:
        return [v.position for v in self.vertices]


@dataclass
class PowerDiagram:
    cells: list[PowerCell | None]  # per ball; None for redundant/dead balls
    dual_vertices: list[DualVertex]
    domain: list[Point2] | None = None
    # the auxiliary triangulations of the usable cells (a dirichlet.AuxMesh),
    # filled on first use by dirichlet._cell_aux so every consumer of one
    # diagram shares them
    aux: object | None = field(default=None, repr=False, compare=False)

    def bounded_cells(self):
        return [c for c in self.cells if c is not None and c.bounded]

    def max_abs_tau(self) -> float:
        """Largest |tau| over dual vertices of bounded cells of free balls.

        Cells of fully fixed balls are excluded: inside a protected region
        (e.g. the interior of a masked disk) tau cannot converge by design.
        With a domain polygon, only dual vertices inside the domain count
        (the partition is evaluated within the domain only), and unbounded
        cells contribute their in-domain vertices too.
        """
        tol = 0.0 if self.domain is None else 1e-9 * geom.bbox_diag(self.domain)
        seen = set()
        worst = 0.0
        for c in self.cells:
            if c is None or not c.free:
                continue
            if not c.bounded and self.domain is None:
                continue
            for v in c.vertices:
                if id(v) in seen:
                    continue
                seen.add(id(v))
                if self.domain is not None and not _in_convex(
                    v.position, self.domain, tol
                ):
                    continue
                worst = max(worst, abs(v.tau))
        return worst


def _in_convex(p: Point2, domain: list[Point2], tol: float) -> bool:
    """Point inside (or within tol of) a convex CCW polygon."""
    n = len(domain)
    for k in range(n):
        a, b = domain[k], domain[(k + 1) % n]
        ex, ey = b[0] - a[0], b[1] - a[1]
        nrm = math.hypot(ex, ey)
        if ex * (p[1] - a[1]) - ey * (p[0] - a[0]) < -tol * nrm:
            return False
    return True


def default_merge_eps(balls) -> float:
    """1e-9 times the bounding-box diagonal of the alive ball centers."""
    return 1e-9 * geom.bbox_diag([b.center for b in balls if b.alive])


def _merge_orthocenters(t: RegularTriangulation, balls, merge_eps):
    """Dual vertices: components of adjacent triangles with coincident orthocenters.

    Each vertex sits at the area-weighted mean of its triangles' orthocenters
    and power values (the plain mean if they have no area).  Returns the
    vertices and each triangle's vertex number.
    """
    f, k = np.nonzero(t.neighbors > np.arange(len(t.tris))[:, None])
    nb = t.neighbors[f, k]
    d = t.orthocenters[f] - t.orthocenters[nb]
    close = np.hypot(d[:, 0], d[:, 1]) <= merge_eps
    labels, groups = geom.components(len(t.tris), f[close], nb[close])

    c = np.array([b.center for b in balls], dtype=float)
    w = np.abs(geom.triangle_area(*(c[t.tris[:, m]].T for m in range(3))))
    n = len(groups)
    w = np.where(np.bincount(labels, w, n)[labels] > 0, w, 1.0)  # no area: plain mean
    wsum = np.bincount(labels, w, n)
    x, y = (np.bincount(labels, w * t.orthocenters[:, m], n) / wsum for m in range(2))
    tau = np.bincount(labels, w * t.tau, n) / wsum
    dual_vertices = [
        DualVertex((vx, vy), s, members)
        for vx, vy, s, members in zip(x.tolist(), y.tolist(), tau.tolist(), groups)
    ]
    return dual_vertices, labels


def _outward_ray(balls, ball: int, other: int, third: int) -> Point2:
    """Unit direction of the unbounded dual edge across hull edge (ball, other).

    ``third`` is the third ball of the triangle on that edge.
    """
    ci, cj = balls[ball].center, balls[other].center
    dx, dy = cj[0] - ci[0], cj[1] - ci[1]
    nrm = math.hypot(dx, dy)
    n = (dy / nrm, -dx / nrm)
    ck = balls[third].center
    mid = ((ci[0] + cj[0]) / 2, (ci[1] + cj[1]) / 2)
    if n[0] * (ck[0] - mid[0]) + n[1] * (ck[1] - mid[1]) > 0:
        n = (-n[0], -n[1])
    return n


def extract_diagram(
    t: RegularTriangulation,
    balls: list[Ball],
    merge_eps: float | None = None,
    domain: list[Point2] | None = None,
) -> PowerDiagram:
    """Extract the radical partition dual to a regular triangulation.

    Corner ``3 f + k`` of the table is ball ``t.tris[f, k]`` in triangle
    ``f``.  A ball's cell follows its corners counterclockwise, from its
    corner on a hull edge if it has one (an unbounded cell), else from the
    corner after its first one in table order.
    """
    if merge_eps is None:
        merge_eps = default_merge_eps(balls)
    dual_vertices, labels = _merge_orthocenters(t, balls, merge_eps)

    corner_ball = t.tris.ravel()
    # the same ball's corner in the next triangle counterclockwise, -1 past the hull
    ccw = t.neighbors[:, [1, 2, 0]].ravel()
    at = np.argmax(t.tris[ccw] == corner_ball[:, None], axis=1)
    nxt = np.where(ccw < 0, -1, 3 * ccw + at).tolist()
    # a corner with the hull clockwise of it starts its ball's open fan
    hull = np.flatnonzero(t.neighbors[:, [2, 0, 1]].ravel() < 0)
    hull_start = dict(zip(corner_ball[hull].tolist(), hull.tolist()))
    owners, first_corner, corners = np.unique(corner_ball, return_index=True, return_counts=True)
    vertex = [dual_vertices[v] for v in labels.tolist()]
    tris = t.tris.tolist()

    cells: list[PowerCell | None] = [None] * len(balls)
    for i, start, n in zip(owners.tolist(), first_corner.tolist(), corners.tolist()):
        first = hull_start.get(i, nxt[start])
        fan = [first]
        c = nxt[first]
        while c >= 0 and c != first:
            if len(fan) == n:  # only a table with overlapping triangles gets here
                raise RadmeshError(
                    f"the triangles around ball {i} neither close nor end on the hull"
                )
            fan.append(c)
            c = nxt[c]
        closed = c == first
        verts: list[DualVertex] = []
        for c in fan:
            v = vertex[c // 3]
            if not verts or verts[-1] is not v:
                verts.append(v)
        if closed and len(verts) > 1 and verts[0] is verts[-1]:
            verts.pop()
        cell = PowerCell(i, verts, bounded=closed, free=not balls[i].fully_fixed)
        if not closed:
            f, k = divmod(fan[0], 3)
            cell.ray_start = _outward_ray(balls, i, tris[f][k - 2], tris[f][k - 1])
            f, k = divmod(fan[-1], 3)
            cell.ray_end = _outward_ray(balls, i, tris[f][k - 1], tris[f][k - 2])
        cells[i] = cell
    return PowerDiagram(cells, dual_vertices, domain)


def dual_height(v: DualVertex) -> float:
    """Height of the dual-surface vertex above the base plane."""
    return paraboloid(v.position) - 0.5 * v.tau


def delaunay_limit_violations(
    t: RegularTriangulation,
    diagram: PowerDiagram,
    balls: list[Ball],
    margin: float,
):
    """Empty-circumcircle check of a (near-)Delaunay partition.

    For every bounded cell of a free ball, the circle through each triple of
    consecutive cell vertices must contain no non-incident ball center deeper
    than ``margin``.  Redundant (hidden) balls own no cell and are not part
    of the partition, so their centers are exempt.  Returns violating
    (cell ball, other ball) pairs.
    """
    out = []
    alive = [
        i for i, b in enumerate(balls) if b.alive and diagram.cells[i] is not None
    ]
    for cell in diagram.cells:
        if cell is None or not cell.bounded or not cell.free:
            continue
        verts = cell.vertices
        m = len(verts)
        if m < 3:
            continue
        # balls sharing a vertex with the cell are its neighbors; their
        # centers may lie inside the circumcircle when circles overlap
        # (protecting rings), which is fine for a Delaunay partition
        incident = set()
        for v in verts:
            incident.update(t.tris[v.source_triangles].ravel().tolist())
        for k in range(m if m > 3 else 1):
            triple = [verts[(k + d) % m] for d in range(3)]
            try:
                cc = geom.circumcenter(*(v.position for v in triple))
            except CollinearPoints:
                continue
            rad = math.hypot(
                triple[0].position[0] - cc[0], triple[0].position[1] - cc[1]
            )
            for j in alive:
                if j in incident:
                    continue
                c = balls[j].center
                if math.hypot(c[0] - cc[0], c[1] - cc[1]) < rad - margin:
                    out.append((cell.ball_index, j))
    return out


def clip_polygon(polygon: list[Point2], domain: list[Point2]) -> list[Point2]:
    """Sutherland-Hodgman intersection of a polygon with a convex CCW domain."""
    output = list(polygon)
    n = len(domain)
    for k in range(n):
        if not output:
            return []
        a, b = domain[k], domain[(k + 1) % n]
        ex, ey = b[0] - a[0], b[1] - a[1]

        def inside(p):
            return ex * (p[1] - a[1]) - ey * (p[0] - a[0]) >= 0

        def intersect(p, q):
            dx, dy = q[0] - p[0], q[1] - p[1]
            denom = ex * dy - ey * dx
            s = (ex * (a[1] - p[1]) - ey * (a[0] - p[0])) / denom
            return (p[0] + s * dx, p[1] + s * dy)

        result = []
        prev = output[-1]
        prev_in = inside(prev)
        for cur in output:
            cur_in = inside(cur)
            if cur_in:
                if not prev_in:
                    result.append(intersect(prev, cur))
                result.append(cur)
            elif prev_in:
                result.append(intersect(prev, cur))
            prev, prev_in = cur, cur_in
        output = result
    return output


def clip_cell(cell: PowerCell, domain: list[Point2]) -> list[Point2]:
    """Intersect a cell with a convex CCW domain polygon.

    Unbounded cells are first closed by extending their boundary rays well
    beyond the domain.
    """
    pts = cell.vertex_positions()
    if not cell.bounded:
        far = 10.0 * (
            geom.bbox_diag(domain)
            + max(
                math.hypot(p[0] - domain[0][0], p[1] - domain[0][1]) for p in pts
            )
            + 1.0
        )
        ra, rb = cell.ray_start, cell.ray_end
        a = pts[0]
        b = pts[-1]
        mx, my = ra[0] + rb[0], ra[1] + rb[1]
        nrm = math.hypot(mx, my)
        if nrm < 1e-12:
            mx, my = -ra[1], ra[0]
            nrm = 1.0
        closure = [
            (b[0] + far * rb[0], b[1] + far * rb[1]),
            (a[0] + far * mx / nrm + far * rb[0], a[1] + far * my / nrm + far * rb[1]),
            (a[0] + far * ra[0], a[1] + far * ra[1]),
        ]
        pts = pts + closure
        if geom.polygon_area(pts) < 0:
            pts.reverse()
    return clip_polygon(pts, domain)
