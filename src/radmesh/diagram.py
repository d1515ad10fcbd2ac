"""Power diagram (radical partition) extraction, dual to the regular triangulation.

Dual vertices are the triangle orthocenters; orthocenters of adjacent
triangles that coincide within a merge tolerance (exact-tie artifacts,
cocircular fans) collapse into one vertex.  Each non-redundant ball owns a
convex polygonal cell whose vertices are collected by walking the triangle
fan around the ball counterclockwise; hull balls own unbounded cells.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from . import geom
from .geom import Ball, Point2, paraboloid
from .triangulation import RegularTriangulation
from .unionfind import UnionFind


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
    """Union-find over adjacent triangles with coincident orthocenters."""
    uf = UnionFind(len(t.triangles))
    for ti, tri in enumerate(t.triangles):
        for nb in tri.neighbors:
            if nb is None:
                continue
            o1, o2 = tri.orthocenter, t.triangles[nb].orthocenter
            if math.hypot(o1[0] - o2[0], o1[1] - o2[1]) <= merge_eps:
                uf.union(ti, nb)

    tri_to_vertex: dict[int, DualVertex] = {}
    dual_vertices = []
    for members in uf.groups():
        wsum = xsum = ysum = tsum = 0.0
        for ti in members:
            tri = t.triangles[ti]
            b1, b2, b3 = (balls[i].center for i in tri.ball_indices)
            w = abs(geom.triangle_area(b1, b2, b3))
            wsum += w
            xsum += w * tri.orthocenter[0]
            ysum += w * tri.orthocenter[1]
            tsum += w * tri.tau
        if wsum > 0:
            v = DualVertex((xsum / wsum, ysum / wsum), tsum / wsum, list(members))
        else:
            m = len(members)
            v = DualVertex(
                (
                    sum(t.triangles[ti].orthocenter[0] for ti in members) / m,
                    sum(t.triangles[ti].orthocenter[1] for ti in members) / m,
                ),
                sum(t.triangles[ti].tau for ti in members) / m,
                list(members),
            )
        dual_vertices.append(v)
        for ti in members:
            tri_to_vertex[ti] = v
    return dual_vertices, tri_to_vertex


def _fan_around(t: RegularTriangulation, ball: int, start: int):
    """Incident triangles of ``ball`` in CCW order, and whether the fan closes."""

    def local(ti):
        return t.triangles[ti].ball_indices.index(ball)

    def ccw_next(ti):
        tri = t.triangles[ti]
        return tri.neighbors[(local(ti) + 1) % 3]

    def cw_next(ti):
        tri = t.triangles[ti]
        return tri.neighbors[(local(ti) + 2) % 3]

    # rewind clockwise to the fan start (a closed fan stops at the cycle)
    first = start
    while True:
        prev = cw_next(first)
        if prev is None or prev == start:
            break
        first = prev
    fan = [first]
    cur = first
    while True:
        nxt = ccw_next(cur)
        if nxt is None:
            return fan, False
        if nxt == first:
            return fan, True
        fan.append(nxt)
        cur = nxt


def _outward_ray(balls, tri, ball: int, other: int) -> Point2:
    """Unit direction of the unbounded dual edge across hull edge (ball, other)."""
    ci, cj = balls[ball].center, balls[other].center
    dx, dy = cj[0] - ci[0], cj[1] - ci[1]
    nrm = math.hypot(dx, dy)
    n = (dy / nrm, -dx / nrm)
    third = next(k for k in tri.ball_indices if k != ball and k != other)
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
    """Extract the radical partition dual to a regular triangulation."""
    if merge_eps is None:
        merge_eps = default_merge_eps(balls)
    dual_vertices, tri_to_vertex = _merge_orthocenters(t, balls, merge_eps)

    incident: dict[int, int] = {}
    for ti, tri in enumerate(t.triangles):
        for i in tri.ball_indices:
            incident.setdefault(i, ti)

    cells: list[PowerCell | None] = [None] * len(balls)
    for i, ball in enumerate(balls):
        if not ball.alive or i not in incident:
            continue
        fan, closed = _fan_around(t, i, incident[i])
        verts: list[DualVertex] = []
        for ti in fan:
            v = tri_to_vertex[ti]
            if not verts or verts[-1] is not v:
                verts.append(v)
        if closed and len(verts) > 1 and verts[0] is verts[-1]:
            verts.pop()
        cell = PowerCell(i, verts, bounded=closed, free=not ball.fully_fixed)
        if not closed:
            first_tri = t.triangles[fan[0]]
            l = first_tri.ball_indices.index(i)
            nxt = first_tri.ball_indices[(l + 1) % 3]
            cell.ray_start = _outward_ray(balls, first_tri, i, nxt)
            last_tri = t.triangles[fan[-1]]
            l = last_tri.ball_indices.index(i)
            prv = last_tri.ball_indices[(l + 2) % 3]
            cell.ray_end = _outward_ray(balls, last_tri, i, prv)
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
    from .errors import CollinearPoints

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
            for ti in v.source_triangles:
                incident.update(t.triangles[ti].ball_indices)
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
