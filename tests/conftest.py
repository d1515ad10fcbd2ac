"""Shared helpers for the test suite, and the scalar references of the array code.

The aux-cell references work on one cell at a time, as lists of
``AuxTriangle``: the Lawson flips from a fan (``fan_triangulate_cell``),
the oracle of the batched ``aux_triangulate_cells``, and the per-cell forms
of the update and of ``F_I`` that the package evaluates on arrays.  The
domain clip reference (``clip_cell_reference``) closes and clips one cell
at a time, one vertex at a time (``clip_polygon``), and the Delaunay-limit
reference (``delaunay_limit_violations_reference``) draws one circle at a
time.  The recovery references (``recover_spheres_reference``,
``vertex_cluster_merge_reference``) walk one triangle and one cluster at a
time.  ``masked_lattice_reference`` jitters one lattice point at a time and
applies no removal rule.  ``certify_reference`` is the aux certificate
pairing its candidates' half-edges by one sort (``triangulation._twins``)
instead of taking the twins the largest-angle recursion opened.

The test-only oracles live here too: ``fd_gradient``, the finite-difference
gradient of ``F_I`` with full rebuilds (criterion 5), ``edge_set`` of a
triangle table, the one-triangle ``orthocenter`` with its conditioning
guard, the shoelace ``polygon_area`` and ``exact_ints_reference``, the
exact predicates' integer scaling by ``float.as_integer_ratio``.
"""

import importlib.util
import math
import pathlib
import sys
from dataclasses import dataclass

import numpy as np
import pytest
from scipy.spatial import Delaunay

from radmesh import geom
from radmesh.diagram import _ranges
from radmesh.dirichlet import _incircle, _rebuild, _tie_tol, aux_triangulate_cells, evaluate_FI
from radmesh.errors import (
    AllCollinear,
    CollinearCenters,
    CollinearPoints,
    DegenerateCell,
    RadmeshError,
)
from radmesh.geom import Ball, BallArrays
from radmesh.scene import PROTECT_RATIO, _point_in_polygon
from radmesh.triangulation import _twins, build_regular, lawson_flip


def philox(seed):
    return np.random.Generator(np.random.Philox(seed))


def random_balls(rng, n, box=10.0, rmin=0.1, rmax=1.5):
    pts = rng.uniform(0.0, box, (n, 2))
    rads = rng.uniform(rmin, rmax, n)
    return [Ball((float(x), float(y)), float(r)) for (x, y), r in zip(pts, rads)]


def jittered_grid(rng, n, jitter=0.15, radius=None, fix_boundary=False):
    """n x n unit grid of equal circles, interior centers jittered."""
    if radius is None:
        radius = math.sqrt(2.0) / 2.0
    balls = []
    for i in range(n):
        for j in range(n):
            boundary = i in (0, n - 1) or j in (0, n - 1)
            if boundary and fix_boundary:
                c = (float(i), float(j))
            else:
                d = rng.uniform(-jitter, jitter, 2)
                c = (i + float(d[0]), j + float(d[1]))
            balls.append(Ball(c, radius, fix_center=boundary and fix_boundary))
    return balls


@pytest.fixture
def rng():
    return philox(0)


def perfbench_workloads():
    """The benchmark's ``perfbench/workloads.py`` module, loaded once."""
    module = "perfbench_workloads"
    workloads = sys.modules.get(module)
    if workloads is None:
        path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
        spec = importlib.util.spec_from_file_location(module, path)
        workloads = sys.modules[module] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
    return workloads


def masked_lattice_reference(masks, spacing, jitter, seed=0):
    """``scene.gen_masked_lattice`` on the unit square, one lattice point at a time, without the removal rule."""
    domain = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
    rng = philox(seed)
    balls = []
    n = int(1.0 / spacing)
    for j in range(n + 1):
        for i in range(n + 1):
            c = (i * spacing, j * spacing)
            if not _point_in_polygon(c, domain):
                continue
            if any(_point_in_polygon(c, mask) for mask in masks):
                balls.append(Ball(c, PROTECT_RATIO * spacing, fix_center=True, fix_radius=True))
                continue
            r = spacing / math.sqrt(2.0)
            if jitter > 0:
                c = (c[0] + rng.uniform(-jitter, jitter), c[1] + rng.uniform(-jitter, jitter))
                r *= 1 + rng.uniform(-0.1, 0.1)
            if _point_in_polygon(c, domain):
                balls.append(Ball(c, r))
    return balls


class ZeroArea(RadmeshError):
    """Auxiliary triangulation has zero total area."""


class TopologyFlip(RadmeshError):
    """Diagram combinatorics changed inside the finite-difference stencil (``fd_gradient``)."""


@dataclass
class AuxTriangle:
    vertex_positions: tuple
    circumcenter: tuple
    area: float
    corners: tuple[int, int, int] | None = None  # indices into the cell's CCW vertex list


def cell_span(pts):
    """The largest coordinate distance of a cell's vertices from its first, as the batch takes it."""
    return max(max(abs(p[0] - pts[0][0]), abs(p[1] - pts[0][1])) for p in pts)


def fan_delaunay(points, tol):
    """Delaunay triangulation of a CCW convex polygon's vertex set.

    The fan from vertex 0, legalized by the shared Lawson flip loop with the
    float in-circle test.  Edges whose in-circle value is within ``tol`` of
    a tie stay as they are.  Returns the triangles as local corner triples,
    each led by its lowest index, sorted: the batch's canonical order.
    """
    tris = [[0, k, k + 1] for k in range(1, len(points) - 1)]
    # the fan's diagonal (0, t + 2) is half-edge 3 t + 1 of triangle t and
    # 3 t + 5 of triangle t + 1; its other half-edges lie on the polygon
    diagonals = range(1, 3 * len(tris) - 3, 3)
    twin = [-1] * (3 * len(tris))
    for h in diagonals:
        twin[h], twin[h + 4] = h + 4, h

    def illegal(a, b, c, q):
        return _incircle(*points[a], *points[b], *points[c], *points[q]) > tol

    def left_turn(p, u, q):
        return geom.triangle_area(points[p], points[u], points[q]) > 0

    lawson_flip(tris, twin, illegal, left_turn, diagonals)
    # min over the rotations of a triangle is the one led by its lowest index
    return sorted(tuple(min(t[m:] + t[:m] for m in range(3))) for t in tris)


def fan_triangulate_cell(pts, ball):
    """The auxiliary triangles of the CCW convex cell ``pts`` by Lawson flips from a fan.

    The batch's guards, one triangle at a time: a triangle under the area
    guard is dropped, and a kept one with an ill-conditioned circumcenter,
    or no triangle left, makes the cell a ``DegenerateCell``.
    """
    if len(pts) < 3:
        raise DegenerateCell(f"cell of ball {ball} has < 3 vertices")
    span = cell_span(pts)
    out = []
    for i, j, k in fan_delaunay(pts, _tie_tol(span)):
        tri = (pts[i], pts[j], pts[k])
        area = geom.triangle_area(*tri)
        if abs(area) <= 1e-14 * span * span:
            continue
        try:
            center = geom.circumcenter(*tri)
        except CollinearPoints as e:
            raise DegenerateCell(f"cell of ball {ball} has an ill-conditioned triangle") from e
        out.append(AuxTriangle(tri, center, abs(area), (i, j, k)))
    if not out:
        raise DegenerateCell(f"cell of ball {ball} is degenerate")
    return out


def cell_triangles(pts, ball=0):
    """The triangles ``aux_triangulate_cells`` gives the one cell ``pts``, as ``AuxTriangle``.

    A cell the batch lists as degenerate raises ``DegenerateCell``.
    """
    mesh = aux_triangulate_cells(np.array(pts, dtype=float), np.array([0, len(pts)]), np.array([ball]))
    if mesh.degenerate:
        raise DegenerateCell(f"cell of ball {ball} is degenerate")
    return [
        AuxTriangle(tuple(map(tuple, v)), tuple(c), a)
        for v, c, a in zip(mesh.vertices.tolist(), mesh.circumcenter.tolist(), mesh.area.tolist())
    ]


def heuristic_center(aux):
    """Area-weighted mean of the auxiliary circumcenters of one cell."""
    total = sum(t.area for t in aux)
    if total <= 0:
        raise ZeroArea("the auxiliary triangles have zero total area")
    x = sum(t.circumcenter[0] * t.area for t in aux) / total
    y = sum(t.circumcenter[1] * t.area for t in aux) / total
    return (x, y)


def heuristic_radius(c_new, cell_vertices):
    """Least-squares radius: root mean square distance to the cell vertices.

    Squares are products, not ``**``, whose libm ``pow`` rounds differently
    on some doubles, so ``dirichlet._radii`` gives the same bits from arrays.
    """
    m = len(cell_vertices)
    ssum = 0.0
    for v in cell_vertices:
        dx, dy = v[0] - c_new[0], v[1] - c_new[1]
        ssum += dx * dx + dy * dy
    return math.sqrt(ssum / m)


def cell_fi(center, aux):
    """Cell contribution to the functional for a fixed auxiliary triangulation."""
    return 0.5 * sum(
        ((center[0] - t.circumcenter[0]) ** 2 + (center[1] - t.circumcenter[1]) ** 2)
        * t.area
        for t in aux
    )


def frozen_center_gradient(center, aux):
    """d(cell_fi)/d(center) with the diagram combinatorics held fixed."""
    gx = sum((center[0] - t.circumcenter[0]) * t.area for t in aux)
    gy = sum((center[1] - t.circumcenter[1]) * t.area for t in aux)
    return (gx, gy)


def single_linkage_groups(points, eps):
    """Member lists of the connected components of the graph joining points closer than eps."""
    pairs = []
    for i in range(len(points)):
        xi, yi = points[i]
        for j in range(i + 1, len(points)):
            if math.hypot(points[j][0] - xi, points[j][1] - yi) <= eps:
                pairs.append((i, j))
    i, j = np.array(pairs, dtype=int).reshape(-1, 2).T
    labels = geom.components(len(points), i, j)
    members = np.argsort(labels, kind="stable").tolist()
    ends = np.cumsum(np.bincount(labels)).tolist()
    return [members[a:b] for a, b in zip([0] + ends, ends)]


def vertex_cluster_merge_reference(points, vertex_eps):
    """``vertex_cluster_merge`` one cluster at a time."""
    merged = []
    for group in single_linkage_groups(points, vertex_eps):
        merged.append(
            (
                sum(points[i][0] for i in group) / len(group),
                sum(points[i][1] for i in group) / len(group),
            )
        )
    return merged


def recover_spheres_reference(points, cluster_eps=None):
    """``recover_spheres`` one triangle and one cluster at a time, on valid input.

    Its squares are ``** 2`` on numpy scalars, which goes through libm
    ``pow``, so a radius can differ from the array form's in the last bit.
    """
    diag = geom.bbox_diag(points)
    if cluster_eps is None:
        cluster_eps = 1e-6 * diag
    pts = np.asarray(points, dtype=float)
    tri = Delaunay(pts, qhull_options="Qbb Qc Qz")

    centers, areas, members = [], [], []
    for s in tri.simplices:
        p1, p2, p3 = (tuple(pts[k]) for k in s)
        area = abs(geom.triangle_area(p1, p2, p3))
        if area < 1e-12 * diag * diag:
            continue
        lmax2 = max(
            (p1[0] - p2[0]) ** 2 + (p1[1] - p2[1]) ** 2,
            (p2[0] - p3[0]) ** 2 + (p2[1] - p3[1]) ** 2,
            (p3[0] - p1[0]) ** 2 + (p3[1] - p1[1]) ** 2,
        )
        if area < 1e-7 * lmax2:
            continue
        centers.append(geom.circumcenter(p1, p2, p3))
        areas.append(area)
        members.append(tuple(int(k) for k in s))
    if not centers:
        raise AllCollinear("no stable triangle survived filtering")

    balls = []
    for group in single_linkage_groups(centers, cluster_eps):
        wsum = sum(areas[i] for i in group)
        cx = sum(centers[i][0] * areas[i] for i in group) / wsum
        cy = sum(centers[i][1] * areas[i] for i in group) / wsum
        verts = sorted({k for i in group for k in members[i]})
        r = math.sqrt(
            sum((pts[k][0] - cx) ** 2 + (pts[k][1] - cy) ** 2 for k in verts)
            / len(verts)
        )
        balls.append(Ball((float(cx), float(cy)), r))
    balls.sort(key=lambda b: (b.center[0], b.center[1]))
    return balls


def split_cells(xy, offsets):
    """The cells of a CSR cell list as lists of ``(x, y)`` tuples."""
    return [list(map(tuple, c.tolist())) for c in np.split(xy, offsets[1:-1])]


def cell_polygon(d, i):
    """Vertex positions of ball ``i``'s cell in the diagram ``d``, CCW, as ``(x, y)`` tuples."""
    return split_cells(*d.positions(np.array([i])))[0]


def delaunay_limit_violations_reference(t, diagram, balls, margin):
    """``diagram.delaunay_limit_violations`` one cell and one circle at a time."""
    x, _, alive = geom.ball_arrays(balls)
    alive = alive & diagram.has_cell
    out = []
    positions = list(map(tuple, diagram.vertices.tolist()))
    ids, offsets = diagram.cell_vertices.tolist(), diagram.offsets.tolist()
    cells = diagram.bounded & diagram.free & (np.diff(diagram.offsets) >= 3)
    for i in np.flatnonzero(cells).tolist():
        verts = ids[offsets[i] : offsets[i + 1]]
        m = len(verts)
        # balls sharing a vertex with the cell are its neighbors; their
        # centers may lie inside the circumcircle when circles overlap
        # (protecting rings), which is fine for a Delaunay partition
        others = alive.copy()
        others[t.tris[np.isin(diagram.vertex_of, verts)]] = False
        others = np.flatnonzero(others)
        for k in range(m if m > 3 else 1):
            triple = [positions[verts[(k + d) % m]] for d in range(3)]
            try:
                cc = geom.circumcenter(*triple)
            except CollinearPoints:
                continue
            rad = math.hypot(triple[0][0] - cc[0], triple[0][1] - cc[1])
            dc = x[others, :2] - cc
            inside = others[np.hypot(dc[:, 0], dc[:, 1]) < rad - margin]
            out += [(i, j) for j in inside.tolist()]
    return out


def clip_polygon(polygon, domain):
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


def clip_cell_reference(pts, rays, domain):
    """``diagram.clip_cells`` on one cell ``pts``, one vertex at a time.

    ``rays`` are the cell's (start, end) rays if it is unbounded, else
    None; an unbounded cell is first closed by extending its rays well
    beyond the domain.  Near-duplicate consecutive vertices are dropped
    after the clip, each against the last one kept.
    """
    pts = list(pts)
    if rays is not None:
        far = 10.0 * (
            geom.bbox_diag(domain)
            + max(math.hypot(p[0] - domain[0][0], p[1] - domain[0][1]) for p in pts)
            + 1.0
        )
        ra, rb = rays
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
        if polygon_area(pts) < 0:
            pts.reverse()
    pts = clip_polygon(pts, domain)
    # clipping can emit the same corner twice (intersections computed on
    # both adjacent edges); drop near-duplicate consecutive vertices
    if pts:
        eps = 1e-9 * geom.bbox_diag(domain)
        dedup = []
        for p in pts:
            if not dedup or math.hypot(p[0] - dedup[-1][0], p[1] - dedup[-1][1]) > eps:
                dedup.append(p)
        if len(dedup) > 1 and math.hypot(
            dedup[0][0] - dedup[-1][0], dedup[0][1] - dedup[-1][1]
        ) <= eps:
            dedup.pop()
        pts = dedup
    return pts

def orthocenter(b1, b2, b3):
    """Point with equal power to three balls, and that common power value.

    The one-triangle call of ``geom.orthocenters``, behind a conditioning
    guard.  For equal radii this is the circumcenter of the three centers.
    """
    c1, c2, c3 = b1.center, b2.center, b3.center
    a11, a12 = c2[0] - c1[0], c2[1] - c1[1]
    a21, a22 = c3[0] - c1[0], c3[1] - c1[1]
    scale_sq = max(a11 * a11 + a12 * a12, a21 * a21 + a22 * a22)
    if abs(a11 * a22 - a12 * a21) <= geom.CONDITIONING_GUARD * scale_sq:
        raise CollinearCenters("orthocenter: centers are (nearly) collinear")
    x = geom.ball_arrays([b1, b2, b3]).x
    vx, vy, tau = geom.orthocenters(x[:, :2], x[:, 2], [(0, 1, 2)])
    return (float(vx[0]), float(vy[0])), float(tau[0])


def exact_ints_reference(values):
    """``geom._exact_ints`` from ``float.as_integer_ratio``: each value times the largest denominator."""
    pairs = [v.as_integer_ratio() for v in values]
    shift = max(d.bit_length() - 1 for _, d in pairs)
    return [n << (shift - d.bit_length() + 1) for n, d in pairs]


def polygon_area(vertices):
    """Signed shoelace area of a polygon given as a vertex sequence."""
    area = 0.0
    n = len(vertices)
    for i in range(n):
        x1, y1 = vertices[i]
        x2, y2 = vertices[(i + 1) % n]
        area += x1 * y2 - x2 * y1
    return 0.5 * area


def edge_set(t):
    """The edges of the triangle table ``t``, each a frozenset of two ball indices."""
    return {frozenset(e) for e in t.tris[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2).tolist()}


def fd_gradient(balls, diagram, h, on_flip="raise"):
    """Central-difference gradient of F_I with full diagram rebuilds.

    Returns one (dF/dcx, dF/dcy, dF/dR) triple per ball; entries for fixed
    coordinates are zero.  With ``on_flip="raise"`` a probe that changes the
    triangulation combinatorics raises TopologyFlip (shrink h).  Near a
    Delaunay partition every multi-vertex cell is an exact cocircularity, so
    probes flip its tie diagonals for any h; ``on_flip="ignore"`` accepts
    those probes, which is sound because F_I is continuous across tie flips.
    """
    if h <= 0:
        raise ValueError("fd step must be > 0")
    if on_flip not in ("raise", "ignore"):
        raise ValueError("on_flip must be 'raise' or 'ignore'")
    x, free, alive = geom.ball_arrays(balls)
    base_edges = edge_set(build_regular(balls))

    def probe(k, delta):
        probed = BallArrays(x.copy(), free, alive)
        probed.x.flat[k] += delta
        t, d = _rebuild(probed)
        if on_flip == "raise" and edge_set(t) != base_edges:
            raise TopologyFlip(
                f"triangulation changed while probing ball {k // 3} ({'xyr'[k % 3]}{delta:+g})"
            )
        return evaluate_FI(probed, d)

    grads = np.zeros(x.shape)
    for k in np.flatnonzero(free).tolist():
        if k % 3 < 2 or x.flat[k] >= h:
            grads.flat[k] = (probe(k, h) - probe(k, -h)) / (2 * h)
        else:  # a radius below h: one-sided, so it stays >= 0
            grads.flat[k] = (probe(k, h) - evaluate_FI(balls, diagram)) / h
    return [tuple(g) for g in grads.tolist()]


def certify_reference(xy, offsets, pos, local):
    """``dirichlet._certify`` on the candidates ``local`` alone, its six outputs.

    The interior edges come from pairing every half-edge of the candidates
    by one sort (``triangulation._twins``), not from twins the caller
    passes in.
    """
    k = offsets[pos + 1] - offsets[pos]
    cell = np.repeat(np.arange(len(pos)), k - 2)  # cell of each triangle
    ids = offsets[pos][cell][:, None] + local  # (R, 3) rows of xy
    # (R, 3, 2); ``take`` gathers rows faster than indexing does
    corners = xy.take(ids, axis=0)
    # the tie tolerance of each cell, from its span about its first vertex
    at = np.cumsum(k) - k
    dist = xy.take(_ranges(offsets[pos], k), axis=0)
    dist = np.abs(dist - np.repeat(dist[at], k, axis=0))
    span = np.maximum.reduceat(np.maximum(dist[:, 0], dist[:, 1]), at)
    # a cell that overflows gets NaN values: refused, or a NaN F_I that
    # ``run`` reports as Diverged
    with np.errstate(invalid="ignore"):
        area = geom.triangle_area(*corners.transpose(1, 2, 0))
        centers, ok = geom.circumcenters(corners[:, 0], corners[:, 1], corners[:, 2])
    # an interior edge (a, b), a < b, is the side (i, l) of the triangle
    # (i, j, l) that holds the vertices between a and b, its half-edge from
    # corner l to corner i; the twin of that half-edge lies on the triangle
    # on the edge's other side, across from that triangle's third vertex
    twin = _twins(ids)[:, 1]
    edge = np.flatnonzero(twin >= 0)
    d = xy.take(ids.ravel()[twin[edge]], axis=0)
    p, q, r = corners.take(edge, axis=0).transpose(1, 2, 0)
    with np.errstate(invalid="ignore"):
        val = _incircle(*p, *q, *r, *d.T)
    tol = _tie_tol(span)[cell[edge]]
    kept = np.abs(area) > 1e-14 * span[cell] * span[cell]
    refused = np.ones(len(pos), dtype=bool)
    refused[cell[kept]] = False
    refused[cell[kept & ~(ok & (area > 0))]] = True
    refused[cell[edge][~(val <= tol)]] = True
    tie = np.zeros(len(pos), dtype=bool)
    tie[cell[edge][val > -tol]] = True
    rows = kept & ~refused[cell]
    return refused, tie & ~refused, pos[cell[rows]], corners[rows], centers[rows], area[rows]
