"""Shared helpers for the test suite, and the scalar references of the array code.

The aux-cell references work on one cell at a time, as lists of
``AuxTriangle``: the Lawson flips from a fan (``fan_triangulate_cell``),
the oracle of the batched ``aux_triangulate_cells``, and the per-cell forms
of the update and of ``F_I`` that the package evaluates on arrays.  The
recovery references (``recover_spheres_reference``,
``vertex_cluster_merge_reference``) walk one triangle and one cluster at a
time.
"""

import math
from dataclasses import dataclass

import numpy as np
import pytest
from scipy.spatial import Delaunay

from radmesh import geom
from radmesh.dirichlet import _incircle, _tie_tol, aux_triangulate_cells
from radmesh.errors import AllCollinear, CollinearPoints, DegenerateCell, RadmeshError
from radmesh.geom import Ball
from radmesh.triangulation import lawson_flip


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


class ZeroArea(RadmeshError):
    """Auxiliary triangulation has zero total area."""


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
