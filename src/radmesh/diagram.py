"""Power diagram (radical partition) extraction, dual to the regular triangulation.

Everything is read off the triangle table of ``RegularTriangulation``.
Dual vertices are the triangle orthocenters; adjacent triangles whose
orthocenters lie within a merge tolerance (exact-tie artifacts, cocircular
fans) are grouped by the connected components of that relation
(``geom.components``), and each group collapses into one vertex, the
polygonal vertex of the paper's non-simplicial cells.  Each non-redundant
ball owns a convex polygonal cell whose vertices follow the ball's corners
counterclockwise through the table's half-edge twins; hull balls own
unbounded cells.  All fans are ordered at once, by pointer jumping over
the corners' counterclockwise successors (``_chain_ends``), and the
outward rays of the hull balls' cells are computed for all of them at once.
Ball and vertex ids are dense integers, so fans and vertex sets are
grouped by counts, not sorts: ``np.bincount`` gives each ball's corner
count and each cell set's vertex ids (``PowerDiagram.vertex_ids``), and a
scatter minimum each ball's first corner.

The result, ``PowerDiagram``, is one cell table of numpy arrays: the dual
vertices' positions and power ``tau``, the dual vertex of each triangle,
each ball's CCW cycle of dual vertex ids in CSR form, per-ball ``bounded``
and ``free`` masks and the outward rays of unbounded cells.  Cells are
handed on in one form, a CSR list of vertex positions ``(xy, offsets)``
(``PowerDiagram.positions``), which the auxiliary triangulations and the
renderer read; ``clip_cells`` intersects such a list with a convex CCW
domain, all cells at once, and checks the domain first (``check_domain``).
The Delaunay-limit check (``delaunay_limit_violations``) reads the same
cell table, every circle of every cell at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import geom
from .errors import InconsistentGeometry, RadmeshError
from .geom import Ball, BallArrays, Point2, paraboloid
from .triangulation import RegularTriangulation


@dataclass(eq=False)
class PowerDiagram:
    """The cell table: dual vertex v is row v, ball i's cell is a CSR range.

    Ball i's cell is the CCW cycle of dual vertex ids
    ``cell_vertices[offsets[i]:offsets[i + 1]]``, empty for redundant and
    dead balls.  For an unbounded cell, ``rays[i]`` holds the outward unit
    directions of its two infinite edges, the one before its first vertex
    and the one after its last (NaN for other balls).
    """

    vertices: np.ndarray  # (V, 2) dual vertex positions
    tau: np.ndarray  # (V,) power of each dual vertex
    vertex_of: np.ndarray  # (F,) dual vertex of each triangle
    offsets: np.ndarray  # (N + 1,) cell ranges into cell_vertices
    cell_vertices: np.ndarray  # dual vertex ids, cell after cell
    bounded: np.ndarray  # (N,) the ball owns a bounded cell
    free: np.ndarray  # (N,) the ball is alive and has at least one free coordinate
    rays: np.ndarray  # (N, 2, 2) outward rays (start, end) of unbounded cells
    domain: list[Point2] | None = None
    # the auxiliary triangulations of the usable cells (a dirichlet.AuxMesh),
    # filled on first use by dirichlet._cell_aux so every consumer of one
    # diagram shares them
    aux: object | None = field(default=None, repr=False)

    @property
    def has_cell(self) -> np.ndarray:
        """(N,) mask of the balls that own a cell."""
        return self.offsets[1:] > self.offsets[:-1]

    @property
    def usable(self) -> np.ndarray:
        """(N,) mask of the cells of free balls, bounded ones unless a domain clips them."""
        return self.has_cell & self.free & (self.bounded | (self.domain is not None))

    def positions(self, cells: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The vertex positions of the cells of the balls ``cells`` in CSR form, ``(xy, offsets)``."""
        counts = np.diff(self.offsets)[cells]
        ids = self.cell_vertices[_ranges(self.offsets[cells], counts)]
        return self.vertices[ids], np.concatenate([[0], np.cumsum(counts)])

    def vertex_ids(self, mask: np.ndarray) -> np.ndarray:
        """Sorted ids of the dual vertices on the cells of the balls in ``mask``."""
        ids = self.cell_vertices[np.repeat(mask, np.diff(self.offsets))]
        return np.flatnonzero(np.bincount(ids, minlength=len(self.vertices)))

    def max_abs_tau(self) -> float:
        """Largest |tau| over dual vertices of bounded cells of free balls.

        Cells of fully fixed balls are excluded: inside a protected region
        (e.g. the interior of a masked disk) tau cannot converge by design.
        With a domain polygon, only dual vertices inside the domain count
        (the partition is evaluated within the domain only), and unbounded
        cells contribute their in-domain vertices too.
        """
        ids = self.vertex_ids(self.usable)
        if self.domain is not None:
            ids = ids[_in_convex(self.vertices[ids], self.domain, _domain_tol(self.domain))]
        return float(np.abs(self.tau[ids]).max(initial=0.0))


def _domain_tol(domain: list[Point2]) -> float:
    """The length tolerance of a domain polygon: 1e-9 times its bounding-box diagonal."""
    return 1e-9 * geom.bbox_diag(domain)


def _hypot(dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """``math.hypot`` elementwise; ``np.hypot`` can round an ulp away from it."""
    out = map(math.hypot, dx.ravel().tolist(), dy.ravel().tolist())
    return np.fromiter(out, float, dx.size).reshape(dx.shape)


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``starts[p] + arange(counts[p])`` for every p, concatenated."""
    before = np.cumsum(counts) - counts
    return np.repeat(starts - before, counts) + np.arange(int(counts.sum()))


def _in_convex(p: np.ndarray, domain: list[Point2], tol: float) -> np.ndarray:
    """Mask of the points ``p`` (M, 2) inside (or within tol of) a convex CCW polygon."""
    outside = np.zeros(len(p), dtype=bool)
    for a, b in zip(domain, [*domain[1:], domain[0]]):
        ex, ey = b[0] - a[0], b[1] - a[1]
        outside |= ex * (p[:, 1] - a[1]) - ey * (p[:, 0] - a[0]) < -tol * math.hypot(ex, ey)
    return ~outside


def bbox_diag(balls) -> float:
    """Bounding-box diagonal of the alive ball centers."""
    x, _, alive = geom.ball_arrays(balls)
    return geom.bbox_diag(x[alive, :2].tolist())


def default_merge_eps(balls) -> float:
    """1e-9 times the bounding-box diagonal of the alive ball centers."""
    return 1e-9 * bbox_diag(balls)


def _merge_orthocenters(t: RegularTriangulation, x, merge_eps):
    """Dual vertices: components of adjacent triangles with coincident orthocenters.

    Each vertex sits at the area-weighted mean of its triangles' orthocenters
    and power values (``geom.group_means``).  Returns the (V, 2) positions,
    the (V,) powers and each triangle's vertex number.
    """
    f, k = np.nonzero(t.twin > np.arange(t.twin.size).reshape(-1, 3))
    nb = t.twin[f, k] // 3
    vx, vy = t.orthocenters.T
    close = np.hypot(vx[f] - vx[nb], vy[f] - vy[nb]) <= merge_eps
    labels = geom.components(len(t.tris), f[close], nb[close])

    corners = t.tris.T
    w = np.abs(geom.triangle_area(*zip(x[:, 0][corners], x[:, 1][corners])))
    mean = geom.group_means(labels, w, np.column_stack([t.orthocenters, t.tau]))
    return mean[:, :2], mean[:, 2], labels


def _chain_ends(succ: np.ndarray, longest: int) -> tuple[np.ndarray, np.ndarray]:
    """Pointer jumping over a successor array (-1 ends a chain).

    Returns, per element, the last element of its chain and the number of
    steps to it.  The ``(longest - 1).bit_length()`` rounds resolve every
    chain of at most ``longest`` elements; elements on a cycle are left
    unresolved, and the rounds still stop.
    """
    last = np.where(succ < 0, np.arange(len(succ)), succ)
    togo = (succ >= 0).astype(int)
    for _ in range((longest - 1).bit_length()):
        togo = togo + togo[last]
        last = last[last]
    return last, togo


def extract_diagram(
    t: RegularTriangulation,
    balls: list[Ball] | BallArrays,
    merge_eps: float | None = None,
    domain: list[Point2] | None = None,
) -> PowerDiagram:
    """Extract the radical partition dual to a regular triangulation.

    ``balls`` is the ``Ball`` list of ``t`` or its ``geom.ball_arrays``.
    Corner ``3 f + k`` of the table is ball ``t.tris[f, k]`` in triangle
    ``f``.  A ball's cell follows its corners counterclockwise, from its
    corner on a hull edge if it has one (an unbounded cell), else from the
    corner after its first one in table order.
    """
    x, free, _ = balls = geom.ball_arrays(balls)
    if merge_eps is None:
        merge_eps = default_merge_eps(balls)
    vertices, tau, vertex_of = _merge_orthocenters(t, x, merge_eps)

    n = len(x)
    corner_ball = t.tris.ravel()
    # the same ball's corner in the next triangle counterclockwise, -1 past the
    # hull: the twin g of the half-edge into the ball starts at the corner after g's
    twin = t.twin.ravel()
    after = np.arange(1, len(twin) + 1)  # the next corner in each corner's triangle
    after[2::3] -= 3
    g = twin[after]
    nxt = np.where(g < 0, -1, after[g])
    # the balls are dense, so counts and a scatter group the corners: each
    # owner's corner count, its rank among the owners and its first corner
    per_ball = np.bincount(corner_ball, minlength=n)
    owners = np.flatnonzero(per_ball)
    m = per_ball[owners]
    lo = np.cumsum(m) - m
    owner = (np.cumsum(per_ball > 0) - 1)[corner_ball]
    first = np.full(n, len(twin))
    np.minimum.at(first, corner_ball, np.arange(len(twin)))
    start = nxt[first[owners]]
    # a corner with the hull clockwise of it starts its ball's open fan (a
    # ball with two lies on two open fans, and raises below either way)
    hull = np.flatnonzero(twin[after[after]] < 0)
    start[owner[hull]] = hull
    # each fan is the chain of successors from its start, cut where it closes
    head = start[owner]
    last, togo = _chain_ends(np.where(nxt == head, -1, nxt), int(m.max()))
    bad = (start < 0) | (togo[start] != m - 1)
    if bad.any():
        # the fan misses corners of the ball or runs past them: only a
        # table with overlapping triangles gets here
        raise RadmeshError(
            f"the triangles around ball {owners[bad][0]} neither close nor end on the hull"
        )
    bounded = np.zeros(n, dtype=bool)
    bounded[owners] = nxt[last[start]] == start
    # each ball's dual vertices in fan order, consecutive duplicates dropped,
    # and a closed cycle's last one if it is the first again
    cycle = np.empty(len(corner_ball), dtype=int)
    cycle[lo[owner] + togo[head] - togo] = np.repeat(vertex_of, 3)
    keep = np.ones(len(cycle), dtype=bool)
    keep[1:] = cycle[1:] != cycle[:-1]
    keep[lo] = True
    kept = np.add.reduceat(keep, lo)
    wrap = bounded[owners] & (kept > 1) & (cycle[lo] == cycle[lo + m - 1])
    keep[np.maximum.reduceat(np.where(keep, np.arange(len(keep)), -1), lo)[wrap]] = False
    counts = np.zeros(n, dtype=int)
    counts[owners] = kept - wrap
    ids = cycle[keep]

    # the outward rays across the hull edges at both ends of each open fan,
    # (start, next corner) and (previous corner, end): unit normals turned
    # away from the third ball of the edge's triangle
    rays = np.full((n, 2, 2), np.nan)
    unbounded = ~bounded[owners]
    ends = np.stack([start[unbounded], last[start[unbounded]]], axis=1)
    f, k = ends // 3, ends % 3
    ci = x[owners[unbounded], None, :2]
    cj, ck = x[t.tris[f, (k + [1, 2]) % 3], :2], x[t.tris[f, (k + [2, 1]) % 3], :2]
    d = cj - ci
    nrm = _hypot(d[..., 0], d[..., 1])
    normal = np.stack([d[..., 1] / nrm, -d[..., 0] / nrm], axis=-1)
    mid = (ci + cj) / 2
    away = normal[..., 0] * (ck[..., 0] - mid[..., 0]) + normal[..., 1] * (ck[..., 1] - mid[..., 1]) > 0
    rays[owners[unbounded]] = np.where(away[..., None], -normal, normal)
    offsets = np.concatenate([[0], np.cumsum(counts)])
    return PowerDiagram(vertices, tau, vertex_of, offsets, ids, bounded, free.any(axis=1), rays, domain)


def dual_height(position: Point2, tau: float) -> float:
    """Height above the base plane of the dual-surface vertex at ``position`` with power ``tau``."""
    return paraboloid(position) - 0.5 * tau


def delaunay_limit_violations(
    t: RegularTriangulation,
    diagram: PowerDiagram,
    balls: list[Ball],
    margin: float,
):
    """Empty-circumcircle check of a (near-)Delaunay partition.

    For every bounded cell of a free ball, the circle through each triple of
    consecutive cell vertices (the one circle of a triangle) must contain no
    non-incident ball center deeper than ``margin``; a triple that
    ``geom.circumcenters`` finds collinear gives no circle.  Redundant
    (hidden) balls own no cell and are not part of the partition, so their
    centers are exempt.  Returns violating (cell ball, other ball) pairs by
    cell, then circle, then other ball; a ball inside two circles of a cell
    is listed twice.
    """
    x, _, alive = geom.ball_arrays(balls)
    n, others = len(x), np.flatnonzero(alive & diagram.has_cell)
    cells = np.flatnonzero(diagram.bounded & diagram.free & (np.diff(diagram.offsets) >= 3))
    m = np.diff(diagram.offsets)[cells]
    # circle k of a cell passes through its vertices k, k + 1 and k + 2
    circles = np.where(m > 3, m, 1)
    owner, k, size = np.repeat(cells, circles), _ranges(np.zeros_like(m), circles), np.repeat(m, circles)
    ids = diagram.cell_vertices[diagram.offsets[owner] + (k + np.arange(3)[:, None]) % size]
    p1, p2, p3 = diagram.vertices[ids]
    cc, ok = geom.circumcenters(p1, p2, p3)
    owner, p1, cc = owner[ok], p1[ok], cc[ok]
    limit = _hypot(p1[:, 0] - cc[:, 0], p1[:, 1] - cc[:, 1]) - margin
    # balls sharing a vertex with the cell are its neighbors: the balls of the
    # triangles of each of its dual vertices.  Their centers may lie inside the
    # circles when circles overlap (protecting rings), which is fine for a
    # Delaunay partition
    v = diagram.cell_vertices[_ranges(diagram.offsets[cells], m)]
    tris = np.bincount(diagram.vertex_of, minlength=len(diagram.vertices))
    first = np.cumsum(tris) - tris
    near = np.argsort(diagram.vertex_of, kind="stable")[_ranges(first[v], tris[v])]
    neighbors = np.repeat(np.repeat(cells, m), tris[v])[:, None] * n + t.tris[near]
    hits = [np.zeros(0, dtype=int)]
    step = max(1, 2**16 // max(1, len(others)))  # bounds the (circles, balls) arrays
    for s in range(0, len(cc), step):
        e = slice(s, s + step)
        dc = x[others, :2] - cc[e, None]
        c, j = np.nonzero(np.hypot(dc[..., 0], dc[..., 1]) < limit[e, None])
        hits.append(owner[e][c] * n + others[j])
    hits = np.concatenate(hits)
    i, j = np.divmod(hits[~np.isin(hits, neighbors)], n)
    return list(zip(i.tolist(), j.tolist()))


def _previous(offsets: np.ndarray) -> np.ndarray:
    """Each row's predecessor in its CSR cell, the cell's last row for its first."""
    prev = np.arange(offsets[-1]) - 1
    k = np.diff(offsets)
    prev[offsets[:-1][k > 0]] = offsets[1:][k > 0] - 1
    return prev


def _close_cells(xy, offsets, rays, domain):
    """Close each unbounded cell of a CSR cell list far beyond the domain, counterclockwise.

    ``rays[p]`` are cell p's rays, NaN if it is bounded.  Three vertices are
    appended: out from the last vertex along the end ray, along the sum of
    both rays (their normal if opposite), and out from the first vertex
    along the start ray.  A closed cell that comes out clockwise is reversed.
    """
    k, unbounded = np.diff(offsets), np.isfinite(rays[:, 0, 0])
    u = np.flatnonzero(unbounded)
    ra, rb = rays[u, 0], rays[u, 1]
    a, b = xy[offsets[u]], xy[offsets[u + 1] - 1]
    d = xy[_ranges(offsets[u], k[u])] - domain[0]
    far = np.maximum.reduceat(_hypot(d[:, 0], d[:, 1]), np.cumsum(k[u]) - k[u])
    far = 10.0 * (geom.bbox_diag(domain) + far + 1.0)[:, None]
    m = ra + rb
    nrm = _hypot(m[:, 0], m[:, 1])
    opposite = nrm < 1e-12
    m[opposite] = np.stack([-ra[opposite, 1], ra[opposite, 0]], axis=1)
    nrm[opposite] = 1.0
    closure = np.stack([b + far * rb, a + far * m / nrm[:, None] + far * rb, a + far * ra], axis=1)
    xy = np.insert(xy, np.repeat(offsets[u + 1], 3), closure.reshape(-1, 2), axis=0)
    k = k + 3 * unbounded
    offsets = np.concatenate([[0], np.cumsum(k)])
    # only the signs of the shoelace sums are read, and the far points make them large
    rows = _ranges(offsets[u], k[u])
    p, q = xy[rows], xy[_previous(offsets)[rows]]
    cw = u[np.add.reduceat(q[:, 0] * p[:, 1] - p[:, 0] * q[:, 1], np.cumsum(k[u]) - k[u]) < 0]
    rows, order = _ranges(offsets[cw], k[cw]), np.arange(len(xy))
    order[rows] = np.repeat(2 * offsets[cw] + k[cw] - 1, k[cw]) - rows
    return xy[order], offsets


def _dedup(xy, offsets, tol):
    """Drop each vertex within ``tol`` of the last kept one of its CSR cell, then the wrap duplicate.

    Each decision reads the earlier ones: a round settles one more vertex of each chain of drops.
    """
    first = offsets[:-1][np.diff(offsets) > 0]
    keep, now = np.zeros(len(xy), dtype=bool), np.ones(len(xy), dtype=bool)
    while (now != keep).any():
        keep = now
        # the last kept row before each row; a cell's first row is kept
        last = np.roll(np.maximum.accumulate(np.where(keep, np.arange(len(xy)), 0)), 1)
        d = xy - xy[last]
        now = _hypot(d[:, 0], d[:, 1]) > tol
        now[first] = True
    last = np.maximum.reduceat(np.where(keep, np.arange(len(xy)), -1), first)
    d = xy[first] - xy[last]
    wrap = (last != first) & (_hypot(d[:, 0], d[:, 1]) <= tol)
    keep[last[wrap]] = False
    return xy[keep], np.concatenate([[0], np.cumsum(keep)])[offsets]


def check_domain(domain: list[Point2]) -> None:
    """Raise ``InconsistentGeometry`` unless ``domain`` is a convex CCW polygon, as clipping needs.

    Every vertex must be on the closed left of every edge (exact), one strictly: a pentagram fails.
    """
    n = len(domain)
    if n < 3:
        raise InconsistentGeometry("domain polygon needs >= 3 vertices")
    if not all(math.isfinite(v) for p in domain for v in p):
        raise InconsistentGeometry("domain polygon needs finite vertices")
    i = np.arange(n)[:, None]  # edge i -> i + 1 against the other vertices
    side = geom.orient_signs(np.array(domain, dtype=float), i, (i + 1) % n, (i + np.arange(2, n)) % n)
    if (side < 0).any() or not (side > 0).any():
        raise InconsistentGeometry("domain polygon must be convex and CCW")


def clip_cells(xy, offsets, rays, domain: list[Point2]) -> tuple[np.ndarray, np.ndarray]:
    """Intersect the cells of a CSR cell list with a convex CCW domain polygon.

    Cell p has the CCW vertices ``xy[offsets[p]:offsets[p + 1]]`` and the
    rays ``rays[p]`` of ``PowerDiagram.rays``; unbounded cells are closed
    first.  Each domain edge cuts all cells at once, as Sutherland and
    Hodgman (1974) cut one polygon: every vertex emits the crossing from its
    predecessor, if any, then itself if inside.  A domain corner can come
    out twice, so near-duplicate vertices, within ``_domain_tol``, are
    dropped last.  Returns ``(xy, offsets)``; a cell outside is empty.
    Raises ``InconsistentGeometry`` if the domain is not convex and CCW.
    """
    check_domain(domain)
    xy, offsets = _close_cells(xy, offsets, rays, domain)
    for a, b in zip(domain, [*domain[1:], domain[0]]):
        ex, ey = b[0] - a[0], b[1] - a[1]
        inside = ex * (xy[:, 1] - a[1]) - ey * (xy[:, 0] - a[0]) >= 0
        prev = _previous(offsets)
        cross = inside != inside[prev]
        p = xy[prev[cross]]
        d = xy[cross] - p
        # divide on the crossing rows only: elsewhere the denominator can be 0
        s = (ex * (a[1] - p[:, 1]) - ey * (a[0] - p[:, 0])) / (ex * d[:, 1] - ey * d[:, 0])
        at = np.flatnonzero(cross)
        offsets = np.concatenate([[0], np.cumsum(cross.astype(int) + inside)])[offsets]
        xy = np.insert(xy, at, p + s[:, None] * d, axis=0)[np.insert(inside, at, True)]
    return _dedup(xy, offsets, _domain_tol(domain))
