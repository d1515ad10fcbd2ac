"""Discrete Dirichlet functional on power diagrams and the ball-relaxation loop.

Each bounded cell is triangulated by the Delaunay triangulation of its own
vertex set (the projection of its dual face onto the paraboloid).  The
functional sums, per cell, the squared distance from the ball center to the
circumcenters of these auxiliary triangles, weighted by triangle area.  It
vanishes exactly when every cell is cyclic about its own ball center, i.e.
when the radical partition is a Delaunay partition.

Everything here reads the cell table of ``diagram.PowerDiagram``: the
cells it triangulates are its ``usable`` mask, and the Gauss-Newton
residuals are the triangles whose ``vertex_of`` lies on a bounded cell of
a free ball.

``aux_triangulate_cells`` builds the auxiliary triangulations of all cells
of one diagram as arrays (an ``AuxMesh``).  It takes the cells in CSR
form: without a domain, one gather of the diagram's ``vertices`` through
its ``cell_vertices``; a domain clips each cell first.  A batched float
stage takes the cells grouped by vertex count, each group one index into
those positions, and tests every candidate triangle of a group against
the other vertices at once; a cell whose in-circle values all clear its
tie tolerance has a unique Delaunay triangulation, which that test finds.
The cells it cannot decide (near ties, near-collinear corners) or does not
take (triangles, more than ``_BATCH_MAX_VERTICES`` vertices, groups of
fewer than ``_BATCH_MIN_CELLS`` cells) go to the scalar
``aux_triangulate_cell``: Lawson flips from a fan.  Both paths emit the
same triangles bit for bit, in one canonical order, and ``evaluate_FI``
and the proposals are reductions over the triangle arrays: the proposals
are one array of target rows, whose radii are one column-by-column sum
over the cells' CSR vertices (``_radii``).

``run`` keeps the ball set as one ``(N, 3)`` array of ``[cx, cy, R]`` rows,
a ``free`` mask of the same shape (alive and not fixed, per coordinate)
and an ``alive`` vector; ``Ball`` lists, with Python floats for the exact
predicates, are built from the rows only for the triangulation, the
proposals, the callback and the result.  The three operations on the set
all go through the mask: relaxation and the Gauss-Newton step write the
free coordinates of the rows, and elimination clears a ball's rows in
``alive`` and ``free``.

Each iteration rebuilds the triangulation and the diagram once; the
auxiliary triangulations are computed on first use and kept on the diagram,
and the update proposals are computed once and shared by the elimination
bookkeeping and ``relax_step``.  Every rebuild goes through ``_rebuild``
and warm-starts ``build_regular`` from a table the loop already has: the
previous iteration's, or for a Gauss-Newton trial the table of the point it
steps from.  A start the triangulation's certificate refuses is rebuilt from
qhull and counted in ``OptimizerState.rebuild_fallbacks``.
There is one optimizer.  The update is the heuristic area-weighted center /
least-squares radius proposal, relaxed by ``theta``; once that relaxation
plateaus, a damped Gauss-Newton step on the dual-vertex power residuals
takes over, falling back to relaxation whenever it fails.  ``fd_gradient``
is a rebuild-based finite-difference oracle for tests; the loop never uses it.
"""

from __future__ import annotations

import copy
import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import geom
from .diagram import PowerDiagram, clip_cell, default_merge_eps, extract_diagram
from .errors import (
    CollinearPoints,
    DegenerateCell,
    DegenerateScene,
    Diverged,
    TooFewBalls,
    AllCollinear,
    TopologyFlip,
    UnboundedCell,
    ZeroArea,
)
from .geom import Ball, Point2
from .triangulation import build_regular, lawson_flip


@dataclass
class AuxTriangle:
    vertex_positions: tuple[Point2, Point2, Point2]
    circumcenter: Point2
    area: float


@dataclass
class AuxMesh:
    """The auxiliary triangles of many cells as arrays, cell after cell.

    Row t is a triangle of the cell of ball ``ball[t]``; the cells come in
    the order they were given, and each cell's triangles in canonical order
    (see ``aux_triangulate_cell``).  ``degenerate`` lists the balls whose
    cells were skipped as degenerate.
    """

    ball: np.ndarray  # (T,) ball index
    vertices: np.ndarray  # (T, 3, 2) CCW corners
    circumcenter: np.ndarray  # (T, 2)
    area: np.ndarray  # (T,) unsigned
    degenerate: list[int]


# The batched stage takes the cells of 4 to _BATCH_MAX_VERTICES vertices.
# It tests all C(k, 3) candidate triangles against the other k - 3
# vertices, O(k^4) work per cell against Lawson's O(k^2): on random convex
# cells in groups of 32 (one 2 GHz vCPU, numpy 2.4) it costs 7 us a cell at
# k = 6 (Lawson: 56 us), 120 us at k = 12 (200 us), and breaks even near
# k = 14.  Triangles have
# nothing to test and take the scalar path, which keeps the per-cell entry
# point aux_triangulate_cell, timed by perfbench, reached on diagrams whose
# cells are all triangles (recovered Delaunay circles).
_BATCH_MAX_VERTICES = 12
# A group pays about 0.2 ms of numpy overhead whatever its size; below 4
# cells the scalar path is faster at every k (one 2 GHz vCPU, numpy 2.4:
# 4 cells of 6 vertices take 222 us batched against 247 us by Lawson, one
# takes 189 us against 87 us).
_BATCH_MIN_CELLS = 4


@dataclass
class OptimizerConfig:
    theta: float = 0.5
    max_iters: int = 2000
    tau_tol: float | None = None  # None: 1e-10 * bbox_diag^2
    mode: str = "hybrid"  # the loop never reads it; kept for callers passing mode="hybrid"
    eliminate_redundant: bool = False

    def __post_init__(self):
        if not 0 < self.theta <= 1:
            raise ValueError("theta must be in (0, 1]")
        if self.max_iters < 0:
            raise ValueError("max_iters must be >= 0")
        if self.mode != "hybrid":
            raise ValueError(f"mode {self.mode!r}: the heuristic mode was removed")
        if self.tau_tol is not None and not self.tau_tol > 0:
            raise ValueError("tau_tol must be > 0")


@dataclass
class HistoryRecord:
    iteration: int
    fi: float
    max_abs_tau: float
    moved: int
    eliminated: int


@dataclass
class OptimizerState:
    balls: list[Ball]
    diagram: PowerDiagram
    fi: float
    max_abs_tau: float
    iteration: int
    history: list[HistoryRecord] = field(default_factory=list)
    converged: bool = False
    # Gauss-Newton steps that found no damping level and fell back to relaxation
    gn_fallbacks: int = 0
    # degenerate cells skipped by F_I and the proposals, summed over the iterations
    degenerate_cells: int = 0
    # rebuilds whose start table build_regular refused, rebuilding from qhull
    rebuild_fallbacks: int = 0


def _incircle(ax, ay, bx, by, cx, cy, dx, dy):
    """In-circle value of ``d`` against the CCW triangle ``abc``: positive inside.

    The coordinates are floats or equal-shape arrays; both evaluate the same
    expressions in the same order, so they agree bit for bit.
    """
    adx, ady = ax - dx, ay - dy
    bdx, bdy = bx - dx, by - dy
    cdx, cdy = cx - dx, cy - dy
    return (
        (adx * adx + ady * ady) * (bdx * cdy - cdx * bdy)
        + (bdx * bdx + bdy * bdy) * (cdx * ady - adx * cdy)
        + (cdx * cdx + cdy * cdy) * (adx * bdy - bdx * ady)
    )


def _tie_tol(span):
    """In-circle tie tolerance of a cell whose vertices lie within ``span`` of its first.

    In-circle values scale as span^4; the tolerance reads only the cell's own
    size, so F_I does not depend on where the cell sits.
    """
    s2 = span * span
    return 1e-12 * s2 * s2


def _delaunay_convex(points: list[Point2], tol: float) -> list[list[int]]:
    """Delaunay triangulation of a CCW convex polygon's vertex set.

    The fan from vertex 0, legalized by the shared Lawson flip loop with the
    float in-circle test.  Edges whose in-circle value is within ``tol`` of
    a tie stay as they are: a cocircular quad has the same circumcenter
    whichever diagonal it takes.
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
    return tris


def _cell_points(diagram: PowerDiagram, i: int, domain) -> list[Point2]:
    """Ball ``i``'s cell vertex positions; with a domain, the cell clipped to it."""
    if domain is None:
        if not diagram.bounded[i]:
            raise UnboundedCell(f"cell of ball {i} is unbounded")
        return diagram.points(i)
    pts = clip_cell(diagram, i, domain)
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


def aux_triangulate_cell(pts: list[Point2], ball: int) -> list[AuxTriangle]:
    """Delaunay triangulation of the vertex set of ball ``ball``'s convex cell.

    ``pts`` are the cell's vertices (``_cell_points``: clipped to the
    domain if there is one, which gives unbounded cells a finite auxiliary
    triangulation).  This is the scalar path of ``aux_triangulate_cells``:
    Lawson flips from a fan.  The triangles come in canonical order: each
    is rotated so that its lowest vertex index (in the CCW vertex list)
    comes first, then sorted.
    """
    if len(pts) < 3:
        raise DegenerateCell(f"cell of ball {ball} has < 3 vertices")
    span = max(
        max(abs(p[0] - pts[0][0]), abs(p[1] - pts[0][1])) for p in pts
    )
    if span == 0.0:
        raise DegenerateCell(f"cell of ball {ball} has collapsed")
    if geom.polygon_area(pts) < 0:
        pts = pts[::-1]
    tris = _delaunay_convex(pts, _tie_tol(span))
    out = []
    # min over the rotations of a triangle is the one led by its lowest index
    for i, j, k in sorted(min(t[m:] + t[:m] for m in range(3)) for t in tris):
        tri = (pts[i], pts[j], pts[k])
        area = geom.triangle_area(*tri)
        if abs(area) <= 1e-14 * span * span:
            continue
        try:
            center = geom.circumcenter(*tri)
        except CollinearPoints as e:  # the batched stage's ``ok`` refuses it too
            raise DegenerateCell(f"cell of ball {ball} has an ill-conditioned triangle") from e
        out.append(AuxTriangle(tri, center, abs(area)))
    if not out:
        raise DegenerateCell(f"cell of ball {ball} is degenerate")
    return out


@functools.cache
def _candidates(k: int):
    """The C(k, 3) increasing index triples of a k-gon, and per triple the other k - 3 indices."""
    triples = list(itertools.combinations(range(k), 3))
    others = [[q for q in range(k) if q not in t] for t in triples]
    arrays = np.array(triples), np.array(others, dtype=int).reshape(len(triples), k - 3)
    for a in arrays:
        a.flags.writeable = False  # cached: shared by every call
    return arrays


def _aux_group(P):
    """The batched float stage for C cells of k vertices each, ``P`` of shape (C, k, 2).

    Each cell is oriented and given its tie tolerance as in
    ``aux_triangulate_cell``.  Every candidate triangle (an increasing
    index triple) is tested against the cell's other vertices.  A cell is
    decided when no in-circle value lies within its tie tolerance, no
    candidate falls under the area guard, exactly k - 2 candidates have
    all other vertices strictly outside, and their circumcenters pass the
    conditioning guard.  Its Delaunay triangulation is then unique and is
    that candidate set, which Lawson flips from the fan reach too.

    Returns the (C,) mask of decided cells and, for their triangles, the
    cell row in ``P``, the (n, 3, 2) corners, the circumcenters and the
    areas, cell after cell in canonical order.
    """
    n_cells, k, _ = P.shape
    span = np.maximum(
        np.abs(P[:, :, 0] - P[:, :1, 0]), np.abs(P[:, :, 1] - P[:, :1, 1])
    ).max(axis=1)
    twice_area = np.zeros(n_cells)
    for i in range(k):  # geom.polygon_area's shoelace, term by term
        j = (i + 1) % k
        twice_area += P[:, i, 0] * P[:, j, 1] - P[:, j, 0] * P[:, i, 1]
    P = np.where((0.5 * twice_area < 0)[:, None, None], P[:, ::-1], P)
    tol = _tie_tol(span)[:, None, None]
    triples, others = _candidates(k)
    a, b, c = (P[:, triples[:, m]] for m in range(3))  # (C, T, 2)
    d = P[:, others]  # (C, T, k - 3, 2)
    val = _incircle(
        a[..., :1], a[..., 1:], b[..., :1], b[..., 1:], c[..., :1], c[..., 1:],
        d[..., 0], d[..., 1],
    )
    area = geom.triangle_area(*(np.moveaxis(p, -1, 0) for p in (a, b, c)))  # (C, T)
    keep = (val < -tol).all(axis=2)
    decided = (
        ~(np.abs(val) <= tol).any(axis=(1, 2))
        & ~(np.abs(area) <= (1e-14 * span * span)[:, None]).any(axis=1)
        & (keep.sum(axis=1) == k - 2)
    )
    cell, t = np.nonzero(keep & decided[:, None])
    corners = np.stack([a[cell, t], b[cell, t], c[cell, t]], axis=1)
    centers, ok = geom.circumcenters(corners[:, 0], corners[:, 1], corners[:, 2])
    decided[cell[~ok]] = False
    rows = decided[cell]
    return decided, cell[rows], corners[rows], centers[rows], np.abs(area[cell, t])[rows]


def aux_triangulate_cells(xy: np.ndarray, offsets: np.ndarray, cells: np.ndarray) -> AuxMesh:
    """Auxiliary triangulations of many cells at once, as one ``AuxMesh``.

    The cells are in CSR form: ``xy[offsets[p]:offsets[p + 1]]`` are the
    vertices of the cell of ball ``cells[p]``, as ``_cell_points`` gives
    them.  The cells are grouped by vertex count, and each group is
    gathered from ``xy`` in one index and goes through the batched float
    stage ``_aux_group``.  The cells it cannot decide (near ties,
    area-guard candidates) and the groups it does not take (triangles,
    above ``_BATCH_MAX_VERTICES``, fewer than ``_BATCH_MIN_CELLS`` cells)
    go through ``aux_triangulate_cell``; on the cells both can decide, the
    two give the same triangles bit for bit.  Degenerate cells get no
    triangles and are listed in ``degenerate``.
    """
    counts = np.diff(offsets)
    parts = [(np.zeros(0, dtype=int), np.zeros((0, 3, 2)), np.zeros((0, 2)), np.zeros(0))]
    scalar = []
    for k in np.unique(counts).tolist():
        members = np.flatnonzero(counts == k)
        if not 4 <= k <= _BATCH_MAX_VERTICES or len(members) < _BATCH_MIN_CELLS:
            scalar += members.tolist()
            continue
        decided, row, *tris = _aux_group(xy[offsets[members][:, None] + np.arange(k)])
        parts.append((members[row], *tris))
        scalar += members[~decided].tolist()
    degenerate, rows = [], []
    for pos in sorted(scalar):
        pts = list(map(tuple, xy[offsets[pos] : offsets[pos + 1]].tolist()))
        try:
            aux = aux_triangulate_cell(pts, int(cells[pos]))
        except DegenerateCell:
            degenerate.append(int(cells[pos]))
            continue
        rows += [(pos, t.vertex_positions, t.circumcenter, t.area) for t in aux]
    if rows:
        parts.append(tuple(np.array(x) for x in zip(*rows)))
    pos, corners, centers, area = (np.concatenate(x) for x in zip(*parts))
    order = np.argsort(pos, kind="stable")
    return AuxMesh(cells[pos[order]], corners[order], centers[order], area[order], degenerate)


def heuristic_center(aux: list[AuxTriangle]) -> Point2:
    """Area-weighted mean of the auxiliary circumcenters of one cell."""
    total = sum(t.area for t in aux)
    if total <= 0:
        raise ZeroArea("the auxiliary triangles have zero total area")
    x = sum(t.circumcenter[0] * t.area for t in aux) / total
    y = sum(t.circumcenter[1] * t.area for t in aux) / total
    return (x, y)


def heuristic_radius(c_new: Point2, cell_vertices: list[Point2]) -> float:
    """Least-squares radius: root mean square distance to the cell vertices.

    Squares are products, not ``**``, whose libm ``pow`` rounds differently
    on some doubles, so ``_radii`` gives the same bits from arrays.
    """
    m = len(cell_vertices)
    ssum = 0.0
    for v in cell_vertices:
        dx, dy = v[0] - c_new[0], v[1] - c_new[1]
        ssum += dx * dx + dy * dy
    return math.sqrt(ssum / m)


def cell_fi(center: Point2, aux: list[AuxTriangle]) -> float:
    """Cell contribution to the functional for a fixed auxiliary triangulation."""
    return 0.5 * sum(
        ((center[0] - t.circumcenter[0]) ** 2 + (center[1] - t.circumcenter[1]) ** 2)
        * t.area
        for t in aux
    )


def frozen_center_gradient(center: Point2, aux: list[AuxTriangle]) -> Point2:
    """d(cell_fi)/d(center) with the diagram combinatorics held fixed."""
    gx = sum((center[0] - t.circumcenter[0]) * t.area for t in aux)
    gy = sum((center[1] - t.circumcenter[1]) * t.area for t in aux)
    return (gx, gy)


def _cell_positions(diagram: PowerDiagram, cells: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The vertex positions of the cells of ``cells`` in CSR form, ``(xy, offsets)``.

    Without a domain they are one gather from the cell table; with one,
    each cell is clipped to it (``_cell_points``).
    """
    if diagram.domain is None:
        counts = np.diff(diagram.offsets)[cells]
        offsets = np.concatenate([[0], np.cumsum(counts)])
        first = np.repeat(diagram.offsets[cells] - offsets[:-1], counts)
        return diagram.vertices[diagram.cell_vertices[first + np.arange(offsets[-1])]], offsets
    points = [_cell_points(diagram, i, diagram.domain) for i in cells.tolist()]
    offsets = np.concatenate([[0], np.cumsum([len(p) for p in points], dtype=int)])
    return np.array([p for pts in points for p in pts], dtype=float).reshape(-1, 2), offsets


def _cell_aux(diagram: PowerDiagram) -> AuxMesh:
    """Auxiliary triangulations of the usable cells of free balls.

    Dead and redundant balls (which own no cell), fully fixed balls, and
    unbounded cells without a domain get none; degenerate cells get none
    and are listed in ``degenerate``.  Computed once per diagram and kept
    in ``diagram.aux``.
    """
    if diagram.aux is None:
        cells = np.flatnonzero(diagram.usable)
        diagram.aux = aux_triangulate_cells(*_cell_positions(diagram, cells), cells)
    return diagram.aux


def evaluate_FI(balls: list[Ball], diagram: PowerDiagram) -> float:
    """Dirichlet functional: ``cell_fi`` summed over the bounded cells of free balls."""
    aux = _cell_aux(diagram)
    d = np.array([b.center for b in balls]).reshape(-1, 2)[aux.ball] - aux.circumcenter
    return 0.5 * float(((d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1]) * aux.area).sum())


def bbox_diag(balls) -> float:
    """Bounding-box diagonal of the alive ball centers."""
    return geom.bbox_diag([b.center for b in balls if b.alive])


def _rebuild(balls, merge_eps=None, start=None, state=None):
    """The triangulation and diagram of ``balls``, the triangulation warm-started from ``start``.

    A ``start`` that ``build_regular`` refuses is counted in
    ``state.rebuild_fallbacks``.
    """
    t = build_regular(balls, start=start)
    if start is not None and not t.warm and state is not None:
        state.rebuild_fallbacks += 1
    return t, extract_diagram(t, balls, merge_eps)


def _radii(diagram: PowerDiagram, ids: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """``heuristic_radius`` of the cell of each ball in ``ids`` about its row of ``centers``.

    Each cell's squared distances fill one row, padded with zeros, and
    ``np.cumsum`` adds along the row strictly in order: the order of
    ``heuristic_radius``, so the two agree bit for bit.
    """
    first = diagram.offsets[ids]
    m = diagram.offsets[ids + 1] - first
    col = np.arange(int(m.max(initial=1)))
    inside = col < m[:, None]
    d = diagram.vertices[diagram.cell_vertices[np.where(inside, first[:, None] + col, 0)]]
    d -= centers[:, None]
    sq = np.where(inside, d[..., 0] * d[..., 0] + d[..., 1] * d[..., 1], 0.0)
    return np.sqrt(np.cumsum(sq, axis=1)[:, -1] / m)


def _proposals(balls, diagram):
    """Jacobi-style update targets: the proposed balls and their ``[cx, cy, R]`` rows.

    Returns the ascending ball indices and one target row each.  The
    center is ``heuristic_center`` of each usable cell; fixed-center balls
    with unbounded cells (boundary protectors) keep their centers and still
    adapt their free radii to the finite dual vertices of their fan.  Every
    radius is ``heuristic_radius`` about the new center, for all balls at
    once (``_radii``).
    """
    aux = _cell_aux(diagram)
    cells = np.unique(aux.ball)
    area = np.bincount(aux.ball, aux.area)[cells]
    cx = np.bincount(aux.ball, aux.circumcenter[:, 0] * aux.area)[cells] / area
    cy = np.bincount(aux.ball, aux.circumcenter[:, 1] * aux.area)[cells] / area
    hull = [
        i
        for i in np.flatnonzero(diagram.has_cell & ~diagram.bounded).tolist()
        if balls[i].alive and balls[i].fix_center and not balls[i].fix_radius
    ]
    ids = np.union1d(cells, hull).astype(int)
    centers = np.empty((len(ids), 2))
    centers[np.searchsorted(ids, cells)] = np.stack([cx, cy], axis=1)
    centers[np.searchsorted(ids, hull)] = np.array([balls[i].center for i in hull]).reshape(-1, 2)
    return ids, np.column_stack([centers, _radii(diagram, ids, centers)])


def _coords(balls):
    """``[cx, cy, R]`` rows, the free mask and the alive vector of ``balls``.

    A coordinate is free when its ball is alive and does not fix it.
    """
    x = np.array([(b.center[0], b.center[1], b.radius) for b in balls], dtype=float)
    alive = np.array([b.alive for b in balls], dtype=bool)
    fixed = np.array([(b.fix_center, b.fix_center, b.fix_radius) for b in balls], dtype=bool)
    return x, alive[:, None] & ~fixed, alive


def relax_step(x, free, proposals, theta: float):
    """One relaxed update of the free coordinates toward ``proposals`` (simultaneous commit).

    ``x`` holds one ``[cx, cy, R]`` row per ball, ``free`` marks the
    coordinates that may move, and ``proposals`` are the ball indices and
    target rows of ``_proposals``.  Returns the new rows.
    """
    ids, rows = proposals
    target = x.copy()
    target[ids] = rows
    proposed = np.zeros(len(x), dtype=bool)
    proposed[ids] = True
    return np.where(free & proposed[:, None], x * (1 - theta) + target * theta, x)


def fd_gradient(balls: list[Ball], diagram: PowerDiagram, h: float, on_flip="raise"):
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
    base_t = build_regular(balls)
    base_edges = base_t.edge_set()

    def probe(i, attr, delta):
        probed = [copy.copy(b) for b in balls]
        b = probed[i]
        if attr == "x":
            b.center = (b.center[0] + delta, b.center[1])
        elif attr == "y":
            b.center = (b.center[0], b.center[1] + delta)
        else:
            b.radius = b.radius + delta
        t, d = _rebuild(probed)
        if on_flip == "raise" and t.edge_set() != base_edges:
            raise TopologyFlip(
                f"triangulation changed while probing ball {i} ({attr}{delta:+g})"
            )
        return evaluate_FI(probed, d)

    grads = []
    for i, b in enumerate(balls):
        gx = gy = gr = 0.0
        if b.alive and not b.fix_center:
            gx = (probe(i, "x", h) - probe(i, "x", -h)) / (2 * h)
            gy = (probe(i, "y", h) - probe(i, "y", -h)) / (2 * h)
        if b.alive and not b.fix_radius:
            if b.radius >= h:
                gr = (probe(i, "r", h) - probe(i, "r", -h)) / (2 * h)
            else:
                f0 = evaluate_FI(balls, diagram)
                gr = (probe(i, "r", h) - f0) / h
        grads.append((gx, gy, gr))
    return grads


def _tau_system(x, free, triangulation, active):
    """Power residuals tau(v_k) and their Jacobian w.r.t. the free coordinates.

    v_k solves the 2x2 dual-vertex system of its triangle; differentiating
    that system gives closed-form rows, so no diagram rebuilds are needed.
    The unknowns are the free entries of ``x``: column k of J belongs to
    ``x.flat[cols[k]]``.
    """
    cols = np.flatnonzero(free.ravel())
    col_of = np.full(free.size, -1)
    col_of[cols] = np.arange(len(cols))
    tris = triangulation.tris[active]
    centers, radii = x[:, :2], x[:, 2]
    vx, vy, r = geom.orthocenters(centers, radii, tris)
    v = np.stack([vx, vy], axis=1)
    ci, cj, cl = centers[tris[:, 0]], centers[tris[:, 1]], centers[tris[:, 2]]
    # w = A^{-T} (v - c_i), with the rows of A the edges c_j - c_i, c_l - c_i
    w = np.linalg.solve(np.stack([cj - ci, cl - ci], axis=2), (v - ci)[:, :, None])[:, :, 0]
    wi = 1.0 - (w[:, 0] + w[:, 1])
    vals = np.empty((len(tris), 3, 3))  # (row, corner, coordinate)
    vals[:, 0, :2] = 2.0 * (ci - v) * wi[:, None]
    vals[:, 1, :2] = 2.0 * w[:, :1] * (cj - v)
    vals[:, 2, :2] = 2.0 * w[:, 1:] * (cl - v)
    vals[:, :, 2] = -2.0 * radii[tris] * np.stack([wi, w[:, 0], w[:, 1]], axis=1)
    col = col_of[3 * tris[:, :, None] + np.arange(3)]
    keep = col >= 0
    rows = np.broadcast_to(np.arange(len(tris))[:, None, None], col.shape)
    J = np.zeros((len(tris), len(cols)))
    J[rows[keep], col[keep]] += vals[keep]
    return r, J, cols


def _active_triangles(diagram):
    """Triangles whose dual vertex belongs to a bounded cell of a free ball, ascending."""
    usable = np.zeros(len(diagram.tau), dtype=bool)
    usable[diagram.vertex_ids(diagram.bounded & diagram.free)] = True
    return np.flatnonzero(usable[diagram.vertex_of])


def _damped_steps(J, r, lam):
    """Steps ``argmin |J dx + r|^2 + lam |dx|^2`` for ``lam``, ``100 lam``, ... (8 levels).

    The minimizer lies in range(J^T), so with the reduced QR ``J^T = Q R``
    (``Q`` has k = min(m, n) orthonormal columns) each level solves
    ``[R^T; sqrt(lam) I_k] z = [-r; 0]`` by least squares in k unknowns and
    yields ``Q z``.  The one factorization serves every level; it is made
    when the first step is asked for.
    """
    Q, R = np.linalg.qr(J.T)
    k = R.shape[0]
    rhs = np.concatenate([-r, np.zeros(k)])
    for _ in range(8):
        lhs = np.vstack([R.T, math.sqrt(lam) * np.eye(k)])
        z, *_ = np.linalg.lstsq(lhs, rhs, rcond=None)
        yield Q @ z
        lam *= 100.0


def _gauss_newton_step(x, free, as_balls, triangulation, diagram, merge_eps, state=None):
    """Damped Gauss-Newton step driving all active tau(v_k) to zero.

    The m x n Jacobian ``J`` of the m active residuals in the n free
    coordinates is factored once per step as ``J^T = Q R``, so
    ``J = R^T Q^T`` and every damping level is a least-squares solve in
    min(m, n) unknowns (``_damped_steps``).
    ``as_balls`` turns coordinate rows into the ball list to rebuild; each
    trial rebuild starts from ``triangulation`` and counts a refused start
    in ``state``.  A trial whose rows are not finite counts as failed.
    Returns (new rows, moved, (triangulation, diagram) of the new rows), or
    (x, 0, None) when no damping level helps.
    """
    active = _active_triangles(diagram)
    if not len(active):
        return x, 0, None
    r, J, cols = _tau_system(x, free, triangulation, active)
    if not len(cols):
        return x, 0, None
    base = float(r @ r)
    scale = float(np.abs(J).max()) or 1.0
    for dx in _damped_steps(J, r, 1e-10 * scale * scale):
        alpha = 1.0
        for _ in range(6):
            trial = x.copy()
            trial.ravel()[cols] += alpha * dx
            radii = trial[:, 2]
            radii[free[:, 2] & ~(radii > 0.0)] = 0.0  # max(0, R) on the free radii
            if not np.isfinite(trial).all():
                alpha *= 0.5
                continue
            try:
                t2, d2 = _rebuild(as_balls(trial), merge_eps, triangulation, state)
            except (TooFewBalls, AllCollinear):
                alpha *= 0.5
                continue
            a2 = _active_triangles(d2)
            r2 = t2.tau[a2]
            if len(a2) and float(r2 @ r2) / len(a2) < base / len(active):
                return trial, int(free.any(axis=1).sum()), (t2, d2)
            alpha *= 0.5
    return x, 0, None


def run(
    initial_balls: list[Ball],
    config: OptimizerConfig,
    on_iteration=None,
) -> OptimizerState:
    """Drive the four-step iteration until convergence or exhaustion.

    ``on_iteration`` is called with the state after each diagram rebuild.
    """
    x, free, alive = _coords(initial_balls)

    def as_balls(rows):
        return [
            Ball((cx, cy), r, b.fix_center, b.fix_radius, a)
            for (cx, cy, r), a, b in zip(rows.tolist(), alive.tolist(), initial_balls)
        ]

    scale = bbox_diag(initial_balls)
    tau_tol = config.tau_tol if config.tau_tol is not None else 1e-10 * scale * scale
    merge_eps = default_merge_eps(initial_balls)

    state = OptimizerState([], None, math.inf, math.inf, 0)
    skip_count = np.zeros(len(x), dtype=int)
    polish = False  # the relaxation has plateaued; Gauss-Newton leads
    eliminated_total = 0
    built = None  # (triangulation, diagram) of ``x`` if a GN step built it
    tri = None  # the previous iteration's triangulation, the next rebuild's start

    for it in range(config.max_iters + 1):
        if not np.isfinite(x).all():
            raise Diverged(f"a ball coordinate is no longer finite at iteration {it}")
        balls = as_balls(x)
        try:
            tri, diagram = built or _rebuild(balls, merge_eps, tri, state)
        except (TooFewBalls, AllCollinear) as e:
            if it == 0:
                raise  # the input scene itself is unusable
            raise DegenerateScene(str(e)) from e
        fi = evaluate_FI(balls, diagram)
        if not math.isfinite(fi):
            raise Diverged(f"F_I is {fi} at iteration {it}")
        state.degenerate_cells += len(diagram.aux.degenerate)
        max_tau = diagram.max_abs_tau()
        state.balls = balls
        state.diagram = diagram
        state.fi = fi
        state.max_abs_tau = max_tau
        state.iteration = it
        if on_iteration is not None:
            on_iteration(state)

        converged = max_tau <= tau_tol
        if converged or it == config.max_iters:
            state.history.append(HistoryRecord(it, fi, max_tau, 0, eliminated_total))
            state.converged = converged
            return state

        hist = state.history
        # the residual polish minimizes sum tau^2, under which F_I may rise
        # transiently, so the F_I divergence guard only applies before it
        if not polish and len(hist) >= 20:
            window = [h.fi for h in hist[-20:]] + [fi]
            if fi > 10 * window[0] and all(
                b >= a for a, b in zip(window, window[1:])
            ):
                raise Diverged(
                    f"F_I grew from {window[0]:.3e} to {fi:.3e} over 20 iterations"
                )
        if not polish and len(hist) >= 10:
            # switch to the polishing phase once the relaxation has truly
            # plateaued (< 5% progress over 10 iterations), or after a long
            # preconditioning run when it is still creeping along a slow
            # geometric tail; from there the polish is locally quadratic and
            # falls back to relaxation whenever a step fails
            r10 = hist[-10].fi
            if r10 > 0 and (
                fi / r10 > 0.95 or (len(hist) >= 100 and fi / r10 > 0.6)
            ):
                polish = True

        # track balls without a usable cell this iteration
        proposals = _proposals(balls, diagram)
        skipped = free.any(axis=1)
        skipped[proposals[0]] = False
        skip_count = np.where(skipped, skip_count + 1, 0)
        if config.eliminate_redundant:
            gone = skip_count >= 3
            alive[gone] = False
            free[gone] = False
            eliminated_total += int(gone.sum())

        moved = 0
        built = None
        if polish:
            # once the local relaxation stalls, polish with damped
            # Gauss-Newton on the dual-vertex power residuals; their zero
            # set coincides with F_I = 0 and the local convergence is
            # quadratic where the relaxation rate approaches 1
            x_new, moved, built = _gauss_newton_step(
                x, free, as_balls, tri, diagram, merge_eps, state
            )
            state.gn_fallbacks += int(moved == 0)
        if moved == 0:
            x_new = relax_step(x, free, proposals, config.theta)
            moved = len(proposals[0])

        state.history.append(HistoryRecord(it, fi, max_tau, moved, eliminated_total))
        x = x_new
    return state


def write_history_csv(history: list[HistoryRecord], path) -> None:
    """Convergence log: one row per iteration, 17 significant digits."""
    with open(path, "w", encoding="utf-8") as f:
        f.write("iter,F_I,max_abs_tau,moved,eliminated\n")
        for rec in history:
            f.write(
                f"{rec.iteration},{rec.fi:.17g},{rec.max_abs_tau:.17g},"
                f"{rec.moved},{rec.eliminated}\n"
            )
