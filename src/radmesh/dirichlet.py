"""Discrete Dirichlet functional on power diagrams and the ball-relaxation loop.

Each bounded cell is triangulated by the Delaunay triangulation of its own
vertex set (the projection of its dual face onto the paraboloid).  The
functional sums, per cell, the squared distance from the ball center to the
circumcenters of these auxiliary triangles, weighted by triangle area.  It
vanishes exactly when every cell is cyclic about its own ball center, i.e.
when the radical partition is a Delaunay partition.

``aux_triangulate_cells`` builds the auxiliary triangulations of all cells
of one diagram as arrays (an ``AuxMesh``).  A batched float stage takes the
cells grouped by vertex count and tests every candidate triangle of a group
against the other vertices at once; a cell whose in-circle values all clear
its tie tolerance has a unique Delaunay triangulation, which that test
finds.  The cells it cannot decide (near ties, near-collinear corners) or
does not take (triangles, more than ``_BATCH_MAX_VERTICES`` vertices) go
to the scalar ``aux_triangulate_cell``: Lawson flips from a fan.  Both
paths emit the same triangles bit for bit, in one canonical order, and
``evaluate_FI`` and the proposals are reductions over the triangle arrays.

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
bookkeeping and ``relax_step``.
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
from .diagram import PowerCell, PowerDiagram, clip_cell, default_merge_eps, extract_diagram
from .errors import (
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
    cell_index: int
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

    def illegal(a, b, c, q):
        return _incircle(*points[a], *points[b], *points[c], *points[q]) > tol

    def left_turn(p, u, q):
        return geom.triangle_area(points[p], points[u], points[q]) > 0

    lawson_flip(tris, illegal, left_turn)
    return tris


def _cell_points(cell: PowerCell, domain) -> list[Point2]:
    """The cell's vertex positions; with a domain, the cell clipped to it."""
    if domain is None:
        if not cell.bounded:
            raise UnboundedCell(f"cell of ball {cell.ball_index} is unbounded")
        return cell.vertex_positions()
    pts = clip_cell(cell, domain)
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


def aux_triangulate_cell(cell: PowerCell, domain=None, points=None) -> list[AuxTriangle]:
    """Delaunay triangulation of a bounded convex cell's vertex set.

    With a convex ``domain`` polygon the cell is clipped to it first, which
    also gives unbounded cells a finite auxiliary triangulation; a caller
    that has clipped it already passes the result as ``points``.  This is
    the scalar path of ``aux_triangulate_cells``: Lawson flips from a fan.
    The triangles come in canonical order: each is rotated so that its
    lowest vertex index (in the CCW vertex list) comes first, then sorted.
    """
    pts = _cell_points(cell, domain) if points is None else points
    if len(pts) < 3:
        raise DegenerateCell(f"cell of ball {cell.ball_index} has < 3 vertices")
    span = max(
        max(abs(p[0] - pts[0][0]), abs(p[1] - pts[0][1])) for p in pts
    )
    if span == 0.0:
        raise DegenerateCell(f"cell of ball {cell.ball_index} has collapsed")
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
        out.append(AuxTriangle(cell.ball_index, tri, geom.circumcenter(*tri), abs(area)))
    if not out:
        raise DegenerateCell(f"cell of ball {cell.ball_index} is degenerate")
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


def aux_triangulate_cells(cells: list[PowerCell], domain=None) -> AuxMesh:
    """Auxiliary triangulations of many cells at once, as one ``AuxMesh``.

    The cells are grouped by vertex count and each group goes through the
    batched float stage ``_aux_group``.  The cells it cannot decide (near
    ties, area-guard candidates) and the groups it does not take
    (triangles, and above ``_BATCH_MAX_VERTICES``) go through
    ``aux_triangulate_cell``; on the cells both can decide, the two give
    the same triangles bit for bit.  Degenerate cells get no triangles and
    are listed in ``degenerate``.
    """
    points = [_cell_points(cell, domain) for cell in cells]
    groups: dict[int, list[int]] = {}
    for pos, pts in enumerate(points):
        groups.setdefault(len(pts), []).append(pos)
    parts = [(np.zeros(0, dtype=int), np.zeros((0, 3, 2)), np.zeros((0, 2)), np.zeros(0))]
    scalar = []
    for k, members in groups.items():
        if not 4 <= k <= _BATCH_MAX_VERTICES:
            scalar += members
            continue
        members = np.array(members)
        decided, row, *tris = _aux_group(np.array([points[p] for p in members]))
        parts.append((members[row], *tris))
        scalar += members[~decided].tolist()
    degenerate, rows = [], []
    for pos in sorted(scalar):
        try:
            aux = aux_triangulate_cell(cells[pos], domain, points[pos])
        except DegenerateCell:
            degenerate.append(cells[pos].ball_index)
            continue
        rows += [(pos, t.vertex_positions, t.circumcenter, t.area) for t in aux]
    if rows:
        parts.append(tuple(np.array(x) for x in zip(*rows)))
    pos, corners, centers, area = (np.concatenate(x) for x in zip(*parts))
    order = np.argsort(pos, kind="stable")
    ball = np.array([cell.ball_index for cell in cells], dtype=int)
    return AuxMesh(ball[pos[order]], corners[order], centers[order], area[order], degenerate)


def heuristic_center(cell: PowerCell, aux: list[AuxTriangle]) -> Point2:
    """Area-weighted mean of the auxiliary circumcenters."""
    total = sum(t.area for t in aux)
    if total <= 0:
        raise ZeroArea(f"cell of ball {cell.ball_index} has zero aux area")
    x = sum(t.circumcenter[0] * t.area for t in aux) / total
    y = sum(t.circumcenter[1] * t.area for t in aux) / total
    return (x, y)


def heuristic_radius(c_new: Point2, cell_vertices: list[Point2]) -> float:
    """Least-squares radius: root mean square distance to the cell vertices."""
    m = len(cell_vertices)
    ssum = sum(
        (v[0] - c_new[0]) ** 2 + (v[1] - c_new[1]) ** 2 for v in cell_vertices
    )
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


def _cell_aux(diagram: PowerDiagram) -> AuxMesh:
    """Auxiliary triangulations of the usable cells of free balls.

    Cells of dead or redundant balls (``None``), of fully fixed balls, and
    unbounded cells without a domain get none; degenerate cells get none
    and are listed in ``degenerate``.  Computed once per diagram and kept
    in ``diagram.aux``.
    """
    if diagram.aux is None:
        cells = [
            cell
            for cell in diagram.cells
            if cell is not None and cell.free and (cell.bounded or diagram.domain is not None)
        ]
        diagram.aux = aux_triangulate_cells(cells, diagram.domain)
    return diagram.aux


def evaluate_FI(balls: list[Ball], diagram: PowerDiagram) -> float:
    """Dirichlet functional: ``cell_fi`` summed over the bounded cells of free balls."""
    aux = _cell_aux(diagram)
    d = np.array([b.center for b in balls]).reshape(-1, 2)[aux.ball] - aux.circumcenter
    return 0.5 * float(((d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1]) * aux.area).sum())


def bbox_diag(balls) -> float:
    """Bounding-box diagonal of the alive ball centers."""
    return geom.bbox_diag([b.center for b in balls if b.alive])


def _rebuild(balls, merge_eps=None):
    t = build_regular(balls)
    return t, extract_diagram(t, balls, merge_eps)


def _proposals(balls, diagram):
    """Jacobi-style update targets (c_new, R_new) per free ball.

    c_new is ``heuristic_center`` of each cell, for all cells at once.
    """
    aux = _cell_aux(diagram)
    cells = np.unique(aux.ball)
    area = np.bincount(aux.ball, aux.area)[cells]
    cx = np.bincount(aux.ball, aux.circumcenter[:, 0] * aux.area)[cells] / area
    cy = np.bincount(aux.ball, aux.circumcenter[:, 1] * aux.area)[cells] / area
    proposals = {}
    for i, x, y in zip(cells.tolist(), cx.tolist(), cy.tolist()):
        proposals[i] = ((x, y), heuristic_radius((x, y), diagram.cells[i].vertex_positions()))
    # fixed-center balls with unbounded cells (boundary protectors) still
    # adapt their free radii to the finite dual vertices of their fan
    for cell in diagram.cells:
        if cell is None or cell.bounded or not cell.vertices:
            continue
        b = balls[cell.ball_index]
        if b.alive and b.fix_center and not b.fix_radius:
            proposals[cell.ball_index] = (
                b.center,
                heuristic_radius(b.center, cell.vertex_positions()),
            )
    return proposals


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
    coordinates that may move, and ``proposals`` maps ball index to the
    target (c_new, R_new) of ``_proposals``.  Returns the new rows.
    """
    target = x.copy()
    proposed = np.zeros(free.shape, dtype=bool)
    for i, ((cx, cy), r) in proposals.items():
        target[i] = cx, cy, r
        proposed[i] = True
    return np.where(free & proposed, x * (1 - theta) + target * theta, x)


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


def _active_triangles(triangulation, diagram):
    """Triangles whose dual vertex belongs to a bounded cell of a free ball."""
    active = set()
    for cell in diagram.bounded_cells():
        if not cell.free:
            continue
        for v in cell.vertices:
            active.update(v.source_triangles)
    return sorted(active)


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


def _gauss_newton_step(x, free, as_balls, triangulation, diagram, merge_eps):
    """Damped Gauss-Newton step driving all active tau(v_k) to zero.

    The m x n Jacobian ``J`` of the m active residuals in the n free
    coordinates is factored once per step as ``J^T = Q R``, so
    ``J = R^T Q^T`` and every damping level is a least-squares solve in
    min(m, n) unknowns (``_damped_steps``).
    ``as_balls`` turns coordinate rows into the ball list to rebuild.
    Returns (new rows, moved, (triangulation, diagram) of the new rows), or
    (x, 0, None) when no damping level helps.
    """
    active = _active_triangles(triangulation, diagram)
    if not active:
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
            try:
                t2, d2 = _rebuild(as_balls(trial), merge_eps)
            except (TooFewBalls, AllCollinear):
                alpha *= 0.5
                continue
            a2 = _active_triangles(t2, d2)
            r2 = t2.tau[a2]
            if a2 and float(r2 @ r2) / len(a2) < base / len(active):
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
    skip_count = [0] * len(x)
    polish = False  # the relaxation has plateaued; Gauss-Newton leads
    eliminated_total = 0
    built = None  # (triangulation, diagram) of ``x`` if a GN step built it

    for it in range(config.max_iters + 1):
        balls = as_balls(x)
        try:
            tri, diagram = built or _rebuild(balls, merge_eps)
        except (TooFewBalls, AllCollinear) as e:
            if it == 0:
                raise  # the input scene itself is unusable
            raise DegenerateScene(str(e)) from e
        fi = evaluate_FI(balls, diagram)
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
        eliminated = 0
        proposals = _proposals(balls, diagram)
        for i in np.flatnonzero(free.any(axis=1)).tolist():
            if i in proposals:
                skip_count[i] = 0
            else:
                skip_count[i] += 1
                if config.eliminate_redundant and skip_count[i] >= 3:
                    alive[i] = False
                    free[i] = False
                    eliminated += 1
        eliminated_total += eliminated

        moved = 0
        built = None
        if polish:
            # once the local relaxation stalls, polish with damped
            # Gauss-Newton on the dual-vertex power residuals; their zero
            # set coincides with F_I = 0 and the local convergence is
            # quadratic where the relaxation rate approaches 1
            x_new, moved, built = _gauss_newton_step(x, free, as_balls, tri, diagram, merge_eps)
        if moved == 0:
            x_new = relax_step(x, free, proposals, config.theta)
            moved = len(proposals)

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
