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
form: one gather of the diagram's ``vertices`` through its
``cell_vertices``, clipped to the domain if the diagram has one
(``diagram.clip_cells``).  There is one rule
for every cell of 4 or more vertices, applied to all of them at once: one
candidate triangulation by the largest-angle recursion over the chords of
the convex cell (``_largest_angle``), and one certificate (``_certify``).
By Lawson's lemma a triangulation whose k - 3 interior edges all have an
in-circle value at most the tie tolerance is Delaunay within that
tolerance, so any two such triangulations of a cell give the same F_I up
to the size of the tie.  A triangle under the area guard is dropped and
the rest of its cell kept; a cell the certificate refuses (an edge illegal
beyond the tie, an ill-conditioned circumcenter, a clockwise cell) is
listed as degenerate.  A triangle is its own triangulation and goes
through ``aux_triangulate_cell`` one cell at a time, the per-cell site
the benchmark traces.  Nothing reads an earlier iteration, so F_I is a
function of the current diagram alone.  ``evaluate_FI`` and the proposals
are reductions over the triangle arrays: the proposals are one array of
target rows, whose centers are the area-weighted means of the cells'
auxiliary circumcenters and whose radii the root mean square distances to
the cells' CSR vertices, both by ``geom``'s group fit (``group_means``,
``rms_distances``).

``run`` keeps the ball set as a ``geom.BallArrays``: one ``(N, 3)`` array
of ``[cx, cy, R]`` rows, a ``free`` mask of the same shape (alive and not
fixed, per coordinate) and an ``alive`` vector.  It hands that triple to
the triangulation, the diagram, ``evaluate_FI`` and the proposals as it
is; ``Ball`` objects are built only when ``OptimizerState.balls`` is read.
The three operations on the set all go through the mask: relaxation and
the Gauss-Newton step write the free coordinates of the rows, and
elimination clears a ball's rows in ``alive`` and ``free``.

Each iteration rebuilds the triangulation and the diagram once; the
auxiliary triangulations are computed on first use and kept on the
diagram, and the update proposals are computed once and shared by the
elimination bookkeeping and ``relax_step``.  Every rebuild goes through
``_rebuild`` and warm-starts ``build_regular`` from a table the loop
already has: the previous iteration's, or for a Gauss-Newton trial the
table of the point it steps from.  The triangulation mends that start by
exact flips, insertions and removals, so it follows balls that move,
change radius, turn redundant or come back; only a start with an inverted
triangle or a hull that is not one convex cycle is refused, rebuilt from
qhull and counted in ``OptimizerState.rebuild_fallbacks``.  The aux cells
accepted at a tie are counted in ``aux_tie_cells``.
There is one optimizer.  The update is the heuristic area-weighted center /
least-squares radius proposal, relaxed by ``theta``; once that relaxation
plateaus, a damped Gauss-Newton step on the dual-vertex power residuals
takes over, falling back to relaxation whenever it fails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import geom
from .diagram import PowerDiagram, _ranges, bbox_diag, clip_cells, default_merge_eps, extract_diagram
from .errors import (
    CollinearPoints,
    DegenerateCell,
    DegenerateScene,
    Diverged,
    TooFewBalls,
    AllCollinear,
)
from .geom import Ball, BallArrays, Point2
from .triangulation import build_regular


@dataclass
class AuxMesh:
    """The auxiliary triangles of many cells as arrays, cell after cell.

    Row t is a triangle of the cell of ball ``ball[t]``; the cells come in
    the order they were given, and each cell's triangles in canonical order
    (see ``_largest_angle``).  ``degenerate`` lists the balls whose cells
    got no triangles, and ``ties`` counts the cells accepted with an
    interior edge within the tie tolerance of cocircular.
    """

    ball: np.ndarray  # (T,) ball index
    vertices: np.ndarray  # (T, 3, 2) CCW corners
    circumcenter: np.ndarray  # (T, 2)
    area: np.ndarray  # (T,) unsigned
    degenerate: list[int]
    ties: int


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
    x: np.ndarray  # (N, 3) [cx, cy, R] rows of the iterate ``diagram`` is of
    alive: np.ndarray  # (N,) its alive balls
    flags: list[tuple[bool, bool]]  # per ball, (fix_center, fix_radius)
    diagram: PowerDiagram | None = None
    fi: float = math.inf
    max_abs_tau: float = math.inf
    iteration: int = 0
    history: list[HistoryRecord] = field(default_factory=list)
    converged: bool = False
    # how many Gauss-Newton steps took each of _gauss_newton_step's exits and
    # fell back to relaxation: no active triangle, no free coordinate, no
    # damping level helped
    gn_exits: dict[str, int] = field(
        default_factory=lambda: {"no_active": 0, "no_free": 0, "no_descent": 0}
    )
    # degenerate cells skipped by F_I and the proposals, summed over the iterations
    degenerate_cells: int = 0
    # rebuilds whose start table build_regular refused (an inverted triangle,
    # or a hull that is not one convex cycle), rebuilding from qhull
    rebuild_fallbacks: int = 0
    # aux cells accepted with an interior edge at a tie, summed over the iterations
    aux_tie_cells: int = 0

    @property
    def gn_fallbacks(self) -> int:
        """Gauss-Newton steps that fell back to relaxation, over all exits."""
        return sum(self.gn_exits.values())

    @property
    def balls(self) -> list[Ball]:
        """The iterate as validated ``Ball`` objects, built from the rows on each read."""
        return [
            Ball((cx, cy), r, fc, fr, a)
            for (cx, cy, r), (fc, fr), a in zip(self.x.tolist(), self.flags, self.alive.tolist())
        ]


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


def aux_triangulate_cell(pts: list[Point2], ball: int) -> tuple[Point2, float]:
    """The auxiliary triangle of ball ``ball``'s 3-vertex cell ``pts``: its circumcenter and area.

    A triangle is its own Delaunay triangulation.  ``aux_triangulate_cells``
    settles the cells of 4 or more vertices in one batch and passes the
    triangles here one at a time, the per-cell aux site the benchmark
    traces.  The guards are the batch's: a collapsed, sliver or clockwise
    triangle, or one whose circumcenter is ill-conditioned, is a
    ``DegenerateCell``.
    """
    span = max(max(abs(p[0] - pts[0][0]), abs(p[1] - pts[0][1])) for p in pts)
    area = geom.triangle_area(*pts)
    if not area > 1e-14 * span * span:
        raise DegenerateCell(f"cell of ball {ball} has collapsed")
    try:
        return geom.circumcenter(*pts), area
    except CollinearPoints as e:
        raise DegenerateCell(f"cell of ball {ball} has an ill-conditioned triangle") from e


def _largest_angle(xy, offsets, pos):
    """A candidate Delaunay triangulation of each cell ``pos`` of a CSR cell list, ``pos`` ascending.

    On points in convex position, the Delaunay triangle on the inner side
    of a chord (a, b) has the apex that sees the chord at the largest angle
    (Aggarwal, Guibas, Saxe & Shor 1989).  Each round takes every open
    chord of every cell at once, from (0, k - 1) on, picks its apex among
    a + 1 .. b - 1 by the smallest cotangent of the angle there, and opens
    the chords (a, apex) and (apex, b): k - 2 triangles in at most k - 2
    rounds.  The float angles only choose the candidate; near a tie they
    may choose another apex, one the certificate accepts within the tie.

    Returns the k - 2 increasing local corner triples of each cell, cell
    after cell, each cell's sorted: the canonical order.  Next to them, per
    triangle (i, j, l), the twin of its half-edge from corner l to corner i
    (``triangulation._twins``' numbering): the side of the triangle that
    opened the chord (i, l), or -1 for the chord (0, k - 1), a side of the
    cell.
    """
    first, k = offsets[pos], offsets[pos + 1] - offsets[pos]
    z = xy[:, 0] + 1j * xy[:, 1]
    # the chords' ends as rows of xy: the cells' rows are disjoint and
    # ascending, so sorting the triangles by their rows sorts them cell
    # after cell
    a, b = first, first + k - 1
    back = np.full(len(pos), -1)  # per open chord, the half-edge that opened it
    found, done = [], 0  # the triangles of each round, and how many
    while len(a):
        # the apexes a + 1 .. b - 1 of each chord, padded with copies of b - 1
        m = np.minimum(a[:, None] + np.arange(1, int((b - a).max())), b[:, None] - 1)
        p = z[m]
        # conj(a - m) (b - m): the dot product of the two sides as the real
        # part, their cross product (negative) as the imaginary part, so
        # the largest real / imaginary is the smallest cotangent.  An apex
        # on the chord or, by rounding, beyond it would make a triangle
        # that is not counterclockwise and never wins
        w = z[a][:, None] - p
        np.conjugate(w, out=w)
        w *= z[b][:, None] - p
        cross = w.imag
        # divided only where negative, so a collapsed corner (refused later) never divides
        cot = np.divide(w.real, cross, out=np.full(cross.shape, -np.inf), where=cross < 0)
        # the first largest, and a padded copy only repeats b - 1
        apex = np.minimum(a + 1 + cot.argmax(axis=1), b - 1)
        # triangle t = (a, apex, b) opens (a, apex), its half-edge 3 t + 2,
        # and (apex, b), its half-edge 3 t
        t = 3 * np.arange(done, done + len(a))
        found.append((a, apex, b, back))
        done += len(a)
        a, b, back = np.concatenate([a, apex]), np.concatenate([apex, b]), np.concatenate([t + 2, t])
        open_ = b - a > 1
        a, b, back = a[open_], b[open_], back[open_]
    i, j, l, back = (np.concatenate(x) for x in zip(*found))
    # no two triangles of a triangulation of a convex polygon share their
    # first two corners, so the keys are distinct and any sort orders them
    order = np.argsort(i * len(xy) + j)
    rank = np.empty(len(order), dtype=int)
    rank[order] = np.arange(len(order))
    back = back[order]
    local = np.stack([i, j, l], axis=1)[order] - np.repeat(first, k - 2)[:, None]
    return local, np.where(back >= 0, 3 * rank[back // 3] + back % 3, -1)


def _certify(xy, offsets, pos, local, twin):
    """The Delaunay triangles of the cells ``pos`` of a CSR cell list, from the candidates ``local``.

    ``local`` holds k - 2 increasing local corner triples for each cell of
    k vertices, cell after cell, and ``twin`` the twin of each triple's
    half-edge from corner l to corner i, as ``_largest_angle`` builds them;
    k - 2 non-crossing triangles on k points in convex position
    triangulate them (which is not checked here).  By Lawson's lemma a
    triangulation whose interior edges are all locally Delaunay is the
    Delaunay triangulation; one whose k - 3 interior edges all have an
    in-circle value at most the cell's tie tolerance is Delaunay within
    it, and is accepted.  A triangle at or under the area guard
    (``|area| <= 1e-14 span^2``) is dropped and the rest of its cell kept.
    A cell is refused when no triangle is left, a kept triangle fails the
    circumcenter conditioning guard or has a negative area (a clockwise
    cell), or an interior edge is illegal beyond the tie.

    Returns, over ``pos``, the masks of the refused cells and of the cells
    accepted with an interior edge within the tie tolerance of cocircular;
    then, for the kept triangles of the accepted cells in the order of
    ``local``: the cell position, the (n, 3, 2) corners, the circumcenters
    and the areas.
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


def aux_triangulate_cells(xy: np.ndarray, offsets: np.ndarray, cells: np.ndarray) -> AuxMesh:
    """Auxiliary triangulations of many cells at once, as one ``AuxMesh``.

    The cells are in CSR form: ``xy[offsets[p]:offsets[p + 1]]`` are the
    vertices of the cell of ball ``cells[p]``, counterclockwise, as
    ``_cell_aux`` gives them.  Every cell of 4 or more vertices gets the
    ``_largest_angle`` triangulation, which ``_certify`` accepts, ties
    included, or refuses, in one pass over those cells; the cells accepted
    at a tie are counted in ``ties``.  Triangles go through
    ``aux_triangulate_cell``, one call each.  Refused cells, cells of fewer
    than 3 vertices and degenerate triangles get no triangles and are
    listed in ``degenerate``.
    """
    k = np.diff(offsets)
    parts = [(np.zeros(0, dtype=int), np.zeros((0, 3, 2)), np.zeros((0, 2)), np.zeros(0))]
    degenerate = k < 3
    ties = 0
    pos = np.flatnonzero(k >= 4)
    if len(pos):  # _largest_angle fails on an empty cell set
        refused, tie, *tris = _certify(xy, offsets, pos, *_largest_angle(xy, offsets, pos))
        degenerate[pos[refused]] = True
        ties = int(tie.sum())
        parts.append(tris)
    rows = []
    for p in np.flatnonzero(k == 3).tolist():
        pts = list(map(tuple, xy[offsets[p] : offsets[p + 1]].tolist()))
        try:
            center, area = aux_triangulate_cell(pts, int(cells[p]))
        except DegenerateCell:
            degenerate[p] = True
            continue
        rows.append((p, pts, center, area))
    if rows:
        parts.append(tuple(np.array(x) for x in zip(*rows)))
    pos, vertices, centers, area = (np.concatenate(x) for x in zip(*parts))
    order = np.argsort(pos, kind="stable")
    return AuxMesh(
        cells[pos[order]], vertices[order], centers[order], area[order],
        cells[degenerate].tolist(), ties,
    )


def _cell_aux(diagram: PowerDiagram) -> AuxMesh:
    """Auxiliary triangulations of the usable cells of free balls.

    Dead and redundant balls (which own no cell), fully fixed balls, and
    unbounded cells without a domain get none; degenerate cells get none
    and are listed in ``degenerate``.  The cells are gathered from the cell
    table and clipped to the domain if there is one.  Computed once per
    diagram from the diagram alone, and kept in ``diagram.aux``.
    """
    if diagram.aux is None:
        cells = np.flatnonzero(diagram.usable)
        xy, offsets = diagram.positions(cells)
        if diagram.domain is not None:
            xy, offsets = clip_cells(xy, offsets, diagram.rays[cells], diagram.domain)
        diagram.aux = aux_triangulate_cells(xy, offsets, cells)
    return diagram.aux


def evaluate_FI(balls: list[Ball] | BallArrays, diagram: PowerDiagram) -> float:
    """Dirichlet functional: half the area-weighted squared distance from each ball center
    to its cell's auxiliary circumcenters, summed over the usable cells.

    The first call on a diagram triangulates its cells and keeps the result
    in ``diagram.aux``, so the value depends on the balls and the diagram
    only.
    """
    x, _, _ = geom.ball_arrays(balls)
    aux = _cell_aux(diagram)
    d = x[aux.ball, :2] - aux.circumcenter
    return 0.5 * float(((d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1]) * aux.area).sum())


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
    """Least-squares radius of the cell of each ball in ``ids`` about its row of ``centers``.

    That is the root mean square distance to the cell's vertices
    (``geom.rms_distances``); every ball in ``ids`` owns a cell.
    """
    xy, offsets = diagram.positions(ids)
    return geom.rms_distances(np.repeat(np.arange(len(ids)), np.diff(offsets)), xy, centers)


def _proposals(balls: BallArrays, diagram):
    """Jacobi-style update targets: the proposed balls and their ``[cx, cy, R]`` rows.

    Returns the ascending ball indices and one target row each.  The
    center is the area-weighted mean of the auxiliary circumcenters of each
    usable cell (``geom.group_means``); fixed-center balls with unbounded
    cells (boundary protectors) keep their centers and still adapt their
    free radii to the finite dual vertices of their fan.  Every radius is the least-squares
    radius about the new center, for all balls at once (``_radii``).
    """
    x, free, _ = balls
    aux = _cell_aux(diagram)
    # aux.ball is ascending: each run of one ball is one cell, labelled in order
    new = np.ones(len(aux.ball), dtype=bool)
    new[1:] = aux.ball[1:] != aux.ball[:-1]
    cells, label = aux.ball[new], np.cumsum(new) - 1
    hull = np.flatnonzero(diagram.has_cell & ~diagram.bounded & ~free[:, 0] & free[:, 2])
    proposed = np.zeros(len(x), dtype=bool)
    proposed[cells] = proposed[hull] = True
    ids, row = np.flatnonzero(proposed), np.cumsum(proposed) - 1
    centers = np.empty((len(ids), 2))
    centers[row[cells]] = geom.group_means(label, aux.area, aux.circumcenter)
    centers[row[hull]] = x[hull, :2]
    return ids, np.column_stack([centers, _radii(diagram, ids, centers)])


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


def _tau_system(x, free, triangulation, active):
    """Power residuals tau(v_k) and their Jacobian w.r.t. the free coordinates.

    v_k and tau(v_k) are read from ``triangulation``, the table of ``x``; v_k
    solves the 2x2 dual-vertex system of its triangle, and differentiating
    that system gives closed-form rows, so no diagram rebuilds are needed.
    The unknowns are the free entries of ``x``: column k of J belongs to
    ``x.flat[cols[k]]``.  J comes as its COO gather ``(rows, col, vals)``, no entry repeated.
    """
    cols = np.flatnonzero(free.ravel())
    col_of = np.full(free.size, -1)
    col_of[cols] = np.arange(len(cols))
    tris = triangulation.tris[active]
    centers, radii = x[:, :2], x[:, 2]
    v, r = triangulation.orthocenters[active], triangulation.tau[active]
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
    return r, (rows[keep], col[keep], vals[keep]), cols


def _active_triangles(diagram):
    """Triangles whose dual vertex belongs to a bounded cell of a free ball, ascending."""
    usable = np.zeros(len(diagram.tau), dtype=bool)
    usable[diagram.vertex_ids(diagram.bounded & diagram.free)] = True
    return np.flatnonzero(usable[diagram.vertex_of])


def _damped_steps(coo, r, n):
    """Steps ``argmin |J dx + r|^2 + lam |dx|^2`` for lam = 1e-10, 1e-8, ..., 1e4 (8 levels).

    The m x n ``J`` comes as its COO gather; J and r are in units of its largest
    |entry| (lam of its square), so nothing underflows at any scene scale.  Each level
    is one lstsq in min(m, n) unknowns: for m >= n the primal ``[J; sqrt(lam) I] dx =
    [-r; 0]``; for m < n, as the minimizer lies in range(J^T), the dual
    ``[J^T; sqrt(lam) I] y = [0; -r / sqrt(lam)]`` and ``dx = J^T y`` (not for m >= n,
    where 1 / lam amplifies its roundoff in the left null space of J).
    """
    rows, col, vals = coo
    scale = float(np.abs(vals).max(initial=0.0)) or 1.0
    vals, r = vals / scale, r / scale
    dual = len(r) < n
    lhs = np.zeros((len(r) + n, min(len(r), n)))
    lhs[(col, rows) if dual else (rows, col)] = vals
    rhs = np.concatenate([np.zeros(n), -r] if dual else [-r, np.zeros(n)])
    for root in (1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0, 100.0):  # sqrt(lam)
        np.fill_diagonal(lhs[-lhs.shape[1] :], root)
        z, *_ = np.linalg.lstsq(lhs, rhs / root if dual else rhs, rcond=None)
        yield np.bincount(col, vals * z[rows], minlength=n) if dual else z


def _gauss_newton_step(x, free, alive, triangulation, diagram, merge_eps, state=None):
    """Damped Gauss-Newton step driving all active tau(v_k) to zero.

    The m x n Jacobian ``J`` of the m active residuals in the n free
    coordinates is gathered as COO entries, never as a dense matrix, and
    every damping level is one lstsq filled from them (``_damped_steps``).
    Each trial rebuilds the rows with the masks ``free`` and ``alive``,
    starts from ``triangulation`` and counts a refused start in ``state``.
    A trial whose rows are not finite counts as failed.
    Returns (new rows, moved, (triangulation, diagram) of the new rows,
    None), or (x, 0, None, exit) with ``exit`` the key of
    ``OptimizerState.gn_exits`` that says why no step was taken:
    ``"no_active"`` (no active triangle), ``"no_free"`` (no free
    coordinate) or ``"no_descent"`` (no damping level helped).
    """
    active = _active_triangles(diagram)
    if not len(active):
        return x, 0, None, "no_active"
    r, coo, cols = _tau_system(x, free, triangulation, active)
    if not len(cols):
        return x, 0, None, "no_free"
    base = float(r @ r)
    for dx in _damped_steps(coo, r, len(cols)):
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
                t2, d2 = _rebuild(BallArrays(trial, free, alive), merge_eps, triangulation, state)
            except (TooFewBalls, AllCollinear):
                alpha *= 0.5
                continue
            a2 = _active_triangles(d2)
            r2 = t2.tau[a2]
            if len(a2) and float(r2 @ r2) / len(a2) < base / len(active):
                return trial, int(free.any(axis=1).sum()), (t2, d2), None
            alpha *= 0.5
    return x, 0, None, "no_descent"


def run(
    initial_balls: list[Ball],
    config: OptimizerConfig,
    on_iteration=None,
) -> OptimizerState:
    """Drive the four-step iteration until convergence or exhaustion.

    ``on_iteration`` is called with the state after each diagram rebuild.
    Raises ``DegenerateScene`` when free balls are left but none owns a
    usable cell: F_I and max|tau| would then measure nothing.
    """
    x, free, alive = geom.ball_arrays(initial_balls)
    scale = bbox_diag(initial_balls)
    tau_tol = config.tau_tol if config.tau_tol is not None else 1e-10 * scale * scale
    merge_eps = default_merge_eps(initial_balls)

    state = OptimizerState(x, alive, [(b.fix_center, b.fix_radius) for b in initial_balls])
    skip_count = np.zeros(len(x), dtype=int)
    polish = False  # the relaxation has plateaued; Gauss-Newton leads
    eliminated_total = 0
    built = None  # (triangulation, diagram) of ``x`` if a GN step built it
    tri = None  # the previous iteration's triangulation, the next rebuild's start

    for it in range(config.max_iters + 1):
        if not np.isfinite(x).all():
            raise Diverged(f"a ball coordinate is no longer finite at iteration {it}")
        balls = BallArrays(x, free, alive)
        try:
            tri, diagram = built or _rebuild(balls, merge_eps, tri, state)
        except (TooFewBalls, AllCollinear) as e:
            if it == 0:
                raise  # the input scene itself is unusable
            raise DegenerateScene(str(e)) from e
        if diagram.free.any() and not diagram.usable.any():
            raise DegenerateScene(f"no free ball owns a usable cell at iteration {it}")
        fi = evaluate_FI(balls, diagram)
        if not math.isfinite(fi):
            raise Diverged(f"F_I is {fi} at iteration {it}")
        state.degenerate_cells += len(diagram.aux.degenerate)
        state.aux_tie_cells += diagram.aux.ties
        max_tau = diagram.max_abs_tau()
        state.x, state.alive = x, alive
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
            # new arrays, so the state keeps the masks its diagram is of
            gone = skip_count >= 3
            alive = alive & ~gone
            free = free & ~gone[:, None]
            eliminated_total += int(gone.sum())

        moved = 0
        built = None
        if polish:
            # once the local relaxation stalls, polish with damped
            # Gauss-Newton on the dual-vertex power residuals; their zero
            # set coincides with F_I = 0 and the local convergence is
            # quadratic where the relaxation rate approaches 1
            x_new, moved, built, exit_ = _gauss_newton_step(
                x, free, alive, tri, diagram, merge_eps, state
            )
            if exit_ is not None:
                state.gn_exits[exit_] += 1
        if moved == 0:
            x_new = relax_step(x, free, proposals, config.theta)
            moved = len(proposals[0])

        state.history.append(HistoryRecord(it, fi, max_tau, moved, eliminated_total))
        x = x_new


def write_history_csv(history: list[HistoryRecord], path) -> None:
    """Convergence log: one row per iteration, 17 significant digits."""
    with open(path, "w", encoding="utf-8") as f:
        f.write("iter,F_I,max_abs_tau,moved,eliminated\n")
        for rec in history:
            f.write(
                f"{rec.iteration},{rec.fi:.17g},{rec.max_abs_tau:.17g},"
                f"{rec.moved},{rec.eliminated}\n"
            )
