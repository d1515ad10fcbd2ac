"""Weighted Delaunay (regular) triangulation of a ball set.

The triangulation is the projection of the lower convex envelope of the
ball centers lifted to height (|c|^2 - R^2)/2.  Exact power ties are
settled by simulation of simplicity in favour of the lowest ball index (a
tied polygon is fanned from it), so the result is a deterministic function
of the input indices.

The result, ``RegularTriangulation``, is one triangle table: per triangle
its CCW ball indices, its dual vertex and power value (both from
``geom.orthocenters``) and the twins of its three half-edges, one row each
in numpy arrays.  Half-edge ``3 t + k`` is the edge of triangle t facing its
corner k; its twin is the same edge seen from the other triangle, or -1 on
the hull.  ``_twins``, one sort of the half-edges, is the one edge pairing.
``diagram.extract_diagram`` and the Gauss-Newton step read these arrays.

``geom.orient_signs`` orients every lower-hull facet at once, and
``geom.power_test_filter`` (Shewchuk 1997) tests every interior edge; only
the edges it leaves undecided or finds illegal seed the Lawson queue, and
the exact decision on those stays with ``geom.power_test``.

``lawson_flip`` is the one Lawson flip loop in radmesh, and it runs on the
twin array, which it keeps up to date; its caller is ``_legalized``, with
the exact power test (``_illegal``).

Balls whose lifted point lies strictly above the lower envelope own no
triangle; they are flagged redundant and kept in the ball set.

Inside this module the ball set is the ``(N, 3)`` array ``coords`` of
``geom.ball_arrays``' ``[cx, cy, R]`` rows; the exact predicates read the
rows the filters leave open as Python floats: a pass over every edge
converts the whole table at once (``tolist``), a pass over the quads of
moved balls each row as it reaches it (``_Items``), and writes back only
the rows it flipped.

``build_regular`` has one path, a loop over starts: ``start`` if given, an
earlier table of the same ball list with the same alive set (the
optimizer's previous iteration, or the table a Gauss-Newton trial moves
away from), then the table of qhull's lower hull of the lifted centers.
Each goes through one exact certify-and-mend step, ``_repair``, and the
first that passes is returned.  The certificate: every triangle strictly
CCW, the hull one convex cycle holding every alive center on its closed
left (``_outside_hull``, also behind the ``verify_hull`` oracle), no
interior edge illegal, and every ball the table misses strictly redundant
against the triangle holding its center (the triangles found are kept in
``hidden_in``, the next start's first guess).  The mend makes the flips of
Edelsbrunner and Shah (1996): the Lawson pass's 2-2 flips, from the edges
the filters cannot show legal under the new coordinates, or only those of
quads with a moved ball when ``legal_at`` says where the start was legal;
an exact insertion of each hidden ball that is not strictly above the
lifted surface (``_insert``); and the removal of a reflex corner a stuck
edge shows above it (``_remove``: a 3-1 flip, or a 4-2 or 2-1 flip where
the corner lies on a segment).  So the table follows a ball
that moves or changes radius, one that turns redundant and one that comes
back.  An inverted triangle or a hull that is not one convex cycle is not
mended: a warm start goes to qhull then, and ``warm`` is False.  qhull's
table fails only where it misses part of a hull side dented by an ulp; it
is then returned after the Lawson pass, with ``legal_at`` None.  A
certified table is legal at its ``legal_at`` rows, the rows its hull was
proved at; the mend keeps the hull, so a start whose hull balls are still
at their ``legal_at`` centers is not proved again.

Every start ends in one canonical order (``_canonical``): each row rotated
to lead with its lowest ball index, the rows sorted, ``twin`` renumbered to
match.  Simulation of simplicity makes the regular triangulation unique, so
every certified start gives the same arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import ConvexHull, Delaunay, QhullError

from . import geom
from .errors import AllCollinear, FlipBudgetExhausted, TooFewBalls
from .geom import Ball, BallArrays


@dataclass
class RegularTriangulation:
    """The triangle table: row f describes triangle f."""

    tris: np.ndarray  # (F, 3) ball indices, CCW order of centers
    orthocenters: np.ndarray  # (F, 2) dual vertices
    tau: np.ndarray  # (F,) power of each dual vertex
    twin: np.ndarray  # (F, 3) twin of the half-edge facing each corner, -1 on the hull
    redundant: list[bool]  # per-ball; True = alive but hidden
    # the [cx, cy, R] rows at which the table passed the certificate, None
    # if it did not (qhull's table of a hull dented by an ulp)
    legal_at: np.ndarray | None = None
    warm: bool = False  # mended from a start table rather than built by qhull
    # (N,) per ball, the triangle the certificate found its hidden center
    # in; -1 for the other balls, and for every ball of an uncertified table.
    # ``build_regular`` sets it on every table; None (by hand) is no guess
    hidden_in: np.ndarray | None = None


def _check_not_collinear(coords, idx):
    """Raise ``AllCollinear`` unless the centers of the balls ``idx`` span the plane (exact)."""
    c = coords[idx, :2]
    other = np.flatnonzero((c != c[0]).any(axis=1))
    if not len(other):
        raise AllCollinear("all ball centers coincide")
    if not geom.orient_signs(coords, idx[0], idx[other[0]], idx).any():
        raise AllCollinear("all ball centers are collinear")


def _lower_hull_triangles(coords, idx):
    """The lifted lower hull's triangles: an (F, 3) array of ball indices, CCW.

    The orientation of every facet comes from ``geom.orient_signs``.  Flat
    facets (vertical slivers of the lifted hull) are dropped.
    """
    pts = coords[idx, :2]
    lifted = np.column_stack([pts, geom.lifted_heights(pts, coords[idx, 2])])
    try:
        hull = ConvexHull(lifted)
        simplices = hull.simplices[hull.equations[:, 2] < 0]  # lower facets
    except QhullError:
        # Three balls, or all lifted points coplanar: every triangulation of
        # the centers is regular; start from the plain Delaunay one.
        simplices = Delaunay(pts, qhull_options="Qbb Qc Qz").simplices
    tris = np.asarray(idx)[simplices].reshape(-1, 3)
    sign = geom.orient_signs(coords, *tris.T)
    tris = tris[sign != 0]
    cw = sign[sign != 0] < 0
    tris[cw] = tris[cw][:, [0, 2, 1]]
    return tris


def _twins(tris):
    """The twin of every half-edge of ``tris``, an (F, 3) array of CCW triangles.

    Half-edge ``3 t + k`` runs from ``tris[t, k + 1]`` to ``tris[t, k + 2]``
    (corners mod 3); its twin runs back along the same edge in another
    triangle.  One sort pairs them.  An edge with other than two
    half-edges, or with two of the same direction, only occurs in a table
    of overlapping triangles; its half-edges stay unpaired, as do hull
    edges, with twin -1.
    """
    u, v = tris[:, [1, 2, 0]].ravel(), tris[:, [2, 0, 1]].ravel()
    n = int(tris.max(initial=0)) + 1
    key = np.minimum(u, v) * n + np.maximum(u, v)
    order = np.argsort(key, kind="stable")
    a, b = order[:-1], order[1:]
    same = np.concatenate([[False], key[a] == key[b], [False]])
    pair = same[1:-1] & ~same[:-2] & ~same[2:] & (u[a] == v[b])
    twin = np.full(tris.size, -1)
    twin[a[pair]], twin[b[pair]] = b[pair], a[pair]
    return twin.reshape(-1, 3)


def lawson_flip(tris, twin, illegal, left_turn, queue):
    """Lawson flips (Lawson 1977) on ``tris`` until no queued edge is illegal.

    ``tris`` (CCW vertex triples) and ``twin`` (the flat ``_twins``) are
    read and written item by item, so lists and ``_Items`` both serve; they
    are kept up to date.  ``illegal(a, b, c, q)`` says whether the edge of
    triangle ``(a, b, c)`` facing vertex ``q`` must flip; ``left_turn(p, u,
    q)`` whether ``p, u, q`` turn strictly left, so only strictly convex
    quads flip.  ``queue`` holds the suspect half-edges, the last examined
    first.  A flip of the quad ``p, u, q, v`` writes ``[p, u, q]`` and ``[p,
    q, v]`` and queues the quad's four sides and new diagonal; a queued
    half-edge whose triangle has flipped since is dropped, as its quad's
    edges were queued again.  The stamps are two flat lists, one entry per
    triangle and per half-edge: a pair of dicts would hold only what the
    pass touches, but slows the cold pass, whose queue is the whole table.
    Raises ``FlipBudgetExhausted`` instead of returning a triangulation
    that may still be illegal.

    Returns the half-edges found illegal on a quad that is not strictly
    convex, in the order examined, and the triangles flipped, in the order
    of their first flip.  Every edge a flip changes is queued again, so an
    edge left illegal at the end is one of the former.  A flip rewrites the
    twins of its two triangles' half-edges and, across the quad's sides,
    of the half-edges paired with them, and no others.
    """
    flipped = []  # the triangles flipped, in the order of their first flip
    stamp = [0] * len(tris)  # flips of each triangle
    stack = [(h, 0) for h in queue]
    queued = [-1] * len(twin)  # per half-edge, the stamp it is queued with
    for h in queue:
        queued[h] = 0
    limit = 32 * max(1, len(tris)) ** 2
    flips = 0
    stuck = []
    while stack:
        h, s = stack.pop()
        t1, k1 = divmod(h, 3)
        if queued[h] == s:
            queued[h] = -1
        if twin[h] < 0 or stamp[t1] != s:
            continue
        t2, k2 = divmod(twin[h], 3)
        p, u, v = tris[t1][k1], tris[t1][k1 - 2], tris[t1][k1 - 1]
        q = tris[t2][k2]
        if not illegal(*tris[t1], q):
            continue
        if not (left_turn(p, u, q) and left_turn(p, q, v)):
            stuck.append(h)
            continue
        if flips == limit:
            raise FlipBudgetExhausted(f"edges still illegal after {limit} flips")
        flips += 1
        # the outer twins across p-u, v-p, u-q and q-v
        a, b = twin[3 * t1 + (k1 + 2) % 3], twin[3 * t1 + (k1 + 1) % 3]
        c, d = twin[3 * t2 + (k2 + 1) % 3], twin[3 * t2 + (k2 + 2) % 3]
        tris[t1] = [p, u, q]
        tris[t2] = [p, q, v]
        twin[3 * t1], twin[3 * t1 + 1], twin[3 * t1 + 2] = c, 3 * t2 + 2, a
        twin[3 * t2], twin[3 * t2 + 1], twin[3 * t2 + 2] = d, b, 3 * t1 + 1
        for g, back in ((c, 3 * t1), (a, 3 * t1 + 2), (d, 3 * t2), (b, 3 * t2 + 1)):
            if g >= 0:
                twin[g] = back
        for t in (t1, t2):
            if not stamp[t]:
                flipped.append(t)
            stamp[t] += 1
        # each side as seen from outside the quad, then the diagonal from t1;
        # a side already queued from its unflipped outer triangle stays put
        for g in (c, 3 * t1 + 1, a, d, b):
            if g >= 0 and queued[g] != stamp[g // 3]:
                queued[g] = stamp[g // 3]
                stack.append((g, queued[g]))
    return stuck, flipped


def _suspect_edges(tris, twin, coords, moved=None) -> list[int]:
    """Interior half-edges of ``tris`` whose edge ``geom.power_test_filter`` cannot show legal.

    Each edge is tested, and returned, as its lower half-edge, the one
    ``lawson_flip`` tests: its triangle against the twin's opposite ball.
    With a ``moved`` mask over the balls, only the edges whose quad has a
    moved ball are tested; the others must be known legal.
    """
    first = np.flatnonzero(twin.ravel() > np.arange(twin.size))
    a, b, c = tris[first // 3].T
    q = tris.ravel()[twin.ravel()[first]]
    if moved is not None:
        keep = moved[a] | moved[b] | moved[c] | moved[q]
        first, a, b, c, q = first[keep], a[keep], b[keep], c[keep], q[keep]
    # gathered per coordinate, so the filter runs on contiguous arrays
    x, y, r = coords.T
    det, errbound = geom.power_test_filter(*((x[i], y[i], r[i]) for i in (a, b, c, q)))
    # legal where q is surely lifted above the face plane; a NaN stays queued
    return first[~(det < -errbound)].tolist()


def _illegal(rows):
    """The exact power test as ``lawson_flip``'s ``illegal``, ties settled by simulation of simplicity.

    ``rows`` is ``coords.tolist()``.  An exact tie is decided by simulation
    of simplicity (Edelsbrunner and Mucke 1990): each lifted point counts as
    infinitesimally lower, by far more the lower its ball index, so the
    lowest index of the quad that moves ``q`` against the plane decides:
    ``q`` itself, which lies below then, or a corner whose barycentric
    weight at ``q``'s center is not zero, whose sign says on which side.
    A tied edge of a convex quad is thus illegal exactly when the quad's
    lowest ball is off the edge, and a tied polygon ends up fanned from its
    lowest index.
    """

    def illegal(a, b, c, q):
        s = geom.power_test(rows[a], rows[b], rows[c], rows[q])
        if s != 0:
            return s < 0
        for low in sorted((a, b, c, q)):
            if low == q:
                return True
            w = geom.orient2d(*(rows[q if i == low else i] for i in (a, b, c)))
            if w:
                return w < 0

    return illegal


class _Items(dict):
    """Items of a table read as Python values on first use, ``read(i)``; writes stay here.

    ``len`` is ``n``, the table's length, which ``lawson_flip``'s flip budget reads.
    """

    def __init__(self, read, n):
        super().__init__()
        self.read, self.n = read, n

    def __missing__(self, i):
        item = self[i] = self.read(i)
        return item

    def __len__(self):
        return self.n


def _legalized(tris, twin, coords, moved=None):
    """``tris`` and ``twin`` after ``lawson_flip`` from the edges ``_suspect_edges`` leaves open.

    Returns the new arrays and the half-edges still illegal, none where
    every interior edge is legal: the filter shows the unqueued edges
    legal, and a flip queues every edge it changes, so only the edges
    ``lawson_flip`` found illegal on a quad that is not convex can be left
    illegal, and those are tested again.  The input arrays are not
    changed.  Flips keep every triangle CCW.

    Without ``moved`` every edge is suspect, and the ball rows and the
    table are read as lists at once.  With it, the pass reads the rows it
    reaches as it reaches them, and only the flipped rows and the twins
    they rewrote are written back, so the conversions follow the queue.
    """
    queue = _suspect_edges(tris, twin, coords, moved)
    if not queue:
        return tris, twin, []
    if moved is None:
        rows, table, flat = coords.tolist(), tris.tolist(), twin.ravel().tolist()
    else:
        rows = _Items(lambda i: coords[i].tolist(), len(coords))
        table = _Items(lambda f: tris[f].tolist(), len(tris))
        flat = _Items(twin.item, twin.size)
    illegal = _illegal(rows)
    stuck, flipped = lawson_flip(
        table, flat, illegal, lambda p, u, q: geom.orient2d(rows[p], rows[u], rows[q]) > 0, queue
    )
    stuck = [h for h in stuck if flat[h] >= 0 and illegal(*table[h // 3], table[flat[h] // 3][flat[h] % 3])]
    if not flipped:
        return tris, twin, stuck
    tris, twin = tris.copy(), twin.copy()
    tris[flipped] = [table[f] for f in flipped]
    # the half-edges of the flipped rows, and their twins pointing back
    h = (3 * np.array(flipped)[:, None] + np.arange(3)).ravel()
    g = np.array([flat[i] for i in h.tolist()])
    twin.flat[h] = g
    twin.flat[g[g >= 0]] = h[g >= 0]
    return tris, twin, stuck


def _hull_edges(tris, twin):
    """The hull half-edges of a table: their triangles and their ends ``u -> v``."""
    h = np.flatnonzero(twin.ravel() < 0)
    f, k = np.divmod(h, 3)
    return f, tris[f, (k + 1) % 3], tris[f, (k + 2) % 3]


def _hull_cycle(tris, twin):
    """The balls along the table's hull half-edges in order, or None unless they form one cycle."""
    _, u, v = _hull_edges(tris, twin)
    if not len(u):  # a table without triangles
        return None
    after = dict(zip(u.tolist(), v.tolist()))
    cycle = [int(u[0])]
    while len(cycle) <= len(after):
        cycle.append(after.get(cycle[-1], -1))
    one = len(after) == len(u) and cycle[-1] == cycle[0] and len(set(cycle)) == len(u)
    return np.array(cycle[:-1]) if one else None


def _outside_hull(coords, tris, twin, points) -> list[tuple[int, int]]:
    """(triangle, ball) pairs: a ball of ``points`` strictly right of a hull half-edge of the table.

    The triangle is the one the hull half-edge belongs to; the signs are
    ``geom.orient_signs``', so exact.
    """
    f, u, v = _hull_edges(tris, twin)
    points = np.asarray(points, dtype=int)
    out = []
    step = max(1, 2**16 // max(1, len(points)))  # bounds the (edges, balls) arrays
    for s in range(0, len(f), step):
        e = slice(s, s + step)
        hull, ball = np.nonzero(geom.orient_signs(coords, u[e, None], v[e, None], points) < 0)
        out += zip(f[e][hull].tolist(), points[ball].tolist())
    return out


def _canonical(tris, twin):
    """The table in canonical order, with ``twin`` renumbered to match, and the new row of each old row.

    Each row is rotated to lead with its lowest ball index, and the rows are
    sorted.  The order depends only on the triangle set, so two tables of
    one triangulation become equal array for array.
    """
    lead = np.argmin(tris, axis=1)
    turn = (lead[:, None] + np.arange(3)) % 3
    rows = np.take_along_axis(tris, turn, axis=1)
    n = len(tris) and int(rows.max()) + 1
    order = np.argsort((rows[:, 0] * n + rows[:, 1]) * n + rows[:, 2], kind="stable")
    rank = np.empty(len(tris), dtype=int)
    rank[order] = np.arange(len(tris))
    # new half-edge number of each old one: corner k moves to k - lead
    moved = (3 * rank[:, None] + (np.arange(3) - lead[:, None]) % 3).ravel()
    old = twin.ravel()
    new = np.empty_like(old)
    new[moved] = np.where(old >= 0, moved[old], -1)
    return rows[order], new.reshape(-1, 3), rank


def _repair(start, coords, alive):
    """``start`` certified and mended for the rows ``coords`` of ``[cx, cy, R]``, or None where it cannot be.

    Returns the new ``tris`` and ``twin`` and, per ball, the triangle that
    holds its center if it is hidden, -1 otherwise.  ``start`` must be a
    table of the same ball list with the same alive set.  The certificate,
    all of it exact:

    1. every triangle is strictly CCW;
    2. the hull half-edges form one cycle through balls at distinct
       centers, each on the closed left of every hull half-edge
       (``_outside_hull``).  A ``start`` with ``legal_at`` passed it at
       those rows, so where its hull balls are still at those centers it
       holds as it did;
    3. no interior edge is illegal after the Lawson pass (``_legalized``);
       an edge whose quad kept its balls where ``start`` had them legal
       (``start.legal_at``) is legal still, and is not tested;
    4. every alive ball the table misses is strictly redundant against the
       triangle that contains its center (``_above``, which first tries the
       triangle ``start.hidden_in`` names, if any).

    Parts 1 and 2 are checked on ``start`` and not mended: a start that
    fails them is refused.  The mend keeps them, as its operations make
    only strictly CCW triangles, flips keep the hull edges, a ball inserted
    on a hull edge lies on it and a removal takes an interior corner or one
    on a hull side.  Parts 3 and 4 are mended, in turn until both hold.  An
    edge the pass leaves illegal on a quad that is not convex removes the
    reflex corner where it can (``_remove``): the corner turns hidden, and
    the pass runs again from the edges it touched.  Then each hidden ball
    that is not strictly above goes in (``_insert``), an exact tie settled
    by simulation of simplicity as in ``_illegal``: the ball stays hidden
    iff a corner with positive barycentric weight at its center has a lower
    index.  The pass runs again from the inserted balls' quads.  A start
    whose pass is left with an edge no removal mends, that exhausts the flip
    budget or whose hidden center lies in no triangle is refused.  Every
    operation only lowers the lifted surface, so each ball goes in and
    turns hidden at most once; a mend that takes more operations than that
    is refused too.

    Part 2 makes the boundary a convex polygon wound once, so with part 1
    every point inside it lies in exactly one triangle (the degree of the
    map from the table to the plane) and the table triangulates the
    polygon.  Its vertices lie in the polygon, and part 4 places the other
    alive balls in it, so every alive center is on the closed left of every
    hull half-edge, as ``verify_hull`` asks.  Part 3 makes the lifted
    surface convex, the lower envelope of the table's balls, and part 4
    puts every other ball strictly above it.
    """
    if len(start.redundant) != len(coords):
        return None
    is_alive = np.zeros(len(coords), dtype=bool)
    is_alive[alive] = True
    is_hidden = np.array(start.redundant, dtype=bool)
    was_alive = is_hidden.copy()
    was_alive[start.tris.ravel()] = True
    if not np.array_equal(was_alive, is_alive):
        return None
    tris, twin = start.tris, start.twin
    if (geom.orient_signs(coords, *tris.T) <= 0).any():
        return None
    _, u, _ = _hull_edges(tris, twin)
    if start.legal_at is None or not np.array_equal(coords[u, :2], start.legal_at[u, :2]):
        hull = _hull_cycle(tris, twin)
        if (
            hull is None
            or len(set(map(tuple, coords[hull, :2].tolist()))) < len(hull)
            or _outside_hull(coords, tris, twin, hull)
        ):
            return None
    moved = None if start.legal_at is None else (coords != start.legal_at).any(axis=1)
    hidden = np.flatnonzero(is_hidden)
    at = np.full(len(hidden), -1) if start.hidden_in is None else start.hidden_in[hidden]
    # each round but the last inserts or removes a ball, and as the surface
    # only lowers, a ball goes in at most once and turns hidden at most once
    for _ in range(2 * len(coords) + 1):
        try:
            tris, twin, stuck = _legalized(tris, twin, coords, moved)
        except FlipBudgetExhausted:
            return None
        moved = np.zeros(len(coords), dtype=bool)
        if stuck:
            # every edge the removal makes, and every edge left stuck, has a
            # ball of a stuck quad at an end or across it
            moved[tris[np.asarray(stuck) // 3]] = True
            moved[tris.ravel()[twin.ravel()[stuck]]] = True
            removed = _remove(tris, twin, coords, stuck)
            if removed is None:
                return None
            tris, out = removed
            twin = _twins(tris)
            hidden, at = np.append(hidden, out), np.append(at, len(tris) - 1)
            continue
        at, sign = _above(coords, tris, hidden, at)
        if (at < 0).any():
            return None
        tie = np.flatnonzero(sign == 0)
        if len(tie):
            abc, h = tris[at[tie]], hidden[tie]
            sign[tie] = np.where(((_weights(coords, abc, h) > 0) & (abc < h[:, None])).any(axis=1), 1, -1)
        below = np.flatnonzero(sign < 0)
        if not len(below):
            hidden_in = np.full(len(coords), -1)
            hidden_in[hidden] = at
            return tris, twin, hidden_in
        tris, went, out = _insert(tris, twin, coords, hidden[below], at[below])
        twin = _twins(tris)
        moved[hidden[below[went]]] = True
        stay = np.ones(len(hidden), dtype=bool)
        stay[below[went]] = False
        # a replaced ball is hidden now
        hidden, at = np.concatenate([hidden[stay], out]), np.concatenate([at[stay], np.full(len(out), -1)])
    return None


def _weights(coords, abc, points):
    """Exact signs of the barycentric weights of the corners of each triangle ``abc`` at its ball's center.

    ``points`` holds one ball per row of ``abc``.  Corner k's weight has
    the sign of the orientation of the edge facing k, run CCW, with the
    center: an (n, 3) array, all >= 0 where the closed triangle holds it.
    """
    return geom.orient_signs(coords, abc[:, [1, 2, 0]], abc[:, [2, 0, 1]], points[:, None])


def _above(coords, tris, hidden, guess):
    """The triangle of ``tris`` that holds each center of ``hidden``, and the ball's exact sign against it.

    Returns an array of triangle numbers, -1 where no triangle holds the
    center, and the sign of each ball against its triangle's lifted plane
    (``geom.power_signs``: 1 strictly above, 0 on it, -1 below; 0 where no
    triangle holds it).  Containment is exact (``_weights``), and any
    triangle whose closed area holds the center will do: where the center
    lies on an edge or a vertex, the lifted planes of the triangles there
    agree at it.  The triangles in ``guess`` are tried first; for the other
    centers, the candidates are the triangles whose bounding box holds them
    (float comparisons, so exact), and the first that holds the center is
    taken.  A guess of -1, or past the table's end, is no guess.
    """
    f = np.full(len(hidden), -1)
    known = np.flatnonzero((guess >= 0) & (guess < len(tris)))
    inside = (_weights(coords, tris[guess[known]], hidden[known]) >= 0).all(axis=1)
    f[known[inside]] = guess[known[inside]]
    rest = np.flatnonzero(f < 0)
    if len(rest):
        x, y = coords[:, 0], coords[:, 1]
        xs, ys = x[tris], y[tris]  # (F, 3)
        x0, x1, y0, y1 = xs.min(axis=1), xs.max(axis=1), ys.min(axis=1), ys.max(axis=1)
        step = max(1, 2**16 // len(tris))  # bounds the (balls, triangles) masks
        for s in range(0, len(rest), step):
            r = rest[s : s + step]
            px, py = x[hidden[r], None], y[hidden[r], None]
            m, t = np.nonzero((px >= x0) & (px <= x1) & (py >= y0) & (py <= y1))
            inside = (_weights(coords, tris[t], hidden[r[m]]) >= 0).all(axis=1)
            found, first = np.unique(m[inside], return_index=True)
            f[r[found]] = t[inside][first]
    sign = np.zeros(len(hidden), dtype=int)
    held = f >= 0
    sign[held] = geom.power_signs(coords, *tris[f[held]].T, hidden[held])
    return f, sign


def _insert(tris, twin, coords, h, f):
    """``tris`` with the balls ``h`` inserted at their centers, which the triangles ``f`` hold.

    Returns the new table, a mask of the balls that went in, and the balls
    they replaced.  Where a center is a corner's, the ball takes that
    corner's place in every triangle.  Elsewhere each triangle whose closed
    area holds the center is split into the triangles the center makes with
    its edges facing corners of positive weight: ``f`` alone where the
    center is inside it (a 1-3 split), ``f`` and its neighbour across the
    edge the center lies on (a 2-4 split), or ``f`` alone on a hull edge (a
    1-2 split).  A ball whose rows an earlier ball of the batch changed
    waits for the next batch.  The new triangles, all strictly CCW, take the
    split rows and are appended after them, so the other rows keep their
    numbers; ``twin`` pairs the half-edges of ``tris`` and is read only to
    find those neighbours.
    """
    w = _weights(coords, tris[f], h)
    base, tris = tris, tris.copy()
    fresh = np.ones(len(tris), dtype=bool)  # rows no ball of the batch has changed
    went, replaced, new = np.zeros(len(h), dtype=bool), [], []
    for i, (b, t) in enumerate(zip(h.tolist(), f.tolist())):
        corners = np.flatnonzero(w[i] > 0)
        if len(corners) == 1:  # at the center of a corner
            v = base[t, corners[0]]
            rows = np.flatnonzero((base == v).any(axis=1))
        else:  # each split row, with its corner facing the center's edge (-1: none)
            k = int(np.argmin(w[i])) if (w[i] == 0).any() else -1
            split = [(t, k)]
            if k >= 0 and twin[t, k] >= 0:
                split.append(divmod(int(twin[t, k]), 3))
            rows = [r for r, _ in split]
        if not fresh[rows].all():
            continue
        fresh[rows], went[i] = False, True
        if len(corners) == 1:
            tris[rows] = np.where(base[rows] == v, b, base[rows])
            replaced.append(v)
            continue
        sub = [[base[r, (m + 1) % 3], base[r, (m + 2) % 3], b] for r, skip in split for m in range(3) if m != skip]
        tris[rows] = sub[: len(rows)]
        new += sub[len(rows) :]
    return np.concatenate([tris, np.array(new, dtype=tris.dtype).reshape(-1, 3)]), went, np.array(replaced, dtype=int)


def _remove(tris, twin, coords, stuck):
    """``tris`` with the reflex corner of a ``stuck`` half-edge removed, and that corner; None if none can be.

    The quad ``p, u, q, v`` of a stuck half-edge (``p`` its triangle's
    corner facing it, ``q`` its twin's) is not strictly convex: ``u`` or
    ``v`` lies in the triangle of the other three corners.  The edge is
    illegal, so that corner's lifted point lies above the other three's
    plane (ties by simulation of simplicity, as ``_illegal`` decided them),
    and removing it lowers the surface.  It is removed where its triangles
    merge into the triangles of its neighbours: where it lies strictly
    inside and has three triangles, their three neighbours' triangle takes
    their place (a 3-1 flip); where it lies on the segment ``p, q``, each
    side of the segment with two of its triangles becomes one triangle (a
    4-2 flip, or a 2-1 flip on the hull), provided no side holds more.  The
    first stuck half-edge whose corner can be removed is taken; the
    corner's rows are removed and the new ones appended.
    """
    t, k = np.divmod(np.asarray(stuck), 3)
    p, u, v = tris[t, k], tris[t, (k + 1) % 3], tris[t, (k + 2) % 3]
    q = tris.ravel()[twin.ravel()[stuck]]
    at_u, at_v = geom.orient_signs(coords, p, u, q), geom.orient_signs(coords, p, q, v)
    for i in range(len(stuck)):
        r, flat = (u[i], at_u[i] == 0) if at_u[i] <= 0 else (v[i], at_v[i] == 0)
        ring = np.flatnonzero((tris == r).any(axis=1))
        # r's link: each of its triangles (r, x, y) gives the edge x -> y
        lead = np.argmax(tris[ring] == r, axis=1)
        x, y = (tris[ring, (lead + j) % 3].tolist() for j in (1, 2))
        after = dict(zip(x, y))
        if not flat:
            new = [[x[0], after[x[0]], after[after[x[0]]]]] if len(ring) == 3 else []
        else:
            new = [[a, after[a], b] for a, b in ((p[i], q[i]), (q[i], p[i])) if a in after]
            if 2 * len(new) != len(ring) or any(after.get(m) != b for _, m, b in new):
                new = []
        if new:
            return np.concatenate([np.delete(tris, ring, axis=0), new]), int(r)
    return None


def _starts(start, coords, idx):
    """The tables ``build_regular`` tries, in order: ``start``, if any, then qhull's lower hull."""
    if start is not None:
        yield start
    _check_not_collinear(coords, idx)
    tris = _lower_hull_triangles(coords, idx)
    hidden = np.zeros(len(coords), dtype=bool)
    hidden[idx] = True
    hidden[tris.ravel()] = False
    yield RegularTriangulation(tris, None, None, _twins(tris), hidden.tolist())


def build_regular(
    balls: list[Ball] | BallArrays, start: RegularTriangulation | None = None
) -> RegularTriangulation:
    """Build the regular triangulation of the alive balls, a ``Ball`` list or its ``geom.ball_arrays``.

    One loop over starts: ``start``, a previous table of the same ball
    list, if given, then qhull's lower hull.  Each goes through one exact
    certify-and-mend step (``_repair``), and the first that passes is
    returned, with ``legal_at`` the rows it was certified at and ``warm``
    True if it came from ``start``.  Batched float filters decide most
    signs; only the edges they leave undecided or find illegal seed the
    exact Lawson pass.  qhull's table fails the certificate only where it
    misses part of the hull (a hull side dented by an ulp); it is then
    returned after the Lawson pass, with ``legal_at`` None and no guesses in
    ``hidden_in``.  The table comes in canonical order (``_canonical``), so
    every certified start gives the same arrays.
    """
    coords, _, alive = geom.ball_arrays(balls)
    idx = np.flatnonzero(alive)
    if len(idx) < 3:
        raise TooFewBalls(f"need >= 3 alive balls, got {len(idx)}")
    for begin in _starts(start, coords, idx):
        mended = _repair(begin, coords, idx)
        if mended is not None:
            tris, twin, hidden_in = mended
            break
    else:
        tris, twin, _ = _legalized(begin.tris, begin.twin, coords)
        hidden_in = None
    tris, twin, rank = _canonical(tris, twin)
    vx, vy, tau = geom.orthocenters(coords[:, :2], coords[:, 2], tris)
    hidden = alive.copy()
    hidden[tris.ravel()] = False
    return RegularTriangulation(
        tris,
        np.column_stack([vx, vy]),
        tau,
        twin,
        hidden.tolist(),
        None if hidden_in is None else coords.copy(),  # a copy: the next ``_repair`` compares rows with it
        begin is start,
        np.full(len(coords), -1) if hidden_in is None else np.where(hidden_in >= 0, rank[hidden_in], -1),
    )


def verify_regular(t: RegularTriangulation, balls: list[Ball]) -> list[tuple[int, int]]:
    """Brute-force regularity oracle.

    Checks every (triangle, other alive ball) pair with the exact power
    test; returns the list of violating (triangle index, ball index) pairs.
    """
    coords, _, alive = geom.ball_arrays(balls)
    rows, others = coords.tolist(), np.flatnonzero(alive).tolist()
    violations = []
    for ti, tri in enumerate(t.tris.tolist()):
        p1, p2, p3 = (rows[i] for i in tri)
        members = set(tri)
        for j in others:
            if j in members:
                continue
            if geom.power_test(p1, p2, p3, rows[j]) < 0:
                violations.append((ti, j))
    return violations


def verify_hull(t: RegularTriangulation, balls: list[Ball]) -> list[tuple[int, int]]:
    """Hull-coverage oracle: the alive centers strictly right of a hull half-edge.

    Returns (triangle index, ball index) pairs, the triangle being the one
    the hull half-edge belongs to (``_outside_hull``, the helper
    ``build_regular``'s certificate checks every start's hull with).  An
    empty list and CCW triangles mean the table covers the convex hull of
    the alive centers.
    """
    coords, _, alive = geom.ball_arrays(balls)
    return _outside_hull(coords, t.tris, t.twin, np.flatnonzero(alive))
