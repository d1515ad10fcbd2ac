"""Weighted Delaunay (regular) triangulation of a ball set.

The triangulation is the projection of the lower convex envelope of the
ball centers lifted to height (|c|^2 - R^2)/2.  The heavy lifting is done
by qhull on the lifted 3D point set; an exact legalization pass afterwards
repairs any rounding-induced facet misclassification and settles exact
power ties in favour of the lowest ball index (a tied polygon is fanned from
it), so the result is a deterministic function of the input indices.

The result, ``RegularTriangulation``, is one triangle table: per triangle
its CCW ball indices, its dual vertex and power value (both from
``geom.orthocenters``) and the twins of its three half-edges, one row each
in numpy arrays.  Half-edge ``3 t + k`` is the edge of triangle t facing its
corner k; its twin is the same edge seen from the other triangle, or -1 on
the hull.  ``_twins``, one sort of the half-edges, is the one edge pairing.
``diagram.extract_diagram`` and the Gauss-Newton step read these arrays.

Before the exact pass, batched numpy float filters (``geom.orient2d_filter``
and ``geom.power_test_filter`` on arrays, Shewchuk 1997) orient every
lower-hull facet and test every interior edge at once.  Only the edges they
leave undecided or find illegal seed the legalization queue, and the exact
decision on those stays with ``geom.power_test``.

``lawson_flip`` is the one Lawson flip loop in radmesh, and it runs on the
twin array, which it keeps up to date: legalization runs it with the exact
power test, and the scalar fallback of ``dirichlet``'s auxiliary cell
triangulations runs it with a float in-circle test.

Balls whose lifted point lies strictly above the lower envelope own no
triangle; they are flagged redundant and kept in the ball set.

``build_regular(balls, start=t)`` warm-starts from ``t``, an earlier table
of the same ball list with the same alive set (the optimizer's previous
iteration, or the table a Gauss-Newton trial moves away from): qhull and
``_twins`` are skipped, and the exact Lawson pass starts from ``t`` with
the edges the filters cannot show legal under the new coordinates, or only
those of quads with a moved ball when ``t.legal_at`` says where ``t`` was
legal (Edelsbrunner and Shah 1996 flip from a previous triangulation too).
Only 2-2 flips are made, so a ball that turns redundant, comes back or
crosses a triangle is beyond the pass.  ``_repair`` therefore accepts the
result only under an exact certificate: every triangle strictly CCW, the
hull one convex cycle holding every alive center on its closed left
(``_outside_hull``, also behind the ``verify_hull`` oracle), no interior
edge illegal, and every ball the table misses strictly redundant against
the triangle holding its center (the triangles found are kept in
``hidden_in``, the next start's first guess).  Where it fails, the table
is built from qhull as without ``start``, and ``warm`` is False.

Both paths end in one canonical order (``_canonical``): each row rotated
to lead with its lowest ball index, the rows sorted, ``twin`` renumbered to
match.  Simulation of simplicity makes the triangulation of a vertex set
unique, so wherever qhull keeps the balls the certificate keeps, a
certified warm start equals the fresh build array for array.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import ConvexHull, Delaunay, QhullError

from . import geom
from .errors import AllCollinear, FlipBudgetExhausted, TooFewBalls
from .geom import Ball


@dataclass
class RegularTriangulation:
    """The triangle table: row f describes triangle f."""

    tris: np.ndarray  # (F, 3) ball indices, CCW order of centers
    orthocenters: np.ndarray  # (F, 2) dual vertices
    tau: np.ndarray  # (F,) power of each dual vertex
    twin: np.ndarray  # (F, 3) twin of the half-edge facing each corner, -1 on the hull
    redundant: list[bool]  # per-ball; True = alive but hidden
    # the [cx, cy, R] rows at which every interior edge is legal; None if one is not
    legal_at: np.ndarray | None = None
    warm: bool = False  # repaired from a start table rather than built by qhull
    # per ball, the triangle the warm start's certificate found its hidden
    # center in (-1 for the other balls, and where that triangle has flipped
    # since); None for a table built by qhull
    hidden_in: np.ndarray | None = None

    def edge_set(self) -> set[frozenset[int]]:
        return {frozenset(e) for e in self.tris[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2).tolist()}


def _alive_indices(balls) -> list[int]:
    return [i for i, b in enumerate(balls) if b.alive]


def _check_not_collinear(balls, idx):
    p0 = balls[idx[0]].center
    p1 = None
    for i in idx[1:]:
        if balls[i].center != p0:
            p1 = balls[i].center
            break
    if p1 is None:
        raise AllCollinear("all ball centers coincide")
    for i in idx:
        if geom.orient2d(p0, p1, balls[i].center) != 0:
            return
    raise AllCollinear("all ball centers are collinear")


def _orient_filter(centers, a, b, c):
    """``geom.orient2d``'s float filter for the center triples ``(a, b, c)`` at once.

    ``a``, ``b`` and ``c`` are index arrays into the (N, 2) ``centers``
    that broadcast to one shape, the shape of the result.  Returns the
    signs the filter decides, 0 where it cannot: filters are conservative,
    so every nonzero entry is the exact sign.
    """
    x, y = centers.T
    # gathered per coordinate, so the filter runs on contiguous arrays
    det, errbound = geom.orient2d_filter(*((x[i], y[i]) for i in (a, b, c)))
    return (np.sign(det) * (np.abs(det) > errbound)).astype(int)


def _orient_signs(balls, centers, a, b, c):
    """Exact ``geom.orient2d`` signs of the ball triples ``(a, b, c)``, shaped as ``_orient_filter``'s.

    The float filter decides most signs.  Of the rest, a determinant whose
    two products each have an exactly zero factor is exactly zero (a
    repeated point, or three points on one axis-parallel line); only the
    others go to ``geom.orient2d``.
    """
    sign = _orient_filter(centers, a, b, c)
    open_ = np.nonzero(sign == 0)
    if open_[0].size:
        a, b, c = (i[open_] for i in np.broadcast_arrays(a, b, c))
        x, y = centers.T
        ax, ay, bx, by, cx, cy = x[a], y[a], x[b], y[b], x[c], y[c]
        zero = ((bx == ax) | (cy == ay)) & ((by == ay) | (cx == ax))
        for m in np.flatnonzero(~zero).tolist():
            sign[tuple(i[m] for i in open_)] = geom.orient2d(
                balls[a[m]].center, balls[b[m]].center, balls[c[m]].center
            )
    return sign


def _lower_hull_triangles(balls, idx, centers, radii):
    """The lifted lower hull's triangles: an (F, 3) array of ball indices, CCW.

    The orientation of every facet comes from ``_orient_signs``.  Flat
    facets (vertical slivers of the lifted hull) are dropped.
    """
    pts = centers[idx]
    lifted = np.column_stack([pts, geom.lifted_heights(pts, radii[idx])])
    try:
        hull = ConvexHull(lifted)
        simplices = hull.simplices[hull.equations[:, 2] < 0]  # lower facets
    except QhullError:
        # Three balls, or all lifted points coplanar: every triangulation of
        # the centers is regular; start from the plain Delaunay one.
        simplices = Delaunay(pts, qhull_options="Qbb Qc Qz").simplices
    tris = np.asarray(idx)[simplices].reshape(-1, 3)
    sign = _orient_signs(balls, centers, *tris.T)
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
    lists, kept up to date.  ``illegal(a, b, c, q)`` says whether the edge of
    triangle ``(a, b, c)`` facing vertex ``q`` must flip; ``left_turn(p, u,
    q)`` whether ``p, u, q`` turn strictly left, so only strictly convex
    quads flip.  ``queue`` holds the suspect half-edges, the last examined
    first.  A flip of the quad ``p, u, q, v`` writes ``[p, u, q]`` and ``[p,
    q, v]`` and queues the quad's four sides and new diagonal; a queued
    half-edge whose triangle has flipped since is dropped, as its quad's
    edges were queued again.  Raises ``FlipBudgetExhausted`` instead of
    returning a triangulation that may still be illegal.

    Returns the half-edges found illegal on a quad that is not strictly
    convex, in the order examined.  Every edge a flip changes is queued
    again, so an edge left illegal at the end is one of these.
    """
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
        twin[3 * t1 : 3 * t1 + 3] = [c, 3 * t2 + 2, a]
        twin[3 * t2 : 3 * t2 + 3] = [d, b, 3 * t1 + 1]
        for g, back in ((c, 3 * t1), (a, 3 * t1 + 2), (d, 3 * t2), (b, 3 * t2 + 1)):
            if g >= 0:
                twin[g] = back
        stamp[t1] += 1
        stamp[t2] += 1
        # each side as seen from outside the quad, then the diagonal from t1;
        # a side already queued from its unflipped outer triangle stays put
        for g in (c, 3 * t1 + 1, a, d, b):
            if g >= 0 and queued[g] != stamp[g // 3]:
                queued[g] = stamp[g // 3]
                stack.append((g, queued[g]))
    return stuck


def _power_filter(centers, radii, abc, q):
    """``geom.power_test``'s float filter for many (triangle, ball) pairs at once.

    ``abc`` is an (E, 3) array of CCW triangles and ``q`` an (E,) array of
    balls, indices into ``centers`` and ``radii``.  Returns power_test's
    sign where the filter decides it (conservatively, so it is exact) and
    0 where it cannot.
    """
    args = [x for i in (*abc.T, q) for x in (centers[i].T, radii[i])]
    det, errbound = geom.power_test_filter(*args)
    # det > 0 <=> q lifted below the face plane, a violation (orient is +1)
    return np.where(np.abs(det) > errbound, -np.sign(det), 0.0).astype(int)


def _suspect_edges(tris, twin, centers, radii, moved=None) -> list[int]:
    """Interior half-edges of ``tris`` whose edge ``_power_filter`` cannot show legal.

    Each edge is tested, and returned, as its lower half-edge, the one
    ``lawson_flip`` tests: its triangle against the twin's opposite ball.
    With a ``moved`` mask over the balls, only the edges whose quad has a
    moved ball are tested; the others must be known legal.
    """
    first = np.flatnonzero(twin.ravel() > np.arange(twin.size))
    abc, q = tris[first // 3], tris.ravel()[twin.ravel()[first]]
    if moved is not None:
        keep = moved[abc].any(axis=1) | moved[q]
        first, abc, q = first[keep], abc[keep], q[keep]
    return first[_power_filter(centers, radii, abc, q) <= 0].tolist()


def _illegal(balls):
    """The exact power test as ``lawson_flip``'s ``illegal``, ties settled by simulation of simplicity.

    An exact tie is decided by simulation of simplicity (Edelsbrunner and
    Mucke 1990): the lifted point of the quad's lowest ball index counts as
    infinitesimally lower, so a tied edge is illegal exactly when that ball
    is off the edge, and a tied polygon ends up fanned from its lowest index.
    """

    def illegal(a, b, c, q):
        s = geom.power_test(balls[a], balls[b], balls[c], balls[q])
        if s != 0:
            return s < 0
        low = min(a, b, c, q)
        if low == q:
            return True
        pts = [balls[q if i == low else i].center for i in (a, b, c)]
        return geom.orient2d(*pts) < 0

    return illegal


def _legalize(balls, tris, twin, queue):
    """Exact Lawson legalization of ``tris`` under the power test (``_illegal``).

    ``tris``, ``twin`` and ``queue`` are ``lawson_flip``'s, and so is the
    returned list of half-edges left illegal on non-convex quads.
    """

    def left_turn(p, u, q):
        return geom.orient2d(balls[p].center, balls[u].center, balls[q].center) > 0

    return lawson_flip(tris, twin, _illegal(balls), left_turn, queue)


def _legalized(balls, tris, twin, centers, radii, moved=None):
    """``tris`` and ``twin`` after ``_legalize`` from the edges ``_suspect_edges`` leaves open.

    Returns the new arrays and whether every interior edge is legal: the
    filter shows the unqueued edges legal, and a flip queues every edge it
    changes, so only the edges ``lawson_flip`` found illegal on a quad that
    is not convex can be left illegal, and those are tested again.  The
    input arrays are not changed.  Flips keep every triangle CCW.
    """
    queue = _suspect_edges(tris, twin, centers, radii, moved)
    if not queue:
        return tris, twin, True
    rows, flat = tris.tolist(), twin.ravel().tolist()
    flipped = list(rows)  # a flip replaces a row's list, so ``is`` finds the new rows
    stuck = _legalize(balls, flipped, flat, queue)
    illegal = _illegal(balls)
    legal = not any(flat[h] >= 0 and illegal(*flipped[h // 3], flipped[flat[h] // 3][flat[h] % 3]) for h in stuck)
    new = [f for f, (a, b) in enumerate(zip(rows, flipped)) if a is not b]
    if not new:
        return tris, twin, legal
    tris = tris.copy()
    tris[new] = [flipped[f] for f in new]
    return tris, np.array(flat).reshape(-1, 3), legal


def _hull_edges(tris, twin):
    """The hull half-edges of a table: their triangles and their ends ``u -> v``."""
    h = np.flatnonzero(twin.ravel() < 0)
    f, k = np.divmod(h, 3)
    return f, tris[f, (k + 1) % 3], tris[f, (k + 2) % 3]


def _hull_cycle(tris, twin):
    """The balls along the table's hull half-edges in order, or None unless they form one cycle."""
    _, u, v = _hull_edges(tris, twin)
    after = dict(zip(u.tolist(), v.tolist()))
    cycle = [int(u[0])]
    while len(cycle) <= len(after):
        cycle.append(after.get(cycle[-1], -1))
    one = len(after) == len(u) and cycle[-1] == cycle[0] and len(set(cycle)) == len(u)
    return np.array(cycle[:-1]) if one else None


def _outside_hull(balls, centers, tris, twin, points) -> list[tuple[int, int]]:
    """(triangle, ball) pairs: a ball of ``points`` strictly right of a hull half-edge of the table.

    The triangle is the one the hull half-edge belongs to; the signs are
    ``_orient_signs``'s, so exact.
    """
    f, u, v = _hull_edges(tris, twin)
    points = np.asarray(points, dtype=int)
    out = []
    step = max(1, 2**16 // max(1, len(points)))  # bounds the (edges, balls) arrays
    for s in range(0, len(f), step):
        e = slice(s, s + step)
        hull, ball = np.nonzero(_orient_signs(balls, centers, u[e, None], v[e, None], points) < 0)
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


def _repair(balls, start, coords, alive):
    """``start`` legalized for the rows ``coords`` of ``[cx, cy, R]``, or None where the certificate fails.

    Returns the new ``tris`` and ``twin`` and, per hidden ball, the triangle
    that holds its center, -1 where that triangle has flipped.  ``start``
    must be a table of the same ball list with the same alive set.  The
    certificate, all of it exact:

    1. every triangle is strictly CCW (checked before the pass; a flip makes
       only strictly CCW triangles);
    2. the hull half-edges form one cycle through balls at distinct
       centers, each on the closed left of every hull half-edge
       (``_outside_hull``; flips keep the hull);
    3. no interior edge is still illegal after the pass (``_legalized``);
       an edge whose quad kept its balls where ``start`` had them legal
       (``start.legal_at``) is legal still, and is not tested;
    4. every alive ball the table misses is strictly redundant against the
       triangle that contains its center (``_above``, which first tries the
       triangle ``start.hidden_in`` names).  It is checked on ``start``
       before the pass, which turns away early the starts the pass cannot
       mend because a hidden ball comes back.  A flip only lowers the lifted
       surface, so a ball above it before the pass is above it after.

    Part 2 makes the boundary a convex polygon wound once, so with part 1
    every point inside it lies in exactly one triangle (the degree of the
    map from the table to the plane) and the table triangulates the
    polygon.  Its vertices lie in the polygon, and part 4 places the other
    alive balls in it, so every alive center is on the closed left of every
    hull half-edge, as ``verify_hull`` asks.  Part 3 makes the lifted
    surface convex, the lower envelope of the table's balls, and part 4
    puts every other ball strictly above it.
    """
    if len(start.redundant) != len(balls):
        return None
    is_alive = np.zeros(len(balls), dtype=bool)
    is_alive[alive] = True
    was_alive = np.array(start.redundant, dtype=bool)
    was_alive[start.tris.ravel()] = True
    if not np.array_equal(was_alive, is_alive):
        return None
    centers, radii = coords[:, :2], coords[:, 2]
    tris, twin = start.tris, start.twin
    if (_orient_signs(balls, centers, *tris.T) <= 0).any():
        return None
    hull = _hull_cycle(tris, twin)
    if (
        hull is None
        or len({balls[i].center for i in hull.tolist()}) < len(hull)
        or _outside_hull(balls, centers, tris, twin, hull)
    ):
        return None
    hidden = np.flatnonzero(np.array(start.redundant, dtype=bool))
    guess = None if start.hidden_in is None else start.hidden_in[hidden]
    where = _above(balls, centers, radii, tris, hidden, guess)
    if where is None:
        return None
    moved = None if start.legal_at is None else (coords != start.legal_at).any(axis=1)
    try:
        flipped, twin, legal = _legalized(balls, tris, twin, centers, radii, moved)
    except FlipBudgetExhausted:
        return None
    if not legal:
        return None
    if flipped is not tris:
        where[(flipped[where] != tris[where]).any(axis=1)] = -1
    return flipped, twin, where


def _above(balls, centers, radii, tris, hidden, guess=None):
    """The triangle of ``tris`` that holds each center of ``hidden``, if each is strictly redundant against it.

    Returns an array of triangle numbers, or None when a center lies in no
    triangle or a ball is not strictly above its triangle's lifted plane
    (exact, by ``geom.power_test``).  Containment is exact
    (``_orient_signs``), and any triangle whose closed area holds the
    center will do: where the center lies on an edge or a vertex, the
    lifted planes of the triangles there agree at it.  The triangles in
    ``guess`` are tried first; for the other centers, the candidates are
    the triangles whose bounding box holds them (float comparisons, so
    exact), and the first that holds the center is taken.  A guess of -1
    is no guess.
    """
    f = np.full(len(hidden), -1)
    if guess is not None:
        known = np.flatnonzero(guess >= 0)
        abc = tris[guess[known]]
        inside = (_orient_signs(balls, centers, abc, abc[:, [1, 2, 0]], hidden[known, None]) >= 0).all(axis=1)
        f[known[inside]] = guess[known[inside]]
    rest = np.flatnonzero(f < 0)
    if len(rest):
        x, y = centers.T
        xs, ys = x[tris], y[tris]  # (F, 3)
        x0, x1, y0, y1 = xs.min(axis=1), xs.max(axis=1), ys.min(axis=1), ys.max(axis=1)
        step = max(1, 2**16 // len(tris))  # bounds the (balls, triangles) masks
        for s in range(0, len(rest), step):
            r = rest[s : s + step]
            px, py = x[hidden[r], None], y[hidden[r], None]
            m, t = np.nonzero((px >= x0) & (px <= x1) & (py >= y0) & (py <= y1))
            abc = tris[t]
            inside = (_orient_signs(balls, centers, abc, abc[:, [1, 2, 0]], hidden[r[m], None]) >= 0).all(axis=1)
            found, first = np.unique(m[inside], return_index=True)
            if len(found) < len(r):
                return None
            f[r] = t[inside][first]
    sign = _power_filter(centers, radii, tris[f], hidden)
    for k in np.flatnonzero(sign == 0).tolist():
        sign[k] = geom.power_test(*(balls[i] for i in tris[f[k]].tolist()), balls[hidden[k]])
    return None if (sign <= 0).any() else f


def build_regular(balls: list[Ball], start: RegularTriangulation | None = None) -> RegularTriangulation:
    """Build the regular triangulation of the alive balls.

    With ``start``, a previous table of the same ball list, the table is
    first repaired from it (``_repair``); where its certificate fails, or
    without ``start``, it is built from qhull's lower hull.  Batched float
    filters decide the facet orientations and the legality of most edges;
    only the edges they leave undecided or find illegal seed the exact
    Lawson pass.  The table comes in canonical order (``_canonical``), so
    both paths give the same arrays.
    """
    idx = _alive_indices(balls)
    if len(idx) < 3:
        raise TooFewBalls(f"need >= 3 alive balls, got {len(idx)}")
    coords = np.array([(*b.center, b.radius) for b in balls], dtype=float)
    centers, radii = coords[:, :2], coords[:, 2]
    repaired = None if start is None else _repair(balls, start, coords, idx)
    legal = True
    if repaired is None:
        _check_not_collinear(balls, idx)
        tris = _lower_hull_triangles(balls, idx, centers, radii)
        tris, twin, legal = _legalized(balls, tris, _twins(tris), centers, radii)
    else:
        tris, twin, where = repaired
    tris, twin, rank = _canonical(tris, twin)
    vx, vy, tau = geom.orthocenters(centers, radii, tris)
    hidden = np.zeros(len(balls), dtype=bool)
    hidden[idx] = True
    hidden[tris.ravel()] = False
    hidden_in = None
    if repaired is not None:
        hidden_in = np.full(len(balls), -1)
        hidden_in[hidden] = np.where(where >= 0, rank[where], -1)
    return RegularTriangulation(
        tris,
        np.column_stack([vx, vy]),
        tau,
        twin,
        hidden.tolist(),
        coords if legal else None,
        repaired is not None,
        hidden_in,
    )


def verify_regular(t: RegularTriangulation, balls: list[Ball]) -> list[tuple[int, int]]:
    """Brute-force regularity oracle.

    Checks every (triangle, other alive ball) pair with the exact power
    test; returns the list of violating (triangle index, ball index) pairs.
    """
    violations = []
    alive = _alive_indices(balls)
    for ti, tri in enumerate(t.tris.tolist()):
        b1, b2, b3 = (balls[i] for i in tri)
        members = set(tri)
        for j in alive:
            if j in members:
                continue
            if geom.power_test(b1, b2, b3, balls[j]) < 0:
                violations.append((ti, j))
    return violations


def verify_hull(t: RegularTriangulation, balls: list[Ball]) -> list[tuple[int, int]]:
    """Hull-coverage oracle: the alive centers strictly right of a hull half-edge.

    Returns (triangle index, ball index) pairs, the triangle being the one
    the hull half-edge belongs to (``_outside_hull``, the helper
    ``build_regular``'s warm-start certificate checks the hull with).  An
    empty list and CCW triangles mean the table covers the convex hull of
    the alive centers.
    """
    centers = np.array([b.center for b in balls], dtype=float).reshape(-1, 2)
    return _outside_hull(balls, centers, t.tris, t.twin, _alive_indices(balls))
