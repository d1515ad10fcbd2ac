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


def _orient_filter(centers, tris):
    """``geom.orient2d``'s float filter for every triangle of ``tris`` at once.

    ``tris`` is an (F, 3) index array into the (N, 2) ``centers``.  Returns
    the signs the filter decides, 0 where it cannot: filters are
    conservative, so every nonzero entry is the exact sign.
    """
    det, errbound = geom.orient2d_filter(*(centers[tris[:, m]].T for m in range(3)))
    return np.where(np.abs(det) > errbound, np.sign(det), 0.0).astype(int)


def _lower_hull_triangles(balls, idx, centers, radii):
    """The lifted lower hull's triangles: an (F, 3) array of ball indices, CCW.

    The orientation of every facet comes from ``_orient_filter``; the
    facets it leaves undecided go to ``geom.orient2d``.  Flat facets
    (vertical slivers of the lifted hull) are dropped.
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
    sign = _orient_filter(centers, tris)
    for f in np.flatnonzero(sign == 0).tolist():
        sign[f] = geom.orient2d(*(balls[i].center for i in tris[f].tolist()))
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
    """
    stamp = [0] * len(tris)  # flips of each triangle
    stack = [(h, 0) for h in queue]
    queued = [-1] * len(twin)  # per half-edge, the stamp it is queued with
    for h in queue:
        queued[h] = 0
    limit = 32 * max(1, len(tris)) ** 2
    flips = 0
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
        if not (illegal(*tris[t1], q) and left_turn(p, u, q) and left_turn(p, q, v)):
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


def _suspect_edges(tris, twin, centers, radii) -> list[int]:
    """Interior half-edges of ``tris`` whose edge ``_power_filter`` cannot show legal.

    Each edge is tested, and returned, as its lower half-edge, the one
    ``lawson_flip`` tests: its triangle against the twin's opposite ball.
    """
    first = np.flatnonzero(twin.ravel() > np.arange(twin.size))
    sign = _power_filter(centers, radii, tris[first // 3], tris.ravel()[twin.ravel()[first]])
    return first[sign <= 0].tolist()


def _legalize(balls, tris, twin, queue):
    """Exact Lawson legalization of ``tris`` under the power test.

    ``tris``, ``twin`` and ``queue`` are ``lawson_flip``'s.  An exact tie
    is decided by simulation of simplicity (Edelsbrunner and Mucke 1990):
    the lifted point of the quad's lowest ball index counts as
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

    def left_turn(p, u, q):
        return geom.orient2d(balls[p].center, balls[u].center, balls[q].center) > 0

    lawson_flip(tris, twin, illegal, left_turn, queue)


def build_regular(balls: list[Ball]) -> RegularTriangulation:
    """Build the regular triangulation of the alive balls.

    Batched float filters decide the facet orientations and the legality of
    most edges; only the edges they leave undecided or find illegal seed the
    exact Lawson pass.
    """
    idx = _alive_indices(balls)
    if len(idx) < 3:
        raise TooFewBalls(f"need >= 3 alive balls, got {len(idx)}")
    _check_not_collinear(balls, idx)
    centers = np.array([b.center for b in balls], dtype=float)
    radii = np.array([b.radius for b in balls], dtype=float)
    tris = _lower_hull_triangles(balls, idx, centers, radii)
    twin = _twins(tris)
    queue = _suspect_edges(tris, twin, centers, radii)
    if queue:  # flips keep every triangle CCW
        flipped, twin = tris.tolist(), twin.ravel().tolist()
        _legalize(balls, flipped, twin, queue)
        tris, twin = np.array(flipped), np.array(twin).reshape(-1, 3)
    vx, vy, tau = geom.orthocenters(centers, radii, tris)
    used = set(tris.ravel().tolist())
    redundant = [b.alive and i not in used for i, b in enumerate(balls)]
    return RegularTriangulation(tris, np.column_stack([vx, vy]), tau, twin, redundant)


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
