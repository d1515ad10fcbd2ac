"""Weighted Delaunay (regular) triangulation of a ball set.

The triangulation is the projection of the lower convex envelope of the
ball centers lifted to height (|c|^2 - R^2)/2.  The heavy lifting is done
by qhull on the lifted 3D point set; an exact legalization pass afterwards
repairs any rounding-induced facet misclassification and settles exact
power ties in favour of the lowest ball index (a tied polygon is fanned from
it), so the result is a deterministic function of the input indices.

The result, ``RegularTriangulation``, is one triangle table: per triangle
its CCW ball indices, its dual vertex and power value (both from
``geom.orthocenters``) and its three neighbors, one row each in numpy
arrays.  ``diagram.extract_diagram`` and the Gauss-Newton step read these
arrays directly.

Before the exact pass, batched numpy float filters (the stage-A filters
of ``geom.orient2d`` and ``geom.power_test``, Shewchuk 1997) orient every
lower-hull facet and test every interior edge at once.  Only the edges they
leave undecided or find illegal seed the legalization queue, and the exact
decision on those stays with ``geom.power_test``.

``lawson_flip`` is the one Lawson flip loop in radmesh: legalization runs
it with the exact power test, and the scalar fallback of ``dirichlet``'s
auxiliary cell triangulations runs it with a float in-circle test.

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
    neighbors: np.ndarray  # (F, 3) triangle across the edge facing each corner, -1 on the hull
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
    a, b, c = centers[tris[:, 0]], centers[tris[:, 1]], centers[tris[:, 2]]
    detleft = (b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1])
    detright = (b[:, 1] - a[:, 1]) * (c[:, 0] - a[:, 0])
    det = detleft - detright
    errbound = geom._ORIENT_BOUND * (np.abs(detleft) + np.abs(detright))
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


def _edge_map(tris):
    """Map undirected edge -> list of (triangle index, opposite vertex)."""
    edges: dict[frozenset[int], list[tuple[int, int]]] = {}
    for ti, t in enumerate(tris):
        for k in range(3):
            e = frozenset((t[(k + 1) % 3], t[(k + 2) % 3]))
            edges.setdefault(e, []).append((ti, t[k]))
    return edges


def lawson_flip(tris, illegal, left_turn, queue=None):
    """Lawson flips (Lawson 1977) on ``tris`` until no interior edge is illegal.

    ``tris`` holds CCW vertex triples and stays CCW.  ``illegal(a, b, c, q)``
    says whether the edge of triangle ``(a, b, c)`` facing vertex ``q`` must
    flip; ``left_turn(p, u, q)`` whether ``p, u, q`` turn strictly left, so
    only strictly convex quads flip.  A queue of suspect edges (``queue``,
    by default every edge; the last is examined first) and an incrementally
    kept edge map mean each flip re-examines only the quad's four sides.
    Returns that edge map.  Raises ``FlipBudgetExhausted``
    instead of returning a triangulation that may still be illegal.
    """
    edges = _edge_map(tris)
    queue = list(edges if queue is None else queue)
    in_queue = set(queue)
    limit = 32 * max(1, len(tris)) ** 2
    flips = 0
    while queue:
        e = queue.pop()
        in_queue.discard(e)
        owners = edges.get(e)
        if owners is None or len(owners) != 2:
            continue
        (t1, p), (t2, q) = owners
        if not illegal(*tris[t1], q):
            continue
        u, v = e
        if not (left_turn(p, u, q) and left_turn(p, q, v)):
            u, v = v, u
            if not (left_turn(p, u, q) and left_turn(p, q, v)):
                continue
        if flips == limit:
            raise FlipBudgetExhausted(f"edges still illegal after {limit} flips")
        flips += 1
        for ti in (t1, t2):
            t = tris[ti]
            for k in range(3):
                f = frozenset((t[k - 2], t[k - 1]))
                owners = edges[f]
                owners[:] = [o for o in owners if o[0] != ti]
                if not owners:
                    del edges[f]
        tris[t1] = [p, u, q]
        tris[t2] = [p, q, v]
        for ti in (t1, t2):
            t = tris[ti]
            for k in range(3):
                f = frozenset((t[k - 2], t[k - 1]))
                edges.setdefault(f, []).append((ti, t[k]))
                if f not in in_queue:
                    in_queue.add(f)
                    queue.append(f)
    return edges


def _power_filter(centers, radii, abc, q):
    """``geom.power_test``'s float filter for many (triangle, ball) pairs at once.

    ``abc`` is an (E, 3) array of CCW triangles and ``q`` an (E,) array of
    balls, indices into ``centers`` and ``radii``.  Returns power_test's
    sign where the filter decides it (conservatively, so it is exact) and
    0 where it cannot; the expressions are ``geom._power_det_terms``' and
    power_test's.
    """
    c4, r4sq = centers[q], radii[q] * radii[q]
    rows = []
    for m in range(3):
        ax = centers[abc[:, m], 0] - c4[:, 0]
        ay = centers[abc[:, m], 1] - c4[:, 1]
        rsq = radii[abc[:, m]] * radii[abc[:, m]]
        rows.append((ax, ay, ax * ax + ay * ay - rsq + r4sq, ax * ax + ay * ay + rsq + r4sq))
    (a1, b1y, z1, m1), (a2, b2y, z2, m2), (a3, b3y, z3, m3) = rows
    c12 = a1 * b2y - a2 * b1y
    c23 = a2 * b3y - a3 * b2y
    c31 = a3 * b1y - a1 * b3y
    det = z1 * c23 + z2 * c31 + z3 * c12
    mag = (
        m1 * (np.abs(a2 * b3y) + np.abs(a3 * b2y))
        + m2 * (np.abs(a3 * b1y) + np.abs(a1 * b3y))
        + m3 * (np.abs(a1 * b2y) + np.abs(a2 * b1y))
    )
    # det > 0 <=> q lifted below the face plane, a violation (orient is +1)
    return np.where(np.abs(det) > geom._POWER_BOUND * mag, -np.sign(det), 0.0).astype(int)


def _interior_pairs(tris, n):
    """The two half-edges of every interior edge of ``tris``, an (F, 3) array.

    Half-edge 3 t + k is the edge of triangle t facing its corner k; ``n``
    bounds the ball indices.  Returns the arrays (first, second), first <
    second, so first belongs to the edge's lower triangle index.
    """
    u, v = tris[:, [1, 2, 0]].ravel(), tris[:, [2, 0, 1]].ravel()
    key = np.minimum(u, v) * n + np.maximum(u, v)
    order = np.argsort(key, kind="stable")
    pair = key[order[1:]] == key[order[:-1]]
    return order[:-1][pair], order[1:][pair]


def _suspect_edges(tris, centers, radii) -> list[frozenset[int]]:
    """Interior edges of ``tris`` that ``_power_filter`` cannot show legal.

    The test is the one ``lawson_flip`` makes: the edge's first owner
    (lowest triangle index) against the second owner's opposite ball.  The
    edges come in ``_edge_map`` order, as ``lawson_flip`` would queue them.
    """
    first, second = _interior_pairs(tris, len(centers))
    sign = _power_filter(centers, radii, tris[first // 3], tris.ravel()[second])
    first = np.sort(first[sign <= 0])
    t, k = first // 3, first % 3
    u, v = tris[t, (k + 1) % 3].tolist(), tris[t, (k + 2) % 3].tolist()
    return [frozenset(e) for e in zip(u, v)]


def _neighbors(tris, n):
    """Per corner of each triangle of ``tris``, the triangle across the facing edge, or -1."""
    first, second = _interior_pairs(tris, n)
    nbr = np.full(tris.size, -1)
    nbr[first], nbr[second] = second // 3, first // 3
    return nbr.reshape(-1, 3)


def _legalize(balls, tris, queue=None):
    """Exact Lawson legalization of ``tris`` under the power test.

    ``queue`` holds the edges to start from (default: all).  An exact tie
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

    return lawson_flip(tris, illegal, left_turn, queue)


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
    flipped = tris.tolist()
    # flips keep every triangle CCW
    _legalize(balls, flipped, _suspect_edges(tris, centers, radii))
    tris = np.array(flipped).reshape(-1, 3)
    vx, vy, tau = geom.orthocenters(centers, radii, tris)
    used = set(tris.ravel().tolist())
    redundant = [b.alive and i not in used for i, b in enumerate(balls)]
    return RegularTriangulation(
        tris, np.column_stack([vx, vy]), tau, _neighbors(tris, len(balls)), redundant
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
