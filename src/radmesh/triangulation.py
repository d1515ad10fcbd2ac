"""Weighted Delaunay (regular) triangulation of a ball set.

The triangulation is the projection of the lower convex envelope of the
ball centers lifted to height (|c|^2 - R^2)/2.  The heavy lifting is done
by qhull on the lifted 3D point set; an exact legalization pass afterwards
repairs any rounding-induced facet misclassification and settles exact
power ties in favour of the lowest ball index (a tied polygon is fanned from
it), so the result is a deterministic function of the input indices.  The
dual vertices and their power values come from ``geom.orthocenters``.

``lawson_flip`` is the one Lawson flip loop in radmesh: legalization runs
it with the exact power test, and the auxiliary cell triangulations of
``dirichlet`` run it with a float in-circle test.

Balls whose lifted point lies strictly above the lower envelope own no
triangle; they are flagged redundant and kept in the ball set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import ConvexHull, Delaunay, QhullError

from . import geom
from .errors import AllCollinear, FlipBudgetExhausted, TooFewBalls
from .geom import Ball, Point2


@dataclass
class Triangle:
    ball_indices: tuple[int, int, int]  # CCW order of centers
    orthocenter: Point2
    tau: float
    neighbors: tuple[int | None, int | None, int | None] = (None, None, None)


@dataclass
class RegularTriangulation:
    triangles: list[Triangle]
    redundant: list[bool]  # per-ball; True = alive but hidden

    def edge_set(self) -> set[frozenset[int]]:
        edges = set()
        for t in self.triangles:
            a, b, c = t.ball_indices
            edges.add(frozenset((a, b)))
            edges.add(frozenset((b, c)))
            edges.add(frozenset((c, a)))
        return edges


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


def _lower_hull_triangles(balls, idx, centers, radii) -> list[list[int]]:
    """Candidate triangles (global ball indices, CCW) of the lifted lower hull."""
    pts = centers[idx]
    lifted = np.column_stack([pts, geom.lifted_heights(pts, radii[idx])])
    try:
        hull = ConvexHull(lifted)
    except QhullError:
        # Three balls, or all lifted points coplanar: every triangulation of
        # the centers is regular; start from the plain Delaunay one.
        tri = Delaunay(pts, qhull_options="Qbb Qc Qz")
        simplices = tri.simplices
        return [[idx[int(a)] for a in s] for s in simplices]
    tris = []
    for simplex, eq in zip(hull.simplices, hull.equations):
        if eq[2] >= 0:
            continue  # upper or vertical facet
        tri = [idx[int(a)] for a in simplex]
        if geom.orient2d(balls[tri[0]].center, balls[tri[1]].center, balls[tri[2]].center) == 0:
            continue  # vertical sliver facet
        tris.append(tri)
    return tris


def _orient_ccw(balls, tris):
    for t in tris:
        if geom.orient2d(balls[t[0]].center, balls[t[1]].center, balls[t[2]].center) < 0:
            t[1], t[2] = t[2], t[1]


def _edge_map(tris):
    """Map undirected edge -> list of (triangle index, opposite vertex)."""
    edges: dict[frozenset[int], list[tuple[int, int]]] = {}
    for ti, t in enumerate(tris):
        for k in range(3):
            e = frozenset((t[(k + 1) % 3], t[(k + 2) % 3]))
            edges.setdefault(e, []).append((ti, t[k]))
    return edges


def lawson_flip(tris, illegal, left_turn):
    """Lawson flips (Lawson 1977) on ``tris`` until no interior edge is illegal.

    ``tris`` holds CCW vertex triples and stays CCW.  ``illegal(a, b, c, q)``
    says whether the edge of triangle ``(a, b, c)`` facing vertex ``q`` must
    flip; ``left_turn(p, u, q)`` whether ``p, u, q`` turn strictly left, so
    only strictly convex quads flip.  A queue of suspect edges and an
    incrementally kept edge map mean each flip re-examines only the quad's
    four sides.  Returns that edge map.  Raises ``FlipBudgetExhausted``
    instead of returning a triangulation that may still be illegal.
    """
    edges = _edge_map(tris)
    queue = list(edges)
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


def _legalize(balls, tris):
    """Exact Lawson legalization of ``tris`` under the power test.

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

    def left_turn(p, u, q):
        return geom.orient2d(balls[p].center, balls[u].center, balls[q].center) > 0

    return lawson_flip(tris, illegal, left_turn)


def build_regular(balls: list[Ball]) -> RegularTriangulation:
    """Build the regular triangulation of the alive balls."""
    idx = _alive_indices(balls)
    if len(idx) < 3:
        raise TooFewBalls(f"need >= 3 alive balls, got {len(idx)}")
    _check_not_collinear(balls, idx)
    centers = np.array([b.center for b in balls], dtype=float)
    radii = np.array([b.radius for b in balls], dtype=float)
    tris = _lower_hull_triangles(balls, idx, centers, radii)
    _orient_ccw(balls, tris)
    edges = _legalize(balls, tris)  # flips keep every triangle CCW

    vx, vy, tau = geom.orthocenters(centers, radii, tris)
    triangles = []
    for ti, t in enumerate(tris):
        nbrs = []
        for k in range(3):
            owners = edges[frozenset((t[(k + 1) % 3], t[(k + 2) % 3]))]
            other = [o for o, _ in owners if o != ti]
            nbrs.append(other[0] if other else None)
        triangles.append(
            Triangle(tuple(t), (float(vx[ti]), float(vy[ti])), float(tau[ti]), tuple(nbrs))
        )
    used = set()
    for t in tris:
        used.update(t)
    redundant = [b.alive and i not in used for i, b in enumerate(balls)]
    return RegularTriangulation(triangles, redundant)


def verify_regular(t: RegularTriangulation, balls: list[Ball]) -> list[tuple[int, int]]:
    """Brute-force regularity oracle.

    Checks every (triangle, other alive ball) pair with the exact power
    test; returns the list of violating (triangle index, ball index) pairs.
    """
    violations = []
    alive = _alive_indices(balls)
    for ti, tri in enumerate(t.triangles):
        b1, b2, b3 = (balls[i] for i in tri.ball_indices)
        members = set(tri.ball_indices)
        for j in alive:
            if j in members:
                continue
            if geom.power_test(b1, b2, b3, balls[j]) < 0:
                violations.append((ti, j))
    return violations
