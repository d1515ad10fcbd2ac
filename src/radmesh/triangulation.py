"""Weighted Delaunay (regular) triangulation of a ball set.

The triangulation is the projection of the lower convex envelope of the
ball centers lifted to height (|c|^2 - R^2)/2.  The heavy lifting is done
by qhull on the lifted 3D point set; an exact legalization pass afterwards
repairs any rounding-induced facet misclassification, and exact power ties
are re-triangulated canonically (fan from the lowest ball index) so the
result is a deterministic function of the input indices.

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
from .unionfind import UnionFind


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
    hull: list[tuple[int, int]]  # ordered CCW boundary edges (ball indices)

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


def _lower_hull_triangles(balls, idx) -> list[list[int]]:
    """Candidate triangles (global ball indices, CCW) of the lifted lower hull."""
    pts = np.array([balls[i].center for i in idx], dtype=float)
    heights = 0.5 * (
        pts[:, 0] ** 2 + pts[:, 1] ** 2 - np.array([balls[i].radius for i in idx]) ** 2
    )
    lifted = np.column_stack([pts, heights])
    try:
        hull = ConvexHull(lifted)
    except QhullError:
        # All lifted points coplanar: every triangulation of the centers is
        # regular (all power ties); use the plain Delaunay triangulation.
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
    """Exact Lawson legalization of ``tris`` under the power test."""

    def illegal(a, b, c, q):
        return geom.power_test(balls[a], balls[b], balls[c], balls[q]) < 0

    def left_turn(p, u, q):
        return geom.orient2d(balls[p].center, balls[u].center, balls[q].center) > 0

    return lawson_flip(tris, illegal, left_turn)


def _boundary_cycle(tris, edges, members) -> list[int]:
    """CCW vertex cycle around the union of the triangles ``members``.

    A boundary edge has no other member triangle beside it; directed as in
    its CCW triangle, it keeps the union on its left.  ``edges`` is the edge
    map of ``tris``.  The cycle starts at its lowest vertex.
    """
    member_set = set(members)
    succ = {}
    for ti in members:
        t = tris[ti]
        for k in range(3):
            a, b = t[k - 2], t[k - 1]
            owners = edges[frozenset((a, b))]  # ti and the triangle across, if any
            if (
                len(owners) == 1
                or owners[0][0] not in member_set
                or owners[1][0] not in member_set
            ):
                succ[a] = b
    start = min(succ)
    cycle = [start]
    cur = succ[start]
    while cur != start:
        cycle.append(cur)
        cur = succ[cur]
    return cycle


def _canonicalize_ties(balls, tris, edges) -> bool:
    """Re-fan groups of triangles joined by exact power ties.

    Triangles whose lifted faces are exactly coplanar form a convex polygon
    on the lower envelope; any triangulation of it is regular.  Fanning from
    the lowest ball index makes the choice order-independent.  ``edges`` is
    the edge map of ``tris``; returns whether any group was re-fanned, in
    which case the triangle indices and hence that map are stale.
    """
    uf = UnionFind(len(tris))
    any_tie = False
    for owners in edges.values():
        if len(owners) != 2:
            continue
        (t1, _), (t2, q) = owners
        a, b, c = (balls[i] for i in tris[t1])
        if geom.power_test(a, b, c, balls[q]) == 0:
            uf.union(t1, t2)
            any_tie = True
    if not any_tie:
        return False
    new_tris = []
    handled = set()
    for members in uf.groups():
        if len(members) == 1:
            continue
        handled.update(members)
        cycle = _boundary_cycle(tris, edges, members)
        for k in range(1, len(cycle) - 1):
            new_tris.append([cycle[0], cycle[k], cycle[k + 1]])
    kept = [t for ti, t in enumerate(tris) if ti not in handled]
    tris[:] = kept + new_tris
    return True


def _orthocenters(balls, tris):
    """Vectorized orthocenter/tau computation for all triangles."""
    idx = np.array(tris, dtype=int)
    c = np.array([b.center for b in balls], dtype=float)
    r = np.array([b.radius for b in balls], dtype=float)
    h = 0.5 * (c[:, 0] ** 2 + c[:, 1] ** 2 - r**2)
    c1, c2, c3 = c[idx[:, 0]], c[idx[:, 1]], c[idx[:, 2]]
    h1, h2, h3 = h[idx[:, 0]], h[idx[:, 1]], h[idx[:, 2]]
    a11 = c2[:, 0] - c1[:, 0]
    a12 = c2[:, 1] - c1[:, 1]
    a21 = c3[:, 0] - c1[:, 0]
    a22 = c3[:, 1] - c1[:, 1]
    det = a11 * a22 - a12 * a21
    rhs1 = h2 - h1
    rhs2 = h3 - h1
    vx = (rhs1 * a22 - rhs2 * a12) / det
    vy = (a11 * rhs2 - a21 * rhs1) / det
    tau = np.zeros(len(tris))
    for col in range(3):
        ci = c[idx[:, col]]
        ri = r[idx[:, col]]
        tau += (ci[:, 0] - vx) ** 2 + (ci[:, 1] - vy) ** 2 - ri**2
    tau /= 3.0
    return vx, vy, tau


def build_regular(balls: list[Ball]) -> RegularTriangulation:
    """Build the regular triangulation of the alive balls."""
    idx = _alive_indices(balls)
    if len(idx) < 3:
        raise TooFewBalls(f"need >= 3 alive balls, got {len(idx)}")
    _check_not_collinear(balls, idx)
    if len(idx) == 3:
        tris = [list(idx)]
    else:
        tris = _lower_hull_triangles(balls, idx)
    _orient_ccw(balls, tris)
    edges = _legalize(balls, tris)  # flips keep every triangle CCW
    if _canonicalize_ties(balls, tris, edges):
        _orient_ccw(balls, tris)
        edges = _edge_map(tris)

    vx, vy, tau = _orthocenters(balls, tris)
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
    hull = _boundary_cycle(tris, edges, range(len(tris)))
    return RegularTriangulation(triangles, redundant, list(zip(hull, hull[1:] + hull[:1])))


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
