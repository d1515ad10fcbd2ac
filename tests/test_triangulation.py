"""Regular triangulation construction, oracle, and structural invariants."""

import itertools
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.spatial import ConvexHull, Delaunay

from radmesh import geom
from radmesh import triangulation as tmod
from radmesh.diagram import extract_diagram
from radmesh.dirichlet import evaluate_FI
from radmesh.errors import AllCollinear, FlipBudgetExhausted, TooFewBalls
from radmesh.geom import Ball
from radmesh.triangulation import (
    RegularTriangulation,
    _canonical,
    _illegal,
    _lower_hull_triangles,
    _twins,
    build_regular,
    lawson_flip,
    verify_hull,
    verify_regular,
)

from conftest import edge_set, orthocenter, philox, random_balls, tie_below_reference


def delaunay_edge_oracle(points):
    tri = Delaunay(np.asarray(points, dtype=float))
    edges = set()
    for s in tri.simplices:
        for k in range(3):
            edges.add(frozenset((int(s[k]), int(s[(k + 1) % 3]))))
    return edges


def test_three_balls_single_triangle():
    balls = [Ball((0.0, 0.0), 1.0), Ball((3.0, 0.0), 0.5), Ball((1.0, 2.0), 2.0)]
    t = build_regular(balls)
    assert len(t.tris) == 1
    assert not any(t.redundant)
    assert verify_regular(t, balls) == []


def test_too_few_and_collinear():
    with pytest.raises(TooFewBalls):
        build_regular([Ball((0.0, 0.0), 1.0), Ball((1.0, 0.0), 1.0)])
    with pytest.raises(AllCollinear):
        build_regular([Ball((float(i), 0.0), 1.0) for i in range(5)])


def test_center_ball_redundant():
    """Unit-square corners hide a weak center ball.

    Lifted heights are (-0.5, 0, 0, 0.5) at the corners and +0.05 at the
    center, which is above the lower-hull plane z = 0.5x + 0.5y - 0.5.
    """
    balls = [
        Ball((0.0, 0.0), 1.0),
        Ball((1.0, 0.0), 1.0),
        Ball((0.0, 1.0), 1.0),
        Ball((1.0, 1.0), 1.0),
        Ball((0.5, 0.5), math.sqrt(0.4)),
    ]
    t = build_regular(balls)
    assert len(t.tris) == 2
    assert t.redundant.tolist() == [False, False, False, False, True]
    assert verify_regular(t, balls) == []


def test_equal_radii_match_delaunay_oracle():
    rng = philox(20)
    pts = [
        (i + float(dx), j + float(dy))
        for i in range(5)
        for j in range(5)
        for dx, dy in [rng.uniform(-0.2, 0.2, 2)]
    ]
    balls = [Ball(p, 1.0) for p in pts]
    t = build_regular(balls)
    assert edge_set(t) == delaunay_edge_oracle(pts)


def test_verify_regular_on_random_scenes():
    rng = philox(100)
    for _ in range(100):
        balls = random_balls(rng, int(rng.integers(4, 41)))
        t = build_regular(balls)
        assert verify_regular(t, balls) == []


def test_verify_regular_detects_flipped_diagonal():
    # non-cocircular quad: flipping the correct diagonal yields exactly two
    # violating (triangle, ball) pairs
    balls = [
        Ball((0.0, 0.0), 1.0),
        Ball((3.0, 0.0), 1.0),
        Ball((2.5, 2.0), 1.0),
        Ball((0.0, 1.5), 1.0),
    ]
    t = build_regular(balls)
    assert verify_regular(t, balls) == []
    good = {tuple(sorted(tr)) for tr in t.tris.tolist()}
    if good == {(0, 1, 2), (0, 2, 3)}:
        flipped = [(0, 1, 3), (1, 2, 3)]
    else:
        flipped = [(0, 1, 2), (0, 2, 3)]
    import copy

    bad = copy.deepcopy(t)
    bad.tris = np.array(flipped)
    assert len(verify_regular(bad, balls)) == 2


def test_verify_regular_three_balls_empty():
    balls = [Ball((0.0, 0.0), 1.0), Ball((1.0, 0.0), 2.0), Ball((0.0, 1.0), 0.3)]
    assert verify_regular(build_regular(balls), balls) == []


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**6))
@example(8)
def test_triangles_ccw_and_orthocenter_consistency(seed):
    # build_regular's dual vertices come from geom.orthocenters, the kernel
    # geom.orthocenter runs too, so they agree bit for bit
    rng = philox(seed)
    balls = random_balls(rng, 25)
    t = build_regular(balls)
    for tr, o, s in zip(t.tris.tolist(), t.orthocenters.tolist(), t.tau.tolist()):
        c1, c2, c3 = (balls[i].center for i in tr)
        assert geom.orient2d(c1, c2, c3) == 1
        v, tau = orthocenter(*(balls[i] for i in tr))
        assert tuple(o) == v
        assert s == tau


def test_neighbor_adjacency_symmetric():
    # the twin table pairs the two half-edges of every interior edge, in
    # opposite directions, and marks exactly the hull edges (the edges of
    # one triangle) with -1
    cases = [random_balls(philox(9), 30)]
    cases += [balls for name, balls in filter_cases() if name not in _QHULL_START]
    for balls in cases:
        t = build_regular(balls)
        twin = t.twin.ravel().tolist()
        ends = [(tr[k - 2], tr[k - 1]) for tr in t.tris.tolist() for k in range(3)]
        owners = Counter(frozenset(e) for e in ends)
        assert set(owners.values()) == {1, 2}
        for h, g in enumerate(twin):
            assert (g < 0) == (owners[frozenset(ends[h])] == 1)
            if g >= 0:
                assert twin[g] == h
                assert ends[g] == ends[h][::-1]
    # overlapping triangles (an edge with two half-edges of one direction, or
    # with three) leave the edge unpaired rather than give twins a flip corrupts
    assert (_twins(np.array([[0, 1, 2], [0, 1, 3]])) == -1).all()
    assert (_twins(np.array([[0, 1, 2], [1, 0, 3], [0, 1, 4]])) == -1).all()


def test_euler_relation():
    rng = philox(10)
    for _ in range(10):
        balls = random_balls(rng, int(rng.integers(4, 41)))
        t = build_regular(balls)
        verts = set(t.tris.ravel().tolist())
        edges = edge_set(t)
        faces = len(t.tris) + 1  # outer face
        assert len(verts) - len(edges) + faces == 2


def test_area_additivity_covers_hull():
    rng = philox(11)
    balls = random_balls(rng, 30)
    t = build_regular(balls)
    tri_area = sum(
        geom.triangle_area(*(balls[i].center for i in tr))
        for tr in t.tris.tolist()
    )
    hull = ConvexHull(np.array([b.center for b in balls]))
    assert tri_area == pytest.approx(hull.volume, rel=1e-9)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_permutation_independence(seed):
    rng = philox(seed)
    balls = random_balls(rng, 15)
    t1 = build_regular(balls)
    perm = [int(p) for p in rng.permutation(len(balls))]
    t2 = build_regular([balls[p] for p in perm])
    # map edge indices of the permuted build back to the original labels
    back = {frozenset(perm[i] for i in e) for e in edge_set(t2)}
    assert edge_set(t1) == back


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
@example(29)
@example(345)
def test_translation_equivariance(seed):
    """Translating the balls translates the triangulation and its orthocenters.

    Translation rounds the inputs at ulp level, and the 2x2 orthocenter
    system of a triangle amplifies that by its conditioning: with centers
    and orthocenter within R of the origin, the error in v is about
    u R^2 / |det| (u the unit roundoff, det the system's determinant), and
    tau = |c - v|^2 - r^2 moves by 2 R times that.  Hull slivers (seeds 29
    and 345) have |det| near zero and orthocenters far out, so one absolute
    bound cannot fit every triangle; each gets its own.
    """
    rng = philox(seed)
    balls = random_balls(rng, 12)
    tx, ty = 5.0, -3.0
    moved = [Ball((b.center[0] + tx, b.center[1] + ty), b.radius) for b in balls]
    t1 = build_regular(balls)
    t2 = build_regular(moved)
    assert edge_set(t1) == edge_set(t2)
    by_idx = {tuple(sorted(tr)): f for f, tr in enumerate(t2.tris.tolist())}
    u = 2.0**-53
    for a, tr in enumerate(t1.tris.tolist()):
        b = by_idx[tuple(sorted(tr))]
        c1, c2, c3 = (balls[i].center for i in tr)
        det = (c2[0] - c1[0]) * (c3[1] - c1[1]) - (c2[1] - c1[1]) * (c3[0] - c1[0])
        oa, ob = t1.orthocenters[a].tolist(), t2.orthocenters[b].tolist()
        R = 20.0 + math.hypot(*oa)  # centers lie within 20 of the origin
        err_v = 64 * u * R * R / abs(det)
        assert ob[0] == pytest.approx(oa[0] + tx, abs=err_v)
        assert ob[1] == pytest.approx(oa[1] + ty, abs=err_v)
        assert t2.tau[b] == pytest.approx(t1.tau[a], abs=2 * R * err_v)


def test_exact_tie_canonical_fan():
    # four exactly cocircular equal balls: both diagonals are regular; the
    # canonical result fans from the lowest index, independent of input order
    pts = [(0.0, 0.0), (2.0, 0.0), (2.0, 2.0), (0.0, 2.0)]
    balls = [Ball(p, 1.0) for p in pts]
    t = build_regular(balls)
    tris = sorted(tuple(sorted(tr)) for tr in t.tris.tolist())
    assert tris == [(0, 1, 2), (0, 2, 3)]


def legalize(rows, tris, twin, queue):
    """``build_regular``'s exact Lawson pass on the lists ``tris`` and ``twin``, from ``queue``."""

    def left_turn(p, u, q):
        return geom.orient2d(rows[p], rows[u], rows[q]) > 0

    return lawson_flip(tris, twin, _illegal(rows), left_turn, queue)


def test_legalize_breaks_ties_by_lowest_index():
    # the tied square of test_exact_tie_canonical_fan, started from each
    # diagonal in each triangle order: the lowest index 0 is off the edge
    # 1-3 (flip) and on the edge 0-2 (keep), so every start ends at 0-2
    pts = [(0.0, 0.0), (2.0, 0.0), (2.0, 2.0), (0.0, 2.0)]
    balls = [Ball(p, 1.0) for p in pts]
    for start in (
        [[0, 1, 2], [0, 2, 3]],
        [[0, 2, 3], [0, 1, 2]],
        [[0, 1, 3], [1, 2, 3]],
        [[1, 2, 3], [0, 1, 3]],
    ):
        tris = [list(t) for t in start]
        twin = _twins(np.array(start)).ravel().tolist()
        legalize(geom.ball_arrays(balls).x.tolist(), tris, twin, range(6))
        interior = [{tris[h // 3][h % 3 - 2], tris[h // 3][h % 3 - 1]} for h in range(6)]
        assert [e for e, g in zip(interior, twin) if g >= 0] == [{0, 2}, {0, 2}]
        assert sorted(tuple(sorted(t)) for t in tris) == [(0, 1, 2), (0, 2, 3)]


@settings(max_examples=60, deadline=None)
@given(
    st.integers(2, 5),
    st.integers(2, 5),
    st.sampled_from(["equal", "zero", "mixed"]),
    st.integers(0, 10**6),
)
def test_lattice_ties_fan_from_lowest_index(nx, ny, radii, seed):
    # integer lattices tie every unit square (and, with mixed radii, other
    # coplanar lifted groups); each strictly convex tied quad must keep the
    # diagonal through its lowest index, whatever the ball order
    rng = philox(seed)
    pts = [(float(i), float(j)) for i in range(nx) for j in range(ny)]
    if radii == "equal":
        rs = [1.0] * len(pts)
    elif radii == "zero":
        rs = [0.0] * len(pts)
    else:
        rs = [float(r) for r in rng.choice([0.0, 0.5, 1.0], len(pts))]
    perm = rng.permutation(len(pts))
    balls = [Ball(pts[k], rs[k]) for k in perm]
    t = build_regular(balls)
    assert verify_regular(t, balls) == []
    ctr = [b.center for b in balls]
    rows = geom.ball_arrays(balls).x.tolist()
    tris = t.tris.tolist()
    for tr, twins in zip(tris, t.twin.tolist()):
        for k, h in enumerate(twins):
            if h < 0:
                continue
            nb = h // 3
            p = tr[k]
            u, v = tr[k - 2], tr[k - 1]
            (q,) = set(tris[nb]) - {u, v}
            convex = geom.orient2d(ctr[p], ctr[q], ctr[u]) * geom.orient2d(
                ctr[p], ctr[q], ctr[v]
            ) < 0
            tied = geom.power_test(*(rows[i] for i in tr), rows[q]) == 0
            if convex and tied:
                assert min(p, q, u, v) in (u, v)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(2, 5),
    st.integers(2, 5),
    st.sampled_from(["equal", "mixed", "random"]),
    st.integers(0, 10**6),
)
# ball 0, at (0, 3) with radius 0, lies exactly on the lifted hull side
# between its neighbours of radius 1; qhull drops it, and it goes in
@example(3, 5, "mixed", 103)
def test_legalize_in_any_order_gives_build_regular(nx, ny, radii, seed):
    # simulation of simplicity makes the regular triangulation of a ball set
    # unique, so legalizing the qhull start from a shuffled queue of every
    # interior half-edge ends at build_regular's triangle set for the balls
    # qhull keeps, on lattices whose exact ties make the flip order matter
    # most.  build_regular also inserts the balls qhull drops at an exact tie
    # that simulation of simplicity keeps, and only those
    rng = philox(seed)
    pts = [(float(i), float(j)) for i in range(nx) for j in range(ny)]
    if radii == "equal":
        rs = [1.0] * len(pts)
    elif radii == "mixed":
        rs = [float(r) for r in rng.choice([0.0, 0.5, 1.0], len(pts))]
    else:
        rs = [float(r) for r in rng.uniform(0.0, 1.0, len(pts))]
    balls = [Ball(pts[k], rs[k]) for k in rng.permutation(len(pts))]
    coords = geom.ball_arrays(balls).x
    start = _lower_hull_triangles(coords, np.arange(len(balls)))
    twin = _twins(start).ravel()
    queue = rng.permutation(np.flatnonzero(twin >= 0)).tolist()
    tris, twin = start.tolist(), twin.tolist()
    legalize(coords.tolist(), tris, twin, queue)
    # the flips kept the twins, which a fresh pairing reproduces
    assert twin == _twins(np.array(tris)).ravel().tolist()
    kept = set(start.ravel().tolist())
    subset = [b if k in kept else Ball(b.center, b.radius, alive=False) for k, b in enumerate(balls)]
    expected = sorted(tuple(sorted(tr)) for tr in build_regular(subset).tris.tolist())
    assert sorted(tuple(sorted(tr)) for tr in tris) == expected
    added = np.setdiff1d(build_regular(balls).tris, start)
    where, sign, _ = tmod._above(coords, np.array(tris), added, np.full(len(added), -1))
    assert (where >= 0).all() and (sign == 0).all()


def tie_lattice(rng, nx, ny, radii, dups):
    """An integer lattice of balls with ``dups`` duplicate centers, in random order.

    Radii are all 1 (``equal``), all 0 (``zero``) or drawn from 0, 1 and 2
    (``mixed``); a duplicate keeps its center's radius, or under ``mixed``
    draws its own.
    """
    pts = [(float(i), float(j)) for i in range(nx) for j in range(ny)]
    pick = {"equal": [1.0], "zero": [0.0], "mixed": [0.0, 1.0, 2.0]}[radii]
    balls = [Ball(p, float(rng.choice(pick))) for p in pts]
    for k in rng.integers(0, len(pts), dups).tolist():
        r = float(rng.choice(pick)) if rng.random() < 0.5 else balls[k].radius
        balls.append(Ball(pts[k], r))
    return [balls[k] for k in rng.permutation(len(balls))]


def tied_pairs(rng, balls):
    """Every (strictly CCW triangle, other ball) of ``balls`` at an exact power tie.

    Returns the ball rows, the triangles (each row turned to a random
    corner), the balls and the signs of the corners' weights at each ball's
    center.
    """
    coords = geom.ball_arrays(balls).x
    abc = np.array(list(itertools.combinations(range(len(balls)), 3)))
    sign = geom.orient_signs(coords, *abc.T)
    abc = abc[sign != 0]
    cw = sign[sign != 0] < 0
    abc[cw] = abc[cw][:, [0, 2, 1]]
    abc = np.take_along_axis(abc, (rng.integers(0, 3, len(abc))[:, None] + np.arange(3)) % 3, axis=1)
    on = geom.power_signs(coords, *(abc[:, k, None] for k in range(3)), np.arange(len(balls))) == 0
    t, q = np.nonzero(on & (abc[:, :, None] != np.arange(len(balls))).all(axis=1))
    return coords, abc[t], q, tmod._weights(coords, abc[t], q)


@settings(max_examples=50, deadline=None)
@given(
    st.integers(2, 4),
    st.integers(2, 4),
    st.sampled_from(["equal", "zero", "mixed"]),
    st.integers(0, 4),
    st.integers(0, 10**6),
)
def test_tie_rule_matches_scalar_reference(nx, ny, radii, dups, seed):
    # the one tie rule, batched in _tie_below and called by _illegal one
    # quad at a time, against the scalar reference, on every tied pair of
    # the lattice: a ball across an edge, as in the Lawson pass, or
    # inside a triangle, on an edge or at a corner, as a hidden ball is
    rng = philox(seed)
    coords, abc, q, w = tied_pairs(rng, tie_lattice(rng, nx, ny, radii, dups))
    rows = coords.tolist()
    expected = [tie_below_reference(rows, *t, b) for t, b in zip(abc.tolist(), q.tolist())]
    assert tmod._tie_below(abc, q, w).tolist() == expected
    illegal = _illegal(rows)
    assert [illegal(*t, b) for t, b in zip(abc.tolist(), q.tolist())] == expected


def test_tie_rule_cases_cover_every_kind():
    # the lattices of test_tie_rule_matches_scalar_reference reach every
    # kind of tied pair, and the rule puts balls both below and above
    rng = philox(2)
    coords, abc, q, w = tied_pairs(rng, tie_lattice(rng, 4, 4, "mixed", 4))
    below = tmod._tie_below(abc, q, w)
    # where each center lies against its triangle, from its weights' signs
    inner = np.array(["inside", "on an edge", "at a corner"])[(w == 0).sum(axis=1)]
    kinds = np.where((w < 0).any(axis=1), "across an edge", inner)
    for kind in ("across an edge", "inside", "on an edge", "at a corner"):
        assert below[kinds == kind].any() and not below[kinds == kind].all(), kind


def test_flip_budget_exhaustion_raises():
    # a predicate that calls every edge illegal flips the diagonal of a
    # convex quad back and forth; the loop must raise, not stop quietly
    pts = [(0.0, 0.0), (2.0, 0.0), (2.0, 1.0), (0.0, 1.0)]
    tris = [[0, 1, 2], [0, 2, 3]]

    def left_turn(p, u, q):
        return geom.orient2d(pts[p], pts[u], pts[q]) > 0

    twin = _twins(np.array(tris)).ravel().tolist()
    with pytest.raises(FlipBudgetExhausted):
        lawson_flip(tris, twin, lambda a, b, c, q: True, left_turn, range(6))


def filter_cases():
    """Ball sets on which float filters are hardest: ties, ulps, offsets, duplicates."""
    lattice = [(float(i), float(j)) for i in range(5) for j in range(5)]
    rng = philox(77)
    nudged = [
        (x if rng.random() < 0.5 else float(np.nextafter(x, np.inf)), y) for x, y in lattice
    ]
    # the twelve integer points of the circle x^2 + y^2 = 25: an exactly
    # cocircular polygon, alone and as a fan around its center
    ring = sorted(
        {(float(sx * a), float(sy * b)) for a, b in ((0, 5), (3, 4), (4, 3), (5, 0))
         for sx in (1, -1) for sy in (1, -1)}
    )
    cases = {
        "lattice": [Ball(p, 1.0) for p in lattice],
        "lattice_ulp": [Ball(p, 1.0) for p in nudged],
        "lattice_offset_1e8": [Ball((x + 1e8, y - 1e8), 1.0) for x, y in nudged],
        "lattice_zero_radii": [Ball(p, 0.0) for p in nudged],
        "ring": [Ball(p, 1.0) for p in ring],
        "ring_fan": [Ball(p, 1.0) for p in ring] + [Ball((0.0, 0.0), 1.0)],
        "ring_offset_1e8": [Ball((x + 1e8, y + 1e8), 0.0) for x, y in ring + [(0.0, 0.0)]],
        "duplicates": [Ball(p, 1.0) for p in lattice]
        + [Ball(lattice[7], 1.0), Ball(lattice[12], 0.5), Ball(lattice[12], 1.5)],
        # a shuffled 6 x 4 lattice, x nudged by 1 ulp at six points; the
        # one at (0, 2) moves 2.2e-16 inward, denting the hull side x = 0
        "lattice_ulp_hull_side": [
            Ball((x, y), r) for x, y, r in [
                (1.0, 0.0, 0.5), (1.0000000000000002, 3.0, 0.5), (3.0, 0.0, 1.0),
                (2.0, 3.0, 0.5), (0.0, 1.0, 0.5), (3.0, 3.0, 0.0), (4.0, 0.0, 0.0),
                (4.0, 2.0, 0.0), (4.0, 3.0, 1.0), (2.0, 2.0, 1.0), (3.0, 1.0, 1.0),
                (0.0, 0.0, 0.5), (1.0000000000000002, 1.0, 0.0), (2.0000000000000004, 1.0, 1.0),
                (2.0, 0.0, 0.5), (4.000000000000001, 1.0, 0.5), (5.0, 1.0, 1.0),
                (0.0, 3.0, 0.5), (2.220446049250313e-16, 2.0, 0.5), (3.0, 2.0, 0.5),
                (5.0, 3.0, 0.5), (5.000000000000001, 2.0, 0.5), (5.0, 0.0, 0.0), (1.0, 2.0, 1.0),
            ]
        ],
    }
    return list(cases.items())


@pytest.mark.parametrize("name,balls", filter_cases(), ids=[n for n, _ in filter_cases()])
def test_batched_filters_agree_with_exact_predicates(name, balls):
    # every sign the float filters decide on the gathered rows is the exact
    # predicate's, and the batched kernels give the exact sign everywhere, on
    # the qhull triangles before the Lawson pass and on the final ones
    coords, _, alive = geom.ball_arrays(balls)
    rows = coords.tolist()
    final = build_regular(balls).tris
    decided = 0
    for tris in (_lower_hull_triangles(coords, np.flatnonzero(alive)), final):
        # both orientations of every triangle, plus collinear triples
        triples = np.concatenate([tris, tris[:, [0, 2, 1]], [[0, 1, 2], [0, 5, 10]]])
        exact = [geom.orient2d(*(balls[i].center for i in tri)) for tri in triples.tolist()]
        det, errbound = geom.orient2d_filter(*(coords[i, :2].T for i in triples.T))
        for d, e, s in zip(det.tolist(), errbound.tolist(), exact):
            if abs(d) > e:
                assert s == (1 if d > 0 else -1)
        assert geom.orient_signs(coords, *triples.T).tolist() == exact
        twin = _twins(tris).ravel()
        first = np.flatnonzero(twin > np.arange(twin.size))
        abc, q = tris[first // 3], tris.ravel()[twin[first]]
        exact = [geom.power_test(*(rows[i] for i in t), rows[j]) for t, j in zip(abc.tolist(), q.tolist())]
        det, errbound = geom.power_test_filter(*(coords[i].T for i in (*abc.T, q)))
        for d, e, s in zip(det.tolist(), errbound.tolist(), exact):
            if abs(d) > e:
                decided += 1
                # det > 0: q lifted below the face plane of the CCW triangle
                assert s == (-1 if d > 0 else 1)
        assert geom.power_signs(coords, *abc.T, q).tolist() == exact
    if name not in ("ring", "lattice_offset_1e8", "ring_offset_1e8"):
        # ties, and rounding at 1e8, leave every edge there to the exact path
        assert decided > 0


# A known defect of the qhull start that the certificate refuses and the mend
# cannot reach: along a hull side dented by 1 ulp qhull leaves overlapping
# slivers, whose hull is not one cycle.  The table is then returned after the
# Lawson pass, and is not regular.  (Far from the origin, where qhull drops
# vertices, the mend inserts them again.)
_QHULL_START = {
    "lattice_ulp_hull_side": "qhull leaves overlapping slivers along the dented hull side",
}


@pytest.mark.parametrize(
    "name,balls",
    [
        pytest.param(n, b, marks=[pytest.mark.xfail(strict=True, reason=_QHULL_START[n])])
        if n in _QHULL_START
        else (n, b)
        for n, b in filter_cases()
    ],
    ids=[n for n, _ in filter_cases()],
)
def test_filter_cases_are_regular(name, balls):
    assert verify_regular(build_regular(balls), balls) == []


# Hull sides dented by an ulp: qhull drops the near-vertical lifted facets
# there, which leaves the region short of the convex hull.  The missing
# triangles are slivers, down to an area of 1e-323, whose dual vertices
# overflow a double.
_HULL_DENT = {
    "lattice_ulp": "qhull leaves the slivers against the hull side x = 0 out",
    "lattice_zero_radii": "qhull leaves the slivers against the hull sides x = 0 and x = 4 out",
    "lattice_ulp_hull_side": _QHULL_START["lattice_ulp_hull_side"],
}


@pytest.mark.parametrize(
    "name,balls",
    [
        pytest.param(n, b, marks=[pytest.mark.xfail(strict=True, reason=_HULL_DENT[n])])
        if n in _HULL_DENT
        else (n, b)
        for n, b in filter_cases()
    ],
    ids=[n for n, _ in filter_cases()],
)
def test_filter_cases_cover_the_hull(name, balls):
    assert verify_hull(build_regular(balls), balls) == []


@pytest.mark.parametrize("name,balls", filter_cases(), ids=[n for n, _ in filter_cases()])
def test_filter_cases_are_certified(name, balls):
    # qhull's table passes the certificate, mended where it dropped a ball
    # (at offset 1e8); only the dented hulls fail it and come back uncertified
    t = build_regular(balls)
    assert t.redundant.dtype == bool and t.redundant.shape == (len(balls),)
    assert (t.legal_at is None) == (name in _HULL_DENT)
    if name == "duplicates":
        # ball 25 ties ball 7 (same center, same radius) and the lower index
        # stays; ball 27 lies below ball 12 at its center, and ball 26 above
        assert [i for i, r in enumerate(t.redundant) if r] == [12, 25, 26]


def test_verify_hull_detects_missing_triangle():
    # the square of test_exact_tie_canonical_fan without one of its two
    # triangles: ball 3 lies right of the diagonal, now a hull half-edge
    balls = [Ball(p, 1.0) for p in [(0.0, 0.0), (2.0, 0.0), (2.0, 2.0), (0.0, 2.0)]]
    t = build_regular(balls)
    assert verify_hull(t, balls) == []
    half = np.array([[0, 1, 2]])
    t = RegularTriangulation(half, t.orthocenters[:1], t.tau[:1], _twins(half), [False] * 3 + [True])
    assert verify_hull(t, balls) == [(0, 3)]


def assert_same_table(a, b):
    """Two triangulations are equal array for array, bit for bit.

    ``warm`` and ``hidden_in`` say how a table was made, not what it is.
    """
    for name in ("tris", "twin", "orthocenters", "tau"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes(), name
    assert a.redundant.dtype == b.redundant.dtype == bool and np.array_equal(a.redundant, b.redundant)
    assert (a.legal_at is None) == (b.legal_at is None)
    if a.legal_at is not None:
        assert a.legal_at.tobytes() == b.legal_at.tobytes()


def assert_same_diagram(a, b):
    """Two power diagrams are equal array for array, bit for bit."""
    for name in ("vertices", "tau", "vertex_of", "offsets", "cell_vertices", "bounded", "free", "rays"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes(), name


def test_canonical_order_ignores_row_order_and_rotation():
    rng = philox(14)
    t = build_regular(random_balls(rng, 30))
    perm = rng.permutation(len(t.tris))
    turn = rng.integers(0, 3, len(t.tris))
    # row f of the shuffled table is row perm[f] rotated left by turn[f]
    cols = (turn[:, None] + np.arange(3)) % 3
    tris = np.take_along_axis(t.tris[perm], cols, axis=1)
    where = np.empty(len(perm), dtype=int)
    where[perm] = np.arange(len(perm))

    # the half-edge facing corner k of row g sits at column (k - turn) mod 3
    def renumber(h):
        g, k = np.divmod(h, 3)
        f = where[g]
        return np.where(h >= 0, 3 * f + (k - turn[f]) % 3, -1)

    twin = np.empty_like(t.twin)
    twin[where[:, None], (np.arange(3) - turn[where][:, None]) % 3] = renumber(t.twin)
    assert (twin.ravel() == _twins(tris).ravel()).all()  # the shuffle is consistent
    back = _canonical(tris, twin)
    assert back[0].tobytes() == t.tris.tobytes() and back[1].tobytes() == t.twin.tobytes()


def _step(rng, balls, t, kind):
    """One move of a ball set between two warm-started builds."""
    balls = list(balls)
    n = len(balls)
    if kind == "jiggle":  # every ball moves and resizes a little
        return [
            Ball((b.center[0] + float(dx), b.center[1] + float(dy)), b.radius * float(s))
            for b, (dx, dy), s in zip(balls, rng.uniform(-0.05, 0.05, (n, 2)), rng.uniform(0.95, 1.05, n))
        ]
    h = np.flatnonzero(t.twin.ravel() < 0)
    hull = np.unique(t.tris[h // 3, (h + 1) % 3])  # the first ball of each hull half-edge
    used = np.unique(t.tris)
    hidden = np.flatnonzero(t.redundant)
    if kind == "hull_fixed":  # the hull centers stay; the others move a little, every radius changes
        d, s = rng.uniform(-0.01, 0.01, (n, 2)), rng.uniform(0.95, 1.05, n)
        d[hull] = 0.0
        return [
            Ball((b.center[0] + float(dx), b.center[1] + float(dy)), b.radius * float(r))
            for b, (dx, dy), r in zip(balls, d, s)
        ]
    if kind == "hide":  # an inner vertex loses its weight, its neighbours swallow its center
        inner = np.setdiff1d(used, hull)
        if len(inner):
            i = int(rng.choice(inner))
            x, y = balls[i].center
            for j in np.setdiff1d(t.tris[(t.tris == i).any(axis=1)], [i]).tolist():
                (u, v), r = balls[j].center, balls[j].radius
                balls[j] = Ball((u, v), 1.2 * max(r, math.hypot(u - x, v - y)))
            balls[i] = Ball((x, y), 0.0)
    elif kind == "revive":  # a hidden ball outweighs its neighbours
        if len(hidden):
            i = int(rng.choice(hidden))
            balls[i] = Ball(balls[i].center, 2.0 + max(b.radius for b in balls))
    elif kind == "invert":  # a corner jumps across the opposite side of its triangle
        i, j, k = t.tris[int(rng.integers(len(t.tris)))].tolist()
        a, b, c = balls[i].center, balls[j].center, balls[k].center
        ex, ey = c[0] - b[0], c[1] - b[1]
        s = ((a[0] - b[0]) * ex + (a[1] - b[1]) * ey) / (ex * ex + ey * ey)
        foot = (b[0] + s * ex, b[1] + s * ey)
        balls[i] = Ball((2.2 * foot[0] - 1.2 * a[0], 2.2 * foot[1] - 1.2 * a[1]), balls[i].radius)
    elif kind == "dent":  # a hull vertex moves just inside the chord joining its hull neighbours
        u, v = t.tris[h // 3, (h + 1) % 3].tolist(), t.tris[h // 3, (h + 2) % 3].tolist()
        i = int(rng.choice(hull))
        (px, py), (qx, qy) = balls[u[v.index(i)]].center, balls[v[u.index(i)]].center
        x, y = balls[i].center
        ex, ey = qx - px, qy - py
        s = ((x - px) * ex + (y - py) * ey) / (ex * ex + ey * ey)
        fx, fy = px + s * ex, py + s * ey  # the foot on the chord
        balls[i] = Ball((fx + 0.01 * (fx - x), fy + 0.01 * (fy - y)), balls[i].radius)
    elif kind in ("inward", "middle"):  # a hull vertex moves toward the middle, or onto it
        i = int(rng.choice(hull))
        mx, my = np.mean([b.center for b in balls], axis=0).tolist()
        x, y = balls[i].center
        w = 0.3 if kind == "inward" else 1.0
        balls[i] = Ball(((1 - w) * x + w * mx, (1 - w) * y + w * my), balls[i].radius)
    return balls


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 10**6),
    st.integers(6, 20),
    st.lists(
        st.sampled_from(["jiggle", "hide", "revive", "invert", "inward", "middle"]),
        min_size=1,
        max_size=6,
    ),
)
def test_warm_start_equals_fresh_build(seed, n, kinds):
    # each build starts from the previous one; accepted or refused, it is
    # the fresh build bit for bit, and regular.  A Ball list and its
    # ball_arrays are one ball set to build_regular, extract_diagram and
    # evaluate_FI: their results are equal array for array
    rng = philox(seed)
    balls = random_balls(rng, n)
    t = build_regular(balls)
    for kind in kinds:
        balls = _step(rng, balls, t, kind)
        warm = build_regular(balls, start=t)
        assert_same_table(warm, build_regular(balls))
        assert verify_regular(warm, balls) == []
        assert verify_hull(warm, balls) == []
        flagged = [
            Ball(b.center, b.radius, fix_center=k % 3 == 0, fix_radius=k % 4 == 0)
            for k, b in enumerate(balls)
        ]
        arrays = geom.ball_arrays(flagged)
        assert_same_table(build_regular(arrays, start=t), warm)
        d, d_arrays = extract_diagram(warm, flagged), extract_diagram(warm, arrays)
        assert_same_diagram(d, d_arrays)
        assert evaluate_FI(flagged, d) == evaluate_FI(arrays, d_arrays)
        t = warm


@settings(max_examples=40, deadline=None)
@given(st.integers(3, 6), st.integers(0, 10**6))
# a tie the lowest index of the quad cannot settle, as its barycentric
# weight is zero: the next index decides
@example(3, 362881)
def test_mend_follows_radius_changes_on_tied_lattices(n, seed):
    # balls on an n x n lattice, several at one center, with radii from a
    # set of four, so exact ties of every kind abound: centers on the lifted
    # planes and hull sides, and duplicates that replace one another.  Each
    # build starts from the previous table after some radii change; every
    # table is certified, equals the fresh build and passes both oracles
    rng = philox(seed)
    pts = [(float(i), float(j)) for i in range(n) for j in range(n)]
    radii = [0.0, 0.5, 1.0, 1.5]
    balls = [Ball(pts[i], float(rng.choice(radii))) for i in rng.integers(0, len(pts), len(pts) + 4)]
    assume(len({b.center for b in balls}) >= 3)
    try:
        t = build_regular(balls)
    except AllCollinear:
        assume(False)
    for _ in range(4):
        balls = [Ball(b.center, float(rng.choice(radii)) if rng.random() < 0.3 else b.radius) for b in balls]
        warm = build_regular(balls, start=t)
        assert warm.warm and warm.legal_at is not None
        assert_same_table(warm, build_regular(balls))
        assert verify_regular(warm, balls) == []
        assert verify_hull(warm, balls) == []
        t = warm


def test_hand_built_start_is_certified_without_guesses():
    # a table assembled by hand carries no hidden_in, so its hidden center
    # goes to the bounding-box search, and its redundant flags may be a
    # list; from either diagonal of the tied square the start is certified,
    # and flipped where it must be
    corners = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
    balls = [Ball(p, 1.0) for p in corners] + [Ball((0.5, 0.5), 0.1)]
    fresh = build_regular(balls)
    assert fresh.redundant.tolist() == [False] * 4 + [True]
    coords = geom.ball_arrays(balls).x
    for diagonal in ([[0, 1, 2], [0, 2, 3]], [[0, 1, 3], [1, 2, 3]]):
        tris = np.array(diagonal)
        vx, vy, tau = geom.orthocenters(coords[:, :2], coords[:, 2], tris)
        start = RegularTriangulation(tris, np.column_stack([vx, vy]), tau, _twins(tris), fresh.redundant.tolist())
        out = build_regular(balls, start=start)
        assert out.warm
        assert_same_table(out, fresh)


def test_warm_start_refuses_what_two_two_flips_cannot_mend(monkeypatch):
    # moves that flips, insertions and removals can follow are mended: a
    # ball coming back goes in by a 1-3 split, one turning redundant leaves
    # by a 4-2 flip (it lies on the square's diagonal), one at an exact tie
    # stays hidden.  An inverted triangle, a dented hull, a hidden center
    # leaving the hull or a new alive set are refused, and the table is
    # built from qhull
    corners = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)]

    def square(r):  # the corners of test_center_ball_redundant around a center ball
        return [Ball(p, 1.0) for p in corners] + [Ball((0.5, 0.5), r)]

    hidden, shown = square(math.sqrt(0.4)), square(1.0)
    # a ball hidden in the square of side 2 whose corners lift onto the plane
    # z = 2x + 2y - 4: at (1, 0.5) the plane is at -1 and the ball at
    # 1.25 - R^2, so R = 1.5 lies on it exactly (the float filter cannot
    # decide the tie, so geom.power_test does, and simulation of simplicity
    # keeps ball 4, the highest index, hidden); moved to (1, -0.5), its
    # center is in no triangle
    big = [Ball((2.0 * x, 2.0 * y), 2.0) for x, y in corners]
    low = big + [Ball((1.0, 0.5), 1.0)]
    tie, out_of_hull = big + [Ball((1.0, 0.5), 1.5)], big + [Ball((1.0, -0.5), 1.0)]
    rng = philox(15)
    balls = random_balls(rng, 25)
    t = build_regular(balls)
    jiggled = _step(rng, balls, t, "jiggle")
    dead = list(balls)
    dead[3] = Ball(balls[3].center, balls[3].radius, alive=False)
    # after the start, whether it is mended (warm), then the hull proofs
    # (part 2 of the certificate), the balls inserted and the balls removed.
    # Every certified table carries legal_at, qhull's too, so a start whose
    # hull balls kept their centers is not proved again; a refused start
    # costs the proof of the qhull table built instead, after its own where
    # it reaches part 2
    cases = [
        (balls, t, jiggled, True, 1, 0, 0),
        (hidden, build_regular(hidden), shown, True, 0, 1, 0),  # comes back
        (shown, build_regular(shown), hidden, True, 0, 0, 1),  # turns redundant
        (balls, t, _step(philox(16), balls, t, "invert"), False, 1, 0, 0),
        (balls, t, _step(philox(17), balls, t, "middle"), False, 1, 0, 0),
        (balls, t, dead, False, 1, 0, 0),
        (low, build_regular(low), tie, True, 0, 0, 0),  # on the lifted plane
        (low, build_regular(low), out_of_hull, False, 1, 0, 0),  # leaves the hull
    ]
    # starts that are warm tables themselves: the certificate is carried
    # while the hull balls stay at their legal_at rows, and a moved hull ball
    # is checked again
    settled = _step(philox(18), balls, t, "hull_fixed")
    carried = build_regular(settled, start=t)
    assert carried.warm and carried.legal_at is not None
    cases += [
        (settled, carried, _step(philox(19), settled, carried, "hull_fixed"), True, 0, 0, 0),
        (settled, carried, _step(philox(20), settled, carried, "inward"), False, 1, 0, 0),
        (settled, carried, _step(philox(17), settled, carried, "middle"), False, 1, 0, 0),
        # every triangle stays CCW and only the hull certificate sees the dent
        (settled, carried, _step(philox(21), settled, carried, "dent"), False, 2, 0, 0),
    ]
    proofs, inserted, removed = [], [], []
    hull_cycle, insert, remove = tmod._hull_cycle, tmod._insert, tmod._remove

    def spy_insert(*args):
        out = insert(*args)
        inserted.append(int(out[1].sum()))
        return out

    def spy_remove(*args):
        out = remove(*args)
        removed.append(out is not None)
        return out

    monkeypatch.setattr(tmod, "_hull_cycle", lambda *a: proofs.append(1) or hull_cycle(*a))
    monkeypatch.setattr(tmod, "_insert", spy_insert)
    monkeypatch.setattr(tmod, "_remove", spy_remove)
    for before, start, after, warm, proved, ins, rem in cases:
        assert start.warm is (start is carried)
        assert start.legal_at is not None
        proofs.clear(), inserted.clear(), removed.clear()
        out = build_regular(after, start=start)
        assert out.warm is warm
        assert (len(proofs), sum(inserted), sum(removed)) == (proved, ins, rem)
        assert_same_table(out, build_regular(after))
        assert verify_regular(out, after) == []
        assert verify_hull(out, after) == []


def test_empty_start_is_refused():
    # a start with no triangles, every alive ball marked redundant, has no
    # hull cycle: it is refused and the table built from qhull
    balls = [Ball(p, 1.0) for p in [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]]
    none = np.zeros((0, 3), dtype=int)
    start = RegularTriangulation(none, np.zeros((0, 2)), np.zeros(0), none, [True] * 3)
    out = build_regular(balls, start=start)
    assert not out.warm and out.legal_at is not None
    assert_same_table(out, build_regular(balls))
