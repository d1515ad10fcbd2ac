"""Regular triangulation construction, oracle, and structural invariants."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.spatial import Delaunay

from radmesh import geom
from radmesh.errors import AllCollinear, FlipBudgetExhausted, TooFewBalls
from radmesh.geom import Ball
from radmesh.triangulation import build_regular, lawson_flip, verify_regular

from conftest import philox, random_balls


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
    assert len(t.triangles) == 1
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
    assert len(t.triangles) == 2
    assert t.redundant == [False, False, False, False, True]
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
    assert t.edge_set() == delaunay_edge_oracle(pts)


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
    good = {tuple(sorted(tr.ball_indices)) for tr in t.triangles}
    if good == {(0, 1, 2), (0, 2, 3)}:
        flipped = [(0, 1, 3), (1, 2, 3)]
    else:
        flipped = [(0, 1, 2), (0, 2, 3)]
    import copy

    bad = copy.deepcopy(t)
    for tr, idx in zip(bad.triangles, flipped):
        tr.ball_indices = idx
    assert len(verify_regular(bad, balls)) == 2


def test_verify_regular_three_balls_empty():
    balls = [Ball((0.0, 0.0), 1.0), Ball((1.0, 0.0), 2.0), Ball((0.0, 1.0), 0.3)]
    assert verify_regular(build_regular(balls), balls) == []


def test_triangles_ccw_and_orthocenter_consistency():
    rng = philox(8)
    balls = random_balls(rng, 25)
    t = build_regular(balls)
    for tr in t.triangles:
        c1, c2, c3 = (balls[i].center for i in tr.ball_indices)
        assert geom.orient2d(c1, c2, c3) == 1
        v, tau = geom.orthocenter(*(balls[i] for i in tr.ball_indices))
        assert tr.orthocenter == pytest.approx(v, abs=1e-9)
        assert tr.tau == pytest.approx(tau, abs=1e-9)


def test_neighbor_adjacency_symmetric():
    rng = philox(9)
    balls = random_balls(rng, 30)
    t = build_regular(balls)
    for ti, tr in enumerate(t.triangles):
        for nb in tr.neighbors:
            if nb is not None:
                assert ti in t.triangles[nb].neighbors


def test_euler_relation():
    rng = philox(10)
    for _ in range(10):
        balls = random_balls(rng, int(rng.integers(4, 41)))
        t = build_regular(balls)
        verts = {i for tr in t.triangles for i in tr.ball_indices}
        edges = t.edge_set()
        faces = len(t.triangles) + 1  # outer face
        assert len(verts) - len(edges) + faces == 2


def test_area_additivity_covers_hull():
    rng = philox(11)
    balls = random_balls(rng, 30)
    t = build_regular(balls)
    tri_area = sum(
        geom.triangle_area(*(balls[i].center for i in tr.ball_indices))
        for tr in t.triangles
    )
    hull_pts = [balls[a].center for a, _ in t.hull]
    assert tri_area == pytest.approx(geom.polygon_area(hull_pts), rel=1e-9)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_permutation_independence(seed):
    rng = philox(seed)
    balls = random_balls(rng, 15)
    t1 = build_regular(balls)
    perm = [int(p) for p in rng.permutation(len(balls))]
    t2 = build_regular([balls[p] for p in perm])
    # map edge indices of the permuted build back to the original labels
    back = {frozenset(perm[i] for i in e) for e in t2.edge_set()}
    assert t1.edge_set() == back


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
    assert t1.edge_set() == t2.edge_set()
    by_idx = {tuple(sorted(tr.ball_indices)): tr for tr in t2.triangles}
    u = 2.0**-53
    for a in t1.triangles:
        b = by_idx[tuple(sorted(a.ball_indices))]
        c1, c2, c3 = (balls[i].center for i in a.ball_indices)
        det = (c2[0] - c1[0]) * (c3[1] - c1[1]) - (c2[1] - c1[1]) * (c3[0] - c1[0])
        R = 20.0 + math.hypot(*a.orthocenter)  # centers lie within 20 of the origin
        err_v = 64 * u * R * R / abs(det)
        assert b.orthocenter[0] == pytest.approx(a.orthocenter[0] + tx, abs=err_v)
        assert b.orthocenter[1] == pytest.approx(a.orthocenter[1] + ty, abs=err_v)
        assert b.tau == pytest.approx(a.tau, abs=2 * R * err_v)


def test_exact_tie_canonical_fan():
    # four exactly cocircular equal balls: both diagonals are regular; the
    # canonical result fans from the lowest index, independent of input order
    pts = [(0.0, 0.0), (2.0, 0.0), (2.0, 2.0), (0.0, 2.0)]
    balls = [Ball(p, 1.0) for p in pts]
    t = build_regular(balls)
    tris = sorted(tuple(sorted(tr.ball_indices)) for tr in t.triangles)
    assert tris == [(0, 1, 2), (0, 2, 3)]


def test_hull_cycle_is_closed():
    rng = philox(13)
    balls = random_balls(rng, 20)
    t = build_regular(balls)
    assert len(t.hull) >= 3
    for (a1, b1), (a2, _) in zip(t.hull, t.hull[1:] + t.hull[:1]):
        assert b1 == a2


def test_flip_budget_exhaustion_raises():
    # a predicate that calls every edge illegal flips the diagonal of a
    # convex quad back and forth; the loop must raise, not stop quietly
    pts = [(0.0, 0.0), (2.0, 0.0), (2.0, 1.0), (0.0, 1.0)]
    tris = [[0, 1, 2], [0, 2, 3]]

    def left_turn(p, u, q):
        return geom.orient2d(pts[p], pts[u], pts[q]) > 0

    with pytest.raises(FlipBudgetExhausted):
        lawson_flip(tris, lambda a, b, c, q: True, left_turn)
