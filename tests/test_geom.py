"""Kernel tests: power, lifting, exact predicates, constructions."""

import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radmesh import geom
from radmesh.errors import CollinearCenters, CollinearPoints
from radmesh.geom import (
    Ball,
    circumcenter,
    lifted_heights,
    orient2d,
    paraboloid,
    power,
    power_test,
)

from conftest import exact_ints_reference, orthocenter, philox, polygon_area

coord = st.floats(-50.0, 50.0, allow_nan=False, allow_infinity=False)
radius = st.floats(0.0, 10.0, allow_nan=False)


def test_power_examples():
    assert power(Ball((0.0, 0.0), 1.0), (2.0, 0.0)) == 3.0
    assert power(Ball((0.0, 0.0), 1.0), (1.0, 0.0)) == 0.0
    assert power(Ball((1.0, 1.0), 2.0), (1.0, 1.0)) == -4.0


def test_lift_heights():
    centers = np.array([(3.0, 4.0), (0.0, 0.0), (2.0, 0.0)])
    radii = np.array([5.0, 1.0, 1.0])
    assert lifted_heights(centers, radii).tolist() == [0.0, -0.5, 1.5]


def test_paraboloid():
    assert paraboloid((0.0, 0.0)) == 0.0
    assert paraboloid((1.0, 1.0)) == 1.0
    assert paraboloid((3.0, 4.0)) == 12.5


@given(coord, coord, radius, coord, coord)
def test_power_matches_expanded_form(cx, cy, r, ax, ay):
    b = Ball((cx, cy), r)
    expanded = (
        ax * ax + ay * ay - 2 * (ax * cx + ay * cy) + cx * cx + cy * cy - r * r
    )
    scale = max(1.0, abs(expanded), cx * cx + cy * cy + ax * ax + ay * ay + r * r)
    assert abs(power(b, (ax, ay)) - expanded) <= 1e-12 * scale


def test_orient2d_signs():
    assert orient2d((0.0, 0.0), (1.0, 0.0), (0.0, 1.0)) == 1
    assert orient2d((0.0, 0.0), (1.0, 0.0), (2.0, 0.0)) == 0
    assert orient2d((0.0, 0.0), (0.0, 1.0), (1.0, 0.0)) == -1


def test_orient2d_near_degenerate_exactness():
    # forces the exact fallback: the float filter cannot decide these
    a = (0.0, 0.0)
    b = (1e-30, 1e-30)
    c = (2e-30, 2e-30)
    assert orient2d(a, b, c) == 0
    assert orient2d(a, b, (2e-30, math.nextafter(2e-30, 1.0))) == 1


def test_power_test_examples():
    # each ball is an (x, y, R) row
    unit = [(0.0, 0.0, 1.0), (2.0, 0.0, 1.0), (0.0, 2.0, 1.0)]
    assert power_test(*unit, (10.0, 10.0, 1.0)) == 1
    assert power_test(*unit, (1.0, 1.0, 1.0)) == -1
    square = [
        (0.0, 0.0, 1.0),
        (2.0, 0.0, 1.0),
        (0.0, 2.0, 1.0),
        (2.0, 2.0, 1.0),
    ]
    assert power_test(*square) == 0


def test_power_test_self_is_tie():
    b1 = (0.3, 0.7, 0.9)
    b2 = (2.1, 0.2, 0.4)
    b3 = (0.9, 2.5, 1.1)
    assert power_test(b1, b2, b3, b1) == 0


def test_power_test_orientation_antisymmetry():
    b1 = (0.0, 0.0, 1.0)
    b2 = (3.0, 0.0, 0.5)
    b3 = (0.0, 3.0, 0.8)
    b4 = (1.0, 1.0, 0.2)
    # swapping two of the defining balls flips the orientation but the
    # regularity verdict about b4 is orientation-independent
    assert power_test(b1, b2, b3, b4) == power_test(b2, b1, b3, b4)
    assert power_test(b1, b2, b3, b4) == power_test(b1, b3, b2, b4)


@pytest.mark.parametrize("k", range(-8, 9))
def test_power_test_exponent_scaling(k):
    s = 2.0**k
    balls = [
        (0.1, 0.2, 0.6),
        (1.7, 0.3, 0.5),
        (0.4, 1.9, 0.9),
        (1.1, 1.3, 0.7),
    ]
    scaled = [(x * s, y * s, r * s) for x, y, r in balls]
    assert power_test(*scaled) == power_test(*balls)
    pts = [(0.1, 0.2), (1.7, 0.3), (0.4, 1.9)]
    assert orient2d(*[(x * s, y * s) for x, y in pts]) == orient2d(*pts)


# floats across the whole range: signed zeros, subnormals, exponents of
# +-1000, and small integers, whose repeats make exact ties
wide_float = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.0]),
    st.builds(math.ldexp, st.floats(-1.0, 1.0), st.integers(-1074, 1000)),
    st.integers(-3, 3).map(float),
)


@settings(max_examples=400, deadline=None)
@given(st.lists(wide_float, min_size=12, max_size=12))
def test_exact_ints_scale_like_the_ratio_reference(values):
    # _exact_ints takes each float's frexp significand and exponent: an exact,
    # uniform, positive power-of-two scaling, as the as_integer_ratio
    # reference is, so the exact signs agree on both forms
    ints = geom._exact_ints(values)
    nonzero = [k for k, v in enumerate(values) if v]
    assert [k for k, n in enumerate(ints) if n] == nonzero
    if nonzero:
        k = nonzero[0]
        assert (ints[k] > 0) == (values[k] > 0)
        assert all(Fraction(n, ints[k]) == Fraction(v) / Fraction(values[k]) for n, v in zip(ints, values))
    rows = [values[3 * i : 3 * i + 3] for i in range(4)]
    got = geom._orient2d_exact(*rows[:3]), geom._power_test_exact(*rows)
    with mock.patch.object(geom, "_exact_ints", exact_ints_reference):
        assert got == (geom._orient2d_exact(*rows[:3]), geom._power_test_exact(*rows))


def test_power_test_collinear_raises():
    with pytest.raises(CollinearCenters):
        power_test(
            (0.0, 0.0, 1.0),
            (1.0, 0.0, 1.0),
            (2.0, 0.0, 1.0),
            (0.0, 1.0, 1.0),
        )


# the twelve integer points of the circle x^2 + y^2 = 25, and its center
RING = sorted(
    {(float(sx * a), float(sy * b))
     for a, b in ((0, 5), (3, 4), (4, 3), (5, 0)) for sx in (1, -1) for sy in (1, -1)}
) + [(0.0, 0.0)]


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(["lattice", "ring"]),
    st.sampled_from([0.0, 1.0, 1e4, 1e8]),
    st.booleans(),
    st.sampled_from(["unit", "zero", "mixed"]),
    st.integers(0, 10**6),
)
def test_batched_signs_equal_scalar_predicates(shape, offset, nudge, radii, seed):
    # orient_signs and power_signs equal orient2d and power_test on every
    # entry, the filter's and the rest, on the inputs hardest for the
    # filters: exact ties (lattices, cocircular rings), 1-ulp nudges,
    # offsets up to 1e8, duplicate centers and zero radii; the index arrays
    # broadcast, (24, 1) against (24,)
    rng = philox(seed)
    pts = [(float(i), float(j)) for i in range(4) for j in range(4)] if shape == "lattice" else RING
    pts = pts + [pts[k] for k in rng.integers(0, len(pts), 3).tolist()]  # duplicate centers
    xy = np.array(pts) + [offset, -offset]
    if nudge:
        xy[:, 0] = np.where(rng.random(len(xy)) < 0.5, np.nextafter(xy[:, 0], np.inf), xy[:, 0])
    r = {"unit": np.ones(len(xy)), "zero": np.zeros(len(xy)), "mixed": rng.choice([0.0, 0.5, 1.0], len(xy))}
    coords = np.column_stack([xy, r[radii]])
    rows = coords.tolist()
    a, b = rng.integers(0, len(rows), (2, 24, 1))
    c = rng.integers(0, len(rows), 24)
    sign = geom.orient_signs(coords, a, b, c)
    assert sign.shape == (24, 24)
    pairs = zip(a.ravel().tolist(), b.ravel().tolist())
    assert sign.tolist() == [[orient2d(rows[i], rows[j], rows[k]) for k in c.tolist()] for i, j in pairs]
    # power_test asks for strictly CCW triangles: the turning triples, made CCW
    abc = np.stack(np.broadcast_arrays(a, b, c), axis=-1)[sign != 0][:30]
    cw = sign[sign != 0][:30] < 0
    abc[cw] = abc[cw][:, [0, 2, 1]]
    q = np.arange(len(rows))
    sign = geom.power_signs(coords, abc[:, 0, None], abc[:, 1, None], abc[:, 2, None], q)
    expected = [[power_test(*(rows[i] for i in t), rows[j]) for j in q.tolist()] for t in abc.tolist()]
    assert sign.tolist() == expected


def test_orthocenter_equal_radii_is_circumcenter():
    v, tau = orthocenter(
        Ball((0.0, 0.0), 1.0), Ball((1.0, 0.0), 1.0), Ball((0.0, 1.0), 1.0)
    )
    assert v == (0.5, 0.5)
    assert tau == pytest.approx(0.5 - 1.0)


def test_orthocenter_weighted_example():
    # solve v . (2,0) = h2 - h1, v . (0,2) = h3 - h1 by hand
    b1 = Ball((0.0, 0.0), math.sqrt(2.0))
    b2 = Ball((2.0, 0.0), 0.0)
    b3 = Ball((0.0, 2.0), 0.0)
    v, tau = orthocenter(b1, b2, b3)
    assert v == pytest.approx((1.5, 1.5))
    assert tau == pytest.approx(2.5)
    for b in (b1, b2, b3):
        assert power(b, v) == pytest.approx(tau)


def test_orthocenter_equal_radii_shifted():
    R = 0.3
    v, tau = orthocenter(
        Ball((0.0, 0.0), R), Ball((2.0, 0.0), R), Ball((0.0, 2.0), R)
    )
    assert v == pytest.approx((1.0, 1.0))
    assert tau == pytest.approx(2.0 - R * R)


def test_orthocenter_collinear_raises():
    with pytest.raises(CollinearCenters):
        orthocenter(
            Ball((0.0, 0.0), 1.0), Ball((1.0, 0.0), 1.0), Ball((2.0, 0.0), 1.0)
        )


@settings(max_examples=200)
@given(st.integers(0, 10**6))
def test_orthocenter_equal_power(seed):
    import numpy as np

    rng = np.random.Generator(np.random.Philox(seed))
    while True:
        pts = rng.uniform(-5.0, 5.0, (3, 2))
        if abs(geom.triangle_area(*map(tuple, pts))) > 0.1:
            break
    balls = [
        Ball((float(x), float(y)), float(r))
        for (x, y), r in zip(pts, rng.uniform(0.0, 2.0, 3))
    ]
    v, tau = orthocenter(*balls)
    tol = 1e-10 * (1.0 + v[0] * v[0] + v[1] * v[1])
    assert abs(power(balls[0], v) - power(balls[1], v)) <= tol
    assert abs(power(balls[0], v) - power(balls[2], v)) <= tol


def test_circumcenter_examples():
    assert circumcenter((0.0, 0.0), (1.0, 0.0), (0.0, 1.0)) == pytest.approx((0.5, 0.5))
    assert circumcenter((-1.0, 0.0), (1.0, 0.0), (0.0, 1.0)) == pytest.approx((0.0, 0.0))
    assert circumcenter((0.0, 0.0), (4.0, 0.0), (0.0, 2.0)) == pytest.approx((2.0, 1.0))


def test_circumcenter_collinear_raises():
    with pytest.raises(CollinearPoints):
        circumcenter((0.0, 0.0), (1.0, 0.0), (2.0, 0.0))


def test_ball_validation():
    with pytest.raises(ValueError):
        Ball((0.0, 0.0), -1.0)
    with pytest.raises(ValueError):
        Ball((math.nan, 0.0), 1.0)
    assert Ball((0.0, 0.0), 1.0, fix_center=True, fix_radius=True).fully_fixed


def test_areas():
    assert geom.triangle_area((0.0, 0.0), (1.0, 0.0), (0.0, 1.0)) == 0.5
    assert geom.triangle_area((0.0, 0.0), (0.0, 1.0), (1.0, 0.0)) == -0.5
    square = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
    assert polygon_area(square) == 1.0


def test_circumcenters_match_circumcenter_bit_for_bit():
    from radmesh.geom import circumcenters

    rng = np.random.Generator(np.random.Philox(64))
    p = rng.uniform(-1.0, 1.0, (300, 3, 2)) * np.array([1.0, 1e-3])  # some slivers
    p[:100] += 1e6
    p[250:, 2] = p[250:, 0] + 0.5 * (p[250:, 1] - p[250:, 0])  # collinear: the guard trips
    got, ok = circumcenters(p[:, 0], p[:, 1], p[:, 2])
    for row, good, pts in zip(got.tolist(), ok.tolist(), p.tolist()):
        try:
            want = circumcenter(*map(tuple, pts))
        except CollinearPoints:
            assert not good
            continue
        assert good and tuple(row) == want
    assert ok.sum() >= 200 and not ok.all()


def test_group_fit_adds_each_group_in_row_order():
    # group_means and rms_distances add each group's rows in row order, so a
    # Python loop over the rows gives the same bits
    rng = philox(66)
    labels = rng.permutation(np.repeat(np.arange(40), rng.integers(1, 100, 40)))
    m = len(labels)
    values = rng.choice([-1.0, 1.0], (m, 3)) * 10.0 ** rng.uniform(-3.0, 3.0, (m, 3))
    weights = 10.0 ** rng.uniform(-3.0, 3.0, m)
    weights[labels == 7] = 0.0  # no weight: the plain mean
    means = geom.group_means(labels, weights, values)
    radii = geom.rms_distances(labels, values[:, :2], means[:, :2])
    assert means.shape == (40, 3) and radii.shape == (40,)
    rows, w = values.tolist(), weights.tolist()
    for g in range(40):
        group = np.flatnonzero(labels == g).tolist()
        wg = [w[k] for k in group] if g != 7 else [1.0] * len(group)
        wsum = 0.0
        for x in wg:
            wsum += x
        for col in range(3):
            s = 0.0
            for k, x in zip(group, wg):
                s += x * rows[k][col]
            assert means[g, col] == s / wsum
        ssum = 0.0
        cx, cy = means[g, :2].tolist()
        for k in group:
            dx, dy = rows[k][0] - cx, rows[k][1] - cy
            ssum += dx * dx + dy * dy
        assert radii[g] == math.sqrt(ssum / len(group))
