"""Kernel tests: power, lifting, exact predicates, constructions."""

import math

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
    orthocenter,
    paraboloid,
    power,
    power_test,
)

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
    unit = [Ball((0.0, 0.0), 1.0), Ball((2.0, 0.0), 1.0), Ball((0.0, 2.0), 1.0)]
    assert power_test(*unit, Ball((10.0, 10.0), 1.0)) == 1
    assert power_test(*unit, Ball((1.0, 1.0), 1.0)) == -1
    square = [
        Ball((0.0, 0.0), 1.0),
        Ball((2.0, 0.0), 1.0),
        Ball((0.0, 2.0), 1.0),
        Ball((2.0, 2.0), 1.0),
    ]
    assert power_test(*square) == 0


def test_power_test_self_is_tie():
    b1 = Ball((0.3, 0.7), 0.9)
    b2 = Ball((2.1, 0.2), 0.4)
    b3 = Ball((0.9, 2.5), 1.1)
    assert power_test(b1, b2, b3, b1) == 0


def test_power_test_orientation_antisymmetry():
    b1 = Ball((0.0, 0.0), 1.0)
    b2 = Ball((3.0, 0.0), 0.5)
    b3 = Ball((0.0, 3.0), 0.8)
    b4 = Ball((1.0, 1.0), 0.2)
    # swapping two of the defining balls flips the orientation but the
    # regularity verdict about b4 is orientation-independent
    assert power_test(b1, b2, b3, b4) == power_test(b2, b1, b3, b4)
    assert power_test(b1, b2, b3, b4) == power_test(b1, b3, b2, b4)


@pytest.mark.parametrize("k", range(-8, 9))
def test_power_test_exponent_scaling(k):
    s = 2.0**k
    balls = [
        Ball((0.1, 0.2), 0.6),
        Ball((1.7, 0.3), 0.5),
        Ball((0.4, 1.9), 0.9),
        Ball((1.1, 1.3), 0.7),
    ]
    scaled = [Ball((b.center[0] * s, b.center[1] * s), b.radius * s) for b in balls]
    assert power_test(*scaled) == power_test(*balls)
    pts = [(0.1, 0.2), (1.7, 0.3), (0.4, 1.9)]
    assert orient2d(*[(x * s, y * s) for x, y in pts]) == orient2d(*pts)


def test_power_test_collinear_raises():
    with pytest.raises(CollinearCenters):
        power_test(
            Ball((0.0, 0.0), 1.0),
            Ball((1.0, 0.0), 1.0),
            Ball((2.0, 0.0), 1.0),
            Ball((0.0, 1.0), 1.0),
        )


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
    assert geom.polygon_area(square) == 1.0


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
