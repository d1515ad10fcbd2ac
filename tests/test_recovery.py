"""Circle recovery from perturbed Delaunay vertex sets."""

import math

import numpy as np
import pytest
from scipy.spatial import Delaunay

from radmesh import geom
from radmesh.errors import AllCollinear, TooFewPoints
from radmesh.geom import Ball
from radmesh.recovery import recover_spheres, vertex_cluster_merge

from conftest import (
    philox,
    recover_spheres_reference,
    vertex_cluster_merge_reference,
)


def test_unit_square_corners_single_circle():
    pts = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
    balls = recover_spheres(pts)
    assert len(balls) == 1
    assert balls[0].center == pytest.approx((0.5, 0.5))
    assert balls[0].radius == pytest.approx(math.sqrt(2.0) / 2.0)


def test_three_by_three_lattice_four_circles():
    pts = [(float(i), float(j)) for i in range(3) for j in range(3)]
    rng = philox(60)
    jit = [
        (x + float(d[0]), y + float(d[1]))
        for (x, y), d in zip(pts, rng.uniform(-1e-9, 1e-9, (9, 2)))
    ]
    balls = recover_spheres(jit)
    assert len(balls) == 4
    for c in [(0.5, 0.5), (0.5, 1.5), (1.5, 0.5), (1.5, 1.5)]:
        b = min(balls, key=lambda b: math.hypot(b.center[0] - c[0], b.center[1] - c[1]))
        assert b.center == pytest.approx(c, abs=1e-6)
        assert b.radius == pytest.approx(math.sqrt(2.0) / 2.0, abs=1e-6)


def test_sliver_triangles_excluded():
    # a point barely above the bottom edge of a square creates a sliver
    # triangle whose wild circumcenter (|y| ~ 1e9) must not survive; the
    # three well-shaped triangles around it keep their genuine circles
    pts = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0), (0.5, 1e-10)]
    balls = recover_spheres(pts)
    assert len(balls) == 3
    for b in balls:
        assert abs(b.center[0]) < 10 and abs(b.center[1]) < 10


def test_errors():
    with pytest.raises(TooFewPoints):
        recover_spheres([(0.0, 0.0), (1.0, 1.0)])
    with pytest.raises(AllCollinear):
        recover_spheres([(float(i), 0.0) for i in range(5)])
    # a negative or non-finite tolerance is refused, not read as "no clustering"
    lattice = [(float(i), float(j)) for i in range(5) for j in range(5)]
    for eps in (-1.0, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="cluster_eps"):
            recover_spheres(lattice, cluster_eps=eps)
        with pytest.raises(ValueError, match="vertex_eps"):
            vertex_cluster_merge(lattice, eps)
    assert len(recover_spheres(lattice, cluster_eps=0.0)) == 16  # coincident centers merge
    assert vertex_cluster_merge(lattice, 0.0) == lattice


def test_vertex_cluster_merge_examples():
    eps = 1e-3
    # two points closer than eps merge to their midpoint
    out = vertex_cluster_merge([(0.0, 0.0), (eps / 2, 0.0)], eps)
    assert out == [pytest.approx((eps / 4, 0.0))]
    # well separated points are unchanged
    pts = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]
    assert vertex_cluster_merge(pts, eps) == [pytest.approx(p) for p in pts]
    # chains merge transitively under single linkage
    chain = [(0.0, 0.0), (0.9 * eps, 0.0), (1.8 * eps, 0.0)]
    out = vertex_cluster_merge(chain, eps)
    assert len(out) == 1
    assert out[0] == pytest.approx((0.9 * eps, 0.0))


def test_scale_equivariance():
    rng = philox(61)
    pts = [
        (float(i + dx), float(j + dy))
        for i in range(4)
        for j in range(4)
        for dx, dy in [rng.uniform(-1e-9, 1e-9, 2)]
    ]
    s = 37.5
    b1 = recover_spheres(pts)
    b2 = recover_spheres([(s * x, s * y) for x, y in pts])
    assert len(b1) == len(b2)
    for a, b in zip(b1, b2):
        assert b.center == pytest.approx((s * a.center[0], s * a.center[1]), rel=1e-9)
        assert b.radius == pytest.approx(s * a.radius, rel=1e-9)


def test_output_sorted_by_center():
    rng = philox(62)
    pts = [
        (float(i + dx), float(j + dy))
        for i in range(5)
        for j in range(5)
        for dx, dy in [rng.uniform(-1e-9, 1e-9, 2)]
    ]
    balls = recover_spheres(pts)
    keys = [(b.center[0], b.center[1]) for b in balls]
    assert keys == sorted(keys)
    assert all(isinstance(b, Ball) for b in balls)


def test_recovered_balls_carry_python_floats():
    # numpy scalars would pass isinstance(v, float), so the type is compared
    rng = philox(65)
    pts = [
        (float(i + dx), float(j + dy))
        for i in range(5)
        for j in range(5)
        for dx, dy in [rng.uniform(-0.25, 0.25, 2)]
    ]
    balls = recover_spheres(pts)
    assert balls
    for b in balls:
        assert [type(v) for v in (*b.center, b.radius)] == [float, float, float]


def jittered_lattice(seed, n, jitter, scale=1.0, offset=0.0):
    rng = philox(seed)
    return [
        (scale * (i + float(dx)) + offset, scale * (j + float(dy)) + offset)
        for i in range(n)
        for j in range(n)
        for dx, dy in [rng.uniform(-jitter, jitter, 2)]
    ]


def recovery_inputs():
    for n, seeds in ((12, (0, 1, 2)), (20, (3,))):
        for seed in seeds:
            for jitter in (0.25, 1e-9):
                yield jittered_lattice(seed, n, jitter)
    yield [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0), (0.5, 1e-10)]  # a sliver
    yield [(float(i), float(j)) for i in range(3) for j in range(3)]  # cocircular squares
    yield jittered_lattice(4, 8, 0.25, offset=1e6)
    yield jittered_lattice(5, 8, 0.25, scale=37.5)


def test_recover_spheres_matches_the_reference():
    for pts in recovery_inputs():
        diag = geom.bbox_diag(pts)
        # the shape guard implies circumcenters' conditioning guard on every survivor
        arr = np.asarray(pts)
        corners = arr[Delaunay(arr, qhull_options="Qbb Qc Qz").simplices]
        area = np.abs(geom.triangle_area(*corners.transpose(1, 2, 0)))
        edge = corners - corners[:, [1, 2, 0]]
        lmax2 = (edge**2).sum(axis=2).max(axis=1)
        kept = corners[(area >= 1e-12 * diag * diag) & (area >= 1e-7 * lmax2)]
        assert len(kept) and geom.circumcenters(kept[:, 0], kept[:, 1], kept[:, 2])[1].all()
        for eps in (0.0, None, 1e-12 * diag):
            got, want = recover_spheres(pts, eps), recover_spheres_reference(pts, eps)
            assert [b.center for b in got] == [b.center for b in want]
            # the reference squares numpy scalars with ** 2, through libm pow, which
            # rounds about one square in a thousand a unit apart from the product; the
            # sums can widen that to 2 ulp of a radius (one circle of the 50 x 50
            # lattice of the recover-lattice generator at scene seed 2)
            for b, ref in zip(got, want):
                assert abs(b.radius - ref.radius) <= 2 * np.spacing(ref.radius)


def test_vertex_cluster_merge_matches_the_reference():
    rng = philox(66)
    base = jittered_lattice(6, 10, 0.25)
    # each point doubled within 1.5e-4, and some doubles chained 1.5e-4 further on
    shifts = rng.uniform(-1e-4, 1e-4, (100, 2)).tolist()
    near = [(x + dx, y + dy) for (x, y), (dx, dy) in zip(base, shifts)]
    chained = [(x + 1.5e-4, y) for x, y in near[::7]]
    pts = [p for pair in zip(base, near) for p in pair] + chained
    for eps in (0.0, 1e-5, 2e-4, 0.5):
        assert vertex_cluster_merge(pts, eps) == vertex_cluster_merge_reference(pts, eps)
    assert len(vertex_cluster_merge(pts, 2e-4)) == 100
