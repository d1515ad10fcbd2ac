"""Dirichlet functional, heuristic updates, gradients, and the main loop."""

import math

import numpy as np
import pytest

from radmesh.diagram import extract_diagram
from radmesh.dirichlet import (
    OptimizerConfig,
    _active_triangles,
    _cell_points,
    _coords,
    _damped_steps,
    _gauss_newton_step,
    _proposals,
    _tau_system,
    aux_triangulate_cell,
    bbox_diag,
    cell_fi,
    evaluate_FI,
    fd_gradient,
    frozen_center_gradient,
    heuristic_center,
    heuristic_radius,
    relax_step,
    run,
    write_history_csv,
)
from radmesh.errors import DegenerateCell, DegenerateScene, Diverged, TooFewBalls, UnboundedCell
from radmesh.geom import Ball, circumcenter, orthocenters
from radmesh.triangulation import build_regular

from conftest import jittered_grid, philox


def lattice_balls(n=3, radius=None):
    if radius is None:
        radius = math.sqrt(2.0) / 2.0
    return [Ball((float(i), float(j)), radius) for i in range(n) for j in range(n)]


def center_cell():
    """The lattice's center ball, its cell's vertices and the diagram."""
    balls = lattice_balls(3)
    idx = next(i for i, b in enumerate(balls) if b.center == (1.0, 1.0))
    d = extract_diagram(build_regular(balls), balls)
    return balls, idx, d.points(idx), d


def test_config_validation():
    with pytest.raises(ValueError):
        OptimizerConfig(theta=0.0)
    with pytest.raises(ValueError):
        OptimizerConfig(theta=1.5)
    with pytest.raises(ValueError):
        OptimizerConfig(mode="nonsense")
    with pytest.raises(ValueError):
        OptimizerConfig(mode="fd_gradient")
    with pytest.raises(ValueError, match="heuristic mode was removed"):
        OptimizerConfig(mode="heuristic")
    with pytest.raises(ValueError):
        OptimizerConfig(tau_tol=-1.0)
    with pytest.raises(ValueError):
        OptimizerConfig(tau_tol=math.nan)
    with pytest.raises(ValueError):
        OptimizerConfig(max_iters=-1)
    OptimizerConfig(max_iters=0)


def test_aux_triangle_cell_is_itself():
    # a ball surrounded by three others owns a bounded triangular cell
    balls = [
        Ball((0.0, 0.0), 1.0),
        Ball((4.0, 0.0), 1.0),
        Ball((2.0, 3.5), 1.0),
        Ball((2.0, 1.1), 1.0),
    ]
    t = build_regular(balls)
    d = extract_diagram(t, balls)
    pts = d.points(3)
    assert d.bounded[3] and len(pts) == 3
    aux = aux_triangulate_cell(pts, 3)
    assert len(aux) == 1
    assert aux[0].circumcenter == pytest.approx(circumcenter(*pts))


def test_aux_square_cell():
    _, idx, cell, _ = center_cell()
    aux = aux_triangulate_cell(cell, idx)
    assert len(aux) == 2
    for a in aux:
        assert a.area == pytest.approx(0.5)
        assert a.circumcenter == pytest.approx((1.0, 1.0))


def test_aux_cyclic_pentagon():
    # vertices on a common circle: every circumcenter is the circle center
    pts = [
        (math.cos(2 * math.pi * k / 5), math.sin(2 * math.pi * k / 5))
        for k in range(5)
    ]
    aux = aux_triangulate_cell(pts, 0)
    assert len(aux) == 3
    for a in aux:
        assert a.circumcenter == pytest.approx((0.0, 0.0), abs=1e-9)


def test_aux_translation_invariance():
    # a thin quad whose Delaunay diagonal is the short vertical one, which
    # the fan from vertex 0 does not take; far from the origin as well
    quad = [(0.0, 0.0), (0.1, -0.03), (0.2, 0.0), (0.1, 0.03)]

    def circumcenters(ox, oy):
        found = sorted(
            (a.circumcenter[0] - ox, a.circumcenter[1] - oy)
            for a in aux_triangulate_cell([(x + ox, y + oy) for x, y in quad], 0)
        )
        return [x for cc in found for x in cc]

    expected = [0.0545, 0.0, 0.1455, 0.0]
    assert circumcenters(0.0, 0.0) == pytest.approx(expected, abs=1e-12)
    assert circumcenters(1e3, -1e3) == pytest.approx(expected, abs=1e-9)


def test_aux_unbounded_raises():
    # a hull ball's cell has no vertex list to triangulate without a domain
    balls = lattice_balls(3)
    d = extract_diagram(build_regular(balls), balls)
    with pytest.raises(UnboundedCell):
        _cell_points(d, 0, None)
    assert len(_cell_points(d, 0, [(-1.0, -1.0), (3.0, -1.0), (3.0, 3.0), (-1.0, 3.0)])) == 4


def cell_points(d, domain=None):
    """Vertex lists of the cells of ``d`` usable with ``domain``, and their balls."""
    cells = np.flatnonzero(d.has_cell & (d.bounded | (domain is not None)))
    return [_cell_points(d, i, domain) for i in cells.tolist()], cells


def assert_batched_matches_scalar(points, balls=None):
    """Run aux_triangulate_cells and compare every cell with the scalar path.

    ``points`` are the cells' vertex lists and ``balls`` their ball indices
    (default: list positions).  Triangles, circumcenters and areas must
    agree bit for bit, degenerate cells must be listed as such.  Returns
    the ball indices of the cells that went through the scalar path.
    """
    import radmesh.dirichlet as dmod

    if balls is None:
        balls = np.arange(len(points))
    xy = np.array([p for pts in points for p in pts], dtype=float).reshape(-1, 2)
    offsets = np.concatenate([[0], np.cumsum([len(pts) for pts in points], dtype=int)])
    scalar = []
    orig = dmod.aux_triangulate_cell

    def spy(pts, ball):
        scalar.append(ball)
        return orig(pts, ball)

    dmod.aux_triangulate_cell = spy
    try:
        mesh = dmod.aux_triangulate_cells(xy, offsets, balls)
    finally:
        dmod.aux_triangulate_cell = orig
    assert np.all(np.diff(mesh.ball) >= 0)  # cell after cell
    for pts, ball in zip(points, balls.tolist()):
        rows = mesh.ball == ball
        try:
            ref = aux_triangulate_cell(pts, ball)
        except DegenerateCell:
            assert ball in mesh.degenerate and not rows.any()
            continue
        assert ball not in mesh.degenerate
        for got, want in (
            (mesh.vertices[rows], [t.vertex_positions for t in ref]),
            (mesh.circumcenter[rows], [t.circumcenter for t in ref]),
            (mesh.area[rows], [t.area for t in ref]),
        ):
            want = np.array(want, dtype=float)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
    return scalar


def regular_polygon(k, r=1.0):
    angles = [2 * math.pi * j / k for j in range(k)]
    return [(r * math.cos(a), r * math.sin(a)) for a in angles]


def test_aux_batched_regular_polygons_go_scalar():
    # every quad of a regular k-gon is a tie; a triangle has nothing to test
    polygons = [regular_polygon(k) for k in range(3, 21)]
    scalar = assert_batched_matches_scalar(polygons)
    assert scalar == list(range(18))


def test_aux_batched_matches_scalar_on_adversarial_cells():
    rng = philox(61)
    polygons, must_go_scalar = [], []
    for k in range(4, 13):
        for j in range(k):
            for way in (np.inf, -np.inf):
                # cocircular, then one coordinate moved by 1 ulp: a near tie
                pts = regular_polygon(k, 0.7)
                pts[j] = (float(np.nextafter(pts[j][0], way)), pts[j][1])
                must_go_scalar.append(len(polygons))
                polygons.append(pts)
    for h in (1e-3, 1e-7, 1e-15):
        # thin slivers; the thinnest falls under the area guard
        if h < 1e-14:
            must_go_scalar.append(len(polygons))
        polygons.append([(0.0, 0.0), (1.0, -h), (2.0, -0.5 * h), (3.0, 0.0), (1.5, h)])
    # a 180 degree vertex: (1, 0) lies on the edge from (0, 0) to (2, 0)
    must_go_scalar.append(len(polygons))
    polygons.append([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (2.5, 1.5), (1.0, 2.2), (-0.4, 1.1)])
    for offset in ((0.0, 0.0), (1e3, -1e3), (1e6, 1e6)):
        for k in range(3, 15):
            # general position: points on a random ellipse
            ang = np.sort(rng.uniform(0.0, 2 * math.pi, k))
            a, b = rng.uniform(0.2, 1.0, 2)
            pts = [(offset[0] + a * math.cos(t), offset[1] + b * math.sin(t)) for t in ang]
            polygons.append(pts[::-1] if k % 2 else pts)  # clockwise ones too
    scalar = assert_batched_matches_scalar(polygons)
    assert set(must_go_scalar) <= set(scalar)
    assert len(scalar) < len(polygons)  # the batched path does decide


def test_aux_batched_matches_scalar_on_scenes():
    from radmesh.scene import gen_square_with_circle

    rng = philox(62)
    balls = jittered_grid(rng, 8)
    d = extract_diagram(build_regular(balls), balls)
    points, cells = cell_points(d)
    scalar = assert_batched_matches_scalar(points, cells)
    assert len(scalar) < len(cells)

    scene = gen_square_with_circle(8.0, 1.0, 0.8, interior_spacing=0.5, seed=2)
    d = extract_diagram(build_regular(scene.balls), scene.balls, domain=scene.domain)
    for domain in (None, scene.domain):
        points, cells = cell_points(d, domain)
        scalar = assert_batched_matches_scalar(points, cells)
        assert len(scalar) < len(cells)


def test_aux_small_groups_go_scalar():
    # below _BATCH_MIN_CELLS cells a vertex-count group is cheaper by Lawson
    import radmesh.dirichlet as dmod

    rng = philox(64)
    polygons = []
    for _ in range(dmod._BATCH_MIN_CELLS):
        ang = np.sort(rng.uniform(0.0, 2 * math.pi, 6))
        polygons.append([(math.cos(t), 0.6 * math.sin(t)) for t in ang])
    few = polygons[: dmod._BATCH_MIN_CELLS - 1]
    assert assert_batched_matches_scalar(few) == list(range(len(few)))
    assert len(assert_batched_matches_scalar(polygons)) < len(polygons)


def test_radii_match_heuristic_radius_bit_for_bit():
    # _radii sums each cell's squared distances column by column, in the
    # order heuristic_radius adds them, so the two agree exactly
    from radmesh.diagram import PowerDiagram
    from radmesh.dirichlet import _radii

    rng = philox(65)
    sizes = np.repeat(np.arange(3, 19), 25)
    rng.shuffle(sizes)
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    vertices = rng.uniform(-1.0, 1.0, (offsets[-1], 2)) * 10.0 ** rng.integers(-3, 4, (offsets[-1], 1))
    d = PowerDiagram(
        vertices=vertices,
        tau=np.zeros(len(vertices)),
        vertex_of=np.zeros(0, dtype=int),
        offsets=offsets,
        cell_vertices=rng.permutation(len(vertices)),
        bounded=np.ones(len(sizes), dtype=bool),
        free=np.ones(len(sizes), dtype=bool),
        rays=np.full((len(sizes), 2, 2), np.nan),
    )
    balls = rng.permutation(len(sizes))[: len(sizes) // 2]
    centers = rng.uniform(-2.0, 2.0, (len(balls), 2))
    radii = _radii(d, balls, centers).tolist()
    for i, c, r in zip(balls.tolist(), centers.tolist(), radii):
        assert r == heuristic_radius(tuple(c), d.points(i))


def test_fi_and_proposals_match_per_cell_reference():
    # evaluate_FI and _proposals reduce over the triangle arrays; cell_fi and
    # heuristic_center on aux_triangulate_cell's lists are the reference.
    # The centers sum the same products in the same order, so they agree
    # exactly; F_I sums its terms in another order, within n eps of the sum.
    rng = philox(63)
    balls = jittered_grid(rng, 7)
    d = extract_diagram(build_regular(balls), balls)
    ref = {i: aux_triangulate_cell(d.points(i), i) for i in np.flatnonzero(d.bounded).tolist()}
    want = sum(cell_fi(balls[i].center, aux) for i, aux in ref.items())
    fi = evaluate_FI(balls, d)
    assert sorted(ref) == np.unique(d.aux.ball).tolist()
    assert abs(fi - want) <= len(d.aux.area) * np.finfo(float).eps * want
    ids, rows = _proposals(balls, d)
    assert ids.tolist() == sorted(ref)
    for i, row in zip(ids.tolist(), rows.tolist()):
        assert tuple(row[:2]) == heuristic_center(ref[i])
        assert row[2] == heuristic_radius(tuple(row[:2]), d.points(i))


def test_collapsed_cell_is_recorded_not_triangulated():
    # a cell whose vertices all coincide, next to an ordinary square cell
    from radmesh.diagram import PowerDiagram
    from radmesh.dirichlet import _cell_aux

    square = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
    d = PowerDiagram(
        vertices=np.array(square + [(0.5, 0.5)]),
        tau=np.zeros(5),
        vertex_of=np.zeros(0, dtype=int),
        offsets=np.array([0, 4, 7]),
        cell_vertices=np.array([0, 1, 2, 3, 4, 4, 4]),
        bounded=np.array([True, True]),
        free=np.array([True, True]),
        rays=np.full((2, 2, 2), np.nan),
    )
    aux = _cell_aux(d)
    assert aux.degenerate == [1]
    assert aux.ball.tolist() == [0, 0]
    with pytest.raises(DegenerateCell, match="collapsed"):
        aux_triangulate_cell(d.points(1), 1)


def test_ill_conditioned_aux_triangle_is_a_degenerate_cell():
    # five vertices within 2e-13 of the x axis: a triangle of the cell clears
    # the area guard but not circumcenter's conditioning guard, so the whole
    # cell is degenerate, as the batched stage's ``ok`` mask would have it
    pts = [
        (0.5168811759658247, 1.8234773016134711e-13),
        (0.6569395453324917, 1.6457040976843183e-13),
        (0.7748685781334842, 1.2738545726879594e-13),
        (0.7874703499468639, 1.2221075406083667e-13),
        (0.36493916872495114, 1.6923550904184794e-13),
    ]
    with pytest.raises(DegenerateCell, match="ill-conditioned"):
        aux_triangulate_cell(pts, 7)


def test_heuristic_center_examples():
    from radmesh.dirichlet import AuxTriangle

    aux = [
        AuxTriangle(((0.0, 0.0),) * 3, (0.0, 0.0), 1.0),
        AuxTriangle(((0.0, 0.0),) * 3, (1.0, 0.0), 3.0),
    ]
    assert heuristic_center(aux) == pytest.approx((0.75, 0.0))
    _, idx, sq_cell, _ = center_cell()
    assert heuristic_center(aux_triangulate_cell(sq_cell, idx)) == pytest.approx((1.0, 1.0))


def test_heuristic_radius_examples():
    assert heuristic_radius((0.0, 0.0), [(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)]) == 1.0
    dists = [(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (3.0, 0.0)]
    assert heuristic_radius((0.0, 0.0), dists) == pytest.approx(math.sqrt(3.0))
    assert heuristic_radius((0.0, 0.0), [(0.0, 2.5)]) == 2.5


def test_fi_zero_on_delaunay_partition():
    balls = lattice_balls(4)
    t = build_regular(balls)
    d = extract_diagram(t, balls)
    assert evaluate_FI(balls, d) <= 1e-18


def test_fi_square_cell_offset():
    # one unit-square cell with the ball center offset by d along y:
    # both aux circumcenters sit at the square center, so F_I = d^2 / 2
    _, idx, cell, _ = center_cell()
    aux = aux_triangulate_cell(cell, idx)
    d = 0.17
    assert cell_fi((1.0, 1.0 + d), aux) == pytest.approx(d * d / 2)


def test_fi_translation_invariance():
    rng = philox(40)
    balls = jittered_grid(rng, 4)
    t = build_regular(balls)
    fi1 = evaluate_FI(balls, extract_diagram(t, balls))
    moved = [
        Ball((b.center[0] + 5.0, b.center[1] - 3.0), b.radius) for b in balls
    ]
    t2 = build_regular(moved)
    fi2 = evaluate_FI(moved, extract_diagram(t2, moved))
    assert fi2 == pytest.approx(fi1, rel=1e-9, abs=1e-15)


def test_frozen_center_gradient_matches_fd():
    _, idx, cell, _ = center_cell()
    aux = aux_triangulate_cell(cell, idx)
    c = (1.13, 0.94)
    gx, gy = frozen_center_gradient(c, aux)
    h = 1e-6
    fdx = (cell_fi((c[0] + h, c[1]), aux) - cell_fi((c[0] - h, c[1]), aux)) / (2 * h)
    fdy = (cell_fi((c[0], c[1] + h), aux) - cell_fi((c[0], c[1] - h), aux)) / (2 * h)
    assert gx == pytest.approx(fdx, rel=1e-5)
    assert gy == pytest.approx(fdy, rel=1e-5)


def proposals_of(balls):
    t = build_regular(balls)
    return _proposals(balls, extract_diagram(t, balls))


def test_relax_step_theta_limits():
    rng = philox(41)
    balls = jittered_grid(rng, 4)
    proposals = proposals_of(balls)
    assert len(proposals[0])
    x, free, _ = _coords(balls)

    frozen = relax_step(x, free, proposals, 0.0)
    assert np.array_equal(frozen, x)

    full = relax_step(x, free, proposals, 1.0)
    half = relax_step(x, free, proposals, 0.5)
    target = dict(zip(proposals[0].tolist(), proposals[1].tolist()))
    for i in range(len(balls)):
        if i in target:
            assert full[i].tolist() == target[i]
        assert half[i] == pytest.approx((x[i] + full[i]) / 2)


def test_relax_step_honors_fix_flags():
    # proposals for every ball, applied to balls with fixed coordinates:
    # a fixed center or radius keeps its value, the free one moves
    rng = philox(42)
    balls = jittered_grid(rng, 4)
    proposals = proposals_of(balls)
    flags = [(k % 3 == 0, k % 3 == 1) for k in range(len(balls))]
    pinned = [
        Ball(b.center, b.radius, fix_center=fc, fix_radius=fr)
        for b, (fc, fr) in zip(balls, flags)
    ]
    x, free, _ = _coords(pinned)
    out = relax_step(x, free, proposals, 1.0)
    target = {i: (tuple(row[:2]), row[2]) for i, row in zip(*(p.tolist() for p in proposals))}
    for i, a in enumerate(pinned):
        c_new, r_new = target.get(i, (a.center, a.radius))
        assert tuple(out[i, :2]) == (a.center if a.fix_center else c_new)
        assert out[i, 2] == (a.radius if a.fix_radius else r_new)


def test_fd_gradient_zero_rows_for_fixed_balls():
    rng = philox(43)
    balls = jittered_grid(rng, 4)
    balls[5] = Ball(balls[5].center, balls[5].radius, fix_center=True, fix_radius=True)
    t = build_regular(balls)
    d = extract_diagram(t, balls)
    grads = fd_gradient(balls, d, 1e-6)
    assert grads[5] == (0.0, 0.0, 0.0)


def test_fd_gradient_near_zero_at_delaunay():
    # converged unjittered lattice: the optimum has equal radii everywhere,
    # the only case where the F_I minimum is not kinked (a tie-breaking
    # probe reassigns area O(h) between cells whose integrands differ by
    # R_i^2 - R_k^2).  Probes flip tie diagonals at any h; F_I is
    # continuous across those flips, hence on_flip="ignore".
    n = 4
    balls = [
        Ball(
            (float(i), float(j)),
            0.5,
            fix_center=i in (0, n - 1) or j in (0, n - 1),
        )
        for i in range(n)
        for j in range(n)
    ]
    scale = bbox_diag(balls)
    state = run(
        balls,
        OptimizerConfig(theta=0.5, max_iters=500, tau_tol=1e-12 * scale**2),
    )
    assert state.converged
    grads = fd_gradient(state.balls, state.diagram, 1e-7 * scale, on_flip="ignore")
    gmax = max(max(abs(g) for g in row) for row in grads)
    assert gmax <= 1e-6 * scale


def mixed_flags_grid():
    """Jittered 5 x 5 grid, radii scaled, mixing fixed centers and fixed radii."""
    rng = philox(53)
    grid = jittered_grid(rng, 5)
    scales = rng.uniform(0.9, 1.1, len(grid))
    return [
        Ball(b.center, b.radius * float(s), fix_center=k % 4 == 1, fix_radius=k % 3 == 2)
        for k, (b, s) in enumerate(zip(grid, scales))
    ]


def test_tau_system_jacobian_matches_central_differences():
    # every column of the closed-form Jacobian of the active dual-vertex
    # residuals against central differences of tau on the same triangles
    # (geom.orthocenters, so the combinatorics stay fixed), on a scene that
    # mixes fixed centers and fixed radii
    balls = mixed_flags_grid()
    t = build_regular(balls)
    active = _active_triangles(extract_diagram(t, balls))
    x, free, _ = _coords(balls)
    r, J, cols = _tau_system(x, free, t, active)
    tris = t.tris[active]

    def tau(x):
        return orthocenters(x[:, :2], x[:, 2], tris)[2]

    unknowns = [
        3 * i + c
        for i, b in enumerate(balls)
        for c in range(3)
        if not (b.fix_center if c < 2 else b.fix_radius)
    ]
    assert cols.tolist() == unknowns
    assert J.shape == (len(active), len(unknowns))
    assert np.array_equal(r, tau(x))
    h = 1e-6
    for k, flat in enumerate(cols):
        up, down = x.copy(), x.copy()
        up.flat[flat] += h
        down.flat[flat] -= h
        fd = (tau(up) - tau(down)) / (2 * h)
        np.testing.assert_allclose(J[:, k], fd, rtol=1e-6, atol=1e-7)


def mixed_flags_tau_system():
    balls = mixed_flags_grid()
    t = build_regular(balls)
    d = extract_diagram(t, balls)
    x, free, _ = _coords(balls)
    r, J, _ = _tau_system(x, free, t, _active_triangles(d))
    return balls, t, d, x, free, r, J


def damped_system(kind):
    """(J, r) of one shape the Gauss-Newton solve meets."""
    rng = philox(54)
    if kind == "wide":  # fewer residuals than unknowns, as in the real scenes
        J = rng.standard_normal((20, 35))
    elif kind == "tall":
        J = rng.standard_normal((35, 20))
    elif kind == "rank_deficient":  # duplicate rows and a zero column
        J = rng.standard_normal((20, 30))
        J = np.vstack([J, J[:4]])
        J[:, 7] = 0.0
    else:
        *_, r, J = mixed_flags_tau_system()
        return J, r
    return J, rng.standard_normal(J.shape[0])


@pytest.mark.parametrize("kind", ["wide", "tall", "rank_deficient", "tau_system"])
def test_damped_steps_match_unreduced_lstsq(kind):
    # the reduced solve in min(m, n) unknowns against lstsq on the stacked
    # [J; sqrt(lam) I_n] system, at each of the 8 damping levels
    J, r = damped_system(kind)
    m, n = J.shape
    scale = float(np.abs(J).max())
    smax = float(np.linalg.norm(J, 2))
    eps = np.finfo(float).eps
    lam = 1e-10 * scale * scale
    steps = list(_damped_steps(J, r, lam))
    assert len(steps) == 8
    for dx in steps:
        lhs = np.vstack([J, math.sqrt(lam) * np.eye(n)])
        ref, *_ = np.linalg.lstsq(lhs, np.concatenate([-r, np.zeros(n)]), rcond=None)
        # A = [J; sqrt(lam) I] has |A| = hypot(smax, sqrt(lam)) and smallest
        # singular value >= sqrt(lam), so cond(A) <= cond = |A| / sqrt(lam)
        # (smax / sqrt(lam) at the small levels).  Both solves are backward
        # stable, so by the least-squares perturbation bound each lies within
        # max(m, n) eps (cond |ref| + cond^2 |b| / |A|) of the exact step,
        # with |b| = |r| bounding the residual
        norm_a = math.hypot(smax, math.sqrt(lam))
        cond = norm_a / math.sqrt(lam)
        bound = max(m, n) * eps * (
            cond * np.linalg.norm(ref) + cond**2 * np.linalg.norm(r) / norm_a
        )
        assert bound < 1e-3 * np.linalg.norm(ref)  # tight enough to tell a wrong step
        assert np.linalg.norm(dx - ref) <= bound
        lam *= 100.0


def test_gauss_newton_step_factors_once_per_step():
    # one QR of J^T serves every damping level a Gauss-Newton step tries
    import radmesh.dirichlet as dmod

    balls, t, d, x, free, _, _ = mixed_flags_tau_system()

    def as_balls(rows):
        return [
            Ball((cx, cy), r, b.fix_center, b.fix_radius)
            for (cx, cy, r), b in zip(rows.tolist(), balls)
        ]

    calls = {"qr": 0, "lstsq": 0}
    orig_qr, orig_lstsq, orig_rebuild = np.linalg.qr, np.linalg.lstsq, dmod._rebuild

    def qr(*args, **kwargs):
        calls["qr"] += 1
        return orig_qr(*args, **kwargs)

    def lstsq(*args, **kwargs):
        calls["lstsq"] += 1
        return orig_lstsq(*args, **kwargs)

    def failing_rebuild(balls, merge_eps=None, start=None, state=None):
        raise TooFewBalls("every trial fails")

    np.linalg.qr, np.linalg.lstsq = qr, lstsq
    try:
        # accepted at the first damping level
        x_new, moved, built = _gauss_newton_step(x, free, as_balls, t, d, None)
        assert moved > 0 and built is not None and not np.array_equal(x_new, x)
        assert calls == {"qr": 1, "lstsq": 1}
        # no trial rebuilds, so the step tries all 8 levels
        calls.update(qr=0, lstsq=0)
        dmod._rebuild = failing_rebuild
        x_new, moved, built = _gauss_newton_step(x, free, as_balls, t, d, None)
        assert x_new is x and moved == 0 and built is None
        assert calls == {"qr": 1, "lstsq": 8}
    finally:
        np.linalg.qr, np.linalg.lstsq, dmod._rebuild = orig_qr, orig_lstsq, orig_rebuild


def test_frozen_gradient_square_cell_slope():
    # frozen square cell with the ball center offset by d: F_I = d^2/2,
    # so the frozen-combinatorics derivative w.r.t. the offset is d
    d = 1e-3
    _, idx, cell, _ = center_cell()
    aux = aux_triangulate_cell(cell, idx)
    gx, gy = frozen_center_gradient((1.0, 1.0 + d), aux)
    assert gx == pytest.approx(0.0, abs=1e-12)
    assert gy == pytest.approx(d, rel=1e-9)


def test_run_already_converged():
    balls = lattice_balls(4)
    cfg = OptimizerConfig(max_iters=50, tau_tol=1e-10)
    state = run(balls, cfg)
    assert state.converged
    assert state.iteration == 0
    assert len(state.history) == 1


@pytest.mark.parametrize(
    "balls", [[], [Ball((float(i), float(i % 2)), 1.0, alive=False) for i in range(4)]],
    ids=["empty", "all_dead"],
)
def test_run_without_alive_balls_raises_too_few(balls):
    with pytest.raises(TooFewBalls, match="got 0"):
        run(balls, OptimizerConfig(max_iters=5))


def test_run_jittered_grid_converges():
    rng = philox(44)
    balls = jittered_grid(rng, 5, fix_boundary=True)
    scale = bbox_diag(balls)
    cfg = OptimizerConfig(theta=0.5, max_iters=500, tau_tol=1e-8 * scale * scale)
    state = run(balls, cfg)
    assert state.converged
    assert state.max_abs_tau <= 1e-8 * scale * scale


def test_run_deterministic_history():
    rng1, rng2 = philox(45), philox(45)
    cfg = OptimizerConfig(theta=0.5, max_iters=40)
    h1 = run(jittered_grid(rng1, 4, fix_boundary=True), cfg).history
    h2 = run(jittered_grid(rng2, 4, fix_boundary=True), cfg).history
    assert [(r.iteration, r.fi, r.max_abs_tau, r.moved) for r in h1] == [
        (r.iteration, r.fi, r.max_abs_tau, r.moved) for r in h2
    ]


def test_run_on_iteration_callback():
    rng = philox(46)
    balls = jittered_grid(rng, 4, fix_boundary=True)
    seen = []
    run(balls, OptimizerConfig(max_iters=5), on_iteration=lambda s: seen.append(s.iteration))
    assert seen == list(range(6))


def test_eliminate_redundant_ball():
    # a weak extra ball inside a jittered grid is hidden from the start and
    # gets eliminated after three skipped iterations
    rng = philox(50)
    balls = jittered_grid(rng, 4, fix_boundary=True)
    balls.append(Ball((1.5, 1.5), 0.05))
    cfg = OptimizerConfig(max_iters=10, eliminate_redundant=True, tau_tol=1e-15)
    state = run(balls, cfg)
    assert not state.balls[-1].alive
    assert state.history[-1].eliminated == 1


def test_run_triangulates_each_cell_once_per_iteration():
    # evaluate_FI, the elimination bookkeeping and relax_step share the
    # auxiliary triangulations kept on each iteration's diagram
    import radmesh.dirichlet as dmod

    rng = philox(49)
    balls = jittered_grid(rng, 5, fix_boundary=True)
    calls = []
    orig = dmod.aux_triangulate_cells

    def spy(xy, offsets, cells):
        calls.append(cells.tolist())
        return orig(xy, offsets, cells)

    per_iteration = []

    def on_iteration(state):
        per_iteration.append((state.diagram, list(calls)))
        calls.clear()

    dmod.aux_triangulate_cells = spy
    try:
        run(balls, OptimizerConfig(theta=0.5, max_iters=5), on_iteration=on_iteration)
    finally:
        dmod.aux_triangulate_cells = orig
    assert not calls  # nothing is triangulated after the last rebuild
    assert len(per_iteration) == 6
    for diagram, batches in per_iteration:
        assert len(batches) == 1
        (cells,) = batches
        assert len(diagram.aux.ball) > 0
        assert cells == np.unique(diagram.aux.ball).tolist()


def test_run_computes_proposals_once_per_iteration():
    # the elimination bookkeeping and relax_step share one set of
    # proposals, computed once per iteration for every usable cell
    import radmesh.dirichlet as dmod

    rng = philox(49)
    balls = jittered_grid(rng, 5, fix_boundary=True)
    calls = []
    orig = dmod._proposals

    def spy(balls, diagram):
        proposals = orig(balls, diagram)
        calls.append((diagram, proposals))
        return proposals

    seen = []  # (diagram, _proposals calls since the previous iteration)

    def on_iteration(state):
        seen.append((state.diagram, list(calls)))
        calls.clear()

    dmod._proposals = spy
    try:
        run(balls, OptimizerConfig(theta=0.5, max_iters=5), on_iteration=on_iteration)
    finally:
        dmod._proposals = orig
    assert not calls  # the last iteration only stops
    assert len(seen) == 6
    for (diagram, _), (_, proposed) in zip(seen, seen[1:]):
        assert len(proposed) == 1
        (called_on, proposals), = proposed
        assert called_on is diagram
        # every usable cell, plus the hull balls' radius-only proposals
        hull = set(np.flatnonzero(diagram.has_cell & ~diagram.bounded).tolist())
        assert set(proposals[0].tolist()) == set(diagram.aux.ball.tolist()) | hull


def test_run_counts_gauss_newton_fallbacks():
    # one free ball among fixed ones cannot zero all its residuals: once the
    # polish reaches their least-squares minimum, a step finds no damping
    # level and the iteration falls back to relaxation
    import radmesh.dirichlet as dmod

    balls = jittered_grid(philox(60), 3, jitter=0.2)
    balls = [b if i == 4 else Ball(b.center, b.radius, True, True) for i, b in enumerate(balls)]
    failed = []
    orig = dmod._gauss_newton_step

    def spy(*args):
        out = orig(*args)
        failed.append(out[1] == 0)
        return out

    dmod._gauss_newton_step = spy
    try:
        state = run(balls, OptimizerConfig(max_iters=30))
    finally:
        dmod._gauss_newton_step = orig
    assert state.gn_fallbacks == sum(failed) > 0
    assert len(failed) > state.gn_fallbacks  # other steps were accepted


def test_run_counts_degenerate_cells():
    # the skipped cells of every iteration's diagram are totalled
    from radmesh.scene import gen_masked_lattice

    square = [(0.3, 0.3), (0.6, 0.3), (0.6, 0.6), (0.3, 0.6)]
    balls = gen_masked_lattice([square], 0.12, 0.03, seed=5).balls
    seen = []
    state = run(
        balls,
        OptimizerConfig(max_iters=40),
        on_iteration=lambda s: seen.append(len(s.diagram.aux.degenerate)),
    )
    assert state.degenerate_cells == sum(seen) > 0


# the radii overflow on their way to infinity; those warnings are the
# divergence this test is about
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_run_stops_diverging_fixed_center_grid():
    # every center fixed, the radii free: the radii run off within a few
    # iterations (0.71 -> 633 -> 6.1e7 -> 1.1e18), cells turn ill-conditioned
    # and F_I overflows; the run must stop with a domain error, not with the
    # CollinearPoints of an ill-conditioned aux triangle
    balls = [Ball(b.center, b.radius, fix_center=True) for b in jittered_grid(philox(40), 4)]
    with pytest.raises((Diverged, DegenerateScene)):
        run(balls, OptimizerConfig(max_iters=40))


def test_run_warm_starts_every_rebuild():
    # every rebuild of a benchmark run, the Gauss-Newton trials included,
    # starts from the previous table; accepted or refused, it equals the
    # fresh build, and rebuild_fallbacks counts exactly the refused starts
    import radmesh.dirichlet as dmod
    from test_diagram import benchmark_inputs
    from test_triangulation import assert_same_table

    from radmesh.triangulation import verify_hull, verify_regular

    for name in ("square-hybrid", "mask-plateau"):
        balls, max_iters = benchmark_inputs(name)
        orig = dmod.build_regular
        seen = []

        def spy(balls, start=None):
            t = orig(balls, start=start)
            assert_same_table(t, orig(balls))
            seen.append((start is not None, t.warm))
            return t

        diag = bbox_diag(balls)
        cfg = OptimizerConfig(theta=0.5, max_iters=max_iters, tau_tol=1e-8 * diag * diag)
        dmod.build_regular = spy
        try:
            state = run(balls, cfg)
        finally:
            dmod.build_regular = orig
        assert seen[0] == (False, False)  # the first build has no start
        assert all(started for started, _ in seen[1:])
        refused = sum(started and not warm for started, warm in seen)
        assert state.rebuild_fallbacks == refused
        assert 0 < refused < len(seen) / 2
        final = build_regular(state.balls)
        assert verify_hull(final, state.balls) == []
        if name == "mask-plateau":  # the brute-force oracle takes 6 s at 441 balls
            assert verify_regular(final, state.balls) == []


def test_write_history_csv(tmp_path):
    rng = philox(47)
    balls = jittered_grid(rng, 4, fix_boundary=True)
    state = run(balls, OptimizerConfig(max_iters=3))
    path = tmp_path / "history.csv"
    write_history_csv(state.history, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "iter,F_I,max_abs_tau,moved,eliminated"
    assert len(lines) == len(state.history) + 1
    first = lines[1].split(",")
    assert int(first[0]) == 0
    assert float(first[1]) == state.history[0].fi


def test_radius_zero_sum_invariant():
    # after each heuristic proposal, the powers of the proposed ball at the
    # cell vertices sum to zero by construction
    import radmesh.dirichlet as dmod

    rng = philox(48)
    balls = jittered_grid(rng, 5, fix_boundary=True)
    scale = bbox_diag(balls)
    calls = []
    orig = dmod._radii

    def spy(diagram, ids, centers):
        radii = orig(diagram, ids, centers)
        for i, c, r in zip(ids.tolist(), centers.tolist(), radii.tolist()):
            calls.append((c, diagram.points(i), r))
        return radii

    dmod._radii = spy
    try:
        run(balls, OptimizerConfig(theta=0.5, max_iters=20))
    finally:
        dmod._radii = orig
    assert calls
    for c, verts, r in calls:
        s = sum(
            (v[0] - c[0]) ** 2 + (v[1] - c[1]) ** 2 - r * r for v in verts
        )
        assert abs(s) <= 1e-9 * len(verts) * scale * scale
