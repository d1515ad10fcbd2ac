"""Dirichlet functional, heuristic updates, gradients, and the main loop."""

import math

import pytest

from radmesh.diagram import extract_diagram
from radmesh.dirichlet import (
    OptimizerConfig,
    _proposals,
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
from radmesh.errors import UnboundedCell
from radmesh.geom import Ball, circumcenter
from radmesh.triangulation import build_regular

from conftest import jittered_grid, philox


def lattice_balls(n=3, radius=None):
    if radius is None:
        radius = math.sqrt(2.0) / 2.0
    return [Ball((float(i), float(j)), radius) for i in range(n) for j in range(n)]


def bounded_cell(balls, idx):
    t = build_regular(balls)
    d = extract_diagram(t, balls)
    return d.cells[idx], d


def center_cell():
    balls = lattice_balls(3)
    idx = next(i for i, b in enumerate(balls) if b.center == (1.0, 1.0))
    cell, d = bounded_cell(balls, idx)
    return balls, idx, cell, d


def test_config_validation():
    with pytest.raises(ValueError):
        OptimizerConfig(theta=0.0)
    with pytest.raises(ValueError):
        OptimizerConfig(theta=1.5)
    with pytest.raises(ValueError):
        OptimizerConfig(mode="nonsense")
    with pytest.raises(ValueError):
        OptimizerConfig(mode="fd_gradient")
    with pytest.raises(ValueError):
        OptimizerConfig(tau_tol=-1.0)


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
    cell = d.cells[3]
    assert cell.bounded and len(cell.vertices) == 3
    aux = aux_triangulate_cell(cell)
    assert len(aux) == 1
    assert aux[0].circumcenter == pytest.approx(circumcenter(*cell.vertex_positions()))


def test_aux_square_cell():
    _, idx, cell, _ = center_cell()
    aux = aux_triangulate_cell(cell)
    assert len(aux) == 2
    for a in aux:
        assert a.area == pytest.approx(0.5)
        assert a.circumcenter == pytest.approx((1.0, 1.0))


def test_aux_cyclic_pentagon():
    # vertices on a common circle: every circumcenter is the circle center
    from radmesh.diagram import PowerCell

    pts = [
        (math.cos(2 * math.pi * k / 5), math.sin(2 * math.pi * k / 5))
        for k in range(5)
    ]
    from radmesh.diagram import DualVertex

    cell = PowerCell(0, [DualVertex(p, 0.0, []) for p in pts], bounded=True)
    aux = aux_triangulate_cell(cell)
    assert len(aux) == 3
    for a in aux:
        assert a.circumcenter == pytest.approx((0.0, 0.0), abs=1e-9)


def test_aux_translation_invariance():
    # a thin quad whose Delaunay diagonal is the short vertical one, which
    # the fan from vertex 0 does not take; far from the origin as well
    from radmesh.diagram import DualVertex, PowerCell

    quad = [(0.0, 0.0), (0.1, -0.03), (0.2, 0.0), (0.1, 0.03)]

    def circumcenters(ox, oy):
        cell = PowerCell(
            0, [DualVertex((x + ox, y + oy), 0.0, []) for x, y in quad], bounded=True
        )
        found = sorted(
            (a.circumcenter[0] - ox, a.circumcenter[1] - oy)
            for a in aux_triangulate_cell(cell)
        )
        return [x for cc in found for x in cc]

    expected = [0.0545, 0.0, 0.1455, 0.0]
    assert circumcenters(0.0, 0.0) == pytest.approx(expected, abs=1e-12)
    assert circumcenters(1e3, -1e3) == pytest.approx(expected, abs=1e-9)


def test_aux_unbounded_raises():
    from radmesh.diagram import PowerCell

    with pytest.raises(UnboundedCell):
        aux_triangulate_cell(PowerCell(0, [], bounded=False))


def test_heuristic_center_examples():
    from radmesh.dirichlet import AuxTriangle
    from radmesh.diagram import PowerCell

    cell = PowerCell(0, [], bounded=True)
    aux = [
        AuxTriangle(0, ((0.0, 0.0),) * 3, (0.0, 0.0), 1.0),
        AuxTriangle(0, ((0.0, 0.0),) * 3, (1.0, 0.0), 3.0),
    ]
    assert heuristic_center(cell, aux) == pytest.approx((0.75, 0.0))
    _, idx, sq_cell, _ = center_cell()
    assert heuristic_center(sq_cell, aux_triangulate_cell(sq_cell)) == pytest.approx(
        (1.0, 1.0)
    )


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
    aux = aux_triangulate_cell(cell)
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
    aux = aux_triangulate_cell(cell)
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
    assert proposals

    frozen = relax_step(balls, proposals, 0.0)
    for a, b in zip(balls, frozen):
        assert a.center == b.center and a.radius == b.radius

    full = relax_step(balls, proposals, 1.0)
    half = relax_step(balls, proposals, 0.5)
    for i, (a, f, h) in enumerate(zip(balls, full, half)):
        if i in proposals:
            assert (f.center, f.radius) == proposals[i]
        assert h.center[0] == pytest.approx((a.center[0] + f.center[0]) / 2)
        assert h.center[1] == pytest.approx((a.center[1] + f.center[1]) / 2)
        assert h.radius == pytest.approx((a.radius + f.radius) / 2)


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
    out = relax_step(pinned, proposals, 1.0)
    for i, (a, b) in enumerate(zip(pinned, out)):
        assert (b.fix_center, b.fix_radius) == (a.fix_center, a.fix_radius)
        c_new, r_new = proposals.get(i, (a.center, a.radius))
        assert b.center == (a.center if a.fix_center else c_new)
        assert b.radius == (a.radius if a.fix_radius else r_new)


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
        OptimizerConfig(theta=0.5, max_iters=500, tau_tol=1e-12 * scale**2, mode="hybrid"),
    )
    assert state.converged
    grads = fd_gradient(state.balls, state.diagram, 1e-7 * scale, on_flip="ignore")
    gmax = max(max(abs(g) for g in row) for row in grads)
    assert gmax <= 1e-6 * scale


def test_frozen_gradient_square_cell_slope():
    # frozen square cell with the ball center offset by d: F_I = d^2/2,
    # so the frozen-combinatorics derivative w.r.t. the offset is d
    d = 1e-3
    _, idx, cell, _ = center_cell()
    aux = aux_triangulate_cell(cell)
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


def test_run_jittered_grid_converges():
    rng = philox(44)
    balls = jittered_grid(rng, 5, fix_boundary=True)
    scale = bbox_diag(balls)
    cfg = OptimizerConfig(
        theta=0.5, max_iters=500, tau_tol=1e-8 * scale * scale, mode="hybrid"
    )
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
    orig = dmod.aux_triangulate_cell

    def spy(cell, domain=None):
        calls.append(cell)
        return orig(cell, domain)

    per_iteration = []

    def on_iteration(state):
        per_iteration.append((state.diagram, list(calls)))
        calls.clear()

    dmod.aux_triangulate_cell = spy
    try:
        run(balls, OptimizerConfig(theta=0.5, max_iters=5), on_iteration=on_iteration)
    finally:
        dmod.aux_triangulate_cell = orig
    assert not calls  # nothing is triangulated after the last rebuild
    assert len(per_iteration) == 6
    for diagram, cells in per_iteration:
        assert diagram.aux
        assert sorted(c.ball_index for c in cells) == sorted(diagram.aux)
        assert all(diagram.cells[c.ball_index] is c for c in cells)


def test_run_computes_proposals_once_per_iteration():
    # the elimination bookkeeping and relax_step share one set of
    # proposals, so heuristic_center runs once per usable cell
    import radmesh.dirichlet as dmod

    rng = philox(49)
    balls = jittered_grid(rng, 5, fix_boundary=True)
    calls = []
    orig = dmod.heuristic_center

    def spy(cell, aux):
        calls.append(cell.ball_index)
        return orig(cell, aux)

    seen = []  # (diagram, heuristic_center calls since the previous iteration)

    def on_iteration(state):
        seen.append((state.diagram, list(calls)))
        calls.clear()

    dmod.heuristic_center = spy
    try:
        run(balls, OptimizerConfig(theta=0.5, max_iters=5), on_iteration=on_iteration)
    finally:
        dmod.heuristic_center = orig
    assert not calls  # the last iteration only stops
    assert len(seen) == 6
    for (diagram, _), (_, balls_updated) in zip(seen, seen[1:]):
        assert diagram.aux
        assert sorted(balls_updated) == sorted(diagram.aux)


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
    orig = dmod.heuristic_radius

    def spy(c_new, verts):
        r = orig(c_new, verts)
        calls.append((c_new, list(verts), r))
        return r

    dmod.heuristic_radius = spy
    try:
        run(balls, OptimizerConfig(theta=0.5, max_iters=20))
    finally:
        dmod.heuristic_radius = orig
    assert calls
    for c, verts, r in calls:
        s = sum(
            (v[0] - c[0]) ** 2 + (v[1] - c[1]) ** 2 - r * r for v in verts
        )
        assert abs(s) <= 1e-9 * len(verts) * scale * scale
