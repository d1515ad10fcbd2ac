"""Acceptance gate: the eight end-to-end criteria at their stated tolerances.

Each test pins the tolerance and runtime budget it must meet; helper
oracles (scipy Delaunay, finite differences) are independent of the
implementation under test.
"""

import math
import time

import numpy as np

from radmesh import geom
from radmesh.diagram import (
    delaunay_limit_violations,
    dual_height,
    extract_diagram,
)
from radmesh.dirichlet import (
    OptimizerConfig,
    bbox_diag,
    evaluate_FI,
    run,
)
from radmesh.geom import Ball, power
from radmesh.recovery import recover_spheres
from radmesh.scene import gen_square_with_circle
from radmesh.triangulation import build_regular, verify_regular

from conftest import (
    cell_fi,
    cell_polygon,
    cell_triangles,
    edge_set,
    fd_gradient,
    frozen_center_gradient,
    jittered_grid,
    orthocenter,
    philox,
    random_balls,
)
from test_triangulation import delaunay_edge_oracle


# --------------------------------------------------------------------------
# 1. regular-triangulation oracle equivalence, 200 scenes, < 10 s


def test_criterion_1_triangulation_oracle():
    t0 = time.perf_counter()
    rng = philox(1001)
    for k in range(200):
        n = int(rng.integers(4, 41))
        balls = random_balls(rng, n)
        t = build_regular(balls)
        assert verify_regular(t, balls) == []
        if k % 2 == 0:
            # equal radii: the regular triangulation is the plain Delaunay
            eq = [Ball(b.center, 1.0) for b in balls]
            te = build_regular(eq)
            assert edge_set(te) == delaunay_edge_oracle([b.center for b in eq])
    assert time.perf_counter() - t0 < 10.0


# --------------------------------------------------------------------------
# 2. duality identities on 1000 random triangles


def test_criterion_2_duality_identities():
    rng = philox(1002)
    done = 0
    while done < 1000:
        pts = rng.uniform(-5.0, 5.0, (3, 2))
        if abs(geom.triangle_area(*map(tuple, pts))) < 1e-2:
            continue
        balls = [
            Ball((float(x), float(y)), float(r))
            for (x, y), r in zip(pts, rng.uniform(0.0, 2.0, 3))
        ]
        v, tau = orthocenter(*balls)
        tol = 1e-10 * (1.0 + v[0] * v[0] + v[1] * v[1])
        powers = [power(b, v) for b in balls]
        assert max(powers) - min(powers) <= tol
        assert abs(powers[0] - tau) <= tol
        z = dual_height(v, tau)
        heights = geom.lifted_heights(pts, np.array([b.radius for b in balls]))
        for b, h in zip(balls, heights.tolist()):
            vc = v[0] * b.center[0] + v[1] * b.center[1]
            assert abs(z - (vc - h)) <= tol
        done += 1


# --------------------------------------------------------------------------
# 3. F_I certificate: Delaunay circles give F_I = 0 at iteration 0


def test_criterion_3_fi_certificate():
    from scipy.spatial import ConvexHull

    for seed in (1003, 1, 2, 3):
        rng = philox(seed)
        pts = [
            (float(i + dx), float(j + dy))
            for i in range(6)
            for j in range(6)
            for dx, dy in [rng.uniform(-0.25, 0.25, 2)]
        ]
        xs = [p[0] for p in pts]
        ys = [p[1] for p in pts]
        scale = math.hypot(max(xs) - min(xs), max(ys) - min(ys))
        # the Delaunay circles of the exact points; only round-off-level
        # cocircularities need merging
        balls = recover_spheres(pts, cluster_eps=1e-12 * scale)
        hull = ConvexHull(np.asarray(pts))
        domain = [pts[k] for k in hull.vertices]
        t = build_regular(balls)
        d = extract_diagram(t, balls, domain=domain)
        assert evaluate_FI(balls, d) <= 1e-18 * scale**4
        assert d.max_abs_tau() <= 1e-10 * scale * scale


# --------------------------------------------------------------------------
# 4. convergence reproduction on the square-with-circle scene, < 120 s


def test_criterion_4_square_with_circle_convergence():
    t0 = time.perf_counter()
    scene = gen_square_with_circle(10.0, 2.0, 0.8, interior_spacing=0.45, seed=7)
    assert 200 <= len(scene.balls) <= 400
    scale = bbox_diag(scene.balls)
    cfg = OptimizerConfig(theta=0.5, max_iters=2000, tau_tol=1e-8 * scale * scale)
    state = run(scene.balls, cfg)
    assert state.converged
    assert state.max_abs_tau <= 1e-8 * scale * scale
    assert state.history[0].fi / max(state.fi, 1e-300) >= 100.0
    t = build_regular(state.balls)
    d = extract_diagram(t, state.balls)
    assert delaunay_limit_violations(t, d, state.balls, 1e-6 * scale) == []
    assert time.perf_counter() - t0 < 120.0

    # the check still reports a real violation on the converged state: a
    # non-incident ball pushed into the circle through a bounded free cell's
    # vertices by twice the margin is flagged, by half the margin it is
    # not.  A cell of three vertices has one such circle, so the depth set
    # here is the depth the check reads.
    final, margin = state.balls, 1e-6 * scale
    cell = int(np.flatnonzero(d.bounded & d.free & (np.diff(d.offsets) == 3))[0])
    pts = cell_polygon(d, cell)
    cx, cy = geom.circumcenter(*pts)
    rad = math.hypot(pts[0][0] - cx, pts[0][1] - cy)
    verts = d.cell_vertices[d.offsets[cell] : d.offsets[cell + 1]]
    incident = set(t.tris[np.isin(d.vertex_of, verts)].ravel().tolist())
    others = [j for j, b in enumerate(final) if b.alive and d.has_cell[j] and j not in incident]
    j = min(others, key=lambda j: math.hypot(final[j].center[0] - cx, final[j].center[1] - cy))
    dist = math.hypot(final[j].center[0] - cx, final[j].center[1] - cy)
    ux, uy = (final[j].center[0] - cx) / dist, (final[j].center[1] - cy) / dist
    for depth, flagged in ((2.0, True), (0.5, False)):
        probe = list(final)
        r = rad - depth * margin
        probe[j] = Ball((cx + r * ux, cy + r * uy), final[j].radius)
        assert ((cell, j) in delaunay_limit_violations(t, d, probe, margin)) is flagged


# --------------------------------------------------------------------------
# 5. gradient checks


def test_criterion_5_frozen_gradient_matches_fd():
    rng = philox(1005)
    checked = 0
    while checked < 50:
        balls = random_balls(rng, int(rng.integers(15, 30)))
        t = build_regular(balls)
        d = extract_diagram(t, balls)
        scale = bbox_diag(balls)
        h = 1e-6 * scale
        for i in np.flatnonzero(d.bounded).tolist():
            if checked >= 50:
                break
            aux = cell_triangles(cell_polygon(d, i), i)
            c = balls[i].center
            gx, gy = frozen_center_gradient(c, aux)
            fdx = (cell_fi((c[0] + h, c[1]), aux) - cell_fi((c[0] - h, c[1]), aux)) / (2 * h)
            fdy = (cell_fi((c[0], c[1] + h), aux) - cell_fi((c[0], c[1] - h), aux)) / (2 * h)
            norm = math.hypot(gx, gy)
            if norm < 1e-9 * scale:
                continue  # relative comparison is meaningless at a stationary cell
            assert math.hypot(gx - fdx, gy - fdy) <= 1e-5 * norm
            checked += 1


def test_criterion_5_full_fd_gradient_at_convergence():
    # The full gradient vanishes at a converged configuration only where
    # adjacent circumradii agree: a probe that breaks a tie reassigns a
    # region of area O(h) between cells whose integrands differ by
    # R_i^2 - R_k^2, so F_I has a kinked minimum whenever radii differ.
    # The unjittered lattice optimum has all radii equal, so the claim is
    # exact there.  Probes still flip tie diagonals at any h (every original
    # lattice point is a degenerate diagram vertex); F_I is continuous
    # across those flips, hence on_flip="ignore".
    n = 5
    balls = []
    for i in range(n):
        for j in range(n):
            fix = i in (0, n - 1) or j in (0, n - 1)
            balls.append(Ball((float(i), float(j)), 0.5, fix_center=fix))
    scale = bbox_diag(balls)
    state = run(
        balls, OptimizerConfig(theta=0.5, max_iters=500, tau_tol=1e-12 * scale * scale)
    )
    assert state.converged
    grads = fd_gradient(state.balls, state.diagram, 1e-7 * scale, on_flip="ignore")
    gmax = max(max(abs(g) for g in row) for row in grads)
    assert gmax <= 1e-6 * scale


# --------------------------------------------------------------------------
# 6. radius update zero-sum after every heuristic_radius call


def test_criterion_6_radius_update_zero_sum(monkeypatch):
    import radmesh.dirichlet as dmod

    rng = philox(1006)
    balls = jittered_grid(rng, 5, fix_boundary=True)
    scale = bbox_diag(balls)
    calls = []
    orig = dmod._radii

    def spy(diagram, ids, centers):
        radii = orig(diagram, ids, centers)
        for i, c, r in zip(ids.tolist(), centers.tolist(), radii.tolist()):
            calls.append((c, cell_polygon(diagram, i), r))
        return radii

    monkeypatch.setattr(dmod, "_radii", spy)
    run(balls, OptimizerConfig(theta=0.5, max_iters=30))
    assert calls
    for c, verts, r in calls:
        total = sum(
            (v[0] - c[0]) ** 2 + (v[1] - c[1]) ** 2 - r * r for v in verts
        )
        assert abs(total) <= 1e-9 * len(verts) * scale * scale


# --------------------------------------------------------------------------
# 7. sphere recovery round-trip on jittered lattices, < 5 s


def expected_lattice_circles(n):
    return [
        ((i + 0.5, j + 0.5), math.sqrt(2.0) / 2.0)
        for i in range(n - 1)
        for j in range(n - 1)
    ]


def clipped_cell_polygon(d, i, domain, eps):
    """Ball ``i``'s cell clipped to the domain with near-duplicate vertices removed."""
    from radmesh.diagram import clip_cells

    xy, _ = clip_cells(*d.positions(np.array([i])), d.rays[[i]], domain)
    out = []
    for p in xy.tolist():
        if not out or math.hypot(p[0] - out[-1][0], p[1] - out[-1][1]) > eps:
            out.append(p)
    if len(out) > 1 and math.hypot(out[0][0] - out[-1][0], out[0][1] - out[-1][1]) <= eps:
        out.pop()
    return out


def test_criterion_7_recovery_round_trip():
    t0 = time.perf_counter()
    rng = philox(1007)
    for n in range(3, 9):
        pts = [(float(i), float(j)) for i in range(n) for j in range(n)]
        diag = math.hypot(n - 1, n - 1)
        jit = [
            (x + float(d[0]), y + float(d[1]))
            for (x, y), d in zip(pts, rng.uniform(-1.0, 1.0, (n * n, 2)) * 1e-9 * diag)
        ]
        balls = recover_spheres(jit)
        expect = expected_lattice_circles(n)
        assert len(balls) == len(expect)
        # circles within 1e-6 of the unperturbed Delaunay circles
        index_of = {}
        for gi, (c, r) in enumerate(expect):
            b = min(
                range(len(balls)),
                key=lambda k: math.hypot(
                    balls[k].center[0] - c[0], balls[k].center[1] - c[1]
                ),
            )
            assert math.hypot(
                balls[b].center[0] - c[0], balls[b].center[1] - c[1]
            ) <= 1e-6
            assert abs(balls[b].radius - r) <= 1e-6
            index_of[(round(c[0] - 0.5), round(c[1] - 0.5))] = b
        assert len(set(index_of.values())) == len(expect)
        # radical-partition combinatorics equal the unperturbed Delaunay
        # partition: within the domain each recovered circle's power cell is
        # exactly its Delaunay polygon (the unit square of the lattice)
        t = build_regular(balls)
        domain = [(0.0, 0.0), (n - 1.0, 0.0), (n - 1.0, n - 1.0), (0.0, n - 1.0)]
        d = extract_diagram(t, balls, domain=domain)
        tol = 1e-6 * diag
        for (i, j), bi in index_of.items():
            poly = clipped_cell_polygon(d, bi, domain, tol)
            corners = [(i, j), (i + 1, j), (i + 1, j + 1), (i, j + 1)]
            assert len(poly) == 4
            for cx, cy in corners:
                assert any(
                    math.hypot(px - cx, py - cy) <= tol for px, py in poly
                )
    assert time.perf_counter() - t0 < 5.0


# --------------------------------------------------------------------------
# 8. determinism: byte-identical history.csv


def test_criterion_8_determinism(tmp_path, capsys):
    from radmesh.cli import main

    scene = tmp_path / "scene.json"
    args = [
        "generate", "square-circle",
        "--side", "10.0", "--inner-radius", "2.0", "--spacing", "0.8",
        "--interior-spacing", "0.45", "--seed", "7", "-o", str(scene),
    ]
    assert main(args) == 0
    capsys.readouterr()
    histories = []
    for name in ("run1", "run2"):
        out = tmp_path / name
        assert main(
            ["optimize", str(scene), "-o", str(out), "--theta", "0.5", "--max-iters", "300"]
        ) == 0
        # the default optimizer reaches tau_tol within the budget
        assert capsys.readouterr().out.startswith("converged at iteration")
        histories.append((out / "history.csv").read_bytes())
    assert histories[0] == histories[1]
    assert len(histories[0]) > 0
