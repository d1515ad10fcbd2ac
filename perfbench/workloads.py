"""The benchmark's workloads: inputs, the timed operation and its checks.

Each workload builds one fixed scene (``scene_seed``) with radmesh's own
generators.  The benchmark seed only permutes the order in which the balls
or points reach the program, so every seed does the same geometric work:
with the scene seed varied instead, the square scene needs 39 to 69
iterations and the letter-mask scene sometimes converges, which would make
run-to-run timing comparisons meaningless (see README.md).

The operations call radmesh through module attributes (``dirichlet.run``,
``recovery.recover_spheres``), so that the traced run's wrappers see them.
Checks use the tolerances of tests/test_acceptance.py and never loosen them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import ConvexHull

from radmesh import diagram, dirichlet, recovery, scene, triangulation
from radmesh.geom import Ball

# Block letters "N" and "G" and the domain of scripts/masked_lattice.py,
# copied so that editing the script cannot change the workload.
LETTER_N = [
    (1.0, 1.0), (2.0, 1.0), (2.0, 4.0), (3.0, 1.0), (4.0, 1.0),
    (4.0, 6.0), (3.0, 6.0), (3.0, 3.0), (2.0, 6.0), (1.0, 6.0),
]
LETTER_G = [
    (5.0, 1.0), (8.0, 1.0), (8.0, 4.0), (6.5, 4.0), (6.5, 3.0),
    (7.0, 3.0), (7.0, 2.0), (6.0, 2.0), (6.0, 5.0), (8.0, 5.0),
    (8.0, 6.0), (5.0, 6.0),
]
MASK_DOMAIN = [(0.0, 0.0), (9.0, 0.0), (9.0, 7.0), (0.0, 7.0)]

# traced entry points every workload that runs the optimizer must hit
_OPTIMIZER_SITES = (
    "radmesh.dirichlet.run",
    "radmesh.dirichlet.build_regular",
    "radmesh.dirichlet.extract_diagram",
    "radmesh.dirichlet.aux_triangulate_cell",
    "radmesh.dirichlet.evaluate_FI",
    "radmesh.dirichlet.relax_step",
    "numpy.linalg.lstsq",
    "radmesh.geom.power_test",
    "radmesh.geom.orient2d",
    "radmesh.geom.circumcenter",
)


@dataclass
class Outcome:
    """What one operation produced."""

    balls: int  # balls the operation worked on
    iterations: int
    fi_initial: float
    fi_final: float
    tau_final: float
    diag: float
    final: list[Ball]
    state: object = None  # OptimizerState for the optimizer workloads

    def fingerprint(self) -> tuple:
        """Bit-exact identity of the outputs, for the determinism check."""
        return (
            self.iterations,
            self.fi_final,
            self.tau_final,
            tuple((b.center, b.radius, b.alive) for b in self.final),
        )


def permuted(items: list, seed: int) -> list:
    """``items`` in the order drawn from the benchmark seed."""
    order = np.random.Generator(np.random.Philox(seed)).permutation(len(items))
    return [items[k] for k in order]


def _optimize(balls: list[Ball], max_iters: int, on_iteration) -> Outcome:
    diag = dirichlet.bbox_diag(balls)
    cfg = dirichlet.OptimizerConfig(
        theta=0.5, max_iters=max_iters, tau_tol=1e-8 * diag * diag, mode="hybrid"
    )
    state = dirichlet.run(balls, cfg, on_iteration)
    return Outcome(
        balls=len(balls),
        iterations=len(state.history),
        fi_initial=state.history[0].fi,
        fi_final=state.fi,
        tau_final=state.max_abs_tau,
        diag=diag,
        final=state.balls,
        state=state,
    )


class SquareHybrid:
    """The paper's headline scene run to convergence (criterion-4 settings)."""

    name = "square-hybrid"
    scene_seed = 7
    held_out_seed = 9001
    tail_pct = 90  # three solves give 114 intervals, so at least ten lie beyond the p90
    min_ops = 3
    sites = _OPTIMIZER_SITES

    def __init__(self, spacing: float = 0.30):
        self.spacing = spacing

    def generate(self, scene_seed: int) -> scene.Scene:
        return scene.gen_square_with_circle(
            10.0, 2.0, 0.8, interior_spacing=self.spacing, seed=scene_seed
        )

    def inputs(self, sc: scene.Scene, seed: int) -> list[Ball]:
        return permuted(sc.balls, seed)

    def op(self, balls: list[Ball], on_iteration) -> Outcome:
        return _optimize(balls, 2000, on_iteration)

    def check(self, out: Outcome) -> list[str]:
        """Criterion 4 of tests/test_acceptance.py."""
        failed = []
        if not out.state.converged:
            failed.append("converged")
        if out.tau_final > 1e-8 * out.diag**2:
            failed.append("max_abs_tau")
        if out.fi_initial / max(out.fi_final, 1e-300) < 100.0:
            failed.append("fi_drop>=100")
        t = triangulation.build_regular(out.final)
        d = diagram.extract_diagram(t, out.final)
        if diagram.delaunay_limit_violations(t, d, out.final, 1e-6 * out.diag):
            failed.append("delaunay_limit_violations")
        return failed


class MaskPlateau:
    """The letter-mask scene for a fixed budget; F_I plateaus by design."""

    name = "mask-plateau"
    scene_seed = 0
    held_out_seed = 9002
    max_iters = 200
    tail_pct = 95  # one solve gives 200 intervals, so ten lie beyond the p95
    min_ops = 3  # the p95 of one solve's 200 samples alone spreads too much from run to run
    sites = _OPTIMIZER_SITES

    def generate(self, scene_seed: int) -> scene.Scene:
        return scene.gen_masked_lattice(
            [LETTER_N, LETTER_G], 0.5, 0.15, seed=scene_seed, domain=MASK_DOMAIN
        )

    def inputs(self, sc: scene.Scene, seed: int) -> list[Ball]:
        return permuted(sc.balls, seed)

    def op(self, balls: list[Ball], on_iteration) -> Outcome:
        return _optimize(balls, self.max_iters, on_iteration)

    def check(self, out: Outcome) -> list[str]:
        """The whole budget is spent and the final triangulation is regular.

        A Diverged or DegenerateScene raised by ``run`` is counted by the
        caller, since the operation then returns no outcome.
        """
        failed = []
        if out.state.converged or out.state.iteration != self.max_iters:
            failed.append("whole_budget")
        t = triangulation.build_regular(out.final)
        if triangulation.verify_regular(t, out.final):
            failed.append("verify_regular")
        return failed


class RecoverLattice:
    """Circle recovery from a jittered 50x50 lattice plus its F_I certificate."""

    name = "recover-lattice"
    scene_seed = 1007
    held_out_seed = 9003
    n = 50
    jitter = 0.25
    # Six to eight recoveries a run leave no percentile with ten samples
    # beyond it, and their maximum spread 0.28 over ten runs, so the "tail"
    # is the median recovery.
    tail_pct = 50
    min_ops = 6
    sites = (
        "radmesh.recovery.recover_spheres",
        "radmesh.recovery.Delaunay",
        "radmesh.triangulation.build_regular",
        "radmesh.diagram.extract_diagram",
        "radmesh.dirichlet.evaluate_FI",
        "radmesh.dirichlet.aux_triangulate_cell",
        "radmesh.geom.power_test",
        "radmesh.geom.orient2d",
        "radmesh.geom.circumcenter",
    )

    def generate(self, scene_seed: int) -> scene.Scene:
        """The point set as a scene of zero-radius balls, as ``radmesh recover`` reads it."""
        rng = np.random.Generator(np.random.Philox(scene_seed))
        n, a = self.n, self.jitter
        pts = [
            (float(i + dx), float(j + dy))
            for i in range(n)
            for j in range(n)
            for dx, dy in [rng.uniform(-a, a, 2)]
        ]
        lo, hi = -0.5, n - 0.5
        domain = [(lo, lo), (hi, lo), (hi, hi), (lo, hi)]
        return scene.Scene([Ball(p, 0.0) for p in pts], domain)

    def inputs(self, sc: scene.Scene, seed: int) -> list[tuple[float, float]]:
        return permuted([b.center for b in sc.balls if b.alive], seed)

    def op(self, points, on_iteration) -> Outcome:
        """Recover the circles, then build the criterion-3 certificate."""
        xs = [p[0] for p in points]
        ys = [p[1] for p in points]
        diag = math.hypot(max(xs) - min(xs), max(ys) - min(ys))
        balls = recovery.recover_spheres(points, cluster_eps=1e-12 * diag)
        hull = ConvexHull(np.asarray(points))
        domain = [points[k] for k in hull.vertices]
        t = triangulation.build_regular(balls)
        d = diagram.extract_diagram(t, balls, domain=domain)
        fi = dirichlet.evaluate_FI(balls, d)
        return Outcome(
            balls=len(balls),
            iterations=1,
            fi_initial=fi,
            fi_final=fi,
            tau_final=d.max_abs_tau(),
            diag=diag,
            final=balls,
        )

    def check(self, out: Outcome) -> list[str]:
        """Criterion 3 of tests/test_acceptance.py."""
        failed = []
        if out.fi_final > 1e-18 * out.diag**4:
            failed.append("fi_certificate")
        if out.tau_final > 1e-10 * out.diag**2:
            failed.append("max_abs_tau")
        return failed


WORKLOADS = {w.name: w for w in (SquareHybrid(), MaskPlateau(), RecoverLattice())}
