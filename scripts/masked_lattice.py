#!/usr/bin/env python3
"""Masked-lattice (letter mask) experiment.

Places fixed protecting circles on a square lattice inside letter-shaped
mask polygons, scatters jittered free circles around them, runs the
optimizer (relaxation, then the Gauss-Newton polish once it plateaus), and
writes history.csv plus before/after SVG renders.

Usage:
    python scripts/masked_lattice.py -o out/logo [--spacing 0.5]
        [--jitter 0.15] [--theta 0.5] [--max-iters 500] [--seed 0]
"""

import argparse
from pathlib import Path

from radmesh.diagram import extract_diagram
from radmesh.dirichlet import OptimizerConfig, bbox_diag, run, write_history_csv
from radmesh.render import RenderSpec, render_svg
from radmesh.scene import Scene, gen_masked_lattice, save_scene
from radmesh.triangulation import build_regular

# block letters "N" and "G" as simple polygons (counter-clockwise)
LETTER_N = [
    (1.0, 1.0), (2.0, 1.0), (2.0, 4.0), (3.0, 1.0), (4.0, 1.0),
    (4.0, 6.0), (3.0, 6.0), (3.0, 3.0), (2.0, 6.0), (1.0, 6.0),
]
LETTER_G = [
    (5.0, 1.0), (8.0, 1.0), (8.0, 4.0), (6.5, 4.0), (6.5, 3.0),
    (7.0, 3.0), (7.0, 2.0), (6.0, 2.0), (6.0, 5.0), (8.0, 5.0),
    (8.0, 6.0), (5.0, 6.0),
]
DOMAIN = [(0.0, 0.0), (9.0, 0.0), (9.0, 7.0), (0.0, 7.0)]


def render_state(scene, balls, path):
    snap = Scene(balls, scene.domain, scene.params)
    t = build_regular(balls)
    d = extract_diagram(t, balls, domain=scene.domain)
    render_svg(snap, d, t, RenderSpec(("power_diagram", "balls", "domain")), path)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("-o", "--outdir", type=Path, required=True)
    ap.add_argument("--spacing", type=float, default=0.5)
    ap.add_argument("--jitter", type=float, default=0.15)
    ap.add_argument("--theta", type=float, default=0.5)
    ap.add_argument("--max-iters", type=int, default=500)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    scene = gen_masked_lattice(
        [LETTER_N, LETTER_G],
        args.spacing,
        args.jitter,
        seed=args.seed,
        domain=DOMAIN,
    )
    fixed = sum(b.fix_center for b in scene.balls)
    print(f"generated {len(scene.balls)} balls ({fixed} fixed in the letter masks)")
    args.outdir.mkdir(parents=True, exist_ok=True)
    save_scene(scene, args.outdir / "initial_scene.json")
    render_state(scene, scene.balls, args.outdir / "initial.svg")

    scale = bbox_diag(scene.balls)
    cfg = OptimizerConfig(
        theta=args.theta,
        max_iters=args.max_iters,
        tau_tol=1e-8 * scale * scale,
    )
    state = run(scene.balls, cfg)
    print(
        f"{'converged' if state.converged else 'stopped'} after "
        f"{len(state.history)} iterations: F_I={state.fi:.3e} "
        f"max|tau|={state.max_abs_tau:.3e}"
    )

    write_history_csv(state.history, args.outdir / "history.csv")
    save_scene(Scene(state.balls, scene.domain, cfg), args.outdir / "final_scene.json")
    render_state(scene, state.balls, args.outdir / "final.svg")
    print(f"artifacts written to {args.outdir}/")


if __name__ == "__main__":
    main()
