#!/usr/bin/env python3
"""Square-with-circle experiment.

Generates the square scene with a protecting circle inside, runs the
Dirichlet-energy optimizer (relaxation, then the Gauss-Newton polish once it
plateaus), and writes history.csv, the final scene, and before/after SVG
renders to the output directory.

Usage:
    python scripts/square_with_circle.py -o out/square [--side 10.0]
        [--inner-radius 2.0] [--spacing 0.8] [--interior-spacing 0.45]
        [--theta 0.5] [--max-iters 2000] [--seed 7]
"""

import argparse
from pathlib import Path

from radmesh.diagram import extract_diagram
from radmesh.dirichlet import OptimizerConfig, bbox_diag, run, write_history_csv
from radmesh.render import RenderSpec, render_svg
from radmesh.scene import Scene, gen_square_with_circle, save_scene
from radmesh.triangulation import build_regular


def render_state(scene, balls, path):
    snap = Scene(balls, scene.domain, scene.params)
    t = build_regular(balls)
    d = extract_diagram(t, balls, domain=scene.domain)
    render_svg(snap, d, t, RenderSpec(("power_diagram", "balls", "domain")), path)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("-o", "--outdir", type=Path, required=True)
    ap.add_argument("--side", type=float, default=10.0)
    ap.add_argument("--inner-radius", type=float, default=2.0)
    ap.add_argument("--spacing", type=float, default=0.8)
    ap.add_argument("--interior-spacing", type=float, default=0.45)
    ap.add_argument("--theta", type=float, default=0.5)
    ap.add_argument("--max-iters", type=int, default=2000)
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()

    scene = gen_square_with_circle(
        args.side,
        args.inner_radius,
        args.spacing,
        interior_spacing=args.interior_spacing,
        seed=args.seed,
    )
    print(f"generated {len(scene.balls)} balls")
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
