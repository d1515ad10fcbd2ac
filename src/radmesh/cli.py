"""Command-line driver: generate, optimize, verify, recover, render."""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

from . import dirichlet, recovery, render, scene as scene_mod
from .diagram import extract_diagram
from .errors import ParseError, RadmeshError
from .triangulation import build_regular, verify_hull, verify_regular


def _add_generate(sub):
    p = sub.add_parser("generate", help="generate an experiment scene")
    kind = p.add_subparsers(dest="kind", required=True)

    sq = kind.add_parser("square-circle", help="square domain with protected inner circle")
    sq.add_argument("--side", type=float, default=10.0)
    sq.add_argument("--inner-radius", type=float, default=2.0)
    sq.add_argument("--spacing", type=float, default=0.8)
    sq.add_argument("--layers", type=int, default=2)
    sq.add_argument("--interior-spacing", type=float, default=None)
    sq.add_argument("--jitter", type=float, default=None)
    sq.add_argument("--seed", type=int, default=0)
    sq.add_argument("-o", "--output", required=True)

    ml = kind.add_parser("masked-lattice", help="lattice with fixed circles inside masks")
    ml.add_argument("--mask", action="append", default=[],
                    help="mask polygon as x1,y1,x2,y2,... (repeatable)")
    ml.add_argument("--spacing", type=float, default=0.1)
    ml.add_argument("--jitter", type=float, default=0.02)
    ml.add_argument("--seed", type=int, default=0)
    ml.add_argument("-o", "--output", required=True)


def _add_optimize(sub):
    p = sub.add_parser("optimize", help="run the Dirichlet-functional iteration")
    p.add_argument("scene")
    p.add_argument("-o", "--output", required=True, help="output directory")
    p.add_argument("--theta", type=float, default=None)
    p.add_argument("--tau-tol", type=float, default=None)
    p.add_argument("--max-iters", type=int, default=None)
    p.add_argument("--eliminate-redundant", action="store_true", default=None)
    p.add_argument("--frames", type=int, default=0, metavar="N",
                   help="write an SVG frame every N iterations")


def _parse_mask(text):
    try:
        vals = [float(v) for v in text.split(",")]
    except ValueError as e:
        raise ParseError(f"mask coordinates must be numbers, got {text!r}") from e
    if len(vals) < 6 or len(vals) % 2:
        raise RadmeshError(f"mask needs >= 3 x,y pairs, got {text!r}")
    return list(zip(vals[0::2], vals[1::2]))


def _cmd_generate(args) -> int:
    if args.kind == "square-circle":
        sc = scene_mod.gen_square_with_circle(
            args.side, args.inner_radius, args.spacing, args.layers,
            args.interior_spacing, args.jitter, args.seed,
        )
    else:
        masks = [_parse_mask(m) for m in args.mask]
        sc = scene_mod.gen_masked_lattice(masks, args.spacing, args.jitter, args.seed)
    scene_mod.validate_scene(sc)
    scene_mod.save_scene(sc, args.output)
    print(f"wrote {args.output} ({len(sc.balls)} balls)")
    return 0


def _cmd_optimize(args) -> int:
    sc = scene_mod.load_scene(args.scene)
    overrides = {n: getattr(args, n) for n in scene_mod.PARAMS if getattr(args, n) is not None}
    try:
        cfg = dataclasses.replace(sc.params, **overrides)  # validates the flags
        if args.frames < 0:
            raise ValueError(f"frames must be >= 0, got {args.frames}")
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    os.makedirs(args.output, exist_ok=True)

    frame_cb = None
    if args.frames > 0:
        spec = render.RenderSpec(("power_diagram", "balls", "orthocircles", "domain"))

        def frame_cb(state):
            if state.iteration % args.frames == 0:
                frame = os.path.join(args.output, f"frame_{state.iteration:05d}.svg")
                frame_scene = scene_mod.Scene(state.balls, sc.domain, cfg, sc.rng_seed)
                render.render_svg(frame_scene, state.diagram, None, spec, frame)

    state = dirichlet.run(sc.balls, cfg, on_iteration=frame_cb)
    dirichlet.write_history_csv(state.history, os.path.join(args.output, "history.csv"))
    final = scene_mod.Scene(state.balls, sc.domain, cfg, sc.rng_seed)
    scene_mod.save_scene(final, os.path.join(args.output, "final_scene.json"))
    status = "converged" if state.converged else "stopped"
    print(
        f"{status} at iteration {state.iteration}: "
        f"F_I={state.fi:.6e} max|tau|={state.max_abs_tau:.6e}"
    )
    return 0


def _cmd_verify(args) -> int:
    sc = scene_mod.load_scene(args.scene)
    t = build_regular(sc.balls)
    violations = verify_regular(t, sc.balls)
    outside = verify_hull(t, sc.balls)
    if violations:
        print(f"FAIL: {len(violations)} regularity violations", file=sys.stderr)
        for ti, bi in violations[:20]:
            print(f"  triangle {ti} vs ball {bi}", file=sys.stderr)
    if outside:
        print(f"FAIL: {len(outside)} centers outside the hull", file=sys.stderr)
        for ti, bi in outside[:20]:
            print(f"  ball {bi} right of the hull edge of triangle {ti}", file=sys.stderr)
    if violations or outside:
        return 1
    print(f"ok: {len(t.tris)} triangles, no regularity violations, no center outside the hull")
    return 0


def _cmd_recover(args) -> int:
    sc = scene_mod.load_scene(args.scene)
    points = [b.center for b in sc.balls if b.alive]
    try:  # the recovery rejects negative or non-finite tolerances
        if args.vertex_eps:
            points = recovery.vertex_cluster_merge(points, args.vertex_eps)
        balls = recovery.recover_spheres(points, args.cluster_eps)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    out = scene_mod.Scene(balls, sc.domain, sc.params, sc.rng_seed)
    scene_mod.save_scene(out, args.output)
    print(f"recovered {len(balls)} circles from {len(points)} points")
    return 0


def _cmd_render(args) -> int:
    sc = scene_mod.load_scene(args.scene)
    t = build_regular(sc.balls)
    d = extract_diagram(t, sc.balls, domain=sc.domain)
    layers = tuple(args.layers.split(","))
    try:
        spec = render.RenderSpec(layers)
    except ValueError as e:
        raise RadmeshError(str(e)) from e
    render.render_svg(sc, d, t, spec, args.output)
    print(f"wrote {args.output}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="radmesh",
        description="Polygonal Delaunay meshing by evolving power diagrams",
    )
    sub = p.add_subparsers(dest="command", required=True)
    _add_generate(sub)
    _add_optimize(sub)

    v = sub.add_parser("verify", help="check a scene's regular triangulation and its hull")
    v.add_argument("scene")

    r = sub.add_parser("recover", help="recover circles from a point scene")
    r.add_argument("scene")
    r.add_argument("-o", "--output", required=True)
    r.add_argument("--cluster-eps", type=float, default=None)
    r.add_argument("--vertex-eps", type=float, default=0.0)

    rd = sub.add_parser("render", help="render a scene to SVG")
    rd.add_argument("scene")
    rd.add_argument("-o", "--output", required=True)
    rd.add_argument("--layers", default="power_diagram,balls,domain")
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if e.code is not None else 2
    handlers = {
        "generate": _cmd_generate,
        "optimize": _cmd_optimize,
        "verify": _cmd_verify,
        "recover": _cmd_recover,
        "render": _cmd_render,
    }
    try:
        return handlers[args.command](args)
    except (RadmeshError, OSError) as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
