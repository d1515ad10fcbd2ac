#!/usr/bin/env python3
"""radmesh benchmark: time to a converged mesh and to recovered circles.

One workload, as BENCHMARK.json's command runs it (last line is the result):

    python3 perfbench/run.py --workload square-hybrid --seed 0 --seconds 30 --trace 0

Every end-to-end metric of every workload, as a table:

    python3 perfbench/run.py --all [--seed 0] [--seconds 30]

The ungated scaling sweep of square-hybrid (spacing 0.45/0.30/0.22 gives
233/441/711 balls):

    python3 perfbench/run.py --sweep

Each workload runs in a fresh worker process (worker.py) whose environment
pins the BLAS and OpenMP thread pools to one thread.  See README.md.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("square-hybrid", "mask-plateau", "recover-lattice")
PINNED = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
WORKER_TIMEOUT_S = 170
SWEEP_SPACINGS = (0.45, 0.30, 0.22)
SWEEP_TIMEOUT_S = 3600
SWEEP_LAYERS = (
    "triangulation.build_regular.self_s",
    "geom.power_test.self_s",
    "geom.orient2d.self_s",
    "diagram.extract_diagram.self_s",
    "dirichlet.aux_triangulate_cell.self_s",
    "dirichlet.evaluate_FI.self_s",
    "dirichlet.relax_step.self_s",
    "dirichlet.lstsq.self_s",
    "dirichlet.run.self_s",
)


def run_worker(argv: list[str], timeout: float) -> tuple[int, list[str]]:
    """Run worker.py in its own process group; return its code and stdout lines."""
    env = dict(os.environ)
    env.update(PINNED)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *argv],
        env=env, stdout=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return proc.returncode, out.splitlines()


def parse(lines: list[str]) -> tuple[dict, dict]:
    """The worker's first info line and its result line."""
    info = next(json.loads(l.split(" ", 1)[1]) for l in lines
                if l.startswith("perfbench-info {"))
    return info, json.loads(lines[-1])


def run_all(args) -> int:
    results, ok = {}, True
    for name in WORKLOADS:
        code, lines = run_worker(
            ["--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", "0"],
            WORKER_TIMEOUT_S,
        )
        if code != 0:
            print(f"perfbench: {name} failed with exit code {code}", file=sys.stderr)
            return code
        info, result = parse(lines)
        ok &= result["correct"]
        results[name] = {**result, "ungated": {
            k: info[k] for k in ("fi_drop", "tau_final_rel", "fail_rate",
                                 "tail_percentile", "tail_samples")}}
        print(f"\n{name}  (seed {args.seed}, scene seed {info['scene_seed']}, "
              f"{info['balls']} balls, correct={result['correct']})")
        for metric, v in result["metrics"].items():
            print(f"  {metric:<18} {v['value']:>14.6g} {v['unit']}")
        print(f"  {'fi_drop':<18} {info['fi_drop']:>14.6g} ratio")
        print(f"  {'tau_final_rel':<18} {info['tau_final_rel']:>14.6g} ratio")
        print(f"  {'fail_rate':<18} {info['fail_rate']:>14.6g} "
              f"({result['failed']}/{result['attempted']})")
        print(f"  iter_ms.tail is p{info['tail_percentile']} of "
              f"{info['tail_samples']} samples")
    print(json.dumps(results))
    return 0 if ok else 1


def run_sweep(args) -> int:
    rows = []
    print("balls  iters  solve_s  ms/iter  " + "  ".join(SWEEP_LAYERS))
    for spacing in SWEEP_SPACINGS:
        code, lines = run_worker(
            ["--workload", "square-hybrid", "--spacing", str(spacing),
             "--seed", str(args.seed), "--seconds", "0", "--trace", "1"],
            SWEEP_TIMEOUT_S,
        )
        if code != 0:
            print(f"perfbench: sweep at spacing {spacing} failed", file=sys.stderr)
            return code
        info, result = parse(lines)
        layers = {k: result["metrics"][k]["value"] for k in SWEEP_LAYERS}
        row = {"spacing": spacing, "balls": info["balls"],
               "iterations": info["iterations"], "solve_s": info["solve_s"],
               "ms_per_iter": 1e3 * info["solve_s"] / info["iterations"],
               "correct": result["correct"], "self_s": layers}
        rows.append(row)
        print(f"{row['balls']:>5}  {row['iterations']:>5}  {row['solve_s']:>7.2f}  "
              f"{row['ms_per_iter']:>7.1f}  "
              + "  ".join(f"{layers[k]:.2f}" for k in SWEEP_LAYERS), flush=True)
    print(json.dumps(rows))
    return 0 if all(r["correct"] for r in rows) else 1


def main() -> int:
    # a terminated runner unwinds through run_worker, which kills the worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    spec_path = ROOT / "BENCHMARK.json"
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload", choices=WORKLOADS)
    mode.add_argument("--all", action="store_true")
    mode.add_argument("--sweep", action="store_true")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scene-seed", type=int, default=None,
                    help="replace the workload's fixed scene (for defect reproduction)")
    args = ap.parse_args()

    if not (SRC / "radmesh" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"perfbench: {ROOT} lacks src/radmesh or BENCHMARK.json", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = json.loads(spec_path.read_text())["run_seconds"]
    if args.all:
        return run_all(args)
    if args.sweep:
        return run_sweep(args)

    argv = ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.scene_seed is not None:
        argv += ["--scene-seed", str(args.scene_seed)]
    try:
        code, lines = run_worker(argv, WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {args.workload} exceeded {WORKER_TIMEOUT_S} s", file=sys.stderr)
        return 3
    for line in lines:
        print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
