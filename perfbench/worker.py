#!/usr/bin/env python3
"""One run of one benchmark workload, in a process of its own.

run.py starts this file with BLAS threads pinned and ``src`` on the path.
It prints ``perfbench-info`` lines, then the result as one JSON line.
With ``--probe`` it instead measures one set-up (import, scene generation,
``validate_scene`` and a JSON save/load round trip) and prints its times.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import functools  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from radmesh import scene as scene_mod  # noqa: E402
from radmesh.errors import RadmeshError  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

IMPORT_S = time.perf_counter() - _T0

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
PROBES = 9  # set-ups measured per run; setup_s is their median
PROBES_PER_OP = 3  # set-ups measured before each of the first operations
HARD_STOP_S = 100.0  # start no operation after this long, whatever --seconds says
MIN_TRACED = 2  # traced operations per traced run, so the exact counts can be compared
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
REF_LOOPS = 30_000  # one reference slice of pure-Python arithmetic, 2-3.5 ms
REF_NOMINAL_S = 2.2e-3  # a slice on a 2 GHz x86-64 vCPU that no other load slows
EDGE_SLICES = 5  # reference slices before and after each operation and probe

perf_counter = time.perf_counter


@dataclass
class Op:
    """One timed operation and what its checks found.

    ``settle`` drops the operation's output objects once they are checked,
    so that later operations do not run with a larger heap.
    """

    out: workloads.Outcome | None
    elapsed: float  # wall seconds, without the time spent in on_iteration
    ticks: list[tuple[float, float]]  # on_iteration entry and return times
    snaps: list[tuple[int, int, int]]  # traced: (lstsq, relax_step, rebuild) hits per tick
    scale: float  # nominal over measured reference slice time (see ``speed_scale``)
    tracer: spans.Tracer | None
    failures: list[str] = field(default_factory=list)
    fingerprint: tuple | None = None
    layers: dict | None = None  # traced: per-layer metrics
    hits: dict | None = None  # traced: calls per wrapped site


# -- set-up ---------------------------------------------------------------------


def probe(w, scene_seed: int) -> None:
    t0 = perf_counter()
    sc = w.generate(scene_seed)
    scene_mod.validate_scene(sc)
    t1 = perf_counter()
    OUT.mkdir(exist_ok=True)
    path = OUT / f"probe-{os.getpid()}.json"
    try:
        scene_mod.save_scene(sc, path)
        back = scene_mod.load_scene(path)
    finally:
        path.unlink(missing_ok=True)
    t2 = perf_counter()
    print(json.dumps({
        "import_s": IMPORT_S,
        "generate_s": t1 - t0,
        "io_s": t2 - t1,
        "exact": back.balls == sc.balls and back.domain == sc.domain,
    }))


def setup_probe(args) -> dict:
    """One set-up, measured by ``probe`` in a fresh process, and its ``scale``."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe",
           "--workload", args.workload, "--scene-seed", str(args.scene_seed)]
    if args.spacing is not None:
        cmd += ["--spacing", str(args.spacing)]
    refs = ref_slices(EDGE_SLICES)
    r = subprocess.run(cmd, capture_output=True, text=True, timeout=60, check=True)
    refs += ref_slices(EDGE_SLICES)
    return {**json.loads(r.stdout.splitlines()[-1]), "scale": speed_scale(refs)}


# -- machine speed ----------------------------------------------------------------


def ref_slices(n: int) -> list[float]:
    """Seconds taken by each of ``n`` fixed slices of pure-Python arithmetic."""
    out = []
    for _ in range(n):
        t0 = perf_counter()
        acc = 0
        for i in range(REF_LOOPS):
            acc += i * i % 7
        out.append(perf_counter() - t0)
    return out


def speed_scale(refs: list[float]) -> float:
    """Factor that converts wall seconds measured alongside ``refs`` to nominal seconds.

    Other load on the machine slows this process by up to 1.5x for seconds
    to many minutes at a time.  A reference slice slows by the same factor
    at the same moment, so a time multiplied by nominal over measured slice
    time stays put while the wall time moves (see README.md, "Steadiness").
    """
    return REF_NOMINAL_S / statistics.median(refs)


# -- operations -----------------------------------------------------------------


def timed_op(w, inputs, tracer: spans.Tracer | None) -> Op:
    """One operation, with reference slices before, after and (untraced) at each iteration.

    The slices at each iteration track speed changes within the operation;
    traced operations take none there, since they would count as self time
    of ``run``.
    """
    ticks: list[tuple[float, float]] = []
    snaps: list[tuple[int, int, int]] = []
    refs = ref_slices(EDGE_SLICES)
    if tracer is None:
        def on_iteration(state):
            t = perf_counter()
            refs.extend(ref_slices(1))
            ticks.append((t, perf_counter()))
    else:
        hits = tracer.hits

        def on_iteration(state):
            t = perf_counter()
            snaps.append((
                hits["numpy.linalg.lstsq"],
                hits["radmesh.dirichlet.relax_step"],
                hits["radmesh.dirichlet.build_regular"],
            ))
            ticks.append((t, perf_counter()))
    out, error = None, None
    gc.collect()
    t0 = perf_counter()
    try:
        if tracer is None:
            out = w.op(inputs, on_iteration)
        else:
            tracer.install()
            try:
                out = tracer.root(w.op, inputs, on_iteration)
            finally:
                tracer.restore()
    except RadmeshError as e:
        error = f"{type(e).__name__}: {e}"
    elapsed = perf_counter() - t0 - sum(b - a for a, b in ticks)
    refs += ref_slices(EDGE_SLICES)
    op = Op(out, elapsed, ticks, snaps, speed_scale(refs), tracer)
    if error:
        op.failures.append(error)
    return op


def iteration_samples(ops: list[Op]) -> list[float]:
    """Nominal seconds between on_iteration callbacks; whole operations if none."""
    out = []
    for op in ops:
        if len(op.ticks) >= 2:
            out += [op.scale * (b[0] - a[1]) for a, b in zip(op.ticks, op.ticks[1:])]
        else:
            out.append(op.scale * op.elapsed)
    return out


def settle(w, op: Op, checked: dict, spans_file) -> None:
    """Check the output (once per distinct output), then keep only a summary.

    Every operation repeats the same input, so a deterministic program
    repeats its output bit for bit, traced or not; ``main`` compares the
    fingerprints.
    """
    if op.out is None:
        return
    op.fingerprint = op.out.fingerprint()
    if op.fingerprint not in checked:
        checked[op.fingerprint] = w.check(op.out)
    op.failures += checked[op.fingerprint]
    op.out.final = op.out.state = None
    if op.tracer is not None:
        op.layers = layer_metrics(op)
        op.hits = dict(op.tracer.hits)
        op.tracer.write_jsonl(spans_file)
        op.tracer = op.snaps = None


def measure(w, inputs, seconds: float, spans_file,
            probe_setup) -> tuple[list[Op], list[Op], list[dict]]:
    """Untraced (and with ``spans_file``, traced) operations for ``seconds``.

    ``PROBES_PER_OP`` set-up probes precede each operation until there are
    ``PROBES``, so that the set-ups sample more of the machine's speed
    states than a burst at the start would; their time is not counted in
    ``seconds``.

    Untraced runs also continue until ``w.min_ops`` operations ran.  Traced
    runs alternate untraced and traced operations and continue until
    ``MIN_TRACED`` traced ones ran; the hard stop does not cut them short,
    since ``per_layer`` needs that many to compare counts.
    """
    trace = spans_file is not None
    plain: list[Op] = []
    traced: list[Op] = []
    checked: dict[tuple, list[str]] = {}
    setups: list[dict] = []
    probing = 0.0
    start = perf_counter()
    while True:
        if len(setups) < PROBES:
            t0 = perf_counter()
            setups += [probe_setup() for _ in range(PROBES_PER_OP)]
            probing += perf_counter() - t0
        if trace and len(traced) < len(plain):
            last = timed_op(w, inputs, spans.Tracer(len(traced) + 1))
            traced.append(last)
        else:
            last = timed_op(w, inputs, None)
            plain.append(last)
        settle(w, last, checked, spans_file)
        if last.out is None:
            break  # the program raised; repeating would raise again
        elapsed = perf_counter() - start - probing
        if trace:
            if len(traced) >= MIN_TRACED and elapsed >= seconds:
                break
            continue
        if elapsed > HARD_STOP_S:
            break
        if elapsed >= seconds and len(plain) >= w.min_ops:
            break
    return plain, traced, setups


# -- metrics --------------------------------------------------------------------


def end_to_end(w, plain: list[Op], setups: list[dict]) -> dict:
    good = [op for op in plain if op.out is not None]
    solve_s = statistics.median(op.scale * op.elapsed for op in good)
    out = good[0].out
    samples = iteration_samples(good)
    return {
        "setup_s": statistics.median(
            s["scale"] * (s["import_s"] + s["generate_s"] + s["io_s"]) for s in setups
        ),
        "solve_s": solve_s,
        "iterations": out.iterations,
        "iter_ms.p50": 1e3 * statistics.median(samples),
        "iter_ms.tail": 1e3 * float(np.percentile(samples, w.tail_pct)),
        "ball_iters_per_s": out.balls * out.iterations / solve_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def layer_metrics(op: Op) -> dict:
    """Per-layer numbers of one traced operation; times in nominal seconds."""
    tr = op.tracer
    summary = tr.summary()
    names, within = summary["names"], summary["within"]

    def calls(name):
        return names.get(name, {}).get("calls", 0)

    def self_s(name):
        return op.scale * names.get(name, {}).get("self_s", 0.0)

    builds = names.get("triangulation.build_regular", {}).get("durations", [])
    aux = calls("dirichlet.aux_triangulate_cell")
    aux_fi = within.get(("dirichlet.aux_triangulate_cell", "dirichlet.evaluate_FI"), 0)
    # per on_iteration interval: (lstsq calls, relax_step calls, rebuilds)
    intervals = [tuple(b - a for a, b in zip(s0, s1))
                 for s0, s1 in zip(op.snaps, op.snaps[1:])]
    gn = [iv for iv in intervals if iv[0] > 0]
    fallbacks = [iv for iv in gn if iv[1] > 0]
    m = {
        "geom.power_test.calls": calls("geom.power_test"),
        "geom.power_test.self_s": self_s("geom.power_test"),
        "geom.orient2d.calls": calls("geom.orient2d"),
        "geom.orient2d.self_s": self_s("geom.orient2d"),
        "triangulation.build_regular.calls": calls("triangulation.build_regular"),
        "triangulation.build_regular.self_s": self_s("triangulation.build_regular"),
        "triangulation.build_regular.ms_p50":
            1e3 * op.scale * statistics.median(builds) if builds else 0.0,
        "diagram.extract_diagram.calls": calls("diagram.extract_diagram"),
        "diagram.extract_diagram.self_s": self_s("diagram.extract_diagram"),
        "dirichlet.aux_triangulate_cell.calls": aux,
        "dirichlet.aux_triangulate_cell.self_s": self_s("dirichlet.aux_triangulate_cell"),
        "dirichlet.aux.redundancy": aux / aux_fi if aux_fi else 0.0,
        "dirichlet.evaluate_FI.self_s": self_s("dirichlet.evaluate_FI"),
        "dirichlet.relax_step.self_s": self_s("dirichlet.relax_step"),
        "dirichlet.lstsq.calls": calls("dirichlet.lstsq"),
        "dirichlet.lstsq.self_s": self_s("dirichlet.lstsq"),
        "dirichlet.lstsq.lhs_bytes_max": tr.lstsq_lhs_bytes_max,
        "dirichlet.rebuilds_per_iter":
            sum(iv[2] for iv in intervals) / len(intervals) if intervals else 0.0,
        "dirichlet.gn.iters": len(gn),
        "dirichlet.gn.fallbacks": len(fallbacks),
        "dirichlet.gn.accept_ratio": 1 - len(fallbacks) / len(gn) if gn else 0.0,
        "dirichlet.gn.rebuilds_per_iter":
            sum(iv[2] for iv in gn) / len(gn) if gn else 0.0,
        "dirichlet.run.self_s": self_s("dirichlet.run"),
        "recovery.recover_spheres.self_s": self_s("recovery.recover_spheres"),
        "recovery.qhull.self_s": self_s("recovery.qhull"),
        "recovery.circumcenter.calls":
            within.get(("geom.circumcenter", "recovery.recover_spheres"), 0),
    }
    return m


# counts that a deterministic program repeats exactly in every traced operation
EXACT_COUNTS = (
    "triangulation.build_regular.calls",
    "dirichlet.aux_triangulate_cell.calls",
    "dirichlet.lstsq.calls",
    "dirichlet.gn.iters",
)


def per_layer(w, plain: list[Op], traced: list[Op], setups: list[dict]) -> dict:
    """Median over traced operations, plus set-up layers and trace overhead."""
    good = [op for op in traced if op.out is not None]
    if len(good) < MIN_TRACED:
        raise RuntimeError(f"{w.name}: {len(good)} traced operation(s) completed, "
                           f"{MIN_TRACED} needed to compare the exact counts")
    per_op = [op.layers for op in good]
    for op, m in zip(good, per_op):
        if (op.out.iterations != good[0].out.iterations
                or any(m[k] != per_op[0][k] for k in EXACT_COUNTS)):
            op.failures.append("repeatable_counts")
    missed = [key for key in w.sites if any(op.hits[key] == 0 for op in good)]
    if missed:
        raise RuntimeError(f"{w.name}: traced entry points never hit: {missed}")
    m = {k: statistics.median(d[k] for d in per_op) for k in per_op[0]}
    m["scene.generate_s"] = statistics.median(s["scale"] * s["generate_s"] for s in setups)
    m["scene.io_s"] = statistics.median(s["scale"] * s["io_s"] for s in setups)
    m["trace.overhead_s"] = (
        statistics.median(op.scale * op.elapsed for op in good)
        - statistics.median(op.scale * op.elapsed for op in plain if op.out is not None))
    return m


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src = ROOT / "src" / "radmesh"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "threads": {k: os.environ.get(k) for k in THREAD_VARS},
        "src_lines": sum(len(p.read_text().splitlines()) for p in src.glob("*.py")),
    }


def catalogue(trace: bool) -> list[dict]:
    """The metrics BENCHMARK.json asks this mode to print, with their units."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scene-seed", type=int, default=None)
    ap.add_argument("--spacing", type=float, default=None)
    ap.add_argument("--probe", action="store_true")
    args = ap.parse_args()

    w = workloads.WORKLOADS[args.workload]
    if args.spacing is not None:
        if not isinstance(w, workloads.SquareHybrid):
            ap.error("--spacing applies to square-hybrid only")
        w = workloads.SquareHybrid(args.spacing)
    if args.scene_seed is None:
        args.scene_seed = w.scene_seed
    if args.probe:
        probe(w, args.scene_seed)
        return 0

    inputs = w.inputs(w.generate(args.scene_seed), args.seed)
    probe_setup = functools.partial(setup_probe, args)
    if args.trace:
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"spans-{w.name}-seed{args.seed}.jsonl"
        with open(spans_path, "w", encoding="utf-8") as spans_file:
            plain, traced, setups = measure(w, inputs, args.seconds, spans_file, probe_setup)
    else:
        plain, traced, setups = measure(w, inputs, args.seconds, None, probe_setup)
    ops = plain + traced
    good = [op for op in plain if op.out is not None]
    if not good:
        print(f"perfbench: {w.name} produced no result: {ops[0].failures}",
              file=sys.stderr)
        return 1
    for op in ops:
        if op.out is not None and op.fingerprint != good[0].fingerprint:
            op.failures.append("determinism")
    values = (per_layer(w, plain, traced, setups) if args.trace
              else end_to_end(w, plain, setups))

    failed_checks: dict[str, int] = {}
    for op in ops:
        for name in op.failures:
            failed_checks[name] = failed_checks.get(name, 0) + 1
    inexact = sum(not s["exact"] for s in setups)
    if inexact:
        failed_checks["scene_round_trip"] = inexact
    attempted = len(ops) + len(setups)
    failed = sum(bool(op.failures) for op in ops) + inexact

    first = good[0].out
    info = {
        "workload": w.name,
        "seed": args.seed,
        "scene_seed": args.scene_seed,
        "balls": first.balls,
        "iterations": first.iterations,
        "solve_s": statistics.median(op.scale * op.elapsed for op in good),
        "wall_solve_s": statistics.median(op.elapsed for op in good),
        "op_s": [op.elapsed for op in plain],
        "op_scale": [op.scale for op in plain],
        "traced_op_s": [op.elapsed for op in traced],
        "tail_percentile": w.tail_pct,
        "tail_samples": len(iteration_samples(good)),
        "fi_drop": first.fi_initial / max(first.fi_final, 1e-300),
        "tau_final_rel": first.tau_final / first.diag**2,
        "fail_rate": failed / attempted,
        "failed_checks": failed_checks,
        "env": environment(),
    }
    print("perfbench-info " + json.dumps(info))
    for name, n in failed_checks.items():
        print(f"perfbench: {w.name}: check {name} failed {n} time(s)", file=sys.stderr)
    if args.trace:
        print(f"perfbench-info spans written to {spans_path.relative_to(ROOT)}")

    metrics = {
        spec["name"]: {"value": values[spec["name"]], "unit": spec["unit"]}
        for spec in catalogue(bool(args.trace))
    }
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
