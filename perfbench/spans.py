"""Span tracer for the traced benchmark run.

The tracer replaces entry points of radmesh's layers by timing wrappers,
at the module attribute through which their callers look them up (for
example ``radmesh.dirichlet.build_regular``, the name ``_rebuild`` calls,
rather than ``radmesh.triangulation.build_regular``).  Nothing under
``src/`` changes; ``restore`` puts the original objects back.

Two kinds of wrapper exist:

- span sites record one span per call: name, start, end, parent span and
  run id, kept in memory and written out with ``write_jsonl``;
- leaf sites (the geometric predicates, called millions of times) record no
  span.  They count calls and time per (leaf name, enclosing span name),
  and add their time to the enclosing span's ``leaf_s`` so that the span's
  self time excludes it.

Self time of a span is derived from the spans afterwards: its duration
minus the durations of its child spans minus the leaf time inside it.
"""

from __future__ import annotations

import importlib
import json
import time
from dataclasses import dataclass

perf_counter = time.perf_counter


@dataclass(frozen=True)
class Site:
    """One wrapped entry point: ``module.attr`` is replaced while tracing."""

    module: str
    attr: str
    name: str  # layer-qualified name the metrics use
    leaf: bool = False

    @property
    def key(self) -> str:
        return f"{self.module}.{self.attr}"


# Every entry point the traced run wraps.  Sites sharing a name wrap the
# same function at different lookup places; their calls add up.
SITES = (
    Site("radmesh.dirichlet", "run", "dirichlet.run"),
    Site("radmesh.dirichlet", "build_regular", "triangulation.build_regular"),
    Site("radmesh.dirichlet", "extract_diagram", "diagram.extract_diagram"),
    Site("radmesh.dirichlet", "aux_triangulate_cell", "dirichlet.aux_triangulate_cell"),
    Site("radmesh.dirichlet", "evaluate_FI", "dirichlet.evaluate_FI"),
    Site("radmesh.dirichlet", "relax_step", "dirichlet.relax_step"),
    Site("numpy.linalg", "lstsq", "dirichlet.lstsq"),
    Site("radmesh.triangulation", "build_regular", "triangulation.build_regular"),
    Site("radmesh.diagram", "extract_diagram", "diagram.extract_diagram"),
    Site("radmesh.recovery", "recover_spheres", "recovery.recover_spheres"),
    Site("radmesh.recovery", "Delaunay", "recovery.qhull"),
    Site("radmesh.geom", "power_test", "geom.power_test", leaf=True),
    Site("radmesh.geom", "orient2d", "geom.orient2d", leaf=True),
    Site("radmesh.geom", "circumcenter", "geom.circumcenter", leaf=True),
)

ROOT_SPAN = "bench.op"  # the benchmark's own span around one operation


def resolve(site: Site):
    """The object currently at ``site``; raises if the name has gone."""
    module = importlib.import_module(site.module)
    obj = getattr(module, site.attr, None)
    if obj is None or not callable(obj):
        raise RuntimeError(
            f"traced entry point {site.key} no longer exists; "
            f"update SITES in perfbench/spans.py"
        )
    return module, obj


class Tracer:
    """Wraps every site in ``SITES`` between ``install`` and ``restore``."""

    def __init__(self, run_id: int):
        # span records: [name, start, end, parent id or None, run id, leaf_s]
        self.spans: list[list] = []
        self.hits = {site.key: 0 for site in SITES}
        # (leaf name, enclosing span name) -> [calls, self seconds]
        self.leaves: dict[tuple[str, str], list] = {}
        self.lstsq_lhs_bytes_max = 0
        self.run_id = run_id
        self._open: list[int] = []  # ids of open spans, innermost last
        self._leaf_child: list[float] = []  # per open leaf call: nested leaf time
        self._saved: list[tuple[object, str, object]] = []

    # -- wrapping -----------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for site in SITES:
            module, obj = resolve(site)
            wrapper = self._leaf(site, obj) if site.leaf else self._span(site, obj)
            self._saved.append((module, site.attr, obj))
            setattr(module, site.attr, wrapper)

    def restore(self) -> None:
        while self._saved:
            module, attr, obj = self._saved.pop()
            setattr(module, attr, obj)

    def _span(self, site: Site, fn):
        spans, hits, open_ = self.spans, self.hits, self._open
        name, key = site.name, site.key
        is_lstsq = name == "dirichlet.lstsq"

        def wrapper(*args, **kwargs):
            hits[key] += 1
            if is_lstsq:
                nbytes = getattr(args[0], "nbytes", 0)
                if nbytes > self.lstsq_lhs_bytes_max:
                    self.lstsq_lhs_bytes_max = nbytes
            sid = len(spans)
            rec = [name, 0.0, 0.0, open_[-1] if open_ else None, self.run_id, 0.0]
            spans.append(rec)
            open_.append(sid)
            rec[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                open_.pop()

        return wrapper

    def _leaf(self, site: Site, fn):
        spans, hits, open_, child = self.spans, self.hits, self._open, self._leaf_child
        leaves = self.leaves
        name, key = site.name, site.key

        def wrapper(*args, **kwargs):
            hits[key] += 1
            child.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                nested = child.pop()
                if child:
                    child[-1] += dt
                elif open_:
                    spans[open_[-1]][5] += dt
                where = spans[open_[-1]][0] if open_ else "-"
                stat = leaves.get((name, where))
                if stat is None:
                    stat = leaves[(name, where)] = [0, 0.0]
                stat[0] += 1
                stat[1] += dt - nested

        return wrapper

    def root(self, fn, *args, **kwargs):
        """Call ``fn`` under a ``bench.op`` root span."""
        rec = [ROOT_SPAN, 0.0, 0.0, None, self.run_id, 0.0]
        sid = len(self.spans)
        self.spans.append(rec)
        self._open.append(sid)
        rec[1] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = perf_counter()
            self._open.pop()

    # -- derived quantities -------------------------------------------------

    def self_times(self) -> list[float]:
        """Per span: duration minus child spans minus leaf time inside."""
        out = [rec[2] - rec[1] - rec[5] for rec in self.spans]
        for rec in self.spans:
            if rec[3] is not None:
                out[rec[3]] -= rec[2] - rec[1]
        return out

    def summary(self) -> dict:
        """Per name: calls, self seconds and span durations.

        Leaf names get calls and self seconds only.  ``within`` maps
        (name, enclosing span name) to calls, for both kinds.
        """
        out: dict[str, dict] = {}
        within: dict[tuple[str, str], int] = {}
        for rec, self_s in zip(self.spans, self.self_times()):
            agg = out.setdefault(rec[0], {"calls": 0, "self_s": 0.0, "durations": []})
            agg["calls"] += 1
            agg["self_s"] += self_s
            agg["durations"].append(rec[2] - rec[1])
            parent = self.spans[rec[3]][0] if rec[3] is not None else "-"
            within[(rec[0], parent)] = within.get((rec[0], parent), 0) + 1
        for (name, where), (calls, self_s) in self.leaves.items():
            agg = out.setdefault(name, {"calls": 0, "self_s": 0.0, "durations": []})
            agg["calls"] += calls
            agg["self_s"] += self_s
            within[(name, where)] = within.get((name, where), 0) + calls
        return {"names": out, "within": within}

    def write_jsonl(self, f) -> None:
        """All spans, then one summary line per (leaf, enclosing span)."""
        for sid, (name, start, end, parent, run, leaf_s) in enumerate(self.spans):
            f.write(json.dumps({
                "id": sid, "name": name, "start": start, "end": end,
                "parent": parent, "run": run, "leaf_s": leaf_s,
            }) + "\n")
        for (name, where), (calls, self_s) in sorted(self.leaves.items()):
            f.write(json.dumps({
                "leaf": name, "within": where, "run": self.run_id,
                "calls": calls, "self_s": self_s,
            }) + "\n")
