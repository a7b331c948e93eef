"""Span tracing around the program's public functions, from outside the program.

``install`` replaces each traced function with a wrapper in every ``starwalk``
module that holds a reference to it (``search`` binds ``evolve`` at import,
the package re-exports everything), and wraps the numpy/scipy eigensolvers
with a counter.  Spans are kept in memory and written out once, at the end.
While ``Tracer.on`` is false the wrappers add one attribute test per call.
"""
from __future__ import annotations

import functools
import json
import statistics
import sys
import time

import numpy.linalg
import scipy.linalg

# (module, function) -> layer.  Self time and calls are aggregated per layer.
LAYERS = {
    ("graph", "load_spec"): "graph.load_spec",
    ("graph", "hub_coefficients"): "graph.hub",
    ("graph", "build_collapsed"): "graph.assemble",
    ("graph", "collapsed_matrix"): "graph.assemble",
    ("graph", "evolve"): "graph.evolve",
    ("graph", "build_full"): "graph.oracle",
    ("graph", "lift_collapsed_state"): "graph.oracle",
    ("graph", "restrict_full_state"): "graph.oracle",
    ("graph", "apply"): "graph.oracle",
    ("spectral", "eigendecompose"): "spectral.eigendecompose",
    ("spectral", "group_eigenvalues"): "spectral.group_eigenvalues",
    ("spectral", "right_block"): "spectral.classify",
    ("spectral", "classify_right"): "spectral.classify",
    ("spectral", "right_classifications"): "spectral.classify",
    ("spectral", "best_target"): "spectral.classify",
    ("spectral", "pairing_fit"): "spectral.pairing_fit",
    ("spectral", "paired_vectors"): "spectral.pairing_fit",
    ("spectral", "monodromy"): "spectral.monodromy",
    ("spectral", "spectral_report"): "spectral.report",
    ("search", "plan_search"): "search.plan",
    ("search", "initial_state"): "search.plan",
    ("search", "run_search"): "search.run",
    ("search", "sample_measurement"): "search.sample",
    ("tolerance", "tolerance_sweep"): "tolerance.sweep",
    ("tolerance", "locate_double_root"): "tolerance.locate_double_root",
    ("cli", "cmd_analyze"): "cli.analyze",
    ("cli", "cmd_search"): "cli.search",
    ("cli", "cmd_sweep"): "cli.sweep",
    ("cli", "cmd_tolerance"): "cli.tolerance",
    ("cli", "cmd_oracle_check"): "cli.oracle_check",
    ("cli", "cmd_demo"): "cli.demo",
}
EIGENSOLVERS = ((numpy.linalg, "eig"), (numpy.linalg, "eigvals"), (scipy.linalg, "schur"))
LOCATE = "tolerance.locate_double_root"

# Per-layer metrics, in the order they are reported: (name, unit).
METRICS = [
    ("graph.load_spec.ms", "ms"),
    ("graph.hub.self_ms", "ms"),
    ("graph.assemble.calls", "count"),
    ("graph.assemble.self_ms", "ms"),
    ("graph.evolve.self_ms", "ms"),
    ("graph.evolve.steps", "count"),
    ("graph.oracle.self_ms", "ms"),
    ("spectral.eigendecompose.calls", "count"),
    ("spectral.eigendecompose.self_ms", "ms"),
    ("linalg.eig.calls", "count"),
    ("spectral.classify.self_ms", "ms"),
    ("spectral.classify_right.calls", "count"),
    ("spectral.group_eigenvalues.self_ms", "ms"),
    ("spectral.pairing_fit.self_ms", "ms"),
    ("spectral.monodromy.self_ms", "ms"),
    ("spectral.report.self_ms", "ms"),
    ("search.plan.self_ms", "ms"),
    ("search.run.self_ms", "ms"),
    ("search.sample.self_ms", "ms"),
    ("tolerance.sweep.self_ms", "ms"),
    ("tolerance.sweep.steps", "count"),
    ("tolerance.locate_double_root.self_ms", "ms"),
    ("tolerance.locate_double_root.calls", "count"),
    ("tolerance.locate_double_root.eig_calls", "count"),
    ("cli.import_s", "s"),
    ("cli.analyze.ms", "ms"),
    ("cli.search.ms", "ms"),
    ("cli.sweep.ms", "ms"),
    ("cli.tolerance.ms", "ms"),
    ("cli.oracle_check.ms", "ms"),
    ("cli.demo.ms", "ms"),
    ("cli.output_bytes", "bytes"),
    ("trace.overhead_pct", "%"),
]

# Span record fields.
ROUND, OP, SID, PARENT, LAYER, FUNC, START, END, STEPS, EIGS = range(10)


def _steps(func: str, args, kwargs, result) -> int:
    """Walk steps a call performs: evolve's m, the sweep's longest schedule."""
    if func == "evolve":
        return int(args[2] if len(args) > 2 else kwargs["m"])
    if func == "tolerance_sweep":
        return sum(max(p.m_naive, p.m_compensated) for p in result)
    return 0


class Tracer:
    def __init__(self):
        self.on = False
        self.round = -1        # -1 while setting up
        self.op = -1
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _wrap(self, layer: str, fn):
        tracer = self
        func = fn.__name__

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            stack = tracer._stack
            rec = [tracer.round, tracer.op, len(tracer.spans),
                   stack[-1] if stack else -1, layer, func, 0.0, 0.0, 0, 0]
            tracer.spans.append(rec)
            stack.append(rec[SID])
            rec[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = time.perf_counter()
                stack.pop()
            rec[STEPS] = _steps(func, args, kwargs, result)
            return result
        return traced

    def _count(self, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if tracer.on and tracer._stack:
                tracer.spans[tracer._stack[-1]][EIGS] += 1
            return fn(*args, **kwargs)
        return counted

    def install(self) -> None:
        """Swap every traced function for its wrapper wherever it is bound."""
        wrappers = {}
        for (mod, name), layer in LAYERS.items():
            fn = getattr(sys.modules["starwalk." + mod], name)
            wrappers[id(fn)] = self._wrap(layer, fn)
        for modname, module in list(sys.modules.items()):
            if modname != "starwalk" and not modname.startswith("starwalk."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    setattr(module, attr, wrappers[id(value)])
        for module, name in EIGENSOLVERS:
            setattr(module, name, self._count(getattr(module, name)))

    # -- aggregation --------------------------------------------------------
    def layer_totals(self, round_: int) -> dict[str, float]:
        """Self ms, span ms, calls, steps and eigensolver calls per layer."""
        spans = [s for s in self.spans if s[ROUND] == round_]
        child_ms: dict[int, float] = {}
        for s in spans:
            if s[PARENT] >= 0:
                child_ms[s[PARENT]] = child_ms.get(s[PARENT], 0.0) + (s[END] - s[START]) * 1e3
        by_sid = {s[SID]: s for s in spans}
        out: dict[str, float] = {}

        def add(key, v):
            out[key] = out.get(key, 0.0) + v

        for s in spans:
            ms = (s[END] - s[START]) * 1e3
            add(s[LAYER] + ".ms", ms)
            add(s[LAYER] + ".self_ms", ms - child_ms.get(s[SID], 0.0))
            add(s[LAYER] + ".calls", 1)
            add(s[LAYER] + ".steps", s[STEPS])
            if s[FUNC] == "classify_right":
                add("spectral.classify_right.calls", 1)
            if s[EIGS]:
                add("linalg.eig.calls", s[EIGS])
                p = s
                while p is not None:
                    if p[LAYER] == LOCATE:
                        add(LOCATE + ".eig_calls", s[EIGS])
                        break
                    p = by_sid.get(p[PARENT])
        return out

    def write(self, path: str) -> None:
        fields = ["round", "op", "span", "parent", "layer", "func",
                  "start", "end", "steps", "eig_calls"]
        with open(path, "w") as fh:
            json.dump({"fields": fields, "spans": self.spans}, fh)


def per_layer(tracer: Tracer, traced_rounds: list[int], import_s: float,
              output_bytes: list[int], overhead_pct: float) -> dict:
    """Per-layer metrics: the median over traced rounds of each per-round total.

    ``graph.load_spec.ms`` also counts the loads made during set-up, which is
    where the library workloads load their specs.
    """
    totals = [tracer.layer_totals(r) for r in traced_rounds]
    setup = tracer.layer_totals(-1)
    values = {}
    for name, _ in METRICS:
        values[name] = statistics.median(t.get(name, 0.0) for t in totals)
    values["graph.load_spec.ms"] += setup.get("graph.load_spec.ms", 0.0)
    values["cli.import_s"] = import_s
    values["cli.output_bytes"] = statistics.median(output_bytes) if output_bytes else 0
    values["trace.overhead_pct"] = overhead_pct
    return {name: {"value": values[name], "unit": unit} for name, unit in METRICS}
