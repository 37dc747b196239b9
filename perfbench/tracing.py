"""Traced mode: timing wrappers around cpmfit's public functions.

`Tracer.install` replaces each function named in LAYERS with a wrapper that
records a span (name, start, end, parent span, operation id, extra counts)
and rebinds the wrapper in every cpmfit module that imported the function,
so calls from `predict` or `cli` are caught as well as calls from the
defining module.  Spans stay in memory until `write_spans`.  `layer_metrics`
turns them into per-layer counts, times and self times.
"""
from __future__ import annotations

import json
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

# Public functions wrapped in traced mode, as module.attribute.
LAYERS = (
    "cli.main", "cli.build_configs", "cli.write_text_atomic",
    "dataio.parse_map_csv", "dataio.group_speedlines", "dataio.normalize_map",
    "dataio.export_report", "dataio.export_curve_svg",
    "predict.loo_crossval", "predict.fit_map", "predict.holdout_predict",
    "predict.fit_beta_polynomials", "predict.predict_beta", "predict.aggregate_reports",
    "optimize.fit_speedline", "optimize.differential_evolution",
    "optimize.particle_swarm", "optimize.nelder_mead", "optimize.quasi_newton",
    "optimize.objective", "optimize.make_objective_batch",
    "metrics.evaluate_prediction",
    "model.sample_curve",
)
MODULES = ("cli", "dataio", "predict", "optimize", "metrics", "model")


def _n_points(points) -> int:
    if isinstance(points, tuple) and len(points) == 2 and isinstance(points[0], np.ndarray):
        return int(points[0].size)
    return len(points)


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent, op, extra]
        self.stack = []
        self.op = -1
        self.fit_keys = set()
        self._patched = []

    def wrap(self, name, fn, extra=None, after=None):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op,
                   extra(*args, **kwargs) if extra else None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if after:
                after(rec, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def _wrapper_for(self, qualname, fn):
        if qualname == "optimize.make_objective_batch":
            # The batch objective is a closure built per fit: wrap what the
            # factory returns, counting rows and points per call.
            def factory(points, *args, **kwargs):
                n = _n_points(points)
                return self.wrap("optimize.objective_batch", fn(points, *args, **kwargs),
                                 extra=lambda xs: {"rows": len(xs), "points": n})
            return factory
        if qualname == "cli.write_text_atomic":
            return self.wrap(qualname, fn, extra=lambda path, text: {"bytes": len(text.encode())})
        if qualname == "optimize.fit_speedline":
            def record(rec, result):
                rec[5] = {"fallback": bool(result.used_fallback)}

            def key(line, cfg=None):
                self.fit_keys.add((self.op, line, cfg))
                return None
            return self.wrap(qualname, fn, extra=key, after=record)
        return self.wrap(qualname, fn)

    def install(self):
        """Patch every layer in every cpmfit module that binds it."""
        modules = [m for name, m in list(sys.modules.items())
                   if name == "cpmfit" or name.startswith("cpmfit.")]
        for qualname in LAYERS:
            mod, attr = qualname.split(".")
            orig = getattr(sys.modules[f"cpmfit.{mod}"], attr)
            wrapper = self._wrapper_for(qualname, orig)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, key, wrapper)
                        self._patched.append((m, key, orig))

    def uninstall(self):
        for m, key, orig in reversed(self._patched):
            setattr(m, key, orig)
        self._patched.clear()

    def write_spans(self, path: str, t0: float) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, op, extra in self.spans:
                fh.write(json.dumps([name, start - t0, end - t0, parent, op, extra]) + "\n")


def _ancestor(spans, i, names):
    parent = spans[i][3]
    while parent >= 0:
        if spans[parent][0] in names:
            return spans[parent][0]
        parent = spans[parent][3]
    return None


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics as {name: (value, unit)} from the recorded spans."""
    spans = tracer.spans
    child = [0.0] * len(spans)
    for _, start, end, parent, *_ in spans:
        if parent >= 0:
            child[parent] += end - start
    calls = defaultdict(int)
    total = defaultdict(float)
    self_s = defaultdict(float)
    for i, (name, start, end, parent, op, extra) in enumerate(spans):
        calls[name] += 1
        total[name] += end - start
        self_s[name] += end - start - child[i]

    solvers = {"optimize.differential_evolution", "optimize.particle_swarm"}
    solver_rows = defaultdict(int)
    batch_rows = batch_pairs = 0
    nm_evals = fallbacks = nbytes = 0
    for i, (name, *_, extra) in enumerate(spans):
        if name == "optimize.objective_batch":
            batch_rows += extra["rows"]
            batch_pairs += extra["rows"] * extra["points"]
            owner = _ancestor(spans, i, solvers)
            if owner:
                solver_rows[owner] += extra["rows"]
        elif name == "optimize.objective":
            nm_evals += _ancestor(spans, i, {"optimize.nelder_mead"}) is not None
        elif name == "optimize.fit_speedline" and extra:
            fallbacks += extra["fallback"]
        elif name == "cli.write_text_atomic":
            nbytes += extra["bytes"]

    def ratio(a, b, scale=1.0):
        return a / b * scale if b else 0.0

    fits = calls["optimize.fit_speedline"]
    out = {
        "optimize.objective_batch.calls": (calls["optimize.objective_batch"], "count"),
        "optimize.objective_batch.rows": (batch_rows, "count"),
        "optimize.objective_batch.s": (total["optimize.objective_batch"], "s"),
        "optimize.objective_batch.us_per_row":
            (ratio(total["optimize.objective_batch"], batch_rows, 1e6), "us"),
        "metrics.projection.ns_per_pair":
            (ratio(self_s["optimize.objective_batch"], batch_pairs, 1e9), "ns"),
    }
    for solver in ("differential_evolution", "particle_swarm"):
        name = f"optimize.{solver}"
        out[f"{name}.s"] = (total[name], "s")
        out[f"{name}.rows"] = (solver_rows[name], "count")
    out.update({
        "optimize.fit_speedline.calls": (fits, "count"),
        "optimize.fit_speedline.s": (total["optimize.fit_speedline"], "s"),
        "optimize.fit_speedline.fallback_ratio": (ratio(fallbacks, fits), "ratio"),
        "optimize.nelder_mead.s": (total["optimize.nelder_mead"], "s"),
        "optimize.nelder_mead.evals": (nm_evals, "count"),
        "optimize.objective.evals": (calls["optimize.objective"], "count"),
        "optimize.objective.s": (total["optimize.objective"], "s"),
        "optimize.objective.us_per_eval":
            (ratio(total["optimize.objective"], calls["optimize.objective"], 1e6), "us"),
        "metrics.evaluate_prediction.calls": (calls["metrics.evaluate_prediction"], "count"),
        "metrics.evaluate_prediction.s": (total["metrics.evaluate_prediction"], "s"),
        "predict.distinct_fit_ratio": (ratio(len(tracer.fit_keys), fits), "ratio"),
    })
    for name in ("predict.fit_map", "predict.holdout_predict"):
        out[f"{name}.calls"] = (calls[name], "count")
        out[f"{name}.s"] = (total[name], "s")
    for name in ("predict.fit_beta_polynomials", "predict.predict_beta",
                 "dataio.parse_map_csv", "dataio.group_speedlines", "dataio.normalize_map",
                 "dataio.export_report", "dataio.export_curve_svg"):
        out[f"{name}.s"] = (total[name], "s")
    out.update({
        "cli.write_text_atomic.calls": (calls["cli.write_text_atomic"], "count"),
        "cli.write_text_atomic.bytes": (nbytes, "B"),
        "cli.write_text_atomic.s": (total["cli.write_text_atomic"], "s"),
        "cli.main.self_s": (self_s["cli.main"], "s"),
        "model.sample_curve.calls": (calls["model.sample_curve"], "count"),
        "model.sample_curve.s": (total["model.sample_curve"], "s"),
    })
    for module in MODULES:
        out[f"layer.{module}.self_s"] = (
            sum(v for k, v in self_s.items() if k.startswith(module + ".")), "s")
    return out
