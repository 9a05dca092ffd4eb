"""Span tracing of dcal's public callables, installed from outside the package.

``Tracer.install()`` replaces every public function of each layer module, and
the constructor and public methods of each public class, with a wrapper that
records one span per call: (name, start, end, parent).  A function imported
by name into another dcal module is replaced there too, so calls between
modules and within a module are both traced.  ``uninstall()`` restores the
originals.  Spans stay in memory until ``write()``.

Parents come from one call stack, so trace only single-threaded runs.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
from collections import defaultdict

# One layer per module under src/dcal/ (errors.py defines exceptions only).
LAYERS = (
    "cli", "batchio", "simulate", "engine", "multitest",
    "calibration", "robust", "core", "special", "rng",
)

# Per-layer metrics in BENCHMARK.json order, with units.
METRICS = {
    "batchio.self_s": "s",
    "batchio.load_matrix.s": "s",
    "batchio.load_matrix.mb_per_s": "MB/s",
    "batchio.write_report.s": "s",
    "engine.self_s": "s",
    "engine.dcal_test.calls": "count",
    "engine.oos_predict.loo.s": "s",
    "engine.oos_predict.kfold.s": "s",
    "engine.oos_predict.boot632.s": "s",
    "engine.guard_skip_ratio": "ratio",
    "engine.sentinel_ratio": "ratio",
    "core.self_s": "s",
    "core.pearson.calls": "count",
    "core.ols_fit.calls": "count",
    "core.loo_predictions.calls": "count",
    "core.DataPair.calls": "count",
    "special.self_s": "s",
    "special.student_t_sf_two_sided.calls": "count",
    "multitest.self_s": "s",
    "multitest.permutation_pvalues.s": "s",
    "multitest.permutation_pvalues.gflop_per_s": "GFLOP/s",
    "calibration.self_s": "s",
    "calibration.correlation_bf.calls": "count",
    "robust.self_s": "s",
    "robust.skipped_correlation.calls": "count",
    "simulate.self_s": "s",
    "simulate.write_report.s": "s",
    "rng.self_s": "s",
    "rng.Stream.calls": "count",
    "rng.draws": "words",
    "cli.self_s": "s",
    "trace.overhead_frac": "ratio",
}


def _arg(args, kwargs, position, name):
    return args[position] if len(args) > position else kwargs[name]


# Counters taken from a call's arguments and result: (counters, args,
# kwargs, result, seconds) -> None, keyed by span name.
def _note_oos_predict(counters, args, kwargs, result, seconds):
    counters[f"oos_predict.{_arg(args, kwargs, 2, 'scheme').kind}.s"] += seconds


def _note_dcal_test(counters, args, kwargs, result, seconds):
    counters["guard_skips"] += result.skipped_by_fast_flag
    counters["sentinels"] += result.sign_flip_triggered


def _note_raw(counters, args, kwargs, result, seconds):
    counters["draws"] += _arg(args, kwargs, 1, "count")  # args[0] is the stream


def _note_permutation_pvalues(counters, args, kwargs, result, seconds):
    # one (m x n) @ (n,) product per shuffle plus the observed statistic
    m, n = _arg(args, kwargs, 0, "columns").shape
    B = _arg(args, kwargs, 2, "plan").n_permutations
    counters["permutation_flop"] += 2.0 * m * n * (B + 1)


def _note_load_matrix(counters, args, kwargs, result, seconds):
    counters["load_matrix.bytes"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


NOTES = {
    "engine.oos_predict": _note_oos_predict,
    "engine.dcal_test": _note_dcal_test,
    "rng.Stream.raw": _note_raw,
    "multitest.permutation_pvalues": _note_permutation_pvalues,
    "batchio.load_matrix": _note_load_matrix,
}


class Tracer:
    """Records spans of every wrapped call while installed."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []  # (name index, start, end, parent span index or -1)
        self.counters: defaultdict = defaultdict(float)
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def install(self) -> None:
        wrappers: dict[int, object] = {}  # id of an original function -> its wrapper
        for layer in LAYERS:
            module = importlib.import_module(f"dcal.{layer}")
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isclass(obj) and not issubclass(obj, BaseException):
                    self._wrap_class(f"{layer}.{attr}", obj)
                elif inspect.isfunction(obj):
                    wrappers[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
        for name, module in list(sys.modules.items()):
            if name != "dcal" and not name.startswith("dcal."):
                continue
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrappers:
                    self._replace(module, attr, wrappers[id(obj)])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _replace(self, owner, attr, new) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def _wrap_class(self, name: str, cls: type) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr == "__init__":
                self._replace(cls, attr, self._wrap(name, raw))  # construction
            elif attr.startswith("_"):
                continue
            elif isinstance(raw, (classmethod, staticmethod)):
                self._replace(cls, attr, type(raw)(self._wrap(f"{name}.{attr}", raw.__func__)))
            elif inspect.isfunction(raw):
                self._replace(cls, attr, self._wrap(f"{name}.{attr}", raw))

    def _wrap(self, name: str, fn):
        name_index = len(self.names)
        self.names.append(name)
        spans = self.spans
        stack = self._stack
        counters = self.counters
        note = NOTES.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name_index, start, end, parent)
            if note is not None:
                note(counters, args, kwargs, result, end - start)
            return result

        return traced

    def write(self, path) -> None:
        """Write every span as [name, start, end, parent], times in seconds
        from the first span's start."""
        t0 = self.spans[0][1] if self.spans else 0.0
        doc = {
            "fields": ["name", "start_s", "end_s", "parent"],
            "spans": [
                [self.names[k], start - t0, end - t0, parent]
                for k, start, end, parent in self.spans
            ],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))

    def metrics(self, traced_wall_s: float, untraced_wall_s: float) -> dict[str, float]:
        """Per-layer metrics from the recorded spans and counters."""
        duration = [end - start for _, start, end, _ in self.spans]
        child = [0.0] * len(self.spans)
        for i, (_, _, _, parent) in enumerate(self.spans):
            if parent >= 0:
                child[parent] += duration[i]
        layer_self: defaultdict = defaultdict(float)
        span_s: defaultdict = defaultdict(float)
        calls: defaultdict = defaultdict(int)
        for i, (k, _, _, _) in enumerate(self.spans):
            name = self.names[k]
            layer_self[name.split(".", 1)[0]] += duration[i] - child[i]
            span_s[name] += duration[i]
            calls[name] += 1

        c = self.counters
        tests = calls["engine.dcal_test"]
        full_tests = tests - c["guard_skips"]
        load_s = span_s["batchio.load_matrix"]
        perm_s = span_s["multitest.permutation_pvalues"]
        out = {f"{layer}.self_s": layer_self[layer] for layer in LAYERS}
        out.update({
            "batchio.load_matrix.s": load_s,
            "batchio.load_matrix.mb_per_s": c["load_matrix.bytes"] / 1e6 / load_s if load_s else 0.0,
            "batchio.write_report.s": span_s["batchio.write_report"],
            "engine.dcal_test.calls": tests,
            "engine.oos_predict.loo.s": c["oos_predict.loo.s"],
            "engine.oos_predict.kfold.s": c["oos_predict.kfold.s"],
            "engine.oos_predict.boot632.s": c["oos_predict.boot632.s"],
            # base: dcal_test calls; sentinel base: calls that ran the OOS step
            "engine.guard_skip_ratio": c["guard_skips"] / tests if tests else 0.0,
            "engine.sentinel_ratio": c["sentinels"] / full_tests if full_tests else 0.0,
            "core.pearson.calls": calls["core.pearson"],
            "core.ols_fit.calls": calls["core.ols_fit"],
            "core.loo_predictions.calls": calls["core.loo_predictions"],
            "core.DataPair.calls": calls["core.DataPair"],
            "special.student_t_sf_two_sided.calls": calls["special.student_t_sf_two_sided"],
            "multitest.permutation_pvalues.s": perm_s,
            # computed from the call's shapes, not counted by hardware
            "multitest.permutation_pvalues.gflop_per_s": (
                c["permutation_flop"] / 1e9 / perm_s if perm_s else 0.0
            ),
            "calibration.correlation_bf.calls": calls["calibration.correlation_bf"],
            "robust.skipped_correlation.calls": calls["robust.skipped_correlation"],
            "simulate.write_report.s": (
                span_s["simulate.ExperimentReport.write_csv"]
                + span_s["simulate.ExperimentReport.write_json"]
            ),
            "rng.Stream.calls": calls["rng.Stream"],
            "rng.draws": c["draws"],
            "trace.overhead_frac": traced_wall_s / untraced_wall_s - 1.0,
        })
        return {name: out[name] for name in METRICS}
