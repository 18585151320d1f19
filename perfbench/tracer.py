"""Span tracer that wraps alselect's public functions at their call sites.

Each module binds the functions it calls under its own name (for example
`alselect.harness` does `from .classifier import fit`), so a call is
intercepted by replacing that binding in the calling module. `install`
replaces every binding listed in CALL_SITES and `uninstall` puts the
originals back. A name that is missing, or a parameter the tracer relies
on that a function no longer takes, makes `install` raise TraceSetupError
naming it, so a renamed function can never show up as a layer with zero
time.

Spans (name, start, end, parent) are kept in memory in flat arrays. When a
span ends its duration is charged to its parent's child time, so a span's
self time is its duration minus the time its child spans cover. Exact
counts (calls, rows, items, iterations) are recorded at the same
boundaries.
"""

from __future__ import annotations

import inspect
import statistics
import time
from array import array
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np

# (module, attribute, span name): every call made through that module's
# binding of the attribute is recorded as one span of that name.
CALL_SITES = (
    ("alselect.cli", "cmd_run", "cli.cmd_run"),
    ("alselect.cli", "cmd_synth", "cli.cmd_synth"),
    ("alselect.cli", "write_run_outputs", "cli.write_run_outputs"),
    ("alselect.cli", "load_csv", "data.load_csv"),
    ("alselect.cli", "run_experiment", "harness.run_experiment"),
    ("alselect.cli", "generate_pocket_dataset", "harness.generate_pocket_dataset"),
    ("alselect.harness", "run_trial", "harness.run_trial"),
    ("alselect.harness", "holdout_ids", "harness.holdout_ids"),
    ("alselect.harness", "biased_init", "harness.biased_init"),
    ("alselect.harness", "standardize_fit", "data.standardize"),
    ("alselect.harness", "standardize_apply", "data.standardize"),
    ("alselect.harness", "fit", "classifier.fit"),
    ("alselect.harness", "accuracy", "classifier.accuracy"),
    ("alselect.harness", "score_pool", "strategies.score_pool"),
    ("alselect.harness", "select_batch", "strategies.select_batch"),
    ("alselect.harness", "uniform_sample", "sampling.uniform_sample"),
    ("alselect.harness", "select_top_k", "sampling.select_top_k"),
    ("alselect.strategies", "uniform_sample", "sampling.uniform_sample"),
    ("alselect.strategies", "select_top_k", "sampling.select_top_k"),
    ("alselect.sampling", "select_top_k", "sampling.select_top_k"),
)

# Functions the benchmark calls directly; their spans are roots.
ENTRY_POINTS = (
    ("alselect.cli", "main", "cli.main"),
    ("alselect.harness", "validate_lemma", "harness.validate_lemma"),
)

# Parameters the special wrappers pass or read.
REQUIRED_PARAMS = {
    ("alselect.harness", "fit"): ("features", "labels", "n_classes", "cfg", "loss_history"),
    ("alselect.harness", "select_batch"): ("cfg",),
    ("alselect.harness", "uniform_sample"): ("ids",),
    ("alselect.sampling", "select_top_k"): ("stats",),
}

# Helpers the wrappers use to read solver state and selection counts.
HELPERS = (
    ("alselect.classifier", "loss_and_grad"),
    ("alselect.sampling", "SelectionStats"),
)

FIT_ROW_BINS = ((300, "rows_lt300"), (750, "rows_300_749"), (None, "rows_ge750"))
STRATEGY_NAMES = ("random", "greedy", "eps_greedy", "weighted")


class TraceSetupError(RuntimeError):
    """A function or parameter the tracer wraps does not exist."""


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.parents = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self.child = array("d")
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.fit_rows: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ------------------------------------------------------------
    def begin(self, name: str) -> int:
        sid = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.child.append(0.0)
        self.ends.append(0.0)
        self.stack.append(sid)
        self.starts.append(time.perf_counter())
        return sid

    def end(self, sid: int) -> None:
        t = time.perf_counter()
        self.ends[sid] = t
        self.stack.pop()
        parent = self.parents[sid]
        if parent >= 0:
            self.child[parent] += t - self.starts[sid]

    @contextmanager
    def span(self, name: str):
        sid = self.begin(name)
        try:
            yield
        finally:
            self.end(sid)

    def reset(self) -> None:
        if self.stack:
            raise RuntimeError("reset with open spans")
        self.names.clear()
        for arr in (self.parents, self.starts, self.ends, self.child):
            del arr[:]
        self.counts.clear()
        self.fit_rows.clear()

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total ms and self ms."""
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "ms": 0.0, "self_ms": 0.0})
        for sid, name in enumerate(self.names):
            dur = self.ends[sid] - self.starts[sid]
            row = out[name]
            row["calls"] += 1
            row["ms"] += 1e3 * dur
            row["self_ms"] += 1e3 * (dur - self.child[sid])
        return dict(out)

    # -- call-site wrapping ---------------------------------------------
    def install(self) -> None:
        import importlib

        def resolve(mod_name, attr):
            mod = importlib.import_module(mod_name)
            if not hasattr(mod, attr):
                raise TraceSetupError(f"traced name {mod_name}.{attr} does not exist")
            return mod, getattr(mod, attr)

        for mod_name, attr in HELPERS:
            resolve(mod_name, attr)
        for (mod_name, attr), params in REQUIRED_PARAMS.items():
            _, fn = resolve(mod_name, attr)
            have = inspect.signature(fn).parameters
            for p in params:
                if p not in have:
                    raise TraceSetupError(f"traced function {mod_name}.{attr} has no parameter {p!r}")
        for mod_name, attr, _ in ENTRY_POINTS:
            resolve(mod_name, attr)

        wrapped: dict[int, object] = {}
        for mod_name, attr, span_name in CALL_SITES:
            mod, fn = resolve(mod_name, attr)
            if id(fn) not in wrapped:
                wrapped[id(fn)] = self._wrapper(attr, fn, span_name)
            self._patches.append((mod, attr, fn))
            setattr(mod, attr, wrapped[id(fn)])

    def uninstall(self) -> None:
        while self._patches:
            mod, attr, fn = self._patches.pop()
            setattr(mod, attr, fn)

    def _wrapper(self, attr, fn, span_name):
        special = {
            "fit": self._wrap_fit,
            "select_batch": self._wrap_select_batch,
            "score_pool": self._wrap_score_pool,
            "uniform_sample": self._wrap_uniform_sample,
            "select_top_k": self._wrap_select_top_k,
            "load_csv": self._wrap_load_csv,
        }.get(attr)
        if special is not None:
            return special(fn, span_name)

        def traced(*args, **kwargs):
            sid = self.begin(span_name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(sid)
        return traced

    def _wrap_fit(self, fn, span_name):
        from alselect.classifier import loss_and_grad
        sig = inspect.signature(fn)

        def traced(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            a = bound.arguments
            if a["loss_history"] is None:
                a["loss_history"] = []
            before = len(a["loss_history"])
            sid = self.begin(span_name)
            try:
                model = fn(*bound.args, **bound.kwargs)
            finally:
                self.end(sid)
            rows = len(a["labels"])
            self.counts["classifier.fit.iters"] += len(a["loss_history"]) - before
            self.fit_rows.append(rows)
            # final-gradient check, charged to its own span so that the
            # calling layer's self time does not include it
            with self.span("trace.diag"):
                X = np.asarray(a["features"], dtype=np.float64)
                Xa = np.hstack([X, np.ones((X.shape[0], 1))])
                y = np.asarray(a["labels"], dtype=np.int64)
                _, G = loss_and_grad(model.weights, Xa, y, a["n_classes"], a["cfg"].l2_reg)
                if float(np.abs(G).max()) < a["cfg"].tol:
                    self.counts["classifier.fit.converged"] += 1
            return model
        return traced

    def _wrap_select_batch(self, fn, span_name):
        def traced(cfg, *args, **kwargs):
            sid = self.begin(f"{span_name}.{cfg.kind.value}")
            try:
                return fn(cfg, *args, **kwargs)
            finally:
                self.end(sid)
        return traced

    def _wrap_score_pool(self, fn, span_name):
        def traced(*args, **kwargs):
            sid = self.begin(span_name)
            try:
                scores = fn(*args, **kwargs)
            finally:
                self.end(sid)
            self.counts["strategies.score_pool.rows"] += len(scores)
            return scores
        return traced

    def _wrap_uniform_sample(self, fn, span_name):
        def traced(ids, *args, **kwargs):
            if not hasattr(ids, "__len__"):
                ids = list(ids)
            self.counts["sampling.uniform_sample.items"] += len(ids)
            sid = self.begin(span_name)
            try:
                return fn(ids, *args, **kwargs)
            finally:
                self.end(sid)
        return traced

    def _wrap_select_top_k(self, fn, span_name):
        from alselect.sampling import SelectionStats

        def traced(stream, k, rng, stats=None):
            st = SelectionStats() if stats is None else stats
            before = st.items_seen
            sid = self.begin(span_name)
            try:
                return fn(stream, k, rng, st)
            finally:
                self.end(sid)
                self.counts["sampling.select_top_k.items"] += st.items_seen - before
        return traced

    def _wrap_load_csv(self, fn, span_name):
        def traced(*args, **kwargs):
            sid = self.begin(span_name)
            try:
                dataset = fn(*args, **kwargs)
            finally:
                self.end(sid)
            self.counts["data.load_csv.rows"] += dataset.n
            return dataset
        return traced

    def entry(self, mod_name: str, attr: str):
        """The benchmark's own call site for an entry point: a wrapped
        function whose spans are roots of the ops it runs."""
        import importlib
        for m, a, span_name in ENTRY_POINTS:
            if (m, a) == (mod_name, attr):
                fn = getattr(importlib.import_module(m), a)

                def traced(*args, **kwargs):
                    sid = self.begin(span_name)
                    try:
                        return fn(*args, **kwargs)
                    finally:
                        self.end(sid)
                return traced
        raise KeyError((mod_name, attr))


# -- per-layer metrics ---------------------------------------------------

# name -> (unit, better)
PER_LAYER = {
    "classifier.fit.calls": ("count", "lower"),
    "classifier.fit.ms": ("ms", "lower"),
    "classifier.fit.ms_per_call": ("ms", "lower"),
    **{f"classifier.fit.ms_per_call.{label}": ("ms", "lower") for _, label in FIT_ROW_BINS},
    "classifier.fit.iters": ("count", "lower"),
    "classifier.fit.converged_frac": ("%", "higher"),
    "classifier.accuracy.ms": ("ms", "lower"),
    "strategies.score_pool.ms": ("ms", "lower"),
    "strategies.score_pool.rows": ("count", "lower"),
    **{f"strategies.select_batch.self_ms.{s}": ("ms", "lower") for s in STRATEGY_NAMES},
    "sampling.uniform_sample.calls": ("count", "lower"),
    "sampling.uniform_sample.ms": ("ms", "lower"),
    "sampling.uniform_sample.items": ("count", "lower"),
    "sampling.select_top_k.calls": ("count", "lower"),
    "sampling.select_top_k.ms": ("ms", "lower"),
    "sampling.select_top_k.items": ("count", "lower"),
    "harness.run_trial.self_ms": ("ms", "lower"),
    "harness.holdout_ids.ms": ("ms", "lower"),
    "harness.biased_init.ms": ("ms", "lower"),
    "harness.validate_lemma.self_ms": ("ms", "lower"),
    "data.load_csv.ms": ("ms", "lower"),
    "data.load_csv.rows": ("count", "lower"),
    "data.standardize.ms": ("ms", "lower"),
    "cli.cmd_run.self_ms": ("ms", "lower"),
    "cli.write_run_outputs.ms": ("ms", "lower"),
    "cli.cmd_synth.ms": ("ms", "lower"),
    "trace.untraced_ms": ("ms", "lower"),
    "trace.traced_ms": ("ms", "lower"),
    "trace.overhead_ms": ("ms", "lower"),
    "trace.layers_self_ms": ("ms", "lower"),
    "trace.diag_ms": ("ms", "lower"),
    "trace.spans": ("count", "lower"),
}


def cycle_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer numbers for the spans recorded since the last reset."""
    s = tracer.summary()

    def get(name, field):
        return s.get(name, {}).get(field, 0)

    m: dict[str, float] = {}
    fit_calls = get("classifier.fit", "calls")
    fit_ms = get("classifier.fit", "self_ms")
    m["classifier.fit.calls"] = fit_calls
    m["classifier.fit.ms"] = fit_ms
    m["classifier.fit.ms_per_call"] = fit_ms / fit_calls if fit_calls else 0.0
    fit_times = [1e3 * (tracer.ends[i] - tracer.starts[i] - tracer.child[i])
                 for i, n in enumerate(tracer.names) if n == "classifier.fit"]
    lo = 0
    for hi, label in FIT_ROW_BINS:
        sel = [t for t, r in zip(fit_times, tracer.fit_rows)
               if r >= lo and (hi is None or r < hi)]
        m[f"classifier.fit.ms_per_call.{label}"] = sum(sel) / len(sel) if sel else 0.0
        lo = hi
    m["classifier.fit.iters"] = tracer.counts["classifier.fit.iters"]
    m["classifier.fit.converged_frac"] = (
        100.0 * tracer.counts["classifier.fit.converged"] / fit_calls if fit_calls else 0.0)
    m["classifier.accuracy.ms"] = get("classifier.accuracy", "self_ms")
    m["strategies.score_pool.ms"] = get("strategies.score_pool", "ms")
    m["strategies.score_pool.rows"] = tracer.counts["strategies.score_pool.rows"]
    for st in STRATEGY_NAMES:
        m[f"strategies.select_batch.self_ms.{st}"] = get(f"strategies.select_batch.{st}", "self_ms")
    for fn in ("uniform_sample", "select_top_k"):
        m[f"sampling.{fn}.calls"] = get(f"sampling.{fn}", "calls")
        m[f"sampling.{fn}.ms"] = get(f"sampling.{fn}", "ms")
        m[f"sampling.{fn}.items"] = tracer.counts[f"sampling.{fn}.items"]
    m["harness.run_trial.self_ms"] = get("harness.run_trial", "self_ms")
    m["harness.holdout_ids.ms"] = get("harness.holdout_ids", "ms")
    m["harness.biased_init.ms"] = get("harness.biased_init", "ms")
    m["harness.validate_lemma.self_ms"] = get("harness.validate_lemma", "self_ms")
    m["data.load_csv.ms"] = get("data.load_csv", "ms")
    m["data.load_csv.rows"] = tracer.counts["data.load_csv.rows"]
    m["data.standardize.ms"] = get("data.standardize", "ms")
    m["cli.cmd_run.self_ms"] = get("cli.cmd_run", "self_ms")
    m["cli.write_run_outputs.ms"] = get("cli.write_run_outputs", "ms")
    m["trace.layers_self_ms"] = sum(row["self_ms"] for name, row in s.items()
                                    if not name.startswith("trace."))
    m["trace.diag_ms"] = get("trace.diag", "self_ms")
    m["trace.spans"] = len(tracer.names)
    return m


def is_count(name: str) -> bool:
    return PER_LAYER[name][0] in ("count", "%")


def combine_cycles(cycles: list[dict[str, float]]) -> dict[str, float]:
    """Counts must repeat exactly across traced cycles; times are medians."""
    out = {}
    for name in cycles[0]:
        vals = [c[name] for c in cycles]
        if is_count(name):
            if any(v != vals[0] for v in vals):
                raise RuntimeError(f"count {name} differs between traced cycles: {vals}")
            out[name] = vals[0]
        else:
            out[name] = statistics.median(vals)
    return out
