"""In-memory span tracer for levyhull runs, and the per-layer metrics
derived from its spans.

The tracer wraps public levyhull functions where their caller modules bind
them (``levyhull.mc_engine.hull2d``, ``levyhull.limits.exit_times``, ...),
so nothing inside the package changes. Each call becomes one span: name
(``<module>.<function>``; the module is the span's layer), start, end,
parent span, thread, and work counts read from the arguments and return
value.

Parents follow the caller across threads: a task submitted to the trial
pool opens a ``<layer>.pool_task`` span whose parent is the innermost span
open on the submitting thread. A span's self time is its duration minus the
union of its children's intervals, so overlapping pool-thread children are
not subtracted twice.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import math
import threading
import time
from concurrent.futures import ThreadPoolExecutor

# Layers whose self time is reported as one metric. Spans that have their
# own named metric (below) are left out of their layer's total.
LAYER_SELF = ("mc_engine", "limits", "lp_volumes", "closed_form", "cli_report")

# function span name -> metric suffixes it reports; counts are summed
FUNCTION_METRICS = {
    "rng_stable.trial_rng": ("calls", "self_s"),
    "rng_stable.sample_walk_path": ("calls", "self_s", "steps"),
    "rng_stable.sample_cpp_path": ("calls", "self_s", "jumps"),
    "rng_stable.sample_stable_1d": ("calls", "self_s", "draws"),
    "hullgeom.hull2d": (
        "calls", "self_s", "p50_us", "tail_us", "tail_pct", "points_in", "vertices_out",
    ),
    "hullgeom.hull3d": (
        "calls", "self_s", "p50_us", "tail_us", "tail_pct", "points_in", "vertices_out",
    ),
    "hullgeom.intrinsic_volumes_2d": ("self_s",),
    "hullgeom.intrinsic_volumes_3d": ("self_s", "p50_us"),
    "limits.exit_times.linear": (
        "calls", "self_s", "p50_us", "tail_us", "tail_pct", "points", "exits",
    ),
    "limits.exit_times.grid": ("calls", "self_s", "points", "exits"),
    "results.from_samples": ("self_s",),
}

# spans reported under a cli_report metric of their own
CLI_REPORT_METRICS = {
    "cli_report.load_config": "cli_report.load_config_s",
    "cli_report.write_results_csv": "cli_report.write_results_csv_s",
}

UNITS = {
    "calls": "count",
    "self_s": "s",
    "p50_us": "us",
    "tail_us": "us",
    "tail_pct": "%",
    "steps": "count",
    "jumps": "count",
    "draws": "count",
    "points_in": "count",
    "vertices_out": "count",
    "points": "count",
    "exits": "count",
}

# Percentiles tried for the tail, highest first; the tail is the highest
# one with at least TAIL_BEYOND calls above it.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10


def per_layer_metric_units() -> dict:
    """Every per-layer metric name -> unit, in report order."""
    out = {}
    for fn, suffixes in FUNCTION_METRICS.items():
        for s in suffixes:
            out[f"{fn}.{s}"] = UNITS[s]
    for layer in LAYER_SELF:
        out[f"{layer}.self_s"] = "s"
    for metric in CLI_REPORT_METRICS.values():
        out[metric] = "s"
    out["trace.overhead_s"] = "s"
    out["trace.spans"] = "count"
    out["trace.self_sum_ratio"] = "ratio"
    return out


# -- recording ---------------------------------------------------------


def layer_of(span_name: str) -> str:
    return span_name.partition(".")[0]


class Tracer:
    """Collects spans in memory; ``dump`` writes them out at the end."""

    def __init__(self):
        # list.append and next() on an itertools.count are single calls
        # into C, so pool threads can record without a lock
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def current(self):
        """(span id, name) of the innermost span open on this thread."""
        st = self._stack()
        return st[-1] if st else None

    def call(self, name, fn, args, kwargs, parent=None, counts=None):
        """Run fn(*args, **kwargs) inside a span. ``parent`` overrides the
        thread's own stack, for work handed over from another thread."""
        st = self._stack()
        if parent is None and st:
            parent = st[-1]
        sid = next(self._ids)
        st.append((sid, name))
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            st.pop()
        extra = counts(args, kwargs, out) if counts else None
        self.spans.append(
            (sid, parent[0] if parent else 0, name, t0, t1, threading.get_ident(), extra)
        )
        return out

    def wrap(self, fn, name, counts=None):
        """fn wrapped so that every call records a span. ``name`` may be a
        callable of (args, kwargs) for spans tagged by an argument."""
        named = callable(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            n = name(args, kwargs) if named else name
            return self.call(n, fn, args, kwargs, counts=counts)

        return traced

    def executor_class(self):
        """A ThreadPoolExecutor whose tasks run as ``<layer>.pool_task``
        spans parented on the span open where they were submitted."""
        tracer = self

        class PropagatingExecutor(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                parent = tracer.current()
                layer = layer_of(parent[1]) if parent else "unknown"
                return super().submit(
                    tracer.call, f"{layer}.pool_task", fn, args, kwargs, parent
                )

        return PropagatingExecutor

    def dump(self, path) -> None:
        rows = [
            {"id": s[0], "parent": s[1], "name": s[2], "t0": s[3], "t1": s[4],
             "thread": s[5], "counts": s[6] or {}}
            for s in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(rows, fh)


# -- instrumenting levyhull --------------------------------------------


def _exit_mode(args, kwargs):
    if kwargs.get("drift", args[1] if len(args) > 1 else None) is not None:
        return "limits.exit_times.drift"
    return f"limits.exit_times.{kwargs.get('mode', args[2] if len(args) > 2 else 'grid')}"


def _hull_counts(args, kwargs, out):
    return {"points_in": len(args[0]), "vertices_out": out.n_vertices}


def _draws(args, kwargs, out):
    return {"draws": int(getattr(out, "size", 1))}


COUNTERS = {
    "rng_stable.sample_walk_path": lambda a, k, out: {"steps": len(out.points) - 1},
    # times are 0, each jump time, then the horizon
    "rng_stable.sample_cpp_path": lambda a, k, out: {"jumps": max(len(out.times) - 2, 0)},
    "rng_stable.sample_stable_1d": _draws,
    "hullgeom.hull2d": _hull_counts,
    "hullgeom.hull3d": _hull_counts,
    "limits.exit_times": lambda a, k, out: {"points": len(a[0].points), "exits": out.n_exits},
}

CALLER_MODULES = ("cli", "cli_report", "mc_engine", "limits", "lp_volumes")

# public functions called through their own module's globals
SAME_MODULE_CALLS = (
    ("limits", "exit_times"),
    ("limits", "estimate_mean_exit_time"),
    ("cli_report", "write_results_csv"),
)


def _wrap_binding(tracer, module, attr, home) -> None:
    fn = getattr(module, attr)
    base = f"{home}.{fn.__name__}"
    name = _exit_mode if base == "limits.exit_times" else base
    setattr(module, attr, tracer.wrap(fn, name, COUNTERS.get(base)))


def instrument(tracer: Tracer, package) -> None:
    """Wrap every public levyhull function where a caller module binds it,
    plus the CLI runner table, results.csv writing, the exit-time batch,
    EstimateResult construction and the trial pool's executor."""
    mods = {name: getattr(package, name) for name in CALLER_MODULES}
    for caller_name, caller in mods.items():
        for attr, value in list(vars(caller).items()):
            if attr.startswith("_") or not inspect.isfunction(value):
                continue
            home = value.__module__.rpartition(".")[2]
            if value.__module__.startswith("levyhull.") and home != caller_name:
                _wrap_binding(tracer, caller, attr, home)
    for home, attr in SAME_MODULE_CALLS:
        _wrap_binding(tracer, mods[home], attr, home)
    report = mods["cli_report"]
    for kind, runner in list(report._RUNNERS.items()):
        report._RUNNERS[kind] = tracer.wrap(runner, f"cli_report.{runner.__name__}")
    est = package.results.EstimateResult
    from_samples = est.from_samples.__func__
    est.from_samples = classmethod(
        tracer.wrap(from_samples, "results.from_samples")
    )
    mods["mc_engine"].ThreadPoolExecutor = tracer.executor_class()


# -- aggregation -------------------------------------------------------


def union_length(intervals, lo, hi) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    end = lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def self_times(spans) -> dict:
    """span id -> duration minus the union of its children's intervals."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append((s["t0"], s["t1"]))
    return {
        s["id"]: (s["t1"] - s["t0"])
        - union_length(children.get(s["id"], ()), s["t0"], s["t1"])
        for s in spans
    }


def percentile(sorted_vals, q: float) -> float:
    """Linear-interpolated percentile of an ascending list."""
    if not sorted_vals:
        return 0.0
    pos = (len(sorted_vals) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(sorted_vals) - 1)
    return sorted_vals[lo] + (sorted_vals[hi] - sorted_vals[lo]) * (pos - lo)


def tail_percentile(n_calls: int) -> float:
    """Highest ladder percentile with at least TAIL_BEYOND calls beyond it
    (the median when there are too few calls for any)."""
    for q in TAIL_LADDER:
        if n_calls * (1.0 - q / 100.0) >= TAIL_BEYOND:
            return q
    return TAIL_LADDER[-1]


def layer_metrics(spans) -> dict:
    """Per-layer metric name -> value, from one traced run's spans. Layers
    that were never called report zero."""
    selfs = self_times(spans)
    by_name = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)
    out = {}
    for fn, suffixes in FUNCTION_METRICS.items():
        group = by_name.get(fn, [])
        durs_us = sorted((s["t1"] - s["t0"]) * 1e6 for s in group)
        tail_q = tail_percentile(len(group))
        values = {
            "calls": len(group),
            "self_s": math.fsum(selfs[s["id"]] for s in group),
            "p50_us": percentile(durs_us, 50.0),
            "tail_us": percentile(durs_us, tail_q),
            "tail_pct": tail_q if group else 0.0,
        }
        for suffix in suffixes:
            if suffix not in values:
                values[suffix] = sum(s["counts"].get(suffix, 0) for s in group)
            out[f"{fn}.{suffix}"] = values[suffix]
    own = set(FUNCTION_METRICS) | set(CLI_REPORT_METRICS)
    for layer in LAYER_SELF:
        out[f"{layer}.self_s"] = math.fsum(
            selfs[s["id"]]
            for s in spans
            if layer_of(s["name"]) == layer and s["name"] not in own
        )
    for name, metric in CLI_REPORT_METRICS.items():
        out[metric] = math.fsum(selfs[s["id"]] for s in by_name.get(name, []))
    roots = [s for s in spans if s["parent"] == 0]
    root_s = sum(s["t1"] - s["t0"] for s in roots)
    out["trace.spans"] = len(spans)
    out["trace.self_sum_ratio"] = math.fsum(selfs.values()) / root_s if root_s > 0 else 0.0
    return out
