"""Fast self-test of the benchmark harness (a few seconds).

    python3 bench/selftest.py

Checks that
1. a tiny config that calls every layer, run through the tracer, yields
   every per-layer metric listed in BENCHMARK.json, with nonzero calls and
   self time for each traced function, and self times that sum to the root
   span on one thread;
2. every metric name matches [A-Za-z0-9_.-]+;
3. an experiment that raises is counted in failed_frac instead of aborting
   the benchmark;
4. pool-thread spans take the submitting span as parent, and a parent's
   self time excludes the union of its overlapping children once.
Exits 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import json
import re
import sys
import time

import run
import spans

NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")

# small versions of every experiment family that reaches a traced layer
ALL_LAYERS = {
    "experiments": [
        {"kind": "intrinsic_volumes", "d": 2, "n_steps": 200, "trials": 100},
        {"kind": "intrinsic_volumes", "d": 3, "n_steps": 50, "trials": 100},
        {"kind": "gram_determinant", "d": 2, "j": 1, "trials": 1000},
        {"kind": "lp_brownian", "p": 1.0, "n_steps": 200, "trials": 20, "quad_points": 256},
        {"kind": "lp_stable_consistency", "alpha": 1.5, "n_steps": 100, "trials": 20,
         "grid_n": 200, "sup_paths": 200, "quad_points": 256},
        {"kind": "renewal_ratio", "t_values": [2.0], "trials": 20, "et1_trials": 50},
        {"kind": "exit_tail", "tail_alpha": 1.5, "trials": 50},
    ]
}

# a Brownian motion this slow never leaves the unit ball, so the exit-time
# batch raises mid-run
RAISES = {
    "experiments": [
        {"kind": "gram_determinant", "d": 2, "j": 1, "trials": 1000},
        {"kind": "renewal_ratio", "t_values": [1.0], "trials": 5, "et1_trials": 5, "c": 1e-9},
    ]
}


def check_layers(failures: list) -> dict:
    config = run.RUNS_DIR / "selftest-all-layers.json"
    config.write_text(json.dumps(ALL_LAYERS), encoding="utf-8")
    rec = run.run_child(config, 0, 1, "selftest", trace=True)
    if "spans" not in rec:
        failures.append(f"traced tiny run left no spans: {rec.get('stderr_tail')}")
        return {}
    metrics = spans.layer_metrics(rec["spans"])
    listed = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for m in listed["per_layer"]:
        if m["name"] not in metrics and m["name"] != "trace.overhead_s":
            failures.append(f"per-layer metric {m['name']} not produced")
    for fn, suffixes in spans.FUNCTION_METRICS.items():
        for suffix in ("calls", "self_s"):
            key = f"{fn}.{suffix}"
            if suffix in suffixes and not metrics.get(key, 0) > 0:
                failures.append(f"{key} is {metrics.get(key)} although the tiny run calls it")
    for layer in spans.LAYER_SELF:
        if not metrics[f"{layer}.self_s"] > 0:
            failures.append(f"{layer}.self_s is 0 although the tiny run calls it")
    if abs(metrics["trace.self_sum_ratio"] - 1.0) > 1e-6:
        failures.append(
            f"single-thread self times sum to {metrics['trace.self_sum_ratio']} of the root span"
        )
    return {**{m["name"]: 0 for m in listed["per_layer"]},
            **{m["name"]: 0 for m in listed["end_to_end"]}, **metrics}


def check_names(names, failures: list) -> None:
    for name in names:
        if not NAME_RE.fullmatch(name):
            failures.append(f"metric name {name!r} has characters outside [A-Za-z0-9_.-]")


def check_raising_experiment(failures: list) -> None:
    config = run.RUNS_DIR / "selftest-raises.json"
    config.write_text(json.dumps(RAISES), encoding="utf-8")
    res = run.measure("selftest-raises", config, 1, 0, 0.0, trace=True)
    if not (res["attempted"] > 0 and res["failed"] > 0):
        failures.append(f"raising experiment not counted: {res['failed']} of {res['attempted']}")


def check_threads(failures: list) -> None:
    tracer = spans.Tracer()
    pool = tracer.executor_class()

    def leaf():
        time.sleep(0.02)

    traced_leaf = tracer.wrap(leaf, "t.leaf")

    def experiment():
        with pool(max_workers=2) as ex:
            for f in [ex.submit(traced_leaf) for _ in range(4)]:
                f.result()

    tracer.call("t.experiment", experiment, (), {})
    rows = [
        {"id": s[0], "parent": s[1], "name": s[2], "t0": s[3], "t1": s[4], "thread": s[5]}
        for s in tracer.spans
    ]
    by_name = {}
    for r in rows:
        by_name.setdefault(r["name"], []).append(r)
    root = by_name["t.experiment"][0]
    tasks = by_name.get("t.pool_task", [])
    if len(tasks) != 4 or any(t["parent"] != root["id"] for t in tasks):
        failures.append("pool tasks are not parented on the submitting span")
    if any(t["thread"] == root["thread"] for t in tasks):
        failures.append("pool tasks ran on the submitting thread")
    selfs = spans.self_times(rows)
    covered = spans.union_length([(t["t0"], t["t1"]) for t in tasks], root["t0"], root["t1"])
    expect = root["t1"] - root["t0"] - covered
    if abs(selfs[root["id"]] - expect) > 1e-9 or selfs[root["id"]] < 0:
        failures.append("experiment self time is not duration minus the union of its children")
    if spans.union_length([(0, 2), (1, 3), (5, 6)], 0, 10) != 4:
        failures.append("union_length miscounts overlapping intervals")


def main() -> int:
    run.RUNS_DIR.mkdir(exist_ok=True)
    failures = []
    metrics = check_layers(failures)
    check_names(metrics, failures)
    check_raising_experiment(failures)
    check_threads(failures)
    for f in failures:
        print(f"FAIL {f}")
    print("selftest " + ("passed" if not failures else f"failed ({len(failures)})"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
