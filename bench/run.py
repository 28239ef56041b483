"""levyhull benchmark: time to verdict of `levyhull run` on fixed workloads.

    python3 bench/run.py --workload {smoke_cli,hull_walks,exit_scan,all}
                         [--seed N] [--seconds S] [--trace 0|1]

Each run is one fresh child process (bench/child.py, which calls
levyhull.cli.main on `run <config> --seed N --threads K --out <dir>`) with
levyhull imported from this checkout's src/. The load is a closed loop: one
run at a time, the next starting when the previous one has exited.

--trace 0 reports the end-to-end metrics (medians over the runs made in
--seconds; for the single-threaded workloads rescaled to a reference host
speed, see SINGLE_THREADED); --trace 1 pairs untraced and traced runs and reports per-layer
metrics from the spans (see spans.py). Every run is checked: exit code 0,
no FAIL verdict, and a results.csv identical to every other run at the same
seed; a workload measured at several threads (smoke_cli) is also run once
at --threads 1, which must write the same results.csv. The last stdout line
is one JSON object with the keys correct, attempted, failed (counted in
experiments) and metrics. Scratch output goes to .bench_runs/ in the
checkout.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUNS_DIR = ROOT / ".bench_runs"

# workload -> --threads; the config is workloads/<name>.json
WORKLOADS = {"smoke_cli": 2, "hull_walks": 1, "exit_scan": 1}
# The single-threaded workloads run with one OpenBLAS thread: two spinning
# BLAS threads on a 2-vCPU host made hull_walks time the scheduler, and one
# competing thread stretched a run from 10.8 s to 17.4 s. Their timed
# metrics are also rescaled: reference.py runs before the first run and after
# every run, and each run's times are scaled by REF_WORK_S over the mean of
# the two reference times around it. The host's
# single-thread speed drifts by 20-30% within minutes; the reference tracks
# it (per-child correlation 0.84 on exit_scan) and takes it out. smoke_cli
# keeps the BLAS default, so its cpu_s still shows what the default costs,
# and is not rescaled: its two pool threads did not track the
# single-thread reference (correlation at most 0.4).
SINGLE_THREADED = {"hull_walks", "exit_scan"}
REF_WORK_S = 0.40  # reference.py's typical time on the baseline host
# a workload run at more threads must write the results.csv of a run at this
# count: the reproducibility contract
REFERENCE_THREADS = 1

END_TO_END = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}

SETUP_PROBES = 5  # extra set-up-only children per --trace 0 run
MIN_RUNS = 3
CHILD_TIMEOUT_S = 150.0


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment(seed: int) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy < 1.26 has no dict mode
        blas_name = "unknown"
    return {
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "seed": seed,
    }


# -- one child run -----------------------------------------------------


def _experiment_digests(csv_path: Path) -> dict:
    """experiment label -> sha256 of its results.csv rows."""
    groups = {}
    with open(csv_path, encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            groups.setdefault(row["experiment"], []).append(json.dumps(row, sort_keys=True))
    return {
        label: hashlib.sha256("\n".join(rows).encode()).hexdigest()
        for label, rows in groups.items()
    }


def run_child(config: Path, seed: int, threads: int, tag: str,
              trace: bool = False, setup_only: bool = False,
              blas_threads: str | None = None) -> dict:
    """Run one child to completion and read what it left behind."""
    work = RUNS_DIR / tag
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    out = work / "out"
    cmd = [sys.executable, str(BENCH / "child.py"), "--timing", str(work / "timing.json")]
    if trace:
        cmd += ["--trace", str(work / "spans.json")]
    if setup_only:
        cmd.append("--setup-only")
    cmd += ["--", "run", str(config), "--seed", str(seed), "--threads", str(threads),
            "--out", str(out)]
    # LEVYHULL_THREADS would override --threads
    env = {k: v for k, v in os.environ.items() if k != "LEVYHULL_THREADS"}
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    with open(work / "stdout.txt", "wb") as so, open(work / "stderr.txt", "wb") as se:
        t_spawn = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=so, stderr=se)
        # a blocking wait4 keeps the child's rusage and costs no CPU; the
        # timer only fires for a hung child
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        t_exit = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)

    rec = {
        "returncode": proc.returncode,
        "duration_s": t_exit - t_spawn,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss * 1024 / 1e6,  # ru_maxrss is in KiB
    }
    try:
        stamps = json.loads((work / "timing.json").read_text(encoding="utf-8"))
    except (OSError, ValueError):
        stamps = {}
    first = stamps.get("first_experiment")
    rec["setup_s"] = first - t_spawn if first is not None else rec["duration_s"]
    written = stamps.get("outputs_written")
    rec["wall_s"] = (
        written - first if first is not None and written is not None else rec["duration_s"]
    )
    if not setup_only:
        try:
            rec["digest"] = hashlib.sha256((out / "results.csv").read_bytes()).hexdigest()
            rec["experiments"] = _experiment_digests(out / "results.csv")
            rec["verdicts"] = json.loads((out / "summary.json").read_text(encoding="utf-8"))["verdicts"]
            rec["config_digest"] = json.loads(
                (out / "manifest.json").read_text(encoding="utf-8")
            )["config_digest"]
            if trace:
                rec["spans"] = json.loads((work / "spans.json").read_text(encoding="utf-8"))
        except (OSError, ValueError, KeyError) as exc:
            rec["missing_outputs"] = repr(exc)
    if proc.returncode != 0 or "missing_outputs" in rec:
        rec["stderr_tail"] = (work / "stderr.txt").read_text(errors="replace")[-2000:]
    shutil.rmtree(work, ignore_errors=True)
    return rec


# -- correctness bookkeeping -------------------------------------------


class Tally:
    """Experiments attempted and failed across the runs of one workload.

    An experiment fails when its run raised or wrote no outputs (then every
    experiment of the run fails, since none got a written verdict), when
    its verdict is FAIL, or when its results.csv rows differ from those of
    the first complete run at the same seed. A nonzero exit with none of
    these fails the whole run.
    """

    def __init__(self, n_experiments: int):
        self.n_experiments = n_experiments
        self.attempted = 0
        self.failed = 0
        self.reference = None
        self.problems = []

    def check(self, rec: dict, what: str) -> None:
        self.attempted += self.n_experiments
        if "missing_outputs" in rec:
            failed, why = self.n_experiments, f"no outputs: {rec['missing_outputs']}"
        else:
            if self.reference is None:
                self.reference = rec
            ref = self.reference
            labels = set(rec["verdicts"]) | set(ref["verdicts"])
            differs = {
                label for label in labels
                if rec["experiments"].get(label) != ref["experiments"].get(label)
            }
            if rec["digest"] != ref["digest"] or rec["config_digest"] != ref["config_digest"]:
                differs = differs or labels
            fails = {k for k, v in rec["verdicts"].items() if v == "FAIL"}
            bad = fails | differs
            if rec["returncode"] != 0 and not bad:
                bad = labels
            failed = len(bad)
            why = f"FAIL verdicts {sorted(fails)}, differs from the first run {sorted(differs)}"
        if failed:
            self.failed += failed
            self.problems.append(
                f"{what}: exit {rec['returncode']}, {failed} experiments failed; {why}\n"
                f"{rec.get('stderr_tail', '')}"
            )


# -- one workload ------------------------------------------------------


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def reference_s() -> float:
    """Seconds of bench/reference.py's fixed work, in a fresh process."""
    out = subprocess.run(
        [sys.executable, str(BENCH / "reference.py")], cwd=ROOT,
        env={**os.environ, "OPENBLAS_NUM_THREADS": "1"},
        capture_output=True, text=True, timeout=60, check=True,
    )
    return float(out.stdout.split()[-1])


def measure(name: str, config: Path, threads: int, seed: int, seconds: float,
            trace: bool, single_threaded: bool = False) -> dict:
    """Set-up probes, then runs until ``seconds`` have passed (at least
    MIN_RUNS untraced, or one untraced-traced pair), then the checks.
    A single-threaded workload runs with one BLAS thread, and its untraced
    runs alternate with reference.py (see SINGLE_THREADED)."""
    tally = Tally(len(json.loads(config.read_text(encoding="utf-8"))["experiments"]))
    tag = f"{name}-{os.getpid()}"
    blas_threads = "1" if single_threaded else None
    rescale = single_threaded and not trace
    refs = []

    def child(*args, **kwargs):
        return run_child(config, seed, *args, tag, blas_threads=blas_threads, **kwargs)

    # fills the bytecode and page caches; users do not pay that per run
    child(threads, setup_only=True)
    setups = []
    if not trace:
        for _ in range(SETUP_PROBES):
            setups.append(child(threads, setup_only=True)["setup_s"])

    runs, traced = [], []
    t0 = time.monotonic()
    if rescale:
        refs.append(reference_s())
    while True:
        # pairs alternate which side runs first, so drift in machine speed
        # does not bias the tracing overhead one way
        sides = [False, True] if trace else [False]
        if len(traced) % 2:
            sides.reverse()
        for traced_run in sides:
            rec = child(threads, trace=traced_run)
            kept = traced if traced_run else runs
            tally.check(rec, f"{'traced ' if traced_run else ''}run {len(kept) + 1}")
            kept.append(rec)
        if rescale:
            refs.append(reference_s())
        if rescale:  # a run together with its reference.py
            step = (time.monotonic() - t0) / len(runs)
        else:
            step = statistics.median(r["duration_s"] for r in runs)
        # room for the next round, and for the reproducibility run if due
        room = step * ((2 if trace else 1) + (threads != REFERENCE_THREADS))
        enough = len(runs) >= (1 if trace else MIN_RUNS)
        if enough and time.monotonic() - t0 + room > seconds:
            break
    if threads != REFERENCE_THREADS:
        rec = run_child(config, seed, REFERENCE_THREADS, tag, blas_threads=blas_threads)
        tally.check(rec, f"--threads {REFERENCE_THREADS} reproducibility run")

    result = {
        "workload": name,
        "threads": threads,
        "blas_threads": blas_threads,
        "seed": seed,
        "runs": len(runs),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "problems": tally.problems,
        "config_digest": runs[0].get("config_digest"),
        "results_digest": runs[0].get("digest"),
        "raw": [{k: v for k, v in r.items() if k not in ("spans", "experiments")}
                for r in runs + traced],
    }
    if trace:
        per_run = [spans.layer_metrics(r["spans"]) for r in traced if "spans" in r]
        untraced_wall = statistics.median(r["wall_s"] for r in runs)
        traced_wall = statistics.median(r["wall_s"] for r in traced)
        units = spans.per_layer_metric_units()
        metrics = {
            k: statistics.median_low(m[k] for m in per_run) if per_run else 0.0
            for k in units if k != "trace.overhead_s"
        }
        metrics["trace.overhead_s"] = traced_wall - untraced_wall
        result["metrics"] = {k: {"value": metrics[k], "unit": units[k]} for k in units}
    else:
        # each child is scaled by the reference times taken next to it:
        # a run by the mean of the two around it, the set-up probes (which
        # came before the first reference) by the first
        if refs:
            probe_f = REF_WORK_S / refs[0]
            run_f = [2 * REF_WORK_S / (refs[i] + refs[i + 1]) for i in range(len(runs))]
        else:
            probe_f, run_f = 1.0, [1.0] * len(runs)
        samples = {
            "wall_s": [r["wall_s"] * f for r, f in zip(runs, run_f)],
            "setup_s": [x * probe_f for x in setups]
            + [r["setup_s"] * f for r, f in zip(runs, run_f)],
            "cpu_s": [r["cpu_s"] * f for r, f in zip(runs, run_f)],
            "peak_rss_mb": [r["peak_rss_mb"] for r in runs],
        }
        result["metrics"] = {
            k: {"value": statistics.median(v), "unit": END_TO_END[k]}
            for k, v in samples.items()
        }
        result["quartiles"] = {k: _quartiles(v) for k, v in samples.items()}
        result["samples"] = {k: len(v) for k, v in samples.items()}
        if refs:
            result["raw_medians"] = {
                "wall_s": statistics.median(r["wall_s"] for r in runs),
                "setup_s": statistics.median(setups + [r["setup_s"] for r in runs]),
                "cpu_s": statistics.median(r["cpu_s"] for r in runs),
            }
            result["reference_s"] = refs
            result["speed_factors"] = run_f
    return result


def print_report(res: dict) -> None:
    frac = res["failed"] / res["attempted"] if res["attempted"] else 1.0
    status = "correct" if res["failed"] == 0 else "INCORRECT"
    print(
        f"== {res['workload']}  seed {res['seed']}  --threads {res['threads']}  "
        f"OPENBLAS_NUM_THREADS {res['blas_threads'] or 'as found'}  runs {res['runs']}  {status}"
    )
    print(f"  config_digest {res['config_digest']}")
    print(f"  results.csv sha256 {res['results_digest']}")
    print(f"  failed_frac  {frac:.4f} ratio  ({res['failed']} of {res['attempted']} experiments)")
    for name, m in res["metrics"].items():
        value = m["value"]
        shown = f"{value:14d}" if isinstance(value, int) else f"{value:14.6f}"
        line = f"  {name:44s} {shown} {m['unit']}"
        if "quartiles" in res:
            q1, q3 = res["quartiles"][name]
            line += f"  (q1 {q1:.6f}, q3 {q3:.6f}, n={res['samples'][name]}, lower is better"
            if name in res.get("raw_medians", {}):
                line += f"; raw median {res['raw_medians'][name]:.6f}"
            line += ")"
        print(line)
    if "reference_s" in res:
        refs = res["reference_s"]
        print(f"  reference.py median {statistics.median(refs):.6f} s over {len(refs)} runs; "
              f"each run scaled by {REF_WORK_S} / mean of the two around it")
    for p in res["problems"]:
        print(f"  problem: {p}", file=sys.stderr)


def main(argv=None) -> int:
    bench_cfg = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=bench_cfg["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "levyhull" / "cli.py").is_file():
        print(f"no levyhull sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    RUNS_DIR.mkdir(exist_ok=True)
    env = environment(args.seed)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = [
        measure(n, BENCH / "workloads" / f"{n}.json", WORKLOADS[n], args.seed,
                args.seconds, bool(args.trace), n in SINGLE_THREADED)
        for n in names
    ]
    for res in results:
        print_report(res)
        report = RUNS_DIR / f"{res['workload']}-seed{args.seed}-trace{args.trace}.json"
        report.write_text(json.dumps({"environment": env, **res}, indent=1) + "\n", encoding="utf-8")
    print("environment " + json.dumps(env, sort_keys=True))
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
