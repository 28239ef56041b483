"""Config ingestion, experiment orchestration, result persistence, and
report emission.

A JSON config holds an "experiments" array; each entry names a kind plus
its parameters (unknown keys are rejected, defaults are trials=10^4,
n_steps=10^4, tolerance_sigma=4). `run_all` executes the plans, assigns
one verdict per result row, and writes results.csv / summary.json /
manifest.json. Experiments with a closed-form target get PASS/FAIL;
trend and consistency experiments are INFO so automation stays
deterministic. results.csv has a fixed schema: experiment, param_json,
j, mean, stderr, trials, target, z, verdict. Files are UTF-8 with LF
line endings and RFC-4180 quoting; floats are written with repr() so a
rerun is byte-identical.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from pathlib import Path

from .closed_form import (
    ball_intrinsic_volume,
    walk_ev_intrinsic,
)
from .errors import ConfigError, ResourceError
from .limits import (
    exit_value_tail_experiment,
    renewal_ratio_experiment,
    scaled_hull_convergence,
)
from .lp_volumes import verify_lp_brownian, verify_lp_stable_consistency
from .mc_engine import (
    ExperimentConfig,
    run_boundary_origin_experiment,
    run_faces_experiment,
    run_gram_experiment,
    run_interior_endpoint_experiment,
    run_intrinsic_volume_experiment,
    run_tail_index_experiment,
)
from .hullgeom import hull2d, hull3d
from .rng_stable import StableSpec, sample_walk_path, stream_id, trial_rng

__all__ = [
    "CSV_COLUMNS",
    "PlannedExperiment",
    "RunManifest",
    "emit_plot_data",
    "list_experiment_kinds",
    "load_config",
    "manifest_exit_code",
    "plan_experiments",
    "run_all",
    "smoke_plans",
]

CSV_COLUMNS = (
    "experiment",
    "param_json",
    "j",
    "mean",
    "stderr",
    "trials",
    "target",
    "z",
    "verdict",
)

DEFAULT_TRIALS = 10_000
DEFAULT_N_STEPS = 10_000
DEFAULT_TOLERANCE_SIGMA = 4.0


@dataclass(frozen=True)
class PlannedExperiment:
    """One validated experiment: kind, display label, resolved params."""

    kind: str
    label: str
    params: dict


@dataclass(frozen=True)
class RunManifest:
    """Everything one run produced: identification, rows, verdicts."""

    run_id: str
    timestamp: str
    config_digest: str
    results: list
    verdicts: dict
    trends: dict


def manifest_exit_code(manifest: RunManifest) -> int:
    """0 iff every non-INFO verdict is PASS, else 1."""
    return 1 if any(v == "FAIL" for v in manifest.verdicts.values()) else 0


# -- config schema -----------------------------------------------------

_REQUIRED = object()


def _cast_value(kind, key, value, tag):
    def bad(expected):
        raise ConfigError(
            f"experiment {kind!r}: field {key!r} must be {expected}, "
            f"got {value!r}"
        )

    if tag == "float":
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            bad("a number")
        return float(value)
    if tag == "int":
        if isinstance(value, bool) or not isinstance(value, int):
            bad("an integer")
        return int(value)
    if tag == "str":
        if not isinstance(value, str):
            bad("a string")
        return value
    if tag == "float_list":
        if (
            not isinstance(value, list)
            or not value
            or any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in value)
        ):
            bad("a non-empty array of numbers")
        return [float(v) for v in value]
    if tag == "int_list":
        if (
            not isinstance(value, list)
            or not value
            or any(isinstance(v, bool) or not isinstance(v, int) for v in value)
        ):
            bad("a non-empty array of integers")
        return [int(v) for v in value]
    raise AssertionError(tag)


# key -> (default, type tag); _REQUIRED marks mandatory keys
_COMMON = {
    "label": (None, "str"),
    "trials": (DEFAULT_TRIALS, "int"),
    "tolerance_sigma": (DEFAULT_TOLERANCE_SIGMA, "float"),
}

_SCHEMAS = {
    "intrinsic_volumes": {
        **_COMMON,
        "alpha": (2.0, "float"),
        "c": (None, "float"),
        "d": (2, "int"),
        "n_steps": (DEFAULT_N_STEPS, "int"),
        "n_values": (None, "int_list"),
        "j_orders": (None, "int_list"),
        "horizon": (1.0, "float"),
        "rel_band": (0.05, "float"),
    },
    "gram_determinant": {
        **_COMMON,
        "d": (_REQUIRED, "int"),
        "j": (_REQUIRED, "int"),
    },
    "boundary_origin": {
        **_COMMON,
        "n_steps": (DEFAULT_N_STEPS, "int"),
        "n_values": (None, "int_list"),
    },
    "interior_endpoint": {
        **_COMMON,
        "n_steps": (DEFAULT_N_STEPS, "int"),
        "n_values": (None, "int_list"),
    },
    "faces_count": {
        **_COMMON,
        "d": (2, "int"),
        "n_steps": (DEFAULT_N_STEPS, "int"),
        "n_values": (None, "int_list"),
    },
    "tail_index": {
        **_COMMON,
        "alpha": (_REQUIRED, "float"),
        "c": (1.0, "float"),
        "d": (2, "int"),
        "j": (1, "int"),
        "n_steps": (DEFAULT_N_STEPS, "int"),
        "hill_k": (None, "int"),
    },
    "lp_brownian": {
        **_COMMON,
        "p": (_REQUIRED, "float"),
        "d": (2, "int"),
        "n_steps": (DEFAULT_N_STEPS, "int"),
        "quad_points": (4096, "int"),
        "rel_band": (0.02, "float"),
    },
    "lp_stable_consistency": {
        **_COMMON,
        "alpha": (_REQUIRED, "float"),
        "c": (1.0, "float"),
        "p": (1.0, "float"),
        "d": (2, "int"),
        "n_steps": (DEFAULT_N_STEPS, "int"),
        "grid_n": (20_000, "int"),
        "sup_paths": (20_000, "int"),
        "quad_points": (4096, "int"),
    },
    "renewal_ratio": {
        **_COMMON,
        "t_values": (_REQUIRED, "float_list"),
        "dt": (0.02, "float"),
        "et1_trials": (None, "int"),
        "alpha": (2.0, "float"),
        "c": (0.5, "float"),
        "d": (2, "int"),
        "flavor": ("brownian", "str"),
        "jump_law": ("pareto", "str"),
        "jump_rate": (None, "float"),
        "tail_alpha": (None, "float"),
        "drift": (None, "float_list"),
    },
    "scaled_hull": {
        **_COMMON,
        "tail_alpha": (None, "float"),
        "jump_law": ("pareto", "str"),
        "jump_rate": (1.0, "float"),
        "d": (2, "int"),
        "t_values": ([1e2, 1e4], "float_list"),
        "n_steps_limit": (2000, "int"),
    },
    "exit_tail": {
        **_COMMON,
        "tail_alpha": (None, "float"),
        "jump_law": ("pareto", "str"),
        "jump_rate": (3.0, "float"),
        "d": (2, "int"),
        "drift": (None, "float_list"),
        "hill_k": (None, "int"),
    },
}

_KIND_DESCRIPTIONS = {
    "intrinsic_volumes": "mean intrinsic volumes of walk hulls vs exact finite-n and limit values",
    "gram_determinant": "Gaussian Gram determinant mean vs j! * V_j of the scaled ball",
    "boundary_origin": "frequency of the origin on the hull boundary vs the face-count bound",
    "interior_endpoint": "frequency of the endpoint interior to the hull (trend, INFO)",
    "faces_count": "mean number of hull faces at the origin vs the exact formula",
    "tail_index": "Hill tail index of hull functional samples (INFO)",
    "lp_brownian": "p-mean mixed volume of Brownian hulls vs the closed form",
    "lp_stable_consistency": "hull-route vs sup-route p-mean mixed volume for stable paths (INFO)",
    "renewal_ratio": "unit-ball exit counts per unit time vs the independent renewal rate (INFO)",
    "scaled_hull": "KS comparison of rescaled long-horizon hulls with the fitted limit walk (INFO)",
    "exit_tail": "Hill tail index of the first-exit displacement norm (INFO)",
}


def list_experiment_kinds():
    """(kind, one-line description) pairs, sorted by kind."""
    return sorted(_KIND_DESCRIPTIONS.items())


def _validate_plan(kind, p):
    def field_error(name, msg):
        raise ConfigError(f"experiment {kind!r}: field {name!r} {msg}")

    if p["trials"] < 2:
        field_error("trials", "must be >= 2")
    if p["tolerance_sigma"] <= 0:
        field_error("tolerance_sigma", "must be > 0")
    if "n_values" in p and p["n_values"] is not None:
        if any(n < 1 for n in p["n_values"]):
            field_error("n_values", "must contain integers >= 1")
    if "n_steps" in p and p["n_steps"] < 1:
        field_error("n_steps", "must be >= 1")

    if kind in ("intrinsic_volumes", "tail_index"):
        # the closed-form expectation formulas need Gamma(1 - 1/alpha)
        if not 1.0 < p["alpha"] <= 2.0:
            field_error("alpha", "must lie in (1, 2] for formula experiments")
        if p["d"] not in (2, 3):
            field_error("d", "must be 2 or 3")
    if kind == "intrinsic_volumes":
        if p["c"] is None:
            p["c"] = 0.5 if p["alpha"] == 2.0 else 1.0
        if p["c"] <= 0:
            field_error("c", "must be > 0")
        if p["horizon"] <= 0:
            field_error("horizon", "must be > 0")
        if p["j_orders"] is None:
            p["j_orders"] = list(range(1, p["d"] + 1))
        if any(not 1 <= j <= p["d"] for j in p["j_orders"]):
            field_error("j_orders", f"must lie in 1..{p['d']}")
    if kind == "gram_determinant":
        if not 1 <= p["j"] <= p["d"] <= 6:
            field_error("j", "must satisfy 1 <= j <= d <= 6")
    if kind == "faces_count" and p["d"] not in (2, 3):
        field_error("d", "must be 2 or 3")
    if kind == "lp_brownian":
        if p["p"] < 1.0:
            field_error("p", "must be >= 1")
        if p["d"] not in (2, 3):
            field_error("d", "must be 2 or 3")
    if kind == "lp_stable_consistency":
        if not 1.0 < p["alpha"] < 2.0:
            field_error("alpha", "must lie strictly in (1, 2)")
        if not 1.0 <= p["p"] < p["alpha"]:
            field_error(
                "p", f"must satisfy 1 <= p < alpha (p-means diverge at p >= alpha={p['alpha']})"
            )
        if p["d"] != 2:
            field_error("d", "must be 2")
    if kind == "renewal_ratio":
        if any(t <= 0 for t in p["t_values"]):
            field_error("t_values", "must be positive")
        if p["dt"] <= 0:
            field_error("dt", "must be > 0")
        if p["flavor"] not in ("brownian", "isotropic", "cpp"):
            field_error("flavor", "must be brownian, isotropic, or cpp")
    if kind in (
        "intrinsic_volumes",
        "gram_determinant",
        "boundary_origin",
        "interior_endpoint",
        "faces_count",
        "tail_index",
    ):
        if p["trials"] < 100:
            field_error("trials", "must be >= 100 for sampled experiments")
    if kind in ("scaled_hull", "exit_tail"):
        if p["jump_law"] == "pareto":
            if p["tail_alpha"] is None:
                field_error("tail_alpha", "is required for pareto jumps")
            if not 0.0 < p["tail_alpha"] < 2.0:
                field_error(
                    "tail_alpha",
                    "must lie in (0, 2); at tail_alpha >= 2 use jump_law 'gaussian'",
                )
        if p["d"] != 2:
            field_error("d", "must be 2")
    if kind == "scaled_hull":
        if any(t < 10.0 for t in p["t_values"]):
            field_error("t_values", "must be >= 10")
    return p


def _plan_one(raw, index: int) -> PlannedExperiment:
    if not isinstance(raw, dict):
        raise ConfigError(f"experiments[{index}] must be a JSON object")
    kind = raw.get("kind")
    if kind not in _SCHEMAS:
        known = ", ".join(sorted(_SCHEMAS))
        raise ConfigError(
            f"experiments[{index}]: unknown experiment kind {kind!r} (known: {known})"
        )
    schema = _SCHEMAS[kind]
    unknown = set(raw) - set(schema) - {"kind"}
    if unknown:
        raise ConfigError(
            f"experiment {kind!r}: unknown keys {sorted(unknown)!r}"
        )
    params = {}
    for key, (default, tag) in schema.items():
        if key in raw:
            params[key] = _cast_value(kind, key, raw[key], tag)
        elif default is _REQUIRED:
            raise ConfigError(f"experiment {kind!r}: field {key!r} is required")
        else:
            params[key] = list(default) if isinstance(default, list) else default
    label = params.pop("label") or kind
    params = _validate_plan(kind, params)
    return PlannedExperiment(kind=kind, label=label, params=params)


def plan_experiments(obj) -> list:
    """Validate a parsed config object into PlannedExperiments."""
    if not isinstance(obj, dict):
        raise ConfigError("config top level must be a JSON object")
    unknown = set(obj) - {"experiments"}
    if unknown:
        raise ConfigError(f"unknown top-level keys {sorted(unknown)!r}")
    entries = obj.get("experiments")
    if not isinstance(entries, list) or not entries:
        raise ConfigError("'experiments' must be a non-empty array")
    plans = [_plan_one(e, i) for i, e in enumerate(entries)]
    seen = {}
    unique = []
    for plan in plans:
        n = seen.get(plan.label, 0)
        seen[plan.label] = n + 1
        label = plan.label if n == 0 else f"{plan.label}#{n + 1}"
        unique.append(PlannedExperiment(plan.kind, label, plan.params))
    return unique


def load_config(path) -> list:
    """Read and validate a JSON experiment config file."""
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        obj = json.loads(p.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"malformed JSON in {path} at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    return plan_experiments(obj)


# -- execution ---------------------------------------------------------


def _row(experiment, params, j, mean, stderr, trials, target, z, verdict):
    return {
        "experiment": experiment,
        "param_json": json.dumps(params, sort_keys=True, separators=(",", ":")),
        "j": j,
        "mean": mean,
        "stderr": stderr,
        "trials": trials,
        "target": target,
        "z": z,
        "verdict": verdict,
    }


def _two_sided(mean, stderr, target, tol_sigma, rel_band=0.0):
    band = max(tol_sigma * stderr, rel_band * abs(target))
    return "PASS" if abs(mean - target) <= band else "FAIL"


def _z(mean, stderr, target):
    if stderr > 0.0:
        return (mean - target) / stderr
    return 0.0 if mean == target else math.inf


def _walk_spec(p):
    flavor = "brownian" if p["alpha"] == 2.0 else "isotropic"
    return StableSpec(alpha=p["alpha"], c=p["c"], d=p["d"], flavor=flavor)


def _cpp_spec(p):
    drift = tuple(p["drift"]) if p.get("drift") else None
    return StableSpec(
        alpha=1.5 if p["jump_law"] == "pareto" else 2.0,
        c=1.0,
        d=p["d"],
        flavor="cpp",
        jump_law=p["jump_law"],
        tail_alpha=p["tail_alpha"] if p["jump_law"] == "pareto" else None,
        jump_rate=p["jump_rate"],
        drift=drift,
    )


def _n_series(p):
    return p["n_values"] if p.get("n_values") else [p["n_steps"]]


def _run_intrinsic(plan, seed):
    p = plan.params
    spec = _walk_spec(p)
    rows = []
    for n in _n_series(p):
        cfg = ExperimentConfig(
            spec,
            n_steps=n,
            trials=p["trials"],
            j_orders=tuple(p["j_orders"]),
            horizon=p["horizon"],
            master_seed=seed,
        )
        results = run_intrinsic_volume_experiment(cfg)
        for j, r in zip(p["j_orders"], results):
            limit = r.target.value
            scale = p["horizon"] ** (j / p["alpha"])
            try:
                vj = ball_intrinsic_volume(p["d"], j, p["c"] ** (1.0 / p["alpha"]))
                target = walk_ev_intrinsic(n, j, p["alpha"], vj) * scale
                rel_band, target_kind = 0.0, "exact"
            except ResourceError:
                target, rel_band, target_kind = limit, p["rel_band"], "limit"
            verdict = _two_sided(
                r.mean, r.stderr, target, p["tolerance_sigma"], rel_band
            )
            rows.append(
                _row(
                    plan.label,
                    {
                        "alpha": p["alpha"],
                        "c": p["c"],
                        "d": p["d"],
                        "horizon": p["horizon"],
                        "n": n,
                        "target_kind": target_kind,
                        "limit_target": limit,
                    },
                    j,
                    r.mean,
                    r.stderr,
                    r.trials,
                    target,
                    _z(r.mean, r.stderr, target),
                    verdict,
                )
            )
    return rows, {}


def _run_gram(plan, seed):
    p = plan.params
    r = run_gram_experiment(p["d"], p["j"], trials=p["trials"], seed=seed)
    verdict = _two_sided(r.mean, r.stderr, r.target.value, p["tolerance_sigma"])
    row = _row(
        plan.label,
        {"d": p["d"], "j": p["j"]},
        p["j"],
        r.mean,
        r.stderr,
        r.trials,
        r.target.value,
        _z(r.mean, r.stderr, r.target.value),
        verdict,
    )
    return [row], {}


def _run_boundary(plan, seed):
    p = plan.params
    spec = StableSpec(alpha=2.0, c=0.5, d=2, flavor="brownian")
    rows = []
    for n in _n_series(p):
        cfg = ExperimentConfig(
            spec,
            n_steps=n,
            trials=p["trials"],
            master_seed=seed,
        )
        r, bound = run_boundary_origin_experiment(cfg)
        # the face-count mean bounds the boundary probability from above
        ok = r.mean <= bound + p["tolerance_sigma"] * r.stderr
        rows.append(
            _row(
                plan.label,
                {"n": n, "bound": "upper"},
                "",
                r.mean,
                r.stderr,
                r.trials,
                bound,
                _z(r.mean, r.stderr, bound),
                "PASS" if ok else "FAIL",
            )
        )
    return rows, {}


def _run_interior(plan, seed):
    p = plan.params
    spec = StableSpec(alpha=2.0, c=0.5, d=2, flavor="brownian")
    rows = []
    means = []
    for n in _n_series(p):
        cfg = ExperimentConfig(
            spec,
            n_steps=n,
            trials=p["trials"],
            master_seed=seed,
        )
        r = run_interior_endpoint_experiment(cfg)
        means.append(r.mean)
        rows.append(
            _row(
                plan.label,
                {"n": n, "limit": 1.0},
                "",
                r.mean,
                r.stderr,
                r.trials,
                "",
                "",
                "INFO",
            )
        )
    trend = {}
    if len(means) > 1:
        trend[plan.label] = {"increasing": all(b > a for a, b in zip(means, means[1:]))}
    return rows, trend


def _run_faces(plan, seed):
    p = plan.params
    spec = StableSpec(alpha=2.0, c=0.5, d=p["d"], flavor="brownian")
    rows = []
    for n in _n_series(p):
        cfg = ExperimentConfig(
            spec,
            n_steps=n,
            trials=p["trials"],
            master_seed=seed,
        )
        r = run_faces_experiment(cfg)
        target = r.target.value
        # the d=3 counting formula is kept informational
        verdict = (
            _two_sided(r.mean, r.stderr, target, p["tolerance_sigma"])
            if p["d"] == 2
            else "INFO"
        )
        rows.append(
            _row(
                plan.label,
                {"d": p["d"], "n": n},
                "",
                r.mean,
                r.stderr,
                r.trials,
                target,
                _z(r.mean, r.stderr, target),
                verdict,
            )
        )
    return rows, {}


def _run_tail_index(plan, seed):
    p = plan.params
    spec = _walk_spec(p)
    cfg = ExperimentConfig(
        spec,
        n_steps=p["n_steps"],
        trials=p["trials"],
        j_orders=(p["j"],),
        master_seed=seed,
        hill_k=p["hill_k"],
    )
    r = run_tail_index_experiment(cfg)
    row = _row(
        plan.label,
        {"alpha": p["alpha"], "c": p["c"], "d": p["d"], "n": p["n_steps"]},
        p["j"],
        r.mean,
        r.stderr,
        r.trials,
        "",
        "",
        "INFO",
    )
    return [row], {}


def _run_lp_brownian(plan, seed):
    p = plan.params
    r = verify_lp_brownian(
        p["p"],
        d=p["d"],
        n_steps=p["n_steps"],
        trials=p["trials"],
        seed=seed,
        quad_points=p["quad_points"],
    )
    verdict = _two_sided(
        r.mean, r.stderr, r.target.value, p["tolerance_sigma"], p["rel_band"]
    )
    row = _row(
        plan.label,
        {"p": p["p"], "d": p["d"], "n": p["n_steps"]},
        "",
        r.mean,
        r.stderr,
        r.trials,
        r.target.value,
        _z(r.mean, r.stderr, r.target.value),
        verdict,
    )
    return [row], {}


def _run_lp_consistency(plan, seed):
    p = plan.params
    hull, sup = verify_lp_stable_consistency(
        p["alpha"],
        c=p["c"],
        p=p["p"],
        d=p["d"],
        n_steps=p["n_steps"],
        trials=p["trials"],
        grid_n=p["grid_n"],
        sup_paths=p["sup_paths"],
        seed=seed,
        quad_points=p["quad_points"],
    )
    combined = math.hypot(hull.stderr, sup.stderr)
    gap_z = (hull.mean - sup.mean) / combined if combined > 0 else 0.0
    base = {"alpha": p["alpha"], "c": p["c"], "p": p["p"], "n": p["n_steps"]}
    rows = [
        _row(
            plan.label,
            {**base, "side": "hull"},
            "",
            hull.mean,
            hull.stderr,
            hull.trials,
            sup.mean,
            gap_z,
            "INFO",
        ),
        _row(
            plan.label,
            {**base, "side": "sup"},
            "",
            sup.mean,
            sup.stderr,
            sup.trials,
            "",
            "",
            "INFO",
        ),
    ]
    return rows, {plan.label: {"gap_z": gap_z}}


def _run_renewal(plan, seed):
    p = plan.params
    if p["flavor"] == "cpp":
        spec = _cpp_spec(
            {**p, "jump_rate": p["jump_rate"] if p["jump_rate"] is not None else 0.0}
        )
    else:
        spec = StableSpec(alpha=p["alpha"], c=p["c"], d=p["d"], flavor=p["flavor"])
    results = renewal_ratio_experiment(
        spec,
        p["t_values"],
        trials=p["trials"],
        seed=seed,
        dt=p["dt"],
        et1_trials=p["et1_trials"],
    )
    rows = []
    gaps = []
    for t, r in zip(p["t_values"], results):
        rate = r.target.value
        gaps.append(abs(r.mean - rate) / rate if rate else math.inf)
        rows.append(
            _row(
                plan.label,
                {"t": t, "dt": p["dt"], "et1_mean": r.target.params["et1_mean"]},
                "",
                r.mean,
                r.stderr,
                r.trials,
                rate,
                _z(r.mean, r.stderr, rate),
                "INFO",
            )
        )
    trend = {
        plan.label: {
            "rel_gaps": gaps,
            "decreasing": all(b <= a for a, b in zip(gaps, gaps[1:])),
        }
    }
    return rows, trend


def _run_scaled_hull(plan, seed):
    p = plan.params
    spec = _cpp_spec(p)
    rows = []
    stats = []
    for t in p["t_values"]:
        stat, p_value, report = scaled_hull_convergence(
            spec,
            t,
            trials=p["trials"],
            seed=seed,
            n_steps_limit=p["n_steps_limit"],
        )
        stats.append(stat)
        rows.append(
            _row(
                plan.label,
                {
                    "t": t,
                    "p_value": p_value,
                    "alpha": report["alpha"],
                    "et1_mean": report["et1_mean"],
                    "fitted_c": report["fitted_c"],
                },
                "",
                stat,
                0.0,
                p["trials"],
                "",
                "",
                "INFO",
            )
        )
    trend = {
        plan.label: {
            "ks_stats": stats,
            "decreasing": all(b <= a for a, b in zip(stats, stats[1:])),
        }
    }
    return rows, trend


def _run_exit_tail(plan, seed):
    p = plan.params
    spec = _cpp_spec(p)
    est = exit_value_tail_experiment(
        spec, trials=p["trials"], seed=seed, k=p["hill_k"]
    )
    target = p["tail_alpha"] if p["jump_law"] == "pareto" else ""
    row = _row(
        plan.label,
        {"jump_law": p["jump_law"], "jump_rate": p["jump_rate"]},
        "",
        est,
        0.0,
        p["trials"],
        target,
        "",
        "INFO",
    )
    return [row], {}


_RUNNERS = {
    "intrinsic_volumes": _run_intrinsic,
    "gram_determinant": _run_gram,
    "boundary_origin": _run_boundary,
    "interior_endpoint": _run_interior,
    "faces_count": _run_faces,
    "tail_index": _run_tail_index,
    "lp_brownian": _run_lp_brownian,
    "lp_stable_consistency": _run_lp_consistency,
    "renewal_ratio": _run_renewal,
    "scaled_hull": _run_scaled_hull,
    "exit_tail": _run_exit_tail,
}


def _config_digest(plans, master_seed: int) -> str:
    payload = json.dumps(
        {
            "master_seed": master_seed,
            "experiments": [
                {"kind": pl.kind, "label": pl.label, "params": pl.params}
                for pl in plans
            ],
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return repr(value)
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_results_csv(rows, path):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n", quoting=csv.QUOTE_MINIMAL)
        writer.writerow(CSV_COLUMNS)
        for row in rows:
            writer.writerow([_fmt(row[col]) for col in CSV_COLUMNS])


def _dump_polytopes(plans, seed, out_dir):
    """A few sample hulls per walk experiment, for inspection."""
    dumped = {}
    for plan in plans:
        if plan.kind not in (
            "intrinsic_volumes",
            "boundary_origin",
            "interior_endpoint",
            "faces_count",
        ):
            continue
        p = plan.params
        if plan.kind == "intrinsic_volumes":
            spec = _walk_spec(p)
        else:
            spec = StableSpec(alpha=2.0, c=0.5, d=p.get("d", 2), flavor="brownian")
        n = _n_series(p)[0]
        stream = stream_id(f"dump_{plan.label}")
        hulls = []
        for i in range(3):
            path = sample_walk_path(spec, n, 1.0, trial_rng(seed, stream, i))
            build = hull2d if spec.d == 2 else hull3d
            hulls.append(build(path.points).vertices.tolist())
        dumped[plan.label] = hulls
    if dumped:
        path = Path(out_dir) / "polytopes.json"
        path.write_text(
            json.dumps(dumped, sort_keys=True, indent=2) + "\n", encoding="utf-8"
        )


def run_all(
    plans,
    out_dir,
    master_seed: int = 0,
    threads: int = 1,
    dump_polytopes: bool = False,
) -> RunManifest:
    """Execute plans in order, each running its trials in one serial loop,
    then write results.csv, summary.json, and manifest.json to out_dir.
    ``threads`` is accepted for compatibility and has no effect: trials
    always run serially in trial-index order."""
    if not plans:
        raise ConfigError("no experiments to run")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    verdicts = {}
    trends = {}
    for plan in plans:
        plan_rows, plan_trends = _RUNNERS[plan.kind](plan, master_seed)
        rows.extend(plan_rows)
        trends.update(plan_trends)
        labels = {r["verdict"] for r in plan_rows}
        if "FAIL" in labels:
            verdicts[plan.label] = "FAIL"
        elif "PASS" in labels:
            verdicts[plan.label] = "PASS"
        else:
            verdicts[plan.label] = "INFO"
    digest = _config_digest(plans, master_seed)
    now = datetime.now(timezone.utc)
    timestamp = now.strftime("%Y-%m-%dT%H:%M:%SZ")
    run_id = f"{digest[:12]}-{now.strftime('%Y%m%d%H%M%S')}"
    manifest = RunManifest(
        run_id=run_id,
        timestamp=timestamp,
        config_digest=digest,
        results=rows,
        verdicts=verdicts,
        trends=trends,
    )
    write_results_csv(rows, out / "results.csv")
    payload = asdict(manifest)
    summary = {
        **{k: v for k, v in payload.items() if k != "results"},
        "counts": {
            v: sum(1 for x in verdicts.values() if x == v)
            for v in ("PASS", "FAIL", "INFO")
        },
        "exit_code": manifest_exit_code(manifest),
    }
    (out / "summary.json").write_text(
        json.dumps(summary, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    (out / "manifest.json").write_text(
        json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    if dump_polytopes:
        _dump_polytopes(plans, master_seed, out)
    return manifest


def emit_plot_data(manifest: RunManifest, out_dir) -> list:
    """One CSV series per experiment whose rows carry an n parameter:
    columns n,mean,stderr,target (target column carries the analytic
    value when the experiment has one). Returns written paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    series = {}
    for row in manifest.results:
        params = json.loads(row["param_json"])
        if "n" not in params:
            continue
        key = row["experiment"] if row["j"] == "" else f"{row['experiment']}_j{row['j']}"
        series.setdefault(key, []).append(
            (params["n"], row["mean"], row["stderr"], row["target"])
        )
    written = []
    for key in sorted(series):
        safe = "".join(ch if ch.isalnum() or ch in "-_" else "_" for ch in key)
        path = out / f"plot_{safe}.csv"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n", quoting=csv.QUOTE_MINIMAL)
            writer.writerow(("n", "mean", "stderr", "target"))
            for n, mean, stderr, target in sorted(series[key]):
                writer.writerow([_fmt(n), _fmt(mean), _fmt(stderr), _fmt(target)])
        written.append(str(path))
    return written


def smoke_plans() -> list:
    """Small built-in suite (trials around 200) that exercises every
    experiment family and finishes well under a minute."""
    config = {
        "experiments": [
            {
                "kind": "intrinsic_volumes",
                "alpha": 2.0,
                "d": 2,
                "n_steps": 500,
                "trials": 200,
            },
            {"kind": "gram_determinant", "d": 2, "j": 1, "trials": 20000},
            {"kind": "boundary_origin", "n_steps": 100, "trials": 200},
            {"kind": "interior_endpoint", "n_steps": 1000, "trials": 200},
            {"kind": "faces_count", "d": 2, "n_steps": 100, "trials": 200},
            {
                "kind": "tail_index",
                "alpha": 1.5,
                "n_steps": 500,
                "trials": 200,
            },
            {"kind": "lp_brownian", "p": 1.0, "n_steps": 2000, "trials": 200},
            {
                "kind": "lp_stable_consistency",
                "alpha": 1.5,
                "n_steps": 1000,
                "trials": 200,
                "grid_n": 2000,
                "sup_paths": 2000,
            },
            {
                "kind": "renewal_ratio",
                "t_values": [2.0, 20.0],
                "trials": 300,
                "dt": 0.02,
                "et1_trials": 600,
            },
            {
                "kind": "scaled_hull",
                "tail_alpha": 1.5,
                "t_values": [50.0, 500.0],
                "trials": 120,
            },
            {"kind": "exit_tail", "tail_alpha": 1.5, "trials": 500},
        ]
    }
    return plan_experiments(config)
