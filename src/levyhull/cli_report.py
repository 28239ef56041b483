"""Config ingestion, experiment orchestration, result persistence, and
report emission.

Each experiment kind is one entry of ``_KINDS``: its one-line description,
its schema (key -> default, type and domain), its plan-time check of the
rules that tie fields together, and its runner.
A JSON config holds an "experiments" array; each entry names a kind plus
its parameters (unknown keys are rejected, defaults are trials=10^4,
n_steps=10^4, tolerance_sigma=4). Planning checks every entry before any
experiment runs, so a config that cannot run is refused before a run
starts. `run_all` executes the plans in order and writes results.csv /
summary.json / manifest.json. Every row is built by `_row`, whose verdict
rule is a two-sided band (optionally widened to a relative band), an
upper bound, or INFO for trend and consistency experiments, so automation
stays deterministic. results.csv has a fixed schema: experiment,
param_json, j, mean, stderr, trials, target, z, verdict. Files are UTF-8
with LF line endings and RFC-4180 quoting; floats are written in their
shortest round-trip form, so a rerun is byte-identical.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable

from .closed_form import (
    ball_intrinsic_volume,
    prob_origin_outside_walk_hull,
    walk_ev_intrinsic,
)
from .errors import ConfigError, ResourceError, _count, _real
from .limits import (
    _DRIFT_TAIL_HORIZON,
    _ET1_HORIZON,
    _scaled_hull_ks,
    _scaled_hull_limit,
    _walk_steps,
    exit_value_tail_experiment,
    renewal_ratio_experiment,
)
from .lp_volumes import verify_lp_brownian, verify_lp_stable_consistency
from .mc_engine import (
    ExperimentConfig,
    _processes,
    run_boundary_origin_experiment,
    run_faces_experiment,
    run_gram_experiment,
    run_interior_endpoint_experiment,
    run_intrinsic_volume_experiment,
    run_tail_index_experiment,
    walk_hull_values,
)
from .results import EstimateResult
from .rng_stable import StableSpec

__all__ = [
    "CSV_COLUMNS",
    "PlannedExperiment",
    "RunManifest",
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
    processes: int = 1  # the processes that ran the trial loops


def manifest_exit_code(manifest: RunManifest) -> int:
    """0 iff every non-INFO verdict is PASS, else 1."""
    return 1 if any(v == "FAIL" for v in manifest.verdicts.values()) else 0


# -- config schema -----------------------------------------------------

_REQUIRED = object()


def _cast_value(kind, key, value, typ, domain):
    """``value`` as the field's type, inside its domain: an int through
    ``_count`` and a float through ``_real``, with ``domain`` as their
    bounds, or a value from a tuple ``domain``; [int] / [float] is a
    non-empty array of them. A bool is never a number."""
    name = f"experiment {kind!r}: field {key!r}"
    if isinstance(typ, list):
        if not isinstance(value, list) or not value:
            raise ConfigError(f"{name} must be a non-empty array, got {value!r}")
        return [_cast_value(kind, key, v, typ[0], domain) for v in value]
    choices = domain if isinstance(domain, tuple) else ()
    bounds = {} if choices else domain
    if typ is str:
        if not isinstance(value, str):
            raise ConfigError(f"{name} must be a string, got {value!r}")
    else:
        value = (_count if typ is int else _real)(name, value, error=ConfigError, **bounds)
    if choices and value not in choices:
        raise ConfigError(f"{name} must be {' or '.join(map(str, choices))}, got {value!r}")
    return value


@dataclass(frozen=True)
class _Kind:
    """One experiment kind. ``schema`` maps each key beyond ``_COMMON`` to
    (default, type, domain), with _REQUIRED for mandatory keys; the domain
    holds ``_count``'s or ``_real``'s bounds or a tuple of the allowed
    values, and planning refuses a value outside it. ``check(p, bad)``
    applies the rules that tie fields together by calling bad(field,
    message), and may fill defaults that depend on other fields;
    ``min_trials`` is the floor of ``trials``. ``run(plan, seed)`` returns
    (rows, trends)."""

    description: str
    schema: dict
    run: Callable
    check: Callable | None = None
    min_trials: int = 2


_COMMON = {
    "label": (None, str, ()),
    "tolerance_sigma": (DEFAULT_TOLERANCE_SIGMA, float, {"gt": 0}),
}
_N_SERIES = {
    "n_steps": (DEFAULT_N_STEPS, int, {}),
    "n_values": (None, [int], {}),
}
_SAMPLED_TRIALS = 100  # ExperimentConfig's floor for the walk-hull kinds
_SCALE = {"gt": 1e-12}  # StableSpec's floor for c
_DIMS = (2, 3)


def _check_hill_k(p, bad):
    if p["hill_k"] is not None and p["hill_k"] >= p["trials"]:
        bad("hill_k", "must be < trials")


def _check_cpp(p, bad, horizon=math.inf):
    """The compound-Poisson rules that tie fields together, as StableSpec
    will need them; a path without jumps must leave the unit ball, which
    it does at t = 1/||drift||, by the experiment's ``horizon``."""
    if p["jump_law"] == "pareto":
        if p["tail_alpha"] is None:
            bad("tail_alpha", "is required for pareto jumps")
        if not 0.0 < p["tail_alpha"] < 2.0:
            bad(
                "tail_alpha",
                "must lie in (0, 2); at tail_alpha >= 2 use jump_law 'gaussian'",
            )
    if p.get("drift") is not None and len(p["drift"]) != p["d"]:
        bad("drift", f"must have d = {p['d']} entries")
    if not p["jump_rate"] and not any(p.get("drift") or ()):
        bad("jump_rate", "must be > 0 unless drift is nonzero: the path never moves")
    if not p["jump_rate"] and math.hypot(*p["drift"]) * horizon < 1.0:
        bad("drift", f"must have norm >= 1/{horizon:g} without jumps: the path leaves "
            f"the unit ball only at t = 1/norm, past the horizon {horizon:g}")


def _check_intrinsic(p, bad):
    if p["c"] is None:
        p["c"] = 0.5 if p["alpha"] == 2.0 else 1.0
    if p["j_orders"] is None:
        p["j_orders"] = list(range(1, p["d"] + 1))
    if max(p["j_orders"]) > p["d"]:
        bad("j_orders", f"must lie in 1..{p['d']}")
    if len(set(p["j_orders"])) < len(p["j_orders"]):
        bad("j_orders", "must not repeat an order")
    if min(_n_series(p)) < max(p["j_orders"]):  # the exact V_j needs n >= j
        bad("n_values" if p["n_values"] else "n_steps", "must be >= every j order")


def _check_gram(p, bad):
    if not p["j"] <= p["d"] <= 6:
        bad("j", "must satisfy 1 <= j <= d <= 6")


def _check_tail_index(p, bad):
    if p["j"] > p["d"]:
        bad("j", f"must lie in 1..{p['d']}")
    _check_hill_k(p, bad)


def _check_lp_consistency(p, bad):
    if p["p"] >= p["alpha"]:
        bad("p", f"must be < alpha (p-means diverge at p >= alpha={p['alpha']})")


# renewal keys that each flavor ignores; a value other than the default
# would be dropped without effect, so planning refuses it
_RENEWAL_UNUSED = {
    "brownian": ("alpha", "jump_law", "jump_rate", "tail_alpha", "drift"),
    "isotropic": ("jump_law", "jump_rate", "tail_alpha", "drift"),
    "cpp": ("alpha", "c"),
}


def _check_renewal(p, bad):
    if p["et1_trials"] == 1:  # 0, like no value, takes the default
        bad("et1_trials", "must be 0 (the default) or >= 2")
    schema = _KINDS["renewal_ratio"].schema
    for key in _RENEWAL_UNUSED[p["flavor"]]:
        if p[key] != schema[key][0]:
            bad(key, f"is not used by flavor {p['flavor']!r}; leave it out")
    if p["flavor"] == "cpp":
        _check_cpp(p, bad, _ET1_HORIZON)
    try:  # the longest walk: the largest t or the E T_1 batch's horizon
        _walk_steps(p["flavor"], max(*p["t_values"], _ET1_HORIZON), p["dt"])
    except ResourceError as exc:
        bad("dt", f"is too small: {exc}")


def _check_exit_tail(p, bad):
    _check_cpp(p, bad, _DRIFT_TAIL_HORIZON)
    _check_hill_k(p, bad)


def list_experiment_kinds():
    """(kind, one-line description) pairs, sorted by kind."""
    return sorted((kind, k.description) for kind, k in _KINDS.items())


def _plan_one(raw, index: int) -> PlannedExperiment:
    if not isinstance(raw, dict):
        raise ConfigError(f"experiments[{index}] must be a JSON object")
    kind = raw.get("kind")
    if not isinstance(kind, str) or kind not in _KINDS:
        known = ", ".join(sorted(_KINDS))
        raise ConfigError(
            f"experiments[{index}]: unknown experiment kind {kind!r} (known: {known})"
        )
    entry = _KINDS[kind]
    trials = (DEFAULT_TRIALS, int, {"lo": entry.min_trials})
    schema = {**_COMMON, "trials": trials, **entry.schema}
    unknown = set(raw) - set(schema) - {"kind"}
    if unknown:
        raise ConfigError(
            f"experiment {kind!r}: unknown keys {sorted(unknown)!r}"
        )
    params = {}
    for key, (default, typ, domain) in schema.items():
        if key in raw:
            params[key] = _cast_value(kind, key, raw[key], typ, domain)
        elif default is _REQUIRED:
            raise ConfigError(f"experiment {kind!r}: field {key!r} is required")
        else:
            params[key] = list(default) if isinstance(default, list) else default
    label = params.pop("label") or kind

    def bad(field, msg):
        raise ConfigError(f"experiment {kind!r}: field {field!r} {msg}")

    if entry.check is not None:
        entry.check(params, bad)
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


def _z(mean, stderr, target):
    if stderr > 0.0:
        return (mean - target) / stderr
    return 0.0 if mean == target else math.inf


def _verdict(rule, est, target, tol_sigma, rel_band=0.0):
    """The verdict rule. "two_sided": PASS iff |mean - target| <=
    max(tol_sigma * stderr, rel_band * |target|). "upper": PASS iff mean <=
    target + tol_sigma * stderr, for a target that bounds the mean from
    above. Any other rule gives INFO."""
    if rule == "two_sided":
        band = max(tol_sigma * est.stderr, rel_band * abs(target))
        ok = abs(est.mean - target) <= band
    elif rule == "upper":
        ok = est.mean <= target + tol_sigma * est.stderr
    else:
        return "INFO"
    return "PASS" if ok else "FAIL"


def _row(plan, params, est, target=None, rule="INFO", j="", z=None, rel_band=0.0):
    """The results.csv row of one estimate (mean, stderr, trials) of
    ``plan``, judged against ``target`` by ``rule``. z defaults to
    (mean - target) / stderr, or empty without a target."""
    if z is None:
        z = "" if target is None else _z(est.mean, est.stderr, target)
    return {
        "experiment": plan.label,
        "param_json": json.dumps(params, sort_keys=True, separators=(",", ":")),
        "j": j,
        "mean": est.mean,
        "stderr": est.stderr,
        "trials": est.trials,
        "target": "" if target is None else target,
        "z": z,
        "verdict": _verdict(rule, est, target, plan.params["tolerance_sigma"], rel_band),
    }


def _walk_spec(p):
    """The walk of a walk kind: Brownian at alpha = 2, else isotropic
    stable. Kinds without alpha, c or d sample planar Brownian motion with
    c = 1/2, so that X(1) ~ N(0, I)."""
    alpha = p.get("alpha", 2.0)
    flavor = "brownian" if alpha == 2.0 else "isotropic"
    return StableSpec(alpha=alpha, c=p.get("c", 0.5), d=p.get("d", 2), flavor=flavor)


def _cpp_spec(p):
    drift = tuple(p["drift"]) if p.get("drift") else None
    return StableSpec(
        d=p["d"],
        flavor="cpp",
        jump_law=p["jump_law"],
        tail_alpha=p["tail_alpha"] if p["jump_law"] == "pareto" else None,
        jump_rate=p["jump_rate"] or 0.0,  # a cpp renewal may be drift-only
        drift=drift,
    )


def _n_series(p):
    return p["n_values"] if p.get("n_values") else [p["n_steps"]]


def _per_n(plan, seed, experiment, **cfg):
    """(n, experiment(config)) for each n of the plan's n series, on the
    plan's walk."""
    p = plan.params
    spec = _walk_spec(p)
    for n in _n_series(p):
        cfg_n = ExperimentConfig(
            spec, n_steps=n, trials=p["trials"], master_seed=seed, **cfg
        )
        yield n, experiment(cfg_n)


def _run_intrinsic(plan, seed):
    p = plan.params
    rows = []
    runs = _per_n(
        plan,
        seed,
        run_intrinsic_volume_experiment,
        j_orders=tuple(p["j_orders"]),
        horizon=p["horizon"],
    )
    for n, results in runs:
        for j, r in zip(p["j_orders"], results):
            limit = r.target.value
            scale = p["horizon"] ** (j / p["alpha"])
            try:
                vj = ball_intrinsic_volume(p["d"], j, p["c"] ** (1.0 / p["alpha"]))
                target = walk_ev_intrinsic(n, j, p["alpha"], vj) * scale
                rel_band, target_kind = 0.0, "exact"
            except ResourceError:
                target, rel_band, target_kind = limit, p["rel_band"], "limit"
            params = {
                "alpha": p["alpha"],
                "c": p["c"],
                "d": p["d"],
                "horizon": p["horizon"],
                "n": n,
                "target_kind": target_kind,
                "limit_target": limit,
            }
            rows.append(_row(plan, params, r, target, "two_sided", j, rel_band=rel_band))
    return rows, {}


def _run_gram(plan, seed):
    p = plan.params
    r = run_gram_experiment(p["d"], p["j"], trials=p["trials"], seed=seed)
    params = {"d": p["d"], "j": p["j"]}
    return [_row(plan, params, r, r.target.value, "two_sided", p["j"])], {}


def _run_boundary(plan, seed):
    # the face-count mean bounds the frequency; the exact law checks it two-sided
    rows = []
    for n, (r, bound) in _per_n(plan, seed, run_boundary_origin_experiment):
        rows.append(_row(plan, {"n": n, "bound": "upper"}, r, bound, "upper"))
        try:
            exact = float(prob_origin_outside_walk_hull(n, 2))
        except ResourceError:
            continue
        rows.append(_row(plan, {"n": n, "target_kind": "exact"}, r, exact, "two_sided"))
    return rows, {}


def _run_interior(plan, seed):
    runs = list(_per_n(plan, seed, run_interior_endpoint_experiment))
    means = [r.mean for _, r in runs]
    trend = {}
    if len(means) > 1:
        trend[plan.label] = {"increasing": all(b > a for a, b in zip(means, means[1:]))}
    return [_row(plan, {"n": n, "limit": 1.0}, r) for n, r in runs], trend


def _run_faces(plan, seed):
    d = plan.params["d"]
    # the d=3 counting formula is kept informational
    rule = "two_sided" if d == 2 else "INFO"
    runs = _per_n(plan, seed, run_faces_experiment)
    return [_row(plan, {"d": d, "n": n}, r, r.target.value, rule) for n, r in runs], {}


def _run_tail_index(plan, seed):
    p = plan.params
    runs = _per_n(
        plan, seed, run_tail_index_experiment, j_orders=(p["j"],), hill_k=p["hill_k"]
    )
    base = {"alpha": p["alpha"], "c": p["c"], "d": p["d"]}
    return [_row(plan, {**base, "n": n}, r, j=p["j"]) for n, r in runs], {}


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
    params = {"p": p["p"], "d": p["d"], "n": p["n_steps"]}
    row = _row(plan, params, r, r.target.value, "two_sided", rel_band=p["rel_band"])
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
        _row(plan, {**base, "side": "hull"}, hull, sup.mean, z=gap_z),
        _row(plan, {**base, "side": "sup"}, sup),
    ]
    return rows, {plan.label: {"gap_z": gap_z}}


def _run_renewal(plan, seed):
    p = plan.params
    if p["flavor"] == "cpp":
        spec = _cpp_spec(p)
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
        params = {"t": t, "dt": p["dt"], "et1_mean": r.target.params["et1_mean"]}
        rows.append(_row(plan, params, r, rate))
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
    # the fit and limit-walk batches do not depend on t: built once
    limit = _scaled_hull_limit(spec, p["trials"], seed, p["n_steps_limit"])
    for t in p["t_values"]:
        stat, p_value, report = _scaled_hull_ks(spec, limit, t, p["trials"], seed)
        stats.append(stat)
        params = {
            "t": t,
            "p_value": p_value,
            "alpha": report["alpha"],
            "et1_mean": report["et1_mean"],
            "fitted_c": report["fitted_c"],
        }
        rows.append(_row(plan, params, EstimateResult(stat, 0.0, p["trials"])))
    trend = {
        plan.label: {
            "ks_stats": stats,
            "decreasing": all(b <= a for a, b in zip(stats, stats[1:])),
        }
    }
    return rows, trend


def _run_exit_tail(plan, seed):
    p = plan.params
    est = exit_value_tail_experiment(
        _cpp_spec(p), trials=p["trials"], seed=seed, k=p["hill_k"]
    )
    target = p["tail_alpha"] if p["jump_law"] == "pareto" else None
    params = {"jump_law": p["jump_law"], "jump_rate": p["jump_rate"]}
    return [_row(plan, params, EstimateResult(est, 0.0, p["trials"]), target, z="")], {}


_KINDS = {
    "intrinsic_volumes": _Kind(
        "mean intrinsic volumes of walk hulls vs exact finite-n and limit values",
        {
            # the closed-form expectations need Gamma(1 - 1/alpha)
            "alpha": (2.0, float, {"gt": 1, "le": 2}),
            "c": (None, float, _SCALE),
            "d": (2, int, _DIMS),
            **_N_SERIES,
            "j_orders": (None, [int], {}),
            "horizon": (1.0, float, {"gt": 0}),
            "rel_band": (0.05, float, {"ge": 0}),
        },
        _run_intrinsic,
        _check_intrinsic,
        min_trials=_SAMPLED_TRIALS,
    ),
    "gram_determinant": _Kind(
        "Gaussian Gram determinant mean vs j! * V_j of the scaled ball",
        {"d": (_REQUIRED, int, {}), "j": (_REQUIRED, int, {})},
        _run_gram,
        _check_gram,
        min_trials=_SAMPLED_TRIALS,
    ),
    "boundary_origin": _Kind(
        "frequency of the origin on the hull boundary vs the face-count bound and exact law",
        _N_SERIES,
        _run_boundary,
        min_trials=_SAMPLED_TRIALS,
    ),
    "interior_endpoint": _Kind(
        "frequency of the endpoint interior to the hull (trend, INFO)",
        _N_SERIES,
        _run_interior,
        min_trials=_SAMPLED_TRIALS,
    ),
    "faces_count": _Kind(
        "mean number of hull faces at the origin vs the exact formula",
        {"d": (2, int, _DIMS), **_N_SERIES},
        _run_faces,
        min_trials=_SAMPLED_TRIALS,
    ),
    "tail_index": _Kind(
        "Hill tail index of hull functional samples (INFO)",
        {
            "alpha": (_REQUIRED, float, {"gt": 1, "le": 2}),
            "c": (1.0, float, _SCALE),
            "d": (2, int, _DIMS),
            "j": (1, int, {}),
            "n_steps": (DEFAULT_N_STEPS, int, {}),
            "hill_k": (None, int, {}),
        },
        _run_tail_index,
        _check_tail_index,
        min_trials=_SAMPLED_TRIALS,
    ),
    "lp_brownian": _Kind(
        "p-mean mixed volume of Brownian hulls vs the closed form",
        {
            "p": (_REQUIRED, float, {"ge": 1}),
            "d": (2, int, _DIMS),
            "n_steps": (DEFAULT_N_STEPS, int, {}),
            "quad_points": (4096, int, {}),
            "rel_band": (0.02, float, {"ge": 0}),
        },
        _run_lp_brownian,
    ),
    "lp_stable_consistency": _Kind(
        "hull-route vs sup-route p-mean mixed volume for stable paths (INFO)",
        {
            "alpha": (_REQUIRED, float, {"gt": 1, "lt": 2}),
            "c": (1.0, float, _SCALE),
            "p": (1.0, float, {"ge": 1}),
            "d": (2, int, (2,)),
            "n_steps": (DEFAULT_N_STEPS, int, {}),
            "grid_n": (20_000, int, {}),
            "sup_paths": (20_000, int, {}),
            "quad_points": (4096, int, {}),
        },
        _run_lp_consistency,
        _check_lp_consistency,
    ),
    "renewal_ratio": _Kind(
        "unit-ball exit counts per unit time vs the independent renewal rate (INFO)",
        {
            "t_values": (_REQUIRED, [float], {"gt": 0}),
            "dt": (0.02, float, {"gt": 0}),
            "et1_trials": (None, int, {"lo": 0}),
            "alpha": (2.0, float, {"gt": 0, "le": 2}),
            "c": (0.5, float, _SCALE),
            "d": (2, int, {}),
            "flavor": ("brownian", str, ("brownian", "isotropic", "cpp")),
            "jump_law": ("pareto", str, ("pareto", "gaussian")),
            "jump_rate": (None, float, {"ge": 0}),
            "tail_alpha": (None, float, {}),
            "drift": (None, [float], {}),
        },
        _run_renewal,
        _check_renewal,
    ),
    "scaled_hull": _Kind(
        "KS comparison of rescaled long-horizon hulls with the fitted limit walk (INFO)",
        {
            "tail_alpha": (None, float, {}),
            "jump_law": ("pareto", str, ("pareto", "gaussian")),
            "jump_rate": (1.0, float, {"gt": 0}),
            "d": (2, int, (2,)),
            "t_values": ([1e2, 1e4], [float], {"ge": 10}),
            "n_steps_limit": (2000, int, {}),
        },
        _run_scaled_hull,
        _check_cpp,
        min_trials=10,  # scaled_hull_convergence's floor
    ),
    "exit_tail": _Kind(
        "Hill tail index of the first-exit displacement norm (INFO)",
        {
            "tail_alpha": (None, float, {}),
            "jump_law": ("pareto", str, ("pareto", "gaussian")),
            "jump_rate": (3.0, float, {"ge": 0}),
            "d": (2, int, (2,)),
            "drift": (None, [float], {}),
            "hill_k": (None, int, {}),
        },
        _run_exit_tail,
        _check_exit_tail,
        min_trials=10,  # exit_value_tail_experiment's floor
    ),
}

# run_all dispatches through this dict, not through _KINDS, so that a
# caller can wrap a kind's runner in place (timing, tracing).
_RUNNERS = {kind: k.run for kind, k in _KINDS.items()}


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


def write_results_csv(rows, path):
    # csv writes each value as str(value): floats in their shortest
    # round-trip form, the same digits as repr
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n", quoting=csv.QUOTE_MINIMAL)
        writer.writerow(CSV_COLUMNS)
        for row in rows:
            writer.writerow([row[col] for col in CSV_COLUMNS])


def _dump_polytopes(plans, seed, out_dir):
    """A few sample hulls per walk experiment with an n series, for
    inspection."""
    dumped = {}
    for plan in plans:
        if "n_values" not in _KINDS[plan.kind].schema:
            continue
        spec, n = _walk_spec(plan.params), _n_series(plan.params)[0]
        dumped[plan.label] = walk_hull_values(
            spec, n, 1.0, 3, seed, f"dump_{plan.label}", lambda poly, path: poly.vertices.tolist()
        )
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
    """Execute plans in order, rewriting out_dir/results.csv after each
    plan; summary.json and manifest.json come last.

    ``threads`` = N > 1 splits every trial loop across N processes (capped
    at the CPUs this process may use; Linux only, serial elsewhere): the
    first loop of the run forks N - 1 workers, and every process then runs
    the rest of the plan loop, each computing its own block of each trial
    loop (see ``mc_engine``). So a runner in ``_RUNNERS`` must only return
    its rows and trends and write nothing: every process runs it. Only
    this process writes files, after it has reaped every worker. The
    values, and so results.csv, are the same at any ``threads``."""
    master_seed = _count("master_seed", master_seed, 0, ConfigError)
    threads = _count("threads", threads, error=ConfigError)
    if not plans:
        raise ConfigError("no experiments to run")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    verdicts = {}
    trends = {}
    with _processes(threads) as team:
        for plan in plans:
            plan_rows, plan_trends = _RUNNERS[plan.kind](plan, master_seed)
            rows.extend(plan_rows)
            trends.update(plan_trends)
            labels = {r["verdict"] for r in plan_rows}
            verdicts[plan.label] = next((v for v in ("FAIL", "PASS") if v in labels), "INFO")
            if not team.rank:  # a later failing plan keeps these rows
                write_results_csv(rows, out / "results.csv")
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
        processes=team.processes,
    )
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
