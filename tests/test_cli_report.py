"""End-to-end tests for experiment planning, execution, and reporting."""

import csv
import json
import math
import os
import re
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from levyhull.cli import main
from levyhull import cli_report, limits, mc_engine, prob_origin_outside_walk_hull
from levyhull.cli_report import (
    CSV_COLUMNS,
    _config_digest,
    list_experiment_kinds,
    load_config,
    manifest_exit_code,
    plan_experiments,
    run_all,
    smoke_plans,
)
from levyhull.errors import ConfigError
from levyhull.hullgeom import hull2d, hull3d
from levyhull.results import EstimateResult
from levyhull.rng_stable import StableSpec, sample_walk_path, stream_id, trial_rng

# Cheap experiment entries reused across tests.  gram_determinant is the
# fastest PASS/FAIL kind (no path sampling); the intrinsic entry keeps the
# walk short so hull construction stays in the millisecond range.
GRAM = {"kind": "gram_determinant", "d": 2, "j": 1, "trials": 400}
INTRINSIC = {
    "kind": "intrinsic_volumes",
    "n_values": [40, 80],
    "n_steps": 80,
    "trials": 150,
}
FACES = {"kind": "faces_count", "d": 2, "n_values": [40, 80], "trials": 150}


def _cfg(*entries):
    return {"experiments": [dict(e) for e in entries]}


def _read_csv(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
TWO_CPUS = pytest.mark.skipif(CPUS < 2, reason="needs 2 usable CPUs")


def _fail_renewal_plans(monkeypatch):
    """Make every renewal_ratio plan raise ConfigError in each process that
    runs it, as a plan that passes planning and then fails in run_all does."""

    def fail(plan, seed):
        raise ConfigError("renewal stand-in failed")

    monkeypatch.setitem(cli_report._RUNNERS, "renewal_ratio", fail)


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestPlanning:
    def test_minimal_entry_fills_defaults(self):
        plans = plan_experiments(_cfg({"kind": "intrinsic_volumes"}))
        assert len(plans) == 1
        plan = plans[0]
        assert plan.kind == "intrinsic_volumes"
        assert plan.label == "intrinsic_volumes"
        assert plan.params["alpha"] == 2.0
        assert plan.params["c"] == 0.5  # Brownian default scale
        assert plan.params["j_orders"] == [1, 2]
        assert plan.params["trials"] == 10_000

    def test_stable_default_scale_is_one(self):
        plans = plan_experiments(
            _cfg({"kind": "intrinsic_volumes", "alpha": 1.5, "trials": 100})
        )
        assert plans[0].params["c"] == 1.0

    def test_labels_default_and_deduplicate(self):
        plans = plan_experiments(_cfg(GRAM, GRAM))
        assert [p.label for p in plans] == ["gram_determinant", "gram_determinant#2"]

    @pytest.mark.parametrize(
        "asked,given",
        [(["x", "x", "x#2"], ["x", "x#3", "x#2"]), (["x#2", "x", "x"], ["x#2", "x", "x#3"])],
    )
    def test_generated_labels_skip_requested_ones(self, asked, given):
        plans = plan_experiments(_cfg(*(dict(GRAM, label=label) for label in asked)))
        assert [p.label for p in plans] == given

    def test_custom_label_kept(self):
        entry = dict(GRAM, label="gram-low")
        plans = plan_experiments(_cfg(entry))
        assert plans[0].label == "gram-low"
        assert "label" not in plans[0].params

    def test_unknown_kind_lists_known_kinds(self):
        with pytest.raises(ConfigError, match="unknown experiment kind") as exc:
            plan_experiments(_cfg({"kind": "volume_of_doom"}))
        assert "gram_determinant" in str(exc.value)
        with pytest.raises(ConfigError, match="unknown experiment kind"):
            plan_experiments(_cfg({"kind": ["gram_determinant"]}))

    def test_unknown_experiment_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown keys"):
            plan_experiments(_cfg(dict(GRAM, fudge=1)))

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ConfigError, match="top-level"):
            plan_experiments({"experiments": [GRAM], "seed": 3})

    def test_empty_or_missing_experiments_rejected(self):
        with pytest.raises(ConfigError, match="non-empty"):
            plan_experiments({"experiments": []})
        with pytest.raises(ConfigError, match="non-empty"):
            plan_experiments({})

    def test_top_level_must_be_object(self):
        with pytest.raises(ConfigError, match="JSON object"):
            plan_experiments([GRAM])

    def test_entry_must_be_object(self):
        with pytest.raises(ConfigError, match=r"experiments\[0\]"):
            plan_experiments({"experiments": ["gram_determinant"]})

    def test_required_field_missing(self):
        with pytest.raises(ConfigError, match="'t_values' is required"):
            plan_experiments(_cfg({"kind": "renewal_ratio"}))

    def test_type_errors_name_kind_and_field(self):
        with pytest.raises(ConfigError, match="'trials'") as exc:
            plan_experiments(_cfg(dict(GRAM, trials=True)))
        assert "gram_determinant" in str(exc.value)
        with pytest.raises(ConfigError, match="'t_values'"):
            plan_experiments(
                _cfg({"kind": "renewal_ratio", "t_values": "5,50"})
            )

    def test_alpha_range_names_field(self):
        with pytest.raises(ConfigError, match="'alpha'") as exc:
            plan_experiments(_cfg(dict(INTRINSIC, alpha=1.0)))
        assert "(1, 2]" in str(exc.value)

    def test_lp_consistency_rejects_p_at_or_above_alpha(self):
        with pytest.raises(ConfigError, match="'p'") as exc:
            plan_experiments(
                _cfg({"kind": "lp_stable_consistency", "alpha": 1.5, "p": 1.7})
            )
        assert "diverge" in str(exc.value)

    def test_sampled_kinds_need_100_trials(self):
        with pytest.raises(ConfigError, match=">= 100"):
            plan_experiments(_cfg(dict(INTRINSIC, trials=50)))

    def test_gram_j_dimension_consistency(self):
        with pytest.raises(ConfigError, match="'j'"):
            plan_experiments(_cfg({"kind": "gram_determinant", "d": 2, "j": 3}))
        with pytest.raises(ConfigError, match="'j'"):
            plan_experiments(_cfg({"kind": "gram_determinant", "d": 7, "j": 1}))

    def test_scaled_hull_guards(self):
        with pytest.raises(ConfigError, match=">= 10"):
            plan_experiments(
                _cfg({"kind": "scaled_hull", "tail_alpha": 1.5, "t_values": [5.0]})
            )
        with pytest.raises(ConfigError, match="'tail_alpha' is required"):
            plan_experiments(_cfg({"kind": "scaled_hull"}))
        with pytest.raises(ConfigError, match="gaussian"):
            plan_experiments(_cfg({"kind": "scaled_hull", "tail_alpha": 2.5}))

    def test_list_defaults_not_shared_between_plans(self):
        plans = plan_experiments(
            _cfg(
                {"kind": "scaled_hull", "tail_alpha": 1.5},
                {"kind": "scaled_hull", "tail_alpha": 1.2},
            )
        )
        plans[0].params["t_values"].append(999.0)
        assert plans[1].params["t_values"] == [1e2, 1e4]
        fresh = plan_experiments(_cfg({"kind": "scaled_hull", "tail_alpha": 1.5}))
        assert fresh[0].params["t_values"] == [1e2, 1e4]

    def test_kind_listing_matches_schemas(self):
        kinds = [k for k, _ in list_experiment_kinds()]
        assert kinds == sorted(kinds)
        assert "intrinsic_volumes" in kinds
        assert len(kinds) == 11


IV = {"kind": "intrinsic_volumes", "trials": 100}
RENEWAL = {"kind": "renewal_ratio", "t_values": [2.0]}
CPP_RENEWAL = dict(RENEWAL, flavor="cpp", tail_alpha=1.5, jump_rate=3.0)
SCALED = {"kind": "scaled_hull", "tail_alpha": 1.5}
EXIT = {"kind": "exit_tail", "tail_alpha": 1.5}
LP_STABLE = {"kind": "lp_stable_consistency", "alpha": 1.5}

# (entry, field it breaks): each is rejected before any experiment runs
PLAN_TIME_REJECTIONS = {
    "trials_below_2": ({"kind": "lp_brownian", "p": 1.0, "trials": 1}, "trials"),
    "tolerance_sigma_zero": (dict(GRAM, tolerance_sigma=0.0), "tolerance_sigma"),
    "n_values_zero": ({"kind": "boundary_origin", "n_values": [10, 0]}, "n_values"),
    "n_steps_zero": ({"kind": "lp_brownian", "p": 1.0, "n_steps": 0}, "n_steps"),
    "c_zero": (dict(IV, c=0.0), "c"),
    "horizon_zero": (dict(IV, horizon=0.0), "horizon"),
    "j_order_above_d": (dict(IV, j_orders=[1, 3]), "j_orders"),
    "j_order_zero": (dict(IV, j_orders=[0]), "j_orders"),
    "intrinsic_d4": (dict(IV, d=4), "d"),
    "faces_d4": ({"kind": "faces_count", "d": 4, "trials": 100}, "d"),
    "lp_brownian_d4": ({"kind": "lp_brownian", "p": 1.0, "d": 4}, "d"),
    "tail_index_alpha_1": ({"kind": "tail_index", "alpha": 1.0, "trials": 100}, "alpha"),
    "lp_brownian_p_below_1": ({"kind": "lp_brownian", "p": 0.5}, "p"),
    "lp_stable_d3": (dict(LP_STABLE, d=3), "d"),
    "lp_stable_alpha_2": (dict(LP_STABLE, alpha=2.0), "alpha"),
    "renewal_t_zero": (dict(RENEWAL, t_values=[2.0, 0.0]), "t_values"),
    "renewal_dt_zero": (dict(RENEWAL, dt=0.0), "dt"),
    # walks of more than 10^6 steps: the E T_1 batch's 40 / dt, the largest t / dt
    "renewal_dt_tiny": (dict(RENEWAL, dt=1e-300, trials=2, et1_trials=2), "dt"),
    "renewal_t_over_dt": (dict(RENEWAL, t_values=[2.0, 1e5], dt=0.02), "dt"),
    "renewal_unknown_flavor": (dict(RENEWAL, flavor="levy"), "flavor"),
    "exit_tail_no_tail_alpha": ({"kind": "exit_tail"}, "tail_alpha"),
    "exit_tail_d3": (dict(EXIT, d=3), "d"),
    "empty_list": (dict(RENEWAL, t_values=[]), "t_values"),
    "bool_in_list": ({"kind": "boundary_origin", "n_values": [10, True]}, "n_values"),
    # walks of more than 10^6 steps, capped like renewal walks; planning only
    "intrinsic_n_steps_over_cap": (dict(IV, n_steps=10**6 + 1), "n_steps"),
    "faces_n_values_over_cap": (
        {"kind": "faces_count", "n_values": [10, 10**6 + 1], "trials": 100},
        "n_values",
    ),
    "scaled_hull_n_steps_limit_over_cap": (dict(SCALED, n_steps_limit=10**6 + 1), "n_steps_limit"),
    # jump rates in (0, 1e-12): the horizons 40 / rate and 60 / rate overflow
    # or are floored at 1e-12, and these runs failed after earlier plans ran
    "cpp_renewal_rate_subnormal": (
        dict(CPP_RENEWAL, jump_law="gaussian", tail_alpha=None, jump_rate=1e-320,
             trials=2, et1_trials=20),
        "jump_rate",
    ),
    "cpp_renewal_rate_tiny": (dict(CPP_RENEWAL, jump_rate=1e-20), "jump_rate"),
    "exit_tail_rate_tiny": (dict(EXIT, jump_rate=1e-20), "jump_rate"),
    "scaled_hull_rate_tiny": (dict(SCALED, jump_rate=1e-20), "jump_rate"),
    "scaled_hull_rate_subnormal": (dict(SCALED, jump_rate=1e-320), "jump_rate"),
    # cpp paths expected to hold more than 10^6 jumps (jump_rate times the
    # largest t or the E T_1 horizon 40): these planned and then ran out of
    # memory mid-run, exiting 1 as if a row had failed
    "cpp_renewal_jumps_over_cap": (dict(CPP_RENEWAL, jump_rate=1e10, t_values=[1e10]), "jump_rate"),
    "cpp_renewal_et1_jumps_over_cap": (dict(CPP_RENEWAL, jump_rate=2.6e4), "jump_rate"),
    "scaled_hull_jumps_over_cap": (dict(SCALED, jump_rate=1e6, t_values=[1e7]), "jump_rate"),
}

# (minimal entry, walk-length field): every field that sets how many steps a
# walk takes is capped at limits._MAX_WALK_STEPS
WALK_LENGTH_FIELDS = [
    (dict(IV), "n_steps"),
    (dict(IV), "n_values"),
    ({"kind": "boundary_origin", "trials": 100}, "n_steps"),
    ({"kind": "boundary_origin", "trials": 100}, "n_values"),
    ({"kind": "interior_endpoint", "trials": 100}, "n_steps"),
    ({"kind": "interior_endpoint", "trials": 100}, "n_values"),
    ({"kind": "faces_count", "trials": 100}, "n_steps"),
    ({"kind": "faces_count", "trials": 100}, "n_values"),
    ({"kind": "tail_index", "alpha": 1.5, "trials": 100}, "n_steps"),
    ({"kind": "lp_brownian", "p": 1.0}, "n_steps"),
    ({"kind": "lp_brownian", "p": 1.0}, "quad_points"),
    (dict(LP_STABLE), "n_steps"),
    (dict(LP_STABLE), "grid_n"),
    (dict(LP_STABLE), "quad_points"),
    (dict(SCALED), "n_steps_limit"),
]

# Configs that passed planning and then raised inside run_all, after the
# experiments before them had run and before any output was written.
MID_RUN_FAILURES = {
    "cpp_renewal_no_tail_alpha": (dict(CPP_RENEWAL, tail_alpha=None), "tail_alpha"),
    "cpp_renewal_tail_alpha_2_5": (dict(CPP_RENEWAL, tail_alpha=2.5), "tail_alpha"),
    "cpp_renewal_unknown_jump_law": (dict(CPP_RENEWAL, jump_law="cauchy"), "jump_law"),
    "cpp_renewal_negative_rate": (dict(CPP_RENEWAL, jump_rate=-1.0), "jump_rate"),
    "cpp_renewal_drift_length": (dict(CPP_RENEWAL, drift=[0.1, 0.2, 0.3]), "drift"),
    "scaled_hull_unknown_jump_law": (dict(SCALED, jump_law="cauchy"), "jump_law"),
    "exit_tail_unknown_jump_law": (dict(EXIT, jump_law="cauchy"), "jump_law"),
    "exit_tail_negative_rate": (dict(EXIT, jump_rate=-1.0), "jump_rate"),
    "exit_tail_drift_length": (dict(EXIT, drift=[0.1]), "drift"),
    "tail_index_hill_k_at_trials": (
        {"kind": "tail_index", "alpha": 1.5, "trials": 100, "hill_k": 100},
        "hill_k",
    ),
    "tail_index_hill_k_zero": (
        {"kind": "tail_index", "alpha": 1.5, "trials": 100, "hill_k": 0},
        "hill_k",
    ),
    "exit_tail_hill_k_at_trials": (dict(EXIT, trials=50, hill_k=50), "hill_k"),
    "exit_tail_hill_k_zero": (dict(EXIT, hill_k=0), "hill_k"),
    "isotropic_renewal_alpha_2_5": (dict(RENEWAL, flavor="isotropic", alpha=2.5), "alpha"),
    "isotropic_renewal_alpha_zero": (dict(RENEWAL, flavor="isotropic", alpha=0.0), "alpha"),
    "renewal_c_zero": (dict(RENEWAL, c=0.0), "c"),
    "renewal_d_zero": (dict(RENEWAL, d=0), "d"),
    "renewal_et1_trials_1": (dict(RENEWAL, et1_trials=1), "et1_trials"),
    "scaled_hull_rate_zero": (dict(SCALED, jump_rate=0.0), "jump_rate"),
    "scaled_hull_trials_below_10": (dict(SCALED, trials=5), "trials"),
    "scaled_hull_n_steps_limit_zero": (dict(SCALED, n_steps_limit=0), "n_steps_limit"),
    "exit_tail_trials_below_10": (dict(EXIT, trials=5), "trials"),
    "tail_index_c_zero": (
        {"kind": "tail_index", "alpha": 1.5, "trials": 100, "c": 0.0},
        "c",
    ),
    "lp_stable_c_zero": (dict(LP_STABLE, c=0.0), "c"),
    "lp_stable_grid_n_zero": (dict(LP_STABLE, grid_n=0), "grid_n"),
    "intrinsic_n_below_j": (dict(IV, n_values=[1, 40]), "n_values"),
    "intrinsic_n_steps_below_j": (dict(IV, d=3, n_steps=2), "n_steps"),
    "lp_stable_sup_paths_zero": (dict(LP_STABLE, sup_paths=0), "sup_paths"),
    "lp_brownian_quad_points_zero": (
        {"kind": "lp_brownian", "p": 1.0, "quad_points": 0},
        "quad_points",
    ),
    "lp_stable_quad_points_zero": (dict(LP_STABLE, quad_points=0), "quad_points"),
    "tail_index_j_above_d": (
        {"kind": "tail_index", "alpha": 1.5, "trials": 100, "j": 3},
        "j",
    ),
    # cpp paths that never move: no jumps and no drift, so no path exits
    "exit_tail_rate_zero": (dict(EXIT, jump_rate=0.0), "jump_rate"),
    "exit_tail_rate_zero_zero_drift": (
        dict(EXIT, jump_rate=0.0, drift=[0.0, 0.0]),
        "jump_rate",
    ),
    "cpp_renewal_no_rate": (dict(CPP_RENEWAL, jump_rate=None), "jump_rate"),
    "cpp_renewal_no_rate_zero_drift": (
        dict(CPP_RENEWAL, jump_rate=None, drift=[0.0, 0.0]),
        "jump_rate",
    ),
    # drift-only paths leave the unit ball at t = 1/||drift||, after the horizon
    "exit_tail_slow_drift_only": (
        {"kind": "exit_tail", "jump_rate": 0, "drift": [0.05, 0.0], "jump_law": "gaussian",
         "trials": 50},
        "drift",
    ),
    "cpp_renewal_slow_drift_only": (
        {"kind": "renewal_ratio", "flavor": "cpp", "jump_rate": 0, "drift": [0.02, 0.0],
         "jump_law": "gaussian", "t_values": [100.0], "trials": 20, "et1_trials": 20},
        "drift",
    ),
}

# (entry, key its renewal flavor ignores): a value other than the schema
# default used to be dropped without a word
UNUSED_RENEWAL_KEYS = {
    "brownian_alpha": (dict(RENEWAL, alpha=1.5), "alpha"),
    "brownian_jump_law": (dict(RENEWAL, jump_law="gaussian"), "jump_law"),
    "brownian_jump_rate": (dict(RENEWAL, jump_rate=3.0), "jump_rate"),
    "brownian_tail_alpha": (dict(RENEWAL, tail_alpha=1.5), "tail_alpha"),
    "brownian_drift": (dict(RENEWAL, drift=[0.5, 0.0]), "drift"),
    "isotropic_jump_law": (dict(RENEWAL, flavor="isotropic", jump_law="gaussian"), "jump_law"),
    "isotropic_jump_rate": (dict(RENEWAL, flavor="isotropic", jump_rate=3.0), "jump_rate"),
    "isotropic_tail_alpha": (dict(RENEWAL, flavor="isotropic", tail_alpha=1.5), "tail_alpha"),
    "isotropic_drift": (dict(RENEWAL, flavor="isotropic", drift=[0.5, 0.0]), "drift"),
    "cpp_alpha": (dict(CPP_RENEWAL, alpha=1.5), "alpha"),
    "cpp_c": (dict(CPP_RENEWAL, c=1.0), "c"),
}

REPO = Path(__file__).resolve().parent.parent

# sha256 of the resolved plans at master seed 0: planning must keep
# resolving these configs to the same parameters
CONFIG_DIGESTS = {
    "smoke": "a5e9bfb28ba8c21c3770037a457d8104fa301cbb3a9320b9cd35898f7ad9f8fd",
    "smoke_cli": "a5e9bfb28ba8c21c3770037a457d8104fa301cbb3a9320b9cd35898f7ad9f8fd",
    "hull_walks": "c8b43faf4a8ec6e42db7bfb6a2f09617b131312d7fc91fcb695f9c38e8543132",
    "exit_scan": "3d1035bb6c18b4f3d8f6730f94649c1206fcd7cf8017454219b4071b2649ff0a",
}


def _assert_rejected(entry, field):
    with pytest.raises(ConfigError) as exc:
        plan_experiments(_cfg({k: v for k, v in entry.items() if v is not None}))
    assert f"'{entry['kind']}'" in str(exc.value)
    assert f"'{field}'" in str(exc.value)


class TestPlanTimeChecks:
    @pytest.mark.parametrize(
        "entry,field", PLAN_TIME_REJECTIONS.values(), ids=PLAN_TIME_REJECTIONS.keys()
    )
    def test_rejection_names_kind_and_field(self, entry, field):
        _assert_rejected(entry, field)

    @pytest.mark.parametrize(
        "entry,field", MID_RUN_FAILURES.values(), ids=MID_RUN_FAILURES.keys()
    )
    def test_would_fail_mid_run_rejected_at_plan_time(self, entry, field):
        _assert_rejected(entry, field)

    @pytest.mark.parametrize(
        "entry,field", UNUSED_RENEWAL_KEYS.values(), ids=UNUSED_RENEWAL_KEYS.keys()
    )
    def test_renewal_key_unused_by_flavor_rejected(self, entry, field):
        _assert_rejected(entry, field)
        with pytest.raises(ConfigError, match=repr(entry.get("flavor", "brownian"))):
            plan_experiments(_cfg(entry))

    def test_renewal_keys_at_their_defaults_accepted(self):
        entry = dict(RENEWAL, alpha=2.0, c=0.5, jump_law="pareto")
        (plan,) = plan_experiments(_cfg(entry))
        assert plan.params["flavor"] == "brownian"

    def test_repeated_j_order_rejected(self):
        # the runner estimates each order once, so a repeat shifted the
        # rows: V_2's mean came out as a second j = 1 row and FAILed
        _assert_rejected(dict(IV, j_orders=[1, 1, 2]), "j_orders")

    def test_drift_only_cpp_renewal_accepted(self):
        entry = dict(RENEWAL, flavor="cpp", jump_law="gaussian", drift=[2.0, 0.0])
        (plan,) = plan_experiments(_cfg(entry))
        assert plan.params["jump_rate"] is None

    @pytest.mark.parametrize("entry", [CPP_RENEWAL, EXIT, SCALED], ids=lambda e: e["kind"])
    def test_jump_rate_at_floor_accepted(self, entry):
        assert limits._MIN_JUMP_RATE == 1e-12
        (plan,) = plan_experiments(_cfg(dict(entry, jump_rate=1e-12)))
        assert plan.params["jump_rate"] == 1e-12
        _assert_rejected(dict(entry, jump_rate=math.nextafter(1e-12, 0.0)), "jump_rate")

    @pytest.mark.parametrize(
        "entry",
        [dict(CPP_RENEWAL, jump_rate=2.5e4), dict(SCALED, jump_rate=1e4, t_values=[10.0, 100.0])],
        ids=["renewal_et1_horizon", "scaled_hull_largest_t"],
    )
    def test_expected_jumps_at_the_cap_accepted(self, entry):
        assert limits._MAX_WALK_STEPS == 10**6
        (plan,) = plan_experiments(_cfg(entry))
        assert plan.params["jump_rate"] == entry["jump_rate"]
        _assert_rejected(dict(entry, jump_rate=math.nextafter(entry["jump_rate"], math.inf)), "jump_rate")

    def test_drift_only_exit_tail_accepted(self):
        (plan,) = plan_experiments(_cfg(dict(EXIT, jump_rate=0.0, drift=[0.5, 0.0])))
        assert plan.params["jump_rate"] == 0.0

    def test_drift_reaching_the_sphere_at_the_horizon_runs(self, tmp_path):
        # ||drift|| * horizon = 1 (horizons 10 and 40): the path reaches the
        # unit sphere exactly at the horizon, and the drift scanner counts
        # that as the exit of every path
        tail = {"kind": "exit_tail", "jump_rate": 0.0, "drift": [0.1, 0.0],
                "jump_law": "gaussian", "trials": 10}
        renewal = {"kind": "renewal_ratio", "flavor": "cpp", "drift": [0.025, 0.0],
                   "jump_law": "gaussian", "t_values": [2.0], "trials": 2, "et1_trials": 2}
        manifest = run_all(plan_experiments(_cfg(tail, renewal)), tmp_path)
        tail_row, renewal_row = manifest.results
        assert tail_row["mean"] == math.inf  # every exit norm is the same
        assert json.loads(renewal_row["param_json"])["et1_mean"] == pytest.approx(40.0)
        assert renewal_row["mean"] == 0.0  # no exit before t = 2

    @pytest.mark.parametrize(
        "entry,field", WALK_LENGTH_FIELDS, ids=[f"{e['kind']}-{f}" for e, f in WALK_LENGTH_FIELDS]
    )
    def test_walk_length_capped_at_plan_time(self, entry, field):
        assert limits._MAX_WALK_STEPS == 10**6
        for steps, ok in ((10**6, True), (10**6 + 1, False)):
            value = [steps] if field == "n_values" else steps
            if ok:
                (plan,) = plan_experiments(_cfg(dict(entry, **{field: value})))
                assert plan.params[field] == value
            else:
                _assert_rejected(dict(entry, **{field: value}), field)

    @pytest.mark.parametrize("name", CONFIG_DIGESTS)
    def test_config_digest_unchanged(self, name):
        if name == "smoke":
            plans = smoke_plans()
        else:
            plans = load_config(REPO / "bench" / "workloads" / f"{name}.json")
        assert _config_digest(plans, 0) == CONFIG_DIGESTS[name]


class TestScannerPathsConfig:
    """CI runs tests/scanner_paths.json for the exit scans that no benchmark
    workload reaches; the config must keep reaching them."""

    def test_config_reaches_every_scanner(self, tmp_path, monkeypatch):
        raw = json.loads((REPO / "tests" / "scanner_paths.json").read_text(encoding="utf-8"))
        assert len(plan_experiments(raw)) == 5
        calls = Counter()

        def count(name, key):
            real = getattr(limits, name)

            def counted(*args):
                calls[name, key(*args)] += 1
                return real(*args)

            monkeypatch.setattr(limits, name, counted)

        # keyed by the path's dimension
        count("_exits_linear", lambda times, pts: pts.shape[1])
        count("_exits_with_drift", lambda times, pts, v: pts.shape[1])
        count("_walk_kernel", lambda spec, *rest: spec.d)
        for entry in raw["experiments"]:
            entry["trials"] = 10
            if entry["kind"] == "renewal_ratio":
                entry["et1_trials"] = 10
        manifest = run_all(plan_experiments(raw), tmp_path)
        assert len(manifest.results) == 9
        # the isotropic renewals scan per trial at d = 2 and d = 3; the
        # Brownian one at d = 8 runs on the blocks
        for key in (("_exits_linear", 2), ("_exits_linear", 3), ("_exits_with_drift", 2),
                    ("_walk_kernel", 8)):
            assert calls[key] >= 1, key


class TestLoadConfig:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(_cfg(GRAM)), encoding="utf-8")
        plans = load_config(path)
        assert len(plans) == 1 and plans[0].kind == "gram_determinant"

    def test_malformed_json_reports_position(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{\n  "experiments": [,]\n}\n', encoding="utf-8")
        with pytest.raises(ConfigError, match="malformed JSON") as exc:
            load_config(path)
        assert "line 2" in str(exc.value)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "nope.json")


class TestRunAll:
    def test_csv_schema_exact(self, tmp_path):
        run_all(plan_experiments(_cfg(GRAM)), tmp_path)
        rows = _read_csv(tmp_path / "results.csv")
        assert rows[0] == list(CSV_COLUMNS)
        assert len(rows) == 2
        record = dict(zip(rows[0], rows[1]))
        assert record["experiment"] == "gram_determinant"
        assert record["verdict"] in ("PASS", "FAIL")
        assert record["trials"] == "400"
        json.loads(record["param_json"])
        float(record["mean"])
        float(record["stderr"])
        float(record["target"])
        float(record["z"])

    def test_rerun_byte_identical(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        man_a = run_all(plan_experiments(_cfg(GRAM, INTRINSIC)), out_a, master_seed=5)
        man_b = run_all(plan_experiments(_cfg(GRAM, INTRINSIC)), out_b, master_seed=5)
        assert (out_a / "results.csv").read_bytes() == (out_b / "results.csv").read_bytes()
        assert man_a.config_digest == man_b.config_digest
        assert man_a.results == man_b.results

    def test_seed_changes_results(self, tmp_path):
        man_a = run_all(plan_experiments(_cfg(GRAM)), tmp_path / "a", master_seed=0)
        man_b = run_all(plan_experiments(_cfg(GRAM)), tmp_path / "b", master_seed=1)
        assert man_a.results[0]["mean"] != man_b.results[0]["mean"]
        assert man_a.config_digest != man_b.config_digest

    def test_thread_count_invariance(self, tmp_path):
        plans = _cfg(GRAM, INTRINSIC)
        run_all(plan_experiments(plans), tmp_path / "t1", master_seed=3, threads=1)
        run_all(plan_experiments(plans), tmp_path / "t4", master_seed=3, threads=4)
        assert (tmp_path / "t1" / "results.csv").read_bytes() == (
            tmp_path / "t4" / "results.csv"
        ).read_bytes()

    @pytest.mark.parametrize("threads", [0, -1, 1.0, True])
    def test_thread_count_must_be_a_positive_integer(self, tmp_path, threads):
        with pytest.raises(ConfigError, match="^threads must be an integer >= 1"):
            run_all(plan_experiments(_cfg(GRAM)), tmp_path / "out", threads=threads)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("seed", [-1, 1.5, True])
    def test_master_seed_must_be_a_nonnegative_integer(self, tmp_path, seed):
        # 1.5 once ran as seed 1 under a digest of its own
        with pytest.raises(ConfigError, match="^master_seed must be an integer >= 0"):
            run_all(plan_experiments(_cfg(GRAM)), tmp_path / "out", master_seed=seed)
        assert not (tmp_path / "out").exists()

    def test_scaled_hull_builds_its_limit_side_once_per_plan(self, monkeypatch):
        calls = Counter()
        real = mc_engine.trial_values

        def counting(seed, name, trials, fn):
            calls[name] += 1
            return real(seed, name, trials, fn)

        # the limit walks run through mc_engine.walk_hull_values
        monkeypatch.setattr(limits, "trial_values", counting)
        monkeypatch.setattr(mc_engine, "trial_values", counting)
        entry = dict(SCALED, t_values=[20.0, 50.0], trials=20, n_steps_limit=100)
        (plan,) = plan_experiments(_cfg(entry))
        rows, trend = cli_report._run_scaled_hull(plan, 3)
        once = {"scaled_hull_fit": 1, "scaled_hull_limit": 1, "scaled_hull_long": 2}
        assert calls == once
        spec = cli_report._cpp_spec(plan.params)
        calls.clear()
        limits.scaled_hull_convergence(spec, [20.0, 50.0], trials=20, seed=3, n_steps_limit=100)
        assert calls == once
        stats = []
        for row, t in zip(rows, (20.0, 50.0)):
            stat, p_value, report = limits.scaled_hull_convergence(
                spec, [t], trials=20, seed=3, n_steps_limit=100
            )[0]
            stats.append(stat)
            params = json.loads(row["param_json"])
            assert (row["mean"], row["trials"], params["t"]) == (stat, 20, t)
            assert params["p_value"] == p_value
            assert (params["et1_mean"], params["fitted_c"]) == (
                report["et1_mean"], report["fitted_c"]
            )
        assert trend[plan.label]["ks_stats"] == stats

    def test_renewal_walk_flavors_agree_at_alpha_2(self, tmp_path):
        # an isotropic stable walk at alpha = 2 draws the Brownian walk's steps
        base = dict(RENEWAL, dt=0.05, trials=20, et1_trials=20)
        iso = dict(base, flavor="isotropic", alpha=2.0, label="iso")
        manifest = run_all(plan_experiments(_cfg(iso, dict(base, label="bm"))), tmp_path)
        iso_row, bm_row = manifest.results
        assert (iso_row["experiment"], bm_row["experiment"]) == ("iso", "bm")
        assert iso_row["mean"] > 0.0
        assert dict(iso_row, experiment="bm") == bm_row
        assert manifest.trends["iso"] == manifest.trends["bm"]

    @pytest.mark.parametrize("sup_mean,want", [(1.0, 0.0), (1.5, math.inf)])
    def test_lp_gap_z_at_zero_spread_follows_the_z_rule(self, monkeypatch, sup_mean, want):
        def no_spread(*args, **kwargs):
            return EstimateResult(1.0, 0.0, 200), EstimateResult(sup_mean, 0.0, 200)

        monkeypatch.setattr(cli_report, "verify_lp_stable_consistency", no_spread)
        (plan,) = plan_experiments(_cfg(LP_STABLE))
        rows, trend = cli_report._run_lp_consistency(plan, 0)
        assert rows[0]["z"] == want
        assert trend[plan.label]["gap_z"] == want

    def test_processes_recorded(self, tmp_path):
        plans = plan_experiments(_cfg(GRAM))
        assert run_all(plans, tmp_path / "t1").processes == 1
        manifest = run_all(plans, tmp_path / "t2", threads=2)
        assert manifest.processes == min(2, CPUS)
        for name in ("summary.json", "manifest.json"):
            assert json.loads((tmp_path / "t2" / name).read_text())["processes"] == min(2, CPUS)
        _assert_no_child_left()

    @TWO_CPUS
    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    @pytest.mark.parametrize("failing", [False, True], ids=["passing", "failed_plan"])
    def test_a_run_leaves_no_descriptor_open(self, tmp_path, monkeypatch, failing):
        plans = plan_experiments(_cfg(GRAM, RENEWAL if failing else INTRINSIC))
        before = len(os.listdir("/proc/self/fd"))
        if failing:
            _fail_renewal_plans(monkeypatch)
            with pytest.raises(ConfigError, match="renewal stand-in failed"):
                run_all(plans, tmp_path, threads=2)
        else:
            assert run_all(plans, tmp_path, threads=2).processes == 2
        assert len(os.listdir("/proc/self/fd")) == before
        _assert_no_child_left()

    @TWO_CPUS
    def test_only_the_parent_writes_results(self, tmp_path, monkeypatch):
        log = tmp_path / "writers.txt"
        write = cli_report.write_results_csv

        def logged(rows, path):
            with open(log, "a", encoding="utf-8") as fh:
                fh.write(f"{os.getpid()}\n")
            write(rows, path)

        monkeypatch.setattr(cli_report, "write_results_csv", logged)
        manifest = run_all(plan_experiments(_cfg(GRAM, INTRINSIC)), tmp_path / "out", threads=2)
        assert manifest.processes == 2
        assert log.read_text().split() == [str(os.getpid())] * 2  # once per plan
        _assert_no_child_left()

    def test_impossible_tolerance_fails_run(self, tmp_path):
        plans = plan_experiments(_cfg(dict(GRAM, tolerance_sigma=1e-6)))
        manifest = run_all(plans, tmp_path)
        assert manifest.verdicts["gram_determinant"] == "FAIL"
        assert manifest_exit_code(manifest) == 1
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["exit_code"] == 1
        assert summary["counts"]["FAIL"] == 1

    def test_faces_at_n_up_to_d_pass(self, tmp_path):
        # the origin is a vertex of every hull of n <= d steps, so the face
        # count equals the formula with stderr 0
        entry = {"kind": "faces_count", "d": 2, "n_values": [1, 2], "trials": 100}
        rows = run_all(plan_experiments(_cfg(entry)), tmp_path).results
        assert [(json.loads(r["param_json"])["n"], r["verdict"]) for r in rows] == [
            (1, "PASS"),
            (2, "PASS"),
        ]

    def test_boundary_rows_are_the_markov_bound_then_the_exact_law(self, tmp_path):
        # the exact law is expanded up to n = 10^4; beyond it only the bound row
        entry = {"kind": "boundary_origin", "n_values": [20, 10_001], "trials": 100}
        rows = run_all(plan_experiments(_cfg(entry)), tmp_path).results
        assert [json.loads(r["param_json"]) for r in rows] == [
            {"bound": "upper", "n": 20},
            {"n": 20, "target_kind": "exact"},
            {"bound": "upper", "n": 10_001},
        ]
        assert rows[1]["mean"] == rows[0]["mean"]
        assert rows[1]["target"] == float(prob_origin_outside_walk_hull(20, 2))
        assert rows[1]["verdict"] == "PASS"

    def test_empty_plans_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="no experiments"):
            run_all([], tmp_path)

    def test_manifest_and_summary_structure(self, tmp_path):
        manifest = run_all(plan_experiments(_cfg(GRAM, INTRINSIC)), tmp_path)
        assert re.fullmatch(r"[0-9a-f]{64}", manifest.config_digest)
        assert re.fullmatch(r"[0-9a-f]{12}-\d{14}", manifest.run_id)
        assert re.fullmatch(
            r"\d{4}-\d{2}-\d{2}T\d{2}:\d{2}:\d{2}Z", manifest.timestamp
        )
        assert set(manifest.verdicts) == {"gram_determinant", "intrinsic_volumes"}
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["config_digest"] == manifest.config_digest
        assert sum(summary["counts"].values()) == len(manifest.verdicts)
        payload = json.loads((tmp_path / "manifest.json").read_text())
        assert len(payload["results"]) == len(manifest.results)
        csv_rows = _read_csv(tmp_path / "results.csv")
        assert len(csv_rows) - 1 == len(manifest.results)

    def test_manifest_times_each_experiment(self, tmp_path, monkeypatch):
        plans = plan_experiments(_cfg(GRAM, INTRINSIC))
        run_all(plans, tmp_path / "a")
        runner = cli_report._RUNNERS["intrinsic_volumes"]

        def slow(plan, seed):
            time.sleep(0.05)
            return runner(plan, seed)

        monkeypatch.setitem(cli_report._RUNNERS, "intrinsic_volumes", slow)
        run_all(plans, tmp_path / "b")
        timings = [json.loads((tmp_path / d / "manifest.json").read_text())["timings"] for d in "ab"]
        for t in timings:
            assert set(t) == {"gram_determinant", "intrinsic_volumes"}
            assert all(isinstance(v, float) and v >= 0.0 for v in t.values())
        assert timings[1]["intrinsic_volumes"] >= 0.05
        # the timings reach neither summary.json nor results.csv
        read = lambda d, name: (tmp_path / d / name).read_bytes()  # noqa: E731
        assert read("a", "results.csv") == read("b", "results.csv")
        summaries = [json.loads(read(d, "summary.json")) for d in "ab"]
        assert all("timings" not in summary for summary in summaries)
        for summary in summaries:
            del summary["run_id"], summary["timestamp"]
        assert summaries[0] == summaries[1]

    def test_manifest_records_rates_and_environment(self, tmp_path):
        plans = plan_experiments(_cfg(GRAM, INTRINSIC))
        run_all(plans, tmp_path / "a")
        run_all(plans, tmp_path / "b", threads=2)
        read = lambda d, name: (tmp_path / d / name).read_bytes()  # noqa: E731
        for d, processes in (("a", 1), ("b", min(2, CPUS))):
            payload = json.loads(read(d, "manifest.json"))
            rates, timings = payload["trials_per_s"], payload["timings"]
            assert set(rates) == set(timings) == {"gram_determinant", "intrinsic_volumes"}
            for plan in plans:
                assert rates[plan.label] == plan.params["trials"] / timings[plan.label]
            env = payload["environment"]
            assert env == {
                "python": "{}.{}.{}".format(*sys.version_info[:3]),
                "numpy": np.__version__,
                "cpu_count": os.cpu_count(),
                "usable_cpus": CPUS,
                "processes": processes,
            }
            summary = json.loads(read(d, "summary.json"))
            assert not {"trials_per_s", "environment", "timings"} & set(summary)
        # none of it reaches results.csv
        assert read("a", "results.csv") == read("b", "results.csv")
        _assert_no_child_left()

    def test_intrinsic_rows_use_exact_targets(self, tmp_path):
        manifest = run_all(plan_experiments(_cfg(INTRINSIC)), tmp_path)
        assert len(manifest.results) == 4  # two n values x two orders
        for row in manifest.results:
            params = json.loads(row["param_json"])
            assert params["target_kind"] == "exact"
            assert params["n"] in (40, 80)
            assert row["j"] in (1, 2)

    def test_dump_polytopes_writes_walk_hulls(self, tmp_path):
        plans = plan_experiments(_cfg(INTRINSIC, GRAM))
        run_all(plans, tmp_path, dump_polytopes=True)
        dumped = json.loads((tmp_path / "polytopes.json").read_text())
        assert set(dumped) == {"intrinsic_volumes"}
        hulls = dumped["intrinsic_volumes"]
        assert len(hulls) == 3
        for hull in hulls:
            assert len(hull) >= 3
            assert all(len(v) == 2 for v in hull)

    @pytest.mark.parametrize(
        "entry,spec,n",
        [
            (INTRINSIC, StableSpec(flavor="brownian", c=0.5, d=2), 40),
            (
                {"kind": "faces_count", "d": 3, "n_values": [30], "trials": 100},
                StableSpec(flavor="brownian", c=0.5, d=3),
                30,
            ),
        ],
        ids=["d2", "d3"],
    )
    def test_dump_polytopes_equals_hand_written_trial_loop(self, tmp_path, entry, spec, n):
        # stream pin: hull i is drawn from trial_rng(seed, stream_id("dump_<label>"), i)
        run_all(plan_experiments(_cfg(entry)), tmp_path, master_seed=3, dump_polytopes=True)
        dumped = json.loads((tmp_path / "polytopes.json").read_text())
        stream = stream_id(f"dump_{entry['kind']}")
        build = hull2d if spec.d == 2 else hull3d
        expected = [
            build(sample_walk_path(spec, n, 1.0, trial_rng(3, stream, i)).points)
            .vertices.tolist()
            for i in range(3)
        ]
        assert dumped == {entry["kind"]: expected}

    def test_dump_polytopes_uses_the_plan_horizon(self, tmp_path):
        run_all(plan_experiments(_cfg(dict(INTRINSIC, horizon=4.0))), tmp_path,
                master_seed=3, dump_polytopes=True)
        dumped = json.loads((tmp_path / "polytopes.json").read_text())
        stream = stream_id("dump_intrinsic_volumes")
        spec = StableSpec(flavor="brownian", c=0.5, d=2)
        expected = [
            hull2d(sample_walk_path(spec, 40, 4.0, trial_rng(3, stream, i)).points)
            .vertices.tolist()
            for i in range(3)
        ]
        assert dumped == {"intrinsic_volumes": expected}


class TestCli:
    def _write_cfg(self, tmp_path, obj):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(obj), encoding="utf-8")
        return str(path)

    def test_list_experiments_exits_zero(self, capsys):
        assert main(["list-experiments"]) == 0
        out = capsys.readouterr().out
        for kind, _ in list_experiment_kinds():
            assert kind in out

    def test_run_minimal_config(self, tmp_path, capsys):
        cfg = self._write_cfg(tmp_path, _cfg(GRAM))
        out_dir = tmp_path / "out"
        assert main(["run", cfg, "--out", str(out_dir)]) == 0
        stdout = capsys.readouterr().out
        assert "PASS gram_determinant" in stdout
        assert "results written to" in stdout
        for name in ("results.csv", "summary.json", "manifest.json"):
            assert (out_dir / name).is_file()

    def test_failing_run_exits_one(self, tmp_path, capsys):
        cfg = self._write_cfg(tmp_path, _cfg(dict(GRAM, tolerance_sigma=1e-6)))
        assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 1
        assert "FAIL gram_determinant" in capsys.readouterr().out

    def test_bad_config_exits_two(self, tmp_path, capsys):
        cfg = self._write_cfg(tmp_path, _cfg({"kind": "volume_of_doom"}))
        assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 2
        assert "configuration error:" in capsys.readouterr().err

    def test_duplicate_label_cannot_hide_a_fail(self, tmp_path, capsys):
        failing = dict(GRAM, label="x#2", tolerance_sigma=1e-9)
        cfg = self._write_cfg(tmp_path, _cfg(failing, dict(GRAM, label="x"), dict(GRAM, label="x")))
        assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 1
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["verdicts"] == {"x#2": "FAIL", "x": "PASS", "x#3": "PASS"}
        assert "FAIL x#2" in capsys.readouterr().out

    def test_non_utf8_config_exits_two(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        # a latin-1 e-acute in the label: one byte that is no UTF-8
        text = json.dumps(_cfg(dict(GRAM, label="caf\u00e9")), ensure_ascii=False)
        cfg.write_bytes(text.encode("latin-1"))
        out_dir = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out_dir)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and err.count("\n") == 1
        assert str(cfg) in err and "offset" in err
        assert not out_dir.exists()

    def test_missing_config_exits_two(self, tmp_path, capsys):
        missing = str(tmp_path / "absent.json")
        assert main(["run", missing, "--out", str(tmp_path / "out")]) == 2
        assert "configuration error:" in capsys.readouterr().err

    def test_unwritable_out_dir_exits_three(self, tmp_path, capsys):
        cfg = self._write_cfg(tmp_path, _cfg(GRAM))
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory", encoding="utf-8")
        assert main(["run", cfg, "--out", str(blocker / "out")]) == 3
        assert "i/o error:" in capsys.readouterr().err

    def test_threads_flag_splits_trials_keeping_results_bytes(self, tmp_path, capsys):
        cfg = self._write_cfg(tmp_path, _cfg(GRAM, INTRINSIC))
        assert main(["run", cfg, "--threads", "2", "--out", str(tmp_path / "t2")]) == 0
        assert main(["run", cfg, "--out", str(tmp_path / "plain")]) == 0
        capsys.readouterr()
        assert (tmp_path / "t2" / "results.csv").read_bytes() == (
            tmp_path / "plain" / "results.csv"
        ).read_bytes()
        summary = json.loads((tmp_path / "t2" / "summary.json").read_text())
        assert summary["processes"] == min(2, CPUS)
        _assert_no_child_left()

    @pytest.mark.parametrize("threads", ["1", pytest.param("2", marks=TWO_CPUS)])
    def test_only_a_parallel_run_imports_multiprocessing(self, tmp_path, threads):
        # the team imports multiprocessing.connection when it forks, so a
        # serial run pays nothing for it
        cfg = self._write_cfg(tmp_path, _cfg(GRAM))
        script = (
            "import sys\n"
            "from levyhull.cli import main\n"
            f"assert main(['run', {cfg!r}, '--threads', {threads!r},"
            f" '--out', {str(tmp_path / 'out')!r}]) == 0\n"
            "print('multiprocessing.connection' in sys.modules)\n"
        )
        src = Path(cli_report.__file__).resolve().parents[1]
        got = subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        assert got.stdout.splitlines()[-1] == str(threads != "1")

    @pytest.mark.parametrize("threads", ["0", "-2"])
    def test_threads_below_one_exits_two(self, tmp_path, capsys, threads):
        cfg = self._write_cfg(tmp_path, _cfg(GRAM))
        assert main(["run", cfg, "--threads", threads, "--out", str(tmp_path / "out")]) == 2
        assert "configuration error: --threads must be an integer >= 1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("threads", ["1", pytest.param("2", marks=TWO_CPUS)])
    def test_failed_plan_keeps_finished_rows(self, tmp_path, capsys, monkeypatch, threads):
        # The renewal passes planning, then fails in run_all, after the Gram
        # plan has run (and, at --threads 2, forked the team).
        _fail_renewal_plans(monkeypatch)
        cfg = self._write_cfg(tmp_path, _cfg(GRAM, RENEWAL))
        out_dir = tmp_path / "out"
        assert main(["run", cfg, "--threads", threads, "--out", str(out_dir)]) == 2
        assert "renewal stand-in failed" in capsys.readouterr().err
        rows = _read_csv(out_dir / "results.csv")
        assert rows[0] == list(CSV_COLUMNS) and [r[0] for r in rows[1:]] == ["gram_determinant"]
        assert not (out_dir / "summary.json").exists()
        assert not (out_dir / "manifest.json").exists()
        _assert_no_child_left()

    @pytest.mark.parametrize(
        "text,kind,field",
        [
            ('{"kind": "gram_determinant", "d": 2, "j": 1, "trials": 400,'
             ' "tolerance_sigma": 1e999}', "gram_determinant", "tolerance_sigma"),
            ('{"kind": "lp_brownian", "p": 1.0, "n_steps": 100, "trials": 100,'
             ' "rel_band": 1e999}', "lp_brownian", "rel_band"),
            ('{"kind": "exit_tail", "tail_alpha": 1.5, "trials": 100,'
             ' "drift": [NaN, 0.0]}', "exit_tail", "drift"),
        ],
        ids=["tolerance_sigma_inf", "rel_band_inf", "drift_nan"],
    )
    def test_non_finite_number_refused_before_any_run(
        self, tmp_path, capsys, text, kind, field
    ):
        # strict JSON reads 1e999 as inf; an infinite band made every row PASS
        cfg = tmp_path / "cfg.json"
        cfg.write_text(f'{{"experiments": [{text}]}}', encoding="utf-8")
        out_dir = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out_dir)]) == 2
        err = capsys.readouterr().err
        assert "configuration error:" in err
        assert f"'{kind}'" in err and f"'{field}'" in err
        assert not (out_dir / "results.csv").exists()

    def test_walk_past_the_cap_exits_two_before_any_run(self, tmp_path, capsys, monkeypatch):
        # 10^9 steps asked sample_walk_path for a 16 GB array per trial;
        # the runner is replaced so that a missing cap fails without sampling
        def must_not_run(plan, seed):
            raise AssertionError("a walk past the cap reached its runner")

        monkeypatch.setitem(cli_report._RUNNERS, "intrinsic_volumes", must_not_run)
        entry = {"kind": "intrinsic_volumes", "n_steps": 10**9, "trials": 100}
        out_dir = tmp_path / "out"
        assert main(["run", self._write_cfg(tmp_path, _cfg(entry)), "--out", str(out_dir)]) == 2
        err = capsys.readouterr().err
        assert "configuration error:" in err
        assert "'intrinsic_volumes'" in err and "'n_steps'" in err and "1000000" in err
        assert not (out_dir / "results.csv").exists()

    def test_negative_seed_exits_two_before_any_run(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        assert main(["smoke", "--seed", "-1", "--out", str(out_dir)]) == 2
        err = capsys.readouterr().err
        assert err == "configuration error: master_seed must be an integer >= 0, got -1\n"
        assert not out_dir.exists()

    def test_cli_seed_matches_library(self, tmp_path, capsys):
        cfg = self._write_cfg(tmp_path, _cfg(GRAM))
        assert main(["run", cfg, "--out", str(tmp_path / "cli"), "--seed", "7"]) == 0
        capsys.readouterr()
        run_all(plan_experiments(_cfg(GRAM)), tmp_path / "lib", master_seed=7)
        assert (tmp_path / "cli" / "results.csv").read_bytes() == (
            tmp_path / "lib" / "results.csv"
        ).read_bytes()


class TestSmokeSuite:
    def test_smoke_plans_cover_every_kind(self):
        plans = smoke_plans()
        assert sorted(p.kind for p in plans) == sorted(
            k for k, _ in list_experiment_kinds()
        )

    def test_smoke_run_passes(self, tmp_path, capsys):
        assert main(["smoke", "--out", str(tmp_path / "out")]) == 0
        stdout = capsys.readouterr().out
        assert "FAIL" not in stdout
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["exit_code"] == 0
        assert summary["counts"]["FAIL"] == 0
        assert set(summary["trends"]) >= {"renewal_ratio", "scaled_hull"}
