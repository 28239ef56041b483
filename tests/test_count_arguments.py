"""One rule for count arguments: every public entry point that takes a
dimension, an index, or a number of steps, trials or points accepts a
Python or numpy integer at or above its floor, and refuses a float (even
an integral one), a bool, or a value below the floor with an error that
names the argument. Nothing is rounded."""

import re

import numpy as np
import pytest

from levyhull import (
    Ball,
    ConfigError,
    EstimateResult,
    ExperimentConfig,
    ParameterError,
    StableSpec,
    ball_intrinsic_volume,
    dirichlet_constant,
    errors,
    estimate_mean_exit_time,
    ev_intrinsic_brownian,
    ev_intrinsic_isotropic,
    ev_intrinsic_stable,
    exit_value_tail_experiment,
    expected_faces_at_origin,
    expected_hull_vertices,
    hill_tail_index,
    hull3d,
    lattice_sum_partial,
    prob_origin_outside_walk_hull,
    projection_intrinsic_estimate,
    renewal_ratio_experiment,
    run_gram_experiment,
    sample_isotropic_vec,
    sample_walk_path,
    scaled_hull_convergence,
    trial_rng,
    unit_ball_volume,
    verify_lp_brownian,
    verify_lp_stable_consistency,
    vp_ball_mixed,
    walk_ev_intrinsic,
    zonotope_intrinsic_volume,
)

BROWNIAN2 = StableSpec(flavor="brownian", c=0.5, d=2)
HEAVY = StableSpec(d=2, flavor="cpp", tail_alpha=1.5, jump_rate=1.0)
CUBE = hull3d(np.array([[x, y, z] for x in (0, 1) for y in (0, 1) for z in (0, 1)], dtype=float))
PARETO = np.random.default_rng(0).uniform(size=50) ** (-1.0 / 1.5)
LP_STABLE = dict(n_steps=10, trials=2, grid_n=10, sup_paths=2, quad_points=8)


def _rng():
    return np.random.default_rng(0)


def _config(**kw):
    return ExperimentConfig(BROWNIAN2, trials=100, **kw)


# (entry point.argument, argument name, floor, call with the count); the
# other arguments are small and valid, so a call at the floor runs quickly.
# ExperimentConfig raises ConfigError, everything else ParameterError.
ENTRIES = [
    ("unit_ball_volume.d", "d", 0, lambda v: unit_ball_volume(v)),
    ("ball_intrinsic_volume.d", "d", 1, lambda v: ball_intrinsic_volume(v, 1, 1.0)),
    ("ball_intrinsic_volume.j", "j", 0, lambda v: ball_intrinsic_volume(2, v, 1.0)),
    ("ev_intrinsic_stable.j", "j", 1, lambda v: ev_intrinsic_stable(1.5, v, 1.0)),
    ("ev_intrinsic_brownian.d", "d", 1, lambda v: ev_intrinsic_brownian(v, 1)),
    ("ev_intrinsic_brownian.j", "j", 1, lambda v: ev_intrinsic_brownian(2, v)),
    ("ev_intrinsic_isotropic.d", "d", 1, lambda v: ev_intrinsic_isotropic(1.5, 1.0, v, 1)),
    ("ev_intrinsic_isotropic.j", "j", 1, lambda v: ev_intrinsic_isotropic(1.5, 1.0, 2, v)),
    ("dirichlet_constant.j", "j", 1, lambda v: dirichlet_constant(1.5, v)),
    ("lattice_sum_partial.j", "j", 1, lambda v: lattice_sum_partial(1.5, v, 100)),
    ("lattice_sum_partial.n", "n", 2, lambda v: lattice_sum_partial(1.5, 2, v)),
    ("expected_faces_at_origin.n", "n", 1, lambda v: expected_faces_at_origin(v, 2)),
    ("expected_faces_at_origin.d", "d", 2, lambda v: expected_faces_at_origin(10, v)),
    ("expected_hull_vertices.n", "n", 1, lambda v: expected_hull_vertices(v, 3)),
    ("expected_hull_vertices.d", "d", 2, lambda v: expected_hull_vertices(10, v)),
    ("prob_origin_outside_walk_hull.n", "n", 1, lambda v: prob_origin_outside_walk_hull(v, 2)),
    ("prob_origin_outside_walk_hull.d", "d", 1, lambda v: prob_origin_outside_walk_hull(5, v)),
    ("walk_ev_intrinsic.n", "n", 1, lambda v: walk_ev_intrinsic(v, 1, 1.5, 1.0)),
    ("walk_ev_intrinsic.j", "j", 1, lambda v: walk_ev_intrinsic(100, v, 1.5, 1.0)),
    ("StableSpec.d", "d", 1, lambda v: StableSpec(d=v)),
    ("EstimateResult.trials", "trials", 1, lambda v: EstimateResult(1.0, 0.0, trials=v)),
    ("sample_walk_path.n_steps", "n_steps", 1,
     lambda v: sample_walk_path(BROWNIAN2, v, 1.0, _rng())),
    ("sample_isotropic_vec.size", "size", 1, lambda v: sample_isotropic_vec(BROWNIAN2, _rng(), v)),
    ("zonotope_intrinsic_volume.j", "j", 1, lambda v: zonotope_intrinsic_volume(np.eye(2), v)),
    ("projection_intrinsic_estimate.j", "j", 1,
     lambda v: projection_intrinsic_estimate(CUBE, v, 4, _rng())),
    ("projection_intrinsic_estimate.samples", "samples", 2,
     lambda v: projection_intrinsic_estimate(CUBE, 1, v, _rng())),
    ("ExperimentConfig.trials", "trials", 100, lambda v: ExperimentConfig(BROWNIAN2, trials=v)),
    ("ExperimentConfig.n_steps", "n_steps", 1, lambda v: _config(n_steps=v)),
    ("ExperimentConfig.j_orders", "j_orders entry", 1, lambda v: _config(j_orders=(v,))),
    ("ExperimentConfig.hill_k", "hill_k", 1, lambda v: _config(hill_k=v)),
    ("ExperimentConfig.master_seed", "master_seed", 0, lambda v: _config(master_seed=v)),
    ("trial_rng.master_seed", "master_seed", 0, lambda v: trial_rng(v, 0, 0)),
    ("trial_rng.stream", "stream", 0, lambda v: trial_rng(0, v, 0)),
    ("trial_rng.trial", "trial", 0, lambda v: trial_rng(0, 0, v)),
    ("run_gram_experiment.d", "d", 1, lambda v: run_gram_experiment(v, 1, trials=100)),
    ("run_gram_experiment.j", "j", 1, lambda v: run_gram_experiment(2, v, trials=100)),
    ("run_gram_experiment.trials", "trials", 2, lambda v: run_gram_experiment(2, 1, trials=v)),
    ("hill_tail_index.k", "k", 1, lambda v: hill_tail_index(PARETO, v)),
    ("estimate_mean_exit_time.trials", "trials", 2,
     lambda v: estimate_mean_exit_time(BROWNIAN2, trials=v, dt=0.05)),
    ("renewal_ratio_experiment.trials", "trials", 2,
     lambda v: renewal_ratio_experiment(BROWNIAN2, [1.0], trials=v, dt=0.05, et1_trials=2)),
    ("scaled_hull_convergence.trials", "trials", 10,
     lambda v: scaled_hull_convergence(HEAVY, 10.0, trials=v, n_steps_limit=10)),
    ("exit_value_tail_experiment.trials", "trials", 10,
     lambda v: exit_value_tail_experiment(HEAVY, trials=v)),
    ("vp_ball_mixed.quad_points", "quad_points", 8,
     lambda v: vp_ball_mixed(Ball(1.0), 1.0, 2, quad_points=v)),
    ("verify_lp_brownian.trials", "trials", 2,
     lambda v: verify_lp_brownian(1.0, n_steps=10, trials=v, quad_points=8)),
    ("verify_lp_brownian.quad_points", "quad_points", 1,
     lambda v: verify_lp_brownian(1.0, n_steps=10, trials=2, quad_points=v)),
] + [
    (f"verify_lp_stable_consistency.{name}", name, lo,
     lambda v, name=name: verify_lp_stable_consistency(1.5, **{**LP_STABLE, name: v}))
    for name, lo in (("trials", 2), ("grid_n", 1), ("sup_paths", 1), ("quad_points", 1))
]
IDS = [e[0] for e in ENTRIES]


@pytest.mark.parametrize("entry", ENTRIES, ids=IDS)
def test_non_integers_bools_and_values_below_the_floor_are_refused(entry):
    key, name, lo, call = entry
    error = ConfigError if key.startswith("ExperimentConfig.") else ParameterError
    # a fraction, an integral float and a bool, none below the floor
    for value in (lo + 0.5, float(lo + 1), True):
        got = re.escape(repr(value))
        with pytest.raises(error, match=rf"^{name} must be an integer >= \d+, got {got}$"):
            call(value)
    # below the floor the count rule or a later range check refuses it
    with pytest.raises(error, match=rf"^{name} must "):
        call(lo - 1)


@pytest.mark.parametrize("entry", ENTRIES, ids=IDS)
def test_the_floor_is_accepted_as_a_numpy_integer(entry):
    _, _, lo, call = entry
    call(np.int64(lo))


def test_numpy_integers_are_stored_as_python_ints():
    assert type(StableSpec(d=np.int64(3)).d) is int
    cfg = ExperimentConfig(
        BROWNIAN2, trials=np.int64(150), n_steps=np.int32(5),
        j_orders=(np.int64(2),), hill_k=np.uint8(3),
    )
    assert (cfg.trials, cfg.n_steps, cfg.j_orders, cfg.hill_k) == (150, 5, (2,), 3)
    assert all(type(v) is int for v in (cfg.trials, cfg.n_steps, *cfg.j_orders, cfg.hill_k))


class TestCountRule:
    def test_integers_at_or_above_the_floor_come_back_as_int(self):
        for value in (3, np.int64(3), np.int32(3), np.uint16(3)):
            got = errors._count("n", value, 3)
            assert got == 3 and type(got) is int

    @pytest.mark.parametrize(
        "value",
        [True, False, np.bool_(True), 3.0, 3.5, np.float64(3.0), "3", None, 2, np.int64(2)],
        ids=[
            "True", "False", "np.bool_", "float", "fraction", "np.float64", "str", "None",
            "below", "np.int64-below",
        ],
    )
    def test_everything_else_is_refused_with_the_name_and_the_value(self, value):
        want = re.escape(f"n must be an integer >= 3, got {value!r}")
        with pytest.raises(ParameterError, match=want):
            errors._count("n", value, 3)

    def test_default_floor_and_error_type(self):
        assert errors._count("n", 1) == 1
        with pytest.raises(ParameterError):
            errors._count("n", 0)
        with pytest.raises(ConfigError, match="trials must be an integer >= 100, got 99"):
            errors._count("trials", 99, 100, ConfigError)

    def test_zero_floor(self):
        assert errors._count("d", 0, 0) == 0
        with pytest.raises(ParameterError):
            errors._count("d", -1, 0)
