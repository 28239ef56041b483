"""One rule for real arguments: every public entry point that range-checks
a real argument (a stability index, a scale, a radius, a moment order, a
horizon, a time step) accepts a Python or numpy real that is finite and
inside the argument's interval, and refuses NaN, an infinity, a bool, a
string, or a value just past a bound with an error whose message starts
with the argument's name."""

import math
import re
from fractions import Fraction

import numpy as np
import pytest

from levyhull import (
    ConfigError,
    DomainError,
    ExitRecord,
    ExperimentConfig,
    ParameterError,
    StableSpec,
    ball_intrinsic_volume,
    dirichlet_constant,
    errors,
    estimate_mean_exit_time,
    ev_intrinsic_isotropic,
    ev_intrinsic_stable,
    ev_sup_brownian_pow,
    lattice_sum_partial,
    renewal_ratio_experiment,
    sample_cpp_path,
    sample_positive_stable,
    sample_stable_1d,
    sample_walk_path,
    scaled_hull_convergence,
    verify_lp_brownian,
    verify_lp_stable_consistency,
    walk_ev_intrinsic,
)
from oracles import Ball, SupportFn, lp_sum_support, vp_ball_mixed

BROWNIAN2 = StableSpec(flavor="brownian", c=0.5, d=2)
HEAVY = StableSpec(d=2, flavor="cpp", tail_alpha=1.5, jump_rate=1.0)
UNIT = SupportFn(Ball(1.0))
LP_STABLE = dict(n_steps=10, trials=2, grid_n=10, sup_paths=2, quad_points=8)


def _rng():
    return np.random.default_rng(0)


def _cpp(**kw):
    return StableSpec(**{"d": 2, "flavor": "cpp", "tail_alpha": 1.5, "jump_rate": 1.0, **kw})


# (entry point.argument, argument name, error class, domain as _real's
# bounds, a value inside, call with the value); the other arguments are
# small and valid, so an accepted call runs quickly.
P, D = ParameterError, DomainError
ENTRIES = [
    ("ball_intrinsic_volume.r", "r", P, {"ge": 0}, 1.0,
     lambda v: ball_intrinsic_volume(2, 1, v)),
    ("ev_intrinsic_stable.alpha", "alpha", D, {"gt": 1, "le": 2}, 1.5,
     lambda v: ev_intrinsic_stable(v, 1, 1.0)),
    ("ev_intrinsic_stable.vj_zonoid", "vj_zonoid", P, {"ge": 0}, 1.0,
     lambda v: ev_intrinsic_stable(1.5, 1, v)),
    ("ev_intrinsic_isotropic.alpha", "alpha", D, {"gt": 1, "le": 2}, 1.5,
     lambda v: ev_intrinsic_isotropic(v, 1.0, 2, 1)),
    ("ev_intrinsic_isotropic.c", "c", P, {"gt": 0}, 1.0,
     lambda v: ev_intrinsic_isotropic(1.5, v, 2, 1)),
    ("dirichlet_constant.alpha", "alpha", D, {"gt": 0, "le": 2}, 1.5,
     lambda v: dirichlet_constant(v, 2)),
    ("lattice_sum_partial.alpha", "alpha", D, {"gt": 0, "le": 2}, 1.5,
     lambda v: lattice_sum_partial(v, 2, 100)),
    ("walk_ev_intrinsic.alpha", "alpha", D, {"gt": 1, "le": 2}, 1.5,
     lambda v: walk_ev_intrinsic(100, 1, v, 1.0)),
    ("walk_ev_intrinsic.vj_zonoid", "vj_zonoid", P, {"ge": 0}, 1.0,
     lambda v: walk_ev_intrinsic(100, 1, 1.5, v)),
    ("ev_sup_brownian_pow.p", "p", D, {"ge": 1}, 1.5, lambda v: ev_sup_brownian_pow(v)),
    ("StableSpec.alpha", "alpha", P, {"gt": 0, "le": 2}, 1.5, lambda v: StableSpec(alpha=v)),
    ("StableSpec.c", "c", P, {"gt": 1e-12}, 1.0, lambda v: StableSpec(c=v)),
    ("StableSpec.tail_alpha", "tail_alpha", P, {"gt": 0, "lt": 2}, 1.5,
     lambda v: _cpp(tail_alpha=v)),
    ("StableSpec.jump_rate", "jump_rate", P, {"ge": 0}, 1.0, lambda v: _cpp(jump_rate=v)),
    ("StableSpec.drift", "drift entry", P, {}, 0.5, lambda v: _cpp(drift=(v, 0.0))),
    ("sample_stable_1d.alpha", "alpha", P, {"gt": 0, "le": 2}, 1.5,
     lambda v: sample_stable_1d(v, 1.0, _rng(), 4)),
    ("sample_stable_1d.scale", "scale", P, {"gt": 0}, 1.0,
     lambda v: sample_stable_1d(1.5, v, _rng(), 4)),
    ("sample_positive_stable.beta", "beta", P, {"gt": 0, "lt": 1}, 0.5,
     lambda v: sample_positive_stable(v, _rng(), 4)),
    ("sample_walk_path.horizon", "horizon", P, {"gt": 0}, 1.0,
     lambda v: sample_walk_path(BROWNIAN2, 10, v, _rng())),
    ("sample_cpp_path.horizon", "horizon", P, {"gt": 0}, 1.0,
     lambda v: sample_cpp_path(HEAVY, v, _rng())),
    ("Ball.radius", "radius", P, {"ge": 0}, 1.0, lambda v: Ball(v)),
    ("lp_sum_support.p", "p", P, {"ge": 1}, 2.0, lambda v: lp_sum_support(UNIT, UNIT, v)),
    ("vp_ball_mixed.p", "p", P, {"ge": 1}, 2.0,
     lambda v: vp_ball_mixed(Ball(1.0), v, 2, quad_points=8)),
    ("verify_lp_brownian.p", "p", P, {"ge": 1}, 2.0,
     lambda v: verify_lp_brownian(v, n_steps=10, trials=2, quad_points=8)),
    ("verify_lp_stable_consistency.alpha", "alpha", D, {"gt": 1, "lt": 2}, 1.5,
     lambda v: verify_lp_stable_consistency(v, **LP_STABLE)),
    ("verify_lp_stable_consistency.p", "p", D, {"ge": 1, "lt": 1.5}, 1.2,
     lambda v: verify_lp_stable_consistency(1.5, p=v, **LP_STABLE)),
    ("verify_lp_stable_consistency.c", "c", P, {"gt": 1e-12}, 1.0,
     lambda v: verify_lp_stable_consistency(1.5, c=v, **LP_STABLE)),
    ("ExitRecord.horizon", "horizon", P, {"ge": 0}, 1.0,
     lambda v: ExitRecord(np.empty(0), np.empty((0, 2)), v)),
    ("estimate_mean_exit_time.horizon", "horizon", P, {"gt": 0}, 40.0,
     lambda v: estimate_mean_exit_time(BROWNIAN2, trials=2, horizon=v, dt=0.05)),
    ("estimate_mean_exit_time.dt", "dt", P, {"gt": 0}, 0.05,
     lambda v: estimate_mean_exit_time(BROWNIAN2, trials=2, dt=v)),
    ("renewal_ratio_experiment.t_values", "t_values entry", P, {"gt": 0}, 1.0,
     lambda v: renewal_ratio_experiment(BROWNIAN2, [v], trials=2, dt=0.05, et1_trials=2)),
    ("renewal_ratio_experiment.dt", "dt", P, {"gt": 0}, 0.05,
     lambda v: renewal_ratio_experiment(BROWNIAN2, [1.0], trials=2, dt=v, et1_trials=2)),
    ("scaled_hull_convergence.t_values", "t_values entry", P, {"ge": 10}, 20.0,
     lambda v: scaled_hull_convergence(HEAVY, [v], trials=10, n_steps_limit=10)),
    ("ExperimentConfig.horizon", "horizon", ConfigError, {"gt": 0}, 1.0,
     lambda v: ExperimentConfig(BROWNIAN2, trials=100, horizon=v)),
]
IDS = [e[0] for e in ENTRIES]


def _past_each_bound(domain):
    """The values just outside the interval: an open end itself, the
    neighbouring float beyond a closed end."""
    out = []
    for key, bound in domain.items():
        if key in ("gt", "lt"):
            out.append(bound)
        else:
            out.append(math.nextafter(bound, -math.inf if key == "ge" else math.inf))
    return out


@pytest.mark.parametrize("entry", ENTRIES, ids=IDS)
def test_non_finite_bools_strings_and_values_past_each_bound_are_refused(entry):
    _, name, error, domain, _, call = entry
    for value in (math.nan, math.inf, -math.inf, True, "1.5", *_past_each_bound(domain)):
        with pytest.raises(error, match=rf"^{name} must "):
            call(value)


@pytest.mark.parametrize("entry", ENTRIES, ids=IDS)
def test_closed_ends_and_a_numpy_float_inside_are_accepted(entry):
    _, _, _, domain, inside, call = entry
    for key in ("ge", "le"):
        if key in domain:
            call(domain[key])
    call(np.float64(inside))


def test_accepted_values_are_stored_as_python_floats():
    spec = StableSpec(alpha=np.float64(1.5), c=np.float32(0.5))
    assert type(spec.alpha) is float and type(spec.c) is float
    assert type(Ball(np.int64(2)).radius) is float
    cfg = ExperimentConfig(BROWNIAN2, trials=100, horizon=np.float64(2.0))
    assert type(cfg.horizon) is float and cfg.horizon == 2.0


class TestRealRule:
    def test_reals_inside_come_back_as_float(self):
        for value in (1.5, np.float64(1.5), np.float32(1.5), Fraction(3, 2)):
            got = errors._real("a", value, gt=1, le=2)
            assert got == 1.5 and type(got) is float
        for value in (2, np.int64(2), np.uint8(2)):
            got = errors._real("a", value, gt=1, le=2)
            assert got == 2.0 and type(got) is float

    @pytest.mark.parametrize(
        "value",
        [
            math.nan, math.inf, -math.inf, np.float64("nan"), np.float32("inf"),
            True, False, np.bool_(True), "1.5", None, 1.5 + 0j, 10**400,
        ],
        ids=[
            "nan", "inf", "-inf", "np.nan", "np.float32-inf", "True", "False",
            "np.bool_", "str", "None", "complex", "huge-int",
        ],
    )
    def test_everything_else_is_refused_with_the_name_and_the_value(self, value):
        want = re.escape(f"a must be a finite number, got {value!r}")
        with pytest.raises(ParameterError, match=f"^{want}$"):
            errors._real("a", value)

    @pytest.mark.parametrize(
        "bounds,text,outside",
        [
            ({"gt": 1, "le": 2}, "in (1, 2]", (1, 2.5)),
            ({"ge": 1, "lt": 2}, "in [1, 2)", (0.5, 2)),
            ({"ge": 0, "le": 1}, "in [0, 1]", (-0.5, 1.5)),
            ({"gt": 0, "lt": 1}, "in (0, 1)", (0, 1)),
            ({"gt": 0}, "> 0", (0, -1.0)),
            ({"ge": 10}, ">= 10", (9.5,)),
            ({"lt": 2}, "< 2", (2,)),
            ({"le": 2}, "<= 2", (2.5,)),
        ],
    )
    def test_the_message_writes_the_interval(self, bounds, text, outside):
        for value in outside:
            want = re.escape(f"a must be a finite number {text}, got {value!r}")
            with pytest.raises(ParameterError, match=f"^{want}$"):
                errors._real("a", value, **bounds)
        with pytest.raises(ParameterError, match=re.escape(f"number {text}, got nan")):
            errors._real("a", math.nan, **bounds)

    def test_bounds_are_exact(self):
        assert errors._real("a", 1e-12 * 1.0000001, gt=1e-12) > 1e-12
        with pytest.raises(ParameterError):
            errors._real("a", 1e-12, gt=1e-12)
        assert errors._real("a", 2.0, le=2) == 2.0
        with pytest.raises(ParameterError):
            errors._real("a", math.nextafter(2.0, 3.0), le=2)

    def test_error_type(self):
        with pytest.raises(DomainError, match=r"^alpha must be a finite number in \(1, 2\]"):
            errors._real("alpha", 1.0, gt=1, le=2, error=DomainError)
        with pytest.raises(ConfigError, match="^x must "):
            errors._real("x", math.inf, error=ConfigError)
