"""Experiment runners: statistical agreement with closed forms at small
scale, exact reproducibility on rerun, and the estimator
plumbing (Hill, KS)."""

import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from levyhull import (
    ConfigError,
    EstimateResult,
    LevyHullError,
    ParameterError,
    StableSpec,
    ball_intrinsic_volume,
    boundary_distances,
    expected_faces_at_origin,
    geom_eps,
    hull2d,
    hull3d,
    intrinsic_volumes_2d,
    intrinsic_volumes_3d,
    prob_origin_outside_walk_hull,
    sample_walk_path,
    stream_id,
    trial_rng,
    walk_ev_intrinsic,
)
from levyhull import mc_engine
from levyhull.mc_engine import (
    ExperimentConfig,
    _facets_at,
    _ordered_map,
    _processes,
    hill_tail_index,
    hull_of,
    ks_two_sample,
    run_boundary_origin_experiment,
    run_faces_experiment,
    run_gram_experiment,
    run_interior_endpoint_experiment,
    run_intrinsic_volume_experiment,
    run_tail_index_experiment,
    trial_values,
    walk_hull_values,
)

BROWNIAN2 = StableSpec(flavor="brownian", c=0.5, d=2)
BROWNIAN3 = StableSpec(flavor="brownian", c=0.5, d=3)
STABLE2 = StableSpec(alpha=1.5, c=1.0, d=2)


def _cfg(spec=BROWNIAN2, **kw):
    kw.setdefault("n_steps", 1000)
    kw.setdefault("trials", 200)
    return ExperimentConfig(spec, **kw)


CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _cpus(n):
    return pytest.mark.skipif(CPUS < n, reason=f"needs {n} usable CPUs, the host has {CPUS}")


def _in_processes(n, fn, *args):
    """fn(*args) inside a run of n processes, and the run's process count.
    The workers end inside the run, so only this process returns."""
    with _processes(n) as team:
        got = fn(*args)
    return got, team.processes


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestExperimentConfig:
    def test_default_orders_span_dimension(self):
        assert _cfg().orders() == (1, 2)
        assert _cfg(spec=BROWNIAN3).orders() == (1, 2, 3)
        assert _cfg(j_orders=(2,)).orders() == (2,)

    def test_validation(self):
        with pytest.raises(ConfigError):
            _cfg(trials=99)
        with pytest.raises(ConfigError):
            _cfg(n_steps=0)
        with pytest.raises(ConfigError):
            _cfg(j_orders=(3,))  # d = 2
        with pytest.raises(ConfigError):
            _cfg(horizon=0.0)
        with pytest.raises(ConfigError):
            _cfg(hill_k=0)
        with pytest.raises(ConfigError):
            ExperimentConfig("not a spec", trials=100)


class TestIntrinsicVolumeExperiment:
    def test_matches_exact_finite_n_mean(self):
        # at n = 100 the exact expectation of V_1 for the embedded walk is
        # available, so no bias allowance is needed at all
        cfg = _cfg(
            n_steps=100, trials=2000, master_seed=11,
            j_orders=(1,),
        )
        r = run_intrinsic_volume_experiment(cfg)[0]
        vk1 = ball_intrinsic_volume(2, 1, 2.0**-0.5)
        exact = walk_ev_intrinsic(100, 1, 2.0, vk1)
        assert abs(r.mean - exact) < 4.0 * r.stderr

    def test_brownian_2d_near_limit_targets(self):
        cfg = _cfg(n_steps=2000, trials=300, master_seed=5)
        r1, r2 = run_intrinsic_volume_experiment(cfg)
        assert r1.target.value == pytest.approx(math.sqrt(2.0 * math.pi), rel=1e-12)
        assert r2.target.value == pytest.approx(math.pi / 2.0, rel=1e-12)
        for r in (r1, r2):
            assert abs(r.mean - r.target.value) < max(
                4.0 * r.stderr, 0.05 * r.target.value
            )

    def test_brownian_3d_small_scale(self):
        cfg = _cfg(
            spec=BROWNIAN3, n_steps=1000, trials=150,
            master_seed=3,
        )
        rs = run_intrinsic_volume_experiment(cfg)
        assert len(rs) == 3
        # inner-hull bias grows with j (measured about -2%, -6%, -11% at
        # n = 1000), so the allowance does too
        for r, band in zip(rs, (0.06, 0.10, 0.16)):
            assert abs(r.mean - r.target.value) < max(
                5.0 * r.stderr, band * r.target.value
            )
            assert r.mean < r.target.value + 5.0 * r.stderr  # one-sided bias

    def test_stable_walk_small_scale(self):
        cfg = _cfg(
            spec=STABLE2, n_steps=2000, trials=400,
            master_seed=9, j_orders=(1,),
        )
        r = run_intrinsic_volume_experiment(cfg)[0]
        assert abs(r.mean - r.target.value) < max(
            5.0 * r.stderr, 0.10 * r.target.value
        )

    def test_horizon_scaling_exact_for_shared_seed(self):
        base = _cfg(trials=150, master_seed=5, j_orders=(1,))
        quad = _cfg(
            trials=150, master_seed=5, j_orders=(1,),
            horizon=4.0,
        )
        r1 = run_intrinsic_volume_experiment(base)[0]
        r4 = run_intrinsic_volume_experiment(quad)[0]
        # same seed means the same standardized paths, so the ratio is the
        # scaling law exactly, not just statistically
        assert r4.mean == pytest.approx(2.0 * r1.mean, rel=1e-12)
        assert r4.target.value == pytest.approx(2.0 * r1.target.value, rel=1e-12)

    def test_monotone_in_steps_within_noise(self):
        means = []
        errs = []
        for n in (100, 1000):
            cfg = _cfg(
                n_steps=n, trials=400, master_seed=21,
                j_orders=(1,),
            )
            r = run_intrinsic_volume_experiment(cfg)[0]
            means.append(r.mean)
            errs.append(r.stderr)
        assert means[1] > means[0] - 3.0 * math.hypot(*errs)

    @_cpus(2)
    def test_deterministic_across_threads(self):
        # serial, and split across two processes: the same bits
        cfg = _cfg(trials=120, master_seed=8)
        a = run_intrinsic_volume_experiment(cfg)
        b, processes = _in_processes(2, run_intrinsic_volume_experiment, cfg)
        assert processes == 2
        for ra, rb in zip(a, b):
            assert ra.mean == rb.mean and ra.stderr == rb.stderr

    def test_rejects_bad_specs(self):
        cpp = StableSpec(flavor="cpp", d=2, jump_rate=1.0, tail_alpha=1.5)
        with pytest.raises(ConfigError):
            run_intrinsic_volume_experiment(_cfg(spec=cpp))
        d1 = StableSpec(flavor="brownian", c=0.5, d=1)
        with pytest.raises(ConfigError):
            run_intrinsic_volume_experiment(_cfg(spec=d1))


class TestGramExperiment:
    def test_d2_j1_is_chi_mean(self):
        r = run_gram_experiment(2, 1, trials=100_000, seed=3)
        assert r.target.value == pytest.approx(math.sqrt(math.pi / 2.0), rel=1e-12)
        assert abs(r.z_score) < 5.0

    def test_d2_j2_target_is_one(self):
        r = run_gram_experiment(2, 2, trials=100_000, seed=3)
        assert r.target.value == pytest.approx(1.0, rel=1e-12)
        assert abs(r.z_score) < 5.0

    def test_higher_dimensions(self):
        for d, j in ((4, 2), (6, 3)):
            r = run_gram_experiment(d, j, trials=40_000, seed=7)
            assert abs(r.z_score) < 5.0

    @_cpus(2)
    def test_deterministic_across_threads(self):
        # serial, and its four 8192-trial blocks split across two processes
        a = run_gram_experiment(3, 2, trials=30_000, seed=1)
        b, processes = _in_processes(2, run_gram_experiment, 3, 2, 30_000, 1)
        assert processes == 2
        assert a.mean == b.mean and a.stderr == b.stderr

    def test_validation(self):
        with pytest.raises(ParameterError):
            run_gram_experiment(7, 1, trials=100)
        with pytest.raises(ParameterError):
            run_gram_experiment(2, 3, trials=100)
        with pytest.raises(ParameterError):
            run_gram_experiment(2, 0, trials=100)


class TestFacetsAt:
    """The vertex rule: facets that hold x as a vertex, by exact row match."""

    def test_polygon_and_segment_in_the_plane(self):
        square = hull2d([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [0.5, 0.5]])
        assert _facets_at(square, np.zeros(2)) == 2
        assert _facets_at(square, np.array([0.5, 0.5])) == 0
        assert _facets_at(square, np.array([0.5, 0.0])) == 0  # on an edge, not a vertex
        segment = hull2d([[0.0, 0.0], [1.0, 2.0], [0.5, 1.0]])
        assert _facets_at(segment, np.zeros(2)) == 2
        assert _facets_at(segment, np.array([0.5, 1.0])) == 0
        assert _facets_at(hull2d([[0.0, 0.0]]), np.zeros(2)) == 0

    def test_hulls_in_space(self):
        corners = [[x, y, z] for x in (0.0, 1.0) for y in (0.0, 1.0) for z in (0.0, 1.0)]
        cube = hull3d(corners)
        at_corner = [_facets_at(cube, np.array(c)) for c in corners]
        assert all(n >= 3 for n in at_corner) and sum(at_corner) == 3 * len(cube.facets)
        assert _facets_at(cube, np.full(3, 0.5)) == 0
        tetra = hull3d([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        assert _facets_at(tetra, np.zeros(3)) == 3
        flat = hull3d([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        assert flat.intrinsic_dim == 2 and _facets_at(flat, np.zeros(3)) == 2
        line = hull3d([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
        assert line.intrinsic_dim == 1 and _facets_at(line, np.zeros(3)) == 0


class TestBoundaryOriginExperiment:
    def test_markov_bound_holds(self):
        cfg = _cfg(n_steps=10, trials=20_000, master_seed=7)
        freq, bound = run_boundary_origin_experiment(cfg)
        assert freq.mean <= bound + 4.0 * freq.stderr
        assert 0.0 < freq.mean < 1.0

    def test_frequency_decreases_with_steps(self):
        out = []
        for n in (100, 1000):
            cfg = _cfg(n_steps=n, trials=3000, master_seed=13)
            out.append(run_boundary_origin_experiment(cfg)[0])
        gap = out[0].mean - out[1].mean
        assert gap > 3.0 * math.hypot(out[0].stderr, out[1].stderr)

    def test_dimension_guard(self):
        with pytest.raises(ConfigError):
            run_boundary_origin_experiment(
                _cfg(spec=BROWNIAN3)
            )


class TestInteriorEndpointExperiment:
    def test_single_step_is_never_interior(self):
        cfg = _cfg(n_steps=1, trials=150, master_seed=1)
        assert run_interior_endpoint_experiment(cfg).mean == 0.0

    def test_frequency_grows_with_steps(self):
        small = run_interior_endpoint_experiment(
            _cfg(n_steps=10, trials=800, master_seed=2)
        )
        large = run_interior_endpoint_experiment(
            _cfg(n_steps=2000, trials=400, master_seed=2)
        )
        assert large.mean > small.mean + 3.0 * math.hypot(small.stderr, large.stderr)
        assert large.mean > 0.8


class TestFacesExperiment:
    def test_2d_agrees_with_formula(self):
        cfg = _cfg(n_steps=10, trials=20_000, master_seed=2)
        r = run_faces_experiment(cfg)
        assert abs(r.z_score) < 4.0

    @pytest.mark.parametrize(
        "spec, n", [(BROWNIAN2, 1), (BROWNIAN2, 2), (BROWNIAN3, 1), (BROWNIAN3, 2), (BROWNIAN3, 3)]
    )
    def test_equals_formula_exactly_while_n_at_most_d(self, spec, n):
        # the origin is a vertex of every hull of n <= d steps in general
        # position, so each trial gives the same count as the formula
        r = run_faces_experiment(_cfg(spec=spec, n_steps=n, trials=100, master_seed=3))
        assert r.stderr == 0.0
        assert r.mean == r.target.value == expected_faces_at_origin(n, spec.d)

    def test_3d_runs_and_attaches_formula(self):
        cfg = _cfg(
            spec=BROWNIAN3, n_steps=50, trials=400, master_seed=4
        )
        r = run_faces_experiment(cfg)
        assert r.target is not None and r.target.params["d"] == 3
        assert r.mean > 0.0 and math.isfinite(r.stderr)


HEAVY_TAIL_ALPHAS = [0.3, 0.7]


class TestOriginOnBoundaryAtHeavyTails:
    """Distribution-free targets at n = 1000 in the plane: 300 walks, |z| <= 4."""

    @pytest.mark.parametrize("alpha", HEAVY_TAIL_ALPHAS)
    def test_faces_at_origin(self, alpha):
        cfg = _cfg(spec=StableSpec(alpha=alpha, d=2), trials=300, master_seed=77)
        assert abs(run_faces_experiment(cfg).z_score) <= 4.0

    @pytest.mark.parametrize("alpha", HEAVY_TAIL_ALPHAS)
    def test_boundary_frequency_is_the_absorption_probability(self, alpha):
        cfg = _cfg(spec=StableSpec(alpha=alpha, d=2), trials=300, master_seed=77)
        freq, _ = run_boundary_origin_experiment(cfg)
        exact = float(prob_origin_outside_walk_hull(1000, 2))
        assert abs(freq.mean - exact) <= 4.0 * freq.stderr


class TestHillTailIndex:
    def test_pareto_recovery(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(size=100_000) ** (-1.0 / 1.5)
        assert hill_tail_index(x, 1000) == pytest.approx(1.5, abs=0.15)

    def test_pareto_plateau_vs_exponential_drift(self):
        rng = np.random.default_rng(42)
        pareto = rng.uniform(size=100_000) ** (-1.0 / 1.5)
        expo = rng.exponential(size=100_000)
        p_lo, p_hi = hill_tail_index(pareto, 300), hill_tail_index(pareto, 10_000)
        e_lo, e_hi = hill_tail_index(expo, 300), hill_tail_index(expo, 10_000)
        assert abs(p_hi / p_lo - 1.0) < 0.2
        assert abs(e_hi / e_lo - 1.0) > 0.4  # no stable tail index

    def test_default_k(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(size=10_000) ** (-1.0 / 2.0)
        est = hill_tail_index(x)
        assert est == pytest.approx(hill_tail_index(x, int(10_000**0.6)))

    def test_validation(self):
        with pytest.raises(ParameterError):
            hill_tail_index([1.0, 2.0])
        with pytest.raises(ParameterError):
            hill_tail_index([1.0, -2.0, 3.0, 4.0])
        with pytest.raises(ParameterError):
            hill_tail_index([1.0, 2.0, 3.0], k=3)
        with pytest.raises(ParameterError):
            hill_tail_index([1.0, 2.0, 3.0, np.inf])


class TestTailIndexExperiment:
    def test_stable_hull_v1_index_near_alpha(self):
        cfg = _cfg(
            spec=STABLE2, n_steps=500, trials=2000,
            master_seed=17, j_orders=(1,),
        )
        r = run_tail_index_experiment(cfg)
        assert 1.0 < r.mean < 2.0
        assert r.stderr > 0.0 and r.target is None


class TestKsTwoSample:
    def test_identical_samples(self):
        x = np.arange(50.0)
        stat, p = ks_two_sample(x, x)
        assert stat == 0.0 and p == 1.0

    def test_disjoint_supports(self):
        stat, p = ks_two_sample(np.arange(10.0), np.arange(10.0) + 100.0)
        assert stat == 1.0 and p < 0.01

    def test_same_distribution_large_p(self):
        rng = np.random.default_rng(5)
        stat, p = ks_two_sample(
            rng.standard_normal(10_000), rng.standard_normal(10_000)
        )
        assert p > 0.01

    def test_shifted_distribution_rejected(self):
        rng = np.random.default_rng(6)
        _, p = ks_two_sample(
            rng.standard_normal(2000), rng.standard_normal(2000) + 0.5
        )
        assert p < 1e-6

    def test_matches_reference_implementation(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        rng = np.random.default_rng(8)
        for _ in range(3):
            a = rng.standard_normal(500)
            b = rng.standard_normal(700) * 1.3
            stat, p = ks_two_sample(a, b)
            ref = scipy_stats.ks_2samp(a, b, method="asymp")
            assert stat == pytest.approx(ref.statistic, abs=1e-12)
            assert p == pytest.approx(ref.pvalue, rel=0.1, abs=5e-3)

    def test_validation(self):
        with pytest.raises(ParameterError):
            ks_two_sample([], [1.0])


class TestReproducibility:
    def test_same_config_bitwise_identical(self):
        cfg = _cfg(n_steps=200, trials=300, master_seed=77)
        a = run_boundary_origin_experiment(cfg)[0]
        b = run_boundary_origin_experiment(cfg)[0]
        assert a.mean == b.mean and a.stderr == b.stderr


# -- stream pins -------------------------------------------------------
#
# Each runner is recomputed from a loop written out here: trial t draws
# from trial_rng(seed, stream_id(<the runner's stream name>), t), and the
# values are reduced in trial-index order. Equality is exact, so a change
# of stream name, trial order or draw order shows at once.

STABLE3 = StableSpec(alpha=1.5, c=1.0, d=3)
PIN_SEED = 13
PIN_TRIALS = 100


def _hand_loop(name, fn, trials=PIN_TRIALS, seed=PIN_SEED):
    stream = stream_id(name)
    return [fn(trial_rng(seed, stream, t)) for t in range(trials)]


def _walk_hull(spec, n_steps, rng, horizon=1.0):
    path = sample_walk_path(spec, n_steps, horizon, rng)
    build = hull2d if spec.d == 2 else hull3d
    return build(path.points), path


def _intrinsic(poly):
    iv = intrinsic_volumes_2d(poly) if poly.dim == 2 else intrinsic_volumes_3d(poly)
    return [iv[j] for j in range(1, poly.dim + 1)]


def _triple(r):
    return (r.mean, r.stderr, r.trials)


def _summary(vals):
    return _triple(EstimateResult.from_samples(np.asarray(vals)))


def _pin_cfg(spec, n_steps, **kw):
    return ExperimentConfig(
        spec, n_steps=n_steps, trials=PIN_TRIALS, master_seed=PIN_SEED, **kw
    )


def _pin_intrinsic(spec):
    cfg = _pin_cfg(spec, 60, horizon=2.0)
    got = [_triple(r) for r in run_intrinsic_volume_experiment(cfg)]
    vals = np.array(
        _hand_loop(
            "intrinsic_volumes",
            lambda rng: _intrinsic(_walk_hull(spec, 60, rng, 2.0)[0]),
        )
    )
    return got, [_summary(vals[:, k]) for k in range(spec.d)]


def _pin_boundary():
    r, _ = run_boundary_origin_experiment(_pin_cfg(BROWNIAN2, 40))

    def one(rng):
        poly, _ = _walk_hull(BROWNIAN2, 40, rng)
        tol = geom_eps(poly.vertices)
        return 1.0 if boundary_distances(poly, np.zeros(2)).min() <= tol else 0.0

    return _triple(r), _summary(_hand_loop("boundary_origin", one))


def _pin_interior(spec):
    r = run_interior_endpoint_experiment(_pin_cfg(spec, 50))

    def one(rng):
        poly, path = _walk_hull(spec, 50, rng)
        if poly.intrinsic_dim < spec.d:
            return 0.0
        tol = geom_eps(poly.vertices)
        return 1.0 if boundary_distances(poly, path.points[-1]).min() > tol else 0.0

    return _triple(r), _summary(_hand_loop("interior_endpoint", one))


def _pin_faces(spec):
    r = run_faces_experiment(_pin_cfg(spec, 30))

    def one(rng):
        poly, _ = _walk_hull(spec, 30, rng)
        tol = geom_eps(poly.vertices)
        return float((boundary_distances(poly, np.zeros(spec.d)) <= tol).sum())

    return _triple(r), _summary(_hand_loop("faces_count", one))


def _pin_tail(spec, j):
    r = run_tail_index_experiment(_pin_cfg(spec, 60, j_orders=(j,), hill_k=20))
    vals = _hand_loop(
        "tail_index", lambda rng: _intrinsic(_walk_hull(spec, 60, rng)[0])[j - 1]
    )
    return r.mean, hill_tail_index(vals, 20)


STREAM_PINS = {
    "intrinsic_volumes-d2": lambda: _pin_intrinsic(BROWNIAN2),
    "intrinsic_volumes-d3": lambda: _pin_intrinsic(STABLE3),
    "boundary_origin": _pin_boundary,
    "interior_endpoint-d2": lambda: _pin_interior(STABLE2),
    "interior_endpoint-d3": lambda: _pin_interior(BROWNIAN3),
    "faces_count-d2": lambda: _pin_faces(STABLE2),
    "faces_count-d3": lambda: _pin_faces(BROWNIAN3),
    "tail_index-d2": lambda: _pin_tail(STABLE2, 1),
    "tail_index-d3": lambda: _pin_tail(STABLE3, 2),
}


class TestStreamPins:
    @pytest.mark.parametrize("pin", STREAM_PINS.values(), ids=STREAM_PINS.keys())
    def test_runner_equals_hand_written_trial_loop(self, pin):
        got, expected = pin()
        assert got == expected


def _by_hand_3d(poly):
    """(V_1, V_2, V_3) of a point, segment or flat polygon in R^3, by the
    formulas the experiment runner once applied itself."""
    v = poly.vertices
    if poly.intrinsic_dim == 0:
        return (0.0, 0.0, 0.0)
    if poly.intrinsic_dim == 1:
        return (float(np.linalg.norm(v[-1] - v[0])), 0.0, 0.0)
    nxt = np.roll(v, -1, axis=0)
    perim = float(np.linalg.norm(nxt - v, axis=1).sum())
    area = 0.5 * float(np.linalg.norm(np.cross(v, nxt).sum(axis=0)))
    return (perim / 2.0, area, 0.0)


class TestDegenerateHullPins:
    # One step always gives a segment in R^3, two steps a triangle.
    @pytest.mark.parametrize("n_steps, shape", [(1, 1), (2, 2)], ids=["segment", "triangle"])
    def test_runner_equals_by_hand_formulas(self, n_steps, shape):
        got = [_triple(r) for r in run_intrinsic_volume_experiment(_pin_cfg(STABLE3, n_steps))]
        polys = _hand_loop("intrinsic_volumes", lambda rng: _walk_hull(STABLE3, n_steps, rng)[0])
        assert {p.intrinsic_dim for p in polys} == {shape}
        vals = np.array([_by_hand_3d(p) for p in polys])
        assert got == [_summary(vals[:, k]) for k in range(3)]


class TestTrialLoop:
    def test_trial_values_hands_fn_the_trial_generators_in_order(self):
        states = trial_values(7, "faces_count", 5, lambda rng: rng.bit_generator.state)
        stream = stream_id("faces_count")
        assert states == [trial_rng(7, stream, t).bit_generator.state for t in range(5)]

    def test_walk_hull_values_sees_each_trial_walk_and_its_hull(self):
        got = walk_hull_values(
            BROWNIAN3, 30, 2.0, 4, 7, "faces_count",
            lambda poly, path: (poly.vertices.tolist(), path.points.tolist()),
        )
        stream = stream_id("faces_count")
        for t, (verts, points) in enumerate(got):
            path = sample_walk_path(BROWNIAN3, 30, 2.0, trial_rng(7, stream, t))
            assert points == path.points.tolist()
            assert verts == hull3d(path.points).vertices.tolist()

    def test_hull_of_picks_the_hull_by_dimension(self):
        pts = np.random.default_rng(0).standard_normal((50, 3))
        assert hull_of(pts[:, :2]).vertices.tolist() == hull2d(pts[:, :2]).vertices.tolist()
        assert hull_of(pts).vertices.tolist() == hull3d(pts).vertices.tolist()


def _value(i):
    return i, float(np.sqrt(i)), [i] * (i % 3)


class TestOrderedMap:
    """``_ordered_map`` inside ``_processes(n)``: n contiguous blocks, one
    per process, swapped so every process holds the serial list."""

    @pytest.mark.parametrize("n", [pytest.param(n, marks=_cpus(n)) for n in (2, 3)])
    @pytest.mark.parametrize("size", [0, 1, 2, 7, 50])
    def test_returns_the_serial_list(self, n, size):
        got, processes = _in_processes(n, _ordered_map, _value, range(size))
        assert got == [_value(i) for i in range(size)]
        assert processes == n
        _assert_no_child_left()

    @_cpus(2)
    def test_each_process_computes_one_contiguous_block(self):
        got, _ = _in_processes(2, _ordered_map, lambda i: os.getpid(), range(9))
        assert got[:4] == [os.getpid()] * 4
        assert len(set(got[4:])) == 1 and got[4] != os.getpid()

    @_cpus(2)
    def test_trial_values_under_two_processes(self):
        fn = lambda rng: rng.standard_normal(3).tolist()  # noqa: E731
        got, _ = _in_processes(2, trial_values, 7, "faces_count", 11, fn)
        assert got == trial_values(7, "faces_count", 11, fn)

    @_cpus(2)
    @pytest.mark.parametrize("bad,first", [((6, 8), 6), ((3, 7), 3)], ids=["worker", "both"])
    def test_every_process_raises_the_lowest_failing_index(self, tmp_path, bad, first):
        # ten items: the parent computes 0..4, the worker 5..9
        def fn(i):
            if i in bad:
                raise ValueError(f"trial {i}")
            return i

        with _processes(2):
            try:
                _ordered_map(fn, range(10))
            except ValueError as exc:
                (tmp_path / f"{os.getpid()}.txt").write_text(str(exc))
        raised = sorted(p.read_text() for p in tmp_path.iterdir())
        assert raised == [f"trial {first}"] * 2
        with pytest.raises(ValueError, match=f"^trial {first}$"):
            _in_processes(2, _ordered_map, fn, range(10))
        _assert_no_child_left()

    @_cpus(2)
    def test_nested_call_runs_serially(self):
        def outer(i):
            return _ordered_map(lambda j: (i, j, os.getpid()), range(3))

        got, _ = _in_processes(2, _ordered_map, outer, range(4))
        assert [[(i, j) for i, j, _ in row] for row in got] == [
            [(i, j) for j in range(3)] for i in range(4)
        ]
        assert all(len({pid for _, _, pid in row}) == 1 for row in got)

    def test_one_usable_cpu_forks_nothing(self, monkeypatch):
        def fork():
            raise AssertionError("forked")

        monkeypatch.setattr(os, "fork", fork)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert _in_processes(8, _ordered_map, _value, range(5)) == (
            [_value(i) for i in range(5)], 1
        )
        monkeypatch.delattr(os, "sched_getaffinity")  # not on every system: serial
        assert _in_processes(8, _ordered_map, _value, range(5))[1] == 1

    def test_a_run_without_loops_forks_nothing(self, monkeypatch):
        def fork():
            raise AssertionError("forked")

        monkeypatch.setattr(os, "fork", fork)
        assert _in_processes(2, sum, [1, 2]) == (3, 1)
        assert mc_engine._team is None

    @_cpus(2)
    def test_a_dead_worker_makes_the_parent_raise(self):
        parent = os.getpid()

        def fn(i):
            if os.getpid() != parent:
                os._exit(3)
            return i

        with pytest.raises(LevyHullError, match="a worker process of this run is gone"):
            _in_processes(2, _ordered_map, fn, range(4))
        _assert_no_child_left()

    @_cpus(2)
    def test_the_worker_of_a_dead_parent_leaves_at_its_next_swap(self, tmp_path):
        # the parent ends without reaping its worker; the worker's next swap
        # finds the pipes closed and raises, and so it exits
        marker = tmp_path / "worker"
        script = f"""
import os, time
from levyhull.errors import LevyHullError
from levyhull.mc_engine import _ordered_map, _processes
parent = os.getpid()
with _processes(2) as team:
    _ordered_map(abs, range(2))
    if not team.rank:
        os._exit(0)
    while os.getppid() == parent:
        time.sleep(0.01)
    try:
        _ordered_map(abs, range(2))
    except LevyHullError as exc:
        with open({str(marker)!r} + ".part", "w") as fh:
            fh.write(str(exc))
        os.replace({str(marker)!r} + ".part", {str(marker)!r})
        raise
"""
        src = Path(mc_engine.__file__).resolve().parents[1]
        subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONPATH": str(src)},
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            timeout=60,
            check=True,
        )
        deadline = time.monotonic() + 30
        while not marker.exists() and time.monotonic() < deadline:
            time.sleep(0.05)
        assert "the parent process of this run is gone" in marker.read_text()

    @_cpus(2)
    def test_a_worker_holds_no_end_of_an_earlier_workers_connection(self, tmp_path):
        # three processes, also on a 2-CPU host. Once the parent is gone,
        # worker 2 stays alive, holding every descriptor it has, until
        # worker 1 has left; if worker 2 held the parent's end of worker 1's
        # connection, worker 1 would not see the parent go until worker 2
        # gave up waiting
        script = f"""
import os, time
os.sched_getaffinity = lambda pid: {{0, 1, 2}}
from levyhull.errors import LevyHullError
from levyhull.mc_engine import _ordered_map, _processes
one = {str(tmp_path / "1")!r}
parent = os.getpid()
with _processes(3) as team:
    _ordered_map(abs, range(3))
    if not team.rank:
        os._exit(0)
    while os.getppid() == parent:
        time.sleep(0.01)
    if team.rank == 2:
        deadline = time.monotonic() + 20
        while not os.path.exists(one) and time.monotonic() < deadline:
            time.sleep(0.01)
        with open(one + ".seen.part", "w") as fh:
            fh.write(str(os.path.exists(one)))
        os.replace(one + ".seen.part", one + ".seen")
        os._exit(0)
    try:
        _ordered_map(abs, range(3))
    except LevyHullError as exc:
        with open(one + ".part", "w") as fh:
            fh.write(str(exc))
        os.replace(one + ".part", one)
        raise
"""
        src = Path(mc_engine.__file__).resolve().parents[1]
        subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONPATH": str(src)},
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            timeout=60,
            check=True,
        )
        seen = tmp_path / "1.seen"
        deadline = time.monotonic() + 40
        while not seen.exists() and time.monotonic() < deadline:
            time.sleep(0.05)
        assert seen.read_text() == "True"  # worker 1 left while worker 2 held on
        assert "the parent process of this run is gone" in (tmp_path / "1").read_text()
