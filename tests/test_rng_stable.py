"""Samplers: distributional identities, path invariants, reproducibility."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levyhull import (
    ParameterError,
    PathSample,
    StableSpec,
    sample_cpp_path,
    sample_isotropic_vec,
    sample_positive_stable,
    sample_stable_1d,
    sample_walk_path,
    stream_id,
    trial_rng,
)
from levyhull.rng_stable import _restart, _trial_rngs


def _mean_band(values, target, sigmas=4.0):
    values = np.asarray(values, dtype=np.float64)
    se = values.std(ddof=1) / math.sqrt(len(values))
    assert abs(values.mean() - target) < sigmas * se + 1e-12, (
        f"mean {values.mean():.6f} vs target {target:.6f}, stderr {se:.2e}"
    )


class TestStable1d:
    @pytest.mark.parametrize("alpha,scale", [(2.0, 1.0), (1.5, 1.0), (1.3, 0.7), (1.0, 1.0)])
    def test_characteristic_function(self, alpha, scale):
        # E cos(s X) = exp(-(scale |s|)^alpha); cos is bounded so the plain
        # CLT band applies even where X has infinite variance.
        rng = np.random.default_rng(20240817)
        x = sample_stable_1d(alpha, scale, rng, size=200_000)
        for s in (0.4, 1.0, 2.3):
            _mean_band(np.cos(s * x), math.exp(-((scale * s) ** alpha)))

    def test_alpha_two_is_gaussian(self):
        rng = np.random.default_rng(7)
        x = sample_stable_1d(2.0, 1.0, rng, size=200_000)
        _mean_band(x, 0.0)
        _mean_band(x**2, 2.0)  # variance 2 scale^2
        _mean_band(x**4, 12.0)  # Gaussian fourth moment 3 sigma^4

    def test_symmetry(self):
        rng = np.random.default_rng(11)
        x = sample_stable_1d(1.5, 1.0, rng, size=200_000)
        _mean_band(np.sign(x), 0.0)

    def test_scalar_mode(self):
        rng = np.random.default_rng(0)
        v = sample_stable_1d(1.5, 1.0, rng)
        assert np.ndim(v) == 0

    def test_bad_parameters(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ParameterError):
            sample_stable_1d(2.5, 1.0, rng)
        with pytest.raises(ParameterError):
            sample_stable_1d(1.5, 0.0, rng)


class TestPositiveStable:
    @pytest.mark.parametrize("beta", [0.5, 0.75, 0.9])
    def test_laplace_transform(self, beta):
        rng = np.random.default_rng(314159)
        s = sample_positive_stable(beta, rng, size=200_000)
        assert np.all(s > 0.0)
        for lam in (0.3, 1.0, 3.0):
            _mean_band(np.exp(-lam * s), math.exp(-(lam**beta)))

    def test_domain(self):
        rng = np.random.default_rng(0)
        for beta in (0.0, 1.0, 1.5):
            with pytest.raises(ParameterError):
                sample_positive_stable(beta, rng)


class TestIsotropicVec:
    @pytest.mark.parametrize(
        "alpha,c,d", [(2.0, 0.5, 2), (2.0, 1.0, 3), (1.5, 0.5, 2), (1.2, 1.0, 3)]
    )
    def test_characteristic_function(self, alpha, c, d):
        spec = StableSpec(alpha=alpha, c=c, d=d)
        rng = np.random.default_rng(99)
        x = sample_isotropic_vec(spec, rng, size=200_000)
        assert x.shape == (200_000, d)
        us = [np.ones(d) / math.sqrt(d), np.eye(d)[0] * 1.7]
        for u in us:
            norm = np.linalg.norm(u)
            _mean_band(np.cos(x @ u), math.exp(-c * norm**alpha))

    def test_brownian_unit_time_is_standard_normal(self):
        # c = 1/2 makes X(1) ~ N(0, I).
        spec = StableSpec(flavor="brownian", c=0.5, d=2)
        rng = np.random.default_rng(5)
        x = sample_isotropic_vec(spec, rng, size=200_000)
        _mean_band(x[:, 0] ** 2, 1.0)
        _mean_band(x[:, 0] * x[:, 1], 0.0)

    def test_rotation_invariance_of_char_fn(self):
        spec = StableSpec(alpha=1.5, c=1.0, d=2)
        rng = np.random.default_rng(42)
        x = sample_isotropic_vec(spec, rng, size=200_000)
        u1 = np.array([1.0, 0.0])
        th = 1.1
        u2 = np.array([math.cos(th), math.sin(th)])
        m1, m2 = np.cos(x @ u1).mean(), np.cos(x @ u2).mean()
        assert abs(m1 - m2) < 0.01

    def test_single_draw_shape(self):
        spec = StableSpec(alpha=1.5, c=1.0, d=3)
        assert sample_isotropic_vec(spec, np.random.default_rng(0)).shape == (3,)

    def test_cpp_flavor_rejected(self):
        spec = StableSpec(flavor="cpp", d=2, tail_alpha=1.5, jump_rate=1.0)
        with pytest.raises(ParameterError):
            sample_isotropic_vec(spec, np.random.default_rng(0))


class TestWalkPath:
    def test_shape_and_grid(self):
        spec = StableSpec(flavor="brownian", c=0.5, d=2)
        p = sample_walk_path(spec, 16, 4.0, np.random.default_rng(1))
        assert p.points.shape == (17, 2)
        assert p.times[0] == 0.0 and p.times[-1] == pytest.approx(4.0)
        assert np.allclose(np.diff(p.times), 0.25)
        assert p.points.shape[1] == 2

    def test_endpoint_distribution_from_self_similarity(self):
        # X(horizon) has char. fn. exp(-horizon c |u|^alpha) at any step count.
        spec = StableSpec(alpha=1.5, c=0.5, d=2)
        rng = np.random.default_rng(23)
        ends = np.array(
            [sample_walk_path(spec, 16, 4.0, rng).points[-1] for _ in range(20_000)]
        )
        u = np.array([0.6, 0.3])
        target = math.exp(-4.0 * 0.5 * np.linalg.norm(u) ** 1.5)
        _mean_band(np.cos(ends @ u), target)

    def test_numpy_integer_steps(self):
        spec = StableSpec(flavor="brownian", d=2)
        a = sample_walk_path(spec, np.int64(100), 1.0, np.random.default_rng(4))
        b = sample_walk_path(spec, 100, 1.0, np.random.default_rng(4))
        assert np.array_equal(a.points, b.points) and np.array_equal(a.times, b.times)
        with pytest.raises(ParameterError):
            sample_walk_path(spec, np.float64(100.0), 1.0, np.random.default_rng(4))

    def test_bad_parameters(self):
        spec = StableSpec(flavor="brownian", d=2)
        with pytest.raises(ParameterError):
            sample_walk_path(spec, 0, 1.0, np.random.default_rng(0))
        with pytest.raises(ParameterError):
            sample_walk_path(spec, 10, -1.0, np.random.default_rng(0))


class TestCppPath:
    def test_drift_only(self):
        spec = StableSpec(flavor="cpp", d=2, jump_rate=0.0, drift=(2.0, 0.0), jump_law="gaussian")
        p = sample_cpp_path(spec, 3.0, np.random.default_rng(0))
        assert np.allclose(p.times, [0.0, 3.0])
        assert np.allclose(p.points, [[0.0, 0.0], [6.0, 0.0]])

    def test_pareto_jump_norms_at_least_one(self):
        spec = StableSpec(flavor="cpp", d=2, tail_alpha=1.5, jump_rate=5.0)
        rng = np.random.default_rng(3)
        for _ in range(50):
            p = sample_cpp_path(spec, 2.0, rng)
            jumps = np.diff(p.points, axis=0) - np.diff(p.times)[:, None] * 0.0
            if len(p.times) > 2:
                inner = np.diff(p.points[:-1], axis=0)
                norms = np.linalg.norm(inner, axis=1)
                assert np.all(norms >= 1.0 - 1e-12)

    def test_jump_count_is_poisson(self):
        spec = StableSpec(flavor="cpp", d=2, tail_alpha=1.0, jump_rate=4.0)
        rng = np.random.default_rng(8)
        counts = []
        for _ in range(4000):
            p = sample_cpp_path(spec, 1.5, rng)
            counts.append(len(p.times) - 2 if p.times[-1] == 1.5 else len(p.times) - 1)
        _mean_band(np.asarray(counts, dtype=float), 6.0)

    def test_gaussian_law_control(self):
        spec = StableSpec(flavor="cpp", d=3, jump_rate=2.0, jump_law="gaussian")
        p = sample_cpp_path(spec, 1.0, np.random.default_rng(9))
        assert p.points.shape[1] == 3

    def test_flavor_check(self):
        with pytest.raises(ParameterError):
            sample_cpp_path(StableSpec(d=2), 1.0, np.random.default_rng(0))

    def test_equal_jump_times_are_merged(self):
        class Stub:
            """Four jumps, two of them at the same time."""

            def __init__(self):
                times, norms = [0.5, 0.25, 0.5, 0.75], [0.5, 0.25, 0.8, 1.0]
                self.uniform = [np.array(times), np.array(norms)]

            def poisson(self, lam):
                return 4

            def random(self, n):
                return self.uniform.pop(0)[:n]

            def standard_normal(self, shape):
                return np.array([[1.0, 0.0], [0.0, 2.0], [3.0, 4.0], [-1.0, 0.0]])

        spec = StableSpec(flavor="cpp", d=2, tail_alpha=1.0, jump_rate=1.0, drift=(1.0, 0.0))
        p = sample_cpp_path(spec, 2.0, Stub())
        # sorted times 0.5, 1.0, 1.0, 1.5 get the jumps 2 e1, 4 e2, (1.25/5) (3, 4), -e1
        assert p.times.tolist() == [0.0, 0.5, 1.0, 1.5, 2.0]
        cum = [[0.0, 0.0], [2.0, 0.0], [2.75, 5.0], [1.75, 5.0], [1.75, 5.0]]
        want = np.array(cum) + p.times[:, None] * [1.0, 0.0]
        assert np.allclose(p.points, want, rtol=0, atol=1e-15)


class TestStableSpec:
    def test_brownian_pins_alpha(self):
        assert StableSpec(flavor="brownian", alpha=1.3).alpha == 2.0

    def test_frozen(self):
        spec = StableSpec()
        with pytest.raises(Exception):
            spec.alpha = 1.5

    def test_validation(self):
        with pytest.raises(ParameterError):
            StableSpec(flavor="levy-flight")
        with pytest.raises(ParameterError):
            StableSpec(alpha=0.0)
        with pytest.raises(ParameterError):
            StableSpec(c=0.0)
        with pytest.raises(ParameterError):
            StableSpec(d=0)
        with pytest.raises(ParameterError):
            StableSpec(flavor="cpp", d=2, jump_rate=1.0)  # pareto needs tail_alpha
        with pytest.raises(ParameterError):
            StableSpec(flavor="cpp", d=2, tail_alpha=2.5, jump_rate=1.0)
        with pytest.raises(ParameterError):
            StableSpec(flavor="cpp", d=2, tail_alpha=1.5, jump_rate=-1.0)
        with pytest.raises(ParameterError):
            StableSpec(flavor="cpp", d=2, tail_alpha=1.5, jump_rate=1.0, drift=(1.0,))

    def test_numpy_integer_dimension_becomes_int(self):
        spec = StableSpec(d=np.int64(3))
        assert spec == StableSpec(d=3) and type(spec.d) is int
        with pytest.raises(ParameterError):
            StableSpec(d=np.float64(3.0))

    def test_zero_jump_rate_allowed(self):
        spec = StableSpec(flavor="cpp", d=2, tail_alpha=1.5, jump_rate=0.0)
        assert spec.jump_rate == 0.0
        assert spec.drift == (0.0, 0.0)


class TestPathSample:
    def test_validation(self):
        with pytest.raises(ParameterError):
            PathSample(np.array([0.5, 1.0]), np.zeros((2, 2)))
        with pytest.raises(ParameterError):
            PathSample(np.array([0.0, 1.0, 1.0]), np.zeros((3, 2)))
        with pytest.raises(ParameterError):
            PathSample(np.array([0.0, 1.0]), np.ones((2, 2)))
        with pytest.raises(ParameterError):
            PathSample(np.array([0.0]), np.zeros((2, 1)))

    @pytest.mark.parametrize("n", [1, 2])
    def test_points_without_a_coordinate_refused(self, n):
        # a zero-width path used to pass, and exit_times then failed inside
        # its scanners (StopIteration in grid and linear mode, IndexError
        # with drift=[])
        with pytest.raises(ParameterError, match="at least one coordinate"):
            PathSample(np.arange(n, dtype=np.float64), np.zeros((n, 0)))


class TestReproducibility:
    def test_trial_rng_deterministic(self):
        a = trial_rng(123, stream_id("walks"), 7).standard_normal(5)
        b = trial_rng(123, stream_id("walks"), 7).standard_normal(5)
        assert np.array_equal(a, b)

    def test_trial_rng_distinct_streams(self):
        a = trial_rng(123, stream_id("walks"), 7).standard_normal(5)
        b = trial_rng(123, stream_id("grams"), 7).standard_normal(5)
        c = trial_rng(123, stream_id("walks"), 8).standard_normal(5)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_stream_id_stable(self):
        assert stream_id("walks") == stream_id("walks")
        assert stream_id("walks") != stream_id("grams")
        with pytest.raises(ParameterError):
            stream_id("")

    def test_paths_reproducible(self):
        spec = StableSpec(alpha=1.5, c=0.5, d=2)
        p1 = sample_walk_path(spec, 50, 1.0, trial_rng(9, 1, 0))
        p2 = sample_walk_path(spec, 50, 1.0, trial_rng(9, 1, 0))
        assert np.array_equal(p1.points, p2.points)

    def test_trial_rng_is_numpys_own_seeding_of_the_triple(self):
        # the words trial_rng seeds from are the entropy numpy derives from
        # the (master_seed, stream, trial) tuple, so the generators agree
        seeds = (0, 1, 2**32 - 1, 2**32, 2**64 + 5, 2**100 + 3, np.int64(7))
        for a in seeds:
            for b in (0, stream_id("x"), 2**64 - 1):
                for c in (0, 1, 2**32):
                    got = trial_rng(a, b, c).bit_generator.state
                    assert got == np.random.default_rng((a, b, c)).bit_generator.state

    @given(st.tuples(*[st.integers(min_value=0, max_value=2**128 - 1)] * 3))
    @settings(max_examples=200, deadline=None)
    def test_trial_rng_matches_numpy_on_any_triple(self, triple):
        got = trial_rng(*triple).bit_generator.state
        assert got == np.random.default_rng(triple).bit_generator.state

    def test_trial_rng_refuses_a_fractional_seed(self):
        # int() once truncated it, so seed 1.5 ran as seed 1
        with pytest.raises(ParameterError, match="^master_seed must be an integer >= 0"):
            trial_rng(1.5, 0, 0)


# the block seeder's grid, fixed before its first run: seeds and streams of
# one to three words, and trial ranges within one word, across 2**32, of one
# trial and empty
BLOCK_SEEDS = (0, 7, 2**32 - 1, 2**32, 2**64 + 5)
BLOCK_STREAMS = (0, 5, 2**32, stream_id("exit_value_tail"))
BLOCK_RANGES = ((0, 300), (2**32 - 3, 2**32 + 3), (41, 42), (9, 9))


class TestTrialRngs:
    """``_trial_rngs`` seeds a block of trials at once; each generator is
    numpy's own seeding of the (master_seed, stream, trial) triple."""

    @pytest.mark.parametrize("lo,hi", BLOCK_RANGES, ids=["0-300", "across-2**32", "one", "empty"])
    def test_states_are_numpys_seeding_of_each_triple(self, lo, hi):
        for seed in BLOCK_SEEDS:
            for stream in BLOCK_STREAMS:
                got = [rng.bit_generator.state for rng in _trial_rngs(seed, stream, lo, hi)]
                want = [
                    np.random.default_rng((seed, stream, t)).bit_generator.state
                    for t in range(lo, hi)
                ]
                assert got == want

    @given(
        st.integers(0, 2**128 - 1), st.integers(0, 2**128 - 1), st.integers(0, 2**128 - 1),
        st.integers(0, 40),
    )
    @settings(max_examples=100, deadline=None)
    def test_states_match_trial_rng_on_any_block(self, seed, stream, lo, n):
        got = [rng.bit_generator.state for rng in _trial_rngs(seed, stream, lo, lo + n)]
        assert got == [trial_rng(seed, stream, t).bit_generator.state for t in range(lo, lo + n)]

    def test_draws_match_trial_rng(self):
        stream = stream_id("exit_value_tail")
        for seed, lo in ((0, 0), (2**64 + 5, 2**32 - 2)):
            for t, rng in zip(range(lo, lo + 4), _trial_rngs(seed, stream, lo, lo + 4)):
                ref = trial_rng(seed, stream, t)
                for a, b in ((rng, ref), (_restart(rng), trial_rng(seed, stream, t))):
                    assert a.random(5).tobytes() == b.random(5).tobytes()
                    got, want = np.empty((3, 2)), np.empty((3, 2))
                    a.standard_normal(out=got)
                    b.standard_normal(out=want)
                    assert got.tobytes() == want.tobytes()
                    assert a.poisson(7.5, 4).tolist() == b.poisson(7.5, 4).tolist()
                    # advanced as the supremum side's chunks advance a copy
                    a.bit_generator.advance(1000)
                    b.bit_generator.advance(1000)
                    assert a.standard_exponential(6).tobytes() == b.standard_exponential(6).tobytes()

    def test_restart_begins_the_trial_stream_again(self):
        rng = _trial_rngs(7, 5, 2**32 - 1, 2**32)[0]
        first = rng.random(3)
        assert _restart(rng).random(3).tobytes() == first.tobytes()
        assert _restart(rng).bit_generator.state == trial_rng(7, 5, 2**32 - 1).bit_generator.state


# -- frozen copies of the samplers' earlier code, which every change to them
# must reproduce bit for bit


def _frozen_cpp_path(spec, horizon, rng):
    """(times, points) of sample_cpp_path as first written."""
    n_jumps = int(rng.poisson(spec.jump_rate * horizon)) if spec.jump_rate > 0 else 0
    drift = np.asarray(spec.drift, dtype=np.float64)
    jt = np.sort(rng.random(n_jumps) * horizon) if n_jumps else np.empty(0)
    jt = jt[jt > 0.0]
    n_jumps = len(jt)
    if n_jumps == 0:
        return np.array([0.0, horizon]), np.vstack([np.zeros(spec.d), drift * horizon])
    if spec.jump_law == "pareto":
        norms = rng.random(n_jumps) ** (-1.0 / spec.tail_alpha)
        dirs = rng.standard_normal((n_jumps, spec.d))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        jumps = norms[:, None] * dirs
    else:
        jumps = rng.standard_normal((n_jumps, spec.d))
    if (jt[1:] == jt[:-1]).any():
        jt, inv = np.unique(jt, return_inverse=True)
        merged = np.zeros((len(jt), spec.d))
        np.add.at(merged, inv, jumps)
        jumps = merged
    if jt[-1] < horizon:
        times = np.concatenate(([0.0], jt, [horizon]))
    else:
        times = np.concatenate(([0.0], jt))
    pts = np.zeros((len(times), spec.d))
    pts[1 : len(jt) + 1] = np.cumsum(jumps, axis=0)
    if len(times) > len(jt) + 1:
        pts[-1] = pts[-2]
    pts += times[:, None] * drift
    return times, pts


def _frozen_walk_path(spec, n_steps, horizon, rng):
    """(times, points) of sample_walk_path as first written."""
    incs = sample_isotropic_vec(spec, rng, n_steps)
    incs *= (horizon / n_steps) ** (1.0 / spec.alpha)
    pts = np.empty((n_steps + 1, spec.d))
    pts[0] = 0.0
    np.cumsum(incs, axis=0, out=pts[1:])
    return np.arange(n_steps + 1, dtype=np.float64) * (horizon / n_steps), pts


def _frozen_path_ok(times, points):
    """PathSample's origin and monotonicity checks as first written."""
    times = np.asarray(times, dtype=np.float64)
    points = np.asarray(points, dtype=np.float64)
    if times[0] != 0.0 or np.any(points[0] != 0.0):
        return False
    with np.errstate(invalid="ignore"):  # inf - inf
        return not (len(times) > 1 and not np.all(np.diff(times) > 0.0))


class _StubRng:
    """Four jumps at the given (unsorted) times, with fixed norms and
    directions."""

    def __init__(self, times):
        self.uniform = [np.array(times), np.array([0.5, 0.25, 0.8, 1.0])]

    def poisson(self, lam):
        return 4

    def random(self, n):
        return self.uniform.pop(0)[:n]

    def standard_normal(self, shape):
        return np.array([[1.0, 0.0], [0.0, 2.0], [3.0, 4.0], [-1.0, 0.0]])[: shape[0]]


def _same_bytes(path, frozen):
    times, points = frozen
    assert path.times.tobytes() == times.tobytes()
    assert path.points.shape == points.shape
    assert path.points.tobytes() == points.tobytes()


class TestSamplersMatchFrozenCode:
    @given(
        spec=st.sampled_from(
            [
                StableSpec(flavor="brownian", d=2),
                StableSpec(alpha=2.0, c=1.7, d=1),
                StableSpec(alpha=2.0, c=0.05, d=3),
                StableSpec(alpha=1.5, c=1.0, d=2),
                StableSpec(alpha=0.7, c=0.5, d=3),
            ]
        ),
        n_steps=st.one_of(st.integers(1, 70), st.integers(240, 1100), st.just(4096)),
        horizon=st.floats(1e-3, 1e3),
        seed=st.integers(0, 2**64 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_walk_path_bytes(self, spec, n_steps, horizon, seed):
        whole = sample_walk_path(spec, n_steps, horizon, np.random.default_rng(seed))
        _same_bytes(whole, _frozen_walk_path(spec, n_steps, horizon, np.random.default_rng(seed)))

    @pytest.mark.parametrize("law", ["pareto", "gaussian"])
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("drifting", [False, True], ids=["no_drift", "drift"])
    @pytest.mark.parametrize("rate", [0.0, 0.7, 6.0])
    def test_cpp_path_bytes(self, law, d, drifting, rate):
        drift = tuple(0.3 * (k + 1) * (-1) ** k for k in range(d)) if drifting else None
        tail = 1.5 if law == "pareto" else None
        spec = StableSpec(
            flavor="cpp", d=d, tail_alpha=tail, jump_rate=rate, drift=drift, jump_law=law
        )
        stream = stream_id("frozen_cpp")
        for t in range(40):
            horizon = (0.5, 3.0, 20.0)[t % 3]
            path = sample_cpp_path(spec, horizon, trial_rng(1, stream, t))
            _same_bytes(path, _frozen_cpp_path(spec, horizon, trial_rng(1, stream, t)))

    @pytest.mark.parametrize(
        "times", [[0.5, 0.25, 0.5, 0.75], [0.0, 0.25, 0.0, 0.75], [1.0, 0.25, 0.5, 0.75]],
        ids=["equal_times_merged", "zero_times_dropped", "jump_at_horizon"],
    )
    def test_cpp_path_bytes_on_stubbed_draws(self, times):
        spec = StableSpec(flavor="cpp", d=2, tail_alpha=1.0, jump_rate=1.0, drift=(1.0, 0.0))
        path = sample_cpp_path(spec, 2.0, _StubRng(times))
        _same_bytes(path, _frozen_cpp_path(spec, 2.0, _StubRng(times)))

    @pytest.mark.parametrize(
        "times,origin",
        [
            ([0.0, 1.0, 2.0], [0.0, 0.0]),
            ([0.0], [0.0, 0.0]),
            ([0.0, 1.0, 1.0], [0.0, 0.0]),
            ([0.0, 2.0, 1.0], [0.0, 0.0]),
            ([0.0, math.nan, 2.0], [0.0, 0.0]),
            ([0.0, 1.0, math.nan], [0.0, 0.0]),
            ([0.0, 1.0, math.inf], [0.0, 0.0]),
            ([0.0, math.inf, math.inf], [0.0, 0.0]),
            ([0.0, -math.inf, 1.0], [0.0, 0.0]),
            ([0.0, 5e-324, 1e308], [0.0, 0.0]),
            ([-0.0, 1.0], [0.0, 0.0]),
            ([math.nan, 1.0], [0.0, 0.0]),
            ([0.0, 1.0], [-0.0, 0.0]),
            ([0.0, 1.0], [0.0, -0.0]),
            ([0.0, 1.0], [math.nan, 0.0]),
            ([0.0, 1.0], [0.0, math.nan]),
            ([0.0, 1.0], [0.0, 1e-300]),
            ([0.0], [math.inf, 0.0]),
        ],
    )
    def test_path_sample_accepts_and_refuses_as_before(self, times, origin):
        points = np.zeros((len(times), 2))
        points[0] = origin
        try:
            PathSample(np.array(times), points)
            accepted = True
        except ParameterError:
            accepted = False
        assert accepted == _frozen_path_ok(times, points)
