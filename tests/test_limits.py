"""Exit-time records, renewal ratios, scaling-limit comparisons, and the
anchor-hull sandwich bound."""

import itertools
import math
import os
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levyhull import limits, mc_engine
from levyhull.errors import ConfigError, ParameterError, ResourceError
from levyhull.hullgeom import hull2d, intrinsic_volumes_2d
from levyhull.limits import (
    ExitRecord,
    _dot,
    _dots,
    _exit_values,
    _exits,
    _first_exit_values,
    _first_sphere_crossing,
    _fit_attractor_scale,
    _fma,
    _scan_for,
    _walk_steps,
    estimate_mean_exit_time,
    exit_times,
    exit_value_tail_experiment,
    renewal_ratio_experiment,
    scaled_hull_convergence,
)
from levyhull.mc_engine import _processes, hill_tail_index, ks_two_sample, trial_values
from levyhull.results import EstimateResult
from levyhull.rng_stable import (
    PathSample,
    StableSpec,
    _walk_piece,
    sample_cpp_path,
    sample_walk_path,
    stream_id,
    trial_rng,
)
from oracles import first_exit_values_whole, hausdorff
from test_rng_stable import _frozen_walk_path

BROWNIAN2 = StableSpec(alpha=2.0, c=0.5, d=2, flavor="brownian")
HEAVY = StableSpec(alpha=1.5, c=1.0, d=2, flavor="cpp", tail_alpha=1.5, jump_rate=3.0)
SLOW_GAUSSIAN = StableSpec(d=2, flavor="cpp", jump_law="gaussian", jump_rate=0.001)
DRIFT_ONLY = StableSpec(
    alpha=1.5, c=1.0, d=2, flavor="cpp", tail_alpha=1.5, jump_rate=0.0,
    drift=(2.0, 0.0),
)


def _line_path(xs, times=None):
    xs = np.asarray(xs, dtype=np.float64)
    pts = np.column_stack([xs, np.zeros_like(xs)])
    t = np.arange(len(xs), dtype=np.float64) if times is None else np.asarray(times)
    return PathSample(times=t, points=pts)


class TestExitRecord:
    def test_round_trip_and_counts(self):
        rec = ExitRecord(
            np.array([0.5, 1.25]), np.array([[1.0, 0.0], [2.1, 0.0]]), horizon=2.0
        )
        assert rec.n_exits == 2
        assert rec.count_up_to(0.4) == 0
        assert rec.count_up_to(0.5) == 1
        assert rec.count_up_to(2.0) == 2
        assert not rec.exit_times.flags.writeable

    def test_empty_record(self):
        rec = ExitRecord(np.empty(0), np.empty((0, 2)), horizon=1.0)
        assert rec.n_exits == 0
        assert rec.count_up_to(1.0) == 0

    def test_rejects_non_increasing_times(self):
        with pytest.raises(ParameterError):
            ExitRecord(
                np.array([0.5, 0.5]), np.array([[1.0, 0.0], [2.1, 0.0]]), horizon=1.0
            )

    def test_rejects_times_beyond_horizon(self):
        with pytest.raises(ParameterError):
            ExitRecord(np.array([1.5]), np.array([[1.0, 0.0]]), horizon=1.0)

    def test_zero_horizon_takes_no_exit(self):
        rec = ExitRecord(np.empty(0), np.empty((0, 2)), horizon=0.0)
        assert rec.n_exits == 0 and rec.horizon == 0.0
        with pytest.raises(ParameterError):
            ExitRecord(np.array([0.0]), np.array([[1.0, 0.0]]), horizon=0.0)

    def test_rejects_misaligned_shapes(self):
        with pytest.raises(ParameterError):
            ExitRecord(np.array([0.5]), np.array([[1.0, 0.0], [2.0, 0.0]]), horizon=1.0)

    def test_rejects_short_increment(self):
        with pytest.raises(ParameterError):
            ExitRecord(
                np.array([0.5, 0.8]), np.array([[1.0, 0.0], [1.5, 0.0]]), horizon=1.0
            )


class TestExitTimes:
    def test_pure_drift_exits_every_half_unit(self):
        path = sample_cpp_path(DRIFT_ONLY, 1.0, np.random.default_rng(0))
        rec = exit_times(path, drift=DRIFT_ONLY.drift)
        assert rec.exit_times.tolist() == [0.5, 1.0]
        assert rec.exit_points.tolist() == [[1.0, 0.0], [2.0, 0.0]]

    def test_path_inside_ball_gives_empty_record(self):
        path = sample_walk_path(BROWNIAN2, 50, 1e-6, np.random.default_rng(1))
        rec = exit_times(path, mode="linear")
        assert rec.n_exits == 0

    def test_grid_mode_takes_first_sample_at_unit_distance(self):
        rec = exit_times(_line_path([0.0, 0.5, 1.5, 3.0]))
        assert rec.exit_times.tolist() == [2.0, 3.0]
        assert rec.exit_points[:, 0].tolist() == [1.5, 3.0]

    def test_linear_mode_lands_exactly_on_the_sphere(self):
        rec = exit_times(_line_path([0.0, 0.5, 1.5, 3.0]), mode="linear")
        assert rec.exit_times == pytest.approx([1.5, 2.0 + 1.0 / 3.0, 3.0], abs=1e-12)
        assert rec.exit_points[:, 0] == pytest.approx([1.0, 2.0, 3.0], abs=1e-12)
        steps = np.diff(
            np.vstack([np.zeros(2), rec.exit_points]), axis=0
        )
        assert np.linalg.norm(steps, axis=1) == pytest.approx(1.0, abs=1e-12)

    def test_zero_drift_scan_matches_grid_scan_on_jump_paths(self):
        for seed in range(40):
            path = sample_cpp_path(HEAVY, 3.0, np.random.default_rng(seed))
            a = exit_times(path, mode="grid")
            b = exit_times(path, drift=(0.0, 0.0))
            assert a.exit_times.tolist() == b.exit_times.tolist()
            assert a.exit_points.tolist() == b.exit_points.tolist()

    def test_heavy_jump_first_exit_time_matches_first_jump_clock(self):
        # pareto jump norms are >= 1, so the first jump always exits and
        # T_1 is an exponential clock with the jump rate
        vals = []
        stream = stream_id("t1_clock")
        for k in range(2000):
            path = sample_cpp_path(HEAVY, 20.0, trial_rng(0, stream, k))
            rec = exit_times(path, mode="grid")
            assert rec.n_exits >= 1
            vals.append(rec.exit_times[0])
        vals = np.asarray(vals)
        target = 1.0 / HEAVY.jump_rate
        z = (vals.mean() - target) / (vals.std(ddof=1) / math.sqrt(vals.size))
        assert abs(z) < 4.0

    def test_fast_drift_stops_at_the_jump_time(self):
        # a drift of 1e14 crosses ten unit spheres in 1e-13; the last crossing
        # is clamped to the jump time, where the scan must leave the segment
        # (islice bounds the scan, so a scan that repeats that exit fails)
        path = PathSample(np.array([0.0, 1e-13]), np.array([[0.0, 0.0], [10.0, 0.0]]))
        drift = (1e14, 0.0)
        assert len(list(itertools.islice(_exits(path, drift), 100))) == 10
        rec = exit_times(path, drift=drift)
        assert rec.n_exits == 10 and rec.exit_times[-1] == 1e-13
        assert np.all(np.diff(rec.exit_times) > 0.0)

    def test_grid_exits_are_sample_times_with_unit_spacing(self):
        for seed in range(5):
            path = sample_walk_path(BROWNIAN2, 2000, 6.0, np.random.default_rng(seed))
            rec = exit_times(path)
            assert np.all(np.isin(rec.exit_times, path.times))
            anchors = np.vstack([np.zeros(2), rec.exit_points])
            gaps = np.linalg.norm(np.diff(anchors, axis=0), axis=1)
            assert gaps.min() >= 1.0

    def test_validation(self):
        path = _line_path([0.0, 2.0])
        with pytest.raises(ParameterError):
            exit_times(path, mode="spline")
        with pytest.raises(ParameterError):
            exit_times(path, drift=(1.0, 0.0, 0.0))
        with pytest.raises(ParameterError):
            exit_times(np.zeros((3, 2)))

    @pytest.mark.parametrize(
        "case", ["nan_drift", "inf_drift", "nan_sample_drift", "nan_sample_linear"]
    )
    def test_non_finite_input_refused(self, case):
        # each used to yield (nan, (nan, nan)) without end; the probes take
        # at most 10 exits, so a regression fails instead of filling memory
        pts = np.array([[0.0, 0.0], [0.5, 0.0], [2.0, 0.0], [4.0, 0.0]])
        drift = {"nan_drift": [math.nan, 0.0], "inf_drift": [math.inf, 0.0]}.get(case)
        if case == "nan_sample_drift":
            pts[1, 1], drift = math.nan, [0.5, 0.0]
        elif case == "nan_sample_linear":
            pts[1, 0] = math.nan  # a sample at distance >= 1 follows it
        kw = {"mode": "linear"} if drift is None else {"drift": drift}
        path = PathSample(np.arange(4.0), pts)
        with pytest.raises(ParameterError, match="finite"):
            list(itertools.islice(_exits(path, **kw), 10))
        with pytest.raises(ParameterError, match="finite"):
            exit_times(path, **kw)

    def test_non_finite_samples_on_the_grid_kept(self):
        # grid mode takes only samples at distance >= 1: NaN never is one
        pts = np.array([[0.0, 0.0], [math.nan, 0.0], [2.0, 0.0]])
        assert exit_times(PathSample(np.arange(3.0), pts)).exit_times.tolist() == [2.0]


# Frozen oracle: the block-search scanners as they stood before the scans
# became lazy generators with a scalar search. Do not edit; the scanners
# in levyhull.limits must reproduce their records bit for bit.
def _oracle_grid(times, pts):
    out_t, out_p = [], []
    anchor = pts[0]
    start, n = 1, len(pts)
    block = 2048
    while start < n:
        stop = min(start + block, n)
        d2 = ((pts[start:stop] - anchor) ** 2).sum(axis=1)
        hits = np.nonzero(d2 >= 1.0)[0]
        if hits.size == 0:
            start = stop
            continue
        k = start + int(hits[0])
        out_t.append(times[k])
        out_p.append(pts[k])
        anchor = pts[k]
        start = k + 1
    return out_t, out_p


def _oracle_sphere_crossing(q, v, s_lo, s_hi):
    vv = float(v @ v)
    if vv <= 0.0:
        return None
    qv = float(q @ v)
    disc = qv * qv - vv * (float(q @ q) - 1.0)
    if disc < 0.0:
        return None
    s = (-qv + math.sqrt(disc)) / vv
    if s <= s_lo + 1e-15 or s > s_hi + 1e-12:
        return None
    return min(s, s_hi)


def _oracle_linear(times, pts):
    out_t, out_p = [], []
    anchor = pts[0].copy()
    start, n = 1, len(pts)
    block = 2048
    while start < n:
        stop = min(start + block, n)
        d2 = ((pts[start:stop] - anchor) ** 2).sum(axis=1)
        hits = np.nonzero(d2 >= 1.0)[0]
        if hits.size == 0:
            start = stop
            continue
        k = start + int(hits[0])
        a, b = pts[k - 1], pts[k]
        seg = b - a
        dt = times[k] - times[k - 1]
        s_lo = 0.0
        while True:
            s = _oracle_sphere_crossing(a - anchor, seg, s_lo, 1.0)
            if s is None:
                s = 1.0  # endpoint sits on the sphere within rounding
            out_t.append(times[k - 1] + s * dt)
            anchor = a + s * seg
            out_p.append(anchor.copy())
            s_lo = s
            if s >= 1.0 or ((b - anchor) ** 2).sum() < 1.0:
                break
        start = k + 1
    return out_t, out_p


_ORACLES = {"grid": _oracle_grid, "linear": _oracle_linear}


def _assert_matches_oracle(path, mode):
    want_t, want_p = _ORACLES[mode](path.times, path.points)
    d = path.points.shape[1]
    rec = exit_times(path, mode=mode)
    assert np.array_equal(rec.exit_times, np.asarray(want_t, dtype=np.float64))
    assert np.array_equal(
        rec.exit_points, np.asarray(want_p, dtype=np.float64).reshape(-1, d)
    )
    return rec


class TestScannersAgainstFrozenOracle:
    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("mode", ["grid", "linear"])
    def test_brownian_walks(self, d, mode):
        spec = StableSpec(alpha=2.0, c=0.5, d=d, flavor="brownian")
        for k in range(3):
            path = sample_walk_path(spec, 5000, 100.0, trial_rng(41, d, k))
            assert _assert_matches_oracle(path, mode).n_exits > 50

    @pytest.mark.parametrize("d", [2, 3])
    def test_heavy_walks_with_several_exits_per_segment(self, d):
        spec = StableSpec(alpha=0.7, c=0.5, d=d)
        most = 0
        for k in range(5):
            path = sample_walk_path(spec, 2000, 4.0, trial_rng(3, d, k))
            _assert_matches_oracle(path, "grid")
            rec = _assert_matches_oracle(path, "linear")
            seg = np.searchsorted(path.times, rec.exit_times, side="left")
            most = max(most, int(np.bincount(seg).max()))
        assert most >= 4

    @pytest.mark.parametrize("d", [2, 3])
    def test_pareto_jump_paths(self, d):
        spec = StableSpec(
            alpha=1.5, c=1.0, d=d, flavor="cpp", tail_alpha=1.5, jump_rate=3.0
        )
        for k in range(30):
            path = sample_cpp_path(spec, 20.0, trial_rng(42, d, k))
            for mode in ("grid", "linear"):
                _assert_matches_oracle(path, mode)

    @pytest.mark.parametrize("mode", ["grid", "linear"])
    def test_edge_paths(self, mode):
        never = sample_walk_path(BROWNIAN2, 50, 1e-6, np.random.default_rng(1))
        assert _assert_matches_oracle(never, mode).n_exits == 0
        last = _assert_matches_oracle(_line_path([0.0, 0.4, 0.8, 1.0]), mode)
        assert last.n_exits == 1
        assert last.exit_times[0] == pytest.approx(3.0, abs=1e-12)
        # squared distances of exactly 1.0 from the anchor, in d = 2 and 4
        square = np.array(
            [[0.0, 0.0], [0.5, 0.0], [1.0, 0.0], [1.0, 0.5], [1.0, 1.0], [2.0, 1.0]]
        )
        rec = _assert_matches_oracle(PathSample(np.arange(6.0), square), mode)
        assert rec.n_exits == 3
        diag = np.array([[0.0] * 4, [0.25] * 4, [0.5] * 4, [1.0] * 4])
        rec = _assert_matches_oracle(PathSample(np.arange(4.0), diag), mode)
        assert rec.n_exits == 2

    def test_first_exit_is_element_zero_of_the_record(self):
        heavy_drift = StableSpec(
            alpha=1.5, c=1.0, d=2, flavor="cpp", tail_alpha=1.5, jump_rate=1.0,
            drift=(0.3, 0.0),
        )
        specs = [
            (BROWNIAN2, 40.0, 2000),
            (StableSpec(alpha=0.7, c=0.5, d=3), 4.0, 2000),
            (HEAVY, 20.0, 1),
            (heavy_drift, 20.0, 1),
            (BROWNIAN2, 1e-6, 50),  # never exits
        ]
        for spec, horizon, n_steps in specs:
            for k in range(5):
                rec = _scan_for(spec, horizon, n_steps, trial_rng(43, 0, k), exit_times)
                first = next(_scan_for(spec, horizon, n_steps, trial_rng(43, 0, k), _exits), None)
                if rec.n_exits == 0:
                    assert first is None
                    continue
                assert first[0] == rec.exit_times[0]
                assert np.array_equal(first[1], rec.exit_points[0])


# Frozen oracle: the drift scanner as it stood before the scanners moved
# to Python floats, on numpy rows with ``@`` dots and ``np.linalg.norm``.
# Do not edit; ``exit_times(path, drift=...)`` must reproduce its records
# bit for bit.
def _oracle_drift(times, pts, v):
    anchor = pts[0]
    last_t = 0.0
    for k in range(len(pts) - 1):
        p_k = pts[k]
        dt = times[k + 1] - times[k]
        s_lo = 0.0
        while True:
            s = _oracle_sphere_crossing(p_k - anchor, v, s_lo, dt)
            if s is None:
                break
            last_t = times[k] + s
            anchor = p_k + s * v
            yield last_t, anchor
            s_lo = s
        # the jump lands the path at pts[k + 1]; it may exit outright
        if float(np.linalg.norm(pts[k + 1] - anchor)) >= 1.0:
            last_t = max(times[k + 1], np.nextafter(last_t, math.inf))
            anchor = pts[k + 1]
            yield last_t, anchor


def _assert_drift_matches_oracle(path, drift):
    v = np.asarray(drift, dtype=np.float64)
    want = list(_oracle_drift(path.times, path.points, v))
    # the oracle can give a jump exit one ulp after a drift exit at the
    # last sample time, past the horizon; the scanner drops it
    if want and want[-1][0] > path.times[-1]:
        want.pop()
    assert all(t <= path.times[-1] for t, _ in want)
    rec = exit_times(path, drift=v)
    assert np.array_equal(
        rec.exit_times, np.array([t for t, _ in want], dtype=np.float64)
    )
    assert np.array_equal(
        rec.exit_points,
        np.array([p for _, p in want], dtype=np.float64).reshape(-1, len(v)),
    )
    return rec


def _cpp(d, **kw):
    return StableSpec(alpha=1.5, c=1.0, d=d, flavor="cpp", **kw)


class TestDriftScannerAgainstFrozenOracle:
    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize(
        "jumps",
        [dict(tail_alpha=1.5), dict(jump_law="gaussian")],
        ids=["pareto", "gaussian"],
    )
    def test_jump_paths_with_drift(self, d, jumps):
        drifts = [(0.3,) + (0.0,) * (d - 1), (1.7, -0.4, 0.9)[:d]]
        for i, drift in enumerate(drifts):
            spec = _cpp(d, jump_rate=3.0, drift=drift, **jumps)
            total = 0
            for k in range(20):
                path = sample_cpp_path(spec, 20.0, trial_rng(45, 10 * d + i, k))
                total += _assert_drift_matches_oracle(path, drift).n_exits
            assert total > 100

    @pytest.mark.parametrize("d", [2, 3])
    def test_pure_drift(self, d):
        drifts = [(2.0,) + (0.0,) * (d - 1), (0.3, -0.7, 0.11)[:d]]
        for k, drift in enumerate(drifts):
            spec = _cpp(d, tail_alpha=1.5, jump_rate=0.0, drift=drift)
            path = sample_cpp_path(spec, 37.5, trial_rng(46, d, k))
            assert _assert_drift_matches_oracle(path, drift).n_exits >= 20

    def test_zero_drift_and_huge_jumps(self):
        # vv = 0 leaves only the jump test; jumps of 1e12 each exit outright
        spec = _cpp(3, tail_alpha=1.5, jump_rate=3.0)
        for k in range(10):
            path = sample_cpp_path(spec, 5.0, trial_rng(47, 3, k))
            _assert_drift_matches_oracle(path, (0.0, 0.0, 0.0))
            huge = PathSample(path.times, 1e12 * path.points)
            assert _assert_drift_matches_oracle(huge, (0.3, 0.0, 0.0)).n_exits >= 1

    def test_jumps_landing_exactly_on_the_sphere(self):
        # drift (0, 0.25) moves the path off the x axis between jumps; the
        # jumps land at squared distance exactly 1.0 from the last anchor
        times = np.arange(6.0)
        pts = np.array(
            [[0.0, 0.0], [0.5, 0.25], [1.0, 0.0], [1.0, 0.25], [2.0, 0.0], [2.0, 1.0]]
        )
        rec = _assert_drift_matches_oracle(PathSample(times, pts), (0.0, 0.25))
        assert rec.exit_times.tolist() == [2.0, 4.0, 5.0]
        pts = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.5], [0.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
        rec = _assert_drift_matches_oracle(PathSample(np.arange(4.0), pts), (0.0,) * 3)
        assert rec.exit_times.tolist() == [2.0, 3.0]

    def test_drift_crossing_at_the_jump_time(self):
        # the drift reaches the sphere at s = dt, the instant of the next
        # jump; a jump that exits too is recorded one ulp later
        times = np.array([0.0, 2.0, 3.0])
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 0.0]])
        rec = _assert_drift_matches_oracle(PathSample(times, pts), (0.5, 0.0))
        assert rec.exit_times.tolist() == [2.0]
        pts = np.array([[0.0, 0.0], [2.5, 0.0], [2.5, 0.0]])
        rec = _assert_drift_matches_oracle(PathSample(times, pts), (0.5, 0.0))
        assert rec.exit_times.tolist() == [2.0, math.nextafter(2.0, 3.0)]

    def test_no_jump_exit_past_the_horizon(self):
        # the drift exits at the last sample time and the jump back to 0
        # would exit one ulp later, past the horizon: it is not recorded
        path = PathSample(np.array([0.0, 1.0]), np.array([[0.0], [0.0]]))
        assert list(_exits(path, drift=[1.0])) == [(1.0, (1.0,))]
        _assert_drift_matches_oracle(path, (1.0,))

    def test_jumps_within_an_ulp_of_the_sphere(self):
        # unit jumps rounded to doubles: the rounding of the squared norm
        # decides whether the jump exits, and both outcomes occur
        rng = np.random.default_rng(57)
        outcomes = set()
        for d in (2, 3, 5):
            for _ in range(300):
                u = rng.standard_normal(d)
                u /= np.linalg.norm(u)
                path = PathSample(np.arange(2.0), np.vstack([np.zeros(d), u]))
                outcomes.add(_assert_drift_matches_oracle(path, np.zeros(d)).n_exits)
        assert outcomes == {0, 1}


def _creeping_path(d, step, rng, blocks=12, per_block=150):
    """Jumps of length 1 - 30 step in random directions, each followed by
    a walk of ``step``-sized increments drifting along the jump, so most
    exits fall on segments of length about ``step``."""
    rows = [np.zeros((1, d))]
    for _ in range(blocks):
        u = rng.standard_normal(d)
        u /= np.linalg.norm(u)
        start = rows[-1][-1] + (1.0 - 30.0 * step) * u
        inc = step * (rng.standard_normal((per_block, d)) + u)
        rows.append(start + np.vstack([np.zeros(d), np.cumsum(inc, axis=0)]))
    pts = np.vstack(rows)
    return PathSample(np.arange(len(pts), dtype=np.float64), pts)


class TestScannerEdgesAgainstFrozenOracle:
    @pytest.mark.parametrize("d", [1, 4, 7])
    @pytest.mark.parametrize("mode", ["grid", "linear"])
    def test_walks_in_more_dimensions(self, d, mode):
        # d = 7 is the largest dimension where numpy rounds as the scanners do
        for alpha, horizon in ((2.0, 100.0), (1.5, 20.0)):
            spec = StableSpec(alpha=alpha, c=0.5, d=d)
            for k in range(2):
                path = sample_walk_path(spec, 3000, horizon, trial_rng(48, d, k))
                assert _assert_matches_oracle(path, mode).n_exits > 10

    @pytest.mark.parametrize("d", [2, 3])
    def test_alpha_half_walks_with_many_exits_per_segment(self, d):
        spec = StableSpec(alpha=0.5, c=0.5, d=d)
        most = 0
        for k in range(6):
            path = sample_walk_path(spec, 1000, 6.0, trial_rng(49, d, k))
            _assert_matches_oracle(path, "grid")
            rec = _assert_matches_oracle(path, "linear")
            if rec.n_exits:
                seg = np.searchsorted(path.times, rec.exit_times, side="left")
                most = max(most, int(np.bincount(seg).max()))
        assert most >= 20

    @pytest.mark.parametrize("mode", ["grid", "linear"])
    def test_zero_length_segments(self, mode):
        # repeated samples inside the ball, at the crossing and outside it
        rec = _assert_matches_oracle(
            _line_path([0.0, 0.5, 0.5, 1.0, 1.0, 1.5, 2.5, 2.5, 2.5, 3.5]), mode
        )
        assert rec.n_exits == 3
        walk = sample_walk_path(BROWNIAN2, 2000, 40.0, trial_rng(50, 2, 0))
        pts = np.repeat(walk.points, 2, axis=0)
        doubled = PathSample(np.arange(len(pts), dtype=np.float64), pts)
        assert _assert_matches_oracle(doubled, mode).n_exits > 10

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_remainders_within_an_ulp_of_the_sphere(self, d):
        # a segment of length 2 from the origin leaves, after its first
        # crossing, a remainder of squared length within ulps of 1.0: the
        # rounding of that sum decides whether a second exit follows, and
        # both outcomes occur
        rng = np.random.default_rng(56 + d)
        counts = set()
        for _ in range(300):
            u = rng.standard_normal(d)
            u *= 2.0 / np.linalg.norm(u)
            path = PathSample(np.arange(2.0), np.vstack([np.zeros(d), u]))
            counts.add(_assert_matches_oracle(path, "linear").n_exits)
        assert counts == {1, 2}

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_endpoint_on_the_sphere_takes_the_fallback(self, d):
        # on a 3-ulp segment ending on the sphere the rounded quadratic has
        # no root in (0, 1], so the scanner takes s = 1.0
        a = 1.0 - 3.0 * 2.0**-52
        v = 3.0 * 2.0**-52
        assert _first_sphere_crossing((a, 0.0), (v, 0.0), v * v, 0.0, 1.0) is None
        pts = np.zeros((4, d))
        pts[:, 0] = [0.0, a, 1.0, 1.5]
        for mode in ("grid", "linear"):
            rec = _assert_matches_oracle(PathSample(np.arange(4.0), pts), mode)
            assert rec.exit_times.tolist() == [2.0]
            assert rec.exit_points.tolist() == [[1.0] + [0.0] * (d - 1)]

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("mode", ["grid", "linear"])
    def test_step_scale_1e_8(self, d, mode):
        tiny = 0
        for k in range(3):
            path = _creeping_path(d, 1e-8, np.random.default_rng(100 * d + k))
            rec = _assert_matches_oracle(path, mode)
            seg = np.searchsorted(path.times, rec.exit_times, side="left")
            steps = np.linalg.norm(path.points[seg] - path.points[seg - 1], axis=1)
            tiny += int((steps < 1e-6).sum())
        assert tiny >= 10

    @pytest.mark.parametrize("scale", [1e-8, 1e12])
    def test_time_step_scales(self, scale):
        walk = sample_walk_path(BROWNIAN2, 3000, 60.0, trial_rng(51, 2, 0))
        path = PathSample(scale * walk.times, walk.points)
        for mode in ("grid", "linear"):
            assert _assert_matches_oracle(path, mode).n_exits > 50

    def test_jump_scale_1e12_on_the_grid(self):
        # a linear scan records one exit per unit length, so 1e12-long steps
        # only run on the grid
        spec = _cpp(2, tail_alpha=1.5, jump_rate=3.0)
        for k in range(5):
            path = sample_cpp_path(spec, 20.0, trial_rng(52, 2, k))
            huge = PathSample(path.times, 1e12 * path.points)
            assert _assert_matches_oracle(huge, "grid").n_exits >= 1


# coordinates of 0.0 or of size at least 1e-3, so no product of two
# differences falls below the range where ``_fma`` is exact
_COORD = st.floats(-1.5, 1.5).map(lambda x: x if abs(x) >= 1e-3 else 0.0)
_LATTICE = st.sampled_from((-1.0, -0.5, 0.0, 0.5, 1.0))


@st.composite
def _short_paths(draw):
    """Paths of 2-40 samples in d = 1..4. Their steps mix repeated
    samples, half-integer lattice steps and unit axis steps (which put
    samples at squared distance exactly 1.0 from an anchor), steps shorter
    than 2 and steps 2-50 long."""
    d = draw(st.integers(1, 4))
    n = draw(st.integers(2, 40))
    steps = np.zeros((n, d))
    for k in range(1, n):
        kind = draw(st.sampled_from(("repeat", "lattice", "axis", "short", "long")))
        if kind == "lattice":
            steps[k] = draw(st.lists(_LATTICE, min_size=d, max_size=d))
        elif kind == "axis":
            steps[k, draw(st.integers(0, d - 1))] = draw(st.sampled_from((-1.0, 1.0)))
        elif kind != "repeat":
            steps[k] = draw(st.lists(_COORD, min_size=d, max_size=d))
            norm = float(np.linalg.norm(steps[k]))
            if kind == "long":
                if norm < 0.1:
                    steps[k] = 0.0
                    steps[k, 0], norm = 1.0, 1.0
                steps[k] *= draw(st.floats(2.0, 50.0)) / norm
    dts = draw(st.lists(st.floats(1e-3, 10.0), min_size=n - 1, max_size=n - 1))
    times = np.concatenate([[0.0], np.cumsum(dts)])
    return PathSample(times, np.cumsum(steps, axis=0))


class TestScannersOnShortPaths:
    @given(_short_paths(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_every_scanner_matches_its_frozen_oracle(self, path, data):
        d = path.points.shape[1]
        for mode in ("grid", "linear"):
            _assert_matches_oracle(path, mode)
        drift = data.draw(st.lists(_COORD, min_size=d, max_size=d), label="drift")
        _assert_drift_matches_oracle(path, drift)

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_one_sample_path_has_no_exits(self, d):
        # its horizon is 0: every mode returns an empty record
        path = PathSample(np.zeros(1), np.zeros((1, d)))
        assert _oracle_grid(path.times, path.points) == ([], [])
        assert _oracle_linear(path.times, path.points) == ([], [])
        assert list(_oracle_drift(path.times, path.points, np.ones(d))) == []
        for kw in ({"mode": "grid"}, {"mode": "linear"}, {"drift": np.ones(d)}):
            assert list(_exits(path, **kw)) == []
            rec = exit_times(path, **kw)
            assert rec.n_exits == 0 and rec.exit_points.shape == (0, d)
            assert rec.horizon == 0.0


def _fraction_fma(a, b, c):
    return float(Fraction(a) * Fraction(b) + Fraction(c))


def _random_double(rng):
    """A double of random sign, significand and binary exponent in -300..300."""
    sign = rng.choice((-1.0, 1.0))
    return sign * math.ldexp(rng.uniform(1.0, 2.0), int(rng.integers(-300, 301)))


class TestFusedDot:
    def test_fma_rounds_once(self):
        rng = np.random.default_rng(53)
        for _ in range(20_000):
            a, b, c = (_random_double(rng) for _ in range(3))
            assert _fma(a, b, c) == _fraction_fma(a, b, c)
            # c near -a b: the sum cancels to the rounding error of a b
            c = -(a * b) * (1.0 + rng.choice((0.0, 2.0**-52, -(2.0**-40))))
            assert _fma(a, b, c) == _fraction_fma(a, b, c)

    def test_fma_exact_cancellation_and_signed_zeros(self):
        # where a b is a double, a b + c rounds once as well, and IEEE gives
        # an exact zero sum the sign +0.0 unless both terms are -0.0
        rng = np.random.default_rng(54)
        short = [
            math.ldexp(float(rng.integers(1, 2**26)), int(rng.integers(-300, 301)))
            for _ in range(200)
        ]
        cases = [(a, b, -(a * b)) for a, b in zip(short, short[1:])]
        zeros = (0.0, -0.0)
        cases += [(x, y, z) for x in zeros + (1.5,) for y in zeros + (-2.0,) for z in zeros]
        cases += [(3.0, -0.5, 1.5), (-0.0, 7.0, -0.0), (2.0**-500, 2.0**-400, -0.0)]
        for a, b, c in cases:
            got, want = _fma(a, b, c), a * b + c
            assert got == want == _fraction_fma(a, b, c)
            assert math.copysign(1.0, got) == math.copysign(1.0, want)

    @pytest.mark.parametrize("d", range(1, 8))
    def test_numpy_dot_is_the_fused_chain(self, d):
        # The scanners reproduce numpy's rounding on this assumption: ``@``
        # (and so ``np.linalg.norm``) is OpenBLAS ddot's fused chain for
        # d < 8, and so is ``@`` on stacked rows, which the Gaussian walk
        # blocks use for their crossings (``_dots``) at d <= 7. A BLAS
        # without FMA fails here first.
        rng = np.random.default_rng(55 + d)
        shape = (2, 10_000, d)
        xs, ys = rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 4, shape)
        unfused = 0
        for x, y, xl, yl in zip(xs, ys, xs.tolist(), ys.tolist()):
            assert float(x @ y) == _dot(xl, yl)
            assert float(np.linalg.norm(x)) == math.sqrt(_dot(xl, xl))
            plain = 0.0
            for a, b in zip(xl, yl):
                plain = plain + a * b
            unfused += plain != float(x @ y)
        assert _dots(xs, ys).tolist() == [_dot(x, y) for x, y in zip(xs.tolist(), ys.tolist())]
        if d > 1:  # one product has nothing to fuse
            assert unfused > 1000  # so an unfused ddot would be caught

    @pytest.mark.parametrize("d", range(8, 17))
    def test_block_dots_are_the_fused_chain_past_7(self, d):
        # for d >= 8 ``@`` may sum in another order, so ``_dots`` runs
        # ``_dot`` on each row, and the blocks round as the scanners do
        rng = np.random.default_rng(56 + d)
        shape = (2, 2_000, d)
        xs, ys = rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 4, shape)
        assert _dots(xs, ys).tolist() == [_dot(x, y) for x, y in zip(xs.tolist(), ys.tolist())]


class TestMeanExitTime:
    def test_brownian_unit_ball_exit_time_near_half(self):
        # continuous-time value is 1/d = 0.5; grid detection biases it up
        res = estimate_mean_exit_time(
            BROWNIAN2, trials=500, seed=3, horizon=12.0, dt=0.005
        )
        assert 0.45 < res.mean < 0.62
        assert res.trials == 500

    def test_grid_bias_is_positive_and_shrinks_with_dt(self):
        coarse = estimate_mean_exit_time(
            BROWNIAN2, trials=700, seed=5, horizon=12.0, dt=0.15
        )
        fine = estimate_mean_exit_time(
            BROWNIAN2, trials=700, seed=6, horizon=12.0, dt=0.01
        )
        assert coarse.mean > 0.5 and fine.mean > 0.5
        gap = coarse.mean - fine.mean
        assert gap > 3.0 * math.hypot(coarse.stderr, fine.stderr)

    def test_errors_when_paths_never_exit(self):
        with pytest.raises(ConfigError):
            estimate_mean_exit_time(BROWNIAN2, trials=50, seed=0, horizon=1e-4)

    def test_needs_two_trials(self):
        with pytest.raises(ParameterError):
            estimate_mean_exit_time(BROWNIAN2, trials=1)

    def test_walk_longer_than_the_step_cap_refused(self):
        # round(40 / 1e-300) steps used to reach numpy as an array shape
        with pytest.raises(ResourceError, match="^dt = 1e-300 needs 4e\\+301 steps"):
            estimate_mean_exit_time(BROWNIAN2, trials=2, dt=1e-300)
        with pytest.raises(ResourceError, match="cap of 1000000"):
            estimate_mean_exit_time(BROWNIAN2, trials=2, horizon=10.0, dt=1e-5 * 0.999)
        # a cpp path is sampled at its jumps: dt takes no memory there
        assert estimate_mean_exit_time(HEAVY, trials=20, dt=1e-300).trials > 0

    def test_cpp_paths_over_the_jump_cap_refused_before_any_draw(self, monkeypatch):
        # these asked numpy for terabytes of jumps in one path or block
        def no_draws(*key):
            raise AssertionError("a path was drawn")

        monkeypatch.setattr(mc_engine, "_trial_rngs", no_draws)
        monkeypatch.setattr(mc_engine, "trial_rng", no_draws)
        fast = lambda rate: StableSpec(d=2, flavor="cpp", tail_alpha=1.5, jump_rate=rate)  # noqa: E731
        with pytest.raises(ResourceError, match="^jump_rate = 10000000000.0 expects 1e\\+20 jumps"):
            renewal_ratio_experiment(fast(1e10), [1e10], trials=2, et1_trials=2)
        with pytest.raises(ResourceError, match="cap of 1000000"):
            scaled_hull_convergence(fast(1e6), [1e7], trials=10)
        # the E T_1 batch's horizon 40 at 2.5e4 jumps a unit time is the cap itself
        with pytest.raises(ResourceError, match="up to time 40.0"):
            estimate_mean_exit_time(fast(math.nextafter(2.5e4, math.inf)), trials=2)
        with pytest.raises(AssertionError, match="a path was drawn"):
            estimate_mean_exit_time(fast(2.5e4), trials=2)

    def test_an_explicit_horizon_is_used_as_given(self):
        # the default for this rate would be 40 / 0.001
        with pytest.raises(ConfigError, match="almost no paths exited"):
            estimate_mean_exit_time(SLOW_GAUSSIAN, trials=50, horizon=40.0)


def _wrap_generators(monkeypatch, wrap):
    """Hand every trial generator, block-seeded or a rescan's fresh one,
    through ``wrap``."""
    seed_block, restart = mc_engine._trial_rngs, limits._restart
    monkeypatch.setattr(mc_engine, "_trial_rngs", lambda *key: [wrap(r) for r in seed_block(*key)])
    monkeypatch.setattr(limits, "_restart", lambda rng: wrap(restart(rng)))


class TestFirstExitBatchAgainstWholePaths:
    """Gaussian walks and drift-free cpp paths find their first exits on
    blocks of trials; the values must be those of whole paths scanned from
    the start one at a time, bit for bit."""

    @pytest.mark.parametrize("n_steps", [1, 63, 64, 65, 320, 321, 2000])
    @pytest.mark.parametrize("d", [1, 2, 3, 8, 16])
    @pytest.mark.parametrize(
        "spec",
        [
            StableSpec(flavor="brownian"),
            StableSpec(alpha=2.0, c=1.5),
            StableSpec(alpha=2.0, c=0.02),
        ],
        ids=["brownian", "isotropic_c1.5", "isotropic_c0.02"],
    )
    def test_same_values_as_whole_paths(self, spec, d, n_steps):
        spec = StableSpec(alpha=spec.alpha, c=spec.c, d=d, flavor=spec.flavor)
        # horizon 40 holds exits; 1e-3 is too short for any, so the batch is empty
        for horizon, exits in ((40.0, True), (1e-3, False)):
            for name, value in (("t", lambda t, x: t), ("x0", lambda t, x: float(x[0]))):
                args = (spec, horizon, n_steps, 40, 11, f"first_exit_{name}", value)
                got = _first_exit_values(*args)
                assert got.tobytes() == first_exit_values_whole(*args).tobytes()
                assert (got.size > 0) == exits

    @pytest.mark.parametrize("d", [2, 8])
    def test_a_walk_is_drawn_only_to_the_piece_with_its_first_exit(self, monkeypatch, d):
        drawn = {}  # normals taken from each trial's generator

        class Counting:
            def __init__(self, rng):  # keyed by the trial's initial state
                self.rng, self.key = rng, rng.bit_generator.state["state"]["state"]

            def __getattr__(self, name):
                return getattr(self.rng, name)

            def standard_normal(self, size=None, out=None):
                got = self.rng.standard_normal(size, out=out)
                drawn[self.key] = drawn.get(self.key, 0) + got.size
                return got

        spec = StableSpec(flavor="brownian", d=d)
        value = lambda t, x: (t, *x)  # noqa: E731
        # a step of 0.02 exits within the first piece; horizon 1e-3 never exits
        for horizon, exits in ((40.0, True), (1e-3, False)):
            args = (spec, horizon, 2000, 40, 5, "first_exit", value)
            want = first_exit_values_whole(*args)
            drawn.clear()
            _wrap_generators(monkeypatch, Counting)
            got = _first_exit_values(*args)
            monkeypatch.undo()
            assert got.tobytes() == want.tobytes()
            assert len(drawn) == 40
            if exits:
                assert len(got) == 40 and max(drawn.values()) < 2000 * d
            else:
                assert len(got) == 0 and set(drawn.values()) == {2000 * d}

    def test_heavy_tailed_and_cpp_paths_unchanged(self):
        for spec, horizon, n_steps in (
            (StableSpec(alpha=1.5, c=1.0, d=2), 40.0, 2000),
            (HEAVY, 20.0, 1),
            (DRIFT_ONLY, 10.0, 1),
        ):
            args = (spec, horizon, n_steps, 40, 12, "first_exit", lambda t, x: t)
            assert _first_exit_values(*args).tobytes() == first_exit_values_whole(*args).tobytes()
        # drift-free cpp paths run in blocks of trials (64, or fewer when a
        # path holds many jumps); x0 sees the signed zero that the drift adds
        values = (("t", lambda t, x: t), ("x0", lambda t, x: float(x[0])))
        for law, d, rate in itertools.product(("pareto", "gaussian"), (2, 3), (0.3, 10.0)):
            spec = StableSpec(d=d, flavor="cpp", jump_law=law, tail_alpha=1.2, jump_rate=rate)
            # 60 jumps a path, 400 (smaller blocks), or almost surely none
            for horizon, exits in ((60.0 / rate, True), (400.0 / rate, True), (1e-9, False)):
                for trials, (name, value) in itertools.product((1, 63, 64, 65, 200), values):
                    args = (spec, horizon, 1, trials, 12, f"first_exit_{name}", value)
                    got = _first_exit_values(*args)
                    assert got.tobytes() == first_exit_values_whole(*args).tobytes()
                    assert (got.size > 0) == exits

    @pytest.mark.parametrize("edge", ["zero_time", "repeated_time", "negative_zero"])
    @pytest.mark.parametrize("law", ["pareto", "gaussian"])
    def test_cpp_edge_draws_match_whole_paths(self, monkeypatch, law, edge):
        # every generator's jump times get a time 0, which sample_cpp_path
        # drops, or a repeated time, which it merges: such a row is drawn
        # again whole. Or every jump's first coordinate is -0.0, so the exit
        # point's is too until the path adds its drift, +0.0
        class Stub:
            def __init__(self, rng):
                self.rng, self.first = rng, True

            def __getattr__(self, name):
                return getattr(self.rng, name)

            def random(self, size=None, out=None):
                got = self.rng.random(size, out=out)
                if self.first and got.size > 1 and edge != "negative_zero":
                    got[1] = 0.0 if edge == "zero_time" else got[0]
                self.first = False
                return got

            def standard_normal(self, size=None, out=None):
                got = self.rng.standard_normal(size, out=out)
                if edge == "negative_zero":
                    got[..., 0] = -0.0
                return got

        _wrap_generators(monkeypatch, Stub)
        spec = StableSpec(d=2, flavor="cpp", jump_law=law, tail_alpha=1.5, jump_rate=5.0)
        args = (spec, 12.0, 1, 70, 3, "first_exit", lambda t, x: (t, *x))
        got = _first_exit_values(*args)
        assert got.tobytes() == first_exit_values_whole(*args).tobytes()
        assert got.size > 0

    @pytest.mark.parametrize("n", [2, 3])
    def test_cpp_blocks_split_across_processes(self, monkeypatch, n):
        # n CPUs reported, so n processes split the blocks on any host; 150
        # trials are 3 blocks of 50
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)
        args = (HEAVY, 20.0, 1, 150, 5, "first_exit", lambda t, x: (t, *x))
        serial = _first_exit_values(*args)
        with _processes(n) as team:
            got = _first_exit_values(*args)
        assert team.processes == n
        assert got.tobytes() == serial.tobytes()
        with pytest.raises(ChildProcessError):  # every worker was reaped
            os.waitpid(-1, os.WNOHANG)


TINY_C = math.nextafter(1e-12, math.inf)  # StableSpec takes c > 1e-12


def _count_bytes(spec, dt, trials, seed=13, t=4.0):
    """(block, per-trial) bytes of the renewal counts over [0, t] of
    ``trials`` walks of ``spec``."""
    n = _walk_steps(spec.flavor, t, dt)
    one = lambda rng: _scan_for(spec, t, n, rng, exit_times).n_exits / t  # noqa: E731
    got = _exit_values(spec, t, n, trials, seed, "renewal")
    return np.array(got).tobytes(), np.array(trial_values(seed, "renewal", trials, one)).tobytes()


def _walk_block_bytes(spec, dt, trials, seed=13, t=4.0):
    """(block, per-trial) bytes of the renewal counts over [0, t] and the
    first exits (time, *point) over [0, 40] of ``trials`` walks of ``spec``."""
    got, want = _count_bytes(spec, dt, trials, seed, t)
    args = (spec, 40.0, _walk_steps(spec.flavor, 40.0, dt), trials, seed, "first_exit",
            lambda t, x: (t, *x))
    return ([got, _first_exit_values(*args).tobytes()],
            [want, first_exit_values_whole(*args).tobytes()])


def _record_pieces(monkeypatch):
    """A list that gets (rows, steps) of every piece the walk kernel draws."""
    pieces, real = [], limits._walk_piece

    def piece(spec, n_steps, horizon, rngs, buf, lo, m):
        pieces.append((len(rngs), m))
        return real(spec, n_steps, horizon, rngs, buf, lo, m)

    monkeypatch.setattr(limits, "_walk_piece", piece)
    return pieces


class _EdgeStepRng:
    """``rng``'s normals, counted across calls so that a walk drawn whole and
    one drawn in pieces see the same steps, except that the first step's
    first coordinate is -0.0 and step ``zero`` is all zeros."""

    def __init__(self, rng, zero=5):
        self.rng, self.row, self.zero = rng, 0, zero

    def __getattr__(self, name):
        return getattr(self.rng, name)

    def standard_normal(self, size=None, out=None):
        got = self.rng.standard_normal(size, out=out)
        rows = got.reshape(-1, got.shape[-1])
        if self.row == 0:
            rows[0, 0] = -0.0
        if 0 <= self.zero - self.row < len(rows):
            rows[self.zero - self.row] = 0.0
        self.row += len(rows)
        return got


class TestWalkBlocksAgainstPerTrial:
    """Gaussian walks (alpha = 2) count their exits and find their first
    exits on lock-step blocks of trials; the values must be those of the
    per-trial scans of whole walks, bit for bit. The blocks' dots are
    numpy's stacked ``@`` for d <= 7 and ``_dot`` row by row for d >= 8,
    where ``@`` can round apart from the scanners (at d = 16 on an AVX-512
    OpenBLAS). dt = 2 gives steps that cross the sphere several times,
    c = 1e302 walks past 2**500, which the block hands to the per-trial
    path, and the smallest c never exits."""

    @pytest.mark.parametrize("c", [TINY_C, 1.0, 1e302], ids=["c1e-12", "c1", "c1e302"])
    @pytest.mark.parametrize("dt", [0.02, 0.5, 2.0])
    @pytest.mark.parametrize("d", [1, 2, 3, 5, 7, 8, 12, 16])
    def test_same_values_as_per_trial_scans(self, d, dt, c):
        # 129 trials are 2 to 9 blocks, as the dimension caps their rows
        got, want = _walk_block_bytes(StableSpec(alpha=2.0, c=c, d=d), dt, 129)
        assert got == want

    @pytest.mark.parametrize("counts_at_edge", [False, True], ids=["own_budget", "edge"])
    @pytest.mark.parametrize("c", [1e-4, 0.5])
    def test_one_row_one_step_blocks_in_1000_dimensions(self, monkeypatch, c, counts_at_edge):
        # under the first-exit budget a block holds one row from d = 257 and
        # a piece one step from d = 993; counts reach that edge when they
        # take that budget too, and under their own draw 2 rows at once. A
        # step is about 0.3 long at c = 1e-4 and 4.5 at c = 0.5
        if counts_at_edge:
            monkeypatch.setattr(limits, "_WALK_COUNT_VALUES", limits._WALK_BLOCK_VALUES)
        spec = StableSpec(alpha=2.0, c=c, d=1000)
        pieces = _record_pieces(monkeypatch)  # (rows, steps) of each piece
        got, want = _count_bytes(spec, 0.5, 3, t=2.0)
        assert got == want
        assert set(pieces) == ({(1, 1)} if counts_at_edge else {(1, 4), (2, 4)})
        pieces.clear()
        args = (spec, 40.0, 80, 3, 13, "first_exit", lambda t, x: (t, *x))
        assert _first_exit_values(*args).tobytes() == first_exit_values_whole(*args).tobytes()
        assert set(pieces) == {(1, 1)}

    @pytest.mark.parametrize("trials", [1, 63, 64, 65, 128, 129, 200])
    def test_trial_counts_across_block_edges(self, trials):
        for spec in (BROWNIAN2, StableSpec(alpha=2.0, c=1.3, d=3)):
            got, want = _walk_block_bytes(spec, 0.5, trials)
            assert got == want

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_signed_zero_and_zero_length_steps(self, monkeypatch, d):
        _wrap_generators(monkeypatch, _EdgeStepRng)
        for dt in (0.02, 2.0):
            got, want = _walk_block_bytes(StableSpec(alpha=2.0, c=0.7, d=d), dt, 70)
            assert got == want

    @pytest.mark.parametrize("d", [1, 2])
    def test_rows_past_2_to_the_500_are_scanned_alone(self, d):
        # at c = 8e307 a step squares past the largest double: _dot's
        # Dekker split gives NaN (and math.fsum overflows for d = 2) where
        # ``@`` stays finite, so only the per-trial path gives its values
        spec = StableSpec(alpha=2.0, c=8e307, d=d)
        args = (spec, 40.0, 20, 65, 7, "first_exit", lambda t, x: (t, *x))
        if d == 1:
            got = _first_exit_values(*args)
            assert got.tobytes() == first_exit_values_whole(*args).tobytes()
            assert np.isnan(got).any()
        else:
            with np.errstate(all="ignore"), pytest.raises(OverflowError):
                first_exit_values_whole(*args)
            with pytest.raises(OverflowError):
                _first_exit_values(*args)

    @pytest.mark.parametrize("n", [2, 3])
    def test_blocks_split_across_processes(self, monkeypatch, n):
        # n CPUs reported, so n processes split the blocks on any host; 300
        # trials are 3 blocks of 100
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)
        args = (BROWNIAN2, 40.0, 2000, 300, 5, "first_exit", lambda t, x: (t, *x))
        serial = (_exit_values(BROWNIAN2, 6.0, 300, 300, 5, "renewal"), _first_exit_values(*args))
        with _processes(n) as team:
            got = (_exit_values(BROWNIAN2, 6.0, 300, 300, 5, "renewal"), _first_exit_values(*args))
        assert team.processes == n
        assert np.array(got[0]).tobytes() == np.array(serial[0]).tobytes()
        assert got[1].tobytes() == serial[1].tobytes()
        with pytest.raises(ChildProcessError):  # every worker was reaped
            os.waitpid(-1, os.WNOHANG)


class TestCountWidths:
    """Count blocks draw each walk in pieces as wide as their budget,
    ``_WALK_COUNT_VALUES``, allows, and neither the piece width nor the row
    cap moves a count. With the budget patched down to one-step pieces and
    to pieces that end inside a W-point window, and up to one piece per
    walk, every count is that of the whole per-trial scan, bit for bit."""

    @pytest.mark.parametrize("budget", ["one_step", "straddle", "whole"])
    @pytest.mark.parametrize("dt", [0.02, 2.0])
    @pytest.mark.parametrize("d", [1, 2, 3, 8])
    def test_same_counts_as_per_trial_scans(self, monkeypatch, d, dt, budget):
        # 1 double: one-row blocks of one-step pieces; 1000 d: blocks of 6
        # and 7 rows, in pieces of 134 and 110 steps; 2**40: 40 rows, drawn whole
        values = {"one_step": 1, "straddle": 1000 * d, "whole": 1 << 40}[budget]
        monkeypatch.setattr(limits, "_WALK_COUNT_VALUES", values)
        pieces = _record_pieces(monkeypatch)
        got, want = _count_bytes(StableSpec(alpha=2.0, c=0.7, d=d), dt, 40, t=150 * dt)
        assert got == want
        if budget == "one_step":
            assert set(pieces) == {(1, 1)} and len(pieces) == 40 * 150
        elif budget == "straddle":
            assert {134, 110} <= {m for _, m in pieces}
        else:
            assert set(pieces) == {(40, 150)}


class TestWalkCountMemory:
    # A count block's largest array is its piece buffer, at most
    # _WALK_COUNT_VALUES doubles, and its finiteness test takes a max and a
    # min of the piece where np.abs made a copy. So the traced peak of
    # exit_scan's t = 100 block stays under 1.5x the budget's bytes, which
    # a second piece-sized temporary would pass. The call and the bound were
    # fixed before the first run. The short call before them imports
    # numpy.random, 0.8 MB that the first scan of a process would trace.
    def test_peak_allocation_under_one_and_a_half_budgets(self):
        _exit_values(BROWNIAN2, 1.0, 50, 2, 0, "renewal")
        tracemalloc.start()
        try:
            _exit_values(BROWNIAN2, 100.0, 5000, 100, 0, "renewal")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 8 * limits._WALK_COUNT_VALUES


# (spec, the scan _exit_values routes it to, for a count and for a first exit)
EXIT_ROUTES = {
    "brownian_d2": (BROWNIAN2, "_walk_kernel", "_walk_kernel"),
    "brownian_d8": (StableSpec(flavor="brownian", d=8), "_walk_kernel", "_walk_kernel"),
    "isotropic_alpha2": (StableSpec(alpha=2.0, c=0.7, d=3), "_walk_kernel", "_walk_kernel"),
    "isotropic_alpha1.5": (StableSpec(alpha=1.5, c=0.7, d=2), "trial_values", "trial_values"),
    "cpp": (HEAVY, "trial_values", "_cpp_kernel"),
    "cpp_drift": (StableSpec(d=2, flavor="cpp", tail_alpha=1.5, jump_rate=3.0, drift=(0.3, -0.2)),
                  "trial_values", "trial_values"),
}


class TestExitValuesRouting:
    """``_exit_values`` is the one entry point of the exit scans: it sends
    each spec to one kernel, or to the per-trial loop, and every route
    gives ``trial_values`` of the per-trial scan of whole paths, bit for
    bit."""

    @pytest.mark.parametrize("first", [False, True], ids=["count", "first_exit"])
    @pytest.mark.parametrize("key", EXIT_ROUTES)
    def test_route_and_values(self, monkeypatch, key, first):
        spec, count_route, first_route = EXIT_ROUTES[key]
        horizon, n = 4.0, 1 if spec.flavor == "cpp" else 200
        value = (lambda t, x: (t, *x)) if first else None

        def one(rng):  # the scan of one whole path
            if value is None:
                return _scan_for(spec, horizon, n, rng, exit_times).n_exits / horizon
            got = next(_scan_for(spec, horizon, n, rng, _exits), None)
            return None if got is None else value(*got)

        want = trial_values(17, "route", 70, one)
        calls = dict.fromkeys(("_walk_kernel", "_cpp_kernel", "trial_values"), 0)
        for name in calls:
            real = getattr(limits, name)

            def counted(*args, _name=name, _real=real):
                calls[_name] += 1
                return _real(*args)

            monkeypatch.setattr(limits, name, counted)
        got = _exit_values(spec, horizon, n, 70, 17, "route", value)
        assert {k for k, v in calls.items() if v} == {first_route if first else count_route}
        as_bytes = lambda vals: [v if v is None else np.array(v).tobytes() for v in vals]  # noqa: E731
        assert as_bytes(got) == as_bytes(want)
        assert any(v is not None for v in want)


def _walk_in_pieces(spec, n_steps, horizon, rngs, width):
    """The points of walks drawn by ``_walk_piece`` in pieces of ``width``
    steps, one walk per generator."""
    pts = np.zeros((len(rngs), n_steps + 1, spec.d))
    buf = np.zeros((len(rngs), width + 1, spec.d))
    lo = 0
    while lo < n_steps:
        m = min(width, n_steps - lo)
        _walk_piece(spec, n_steps, horizon, rngs, buf, lo, m)
        pts[:, lo + 1 : lo + m + 1] = buf[:, 1 : m + 1]
        buf[:, 0] = buf[:, m]
        lo += m
    return pts


class _SignedZeroRng:
    """Normals that are all -0.0 or +0.0, so the walk's sums show whether a
    step was added to a carried 0.0 (which drops the sign) or not."""

    def __init__(self, n, d):
        self.rows = np.where(np.arange(n * d).reshape(n, d) % 3 == 0, -0.0, 0.0)

    def standard_normal(self, size=None, out=None):
        n = len(out) if out is not None else size[0]
        got, self.rows = self.rows[:n], self.rows[n:]
        if out is None:
            return got.copy()
        out[...] = got
        return out


class TestWalkPieces:
    """``_walk_piece`` draws the blocks' walks piece by piece; the pieces
    put together are ``sample_walk_path``'s walks, bit for bit."""

    @given(
        spec=st.sampled_from(
            [
                StableSpec(flavor="brownian", d=2),
                StableSpec(alpha=2.0, c=1.7, d=1),
                StableSpec(alpha=2.0, c=0.05, d=3),
                StableSpec(alpha=2.0, c=0.5, d=7),
            ]
        ),
        n_steps=st.one_of(st.integers(1, 70), st.integers(240, 1100)),
        horizon=st.floats(1e-3, 1e3),
        seed=st.integers(0, 2**64 - 1),
        width=st.integers(1, 300),
        walks=st.integers(1, 3),
    )
    @settings(max_examples=150, deadline=None)
    def test_pieces_make_the_whole_walk(self, spec, n_steps, horizon, seed, width, walks):
        rngs = [np.random.default_rng([seed, k]) for k in range(walks)]
        pts = _walk_in_pieces(spec, n_steps, horizon, rngs, width)
        for k in range(walks):
            whole = sample_walk_path(spec, n_steps, horizon, np.random.default_rng([seed, k]))
            assert pts[k].tobytes() == whole.points.tobytes()

    @pytest.mark.parametrize("width", [1, 64, 300])
    @pytest.mark.parametrize("n_steps", [1, 64, 65, 300])
    def test_signed_zero_steps_sum_as_in_one_cumsum(self, n_steps, width):
        spec = StableSpec(flavor="brownian", d=2)
        pts = _walk_in_pieces(spec, n_steps, 2.0, [_SignedZeroRng(n_steps, 2)], width)
        want = sample_walk_path(spec, n_steps, 2.0, _SignedZeroRng(n_steps, 2))
        assert pts[0].tobytes() == want.points.tobytes()
        _, frozen = _frozen_walk_path(spec, n_steps, 2.0, _SignedZeroRng(n_steps, 2))
        assert want.points.tobytes() == frozen.tobytes()
        assert np.signbit(pts[0, 1, 0])  # the first step is -0.0, not 0.0 + -0.0

    def test_a_piece_draws_only_its_own_normals(self):
        spec = StableSpec(flavor="brownian", d=2)
        rng = np.random.default_rng(5)
        _walk_piece(spec, 2000, 40.0, [rng], np.zeros((1, 65, 2)), 0, 64)
        ref = np.random.default_rng(5)
        ref.standard_normal((64, 2))
        assert rng.bit_generator.state == ref.bit_generator.state


class TestRenewalRatio:
    def test_pure_drift_rate_is_exactly_two(self):
        res = renewal_ratio_experiment(
            DRIFT_ONLY, [10.0], trials=50, seed=0, et1_trials=50
        )
        r = res[0]
        assert r.mean == 2.0
        assert r.stderr == 0.0
        assert r.target.value == 2.0

    def test_brownian_ratio_approaches_independent_rate(self):
        res = renewal_ratio_experiment(
            BROWNIAN2, [5.0, 50.0], trials=300, seed=2, dt=0.02, et1_trials=800
        )
        gaps = [abs(r.mean - r.target.value) / r.target.value for r in res]
        assert gaps[1] < gaps[0]
        r = res[1]
        rate_err = r.target.value * (
            r.target.params["et1_stderr"] / r.target.params["et1_mean"]
        )
        combined = math.hypot(r.stderr, rate_err)
        assert abs(r.mean - r.target.value) < 4.0 * combined

    def test_slow_cpp_paths_exit_within_the_default_horizon(self):
        # at horizon 40 almost no path exited at jump rate 0.001, and the
        # E T_1 batch raised; at 40 / 0.001 every one of the 50 exits
        (r,) = renewal_ratio_experiment(SLOW_GAUSSIAN, [2.0], trials=2, et1_trials=50)
        assert r.target.params["et1_trials"] == 50

    def test_tiny_horizon_ratio_is_small_and_nonnegative(self):
        res = renewal_ratio_experiment(
            BROWNIAN2, [0.05], trials=120, seed=1, dt=0.005, et1_trials=120
        )
        assert 0.0 <= res[0].mean < 2.0

    def test_validation(self):
        with pytest.raises(ParameterError):
            renewal_ratio_experiment(BROWNIAN2, [], trials=100, seed=0)
        with pytest.raises(ParameterError):
            renewal_ratio_experiment(BROWNIAN2, [1.0, -2.0], trials=100, seed=0)
        with pytest.raises(ParameterError):
            renewal_ratio_experiment(BROWNIAN2, [1.0], trials=1, seed=0)

    @pytest.mark.parametrize(
        "t_values,dt", [([2.0], 1e-300), ([2.0, 1e5], 0.02)], ids=["et1_batch", "largest_t"]
    )
    def test_walk_longer_than_the_step_cap_refused(self, t_values, dt):
        with pytest.raises(ResourceError, match="cap of 1000000"):
            renewal_ratio_experiment(BROWNIAN2, t_values, trials=2, dt=dt, et1_trials=2)


class TestScaledHullConvergence:
    def test_heavy_tail_ks_statistic_decreases(self):
        spec = StableSpec(
            alpha=1.5, c=1.0, d=2, flavor="cpp", tail_alpha=1.5, jump_rate=1.0
        )
        gaps = []
        for seed in range(3):
            lo, _, _ = scaled_hull_convergence(spec, [1e2], trials=300, seed=seed)[0]
            hi, _, rep = scaled_hull_convergence(spec, [1e4], trials=300, seed=seed)[0]
            gaps.append(lo - hi)
            assert rep["alpha"] == 1.5
        assert sum(g > 0 for g in gaps) >= 2
        assert float(np.mean(gaps)) > 0.02

    def test_gaussian_jumps_share_the_trend_at_sqrt_scaling(self):
        spec = StableSpec(
            alpha=2.0, c=0.5, d=2, flavor="cpp", jump_law="gaussian", jump_rate=2.0
        )
        lo, _, rep_lo = scaled_hull_convergence(spec, [1e2], trials=300, seed=4)[0]
        hi, p_hi, rep_hi = scaled_hull_convergence(spec, [1e4], trials=300, seed=4)[0]
        assert rep_lo["alpha"] == 2.0
        assert hi < lo
        assert p_hi > 0.05

    def test_split_sample_self_comparison_passes(self):
        spec = StableSpec(alpha=1.5, c=1.35, d=2)
        stream = stream_id("split_self")
        ok = 0
        runs = 20
        for seed in range(runs):
            vals = np.empty(300)
            for k in range(300):
                p = sample_walk_path(spec, 700, 1.0, trial_rng(seed, stream, k))
                vals[k] = intrinsic_volumes_2d(hull2d(p.points))[1]
            _, pv = ks_two_sample(vals[:150], vals[150:])
            ok += pv > 0.01
        assert ok >= 19

    def test_validation(self):
        with pytest.raises(ConfigError):
            scaled_hull_convergence(BROWNIAN2, [1e3], trials=100, seed=0)
        heavy = StableSpec(
            alpha=1.5, c=1.0, d=2, flavor="cpp", tail_alpha=1.5, jump_rate=1.0
        )
        with pytest.raises(ParameterError):
            scaled_hull_convergence(heavy, [5.0], trials=100, seed=0)
        with pytest.raises(ParameterError):
            scaled_hull_convergence(heavy, [1e3], trials=5, seed=0)

    def test_heavy_tail_bounds_enforced_upstream(self):
        with pytest.raises(ParameterError):
            StableSpec(
                alpha=1.5, c=1.0, d=2, flavor="cpp", tail_alpha=2.5, jump_rate=1.0
            )


class TestExitValueTail:
    def test_pareto_overshoot_recovers_tail_index(self):
        est = exit_value_tail_experiment(HEAVY, trials=6000, seed=5)
        assert abs(est - 1.5) < 0.2

    def test_lower_tail_index_also_recovered(self):
        spec = StableSpec(
            alpha=1.5, c=1.0, d=2, flavor="cpp", tail_alpha=0.8, jump_rate=3.0
        )
        est = exit_value_tail_experiment(spec, trials=4000, seed=3)
        assert abs(est - 0.8) < 0.25

    def test_gaussian_jumps_flagged_as_light(self):
        spec = StableSpec(
            alpha=2.0, c=0.5, d=2, flavor="cpp", jump_law="gaussian", jump_rate=2.0
        )
        est = exit_value_tail_experiment(spec, trials=3000, seed=1)
        assert est > 3.0

    def test_pure_drift_is_degenerate(self):
        assert exit_value_tail_experiment(DRIFT_ONLY, trials=100, seed=7) == math.inf

    def test_validation(self):
        with pytest.raises(ConfigError):
            exit_value_tail_experiment(BROWNIAN2, trials=100, seed=0)
        with pytest.raises(ParameterError):
            exit_value_tail_experiment(HEAVY, trials=5, seed=0)


class TestRenewalInvariants:
    def test_exit_increments_are_iid_across_ranks(self):
        first, second = [], []
        stream = stream_id("iid_check")
        for k in range(400):
            path = sample_walk_path(BROWNIAN2, 2000, 6.0, trial_rng(0, stream, k))
            rec = exit_times(path, mode="linear")
            if rec.n_exits >= 2:
                anchors = np.vstack([np.zeros(2), rec.exit_points])
                steps = np.diff(anchors, axis=0)
                first.append(steps[0, 0])
                second.append(steps[1, 0])
        assert len(first) > 320
        _, p = ks_two_sample(np.asarray(first), np.asarray(second))
        assert p > 0.01

    def test_count_second_moment_stable_under_trial_doubling(self):
        def second_moment(trials, seed):
            stream = stream_id("count_moment")
            vals = np.empty(trials)
            for k in range(trials):
                path = sample_walk_path(
                    BROWNIAN2, 2500, 5.0, trial_rng(seed, stream, k)
                )
                vals[k] = exit_times(path).n_exits ** 2
            return vals.mean(), vals.std(ddof=1) / math.sqrt(trials)

        m1, s1 = second_moment(250, 1)
        m2, s2 = second_moment(500, 2)
        assert abs(m1 - m2) < 4.0 * math.hypot(s1, s2)

    def test_path_hull_sandwiched_by_anchor_hull_plus_unit_ball(self):
        for seed in range(8):
            path = sample_walk_path(BROWNIAN2, 3000, 6.0, np.random.default_rng(seed))
            rec = exit_times(path)
            anchors = np.vstack([np.zeros(2), rec.exit_points])
            gap = hausdorff(hull2d(anchors), hull2d(path.points))
            assert gap <= 1.0 + 1e-9


# -- stream pins -------------------------------------------------------
#
# Each experiment is recomputed from a loop written out here: trial t
# draws from trial_rng(seed, stream_id(<the site's stream name>), t), and
# the values are reduced in trial-index order. Equality is exact.

PIN_SEED = 4
DRIFTING = StableSpec(
    alpha=1.5, c=1.0, d=2, flavor="cpp", tail_alpha=1.5, jump_rate=1.0,
    drift=(0.5, 0.0),
)


def _hand_loop(name, fn, trials, seed=PIN_SEED):
    stream = stream_id(name)
    return [fn(trial_rng(seed, stream, t)) for t in range(trials)]


def _hand_record(spec, horizon, n_steps, rng):
    """The exit record of one sampled path, in the exact convention."""
    if spec.flavor != "cpp":
        return exit_times(sample_walk_path(spec, n_steps, horizon, rng), mode="linear")
    path = sample_cpp_path(spec, horizon, rng)
    if spec.drift is not None and any(spec.drift):
        return exit_times(path, drift=np.asarray(spec.drift))
    return exit_times(path, mode="grid")


def _triple(r):
    return (r.mean, r.stderr, r.trials)


def _hand_mean_exit(spec, trials, seed, horizon, dt):
    n_steps = max(1, int(round(horizon / dt)))
    recs = _hand_loop(
        "mean_exit_time", lambda rng: _hand_record(spec, horizon, n_steps, rng),
        trials, seed,
    )
    got = [rec.exit_times[0] for rec in recs if rec.n_exits]
    return EstimateResult.from_samples(np.array(got))


def _pin_mean_exit(spec, horizon):
    r = estimate_mean_exit_time(spec, trials=60, seed=PIN_SEED, horizon=horizon, dt=0.05)
    return _triple(r), _triple(_hand_mean_exit(spec, 60, PIN_SEED, horizon, 0.05))


def _pin_renewal(spec):
    t_values, dt = [2.0, 5.0], 0.05
    rs = renewal_ratio_experiment(
        spec, t_values, trials=30, seed=PIN_SEED, dt=dt, et1_trials=40
    )
    got = [(_triple(r), r.target.value) for r in rs]
    rate = 1.0 / _hand_mean_exit(spec, 40, PIN_SEED + 1, 40.0, dt).mean
    expected = []
    for t_idx, t in enumerate(t_values):
        n_steps = max(1, int(round(t / dt)))
        vals = _hand_loop(
            f"renewal_ratio_{t_idx}",
            lambda rng: _hand_record(spec, t, n_steps, rng).n_exits / t,
            30,
        )
        expected.append((_triple(EstimateResult.from_samples(np.array(vals))), rate))
    return got, expected


def _pin_exit_tail(spec):
    est = exit_value_tail_experiment(spec, trials=200, seed=PIN_SEED, k=30)
    horizon = 60.0 / spec.jump_rate
    recs = _hand_loop(
        "exit_value_tail", lambda rng: _hand_record(spec, horizon, 1, rng), 200
    )
    norms = [np.linalg.norm(rec.exit_points[0]) for rec in recs if rec.n_exits]
    return est, hill_tail_index(np.array(norms), 30)


def _pin_scaled_hull(spec):
    stat, p_value, report = scaled_hull_convergence(
        spec, [20.0], trials=20, seed=PIN_SEED, n_steps_limit=100
    )[0]
    got = (stat, report["et1_mean"], report["fitted_c"],
           report["mean_long"], report["mean_limit"])
    recs = _hand_loop(
        "scaled_hull_fit",
        lambda rng: _hand_record(spec, 60.0 / spec.jump_rate, 1, rng),
        300,
    )
    recs = [rec for rec in recs if rec.n_exits]
    et1 = float(np.concatenate([np.diff(r.exit_times, prepend=0.0) for r in recs]).mean())
    incs = np.concatenate(
        [np.diff(np.vstack([np.zeros(2), r.exit_points]), axis=0)[:, 0] for r in recs]
    )
    c_fit = _fit_attractor_scale(incs, spec.tail_alpha)
    factor = 20.0 ** (-1.0 / spec.tail_alpha)
    long = _hand_loop(
        "scaled_hull_long",
        lambda rng: intrinsic_volumes_2d(
            hull2d(factor * sample_cpp_path(spec, 20.0, rng).points)
        )[1],
        20,
    )
    limit_spec = StableSpec(alpha=spec.tail_alpha, c=c_fit, d=2)
    limit = _hand_loop(
        "scaled_hull_limit",
        lambda rng: intrinsic_volumes_2d(
            hull2d(sample_walk_path(limit_spec, 100, 1.0 / et1, rng).points)
        )[1],
        20,
    )
    stat_ref, _ = ks_two_sample(long, limit)
    return got, (stat_ref, et1, c_fit, float(np.mean(long)), float(np.mean(limit)))


STREAM_PINS = {
    "mean_exit_time-brownian": lambda: _pin_mean_exit(BROWNIAN2, 5.0),
    "mean_exit_time-cpp": lambda: _pin_mean_exit(HEAVY, 10.0),
    "mean_exit_time-cpp_drift": lambda: _pin_mean_exit(DRIFTING, 10.0),
    "renewal_ratio-brownian": lambda: _pin_renewal(BROWNIAN2),
    "renewal_ratio-cpp_drift": lambda: _pin_renewal(DRIFTING),
    "exit_value_tail": lambda: _pin_exit_tail(HEAVY),
    "scaled_hull": lambda: _pin_scaled_hull(HEAVY),
}


class TestStreamPins:
    @pytest.mark.parametrize("pin", STREAM_PINS.values(), ids=STREAM_PINS.keys())
    def test_experiment_equals_hand_written_trial_loop(self, pin):
        got, expected = pin()
        assert got == expected
