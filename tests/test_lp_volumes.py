"""L_p support arithmetic, ball mixed volumes, and the two verification
experiments. Deterministic identities are pinned near machine precision;
Monte Carlo checks use generous sigma bands at small scale."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levyhull import (
    Ball,
    DomainError,
    EstimateResult,
    ParameterError,
    StableSpec,
    SupportFn,
    ev_sup_brownian_pow,
    hull2d,
    hull3d,
    intrinsic_volumes_2d,
    lp_sum_support,
    sample_walk_path,
    stream_id,
    trial_rng,
    unit_ball_volume,
    verify_lp_brownian,
    verify_lp_stable_consistency,
    vp_ball_mixed,
)
from levyhull.lp_volumes import _circle_grid, _hull_vp_one_trial, _sup_pow_stable_1d


def _square(half=0.5):
    return hull2d(
        np.array([[-half, -half], [half, -half], [half, half], [-half, half]])
    )


def _wavy_polygon(n_verts=100, amp=0.05, waves=3):
    # radius 1 + amp*cos(waves*t) stays convex for small amp, so all
    # n_verts points are hull vertices
    t = np.linspace(0.0, 2.0 * math.pi, n_verts, endpoint=False)
    r = 1.0 + amp * np.cos(waves * t)
    return hull2d(np.column_stack([r * np.cos(t), r * np.sin(t)]))


def _random_origin_polygon(seed, n=40):
    rng = np.random.default_rng(seed)
    return hull2d(rng.standard_normal((n, 2)))


class TestSupportFn:
    def test_ball_values(self):
        f = SupportFn(Ball(1.5))
        assert f([1.0, 0.0]) == pytest.approx(1.5)
        assert f([0.0, 0.0, 1.0]) == pytest.approx(1.5)

    def test_polytope_values_match_vertex_max(self):
        poly = _random_origin_polygon(1)
        f = SupportFn(poly)
        rng = np.random.default_rng(2)
        u = rng.standard_normal((50, 2))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        expect = (u @ poly.vertices.T).max(axis=1)
        assert np.allclose(f.values(u), expect)

    def test_rejects_body_missing_origin(self):
        poly = hull2d(np.random.default_rng(0).standard_normal((30, 2)) + 4.0)
        with pytest.raises(DomainError):
            SupportFn(poly)

    def test_rejects_negative_radius_and_bad_body(self):
        with pytest.raises(ParameterError):
            Ball(-1.0)
        with pytest.raises(ParameterError):
            SupportFn("not a body")

    def test_dimension_mismatch(self):
        f = SupportFn(_square())
        with pytest.raises(ParameterError):
            f.values(np.eye(3))

    def test_segment_and_point_bodies(self):
        seg = hull2d(np.array([[-1.0, -2.0], [0.5, 1.0], [-0.25, -0.5]]))
        assert seg.intrinsic_dim == 1
        f = SupportFn(seg)
        assert f([0.0, 1.0]) == pytest.approx(1.0)
        pt = hull2d(np.zeros((3, 2)))
        assert SupportFn(pt)([1.0, 0.0]) == pytest.approx(0.0)

    def test_square_break_angles(self):
        f = SupportFn(_square())
        expect = [0.0, math.pi / 2, math.pi, 3 * math.pi / 2]
        assert np.allclose(np.sort(f.break_angles()), expect, atol=1e-12)


class TestLpSum:
    def test_two_unit_balls_p2(self):
        f = lp_sum_support(SupportFn(Ball(1.0)), SupportFn(Ball(1.0)), 2.0)
        for u in ([1.0, 0.0], [0.6, 0.8], [0.0, -1.0]):
            assert f(u) == pytest.approx(math.sqrt(2.0), rel=1e-14)

    def test_p1_is_minkowski_additive(self):
        sq = _square()
        fa, fb = SupportFn(sq), SupportFn(sq)
        f = lp_sum_support(fa, fb, 1.0)
        rng = np.random.default_rng(5)
        u = rng.standard_normal((40, 2))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        assert np.allclose(f.values(u), 2.0 * fa.values(u), rtol=1e-14)

    def test_large_p_tends_to_max(self):
        sq = _square()
        fa = SupportFn(Ball(2.0))
        fb = SupportFn(sq)
        f = lp_sum_support(fa, fb, 1e4)
        rng = np.random.default_rng(6)
        u = rng.standard_normal((100, 2))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        target = np.maximum(fa.values(u), fb.values(u))
        assert np.max(np.abs(f.values(u) - target)) < 1e-6

    @given(p=st.floats(min_value=1.0, max_value=50.0))
    @settings(max_examples=25, deadline=None)
    def test_dominates_both_summands(self, p):
        fa = SupportFn(_random_origin_polygon(11))
        fb = SupportFn(Ball(0.7))
        f = lp_sum_support(fa, fb, p)
        u = np.random.default_rng(7).standard_normal((30, 2))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        vals = f.values(u)
        assert np.all(vals >= np.maximum(fa.values(u), fb.values(u)) - 1e-12)

    def test_validation(self):
        f = SupportFn(Ball(1.0))
        with pytest.raises(ParameterError):
            lp_sum_support(f, f, 0.5)
        with pytest.raises(ParameterError):
            lp_sum_support(f, "nope", 2.0)


class TestVpBallMixed:
    def test_ball_gives_pi_r_pow_p(self):
        for p in (1.0, 2.0, 3.5):
            for r in (0.5, 1.0, 1.3):
                v = vp_ball_mixed(SupportFn(Ball(r)), p, 2)
                assert v == pytest.approx(math.pi * r**p, rel=1e-12)

    def test_ball_self_is_kappa_d(self):
        assert vp_ball_mixed(SupportFn(Ball(1.0)), 2.0, 2) == pytest.approx(
            unit_ball_volume(2), rel=1e-12
        )
        v3 = vp_ball_mixed(
            SupportFn(Ball(1.0)), 2.0, 3, quad_points=50_000,
            rng=np.random.default_rng(1),
        )
        assert v3 == pytest.approx(unit_ball_volume(3), rel=1e-12)

    def test_square_analytic_values(self):
        sq = _square()
        # h = (|cos| + |sin|)/2: integral of h is the perimeter (4), and
        # integral of h^2 is (2 pi + 4)/4
        assert vp_ball_mixed(SupportFn(sq), 1.0, 2) == pytest.approx(2.0, rel=1e-12)
        assert vp_ball_mixed(SupportFn(sq), 2.0, 2) == pytest.approx(
            (2.0 * math.pi + 4.0) / 8.0, rel=1e-12
        )

    def test_cauchy_perimeter_identity(self):
        for seed in (3, 17, 40):
            poly = _random_origin_polygon(seed)
            per = 2.0 * intrinsic_volumes_2d(poly)[1]
            lhs = 2.0 * vp_ball_mixed(SupportFn(poly), 1.0, 2)
            assert lhs == pytest.approx(per, rel=1e-6)

    def test_quad_doubling_stable_for_100gon(self):
        f = SupportFn(_wavy_polygon(100))
        assert f.body.n_vertices == 100
        for p in (1.0, 2.0, 4.0):
            a = vp_ball_mixed(f, p, 2, quad_points=4096)
            b = vp_ball_mixed(f, p, 2, quad_points=8192)
            assert abs(a - b) < 1e-8

    def test_monotone_under_inclusion(self):
        inner = _square(0.4)
        outer = _square(0.9)
        for p in (1.0, 2.5):
            vi = vp_ball_mixed(SupportFn(inner), p, 2)
            vo = vp_ball_mixed(SupportFn(outer), p, 2)
            assert vi < vo

    def test_lp_sum_body_integrates(self):
        f = lp_sum_support(SupportFn(_square()), SupportFn(Ball(0.7)), 2.0)
        a = vp_ball_mixed(f, 2.0, 2, quad_points=4096)
        b = vp_ball_mixed(f, 2.0, 2, quad_points=8192)
        assert abs(a - b) < 1e-8
        # dominated by summands, dominates each one
        assert a > vp_ball_mixed(SupportFn(_square()), 2.0, 2)
        assert a > vp_ball_mixed(SupportFn(Ball(0.7)), 2.0, 2)

    def test_validation(self):
        f = SupportFn(Ball(1.0))
        with pytest.raises(ParameterError):
            vp_ball_mixed(f, 0.3, 2)
        with pytest.raises(ParameterError):
            vp_ball_mixed(f, 1.0, 4)
        with pytest.raises(ParameterError):
            vp_ball_mixed(f, 1.0, 2, quad_points=4)

    def test_accepts_raw_bodies(self):
        assert vp_ball_mixed(Ball(1.0), 1.0, 2) == pytest.approx(math.pi, rel=1e-12)


class TestVerifyLpBrownian:
    def test_target_constants(self):
        r1 = verify_lp_brownian(1.0, trials=2, n_steps=8, seed=0)
        assert r1.target.value == pytest.approx(math.sqrt(2.0 * math.pi), rel=1e-14)
        r2 = verify_lp_brownian(2.0, trials=2, n_steps=8, seed=0)
        assert r2.target.value == pytest.approx(math.pi, rel=1e-14)
        # both routes to the constant agree for general p
        for p in (1.0, 1.7, 3.0):
            a = ev_sup_brownian_pow(p) * 2.0 ** (-p / 2.0) * unit_ball_volume(2)
            b = 2.0 ** (p / 2.0) / math.sqrt(math.pi) * math.gamma(
                (p + 1.0) / 2.0
            ) * unit_ball_volume(2)
            assert a == pytest.approx(b, rel=1e-13)

    def test_small_run_lands_near_target(self):
        r = verify_lp_brownian(1.0, trials=300, n_steps=4000, seed=1)
        assert r.stderr > 0
        # inner-hull bias is about -1% at this n, band stays generous
        assert abs(r.mean - r.target.value) < max(5.0 * r.stderr, 0.05 * r.target.value)

    def test_reproducible(self):
        a = verify_lp_brownian(1.0, trials=50, n_steps=500, seed=9)
        b = verify_lp_brownian(1.0, trials=50, n_steps=500, seed=9)
        assert a.mean == b.mean and a.stderr == b.stderr

    def test_validation(self):
        with pytest.raises(ParameterError):
            verify_lp_brownian(0.5, trials=10, n_steps=10)
        with pytest.raises(ParameterError):
            verify_lp_brownian(1.0, d=5, trials=10, n_steps=10)
        with pytest.raises(ParameterError):
            verify_lp_brownian(1.0, trials=1, n_steps=10)


class TestVerifyLpStableConsistency:
    def test_domain_validation(self):
        with pytest.raises(DomainError):
            verify_lp_stable_consistency(1.5, p=1.5)  # p = alpha diverges
        with pytest.raises(DomainError):
            verify_lp_stable_consistency(1.5, p=1.8)
        with pytest.raises(DomainError):
            verify_lp_stable_consistency(2.0, p=1.0)
        with pytest.raises(DomainError):
            verify_lp_stable_consistency(0.9, p=1.0)

    def test_two_routes_agree_small_scale(self):
        h, s = verify_lp_stable_consistency(
            1.5, c=1.0, p=1.0, trials=250, n_steps=2000,
            grid_n=2000, sup_paths=8000, seed=2,
        )
        gap = abs(h.mean - s.mean)
        sigma = math.hypot(h.stderr, s.stderr)
        assert gap < max(4.0 * sigma, 0.05 * s.mean)

    def test_c_scaling_is_exact_for_shared_seed(self):
        kw = dict(p=1.0, trials=40, n_steps=400, grid_n=500, sup_paths=500, seed=3)
        h1, s1 = verify_lp_stable_consistency(1.5, c=1.0, **kw)
        h2, s2 = verify_lp_stable_consistency(1.5, c=2.0, **kw)
        factor = 2.0 ** (1.0 / 1.5)
        assert h2.mean == pytest.approx(factor * h1.mean, rel=1e-12)
        assert s2.mean == pytest.approx(factor * s1.mean, rel=1e-12)

    def test_alpha_near_two_approaches_brownian(self):
        h, _ = verify_lp_stable_consistency(
            1.95, c=0.5, p=1.0, trials=250, n_steps=1500,
            grid_n=500, sup_paths=500, seed=4,
        )
        ref = verify_lp_brownian(1.0, trials=250, n_steps=1500, seed=4)
        sigma = math.hypot(h.stderr, ref.stderr)
        assert abs(h.mean - ref.mean) < max(4.0 * sigma, 0.08 * ref.mean)

    def test_reproducible(self):
        kw = dict(p=1.0, trials=30, n_steps=300, grid_n=300, sup_paths=400, seed=8)
        a = verify_lp_stable_consistency(1.4, **kw)
        b = verify_lp_stable_consistency(1.4, **kw)
        assert a[0].mean == b[0].mean and a[1].mean == b[1].mean


class TestSupSideSpitzerOracle:
    def test_mean_supremum_matches_spitzer_identity(self):
        # Spitzer: E max_{0<=k<=n} S_k = sum_k E S_k^+ / k, and the k-step
        # sum of unit-scale steps of size n^(-1/alpha) has
        # E S_k^+ = (k/n)^(1/alpha) Gamma(1 - 1/alpha) / pi. Exact for the
        # n-point grid, so no discretization bias enters. Seed, path count
        # and the |z| <= 4 band were fixed before the first run.
        alpha, n = 1.5, 2000
        k = np.arange(1, n + 1)
        pos_mean = math.gamma(1.0 - 1.0 / alpha) / math.pi  # E S^+ of one unit-time sum
        exact = pos_mean * float(np.sum((k / n) ** (1.0 / alpha) / k))
        sups = _sup_pow_stable_1d(alpha, 1.0, n, 10_000, 0)
        z = (sups.mean() - exact) / (sups.std(ddof=1) / math.sqrt(sups.size))
        assert exact == pytest.approx(1.2741, abs=1e-4)
        assert abs(z) <= 4.0


# -- stream pins -------------------------------------------------------
#
# The hull side of each experiment recomputed from a loop written out
# here: trial t draws from trial_rng(seed, stream_id(<name>), t), the d = 3
# directions before the path, and the values are reduced in trial-index
# order. Equality is exact.

PIN_SEED, PIN_TRIALS, PIN_N, PIN_Q = 5, 30, 100, 256


def _hand_hull_side(name, spec, p):
    stream = stream_id(name)
    th = np.linspace(0.0, 2.0 * math.pi, PIN_Q, endpoint=False)
    circle = np.column_stack([np.cos(th), np.sin(th)])
    vals = []
    for t in range(PIN_TRIALS):
        rng = trial_rng(PIN_SEED, stream, t)
        if spec.d == 2:
            dirs = circle
        else:
            dirs = rng.standard_normal((PIN_Q, 3))
            dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        path = sample_walk_path(spec, PIN_N, 1.0, rng)
        poly = hull2d(path.points) if spec.d == 2 else hull3d(path.points)
        h = (dirs @ poly.vertices.T).max(axis=1)
        factor = math.pi if spec.d == 2 else 4.0 * math.pi / 3.0
        vals.append(factor * float(np.mean(h**p)))
    r = EstimateResult.from_samples(np.array(vals))
    return (r.mean, r.stderr, r.trials)


def _pin_lp_brownian(d):
    kw = dict(d=d, n_steps=PIN_N, trials=PIN_TRIALS, seed=PIN_SEED, quad_points=PIN_Q)
    r = verify_lp_brownian(1.5, **kw)
    spec = StableSpec(flavor="brownian", c=0.5, d=d)
    return (r.mean, r.stderr, r.trials), _hand_hull_side("lp_brownian", spec, 1.5)


def _pin_lp_stable_hull():
    hull, _ = verify_lp_stable_consistency(
        1.6, c=0.7, p=1.2, n_steps=PIN_N, trials=PIN_TRIALS, grid_n=50,
        sup_paths=10, seed=PIN_SEED, quad_points=PIN_Q,
    )
    spec = StableSpec(alpha=1.6, c=0.7, d=2)
    return (hull.mean, hull.stderr, hull.trials), _hand_hull_side(
        "lp_stable_hull", spec, 1.2
    )


STREAM_PINS = {
    "lp_brownian-d2": lambda: _pin_lp_brownian(2),
    "lp_brownian-d3": lambda: _pin_lp_brownian(3),
    "lp_stable_hull": _pin_lp_stable_hull,
}


class TestStreamPins:
    @pytest.mark.parametrize("pin", STREAM_PINS.values(), ids=STREAM_PINS.keys())
    def test_hull_side_equals_hand_written_trial_loop(self, pin):
        got, expected = pin()
        assert got == expected


class TestTrialRuleAgainstVpBallMixed:
    # vp_ball_mixed integrates the hull's support function between its
    # kink angles with Gauss-Legendre; the trial uses the plain 4096-point
    # circle grid. Seed, walk count and the 1e-5 bound were fixed before
    # the first run.
    @pytest.mark.parametrize("alpha", [2.0, 1.5, 0.7])
    @pytest.mark.parametrize("p", [1.0, 1.5, 3.0])
    def test_planar_trial_value_matches_quadrature(self, alpha, p):
        flavor = "brownian" if alpha == 2.0 else "isotropic"
        spec = StableSpec(alpha=alpha, c=0.5 if alpha == 2.0 else 1.0, d=2, flavor=flavor)
        grid = _circle_grid(4096)
        for k in range(20):
            path = sample_walk_path(spec, 1000, 1.0, trial_rng(17, 0, k))
            poly = hull2d(path.points)
            exact = vp_ball_mixed(poly, p, 2)
            assert _hull_vp_one_trial(poly, p, grid) == pytest.approx(exact, rel=1e-5)


def _vp_one_trial_by_rows(poly, p, dirs):
    # the trial rule with its former support step, one direction per row
    h = (dirs @ poly.vertices.T).max(axis=1)
    return (math.pi if poly.dim == 2 else 4.0 * math.pi / 3.0) * float(np.mean(h**p))


class TestSupportStepOrientation:
    # _hull_vp_one_trial takes h as (vertices @ dirs.T).max(axis=0), about
    # 4x faster than one direction per row; each entry is the same d-term
    # dot product, so h and the trial value must keep their bits
    @pytest.mark.parametrize("seed", range(4))
    def test_random_polygons_on_the_circle_grid(self, seed):
        rng = np.random.default_rng(seed)
        grid = _circle_grid(4096)
        for poly in (
            _random_origin_polygon(seed, n=500),
            hull2d(sample_walk_path(StableSpec(alpha=0.7, d=2), 2000, 1.0, rng).points),
        ):
            assert np.array_equal(
                (poly.vertices @ grid.T).max(axis=0), (grid @ poly.vertices.T).max(axis=1)
            )
            for p in (1.0, 2.5):
                assert _hull_vp_one_trial(poly, p, grid) == _vp_one_trial_by_rows(poly, p, grid)

    @pytest.mark.parametrize("seed", range(4))
    def test_random_directions_in_three_dimensions(self, seed):
        rng = np.random.default_rng(100 + seed)
        dirs = rng.standard_normal((4096, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        spec = StableSpec(flavor="brownian", c=0.5, d=3)
        for poly in (
            hull3d(rng.standard_normal((300, 3))),
            hull3d(sample_walk_path(spec, 2000, 1.0, rng).points),
        ):
            assert np.array_equal(
                (poly.vertices @ dirs.T).max(axis=0), (dirs @ poly.vertices.T).max(axis=1)
            )
            assert _hull_vp_one_trial(poly, 1.0, dirs) == _vp_one_trial_by_rows(poly, 1.0, dirs)
