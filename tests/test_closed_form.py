"""Closed-form layer: frozen values, brute-force oracles, domain errors."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levyhull import (
    ClosedFormTarget,
    DomainError,
    ParameterError,
    ResourceError,
    ball_intrinsic_volume,
    dirichlet_constant,
    ev_intrinsic_brownian,
    ev_intrinsic_isotropic,
    ev_intrinsic_stable,
    ev_sup_brownian_pow,
    expected_faces_at_origin,
    expected_hull_vertices,
    gamma_fn,
    lattice_sum_partial,
    unit_ball_volume,
    walk_ev_intrinsic,
)

SQRT_PI = math.sqrt(math.pi)


class TestGammaFn:
    def test_half_integer_values(self):
        assert gamma_fn(0.5) == pytest.approx(SQRT_PI, rel=1e-13)
        assert gamma_fn(1.5) == pytest.approx(SQRT_PI / 2.0, rel=1e-13)
        assert gamma_fn(-1.5) == pytest.approx(4.0 * SQRT_PI / 3.0, rel=1e-12)

    def test_integers_match_factorials(self):
        for n in range(1, 20):
            assert gamma_fn(float(n)) == pytest.approx(math.factorial(n - 1), rel=1e-12)

    def test_against_stdlib_sweep(self):
        # math.gamma is an independent implementation; contract is 1e-12.
        for x in np.linspace(0.02, 50.0, 400):
            assert gamma_fn(float(x)) == pytest.approx(math.gamma(float(x)), rel=1e-12)

    def test_poles_rejected(self):
        for x in (0.0, -1.0, -7.0):
            with pytest.raises(DomainError):
                gamma_fn(x)
        with pytest.raises(DomainError):
            gamma_fn(float("nan"))


class TestBallVolumes:
    def test_unit_ball_volume_low_dims(self):
        assert unit_ball_volume(0) == pytest.approx(1.0, rel=1e-14)
        assert unit_ball_volume(1) == pytest.approx(2.0, rel=1e-13)
        assert unit_ball_volume(2) == pytest.approx(math.pi, rel=1e-13)
        assert unit_ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0, rel=1e-13)

    def test_top_intrinsic_volume_is_volume(self):
        for d in (1, 2, 3, 5):
            assert ball_intrinsic_volume(d, d, 1.0) == pytest.approx(
                unit_ball_volume(d), rel=1e-12
            )

    def test_v0_is_one(self):
        assert ball_intrinsic_volume(4, 0, 7.5) == 1.0

    def test_mean_width_of_unit_ball_3d(self):
        # V_1(B^3) = 3 kappa_3 / kappa_2 = 4; cross-checked via the Steiner
        # expansion coefficient kappa_2 V_1 = 3 kappa_3.
        assert ball_intrinsic_volume(3, 1, 1.0) == pytest.approx(4.0, rel=1e-12)

    def test_perimeter_of_disc(self):
        # V_1 of a radius-r disc is half its perimeter.
        assert ball_intrinsic_volume(2, 1, 2.0) == pytest.approx(2.0 * math.pi, rel=1e-12)

    @given(st.floats(min_value=0.01, max_value=50.0), st.integers(1, 3))
    @settings(max_examples=40, deadline=None)
    def test_homogeneous_in_radius(self, r, j):
        base = ball_intrinsic_volume(3, j, 1.0)
        assert ball_intrinsic_volume(3, j, r) == pytest.approx(base * r**j, rel=1e-10)

    def test_bad_index(self):
        with pytest.raises(ParameterError):
            ball_intrinsic_volume(2, 3, 1.0)
        with pytest.raises(ParameterError):
            ball_intrinsic_volume(2, -1, 1.0)
        with pytest.raises(ParameterError):
            ball_intrinsic_volume(2, 1, -0.5)


class TestExpectedIntrinsicVolumes:
    def test_brownian_planar_area(self):
        assert ev_intrinsic_brownian(2, 2) == pytest.approx(math.pi / 2.0, rel=1e-12)

    def test_brownian_planar_half_perimeter(self):
        assert ev_intrinsic_brownian(2, 1) == pytest.approx(
            math.sqrt(2.0 * math.pi), rel=1e-12
        )

    def test_brownian_3d_volume_frozen(self):
        # (pi/2)^{3/2} / gamma(5/2)^2, evaluated independently.
        assert ev_intrinsic_brownian(3, 3) == pytest.approx(1.1140570109471089, rel=1e-12)

    def test_stable_formula_specialises_to_brownian(self):
        for d in (2, 3):
            for j in range(1, d + 1):
                vj = ball_intrinsic_volume(d, j, 2.0**-0.5)
                assert ev_intrinsic_stable(2.0, j, vj) == pytest.approx(
                    ev_intrinsic_brownian(d, j), rel=1e-12
                )

    def test_isotropic_wraps_stable_with_ball_zonoid(self):
        val = ev_intrinsic_isotropic(1.5, 0.8, 2, 1)
        vj = ball_intrinsic_volume(2, 1, 0.8 ** (1.0 / 1.5))
        assert val == pytest.approx(ev_intrinsic_stable(1.5, 1, vj), rel=1e-13)

    @given(st.floats(min_value=0.05, max_value=20.0))
    @settings(max_examples=30, deadline=None)
    def test_isotropic_scale_homogeneity(self, c):
        # E V_j scales like c^{j/alpha} through the zonoid radius.
        alpha, d, j = 1.5, 2, 2
        base = ev_intrinsic_isotropic(alpha, 1.0, d, j)
        assert ev_intrinsic_isotropic(alpha, c, d, j) == pytest.approx(
            base * c ** (j / alpha), rel=1e-10
        )

    def test_alpha_at_or_below_one_rejected(self):
        for alpha in (1.0, 0.7, 2.5):
            with pytest.raises(DomainError):
                ev_intrinsic_stable(alpha, 1, 1.0)
            with pytest.raises(DomainError):
                ev_intrinsic_isotropic(alpha, 1.0, 2, 1)


class TestDirichletConstant:
    def test_frozen_values(self):
        assert dirichlet_constant(2.0, 2) == pytest.approx(math.pi, rel=1e-12)
        assert dirichlet_constant(2.0, 1) == pytest.approx(2.0, rel=1e-12)
        assert dirichlet_constant(1.0, 2) == pytest.approx(0.5, rel=1e-12)

    def test_j_one_equals_alpha(self):
        # gamma(1/a) / gamma(1/a + 1) = a.
        for alpha in (1.2, 1.5, 1.9, 2.0):
            assert dirichlet_constant(alpha, 1) == pytest.approx(alpha, rel=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            dirichlet_constant(2.3, 1)
        with pytest.raises(ParameterError):
            dirichlet_constant(1.5, 0)


def _lattice_brute(alpha, j, n):
    e = 1.0 / alpha - 1.0
    rng = range(1, n + 1)
    if j == 1:
        tot = sum(i**e for i in rng)
    elif j == 2:
        tot = sum((a * b) ** e for a in rng for b in rng if a + b <= n)
    else:
        tot = sum(
            (a * b * c) ** e
            for a in rng
            for b in rng
            for c in rng
            if a + b + c <= n
        )
    return n ** (-j / alpha) * tot


class TestLatticeSumPartial:
    @pytest.mark.parametrize(
        "alpha,j,n",
        [
            (2.0, 1, 37),
            (2.0, 2, 41),
            (1.5, 2, 29),
            (1.0, 2, 31),
            (2.0, 3, 23),
            (1.3, 3, 17),
            (0.7, 1, 19),
            (2.0, 2, 2),
            (2.0, 3, 3),
        ],
    )
    def test_matches_brute_force(self, alpha, j, n):
        assert lattice_sum_partial(alpha, j, n) == pytest.approx(
            _lattice_brute(alpha, j, n), rel=1e-12
        )

    def test_frozen_reference_point(self):
        assert lattice_sum_partial(2.0, 2, 2000) == pytest.approx(
            3.012814612669087, rel=1e-12
        )

    def test_converges_toward_dirichlet_constant(self):
        target = dirichlet_constant(1.5, 2)
        gaps = [
            abs(lattice_sum_partial(1.5, 2, n) - target) for n in (50, 500, 5000)
        ]
        assert gaps[0] > gaps[1] > gaps[2]

    def test_caps_and_domains(self):
        with pytest.raises(ResourceError):
            lattice_sum_partial(2.0, 3, 100000)
        with pytest.raises(ParameterError):
            lattice_sum_partial(2.0, 4, 10)
        with pytest.raises(ParameterError):
            lattice_sum_partial(2.0, 2, 1)
        with pytest.raises(DomainError):
            lattice_sum_partial(2.5, 1, 10)


def _faces_brute(n, d):
    def r(k):
        out = 1.0
        for m in range(1, k + 1):
            out *= (2 * m - 1) / (2 * m)
        return out

    if d == 2:
        return 2.0 * sum(r(n - i) / i for i in range(1, n + 1))
    return 2.0 * sum(
        r(n - i3) / (i2 * (i3 - i2))
        for i3 in range(2, n + 1)
        for i2 in range(1, i3)
    )


class TestExpectedFacesAtOrigin:
    def test_frozen_small_cases(self):
        assert expected_faces_at_origin(1, 2) == pytest.approx(2.0, abs=1e-14)
        assert expected_faces_at_origin(2, 2) == pytest.approx(2.0, rel=1e-13)
        assert expected_faces_at_origin(5, 2) == pytest.approx(1.759375, rel=1e-13)
        assert expected_faces_at_origin(3, 3) == pytest.approx(3.0, rel=1e-13)
        assert expected_faces_at_origin(4, 3) == pytest.approx(43.0 / 12.0, rel=1e-13)

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 20, 40])
    @pytest.mark.parametrize("d", [2, 3])
    def test_matches_brute_force(self, n, d):
        if n < d - 1:
            pytest.skip("empty index set")
        assert expected_faces_at_origin(n, d) == pytest.approx(
            _faces_brute(n, d), rel=1e-11
        )

    def test_asymptotic_ratio_2d(self):
        # Exact value of EY(n,2) sqrt(pi n) / (2 log n) at n = 10^5, frozen
        # from this formula; the ratio falls toward 1 as n grows.
        def ratio(n):
            return (
                expected_faces_at_origin(n, 2)
                * math.sqrt(math.pi * n)
                / (2.0 * math.log(n))
            )

        assert ratio(10**5) == pytest.approx(1.1705468507084336, rel=1e-10)
        assert abs(ratio(10**3) - 1.0) > abs(ratio(10**5) - 1.0) > abs(ratio(10**6) - 1.0)

    def test_tends_to_zero_in_2d(self):
        vals = [expected_faces_at_origin(n, 2) for n in (10, 100, 1000, 10000)]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 0.2

    def test_domain(self):
        with pytest.raises(ParameterError):
            expected_faces_at_origin(10, 4)
        with pytest.raises(ParameterError):
            expected_faces_at_origin(0, 2)


def _stirling_first(m: int) -> list:
    """Unsigned Stirling numbers of the first kind [m, k], k = 0..m."""
    row = [1]
    for i in range(m):  # [i + 1, k] = i [i, k] + [i, k - 1]
        row = [i * a + b for a, b in zip(row + [0], [0] + row)]
    return row


def _vertices_exact(n: int, d: int) -> Fraction:
    """E f_0 = (2 / n!) sum_{l >= 0} [n + 1, d - 2l], the Stirling form of
    the face-count identity, in exact rationals."""
    s = _stirling_first(n + 1)
    return Fraction(2 * sum(s[k] for k in range(d, -1, -2) if k <= n + 1), math.factorial(n))


class TestExpectedHullVertices:
    @pytest.mark.parametrize("d", [2, 3])
    def test_every_point_a_vertex_while_n_at_most_d(self, d):
        for n in range(1, d + 1):
            assert _vertices_exact(n, d) == n + 1
            assert expected_hull_vertices(n, d) == n + 1

    def test_three_steps_in_the_plane(self):
        assert _vertices_exact(3, 2) == Fraction(11, 3)
        assert expected_hull_vertices(3, 2) == float(Fraction(11, 3))

    @pytest.mark.parametrize("n", [4, 5, 10, 37, 100, 400])
    @pytest.mark.parametrize("d", [2, 3])
    def test_matches_stirling_sum(self, n, d):
        assert expected_hull_vertices(n, d) == pytest.approx(
            float(_vertices_exact(n, d)), rel=1e-14
        )

    def test_harmonic_forms(self):
        h = sum(Fraction(1, k) for k in range(1, 31))
        h2 = sum(Fraction(1, k * k) for k in range(1, 31))
        assert _vertices_exact(30, 2) == 2 * h
        assert _vertices_exact(30, 3) == h * h - h2 + 2

    def test_domain(self):
        with pytest.raises(ParameterError):
            expected_hull_vertices(10, 4)
        with pytest.raises(ParameterError):
            expected_hull_vertices(0, 2)
        with pytest.raises(ResourceError):
            expected_hull_vertices(10**8, 2)


class TestWalkEvIntrinsic:
    def test_identity_with_lattice_sum(self):
        vj = ball_intrinsic_volume(2, 1, 2.0**-0.5)
        expect = (
            vj
            * (gamma_fn(1.0 - 1.0 / 1.5) / math.pi)
            * lattice_sum_partial(1.5, 1, 300)
        )
        assert walk_ev_intrinsic(300, 1, 1.5, vj) == pytest.approx(expect, rel=1e-13)

    def test_frozen_planar_perimeter_point(self):
        vj = ball_intrinsic_volume(2, 1, 2.0**-0.5)
        assert walk_ev_intrinsic(2000, 1, 2.0, vj) == pytest.approx(
            2.466015219136451, rel=1e-12
        )

    def test_converges_to_continuous_limit(self):
        # Finite-n expectation approaches the path-hull expectation from below.
        vj = ball_intrinsic_volume(2, 2, 2.0**-0.5)
        limit = ev_intrinsic_brownian(2, 2)
        vals = [walk_ev_intrinsic(n, 2, 2.0, vj) for n in (100, 1000, 10000)]
        assert all(v < limit for v in vals)
        assert vals[0] < vals[1] < vals[2]
        assert vals[2] == pytest.approx(limit, rel=0.02)

    def test_domain(self):
        with pytest.raises(DomainError):
            walk_ev_intrinsic(100, 1, 1.0, 1.0)
        with pytest.raises(ParameterError):
            walk_ev_intrinsic(100, 4, 1.5, 1.0)


class TestEvSupBrownianPow:
    def test_first_two_moments(self):
        assert ev_sup_brownian_pow(1.0) == pytest.approx(2.0 / SQRT_PI, rel=1e-12)
        assert ev_sup_brownian_pow(2.0) == pytest.approx(2.0, rel=1e-12)

    def test_general_p_against_stdlib_gamma(self):
        for p in (1.0, 1.5, 2.0, 3.0, 4.5):
            expect = 2.0**p * math.gamma((p + 1.0) / 2.0) / SQRT_PI
            assert ev_sup_brownian_pow(p) == pytest.approx(expect, rel=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            ev_sup_brownian_pow(0.5)


class TestClosedFormTarget:
    def test_carries_name_and_value(self):
        t = ClosedFormTarget("planar_area", math.pi / 2.0, {"d": 2, "j": 2})
        assert t.name == "planar_area"
        assert t.value == pytest.approx(math.pi / 2.0)

    def test_rejects_bad_values(self):
        with pytest.raises(ParameterError):
            ClosedFormTarget("", 1.0)
        with pytest.raises(ParameterError):
            ClosedFormTarget("x", float("inf"))
