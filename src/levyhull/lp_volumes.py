"""L_p support-function arithmetic and mixed volumes against the unit ball.

The p-mean combination of two support functions is again a support
function, and the first-variation mixed volume of the unit ball with a
body M reduces to a spherical integral of h(M, u)^p. Only the ball case
of the weighting measure is implemented: there it is plain surface
measure, which keeps every number here independently checkable.

Two verification experiments tie the geometry to the sampling layer: the
Brownian hull's expected V_p against its gamma-factor closed form, and a
two-route consistency check for isotropic stable hulls (quadrature of
hull support functions vs the one-dimensional running-supremum moment).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .closed_form import (
    ClosedFormTarget,
    ev_sup_brownian_pow,
    unit_ball_volume,
)
from .errors import DomainError, ParameterError, _count, _real
from .hullgeom import Polytope, _sphere_spiral
from .mc_engine import _ordered_map, hull_of, trial_values, walk_hull_values
from .results import EstimateResult
from .rng_stable import (
    StableSpec,
    sample_stable_1d,
    sample_walk_path,
    stream_id,
    trial_rng,
)

__all__ = [
    "Ball",
    "SupportFn",
    "lp_sum_support",
    "vp_ball_mixed",
    "verify_lp_brownian",
    "verify_lp_stable_consistency",
]


@dataclass(frozen=True)
class Ball:
    """Origin-centered ball of radius r, as a support-function body."""

    radius: float

    def __post_init__(self):
        object.__setattr__(self, "radius", _real("radius", self.radius, ge=0))


def _probe_directions(dim: int) -> np.ndarray:
    return _circle_grid(64) if dim == 2 else _sphere_spiral(64)


class SupportFn:
    """Support function h(body, .) of a polytope or ball.

    Bodies must contain the origin, so that h >= 0 on the sphere; this is
    checked on a probe grid at construction. Callable on a single unit
    vector; ``values`` evaluates a (m, d) batch.
    """

    def __init__(self, body):
        if isinstance(body, Ball):
            self.dim = None  # a ball works in any ambient dimension
        elif isinstance(body, Polytope):
            self.dim = body.dim
            probe = _probe_directions(body.dim)
            if float(self.values_for(body, probe).min()) < -1e-9 * _scale_of(body):
                raise DomainError("body does not contain the origin (h < 0)")
        else:
            raise ParameterError(f"unsupported body type {type(body).__name__}")
        self.body = body

    @staticmethod
    def values_for(body, dirs: np.ndarray) -> np.ndarray:
        if isinstance(body, Ball):
            return body.radius * np.linalg.norm(dirs, axis=1)
        return (dirs @ body.vertices.T).max(axis=1)

    def values(self, dirs) -> np.ndarray:
        dirs = np.asarray(dirs, dtype=np.float64)
        if dirs.ndim != 2:
            raise ParameterError("dirs must be a (m, d) array")
        if self.dim is not None and dirs.shape[1] != self.dim:
            raise ParameterError("direction dimension mismatch")
        return self.values_for(self.body, dirs)

    def break_angles(self) -> np.ndarray:
        """Circle angles where h stops being smooth (polytope edge
        normals). Empty for balls. Meaningful in dimension 2 only."""
        if isinstance(self.body, Ball):
            return np.empty(0)
        if self.dim != 2:
            raise ParameterError("break angles are a planar notion")
        v = self.body.vertices
        if self.body.intrinsic_dim == 0:
            return np.empty(0)
        if self.body.intrinsic_dim == 1:
            e = v[1] - v[0]
            a = math.atan2(-e[0], e[1])
            return np.sort(np.mod([a, a + math.pi], 2.0 * math.pi))
        edges = np.roll(v, -1, axis=0) - v
        # outward normal of a CCW edge (dx, dy) points along (dy, -dx)
        return np.sort(np.mod(np.arctan2(-edges[:, 0], edges[:, 1]), 2.0 * math.pi))

    def __call__(self, u) -> float:
        return float(self.values(np.asarray(u, dtype=np.float64)[None, :])[0])


def _scale_of(body: Polytope) -> float:
    return float(np.abs(body.vertices).max()) + 1e-300


class _LpSumFn:
    """(h_a^p + h_b^p)^(1/p), evaluated through the max for stability so
    that large p neither overflows nor loses the max-norm limit."""

    def __init__(self, a: SupportFn, b: SupportFn, p: float):
        self.a, self.b, self.p = a, b, p
        self.dim = a.dim if a.dim is not None else b.dim

    def values(self, dirs) -> np.ndarray:
        ha = self.a.values(dirs)
        hb = self.b.values(dirs)
        if float(min(ha.min(), hb.min())) < 0.0:
            raise DomainError("support values must be nonnegative")
        m = np.maximum(ha, hb)
        safe = np.maximum(m, 1e-300)
        return safe * (
            (ha / safe) ** self.p + (hb / safe) ** self.p
        ) ** (1.0 / self.p)

    def break_angles(self) -> np.ndarray:
        return np.sort(
            np.concatenate([self.a.break_angles(), self.b.break_angles()])
        )

    def __call__(self, u) -> float:
        return float(self.values(np.asarray(u, dtype=np.float64)[None, :])[0])


def lp_sum_support(a: SupportFn, b: SupportFn, p: float):
    """Support function of the L_p combination of two origin-containing
    bodies: u -> (h_a(u)^p + h_b(u)^p)^(1/p). p = 1 is the Minkowski sum;
    p -> infinity tends to the support of the convex union."""
    if not isinstance(a, SupportFn) or not isinstance(b, SupportFn):
        raise ParameterError("lp_sum_support needs two SupportFn arguments")
    p = _real("p", p, ge=1)
    if a.dim is not None and b.dim is not None and a.dim != b.dim:
        raise ParameterError("bodies live in different dimensions")
    probe = _probe_directions(a.dim or b.dim or 2)
    if float(a.values(probe).min()) < 0.0 or float(b.values(probe).min()) < 0.0:
        raise DomainError("support values must be nonnegative (origin inside)")
    return _LpSumFn(a, b, p)


@lru_cache(maxsize=8)
def _circle_grid(n: int) -> np.ndarray:
    th = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    grid = np.column_stack([np.cos(th), np.sin(th)])
    grid.setflags(write=False)
    return grid


@lru_cache(maxsize=32)
def _leggauss(n: int):
    x, w = np.polynomial.legendre.leggauss(n)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def _circle_quad_angles(breaks: np.ndarray, budget: int):
    """Gauss-Legendre nodes and weights for the circle, composite over the
    smooth arcs between consecutive break angles. Spectrally accurate on
    each arc, so kinked polygon support functions still integrate to near
    machine precision."""
    two_pi = 2.0 * math.pi
    if breaks.size == 0:
        th = np.linspace(0.0, two_pi, budget, endpoint=False)
        return th, np.full(budget, two_pi / budget)
    order = max(8, min(96, int(round(budget / breaks.size))))
    x, w = _leggauss(order)
    lo = breaks
    hi = np.concatenate([breaks[1:], [breaks[0] + two_pi]])
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    th = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    wt = (half[:, None] * w[None, :]).ravel()
    return th, wt


def vp_ball_mixed(m, p: float, d: int, quad_points: int = 4096, rng=None) -> float:
    """V_p(B^d, M) = (1/d) * integral of h(M, u)^p over the unit sphere.

    d = 2 integrates deterministically: composite Gauss-Legendre between
    the kink angles of h when the body exposes them, plain periodic grid
    otherwise, with about quad_points nodes in total. d = 3 averages over
    quad_points uniform random directions from ``rng``. For M = B^d the
    value is kappa_d for every p.
    """
    p = _real("p", p, ge=1)
    if d not in (2, 3):
        raise ParameterError(f"d must be 2 or 3, got {d!r}")
    quad_points = _count("quad_points", quad_points, 8)
    if not hasattr(m, "values"):
        m = SupportFn(m)
    if d == 2:
        if hasattr(m, "break_angles"):
            breaks = np.unique(m.break_angles())
        else:
            breaks = np.empty(0)
        th, wt = _circle_quad_angles(breaks, quad_points)
        h = m.values(np.column_stack([np.cos(th), np.sin(th)]))
        return 0.5 * float(wt @ h**p)
    if rng is None:
        rng = np.random.default_rng(0)
    dirs = rng.standard_normal((quad_points, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    h = m.values(dirs)
    # (1/3) * 4pi * mean(h^p)
    return 4.0 * math.pi / 3.0 * float(np.mean(h**p))


def _hull_vp_one_trial(poly: Polytope, p: float, dirs: np.ndarray) -> float:
    """One trial's V_p(B^d, poly) by the plain rule: the mean of h^p over
    ``dirs`` (the circle grid in d = 2, random unit directions in d = 3)
    times the sphere's measure over d."""
    h = (poly.vertices @ dirs.T).max(axis=0)
    if poly.dim == 2:
        return math.pi * float(np.mean(h**p))
    return 4.0 * math.pi / 3.0 * float(np.mean(h**p))


def verify_lp_brownian(
    p: float,
    d: int = 2,
    n_steps: int = 10_000,
    trials: int = 4000,
    seed: int = 0,
    quad_points: int = 4096,
) -> EstimateResult:
    """Monte Carlo mean of V_p(B^d, hull of standard Brownian motion on
    [0, 1]) against its closed form

        2^(p/2) gamma((p+1)/2) / sqrt(pi) * kappa_d,

    which equals ev_sup_brownian_pow(p) * 2^(-p/2) * kappa_d. The embedded
    walk's hull is inner, so the estimate carries a small negative
    discretization bias, shrinking with n_steps.
    """
    p = _real("p", p, ge=1)
    if d not in (2, 3):
        raise ParameterError(f"d must be 2 or 3, got {d!r}")
    trials = _count("trials", trials, 2)
    quad_points = _count("quad_points", quad_points)
    spec = StableSpec(flavor="brownian", c=0.5, d=d)
    target_val = ev_sup_brownian_pow(p) * 2.0 ** (-p / 2.0) * unit_ball_volume(d)
    target = ClosedFormTarget(
        "lp_brownian", target_val, {"p": p, "d": d, "n_steps": n_steps}
    )
    if d == 2:
        grid = _circle_grid(quad_points)
        vals = walk_hull_values(
            spec, n_steps, 1.0, trials, seed, "lp_brownian",
            lambda poly, path: _hull_vp_one_trial(poly, p, grid),
        )
    else:

        def one(rng):
            # the trial draws its directions before its path
            dirs = rng.standard_normal((quad_points, 3))
            dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
            path = sample_walk_path(spec, n_steps, 1.0, rng)
            return _hull_vp_one_trial(hull_of(path.points), p, dirs)

        vals = trial_values(seed, "lp_brownian", trials, one)
    return EstimateResult.from_samples(vals, target=target)


def _sup_pow_stable_1d(alpha, p, grid_n, paths, seed) -> np.ndarray:
    """(sup of a unit-scale 1-d symmetric alpha-stable path on [0,1])^p,
    one value per path, from grid_n-step embedded walks. One-sided grid
    bias: the discrete supremum underestimates the path supremum."""
    stream = stream_id("lp_sup_side")
    step_scale = (1.0 / grid_n) ** (1.0 / alpha)
    chunk = max(1, int(2_000_000 // grid_n))

    def one_chunk(k):
        rng = trial_rng(seed, stream, k)
        b = min(chunk, paths - k)
        incs = sample_stable_1d(alpha, step_scale, rng, size=(b, grid_n))
        return np.maximum(np.cumsum(incs, axis=1).max(axis=1), 0.0) ** p

    return np.concatenate(_ordered_map(one_chunk, range(0, paths, chunk)))


def verify_lp_stable_consistency(
    alpha: float,
    c: float = 1.0,
    p: float = 1.0,
    d: int = 2,
    n_steps: int = 10_000,
    trials: int = 2000,
    grid_n: int = 20_000,
    sup_paths: int = 20_000,
    seed: int = 0,
    quad_points: int = 4096,
) -> tuple[EstimateResult, EstimateResult]:
    """Two independent estimates of E V_p(B^d, Z) for the isotropic stable
    hull: (i) spherical quadrature of hull support functions, (ii) the
    one-dimensional running-supremum moment times c^(p/alpha) kappa_d.
    Both are inner discretizations, so they share a small negative bias.
    Requires 1 <= p < alpha < 2: the supremum moment diverges at p = alpha.
    """
    alpha = _real("alpha", alpha, gt=1, lt=2, error=DomainError)
    p = _real("p", p, ge=1, lt=alpha, error=DomainError)
    if d != 2:
        raise ParameterError("consistency experiment implemented for d = 2")
    trials = _count("trials", trials, 2)
    quad_points = _count("quad_points", quad_points)
    grid_n, sup_paths = _count("grid_n", grid_n), _count("sup_paths", sup_paths)
    spec = StableSpec(alpha=alpha, c=c, d=2)
    grid = _circle_grid(quad_points)
    vals = walk_hull_values(
        spec, n_steps, 1.0, trials, seed, "lp_stable_hull",
        lambda poly, path: _hull_vp_one_trial(poly, p, grid),
    )
    hullside = EstimateResult.from_samples(vals)

    sup_vals = _sup_pow_stable_1d(alpha, p, grid_n, sup_paths, seed)
    factor = spec.c ** (p / alpha) * unit_ball_volume(d)
    supside = EstimateResult.from_samples(factor * sup_vals)
    return hullside, supside
