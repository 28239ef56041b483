"""L_p mixed volumes of path hulls against the unit ball.

The first-variation mixed volume of the unit ball with a body M reduces to
a spherical integral, V_p(B^d, M) = (1/d) * integral of h(M, u)^p over the
unit sphere. Each trial evaluates it by a plain rule on the hull's support
function: a fixed circle grid in d = 2, random unit directions in d = 3.

Two verification experiments tie the geometry to the sampling layer: the
Brownian hull's expected V_p against its gamma-factor closed form, and a
two-route consistency check for isotropic stable hulls (quadrature of
hull support functions vs the one-dimensional running-supremum moment).
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .closed_form import (
    ClosedFormTarget,
    ev_sup_brownian_pow,
    unit_ball_volume,
)
from .errors import DomainError, ParameterError, _count, _real
from .hullgeom import Polytope
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
    "verify_lp_brownian",
    "verify_lp_stable_consistency",
]


@lru_cache(maxsize=8)
def _circle_grid(n: int) -> np.ndarray:
    th = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    grid = np.column_stack([np.cos(th), np.sin(th)])
    grid.setflags(write=False)
    return grid


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
    target = ClosedFormTarget(target_val, {"p": p, "d": d, "n_steps": n_steps})
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


# Draws per seeded chunk of the supremum side. Chunk k holds the paths
# from k on and draws from trial_rng(seed, stream, k), so this number
# fixes the streams: changing it changes every sup-side value.
_SUP_CHUNK_DRAWS = 2_000_000
_SUP_BLOCK = 16_384  # draws per sampler call, so temporaries stay near 1 MB


class _SplitStream:
    """One chunk's draws, served as the single (b, grid_n) sampler call
    would take them: uniforms from ``u``, exponentials from ``w``, a copy
    of the same generator advanced past the chunk's b * grid_n uniforms
    (Generator.random takes one 64-bit output per double)."""

    def __init__(self, u: np.random.Generator, w: np.random.Generator):
        self.random = u.random
        self.standard_exponential = w.standard_exponential


def _sup_pow_stable_1d(alpha, p, grid_n, paths, seed) -> np.ndarray:
    """(sup of a unit-scale 1-d symmetric alpha-stable path on [0,1])^p,
    one value per path, from grid_n-step embedded walks. One-sided grid
    bias: the discrete supremum underestimates the path supremum. Each
    chunk goes through the sampler in blocks of at most _SUP_BLOCK draws,
    with the same bits as one sampler call per chunk."""
    stream = stream_id("lp_sup_side")
    step_scale = (1.0 / grid_n) ** (1.0 / alpha)
    chunk = max(1, int(_SUP_CHUNK_DRAWS // grid_n))
    rows = max(1, _SUP_BLOCK // grid_n)

    def one_chunk(k):
        b = min(chunk, paths - k)
        u, w = trial_rng(seed, stream, k), trial_rng(seed, stream, k)
        w.bit_generator.advance(b * grid_n)
        rng = _SplitStream(u, w)
        top = np.full(b, -np.inf)
        for r0 in range(0, b, rows):
            top_r = top[r0 : r0 + rows]
            for t0 in range(0, grid_n, _SUP_BLOCK):
                size = (top_r.size, min(_SUP_BLOCK, grid_n - t0))
                incs = sample_stable_1d(alpha, step_scale, rng, size=size)
                if t0:
                    incs[:, 0] += run  # add.accumulate is sequential: same sums
                run = np.cumsum(incs, axis=1, out=incs)[:, -1]
                np.maximum(top_r, incs.max(axis=1), out=top_r)
        return np.maximum(top, 0.0) ** p

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
