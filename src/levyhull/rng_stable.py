"""Samplers for symmetric stable increments and random paths.

The continuous-time processes handled here are the rotation-invariant
strictly stable ones, with characteristic function exp(-t c |u|^alpha),
plus planar/space Brownian motion as the alpha = 2 member and a
heavy-tailed compound Poisson walk used by the exit-time experiments.

Everything takes an explicit ``numpy.random.Generator``; nothing touches
global random state. ``trial_rng`` derives independent, reproducible
per-trial generators from a master seed, so each trial can be reproduced
on its own, whatever ran before it.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, _count, _real

__all__ = [
    "StableSpec",
    "PathSample",
    "sample_stable_1d",
    "sample_positive_stable",
    "sample_isotropic_vec",
    "sample_walk_path",
    "sample_cpp_path",
    "stream_id",
    "trial_rng",
]

_FLAVORS = ("isotropic", "brownian", "cpp")
_JUMP_LAWS = ("pareto", "gaussian")


@dataclass(frozen=True)
class StableSpec:
    """Parameters of one process under study.

    flavor "isotropic": exponent c |u|^alpha, alpha in (0, 2].
    flavor "brownian":  standard d-dim Brownian motion; alpha is pinned
                        to 2 and c = 1/2 gives X(1) ~ N(0, I).
    flavor "cpp":       compound Poisson with heavy-tailed jumps plus a
                        constant drift, used for exit-time studies; alpha
                        and c are ignored by the samplers.
    """

    alpha: float = 2.0
    c: float = 0.5
    d: int = 2
    flavor: str = "isotropic"
    tail_alpha: float | None = None
    jump_rate: float | None = None
    drift: tuple[float, ...] | None = None
    jump_law: str = "pareto"

    def __post_init__(self):
        if self.flavor not in _FLAVORS:
            raise ParameterError(f"unknown flavor {self.flavor!r}")
        object.__setattr__(self, "d", _count("d", self.d))
        if self.flavor == "brownian":
            object.__setattr__(self, "alpha", 2.0)
        object.__setattr__(self, "alpha", _real("alpha", self.alpha, gt=0, le=2))
        object.__setattr__(self, "c", _real("c", self.c, gt=1e-12))
        if self.flavor == "cpp":
            if self.jump_law not in _JUMP_LAWS:
                raise ParameterError(f"unknown jump law {self.jump_law!r}")
            if self.jump_law == "pareto":
                tail_alpha = _real("tail_alpha", self.tail_alpha, gt=0, lt=2)
                object.__setattr__(self, "tail_alpha", tail_alpha)
            object.__setattr__(self, "jump_rate", _real("jump_rate", self.jump_rate, ge=0))
            drift = self.drift if self.drift is not None else (0.0,) * self.d
            drift = tuple(_real("drift entry", v) for v in drift)
            if len(drift) != self.d:
                raise ParameterError(
                    f"drift must have length d={self.d}, got {len(drift)}"
                )
            object.__setattr__(self, "drift", drift)


@dataclass
class PathSample:
    """A sampled path skeleton: times[0] = 0, points[0] = origin.

    ``points`` has shape (len(times), d). Times are strictly increasing.
    Treat instances as immutable once built.
    """

    times: np.ndarray
    points: np.ndarray

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=np.float64)
        self.points = np.asarray(self.points, dtype=np.float64)
        if self.times.ndim != 1 or self.points.ndim != 2:
            raise ParameterError("times must be 1-d and points 2-d")
        if len(self.times) != len(self.points) or len(self.times) < 1:
            raise ParameterError("times and points must align and be nonempty")
        t = self.times
        if t[0] != 0.0 or self.points[0].any():  # NaN counts as nonzero
            raise ParameterError("paths must start at the origin at time 0")
        if not (t[1:] > t[:-1]).all():
            raise ParameterError("times must be strictly increasing")

    @property
    def dim(self) -> int:
        return self.points.shape[1]


def sample_stable_1d(alpha, scale, rng, size=None):
    """Symmetric alpha-stable draw(s) with char. fn. exp(-scale^alpha |s|^alpha).

    Chambers-Mallows-Stuck with phi uniform on (-pi/2, pi/2) and a unit
    exponential mixing variable; alpha = 1 reduces to a Cauchy tangent,
    alpha = 2 reduces to N(0, 2 scale^2) through the same expression.
    """
    alpha = _real("alpha", alpha, gt=0, le=2)
    scale = _real("scale", scale, gt=0)
    phi = (rng.random(size) - 0.5) * math.pi
    if alpha == 1.0:
        return scale * np.tan(phi)
    w = rng.standard_exponential(size)
    x = (
        np.sin(alpha * phi)
        / np.cos(phi) ** (1.0 / alpha)
        * (np.cos((1.0 - alpha) * phi) / w) ** ((1.0 - alpha) / alpha)
    )
    return scale * x


def sample_positive_stable(beta, rng, size=None):
    """Positive strictly stable draw(s) with Laplace transform exp(-s^beta),
    beta in (0, 1), via the single-uniform representation

        [sin(beta V) / sin(V)^{1/beta}] [sin((1-beta) V) / W]^{(1-beta)/beta}

    with V uniform on (0, pi) and W unit exponential.
    """
    beta = _real("beta", beta, gt=0, lt=1)
    v = rng.random(size) * math.pi
    w = rng.standard_exponential(size)
    return (
        np.sin(beta * v)
        / np.sin(v) ** (1.0 / beta)
        * (np.sin((1.0 - beta) * v) / w) ** ((1.0 - beta) / beta)
    )


def sample_isotropic_vec(spec: StableSpec, rng, size=None):
    """Unit-time increment(s) of the process described by ``spec``.

    Returns shape (d,) for size None, else (size, d). For alpha < 2 the
    draw is a Gaussian vector subordinated by a positive (alpha/2)-stable
    factor, which reproduces exp(-c |u|^alpha) exactly.
    """
    if spec.flavor == "cpp":
        raise ParameterError("compound Poisson increments have no unit-time sampler")
    n = 1 if size is None else _count("size", size)
    g = rng.standard_normal((n, spec.d))
    if spec.alpha == 2.0:
        out = math.sqrt(2.0 * spec.c) * g
    else:
        a0 = sample_positive_stable(spec.alpha / 2.0, rng, n)
        out = np.sqrt(2.0 * spec.c ** (2.0 / spec.alpha) * a0)[:, None] * g
    return out[0] if size is None else out


def sample_walk_path(spec: StableSpec, n_steps: int, horizon: float, rng) -> PathSample:
    """Hull skeleton of the process on [0, horizon]: an n-step random walk
    whose increments are exact unit-time draws scaled by (horizon/n)^(1/alpha).

    Self-similarity makes each skeleton point exactly distributed as the
    process at that grid time; only the in-between excursions are lost.
    """
    n_steps = _count("n_steps", n_steps)
    horizon = _real("horizon", horizon, gt=0)
    incs = sample_isotropic_vec(spec, rng, n_steps)
    incs *= (horizon / n_steps) ** (1.0 / spec.alpha)
    pts = np.empty((n_steps + 1, spec.d))
    pts[0] = 0.0
    np.cumsum(incs, axis=0, out=pts[1:])
    times = np.arange(n_steps + 1, dtype=np.float64) * (horizon / n_steps)
    return PathSample(times, pts)


def sample_cpp_path(spec: StableSpec, horizon: float, rng) -> PathSample:
    """Compound Poisson path with drift on [0, horizon], recorded at t = 0,
    every jump time, and the horizon.

    Pareto jumps have norm U^(-1/tail_alpha) (support [1, inf)) and a
    uniform random direction; the Gaussian law draws N(0, I_d) jumps and
    exists as a light-tailed control. Simultaneous jump times, which occur
    with probability zero but are possible in floating point, are merged.
    """
    if spec.flavor != "cpp":
        raise ParameterError("sample_cpp_path requires a cpp-flavored spec")
    horizon = _real("horizon", horizon, gt=0)
    n_jumps = int(rng.poisson(spec.jump_rate * horizon)) if spec.jump_rate > 0 else 0
    drift = np.asarray(spec.drift, dtype=np.float64)
    jt = np.sort(rng.random(n_jumps) * horizon) if n_jumps else np.empty(0)
    if n_jumps and jt[0] <= 0.0:  # jt is sorted, so any zero time is first
        jt = jt[jt > 0.0]
    n_jumps = len(jt)
    if n_jumps == 0:
        times = np.array([0.0, horizon])
        pts = np.vstack([np.zeros(spec.d), drift * horizon])
        return PathSample(times, pts)
    if spec.jump_law == "pareto":
        norms = rng.random(n_jumps) ** (-1.0 / spec.tail_alpha)
        jumps = rng.standard_normal((n_jumps, spec.d))
        # the unit directions, scaled in place; the norm is np.linalg.norm's
        jumps /= np.sqrt(np.add.reduce(jumps * jumps, axis=1, keepdims=True))
        jumps *= norms[:, None]
    else:
        jumps = rng.standard_normal((n_jumps, spec.d))
    if (jt[1:] == jt[:-1]).any():  # jt is sorted, so equal times are neighbors
        jt, inv = np.unique(jt, return_inverse=True)
        merged = np.zeros((len(jt), spec.d))
        np.add.at(merged, inv, jumps)
        jumps = merged
    times = np.concatenate(([0.0], jt, [horizon])) if jt[-1] < horizon else np.concatenate(([0.0], jt))
    pts = np.zeros((len(times), spec.d))
    np.cumsum(jumps, axis=0, out=pts[1 : len(jt) + 1])
    if len(times) > len(jt) + 1:
        pts[-1] = pts[-2]
    pts += times[:, None] * drift
    return PathSample(times, pts)


def stream_id(name: str) -> int:
    """Stable 64-bit stream label for an experiment name."""
    if not name:
        raise ParameterError("stream name must be nonempty")
    digest = hashlib.blake2s(name.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def trial_rng(master_seed: int, stream: int, trial: int) -> np.random.Generator:
    """Generator for one trial, independent across (stream, trial) pairs.

    Seeding by the full (master_seed, stream, trial) tuple makes every
    trial reproducible in isolation, so parallel schedules and trial order
    cannot change any result. The seed is the SeedSequence of the three
    integers' little-endian 32-bit words, at least one word each: the
    entropy numpy derives from the tuple itself, so the generator is the
    one ``np.random.default_rng((master_seed, stream, trial))`` gives,
    without numpy's Python-level coercion of the tuple.
    """
    words = []
    for name, x in (("master_seed", master_seed), ("stream", stream), ("trial", trial)):
        x = _count(name, x, 0)
        words.append(x & 0xFFFFFFFF)
        while x > 0xFFFFFFFF:
            x >>= 32
            words.append(x & 0xFFFFFFFF)
    seq = np.random.SeedSequence(np.array(words, dtype=np.uint32))
    return np.random.Generator(np.random.PCG64(seq))
