"""Samplers for symmetric stable increments and random paths.

The continuous-time processes handled here are the rotation-invariant
strictly stable ones, with characteristic function exp(-t c |u|^alpha),
plus planar/space Brownian motion as the alpha = 2 member and a
heavy-tailed compound Poisson walk used by the exit-time experiments.

Everything takes an explicit ``numpy.random.Generator``; nothing touches
global random state. ``trial_rng`` derives independent, reproducible
per-trial generators from a master seed, so each trial can be reproduced
on its own, whatever ran before it: trial t's generator is
``np.random.default_rng((master_seed, stream, t))``. The trial loops build
those generators a block at a time with ``_trial_rngs``, which works out
numpy's SeedSequence for the whole block on uint32 arrays and starts each
trial's PCG64 from its state row, each state equal to ``trial_rng``'s.
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
        if not self.points.shape[1]:
            raise ParameterError("points must have at least one coordinate")
        t = self.times
        if t[0] != 0.0 or self.points[0].any():  # NaN counts as nonzero
            raise ParameterError("paths must start at the origin at time 0")
        if not (t[1:] > t[:-1]).all():
            raise ParameterError("times must be strictly increasing")


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
    # allocated after the draws: the other order made a d = 2 walk of
    # 10^4 steps 7% slower to sample
    pts = np.empty((n_steps + 1, spec.d))
    pts[0] = 0.0
    np.cumsum(incs, axis=0, out=pts[1:])
    times = np.arange(n_steps + 1, dtype=np.float64) * (horizon / n_steps)
    return PathSample(times, pts)


def _walk_piece(spec: StableSpec, n_steps: int, horizon: float, rngs, buf, lo: int, m: int):
    """Points lo + 1 .. lo + m of the Gaussian walks ``sample_walk_path(spec,
    n_steps, horizon, rng)``, one for each generator in ``rngs``, written
    to buf[:, 1 : m + 1] bit for bit. ``buf`` is (walks, >= m + 1, d);
    buf[:, 0] must hold point lo, the origin when lo = 0. Each generator
    gives its next m x d normals, which are scaled and summed as the whole
    walk's are: cumsum adds one row after another, so carrying point lo in
    gives the sums of one cumsum over the whole walk."""
    for row, rng in zip(buf, rngs):
        rng.standard_normal(out=row[1 : m + 1])
    steps = buf[:, 1 : m + 1]
    steps *= math.sqrt(2.0 * spec.c)  # as sample_isotropic_vec at alpha = 2
    steps *= (horizon / n_steps) ** (1.0 / spec.alpha)
    # the first piece adds no carry, so a -0.0 first step keeps its sign
    run = buf[:, int(lo == 0) : m + 1]
    np.cumsum(run, axis=1, out=run)


def _pareto_jumps(radii, normals, tail_alpha):
    """Pareto jumps from uniform draws ``radii`` (shape (..., k)) and
    standard normals ``normals`` (shape (..., k, d)), written over
    ``normals`` and returned: each normal row's unit direction times
    radius^(-1/tail_alpha). Elementwise along the leading axes, so a block
    of padded paths gets each path's jumps bit for bit."""
    norms = radii ** (-1.0 / tail_alpha)
    # the unit directions, scaled in place; the norm is np.linalg.norm's
    normals /= np.sqrt(np.add.reduce(normals * normals, axis=-1, keepdims=True))
    normals *= norms[..., None]
    return normals


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
        radii = rng.random(n_jumps)
        jumps = _pareto_jumps(radii, rng.standard_normal((n_jumps, spec.d)), spec.tail_alpha)
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


# numpy's SeedSequence constants: its pool of 4 uint32 words is hashed with
# the A pair, and the state words are drawn from it with the B pair
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL = 4


class _StateRow:
    """The seed sequence of one block-seeded trial: it hands ``PCG64`` the
    trial's precomputed ``generate_state(4, uint64)`` row, so
    ``PCG64(rng.bit_generator.seed_seq)`` restarts the trial's stream.
    ``_trial_rngs`` registers it as an ``ISeedSequence``, which ``PCG64``
    requires."""

    __slots__ = ("row",)

    def __init__(self, row):
        self.row = row

    def generate_state(self, n_words, dtype=np.uint32):
        return self.row


def _hash_consts(init, mult, calls):
    """Columns of the constants of SeedSequence's next ``calls`` hashes from
    hash constant ``init``: each hash xors the constant in, steps it by
    ``mult`` and multiplies by the stepped one."""
    c = [init]
    for _ in range(calls):
        c.append(c[-1] * mult & 0xFFFFFFFF)
    c = np.array(c, dtype=np.uint32)[:, None]
    return c[:-1], c[1:]


def _hash(v, xor, mul):
    v = (v ^ xor) * mul
    v ^= v >> 16
    return v


def _mix(x, y):
    r = _MIX_L * x - _MIX_R * y
    r ^= r >> 16
    return r


def _trial_rngs(master_seed: int, stream: int, lo: int, hi: int) -> list:
    """[trial_rng(master_seed, stream, t) for t in range(lo, hi)], each
    generator's state equal to trial_rng's.

    SeedSequence's pool mixing and ``generate_state(4, uint64)`` are worked
    out on uint32 arrays with one column per trial, which wrap as numpy's
    C code does, and each trial's ``PCG64`` is built from its state row.
    The hashes that go to different pool words from one source word are
    taken at once. Columns differ only in their trial words, the last of
    each entropy: above the pool's 4 words a word that a smaller trial
    lacks is left out of its column's mixing, and below them a missing
    word hashes as 0, as SeedSequence pads the pool."""
    head = []
    for name, x in (("master_seed", master_seed), ("stream", stream)):
        x = _count(name, x, 0)
        head.append(x & 0xFFFFFFFF)
        while x > 0xFFFFFFFF:
            x >>= 32
            head.append(x & 0xFFFFFFFF)
    lo = _count("lo", lo, 0)
    hi = _count("hi", hi, lo)
    n = hi - lo
    if not n:
        return []
    # registered here rather than at import: numpy loads numpy.random on
    # first use (14 ms on a 2-vCPU x86-64 VM), and a run that draws
    # nothing should not pay for it
    from numpy.random.bit_generator import ISeedSequence

    ISeedSequence.register(_StateRow)
    # the trials' words: lo's words plus 0 .. n - 1, carried word by word
    tail = max(1, -(-(hi - 1).bit_length() // 32))
    words = np.zeros((max(_POOL, len(head) + tail), n), dtype=np.uint32)
    words[: len(head)] = np.array(head, dtype=np.uint32)[:, None]
    size = np.full(n, len(head) + 1)  # the words in each column's entropy
    carry, x = np.arange(n, dtype=np.uint64), lo
    for k in range(len(head), len(head) + tail):
        carry += x & 0xFFFFFFFF
        words[k] = carry & 0xFFFFFFFF
        if k > len(head):
            size[words[k] != 0] = k + 1
        carry >>= 32
        x >>= 32
    xor, mul = _hash_consts(_INIT_A, _MULT_A, _POOL * len(words))
    pool = _hash(words[:_POOL], xor[:_POOL], mul[:_POOL])
    k = _POOL
    for src in range(_POOL):
        dst = [i for i in range(_POOL) if i != src]
        pool[dst] = _mix(pool[dst], _hash(pool[src], xor[k : k + 3], mul[k : k + 3]))
        k += 3
    for src in range(_POOL, len(words)):
        mixed = _mix(pool, _hash(words[src], xor[k : k + _POOL], mul[k : k + _POOL]))
        pool = np.where(size > src, mixed, pool)
        k += _POOL
    # generate_state(4, uint64): 8 words cycled from the pool, read as
    # little-endian pairs
    xor, mul = _hash_consts(_INIT_B, _MULT_B, 2 * _POOL)
    state = _hash(np.concatenate([pool, pool]), xor, mul)
    rows = np.ascontiguousarray(state.T, dtype="<u4").view("<u8").astype(np.uint64)
    return [np.random.Generator(np.random.PCG64(_StateRow(row))) for row in rows]


def _restart(rng) -> np.random.Generator:
    """A new generator at the start of ``rng``'s trial stream: a fresh
    ``PCG64`` of the state row that ``_trial_rngs`` gave it."""
    return np.random.Generator(np.random.PCG64(rng.bit_generator.seed_seq))
