"""Monte Carlo experiment runners for hull functionals.

Each experiment draws independent trials, pushes them through the hull
pipeline, and reduces to an EstimateResult, attaching the matching
closed-form target when one exists. Reproducibility contract, kept by
``_block_values``, the one trial loop of every sampled experiment in the
package (``trial_values`` and the exit scans' block kernels): trial t
draws from its own generator, ``trial_rng(master_seed, stream of the
experiment's name, t)``, and the values are collected in trial-index
order, so a config and seed always give the same bits. The loop cuts the
trials into even blocks, as many as the processes need for even shares,
and seeds each block at once with ``rng_stable._trial_rngs``.
``walk_hull_values`` runs ``trial_values`` over sampled walks and their
hulls, and ``hull_of`` is the one place that picks the 2-D or 3-D hull by
dimension.

Every trial loop goes through ``_ordered_map``. It is serial unless a
run is in progress under ``_processes(n)`` (``cli_report.run_all`` with
``threads`` = n > 1). Then, at the first loop of the run, n - 1 worker
processes are forked once, and from there on every process runs the same
code: each computes its own contiguous block of every loop, and the
blocks pass through one ``multiprocessing`` connection per worker, so that
every process holds the whole list in index order. The values, and hence
the bits, are those of the serial loop. Linux only: elsewhere runs stay
serial.
"""

from __future__ import annotations

import math
import os
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .closed_form import (
    ClosedFormTarget,
    ball_intrinsic_volume,
    ev_intrinsic_isotropic,
    expected_faces_at_origin,
)
from .errors import ConfigError, LevyHullError, ParameterError, _count, _real
from .hullgeom import (
    hull2d,
    hull3d,
    intrinsic_volumes_2d,
    intrinsic_volumes_3d,
)
from .results import EstimateResult
from .rng_stable import StableSpec, _trial_rngs, sample_walk_path, stream_id, trial_rng

__all__ = [
    "ExperimentConfig",
    "hill_tail_index",
    "ks_two_sample",
    "run_boundary_origin_experiment",
    "run_faces_experiment",
    "run_gram_experiment",
    "run_interior_endpoint_experiment",
    "run_intrinsic_volume_experiment",
    "run_tail_index_experiment",
]


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment request: which process, how long, how many trials."""

    spec: StableSpec
    n_steps: int = 10_000
    trials: int = 10_000
    j_orders: tuple = ()
    horizon: float = 1.0
    master_seed: int = 0
    hill_k: int | None = None

    def __post_init__(self):
        if not isinstance(self.spec, StableSpec):
            raise ConfigError("spec must be a StableSpec")
        object.__setattr__(self, "trials", _count("trials", self.trials, 100, ConfigError))
        object.__setattr__(self, "n_steps", _count("n_steps", self.n_steps, 1, ConfigError))
        js = tuple(_count("j_orders entry", j, 1, ConfigError) for j in self.j_orders)
        if js and not set(js) <= set(range(1, self.spec.d + 1)):
            raise ConfigError(
                f"j_orders {js!r} must lie in 1..{self.spec.d}"
            )
        object.__setattr__(self, "j_orders", js)
        horizon = _real("horizon", self.horizon, gt=0, error=ConfigError)
        object.__setattr__(self, "horizon", horizon)
        seed = _count("master_seed", self.master_seed, 0, ConfigError)
        object.__setattr__(self, "master_seed", seed)
        if self.hill_k is not None:
            object.__setattr__(self, "hill_k", _count("hill_k", self.hill_k, 1, ConfigError))

    def orders(self) -> tuple:
        return self.j_orders or tuple(range(1, self.spec.d + 1))


def _require_walk_spec(spec: StableSpec, dims=(2, 3)):
    if spec.d not in dims:
        raise ConfigError(f"dimension {spec.d} unsupported here (allowed {dims})")
    if spec.flavor == "cpp":
        raise ConfigError("experiment needs a stable or Brownian walk, not cpp")


class _Team:
    """The processes of one run: this one, rank 0, and after its first
    ``map`` n - 1 forked workers of ranks 1 .. n - 1. Every process makes
    the same ``map`` calls in the same order, because every process runs
    the same code on the same inputs."""

    def __init__(self, n: int):
        self.n = n
        self.rank = 0
        self.pids = []  # the parent's workers, in rank order
        self.links = None  # connections: to each worker in rank order, or to the parent
        self.busy = False  # inside a map's own block: nested maps run serially

    @property
    def processes(self) -> int:
        """The number of processes that ran this run's loops."""
        return self.n if self.links is not None else 1

    def _fork(self):
        # imported here: serial runs never pay for the multiprocessing package
        from multiprocessing.connection import Pipe

        self.links = []
        for rank in range(1, self.n):
            mine, theirs = Pipe()
            self.links.append(mine)
            pid = os.fork()
            if pid == 0:  # keep no other end open, so a dead peer reads as EOF
                for link in self.links:
                    link.close()
                self.rank, self.pids, self.links = rank, [], [theirs]
                return
            theirs.close()
            self.pids.append(pid)

    def map(self, fn, items) -> list:
        if self.links is None:
            self._fork()
        lo = len(items) * self.rank // self.n
        hi = len(items) * (self.rank + 1) // self.n
        values, failure = [], None
        self.busy = True
        try:
            for i in range(lo, hi):
                values.append(fn(items[i]))
        except Exception as exc:  # raised below, once every block is in
            failure = exc
        finally:
            self.busy = False
        # the workers send their (values, exception or None) block to the
        # parent, which sends every process's block back in rank order
        try:
            if self.rank:
                self.links[0].send((values, failure))
                blocks = self.links[0].recv()
                blocks[self.rank] = (values, failure)
            else:
                blocks = [(values, failure)] + [link.recv() for link in self.links]
                for link in self.links:
                    link.send(blocks)
        except (EOFError, OSError) as exc:
            peer = "the parent process" if self.rank else "a worker process"
            raise LevyHullError(f"{peer} of this run is gone ({exc!r})") from exc
        for _, exc in blocks:  # the first failing block holds the lowest index
            if exc is not None:
                raise exc
        return [v for block, _ in blocks for v in block]

    def close(self, failed: bool):
        """The parent's end of the run: close the connections and reap
        every worker, killing it first if the run failed."""
        for link in self.links or ():
            link.close()
        for pid in self.pids:
            if failed:
                os.kill(pid, 9)  # SIGKILL
            os.waitpid(pid, 0)
        self.pids = []


_team = None  # the _Team of the run in progress in this process, if any


def _process_count(n: int) -> int:
    """n, capped at the CPUs this process may run on; 1 where the system
    cannot tell."""
    affinity = getattr(os, "sched_getaffinity", None)
    return 1 if affinity is None else max(1, min(n, len(affinity(0))))


@contextmanager
def _processes(n: int):
    """Run the body with every ``_ordered_map`` split across up to n
    processes, the parent and workers it forks at the body's first loop.
    Yields the run's _Team. A worker never leaves the body: it ends there
    with ``os._exit``. The parent reaps every worker before it leaves."""
    global _team
    team = _team = _Team(_process_count(n))
    try:
        yield team
    except BaseException:
        if team.rank:
            os._exit(1)
        team.close(failed=True)
        raise
    else:
        if team.rank:
            os._exit(0)
        team.close(failed=False)
    finally:
        _team = None


def _ordered_map(fn, items) -> list:
    """[fn(x) for x in items] for a sized, indexable ``items``. Inside
    ``_processes(n)`` with n > 1, each process computes one of n contiguous
    blocks of the items and receives the others, so every process returns
    the whole list in order; if an item fails, every process raises the
    exception of the lowest failing index. A call made from inside ``fn``
    runs serially in the process that makes it."""
    team = _team
    if team is None or team.n == 1 or team.busy:
        return [fn(x) for x in items]
    return team.map(fn, items)


def _even_blocks(trials: int, cap: int, processes: int) -> list:
    """(lo, hi) blocks that cut range(trials) evenly into blocks of at most
    ``cap`` trials, their count a multiple of ``processes`` (or one block
    a trial when there are fewer trials), so that ``_ordered_map`` hands
    each process trials * rank // processes .. trials * (rank + 1) //
    processes."""
    k = -(-trials // cap)
    k = min(trials, -(-k // processes) * processes)
    return [(trials * i // k, trials * (i + 1) // k) for i in range(k)]


def _block_values(seed: int, name: str, trials: int, cap: int, block) -> list:
    """The trial loop: block(rngs) on even blocks of at most ``cap`` trials
    through ``_ordered_map``, rngs the block's ``trial_rng(seed,
    stream_id(name), t)`` built at once by ``_trial_rngs``, and the
    blocks' value lists joined in trial-index order. The blocks are cut
    for the run's processes, or for one inside another loop's item, where
    ``_ordered_map`` runs serially."""
    stream = stream_id(name)
    team = _team
    processes = 1 if team is None or team.busy else team.n
    blocks = _even_blocks(trials, cap, processes)
    vals = _ordered_map(lambda b: block(_trial_rngs(seed, stream, *b)), blocks)
    return [v for part in vals for v in part]


_TRIAL_BLOCK = 128  # trials seeded at once by trial_values


def trial_values(seed: int, name: str, trials: int, fn) -> list:
    """[fn(rng) for each trial t < trials], rng = trial_rng(seed,
    stream_id(name), t), in trial-index order, through ``_block_values``."""
    return _block_values(seed, name, trials, _TRIAL_BLOCK, lambda rngs: [fn(rng) for rng in rngs])


def hull_of(points: np.ndarray):
    """The convex hull of planar or spatial points, by their dimension."""
    return hull2d(points) if points.shape[1] == 2 else hull3d(points)


def walk_hull_values(
    spec: StableSpec, n_steps: int, horizon: float, trials: int, seed: int, name: str, fn
) -> list:
    """fn(hull, path) on each trial's sampled walk of ``spec`` and its
    hull, through ``trial_values``."""

    def one(rng):
        path = sample_walk_path(spec, n_steps, horizon, rng)
        return fn(hull_of(path.points), path)

    return trial_values(seed, name, trials, one)


def _config_values(cfg: ExperimentConfig, name: str, fn) -> np.ndarray:
    """walk_hull_values on the walk, length, horizon, trials and seed of
    ``cfg``, as an array."""
    return np.array(
        walk_hull_values(
            cfg.spec, cfg.n_steps, cfg.horizon, cfg.trials, cfg.master_seed, name, fn
        )
    )


def _intrinsic_values(poly) -> tuple:
    """(V_1, ..., V_d) for a hull of any intrinsic dimension, in its
    ambient dimension d."""
    return (intrinsic_volumes_2d if poly.dim == 2 else intrinsic_volumes_3d)(poly).values[1:]


def run_intrinsic_volume_experiment(cfg: ExperimentConfig):
    """Mean V_j of walk hulls, one EstimateResult per requested j, each
    with its closed-form target scaled by horizon^(j/alpha)."""
    _require_walk_spec(cfg.spec)
    spec = cfg.spec
    js = tuple(dict.fromkeys(cfg.orders()))  # each order once

    def one(poly, path):
        iv = _intrinsic_values(poly)
        return [iv[j - 1] for j in js]

    vals = _config_values(cfg, "intrinsic_volumes", one)
    out = []
    for k, j in enumerate(js):
        limit = ev_intrinsic_isotropic(spec.alpha, spec.c, spec.d, j)
        tgt = ClosedFormTarget(
            limit * cfg.horizon ** (j / spec.alpha),
            {
                "alpha": spec.alpha,
                "c": spec.c,
                "d": spec.d,
                "j": j,
                "horizon": cfg.horizon,
                "n_steps": cfg.n_steps,
            },
        )
        out.append(
            EstimateResult.from_samples(vals[:, k], target=tgt)
        )
    return out


_GRAM_CHUNK = 8192


def run_gram_experiment(
    d: int,
    j: int,
    trials: int = 10_000,
    seed: int = 0,
) -> EstimateResult:
    """E sqrt(det M^T M) for M with j i.i.d. standard Gaussian columns in
    R^d, against the target j! V_j((2 pi)^(-1/2) B^d)."""
    d, j, trials = _count("d", d), _count("j", j), _count("trials", trials, 2)
    if not j <= d <= 6:
        raise ParameterError(f"need 1 <= j <= d <= 6, got j={j}, d={d}")
    target = ClosedFormTarget(
        math.factorial(j)
        * ball_intrinsic_volume(d, j, 1.0 / math.sqrt(2.0 * math.pi)),
        {"d": d, "j": j},
    )
    stream = stream_id("gram_determinant")

    def block(lo: int):
        n = min(_GRAM_CHUNK, trials - lo)
        rng = trial_rng(seed, stream, lo)
        x = rng.standard_normal((n, j, d))
        dets = np.linalg.det(x @ np.swapaxes(x, 1, 2))
        return np.sqrt(np.maximum(dets, 0.0))

    out = np.concatenate(_ordered_map(block, range(0, trials, _GRAM_CHUNK)))
    return EstimateResult.from_samples(out, target=target)


def _facets_at(poly, x) -> int:
    """The number of hull facets that hold the input point x as a vertex,
    by an exact row match: 2 on a polygon or a hull of dimension d - 1
    (one per side), the triangles at x on a 3-D mesh, 0 if x is not a
    vertex or the hull is lower-dimensional still."""
    hit = (poly.vertices == x).all(axis=1).nonzero()[0]
    if not len(hit) or poly.intrinsic_dim < poly.dim - 1:
        return 0
    if poly.facets is None:
        return 2
    return sum(int(hit[0]) in f for f in poly.facets)


def run_boundary_origin_experiment(cfg: ExperimentConfig):
    """Frequency of the origin S_0 on the hull boundary, i.e. a hull vertex,
    plus the Markov bound E(faces at origin); the frequency can never exceed
    the bound beyond noise since the face count is >= 1 on that event."""
    _require_walk_spec(cfg.spec, dims=(2,))

    def one(poly, path):
        return float(_facets_at(poly, path.points[0]) > 0)

    vals = _config_values(cfg, "boundary_origin", one)
    freq = EstimateResult.from_samples(vals)
    return freq, expected_faces_at_origin(cfg.n_steps, 2)


def run_interior_endpoint_experiment(cfg: ExperimentConfig) -> EstimateResult:
    """Frequency of the walk endpoint S_n falling strictly inside the hull
    of the whole path: the hull is full-dimensional and S_n is not one of
    its vertices. Tends to 1 as n_steps grows."""
    _require_walk_spec(cfg.spec)
    d = cfg.spec.d

    def one(poly, path):
        return float(poly.intrinsic_dim == d and not _facets_at(poly, path.points[-1]))

    vals = _config_values(cfg, "interior_endpoint", one)
    return EstimateResult.from_samples(vals)


def run_faces_experiment(cfg: ExperimentConfig) -> EstimateResult:
    """Mean number of hull facets with the origin S_0 as a vertex, against
    the exact combinatorial formula. The 3D formula is a validation gate, not
    a settled identity, so reporting layers mark d = 3 as informational."""
    _require_walk_spec(cfg.spec)
    d = cfg.spec.d
    vals = _config_values(
        cfg, "faces_count", lambda poly, path: float(_facets_at(poly, path.points[0]))
    )
    target = ClosedFormTarget(
        expected_faces_at_origin(cfg.n_steps, d),
        {"n": cfg.n_steps, "d": d},
    )
    return EstimateResult.from_samples(vals, target=target)


def hill_tail_index(samples, k: int | None = None) -> float:
    """Hill estimator of the tail index from the top k order statistics:
    k / sum(log(X_(i) / X_(k+1))). Default k = floor(len**0.6)."""
    arr = np.asarray(samples, dtype=np.float64).ravel()
    if arr.size < 3:
        raise ParameterError("need at least 3 samples")
    if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0):
        raise ParameterError("samples must be finite and strictly positive")
    k = int(arr.size**0.6) if k is None else _count("k", k)
    if k >= arr.size:
        raise ParameterError(f"k must satisfy 1 <= k < {arr.size}, got {k}")
    srt = np.sort(arr)[::-1]
    s = float(np.log(srt[:k] / srt[k]).sum())
    if s <= 0.0:
        return math.inf
    return k / s


def run_tail_index_experiment(cfg: ExperimentConfig):
    """Hill tail index of per-trial V_j samples (first requested j). Heavy
    stable jumps should reproduce the index alpha; the stderr is the
    asymptotic hill deviation estimate / sqrt(k)."""
    _require_walk_spec(cfg.spec)
    col = cfg.orders()[0] - 1
    vals = _config_values(cfg, "tail_index", lambda poly, path: _intrinsic_values(poly)[col])
    k = cfg.hill_k if cfg.hill_k is not None else int(cfg.trials**0.6)
    est = hill_tail_index(vals, k)
    stderr = est / math.sqrt(k) if math.isfinite(est) else 0.0
    return EstimateResult(mean=est, stderr=stderr, trials=cfg.trials)


def _kolmogorov_sf(lam: float) -> float:
    """P(K > lam) for the Kolmogorov distribution K, from the alternating
    series 2 sum_j (-1)^(j-1) exp(-2 j^2 lam^2). Below lam of about 0.043
    that series has not converged in 100 terms; there the theta form
    1 - sqrt(2 pi)/lam sum_j exp(-(2j-1)^2 pi^2 / (8 lam^2)) is used."""
    if lam < 1e-8:
        return 1.0
    total = 0.0
    for jj in range(1, 101):
        term = 2.0 * (-1.0) ** (jj - 1) * math.exp(-2.0 * jj * jj * lam * lam)
        total += term
        if abs(term) < 1e-16:
            break
    else:
        theta = 0.0
        for jj in range(1, 101):
            term = math.exp(-((2 * jj - 1) ** 2) * math.pi**2 / (8.0 * lam * lam))
            theta += term
            if term <= 1e-16 * theta:
                break
        total = 1.0 - math.sqrt(2.0 * math.pi) / lam * theta
    return min(max(total, 0.0), 1.0)


def ks_two_sample(a, b) -> tuple:
    """Two-sample Kolmogorov-Smirnov statistic with the asymptotic
    p-value."""
    a = np.sort(np.asarray(a, dtype=np.float64).ravel())
    b = np.sort(np.asarray(b, dtype=np.float64).ravel())
    if a.size == 0 or b.size == 0:
        raise ParameterError("both samples must be non-empty")
    data = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, data, side="right") / a.size
    cdf_b = np.searchsorted(b, data, side="right") / b.size
    stat = float(np.abs(cdf_a - cdf_b).max())
    en = a.size * b.size / (a.size + b.size)
    lam = (math.sqrt(en) + 0.12 + 0.11 / math.sqrt(en)) * stat
    return stat, _kolmogorov_sf(lam)
