"""Monte Carlo experiment runners for hull functionals.

Each experiment draws independent trials, pushes them through the hull
pipeline, and reduces to an EstimateResult, attaching the matching
closed-form target when one exists. Reproducibility contract, kept by
``trial_values``, the one trial loop of every sampled experiment in the
package: trial t seeds its own generator from (master_seed, stream of the
experiment's name, t) and returns its value, and the values are collected
in trial-index order in one serial loop, so a config and seed always give
the same bits. ``walk_hull_values`` runs that loop over sampled walks and
their hulls, and ``hull_of`` is the one place that picks the 2-D or 3-D
hull by dimension.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .closed_form import (
    ClosedFormTarget,
    ball_intrinsic_volume,
    ev_intrinsic_isotropic,
    expected_faces_at_origin,
)
from .errors import ConfigError, ParameterError, _count, _real
from .hullgeom import (
    hull2d,
    hull3d,
    intrinsic_volumes_2d,
    intrinsic_volumes_3d,
)
from .results import EstimateResult
from .rng_stable import StableSpec, sample_walk_path, stream_id, trial_rng

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
        if self.hill_k is not None:
            object.__setattr__(self, "hill_k", _count("hill_k", self.hill_k, 1, ConfigError))

    def orders(self) -> tuple:
        return self.j_orders or tuple(range(1, self.spec.d + 1))


def _require_walk_spec(spec: StableSpec, dims=(2, 3)):
    if spec.d not in dims:
        raise ConfigError(f"dimension {spec.d} unsupported here (allowed {dims})")
    if spec.flavor == "cpp":
        raise ConfigError("experiment needs a stable or Brownian walk, not cpp")


def trial_values(seed: int, name: str, trials: int, fn) -> list:
    """[fn(rng) for each trial t < trials], rng = trial_rng(seed,
    stream_id(name), t), in trial-index order."""
    stream = stream_id(name)
    return [fn(trial_rng(seed, stream, t)) for t in range(trials)]


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
            "ev_intrinsic",
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
        "gram_det",
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

    out = np.concatenate([block(lo) for lo in range(0, trials, _GRAM_CHUNK)])
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
        "expected_faces_at_origin",
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
    if lam < 1e-8:
        return 1.0
    total = 0.0
    for jj in range(1, 101):
        term = 2.0 * (-1.0) ** (jj - 1) * math.exp(-2.0 * jj * jj * lam * lam)
        total += term
        if abs(term) < 1e-16:
            break
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
