"""Exit-time splitting, renewal statistics, and long-horizon convergence
experiments.

A path is split at the successive first times it travels unit distance
from its previous anchor. The anchors form an embedded random walk, the
exit count per unit time obeys a renewal law, and rescaled hulls of
heavy-jump processes approach the hull of a stable path. Exit detection
conventions: "grid" takes the first sample at distance >= 1 (positive
time bias, exact for pure-jump paths sampled at jump times), "linear"
interpolates the crossing on the segment (exact for piecewise-linear
motion), and passing ``drift`` scans the piecewise jump-plus-drift motion
exactly. Each scan is a lazy generator of (time, point) exits:
``exit_times`` collects all of it, while the first-exit statistics (the
mean of T_1, the tail of ||X(T_1)||) stop the scan at the first exit.

The scanners work on Python floats, one coordinate at a time, and round
every operation as the numpy code they replaced did, so their records
are bit-identical to it. Differences and products of coordinates round
alike in both. Squared distances are added left to right from 0.0, as
numpy sums rows of fewer than 8 entries. Dot products are numpy's ``@``,
which is OpenBLAS ``ddot``: the fused-multiply-add chain acc = x0 y0,
then acc = fma(x_i, y_i, acc). Python before 3.13 has no ``math.fma``,
so ``_fma`` computes it exactly from Dekker's split product and one
``math.fsum``. For d >= 8 numpy sums pairwise and ``ddot`` unrolls, so
there the records can differ from numpy's in the last bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .closed_form import ClosedFormTarget, gamma_fn
from .errors import ConfigError, ParameterError, ResourceError, _count, _real
from .hullgeom import hull2d, intrinsic_volumes_2d
from .mc_engine import hill_tail_index, ks_two_sample, trial_values, walk_hull_values
from .results import EstimateResult
from .rng_stable import PathSample, StableSpec, sample_cpp_path, sample_walk_path

__all__ = [
    "ExitRecord",
    "estimate_mean_exit_time",
    "exit_times",
    "exit_value_tail_experiment",
    "renewal_ratio_experiment",
    "scaled_hull_convergence",
]


@dataclass(frozen=True)
class ExitRecord:
    """Successive unit-ball exit times and positions along one path."""

    exit_times: np.ndarray
    exit_points: np.ndarray
    horizon: float

    def __post_init__(self):
        t = np.asarray(self.exit_times, dtype=np.float64)
        p = np.asarray(self.exit_points, dtype=np.float64)
        if t.ndim != 1 or p.ndim != 2 or len(t) != len(p):
            raise ParameterError("exit_times (k,) must align with exit_points (k, d)")
        horizon = _real("horizon", self.horizon, gt=0)
        if t.size:
            if not (np.all(np.diff(t) > 0.0) and t[0] > 0.0 and t[-1] <= horizon):
                raise ParameterError(
                    "exit times must be strictly increasing within (0, horizon]"
                )
            anchors = np.vstack([np.zeros((1, p.shape[1])), p])
            steps = np.linalg.norm(np.diff(anchors, axis=0), axis=1)
            if float(steps.min()) < 1.0 - 1e-6:
                raise ParameterError("consecutive exit increments must reach length 1")
        t.setflags(write=False)
        p.setflags(write=False)
        object.__setattr__(self, "exit_times", t)
        object.__setattr__(self, "exit_points", p)
        object.__setattr__(self, "horizon", horizon)

    @property
    def n_exits(self) -> int:
        return int(self.exit_times.size)

    def count_up_to(self, s: float) -> int:
        return int(np.searchsorted(self.exit_times, s, side="right"))


def _first_outside(cols, anchor, start):
    """Index of the first sample at or after ``start`` at distance >= 1
    from ``anchor``, or the sample count. ``cols`` holds the coordinate
    columns as float lists and ``anchor`` one float per column."""
    # left to right from 0.0, as numpy sums rows of d < 8; sum/fsum/hypot/dot differ
    n = len(cols[0])
    if len(cols) == 2:  # the planar case, unrolled
        (xs, ys), (ax, ay) = cols, anchor
        for k in range(start, n):
            dx = xs[k] - ax
            dy = ys[k] - ay
            if dx * dx + dy * dy >= 1.0:
                return k
        return n
    for k in range(start, n):
        s = 0.0
        for col, a in zip(cols, anchor):
            di = col[k] - a
            s = s + di * di
        if s >= 1.0:
            return k
    return n


def _exits_grid(times, pts):
    cols = pts.T.tolist()
    k = 0
    while True:
        k = _first_outside(cols, [c[k] for c in cols], k + 1)
        if k == len(pts):
            return
        yield times[k], pts[k]


_SPLIT = 134217729.0  # 2**27 + 1: Veltkamp's split of a double into 26-bit halves


def _fma(a, b, c):
    """a * b + c rounded once, as a fused multiply-add rounds it.

    Dekker's product gives a * b = p + e exactly, and ``math.fsum``
    rounds p + e + c once. Exact for finite a, b, c while the split does
    not overflow (|a|, |b| below about 2**996) and a * b lies above the
    subnormal range (|a * b| above about 2**-969), where e would be
    rounded too."""
    p = a * b
    t = _SPLIT * a
    ah = t - (t - a)
    al = a - ah
    t = _SPLIT * b
    bh = t - (t - b)
    bl = b - bh
    e = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    r = math.fsum((p, e, c))
    return r if r else a * b + c  # fsum drops the sign of an exact zero


def _dot(x, y):
    """x . y rounded as numpy's ``@`` rounds it for d < 8: OpenBLAS ddot,
    the fused chain acc = x0 y0, then acc = fma(x_i, y_i, acc)."""
    if len(x) == 2:  # the planar case, unrolled
        return _fma(x[1], y[1], x[0] * y[0])
    acc = x[0] * y[0]
    for i in range(1, len(x)):
        acc = _fma(x[i], y[i], acc)
    return acc


def _first_sphere_crossing(q, v, vv, s_lo, s_hi):
    """Smallest s in (s_lo, s_hi] with ||q + s v|| = 1, or None; assumes
    the motion starts inside the closed unit ball. ``q`` and ``v`` are
    float sequences and ``vv`` is ``_dot(v, v)``."""
    if vv <= 0.0:
        return None
    qv = _dot(q, v)
    disc = qv * qv - vv * (_dot(q, q) - 1.0)
    if disc < 0.0:
        return None
    s = (-qv + math.sqrt(disc)) / vv
    if s <= s_lo + 1e-15 or s > s_hi + 1e-12:
        return None
    return min(s, s_hi)


def _exits_linear(times, pts):
    # The ball is convex, so a segment with both endpoints inside the
    # anchor ball stays inside: only the first sample at distance >= 1
    # can close a crossing segment. The rounding follows numpy's, as the
    # module docstring explains.
    cols = pts.T.tolist()
    n = len(pts)
    if len(cols) == 2:  # the planar case, unrolled
        xs, ys = cols
        ax, ay = xs[0], ys[0]
        k = 0
        while True:
            k = _first_outside(cols, (ax, ay), k + 1)
            if k == n:
                return
            px, py, bx, by = xs[k - 1], ys[k - 1], xs[k], ys[k]
            vx, vy = bx - px, by - py
            v = (vx, vy)
            vv = _dot(v, v)
            t0 = times[k - 1]
            dt = times[k] - t0
            s_lo = 0.0
            while True:
                s = _first_sphere_crossing((px - ax, py - ay), v, vv, s_lo, 1.0)
                if s is None:
                    s = 1.0  # endpoint sits on the sphere within rounding
                ax, ay = px + s * vx, py + s * vy
                yield t0 + s * dt, np.array((ax, ay))
                s_lo = s
                dx, dy = bx - ax, by - ay
                if s >= 1.0 or dx * dx + dy * dy < 1.0:
                    break
    anchor = [c[0] for c in cols]
    k = 0
    while True:
        k = _first_outside(cols, anchor, k + 1)
        if k == n:
            return
        a = [c[k - 1] for c in cols]
        b = [c[k] for c in cols]
        seg = [bi - ai for ai, bi in zip(a, b)]
        vv = _dot(seg, seg)
        t0 = times[k - 1]
        dt = times[k] - t0
        s_lo = 0.0
        while True:
            q = [ai - ci for ai, ci in zip(a, anchor)]
            s = _first_sphere_crossing(q, seg, vv, s_lo, 1.0)
            if s is None:
                s = 1.0  # endpoint sits on the sphere within rounding
            anchor = [ai + s * si for ai, si in zip(a, seg)]
            yield t0 + s * dt, np.array(anchor)
            s_lo = s
            if s >= 1.0:
                break
            r = 0.0
            for bi, ci in zip(b, anchor):
                di = bi - ci
                r = r + di * di
            if r < 1.0:
                break


def _exits_with_drift(times, pts, v):
    ts, rows, v = times.tolist(), pts.tolist(), v.tolist()
    vv = _dot(v, v)
    anchor = rows[0]
    last_t = 0.0
    for k in range(len(rows) - 1):
        p_k = rows[k]
        dt = ts[k + 1] - ts[k]
        s_lo = 0.0
        while True:
            q = [pi - ci for pi, ci in zip(p_k, anchor)]
            s = _first_sphere_crossing(q, v, vv, s_lo, dt)
            if s is None:
                break
            last_t = ts[k] + s
            anchor = [pi + s * vi for pi, vi in zip(p_k, v)]
            yield last_t, np.array(anchor)
            if s >= dt:  # the crossing was clamped to the jump time
                break
            s_lo = s
        # the jump lands the path at pts[k + 1]; it may exit outright
        # (np.linalg.norm is the square root of the same fused dot)
        gap = [pi - ci for pi, ci in zip(rows[k + 1], anchor)]
        if math.sqrt(_dot(gap, gap)) >= 1.0:
            last_t = max(ts[k + 1], math.nextafter(last_t, math.inf))
            anchor = rows[k + 1]
            yield last_t, pts[k + 1]


def _exits(path: PathSample, drift=None, mode: str = "grid"):
    """Lazy (time, point) generator of a path's successive unit-ball
    exits; see ``exit_times`` for the arguments."""
    if not isinstance(path, PathSample):
        raise ParameterError("path must be a PathSample")
    times, pts = path.times, path.points
    if drift is not None:
        v = np.asarray(drift, dtype=np.float64)
        if v.shape != (pts.shape[1],):
            raise ParameterError("drift must match the path dimension")
        return _exits_with_drift(times, pts, v)
    if mode == "grid":
        return _exits_grid(times, pts)
    if mode == "linear":
        return _exits_linear(times, pts)
    raise ParameterError(f"unknown mode {mode!r}")


def exit_times(path: PathSample, drift=None, mode: str = "grid") -> ExitRecord:
    """Scan a path for its successive unit-ball exits.

    mode "grid": exits at the first sample point at distance >= 1 from the
    anchor (exact for pure-jump paths sampled at jump times). mode
    "linear": exact crossing of the linearly interpolated segment, so the
    recorded increment has length exactly 1. Passing ``drift`` treats the
    samples as jump positions of a jump-plus-drift motion and scans that
    motion exactly; mode is ignored.
    """
    exits = list(_exits(path, drift, mode))
    d = path.points.shape[1]
    return ExitRecord(
        np.array([t for t, _ in exits], dtype=np.float64),
        np.array([p for _, p in exits], dtype=np.float64).reshape(len(exits), d),
        horizon=float(path.times[-1]),
    )


def _scan_for(spec: StableSpec, horizon: float, n_steps: int, rng, scan):
    """Sample one path of ``spec`` and hand it to ``scan`` in the exit
    convention that is exact for that path."""
    if spec.flavor != "cpp":
        return scan(sample_walk_path(spec, n_steps, horizon, rng), mode="linear")
    path = sample_cpp_path(spec, horizon, rng)
    if any(spec.drift):  # a finite tuple: truthy iff some entry is nonzero
        return scan(path, drift=spec.drift)
    return scan(path, mode="grid")


def _record_for(spec: StableSpec, horizon: float, n_steps: int, rng) -> ExitRecord:
    return _scan_for(spec, horizon, n_steps, rng, exit_times)


def _first_exit(spec: StableSpec, horizon: float, n_steps: int, rng):
    """(time, point) of the first unit-ball exit of one sampled path, or
    None; the scan stops at that exit."""
    return next(_scan_for(spec, horizon, n_steps, rng, _exits), None)


def _first_exit_values(spec, horizon, n_steps, trials, seed, name, value):
    """value(time, point) of each trial's first exit, in trial order; paths
    that never exit are dropped. Only the values outlive their trial, not
    the exit point, which may be a view of the whole path."""

    def one(rng):
        first = _first_exit(spec, horizon, n_steps, rng)
        return None if first is None else value(*first)

    vals = trial_values(seed, name, trials, one)
    return np.array([v for v in vals if v is not None], dtype=np.float64)


_MAX_WALK_STEPS = 10**6  # about 40 MB per d = 2 walk path (points and increments)
_ET1_HORIZON = 40.0  # the horizon of the E T_1 batch of renewal_ratio_experiment
_DRIFT_TAIL_HORIZON = 10.0  # the horizon of exit_value_tail_experiment without jumps


def _walk_steps(flavor: str, horizon: float, dt: float) -> int:
    """The number of dt steps of a walk up to ``horizon``, refused past
    _MAX_WALK_STEPS; 1 for a cpp path, which is sampled at its jumps and
    ignores dt."""
    if flavor == "cpp":
        return 1
    steps = horizon / dt
    if not steps <= _MAX_WALK_STEPS:
        raise ResourceError(
            f"dt = {dt!r} needs {steps:.3g} steps per path up to time {horizon!r}, "
            f"more than the cap of {_MAX_WALK_STEPS}"
        )
    return max(1, int(round(steps)))


def estimate_mean_exit_time(
    spec: StableSpec,
    trials: int = 2000,
    seed: int = 0,
    horizon: float = _ET1_HORIZON,
    dt: float = 0.01,
) -> EstimateResult:
    """Mean first exit time from the unit ball, from an independent batch
    of paths. Paths that never exit within the horizon are dropped (their
    count is recoverable from ``trials`` minus the result's trials). A walk
    longer than horizon / dt = 10^6 steps raises ResourceError."""
    trials = _count("trials", trials, 2)
    horizon, dt = _real("horizon", horizon, gt=0), _real("dt", dt, gt=0)
    n_steps = _walk_steps(spec.flavor, horizon, dt)
    got = _first_exit_values(
        spec, horizon, n_steps, trials, seed, "mean_exit_time", lambda t, x: t
    )
    if got.size < 2:
        raise ConfigError("almost no paths exited; increase the horizon")
    return EstimateResult.from_samples(got)


def renewal_ratio_experiment(
    spec: StableSpec,
    t_values,
    trials: int = 1000,
    seed: int = 0,
    dt: float = 0.01,
    et1_trials: int | None = None,
):
    """E[N_t / t] for each t, against the renewal rate 1/E(T_1) estimated
    from an independent batch. Both sides scan paths sampled at the same
    dt, so the grid detection bias largely cancels in the comparison. The
    rate estimate rides along in each result's target params. A walk
    longer than 10^6 steps (t / dt, or 40 / dt for the E T_1 batch) raises
    ResourceError before any path is drawn."""
    t_values = [_real("t_values entry", t, gt=0) for t in t_values]
    if not t_values:
        raise ParameterError("t_values must not be empty")
    trials = _count("trials", trials, 2)
    dt = _real("dt", dt, gt=0)
    n_steps = [_walk_steps(spec.flavor, t, dt) for t in t_values]
    et1 = estimate_mean_exit_time(
        spec,
        trials=et1_trials or max(trials, 1000),
        seed=seed + 1,
        dt=dt,
    )
    rate = 1.0 / et1.mean
    out = []
    for t_idx, (t, n) in enumerate(zip(t_values, n_steps)):
        vals = trial_values(
            seed, f"renewal_ratio_{t_idx}", trials,
            lambda rng: _record_for(spec, t, n, rng).n_exits / t,
        )
        target = ClosedFormTarget(
            "renewal_rate",
            rate,
            {
                "t": t,
                "dt": dt,
                "et1_mean": et1.mean,
                "et1_stderr": et1.stderr,
                "et1_trials": et1.trials,
            },
        )
        out.append(EstimateResult.from_samples(vals, target=target))
    return out


def _fit_attractor_scale(inc_coords: np.ndarray, alpha: float) -> float:
    """Per-increment scale c of the stable law attracting the embedded
    walk, from its increment first coordinates. Heavy tails are pinned by
    the tail constant (top order statistics mapped through the Tauberian
    factor); the Gaussian edge alpha = 2 is pinned by the variance. A
    median fit is not consistent here: the bulk of heavy-jump sums lags
    the stable law long after the tail has converged."""
    x = np.asarray(inc_coords, dtype=np.float64)
    x = x[np.isfinite(x)]
    if x.size < 50:
        raise ConfigError("too few embedded increments to fit a scale")
    if alpha >= 2.0:
        c = float(np.var(x)) / 2.0  # exp(-c u^2) has variance 2c
        if c <= 0.0:
            raise ConfigError("degenerate increments; cannot fit a scale")
        return c
    mag = np.sort(np.abs(x))
    n = mag.size
    k = min(n - 1, max(20, int(n**0.6)))
    xk = float(mag[n - k - 1])
    if xk <= 0.0:
        raise ConfigError("degenerate increments; cannot fit a scale")
    tail_const = (k / n) * xk**alpha  # P(|inc| > t) ~ tail_const * t^-alpha
    tauberian = math.pi / (2.0 * gamma_fn(alpha) * math.sin(math.pi * alpha / 2.0))
    return tail_const * tauberian


def _scaled_hull_limit(spec: StableSpec, trials: int, seed: int, n_steps_limit: int):
    """The t-independent side of ``scaled_hull_convergence``, checked by
    its caller: (alpha, E T_1, fitted c, V_1 of each fitted stable-walk
    hull run to time 1/E T_1). A runner comparing several t builds it once."""
    # square-integrable jumps attract to the Gaussian law
    alpha = spec.tail_alpha if spec.jump_law == "pareto" else 2.0

    # batch of exit records: renewal spans and embedded-walk increments,
    # pooled across paths (the renewal increments are i.i.d.)
    fit_horizon = 60.0 / max(spec.jump_rate, 1e-12)
    recs = trial_values(
        seed, "scaled_hull_fit", max(300, trials),
        lambda rng: _record_for(spec, fit_horizon, 1, rng),
    )
    recs = [rec for rec in recs if rec.n_exits]
    if len(recs) < 10:
        raise ConfigError("almost no paths exited; raise jump_rate or horizon")
    all_spans = np.concatenate([np.diff(rec.exit_times, prepend=0.0) for rec in recs])
    anchors = [np.vstack([np.zeros(spec.d), rec.exit_points]) for rec in recs]
    all_incs = np.concatenate([np.diff(a, axis=0)[:, 0] for a in anchors])
    et1 = float(all_spans.mean())
    c_fit = _fit_attractor_scale(all_incs, alpha)
    limit_spec = StableSpec(alpha=alpha, c=c_fit, d=2)
    vb = np.array(
        walk_hull_values(
            limit_spec, n_steps_limit, 1.0 / et1, trials, seed, "scaled_hull_limit",
            lambda poly, path: intrinsic_volumes_2d(poly)[1],
        )
    )
    return alpha, et1, c_fit, vb


def _scaled_hull_ks(spec: StableSpec, limit, t_large: float, trials: int, seed: int):
    """``scaled_hull_convergence`` at one t, on its ``_scaled_hull_limit``."""
    alpha, et1, c_fit, vb = limit
    factor = t_large ** (-1.0 / alpha)

    def one_long(rng):
        path = sample_cpp_path(spec, t_large, rng)
        return intrinsic_volumes_2d(hull2d(factor * path.points))[1]

    va = np.array(trial_values(seed, "scaled_hull_long", trials, one_long))
    stat, p = ks_two_sample(va, vb)
    report = {
        "alpha": alpha,
        "t_large": t_large,
        "trials": trials,
        "et1_mean": et1,
        "fitted_c": c_fit,
        "ks_stat": stat,
        "p_value": p,
        "mean_long": float(va.mean()),
        "mean_limit": float(vb.mean()),
    }
    return stat, p, report


def scaled_hull_convergence(
    spec: StableSpec,
    t_large: float,
    trials: int = 400,
    seed: int = 0,
    n_steps_limit: int = 2000,
):
    """Compare V_1 of the rescaled long-horizon hull t^(-1/alpha) Z_t with
    V_1 of a fitted stable-walk hull run to time 1/E(T_1). Returns
    (ks_stat, p_value, report). The comparison is one-dimensional: it
    probes the scaling limit, not the full set-valued law."""
    if spec.flavor != "cpp":
        raise ConfigError("convergence experiment expects a compound-jump spec")
    if spec.d != 2:
        raise ConfigError("convergence experiment implemented for d = 2")
    t_large = _real("t_large", t_large, ge=10)
    trials = _count("trials", trials, 10)
    limit = _scaled_hull_limit(spec, trials, seed, n_steps_limit)
    return _scaled_hull_ks(spec, limit, t_large, trials, seed)


def exit_value_tail_experiment(
    spec: StableSpec,
    trials: int = 10_000,
    seed: int = 0,
    k: int | None = None,
) -> float:
    """Hill tail index of the first-exit displacement norm ||X(T_1)||.
    Heavy pareto jumps hand their tail to the overshoot; returns inf for
    degenerate (drift-only) exits, which have no tail at all."""
    if spec.flavor != "cpp":
        raise ConfigError("exit-tail experiment expects a compound-jump spec")
    trials = _count("trials", trials, 10)
    rate = spec.jump_rate
    horizon = 60.0 / max(rate, 1e-12) if rate > 0 else _DRIFT_TAIL_HORIZON
    got = _first_exit_values(
        spec, horizon, 1, trials, seed, "exit_value_tail",
        lambda t, x: np.linalg.norm(x),
    )
    if got.size < 10:
        raise ConfigError("almost no paths exited within the horizon")
    if float(got.std()) < 1e-12:
        return math.inf  # degenerate exit norm, e.g. pure drift
    return hill_tail_index(got, k)

