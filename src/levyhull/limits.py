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
exactly. Each scan is a lazy generator of (time, point) exits, with the
point a tuple of floats, and makes one pass over the path's samples:
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

The exit counts and first exits of a batch of paths all go through one
entry point, ``_exit_values``, which picks the scan for a spec and runs
it on ``mc_engine._block_values``, the trial loop's blocks of generators.
Two kernels skip the scanners and scan a whole block, each trial drawing
from its own generator, so that every value is the per-trial one bit for
bit; a row that a kernel hands back is rescanned alone, on a fresh
generator of the trial's state:

- first exits of drift-free compound-Poisson paths, in blocks of up to
  64 trials (``_cpp_kernel``): the block sorts, scales, sums and scans
  all its paths at once on padded arrays, with the float operations of
  one path in its order;
- the renewal counts and first exits of Gaussian walks (alpha = 2), in
  blocks of up to 128 trials (``_walk_kernel``): the walks are drawn
  piece by piece and scanned in lock-step, a count in long pieces and a
  first-exit scan in short ones, only as far as the piece that holds the
  exit. The crossing's dots are ``_dots``: numpy's ``@`` on stacked rows
  for d <= 7, which relies on ``@`` being the fused ddot chain, as the
  scanners do, and ``_dot`` on each row for d >= 8. A row whose
  coordinates pass 2**500, where ``_fma`` and ``@`` could part, is
  rescanned.

Every other path (walks with alpha < 2, cpp counts, cpp paths with
drift) is scanned one trial at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .closed_form import ClosedFormTarget, gamma_fn
from .errors import ConfigError, ParameterError, ResourceError, _count, _real
from .hullgeom import hull2d, intrinsic_volumes_2d
from .mc_engine import _block_values, hill_tail_index, ks_two_sample, trial_values, walk_hull_values
from .results import EstimateResult
from .rng_stable import PathSample, StableSpec, _pareto_jumps, _restart, _walk_piece
from .rng_stable import sample_cpp_path, sample_walk_path

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
    """Successive unit-ball exit times and positions along one path.

    The horizon is >= 0, so a one-sample path, whose horizon is 0, gets an
    empty record; any exit lies in (0, horizon]."""

    exit_times: np.ndarray
    exit_points: np.ndarray
    horizon: float

    def __post_init__(self):
        t = np.asarray(self.exit_times, dtype=np.float64)
        p = np.asarray(self.exit_points, dtype=np.float64)
        if t.ndim != 1 or p.ndim != 2 or len(t) != len(p):
            raise ParameterError("exit_times (k,) must align with exit_points (k, d)")
        horizon = _real("horizon", self.horizon, ge=0)
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


def _exits_grid(times, pts):
    # left to right from 0.0, as numpy sums rows of d < 8; sum/fsum/hypot/dot differ
    rows = zip(*pts.T.tolist())
    anchor = next(rows)
    for k, row in enumerate(rows, 1):
        r = 0.0
        for x, a in zip(row, anchor):
            x -= a
            r += x * x
        if r >= 1.0:
            anchor = row
            yield times.item(k), row


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
    rows = zip(*cols)
    anchor = next(rows)
    for k, b in enumerate(rows, 1):
        r = 0.0
        for x, c in zip(b, anchor):
            x -= c
            r += x * x
        if r >= 1.0:
            a = [c[k - 1] for c in cols]
            seg = [bi - ai for ai, bi in zip(a, b)]
            vv = _dot(seg, seg)
            t0 = times.item(k - 1)
            dt = times.item(k) - t0
            s_lo = 0.0
            while True:
                q = [ai - ci for ai, ci in zip(a, anchor)]
                s = _first_sphere_crossing(q, seg, vv, s_lo, 1.0)
                if s is None:
                    s = 1.0  # endpoint sits on the sphere within rounding
                anchor = tuple([ai + s * si for ai, si in zip(a, seg)])
                yield t0 + s * dt, anchor
                s_lo = s
                if s >= 1.0:
                    break
                r = 0.0
                for x, c in zip(b, anchor):
                    x -= c
                    r += x * x
                if r < 1.0:
                    break


def _exits_with_drift(times, pts, v):
    ts, rows, v = times.tolist(), zip(*pts.T.tolist()), v.tolist()
    vv = _dot(v, v)
    end = ts[-1]
    anchor = p = next(rows)
    last_t = 0.0
    for t, t_next, p_next in zip(ts, ts[1:], rows):
        dt = t_next - t
        s_lo = 0.0
        while True:
            q = [pi - ci for pi, ci in zip(p, anchor)]
            s = _first_sphere_crossing(q, v, vv, s_lo, dt)
            if s is None:
                break
            last_t = t + s
            anchor = tuple([pi + s * vi for pi, vi in zip(p, v)])
            yield last_t, anchor
            if s >= dt:  # the crossing was clamped to the jump time
                break
            s_lo = s
        # the jump lands the path at p_next; it may exit outright
        # (np.linalg.norm is the square root of the same fused dot)
        gap = [pi - ci for pi, ci in zip(p_next, anchor)]
        if math.sqrt(_dot(gap, gap)) >= 1.0:
            last_t = max(t_next, math.nextafter(last_t, math.inf))
            if last_t > end:  # one ulp after a drift exit at the last sample time
                return
            anchor = p_next
            yield last_t, p_next
        p = p_next


def _exits(path: PathSample, drift=None, mode: str = "grid"):
    """Lazy (time, point) generator of a path's successive unit-ball
    exits; see ``exit_times`` for the arguments."""
    if not isinstance(path, PathSample):
        raise ParameterError("path must be a PathSample")
    times, pts = path.times, path.points
    if drift is None and mode == "grid":
        return _exits_grid(times, pts)
    if drift is None and mode != "linear":
        raise ParameterError(f"unknown mode {mode!r}")
    # the other scans of a NaN or infinite sample or drift can yield NaN
    # exits without end
    if not np.isfinite(pts).all():
        raise ParameterError("path points must be finite in linear and drift mode")
    if drift is None:
        return _exits_linear(times, pts)
    v = np.asarray(drift, dtype=np.float64)
    if v.shape != (pts.shape[1],):
        raise ParameterError("drift must match the path dimension")
    if not np.isfinite(v).all():
        raise ParameterError("drift must be finite")
    return _exits_with_drift(times, pts, v)


def exit_times(path: PathSample, drift=None, mode: str = "grid") -> ExitRecord:
    """Scan a path for its successive unit-ball exits.

    mode "grid": exits at the first sample point at distance >= 1 from the
    anchor (exact for pure-jump paths sampled at jump times). mode
    "linear": exact crossing of the linearly interpolated segment, so the
    recorded increment has length exactly 1. Passing ``drift`` treats the
    samples as jump positions of a jump-plus-drift motion and scans that
    motion exactly; mode is ignored. A NaN or infinite drift, or sample
    outside grid mode, raises ParameterError.
    """
    exits = list(_exits(path, drift, mode))
    d = path.points.shape[1]
    return ExitRecord(
        np.array([t for t, _ in exits], dtype=np.float64),
        np.array([p for _, p in exits], dtype=np.float64).reshape(len(exits), d),
        horizon=float(path.times[-1]),
    )


def _scan_for(spec: StableSpec, horizon: float, n_steps: int, rng, scan):
    """Sample one whole path of ``spec`` and hand it to ``scan`` in the exit
    convention that is exact for it."""
    if spec.flavor != "cpp":
        return scan(sample_walk_path(spec, n_steps, horizon, rng), mode="linear")
    path = sample_cpp_path(spec, horizon, rng)
    if any(spec.drift):  # a finite tuple: truthy iff some entry is nonzero
        return scan(path, drift=spec.drift)
    return scan(path, mode="grid")


def _exit_values(spec, horizon, n_steps, trials, seed, name, value=None) -> list:
    """``trial_values(seed, name, trials, one)`` bit for bit, with ``one``
    the scan of one trial's whole path of ``spec`` up to ``horizon`` (a
    walk of ``n_steps`` steps): with ``value``, value(time, point) of its
    first exit or None; without, its ``exit_times`` count / ``horizon``.

    Gaussian walks run on ``_walk_kernel`` and drift-free cpp first exits
    on ``_cpp_kernel``, block by block through ``_block_values``; a kernel
    takes one generator per trial and returns the block's values and the
    rows to rescan, which ``one`` reruns, in ascending order, on a fresh
    ``PCG64`` of the row's state."""

    def one(rng):
        if value is None:
            return _scan_for(spec, horizon, n_steps, rng, exit_times).n_exits / horizon
        first = next(_scan_for(spec, horizon, n_steps, rng, _exits), None)
        return None if first is None else value(*first)

    if spec.flavor != "cpp" and spec.alpha == 2.0:
        # a count draws whole walks, in long pieces; a first-exit row stops
        # at the piece that holds its exit. The cap gives a full block's
        # pieces >= 3 W points, up to d = 256 for first exits and 2048 for counts
        budget = _WALK_COUNT_VALUES if value is None else _WALK_BLOCK_VALUES
        kernel = partial(_walk_kernel, spec, horizon, n_steps, value, budget)
        cap = min(_WALK_BLOCK_TRIALS, budget // (4 * _WALK_WINDOW * spec.d))
    elif spec.flavor == "cpp" and value is not None and not any(spec.drift):
        kernel = partial(_cpp_kernel, spec, horizon, value)
        jumps = spec.jump_rate * horizon * spec.d  # expected jump coordinates per path
        cap = min(_CPP_BLOCK_TRIALS, int(_CPP_BLOCK_VALUES // max(1.0, jumps)))
    else:
        return trial_values(seed, name, trials, one)

    def block(rngs):
        out, redo = kernel(rngs)
        for i in sorted(redo):
            out[i] = one(_restart(rngs[i]))
        return out

    with np.errstate(all="ignore"):  # silent, as the scanners' floats
        return _block_values(seed, name, trials, max(1, cap), block)


def _first_exit_values(spec, horizon, n_steps, trials, seed, name, value):
    """``_exit_values`` of the first exits as an array; paths that never
    exit are dropped."""
    vals = _exit_values(spec, horizon, n_steps, trials, seed, name, value)
    return np.array([v for v in vals if v is not None], dtype=np.float64)


def _sq_sums(x):
    """Squares along the last axis added left to right, as the scanners
    add them."""
    r = x[..., 0] * x[..., 0]
    for j in range(1, x.shape[-1]):
        r += x[..., j] * x[..., j]
    return r


def _dots(x, y):
    """Row-wise x . y of (k, d) arrays, each rounded as ``_dot`` rounds it:
    numpy's ``@`` on stacked rows for d < 8, where it is that fused chain,
    and ``_dot`` itself on each row for d >= 8, where ``@`` may sum in
    another order."""
    if x.shape[1] < 8:
        return (x[:, None, :] @ y[:, :, None])[:, 0, 0]
    return np.array([_dot(a, b) for a, b in zip(x.tolist(), y.tolist())])


_WALK_BLOCK_TRIALS = 128  # trials per block of Gaussian walk exit scans
_WALK_BLOCK_VALUES = 1 << 15  # doubles in a first-exit block's largest array: 256 KB
_WALK_COUNT_VALUES = 1 << 18  # doubles in a count block's largest array: 2 MB
_WALK_WINDOW = 32  # points a row tests for its next exit per lock-step pass
_WALK_SAFE = 2.0**500  # a row with a coordinate past this is scanned one trial alone


def _walk_kernel(spec, horizon, n_steps, value, budget, rngs):
    """``_exit_values``' kernel for Gaussian walks (alpha = 2) of
    ``n_steps`` steps up to ``horizon``, one walk per generator: (values,
    rows to rescan).

    Each walk draws its normals piece by piece (``_walk_piece``) into a
    shared buffer of at most ``budget`` doubles: ``_WALK_COUNT_VALUES``
    for counts, which draw every walk whole, in long pieces that take few
    generator calls and lock-step passes, and ``_WALK_BLOCK_VALUES`` for
    first exits, whose rows stop at the piece that holds the exit. The
    rows are then scanned in lock-step: a window of W points per row finds
    the first at squared distance >= 1 from the row's anchor, with squares
    added left to right, and the crossings on that segment are solved for
    all hit rows at once, with the arithmetic of ``_first_sphere_crossing``
    and ``_dots`` for its dots. So every value is the per-trial one bit
    for bit, at any piece width. A row whose exits break
    ``ExitRecord``'s checks, or with a coordinate past 2**500, where
    ``_fma``'s split could overflow apart from ``@``, is handed back; for a
    count, its rescan's record then raises as it would have.

    The block holds at least one row and a piece at least one step, so a
    block array stays within ``budget`` while one row's one-step piece and
    its window of W points, 33 d doubles, fit: up to d = 992 for first
    exits (2**15) and d = 7943 for counts (2**18). Past that a row's window
    slice (W, d) passes the budget from d = 1025 and from d = 8193."""
    h = horizon / n_steps
    end = n_steps * h  # the time of the walk's last sample
    width = max(1, min(n_steps, budget // (len(rngs) * spec.d) - _WALK_WINDOW))
    # the live rows: their block indices, points (column 0 holds the last
    # piece's last point, the W - 1 columns past the piece's end its end
    # point), anchors, exit counts and last exit times
    ids = np.arange(len(rngs))
    buf = np.zeros((len(rngs), width + _WALK_WINDOW, spec.d))
    anchor = np.zeros((len(rngs), spec.d))
    count = np.zeros(len(rngs), dtype=np.int64)
    last = np.zeros(len(rngs))
    out, redo = [None] * len(rngs), []
    g0 = 0  # the walk index of column 0
    while g0 < n_steps and ids.size:
        m = min(width, n_steps - g0)
        _walk_piece(spec, n_steps, horizon, [rngs[i] for i in ids.tolist()], buf, g0, m)
        buf[:, m + 1 :] = buf[:, m : m + 1]
        windows = sliding_window_view(buf, _WALK_WINDOW, axis=1)  # (rows, width + 1, d, W)
        times = np.arange(g0, g0 + m + 1, dtype=np.float64) * h
        piece = buf[:, 1 : m + 1]  # max and min copy nothing; NaN fails both
        gone = ~((piece.max(axis=(1, 2)) <= _WALK_SAFE) & (piece.min(axis=(1, 2)) >= -_WALK_SAFE))
        done = np.zeros(ids.size, dtype=bool)  # rows past their first exit
        pos = np.where(gone, m + 1, 1)  # each row's next point to test
        act = (~gone).nonzero()[0]
        while act.size:
            p = pos[act]
            gap = (windows[act, p] - anchor[act, :, None]).swapaxes(1, 2)
            hit = _sq_sums(gap) >= 1.0
            got = hit.any(axis=1)
            pos[act] = p + _WALK_WINDOW
            rows = act[got]
            if rows.size:
                j = p[got] + hit[got].argmax(axis=1)
                pos[rows] = j + 1 if value is None else m + 1
                a, b = buf[rows, j - 1], buf[rows, j]
                seg = b - a
                vv = _dots(seg, seg)
                t0 = times[j - 1]
                dt = times[j] - t0
                s = np.zeros(rows.size)
                while True:  # one crossing of each row's segment a pass
                    q = a - anchor[rows]
                    qv = _dots(q, seg)
                    cross = (np.sqrt(qv * qv - vv * (_dots(q, q) - 1.0)) - qv) / vv
                    # no crossing (NaN too) takes 1: the endpoint sits on the
                    # sphere within rounding
                    s = np.where((cross > s + 1e-15) & (cross < 1.0), cross, 1.0)
                    x = a + s[:, None] * seg
                    t = t0 + s * dt
                    # a row whose exits break ExitRecord's checks is handed back
                    bad = (t <= last[rows]) | (t > end)
                    bad |= _sq_sums(x - anchor[rows]) < 1.0 - 1e-6
                    gone[rows[bad]] = True
                    if value is not None:
                        done[rows] = True
                        ok = ~bad
                        for i, ti, xi in zip(ids[rows[ok]].tolist(), t[ok].tolist(), x[ok].tolist()):
                            out[i] = value(ti, tuple(xi))
                        break
                    count[rows] += 1
                    last[rows] = t
                    anchor[rows] = x
                    stay = (s < 1.0) & (_sq_sums(b - x) >= 1.0)
                    if not stay.any():
                        break
                    rows, a, b, seg, vv = rows[stay], a[stay], b[stay], seg[stay], vv[stay]
                    t0, dt, s = t0[stay], dt[stay], s[stay]
            act = act[pos[act] <= m]
        buf[:, 0] = buf[:, m]
        g0 += m
        redo += ids[gone].tolist()
        if (gone | done).any():
            keep = ~(gone | done)
            ids, buf, anchor, count, last = ids[keep], buf[keep], anchor[keep], count[keep], last[keep]
    if value is None:
        for i, c in zip(ids.tolist(), count.tolist()):
            out[i] = c / horizon
    return out, redo


_CPP_BLOCK_TRIALS = 64  # trials per block of drift-free cpp first exits
_CPP_BLOCK_VALUES = 1 << 14  # expected jump coordinates per block: 128 KB a block array


def _cpp_kernel(spec, horizon, value, rngs):
    """``_exit_values``' kernel for the first exits of drift-free cpp paths
    of ``spec`` up to ``horizon``, one path per generator: (values, rows
    to rescan).

    Each path draws in ``sample_cpp_path``'s order (jump count, times,
    Pareto radii, normals) into padded (paths, jumps[, d]) arrays, and the
    block sorts, scales, sums and scans them along the jump axis. Those
    are the path's float operations in its order, and the grid scan adds
    squares left to right as ``_exits_grid`` does, so every value is the
    per-trial one bit for bit. A row with a zero or repeated jump time,
    which ``sample_cpp_path`` drops or merges, is handed back."""
    lam = spec.jump_rate * horizon
    counts = [int(rng.poisson(lam)) if spec.jump_rate > 0 else 0 for rng in rngs]
    m = max(counts)
    if not m:
        return [None] * len(rngs), []
    times = np.full((len(rngs), m), np.inf)  # the padding sorts last
    radii = np.ones((len(rngs), m))
    jumps = np.ones((len(rngs), m, spec.d))
    pareto = spec.jump_law == "pareto"
    for i, (rng, n) in enumerate(zip(rngs, counts)):
        if n:
            rng.random(out=times[i, :n])
            if pareto:
                rng.random(out=radii[i, :n])
            rng.standard_normal(out=jumps[i, :n])
    times *= horizon
    times.sort(axis=1)
    valid = np.arange(m) < np.array(counts)[:, None]
    redo = (times[:, 0] <= 0.0) | ((times[:, 1:] == times[:, :-1]) & valid[:, 1:]).any(axis=1)
    if pareto:
        _pareto_jumps(radii, jumps, spec.tail_alpha)
    np.cumsum(jumps, axis=1, out=jumps)
    hit = (_sq_sums(jumps) >= 1.0) & valid
    out = [None] * len(rngs)
    rows = (hit.any(axis=1) & ~redo).nonzero()[0]
    for i, k in zip(rows.tolist(), hit[rows].argmax(axis=1).tolist()):
        t = times.item(i, k)
        # sample_cpp_path adds times * drift, a signed zero, to every point
        out[i] = value(t, tuple([x + t * v for x, v in zip(jumps[i, k].tolist(), spec.drift)]))
    return out, redo.nonzero()[0].tolist()


_MAX_WALK_STEPS = 10**6  # about 40 MB per d = 2 walk path (points and increments)
_ET1_HORIZON = 40.0  # the E T_1 batch's horizon; slow cpp paths stretch it by 1/jump_rate
_DRIFT_TAIL_HORIZON = 10.0  # the horizon of exit_value_tail_experiment without jumps
_MIN_JUMP_RATE = 1e-12  # the floor of the jump rates that set a cpp horizon


def _walk_steps(flavor: str, horizon: float, dt: float, jump_rate: float = 0.0) -> int:
    """The number of dt steps of a walk up to ``horizon``, refused past
    _MAX_WALK_STEPS; 1 for a cpp path, which is sampled at its jumps and
    ignores dt, and whose expected jump count jump_rate * horizon is
    refused past the same cap: each jump is a point, as each step is."""
    if flavor == "cpp":
        jumps = jump_rate * horizon
        if not jumps <= _MAX_WALK_STEPS:
            raise ResourceError(
                f"jump_rate = {jump_rate!r} expects {jumps:.3g} jumps per path up to time "
                f"{horizon!r}, more than the cap of {_MAX_WALK_STEPS}"
            )
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
    horizon: float | None = None,
    dt: float = 0.01,
) -> EstimateResult:
    """Mean first exit time from the unit ball, from an independent batch
    of paths. Paths that never exit within the horizon are dropped (their
    count is recoverable from ``trials`` minus the result's trials). The
    default horizon is 40, or 40 / jump_rate for a cpp spec whose jump
    rate lies in (0, 1), so that a path sees as many jumps on average as
    at rate 1. A walk longer than horizon / dt = 10^6 steps, or a cpp
    path expected to hold more than 10^6 jumps (jump_rate * horizon),
    raises ResourceError. Gaussian walks (alpha = 2) are drawn in pieces and
    scanned in lock-step blocks of trials, each only as far as its
    first exit, and drift-free cpp paths run in blocks of trials; both
    give the values of whole paths scanned one at a time, bit for bit."""
    trials = _count("trials", trials, 2)
    if horizon is None:
        slow = spec.flavor == "cpp" and 0.0 < spec.jump_rate < 1.0
        horizon = _ET1_HORIZON / spec.jump_rate if slow else _ET1_HORIZON
    horizon, dt = _real("horizon", horizon, gt=0), _real("dt", dt, gt=0)
    n_steps = _walk_steps(spec.flavor, horizon, dt, spec.jump_rate)
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
    longer than 10^6 steps (t / dt, or 40 / dt for the E T_1 batch), or a
    cpp path expected to hold more than 10^6 jumps (jump_rate times t or
    the batch's horizon), raises ResourceError before any path is drawn.
    Gaussian walks (alpha = 2) are counted on lock-step blocks of trials,
    with the counts of ``exit_times`` on each whole path, bit for bit."""
    t_values = [_real("t_values entry", t, gt=0) for t in t_values]
    if not t_values:
        raise ParameterError("t_values must not be empty")
    trials = _count("trials", trials, 2)
    dt = _real("dt", dt, gt=0)
    n_steps = [_walk_steps(spec.flavor, t, dt, spec.jump_rate) for t in t_values]
    et1 = estimate_mean_exit_time(
        spec,
        trials=et1_trials or max(trials, 1000),
        seed=seed + 1,
        dt=dt,
    )
    rate = 1.0 / et1.mean
    out = []
    for t_idx, (t, n) in enumerate(zip(t_values, n_steps)):
        vals = _exit_values(spec, t, n, trials, seed, f"renewal_ratio_{t_idx}")
        target = ClosedFormTarget(
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


def scaled_hull_convergence(
    spec: StableSpec,
    t_values,
    trials: int = 400,
    seed: int = 0,
    n_steps_limit: int = 2000,
):
    """Compare V_1 of the rescaled long-horizon hull t^(-1/alpha) Z_t, for
    each t, with V_1 of a fitted stable-walk hull run to time 1/E(T_1).
    Returns one (ks_stat, p_value, report) per t; the fit and the limit
    walks do not depend on t and are drawn once. The comparison is
    one-dimensional: it probes the scaling limit, not the full set-valued
    law. A long path expected to hold more than 10^6 jumps (jump_rate
    times the largest t) raises ResourceError before any path is drawn."""
    if spec.flavor != "cpp":
        raise ConfigError("convergence experiment expects a compound-jump spec")
    if spec.d != 2:
        raise ConfigError("convergence experiment implemented for d = 2")
    t_values = [_real("t_values entry", t, ge=10) for t in t_values]
    if not t_values:
        raise ParameterError("t_values must not be empty")
    trials = _count("trials", trials, 10)
    # the longest paths, before any draw (a cpp path ignores dt); the fit
    # batch's horizon 60 / jump_rate expects 60 jumps a path
    _walk_steps(spec.flavor, max(t_values), 0.0, spec.jump_rate)
    # square-integrable jumps attract to the Gaussian law
    alpha = spec.tail_alpha if spec.jump_law == "pareto" else 2.0

    # batch of exit records: renewal spans and embedded-walk increments,
    # pooled across paths (the renewal increments are i.i.d.)
    fit_horizon = 60.0 / max(spec.jump_rate, _MIN_JUMP_RATE)
    recs = trial_values(
        seed, "scaled_hull_fit", max(300, trials),
        lambda rng: _scan_for(spec, fit_horizon, 1, rng, exit_times),
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
    out = []
    for t in t_values:
        factor = t ** (-1.0 / alpha)

        def one_long(rng):
            path = sample_cpp_path(spec, t, rng)
            return intrinsic_volumes_2d(hull2d(factor * path.points))[1]

        va = np.array(trial_values(seed, "scaled_hull_long", trials, one_long))
        stat, p = ks_two_sample(va, vb)
        report = {
            "alpha": alpha,
            "t": t,
            "trials": trials,
            "et1_mean": et1,
            "fitted_c": c_fit,
            "ks_stat": stat,
            "p_value": p,
            "mean_long": float(va.mean()),
            "mean_limit": float(vb.mean()),
        }
        out.append((stat, p, report))
    return out


def exit_value_tail_experiment(
    spec: StableSpec,
    trials: int = 10_000,
    seed: int = 0,
    k: int | None = None,
) -> float:
    """Hill tail index of the first-exit displacement norm ||X(T_1)||.
    Heavy pareto jumps hand their tail to the overshoot; returns inf for
    degenerate (drift-only) exits, which have no tail at all. Without drift
    the first exits run in blocks of trials and give the per-trial values
    bit for bit."""
    if spec.flavor != "cpp":
        raise ConfigError("exit-tail experiment expects a compound-jump spec")
    trials = _count("trials", trials, 10)
    rate = spec.jump_rate
    horizon = 60.0 / max(rate, _MIN_JUMP_RATE) if rate > 0 else _DRIFT_TAIL_HORIZON
    got = _first_exit_values(
        spec, horizon, 1, trials, seed, "exit_value_tail",
        lambda t, x: np.linalg.norm(x),
    )
    if got.size < 10:
        raise ConfigError("almost no paths exited within the horizon")
    if float(got.std()) < 1e-12:
        return math.inf  # degenerate exit norm, e.g. pure drift
    return hill_tail_index(got, k)

