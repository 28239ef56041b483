"""Reference implementations that the tests compare the verifier against.

None of this runs in a ``levyhull`` command or experiment; the tests use it
as independent geometry and closed forms:

- L_p support-function arithmetic (``Ball``, ``SupportFn``,
  ``lp_sum_support``) and the mixed volume V_p(B^d, M) by kink-aware
  quadrature (``vp_ball_mixed``), the oracle of the experiments' plain
  grid rule;
- Gram determinants, the exact zonotope formula for V_j, V_j from random
  projections, point-to-boundary distances and the Hausdorff distance of
  two polytopes;
- the expected V_j of the Brownian hull and the expected vertex count of
  a walk hull;
- the first-exit values of whole paths (``first_exit_values_whole``), each
  drawn and scanned to its horizon, the oracle of the E T_1 batch that
  stops a walk at its first exit.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from levyhull.closed_form import gamma_fn
from levyhull.errors import (
    DimensionError,
    DomainError,
    ParameterError,
    ResourceError,
    _count,
    _real,
)
from levyhull.hullgeom import (
    Polytope,
    _sphere_spiral,
    geom_eps,
    hull2d,
    intrinsic_volumes_2d,
)
from levyhull.limits import _exits, _scan_for
from levyhull.lp_volumes import _circle_grid
from levyhull.mc_engine import trial_values
from levyhull.results import EstimateResult

__all__ = [
    "Ball",
    "SupportFn",
    "lp_sum_support",
    "vp_ball_mixed",
    "gram_det",
    "zonotope_intrinsic_volume",
    "projection_intrinsic_estimate",
    "boundary_distances",
    "hausdorff",
    "ev_intrinsic_brownian",
    "expected_hull_vertices",
    "first_exit_values_whole",
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


def gram_det(vectors) -> float:
    """sqrt(det(M^T M)): the j-volume of the parallelepiped spanned by the
    rows. Zero for linearly dependent input; round-off negatives clamp."""
    m = np.asarray(vectors, dtype=np.float64)
    if m.ndim != 2:
        raise ParameterError("gram_det needs a (j, d) array of row vectors")
    j, d = m.shape
    if j < 1 or j > d:
        raise ParameterError(f"need 1 <= j <= d, got j={j}, d={d}")
    g = m @ m.T
    return math.sqrt(max(float(np.linalg.det(g)), 0.0))


_ZONOTOPE_MAX_GENERATORS = 25


def zonotope_intrinsic_volume(generators, j: int) -> float:
    """V_j of the Minkowski sum of segments [0, g_k]: the sum of gram_det
    over all j-subsets of generators. Exact, order- and sign-invariant."""
    g = np.asarray(generators, dtype=np.float64)
    if g.ndim != 2 or len(g) == 0:
        raise ParameterError("generators must be a nonempty (m, d) array")
    m, d = g.shape
    if _count("j", j) > d:
        raise ParameterError(f"need 1 <= j <= d={d}, got {j!r}")
    if m > _ZONOTOPE_MAX_GENERATORS:
        raise ResourceError(
            f"at most {_ZONOTOPE_MAX_GENERATORS} generators supported, got {m}"
        )
    if m < j:
        return 0.0
    # Canonicalize so permutations and sign flips of generators produce a
    # bit-identical computation: flip each row's leading nonzero positive
    # (negation is exact), then sort rows lexicographically.
    lead = (g != 0.0).argmax(axis=1)
    sign = np.sign(g[np.arange(m), lead])
    sign[sign == 0.0] = 1.0
    gc = g * sign[:, None]
    gc = gc[np.lexsort(gc.T[::-1])]
    combos = np.array(list(itertools.combinations(range(m), j)), dtype=np.int64)
    mats = gc[combos]  # (ncomb, j, d)
    grams = np.einsum("kjd,kld->kjl", mats, mats)
    dets = np.maximum(np.linalg.det(grams), 0.0)
    return float(np.sort(np.sqrt(dets)).sum())


def projection_intrinsic_estimate(
    p: Polytope, j: int, samples: int, rng
) -> EstimateResult:
    """Monte Carlo V_j of a full-dimensional R^3 polytope from uniformly
    random orthogonal projections: V_1 = 2 E(width along u) and
    V_2 = 2 E(shadow area perpendicular to u). Unbiased; stderr reported.
    Cross-checks intrinsic_volumes_3d through independent geometry.
    """
    if p.dim != 3 or p.intrinsic_dim != 3:
        raise DimensionError("projection estimator needs a full-dimensional R^3 body")
    if _count("j", j) > 2:
        raise ParameterError(f"j must be 1 or 2, got {j!r}")
    samples = _count("samples", samples, 2)
    dirs = rng.standard_normal((samples, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    verts = p.vertices
    if j == 1:
        proj = dirs @ verts.T
        vals = 2.0 * (proj.max(axis=1) - proj.min(axis=1))
        return EstimateResult.from_samples(vals)
    vals = np.empty(samples)
    for k in range(samples):
        u = dirs[k]
        ref = np.array([1.0, 0.0, 0.0]) if abs(u[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
        e1 = np.cross(u, ref)
        e1 /= np.linalg.norm(e1)
        e2 = np.cross(u, e1)
        flat = np.column_stack([verts @ e1, verts @ e2])
        vals[k] = 2.0 * intrinsic_volumes_2d(hull2d(flat))[2]
    return EstimateResult.from_samples(vals)


def _point_triangles_dist(x, a, b, c) -> np.ndarray:
    """Distance from x to each triangle in a batch (a, b, c): (F, 3) each."""
    ab, ac, ap = b - a, c - a, x - a
    d1 = np.einsum("ij,ij->i", ab, ap)
    d2 = np.einsum("ij,ij->i", ac, ap)
    bp = x - b
    d3 = np.einsum("ij,ij->i", ab, bp)
    d4 = np.einsum("ij,ij->i", ac, bp)
    cp = x - c
    d5 = np.einsum("ij,ij->i", ab, cp)
    d6 = np.einsum("ij,ij->i", ac, cp)

    closest = np.empty_like(a)
    done = np.zeros(len(a), dtype=bool)

    m = (d1 <= 0) & (d2 <= 0)
    closest[m] = a[m]
    done |= m
    m = (~done) & (d3 >= 0) & (d4 <= d3)
    closest[m] = b[m]
    done |= m
    m = (~done) & (d6 >= 0) & (d5 <= d6)
    closest[m] = c[m]
    done |= m
    vc = d1 * d4 - d3 * d2
    m = (~done) & (vc <= 0) & (d1 >= 0) & (d3 <= 0)
    with np.errstate(invalid="ignore", divide="ignore"):
        t_ab = np.where(d1 - d3 != 0.0, d1 / (d1 - d3), 0.0)
    closest[m] = a[m] + t_ab[m, None] * ab[m]
    done |= m
    vb = d5 * d2 - d1 * d6
    m = (~done) & (vb <= 0) & (d2 >= 0) & (d6 <= 0)
    with np.errstate(invalid="ignore", divide="ignore"):
        t_ac = np.where(d2 - d6 != 0.0, d2 / (d2 - d6), 0.0)
    closest[m] = a[m] + t_ac[m, None] * ac[m]
    done |= m
    va = d3 * d6 - d5 * d4
    m = (~done) & (va <= 0) & (d4 - d3 >= 0) & (d5 - d6 >= 0)
    denom_bc = (d4 - d3) + (d5 - d6)
    with np.errstate(invalid="ignore", divide="ignore"):
        t_bc = np.where(denom_bc != 0.0, (d4 - d3) / denom_bc, 0.0)
    closest[m] = b[m] + t_bc[m, None] * (c[m] - b[m])
    done |= m
    m = ~done
    denom_in = np.maximum(va + vb + vc, 1e-300)
    v = vb / denom_in
    w = vc / denom_in
    closest[m] = a[m] + v[m, None] * ab[m] + w[m, None] * ac[m]
    return np.linalg.norm(x - closest, axis=1)


def boundary_distances(poly: Polytope, x) -> np.ndarray:
    """Distance from the point x to each boundary face of the hull: the
    edges of a polygon, the facets of a 3-D mesh. A lower-dimensional hull
    (point, segment, or planar polygon in R^3) has no interior, so it is
    one face and its entry is the distance to the body itself."""
    v = poly.vertices
    x = np.asarray(x, dtype=np.float64)
    if poly.intrinsic_dim <= 1:  # a point is a segment with equal ends
        e = v[-1] - v[0]
        t = float(np.clip((x - v[0]) @ e / max(e @ e, 1e-300), 0.0, 1.0))
        return np.array([np.linalg.norm(x - (v[0] + t * e))])
    if poly.dim == 2:
        e = np.roll(v, -1, axis=0) - v
        tt = ((x - v) * e).sum(axis=1) / np.maximum((e * e).sum(axis=1), 1e-300)
        proj = v + np.clip(tt, 0.0, 1.0)[:, None] * e
        return np.linalg.norm(x - proj, axis=1)
    if poly.facets is None:  # planar polygon in R^3: fan-triangulate it
        fan = np.repeat(v[:1], len(v) - 2, axis=0)
        return np.array([_point_triangles_dist(x, fan, v[1:-1], v[2:]).min()])
    f = np.asarray(poly.facets)
    return _point_triangles_dist(x, v[f[:, 0]], v[f[:, 1]], v[f[:, 2]])


def _dist_to_polytope(body: Polytope, x: np.ndarray, eps: float) -> float:
    """Distance from x to the body: 0 within eps of its interior, else the
    distance to its nearest boundary face."""
    v = body.vertices
    if body.intrinsic_dim == 2 and body.dim == 2:
        nxt = np.roll(v, -1, axis=0)
        cr = (nxt[:, 0] - v[:, 0]) * (x[1] - v[:, 1]) - (nxt[:, 1] - v[:, 1]) * (
            x[0] - v[:, 0]
        )
        edge_len = np.maximum(np.linalg.norm(nxt - v, axis=1), 1e-300)
        if np.all(cr / edge_len >= -eps):  # signed distance to each edge line
            return 0.0
    elif body.intrinsic_dim == 3:
        f = np.asarray(body.facets, dtype=np.int64)
        a, b, c = v[f[:, 0]], v[f[:, 1]], v[f[:, 2]]
        raw_n = np.cross(b - a, c - a)
        unit_n = raw_n / np.maximum(np.linalg.norm(raw_n, axis=1, keepdims=True), 1e-300)
        if np.all(np.einsum("ij,ij->i", unit_n, x - a) <= eps):
            return 0.0
    return float(boundary_distances(body, x).min())


def hausdorff(pa: Polytope, pb: Polytope) -> float:
    """Hausdorff distance between two convex polytopes of the same ambient
    dimension. Convexity makes the vertex-to-body maximum exact."""
    if pa.dim != pb.dim:
        raise ParameterError("polytopes must share ambient dimension")
    eps = max(geom_eps(pa.vertices), geom_eps(pb.vertices))
    d_ab = max(_dist_to_polytope(pb, va, eps) for va in pa.vertices)
    d_ba = max(_dist_to_polytope(pa, vb, eps) for vb in pb.vertices)
    return max(d_ab, d_ba)


def ev_intrinsic_brownian(d: int, j: int) -> float:
    """Expected V_j of the hull of standard Brownian motion run for unit time.

    Specialises ``ev_intrinsic_stable`` at alpha = 2 with the ball zonoid of
    radius 2^(-1/2); the gamma factors collapse to

        binom(d, j) (pi/2)^(j/2) gamma((d-j)/2 + 1)
        ------------------------------------------- .
              gamma(j/2 + 1) gamma(d/2 + 1)
    """
    d, j = _count("d", d), _count("j", j)
    if j > d:
        raise ParameterError(f"j must lie in 1..{d}, got {j}")
    return (
        math.comb(d, j)
        * (math.pi / 2.0) ** (j / 2.0)
        * gamma_fn((d - j) / 2.0 + 1.0)
        / (gamma_fn(j / 2.0 + 1.0) * gamma_fn(d / 2.0 + 1.0))
    )


def expected_hull_vertices(n: int, d: int) -> float:
    """Expected vertex count of conv(S_0, ..., S_n) for an n-step walk in
    R^d, d in {2, 3}, with symmetric exchangeable increments in general
    position, whatever the step law: 2 H_n for d = 2 (Baxter 1961) and
    H_n^2 - H_n^(2) + 2 for d = 3 (Kabluchko, Vysotsky & Zaporozhets 2017),
    H_n^(r) = sum_k k^-r. Both are n + 1 while n <= d."""
    n, d = _count("n", n), _count("d", d)
    if d not in (2, 3):
        raise ParameterError(f"d must be 2 or 3, got {d}")
    if n > 10**7:
        raise ResourceError(f"harmonic sums capped at n=10^7, got {n}")
    inv = 1.0 / np.arange(1, n + 1, dtype=np.float64)
    if d == 2:
        return 2.0 * float(inv.sum())
    # H_n^2 - H_n^(2) = 2 sum_{i < j} 1/(i j) = 2 sum_j H_{j-1} / j
    return 2.0 * float(inv[1:] @ np.cumsum(inv)[:-1]) + 2.0


def first_exit_values_whole(spec, horizon, n_steps, trials, seed, name, value):
    """value(time, point) of each trial's first unit-ball exit, in trial
    order, with paths that never exit dropped: the arguments and result of
    ``limits._first_exit_values``, but every path is sampled whole and
    scanned from its start."""

    def one(rng):
        first = next(_scan_for(spec, horizon, n_steps, rng, _exits), None)
        return None if first is None else value(*first)

    vals = trial_values(seed, name, trials, one)
    return np.array([v for v in vals if v is not None], dtype=np.float64)
