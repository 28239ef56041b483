"""Exact convex hulls and hull functionals in R^2 and R^3.

All arithmetic is plain double precision. ``hull2d`` is a Quickhull with a
strict sign test and no tolerance: duplicates and exactly collinear points
drop out, every other extreme point stays. ``hull3d`` keeps the relative
tolerance eps = 1e-9 * bounding-box diagonal (``geom_eps``) in its
visibility, planarity and seed tests, so it drops vertices within eps of
its surface. Degenerate inputs (all points equal, collinear, or coplanar)
come back as lower-dimensional polytopes instead of raising.

The R^3 hull keeps its facets in numpy arrays (``_FacetStore``). An
insertion finds its visible facets with one matrix-vector product and
writes the cone over their horizon, from one batched cross product, into
their rows; each round measures all outside points against all facets
with one matrix product. ``intrinsic_volumes_3d`` pairs the two facets of
every edge by sorting edge keys, so the dihedral angles come from batched
array operations.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ParameterError, ResourceError
from .results import EstimateResult

__all__ = [
    "Polytope",
    "IntrinsicVolumes",
    "geom_eps",
    "hull2d",
    "hull3d",
    "intrinsic_volumes_2d",
    "intrinsic_volumes_3d",
    "gram_det",
    "zonotope_intrinsic_volume",
    "projection_intrinsic_estimate",
    "hausdorff",
]


def geom_eps(points: np.ndarray) -> float:
    """Length tolerance: 1e-9 times the bounding-box diagonal."""
    cols = np.ascontiguousarray(np.asarray(points, dtype=np.float64).T)
    if cols.size == 0:
        return 0.0
    return 1e-9 * float(np.linalg.norm(cols.max(axis=-1) - cols.min(axis=-1)))


@dataclass(frozen=True)
class Polytope:
    """A convex polytope embedded in R^dim.

    For intrinsic_dim == dim == 2 the vertices run counterclockwise. For
    intrinsic_dim == dim == 3 ``facets`` holds outward-oriented triangle
    index triples forming a closed mesh. Lower ``intrinsic_dim`` flags a
    degenerate hull (point, segment, or planar polygon in R^3, whose
    vertices are then stored in boundary order). Instances are immutable.
    """

    dim: int
    vertices: np.ndarray
    intrinsic_dim: int
    facets: tuple[tuple[int, int, int], ...] | None = None

    def __post_init__(self):
        verts = np.asarray(self.vertices, dtype=np.float64)
        if verts.ndim != 2 or verts.shape[1] != self.dim:
            raise ParameterError("vertices must have shape (m, dim)")
        if len(verts) == 0:
            raise ParameterError("a polytope needs at least one vertex")
        if not np.all(np.isfinite(verts)):
            raise ParameterError("vertices must be finite")
        if self.dim not in (2, 3):
            raise DimensionError(f"only dim 2 and 3 supported, got {self.dim}")
        if not 0 <= self.intrinsic_dim <= self.dim:
            raise ParameterError("intrinsic_dim out of range")
        verts.setflags(write=False)
        object.__setattr__(self, "vertices", verts)
        if self.facets is not None:
            rows = np.asarray(self.facets, dtype=np.int64).tolist()
            object.__setattr__(self, "facets", tuple(map(tuple, rows)))

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    def to_json_dict(self) -> dict:
        out = {
            "dim": self.dim,
            "intrinsic_dim": self.intrinsic_dim,
            "vertices": self.vertices.tolist(),
        }
        if self.facets is not None:
            out["facets"] = [list(f) for f in self.facets]
        return out


@dataclass(frozen=True)
class IntrinsicVolumes:
    """Vector (V_0, ..., V_d); V_j carries units length^j."""

    values: tuple[float, ...]

    def __post_init__(self):
        vals = tuple(float(v) for v in self.values)
        if len(vals) < 1 or vals[0] != 1.0:
            raise ParameterError("V_0 must be 1 for a nonempty body")
        if any(v < -1e-12 for v in vals):
            raise ParameterError("intrinsic volumes must be nonnegative")
        object.__setattr__(self, "values", tuple(max(v, 0.0) for v in vals))

    def __getitem__(self, j: int) -> float:
        return self.values[j]

    def __len__(self) -> int:
        return len(self.values)


def _lex_end(x: np.ndarray, y: np.ndarray, i: int, pick) -> int:
    """Among the points sharing x[i], the one ``pick`` selects by y."""
    tied = x == x[i]
    if np.count_nonzero(tied) == 1:
        return i
    return int(tied.nonzero()[0][pick(y[tied])])


def _cands(cr: np.ndarray, xs: np.ndarray, ys: np.ndarray):
    """Candidates as arrays; 64 or fewer as (cr, x, y) tuples, which Python splits faster."""
    if len(cr) > 64:
        return cr, xs, ys
    return list(zip(cr.tolist(), xs.tolist(), ys.tolist()))


def hull2d(points) -> Polytope:
    """Convex hull in the plane by Quickhull (Barber, Dobkin & Huhdanpaa,
    ACM TOMS 1996), counterclockwise from the lexicographic minimum a.

    Each subproblem is an edge p -> q with the candidates strictly right of
    it (cross product < 0); the farthest, lexicographically smallest on a
    tie, is a vertex c, and p -> c and c -> q follow. Duplicates and exactly
    collinear points have cross product 0 and drop out. Subproblems run on
    an explicit stack, in numpy and then, once small, in Python floats with
    the same arithmetic. Degenerate inputs give a point or the segment from
    a to the lexicographic maximum, with intrinsic_dim 0 or 1."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 2 or len(pts) == 0:
        raise ParameterError("hull2d needs a nonempty (n, 2) array")
    if not np.isfinite(pts).all():
        raise ParameterError("hull2d needs finite coordinates")
    x, y = np.ascontiguousarray(pts.T)
    ia = _lex_end(x, y, int(x.argmin()), np.argmin)
    ib = _lex_end(x, y, int(x.argmax()), np.argmax)
    a, b = (float(x[ia]), float(y[ia])), (float(x[ib]), float(y[ib]))
    if a == b:
        return Polytope(2, pts[ia : ia + 1].copy(), 0)
    cr = (b[0] - a[0]) * (y - a[1]) - (b[1] - a[1]) * (x - a[0])
    up, lo = cr > 0, cr < 0
    stack = [(b, a, _cands(-cr[up], x[up], y[up])), b, (a, b, _cands(cr[lo], x[lo], y[lo]))]
    out = [a]
    while stack:
        item = stack.pop()
        if len(item) == 2:  # a vertex, in counterclockwise turn
            out.append(item)
            continue
        p, q, cand = item
        if not cand:
            continue
        (px, py), (qx, qy) = p, q
        if isinstance(cand, list):
            _, cx, cy = min(cand)
            ux, uy, vx, vy = cx - px, cy - py, qx - cx, qy - cy
            left, right = [], []
            for _, sx, sy in cand:
                d = ux * (sy - py) - uy * (sx - px)
                if d < 0:
                    left.append((d, sx, sy))
                elif (e := vx * (sy - cy) - vy * (sx - cx)) < 0:
                    right.append((e, sx, sy))
        else:
            cr, xs, ys = cand
            k = int(cr.argmin())
            t = np.flatnonzero(cr == cr[k])
            if len(t) > 1:
                k = int(t[np.lexsort((ys[t], xs[t]))[0]])
            cx, cy = float(xs[k]), float(ys[k])
            d1 = (cx - px) * (ys - py) - (cy - py) * (xs - px)
            d2 = (qx - cx) * (ys - cy) - (qy - cy) * (xs - cx)
            m1, m2 = d1 < 0, d2 < 0
            m2[m1] = False  # round-off can put a point right of both
            left, right = _cands(d1[m1], xs[m1], ys[m1]), _cands(d2[m2], xs[m2], ys[m2])
        c = (cx, cy)
        stack += [(c, q, right), c, (p, c, left)]
    return Polytope(2, np.array(out), 2 if len(out) > 2 else 1)


@functools.cache
def _seed_directions() -> np.ndarray:
    """The six axis directions, then a deterministic 26-point spiral
    covering the sphere."""
    k = np.arange(26, dtype=np.float64)
    z = 1.0 - 2.0 * (k + 0.5) / 26.0
    r = np.sqrt(np.maximum(1.0 - z * z, 0.0))
    th = math.pi * (3.0 - math.sqrt(5.0)) * k
    spiral = np.column_stack([r * np.cos(th), r * np.sin(th), z])
    return np.vstack([np.eye(3), -np.eye(3), spiral])


def _lex_sorted(pts: np.ndarray, cand: np.ndarray) -> np.ndarray:
    """``cand`` ordered lexicographically by point, equal points by index."""
    sub = pts[cand]
    return cand[np.lexsort((sub[:, 2], sub[:, 1], sub[:, 0]))]


def _seed_extremes(pts: np.ndarray, cols: np.ndarray, eps: float) -> np.ndarray:
    """Extreme point index in each seed direction, from one (32, 3) @ (3, n)
    product (``cols`` is pts transposed). Near-ties within eps of a
    direction's maximum go to the lexicographic max, so every pick is a
    true vertex."""
    proj = _seed_directions() @ cols
    dirs = np.arange(len(proj))
    picks = np.argmax(proj, axis=1)
    top = proj[dirs, picks]
    proj[dirs, picks] = -np.inf
    tied = proj.max(axis=1) >= top - eps  # a second point within eps of the top
    proj[dirs, picks] = top
    for k in np.flatnonzero(tied):
        picks[k] = _lex_sorted(pts, np.flatnonzero(proj[k] >= top[k] - eps))[-1]
    return picks


_BLOCK = 2048  # point columns per distance block, sized to stay in cache
_DEAD_PLANE = np.array([0.0, 0.0, 0.0, np.inf])
_EDGES = np.array([[0, 1], [1, 2], [2, 0]])  # directed edges of a triangle
_NO_ROWS = np.empty(0, dtype=np.int64)


class _FacetStore:
    """Triangle facets of a growing hull, in arrays that grow in place.

    Row k holds an index triple ``tri[k]`` and the facet plane
    ``plane[k] = (unit outward normal, offset)``; the signed distance of a
    point x is ``plane[k] @ (x, -1)``. A dead row has the plane
    (0, 0, 0, inf): every distance to it is -inf, so it is never visible
    and never the maximum. New facets take the rows of the facets they
    replace, and the two more that Euler's formula adds are appended.
    """

    def __init__(self, pts: np.ndarray, interior: np.ndarray, cap: int = 64):
        # (x, y, z, x, y) rows: a cross product is two products of slices
        self.ext = pts[:, [0, 1, 2, 0, 1]]
        # homogeneous rows (x, y, z, -1): distances are plane @ hom[i]
        self.hom = pts[:, [0, 1, 2, 0]]
        self.hom[:, 3] = -1.0
        # edge (u, v) has key u * n + v; its reverse, v * n + u
        self.key = np.array([[len(pts), 1], [1, len(pts)]])
        self.interior = interior
        self.tri = np.zeros((cap, 3), dtype=np.int64)
        self.plane = np.tile(_DEAD_PLANE, (cap, 1))
        self.m = 0  # rows in use, dead or alive

    def worst(self, q4: np.ndarray) -> np.ndarray:
        """Largest signed distance over all facets for each column of a
        (4, k) array of homogeneous points, in cache-sized column blocks."""
        planes = self.plane[: self.m]
        if q4.shape[1] <= _BLOCK:
            return (planes @ q4).max(axis=0)
        out = np.empty(q4.shape[1])
        for lo in range(0, q4.shape[1], _BLOCK):
            out[lo : lo + _BLOCK] = (planes @ q4[:, lo : lo + _BLOCK]).max(axis=0)
        return out

    def add(self, edges: np.ndarray, apex: int, rows: np.ndarray = _NO_ROWS) -> None:
        """Store the triangles (u, v, apex), one per row (u, v) of edges, into
        ``rows`` and then appended rows; rows left over die. A triangle whose
        normal points toward the interior point is stored as (v, u, apex),
        and a zero-area one gets a zero normal."""
        c = self.ext[apex]
        rel = self.ext[edges] - c
        u, v = rel[:, 0], rel[:, 1]
        n = u[:, 1:4] * v[:, 2:5] - u[:, 2:5] * v[:, 1:4]
        nn = np.sqrt(np.einsum("ij,ij->i", n, n))
        if nn.min() < 1e-300:
            tiny = nn < 1e-300
            nn[tiny] = 1.0
            n[tiny] = 0.0
        n /= nn[:, None]
        off = n @ c[:3]
        flip = n @ self.interior > off
        if flip.any():
            n[flip] *= -1.0
            off[flip] *= -1.0
            edges = np.where(flip[:, None], edges[:, ::-1], edges)

        k = len(edges)
        if k > len(rows):
            top = self.m + k - len(rows)
            if top > len(self.plane):
                extra = max(len(self.plane), top - len(self.plane))
                self.tri = np.vstack([self.tri, np.zeros((extra, 3), dtype=np.int64)])
                self.plane = np.vstack([self.plane, np.tile(_DEAD_PLANE, (extra, 1))])
            rows = np.concatenate([rows, np.arange(self.m, top)])
            self.m = top
        elif k < len(rows):
            self.plane[rows[k:]] = _DEAD_PLANE
            rows = rows[:k]
        self.tri[rows, :2] = edges
        self.tri[rows, 2] = apex
        self.plane[rows, :3] = n
        self.plane[rows, 3] = off

    def insert(self, p: int, eps: float) -> None:
        """Add point p: replace the facets it sees beyond eps by the cone
        from p over their horizon. A horizon edge is a directed edge (u, v)
        of a visible facet whose reverse belongs to no visible facet; the
        new facet (u, v, p) keeps the mesh orientation."""
        vis = (self.plane[: self.m] @ self.hom[p] > eps).nonzero()[0]
        if len(vis) == 0:
            return
        edges = self.tri[vis[:, None, None], _EDGES].reshape(-1, 2)
        fwd, back = (edges @ self.key).T
        fwd.sort()
        rim = edges[fwd.take(fwd.searchsorted(back), mode="clip") != back]
        if (fwd[1:] == fwd[:-1]).any():
            # a directed edge in two visible facets: round-off has broken the
            # mesh, so cone each rim edge once
            rim = np.unique(rim, axis=0)
        self.add(rim, p, vis)

    def facets(self) -> np.ndarray:
        return self.tri[: self.m][self.plane[: self.m, 3] < np.inf]


def hull3d(points) -> Polytope:
    """Incremental convex hull in R^3 with outward-oriented triangle facets.

    Seeds a tetrahedron from extreme points, then inserts the extremes in
    32 fixed directions, then repeatedly the remaining point farthest
    outside the current hull (``_FacetStore.insert``). Coplanar, collinear,
    and single-point inputs degrade to planar, segment, and point
    polytopes."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 3 or len(pts) == 0:
        raise ParameterError("hull3d needs a nonempty (n, 3) array")
    if not np.all(np.isfinite(pts)):
        raise ParameterError("hull3d needs finite coordinates")
    cols = np.ascontiguousarray(pts.T)  # per-point work runs along contiguous rows
    eps = geom_eps(cols.T)
    if eps == 0.0:
        return Polytope(3, pts[:1].copy(), 0)
    # the lexicographic minimum: an argmin on x with a tie-break, no lexsort
    i0 = int(_lex_sorted(pts, np.flatnonzero(cols[0] == cols[0].min()))[0])
    r0, r1, r2 = rel = cols - cols[:, i0, None]
    i1 = int(np.sqrt(r0 * r0 + r1 * r1 + r2 * r2).argmax())
    axis = pts[i1] - pts[i0]
    axis /= np.linalg.norm(axis)
    a0, a1, a2 = axis.tolist()
    # |rel x axis| per point, with np.cross's terms in np.cross's order
    c0, c1, c2 = r1 * a2 - r2 * a1, r2 * a0 - r0 * a2, r0 * a1 - r1 * a0
    line_dist = np.sqrt(c0 * c0 + c1 * c1 + c2 * c2)
    i2 = int(line_dist.argmax())
    if line_dist[i2] <= eps:
        proj = pts @ axis
        return Polytope(3, pts[[proj.argmin(), proj.argmax()]], 1)
    normal = np.cross(rel[:, i1], rel[:, i2])
    normal /= np.linalg.norm(normal)
    plane_dist = (pts - pts[i0]) @ normal
    i3 = int(np.argmax(np.abs(plane_dist)))
    if abs(plane_dist[i3]) <= eps:
        u = rel[:, i1] / np.linalg.norm(rel[:, i1])
        basis = np.vstack([u, np.cross(normal, u)])
        flat = hull2d((pts - pts[i0]) @ basis.T)
        return Polytope(3, flat.vertices @ basis + pts[i0], flat.intrinsic_dim)

    seed = [i0, i1, i2, i3]
    store = _FacetStore(pts, pts[seed].mean(axis=0))
    # the seed tetrahedron: triangle (i0, i1, i2) and its cone to i3
    store.add(np.array([[i0, i1]]), i2)
    store.add(np.array([[i0, i1], [i1, i2], [i2, i0]]), i3)
    todo = np.ones(len(pts), dtype=bool)
    todo[seed] = False

    # Directional extremes are guaranteed hull vertices; inserting them
    # first grows a fat seed body so the main loop discards the interior
    # bulk in one filtering pass.
    for ei in _seed_extremes(pts, cols, eps).tolist():
        if todo[ei]:
            store.insert(ei, eps)
            todo[ei] = False

    worst = store.worst(store.hom.T)
    remaining = np.flatnonzero(todo & (worst > eps))
    q4, worst = store.hom[remaining].T, worst[remaining]
    while len(remaining) > 0:
        picked = int(worst.argmax())
        store.insert(int(remaining[picked]), eps)
        worst = store.worst(q4)
        keep = worst > eps  # points inside the growing hull stay inside
        keep[picked] = False
        remaining, q4, worst = remaining[keep], q4[:, keep], worst[keep]

    tris = store.facets()
    used = np.unique(tris)
    facets = np.searchsorted(used, tris)
    return Polytope(3, pts[used], 3, facets)


def intrinsic_volumes_2d(p: Polytope) -> IntrinsicVolumes:
    """(V_0, V_1, V_2) = (1, perimeter/2, area); a segment of length L
    gives (1, L, 0) since its boundary measure is 2L."""
    if p.dim != 2:
        raise ParameterError("intrinsic_volumes_2d needs a planar polytope")
    v = p.vertices
    if p.intrinsic_dim == 0:
        return IntrinsicVolumes((1.0, 0.0, 0.0))
    if p.intrinsic_dim == 1:
        return IntrinsicVolumes((1.0, float(np.linalg.norm(v[1] - v[0])), 0.0))
    nxt = np.roll(v, -1, axis=0)
    perim = float(np.linalg.norm(nxt - v, axis=1).sum())
    area = 0.5 * float(np.abs(np.sum(v[:, 0] * nxt[:, 1] - nxt[:, 0] * v[:, 1])))
    return IntrinsicVolumes((1.0, perim / 2.0, area))


def intrinsic_volumes_3d(p: Polytope) -> IntrinsicVolumes:
    """(V_0, V_1, V_2, V_3) for a full-dimensional mesh polytope.

    V_3 by the divergence sum over origin-anchored tetrahedra, V_2 as half
    the surface area, V_1 as (1/2pi) sum of edge length times the exterior
    dihedral angle (the angle between the two outward facet normals), which
    vanishes on edges interior to a flat face. The facets are paired across
    each undirected edge by sorting the edge keys min * V + max; the mesh
    must own every edge exactly twice, or DimensionError is raised.
    """
    if p.dim != 3:
        raise ParameterError("intrinsic_volumes_3d needs an R^3 polytope")
    if p.intrinsic_dim != 3 or p.facets is None:
        raise DimensionError("degenerate polytope has no 3-d intrinsic volumes")
    verts = p.vertices
    f = np.asarray(p.facets, dtype=np.int64)
    a, b, c = verts[f[:, 0]], verts[f[:, 1]], verts[f[:, 2]]
    vol = float(np.abs(np.einsum("ij,ij->i", a, np.cross(b, c)).sum())) / 6.0
    raw_n = np.cross(b - a, c - a)
    tri_area = 0.5 * np.linalg.norm(raw_n, axis=1)
    surface = float(tri_area.sum())
    unit_n = raw_n / np.maximum(np.linalg.norm(raw_n, axis=1, keepdims=True), 1e-300)

    # The directed edges of every facet, keyed by their undirected edge
    # min * V + max. Sorted keys come in equal pairs, one pair per edge,
    # exactly when every edge has two owners; entry e belongs to facet e // 3.
    edges = np.sort(f[:, _EDGES].reshape(-1, 2), axis=1)
    key = edges[:, 0] * len(verts) + edges[:, 1]
    order = np.argsort(key)
    key = key[order]
    if len(key) % 2 or np.any(key[0::2] != key[1::2]) or np.any(key[1:-1:2] == key[2::2]):
        raise DimensionError("facet mesh is not closed")
    n1 = unit_n[order[0::2] // 3]
    n2 = unit_n[order[1::2] // 3]
    ang = np.arctan2(np.linalg.norm(np.cross(n1, n2), axis=1), np.einsum("ij,ij->i", n1, n2))
    lo, hi = edges[order[0::2]].T
    length = np.linalg.norm(verts[hi] - verts[lo], axis=1)
    v1 = float(length @ ang) / (2.0 * math.pi)
    return IntrinsicVolumes((1.0, v1, surface / 2.0, vol))


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
    if not isinstance(j, (int, np.integer)) or isinstance(j, bool) or not 1 <= j <= d:
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
    if j not in (1, 2):
        raise ParameterError(f"j must be 1 or 2, got {j!r}")
    if samples < 2:
        raise ParameterError("need at least 2 samples")
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


def _point_segment_dist(x: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    ab = b - a
    denom = float(ab @ ab)
    if denom == 0.0:
        return float(np.linalg.norm(x - a))
    t = float((x - a) @ ab) / denom
    t = min(max(t, 0.0), 1.0)
    return float(np.linalg.norm(x - (a + t * ab)))


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


def _dist_to_polytope(body: Polytope, x: np.ndarray, eps: float) -> float:
    v = body.vertices
    if body.intrinsic_dim == 0:
        return float(np.linalg.norm(x - v[0]))
    if body.intrinsic_dim == 1:
        return _point_segment_dist(x, v[0], v[-1])
    if body.dim == 2:
        nxt = np.roll(v, -1, axis=0)
        cr = (nxt[:, 0] - v[:, 0]) * (x[1] - v[:, 1]) - (nxt[:, 1] - v[:, 1]) * (
            x[0] - v[:, 0]
        )
        edge_len = np.maximum(np.linalg.norm(nxt - v, axis=1), 1e-300)
        if np.all(cr / edge_len >= -eps):  # signed distance to each edge line
            return 0.0
        return float(
            min(_point_segment_dist(x, v[k], nxt[k]) for k in range(len(v)))
        )
    if body.facets is not None:
        f = np.asarray(body.facets, dtype=np.int64)
        a, b, c = v[f[:, 0]], v[f[:, 1]], v[f[:, 2]]
        raw_n = np.cross(b - a, c - a)
        unit_n = raw_n / np.maximum(np.linalg.norm(raw_n, axis=1, keepdims=True), 1e-300)
        side = np.einsum("ij,ij->i", unit_n, x - a)
        if np.all(side <= eps):
            return 0.0
        return float(_point_triangles_dist(x, a, b, c).min())
    # planar polygon living in R^3: fan-triangulate its ordered vertices
    idx = np.arange(1, len(v) - 1)
    a = np.repeat(v[:1], len(idx), axis=0)
    return float(_point_triangles_dist(x, a, v[idx], v[idx + 1]).min())


def hausdorff(pa: Polytope, pb: Polytope) -> float:
    """Hausdorff distance between two convex polytopes of the same ambient
    dimension. Convexity makes the vertex-to-body maximum exact."""
    if pa.dim != pb.dim:
        raise ParameterError("polytopes must share ambient dimension")
    eps = max(geom_eps(pa.vertices), geom_eps(pb.vertices))
    d_ab = max(_dist_to_polytope(pb, va, eps) for va in pa.vertices)
    d_ba = max(_dist_to_polytope(pa, vb, eps) for vb in pb.vertices)
    return max(d_ab, d_ba)
