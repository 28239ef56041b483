"""Exact convex hulls and hull functionals in R^2 and R^3.

Hulls are computed in plain double precision with a relative tolerance
eps = 1e-9 * input diameter for orientation and side-of-plane predicates.
Adaptive exact predicates are deliberately not used: heavy-tailed inputs
would make them attractive, but the statistical layers tolerate the rare
borderline misclassification. Degenerate inputs (all points equal,
collinear, or coplanar) come back as lower-dimensional polytopes instead
of raising.

The R^3 hull keeps its facets in numpy arrays (``_FacetStore``): index
triples, facet planes and an alive mask, grown in place. An insertion
finds its visible facets with one matrix-vector product and cones the
whole horizon in one batched cross product; each round measures all
outside points against all facets with one matrix product.
``intrinsic_volumes_3d`` pairs the two facets of every edge by sorting
edge keys, so the dihedral angles come from batched array operations.
"""

from __future__ import annotations

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


def _bbox_diag(pts: np.ndarray) -> float:
    """Bounding-box diagonal of a nonempty (n, d) float array."""
    cols = np.ascontiguousarray(pts.T)  # per-coordinate extremes, contiguous
    return float(np.linalg.norm(cols.max(axis=-1) - cols.min(axis=-1)))


def geom_eps(points: np.ndarray) -> float:
    """Length tolerance: 1e-9 times the bounding-box diagonal."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.size == 0:
        return 0.0
    return 1e-9 * _bbox_diag(pts)


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
            object.__setattr__(
                self, "facets", tuple(tuple(int(i) for i in f) for f in self.facets)
            )

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


def _cross2(o, a, b) -> float:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _octagon_prefilter(pts: np.ndarray, eps_cross: float) -> np.ndarray:
    """Drop points strictly inside the octagon spanned by the 8 extreme
    points in the axis and diagonal directions. Inscribed in the hull, so
    dropped points are never hull vertices."""
    x, y = pts[:, 0], pts[:, 1]
    s, t = x + y, x - y
    idx = [
        int(np.argmax(x)), int(np.argmax(s)), int(np.argmax(y)), int(np.argmin(t)),
        int(np.argmin(x)), int(np.argmin(s)), int(np.argmin(y)), int(np.argmax(t)),
    ]
    corners = []
    for i in idx:
        if not corners or not np.array_equal(pts[i], corners[-1]):
            corners.append(pts[i])
    if len(corners) > 1 and np.array_equal(corners[0], corners[-1]):
        corners.pop()
    if len(corners) < 3:
        return pts
    corners = np.asarray(corners)
    inside = np.ones(len(pts), dtype=bool)
    for k in range(len(corners)):
        a = corners[k]
        b = corners[(k + 1) % len(corners)]
        cr = (b[0] - a[0]) * (y - a[1]) - (b[1] - a[1]) * (x - a[0])
        inside &= cr > eps_cross
    return pts[~inside]


def hull2d(points) -> Polytope:
    """Convex hull in the plane via monotone chain, counterclockwise,
    collinear and duplicate points removed. Degenerate inputs produce a
    point or segment polytope with the matching intrinsic_dim."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 2 or len(pts) == 0:
        raise ParameterError("hull2d needs a nonempty (n, 2) array")
    if not np.all(np.isfinite(pts)):
        raise ParameterError("hull2d needs finite coordinates")
    diag = _bbox_diag(pts)
    if diag == 0.0:
        return Polytope(2, pts[:1].copy(), 0)
    # Orientation predicate works on cross products, which scale as
    # length^2, so the 1e-9-relative tolerance is squared with the diameter.
    eps_cross = 1e-9 * diag * diag
    if len(pts) > 64:
        pts = _octagon_prefilter(pts, eps_cross)
    uniq = sorted(set(map(tuple, pts.tolist())))
    if len(uniq) == 1:
        return Polytope(2, np.array(uniq), 0)

    def chain(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and _cross2(out[-2], out[-1], p) <= eps_cross:
                out.pop()
            out.append(p)
        return out

    lower = chain(uniq)
    upper = chain(reversed(uniq))
    verts = lower[:-1] + upper[:-1]
    if len(verts) < 3:
        ends = np.array([lower[0], lower[-1]] if len(lower) > 1 else verts)
        return Polytope(2, ends, 1)
    return Polytope(2, np.array(verts), 2)


_SEED_DIRS_3D = None


def _seed_directions() -> np.ndarray:
    global _SEED_DIRS_3D
    if _SEED_DIRS_3D is None:
        axes = np.vstack([np.eye(3), -np.eye(3)])
        k = np.arange(26, dtype=np.float64)
        # deterministic spiral covering the sphere
        z = 1.0 - 2.0 * (k + 0.5) / 26.0
        r = np.sqrt(np.maximum(1.0 - z * z, 0.0))
        th = math.pi * (3.0 - math.sqrt(5.0)) * k
        spiral = np.column_stack([r * np.cos(th), r * np.sin(th), z])
        _SEED_DIRS_3D = np.vstack([axes, spiral])
    return _SEED_DIRS_3D


def _lex_sorted(pts: np.ndarray, cand: np.ndarray) -> np.ndarray:
    """``cand`` ordered lexicographically by point, equal points by index."""
    sub = pts[cand]
    return cand[np.lexsort((sub[:, 2], sub[:, 1], sub[:, 0]))]


def _lex_min(pts: np.ndarray) -> int:
    """First index of the lexicographically smallest point: an argmin on x
    with a tie-break, not a full lexsort."""
    x = pts[:, 0]
    return int(_lex_sorted(pts, np.flatnonzero(x == x.min()))[0])


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


def _planar_hull3d(pts: np.ndarray, origin, basis) -> Polytope:
    flat = (pts - origin) @ basis.T
    poly2 = hull2d(flat)
    lifted = poly2.vertices @ basis + origin
    return Polytope(3, lifted, poly2.intrinsic_dim)


_BLOCK = 2048  # point columns per distance block, sized to stay in cache
_DEAD_PLANE = np.array([0.0, 0.0, 0.0, np.inf])
_EDGES = np.array([[0, 1], [1, 2], [2, 0]])  # directed edges of a triangle


class _FacetStore:
    """Triangle facets of a growing hull, in arrays that grow in place.

    Row k holds an index triple ``tri[k]``, an alive flag, and the facet
    plane ``plane[k] = (unit outward normal, offset)``; the signed distance
    of a point x is ``plane[k] @ (x, -1)``. A dead row has the plane
    (0, 0, 0, inf): every distance to it is -inf, so it is never visible
    and never the maximum. New facets reuse dead rows first.
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
        self.alive = np.zeros(cap, dtype=bool)
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

    def add(self, edges: np.ndarray, apex: int) -> None:
        """Store the triangles (u, v, apex) for the rows (u, v) of edges in
        one batch. A triangle whose unit normal points toward the interior
        point is stored as (v, u, apex) with the normal negated; a
        zero-area triangle gets a zero normal."""
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

        rows = np.flatnonzero(~self.alive[: self.m])[: len(edges)]
        if len(rows) < len(edges):
            top = self.m + len(edges) - len(rows)
            if top > len(self.alive):
                self._grow(top)
            rows = np.concatenate([rows, np.arange(self.m, top)])
            self.m = top
        self.tri[rows, :2] = edges
        self.tri[rows, 2] = apex
        self.plane[rows, :3] = n
        self.plane[rows, 3] = off
        self.alive[rows] = True

    def _grow(self, need: int) -> None:
        extra = max(len(self.alive), need - len(self.alive))
        self.tri = np.vstack([self.tri, np.zeros((extra, 3), dtype=np.int64)])
        self.plane = np.vstack([self.plane, np.tile(_DEAD_PLANE, (extra, 1))])
        self.alive = np.concatenate([self.alive, np.zeros(extra, dtype=bool)])

    def insert(self, p: int, eps: float) -> None:
        """Add point p: drop the facets it sees beyond eps and cone their
        horizon to p. A horizon edge is a directed edge (u, v) of a visible
        facet whose reverse belongs to no visible facet; the new facet
        (u, v, p) keeps the mesh orientation."""
        vis = np.flatnonzero(self.plane[: self.m] @ self.hom[p] > eps)
        if len(vis) == 0:
            return
        edges = self.tri[vis[:, None, None], _EDGES].reshape(-1, 2)
        fwd, back = (edges @ self.key).T
        fwd.sort()
        rim = edges[fwd.take(np.searchsorted(fwd, back), mode="clip") != back]
        if np.any(fwd[1:] == fwd[:-1]):
            # a directed edge in two visible facets: round-off has broken the
            # mesh, so cone each rim edge once
            rim = np.unique(rim, axis=0)
        self.alive[vis] = False
        self.plane[vis] = _DEAD_PLANE
        self.add(rim, p)

    def facets(self) -> np.ndarray:
        return self.tri[: self.m][self.alive[: self.m]]


def hull3d(points) -> Polytope:
    """Incremental convex hull in R^3 with outward-oriented triangle facets.

    Seeds a tetrahedron from extreme points, then inserts the extremes in
    32 fixed directions, then repeatedly the remaining point farthest
    outside the current hull, retriangulating across its horizon. Facets
    live in a ``_FacetStore``: each insertion finds its visible facets
    with one matrix-vector product and adds all horizon facets with one
    batched cross product; each round measures every outside point
    against every facet with one matrix product. Coplanar, collinear,
    and single-point inputs degrade to planar, segment, and point
    polytopes."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 3 or len(pts) == 0:
        raise ParameterError("hull3d needs a nonempty (n, 3) array")
    if not np.all(np.isfinite(pts)):
        raise ParameterError("hull3d needs finite coordinates")
    eps = geom_eps(pts)
    if eps == 0.0:
        return Polytope(3, pts[:1].copy(), 0)
    i0 = _lex_min(pts)
    cols = np.ascontiguousarray(pts.T)  # per-point work runs along contiguous rows
    rel = cols - cols[:, i0, None]
    i1 = int(np.argmax(np.linalg.norm(rel, axis=0)))
    axis = pts[i1] - pts[i0]
    axis /= np.linalg.norm(axis)
    line_dist = np.linalg.norm(np.cross(rel, axis, axisa=0, axisc=0), axis=0)
    i2 = int(np.argmax(line_dist))
    if line_dist[i2] <= eps:
        proj = pts @ axis
        ends = pts[[int(np.argmin(proj)), int(np.argmax(proj))]]
        return Polytope(3, ends, 1)
    normal = np.cross(pts[i1] - pts[i0], pts[i2] - pts[i0])
    normal /= np.linalg.norm(normal)
    plane_dist = (pts - pts[i0]) @ normal
    i3 = int(np.argmax(np.abs(plane_dist)))
    if abs(plane_dist[i3]) <= eps:
        u = pts[i1] - pts[i0]
        u /= np.linalg.norm(u)
        v = np.cross(normal, u)
        return _planar_hull3d(pts, pts[i0], np.vstack([u, v]))

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
        picked = int(np.argmax(worst))
        store.insert(int(remaining[picked]), eps)
        worst = store.worst(q4)
        keep = worst > eps  # points inside the growing hull stay inside
        keep[picked] = False
        remaining, q4, worst = remaining[keep], q4[:, keep], worst[keep]

    tris = store.facets()
    used = np.unique(tris)
    facets = np.searchsorted(used, tris)
    return Polytope(3, pts[used], 3, facets.tolist())


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
