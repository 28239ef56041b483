"""Exact convex hulls and hull functionals in R^2 and R^3.

All arithmetic is plain double precision. ``hull2d`` is a Quickhull with a
strict sign test and no tolerance: duplicates and exactly collinear points
drop out, every other extreme point stays. ``hull3d`` keeps the relative
tolerance eps = 1e-9 * bounding-box diagonal (``geom_eps``) in its
visibility, planarity and seed tests, so it drops vertices within eps of
its surface. Degenerate inputs (all points equal, collinear, or coplanar)
come back as lower-dimensional polytopes instead of raising. Both hulls, on
every branch, return input rows bit for bit as their vertices.

The R^3 hull (``_FacetStore``) keeps its facet planes in a numpy array
and its index triples in a Python list. An insertion finds its visible
facets with one matrix-vector product; their horizon and the cone over it
are worked out in Python floats, a handful of facets at a time, and
written into the visible facets' rows. Each round measures all outside
points against all facets with one matrix product, in blocks of _BLOCK
columns. The seed tetrahedron's picks are np.argmax over one scratch row
of n scores, filled on blocks of _PASS = 8 * _BLOCK points and freed before
the 32 directional extremes and the first filter run on blocks of _BLOCK
points. So beyond its input and one transposed copy a hull3d call holds
that row while it seeds, then O(_BLOCK) working memory plus the homogeneous
rows of the points left outside the seed body. The blocked passes keep the
rules of whole-array ones: the same elementwise arithmetic, the eps tie
rule and the insertion order.

``intrinsic_volumes_2d`` and ``intrinsic_volumes_3d`` measure every hull
shape, points, segments and flat polygons included; on a full mesh,
``intrinsic_volumes_3d`` pairs the two facets of every edge by sorting
edge keys, so the dihedral angles come from batched array operations.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ParameterError

__all__ = [
    "Polytope",
    "IntrinsicVolumes",
    "geom_eps",
    "hull2d",
    "hull3d",
    "intrinsic_volumes_2d",
    "intrinsic_volumes_3d",
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
            try:
                f = np.asarray(self.facets)
            except ValueError:  # ragged rows: refused below as a float array
                f = np.empty(0)
            rows = () if isinstance(self.facets, np.ndarray) else self.facets
            if f.dtype.kind not in "iu" or f.shape[1:] != (3,) or len(f) == 0 or any(
                isinstance(i, (bool, np.bool_))  # a bool is no index
                for i in itertools.chain.from_iterable(rows)
            ) or not 0 <= f.min() <= f.max() < len(verts):
                raise ParameterError("facets must be a nonempty (F, 3) array of vertex indices")
            object.__setattr__(self, "facets", tuple(map(tuple, f.tolist())))

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)


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


def _sphere_spiral(count: int) -> np.ndarray:
    """``count`` points of the golden-angle spiral covering the unit sphere."""
    k = np.arange(count, dtype=np.float64)
    z = 1.0 - 2.0 * (k + 0.5) / count
    r = np.sqrt(np.maximum(1.0 - z * z, 0.0))
    th = math.pi * (3.0 - math.sqrt(5.0)) * k
    return np.column_stack([r * np.cos(th), r * np.sin(th), z])


# hull3d's seed directions: the six axis directions, then a 26-point spiral
_SEED_DIRECTIONS = np.vstack([np.eye(3), -np.eye(3), _sphere_spiral(26)])


def _lex_sorted(pts: np.ndarray, cand: np.ndarray) -> np.ndarray:
    """``cand`` ordered lexicographically by point, equal points by index."""
    sub = pts[cand]
    return cand[np.lexsort((sub[:, 2], sub[:, 1], sub[:, 0]))]


_BLOCK = 2048  # point columns per product block (distances, seed projection), sized for cache
# points per block of the elementwise passes that pick the seed tetrahedron:
# their temporaries are (3, b), and at _BLOCK points numpy's per-call cost
# made a hull of 10^4 points 0.18 ms slower
_PASS = 8 * _BLOCK


def _seed_extremes(pts: np.ndarray, cols: np.ndarray, eps: float) -> np.ndarray:
    """Extreme point index in each seed direction. Each block of _BLOCK
    columns of ``cols`` (pts transposed) is projected on all 32 directions
    by one (32, 3) @ (3, b) product and folded into each direction's running
    top, its first argmax, and the largest projection of any other point,
    so no (32, n) array is made. Near-ties within eps of a direction's
    maximum go to the lexicographic max, so every pick is a true vertex;
    only then are the blocks projected again, for the tied directions.

    BLAS picks its kernel by matrix size, so a block's product can round a
    projection differently in its last bit from a (32, 3) @ (3, n) one. A
    pick can move only if a point lies within a few ulps of a window's
    edge, top - eps."""
    dirs = np.arange(len(_SEED_DIRECTIONS))
    starts = range(0, cols.shape[1], _BLOCK)
    for lo in starts:
        proj = _SEED_DIRECTIONS @ cols[:, lo : lo + _BLOCK]
        at = proj.argmax(axis=1)
        best = proj[dirs, at]
        proj[dirs, at] = -np.inf
        rest = proj.max(axis=1)  # -inf in a one-point block
        if lo == 0:
            picks, top, second = at, best, rest
            continue
        new = best > top  # an equal top keeps the earlier point
        second = np.where(new, np.maximum(top, rest), np.maximum(second, best))
        picks = np.where(new, at + lo, picks)
        top = np.where(new, best, top)
    tied = np.flatnonzero(second >= top - eps)
    if len(tied):
        edge, near = (top - eps)[tied, None], []
        for lo in starts:  # the same products, so the same bits
            k, i = ((_SEED_DIRECTIONS @ cols[:, lo : lo + _BLOCK])[tied] >= edge).nonzero()
            near.append((k, i + lo))
        k, i = map(np.concatenate, zip(*near))  # by block, each block by direction
        for r, d in enumerate(tied):
            picks[d] = _lex_sorted(pts, i[k == r])[-1]
    return picks


_DEAD_PLANE = np.array([0.0, 0.0, 0.0, np.inf])
_EDGES = np.array([[0, 1], [1, 2], [2, 0]])  # directed edges of a triangle


class _Coords(dict):
    """Point index -> [x, y, z] as Python floats, fetched on first use."""

    def __init__(self, pts: np.ndarray):
        super().__init__()
        self.pts = pts

    def __missing__(self, i: int) -> list:
        xyz = self[i] = self.pts[i].tolist()
        return xyz


class _FacetStore:
    """Triangle facets of a growing hull, one row per facet.

    Row k holds an index triple ``tri[k]``, in a Python list, and the facet
    plane ``plane[k] = (unit outward normal, offset)``, in a numpy array;
    the signed distance of a point x is ``plane[k] @ (x, -1)``. A dead row
    has the plane (0, 0, 0, inf): every distance to it is -inf, so it is
    never visible and never the maximum. New facets take the rows of the
    facets they replace, and the two more that Euler's formula adds are
    appended.

    Only the products over all facets run in numpy: one matrix-vector
    product finds the facets a point sees, and ``worst`` measures points
    against every facet. An insertion touches a handful of facets, so its
    horizon and the planes of its new facets are worked out in Python
    floats and tuples and written back with one row assignment.

    Beyond the facets the store keeps only the Python-float coordinates of
    the points it has touched and one scratch homogeneous row (x, y, z, -1)
    for the point being inserted. The homogeneous rows of the points still
    outside are the caller's ``q4``, built block by block for the points
    that survive the first filter.
    """

    def __init__(self, pts: np.ndarray, interior: np.ndarray):
        self.pts = pts
        self.hom = np.full(4, -1.0)  # scratch homogeneous row of the point inserted
        self.xyz = _Coords(pts)
        self.interior = interior.tolist()
        self.tri = []
        self.plane = np.tile(_DEAD_PLANE, (64, 1))  # doubles as the hull grows

    def worst(self, q4: np.ndarray) -> np.ndarray:
        """Largest signed distance over all facets for each column of a
        (4, k) array of homogeneous points, in cache-sized column blocks."""
        planes = self.plane[: len(self.tri)]
        if q4.shape[1] <= _BLOCK:
            return (planes @ q4).max(axis=0)
        out = np.empty(q4.shape[1])
        for lo in range(0, q4.shape[1], _BLOCK):
            out[lo : lo + _BLOCK] = (planes @ q4[:, lo : lo + _BLOCK]).max(axis=0)
        return out

    def add(self, edges, apex: int, rows=()) -> None:
        """Store the triangles (u, v, apex), one per edge (u, v), into
        ``rows`` and then appended rows; rows left over die. A triangle whose
        normal points toward the interior point is stored as (v, u, apex),
        and a zero-area one gets a zero normal. Every insertion into a closed
        mesh adds two rows, so once m points are in, the seed included, a
        healthy mesh holds exactly 2m - 4; more means round-off has broken
        the mesh, and DimensionError is raised."""
        xyz = self.xyz
        cx, cy, cz = xyz[apex]
        ix, iy, iz = self.interior
        tris, planes = [], []
        for u, v in edges:
            ux, uy, uz = xyz[u]
            vx, vy, vz = xyz[v]
            ux, uy, uz = ux - cx, uy - cy, uz - cz
            vx, vy, vz = vx - cx, vy - cy, vz - cz
            nx = uy * vz - uz * vy
            ny = uz * vx - ux * vz
            nz = ux * vy - uy * vx
            nn = math.sqrt(nx * nx + ny * ny + nz * nz)
            if nn < 1e-300:
                nx = ny = nz = 0.0
            else:
                nx, ny, nz = nx / nn, ny / nn, nz / nn
            off = nx * cx + ny * cy + nz * cz
            if nx * ix + ny * iy + nz * iz > off:
                u, v, nx, ny, nz, off = v, u, -nx, -ny, -nz, -off
            tris.append((u, v, apex))
            planes += (nx, ny, nz, off)

        k, r, m = len(tris), len(rows), len(self.tri)
        for row, t in zip(rows, tris):
            self.tri[row] = t
        if k > r:
            top = m + k - r
            if top > 2 * len(self.xyz) - 4:  # xyz holds the seed and the inserted points
                raise DimensionError(
                    "hull3d's facet mesh is broken: more than 2m - 4 facets on m inserted points"
                )
            if top > len(self.plane):
                extra = max(len(self.plane), top - len(self.plane))
                self.plane = np.vstack([self.plane, np.tile(_DEAD_PLANE, (extra, 1))])
            rows = [*rows, *range(m, top)]
            self.tri += tris[r:]
        elif k < r:
            self.plane[rows[k:]] = _DEAD_PLANE
            rows = rows[:k]
        if k:
            self.plane[rows] = np.array(planes).reshape(k, 4)

    def insert(self, p: int, eps: float) -> None:
        """Add point p: replace the facets it sees beyond eps by the cone
        from p over their horizon. A horizon edge is a directed edge (u, v)
        of a visible facet whose reverse belongs to no visible facet; the
        new facet (u, v, p) keeps the mesh orientation."""
        self.hom[:3] = self.pts[p]
        vis = (self.plane[: len(self.tri)] @ self.hom > eps).nonzero()[0].tolist()
        if not vis:
            return
        edges = []
        for row in vis:
            a, b, c = self.tri[row]
            edges += ((a, b), (b, c), (c, a))
        seen = set(edges)
        rim = [(u, v) for u, v in edges if (v, u) not in seen]
        if len(seen) < len(edges):
            # a directed edge in two visible facets: round-off has broken the
            # mesh, so cone each rim edge once
            rim = sorted(set(rim))
        self.add(rim, p, vis)

    def facets(self) -> np.ndarray:
        flat = itertools.chain.from_iterable(self.tri)  # twice as fast as np.array
        tri = np.fromiter(flat, dtype=np.int64, count=3 * len(self.tri)).reshape(-1, 3)
        return tri[self.plane[: len(tri), 3] < np.inf]


def hull3d(points) -> Polytope:
    """Incremental convex hull in R^3 with outward-oriented triangle facets.

    Seeds a tetrahedron from extreme points, then inserts the extremes in
    32 fixed directions, then repeatedly the remaining point farthest
    outside the current hull (``_FacetStore.insert``). Coplanar, collinear,
    and single-point inputs degrade to planar, segment, and point
    polytopes. A mesh that round-off breaks, so that it holds more than
    2m - 4 facets once m points are in, raises DimensionError."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 3 or len(pts) == 0:
        raise ParameterError("hull3d needs a nonempty (n, 3) array")
    if not (np.isfinite(pts.min()) and np.isfinite(pts.max())):  # NaN propagates
        raise ParameterError("hull3d needs finite coordinates")
    cols = np.ascontiguousarray(pts.T)  # per-point work runs along contiguous rows
    eps = geom_eps(cols.T)
    if eps == 0.0:
        return Polytope(3, pts[:1].copy(), 0)
    # the seed tetrahedron: i0 is the lexicographic minimum, i1-i3 np.argmax
    # picks over one row of n scores filled on blocks of _PASS points; a
    # collinear or coplanar input goes whole to its lower-dimensional hull
    i0 = int(_lex_sorted(pts, np.flatnonzero(cols[0] == cols[0].min()))[0])
    x0 = cols[:, i0, None]
    score, starts = np.empty(len(pts)), range(0, len(pts), _PASS)

    def dist(r0, r1, r2):
        return np.sqrt(r0 * r0 + r1 * r1 + r2 * r2)

    for lo in starts:
        score[lo : lo + _PASS] = dist(*(cols[:, lo : lo + _PASS] - x0))
    i1 = int(score.argmax())
    e1 = pts[i1] - pts[i0]
    axis = e1 / np.linalg.norm(e1)
    a0, a1, a2 = axis.tolist()

    def line_dist(r0, r1, r2):  # |rel x axis|, with np.cross's terms in np.cross's order
        return dist(r1 * a2 - r2 * a1, r2 * a0 - r0 * a2, r0 * a1 - r1 * a0)

    for lo in starts:
        score[lo : lo + _PASS] = line_dist(*(cols[:, lo : lo + _PASS] - x0))
    i2 = int(score.argmax())
    if score[i2] <= eps:
        proj = pts @ axis
        return Polytope(3, pts[[proj.argmin(), proj.argmax()]], 1)
    normal = np.cross(e1, pts[i2] - pts[i0])
    normal /= np.linalg.norm(normal)
    for lo in starts:
        score[lo : lo + _PASS] = np.abs((pts[lo : lo + _PASS] - pts[i0]) @ normal)
    i3 = int(score.argmax())
    if score[i3] <= eps:
        basis = np.vstack([axis, np.cross(normal, axis)])
        proj = ((pts - pts[i0]) @ basis.T).tolist()
        flat = hull2d(proj)
        row = {tuple(q): i for i, q in enumerate(proj)}  # return input rows, not lifts
        picked = [row[tuple(q)] for q in flat.vertices.tolist()]
        return Polytope(3, pts[picked], flat.intrinsic_dim)
    del score  # n floats, freed before the seed extremes and the filter

    seed = [i0, i1, i2, i3]
    store = _FacetStore(pts, pts[seed].mean(axis=0))
    # the seed tetrahedron: triangle (i0, i1, i2) and its cone to i3
    store.add([(i0, i1)], i2)
    store.add([(i0, i1), (i1, i2), (i2, i0)], i3)

    # Directional extremes are guaranteed hull vertices; inserting them
    # first grows a fat seed body so the main loop discards the interior
    # bulk in one filtering pass.
    done = set(seed)
    for ei in _seed_extremes(pts, cols, eps).tolist():
        if ei not in done:
            store.insert(ei, eps)
            done.add(ei)

    # The filtering pass builds each block's homogeneous rows (x, y, z, -1)
    # and keeps those of the points outside the seed body. A block gets the
    # layout the same index gives a whole-input copy, and its columns are
    # the _BLOCK columns ``worst`` would measure at once, so the products
    # keep their bits.
    outside, rows, worst = [], [], []
    for lo in range(0, len(pts), _BLOCK):
        hom = pts[lo : lo + _BLOCK, [0, 1, 2, 0]]
        hom[:, 3] = -1.0
        w = store.worst(hom.T)
        w[[i - lo for i in done if lo <= i < lo + _BLOCK]] = -np.inf  # inserted already
        out = np.flatnonzero(w > eps)
        outside.append(out + lo)
        rows.append(hom[out])
        worst.append(w[out])
    remaining, rows, worst = map(np.concatenate, (outside, rows, worst))
    q4 = rows.T
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


def _point_or_segment(p: Polytope) -> IntrinsicVolumes:
    """(1, L, 0, ...) for a segment of length L, (1, 0, ...) for a point."""
    length = float(np.linalg.norm(p.vertices[-1] - p.vertices[0])) if p.intrinsic_dim else 0.0
    return IntrinsicVolumes((1.0, length) + (0.0,) * (p.dim - 1))


def intrinsic_volumes_2d(p: Polytope) -> IntrinsicVolumes:
    """(V_0, V_1, V_2) = (1, perimeter/2, area); a segment of length L
    gives (1, L, 0) since its boundary measure is 2L."""
    if p.dim != 2:
        raise ParameterError("intrinsic_volumes_2d needs a planar polytope")
    if p.intrinsic_dim < 2:
        return _point_or_segment(p)
    v = p.vertices
    nxt = np.roll(v, -1, axis=0)
    perim = float(np.linalg.norm(nxt - v, axis=1).sum())
    area = 0.5 * float(np.abs(np.sum(v[:, 0] * nxt[:, 1] - nxt[:, 0] * v[:, 1])))
    return IntrinsicVolumes((1.0, perim / 2.0, area))


def intrinsic_volumes_3d(p: Polytope) -> IntrinsicVolumes:
    """(V_0, V_1, V_2, V_3) for any polytope in R^3.

    V_j does not depend on the ambient space, so a point gives (1, 0, 0, 0),
    a segment of length L (1, L, 0, 0), and a flat polygon (1, perimeter/2,
    area, 0), its area the norm of the vector area. For a full-dimensional
    mesh, V_3 is the divergence sum over origin-anchored tetrahedra, V_2
    half the surface area, V_1 (1/2pi) sum of edge length times the exterior
    dihedral angle (the angle between the two outward facet normals), which
    vanishes on edges interior to a flat face. The facets are paired across
    each undirected edge by sorting the edge keys min * V + max; the mesh
    must own every edge exactly twice, or DimensionError is raised.
    """
    if p.dim != 3:
        raise ParameterError("intrinsic_volumes_3d needs an R^3 polytope")
    if p.intrinsic_dim < 2:
        return _point_or_segment(p)
    verts = p.vertices
    if p.intrinsic_dim == 2:
        nxt = np.roll(verts, -1, axis=0)
        perim = float(np.linalg.norm(nxt - verts, axis=1).sum())
        area = 0.5 * float(np.linalg.norm(np.cross(verts, nxt).sum(axis=0)))
        return IntrinsicVolumes((1.0, perim / 2.0, area, 0.0))
    if p.facets is None:
        raise DimensionError("a full-dimensional polytope needs its facet mesh")
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
