"""Geometry core: hulls, intrinsic volumes, zonotopes, distances.

scipy's Qhull serves as the independent oracle for random point clouds;
everything else checks against exact constructions.
"""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import ConvexHull

from levyhull import (
    DimensionError,
    IntrinsicVolumes,
    ParameterError,
    Polytope,
    ResourceError,
    StableSpec,
    geom_eps,
    hull2d,
    hull3d,
    intrinsic_volumes_2d,
    intrinsic_volumes_3d,
    sample_walk_path,
    trial_rng,
)
from levyhull import hullgeom
from levyhull.hullgeom import _BLOCK, _PASS, _FacetStore, _seed_extremes
from oracles import (
    boundary_distances,
    expected_hull_vertices,
    gram_det,
    hausdorff,
    projection_intrinsic_estimate,
    zonotope_intrinsic_volume,
)

UNIT_SQUARE = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]
CUBE = [[x, y, z] for x in (0.0, 1.0) for y in (0.0, 1.0) for z in (0.0, 1.0)]


def _regular_tetrahedron():
    return np.array(
        [
            [0.0, 0.0, 0.0],
            [1.0, 0.0, 0.0],
            [0.5, math.sqrt(3.0) / 2.0, 0.0],
            [0.5, math.sqrt(3.0) / 6.0, math.sqrt(6.0) / 3.0],
        ]
    )


class TestHull2d:
    def test_interior_point_removed(self):
        p = hull2d([[0, 0], [1, 0], [0, 1], [0.1, 0.1]])
        assert p.intrinsic_dim == 2
        assert sorted(p.vertices.tolist()) == [[0, 0], [0, 1], [1, 0]]

    def test_single_point(self):
        p = hull2d([[1.0, 2.0]])
        assert p.intrinsic_dim == 0 and p.n_vertices == 1

    def test_collinear_becomes_segment(self):
        p = hull2d([[0, 0], [1, 1], [2, 2], [0.5, 0.5]])
        assert p.intrinsic_dim == 1
        assert sorted(p.vertices.tolist()) == [[0, 0], [2, 2]]

    def test_counterclockwise_orientation(self):
        p = hull2d(np.random.default_rng(0).standard_normal((100, 2)))
        v = p.vertices
        nxt = np.roll(v, -1, axis=0)
        signed = np.sum(v[:, 0] * nxt[:, 1] - nxt[:, 0] * v[:, 1])
        assert signed > 0.0

    def test_disk_cloud_vertices_near_boundary(self):
        rng = np.random.default_rng(42)
        r = np.sqrt(rng.random(10_000))
        th = rng.random(10_000) * 2.0 * math.pi
        pts = np.column_stack([r * np.cos(th), r * np.sin(th)])
        p = hull2d(pts)
        assert np.all(np.linalg.norm(p.vertices, axis=1) >= 0.9)

    @pytest.mark.parametrize("n", [3, 10, 300, 5000])
    def test_against_qhull(self, n):
        rng = np.random.default_rng(n)
        pts = rng.standard_normal((n, 2))
        iv = intrinsic_volumes_2d(hull2d(pts))
        q = ConvexHull(pts)
        assert iv[2] == pytest.approx(q.volume, rel=1e-10)
        assert 2.0 * iv[1] == pytest.approx(q.area, rel=1e-10)

    def test_idempotent(self):
        rng = np.random.default_rng(3)
        p = hull2d(rng.standard_normal((500, 2)))
        again = hull2d(p.vertices)
        assert np.array_equal(np.sort(p.vertices, axis=0), np.sort(again.vertices, axis=0))

    def test_containment_of_inputs(self):
        rng = np.random.default_rng(4)
        pts = rng.standard_normal((800, 2)) * 3.0
        p = hull2d(pts)
        eps = geom_eps(pts)
        v = p.vertices
        nxt = np.roll(v, -1, axis=0)
        edge = nxt - v
        # signed distance of every input point to every edge line
        rel = pts[:, None, :] - v[None, :, :]
        cr = edge[None, :, 0] * rel[:, :, 1] - edge[None, :, 1] * rel[:, :, 0]
        sd = cr / np.linalg.norm(edge, axis=1)[None, :]
        assert sd.min() >= -eps

    def test_empty_rejected(self):
        with pytest.raises(ParameterError):
            hull2d(np.empty((0, 2)))
        with pytest.raises(ParameterError):
            hull2d([[0.0, float("nan")]])


class TestHull3d:
    def test_cube_with_center(self):
        p = hull3d(np.array(CUBE + [[0.5, 0.5, 0.5]]))
        assert p.intrinsic_dim == 3
        assert p.n_vertices == 8
        assert len(p.facets) == 12  # closed triangulated surface: 2V - 4

    def test_simplex(self):
        p = hull3d(_regular_tetrahedron())
        assert p.n_vertices == 4 and len(p.facets) == 4

    def test_containment_within_eps(self):
        rng = np.random.default_rng(9)
        pts = rng.standard_normal((50, 3))
        p = hull3d(pts)
        f = np.asarray(p.facets)
        a = p.vertices[f[:, 0]]
        n = np.cross(p.vertices[f[:, 1]] - a, p.vertices[f[:, 2]] - a)
        n /= np.linalg.norm(n, axis=1, keepdims=True)
        side = (pts[:, None, :] - a[None, :, :]) * n[None, :, :]
        assert side.sum(axis=2).max() <= geom_eps(pts)

    @pytest.mark.parametrize("n", [4, 20, 200, 2000])
    def test_against_qhull(self, n):
        rng = np.random.default_rng(n + 1)
        pts = rng.standard_normal((n, 3))
        iv = intrinsic_volumes_3d(hull3d(pts))
        q = ConvexHull(pts)
        assert iv[3] == pytest.approx(q.volume, rel=1e-10)
        assert 2.0 * iv[2] == pytest.approx(q.area, rel=1e-10)

    def test_idempotent(self):
        rng = np.random.default_rng(12)
        p = hull3d(rng.standard_normal((300, 3)))
        again = hull3d(p.vertices)
        assert np.array_equal(np.sort(p.vertices, axis=0), np.sort(again.vertices, axis=0))

    def test_mesh_closed_and_oriented(self):
        p = hull3d(np.random.default_rng(7).standard_normal((120, 3)))
        edges = {}
        for tri in p.facets:
            for u, v in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
                assert (u, v) not in edges, "directed edge repeated"
                edges[(u, v)] = True
        for u, v in edges:
            assert (v, u) in edges, "mesh not closed"

    def test_coplanar_flagged(self):
        rng = np.random.default_rng(2)
        flat = np.column_stack([rng.standard_normal((40, 2)), np.zeros(40)])
        p = hull3d(flat)
        assert p.intrinsic_dim == 2

    def test_collinear_and_point(self):
        line = np.outer(np.linspace(0, 1, 9), [1.0, 2.0, 3.0])
        assert hull3d(line).intrinsic_dim == 1
        assert hull3d(np.ones((5, 3))).intrinsic_dim == 0

    @pytest.mark.parametrize("alpha,k", [(0.3, 15), (0.3, 11), (0.5, 39)])
    def test_a_runaway_facet_store_raises(self, alpha, k):
        # round-off breaks these meshes beyond repair: unchecked, hull3d
        # returned 7,173, 44,080 and 8,260 facets on 2,000 points, and a
        # closed mesh on 2,000 points has at most 3,996
        spec = StableSpec(alpha=alpha, d=3)
        pts = sample_walk_path(spec, 2000, 1.0, trial_rng(2026, 9, k)).points
        with pytest.raises(DimensionError, match="more than 2m - 4 facets"):
            hull3d(pts)

    def test_a_walk_whose_point_sees_a_doubled_edge_keeps_its_hull(self, monkeypatch):
        # one insertion sees a directed edge in two facets, so insert cones
        # each rim edge once (the only sorted() call of hull3d); the mesh
        # stays within 2m - 4 facets and is returned
        calls = []
        monkeypatch.setattr(hullgeom, "sorted", lambda x: calls.append(x) or sorted(x), raising=False)
        spec = StableSpec(alpha=0.3, d=3)
        pts = sample_walk_path(spec, 1000, 1.0, trial_rng(2017, 7, 29)).points
        p = hull3d(pts)
        assert calls
        assert p.intrinsic_dim == 3 and len(p.facets) == 2 * p.n_vertices - 4

    def test_duplicate_visible_facets_cone_each_rim_edge_once(self):
        # Round-off can leave one triangle in the facet store twice (seen on
        # alpha = 0.5 walks). A point that sees both copies must cone each rim
        # edge once, or every such insertion doubles the facets it adds.
        pts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.2, 0.2, 1.0]])
        store = _FacetStore(pts, np.array([0.2, 0.2, -1.0]))
        store.add(np.array([[0, 1]]), 2)
        store.add(np.array([[0, 1]]), 2)
        store.insert(3, 1e-12)
        assert sorted(map(sorted, store.facets().tolist())) == [[0, 1, 3], [0, 2, 3], [1, 2, 3]]


def _inputs_by_branch(d: int, branch: str, seed: int) -> np.ndarray:
    """Inputs in R^d whose hull is a point, a segment, a flat polygon (in
    R^3 only) or a full body."""
    rng = np.random.default_rng(seed)
    shift = rng.standard_normal(d)
    if branch == "point":
        return np.tile(shift, (5, 1))
    if branch == "segment":
        t = rng.standard_normal((30, 1))
        if d == 2:  # (t, 2t): doubling is exact, so the points are exactly collinear
            return np.hstack([t, 2.0 * t])
        return t * rng.standard_normal(d) + shift
    if branch == "planar":
        return rng.standard_normal((40, 2)) @ rng.standard_normal((2, 3)) + shift
    return sample_walk_path(StableSpec(alpha=0.7, d=d), 2000, 1.0, trial_rng(8, d, seed)).points


def _vertices_are_input_rows(poly: Polytope, pts: np.ndarray) -> bool:
    rows = {r.tobytes() for r in pts}
    return all(v.tobytes() in rows for v in poly.vertices)


class TestVerticesAreInputRows:
    """Every vertex of either hull is an input row, bit for bit, so a point
    is a hull vertex exactly when it equals a vertex row."""

    @pytest.mark.parametrize("branch, dim", [("point", 0), ("segment", 1), ("full", 2)])
    def test_hull2d(self, branch, dim):
        for seed in range(10):
            pts = _inputs_by_branch(2, branch, seed)
            p = hull2d(pts)
            assert p.intrinsic_dim == dim and _vertices_are_input_rows(p, pts)

    @pytest.mark.parametrize(
        "branch, dim", [("point", 0), ("segment", 1), ("planar", 2), ("full", 3)]
    )
    def test_hull3d(self, branch, dim):
        for seed in range(10):
            pts = _inputs_by_branch(3, branch, seed)
            p = hull3d(pts)
            assert p.intrinsic_dim == dim and _vertices_are_input_rows(p, pts)

    def test_planar_hull3d_keeps_the_boundary_order_of_its_flat_hull(self):
        for seed in range(10):
            pts = _inputs_by_branch(3, "planar", seed)
            want = hull2d(pts[:, :2]).vertices.tolist()  # the polygon seen from above
            ring = hull3d(pts).vertices[:, :2].tolist()
            k = ring.index(want[0])
            ring = ring[k:] + ring[:k]
            assert want in (ring, ring[:1] + ring[:0:-1])  # either turn


def _walk3(alpha: float, k: int) -> np.ndarray:
    """A 3-D stable walk of 10^4 steps, the size the d = 3 experiments use."""
    spec = StableSpec(alpha=alpha, d=3)
    return sample_walk_path(spec, 10_000, 1.0, trial_rng(5, 2, k)).points


# (alpha, trial) pairs. At alpha = 0.7, trials 4, 8 and 11 are the walks on
# which qhull keeps near-coplanar vertices that hull3d drops.
WALKS_3D = [(2.0, 0), (2.0, 1), (2.0, 2), (1.5, 0), (1.5, 1), (1.5, 2),
            (0.7, 0), (0.7, 4), (0.7, 8), (0.7, 11)]

# hull3d folds its mesh where it drops those vertices: a vertex ends up
# thousands of eps above a facet, and the reflex edges add to V_1.
_FOLDED = pytest.mark.xfail(
    strict=True, reason="hull3d mesh is not convex near dropped near-coplanar vertices"
)
WALKS_3D_V1 = [
    pytest.param(a, k, marks=_FOLDED) if (a, k) in ((0.7, 4), (0.7, 11)) else (a, k)
    for a, k in WALKS_3D
]


def _rows(a: np.ndarray) -> set:
    return set(map(tuple, a.tolist()))


def _v1_brute_force(q: ConvexHull) -> float:
    """V_1 of a qhull mesh from plain loops: each edge with its two owning
    triangles, length times exterior dihedral angle; triangles from one
    merged qhull facet share their plane equation and add 0."""
    owners = {}
    for i, tri in enumerate(q.simplices.tolist()):
        for u, v in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
            owners.setdefault((min(u, v), max(u, v)), []).append(i)
    total = 0.0
    for (u, v), (i, j) in owners.items():
        if np.array_equal(q.equations[i], q.equations[j]):
            continue
        n1, n2 = q.equations[i, :3].tolist(), q.equations[j, :3].tolist()
        cross = (
            n1[1] * n2[2] - n1[2] * n2[1],
            n1[2] * n2[0] - n1[0] * n2[2],
            n1[0] * n2[1] - n1[1] * n2[0],
        )
        dot = n1[0] * n2[0] + n1[1] * n2[1] + n1[2] * n2[2]
        total += math.dist(q.points[u], q.points[v]) * math.atan2(math.hypot(*cross), dot)
    return total / (2.0 * math.pi)


class TestHull3dAgainstQhull:
    """Differential tests on the walks the d = 3 experiments build hulls of."""

    @pytest.mark.parametrize("alpha,k", WALKS_3D)
    def test_volume_and_area(self, alpha, k):
        pts = _walk3(alpha, k)
        iv = intrinsic_volumes_3d(hull3d(pts))
        q = ConvexHull(pts)
        assert iv[3] == pytest.approx(q.volume, rel=1e-10)
        assert 2.0 * iv[2] == pytest.approx(q.area, rel=1e-10)

    @pytest.mark.parametrize("alpha,k", WALKS_3D)
    def test_vertices(self, alpha, k):
        pts = _walk3(alpha, k)
        p = hull3d(pts)
        ours, theirs = _rows(p.vertices), _rows(pts[ConvexHull(pts).vertices])
        assert ours <= theirs
        # qhull keeps vertices that lie within hull3d's tolerance of its surface
        for x in theirs - ours:
            assert boundary_distances(p, x).min() <= geom_eps(pts)

    @pytest.mark.parametrize("alpha,k", WALKS_3D_V1)
    def test_v1_matches_brute_force_oracle(self, alpha, k):
        pts = _walk3(alpha, k)
        iv = intrinsic_volumes_3d(hull3d(pts))
        assert iv[1] == pytest.approx(_v1_brute_force(ConvexHull(pts)), rel=1e-10)

    @pytest.mark.parametrize("alpha,k", WALKS_3D)
    def test_edge_pairing_on_qhull_mesh(self, alpha, k):
        # intrinsic_volumes_3d on qhull's own mesh, outward-oriented: isolates
        # the edge pairing and angle sum from hull3d
        pts = _walk3(alpha, k)
        q = ConvexHull(pts)
        tris = q.simplices.copy()
        a, b, c = (pts[tris[:, i]] for i in range(3))
        inward = np.einsum("ij,ij->i", np.cross(b - a, c - a), q.equations[:, :3]) < 0
        tris[inward] = tris[inward][:, ::-1]
        used = np.unique(tris)
        poly = Polytope(3, pts[used], 3, np.searchsorted(used, tris))
        iv = intrinsic_volumes_3d(poly)
        assert iv[1] == pytest.approx(_v1_brute_force(q), rel=1e-10)
        assert iv[3] == pytest.approx(q.volume, rel=1e-10)


# Frozen oracle: hull3d's facet store and insertion loop as they stood when
# every insertion's bookkeeping ran in small numpy arrays. Do not edit;
# hull3d must return the same vertices and the same facets in the same order.
_ORACLE_DEAD_PLANE = np.array([0.0, 0.0, 0.0, np.inf])
_ORACLE_EDGES = np.array([[0, 1], [1, 2], [2, 0]])
_ORACLE_NO_ROWS = np.empty(0, dtype=np.int64)


def _oracle_seed_directions():
    k = np.arange(26, dtype=np.float64)
    z = 1.0 - 2.0 * (k + 0.5) / 26.0
    r = np.sqrt(np.maximum(1.0 - z * z, 0.0))
    th = math.pi * (3.0 - math.sqrt(5.0)) * k
    spiral = np.column_stack([r * np.cos(th), r * np.sin(th), z])
    return np.vstack([np.eye(3), -np.eye(3), spiral])


def _oracle_lex_sorted(pts, cand):
    sub = pts[cand]
    return cand[np.lexsort((sub[:, 2], sub[:, 1], sub[:, 0]))]


def _oracle_seed_extremes(pts, cols, eps):
    proj = _oracle_seed_directions() @ cols
    dirs = np.arange(len(proj))
    picks = np.argmax(proj, axis=1)
    top = proj[dirs, picks]
    proj[dirs, picks] = -np.inf
    tied = proj.max(axis=1) >= top - eps
    proj[dirs, picks] = top
    for k in np.flatnonzero(tied):
        picks[k] = _oracle_lex_sorted(pts, np.flatnonzero(proj[k] >= top[k] - eps))[-1]
    return picks


class _OracleFacetStore:
    def __init__(self, pts, interior, cap=64):
        self.ext = pts[:, [0, 1, 2, 0, 1]]
        self.hom = pts[:, [0, 1, 2, 0]]
        self.hom[:, 3] = -1.0
        self.key = np.array([[len(pts), 1], [1, len(pts)]])
        self.interior = interior
        self.tri = np.zeros((cap, 3), dtype=np.int64)
        self.plane = np.tile(_ORACLE_DEAD_PLANE, (cap, 1))
        self.m = 0
        self.points = set()  # the seed and the inserted points

    def worst(self, q4):
        planes = self.plane[: self.m]
        if q4.shape[1] <= 2048:
            return (planes @ q4).max(axis=0)
        out = np.empty(q4.shape[1])
        for lo in range(0, q4.shape[1], 2048):
            out[lo : lo + 2048] = (planes @ q4[:, lo : lo + 2048]).max(axis=0)
        return out

    def add(self, edges, apex, rows=_ORACLE_NO_ROWS):
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
        self.points.update(edges.ravel().tolist(), [apex])
        if k > len(rows):
            top = self.m + k - len(rows)
            if top > 2 * len(self.points) - 4:  # a closed mesh on m points has 2m - 4
                raise DimensionError("broken mesh")
            if top > len(self.plane):
                extra = max(len(self.plane), top - len(self.plane))
                self.tri = np.vstack([self.tri, np.zeros((extra, 3), dtype=np.int64)])
                self.plane = np.vstack([self.plane, np.tile(_ORACLE_DEAD_PLANE, (extra, 1))])
            rows = np.concatenate([rows, np.arange(self.m, top)])
            self.m = top
        elif k < len(rows):
            self.plane[rows[k:]] = _ORACLE_DEAD_PLANE
            rows = rows[:k]
        self.tri[rows, :2] = edges
        self.tri[rows, 2] = apex
        self.plane[rows, :3] = n
        self.plane[rows, 3] = off

    def insert(self, p, eps):
        vis = (self.plane[: self.m] @ self.hom[p] > eps).nonzero()[0]
        if len(vis) == 0:
            return
        edges = self.tri[vis[:, None, None], _ORACLE_EDGES].reshape(-1, 2)
        fwd, back = (edges @ self.key).T
        fwd.sort()
        rim = edges[fwd.take(fwd.searchsorted(back), mode="clip") != back]
        if (fwd[1:] == fwd[:-1]).any():
            rim = np.unique(rim, axis=0)
        self.add(rim, p, vis)

    def facets(self):
        return self.tri[: self.m][self.plane[: self.m, 3] < np.inf]


def _oracle_hull3d(pts):
    """(vertices, facets) of a full-dimensional input; None if it is flat."""
    cols = np.ascontiguousarray(pts.T)
    eps = geom_eps(cols.T)
    i0 = int(_oracle_lex_sorted(pts, np.flatnonzero(cols[0] == cols[0].min()))[0])
    r0, r1, r2 = rel = cols - cols[:, i0, None]
    i1 = int(np.sqrt(r0 * r0 + r1 * r1 + r2 * r2).argmax())
    axis = pts[i1] - pts[i0]
    axis /= np.linalg.norm(axis)
    a0, a1, a2 = axis.tolist()
    c0, c1, c2 = r1 * a2 - r2 * a1, r2 * a0 - r0 * a2, r0 * a1 - r1 * a0
    line_dist = np.sqrt(c0 * c0 + c1 * c1 + c2 * c2)
    i2 = int(line_dist.argmax())
    if line_dist[i2] <= eps:
        return None
    normal = np.cross(rel[:, i1], rel[:, i2])
    normal /= np.linalg.norm(normal)
    plane_dist = (pts - pts[i0]) @ normal
    i3 = int(np.argmax(np.abs(plane_dist)))
    if abs(plane_dist[i3]) <= eps:
        return None
    seed = [i0, i1, i2, i3]
    store = _OracleFacetStore(pts, pts[seed].mean(axis=0))
    store.add(np.array([[i0, i1]]), i2)
    store.add(np.array([[i0, i1], [i1, i2], [i2, i0]]), i3)
    todo = np.ones(len(pts), dtype=bool)
    todo[seed] = False
    for ei in _oracle_seed_extremes(pts, cols, eps).tolist():
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
        keep = worst > eps
        keep[picked] = False
        remaining, q4, worst = remaining[keep], q4[:, keep], worst[keep]
    tris = store.facets()
    used = np.unique(tris)
    return pts[used], np.searchsorted(used, tris)


def _oracle_corpus():
    for alpha in (2.0, 1.5, 1.0, 0.7, 0.5):
        for n in (100, 1000, 10_000):
            walk = sample_walk_path(StableSpec(alpha=alpha, d=3), n, 1.0, trial_rng(5, 4, n))
            yield f"walk-alpha{alpha}-n{n}", walk.points
    # round-off breaks this mesh: it would hold more than 2m - 4 facets on
    # m points, so both hulls refuse it
    broken = sample_walk_path(StableSpec(alpha=0.5, d=3), 1000, 1.0, trial_rng(2017, 5, 19))
    yield "broken-mesh-walk", broken.points
    rng = np.random.default_rng(11)
    yield "gaussian", rng.standard_normal((2000, 3))
    slab = rng.standard_normal((2000, 3))
    slab[:, 2] *= 1e-8
    yield "slab-1e-8", slab
    grid = np.array(list(itertools.product(range(4), repeat=3)), dtype=np.float64)
    yield "grid-4x4x4", grid
    cloud = rng.standard_normal((300, 3))
    yield "tripled-points", np.vstack([cloud, cloud, cloud])
    # hull3d's seed projection runs on blocks of _BLOCK points: clouds that
    # end just before, at and just after a block edge
    for n in (_BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1):
        yield f"gaussian-{n}", rng.standard_normal((n, 3))
    # the maximum in seed direction +x held by two equal rows in two blocks
    split = rng.standard_normal((2 * _BLOCK + 100, 3))
    split[5, 0] = split[:, 0].max() + 1.0
    split[_BLOCK + 7] = split[5]
    yield "equal-max-across-blocks", split
    # its other passes run on blocks of _PASS points: the minimum x, where
    # the seed tetrahedron starts, held by two equal rows in two such blocks
    split = rng.standard_normal((_PASS + 1, 3))
    split[3, 0] = split[:, 0].min() - 1.0
    split[_PASS] = split[3]
    yield "equal-min-across-pass-blocks", split
    # the farthest point from i0 (i1), then the farthest from the line
    # through i0 and i1 (i2), each held by two equal rows in two such blocks
    split = rng.standard_normal((_PASS + 100, 3))
    split[10] = split[_PASS + 5] = [0.0, 0.0, 50.0]
    yield "equal-farthest-across-pass-blocks", split
    split = rng.standard_normal((_PASS + 100, 3))
    split[10] = [0.0, 0.0, 50.0]
    split[20] = split[_PASS + 5] = [0.0, 40.0, 0.0]
    yield "equal-off-line-across-pass-blocks", split


ORACLE_CORPUS = dict(_oracle_corpus())
# meshes that round-off breaks past 2m - 4 facets on m points
ORACLE_REFUSED = ("broken-mesh-walk", "slab-1e-8")


class TestHull3dAgainstFrozenOracle:
    @pytest.mark.parametrize("name", ORACLE_CORPUS)
    def test_same_vertices_and_facets_in_order(self, name):
        pts = ORACLE_CORPUS[name]
        if name in ORACLE_REFUSED:
            with pytest.raises(DimensionError):
                _oracle_hull3d(pts)
            with pytest.raises(DimensionError, match="more than 2m - 4 facets"):
                hull3d(pts)
            return
        want = _oracle_hull3d(pts)
        assert want is not None
        p = hull3d(pts)
        assert p.intrinsic_dim == 3
        assert np.array_equal(p.vertices, want[0])
        assert p.facets == tuple(map(tuple, want[1].tolist()))

    @pytest.mark.parametrize("name", ORACLE_CORPUS)
    def test_same_seed_extremes(self, name):
        pts = ORACLE_CORPUS[name]
        cols = np.ascontiguousarray(pts.T)
        eps = geom_eps(pts)
        want = _oracle_seed_extremes(pts, cols, eps)
        assert np.array_equal(_seed_extremes(pts, cols, eps), want)

    def test_corpus_holds_a_broken_mesh(self):
        # round-off once left this walk's mesh with a directed edge in two
        # facets; both hulls now refuse it before its facets outgrow 2m - 4
        pts = ORACLE_CORPUS["broken-mesh-walk"]
        with pytest.raises(DimensionError, match="broken mesh"):
            _oracle_hull3d(pts)
        with pytest.raises(DimensionError, match="more than 2m - 4 facets"):
            hull3d(pts)


def _walk2(alpha: float, k: int) -> np.ndarray:
    """A planar stable walk of 10^4 steps, the size the d = 2 benchmarks use."""
    spec = StableSpec(alpha=alpha, d=2)
    return sample_walk_path(spec, 10_000, 1.0, trial_rng(5, 3, k)).points


def _assert_strictly_convex_ccw(v: np.ndarray) -> None:
    """Every turn strictly left, starting at the lexicographic minimum."""
    assert v.tolist()[0] == min(v.tolist())
    a, b, c = v, np.roll(v, -1, axis=0), np.roll(v, -2, axis=0)
    turn = (b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1]) - (b[:, 1] - a[:, 1]) * (c[:, 0] - a[:, 0])
    assert np.all(turn > 0)


class TestHull2dAgainstQhull:
    """Vertex sets against qhull on long walks, and the output contract on
    inputs with ties, duplicates and exact collinearity (exact in double
    precision, so every expected vertex list is exact)."""

    @pytest.mark.parametrize("alpha", [2.0, 1.5, 0.7, 0.5])
    @pytest.mark.parametrize("k", range(4))
    def test_vertex_set(self, alpha, k):
        pts = _walk2(alpha, k)
        p = hull2d(pts)
        assert _rows(p.vertices) == _rows(pts[ConvexHull(pts).vertices])
        assert len(p.vertices) == len(_rows(p.vertices))
        assert p.vertices.tolist()[0] == min(pts.tolist())

    def test_ties_at_the_x_extremes(self):
        pts = [[0, 1], [3, 1], [0, 2], [3, -1], [1, 1], [0, 0], [3, 4]]
        p = hull2d(pts)
        assert p.vertices.tolist() == [[0, 0], [3, -1], [3, 4], [0, 2]]

    def test_duplicates_and_points_on_edges(self):
        pts = [[0, 0], [0, 0], [1, 0], [2, 0], [2, 0], [2, 1], [2, 2],
               [1, 2], [0, 2], [0, 1], [1, 1], [2, 2], [0, 0]]
        p = hull2d(pts)
        assert p.intrinsic_dim == 2
        assert p.vertices.tolist() == [[0, 0], [2, 0], [2, 2], [0, 2]]

    @pytest.mark.parametrize("interior", [3, 300])  # Python and numpy subproblems
    def test_tied_farthest_candidates(self, interior):
        # three candidates at the same largest distance below the chord:
        # the two ends are vertices, the middle one is not
        rng = np.random.default_rng(interior)
        inner = rng.uniform([1.0, -0.9], [3.0, -0.1], size=(interior, 2))
        pts = np.vstack([[[0, 0], [4, 0], [2, -1], [3, -1], [1, -1]], inner])
        assert hull2d(pts).vertices.tolist() == [[0, 0], [1, -1], [3, -1], [4, 0]]

    def test_exactly_collinear_input(self):
        p = hull2d([[2, 1], [0, 0], [4, 2], [1, 0.5], [4, 2], [-2, -1]])
        assert p.intrinsic_dim == 1
        assert p.vertices.tolist() == [[-2, -1], [4, 2]]
        vertical = hull2d([[1, 3], [1, -1], [1, 0], [1, 3]])
        assert vertical.intrinsic_dim == 1
        assert vertical.vertices.tolist() == [[1, -1], [1, 3]]

    def test_two_points(self):
        p = hull2d([[1.0, 1.0], [0.0, 0.0]])
        assert p.intrinsic_dim == 1
        assert p.vertices.tolist() == [[0, 0], [1, 1]]

    def test_one_repeated_point(self):
        p = hull2d([[2.0, 5.0]] * 4)
        assert p.intrinsic_dim == 0
        assert p.vertices.tolist() == [[2, 5]]

    def test_strictly_convex_output_on_a_lattice(self):
        rng = np.random.default_rng(8)
        pts = rng.integers(-20, 21, size=(2000, 2)).astype(np.float64)
        p = hull2d(pts)
        _assert_strictly_convex_ccw(p.vertices)
        assert _rows(p.vertices) == _rows(pts[ConvexHull(pts).vertices])

    def test_every_point_a_vertex_does_not_recurse(self):
        # 10^4 points on a parabola, all vertices, with integer coordinates
        # so every cross product is exact
        x = np.arange(-5000.0, 5000.0)
        pts = np.column_stack([x, x * x])
        p = hull2d(pts[np.random.default_rng(1).permutation(len(x))])
        assert np.array_equal(p.vertices, pts)
        _assert_strictly_convex_ccw(p.vertices)


def _mean_z(counts, exact: float) -> float:
    c = np.asarray(counts, dtype=np.float64)
    return (c.mean() - exact) / (c.std(ddof=1) / math.sqrt(len(c)))


class TestHull3dMemory:
    # Every pass over all n points runs on fixed blocks, so the traced peak
    # beyond the input stays under 3x the input's bytes; a (32, n) seed
    # projection and an (n, 4) homogeneous copy made it 15.7x.
    # Seed, n and bound were fixed before the first run.
    def test_peak_allocation_under_three_times_the_input(self):
        pts = sample_walk_path(StableSpec(alpha=2.0, d=3), 10**5, 1.0, trial_rng(11, 3, 0)).points
        tracemalloc.start()
        try:
            hull3d(pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * pts.nbytes


class TestVertexCountOracle:
    """Mean vertex counts of walk hulls against the exact values, which hold
    for every isotropic stable step law (oracles.expected_hull_vertices).
    The seeds, trial counts and the 4-sigma band were fixed before the
    first run."""

    @pytest.mark.parametrize("stream,alpha", enumerate([2.0, 1.5, 0.7, 0.5, 0.3]))
    def test_hull2d(self, stream, alpha):
        spec = StableSpec(alpha=alpha, d=2)
        counts = [
            hull2d(sample_walk_path(spec, 1000, 1.0, trial_rng(1961, stream, k)).points).n_vertices
            for k in range(400)
        ]
        assert abs(_mean_z(counts, expected_hull_vertices(1000, 2))) <= 4.0

    @pytest.mark.parametrize("stream,alpha", enumerate([2.0, 1.5]))
    def test_hull3d(self, stream, alpha):
        spec = StableSpec(alpha=alpha, d=3)
        counts = [
            hull3d(sample_walk_path(spec, 2000, 1.0, trial_rng(2017, stream, k)).points).n_vertices
            for k in range(200)
        ]
        assert abs(_mean_z(counts, expected_hull_vertices(2000, 3))) <= 4.0


class TestIntrinsicVolumes2d:
    def test_unit_square(self):
        iv = intrinsic_volumes_2d(hull2d(UNIT_SQUARE))
        assert iv.values == pytest.approx((1.0, 2.0, 1.0), rel=1e-12)

    def test_segment(self):
        iv = intrinsic_volumes_2d(hull2d([[0, 0], [3, 0]]))
        assert iv.values == pytest.approx((1.0, 3.0, 0.0), abs=1e-12)

    def test_point(self):
        iv = intrinsic_volumes_2d(hull2d([[2.0, 5.0]]))
        assert iv.values == (1.0, 0.0, 0.0)

    def test_regular_hexagon(self):
        th = np.arange(6) * math.pi / 3.0
        iv = intrinsic_volumes_2d(hull2d(np.column_stack([np.cos(th), np.sin(th)])))
        assert iv[1] == pytest.approx(3.0, rel=1e-12)
        assert iv[2] == pytest.approx(3.0 * math.sqrt(3.0) / 2.0, rel=1e-12)

    @given(st.floats(min_value=0.1, max_value=50.0))
    @settings(max_examples=25, deadline=None)
    def test_homogeneity(self, lam):
        rng = np.random.default_rng(17)
        pts = rng.standard_normal((60, 2))
        a = intrinsic_volumes_2d(hull2d(pts))
        b = intrinsic_volumes_2d(hull2d(pts * lam))
        for j in (1, 2):
            assert b[j] == pytest.approx(a[j] * lam**j, rel=1e-9)

    def test_monotone_under_inclusion(self):
        rng = np.random.default_rng(23)
        pts = rng.standard_normal((400, 2))
        inner = intrinsic_volumes_2d(hull2d(pts[:50]))
        outer = intrinsic_volumes_2d(hull2d(pts))
        assert inner[1] <= outer[1] + 1e-12
        assert inner[2] <= outer[2] + 1e-12


class TestIntrinsicVolumes3d:
    def test_unit_cube(self):
        iv = intrinsic_volumes_3d(hull3d(np.array(CUBE)))
        assert iv.values == pytest.approx((1.0, 3.0, 3.0, 1.0), rel=1e-12)

    def test_scaled_cube(self):
        for r in (0.5, 2.0, 10.0):
            iv = intrinsic_volumes_3d(hull3d(np.array(CUBE) * r))
            assert iv.values == pytest.approx(
                (1.0, 3.0 * r, 3.0 * r**2, r**3), rel=1e-11
            )

    def test_regular_tetrahedron(self):
        iv = intrinsic_volumes_3d(hull3d(_regular_tetrahedron()))
        assert iv[3] == pytest.approx(1.0 / (6.0 * math.sqrt(2.0)), rel=1e-10)
        assert iv[2] == pytest.approx(math.sqrt(3.0) / 2.0, rel=1e-10)
        # V_1 = (6 / 2pi) * edge * exterior dihedral of the regular simplex
        expect_v1 = 6.0 * (math.pi - math.acos(1.0 / 3.0)) / (2.0 * math.pi)
        assert iv[1] == pytest.approx(expect_v1, rel=1e-10)

    def test_flat_hull_equals_its_planar_values(self):
        # V_j do not depend on the ambient space: the hull of 30 points on a
        # tilted plane has the V_j of the same polygon in plane coordinates.
        uv = np.random.default_rng(0).standard_normal((30, 2))
        u = np.array([1.0, 2.0, 2.0]) / 3.0
        w = np.array([2.0, -2.0, 1.0]) / 3.0
        flat = hull3d(np.array([0.3, -0.2, 0.5]) + uv[:, :1] * u + uv[:, 1:] * w)
        assert flat.intrinsic_dim == 2
        planar = hull2d(uv)
        assert flat.n_vertices == planar.n_vertices
        iv = intrinsic_volumes_3d(flat)
        assert iv[3] == 0.0
        assert iv.values[:3] == pytest.approx(intrinsic_volumes_2d(planar).values, rel=1e-12)

    def test_collinear_hull_is_its_length(self):
        seg = hull3d(np.outer([0.0, 0.25, 1.0, 0.5], [2.0, -1.0, 2.0]))
        assert seg.intrinsic_dim == 1
        assert intrinsic_volumes_3d(seg).values == (1.0, 3.0, 0.0, 0.0)

    def test_point_hull(self):
        point = hull3d(np.array([[1.5, -2.0, 0.25]] * 3))
        assert point.intrinsic_dim == 0
        assert intrinsic_volumes_3d(point).values == (1.0, 0.0, 0.0, 0.0)

    def test_full_dimensional_without_facets_rejected(self):
        with pytest.raises(DimensionError):
            intrinsic_volumes_3d(Polytope(3, _regular_tetrahedron(), 3))

    def test_open_mesh_rejected(self):
        verts = _regular_tetrahedron()
        broken = Polytope(3, verts, 3, facets=((0, 1, 2),))
        with pytest.raises(DimensionError):
            intrinsic_volumes_3d(broken)

    def test_edge_with_three_owners_rejected(self):
        # Two tetrahedra glued on the face (0, 1, 2), which is kept: its three
        # edges have three owning facets, every other edge two.
        verts = np.vstack([_regular_tetrahedron(), [[0.5, math.sqrt(3.0) / 6.0, -1.0]]])
        facets = ((0, 2, 1), (0, 1, 3), (1, 2, 3), (2, 0, 3), (0, 1, 4), (1, 2, 4), (2, 0, 4))
        with pytest.raises(DimensionError):
            intrinsic_volumes_3d(Polytope(3, verts, 3, facets=facets))

    def test_edge_with_four_owners_rejected(self):
        # Two tetrahedra sharing only the edge (0, 1): every edge key occurs an
        # even number of times, yet (0, 1) has four owners.
        verts = np.array(
            [[0, 0, 0], [1, 0, 0], [0, 1, 1], [0, 1, -1], [0, -1, 1], [0, -1, -1]], float
        )
        facets = ((0, 1, 2), (0, 3, 1), (0, 2, 3), (1, 3, 2),
                  (0, 1, 4), (0, 5, 1), (0, 4, 5), (1, 5, 4))
        with pytest.raises(DimensionError):
            intrinsic_volumes_3d(Polytope(3, verts, 3, facets=facets))

    def test_ball_approximation_converges(self):
        # Inscribed polytope on 700 sphere points: V_j within ~3% of the
        # unit ball values (1, 4, 2pi, 4pi/3); checks all three functionals
        # jointly on an all-extreme input.
        rng = np.random.default_rng(31)
        g = rng.standard_normal((700, 3))
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        iv = intrinsic_volumes_3d(hull3d(g))
        assert iv[1] == pytest.approx(4.0, rel=0.03)
        assert iv[2] == pytest.approx(2.0 * math.pi, rel=0.03)
        assert iv[3] == pytest.approx(4.0 * math.pi / 3.0, rel=0.03)


class TestSteinerFormula2d:
    def test_offset_area_matches_steiner_polynomial(self):
        # Independent oracle: build the offset body P + rB explicitly with
        # finely discretized corner arcs and take its shoelace area.
        rng = np.random.default_rng(77)
        p = hull2d(rng.standard_normal((200, 2)))
        iv = intrinsic_volumes_2d(p)
        v = p.vertices
        m = len(v)
        for r in (0.25, 1.0, 3.0):
            boundary = []
            for k in range(m):
                prev = v[k - 1]
                cur = v[k]
                nxt = v[(k + 1) % m]
                e_in = cur - prev
                e_out = nxt - cur
                n_in = np.array([e_in[1], -e_in[0]]) / np.linalg.norm(e_in)
                n_out = np.array([e_out[1], -e_out[0]]) / np.linalg.norm(e_out)
                a0 = math.atan2(n_in[1], n_in[0])
                a1 = math.atan2(n_out[1], n_out[0])
                sweep = (a1 - a0) % (2.0 * math.pi)
                angles = a0 + np.linspace(0.0, sweep, 400)
                arc = cur + r * np.column_stack([np.cos(angles), np.sin(angles)])
                boundary.append(arc)
            ring = np.vstack(boundary)
            nxt_ring = np.roll(ring, -1, axis=0)
            area = 0.5 * abs(
                float(np.sum(ring[:, 0] * nxt_ring[:, 1] - nxt_ring[:, 0] * ring[:, 1]))
            )
            steiner = iv[2] + 2.0 * r * iv[1] + math.pi * r * r
            assert area == pytest.approx(steiner, rel=1e-6)


class TestGramDet:
    def test_orthonormal(self):
        assert gram_det(np.eye(3)[:2]) == pytest.approx(1.0, rel=1e-14)

    def test_dependent_is_zero(self):
        assert gram_det([[1.0, 1.0], [2.0, 2.0]]) == 0.0

    def test_two_by_two(self):
        assert gram_det([[1.0, 0.0], [1.0, 1.0]]) == pytest.approx(1.0, rel=1e-12)

    def test_matches_abs_determinant_when_square(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            m = rng.standard_normal((3, 3))
            assert gram_det(m) == pytest.approx(abs(np.linalg.det(m)), rel=1e-9)

    def test_hadamard_bound(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            j, d = int(rng.integers(1, 5)), 5
            m = rng.standard_normal((j, d))
            assert gram_det(m) <= np.prod(np.linalg.norm(m, axis=1)) + 1e-12

    def test_too_many_rows(self):
        with pytest.raises(ParameterError):
            gram_det(np.ones((3, 2)))


class TestZonotope:
    def test_unit_square_generators(self):
        gens = np.eye(2)
        assert zonotope_intrinsic_volume(gens, 2) == pytest.approx(1.0, rel=1e-14)
        assert zonotope_intrinsic_volume(gens, 1) == pytest.approx(2.0, rel=1e-14)

    @pytest.mark.parametrize("m", [2, 4, 6, 8])
    def test_matches_hull_of_explicit_minkowski_sum(self, m):
        rng = np.random.default_rng(m * 11)
        gens = rng.standard_normal((m, 2))
        corners = (
            np.array(list(itertools.product((0.0, 1.0), repeat=m))) @ gens
        )
        iv = intrinsic_volumes_2d(hull2d(corners))
        for j in (1, 2):
            assert zonotope_intrinsic_volume(gens, j) == pytest.approx(
                iv[j], rel=1e-9
            )

    def test_permutation_and_sign_invariance(self):
        rng = np.random.default_rng(1)
        gens = rng.standard_normal((6, 3))
        base = [zonotope_intrinsic_volume(gens, j) for j in (1, 2, 3)]
        perm = gens[rng.permutation(6)]
        flipped = gens * rng.choice([-1.0, 1.0], size=(6, 1))
        for j in (1, 2, 3):
            assert zonotope_intrinsic_volume(perm, j) == base[j - 1]
            assert zonotope_intrinsic_volume(flipped, j) == pytest.approx(
                base[j - 1], rel=1e-12
            )

    def test_generator_cap(self):
        with pytest.raises(ResourceError):
            zonotope_intrinsic_volume(np.ones((26, 2)), 1)

    def test_fewer_generators_than_order(self):
        assert zonotope_intrinsic_volume(np.ones((1, 2)), 2) == 0.0


class TestProjectionEstimate:
    def test_cube_width_and_shadow(self):
        p = hull3d(np.array(CUBE))
        r1 = projection_intrinsic_estimate(p, 1, 40_000, np.random.default_rng(1))
        assert abs(r1.mean - 3.0) < 3.0 * r1.stderr
        r2 = projection_intrinsic_estimate(p, 2, 4_000, np.random.default_rng(2))
        assert abs(r2.mean - 3.0) < 3.0 * r2.stderr

    def test_tetrahedron_matches_exact_functionals(self):
        p = hull3d(_regular_tetrahedron())
        iv = intrinsic_volumes_3d(p)
        for j in (1, 2):
            est = projection_intrinsic_estimate(p, j, 20_000, np.random.default_rng(j))
            assert abs(est.mean - iv[j]) < 3.0 * est.stderr

    def test_degenerate_rejected(self):
        seg = hull3d(np.outer(np.linspace(0, 1, 4), [1.0, 0.0, 0.0]))
        with pytest.raises(DimensionError):
            projection_intrinsic_estimate(seg, 1, 100, np.random.default_rng(0))


class TestBoundaryDistances:
    """Distances to the boundary faces, against qhull's facet planes for
    full-dimensional walk hulls and exact constructions otherwise."""

    WALKS = [(d, alpha, k) for d in (2, 3) for alpha in (2.0, 1.5) for k in range(2)]

    @pytest.mark.parametrize("d,alpha,k", WALKS)
    def test_interior_points_match_qhull_planes(self, d, alpha, k):
        pts = _walk2(alpha, k) if d == 2 else _walk3(alpha, k)
        poly = hull2d(pts) if d == 2 else hull3d(pts)
        eq = ConvexHull(pts).equations  # unit outward normal a, offset b
        rng = np.random.default_rng(100 * d + k)
        plane_dist = -(pts @ eq[:, :-1].T + eq[:, -1])
        inside = pts[plane_dist.min(axis=1) > 0.0]
        xs = np.vstack(
            [
                inside[rng.choice(len(inside), 20, replace=False)],
                rng.dirichlet(np.ones(poly.n_vertices), 5) @ poly.vertices,
            ]
        )
        tol = geom_eps(pts)
        for x in xs:
            want = float((-(eq[:, :-1] @ x + eq[:, -1])).min())
            assert want > 0.0
            assert boundary_distances(poly, x).min() == pytest.approx(want, rel=1e-9, abs=tol)

    @pytest.mark.parametrize("alpha", [2.0, 1.5])
    def test_two_edges_meet_at_each_2d_vertex(self, alpha):
        poly = hull2d(_walk2(alpha, 0))
        tol = geom_eps(poly.vertices)
        for v in poly.vertices:
            dist = boundary_distances(poly, v)
            assert len(dist) == poly.n_vertices
            assert int((dist <= tol).sum()) == 2

    def test_point_hull(self):
        for p, x, want in (
            (hull2d([[1.0, 2.0]]), [4.0, 6.0], 5.0),
            (hull3d([[1.0, 2.0, 3.0]] * 3), [1.0, 5.0, 7.0], 5.0),
        ):
            assert p.intrinsic_dim == 0
            assert boundary_distances(p, x).tolist() == [want]

    @pytest.mark.parametrize(
        "x,want",
        [((3.0, 1.0), math.sqrt(2.0)), ((0.0, 2.0), math.sqrt(2.0)),
         ((-1.0, -3.0), math.sqrt(10.0)), ((0.5, 0.5), 0.0)],
    )
    def test_segment_hull(self, x, want):
        flat = hull2d([[0.0, 0.0], [2.0, 2.0], [1.0, 1.0]])
        lifted = hull3d([[0.0, 0.0, 1.0], [2.0, 2.0, 1.0], [1.0, 1.0, 1.0]])
        assert flat.intrinsic_dim == 1 and lifted.intrinsic_dim == 1
        for p, pt in ((flat, x), (lifted, (*x, 1.0))):
            dist = boundary_distances(p, pt)
            assert len(dist) == 1
            assert dist[0] == pytest.approx(want, rel=1e-12, abs=1e-15)

    @pytest.mark.parametrize(
        "x,want",
        [((0.5, 0.5, 2.0), 2.0), ((2.0, 0.5, 0.0), 1.0), ((2.0, 2.0, 1.0), math.sqrt(3.0)),
         ((0.3, 0.6, 0.0), 0.0), ((0.3, 0.6, -0.25), 0.25)],
    )
    def test_planar_hull_in_3d(self, x, want):
        square = [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 1.0, 0.0], [0.0, 1.0, 0.0]]
        p = hull3d(square + [[0.5, 0.5, 0.0], [0.2, 0.9, 0.0]])
        assert p.intrinsic_dim == 2
        dist = boundary_distances(p, x)
        assert len(dist) == 1
        assert dist[0] == pytest.approx(want, rel=1e-12, abs=1e-15)


class TestHausdorff:
    def test_identity(self):
        p = hull2d(UNIT_SQUARE)
        assert hausdorff(p, p) == 0.0

    def test_translation(self):
        a = hull2d(UNIT_SQUARE)
        for t in (0.25, 1.0, 7.0):
            b = hull2d(np.asarray(UNIT_SQUARE) + [t, 0.0])
            assert hausdorff(a, b) == pytest.approx(t, rel=1e-12)

    def test_nested_squares_corner(self):
        a = hull2d(UNIT_SQUARE)
        b = hull2d(np.asarray(UNIT_SQUARE) * 2.0)
        assert hausdorff(a, b) == pytest.approx(math.sqrt(2.0), rel=1e-12)

    def test_symmetry_random(self):
        rng = np.random.default_rng(8)
        a = hull2d(rng.standard_normal((40, 2)))
        b = hull2d(rng.standard_normal((40, 2)) + 0.5)
        assert hausdorff(a, b) == pytest.approx(hausdorff(b, a), rel=1e-14)

    def test_3d_shift(self):
        a = hull3d(np.array(CUBE))
        b = hull3d(np.array(CUBE) + [0.0, 0.0, 2.0])
        assert hausdorff(a, b) == pytest.approx(2.0, rel=1e-12)

    def test_point_body(self):
        a = hull2d([[0.0, 0.0]])
        b = hull2d(UNIT_SQUARE)
        assert hausdorff(a, b) == pytest.approx(math.sqrt(2.0), rel=1e-12)

    def test_dim_mismatch(self):
        with pytest.raises(ParameterError):
            hausdorff(hull2d(UNIT_SQUARE), hull3d(np.array(CUBE)))


class TestPolytopeType:
    def test_immutable_vertices(self):
        p = hull2d(UNIT_SQUARE)
        with pytest.raises(ValueError):
            p.vertices[0, 0] = 99.0

    def test_facets_become_tuples_of_python_ints(self):
        verts = _regular_tetrahedron()
        f = np.array([[0, 2, 1], [0, 1, 3], [1, 2, 3], [2, 0, 3]], dtype=np.int32)
        for given in (f, f.tolist(), tuple(map(tuple, f.tolist()))):
            facets = Polytope(3, verts, 3, given).facets
            assert facets == ((0, 2, 1), (0, 1, 3), (1, 2, 3), (2, 0, 3))
            assert all(type(i) is int for tri in facets for i in tri)

    @pytest.mark.parametrize(
        "first",
        [(0.5, 2, 1), (True, 2, 1), (99, 2, 1), (-1, 2, 1), (1, 2)],
        ids=["fraction", "bool", "past-the-end", "negative", "ragged"],
    )
    def test_facet_entries_must_be_vertex_indices(self, first):
        facets = (first, (0, 1, 3), (1, 2, 3), (2, 0, 3))
        with pytest.raises(ParameterError):
            Polytope(3, _regular_tetrahedron(), 3, facets)

    def test_empty_facets_rejected(self):
        with pytest.raises(ParameterError):
            Polytope(3, _regular_tetrahedron(), 3, ())

    def test_facets_that_are_not_rows_rejected(self):
        for facets in (5, [0, 1, 2]):
            with pytest.raises(ParameterError):
                Polytope(3, _regular_tetrahedron(), 3, facets)

    def test_intrinsic_volume_container_guards(self):
        with pytest.raises(ParameterError):
            IntrinsicVolumes((0.5, 1.0))
        with pytest.raises(ParameterError):
            IntrinsicVolumes((1.0, -0.5))
