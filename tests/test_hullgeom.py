"""Geometry core: hulls, intrinsic volumes, zonotopes, distances.

scipy's Qhull serves as the independent oracle for random point clouds;
everything else checks against exact constructions.
"""

import itertools
import math

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
    expected_hull_vertices,
    geom_eps,
    gram_det,
    hausdorff,
    hull2d,
    hull3d,
    intrinsic_volumes_2d,
    intrinsic_volumes_3d,
    projection_intrinsic_estimate,
    sample_walk_path,
    trial_rng,
    zonotope_intrinsic_volume,
)
from levyhull.hullgeom import _FacetStore, _point_triangles_dist

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
        f = np.asarray(p.facets)
        a, b, c = (p.vertices[f[:, i]] for i in range(3))
        for x in theirs - ours:
            assert _point_triangles_dist(np.array(x), a, b, c).min() <= geom_eps(pts)

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


class TestVertexCountOracle:
    """Mean vertex counts of walk hulls against the exact values, which hold
    for every isotropic stable step law (closed_form.expected_hull_vertices).
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

    def test_degenerate_rejected(self):
        flat = np.column_stack([np.random.default_rng(0).standard_normal((30, 2)), np.zeros(30)])
        with pytest.raises(DimensionError):
            intrinsic_volumes_3d(hull3d(flat))

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

    def test_json_round_trip_fields(self):
        p = hull3d(np.array(CUBE))
        d = p.to_json_dict()
        assert d["dim"] == 3 and len(d["vertices"]) == 8 and len(d["facets"]) == 12

    def test_intrinsic_volume_container_guards(self):
        with pytest.raises(ParameterError):
            IntrinsicVolumes((0.5, 1.0))
        with pytest.raises(ParameterError):
            IntrinsicVolumes((1.0, -0.5))
