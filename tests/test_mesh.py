import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.spatial import Voronoi

from ipvem import mesh
from ipvem.mesh import (
    BOUNDARY,
    MeshError,
    MeshFormatError,
    MeshGenerationError,
    PolygonalMesh,
    build_mesh,
    export_mesh,
    generate_cvt,
    generate_uniform_squares,
    import_mesh,
)

from conftest import loops


def signed_area(loop):
    """Shoelace area of one vertex loop, positive when counter-clockwise."""
    x, y = loop[:, 0], loop[:, 1]
    return 0.5 * float(np.dot(x, np.roll(y, -1)) - np.dot(np.roll(x, -1), y))


def two_squares_mesh():
    """Two unit squares sharing one interior edge."""
    vertices = [[0, 0], [1, 0], [2, 0], [0, 1], [1, 1], [2, 1]]
    return build_mesh(vertices, [[0, 1, 4, 3], [1, 2, 5, 4]])


def mesh_text(vertices, cells):
    """The ``vem-mesh 1`` text of vertices and cell loops."""
    lines = ["vem-mesh 1", f"vertices {len(vertices)}", *(f"{float(x)!r} {float(y)!r}" for x, y in vertices)]
    lines += [f"cells {len(cells)}", *(" ".join(map(str, [len(c), *c])) for c in cells)]
    return "\n".join(lines) + "\n"


def slit(m, i, j):
    """The vertices and loops of the uniform squares ``m`` (n x n) slit
    along x = i / n from y = 0 to y = j / n: the slit's vertices below its
    tip are duplicated, in order, for the cells to its right."""
    n = int(round(math.sqrt(m.n_cells)))
    vertices, cells = m.vertices.tolist(), [c.tolist() for c in loops(m)]
    below = [r * (n + 1) + i for r in range(j)]
    copy = {v: len(vertices) + k for k, v in enumerate(below)}
    vertices += [vertices[v] for v in below]
    for c, loop in enumerate(cells):
        if c % n >= i:
            cells[c] = [copy.get(v, v) for v in loop]
    return vertices, cells


class TestUniformSquares:
    def test_single_cell(self):
        m = generate_uniform_squares(1)
        assert m.n_cells == 1
        assert m.n_vertices == 4
        assert m.n_edges == 4
        assert np.all(m.boundary_edge)

    def test_euler_relation_two_by_two(self):
        m = generate_uniform_squares(2)
        assert (m.n_vertices, m.n_edges, m.n_cells) == (9, 12, 4)
        assert m.n_vertices - m.n_edges + m.n_cells == 1

    def test_exact_tiling(self):
        m = generate_uniform_squares(4)
        assert m.total_area() == pytest.approx(1.0, rel=1e-12)

    def test_bad_count_rejected(self):
        with pytest.raises(ValueError):
            generate_uniform_squares(0)


class TestCellGeometry:
    def test_unit_square(self):
        g = generate_uniform_squares(1).stacked_geometry
        assert g.diameter[0] == pytest.approx(math.sqrt(2.0), rel=1e-15)
        assert g.area[0] == pytest.approx(1.0, rel=1e-15)
        assert np.allclose(g.centroid[0], [0.5, 0.5], atol=1e-15)

    def test_right_triangle(self):
        g = build_mesh([[0, 0], [1, 0], [0, 1]], [[0, 1, 2]]).stacked_geometry
        assert g.area[0] == pytest.approx(0.5, rel=1e-15)
        assert np.allclose(g.centroid[0], [1 / 3, 1 / 3], rtol=1e-14)

    def test_regular_hexagon(self):
        ang = np.linspace(0, 2 * np.pi, 7)[:-1]
        m = build_mesh(np.column_stack([np.cos(ang), np.sin(ang)]), [list(range(6))])
        assert m.stacked_geometry.area[0] == pytest.approx(3 * math.sqrt(3) / 2, rel=1e-14)

    def test_frames_orthonormal_and_outward(self):
        m = generate_uniform_squares(2)
        g = m.stacked_geometry
        normals, tangents = g.normals[g.valid], g.tangents[g.valid]
        assert np.allclose(np.einsum("ij,ij->i", normals, tangents), 0.0, atol=1e-14)
        assert np.allclose(np.linalg.norm(normals, axis=1), 1.0, atol=1e-14)
        assert np.allclose(np.linalg.norm(tangents, axis=1), 1.0, atol=1e-14)
        # outward: stepping along the normal leaves the cell (away from centroid)
        for c, cell in enumerate(loops(m)):
            loop = m.vertices[cell]
            mids = 0.5 * (loop + np.roll(loop, -1, axis=0))
            assert np.all(np.einsum("ij,ij->i", mids - g.centroid[c], g.normals[c, : len(loop)]) > 0.0)

    def test_fan_triangles_positive(self):
        g = generate_uniform_squares(3).stacked_geometry
        assert np.all(g.fan_areas[g.valid] > 0.0)


def virtual_triangles(m, e):
    """The areas of edge ``e``'s virtual triangles, the centroid-fan
    triangles of its sides: (on its left side, on its right side)."""
    g = m.stacked_geometry
    side = g.valid & (g.edge_ids == e)
    return np.abs(g.fan_areas[side & g.left]), np.abs(g.fan_areas[side & ~g.left])


class TestVirtualTriangles:
    def test_square_edge_area(self):
        left, right = virtual_triangles(generate_uniform_squares(1), 0)
        assert left == pytest.approx([0.25], rel=1e-15)
        assert len(right) == 0

    def test_interior_edge_two_triangles(self):
        m = two_squares_mesh()
        interior = np.flatnonzero(~m.boundary_edge)
        assert len(interior) == 1
        left, right = virtual_triangles(m, interior[0])
        assert np.concatenate([left, right]) == pytest.approx([0.25, 0.25], rel=1e-15)

    def test_boundary_edge_single_triangle(self):
        m = two_squares_mesh()
        for e in np.flatnonzero(m.boundary_edge):
            left, right = virtual_triangles(m, e)
            assert len(left) == 1 and len(right) == 0
            assert left[0] > 0.0


class TestBuildMesh:
    def test_interior_edges_traversed_oppositely(self, cvt32):
        m = cvt32
        # +1 where a corner runs along its edge, -1 where against it
        runs = loops(m, np.where(m.edges[m.corner_edges, 0] == m.corners, 1, -1))
        edges = loops(m, m.corner_edges)
        for e in range(m.n_edges):
            left, right = m.edge_cells[e]
            orientations = []
            for cid in (left, right):
                if cid == BOUNDARY:
                    continue
                orientations += list(runs[cid][edges[cid] == e])
            if right == BOUNDARY:
                assert orientations == [1]
            else:
                assert sorted(orientations) == [-1, 1]

    def test_clockwise_cell_rejected_without_fix(self):
        with pytest.raises(MeshError):
            build_mesh([[0, 0], [1, 0], [1, 1], [0, 1]], [[0, 3, 2, 1]])

    def test_cells_as_one_array(self):
        # a 2-D array of equal-valence loops, and an empty one
        vertices = [[0, 0], [1, 0], [1, 1], [0, 1]]
        m = build_mesh(vertices, np.array([[0, 1, 2], [0, 2, 3]]))
        assert_same_mesh(m, per_cell_build_mesh(vertices, [[0, 1, 2], [0, 2, 3]]))
        with pytest.raises(MeshError, match="at least one cell"):
            build_mesh(vertices, np.empty((0, 3), dtype=int))

    def test_edge_shared_three_times_rejected(self):
        vertices = [[0, 0], [1, 0], [1, 1], [0, 1], [2, 0]]
        with pytest.raises(MeshError):
            build_mesh(vertices, [[0, 1, 2], [0, 2, 3], [0, 1, 4], [1, 2, 4]])


class TestCvt:
    def test_two_generators_give_rectangles(self):
        m = generate_cvt(2, initial_points=[[0.25, 0.5], [0.75, 0.5]], lloyd_iters=0)
        assert m.n_cells == 2
        areas = sorted(m.stacked_geometry.area)
        assert np.allclose(areas, [0.5, 0.5], atol=1e-12)
        xs = sorted(set(np.round(m.vertices[:, 0], 9)))
        assert np.allclose(xs, [0.0, 0.5, 1.0], atol=1e-9)

    def test_cvt32_invariants(self, cvt32):
        m = cvt32
        assert m.n_cells == 32
        assert m.n_vertices - m.n_edges + m.n_cells == 1
        assert m.total_area() == pytest.approx(1.0, rel=1e-12)
        g = m.stacked_geometry
        assert np.all(g.fan_areas[g.valid] > 0.0)
        assert g.valence.min() >= 3

    def test_cvt512_diameter_scale(self, cvt_sequence):
        # near-uniform cells: max diameter about 2/sqrt(n), within a factor 2
        h = cvt_sequence[512].stacked_geometry.diameter.max()
        ref = 2.0 / math.sqrt(512.0)
        assert ref / 2 <= h <= 2 * ref

    def test_lloyd_movement_reported_and_settles(self, cvt32):
        moves = cvt32.lloyd_movement
        assert len(moves) == 100
        assert moves[-1] < moves[0]
        # convergence diagnostic, not a hard guarantee
        h = cvt32.stacked_geometry.diameter.max()
        assert moves[-1] < 1e-2 * h

    def test_duplicate_seeds_rejected(self):
        pts = [[0.5, 0.5], [0.5, 0.5], [0.25, 0.25]]
        with pytest.raises(MeshGenerationError):
            generate_cvt(3, initial_points=pts, lloyd_iters=0)

    def test_seed_determinism(self):
        a = generate_cvt(16, seed=3, lloyd_iters=5)
        b = generate_cvt(16, seed=3, lloyd_iters=5)
        assert a.n_vertices == b.n_vertices
        assert np.array_equal(a.vertices, b.vertices)

    @pytest.mark.parametrize("steps", [0, 1, 20])
    def test_delaunay_calls_count_every_qhull_call(self, monkeypatch, steps):
        # one entry per Lloyd step and one for the final cells
        calls = []
        real_delaunay = mesh.Delaunay

        def counting_delaunay(*args, **kwargs):
            calls.append(1)
            return real_delaunay(*args, **kwargs)

        monkeypatch.setattr(mesh, "Delaunay", counting_delaunay)
        m = generate_cvt(64, seed=7, lloyd_iters=steps)
        assert len(m.delaunay_calls) == len(m.lloyd_flips) == steps + 1
        assert sum(m.delaunay_calls) == len(calls) >= 1

    def test_too_few_generators(self):
        with pytest.raises(ValueError):
            generate_cvt(1)

    def test_negative_lloyd_iters_rejected(self):
        with pytest.raises(ValueError, match="lloyd_iters"):
            generate_cvt(8, seed=1, lloyd_iters=-3)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_initial_point_rejected(self, bad):
        pts = [[0.25, 0.5], [0.75, 0.5], [bad, 0.5]]
        with pytest.raises(MeshGenerationError, match="strictly inside"):
            generate_cvt(3, initial_points=pts, lloyd_iters=0)


def full_mirror_voronoi_cells(points):
    """Oracle: every generator mirrored across all four sides, then scipy's
    Voronoi regions of the original generators, one corner array per cell."""
    x, y = points[:, 0], points[:, 1]
    mirrored = np.vstack(
        [
            points,
            np.column_stack([-x, y]),
            np.column_stack([2.0 - x, y]),
            np.column_stack([x, -y]),
            np.column_stack([x, 2.0 - y]),
        ]
    )
    vor = Voronoi(mirrored)
    cells = []
    for i in range(len(points)):
        region = vor.regions[vor.point_region[i]]
        assert -1 not in region
        cells.append(vor.vertices[region])
    return cells


def exact_area_centroid(loop):
    """Shoelace area and centroid of a float polygon in rational arithmetic."""
    x = [Fraction(v) for v in loop[:, 0]]
    y = [Fraction(v) for v in loop[:, 1]]
    m = len(x)
    area = cx = cy = Fraction(0)
    for i in range(m):
        j = (i + 1) % m
        cross = x[i] * y[j] - x[j] * y[i]
        area += cross / 2
        cx += (x[i] + x[j]) * cross
        cy += (y[i] + y[j]) * cross
    return float(area), np.array([float(cx / (6 * area)), float(cy / (6 * area))])


def random_generators(seed, n, clustered):
    """Distinct random generators, spread over (0,1)^2 or clustered in
    [0.4, 0.6]^2 (where no generator is near a side)."""
    rng = np.random.default_rng(seed)
    lo, hi = (0.4, 0.6) if clustered else (0.01, 0.99)
    return rng.uniform(lo, hi, size=(n, 2))


class TestLloydStep:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 120),
        clustered=st.booleans(),
    )
    def test_reduced_mirror_cells_equal_full_mirror_cells(self, seed, n, clustered):
        points = random_generators(seed, n, clustered)
        xy, offsets = mesh._voronoi_cells_unit_square(points)
        assert offsets[0] == 0 and offsets[-1] == len(xy) and len(offsets) == n + 1
        for i, want in enumerate(full_mirror_voronoi_cells(points)):
            got = xy[offsets[i] : offsets[i + 1]]
            # equal as sets of corners: every corner has a partner within 1e-12
            dist = np.linalg.norm(got[:, None, :] - want[None, :, :], axis=2)
            assert dist.min(axis=1).max() < 1e-12
            assert dist.min(axis=0).max() < 1e-12
            # counter-clockwise about the generator
            assert signed_area(got) > 0.0

    def test_clustered_generators_widen_the_reach(self, monkeypatch):
        # no generator of [0.4, 0.6]^2 lies within 1.5/sqrt(64) of a side, so
        # the first diagram has cells reaching past the square (up to the
        # ghost points) and the reach must double
        sizes = []
        real_delaunay = mesh.Delaunay

        def counting_delaunay(pts, *args, **kwargs):
            sizes.append(len(pts))
            return real_delaunay(pts, *args, **kwargs)

        monkeypatch.setattr(mesh, "Delaunay", counting_delaunay)
        points = random_generators(5, 64, clustered=True)
        xy, offsets = mesh._voronoi_cells_unit_square(points)
        assert len(sizes) > 1 and sizes[0] == 64 + len(mesh.GHOSTS)
        area, _ = mesh._centroids(xy, offsets)
        assert area.sum() == pytest.approx(1.0, rel=1e-12)

    def test_centroids_match_per_cell_formulas(self, cvt64):
        # against exact rational shoelace sums to 1e-14, and against the
        # per-cell float formulas to 3e-14: their two-dot-product area
        # cancels more and is itself up to 1.8e-14 off the exact value
        polygons = [cvt64.vertices[c] for c in loops(cvt64)]
        offsets = np.concatenate([[0], np.cumsum([len(p) for p in polygons])])
        area, centroid = mesh._centroids(np.vstack(polygons), offsets)
        for i, loop in enumerate(polygons):
            exact_area, exact_centroid = exact_area_centroid(loop)
            assert abs(area[i] - exact_area) <= 1e-14 * exact_area
            assert np.linalg.norm(centroid[i] - exact_centroid) <= 1e-14 * np.linalg.norm(exact_centroid)
            a = signed_area(loop)
            x, y = loop[:, 0], loop[:, 1]
            xn, yn = np.roll(x, -1), np.roll(y, -1)
            cross = x * yn - xn * y
            c = np.array([np.dot(x + xn, cross), np.dot(y + yn, cross)]) / (6.0 * a)
            assert abs(area[i] - a) <= 3e-14 * a
            assert np.linalg.norm(centroid[i] - c) <= 3e-14 * np.linalg.norm(c)

    def test_merged_corners_take_the_lowest_index(self):
        # two squares whose shared corners are off by less than SNAP_TOL
        d = 1e-12
        xy = np.array(
            [[0, 0], [0.5, 0], [0.5, 1], [0, 1], [0.5 + d, 0], [1, 0], [1, 1], [0.5, 1 - d]],
            dtype=float,
        )
        m = mesh._cells_to_mesh(xy, np.array([0, 4, 8]))
        assert m.n_vertices == 6
        assert np.array_equal(m.vertices, xy[[0, 1, 2, 3, 5, 6]])
        assert [list(c) for c in loops(m)] == [[0, 1, 2, 3], [1, 4, 5, 2]]

    def test_cell_merged_below_three_vertices_names_its_generator(self):
        # generator 1's triangle has two corners closer than SNAP_TOL
        xy = np.array([[0, 0], [1, 0], [1, 1], [0, 1], [0.2, 0.2], [0.2 + 1e-12, 0.2], [0.3, 0.4]])
        with pytest.raises(MeshGenerationError, match="cell of generator 1 degenerated to 2 vertices") as info:
            mesh._cells_to_mesh(xy, np.array([0, 4, 7]))
        assert info.value.cell == 1


def assert_same_corner_sets(got, want, tol):
    """Two CSR pairs of cells equal as sets of corners, cell by cell, within ``tol``."""
    (gxy, goff), (wxy, woff) = got, want
    assert len(goff) == len(woff)
    for i in range(len(goff) - 1):
        dist = np.linalg.norm(gxy[goff[i] : goff[i + 1], None] - wxy[None, woff[i] : woff[i + 1]], axis=2)
        assert dist.min(axis=1).max() < tol
        assert dist.min(axis=0).max() < tol


class TestRepairedLloydStep:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(16, 64),
        jitter=st.floats(1e-7, 1e-3),
        crossers=st.integers(1, 4),
    )
    # a corner that crosses two edges of a sliver of images: one flip cannot
    # mend the move, its halves can
    @example(seed=918, n=22, jitter=0.0006670587000781284, crossers=1)
    def test_repaired_cells_equal_rebuilt_cells(self, seed, n, jitter, crossers):
        # twenty Lloyd steps settle a small CVT and its triangulation
        rng = np.random.default_rng(seed)
        points = rng.uniform(0.05, 0.95, size=(n, 2))
        tri = mesh._LloydTriangulation(n)
        for _ in range(20):
            _, points = mesh._centroids(*tri.cells(points))
        # jitter every generator, then widen the reach just past the
        # nearest unmirrored generators so that they cross it and the
        # repair inserts their mirror images
        points = points + jitter * rng.standard_normal(points.shape) / np.sqrt(n)
        dist = np.abs(points[:, [0, 0, 1, 1]] - [0.0, 1.0, 0.0, 1.0])[~tri.mirrored]
        assume(dist.size >= crossers)
        tri.reach = np.sort(dist)[crossers - 1] * (1.0 + 1e-9)
        tri.budget = 10**6
        n_points = len(tri.src)
        repaired = tri.cells(points)
        assert tri.qhull_calls[-1] == 0 and len(tri.src) >= n_points + crossers
        assert_same_corner_sets(repaired, mesh._voronoi_cells_unit_square(points), 1e-12)

    def test_repairs_keep_the_rebuilt_index_dtype(self):
        # an image insert builds its rows in the arrays' own dtype (generate_cvt's stream at 512 cells, seed 7)
        points = np.random.default_rng(7).uniform(0.05, 0.95, size=(512, 2))
        tri, inserted = mesh._LloydTriangulation(512), []
        for _ in range(10):
            n_points = 0 if tri.simplices is None else len(tri.src)
            _, points = mesh._centroids(*tri.cells(points))
            inserted.append(tri.qhull_calls[-1] == 0 and len(tri.src) > n_points)
            assert tri.simplices.dtype == tri.neighbors.dtype == np.intp
        assert any(inserted)

    def test_corner_order_with_int32_owners_past_the_int32_key_range(self, monkeypatch):
        # qhull's owners are int32: with n = 20000 cells of six corners each,
        # owner * len(xy) passes 2^31, and the (owner, angle) key must not wrap
        n, m = 20000, 6
        points = np.random.default_rng(4).uniform(0.1, 0.9, size=(n, 2))
        shuffle = np.random.default_rng(5).permutation(n * m)
        angles = np.tile(np.arange(m) * 2.0 * np.pi / m - 3.0, n)[shuffle]
        owner = np.repeat(np.arange(n, dtype=np.int32), m)[shuffle]
        xy = points[owner] + 1e-5 * np.column_stack([np.cos(angles), np.sin(angles)])
        assert int(owner.max()) * len(xy) > 2**31
        tri = mesh._LloydTriangulation(n)
        monkeypatch.setattr(tri, "_rebuild", lambda pts: (xy, owner))
        corners, offsets = tri.cells(points)
        assert np.array_equal(offsets, np.arange(n + 1) * m)
        rel = (corners - np.repeat(points, m, axis=0)).reshape(n, m, 2)
        assert np.allclose(np.hypot(rel[..., 0], rel[..., 1]), 1e-5)  # each cell's own corners
        assert np.all(np.diff(np.arctan2(rel[..., 1], rel[..., 0]), axis=1) > 0.0)  # by angle

    def test_cell_with_two_corners_names_its_generator(self, monkeypatch):
        points = np.array([[0.25, 0.25], [0.5, 0.75], [0.75, 0.25]])
        xy = np.repeat(points, [3, 2, 3], axis=0) + 0.01
        tri = mesh._LloydTriangulation(3)
        monkeypatch.setattr(tri, "_rebuild", lambda pts: (xy, np.array([0, 0, 0, 1, 1, 2, 2, 2], dtype=np.int32)))
        with pytest.raises(MeshGenerationError, match="Voronoi cell of generator 1 has 2 corners") as info:
            tri.cells(points)
        assert info.value.cell == 1

    @pytest.mark.parametrize("seed", [3, 7, 21])
    @pytest.mark.parametrize("n", [32, 64, 128, 256])
    def test_generate_cvt_matches_plain_qhull_steps(self, seed, n):
        # generate_cvt draws its generators from the same seeded stream
        points = np.random.default_rng(seed).uniform(0.05, 0.95, size=(n, 2))
        for _ in range(100):
            _, points = mesh._centroids(*mesh._voronoi_cells_unit_square(points))
        want = mesh._cells_to_mesh(*mesh._voronoi_cells_unit_square(points))
        got = generate_cvt(n, seed=seed, lloyd_iters=100)
        assert sum(got.delaunay_calls) < 100 and sum(got.lloyd_flips) > 0
        assert np.array_equal(got.offsets, want.offsets)
        assert np.array_equal(got.corners, want.corners)
        assert np.array_equal(got.edges, want.edges)
        assert np.abs(got.vertices - want.vertices).max() <= 1e-10


def per_cell_build_mesh(vertices, cells, fix_orientation=False):
    """Oracle: the cell-by-cell, edge-by-edge builder that ``build_mesh``
    replaced, with the same checks in the same order."""
    if not cells:
        raise MeshError("a mesh needs at least one cell")
    vertices = np.asarray(vertices, dtype=float)
    cell_loops = []
    for ci, cell in enumerate(cells):
        idx = np.asarray(cell, dtype=int)
        if len(idx) < 3:
            raise MeshError(f"cell {ci} has fewer than 3 vertices")
        if len(np.unique(idx)) != len(idx):
            raise MeshError(f"cell {ci} repeats a vertex")
        if idx.min() < 0 or idx.max() >= len(vertices):
            raise MeshError(f"cell {ci} references a vertex outside 0..{len(vertices) - 1}")
        area = signed_area(vertices[idx])
        if area == 0.0:
            raise MeshError(f"cell {ci} has zero area")
        if area < 0.0:
            if not fix_orientation:
                raise MeshError(f"cell {ci} is clockwise")
            warnings.warn(f"cell {ci} was clockwise; loop reversed", stacklevel=2)
            idx = idx[::-1]
        cell_loops.append(idx)

    edge_key = {}
    edges, edge_cells, corner_edges = [], [], []
    for ci, idx in enumerate(cell_loops):
        m = len(idx)
        for j in range(m):
            tail, head = int(idx[j]), int(idx[(j + 1) % m])
            key = (min(tail, head), max(tail, head))
            if key not in edge_key:
                edge_key[key] = len(edges)
                edges.append((tail, head))
                edge_cells.append([ci, BOUNDARY])
                corner_edges.append(edge_key[key])
            else:
                e = edge_key[key]
                if edge_cells[e][1] != BOUNDARY:
                    raise MeshError(f"edge {key} shared by more than two cells")
                if (head, tail) != edges[e]:
                    raise MeshError(f"edge {key} traversed twice in the same direction")
                edge_cells[e][1] = ci
                corner_edges.append(e)

    offsets = np.cumsum([0] + [len(idx) for idx in cell_loops])
    m = PolygonalMesh(
        vertices, np.concatenate(cell_loops), offsets, np.array(corner_edges),
        np.array(edges, dtype=int), np.array(edge_cells, dtype=int),
    )
    euler = m.n_vertices - m.n_edges + m.n_cells
    if euler != 1:
        raise MeshError(f"Euler relation violated: V - E + F = {euler}, expected 1")
    return m


def assert_same_mesh(got, want):
    assert np.array_equal(got.vertices, want.vertices)
    assert np.array_equal(got.edges, want.edges)
    assert np.array_equal(got.edge_cells, want.edge_cells)
    assert np.array_equal(got.offsets, want.offsets)
    assert np.array_equal(got.corners, want.corners)
    assert np.array_equal(got.corner_edges, want.corner_edges)


def build_both(vertices, cells, fix_orientation=False):
    """``build_mesh`` and the oracle on one payload: both meshes, or both
    error messages, with the warnings each gave."""
    results = []
    for build in (build_mesh, per_cell_build_mesh):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                result = build(vertices, cells, fix_orientation)
            except MeshError as exc:
                result = str(exc)
        results.append((result, [str(w.message) for w in caught]))
    return results


class TestBuildMeshAgainstPerCellBuilder:
    def test_cvt64(self, cvt64):
        cells = loops(cvt64)
        assert_same_mesh(build_mesh(cvt64.vertices, cells), per_cell_build_mesh(cvt64.vertices, cells))

    def test_uniform(self):
        m = generate_uniform_squares(4)
        assert_same_mesh(build_mesh(m.vertices, loops(m)), per_cell_build_mesh(m.vertices, loops(m)))

    def test_clockwise_fixed_import(self, cvt32):
        cells = [c[::-1] if i % 3 == 1 else c for i, c in enumerate(loops(cvt32))]
        (got, got_warned), (want, want_warned) = build_both(cvt32.vertices, cells, fix_orientation=True)
        assert_same_mesh(got, want)
        assert got_warned == want_warned and len(got_warned) == len(cells[1::3])
        lines = ["vem-mesh 1", f"vertices {cvt32.n_vertices}"]
        lines += [f"{float(x)!r} {float(y)!r}" for x, y in cvt32.vertices]
        lines += [f"cells {len(cells)}"] + [" ".join(map(str, [len(c), *c])) for c in cells]
        with pytest.warns(UserWarning, match="was clockwise") as caught:
            assert_same_mesh(import_mesh("\n".join(lines) + "\n"), want)
        assert [str(w.message) for w in caught] == want_warned

    def test_next_cell_starting_at_the_last_ones_largest_vertex(self):
        # four triangles about the centre 2, ordered so that cell 1's
        # smallest vertex is cell 0's largest: no vertex repeats in a cell
        vertices = [[0, 0], [1, 0], [0.5, 0.5], [1, 1], [0, 1]]
        cells = [[0, 1, 2], [3, 4, 2], [1, 3, 2], [4, 0, 2]]
        assert_same_mesh(build_mesh(vertices, cells), per_cell_build_mesh(vertices, cells))

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_rotated_and_reversed_loops(self, data, cvt32):
        n = cvt32.n_cells
        shifts = data.draw(st.lists(st.integers(0, 11), min_size=n, max_size=n))
        flips = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
        order = data.draw(st.permutations(range(n)))
        cells = [np.roll(loops(cvt32)[c], shifts[c])[:: -1 if flips[c] else 1] for c in order]
        (got, got_warned), (want, want_warned) = build_both(cvt32.vertices, cells, fix_orientation=True)
        assert_same_mesh(got, want)
        assert got_warned == want_warned

    # one payload per check, each with a sound cell before the faulty one
    FAULTS = {
        "valence": ([[0, 0], [1, 0], [1, 1], [0, 1]], [[0, 1, 2], [0, 2]]),
        "repeat": ([[0, 0], [1, 0], [1, 1], [0, 1]], [[0, 1, 2], [0, 2, 3, 2]]),
        "range": ([[0, 0], [1, 0], [1, 1], [0, 1]], [[0, 1, 2], [0, 2, 4]]),
        "zero area": ([[0, 0], [1, 0], [1, 1], [0, 1], [2, 2]], [[0, 1, 2], [0, 2, 4]]),
        "clockwise": ([[0, 0], [1, 0], [1, 1], [0, 1]], [[0, 1, 2], [0, 3, 2]]),
        "three cells": ([[0, 0], [1, 0], [1, 1], [0, 1], [1, -1]], [[0, 1, 2], [0, 2, 3], [1, 0, 4], [0, 1, 3]]),
        "same direction": ([[0, 0], [1, 0], [1, 1], [0, 1]], [[0, 1, 2], [0, 1, 3]]),
        "euler": ([[0, 0], [1, 0], [1, 1], [2, 0], [3, 0], [3, 1]], [[0, 1, 2], [3, 4, 5]]),
    }
    MESSAGES = {
        "valence": "cell 1 has fewer than 3 vertices",
        "repeat": "cell 1 repeats a vertex",
        "range": "cell 1 references a vertex outside 0..3",
        "zero area": "cell 1 has zero area",
        "clockwise": "cell 1 is clockwise",
        "three cells": "edge (0, 1) shared by more than two cells",
        "same direction": "edge (0, 1) traversed twice in the same direction",
        "euler": "Euler relation violated: V - E + F = 2, expected 1",
    }

    @pytest.mark.parametrize("fault", sorted(FAULTS))
    def test_one_fault_same_message(self, fault):
        vertices, cells = self.FAULTS[fault]
        (got, _), (want, _) = build_both(vertices, cells)
        assert got == want == self.MESSAGES[fault]

    @pytest.mark.parametrize("fault", sorted(FAULTS))
    def test_first_fault_wins(self, fault, cvt32):
        # the faulty payload after a clockwise copy of a sound mesh: both
        # builders reverse the same cells, then report the same fault
        vertices, cells = self.FAULTS[fault]
        offset = cvt32.n_vertices
        cells = [c[::-1] for c in loops(cvt32)] + [[v + offset for v in c] for c in cells]
        results = build_both(np.vstack([cvt32.vertices, np.asarray(vertices, dtype=float)]), cells, True)
        (got, got_warned), (want, want_warned) = results
        assert got_warned == want_warned
        if isinstance(want, str):
            assert got == want
        else:
            assert_same_mesh(got, want)


class TestCocircularGenerators:
    @pytest.mark.parametrize("k", [2, 3, 8, 16])
    @pytest.mark.parametrize("steps", [0, 3])
    def test_grid_centres_give_the_grid(self, k, steps):
        # every grid square's four generators, and every generator with its
        # mirror beside another such pair, are cocircular: the triangulation
        # gives several triangles per square corner
        centres = (np.arange(k) + 0.5) / k
        x, y = np.meshgrid(centres, centres)
        m = generate_cvt(k * k, initial_points=np.column_stack([x.ravel(), y.ravel()]), lloyd_iters=steps)
        g = m.stacked_geometry
        assert np.all(g.valence == 4)
        assert np.allclose(g.area, 1.0 / k**2, rtol=1e-12)
        assert (m.n_vertices, m.n_edges) == ((k + 1) ** 2, 2 * k * (k + 1))


class TestStackedGeometry:
    def test_corners_know_their_edges_and_sides(self, cvt32):
        g = cvt32.stacked_geometry
        for c, (cell, edges) in enumerate(zip(loops(cvt32), loops(cvt32, cvt32.corner_edges))):
            m = g.valence[c]
            assert np.array_equal(g.edge_ids[c, :m], edges)
            assert np.array_equal(g.left[c, :m], cvt32.edge_cells[edges, 0] == c)
            assert np.array_equal(g.vertex_ids[c, :m], cell)
        assert not np.any(g.left[~g.valid])

    def test_padding_drops_out(self, cvt32):
        g = cvt32.stacked_geometry
        pad = ~g.valid
        assert pad.any()
        for arr in (g.edge_lengths, g.fan_areas, g.normals[..., 0], g.normals[..., 1], g.tangents[..., 0]):
            assert not np.any(arr[pad])

    def test_frames_against_per_cell_formulas(self, cvt32):
        g = cvt32.stacked_geometry
        for c, cell in enumerate(loops(cvt32)):
            loop = cvt32.vertices[cell]
            edge_vec = np.roll(loop, -1, axis=0) - loop
            lengths = np.linalg.norm(edge_vec, axis=1)
            n = len(loop)
            assert np.allclose(g.edge_lengths[c, :n], lengths, rtol=1e-15)
            assert np.allclose(g.tangents[c, :n], edge_vec / lengths[:, None], rtol=0, atol=1e-15)
            assert g.diameter[c] == np.max(np.linalg.norm(loop[:, None] - loop[None], axis=2))


class TestMeshIo:
    def test_round_trip_uniform(self):
        m = generate_uniform_squares(2)
        m2 = import_mesh(export_mesh(m))
        assert np.array_equal(m.vertices, m2.vertices)
        assert np.array_equal(m.offsets, m2.offsets)
        assert np.array_equal(m.corners, m2.corners)

    def test_round_trip_cvt(self, cvt32):
        m2 = import_mesh(export_mesh(cvt32))
        assert np.array_equal(cvt32.vertices, m2.vertices)

    def test_clockwise_cell_fixed_with_warning(self):
        text = "vem-mesh 1\nvertices 4\n0 0\n1 0\n1 1\n0 1\ncells 1\n4 0 3 2 1\n"
        with pytest.warns(UserWarning, match="clockwise"):
            m = import_mesh(text)
        assert m.stacked_geometry.area[0] == pytest.approx(1.0)

    def test_dangling_vertex_index(self):
        text = "vem-mesh 1\nvertices 3\n0 0\n1 0\n0 1\ncells 1\n3 0 1 7\n"
        with pytest.raises(MeshFormatError, match="line 7"):
            import_mesh(text)

    def test_bad_header(self):
        with pytest.raises(MeshFormatError, match="line 1"):
            import_mesh("not-a-mesh\n")

    def test_truncated_vertices(self):
        with pytest.raises(MeshFormatError):
            import_mesh("vem-mesh 1\nvertices 5\n0 0\n1 0\n")

    def test_bad_coordinate(self):
        with pytest.raises(MeshFormatError, match="line 4"):
            import_mesh("vem-mesh 1\nvertices 2\n0 0\n1 spam\ncells 0\n")

    def test_negative_count(self):
        with pytest.raises(MeshFormatError, match="line 2: negative vertices count"):
            import_mesh("vem-mesh 1\nvertices -1\ncells 0\n")

    def test_non_finite_coordinate(self):
        text = "vem-mesh 1\nvertices 4\n0 0\n1 nan\n1 1\n0 1\ncells 1\n4 0 1 2 3\n"
        with pytest.raises(MeshFormatError, match="line 4: .*not a finite point"):
            import_mesh(text)

    def test_vertex_outside_unit_square(self):
        text = "vem-mesh 1\nvertices 4\n0 0\n2 0\n2 2\n0 2\ncells 1\n4 0 1 2 3\n"
        with pytest.raises(MeshFormatError, match="line 4: .*unit square"):
            import_mesh(text)

    # edits of the 2 x 2 squares' payload (vertices on lines 3-11, cells on
    # lines 13-16) and the one fault each must report, as a full message
    @pytest.mark.parametrize(
        "edits, message",
        [
            ({4: "0.5 0.0 1"}, "line 4: expected 'x y'"),
            ({4: "1 spam"}, "line 4: bad coordinate in '1 spam'"),
            ({4: "nan 0"}, "line 4: vertex 1 at (nan, 0.0) is not a finite point of the unit square"),
            ({4: "inf 0"}, "line 4: vertex 1 at (inf, 0.0) is not a finite point of the unit square"),
            ({4: "2 0"}, "line 4: vertex 1 at (2.0, 0.0) is not a finite point of the unit square"),
            ({14: "4 1 2 5.0 4"}, "line 14: bad cell line '4 1 2 5.0 4'"),
            ({14: "3 1 2 5 4"}, "line 14: cell line must read 'k i1 ... ik'"),
            ({14: "5 1 2 5 4"}, "line 14: cell line must read 'k i1 ... ik'"),
            ({14: "4 1 2 99999999999999999999 4"}, "line 14: vertex index out of range in cell 1"),
            ({17: "4 4 5 8 7"}, "line 17: unexpected content after the cells"),
            ({17: "", 18: "  ", 19: "cells 1"}, "line 19: unexpected content after the cells"),
            # each line is checked as it is read: the earlier fault wins
            ({4: "2 0", 9: "0.0 x"}, "line 4: vertex 1 at (2.0, 0.0) is not a finite point of the unit square"),
            ({9: "0.0 x", 14: "4 1 2 5 99"}, "line 9: bad coordinate in '0.0 x'"),
        ],
    )
    def test_line_fault_names_its_line(self, edits, message):
        lines = export_mesh(generate_uniform_squares(2)).splitlines()
        for ln, text in sorted(edits.items()):
            lines[ln - 1 : ln] = [text]
        with pytest.raises(MeshFormatError, match=f"^{re.escape(message)}$"):
            import_mesh("\n".join(lines) + "\n")

    def test_trailing_blank_lines_allowed(self):
        m = generate_uniform_squares(2)
        assert np.array_equal(import_mesh(export_mesh(m) + "\n  \n\t\n").corners, m.corners)

    @pytest.mark.parametrize("n, lloyd_iters", [(512, 100), (1024, 10)])
    def test_round_trip_is_byte_identical(self, n, lloyd_iters):
        m = mesh.generate_cvt(n, seed=7, lloyd_iters=lloyd_iters)
        m2 = import_mesh(export_mesh(m))
        for name in ("vertices", "corners", "offsets", "edges"):
            a, b = getattr(m, name), getattr(m2, name)
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()

    def test_partial_tiling(self):
        # the lower half of the unit square: inside the box, but its top
        # edge at y = 1/2 is a boundary edge off the square's sides
        text = "vem-mesh 1\nvertices 4\n0 0\n1 0\n1 0.5\n0 0.5\ncells 1\n4 0 1 2 3\n"
        message = "^line 8: cell 0 has a boundary edge off the sides of the unit square$"
        with pytest.raises(MeshFormatError, match=message):
            import_mesh(text)

    def test_cell_not_star_shaped(self):
        # a C-shaped cell (area 0.52) around a rectangular notch cell; the
        # C's centroid lies in the notch
        c_shape = [[0, 0], [1, 0], [1, 0.2], [0.2, 0.2], [0.2, 0.8], [1, 0.8], [1, 1], [0, 1]]
        lines = ["vem-mesh 1", "vertices 8"] + [f"{x} {y}" for x, y in c_shape]
        lines += ["cells 2", "4 3 2 5 4", "8 0 1 2 3 4 5 6 7"]
        with pytest.raises(MeshFormatError, match="line 13: cell 1 is not star-shaped"):
            import_mesh("\n".join(lines) + "\n")

    def test_slit_rejected(self):
        # 8 x 8 squares slit along x = 1/2 below y = 1/2: the four slit
        # vertices below the tip are duplicated for the cells to its right
        vertices, cells = slit(generate_uniform_squares(8), 4, 4)
        with pytest.raises(MeshFormatError, match="line 84: vertex 81 coincides with vertex 4"):
            import_mesh(mesh_text(vertices, cells))

    def test_hanging_node_and_unused_vertex_rejected(self):
        # the upper right cell of 2 x 2 squares has a corner (vertex 9) on
        # its lower edge that the cell below skips; vertex 10 keeps V - E + F = 1
        m = generate_uniform_squares(2)
        vertices = [*m.vertices.tolist(), [0.75, 0.5], [0.25, 0.75]]
        cells = [c.tolist() for c in loops(m)]
        cells[3] = [4, 9, 5, 8, 7]
        with pytest.raises(MeshFormatError, match="line 13: vertex 10 is a corner of no cell"):
            import_mesh(mesh_text(vertices, cells))

    def test_structural_fault_names_its_line(self):
        # as above without vertex 10: V - E + F = 0, and cell 1's edge
        # (4, 5) and cell 3's edges through vertex 9 are boundary edges at
        # y = 1/2; the cells are on lines 14-17
        m = generate_uniform_squares(2)
        vertices, cells = [*m.vertices.tolist(), [0.75, 0.5]], [c.tolist() for c in loops(m)]
        cells[3] = [4, 9, 5, 8, 7]
        with pytest.raises(MeshFormatError, match=r"^line 15: cell 1 has a boundary edge off the sides"):
            import_mesh(mesh_text(vertices, cells))
        # the same file with a repeated corner in the last cell
        cells[3] = [4, 5, 8, 8, 7]
        with pytest.raises(MeshFormatError, match=r"^line 17: cell 3 repeats a vertex$"):
            import_mesh(mesh_text(vertices, cells))
        # an edge fault names the line of the cell whose corner met it: cell
        # 3 runs 5 -> 4 as cell 1 does
        cells[3] = [5, 4, 2]
        with pytest.raises(MeshFormatError, match=r"^line 17: edge \(4, 5\) traversed twice in the same direction$"):
            import_mesh(mesh_text(vertices, cells))
        # a geometric fault of a cell: vertex 9 moved onto vertex 5
        vertices[9], cells[3] = [1.0, 0.5], [4, 5, 9, 8, 7]
        with pytest.raises(MeshFormatError, match=r"^line 17: cell 3 has a zero-length edge$"):
            import_mesh(mesh_text(vertices, cells))

    def test_boundary_vertex_moved_inward_within_area_tolerance(self):
        m = generate_uniform_squares(2)
        vertices = m.vertices.copy()
        vertices[1, 1] = 1e-13  # the area falls by 5e-14, inside the tiling check's tolerance
        with pytest.raises(MeshFormatError, match="line 13: cell 0 has a boundary edge off the sides"):
            import_mesh(mesh_text(vertices, [c.tolist() for c in loops(m)]))

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_mutated_domain_raises_format_error(self, data, cvt32):
        n = data.draw(st.integers(2, 6))
        m = data.draw(st.sampled_from([generate_uniform_squares(n), cvt32]))
        vertices, cells = m.vertices.tolist(), [c.tolist() for c in loops(m)]
        import_mesh(mesh_text(vertices, cells))
        mutation = data.draw(st.sampled_from(["slit", "drop_corner", "move_inward", "duplicate"]))
        if mutation == "slit":
            vertices, cells = slit(
                generate_uniform_squares(n), data.draw(st.integers(1, n - 1)), data.draw(st.integers(1, n - 1))
            )
        elif mutation == "drop_corner":
            cell = cells[data.draw(st.sampled_from([c for c, loop in enumerate(cells) if len(loop) > 3]))]
            del cell[data.draw(st.integers(0, len(cell) - 1))]
            vertices.append([data.draw(st.floats(0.0, 1.0)), data.draw(st.floats(0.0, 1.0))])
        elif mutation == "move_inward":
            v = data.draw(st.sampled_from(np.flatnonzero(m.boundary_vertex).tolist()))
            t = 10.0 ** -data.draw(st.integers(1, 13))
            vertices[v] = [x + t * (0.5 - x) for x in vertices[v]]
        else:
            v = data.draw(st.integers(0, len(vertices) - 1))
            vertices.append(list(vertices[v]))
            if data.draw(st.booleans()):
                # one cell of the original takes the copy instead
                cell = next(loop for loop in cells if v in loop)
                cell[cell.index(v)] = len(vertices) - 1
        with pytest.raises(MeshFormatError):
            import_mesh(mesh_text(vertices, cells))

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_corrupted_payload_imports_or_raises_format_error(self, data):
        lines = export_mesh(generate_uniform_squares(2)).splitlines()
        i = data.draw(st.integers(0, len(lines) - 1))
        token = st.sampled_from(["-1", "0", "1", "3", "4", "9", "12", "0.5", "2", "-0.5", "nan", "inf", "x", ""])
        action = data.draw(st.sampled_from(["drop", "duplicate", "replace", "token", "append"]))
        if action == "drop":
            del lines[i]
        elif action == "duplicate":
            lines.insert(i, lines[i])
        elif action == "replace":
            lines[i] = data.draw(st.text(max_size=12))
        elif action == "append":
            lines.append(data.draw(st.one_of(st.sampled_from(lines), st.text(max_size=12))))
        else:
            parts = lines[i].split() or [""]
            parts[data.draw(st.integers(0, len(parts) - 1))] = data.draw(token)
            lines[i] = " ".join(parts)
        # a corrupted loop may import reversed: that warning, and no other, may be raised
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                m = import_mesh("\n".join(lines) + "\n")
            except MeshFormatError:
                m = None
        for w in caught:
            assert w.category is UserWarning
            assert re.fullmatch(r"cell \d+ was clockwise; loop reversed", str(w.message))
        if m is None:
            return
        assert m.total_area() == pytest.approx(1.0, rel=1e-12)
        assert np.all(m.stacked_geometry.fan_areas[m.stacked_geometry.valid] > 0.0)
