import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import Voronoi

from ipvem import mesh
from ipvem.mesh import (
    BOUNDARY,
    MeshError,
    MeshFormatError,
    MeshGenerationError,
    build_mesh,
    export_mesh,
    generate_cvt,
    generate_uniform_squares,
    import_mesh,
    virtual_triangle_areas,
)


def two_squares_mesh():
    """Two unit squares sharing one interior edge."""
    vertices = [[0, 0], [1, 0], [2, 0], [0, 1], [1, 1], [2, 1]]
    return build_mesh(vertices, [[0, 1, 4, 3], [1, 2, 5, 4]])


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
        m = generate_uniform_squares(1)
        g = m.geometry(0)
        assert g.diameter == pytest.approx(math.sqrt(2.0), rel=1e-15)
        assert g.area == pytest.approx(1.0, rel=1e-15)
        assert np.allclose(g.centroid, [0.5, 0.5], atol=1e-15)

    def test_right_triangle(self):
        m = build_mesh([[0, 0], [1, 0], [0, 1]], [[0, 1, 2]])
        g = m.geometry(0)
        assert g.area == pytest.approx(0.5, rel=1e-15)
        assert np.allclose(g.centroid, [1 / 3, 1 / 3], rtol=1e-14)

    def test_regular_hexagon(self):
        ang = np.linspace(0, 2 * np.pi, 7)[:-1]
        m = build_mesh(np.column_stack([np.cos(ang), np.sin(ang)]), [list(range(6))])
        assert m.geometry(0).area == pytest.approx(3 * math.sqrt(3) / 2, rel=1e-14)

    def test_frames_orthonormal_and_outward(self):
        m = generate_uniform_squares(2)
        for c in range(m.n_cells):
            g = m.geometry(c)
            assert np.allclose(np.einsum("ij,ij->i", g.normals, g.tangents), 0.0, atol=1e-14)
            assert np.allclose(np.linalg.norm(g.normals, axis=1), 1.0, atol=1e-14)
            assert np.allclose(np.linalg.norm(g.tangents, axis=1), 1.0, atol=1e-14)
            mids = g.edge_midpoints
            # outward: stepping along the normal leaves the cell (away from centroid)
            for j in range(g.n_edges):
                assert (mids[j] - g.centroid) @ g.normals[j] > 0.0

    def test_fan_triangles_positive(self):
        m = generate_uniform_squares(3)
        for c in range(m.n_cells):
            assert m.geometry(c).star_shaped


class TestVirtualTriangles:
    def test_square_edge_area(self):
        m = generate_uniform_squares(1)
        areas = virtual_triangle_areas(m)
        assert areas[0, 0] == pytest.approx(0.25, rel=1e-15)
        assert np.isnan(areas[0, 1])

    def test_interior_edge_two_triangles(self):
        m = two_squares_mesh()
        interior = np.flatnonzero(~m.boundary_edge)
        assert len(interior) == 1
        assert virtual_triangle_areas(m)[interior[0]] == pytest.approx([0.25, 0.25], rel=1e-15)

    def test_boundary_edge_single_triangle(self):
        m = two_squares_mesh()
        areas = virtual_triangle_areas(m)
        assert np.all(np.isnan(areas[m.boundary_edge, 1]))
        assert np.all(areas[m.boundary_edge, 0] > 0.0)


class TestBuildMesh:
    def test_interior_edges_traversed_oppositely(self, cvt32):
        m = cvt32
        for e in range(m.n_edges):
            left, right = m.edge_cells[e]
            orientations = []
            for cid in (left, right):
                if cid == BOUNDARY:
                    continue
                orientations += [o for (eid, o) in m.cell_edges[cid] if eid == e]
            if right == BOUNDARY:
                assert orientations == [1]
            else:
                assert sorted(orientations) == [-1, 1]

    def test_clockwise_cell_rejected_without_fix(self):
        with pytest.raises(MeshError):
            build_mesh([[0, 0], [1, 0], [1, 1], [0, 1]], [[0, 3, 2, 1]])

    def test_edge_shared_three_times_rejected(self):
        vertices = [[0, 0], [1, 0], [1, 1], [0, 1], [2, 0]]
        with pytest.raises(MeshError):
            build_mesh(vertices, [[0, 1, 2], [0, 2, 3], [0, 1, 4], [1, 2, 4]])


class TestCvt:
    def test_two_generators_give_rectangles(self):
        m = generate_cvt(2, initial_points=[[0.25, 0.5], [0.75, 0.5]], lloyd_iters=0)
        assert m.n_cells == 2
        areas = sorted(m.geometry(c).area for c in range(2))
        assert np.allclose(areas, [0.5, 0.5], atol=1e-12)
        xs = sorted(set(np.round(m.vertices[:, 0], 9)))
        assert np.allclose(xs, [0.0, 0.5, 1.0], atol=1e-9)

    def test_cvt32_invariants(self, cvt32):
        m = cvt32
        assert m.n_cells == 32
        assert m.n_vertices - m.n_edges + m.n_cells == 1
        assert m.total_area() == pytest.approx(1.0, rel=1e-12)
        g = m.stacked_geometry
        assert all(m.geometry(c).star_shaped for c in range(m.n_cells))
        assert g.valence.min() >= 3

    def test_cvt512_diameter_scale(self, cvt_sequence):
        # near-uniform cells: max diameter about 2/sqrt(n), within a factor 2
        h = cvt_sequence[512].max_diameter()
        ref = 2.0 / math.sqrt(512.0)
        assert ref / 2 <= h <= 2 * ref

    def test_lloyd_movement_reported_and_settles(self, cvt32):
        moves = cvt32.lloyd_movement
        assert len(moves) == 100
        assert moves[-1] < moves[0]
        # convergence diagnostic, not a hard guarantee
        h = cvt32.max_diameter()
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
            assert mesh._signed_area(got) > 0.0

    def test_clustered_generators_widen_the_reach(self, monkeypatch):
        # no generator of [0.4, 0.6]^2 lies within 1.5/sqrt(64) of a side, so
        # the first diagram has unbounded cells and the reach must double
        sizes = []
        real_voronoi = mesh.Voronoi

        def counting_voronoi(pts, *args, **kwargs):
            sizes.append(len(pts))
            return real_voronoi(pts, *args, **kwargs)

        monkeypatch.setattr(mesh, "Voronoi", counting_voronoi)
        points = random_generators(5, 64, clustered=True)
        xy, offsets = mesh._voronoi_cells_unit_square(points)
        assert len(sizes) > 1 and sizes[0] == 64
        area, _ = mesh._centroids(xy, offsets)
        assert area.sum() == pytest.approx(1.0, rel=1e-12)

    def test_centroids_match_per_cell_formulas(self, cvt64):
        # against exact rational shoelace sums to 1e-14, and against the
        # per-cell float formulas to 3e-14: their two-dot-product area
        # cancels more and is itself up to 1.8e-14 off the exact value
        loops = [cvt64.vertices[c] for c in cvt64.cells]
        offsets = np.concatenate([[0], np.cumsum([len(p) for p in loops])])
        area, centroid = mesh._centroids(np.vstack(loops), offsets)
        for i, loop in enumerate(loops):
            exact_area, exact_centroid = exact_area_centroid(loop)
            assert abs(area[i] - exact_area) <= 1e-14 * exact_area
            assert np.linalg.norm(centroid[i] - exact_centroid) <= 1e-14 * np.linalg.norm(exact_centroid)
            a = mesh._signed_area(loop)
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
        assert [list(c) for c in m.cells] == [[0, 1, 2, 3], [1, 4, 5, 2]]


class TestStackedGeometry:
    def test_corners_know_their_edges_and_sides(self, cvt32):
        g = cvt32.stacked_geometry
        for c in range(cvt32.n_cells):
            m = g.valence[c]
            assert np.array_equal(g.edge_ids[c, :m], [e for e, _ in cvt32.cell_edges[c]])
            assert np.array_equal(g.left[c, :m], [s == 1 for _, s in cvt32.cell_edges[c]])
            assert np.array_equal(g.vertex_ids[c, :m], cvt32.cells[c])
        assert not np.any(g.left[~g.valid])

    def test_padding_drops_out(self, cvt32):
        g = cvt32.stacked_geometry
        pad = ~g.valid
        assert pad.any()
        for arr in (g.edge_lengths, g.fan_areas, g.normals[..., 0], g.normals[..., 1], g.tangents[..., 0]):
            assert not np.any(arr[pad])

    def test_frames_against_per_cell_formulas(self, cvt32):
        g = cvt32.stacked_geometry
        for c in range(cvt32.n_cells):
            loop = cvt32.vertices[cvt32.cells[c]]
            edge_vec = np.roll(loop, -1, axis=0) - loop
            lengths = np.linalg.norm(edge_vec, axis=1)
            geom = cvt32.geometry(c)
            assert np.allclose(geom.edge_lengths, lengths, rtol=1e-15)
            assert np.allclose(geom.tangents, edge_vec / lengths[:, None], rtol=0, atol=1e-15)
            assert geom.diameter == np.max(np.linalg.norm(loop[:, None] - loop[None], axis=2))


class TestMeshIo:
    def test_round_trip_uniform(self):
        m = generate_uniform_squares(2)
        m2 = import_mesh(export_mesh(m))
        assert np.array_equal(m.vertices, m2.vertices)
        assert all(np.array_equal(a, b) for a, b in zip(m.cells, m2.cells))

    def test_round_trip_cvt(self, cvt32):
        m2 = import_mesh(export_mesh(cvt32))
        assert np.array_equal(cvt32.vertices, m2.vertices)

    def test_clockwise_cell_fixed_with_warning(self):
        text = "vem-mesh 1\nvertices 4\n0 0\n1 0\n1 1\n0 1\ncells 1\n4 0 3 2 1\n"
        with pytest.warns(UserWarning, match="clockwise"):
            m = import_mesh(text)
        assert m.geometry(0).area == pytest.approx(1.0)

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

    def test_partial_tiling(self):
        # the lower half of the unit square: inside the box, but area 1/2
        text = "vem-mesh 1\nvertices 4\n0 0\n1 0\n1 0.5\n0 0.5\ncells 1\n4 0 1 2 3\n"
        with pytest.raises(MeshFormatError, match="areas sum to 0.5"):
            import_mesh(text)

    def test_cell_not_star_shaped(self):
        # a C-shaped cell (area 0.52) around a rectangular notch cell; the
        # C's centroid lies in the notch
        c_shape = [[0, 0], [1, 0], [1, 0.2], [0.2, 0.2], [0.2, 0.8], [1, 0.8], [1, 1], [0, 1]]
        lines = ["vem-mesh 1", "vertices 8"] + [f"{x} {y}" for x, y in c_shape]
        lines += ["cells 2", "4 3 2 5 4", "8 0 1 2 3 4 5 6 7"]
        with pytest.raises(MeshFormatError, match="line 13: cell 1 is not star-shaped"):
            import_mesh("\n".join(lines) + "\n")

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_corrupted_payload_imports_or_raises_format_error(self, data):
        lines = export_mesh(generate_uniform_squares(2)).splitlines()
        i = data.draw(st.integers(0, len(lines) - 1))
        token = st.sampled_from(["-1", "0", "1", "3", "4", "9", "12", "0.5", "2", "-0.5", "nan", "inf", "x", ""])
        action = data.draw(st.sampled_from(["drop", "duplicate", "replace", "token"]))
        if action == "drop":
            del lines[i]
        elif action == "duplicate":
            lines.insert(i, lines[i])
        elif action == "replace":
            lines[i] = data.draw(st.text(max_size=12))
        else:
            parts = lines[i].split() or [""]
            parts[data.draw(st.integers(0, len(parts) - 1))] = data.draw(token)
            lines[i] = " ".join(parts)
        try:
            m = import_mesh("\n".join(lines) + "\n")
        except MeshFormatError:
            return
        assert m.total_area() == pytest.approx(1.0, rel=1e-12)
        assert all(m.geometry(c).star_shaped for c in range(m.n_cells))
