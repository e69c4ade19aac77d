import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    mesh_quality,
    virtual_triangles,
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
        tris = virtual_triangles(m, 0)
        assert len(tris) == 1
        assert tris[0].area == pytest.approx(0.25, rel=1e-15)

    def test_interior_edge_two_triangles(self):
        m = two_squares_mesh()
        interior = np.flatnonzero(~m.boundary_edge)
        assert len(interior) == 1
        tris = virtual_triangles(m, interior[0])
        assert len(tris) == 2
        for t in tris:
            assert t.area == pytest.approx(0.25, rel=1e-15)

    def test_boundary_edge_single_triangle(self):
        m = two_squares_mesh()
        for e in np.flatnonzero(m.boundary_edge):
            assert len(virtual_triangles(m, e)) == 1


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
        report = mesh_quality(m)
        assert report.all_star_shaped
        assert report.max_edges_per_cell >= 3

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


class TestMeshQuality:
    def test_report_fields(self, cvt32):
        report = mesh_quality(cvt32)
        assert 0 < report.min_diameter <= report.max_diameter
        assert 0 < report.min_edge_ratio < 1
        assert 0 < report.min_fan_aspect <= 1
        assert report.star_shaped.shape == (32,)


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
