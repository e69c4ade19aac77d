import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ipvem import mesh, projectors
from ipvem.basis import derivative_matrix, gauss_legendre_01, gauss_lobatto
from ipvem.projectors import build_element, build_elements

from conftest import PolyCoeffs, dofs_of_polynomial, non_star_polygons, random_star_polygon

# C-shaped cell whose centroid lies in the notch, outside the cell
C_SHAPE = [[0, 0], [1, 0], [1, 0.2], [0.2, 0.2], [0.2, 0.8], [1, 0.8], [1, 1], [0, 1]]


def element_on(points):
    m = mesh.build_mesh(np.asarray(points, dtype=float), [list(range(len(points)))])
    return build_element(m, 0)


@pytest.fixture(scope="module")
def hexagon_element():
    ang = np.linspace(0, 2 * np.pi, 7)[:-1] + 0.3
    return element_on(np.column_stack([np.cos(ang), np.sin(ang)]) * 0.5 + 0.5)


@pytest.fixture(scope="module")
def cvt_cell_element(cvt32):
    return build_element(cvt32, 3)


class TestDofLayout:
    def test_square_count(self, unit_square_element):
        layout = unit_square_element.layout
        assert layout.n_dofs == 9
        assert layout.n_vertices == 4
        assert layout.n_edge_nodes == 4
        assert layout.n_moments == 1

    def test_hexagon_count(self, hexagon_element):
        assert hexagon_element.layout.n_dofs == 13

    def test_triangle_count(self):
        el = element_on([[0, 0], [1, 0], [0, 1]])
        assert el.layout.n_dofs == 7

    def test_edge_nodes_are_midpoints(self, unit_square_element):
        layout = unit_square_element.layout
        geom = unit_square_element.geometry
        assert np.allclose(layout.points[4:], geom.edge_midpoints)


class TestDofsOfPolynomial:
    def test_constant(self, unit_square_element):
        el = unit_square_element
        chi = dofs_of_polynomial(el, [1.0, 0, 0, 0, 0, 0])
        assert np.allclose(chi, 1.0, atol=1e-15)

    def test_centered_linear_has_zero_moment(self, unit_square_element):
        el = unit_square_element
        chi = dofs_of_polynomial(el, [0.0, 1.0, 0, 0, 0, 0])
        assert chi[el.layout.moment_index] == pytest.approx(0.0, abs=1e-15)

    def test_accepts_polycoeffs(self, unit_square_element):
        el = unit_square_element
        p = PolyCoeffs(el.basis, [0.0, 1.0, 0, 0, 0, 0])
        assert np.allclose(dofs_of_polynomial(el, p), el.dof_vector(p.values))


class TestH1Projector:
    def test_reproduces_global_linear(self, cvt_cell_element):
        el = cvt_cell_element
        # p(x, y) = x + y expressed in the local scaled basis
        coeffs = np.zeros(6)
        coeffs[0] = el.geometry.centroid.sum()
        coeffs[1] = coeffs[2] = el.geometry.diameter
        chi = el.dof_vector(coeffs)
        assert np.allclose(el.projectors.h1_coeff @ chi, coeffs, atol=1e-13)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(-5, 5), min_size=6, max_size=6))
    def test_reproduces_random_quadratic(self, coeffs):
        el = TestH1Projector._hex
        chi = el.dof_vector(coeffs)
        got = el.projectors.h1_coeff @ chi
        scale = max(1.0, np.max(np.abs(coeffs)))
        assert np.max(np.abs(got - coeffs)) <= 1e-11 * scale

    def test_gradient_equations_satisfied_for_all_basis_dofs(self, cvt_cell_element):
        # rows 1.. of the (modified) system are the original orthogonality
        # conditions; the solve must satisfy them to roundoff
        el = cvt_cell_element
        G = el.grad_gram.copy()
        cp, cd = el.projectors.vertex_average
        B = _rhs_matrix(el)
        G[0], B[0] = cp, cd
        residual = G @ el.projectors.h1_coeff - B
        assert np.max(np.abs(residual)) < 1e-12

    def test_idempotent_dof_form(self, cvt_cell_element):
        P = cvt_cell_element.projectors.h1_dof
        assert np.max(np.abs(P @ P - P)) < 1e-10


def _rhs_matrix(el):
    """Re-derive the gradient projector right-hand side independently."""
    geom, bas, layout = el.geometry, el.basis, el.layout
    rule = gauss_lobatto(2)
    B = np.zeros((6, layout.n_dofs))
    Dx, Dy = derivative_matrix(bas, "x"), derivative_matrix(bas, "y")
    B[:, layout.moment_index] = -(Dx @ Dx + Dy @ Dy)[0, :] * geom.area
    m = layout.n_vertices
    for j in range(m):
        a, b = geom.vertices[j], geom.vertices[(j + 1) % m]
        nodes = a[None, :] + np.asarray(rule.nodes)[:, None] * (b - a)[None, :]
        vals = bas.evaluate(nodes)
        dn = geom.normals[j, 0] * (vals @ Dx) + geom.normals[j, 1] * (vals @ Dy)
        for node, col in enumerate((j, m + j, (j + 1) % m)):
            B[:, col] += geom.edge_lengths[j] * rule.weights[node] * dn[node]
    return B


class TestH2Projector:
    def test_reproduces_random_quadratic(self, cvt_cell_element):
        el = cvt_cell_element
        rng = np.random.default_rng(5)
        for _ in range(30):
            coeffs = rng.uniform(-3, 3, 6)
            chi = el.dof_vector(coeffs)
            got = el.projectors.h2_coeff @ chi
            assert np.max(np.abs(got - coeffs)) <= 1e-11 * max(1, np.max(np.abs(coeffs)))

    def test_constant_hessian_rows_vanish(self, unit_square_element):
        el = unit_square_element
        chi = el.dof_vector([1.0, 0, 0, 0, 0, 0])
        coeffs = el.projectors.h2_coeff @ chi
        assert np.allclose(coeffs, [1, 0, 0, 0, 0, 0], atol=1e-13)
        # the Hessian-energy rows of the projection are identically zero
        assert np.allclose(el.hess_gram @ coeffs, 0.0, atol=1e-13)

    def test_quasi_average_constraints_hold_for_dof_basis(self, unit_square_element):
        el = unit_square_element
        cp, cd = el.projectors.quasi_averages
        for i in range(el.n_dofs):
            e = np.zeros(el.n_dofs)
            e[i] = 1.0
            res = cp @ (el.projectors.h2_coeff @ e) - cd @ e
            assert np.max(np.abs(res)) < 1e-12

    def test_idempotent_dof_form(self, hexagon_element):
        P = hexagon_element.projectors.h2_dof
        assert np.max(np.abs(P @ P - P)) < 1e-10

    def test_polynomial_restriction_symmetric(self, cvt_cell_element):
        # hessian-energy pairing of projected monomials against monomials
        el = cvt_cell_element
        M = el.hess_gram @ el.projectors.h2_coeff @ el.projectors.dof_matrix
        assert np.max(np.abs(M - M.T)) < 1e-11 * max(1.0, np.max(np.abs(M)))


class TestL2Projector:
    def test_constant(self, unit_square_element):
        el = unit_square_element
        chi = el.dof_vector([1.0, 0, 0, 0, 0, 0])
        assert np.allclose(el.projectors.l2_coeff @ chi, [1, 0, 0, 0, 0, 0], atol=1e-13)

    def test_reproduces_random_quadratic(self, hexagon_element):
        el = hexagon_element
        rng = np.random.default_rng(6)
        for _ in range(30):
            coeffs = rng.uniform(-3, 3, 6)
            got = el.projectors.l2_coeff @ el.dof_vector(coeffs)
            assert np.max(np.abs(got - coeffs)) <= 1e-11 * max(1, np.max(np.abs(coeffs)))

    def test_moment_row_used_for_constant_test_function(self, cvt_cell_element):
        # (l2 projection, 1) equals the area-weighted moment DoF for any input
        el = cvt_cell_element
        rng = np.random.default_rng(7)
        chi = rng.standard_normal(el.n_dofs)
        p0 = el.projectors.l2_coeff @ chi
        lhs = float(el.integrals[:6] @ p0)
        rhs = el.geometry.area * chi[el.layout.moment_index]
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-13)


def boundary_mean(el, coeffs):
    """Gauss-Legendre perimeter mean of a cell polynomial."""
    t, w = gauss_legendre_01(3)
    geom, total = el.geometry, 0.0
    for j in range(geom.n_edges):
        a, b = geom.vertices[j], geom.vertices[(j + 1) % geom.n_edges]
        pts = a[None, :] + t[:, None] * (b - a)[None, :]
        total += geom.edge_lengths[j] * float(w @ (el.basis.evaluate(pts) @ coeffs))
    return total / geom.perimeter


class TestQuasiAverage:
    def test_constant(self, unit_square_element):
        el = unit_square_element
        assert el.projectors.quasi_averages[0][0] @ [1.0, 0, 0, 0, 0, 0] == pytest.approx(1.0, rel=1e-14)

    def test_linear_x(self, unit_square_element):
        el = unit_square_element
        h = el.basis.diameter
        assert el.projectors.quasi_averages[0][0] @ [0.5, h, 0, 0, 0, 0] == pytest.approx(0.5, rel=1e-14)

    def test_quadratic_x_squared(self, unit_square_element):
        # edge-by-edge: (1/3 + 1 + 1/3 + 0) / 4 = 5/12
        el = unit_square_element
        h = el.basis.diameter
        # x^2 = (0.5 + h xi)^2 = 0.25 + h xi * 1.0 ... expressed on the local basis
        coeffs = np.array([0.25, h, 0.0, h * h, 0.0, 0.0])
        assert el.projectors.quasi_averages[0][0] @ coeffs == pytest.approx(5.0 / 12.0, rel=1e-13)


class TestGaussLobattoConsistency:
    def test_edge_sum_matches_exact_integral_for_quadratics(self, cvt_cell_element):
        # the quadrature edge sums in the h1 system are exact when the
        # integrand degree is at most three
        el = cvt_cell_element
        geom, bas = el.geometry, el.basis
        rng = np.random.default_rng(8)
        rule = gauss_lobatto(2)
        t, w = gauss_legendre_01(3)
        Dx, Dy = derivative_matrix(bas, "x"), derivative_matrix(bas, "y")
        for _ in range(10):
            p = rng.uniform(-2, 2, 6)
            q = rng.uniform(-2, 2, 6)
            m = geom.n_edges
            for j in range(m):
                a, b = geom.vertices[j], geom.vertices[(j + 1) % m]
                n_e = geom.normals[j]
                dq = (n_e[0] * Dx + n_e[1] * Dy) @ q
                nodes = a[None, :] + np.asarray(rule.nodes)[:, None] * (b - a)[None, :]
                vals = bas.evaluate(nodes)
                gl_sum = geom.edge_lengths[j] * float(
                    np.dot(rule.weights, (vals @ p) * (vals @ dq))
                )
                vals = bas.evaluate(a[None, :] + t[:, None] * (b - a)[None, :])
                exact = geom.edge_lengths[j] * float(w @ ((vals @ p) * (vals @ dq)))
                assert gl_sum == pytest.approx(exact, rel=1e-12, abs=1e-14)


class TestRandomPolygons:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.booleans())
    def test_projectors_reproduce_quadratics_and_boundary_mean(self, seed, c_shape):
        # random star-shaped cells, and a cell that is not star-shaped
        rng = np.random.default_rng(seed)
        el = element_on(C_SHAPE if c_shape else random_star_polygon(rng))
        coeffs = rng.uniform(-3, 3, 6)
        chi = el.dof_vector(coeffs)
        for mat in (el.projectors.h1_coeff, el.projectors.h2_coeff, el.projectors.l2_coeff):
            assert np.max(np.abs(mat @ chi - coeffs)) <= 1e-10 * np.max(np.abs(coeffs))
        mean = el.projectors.quasi_averages[0][0] @ coeffs
        assert mean == pytest.approx(boundary_mean(el, coeffs), rel=1e-12, abs=1e-12)


class TestPolygonsThatAreNotStarShaped:
    @settings(max_examples=40, deadline=None)
    @given(non_star_polygons(), st.integers(0, 2**32 - 1))
    def test_projectors_reproduce_random_quadratics(self, points, seed):
        el = element_on(points)
        assert not el.geometry.star_shaped
        coeffs = np.random.default_rng(seed).uniform(-3, 3, 6)
        chi = el.dof_vector(coeffs)
        for mat in (el.projectors.h1_coeff, el.projectors.h2_coeff, el.projectors.l2_coeff):
            assert np.max(np.abs(mat @ chi - coeffs)) <= 1e-10 * np.max(np.abs(coeffs))


class TestBatchedElements:
    def test_padded_columns_are_exactly_zero(self, cvt32):
        elements = build_elements(cvt32)
        pad = ~elements.dof_mask[:, None, :]
        for stack in (elements.h1_coeff, elements.h2_coeff, elements.l2_coeff):
            assert not np.any(stack[np.broadcast_to(pad, stack.shape)])
        assert elements.dofs.shape[1] == 2 * elements.geometry.valence.max() + 1

    def test_batch_of_one_is_the_row_of_the_batch(self, cvt32):
        elements = build_elements(cvt32)
        for cid in (0, 13, 31):
            one, row = build_element(cvt32, cid), elements[cid]
            assert one.cell_id == row.cell_id == cid
            for name in ("h1_coeff", "h2_coeff", "l2_coeff", "dof_matrix"):
                assert np.allclose(getattr(one.projectors, name), getattr(row.projectors, name), rtol=0, atol=1e-12)

    def test_global_dofs_follow_the_cell_order(self, cvt32):
        from ipvem import system

        elements = build_elements(cvt32)
        dof_map = system.number_dofs(cvt32)
        for cid in range(cvt32.n_cells):
            n = elements.n_dofs[cid]
            assert np.array_equal(elements.dofs[cid, :n], system.cell_dof_indices(dof_map, cvt32, cid))


class TestReproductionAcrossCells:
    def test_many_random_cells_and_polynomials(self, cvt32):
        rng = np.random.default_rng(9)
        cells = rng.choice(cvt32.n_cells, size=8, replace=False)
        for cid in cells:
            el = build_element(cvt32, int(cid))
            for _ in range(10):
                coeffs = rng.uniform(-1, 1, 6)
                chi = el.dof_vector(coeffs)
                for mat in (
                    el.projectors.h1_coeff,
                    el.projectors.h2_coeff,
                    el.projectors.l2_coeff,
                ):
                    err = np.max(np.abs(mat @ chi - coeffs))
                    assert err <= 1e-10 * max(1.0, np.max(np.abs(coeffs)))


def pytest_generate_tests(metafunc):
    pass


@pytest.fixture(scope="module", autouse=True)
def _hex_for_hypothesis(hexagon_element):
    # hypothesis-driven tests cannot take function-scoped fixtures directly
    TestH1Projector._hex = hexagon_element
    yield
