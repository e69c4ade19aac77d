import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ipvem import mesh
from ipvem.basis import SIMPSON, gauss_legendre_01
from ipvem.projectors import build_elements

from conftest import PolyCoeffs, basis_at, cell_dofs, derivatives, dof_points, dofs_of_polynomial, non_star_polygons
from conftest import random_star_polygon

# C-shaped cell whose centroid lies in the notch, outside the cell
C_SHAPE = [[0, 0], [1, 0], [1, 0.2], [0.2, 0.2], [0.2, 0.8], [1, 0.8], [1, 1], [0, 1]]
# the CVT-32 cell of the single-cell checks
CELL = 3
# the tail, midpoint and head of an edge, where SIMPSON's weights sit
SIMPSON_NODES = np.array([0.0, 0.5, 1.0])


def elements_on(points):
    """The elements of a one-cell mesh: row 0, with no padding."""
    m = mesh.build_mesh(np.asarray(points, dtype=float), [list(range(len(points)))])
    return build_elements(m)


@pytest.fixture(scope="module")
def hexagon():
    ang = np.linspace(0, 2 * np.pi, 7)[:-1] + 0.3
    return elements_on(np.column_stack([np.cos(ang), np.sin(ang)]) * 0.5 + 0.5)


class TestDofLayout:
    def test_square_count(self, unit_square):
        assert unit_square.n_dofs[0] == 9
        assert unit_square.geometry.valence[0] == 4
        # vertices, edge nodes, then the moment
        assert sorted(unit_square.dofs[0]) == list(range(9))
        assert unit_square.dofs[0, 8] == 8

    def test_hexagon_count(self, hexagon):
        assert hexagon.n_dofs[0] == 13

    def test_triangle_count(self):
        assert elements_on([[0, 0], [1, 0], [0, 1]]).n_dofs[0] == 7

    def test_edge_nodes_are_midpoints(self, unit_square):
        g = unit_square.geometry
        assert np.allclose(unit_square.dof_matrix[0, 4:8], basis_at(g, 0, dof_points(g, 0)[4:]))


class TestDofsOfPolynomial:
    def test_constant(self, unit_square):
        chi = dofs_of_polynomial(unit_square.geometry, 0, [1.0, 0, 0, 0, 0, 0])
        assert np.allclose(chi, 1.0, atol=1e-15)

    def test_centered_linear_has_zero_moment(self, unit_square):
        chi = dofs_of_polynomial(unit_square.geometry, 0, [0.0, 1.0, 0, 0, 0, 0])
        assert chi[-1] == pytest.approx(0.0, abs=1e-15)

    def test_accepts_polycoeffs(self, unit_square):
        g = unit_square.geometry
        p = PolyCoeffs(g.centroid[0], g.diameter[0], [0.0, 1.0, 0, 0, 0, 0])
        assert np.allclose(dofs_of_polynomial(g, 0, p), unit_square.dof_matrix[0] @ p.values)


class TestH1Projector:
    def test_reproduces_global_linear(self, cvt32_elements):
        E = cvt32_elements
        # p(x, y) = x + y expressed in the local scaled basis
        coeffs = np.zeros(6)
        coeffs[0] = E.geometry.centroid[CELL].sum()
        coeffs[1] = coeffs[2] = E.geometry.diameter[CELL]
        chi = E.dof_matrix[CELL] @ coeffs
        assert np.allclose(E.h1_coeff[CELL] @ chi, coeffs, atol=1e-13)

    @settings(max_examples=50, deadline=None)
    @given(coeffs=st.lists(st.floats(-5, 5), min_size=6, max_size=6))
    def test_reproduces_random_quadratic(self, hexagon, coeffs):
        got = hexagon.h1_coeff[0] @ (hexagon.dof_matrix[0] @ coeffs)
        scale = max(1.0, np.max(np.abs(coeffs)))
        assert np.max(np.abs(got - coeffs)) <= 1e-11 * scale

    def test_gradient_equations_satisfied_for_all_basis_dofs(self, cvt32, cvt32_elements):
        # rows 1.. of the (modified) system are the original orthogonality
        # conditions; the solve must satisfy them to roundoff
        E, n = cvt32_elements, cvt32_elements.n_dofs[CELL]
        G = E.grad_gram[CELL].copy()
        B = _rhs_matrix(cvt32.stacked_geometry, CELL)
        # the vertex average of the polynomial and of the DoFs closes the system
        m = E.geometry.valence[CELL]
        G[0], B[0] = E.dof_matrix[CELL, :m].sum(axis=0) / m, np.where(np.arange(n) < m, 1.0 / m, 0.0)
        residual = G @ E.h1_coeff[CELL, :, :n] - B
        assert np.max(np.abs(residual)) < 1e-12

    def test_projection_keeps_the_gradient_moments_of_virtual_functions(self, cvt64):
        # (grad Pi v, grad p) = (grad v, grad p) for random DoF vectors v and the
        # six scaled monomials p on every cell: the property a gradient form
        # consistent against virtual functions needs, which the polynomial pairs
        # of acceptance criterion 2 do not check; the reference is the boundary
        # formula, Simpson on each edge plus -lap(p) |K| times the moment
        E, rng = build_elements(cvt64), np.random.default_rng(64)
        for c in range(cvt64.n_cells):
            n = E.n_dofs[c]
            v = rng.uniform(-1.0, 1.0, (n, 20))
            reference = _rhs_matrix(E.geometry, c) @ v
            projected = E.grad_gram[c] @ (E.h1_coeff[c, :, :n] @ v)
            assert np.max(np.abs(projected - reference)) <= 1e-13 * np.max(np.abs(reference))

    def test_idempotent_dof_form(self, cvt32_elements):
        P = cvt32_elements.dof_matrix[CELL] @ cvt32_elements.h1_coeff[CELL]
        assert np.max(np.abs(P @ P - P)) < 1e-10


def _rhs_matrix(g, c):
    """Re-derive the gradient projector right-hand side of row ``c`` independently."""
    m = g.valence[c]
    B = np.zeros((6, 2 * m + 1))
    Dx, Dy = derivatives(g.diameter[c])
    B[:, 2 * m] = -(Dx @ Dx + Dy @ Dy)[0, :] * g.area[c]
    for j, (a, b) in enumerate(zip(g.vertices[c, :m], g.heads[c, :m])):
        vals = basis_at(g, c, a[None, :] + SIMPSON_NODES[:, None] * (b - a)[None, :])
        dn = g.normals[c, j, 0] * (vals @ Dx) + g.normals[c, j, 1] * (vals @ Dy)
        for node, col in enumerate((j, m + j, (j + 1) % m)):
            B[:, col] += g.edge_lengths[c, j] * SIMPSON[node] * dn[node]
    return B


class TestH2Projector:
    def test_reproduces_random_quadratic(self, cvt32_elements):
        E = cvt32_elements
        rng = np.random.default_rng(5)
        for _ in range(30):
            coeffs = rng.uniform(-3, 3, 6)
            got = E.h2_coeff[CELL] @ (E.dof_matrix[CELL] @ coeffs)
            assert np.max(np.abs(got - coeffs)) <= 1e-11 * max(1, np.max(np.abs(coeffs)))

    def test_constant_hessian_rows_vanish(self, unit_square):
        E = unit_square
        coeffs = E.h2_coeff[0] @ (E.dof_matrix[0] @ [1.0, 0, 0, 0, 0, 0])
        assert np.allclose(coeffs, [1, 0, 0, 0, 0, 0], atol=1e-13)
        # the Hessian-energy rows of the projection are identically zero
        assert np.allclose(E.hess_gram[0] @ coeffs, 0.0, atol=1e-13)

    def test_quasi_average_constraints_hold_for_dof_basis(self, unit_square):
        # the boundary means of the value and the gradient of the projection
        # of each DoF basis function are those of the function itself
        E, g = unit_square, unit_square.geometry
        Dx, Dy = derivatives(g.diameter[0])
        for n, chi in enumerate(np.eye(E.n_dofs[0])):
            p = E.h2_coeff[0, :, n]
            got = [boundary_mean(g, 0, p), boundary_mean(g, 0, Dx @ p), boundary_mean(g, 0, Dy @ p)]
            want = [simpson_mean(g, 0, chi), *boundary_gradient_mean(E, 0, chi)]
            assert np.max(np.abs(np.subtract(got, want))) < 1e-12

    def test_idempotent_dof_form(self, hexagon):
        P = hexagon.dof_matrix[0] @ hexagon.h2_coeff[0]
        assert np.max(np.abs(P @ P - P)) < 1e-10

    def test_polynomial_restriction_symmetric(self, cvt32_elements):
        # hessian-energy pairing of projected monomials against monomials
        E = cvt32_elements
        M = E.hess_gram[CELL] @ E.h2_coeff[CELL] @ E.dof_matrix[CELL]
        assert np.max(np.abs(M - M.T)) < 1e-11 * max(1.0, np.max(np.abs(M)))


class TestL2Projector:
    def test_constant(self, unit_square):
        chi = unit_square.dof_matrix[0] @ [1.0, 0, 0, 0, 0, 0]
        assert np.allclose(unit_square.l2_coeff[0] @ chi, [1, 0, 0, 0, 0, 0], atol=1e-13)

    def test_reproduces_random_quadratic(self, hexagon):
        rng = np.random.default_rng(6)
        for _ in range(30):
            coeffs = rng.uniform(-3, 3, 6)
            got = hexagon.l2_coeff[0] @ (hexagon.dof_matrix[0] @ coeffs)
            assert np.max(np.abs(got - coeffs)) <= 1e-11 * max(1, np.max(np.abs(coeffs)))

    def test_moment_row_used_for_constant_test_function(self, cvt32_elements):
        # (l2 projection, 1) equals the area-weighted moment DoF for any input
        E, n = cvt32_elements, cvt32_elements.n_dofs[CELL]
        rng = np.random.default_rng(7)
        chi = rng.standard_normal(n)
        p0 = E.l2_coeff[CELL, :, :n] @ chi
        lhs = float(E.mass[CELL, 0] @ p0)
        rhs = E.geometry.area[CELL] * chi[n - 1]
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-13)


def boundary_mean(g, c, coeffs):
    """Gauss-Legendre perimeter mean of a polynomial of row ``c``."""
    t, w = gauss_legendre_01(3)
    total, m = 0.0, g.valence[c]
    for j, (a, b) in enumerate(zip(g.vertices[c, :m], g.heads[c, :m])):
        pts = a[None, :] + t[:, None] * (b - a)[None, :]
        total += g.edge_lengths[c, j] * float(w @ (basis_at(g, c, pts) @ coeffs))
    return total / g.edge_lengths[c].sum()


def simpson_mean(g, c, chi):
    """Perimeter mean of the DoF vector ``chi`` of row ``c`` by Simpson's
    rule on its vertex and edge-midpoint values: the quasi-average."""
    m = g.valence[c]
    nodes = np.stack([chi[:m], chi[m : 2 * m], np.roll(chi[:m], -1)], axis=1)
    return float(g.edge_lengths[c, :m] @ (nodes @ SIMPSON)) / g.edge_lengths[c].sum()


def boundary_gradient_mean(E, c, chi):
    """Perimeter mean of the gradient of the DoF vector ``chi`` of row ``c``:
    on each edge, the normal part is Simpson's rule on the normal derivative
    of its h1 projection and the tangential part the difference of its end
    values."""
    g, m = E.geometry, E.geometry.valence[c]
    Dx, Dy = derivatives(g.diameter[c])
    p = E.h1_coeff[c, :, : len(chi)] @ chi
    total = np.zeros(2)
    for j, (a, b) in enumerate(zip(g.vertices[c, :m], g.heads[c, :m])):
        n = g.normals[c, j]
        dn = basis_at(g, c, a[None, :] + SIMPSON_NODES[:, None] * (b - a)[None, :]) @ ((n[0] * Dx + n[1] * Dy) @ p)
        total += n * g.edge_lengths[c, j] * float(SIMPSON @ dn) + g.tangents[c, j] * (chi[(j + 1) % m] - chi[j])
    return total / g.edge_lengths[c].sum()


class TestQuasiAverage:
    """The quasi-average of a polynomial's DoFs on the unit square against
    its hand-computed perimeter mean and the Gauss-Legendre oracle."""

    @staticmethod
    def check(E, coeffs, mean, rel):
        g = E.geometry
        assert simpson_mean(g, 0, E.dof_matrix[0] @ coeffs) == pytest.approx(mean, rel=rel)
        assert boundary_mean(g, 0, coeffs) == pytest.approx(mean, rel=rel)

    def test_constant(self, unit_square):
        self.check(unit_square, [1.0, 0, 0, 0, 0, 0], 1.0, 1e-14)

    def test_linear_x(self, unit_square):
        h = unit_square.geometry.diameter[0]
        self.check(unit_square, [0.5, h, 0, 0, 0, 0], 0.5, 1e-14)

    def test_quadratic_x_squared(self, unit_square):
        # edge-by-edge: (1/3 + 1 + 1/3 + 0) / 4 = 5/12
        h = unit_square.geometry.diameter[0]
        # x^2 = (0.5 + h xi)^2 = 0.25 + h xi * 1.0 ... expressed on the local basis
        self.check(unit_square, np.array([0.25, h, 0.0, h * h, 0.0, 0.0]), 5.0 / 12.0, 1e-13)


class TestGaussLobattoConsistency:
    def test_edge_sum_matches_exact_integral_for_quadratics(self, cvt32):
        # the quadrature edge sums in the h1 system are exact when the
        # integrand degree is at most three
        g, c = cvt32.stacked_geometry, CELL
        rng = np.random.default_rng(8)
        t, w = gauss_legendre_01(3)
        Dx, Dy = derivatives(g.diameter[c])
        for _ in range(10):
            p = rng.uniform(-2, 2, 6)
            q = rng.uniform(-2, 2, 6)
            m = g.valence[c]
            for j, (a, b) in enumerate(zip(g.vertices[c, :m], g.heads[c, :m])):
                n_e = g.normals[c, j]
                dq = (n_e[0] * Dx + n_e[1] * Dy) @ q
                vals = basis_at(g, c, a[None, :] + SIMPSON_NODES[:, None] * (b - a)[None, :])
                gl_sum = g.edge_lengths[c, j] * float(np.dot(SIMPSON, (vals @ p) * (vals @ dq)))
                vals = basis_at(g, c, a[None, :] + t[:, None] * (b - a)[None, :])
                exact = g.edge_lengths[c, j] * float(w @ ((vals @ p) * (vals @ dq)))
                assert gl_sum == pytest.approx(exact, rel=1e-12, abs=1e-14)


def reproduction_error(E, row, coeffs):
    """Largest coefficient error of the three projectors of row ``row`` on
    the DoFs of the polynomial ``coeffs``."""
    chi = E.dof_matrix[row] @ coeffs
    return max(np.max(np.abs(P[row] @ chi - coeffs)) for P in (E.h1_coeff, E.h2_coeff, E.l2_coeff))


class TestRandomPolygons:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.booleans())
    def test_projectors_reproduce_quadratics_and_boundary_mean(self, seed, c_shape):
        # random star-shaped cells, and a cell that is not star-shaped
        rng = np.random.default_rng(seed)
        E = elements_on(C_SHAPE if c_shape else random_star_polygon(rng))
        coeffs = rng.uniform(-3, 3, 6)
        assert reproduction_error(E, 0, coeffs) <= 1e-10 * np.max(np.abs(coeffs))
        mean = simpson_mean(E.geometry, 0, E.dof_matrix[0] @ coeffs)
        assert mean == pytest.approx(boundary_mean(E.geometry, 0, coeffs), rel=1e-12, abs=1e-12)


class TestPolygonsThatAreNotStarShaped:
    @settings(max_examples=40, deadline=None)
    @given(non_star_polygons(), st.integers(0, 2**32 - 1))
    def test_projectors_reproduce_random_quadratics(self, points, seed):
        E = elements_on(points)
        assert np.any(E.geometry.fan_areas[0] < 0.0)
        coeffs = np.random.default_rng(seed).uniform(-3, 3, 6)
        assert reproduction_error(E, 0, coeffs) <= 1e-10 * np.max(np.abs(coeffs))


class TestBatchedElements:
    def test_padded_columns_are_exactly_zero(self, cvt32):
        elements = build_elements(cvt32)
        pad = ~elements.dof_mask[:, None, :]
        for stack in (elements.h1_coeff, elements.h2_coeff, elements.l2_coeff):
            assert not np.any(stack[np.broadcast_to(pad, stack.shape)])
        assert elements.dofs.shape[1] == 2 * elements.geometry.valence.max() + 1

    def test_global_dofs_follow_the_cell_order(self, cvt32, cvt32_elements):
        for cid in range(cvt32.n_cells):
            n = cvt32_elements.n_dofs[cid]
            assert np.array_equal(cvt32_elements.dofs[cid, :n], cell_dofs(cvt32, cid))


class TestReproductionAcrossCells:
    def test_many_random_cells_and_polynomials(self, cvt32, cvt32_elements):
        rng = np.random.default_rng(9)
        cells = rng.choice(cvt32.n_cells, size=8, replace=False)
        for cid in cells:
            for _ in range(10):
                coeffs = rng.uniform(-1, 1, 6)
                err = reproduction_error(cvt32_elements, cid, coeffs)
                assert err <= 1e-10 * max(1.0, np.max(np.abs(coeffs)))
