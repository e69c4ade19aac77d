import numpy as np
import pytest

from ipvem import mesh, system
from ipvem.basis import gauss_legendre_01
from ipvem.forms import PenaltyConfig, build_edge_stencils, build_local_forms, penalty_parameter
from ipvem.mesh import BOUNDARY
from ipvem.projectors import build_elements

from conftest import basis_at, derivatives, edge_coupling, local_edge, polygon_rule, reference_operators


def two_squares():
    vertices = [[0, 0], [1, 0], [2, 0], [0, 1], [1, 1], [2, 1]]
    m = mesh.build_mesh(vertices, [[0, 1, 4, 3], [1, 2, 5, 4]])
    return m, build_elements(m)


def gram_quadrature(g, c):
    """Independent (quadrature) route to the Hessian-energy and the
    gradient-energy pairings of row ``c`` of a StackedGeometry."""
    Dx, Dy = derivatives(g.diameter[c])
    pts, w = polygon_rule(g, c, 6)
    vals = basis_at(g, c, pts)

    def pairing(*derivatives):
        return sum(((vals @ D).T * w) @ (vals @ D) for D in derivatives)

    return pairing(Dx @ Dx, Dy @ Dy) + 2.0 * pairing(Dx @ Dy), pairing(Dx, Dy)


@pytest.fixture(scope="module")
def cvt32_forms(cvt32_elements):
    return build_local_forms(cvt32_elements)


@pytest.fixture(scope="module")
def square_forms(unit_square):
    return build_local_forms(unit_square)


class TestLocalAForm:
    def test_k_consistency_against_quadrature_oracle(self, cvt32, cvt32_elements, cvt32_forms):
        A, D = cvt32_forms.a[11], cvt32_elements.dof_matrix[11]
        exact = gram_quadrature(cvt32.stacked_geometry, 11)[0]
        got = D.T @ A @ D  # chi(p)^T A chi(q) over all monomial pairs
        scale = np.max(np.abs(exact)) + 1.0
        assert np.max(np.abs(got - exact)) <= 1e-10 * scale

    def test_linear_kernel(self, unit_square, square_forms):
        A = square_forms.a[0]
        for coeffs in ([1.0, 0, 0, 0, 0, 0], [0.3, 1.0, -2.0, 0, 0, 0]):
            chi = unit_square.dof_matrix[0] @ np.asarray(coeffs)
            assert np.max(np.abs(A @ chi)) < 1e-11 * max(1.0, np.max(np.abs(A)))

    def test_nonpolynomial_dof_has_positive_stabilization(self, unit_square, square_forms):
        Pd = unit_square.dof_matrix[0] @ unit_square.h2_coeff[0]
        e = np.zeros(unit_square.n_dofs[0])
        e[0] = 1.0
        residual = e - Pd @ e
        assert np.linalg.norm(residual) > 1e-3
        A = square_forms.a[0]
        assert e @ A @ e > 0.0

    def test_symmetric_psd(self, cvt32_forms):
        A = cvt32_forms.a[2]
        assert np.max(np.abs(A - A.T)) <= 1e-12 * np.max(np.abs(A))
        eig = np.linalg.eigvalsh(0.5 * (A + A.T))
        assert eig[0] >= -1e-11 * eig[-1]

    def test_spectral_stability_on_polynomial_subspace(self, cvt32_elements, cvt32_forms):
        # consistency part: generalized eigenvalues against the exact
        # Hessian stiffness equal one on the degree-two subspace
        E, n = cvt32_elements, cvt32_elements.n_dofs[7]
        A, D = cvt32_forms.a[7, :n, :n], E.dof_matrix[7, :n]
        restricted = (D.T @ A @ D)[3:, 3:]
        exact = E.hess_gram[7, 3:, 3:]
        vals = np.linalg.eigvals(np.linalg.solve(exact, restricted))
        assert np.all(np.abs(vals.real - 1.0) < 1e-9)
        assert np.all(np.abs(vals.imag) < 1e-9)
        # stabilization vanishes identically on polynomial DoF vectors
        stab = np.eye(n) - D @ E.h2_coeff[7, :, :n]
        assert np.max(np.abs(stab @ D)) < 1e-11


class TestLocalBForm:
    def test_k_consistency(self, cvt32, cvt32_elements, cvt32_forms):
        B, D = cvt32_forms.b[19], cvt32_elements.dof_matrix[19]
        exact = gram_quadrature(cvt32.stacked_geometry, 19)[1]
        got = D.T @ B @ D
        scale = np.max(np.abs(exact)) + 1.0
        assert np.max(np.abs(got - exact)) <= 1e-10 * scale

    def test_constants_give_exact_zero(self, unit_square, square_forms):
        B = square_forms.b[0]
        chi = unit_square.dof_matrix[0] @ [1.0, 0, 0, 0, 0, 0]
        assert np.max(np.abs(B @ chi)) < 1e-12 * np.max(np.abs(B))

    def test_symmetric_psd_random_vectors(self, cvt32_elements, cvt32_forms):
        n = cvt32_elements.n_dofs[23]
        B = cvt32_forms.b[23, :n, :n]
        assert np.max(np.abs(B - B.T)) <= 1e-12 * np.max(np.abs(B))
        eig = np.linalg.eigvalsh(0.5 * (B + B.T))
        assert eig[0] >= -1e-12 * eig[-1]
        rng = np.random.default_rng(0)
        for _ in range(20):
            v = rng.standard_normal(n)
            assert v @ B @ v >= -1e-12 * eig[-1] * (v @ v)


def local_coeffs(g, c, f):
    """Coefficients on row ``c``'s scaled basis of a global quadratic f,
    from its values at six points of the cell."""
    pts = g.centroid[c] + 0.2 * g.diameter[c] * np.array([[0, 0], [1, 0], [0, 1], [-1, 0], [0, -1], [0.7, 0.6]])
    return np.linalg.solve(basis_at(g, c, pts), f(pts[:, 0], pts[:, 1]))


def scattered(elements, local):
    """Global vector of the per-cell vectors ``local[c]`` over the padded DoF
    columns (zero past each cell's DoFs)."""
    return np.bincount(elements.dofs.ravel(), weights=(local * elements.dof_mask).ravel())


class TestLocalLoad:
    def test_zero_forcing(self, unit_square):
        assert np.allclose(system.load_vector(unit_square, lambda x, y: np.zeros_like(x)), 0.0)

    def test_constant_forcing_two_paths(self, cvt32_elements):
        # quadrature route equals the exact-integral route for f = 1
        E = cvt32_elements
        got = system.load_vector(E, lambda x, y: np.ones_like(x))
        exact = scattered(E, np.einsum("ckn,ck->cn", E.l2_coeff, E.mass[:, 0]))
        assert np.allclose(got, exact, rtol=1e-12, atol=1e-14)

    def test_projector_reproducible_quadratic(self, cvt32, cvt32_elements):
        def f(x, y):
            return 0.7 - 1.2 * x + 0.4 * y + 2.0 * x * x - 0.8 * x * y + 1.5 * y * y

        E = cvt32_elements
        coeffs = np.array([local_coeffs(cvt32.stacked_geometry, c, f) for c in range(cvt32.n_cells)])
        got = system.load_vector(E, f)
        exact = scattered(E, np.einsum("ckn,ckl,cl->cn", E.l2_coeff, E.mass, coeffs))
        assert np.max(np.abs(got - exact)) <= 1e-10 * np.max(np.abs(exact))


class TestPenaltyParameter:
    def test_interior_spot_value(self):
        config = PenaltyConfig(a=2.0, n_k=4)
        lam = penalty_parameter(1.0, [0.25, 0.25], config)
        assert lam == pytest.approx(32.0, rel=1e-15)

    def test_boundary_spot_value(self):
        config = PenaltyConfig(a=2.0, n_k=4)
        lam = penalty_parameter(1.0, [0.25], config)
        assert lam == pytest.approx(32.0, rel=1e-15)

    def test_scale_invariance(self):
        config = PenaltyConfig(a=3.0, n_k=6)
        lam1 = penalty_parameter(1.0, [0.25, 0.3], config)
        lam2 = penalty_parameter(0.5, [0.25 / 4, 0.3 / 4], config)
        assert lam1 == pytest.approx(lam2, rel=1e-14)

    def test_invalid_constant_rejected(self):
        for a in (1.0, np.inf):
            with pytest.raises(ValueError):
                PenaltyConfig(a=a, n_k=4)

    def test_degenerate_triangle_rejected(self):
        config = PenaltyConfig(a=2.0, n_k=4)
        with pytest.raises(ValueError):
            penalty_parameter(1.0, [0.0, 0.25], config)


def global_dofs(m, g):
    """Global DoF vector of the function g: values at the vertices and edge
    midpoints, and cell means by each cell's own fan rule."""
    pts = np.vstack([m.vertices, m.vertices[m.edges].mean(axis=1)])
    means = []
    for c in range(m.n_cells):
        q, w = polygon_rule(m.stacked_geometry, c, 4)
        means.append(float(w @ g(q[:, 0], q[:, 1])) / m.stacked_geometry.area[c])
    return np.concatenate([g(pts[:, 0], pts[:, 1]), means])


def edge_dofs(m, elements, e):
    """Global DoFs of the cells of edge e."""
    cells = [c for c in m.edge_cells[e] if c != BOUNDARY]
    return np.unique(np.concatenate([elements.dofs[c, : elements.n_dofs[c]] for c in cells]))


class TestEdgeStencil:
    def test_global_quadratic_pairs_annihilated(self):
        # both slots of the coupling vanish whenever trial and test DoFs come
        # from single global quadratics: the jump factor kills every term
        m, elements = two_squares()
        interior = int(np.flatnonzero(~m.boundary_edge)[0])
        j1, block = edge_coupling(build_edge_stencils(m, elements), interior, lam=17.0)
        monomials = [(p, q) for p in range(3) for q in range(3 - p)]
        chis = [global_dofs(m, lambda x, y, p=p, q=q: x**p * y**q) for p, q in monomials]
        scale = np.max(np.abs(block))
        for cp in chis:
            # jump of the normal derivative of the projection vanishes
            assert np.max(np.abs(j1 @ cp)) < 1e-11 * scale
            for cq in chis:
                assert abs(cp @ block @ cq) < 1e-11 * scale

    def test_boundary_edge_j1_closed_form(self, unit_square):
        # p = x on a vertical boundary edge: energy is lambda * n_x^2
        m, E = mesh.generate_uniform_squares(1), unit_square
        traces = build_edge_stencils(m, E)
        coeffs = np.array([0.5, E.geometry.diameter[0], 0, 0, 0, 0])  # p = x
        chi = np.zeros(system.number_dofs(m).n_dofs)
        chi[E.dofs[0]] = E.dof_matrix[0] @ coeffs
        for j, e in enumerate(E.geometry.edge_ids[0]):
            j1, _ = edge_coupling(traces, e, lam=13.0)
            n_x = E.geometry.normals[0, j, 0]
            assert chi @ j1 @ chi == pytest.approx(13.0 * n_x**2, rel=1e-12, abs=1e-13)

    def test_j2_j3_transpose_structure(self):
        m, elements = two_squares()
        interior = int(np.flatnonzero(~m.boundary_edge)[0])
        j1, block = edge_coupling(build_edge_stencils(m, elements), interior, lam=5.0)
        consistency = block - j1
        assert np.max(np.abs(consistency - consistency.T)) < 1e-13 * np.max(np.abs(block))
        assert np.max(np.abs(block - block.T)) < 1e-13 * np.max(np.abs(block))

    def test_j1_block_psd(self):
        m, elements = two_squares()
        traces = build_edge_stencils(m, elements)
        for e in range(m.n_edges):
            j1, _ = edge_coupling(traces, e, lam=3.0)
            eig = np.linalg.eigvalsh(0.5 * (j1 + j1.T))
            assert eig[0] >= -1e-12 * max(1.0, eig[-1])

    def test_build_edge_stencils_counts(self, cvt32, cvt32_elements):
        traces = build_edge_stencils(cvt32, cvt32_elements, penalty_a=2.0)
        n_edges, n = cvt32.n_edges, system.number_dofs(cvt32).n_dofs
        jump, average = reference_operators(traces)
        assert traces.jump.shape == (3 * n_edges, n) and average.shape == (n_edges, n)
        assert (traces.jump != jump).nnz == 0
        assert traces.lam.shape == traces.h.shape == (n_edges,) and np.all(traces.lam > 0.0)
        # each edge couples the DoFs of its own cells only
        for e in range(n_edges):
            rows, cols = np.nonzero(edge_coupling(traces, e)[1])
            assert set(rows) | set(cols) <= set(edge_dofs(cvt32, cvt32_elements, e))


def edge_traces(m, edge_id, elements, chi, t):
    """Jump of dn of the h1 projections at the edge points tail + t (head - tail)
    and the average of their constant d^2/dn^2, with the left cell's normal,
    from each side's polynomial differentiated and evaluated directly;
    ``chi`` is a global DoF vector."""
    tail, head = m.vertices[m.edges[edge_id]]
    pts = tail[None, :] + t[:, None] * (head - tail)[None, :]
    left = int(m.edge_cells[edge_id][0])
    j = local_edge(m, left, edge_id)
    nx, ny = elements.geometry.normals[left, j]
    sides = [int(c) for c in m.edge_cells[edge_id] if c != BOUNDARY]
    jump, avg = np.zeros(len(t)), 0.0
    for sign, cid in zip((1.0, -1.0), sides):
        poly = elements.h1_coeff[cid] @ chi[elements.dofs[cid]]
        Dx, Dy = derivatives(elements.geometry.diameter[cid])
        jump += sign * (basis_at(elements.geometry, cid, pts) @ ((nx * Dx + ny * Dy) @ poly))
        avg += ((nx * nx * Dx @ Dx + 2.0 * nx * ny * Dx @ Dy + ny * ny * Dy @ Dy) @ poly)[0] / len(sides)
    return jump, avg


class TestEdgeStencilAgainstGaussLegendre:
    def test_penalty_energy_and_jump_integral_on_every_edge(self, cvt32, cvt32_elements):
        # on every interior and boundary edge, against a 4-point rule:
        # chi^T j1 chi = lam/h_e int_e jump^2 ds, and j2 = -avg (x) int_e jump ds,
        # read through the symmetric consistency block j2 + j2^T
        t, w = gauss_legendre_01(4)
        rng = np.random.default_rng(12)
        traces = build_edge_stencils(cvt32, cvt32_elements)
        for e in range(cvt32.n_edges):
            j1, block = edge_coupling(traces, e, lam=7.0)
            h_e = float(np.linalg.norm(np.diff(cvt32.vertices[cvt32.edges[e]], axis=0)))
            own = edge_dofs(cvt32, cvt32_elements, e)
            chi, psi = np.zeros((2, len(block)))
            chi[own], psi[own] = rng.standard_normal((2, len(own)))
            jump_chi, avg_chi = edge_traces(cvt32, e, cvt32_elements, chi, t)
            jump_psi, avg_psi = edge_traces(cvt32, e, cvt32_elements, psi, t)
            energy = 7.0 / h_e * (h_e * (w @ jump_chi**2))
            assert chi @ j1 @ chi == pytest.approx(energy, rel=1e-12)
            consistency = -(avg_chi * h_e * (w @ jump_psi) + avg_psi * h_e * (w @ jump_chi))
            scale = np.max(np.abs(block)) * np.linalg.norm(chi) * np.linalg.norm(psi)
            assert abs(chi @ (block - j1) @ psi - consistency) <= 1e-12 * scale


class TestGlobalCoercivity:
    def test_hessian_part_psd_on_free_dofs(self, cvt_sequence):
        # the penalized Hessian form controls the discrete energy norm: its
        # boundary-reduced matrix must be positive semidefinite
        m = cvt_sequence[128]
        elements = build_elements(m)
        stencils = build_edge_stencils(m, elements, penalty_a=2.0)
        dof_map = system.number_dofs(m)
        parts = system.build_operator_parts(dof_map, build_local_forms(elements), stencils)
        H = parts.hess.toarray()  # on the free DoFs, symmetric
        eig = np.linalg.eigvalsh(H)
        assert eig[0] >= -1e-9 * np.max(np.abs(H))
