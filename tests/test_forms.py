import math

import numpy as np
import pytest

from ipvem import forms, mesh, projectors, system
from ipvem.basis import derivative_matrix, gauss_legendre_01, polygon_quadrature
from ipvem.forms import (
    PenaltyConfig,
    build_edge_stencils,
    edge_stencil,
    local_a_form,
    local_b_form,
    local_load,
    penalty_parameter,
)
from ipvem.mesh import BOUNDARY, virtual_triangles
from ipvem.projectors import build_element, build_elements


def two_squares():
    vertices = [[0, 0], [1, 0], [2, 0], [0, 1], [1, 1], [2, 1]]
    m = mesh.build_mesh(vertices, [[0, 1, 4, 3], [1, 2, 5, 4]])
    return m, build_elements(m)


def hessian_gram_quadrature(el):
    """Independent (quadrature) route to the Hessian-energy pairing."""
    Dx = derivative_matrix(el.basis, "x")
    Dy = derivative_matrix(el.basis, "y")
    pts, w = polygon_quadrature(el.geometry, 6)
    vals = el.basis.evaluate(pts)
    out = np.zeros((6, 6))
    for dd in (Dx @ Dx, Dy @ Dy):
        dvals = vals @ dd
        out += (dvals.T * w) @ dvals
    dxy = vals @ (Dx @ Dy)
    out += 2.0 * (dxy.T * w) @ dxy
    return out


def gradient_gram_quadrature(el):
    Dx = derivative_matrix(el.basis, "x")
    Dy = derivative_matrix(el.basis, "y")
    pts, w = polygon_quadrature(el.geometry, 6)
    vals = el.basis.evaluate(pts)
    gx, gy = vals @ Dx, vals @ Dy
    return (gx.T * w) @ gx + (gy.T * w) @ gy


class TestLocalAForm:
    def test_k_consistency_against_quadrature_oracle(self, cvt32):
        el = build_element(cvt32, 11)
        A = local_a_form(el)
        D = el.projectors.dof_matrix
        exact = hessian_gram_quadrature(el)
        got = D.T @ A @ D  # chi(p)^T A chi(q) over all monomial pairs
        scale = np.max(np.abs(exact)) + 1.0
        assert np.max(np.abs(got - exact)) <= 1e-10 * scale

    def test_linear_kernel(self, unit_square_element):
        el = unit_square_element
        A = local_a_form(el)
        for coeffs in ([1.0, 0, 0, 0, 0, 0], [0.3, 1.0, -2.0, 0, 0, 0]):
            chi = el.dof_vector(np.asarray(coeffs))
            assert np.max(np.abs(A @ chi)) < 1e-11 * max(1.0, np.max(np.abs(A)))

    def test_nonpolynomial_dof_has_positive_stabilization(self, unit_square_element):
        el = unit_square_element
        Pd = el.projectors.h2_dof
        e = np.zeros(el.n_dofs)
        e[0] = 1.0
        residual = e - Pd @ e
        assert np.linalg.norm(residual) > 1e-3
        A = local_a_form(el)
        assert e @ A @ e > 0.0

    def test_symmetric_psd(self, cvt32):
        el = build_element(cvt32, 2)
        A = local_a_form(el)
        assert np.max(np.abs(A - A.T)) <= 1e-12 * np.max(np.abs(A))
        eig = np.linalg.eigvalsh(0.5 * (A + A.T))
        assert eig[0] >= -1e-11 * eig[-1]

    def test_spectral_stability_on_polynomial_subspace(self, cvt32):
        # consistency part: generalized eigenvalues against the exact
        # Hessian stiffness equal one on the degree-two subspace
        el = build_element(cvt32, 7)
        A = local_a_form(el)
        D = el.projectors.dof_matrix
        restricted = (D.T @ A @ D)[3:, 3:]
        exact = el.hess_gram[3:, 3:]
        vals = np.linalg.eigvals(np.linalg.solve(exact, restricted))
        assert np.all(np.abs(vals.real - 1.0) < 1e-9)
        assert np.all(np.abs(vals.imag) < 1e-9)
        # stabilization vanishes identically on polynomial DoF vectors
        stab = np.eye(el.n_dofs) - el.projectors.h2_dof
        assert np.max(np.abs(stab @ D)) < 1e-11


class TestLocalBForm:
    def test_k_consistency(self, cvt32):
        el = build_element(cvt32, 19)
        B = local_b_form(el)
        D = el.projectors.dof_matrix
        exact = gradient_gram_quadrature(el)
        got = D.T @ B @ D
        scale = np.max(np.abs(exact)) + 1.0
        assert np.max(np.abs(got - exact)) <= 1e-10 * scale

    def test_constants_give_exact_zero(self, unit_square_element):
        el = unit_square_element
        B = local_b_form(el)
        chi = el.dof_vector([1.0, 0, 0, 0, 0, 0])
        assert np.max(np.abs(B @ chi)) < 1e-12 * np.max(np.abs(B))

    def test_symmetric_psd_random_vectors(self, cvt32):
        el = build_element(cvt32, 23)
        B = local_b_form(el)
        assert np.max(np.abs(B - B.T)) <= 1e-12 * np.max(np.abs(B))
        eig = np.linalg.eigvalsh(0.5 * (B + B.T))
        assert eig[0] >= -1e-12 * eig[-1]
        rng = np.random.default_rng(0)
        for _ in range(20):
            v = rng.standard_normal(el.n_dofs)
            assert v @ B @ v >= -1e-12 * eig[-1] * (v @ v)


class TestLocalLoad:
    def test_zero_forcing(self, unit_square_element):
        F = local_load(unit_square_element, lambda x, y: np.zeros_like(x))
        assert np.allclose(F, 0.0)

    def test_constant_forcing_two_paths(self, cvt32):
        # quadrature route equals the exact-integral route for f = 1
        el = build_element(cvt32, 5)
        F = local_load(el, lambda x, y: np.ones_like(x))
        exact = el.projectors.l2_coeff.T @ el.integrals[:6]
        assert np.allclose(F, exact, rtol=1e-12, atol=1e-14)

    def test_projector_reproducible_quadratic(self, cvt32):
        el = build_element(cvt32, 9)
        coeffs = np.array([0.7, -1.2, 0.4, 2.0, -0.8, 1.5])

        def f(x, y):
            return el.basis.evaluate(np.column_stack([x, y])) @ coeffs

        F = local_load(el, f)
        exact = el.projectors.l2_coeff.T @ (el.mass @ coeffs)
        scale = np.max(np.abs(exact))
        assert np.max(np.abs(F - exact)) <= 1e-10 * scale


class TestPenaltyParameter:
    def test_interior_spot_value(self):
        config = PenaltyConfig(a=2.0, n_k=4)
        lam = penalty_parameter(1.0, [0.25, 0.25], config, k=2)
        assert lam == pytest.approx(32.0, rel=1e-15)

    def test_boundary_spot_value(self):
        config = PenaltyConfig(a=2.0, n_k=4)
        lam = penalty_parameter(1.0, [0.25], config, k=2)
        assert lam == pytest.approx(32.0, rel=1e-15)

    def test_scale_invariance(self):
        config = PenaltyConfig(a=3.0, n_k=6)
        lam1 = penalty_parameter(1.0, [0.25, 0.3], config)
        lam2 = penalty_parameter(0.5, [0.25 / 4, 0.3 / 4], config)
        assert lam1 == pytest.approx(lam2, rel=1e-14)

    def test_invalid_constant_rejected(self):
        with pytest.raises(ValueError):
            PenaltyConfig(a=1.0, n_k=4)

    def test_degenerate_triangle_rejected(self):
        config = PenaltyConfig(a=2.0, n_k=4)
        with pytest.raises(ValueError):
            penalty_parameter(1.0, [0.0, 0.25], config)


class TestEdgeStencil:
    def test_global_quadratic_pairs_annihilated(self):
        # both slots of the coupling vanish whenever trial and test DoFs come
        # from single global quadratics: the jump factor kills every term
        m, elements = two_squares()
        interior = int(np.flatnonzero(~m.boundary_edge)[0])
        st = edge_stencil(m, interior, elements, lam=17.0)
        basis_global = np.array(
            [
                lambda x, y: np.ones_like(x),
                lambda x, y: x,
                lambda x, y: y,
                lambda x, y: x * x,
                lambda x, y: x * y,
                lambda x, y: y * y,
            ]
        )
        chis = []
        scale = np.max(np.abs(st.block))
        for g in basis_global:
            chi = []
            for cid in st.cells:
                el = elements[cid]
                pts = el.layout.points
                vals = list(g(pts[:, 0], pts[:, 1]))
                pq, pw = polygon_quadrature(el.geometry, 4)
                vals.append(float(pw @ g(pq[:, 0], pq[:, 1])) / el.geometry.area)
                chi.extend(vals)
            chis.append(np.array(chi))
        for cp in chis:
            # jump of the normal derivative of the projection vanishes
            assert np.max(np.abs(st.j1_block @ cp)) < 1e-11 * scale
            for cq in chis:
                assert abs(cp @ st.block @ cq) < 1e-11 * scale

    def test_boundary_edge_j1_closed_form(self):
        # p = x on a vertical boundary edge: energy is lambda * n_x^2
        m = mesh.generate_uniform_squares(1)
        elements = build_elements(m)
        el = elements[0]
        for e in range(m.n_edges):
            st = edge_stencil(m, e, elements, lam=13.0)
            tail, head = m.edges[e]
            j = next(jj for jj, (eid, _) in enumerate(m.cell_edges[0]) if eid == e)
            n_x = el.geometry.normals[j][0]
            coeffs = np.array([0.5, el.basis.diameter, 0, 0, 0, 0])  # p = x
            chi = el.dof_vector(coeffs)
            energy = chi @ st.j1_block @ chi
            assert energy == pytest.approx(13.0 * n_x**2, rel=1e-12, abs=1e-13)

    def test_j2_j3_transpose_structure(self):
        m, elements = two_squares()
        interior = int(np.flatnonzero(~m.boundary_edge)[0])
        st = edge_stencil(m, interior, elements, lam=5.0)
        consistency = st.block - st.j1_block
        assert np.max(np.abs(consistency - consistency.T)) < 1e-13 * np.max(np.abs(st.block))
        assert np.max(np.abs(st.block - st.block.T)) < 1e-13 * np.max(np.abs(st.block))

    def test_j1_block_psd(self):
        m, elements = two_squares()
        for e in range(m.n_edges):
            st = edge_stencil(m, e, elements, lam=3.0)
            eig = np.linalg.eigvalsh(0.5 * (st.j1_block + st.j1_block.T))
            assert eig[0] >= -1e-12 * max(1.0, eig[-1])

    def test_build_edge_stencils_counts(self, cvt32, cvt32_elements):
        stencils = build_edge_stencils(cvt32, cvt32_elements, penalty_a=2.0)
        assert len(stencils) == cvt32.n_edges
        for st in stencils:
            n_cols = sum(cvt32_elements[c].n_dofs for c in st.cells)
            assert st.block.shape == (n_cols, n_cols)
            assert st.lam > 0.0


def edge_traces(m, edge_id, elements, chi, t):
    """Jump of dn of the h1 projections at the edge points tail + t (head - tail)
    and the average of their constant d^2/dn^2, with the left cell's normal,
    from each side's polynomial differentiated and evaluated directly;
    ``chi`` stacks the DoFs of the cells in ``edge_cells`` order."""
    tail, head = m.vertices[m.edges[edge_id]]
    pts = tail[None, :] + t[:, None] * (head - tail)[None, :]
    left = int(m.edge_cells[edge_id][0])
    j = next(jj for jj, (e, _) in enumerate(m.cell_edges[left]) if e == edge_id)
    nx, ny = elements[left].geometry.normals[j]
    sides = [int(c) for c in m.edge_cells[edge_id] if c != BOUNDARY]
    jump, avg, start = np.zeros(len(t)), 0.0, 0
    for sign, cid in zip((1.0, -1.0), sides):
        el = elements[cid]
        poly = el.projectors.h1_coeff @ chi[start : start + el.n_dofs]
        Dx, Dy = derivative_matrix(el.basis, "x"), derivative_matrix(el.basis, "y")
        jump += sign * (el.basis.evaluate(pts) @ ((nx * Dx + ny * Dy) @ poly))
        avg += ((nx * nx * Dx @ Dx + 2.0 * nx * ny * Dx @ Dy + ny * ny * Dy @ Dy) @ poly)[0] / len(sides)
        start += el.n_dofs
    return jump, avg


class TestEdgeStencilAgainstGaussLegendre:
    def test_penalty_energy_and_jump_integral_on_every_edge(self, cvt32, cvt32_elements):
        # on every interior and boundary edge, against a 4-point rule:
        # chi^T j1 chi = lam/h_e int_e jump^2 ds, and j2 = -avg (x) int_e jump ds,
        # read through the symmetric consistency block j2 + j2^T
        t, w = gauss_legendre_01(4)
        rng = np.random.default_rng(12)
        for e in range(cvt32.n_edges):
            st = edge_stencil(cvt32, e, cvt32_elements, lam=7.0)
            h_e = float(np.linalg.norm(np.diff(cvt32.vertices[cvt32.edges[e]], axis=0)))
            chi, psi = rng.standard_normal((2, len(st.block)))
            jump_chi, avg_chi = edge_traces(cvt32, e, cvt32_elements, chi, t)
            jump_psi, avg_psi = edge_traces(cvt32, e, cvt32_elements, psi, t)
            energy = 7.0 / h_e * (h_e * (w @ jump_chi**2))
            assert chi @ st.j1_block @ chi == pytest.approx(energy, rel=1e-12)
            consistency = -(avg_chi * h_e * (w @ jump_psi) + avg_psi * h_e * (w @ jump_chi))
            scale = np.max(np.abs(st.block)) * np.linalg.norm(chi) * np.linalg.norm(psi)
            assert abs(chi @ (st.block - st.j1_block) @ psi - consistency) <= 1e-12 * scale


class TestGlobalCoercivity:
    def test_hessian_part_psd_on_free_dofs(self, cvt_sequence):
        # the penalized Hessian form controls the discrete energy norm: its
        # boundary-reduced matrix must be positive semidefinite
        m = cvt_sequence[128]
        elements = build_elements(m)
        lf = forms.build_local_forms(m, elements)
        stencils = build_edge_stencils(m, elements, penalty_a=2.0)
        dof_map = system.number_dofs(m)
        parts = system.build_operator_parts(m, dof_map, lf, stencils)
        free = np.flatnonzero(dof_map.free)
        H = parts.hess[free][:, free].toarray()
        H = 0.5 * (H + H.T)
        eig = np.linalg.eigvalsh(H)
        assert eig[0] >= -1e-9 * np.max(np.abs(H))
