"""Per-element DoF layout and the three computable projectors.

For the lowest order (k = 2) every element carries one value per vertex, one
value per edge midpoint (the interior Gauss-Lobatto node) and one constant
moment.  Three polynomial images of a DoF vector are available:

* ``h1`` - the gradient projector, assembled from the divergence-theorem
  right-hand side with Gauss-Lobatto edge sums and closed by the
  vertex-average constraint;
* ``h2`` - the Hessian-energy projector, whose right-hand side is computable
  from the DoFs because the space constrains edge normal-derivative moments
  to match those of the gradient projection, and which is closed by boundary
  quasi-averages of the value and the gradient;
* ``l2`` - the value projector, using the interior moment for the constant
  test function and the gradient projection for the higher ones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import (
    ORDER,
    PolyCoeffs,
    ScaledMonomialBasis,
    derivative_matrix,
    edge_trace_matrix,
    gauss_lobatto,
    laplacian_matrix,
    monomial_exponents,
    monomial_integral_table,
    sigma_integrals,
)


@dataclass(eq=False)
class DofLayout:
    """Local DoF layout of one element: vertices, edge nodes, then moments."""

    n_vertices: int
    points: np.ndarray          # (2m, 2) vertex coords then edge midpoints

    @property
    def n_edge_nodes(self):
        return self.n_vertices  # k - 1 = 1 node per edge

    @property
    def n_moments(self):
        return 1  # dim P_{k-2}

    @property
    def n_dofs(self):
        return self.n_vertices + self.n_edge_nodes + self.n_moments

    @property
    def moment_index(self):
        return self.n_vertices + self.n_edge_nodes


@dataclass(eq=False)
class ProjectorSet:
    """Coefficient and DoF forms of the three projectors plus constraint data."""

    h1_coeff: np.ndarray        # (6, n_dof)
    h1_dof: np.ndarray          # (n_dof, n_dof)
    h2_coeff: np.ndarray
    h2_dof: np.ndarray
    l2_coeff: np.ndarray
    dof_matrix: np.ndarray      # (n_dof, 6): chi_i(m_beta)
    vertex_average: tuple       # (row over poly coeffs, row over dofs)
    quasi_averages: tuple       # ((3, 6) poly rows, (3, n_dof) dof rows)


@dataclass(eq=False)
class ElementContext:
    """Everything element-local the forms and error evaluation need."""

    cell_id: int
    geometry: object
    basis: ScaledMonomialBasis
    layout: DofLayout
    integrals: np.ndarray       # exact scaled-monomial integrals, degree <= 4
    mass: np.ndarray            # (m_a, m_b)_K
    grad_gram: np.ndarray       # (grad m_a, grad m_b)_K
    hess_gram: np.ndarray       # (hess m_a : hess m_b)_K
    edge_normal_flux: np.ndarray  # (m, n_dof): int_e dn(h1 proj .) ds per edge
    projectors: ProjectorSet

    @property
    def n_dofs(self):
        return self.layout.n_dofs

    def dof_vector(self, coeffs):
        """DoFs of the polynomial with the given coefficient vector."""
        return self.projectors.dof_matrix @ np.asarray(coeffs, dtype=float)


def build_dof_layout(geometry):
    """Vertex values, interior Gauss-Lobatto edge values, interior moments."""
    points = np.vstack([geometry.vertices, geometry.edge_midpoints])
    return DofLayout(n_vertices=geometry.n_edges, points=points)


def dofs_of_polynomial(element, coeffs):
    """Evaluate the DoF functionals on a known polynomial (the test oracle).

    Point DoFs are plain evaluations; the moment is the exact cell average.
    """
    poly = coeffs.values if isinstance(coeffs, PolyCoeffs) else np.asarray(coeffs, dtype=float)
    values = np.empty(element.layout.n_dofs)
    pts = element.layout.points
    values[: len(pts)] = element.basis.evaluate(pts) @ poly
    values[element.layout.moment_index] = (element.integrals[: len(poly)] @ poly) / element.geometry.area
    return values


def _dof_matrix(geometry, basis, layout, integrals):
    D = np.empty((layout.n_dofs, basis.dim))
    D[: 2 * layout.n_vertices] = basis.evaluate(layout.points)
    D[layout.moment_index] = integrals[: basis.dim] / geometry.area
    return D


def _mass_matrix(basis, integrals, table_exponents):
    dim = basis.dim
    M = np.empty((dim, dim))
    for a, ea in enumerate(basis.exponents):
        for b, eb in enumerate(basis.exponents):
            M[a, b] = integrals[table_exponents[(ea[0] + eb[0], ea[1] + eb[1])]]
    return M


def build_h1_projector(geometry, basis, layout, grad_gram, dof_matrix):
    """Gradient projector from moment and Gauss-Lobatto boundary data.

    For each monomial test function the right-hand side is the exact cell
    term -(v, lap q) read off the moment DoF plus per-edge Gauss-Lobatto sums
    of v dn(q), which involve only the point DoFs.  The constant-ambiguity of
    the gradient system is removed by matching the vertex average.
    """
    Dx = derivative_matrix(basis, "x")
    Dy = derivative_matrix(basis, "y")
    m = layout.n_vertices
    rule = gauss_lobatto(ORDER)
    B = np.zeros((basis.dim, layout.n_dofs))
    lap = laplacian_matrix(basis)
    # -(v, lap q)_K: lap q is constant at k = 2, so only the moment DoF enters
    B[:, layout.moment_index] = -lap[0, :] * geometry.area
    verts = geometry.vertices
    for j in range(m):
        a, b = verts[j], verts[(j + 1) % m]
        h_e = geometry.edge_lengths[j]
        n_e = geometry.normals[j]
        nodes = a[None, :] + np.asarray(rule.nodes)[:, None] * (b - a)[None, :]
        # dn(q) at the Gauss-Lobatto nodes for every monomial q, (n_nodes, dim)
        vals = basis.evaluate(nodes)
        dn = n_e[0] * (vals @ Dx) + n_e[1] * (vals @ Dy)
        cols = (j, m + j, (j + 1) % m)  # tail vertex, midpoint, head vertex
        for node, col in enumerate(cols):
            B[:, col] += h_e * rule.weights[node] * dn[node]

    # vertex-average constraint replaces the (identically zero) constant row
    constraint_poly = basis.evaluate(verts).mean(axis=0)
    constraint_dof = np.zeros(layout.n_dofs)
    constraint_dof[:m] = 1.0 / m
    G = grad_gram.copy()
    G[0] = constraint_poly
    B[0] = constraint_dof
    try:
        coeff = np.linalg.solve(G, B)
    except np.linalg.LinAlgError as exc:
        raise ArithmeticError(f"singular gradient-projector system on cell {geometry.cell_id}") from exc
    return coeff, dof_matrix @ coeff, (constraint_poly, constraint_dof)


def _edge_monomial_integrals(geometry, basis):
    """Per-edge exact integrals of each basis monomial."""
    m = geometry.n_edges
    sig = sigma_integrals(basis.degree)
    rows = np.empty((m, basis.dim))
    verts = geometry.vertices
    for j in range(m):
        a, b = verts[j], verts[(j + 1) % m]
        T = edge_trace_matrix(basis, a, b)
        rows[j] = geometry.edge_lengths[j] * (sig @ T)
    return rows


def build_h2_projector(geometry, basis, layout, hess_gram, dof_matrix, edge_normal_flux):
    """Hessian-energy projector closed by boundary quasi-averages.

    Working edge by edge, the Hessian energy against a quadratic test
    function reduces to boundary terms: the constant normal-normal second
    derivative of the test function times the edge integral of the normal
    derivative (shared with the gradient projection by construction of the
    space), plus the constant normal-tangential one times the difference of
    the endpoint values.  The three-dimensional affine kernel is pinned by
    the boundary mean of the value and of the gradient.
    """
    m = layout.n_vertices
    verts = geometry.vertices
    perimeter = geometry.perimeter
    Dx = derivative_matrix(basis, "x")
    Dy = derivative_matrix(basis, "y")
    # constant second derivatives of every test monomial
    hxx, hxy, hyy = (Dx @ Dx)[0], (Dx @ Dy)[0], (Dy @ Dy)[0]

    rhs = np.zeros((basis.dim, layout.n_dofs))
    grad_hat_dof = np.zeros((2, layout.n_dofs))
    for j in range(m):
        n_e = geometry.normals[j]
        t_e = geometry.tangents[j]
        tail, head = j, (j + 1) % m
        endpoint_diff = np.zeros(layout.n_dofs)
        endpoint_diff[head] += 1.0
        endpoint_diff[tail] -= 1.0
        flux = edge_normal_flux[j]
        q_nn = n_e[0] * (hxx * n_e[0] + hxy * n_e[1]) + n_e[1] * (hxy * n_e[0] + hyy * n_e[1])
        q_nt = t_e[0] * (hxx * n_e[0] + hxy * n_e[1]) + t_e[1] * (hxy * n_e[0] + hyy * n_e[1])
        rhs += np.outer(q_nn, flux) + np.outer(q_nt, endpoint_diff)
        grad_hat_dof[0] += n_e[0] * flux + t_e[0] * endpoint_diff
        grad_hat_dof[1] += n_e[1] * flux + t_e[1] * endpoint_diff
    grad_hat_dof /= perimeter

    # boundary mean of the value: exact on the polynomial side, Gauss-Lobatto
    # point sums on the DoF side (exact whenever the trace has degree <= 3)
    edge_int = _edge_monomial_integrals(geometry, basis)
    hat_poly = edge_int.sum(axis=0) / perimeter
    rule = gauss_lobatto(ORDER)
    hat_dof = np.zeros(layout.n_dofs)
    for j in range(m):
        h_e = geometry.edge_lengths[j]
        hat_dof[j] += h_e * rule.weights[0]
        hat_dof[m + j] += h_e * rule.weights[1]
        hat_dof[(j + 1) % m] += h_e * rule.weights[2]
    hat_dof /= perimeter

    # exact boundary mean of each gradient component of the monomials
    boundary_rows = edge_int.sum(axis=0)
    grad_hat_poly = np.vstack([boundary_rows @ Dx, boundary_rows @ Dy]) / perimeter

    constraint_poly = np.vstack([hat_poly, grad_hat_poly])
    constraint_dof = np.vstack([hat_dof, grad_hat_dof])
    # the three affine test rows are identically zero on both sides
    H = hess_gram.copy()
    H[:3] = constraint_poly
    rhs[:3] = constraint_dof
    try:
        coeff = np.linalg.solve(H, rhs)
    except np.linalg.LinAlgError as exc:
        raise ArithmeticError(f"singular hessian-projector system on cell {geometry.cell_id}") from exc
    return coeff, dof_matrix @ coeff, (constraint_poly, constraint_dof)


def build_l2_projector(geometry, layout, mass, h1_coeff):
    """Value projector: interior moment for the constant, gradient projection
    for the higher test functions (the usual computability substitution)."""
    C = mass @ h1_coeff
    moment_row = np.zeros(layout.n_dofs)
    moment_row[layout.moment_index] = geometry.area
    C[0] = moment_row
    return np.linalg.solve(mass, C)


def quasi_average(element, coeffs):
    """Perimeter-weighted boundary mean of a cell polynomial."""
    poly = coeffs.values if isinstance(coeffs, PolyCoeffs) else np.asarray(coeffs, dtype=float)
    rows = _edge_monomial_integrals(element.geometry, element.basis)
    return float(rows.sum(axis=0) @ poly) / element.geometry.perimeter


def build_element(mesh, cell_id):
    """Assemble the full per-element context with all three projectors."""
    geometry = mesh.geometry(cell_id)
    basis = ScaledMonomialBasis(geometry.centroid, geometry.diameter, ORDER)
    layout = build_dof_layout(geometry)
    # products of two basis members need integrals up to degree 2k
    integrals = monomial_integral_table(geometry, 2 * ORDER)
    table_index = {e: i for i, e in enumerate(monomial_exponents(2 * ORDER))}
    mass = _mass_matrix(basis, integrals, table_index)
    Dx = derivative_matrix(basis, "x")
    Dy = derivative_matrix(basis, "y")
    grad_gram = Dx.T @ mass @ Dx + Dy.T @ mass @ Dy
    Dxx, Dxy, Dyy = Dx @ Dx, Dx @ Dy, Dy @ Dy
    hess_gram = Dxx.T @ mass @ Dxx + 2.0 * Dxy.T @ mass @ Dxy + Dyy.T @ mass @ Dyy

    dof_matrix = _dof_matrix(geometry, basis, layout, integrals)
    h1_coeff, h1_dof, vertex_average = build_h1_projector(geometry, basis, layout, grad_gram, dof_matrix)

    # per-edge integrals of the normal derivative of the projected polynomial
    m = layout.n_vertices
    edge_flux = np.empty((m, layout.n_dofs))
    sig = sigma_integrals(basis.degree)
    for j in range(m):
        a, b = geometry.vertices[j], geometry.vertices[(j + 1) % m]
        n_e = geometry.normals[j]
        T = edge_trace_matrix(basis, a, b)
        normal_deriv = n_e[0] * Dx + n_e[1] * Dy
        edge_flux[j] = geometry.edge_lengths[j] * (sig @ T @ normal_deriv @ h1_coeff)

    h2_coeff, h2_dof, quasi = build_h2_projector(geometry, basis, layout, hess_gram, dof_matrix, edge_flux)
    l2_coeff = build_l2_projector(geometry, layout, mass, h1_coeff)

    projectors = ProjectorSet(
        h1_coeff=h1_coeff,
        h1_dof=h1_dof,
        h2_coeff=h2_coeff,
        h2_dof=h2_dof,
        l2_coeff=l2_coeff,
        dof_matrix=dof_matrix,
        vertex_average=vertex_average,
        quasi_averages=quasi,
    )
    return ElementContext(
        cell_id=cell_id,
        geometry=geometry,
        basis=basis,
        layout=layout,
        integrals=integrals,
        mass=mass,
        grad_gram=grad_gram,
        hess_gram=hess_gram,
        edge_normal_flux=edge_flux,
        projectors=projectors,
    )


def build_elements(mesh):
    """Element contexts for every cell; independent pure computations."""
    return [build_element(mesh, c) for c in range(mesh.n_cells)]
