"""Per-element DoF layout and the three computable projectors.

For the lowest order (k = 2) every element carries one value per vertex, one
value per edge midpoint (the interior Gauss-Lobatto node) and one constant
moment.  Three polynomial images of a DoF vector are available:

* ``h1`` - the gradient projector, assembled from the divergence-theorem
  right-hand side with Simpson edge sums and closed by the vertex-average
  constraint;
* ``h2`` - the Hessian-energy projector, whose right-hand side is computable
  from the DoFs because the space constrains edge normal-derivative moments
  to match those of the gradient projection, and which is closed by boundary
  quasi-averages of the value and the gradient;
* ``l2`` - the value projector, using the interior moment for the constant
  test function and the gradient projection for the higher ones.

Every edge integral is Simpson's rule at the edge's tail vertex, midpoint
and head vertex, which are DoF points.  At k = 2 no edge integrand has
degree above 3 (a quadratic trace times a linear normal derivative), so the
rule is exact, and all edge data of an element comes from one tensor: the
normal derivatives of the monomials at those three points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import (
    ORDER,
    SIMPSON,
    PolyCoeffs,
    ScaledMonomialBasis,
    derivative_matrix,
    monomial_exponents,
    monomial_integral_table,
)


@dataclass(eq=False)
class DofLayout:
    """Local DoF layout of one element: vertices, edge nodes, then moments."""

    n_vertices: int
    points: np.ndarray          # (2m, 2) vertex coords then edge midpoints
    edge_nodes: np.ndarray      # (m, 3) DoFs of each edge's tail vertex, midpoint, head vertex

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
    edge_normal_trace: np.ndarray  # (m, 3, n_dof): dn(h1 proj .) at edge tail, midpoint, head
    projectors: ProjectorSet

    @property
    def n_dofs(self):
        return self.layout.n_dofs

    def dof_vector(self, coeffs):
        """DoFs of the polynomial with the given coefficient vector."""
        return self.projectors.dof_matrix @ np.asarray(coeffs, dtype=float)


def build_dof_layout(geometry):
    """Vertex values, interior Gauss-Lobatto edge values, interior moments."""
    m = geometry.n_edges
    points = np.vstack([geometry.vertices, geometry.edge_midpoints])
    j = np.arange(m)
    return DofLayout(n_vertices=m, points=points, edge_nodes=np.column_stack([j, m + j, (j + 1) % m]))


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


def build_h1_projector(geometry, layout, grad_gram, laplacian, dof_matrix, edge_weights, edge_dn):
    """Gradient projector from moment and boundary point data.

    For each monomial test function q the right-hand side is
    -(v, lap q)_K + sum_e int_e v dn(q) ds.  ``laplacian`` holds the constant
    lap q of every monomial, so the cell term reads only the moment DoF; the
    edge terms are Simpson sums of the point DoFs against ``edge_dn``, the
    (m, 3, dim) normal derivatives of the monomials at each edge's nodes,
    weighted by ``edge_weights`` = h_e * SIMPSON.  The constant ambiguity of
    the gradient system is removed by matching the vertex average.
    """
    m = layout.n_vertices
    B = np.zeros((layout.n_dofs, len(laplacian)))
    np.add.at(B, layout.edge_nodes, edge_weights[:, :, None] * edge_dn)
    B[layout.moment_index] = -laplacian * geometry.area
    B = B.T

    # vertex-average constraint replaces the (identically zero) constant row
    constraint_poly = dof_matrix[:m].mean(axis=0)
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


def build_h2_projector(geometry, layout, hess_gram, hessian, Dx, Dy, dof_matrix, edge_weights, edge_flux):
    """Hessian-energy projector closed by boundary quasi-averages.

    The Hessian of a quadratic test function q is the constant ``hessian``
    (2, 2, dim), so (D^2 q, D^2 v)_K = sum_e (D^2 q n_e) . int_e grad v ds
    with int_e grad v ds = n_e int_e dn v ds + t_e (v(head) - v(tail)); the
    space makes int_e dn v ds equal to ``edge_flux``, that of the gradient
    projection.  The three-dimensional affine kernel is pinned by the
    boundary means of the value and of the gradient; the value's is a
    Simpson sum, exact on both the DoF and the polynomial side.
    """
    m, n = layout.n_vertices, layout.n_dofs
    nodes = layout.edge_nodes
    normals, tangents = geometry.normals, geometry.tangents
    endpoint_diff = np.zeros((m, n))
    endpoint_diff[np.arange(m), nodes[:, 2]] += 1.0
    endpoint_diff[np.arange(m), nodes[:, 0]] -= 1.0
    # int_e grad v ds for every DoF basis function v, (m, 2, n)
    edge_grad = normals[:, :, None] * edge_flux[:, None, :] + tangents[:, :, None] * endpoint_diff[:, None, :]
    rhs = np.einsum("abk,ea,ebn->kn", hessian, normals, edge_grad)

    hat_dof = np.bincount(nodes.ravel(), weights=edge_weights.ravel(), minlength=n) / geometry.perimeter
    hat_poly = hat_dof @ dof_matrix
    constraint_poly = np.vstack([hat_poly, hat_poly @ Dx, hat_poly @ Dy])
    constraint_dof = np.vstack([hat_dof, edge_grad.sum(axis=0) / geometry.perimeter])
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
    # constant second derivatives of every monomial, (2, 2, dim)
    hessian = np.array([[Dxx[0], Dxy[0]], [Dxy[0], Dyy[0]]])

    dof_matrix = _dof_matrix(geometry, basis, layout, integrals)
    # the monomials' normal derivatives at each edge's DoF points, (m, 3, dim)
    values = dof_matrix[layout.edge_nodes]
    nx, ny = geometry.normals.T[:, :, None, None]
    edge_dn = nx * (values @ Dx) + ny * (values @ Dy)
    edge_weights = geometry.edge_lengths[:, None] * SIMPSON

    h1_coeff, h1_dof, vertex_average = build_h1_projector(
        geometry, layout, grad_gram, hessian[0, 0] + hessian[1, 1], dof_matrix, edge_weights, edge_dn
    )
    edge_normal_trace = edge_dn @ h1_coeff
    edge_flux = np.einsum("ek,ekn->en", edge_weights, edge_normal_trace)
    h2_coeff, h2_dof, quasi = build_h2_projector(
        geometry, layout, hess_gram, hessian, Dx, Dy, dof_matrix, edge_weights, edge_flux
    )
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
        edge_normal_trace=edge_normal_trace,
        projectors=projectors,
    )


def build_elements(mesh):
    """Element contexts for every cell; independent pure computations."""
    return [build_element(mesh, c) for c in range(mesh.n_cells)]
