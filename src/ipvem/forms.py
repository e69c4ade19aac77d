"""Element-local discrete bilinear forms and edge penalty stencils.

The Hessian-energy form pairs the consistency part through the h2 projector
with a DoF-difference stabilization scaled by 1/h_K^2; the gradient form has
the same structure, through the same projector, with a dimensionless
stabilization.  Edge stencils couple the normal-derivative traces of the
h1-projected polynomials of the two incident elements: a penalty block
scaled by the automated edge parameter, plus the symmetric pair of
consistency blocks built from the constant normal-normal second derivatives.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import ORDER, derivative_matrix, edge_trace_matrix, polygon_quadrature, sigma_integrals
from .mesh import BOUNDARY, virtual_triangles


@dataclass(frozen=True)
class PenaltyConfig:
    """Penalty constant and the mesh-wide maximum edge count."""

    a: float
    n_k: int

    def __post_init__(self):
        if not self.a > 1.0:
            raise ValueError(f"penalty constant a must exceed 1, got {self.a}")
        if self.n_k < 3:
            raise ValueError("max edges per cell must be at least 3")


@dataclass(eq=False)
class LocalForms:
    """Hessian-energy and gradient-energy blocks of one element."""

    cell_id: int
    a_matrix: np.ndarray
    b_matrix: np.ndarray


@dataclass(eq=False)
class EdgeStencil:
    """Coupling block of one edge over the stacked DoFs of its elements.

    ``cells`` lists the incident cell ids in column order (left, then right
    when present); ``n_dofs`` gives the per-cell column counts.
    """

    edge_id: int
    lam: float
    block: np.ndarray
    j1_block: np.ndarray
    cells: tuple
    n_dofs: tuple


def local_a_form(element):
    """Consistency through the h2 projector plus 1/h^2-scaled stabilization."""
    P = element.projectors.h2_coeff
    Pd = element.projectors.h2_dof
    n = element.n_dofs
    stab = np.eye(n) - Pd
    return P.T @ element.hess_gram @ P + stab.T @ stab / element.geometry.diameter**2


def local_b_form(element):
    """Gradient-energy consistency through the h2 projector (the form the
    reference convergence figures correspond to) plus dimensionless
    stabilization."""
    P = element.projectors.h2_coeff
    stab = np.eye(element.n_dofs) - element.projectors.h2_dof
    return P.T @ element.grad_gram @ P + stab.T @ stab


def local_load(element, f, quad_order=8):
    """Load vector (f, l2-projection of each DoF basis function).

    ``f`` maps (x, y) arrays to values; the cell integrals use the centroid
    fan with a rule of the requested order.
    """
    pts, w = polygon_quadrature(element.geometry, quad_order)
    fvals = np.asarray(f(pts[:, 0], pts[:, 1]), dtype=float)
    moments = (w * fvals) @ element.basis.evaluate(pts)
    return element.projectors.l2_coeff.T @ moments


def penalty_parameter(h_e, triangle_areas, config, k=ORDER):
    """Automated edge penalty from the areas of the adjacent virtual triangles."""
    areas = [float(t) for t in triangle_areas]
    if any(a <= 0.0 for a in areas):
        raise ValueError("virtual triangle with nonpositive area")
    scale = config.a * config.n_k * k * (k - 1) * h_e**2
    if len(areas) == 2:
        return scale / 4.0 * (1.0 / areas[0] + 1.0 / areas[1])
    if len(areas) == 1:
        return scale / (2.0 * areas[0])
    raise ValueError("an edge has one or two virtual triangles")


def _side_trace_maps(element, tail_pt, head_pt, normal):
    """Normal-derivative trace (as sigma-coefficients) and the constant
    normal-normal second derivative of the h1-projected polynomial."""
    basis = element.basis
    P = element.projectors.h1_coeff
    Dx = derivative_matrix(basis, "x")
    Dy = derivative_matrix(basis, "y")
    normal_deriv = normal[0] * Dx + normal[1] * Dy
    T = edge_trace_matrix(basis, tail_pt, head_pt)
    jump_map = T @ normal_deriv @ P                      # (deg+1, n_dof)
    hess_nn = (
        normal[0] ** 2 * (Dx @ Dx)[0]
        + 2.0 * normal[0] * normal[1] * (Dx @ Dy)[0]
        + normal[1] ** 2 * (Dy @ Dy)[0]
    )
    second = hess_nn @ P                                # (n_dof,)
    return jump_map, second


def edge_stencil(mesh, edge_id, elements, lam):
    """J-coupling block of one edge.

    Jump means left trace minus right trace and the average is the arithmetic
    mean, both taken with the left cell's outward normal; on boundary edges
    both reduce to the single trace.  The trace polynomials have degree at
    most k, so the closed-form sigma-moments integrate everything exactly.
    """
    tail, head = mesh.edges[edge_id]
    a_pt, b_pt = mesh.vertices[tail], mesh.vertices[head]
    h_e = float(np.linalg.norm(b_pt - a_pt))
    left, right = mesh.edge_cells[edge_id]
    el_left = elements[left]
    j_left = next(j for j, (e, _) in enumerate(mesh.cell_edges[left]) if e == edge_id)
    normal = el_left.geometry.normals[j_left]

    jump_l, second_l = _side_trace_maps(el_left, a_pt, b_pt, normal)
    if right == BOUNDARY:
        jump = jump_l
        avg = second_l
        cells = (int(left),)
        n_dofs = (el_left.n_dofs,)
    else:
        el_right = elements[right]
        jump_r, second_r = _side_trace_maps(el_right, a_pt, b_pt, normal)
        jump = np.hstack([jump_l, -jump_r])
        avg = 0.5 * np.hstack([second_l, second_r])
        cells = (int(left), int(right))
        n_dofs = (el_left.n_dofs, el_right.n_dofs)

    deg = jump.shape[0] - 1
    sig = sigma_integrals(2 * deg)
    mass = h_e * np.array([[sig[i + j] for j in range(deg + 1)] for i in range(deg + 1)])
    moments = h_e * sig[: deg + 1]

    j1 = (lam / h_e) * jump.T @ mass @ jump
    jump_integral = moments @ jump
    # rows test the average, columns carry the trial jump
    j2 = -np.outer(avg, jump_integral)
    block = j1 + j2 + j2.T
    return EdgeStencil(
        edge_id=int(edge_id),
        lam=float(lam),
        block=block,
        j1_block=j1,
        cells=cells,
        n_dofs=n_dofs,
    )


def build_local_forms(mesh, elements):
    return [LocalForms(el.cell_id, local_a_form(el), local_b_form(el)) for el in elements]


def max_edges_per_cell(mesh):
    return max(len(cell) for cell in mesh.cells)


def build_edge_stencils(mesh, elements, penalty_a=2.0):
    """Stencils for every edge with the automated penalty parameter."""
    config = PenaltyConfig(a=penalty_a, n_k=max_edges_per_cell(mesh))
    out = []
    for e in range(mesh.n_edges):
        tris = virtual_triangles(mesh, e)
        h_e = float(np.linalg.norm(np.diff(mesh.vertices[mesh.edges[e]], axis=0)))
        lam = penalty_parameter(h_e, [t.area for t in tris], config)
        out.append(edge_stencil(mesh, e, elements, lam))
    return out
