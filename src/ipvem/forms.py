"""Element-local discrete bilinear forms and edge penalty stencils.

The Hessian-energy form pairs the consistency part through the h2 projector
with a DoF-difference stabilization scaled by 1/h_K^2; the gradient form has
the same structure, through the same projector, with a dimensionless
stabilization.  Edge stencils couple the normal-derivative traces of the
h1-projected polynomials of the two incident elements: a penalty block
scaled by the automated edge parameter, plus the symmetric pair of
consistency blocks built from the constant normal-normal second derivatives.
Both are Simpson sums of the traces' values at the edge's tail vertex,
midpoint and head vertex, which each element stores; at k = 2 a trace is
linear along the edge, so its square has degree 2 and the sums are exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import ORDER, QUAD_ORDER, SIMPSON, polygon_quadrature
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
    when present).
    """

    edge_id: int
    lam: float
    block: np.ndarray
    j1_block: np.ndarray
    cells: tuple


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


def local_load(element, f):
    """Load vector (f, l2-projection of each DoF basis function).

    ``f`` maps (x, y) arrays to values; the cell integrals use the centroid
    fan with a rule of order ``QUAD_ORDER``.
    """
    pts, w = polygon_quadrature(element.geometry, QUAD_ORDER)
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


def _local_edge(mesh, cell, edge_id):
    return next(j for j, (e, _) in enumerate(mesh.cell_edges[cell]) if e == edge_id)


def _second_normal_derivative(element, normal):
    """Constant d^2/dn^2 of the h1-projected polynomial, one entry per DoF.

    On the scaled basis 1, xi, eta, xi^2, xi eta, eta^2 the Hessian of the
    polynomial c is (2 c3, c4, 2 c5) / h^2.
    """
    P = element.projectors.h1_coeff
    nx, ny = normal
    return 2.0 * (nx * nx * P[3] + nx * ny * P[4] + ny * ny * P[5]) / element.basis.diameter**2


def edge_stencil(mesh, edge_id, elements, lam):
    """J-coupling block of one edge.

    Jump means left trace minus right trace and the average is the arithmetic
    mean, both taken with the left cell's outward normal; on boundary edges
    both reduce to the single trace.  Each side reads the normal derivative
    of its h1 projection at the edge's tail, midpoint and head, which is
    linear along the edge, so Simpson sums of those values integrate the
    jump and its square exactly.
    """
    left, right = (int(c) for c in mesh.edge_cells[edge_id])
    el_left = elements[left]
    j = _local_edge(mesh, left, edge_id)
    h_e = el_left.geometry.edge_lengths[j]
    normal = el_left.geometry.normals[j]
    jump = el_left.edge_normal_trace[j]                 # (3, n_dof)
    avg = _second_normal_derivative(el_left, normal)
    cells = (left,)
    if right != BOUNDARY:
        el_right = elements[right]
        # the right cell walks the edge head to tail with the opposite normal
        jump = np.hstack([jump, el_right.edge_normal_trace[_local_edge(mesh, right, edge_id)][::-1]])
        avg = 0.5 * np.concatenate([avg, _second_normal_derivative(el_right, normal)])
        cells = (left, right)

    j1 = lam * jump.T @ (SIMPSON[:, None] * jump)
    # rows test the average, columns carry the trial jump
    j2 = -np.outer(avg, h_e * SIMPSON @ jump)
    return EdgeStencil(edge_id=int(edge_id), lam=float(lam), block=j1 + j2 + j2.T, j1_block=j1, cells=cells)


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
