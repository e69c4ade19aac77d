"""Element-local discrete bilinear forms and the edge-trace operators of the
interior penalty, for every element and edge at once.

The Hessian-energy form pairs the consistency part through the h2 projector
with a DoF-difference stabilization scaled by 1/h_K^2; the gradient form has
the same structure with a dimensionless stabilization.  The edge terms come
from two sparse operators on the global DoFs: the jump J of the normal
derivative of the h1 projections, one row per edge and Simpson point (tail,
midpoint, head), and the average A of their constant second normal
derivatives, one row per edge.  A trace is linear along an edge at k = 2,
so Simpson sums are exact: the penalty form is J^T diag(lam_e SIMPSON) J
and the consistency pair j2 + j2^T has j2 = -A^T diag(h_e) S J, where S sums
each edge's three rows with the Simpson weights.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .basis import ORDER, SIMPSON
from .mesh import BOUNDARY, virtual_triangle_areas


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


@dataclass(eq=False)
class CellForms:
    """Stacked a and b forms of every element, (C, N, N), zero past each
    cell's DoFs; ``forms[i]`` is the :class:`LocalForms` view of row ``i``."""

    elements: object
    a: np.ndarray
    b: np.ndarray

    def __len__(self):
        return len(self.a)

    def __getitem__(self, i):
        n = int(self.elements.n_dofs[i])
        return LocalForms(int(self.elements.geometry.cells[i]), self.a[i, :n, :n], self.b[i, :n, :n])


def _stabilized(P, Pd, gram, scale, eye):
    """P^T gram P + (eye - Pd)^T (eye - Pd) / scale, on one element or a stack."""
    stab = eye - Pd
    return np.swapaxes(P, -1, -2) @ gram @ P + np.swapaxes(stab, -1, -2) @ stab / scale


def local_a_form(element):
    """Consistency through the h2 projector plus 1/h^2-scaled stabilization."""
    pr = element.projectors
    return _stabilized(pr.h2_coeff, pr.h2_dof, element.hess_gram, element.geometry.diameter**2, np.eye(element.n_dofs))


def local_b_form(element):
    """Gradient-energy consistency through the h2 projector (the form the
    reference convergence figures correspond to) plus dimensionless
    stabilization."""
    pr = element.projectors
    return _stabilized(pr.h2_coeff, pr.h2_dof, element.grad_gram, 1.0, np.eye(element.n_dofs))


def build_local_forms(mesh, elements):
    """Both forms of every element of the stacked ``elements`` at once."""
    P = elements.h2_coeff
    Pd = elements.dof_matrix @ P
    eye = elements.dof_mask[:, None, :] * np.eye(P.shape[2])
    return CellForms(
        elements,
        _stabilized(P, Pd, elements.hess_gram, elements.geometry.diameter[:, None, None] ** 2, eye),
        _stabilized(P, Pd, elements.grad_gram, 1.0, eye),
    )


def penalty_parameter(h_e, triangle_areas, config, k=ORDER):
    """Automated edge penalty from the areas of the adjacent virtual triangles.

    A boundary edge has one virtual triangle, which counts twice.  Works
    elementwise on arrays of edge lengths and areas.
    """
    areas = [np.asarray(t, dtype=float) for t in triangle_areas]
    if len(areas) not in (1, 2):
        raise ValueError("an edge has one or two virtual triangles")
    if any(np.any(a <= 0.0) for a in areas):
        raise ValueError("virtual triangle with nonpositive area")
    scale = config.a * config.n_k * k * (k - 1) * np.asarray(h_e, dtype=float) ** 2
    return scale / 4.0 * (1.0 / areas[0] + 1.0 / areas[-1])


def _trace_operators(elements, c, j, row, cols, shape, interior):
    """Sparse jump and average operators, of shape (3 E, n) and (E, n) for
    ``shape`` = (E, n), of the edge sides ``(c, j)``: local edge ``j`` of
    element row ``c`` lies on edge ``row`` and numbers its DoFs ``cols``.

    Jump means left trace minus right trace and the average is the
    arithmetic mean, both with the left cell's outward normal; on boundary
    edges both reduce to the single trace.  The right cell's own normal is
    the opposite one, so its trace enters with a plus sign, and it walks the
    edge head to tail, so its points are reversed.  The polynomial c has the
    second normal derivative 2 (nx^2 c3 + nx ny c4 + ny^2 c5) / h^2.
    """
    g = elements.geometry
    # one entry per side and own DoF column
    side, col = np.nonzero(elements.dof_mask[c])
    cs, js, rs, cols = c[side], j[side], row[side], cols[side, col]
    point = np.where(g.left[cs, js][:, None], [0, 1, 2], [2, 1, 0])
    jump_values = elements.edge_normal_trace[cs, js, :, col].ravel()
    jump = sp.csr_matrix(
        (jump_values, ((3 * rs[:, None] + point).ravel(), np.repeat(cols, 3))), shape=(3 * shape[0], shape[1])
    )
    P = elements.h1_coeff[cs, :, col]
    nx, ny = g.normals[cs, js, 0], g.normals[cs, js, 1]
    second = 2.0 * (nx * nx * P[:, 3] + nx * ny * P[:, 4] + ny * ny * P[:, 5]) / g.diameter[cs] ** 2
    second = np.where(interior[rs], 0.5, 1.0) * second
    return jump, sp.csr_matrix((second, (rs, cols)), shape=shape)


def _coupling(jump, average, lam, h):
    """(j1, j2): the penalty form J^T diag(lam_e SIMPSON) J and the
    consistency part -A^T diag(h_e) S J, where rows test the average and
    columns carry the trial jump."""
    n_edges = len(lam)
    weights = sp.diags(np.repeat(lam, 3) * np.tile(SIMPSON, n_edges))
    simpson = sp.kron(sp.identity(n_edges), SIMPSON[None, :], format="csr")
    j1 = jump.T @ (weights @ jump)
    j2 = -(average.T @ (sp.diags(h) @ (simpson @ jump)))
    return j1.tocsr(), j2.tocsr()


@dataclass(eq=False)
class EdgeTraces:
    """The edge-trace operators J (rows 3e + k: edge e at its tail, midpoint
    and head) and A (row e) of one mesh on its global DoFs, with each edge's
    penalty ``lam`` and length ``h``; ``traces[e]`` is the
    :class:`EdgeStencil` view of edge e."""

    mesh: object
    elements: object
    jump: sp.csr_matrix         # (3 E, n_dofs)
    average: sp.csr_matrix      # (E, n_dofs)
    lam: np.ndarray             # (E,)
    h: np.ndarray               # (E,)

    def coupling(self):
        return _coupling(self.jump, self.average, self.lam, self.h)

    def __len__(self):
        return len(self.lam)

    def __getitem__(self, e):
        return edge_stencil(self.mesh, e, self.elements, self.lam[e])


def edge_stencil(mesh, edge_id, elements, lam):
    """Coupling block of one edge over the stacked DoFs of its cells (left,
    then right when present): the edge-trace operators of the edge alone,
    with local columns."""
    g = elements.geometry
    c, j = np.nonzero(g.valid & (g.edge_ids == edge_id))
    order = np.argsort(~g.left[c, j], kind="stable")
    c, j = c[order], j[order]
    n = elements.n_dofs[c]
    cols = (np.cumsum(n) - n)[:, None] + np.arange(elements.dofs.shape[1])
    row = np.zeros(len(c), dtype=np.intp)
    jump, average = _trace_operators(elements, c, j, row, cols, (1, n.sum()), np.array([len(c) == 2]))
    j1, j2 = _coupling(jump, average, np.array([lam], dtype=float), g.edge_lengths[c[:1], j[:1]])
    return EdgeStencil(
        edge_id=int(edge_id),
        lam=float(lam),
        block=(j1 + j2 + j2.T).toarray(),
        j1_block=j1.toarray(),
        cells=tuple(int(cell) for cell in g.cells[c]),
    )


def build_edge_stencils(mesh, elements, penalty_a=2.0):
    """The :class:`EdgeTraces` of every edge, with the automated penalty."""
    config = PenaltyConfig(a=penalty_a, n_k=max(map(len, mesh.cells)))
    g = elements.geometry
    c, j = np.nonzero(g.valid)
    row, left = g.edge_ids[c, j], g.left[c, j]
    n_edges = mesh.n_edges
    h = np.empty(n_edges)
    h[row[left]] = g.edge_lengths[c[left], j[left]]
    interior = mesh.edge_cells[:, 1] != BOUNDARY
    areas = virtual_triangle_areas(mesh)
    lam = penalty_parameter(h, [areas[:, 0], np.where(interior, areas[:, 1], areas[:, 0])], config)
    n_dofs = mesh.n_vertices + n_edges + mesh.n_cells
    jump, average = _trace_operators(elements, c, j, row, elements.dofs[c], (n_edges, n_dofs), interior)
    return EdgeTraces(mesh, elements, jump, average, lam, h)
