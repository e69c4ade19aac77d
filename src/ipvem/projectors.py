"""Per-element DoF layout and the three computable projectors, built for
every cell of a mesh at once.

For the lowest order (k = 2) every element carries one value per vertex, one
value per edge midpoint (the interior Gauss-Lobatto node) and one constant
moment.  Three polynomial images of a DoF vector are available: ``h1``, the
gradient projector; ``h2``, the Hessian-energy projector; and ``l2``, the
value projector.  Every edge integral is Simpson's rule at the edge's tail
vertex, midpoint and head vertex, which are DoF points; at k = 2 no edge
integrand has degree above 3, so the rule is exact.

Each projector system is 6 x 6 (dim P_2 = 6) with one right-hand-side
column per local DoF, so each cell is padded to the mesh's largest DoF
count, 2 * (max valence) + 1, with zero columns.  A zero column solves to
exactly zero, so one batched ``np.linalg.solve`` per projector covers every
cell.  Local DoFs keep their per-cell order (vertices, edge midpoints,
moment): a cell with n DoFs owns columns ``:n`` of its row.  The stacked
:class:`Elements` arrays are the only element interface: the forms, the
loads, the error data and the field export read their rows directly.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .basis import (
    ORDER,
    QUAD_ORDER,
    SIMPSON,
    fan_quadrature,
    monomial_exponents,
    monomial_integrals,
    monomials,
)
from .mesh import StackedGeometry

#: derivative matrices of the k = 2 scaled monomials 1, xi, eta, xi^2,
#: xi*eta, eta^2 on a cell of unit diameter: column j holds the
#: coefficients of the partial derivative of member j
_DX, _DY = np.zeros((6, 6)), np.zeros((6, 6))
_DX[[0, 1, 2], [1, 3, 4]] = 1.0, 2.0, 1.0
_DY[[0, 1, 2], [2, 4, 5]] = 1.0, 1.0, 2.0
#: position of each product of two basis members in the degree-2k integrals
_EXPONENTS = monomial_exponents(ORDER)
_PRODUCT = np.array(
    [[monomial_exponents(2 * ORDER).index((a + c, b + d)) for c, d in _EXPONENTS] for a, b in _EXPONENTS]
)


@dataclass(eq=False)
class Elements:
    """Stacked element data of many cells of one mesh.

    Row ``i`` is cell ``i``, with ``n_dofs[i]`` local DoFs;
    DoF columns past that are zero padding (``dofs`` holds 0 there).
    """

    geometry: StackedGeometry
    n_dofs: np.ndarray              # (C,)
    dofs: np.ndarray                # (C, N) global DoF indices
    mass: np.ndarray                # (C, 6, 6)
    grad_gram: np.ndarray
    hess_gram: np.ndarray
    dof_matrix: np.ndarray          # (C, N, 6)
    h1_coeff: np.ndarray            # (C, 6, N)
    h2_coeff: np.ndarray
    l2_coeff: np.ndarray
    edge_normal_trace: np.ndarray   # (C, P, 3, N)

    @functools.cached_property
    def fan_rule(self):
        """The centroid-fan :class:`~ipvem.basis.FanRule` of order
        ``QUAD_ORDER`` on every cell, built once and shared by the loads,
        the exact-solution DoFs and the error evaluation."""
        return fan_quadrature(self.geometry, QUAD_ORDER)

    @property
    def dof_mask(self):
        """(C, N) True on each cell's own DoF columns."""
        return np.arange(self.dofs.shape[1]) < self.n_dofs[:, None]


def _solve(mats, rhs, name):
    try:
        return np.linalg.solve(mats, rhs)
    except np.linalg.LinAlgError as exc:
        bad = np.argmin(np.linalg.matrix_rank(mats) == mats.shape[-1])
        raise ArithmeticError(f"singular {name}-projector system on cell {bad}") from exc


def build_elements(mesh):
    """Stacked :class:`Elements` of every cell, row ``i`` being cell ``i``,
    in one batched kernel.

    For a monomial test function q the h1 right-hand side is
    -(v, lap q)_K + sum_e int_e v dn(q) ds, closed by the vertex average.
    The h2 right-hand side is sum_e (D^2 q n_e) . int_e grad v ds, with
    int_e grad v ds = n_e int_e dn(h1 v) ds + t_e (v(head) - v(tail)),
    closed by the boundary means of the value and the gradient.  The l2
    projector uses the moment for the constant and h1 for the others.
    """
    g = mesh.stacked_geometry
    C, P = g.valid.shape
    N = 2 * P + 1
    m = g.valence
    rows, cells, j = np.arange(C)[:, None], np.arange(C), np.arange(P)
    # local positions: vertex j, then edge node j at m + j, the moment at 2m;
    # padded corners take the padded columns
    vpos = np.where(g.valid, j, 2 * j + 1)
    mpos = np.where(g.valid, m[:, None] + j, 2 * j + 2)
    nodes = np.stack([vpos, mpos, np.take_along_axis(vpos, g.next_corner, axis=1)], axis=2)
    prev = np.where(j == 0, m[:, None] - 1, j - 1)

    def node_sum(per_node):
        """(C, P, 3, ...) values at each edge's nodes summed into DoF columns."""
        out = np.zeros((C, N) + per_node.shape[3:])
        mask = g.valid.reshape(g.valid.shape + (1,) * (per_node.ndim - 3))
        out[rows, vpos] = np.where(mask, per_node[:, :, 0] + per_node[rows, prev, 2], 0.0)
        out[rows, mpos] = per_node[:, :, 1]
        return out

    dofs = np.zeros((C, N), dtype=np.intp)
    dofs[rows, vpos] = np.where(g.valid, g.vertex_ids, 0)
    dofs[rows, mpos] = np.where(g.valid, mesh.n_vertices + g.edge_ids, 0)
    dofs[cells, 2 * m] = mesh.n_vertices + mesh.n_edges + cells

    # products of two basis members need integrals up to degree 2k
    integrals = monomial_integrals(g, 2 * ORDER)
    mass = integrals[:, _PRODUCT]
    h = g.diameter[:, None, None]
    Dx, Dy = _DX / h, _DY / h
    Dxx, Dxy, Dyy = Dx @ Dx, Dx @ Dy, Dy @ Dy

    def gram(*Ds):
        return sum(np.swapaxes(D, 1, 2) @ mass @ D for D in Ds)

    grad_gram = gram(Dx, Dy)
    hess_gram = gram(Dxx) + 2.0 * gram(Dxy) + gram(Dyy)
    # constant second derivatives of every monomial, (C, 2, 2, 6)
    hessian = np.stack([np.stack([Dxx[:, 0], Dxy[:, 0]], 1), np.stack([Dxy[:, 0], Dyy[:, 0]], 1)], 1)

    def basis_at(points):
        scaled = (points - g.centroid[:, None]) / h
        return monomials(scaled[..., 0], scaled[..., 1], ORDER) * g.valid[..., None]

    D = np.zeros((C, N, 6))
    D[rows, vpos] = basis_at(g.vertices)
    D[rows, mpos] = basis_at(0.5 * (g.vertices + g.heads))
    D[cells, 2 * m] = integrals[:, :6] / g.area[:, None]

    # the monomials' normal derivatives at each edge's DoF points, (C, P, 3, 6)
    values = D[rows[..., None], nodes]
    nx, ny = g.normals[..., 0, None, None], g.normals[..., 1, None, None]
    edge_dn = nx * (values @ Dx[:, None]) + ny * (values @ Dy[:, None])
    edge_weights = g.edge_lengths[..., None] * SIMPSON

    B = node_sum(edge_weights[..., None] * edge_dn)
    B[cells, 2 * m] = -(hessian[:, 0, 0] + hessian[:, 1, 1]) * g.area[:, None]
    B = np.swapaxes(B, 1, 2)
    # vertex-average constraint replaces the (identically zero) constant row
    vertex_poly = D[rows, vpos].sum(axis=1) / m[:, None]
    vertex_dof = np.zeros((C, N))
    vertex_dof[rows, vpos] = np.where(g.valid, 1.0 / m[:, None], 0.0)
    G = grad_gram.copy()
    G[:, 0], B[:, 0] = vertex_poly, vertex_dof
    h1 = _solve(G, B, "gradient")

    trace = edge_dn @ h1[:, None]
    flux = np.einsum("cpk,cpkn->cpn", edge_weights, trace)
    ends = np.zeros((C, P, N))
    ends[rows, j, nodes[..., 2]] = 1.0
    ends[rows, j, nodes[..., 0]] = -1.0
    # int_e grad v ds for every DoF basis function v, (C, P, 2, N)
    edge_grad = g.normals[..., None] * flux[:, :, None] + g.tangents[..., None] * ends[:, :, None]
    rhs = np.einsum("cebk,cebn->ckn", np.einsum("cabk,cea->cebk", hessian, g.normals), edge_grad)
    perimeter = g.edge_lengths.sum(axis=1)[:, None]
    hat_dof = node_sum(edge_weights) / perimeter
    hat_poly = np.einsum("cn,cnk->ck", hat_dof, D)
    quasi_poly = np.stack([hat_poly, np.einsum("ck,ckl->cl", hat_poly, Dx), np.einsum("ck,ckl->cl", hat_poly, Dy)], 1)
    quasi_dof = np.concatenate([hat_dof[:, None], edge_grad.sum(axis=1) / perimeter[..., None]], axis=1)
    # the three affine test rows are identically zero on both sides
    H = hess_gram.copy()
    H[:, :3], rhs[:, :3] = quasi_poly, quasi_dof
    h2 = _solve(H, rhs, "hessian")

    moments = mass @ h1
    moments[:, 0] = 0.0
    moments[cells, 0, 2 * m] = g.area
    l2 = np.linalg.solve(mass, moments)

    return Elements(g, 2 * m + 1, dofs, mass, grad_gram, hess_gram, D, h1, h2, l2, trace)

