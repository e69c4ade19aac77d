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
each edge's three rows with the Simpson weights.  Each form is exactly
symmetric as made.  The stacked :class:`CellForms` and :class:`EdgeTraces`
are the only interface to the assembly: an element's forms are its rows, an
edge's terms its rows of J and A.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .basis import ORDER, SIMPSON
from .mesh import BOUNDARY


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
class CellForms:
    """Stacked a and b forms of every element, (C, N, N), zero past each
    cell's DoFs."""

    elements: object
    a: np.ndarray
    b: np.ndarray


def _stabilized(P, Pd, gram, scale, eye):
    """F = P^T gram P + (eye - Pd)^T (eye - Pd) / scale on every element: the
    consistency through the h2 projector plus the DoF-difference
    stabilization, returned as 0.5 (F + F^T), symmetric to the last bit."""
    stab = eye - Pd
    form = np.swapaxes(P, -1, -2) @ gram @ P + np.swapaxes(stab, -1, -2) @ stab / scale
    return 0.5 * (form + np.swapaxes(form, -1, -2))


def build_local_forms(elements):
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


def _trace_operators(mesh, elements):
    """Sparse jump and average operators of every edge, of shape (3 E, n)
    and (E, n) on the n global DoFs, from each side (a local edge of one
    element) of the edges.

    Jump means left trace minus right trace and the average is the
    arithmetic mean, both with the left cell's outward normal; on boundary
    edges both reduce to the single trace.  The right cell's own normal is
    the opposite one, so its trace enters with a plus sign, and it walks the
    edge head to tail, so its points are reversed.  The polynomial c has the
    second normal derivative 2 (nx^2 c3 + nx ny c4 + ny^2 c5) / h^2.
    """
    g = elements.geometry
    shape = (mesh.n_edges, mesh.n_vertices + mesh.n_edges + mesh.n_cells)
    c, j = np.nonzero(g.valid)
    # one entry per side and own DoF column
    side, col = np.nonzero(elements.dof_mask[c])
    cs, js = c[side], j[side]
    rs, cols = g.edge_ids[cs, js], elements.dofs[cs, col]
    point = np.where(g.left[cs, js][:, None], [0, 1, 2], [2, 1, 0])
    jump_values = elements.edge_normal_trace[cs, js, :, col].ravel()
    jump = sp.csr_matrix(
        (jump_values, ((3 * rs[:, None] + point).ravel(), np.repeat(cols, 3))), shape=(3 * shape[0], shape[1])
    )
    P = elements.h1_coeff[cs, :, col]
    nx, ny = g.normals[cs, js, 0], g.normals[cs, js, 1]
    second = 2.0 * (nx * nx * P[:, 3] + nx * ny * P[:, 4] + ny * ny * P[:, 5]) / g.diameter[cs] ** 2
    second = np.where(mesh.edge_cells[rs, 1] != BOUNDARY, 0.5, 1.0) * second
    return jump, sp.csr_matrix((second, (rs, cols)), shape=shape)


@dataclass(eq=False)
class EdgeTraces:
    """The edge-trace operators J (rows 3e + k: edge e at its tail, midpoint
    and head) and A (row e) of one mesh on its global DoFs, with each edge's
    penalty ``lam`` and length ``h``."""

    jump: sp.csr_matrix         # (3 E, n_dofs)
    average: sp.csr_matrix      # (E, n_dofs)
    lam: np.ndarray             # (E,)
    h: np.ndarray               # (E,)

    @functools.cached_property
    def weights(self):
        """The penalty weight lam_e SIMPSON[k] of each row 3e + k of J, so
        that the penalty energy of x is sum(weights * (J x)^2)."""
        return np.repeat(self.lam, 3) * np.tile(SIMPSON, len(self.lam))

    def coupling(self, columns):
        """The edge terms of the operator on the DoF columns ``columns`` (an
        index array), in one exactly symmetric matrix: the penalty form K^T K
        with K = diag(sqrt(weights)) J, plus the consistency pair j2 + j2^T
        with j2 = -A^T diag(h_e) S J, where S sums each edge's three rows with
        the Simpson weights.  Mirrored entries sum the same products in the
        same order."""
        jump, average = self.jump[:, columns], self.average[:, columns]
        simpson = sp.kron(sp.identity(len(self.lam)), SIMPSON[None, :], format="csr")
        k = sp.diags(np.sqrt(self.weights)) @ jump
        j2 = -(average.T @ (sp.diags(self.h) @ (simpson @ jump)))
        return k.T @ k + (j2 + j2.T)


def build_edge_stencils(mesh, elements, penalty_a=2.0):
    """The :class:`EdgeTraces` of every edge, with the automated penalty.
    An edge's virtual triangles are the centroid-fan triangles of its sides;
    a boundary edge's one triangle counts on both sides."""
    g = elements.geometry
    config = PenaltyConfig(a=penalty_a, n_k=int(g.valence.max()))
    # every edge is the local edge of exactly one left side
    left, right = g.left, g.valid & ~g.left
    h, areas = np.empty(mesh.n_edges), np.empty((2, mesh.n_edges))
    h[g.edge_ids[left]] = g.edge_lengths[left]
    areas[:, g.edge_ids[left]] = np.abs(g.fan_areas[left])
    areas[1, g.edge_ids[right]] = np.abs(g.fan_areas[right])
    lam = penalty_parameter(h, areas, config)
    return EdgeTraces(*_trace_operators(mesh, elements), lam, h)
