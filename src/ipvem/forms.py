"""Element-local discrete bilinear forms and the edge-trace terms of the
interior penalty, for every element and edge at once.

The Hessian-energy form pairs the consistency part through the h2 projector
with a DoF-difference stabilization scaled by 1/h_K^2; the gradient form has
the same structure with a dimensionless stabilization.  The edge terms come
from the traces of each side (a local edge of one element): the normal
derivative of its h1 projections at the edge's tail, midpoint and head, and
its constant second normal derivative.  A trace is linear along an edge at
k = 2, so Simpson sums are exact: with the jump J (one row per edge and
Simpson point) and average A (one row per edge) of the traces, the penalty
form is J^T diag(lam_e SIMPSON) J and the consistency pair j2 + j2^T has
j2 = -A^T diag(h_e) S J, S summing each edge's rows with the Simpson
weights.  Both are sums of products of the sides' rows; J itself is built
only for the energy norm.  Each form is exactly symmetric as made.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .basis import ORDER, SIMPSON


@dataclass(frozen=True)
class PenaltyConfig:
    """Penalty constant and the mesh-wide maximum edge count."""

    a: float
    n_k: int

    def __post_init__(self):
        if not 1.0 < self.a < np.inf:
            raise ValueError(f"penalty constant a must be finite and exceed 1, got {self.a}")
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


def side_matrix(data, kept, columns, n):
    """The rows ``data`` (S, r, N) of S sides as a CSR matrix of S r rows on
    ``n`` columns, each side's in its ``columns`` (S, N) where ``kept``."""
    kept = np.broadcast_to(kept[:, None], data.shape)
    indptr = np.concatenate([[0], np.cumsum(kept.sum(axis=2))])
    columns = np.broadcast_to(columns[:, None], data.shape)[kept]
    return sp.csr_matrix((data[kept], columns, indptr), shape=(len(indptr) - 1, n))


@dataclass(eq=False)
class EdgeTraces:
    """The edge-trace terms of one mesh: the stacked ``elements`` whose sides
    carry the traces, each edge's left and right side (``sides``, the flat
    index c P + j of the stacked geometry; a boundary edge's right side is
    its left one), and each edge's penalty ``lam`` and length ``h``."""

    elements: object
    sides: np.ndarray           # (2, E)
    lam: np.ndarray             # (E,)
    h: np.ndarray               # (E,)

    @functools.cached_property
    def weights(self):
        """The penalty weight lam_e SIMPSON[k] of each row 3e + k of J, so
        that the penalty energy of x is sum(weights * (J x)^2)."""
        return np.repeat(self.lam, 3) * np.tile(SIMPSON, len(self.lam))

    @functools.cached_property
    def jump(self):
        """The jump operator J, (3 E, n_dofs): row 3e + k is edge e's left
        minus right trace at its tail, midpoint and head (k = 0, 1, 2) with
        the left cell's normal, so the right trace, of the opposite normal,
        enters reversed with a plus sign; a boundary edge has one trace."""
        elements, (left, right) = self.elements, self.sides
        C, P, _, N = elements.edge_normal_trace.shape
        trace, n = elements.edge_normal_trace.reshape(C * P, 3, N), elements.dofs.max() + 1
        mask, dofs = elements.dof_mask[self.sides // P], elements.dofs[self.sides // P]
        jump = side_matrix(trace[left], mask[0], dofs[0], n)
        jump = jump + side_matrix(trace[right][:, ::-1], mask[1] & (left != right)[:, None], dofs[1], n)
        jump.sort_indices()
        return jump

    def side_rows(self):
        """(C, P, 5, N) every side's rows on its cell's DoF columns: its trace
        at its own k-th point times sqrt(lam_e SIMPSON[k]) (k = 0, 1, 2), its
        share of A (its second normal derivative 2 (nx^2 c3 + nx ny c4 +
        ny^2 c5) / h^2, halved on an interior edge) and h_e times the Simpson
        sum of its trace; padded sides are zero."""
        g, trace, P = self.elements.geometry, self.elements.edge_normal_trace, self.elements.h1_coeff
        per_side = np.zeros((3, trace.shape[0] * trace.shape[1]))  # lam, h and 2 x the share
        for side in self.sides:
            per_side[:, side] = self.lam, self.h, np.where(np.not_equal(*self.sides), 1.0, 2.0)
        lam, h, share = per_side.reshape(3, *trace.shape[:2], 1)
        nx, ny = g.normals[..., 0, None], g.normals[..., 1, None]
        second = nx * nx * P[:, None, 3] + nx * ny * P[:, None, 4] + ny * ny * P[:, None, 5]
        rows = np.empty(trace.shape[:2] + (5,) + trace.shape[3:])
        rows[:, :, :3] = np.sqrt(lam * SIMPSON)[..., None] * trace
        rows[:, :, 3] = share * (second / g.diameter[:, None, None] ** 2)
        rows[:, :, 4] = h * np.einsum("k,cpkn->cpn", SIMPSON, trace)
        return rows


def build_edge_stencils(mesh, elements, penalty_a=2.0):
    """The :class:`EdgeTraces` of every edge, with the automated penalty.
    An edge's virtual triangles are the centroid-fan triangles of its sides;
    a boundary edge's one triangle counts on both sides."""
    g = elements.geometry
    config = PenaltyConfig(a=penalty_a, n_k=int(g.valence.max()))
    # every edge is the local edge of exactly one left side
    left, right = g.left, g.valid & ~g.left
    sides = np.empty((2, mesh.n_edges), dtype=np.intp)
    sides[:, g.edge_ids[left]] = np.flatnonzero(left)
    sides[1, g.edge_ids[right]] = np.flatnonzero(right)
    h = g.edge_lengths.ravel()[sides[0]]
    return EdgeTraces(elements, sides, penalty_parameter(h, np.abs(g.fan_areas.ravel()[sides]), config), h)
