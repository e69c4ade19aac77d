"""Global DoF numbering, sparse assembly, clamped boundary handling, solve.

Global DoFs are numbered vertices first, then edge midpoints, then cell
moments.  Clamped boundary conditions zero every boundary vertex and
boundary-edge value; their rows and columns are eliminated rather than
penalized so the conditioning survives small perturbation parameters.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla


class SolveError(RuntimeError):
    """Linear solve failed to reach the residual target."""


@dataclass(eq=False)
class GlobalDofMap:
    """Vertex, edge-node and moment numbering plus the boundary DoF set."""

    n_vertices: int
    n_edges: int
    n_cells: int
    boundary: np.ndarray  # bool mask over all DoFs

    @property
    def n_dofs(self):
        return self.n_vertices + self.n_edges + self.n_cells

    @property
    def free(self):
        return ~self.boundary


def number_dofs(mesh):
    n_v, n_e, n_c = mesh.n_vertices, mesh.n_edges, mesh.n_cells
    boundary = np.zeros(n_v + n_e + n_c, dtype=bool)
    boundary[:n_v] = mesh.boundary_vertex
    boundary[n_v : n_v + n_e] = mesh.boundary_edge
    return GlobalDofMap(n_vertices=n_v, n_edges=n_e, n_cells=n_c, boundary=boundary)


@dataclass(eq=False)
class SparseSystem:
    """Reduced symmetric system over the free DoFs."""

    matrix: sp.csc_matrix
    rhs: np.ndarray
    eps: float
    dof_map: GlobalDofMap
    free_indices: np.ndarray

    @property
    def n_free(self):
        return len(self.free_indices)


@dataclass(eq=False)
class DiscreteSolution:
    """Full DoF vector with boundary entries pinned to zero."""

    values: np.ndarray
    eps: float
    residual: float
    diagnostics: dict = field(default_factory=dict)


@dataclass(eq=False)
class OperatorParts:
    """Full-size eps-independent pieces of the discrete operator.

    ``hess`` is the Hessian-energy form plus all edge coupling blocks (the
    part multiplied by eps^2), ``grad`` the gradient-energy form, ``a_only``
    and ``j1`` the separate ingredients of the discrete energy norm.
    """

    hess: sp.csr_matrix
    grad: sp.csr_matrix
    a_only: sp.csr_matrix
    j1: sp.csr_matrix


def build_operator_parts(dof_map, cell_forms, traces):
    """Assemble the operator parts from the stacked cell forms and the
    edge-trace operators.  Both cell forms share one sorted index set of
    every cell's (row, column) DoF pairs; the edge coupling is a product of
    sparse matrices (``traces.coupling()``)."""
    elements = cell_forms.elements
    mask = elements.dof_mask
    pair = mask[:, :, None] & mask[:, None, :]
    if cell_forms.a.shape != pair.shape or cell_forms.b.shape != pair.shape:
        raise ValueError("cell forms do not match the elements' DoF layout")
    n, dofs = dof_map.n_dofs, elements.dofs
    slots, index = np.unique((dofs[:, :, None] * n + dofs[:, None, :])[pair], return_inverse=True)
    indptr = np.searchsorted(slots, np.arange(n + 1) * n)

    def cell_matrix(blocks):
        data = np.bincount(index, weights=blocks[pair], minlength=len(slots))
        return sp.csr_matrix((data, slots % n, indptr), shape=(n, n))

    a_only = cell_matrix(cell_forms.a)
    j1, j2 = traces.coupling()
    return OperatorParts(
        hess=(a_only + j1 + j2 + j2.T).tocsr(),
        grad=cell_matrix(cell_forms.b),
        a_only=a_only,
        j1=j1,
    )


def load_vector(elements, f):
    """Global load vector (f, l2 projection of each DoF basis function);
    ``f`` is a function of (x, y), evaluated once at all points of the
    elements' fan rule, or its values there."""
    rule = elements.fan_rule
    values = f(rule.points[:, 0], rule.points[:, 1]) if callable(f) else f
    moments = rule.cell_moments(np.asarray(values, dtype=float), 2)
    loads = np.einsum("ckn,ck->cn", elements.l2_coeff, moments)
    return np.bincount(elements.dofs.ravel(), weights=loads.ravel(), minlength=elements.dofs.max() + 1)


@dataclass(eq=False)
class FreeParts:
    """The operator parts restricted to the free DoFs and symmetrized, stored
    as CSC matrices that share one pattern: ``hess`` and ``grad`` hold the
    same ``indptr`` and ``indices`` arrays, so their sum at each eps is one
    axpy on the data, already in the layout SuperLU factors."""

    hess: sp.csc_matrix
    grad: sp.csc_matrix
    free: np.ndarray
    dof_map: GlobalDofMap


def _with_data(mat, data):
    """The CSC matrix of ``mat``'s pattern holding ``data``, sharing the
    index arrays instead of copying them."""
    return sp.csc_matrix((data, mat.indices, mat.indptr), shape=mat.shape)


def restrict(hess_part, grad_part, dof_map):
    """Eliminate the boundary rows and columns of both parts and symmetrize
    them, removing accumulation-order roundoff, then lay both on one
    pattern: ``hess``'s, which holds ``grad``'s on the meshes measured, or
    else the union of the two.  Done once per mesh."""
    free = np.flatnonzero(dof_map.free)

    def symmetric_free(part):
        reduced = part[free][:, free]
        # exactly symmetric, so the transpose (a CSC view of the same arrays)
        # is the same matrix, stored as CSC without a copy
        free_part = ((reduced + reduced.T) * 0.5).T
        free_part.sort_indices()
        return free_part

    def positions(pattern, part):
        """The index into ``pattern.data`` of each stored entry of ``part``,
        None unless ``pattern`` holds every one: the elementwise product of
        the entries' 1-based ranks in ``pattern`` with ones on ``part``'s
        pattern keeps exactly the shared entries, in ``part``'s order."""
        ranks = _with_data(pattern, np.arange(1.0, pattern.nnz + 1)).multiply(_with_data(part, np.ones(part.nnz)))
        return ranks.data.astype(np.intp) - 1 if ranks.nnz == part.nnz else None

    def on_pattern(pattern, part, at):
        data = np.zeros(pattern.nnz)
        data[at] = part.data
        return _with_data(pattern, data)

    hess, grad = symmetric_free(hess_part), symmetric_free(grad_part)
    at = positions(hess, grad)
    if at is None:
        # grad has an entry that hess lacks: both go on the union pattern
        union = abs(hess) + abs(grad)
        hess, at = on_pattern(union, hess, positions(union, hess)), positions(union, grad)
    return FreeParts(hess, on_pattern(hess, grad, at), free, dof_map)


def combine(parts, rhs, eps):
    """The reduced system eps^2 * hess + grad at one eps: one axpy on the
    parts' shared pattern, exactly symmetric because both terms are and
    equal, entry for entry, to their sparse sum (which stores the same
    pattern wherever no sum cancels to zero)."""
    return SparseSystem(
        matrix=_with_data(parts.hess, (eps**2) * parts.hess.data + parts.grad.data),
        rhs=rhs[parts.free],
        eps=eps,
        dof_map=parts.dof_map,
        free_indices=parts.free,
    )


RESIDUAL_TARGET = 1e-10
#: unit roundoff of double precision
UNIT_ROUNDOFF = 2.0**-53


#: SuperLU keeps a diagonal pivot unless it is below this fraction of the
#: largest entry of its column
DIAG_PIVOT_THRESH = 0.01


@dataclass(eq=False)
class HeldFactor:
    """A SuperLU factor kept between the solves on one mesh, and the eps
    whose matrix it factors; empty until the first solve that factors."""

    lu: spla.SuperLU | None = None
    eps: float | None = None

    def release(self):
        self.lu = self.eps = None


def solve(system, residual_target=RESIDUAL_TARGET, held=None):
    """Direct sparse solve with extended-precision refinement and a residual
    check.  The matrix is symmetric, so SuperLU runs in symmetric mode: the
    columns are ordered on the pattern of A + A^T and diagonal pivots are
    preferred, with threshold pivoting keeping a matrix that is not positive
    definite stable in the same call.  Besides the relative residual, the
    diagnostics hold the componentwise backward error
    max_i |r_i| / (|A||x| + |b|)_i (Oettli-Prager), the residual floor
    u || |A||x| || / ||b||, the eps whose matrix was factored
    (``factor_eps``), the fill of that factor (``lu_nnz``) and the number of
    pivots it took off the diagonal (``offdiag_pivots``).

    ``held`` (a :class:`HeldFactor`) lets solves on one mesh share a factor.
    A factor held from an eps e0 >= eps is tried first: with A = G + eps^2 H
    and M = G + e0^2 H, the refinement's iteration matrix
    I - M^-1 A = (e0^2 - eps^2) M^-1 H has its eigenvalues in [0, 1), small
    when e0^2 H is small against G.  The attempt is given up after its
    first correction if that correction's contraction, kept for the
    remaining corrections, cannot reach a tenth of the target, and whenever
    it ends above the target; the held factor is then released before a
    fresh one is made and held, so one factor is alive at a time."""
    mat, rhs = system.matrix, system.rhs
    diagnostics = {"method": "splu", "refine_steps": 0, "n_free": system.n_free, "nnz": int(mat.nnz)}
    if not np.any(rhs):
        x = np.zeros_like(rhs)
        residual = 0.0
        diagnostics.update(backward_error=0.0, residual_floor=0.0, factor_eps=None, lu_nnz=0, offdiag_pivots=0)
    else:
        refined = None
        if held is not None and held.lu is not None and held.eps >= system.eps:
            refined = _refine(
                mat, rhs, held.lu.solve(rhs), held.lu, residual_target, accuracy=diagnostics, may_abort=True
            )
        if refined is None:
            if held is not None:
                held.release()
            lu = _factor(mat)
            refined = _refine(mat, rhs, lu.solve(rhs), lu, residual_target, accuracy=diagnostics)
            if held is not None:
                held.lu, held.eps = lu, system.eps
        else:
            lu = held.lu
        diagnostics["factor_eps"] = system.eps if held is None else held.eps
        # entries SuperLU stores for L and U, read without copying the factors
        diagnostics["lu_nnz"] = int(lu.nnz)
        diagnostics["offdiag_pivots"] = int(np.count_nonzero(lu.perm_r != lu.perm_c))
        x, residual, diagnostics["refine_steps"] = refined
        if not np.isfinite(residual) or residual > residual_target:
            raise SolveError(f"relative residual {residual:.3e} above {residual_target:.1e}")
    values = np.zeros(system.dof_map.n_dofs)
    values[system.free_indices] = x
    diagnostics["residual"] = residual
    return DiscreteSolution(values=values, eps=system.eps, residual=residual, diagnostics=diagnostics)


def _factor(mat):
    """The symmetric-mode SuperLU factor of ``mat`` (no copy if it is CSC)."""
    try:
        return spla.splu(
            mat.tocsc(),
            permc_spec="MMD_AT_PLUS_A",
            diag_pivot_thresh=DIAG_PIVOT_THRESH,
            options={"SymmetricMode": True},
        )
    except RuntimeError as exc:
        raise SolveError(f"sparse LU failed: {exc}") from exc


def _refine(mat, rhs, x, lu, residual_target, max_steps=4, accuracy=None, may_abort=False):
    """Mixed-precision iterative refinement.

    Residuals are evaluated in extended precision; plain double evaluation
    bottoms out near u * ||M|| * ||x|| / ||b||, which for the stiff
    small-mesh-size systems sits right at the residual target.  Returns the
    refined solution, its relative residual and the number of corrections
    applied; the residual is always that of the returned solution, and the
    backward error and residual floor written into ``accuracy`` are its too.
    With ``may_abort``, returns None instead when the refinement will not or
    did not meet the target: after the first correction if the residual,
    shrinking by that correction's ratio for the remaining steps, would stay
    above ``residual_target / 10``, and at the end if it is above
    ``residual_target``.
    """
    mat = mat.tocsc()
    mat_ld = _with_data(mat, mat.data.astype(np.longdouble))
    rhs_ld = rhs.astype(np.longdouble)
    rhs_norm = float(np.linalg.norm(rhs))
    steps = 0
    while True:
        r = (rhs_ld - mat_ld @ x.astype(np.longdouble)).astype(float)
        residual = float(np.linalg.norm(r)) / rhs_norm
        if residual <= residual_target / 10.0 or steps == max_steps:
            break
        if may_abort and steps == 1:
            projected = residual * (residual / previous) ** (max_steps - 1)
            if not projected <= residual_target / 10.0:
                return None
        previous = residual
        x = x + lu.solve(r)
        steps += 1
    if may_abort and not residual <= residual_target:
        return None
    if accuracy is not None:
        scale = _with_data(mat, np.abs(mat.data)) @ np.abs(x)
        bound = scale + np.abs(rhs)
        ratio = np.divide(np.abs(r), bound, out=np.zeros_like(r), where=bound > 0.0)
        accuracy["backward_error"] = float(ratio.max())
        accuracy["residual_floor"] = UNIT_ROUNDOFF * float(np.linalg.norm(scale)) / rhs_norm
    return x, residual, steps

