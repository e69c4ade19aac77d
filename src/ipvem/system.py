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

    def moment_dof(self, c):
        return self.n_vertices + self.n_edges + c


def number_dofs(mesh):
    n_v, n_e, n_c = mesh.n_vertices, mesh.n_edges, mesh.n_cells
    boundary = np.zeros(n_v + n_e + n_c, dtype=bool)
    boundary[:n_v] = mesh.boundary_vertex
    boundary[n_v : n_v + n_e] = mesh.boundary_edge
    return GlobalDofMap(n_vertices=n_v, n_edges=n_e, n_cells=n_c, boundary=boundary)


def cell_dof_indices(dof_map, mesh, cell_id):
    """Global indices of one cell's DoFs in local order."""
    verts = np.asarray(mesh.cells[cell_id], dtype=int)
    edges = np.array([e for e, _ in mesh.cell_edges[cell_id]], dtype=int)
    return np.concatenate(
        [verts, dof_map.n_vertices + edges, [dof_map.moment_dof(cell_id)]]
    )


@dataclass(eq=False)
class SparseSystem:
    """Reduced symmetric system over the free DoFs."""

    matrix: sp.csr_matrix
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


def _scatter(index_sets, blocks, n):
    """Scatter-add dense blocks into an n x n matrix at the given index sets."""
    rows = np.concatenate([np.repeat(idx, len(idx)) for idx in index_sets])
    cols = np.concatenate([np.tile(idx, len(idx)) for idx in index_sets])
    vals = np.concatenate([np.asarray(block, dtype=float).ravel() for block in blocks])
    return sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()


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


def build_operator_parts(mesh, dof_map, local_forms, stencils):
    """Scatter the cell forms and edge stencils into the operator parts.

    Each cell's global DoF indices are computed once and shared by its two
    cell blocks and by the stencil blocks of every edge it touches.
    """
    cell_idx = [cell_dof_indices(dof_map, mesh, c) for c in range(mesh.n_cells)]
    edge_idx = [np.concatenate([cell_idx[c] for c in s.cells]) for s in stencils]
    n = dof_map.n_dofs
    a_only = _scatter(cell_idx, [lf.a_matrix for lf in local_forms], n)
    return OperatorParts(
        hess=(a_only + _scatter(edge_idx, [s.block for s in stencils], n)).tocsr(),
        grad=_scatter(cell_idx, [lf.b_matrix for lf in local_forms], n),
        a_only=a_only,
        j1=_scatter(edge_idx, [s.j1_block for s in stencils], n),
    )


def load_vector(mesh, dof_map, loads):
    """Scatter per-cell load vectors into the global right-hand side."""
    rhs = np.zeros(dof_map.n_dofs)
    for cid, load in enumerate(loads):
        np.add.at(rhs, cell_dof_indices(dof_map, mesh, cid), load)
    return rhs


def reduce_system(hess_part, grad_part, rhs, eps, dof_map):
    """Combine the eps-scaled parts and eliminate the boundary rows/columns."""
    full = (eps**2) * hess_part + grad_part
    full = (full + full.T) * 0.5  # remove accumulation-order roundoff
    free = np.flatnonzero(dof_map.free)
    reduced = full[free][:, free].tocsr()
    return SparseSystem(
        matrix=reduced,
        rhs=rhs[free],
        eps=eps,
        dof_map=dof_map,
        free_indices=free,
    )


RESIDUAL_TARGET = 1e-10


def solve(system, residual_target=RESIDUAL_TARGET):
    """Direct sparse solve with a residual check and a CG fallback."""
    mat, rhs = system.matrix, system.rhs
    rhs_norm = float(np.linalg.norm(rhs))
    diagnostics = {"method": "splu", "refine_steps": 0, "n_free": system.n_free, "nnz": int(mat.nnz)}
    if rhs_norm == 0.0:
        x = np.zeros_like(rhs)
        residual = 0.0
    else:
        x = None
        try:
            lu = spla.splu(mat.tocsc())
            x = lu.solve(rhs)
            x, residual, diagnostics["refine_steps"] = _refine(mat, rhs, x, lu, residual_target)
        except RuntimeError:
            residual = np.inf
        if x is None or not np.isfinite(residual) or residual > residual_target:
            x, residual = _cg_solve(mat, rhs, residual_target)
            diagnostics["method"] = "cg"
        if not np.isfinite(residual) or residual > residual_target:
            raise SolveError(f"relative residual {residual:.3e} above {residual_target:.1e}")
    values = np.zeros(system.dof_map.n_dofs)
    values[system.free_indices] = x
    diagnostics["residual"] = residual
    return DiscreteSolution(values=values, eps=system.eps, residual=residual, diagnostics=diagnostics)


def _refine(mat, rhs, x, lu, residual_target, max_steps=4):
    """Mixed-precision iterative refinement.

    Residuals are evaluated in extended precision; plain double evaluation
    bottoms out near u * ||M|| * ||x|| / ||b||, which for the stiff
    small-mesh-size systems sits right at the residual target.  Returns the
    refined solution, its relative residual and the number of corrections
    applied; the residual is always that of the returned solution.
    """
    mat_ld = mat.astype(np.longdouble)
    rhs_ld = rhs.astype(np.longdouble)
    rhs_norm = float(np.linalg.norm(rhs))
    steps = 0
    while True:
        r = rhs_ld - mat_ld @ x.astype(np.longdouble)
        residual = float(np.linalg.norm(r.astype(float))) / rhs_norm
        if residual <= residual_target / 10.0 or steps == max_steps:
            return x, residual, steps
        x = x + lu.solve(r.astype(float))
        steps += 1


def _cg_solve(mat, rhs, residual_target):
    diag = mat.diagonal().copy()
    diag[diag <= 0.0] = 1.0
    precond = sp.diags(1.0 / diag)
    x, info = spla.cg(mat, rhs, rtol=residual_target / 10.0, atol=0.0, maxiter=20 * mat.shape[0], M=precond)
    residual = float(np.linalg.norm(mat @ x - rhs)) / float(np.linalg.norm(rhs))
    return x, residual


def is_positive_definite(system):
    """Positive definiteness by a dense symmetric factorization.

    Returns ``(flag, smallest_pivot_or_eigenvalue)``; the matrix sizes in the
    acceptance runs stay small enough for a dense check.
    """
    dense = system.matrix.toarray()
    try:
        chol = np.linalg.cholesky(dense)
        return True, float(np.min(np.diag(chol)) ** 2)
    except np.linalg.LinAlgError:
        smallest = float(np.linalg.eigvalsh(dense)[0])
        return False, smallest


def export_matrix(system, path):
    """Write the reduced matrix in coordinate text format: row col value."""
    coo = system.matrix.tocoo()
    with open(path, "w") as fh:
        fh.write(f"{coo.shape[0]} {coo.shape[1]} {coo.nnz}\n")
        for r, c, v in zip(coo.row, coo.col, coo.data):
            fh.write(f"{r} {c} {float(v)!r}\n")
