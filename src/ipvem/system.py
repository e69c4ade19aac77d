"""Global DoF numbering, sparse assembly, clamped boundary handling, solve.

Global DoFs are numbered vertices first, then edge midpoints, then cell
moments.  Clamped boundary conditions zero every boundary vertex and
boundary-edge value; their rows and columns are eliminated rather than
penalized so the conditioning survives small perturbation parameters.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math
import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.linalg import cython_lapack, lapack
from scipy.sparse.csgraph import reverse_cuthill_mckee

from . import forms
from .basis import dot


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

    matrix: sp.csr_matrix
    rhs: np.ndarray
    eps: float
    dof_map: GlobalDofMap
    free_indices: np.ndarray
    factor: BandFactor  # of ``matrix``'s pattern, shared by the mesh's systems
    limit: BandFactor | None = None  # of the eps = 0 operator, shared too (see solve)
    rho: float = math.inf  # eps^2 max_i hess_ii / grad_ii, the limit's contraction at eps

    @property
    def n_free(self):
        return len(self.free_indices)


@dataclass(eq=False)
class DiscreteSolution:
    """Full DoF vector with boundary entries pinned to zero, in the extended
    precision the refinement accumulates it in (see :func:`_refine`)."""

    values: np.ndarray
    eps: float
    residual: float
    diagnostics: dict = field(default_factory=dict)


def build_operator_parts(dof_map, cell_forms, traces):
    """The :class:`FreeParts` of the operator on the free DoFs, in one
    scatter: the sorted keys row * n + column of every cell's pairs of free
    DoFs are merged into those of the cross edge terms (:func:`_edge_terms`),
    with one ``np.bincount`` per part.  ``hess`` (the a-form, a copy of whose
    blocks holds the own-side edge terms, plus the cross terms) and ``grad``
    (the b-form) share one pattern.  Every term is exactly symmetric and
    mirrored entries sum the same terms in the same order, so both are too."""
    elements = cell_forms.elements
    keep = elements.dof_mask & dof_map.free[elements.dofs]
    pair = keep[:, :, None] & keep[:, None, :]
    if cell_forms.a.shape != pair.shape or cell_forms.b.shape != pair.shape:
        raise ValueError("cell forms do not match the elements' DoF layout")
    n = int(np.count_nonzero(dof_map.free))
    local = (np.cumsum(dof_map.free, dtype=np.int64) - 1)[elements.dofs]  # the column of each free DoF
    own, edges = _edge_terms(traces, keep, local, n)
    # int64 keys: with scipy's int32 indices, row * n wraps above 46341 free DoFs
    keys = np.repeat(np.arange(n, dtype=np.int64) * n, np.diff(edges.indptr)) + edges.indices
    cell_keys, index = np.unique((local[:, :, None] * n + local[:, None, :])[pair], return_inverse=True)
    at = np.searchsorted(keys, cell_keys)
    new = np.append(keys, -1)[at] != cell_keys  # keys the edge terms lack
    keys = np.insert(keys, at[new], cell_keys[new])  # every entry's key
    index = (at + np.cumsum(new) - new)[index]  # each cell term's slot
    own += cell_forms.a
    hess = np.insert(edges.data, at[new], 0.0)
    hess += np.bincount(index, weights=own[pair], minlength=len(keys))
    hess = sp.csr_matrix((hess, keys % n, np.searchsorted(keys, np.arange(n + 1) * n)), shape=(n, n))
    grad = np.bincount(index, weights=cell_forms.b[pair], minlength=len(keys))
    del own, edges, keys, index  # before the band layout's own transient
    return restrict(hess, _with_data(hess, grad), dof_map)


def _edge_terms(traces, keep, local, n):
    """The edge terms split by side: (C, N, N) own-side blocks and the cross
    terms, canonical CSR on the ``n`` free DoFs (columns ``local`` where ``keep``).
    With a side's rows Q = [K; a; s] (``traces.side_rows``) and
    Q' = [K; -s; -a], a cell's block is the symmetrized Q^T Q' over its
    sides, one batched product; the cross terms are Z + Z^T, Z = Q_L^T Q'_R
    over the interior edges, the right side's K rows reversed."""
    rows = traces.side_rows()
    C, P, _, N = rows.shape
    mirror = rows[:, :, [0, 1, 2, 4, 3]]
    mirror[:, :, 3:] *= -1.0
    own = np.swapaxes(rows.reshape(C, 5 * P, N), 1, 2) @ mirror.reshape(C, 5 * P, N)
    own = 0.5 * (own + np.swapaxes(own, 1, 2))
    left, right = traces.sides[:, np.not_equal(*traces.sides)]  # the interior edges' sides
    q_left = forms.side_matrix(rows.reshape(C * P, 5, N)[left], keep[left // P], local[left // P], n)
    right_rows = mirror.reshape(C * P, 5, N)[right][:, [2, 1, 0, 3, 4]]
    q_right = forms.side_matrix(right_rows, keep[right // P], local[right // P], n)
    z = (q_left.T @ q_right).tocsr()
    return own, z + z.T


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
    """The two parts of the operator on the free DoFs, exactly symmetric CSR
    matrices that share one pattern: ``hess`` and ``grad`` hold the same
    ``indptr`` and ``indices`` arrays, so their sum at each eps is one axpy
    on the data.  ``factor`` is the :class:`BandFactor` of that pattern and
    ``limit`` the one of the eps = 0 operator ``grad`` on its own pattern,
    the cell blocks without the cross-edge entries (whose ``grad`` values
    are zeros).  Both are made once per mesh and carried by every system of
    it; at most one holds a band.  ``ratio`` is max_i hess_ii / grad_ii."""

    hess: sp.csr_matrix
    grad: sp.csr_matrix
    free: np.ndarray
    dof_map: GlobalDofMap
    factor: BandFactor
    limit: BandFactor
    ratio: float

    def begin(self, eps, lane):
        """Submit to ``lane`` (an executor) the factor a first solve at ``eps``
        makes: the limit's where it serves ``eps`` (see :func:`solve`), else
        the full one.  Returns the lane's Future, or None where that band is
        wider than :data:`ONE_THREAD_KD` or does not fit (the first solve
        then makes the factor)."""
        limit = eps**2 * self.ratio <= LIMIT_CONTRACTION
        factor = self.limit if limit else self.factor
        if factor.kd <= ONE_THREAD_KD:
            mat = factor.pattern if limit else _with_data(self.hess, (eps**2) * self.hess.data + self.grad.data)
            with contextlib.suppress(SolveError):  # the band does not fit
                return factor.factor(mat, 0.0 if limit else eps, lane)
        return None

    def release(self):
        """Release both factors (:meth:`BandFactor.release`)."""
        self.factor.release()
        self.limit.release()


def _with_data(mat, data):
    """The matrix of ``mat``'s type and index arrays holding ``data``,
    sharing the index arrays instead of copying them."""
    return type(mat)((data, mat.indices, mat.indptr), shape=mat.shape)


def restrict(hess, grad, dof_map):
    """The :class:`FreeParts` of the parts ``hess`` and ``grad``, CSR
    matrices on the free DoFs of ``dof_map`` that share one pattern, with
    the factors of that pattern and of ``grad``'s nonzeros, laid out at their
    first factor.  Done once per mesh; parts of two patterns raise ``ValueError``."""
    same = np.array_equal(hess.indptr, grad.indptr) and np.array_equal(hess.indices, grad.indices)
    if not (same and hess.format == grad.format == "csr"):
        raise ValueError("the operator parts must be CSR matrices of one pattern")
    grad, keep, diagonal = _with_data(hess, grad.data), np.flatnonzero(grad.data), grad.diagonal()
    limit = sp.csr_matrix((grad.data[keep], hess.indices[keep], np.searchsorted(keep, hess.indptr)), shape=hess.shape)
    ratio = np.max(hess.diagonal() / diagonal, initial=0.0) if np.all(diagonal > 0.0) else math.inf
    factors = BandFactor.for_pattern(hess), BandFactor.for_pattern(limit)
    return FreeParts(hess, grad, np.flatnonzero(dof_map.free), dof_map, *factors, float(ratio))


def combine(parts, rhs, eps):
    """The reduced system eps^2 * hess + grad at one eps: one axpy on the
    parts' shared pattern, exactly symmetric because both terms are, and
    equal, entry for entry, to their sparse sum (which stores the same
    pattern wherever no sum cancels to zero)."""
    return SparseSystem(
        matrix=_with_data(parts.hess, (eps**2) * parts.hess.data + parts.grad.data),
        rhs=rhs[parts.free],
        eps=eps,
        dof_map=parts.dof_map,
        free_indices=parts.free,
        factor=parts.factor,
        limit=parts.limit,
        rho=eps**2 * parts.ratio,
    )


RESIDUAL_TARGET = 1e-10
#: a correction that leaves the residual above this fraction of the last one has stalled
STALL_RATIO = 0.6
#: unit roundoff of double precision
UNIT_ROUNDOFF = 2.0**-53
#: the type the refinement accumulates the solution in: long double where it
#: is wider than double (80-bit on x86-64), else double
SOLUTION_DTYPE = np.longdouble if np.finfo(np.longdouble).eps < 2.0**-60 else np.float64
#: the largest contraction rho(eps) at which the eps = 0 factor serves eps (see solve)
LIMIT_CONTRACTION = 1e-3


# glibc's malloc_trim, called with 0 before a mesh's band is allocated and
# when cli.discretize joins a factor made beside the set-up: glibc keeps freed
# temporaries resident, and the band, a fresh mapping, cannot reuse them (the
# join's trim lowers peak RSS by 2.4% at CVT-512, 1.1% at 2048); a no-op where
# libc has none
try:
    MALLOC_TRIM = ctypes.CDLL(None).malloc_trim
except (AttributeError, OSError, TypeError):
    MALLOC_TRIM = lambda pad: 0  # noqa: E731

# the getter and setter of scipy's OpenBLAS thread count (process-wide); no-ops where it has none
try:
    _BLAS = ctypes.CDLL(cython_lapack.__file__)
    _BLAS_THREADS = _BLAS.scipy_openblas_get_num_threads, _BLAS.scipy_openblas_set_num_threads
    _BLAS_THREADS[1].argtypes, _BLAS_THREADS[1].restype = [ctypes.c_int], None
except (AttributeError, OSError):
    _BLAS_THREADS = (lambda: None), (lambda count: None)
#: the widest half-bandwidth whose dpbtrf is made with scipy's OpenBLAS pinned to
#: one thread: up to it one thread is as fast or faster than two, above it slower
#: (2-vCPU x86-64, OpenBLAS 0.3.30: 114 against 131 ms at kd = 811, 135 against
#: 117 ms at kd = 860, 1.7 against 1.0 s at kd = 1626, at any n)
ONE_THREAD_KD = 835
# LAPACK's dpbtrf by scipy's Cython function pointer, called through ctypes, which releases the GIL
_cap = cython_lapack.__pyx_capi__["dpbtrf"]
_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(("PyCapsule_GetName", ctypes.pythonapi))
_get = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(("PyCapsule_GetPointer", ctypes.pythonapi))
_int = ctypes.POINTER(ctypes.c_int)
_DPBTRF = ctypes.CFUNCTYPE(None, ctypes.c_char_p, _int, _int, ctypes.c_void_p, _int, _int)(_get(_cap, _name(_cap)))


def _dpbtrf(band):
    """Factor in place, by LAPACK's ``dpbtrf``, the lower band ``band`` (a
    Fortran-order float64 ``(kd + 1, n)`` array); returns ``info``."""
    if band.dtype != np.float64 or not band.flags.f_contiguous:
        raise ValueError("dpbtrf needs a Fortran-order float64 band")
    info, (rows, n) = ctypes.c_int(), band.shape
    _DPBTRF(b"L", ctypes.c_int(n), ctypes.c_int(rows - 1), band.ctypes.data, ctypes.c_int(rows), info)
    return info.value


def _available_bytes():
    """The memory the host reports as available (``MemAvailable`` in
    ``/proc/meminfo``), in bytes; None where that cannot be read."""
    with contextlib.suppress(OSError, ValueError, IndexError, StopIteration), open("/proc/meminfo") as fh:
        return 1024 * int(next(line for line in fh if line.startswith("MemAvailable:")).split()[1])
    return None


def _band_layout(mat):
    """The band layout of the CSR matrix ``mat``'s pattern (see
    :class:`BandFactor`): ``order``, ``kd``, ``entries`` and ``slots``.  The
    arrays are read as the CSC pattern of the transpose, the same pattern."""
    n = mat.shape[0]
    order = reverse_cuthill_mckee(mat, symmetric_mode=True).astype(np.intp)
    rank = np.empty(n, dtype=np.intp)
    rank[order] = np.arange(n)
    rows, cols = rank[mat.indices], np.repeat(rank, np.diff(mat.indptr))
    entries = np.flatnonzero(rows >= cols)
    offsets = rows[entries] - cols[entries]
    kd = int(offsets.max(initial=0))
    return order, kd, entries, offsets + cols[entries] * (kd + 1)


@dataclass(eq=False)
class BandFactor:
    """The band Cholesky factor that the systems of one mesh share, kept with
    the layout of the symmetric pattern of ``pattern`` (a CSR matrix) after
    a reverse Cuthill-McKee reordering, made at its first use (``layout``).

    Row and column ``order[i]`` of the matrix are row and column i of the
    permuted one, whose half-bandwidth is ``kd``.  ``entries`` indexes the
    lower-triangle entries of the pattern's ``data`` (in the permuted
    numbering) and ``slots`` gives each one's flat position in ``band``,
    LAPACK's lower band storage: a Fortran-order ``(kd + 1, n)`` array where
    A[i, j] sits in row i - j of column j, allocated at the first factor and
    refilled by every later one.  ``eps`` is the eps whose matrix ``band``
    factors (None while it factors none) and ``x`` the last solution on the
    free DoFs refined from it (None until a solve has), where a solve from
    the factor starts."""

    pattern: sp.csr_matrix
    band: np.ndarray | None = None
    eps: float | None = None
    x: np.ndarray | None = None
    seconds: float | None = None  # of the dpbtrf call that made the factor
    beside: bool = False  # whether that call ran on a lane beside the caller (see FreeParts.begin)
    threads: int | None = None  # the BLAS threads it ran with (None where the count cannot be read)

    @classmethod
    def for_pattern(cls, mat):
        """The (empty) factor of the CSR matrix ``mat``'s pattern, which must
        be structurally symmetric and canonical (each entry stored once, in
        sorted order)."""
        if not mat.has_canonical_format:
            raise ValueError("the band layout needs a canonical pattern: an entry stored twice would lose a term")
        return cls(mat)

    layout = functools.cached_property(lambda self: _band_layout(self.pattern))
    order, kd, entries, slots = (property(lambda self, i=i: self.layout[i]) for i in range(4))

    def factor(self, mat, eps, lane=None):
        """Factor the symmetric matrix ``mat`` of this pattern, the system's at
        ``eps``, in place: its lower-triangle entries are assigned into the
        zeroed band (the slots are distinct), allocated after trimming the heap
        the first time if it fits in the available memory (else
        :class:`SolveError`), and :func:`_dpbtrf` factors it: with scipy's OpenBLAS
        pinned to one thread where ``kd <= ONE_THREAD_KD``, else with the
        caller's pool.  The band and the gather of ``mat``'s entries are made
        on the calling thread; the fill, the pin and the factor run inline, or
        on ``lane`` (an executor, whose Future is returned) if given.  A matrix
        that is not positive definite raises :class:`SolveError`; either error
        leaves no factor held."""
        self.eps = self.x = None
        if self.band is None:
            MALLOC_TRIM(0)
            need, have = 8 * (self.kd + 1) * len(self.order), _available_bytes()
            if have is not None and need > have:
                raise SolveError(f"the band needs {need} bytes, more than the {have} bytes available")
            self.band = np.zeros((self.kd + 1, len(self.order)), order="F")
        else:
            self.band.fill(0.0)
        values, caller = mat.data[self.entries], _BLAS_THREADS[0]()
        self.threads = 1 if self.kd <= ONE_THREAD_KD and caller is not None else caller
        self.beside = lane is not None

        def run():  # allocates no array
            self.band.reshape(-1, order="F")[self.slots] = values
            if self.threads != caller:  # pin
                _BLAS_THREADS[1](self.threads)
            try:
                start = time.perf_counter()
                info = _dpbtrf(self.band)
                self.seconds = time.perf_counter() - start
            finally:
                if self.threads != caller:  # undo the pin
                    _BLAS_THREADS[1](caller)
            if info:
                at = f"pivot {info} of {len(self.order)} (row {self.order[info - 1]})" if info > 0 else f"info {info}"
                raise SolveError(f"matrix is not positive definite: Cholesky {at} is not positive")
            self.eps = eps
        return run() if lane is None else lane.submit(run)

    def solve(self, rhs):
        x, _ = lapack.dpbtrs(self.band, rhs[self.order], lower=1, overwrite_b=1)
        out = np.empty_like(x)
        out[self.order] = x
        return out

    def release(self):
        """Drop the band, its eps and the last solution; the layout stays."""
        self.band = self.eps = self.x = None


def solve(system):
    """Direct sparse solve with extended-precision refinement and a residual
    check.  The matrix is symmetric positive definite (the mesh-dependent
    penalty makes the form coercive), so it is factored by the banded
    Cholesky of ``system.factor``, in reverse Cuthill-McKee order laid out
    once per mesh; a matrix that is not positive definite raises
    :class:`SolveError`.  The refinement's residuals run on the CSR matrix,
    converted to long double once per system.
    Besides the relative residual, the diagnostics hold the componentwise
    backward error max_i |r_i| / (|A||x| + |b|)_i (Oettli-Prager), the
    residual floor u || |A||x| || / ||b||, the eps whose matrix was factored
    (``factor_eps``), the entries the factor stores (``factor_nnz``), its
    half-bandwidth (``bandwidth``) and, of a factor made for it, the
    ``dpbtrf`` seconds (``factor_s``), if it ran beside (``factor_beside``)
    and the BLAS threads it ran with (``factor_threads``).

    The systems of one mesh share their factors; one made at its eps that
    no solve has refined from (such as the one :meth:`FreeParts.begin`
    makes beside the set-up) is its fresh factor.  Else one held from an eps
    e0 >= eps is tried first, starting from the mesh's last solution (eps
    continuation): with A = G + eps^2 H and M = G + e0^2 H, the
    refinement's iteration matrix I - M^-1 A = (e0^2 - eps^2) M^-1 H has its
    eigenvalues in [0, 1), small when e0^2 H is small against G.  The attempt is given up when :func:`_refine`
    projects that it cannot meet the target, and whenever it ends above the
    target.  Then, where the contraction rho = eps^2 max_i H_ii / G_ii (the
    system's ``rho``, which estimates eps^2 lambda_max(G^-1 H)) is at most
    :data:`LIMIT_CONTRACTION`, the limit factor of G alone on its own
    pattern (``system.limit``, held or made afresh, starting from G^-1 b) is
    tried the same way: ``factor_eps`` is then 0.0.  Else, or when that is
    given up or its Cholesky fails, the matrix is factored afresh in the
    full band.  Making one factor releases the other's band."""
    mat, rhs, factor, limit = system.matrix, system.rhs, system.factor, system.limit
    diagnostics = {"method": "band-cholesky", "refine_steps": 0, "n_free": system.n_free, "nnz": int(mat.nnz)}
    used, made = factor, False
    if not np.any(rhs):
        x = np.zeros(len(rhs), dtype=SOLUTION_DTYPE)
        residual = 0.0
        diagnostics.update(backward_error=0.0, residual_floor=0.0, factor_eps=None, factor_nnz=0, bandwidth=None)
    else:
        mat_ld, refined = _with_data(mat, mat.data.astype(np.longdouble)), None
        fresh = factor.x is None and factor.eps == system.eps
        if factor.x is not None and factor.eps is not None and factor.eps >= system.eps:
            refined = _refine(mat_ld, rhs, factor.x, factor, RESIDUAL_TARGET, accuracy=diagnostics, may_abort=True)
        if refined is None and not fresh and limit is not None and system.rho <= LIMIT_CONTRACTION:
            used = limit
            with contextlib.suppress(SolveError):  # a limit Cholesky that fails falls back to the full one
                if limit.eps is None:
                    factor.release()
                    limit.factor(limit.pattern, 0.0)
                refined = _refine(mat_ld, rhs, limit.solve(rhs), limit, RESIDUAL_TARGET, accuracy=diagnostics,
                                  may_abort=True)
        if refined is None:
            used = factor
            if limit is not None:
                limit.release()
            if not fresh:
                factor.factor(mat, system.eps)
            refined = _refine(mat_ld, rhs, factor.solve(rhs), factor, RESIDUAL_TARGET, accuracy=diagnostics)
        diagnostics.update(factor_eps=used.eps, factor_nnz=int(used.band.size), bandwidth=used.kd)
        x, residual, diagnostics["refine_steps"] = refined
        made, used.x = used.x is None, x
        if not np.isfinite(residual) or residual > RESIDUAL_TARGET:
            raise SolveError(f"relative residual {residual:.3e} above {RESIDUAL_TARGET:.1e}")
    values = np.zeros(system.dof_map.n_dofs, dtype=x.dtype)
    values[system.free_indices] = x
    diagnostics.update(factor_s=used.seconds if made else None, factor_beside=made and used.beside)
    diagnostics["factor_threads"] = used.threads if made else None
    diagnostics["residual"] = residual
    return DiscreteSolution(values=values, eps=system.eps, residual=residual, diagnostics=diagnostics)


def _refine(mat, rhs, x, factor, residual_target, max_steps=4, accuracy=None, may_abort=False):
    """Mixed-precision iterative refinement.

    Residuals are evaluated in extended precision; plain double evaluation
    bottoms out near u * ||M|| * ||x|| / ||b||, which for the stiff
    small-mesh-size systems sits right at the residual target.  ``mat`` is
    best given in long double, so that one conversion serves several calls
    (a double one is upcast at every product), and as CSR, whose products
    run about twice as fast as a CSC one's.  The solution is accumulated in
    :data:`SOLUTION_DTYPE`: from about 1000 cells on, even the double
    vector nearest the exact solution has a residual above the target,
    while the long double one meets it after a correction or two.
    ``factor.solve`` computes each correction in double.  The corrections
    stop within ``residual_target / 10``, after ``max_steps``, or once one
    stalls (:data:`STALL_RATIO`): at the long-double floor more buy nothing.
    Returns the refined solution, its relative residual and the number of
    corrections applied; the residual is always that of the returned
    solution, and the backward error and residual floor written into
    ``accuracy`` are its too.  With ``may_abort``, returns None instead when
    the refinement will not or did not meet the target: before the first
    correction if the start residual, taken as the ratio every correction
    shrinks it by, would stay above ``residual_target / 10``; after the
    first correction if the residual, shrinking by that correction's ratio
    for the remaining steps, would; and at the end if it is above
    ``residual_target``.
    """
    rhs_ld = rhs.astype(np.longdouble)
    rhs_norm = math.sqrt(dot(rhs, rhs))
    x = x.astype(SOLUTION_DTYPE)
    steps = 0
    while True:
        r = (rhs_ld - mat @ x.astype(np.longdouble, copy=False)).astype(float)
        residual = math.sqrt(dot(r, r)) / rhs_norm
        stalled = steps and residual > STALL_RATIO * previous
        if residual <= residual_target / 10.0 or steps == max_steps or stalled:
            break
        if may_abort and steps < 2:
            ratio = residual / previous if steps else residual
            if not residual * ratio ** (max_steps - steps) <= residual_target / 10.0:
                return None
        previous = residual
        x = x + factor.solve(r)
        steps += 1
    if may_abort and not residual <= residual_target:
        return None
    if accuracy is not None:
        scale = _with_data(mat, np.abs(mat.data, dtype=float)) @ np.abs(x.astype(float))
        bound = scale + np.abs(rhs)
        ratio = np.divide(np.abs(r), bound, out=np.zeros_like(r), where=bound > 0.0)
        accuracy["backward_error"] = float(ratio.max())
        accuracy["residual_floor"] = UNIT_ROUNDOFF * math.sqrt(dot(scale, scale)) / rhs_norm
    return x, residual, steps
