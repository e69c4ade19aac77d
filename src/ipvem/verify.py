"""Manufactured solutions, forcing, discrete errors and convergence rates.

A discrete solution is never pointwise evaluable inside a cell, so the error
is measured from computable data.  The default is the discrete energy norm
of the DoF interpolation error (exact-solution DoFs minus solution DoFs),
whose components are the assembled Hessian-form-plus-penalty energy and the
gradient-form energy; that is the norm the penalty parameter controls and it
matches the reference convergence figures.  Broken seminorm errors of the
element solution polynomials are computed alongside so both readings of the
error are always reported.  Everything that does not depend on eps (the
quadrature points, the exact solution there and its DoFs) is gathered once
per mesh in an :class:`ErrorData`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import polynomial as npoly

from .basis import QUAD_ORDER, fan_quadrature
from .system import cell_dof_indices


@dataclass(frozen=True)
class ManufacturedSolution:
    """Closed-form solution with partial derivatives through order four.

    ``partial(i, j, x, y)`` evaluates d^(i+j) u / dx^i dy^j; ``clamped``
    records whether both the value and the normal derivative vanish on the
    boundary of the unit square.
    """

    name: str
    partial: object
    clamped: bool = True

    def __call__(self, x, y):
        return self.partial(0, 0, x, y)


def _leibniz_poly_trig(poly_coeffs, freq, n, x):
    """n-th derivative of p(x) * sin(freq x) via the product rule."""
    x = np.asarray(x, dtype=float)
    total = np.zeros_like(x)
    for i in range(n + 1):
        pd = npoly.polyder(poly_coeffs, i) if i else np.asarray(poly_coeffs, dtype=float)
        trig = np.sin(freq * x + (n - i) * math.pi / 2.0)
        total += math.comb(n, i) * npoly.polyval(x, pd) * freq ** (n - i) * trig
    return total


def _example1_partial(i, j, x, y):
    # u = 10 x^2 (1-x)^2 sin(pi x) * y^2 (1-y)^2
    gx = _leibniz_poly_trig([0.0, 0.0, 10.0, -20.0, 10.0], math.pi, i, x)
    hy = npoly.polyval(np.asarray(y, dtype=float), npoly.polyder([0.0, 0.0, 1.0, -2.0, 1.0], j) if j else [0.0, 0.0, 1.0, -2.0, 1.0])
    return gx * hy


def _sin_squared_deriv(n, x):
    """n-th derivative of sin(pi x)^2 = (1 - cos(2 pi x))/2."""
    x = np.asarray(x, dtype=float)
    if n == 0:
        return np.sin(math.pi * x) ** 2
    w = 2.0 * math.pi
    # d/dx^n of -(1/2) cos(w x) = -(1/2) w^n cos(w x + n pi/2)
    return -0.5 * w**n * np.cos(w * x + n * math.pi / 2.0)


def _example2_partial(i, j, x, y):
    return _sin_squared_deriv(i, x) * _sin_squared_deriv(j, y)


EXAMPLES = {
    1: ManufacturedSolution("example1", _example1_partial),
    2: ManufacturedSolution("example2", _example2_partial),
}


def example_solution(which):
    try:
        return EXAMPLES[int(which)]
    except (KeyError, ValueError):
        raise ValueError(f"unknown example {which!r}; available: {sorted(EXAMPLES)}")


def forcing_parts(msol):
    """The two eps-independent load densities (biharmonic u, -laplacian u):
    the source of the perturbed problem is ``eps**2 * f4 + f2``."""

    def f4(x, y):
        return msol.partial(4, 0, x, y) + 2.0 * msol.partial(2, 2, x, y) + msol.partial(0, 4, x, y)

    def f2(x, y):
        return -(msol.partial(2, 0, x, y) + msol.partial(0, 2, x, y))

    return f4, f2


@dataclass(eq=False)
class ErrorRecord:
    """Energy error of one (mesh, eps) run.

    ``h2_part`` and ``h1_part`` are the unweighted components entering the
    total, so e_total^2 = eps^2 h2_part^2 + h1_part^2 holds exactly as
    stored.  The projection-based seminorm errors are kept alongside for
    comparison: ``proj_h2`` measures |u - p2|_{2,h} with p2 the h2-projected
    solution polynomial, ``proj_h1`` measures |u - p1|_{1,h} with the
    h1-projected one, and ``proj_h1_via_h2`` the gradient error of p2.
    ``solve`` holds the diagnostics of the solve that produced the record.
    """

    eps: float
    n_cells: int
    h_max: float
    e_total: float
    h2_part: float
    h1_part: float
    norm: str = "interp-energy"
    j1_energy: float = 0.0
    proj_h2: float = float("nan")
    proj_h1: float = float("nan")
    proj_h1_via_h2: float = float("nan")
    solve: dict = field(default_factory=dict)

    @property
    def decomposition_residual(self):
        return abs(self.e_total**2 - (self.eps**2 * self.h2_part**2 + self.h1_part**2))


def _exact_dofs(mesh, dof_map, msol, owner, weights, values, areas):
    """DoF vector of the exact solution.

    Point DoFs are evaluations at the mesh vertices and edge midpoints; the
    moment of each cell is the fan-quadrature mean of ``values``, the exact
    solution at the points described by ``owner`` and ``weights``.
    """
    verts = mesh.vertices
    mid = 0.5 * (verts[mesh.edges[:, 0]] + verts[mesh.edges[:, 1]])
    n_points = dof_map.n_vertices + dof_map.n_edges
    chi = np.empty(dof_map.n_dofs)
    chi[: dof_map.n_vertices] = msol(verts[:, 0], verts[:, 1])
    chi[dof_map.n_vertices : n_points] = msol(mid[:, 0], mid[:, 1])
    chi[n_points:] = np.bincount(owner, weights=weights * values, minlength=len(areas)) / areas
    return chi


def interpolation_dofs(mesh, dof_map, elements, msol):
    """Global DoF vector of the exact solution: point values and cell means."""
    geoms = [el.geometry for el in elements]
    pts, w, owner = fan_quadrature(geoms, QUAD_ORDER)
    areas = np.array([g.area for g in geoms])
    return _exact_dofs(mesh, dof_map, msol, owner, w, msol(pts[:, 0], pts[:, 1]), areas)


@dataclass(eq=False)
class ErrorData:
    """The eps-independent part of the error evaluation on one mesh.

    The centroid-fan quadrature points of all cells are stored flat: the
    weight, the owning cell, the coordinates scaled by that cell's centroid
    and diameter, and the exact first and second partials.  ``groups``
    holds, per cell valence, the cell ids, their global DoF indices and the
    stacked h2 and h1 projector coefficient matrices (rows 0-5 and 6-11).
    """

    n_cells: int
    h_max: float
    weights: np.ndarray         # (Q,)
    cell: np.ndarray            # (Q,) owning cell of each point
    xi: np.ndarray              # (Q,) scaled coordinates
    eta: np.ndarray
    ux: np.ndarray              # (Q,) exact partials
    uy: np.ndarray
    uxx: np.ndarray
    uxy: np.ndarray
    uyy: np.ndarray
    inv_h: np.ndarray           # (n_cells,) reciprocal cell diameters
    exact_dofs: np.ndarray      # (n_dofs,) DoFs of the exact solution
    groups: list                # [(cells (G,), dofs (G, n), projectors (G, 12, n))]


def build_error_data(mesh, dof_map, elements, msol):
    """Error data of one mesh, built once and shared by every eps."""
    geoms = [el.geometry for el in elements]
    pts, w, cell = fan_quadrature(geoms, QUAD_ORDER)
    x, y = pts[:, 0], pts[:, 1]
    centroids = np.array([g.centroid for g in geoms])
    diameters = np.array([g.diameter for g in geoms])
    areas = np.array([g.area for g in geoms])
    scaled = (pts - centroids[cell]) / diameters[cell, None]

    by_valence = {}
    for el in elements:
        by_valence.setdefault(el.layout.n_vertices, []).append(el)
    groups = [
        (
            np.array([el.cell_id for el in els]),
            np.stack([cell_dof_indices(dof_map, mesh, el.cell_id) for el in els]),
            np.stack([np.vstack([el.projectors.h2_coeff, el.projectors.h1_coeff]) for el in els]),
        )
        for _, els in sorted(by_valence.items())
    ]

    return ErrorData(
        n_cells=mesh.n_cells,
        h_max=float(diameters.max()),
        weights=w,
        cell=cell,
        xi=scaled[:, 0],
        eta=scaled[:, 1],
        ux=msol.partial(1, 0, x, y),
        uy=msol.partial(0, 1, x, y),
        uxx=msol.partial(2, 0, x, y),
        uxy=msol.partial(1, 1, x, y),
        uyy=msol.partial(0, 2, x, y),
        inv_h=1.0 / diameters,
        exact_dofs=_exact_dofs(mesh, dof_map, msol, cell, w, msol(x, y), areas),
        groups=groups,
    )


def _projection_errors(data, values):
    """Broken seminorm errors of the element solution polynomials.

    Returns (|u - p2|_{2,h}, |u - p1|_{1,h}, |u - p2|_{1,h}) with p2 and p1
    the h2- and h1-projected polynomials of the DoF vector ``values``.  On
    the k = 2 basis 1, xi, eta, xi^2, xi eta, eta^2 the polynomial c has the
    gradient (c1 + 2 c3 xi + c4 eta, c2 + c4 xi + 2 c5 eta) / h and the
    constant Hessian (2 c3, c4, 2 c5) / h^2.
    """
    coeffs = np.empty((data.n_cells, 12))
    for cells, dofs, proj in data.groups:
        coeffs[cells] = np.einsum("gkn,gn->gk", proj, values[dofs])
    # columns 1-5 of each half become (c1, c2, 2 c3, c4, 2 c5) / h
    coeffs *= np.tile([1.0, 1.0, 1.0, 2.0, 1.0, 2.0], 2) * data.inv_h[:, None]
    w, cell, xi, eta = data.weights, data.cell, data.xi, data.eta

    def gradient_error_sq(c):
        gx = c[:, 0] + c[:, 2] * xi + c[:, 3] * eta
        gy = c[:, 1] + c[:, 3] * xi + c[:, 4] * eta
        return float(w @ ((data.ux - gx) ** 2 + (data.uy - gy) ** 2))

    hess = coeffs[:, 3:6] * data.inv_h[:, None]
    h2_sq = float(
        w
        @ (
            (data.uxx - hess[cell, 0]) ** 2
            + 2.0 * (data.uxy - hess[cell, 1]) ** 2
            + (data.uyy - hess[cell, 2]) ** 2
        )
    )
    h1_h2_sq = gradient_error_sq(coeffs[cell, 1:6])
    h1_h1_sq = gradient_error_sq(coeffs[cell, 7:12])
    return math.sqrt(h2_sq), math.sqrt(h1_h1_sq), math.sqrt(h1_h2_sq)


def energy_error(data, solution, parts=None, norm="interp-energy"):
    """Error record of a discrete solution against the exact one.

    ``data`` is the mesh's :class:`ErrorData`.  The default norm is the
    discrete energy of the DoF interpolation error
    delta = dofs(u) - dofs(u_h): the Hessian component is the a-form energy
    plus the penalty energy of delta, the gradient component the b-form
    energy, mirroring the norm the penalty parameter is designed to control.
    ``norm='projection'`` uses the broken seminorms of the element solution
    polynomials instead (h2 projection for the Hessian part, h1 projection
    for the gradient part).
    """
    if norm not in ("interp-energy", "projection"):
        raise ValueError("norm must be 'interp-energy' or 'projection'")
    if norm == "interp-energy" and parts is None:
        raise ValueError("interp-energy norm needs the assembled operator parts")
    eps = solution.eps
    proj = _projection_errors(data, solution.values)

    if norm == "interp-energy":
        delta = data.exact_dofs - solution.values
        h2_sq = float(delta @ (parts.a_only @ delta)) + float(delta @ (parts.j1 @ delta))
        h1_sq = float(delta @ (parts.grad @ delta))
    else:
        h2_sq = proj[0] ** 2
        h1_sq = proj[1] ** 2

    return ErrorRecord(
        eps=eps,
        n_cells=data.n_cells,
        h_max=data.h_max,
        e_total=math.sqrt(eps**2 * h2_sq + h1_sq),
        h2_part=math.sqrt(h2_sq),
        h1_part=math.sqrt(h1_sq),
        norm=norm,
        proj_h2=proj[0],
        proj_h1=proj[1],
        proj_h1_via_h2=proj[2],
    )


def j1_energy(solution, j1_matrix):
    """Penalty energy x^T J1 x of a solution vector; nonnegative."""
    x = solution.values
    return float(x @ (j1_matrix @ x))


def fit_rate(h_values, errors):
    """Least-squares slope of log(error) against log(h).

    Needs at least two records with strictly decreasing h.
    """
    h = np.asarray(h_values, dtype=float)
    e = np.asarray(errors, dtype=float)
    if len(h) < 2:
        raise ValueError("rate fit needs at least two records")
    if np.any(np.diff(h) >= 0.0):
        raise ValueError("mesh sizes must be strictly decreasing")
    if np.any(e <= 0.0):
        raise ValueError("errors must be positive for a log-log fit")
    slope, _ = np.polyfit(np.log(h), np.log(e), 1)
    return float(slope)


@dataclass(eq=False)
class ConvergenceReport:
    """Error records per eps with fitted rates and run metadata."""

    records: dict                   # eps -> list[ErrorRecord], sorted by decreasing h
    seed: int
    penalty_a: float
    rates_h: dict = field(default_factory=dict)
    rates_n: dict = field(default_factory=dict)

    def finalize(self):
        for eps, recs in self.records.items():
            recs.sort(key=lambda r: -r.h_max)
            if len(recs) >= 3:
                self.rates_h[eps] = fit_rate([r.h_max for r in recs], [r.e_total for r in recs])
                self.rates_n[eps] = fit_rate(
                    [r.n_cells ** -0.5 for r in recs], [r.e_total for r in recs]
                )
        return self
