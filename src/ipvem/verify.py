"""Manufactured solutions, forcing, discrete errors and convergence rates.

A discrete solution is never pointwise evaluable inside a cell, so the error
is measured from computable data: the discrete energy norm of the DoF
interpolation error (exact-solution DoFs minus solution DoFs), whose
components are the Hessian-form-plus-penalty energy and the gradient-form
energy, summed cell by cell and edge by edge; that is the norm the penalty
parameter controls and it matches the reference convergence figures.
Broken seminorm errors of the element solution polynomials are reported
alongside.  Everything that does not depend on eps (the exact
solution's DoFs, and fits of its partials with the residual integrals of
those fits) is gathered once per mesh in an :class:`ErrorData`, so the
error at each eps touches only per-cell and per-edge arrays.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from numpy.polynomial import polynomial as npoly

from .basis import dot


@dataclass(frozen=True)
class ManufacturedSolution:
    """Closed-form solution with partial derivatives through order four.

    ``partial(i, j, x, y)`` evaluates d^(i+j) u / dx^i dy^j; ``clamped``
    records whether both the value and the normal derivative vanish on the
    boundary of the unit square.  ``tabulate(x, y)``, if given, returns the
    partials at fixed points as a function of (i, j), evaluating the work
    they share (trigonometric factors, factor derivatives) once.
    """

    name: str
    partial: object
    clamped: bool = True
    tabulate: object = None

    def __call__(self, x, y):
        return self.partial(0, 0, x, y)

    def at(self, x, y):
        """The partials at the points ``(x, y)`` as a function of (i, j)."""
        if self.tabulate is not None:
            return self.tabulate(x, y)
        return lambda i, j: self.partial(i, j, x, y)


def _poly_sin_derivative(coeffs, n):
    """Coefficients (s, c) with d^n/dx^n [p(x) sin(pi x)] = s(x) sin(pi x)
    + c(x) cos(pi x), by the product rule: the m-th derivative of sin(pi x)
    is pi^m sin(pi x + m pi/2), whose shift cycles through sin, cos, -sin,
    -cos."""
    s = c = np.zeros(1)
    for i in range(n + 1):
        m = n - i
        term = math.comb(n, i) * math.pi**m * (-1.0 if m % 4 >= 2 else 1.0) * npoly.polyder(coeffs, i)
        if m % 2:
            c = npoly.polyadd(c, term)
        else:
            s = npoly.polyadd(s, term)
    return s, c


# u = 10 x^2 (1-x)^2 sin(pi x) * y^2 (1-y)^2: the coefficients of its x and
# y factors' partials through order four
_EX1_X = [_poly_sin_derivative([0.0, 0.0, 10.0, -20.0, 10.0], n) for n in range(5)]
_EX1_Y = [npoly.polyder([0.0, 0.0, 1.0, -2.0, 1.0], n) for n in range(5)]


def _example1_at(x, y):
    """Example 1's partials at fixed points: sin(pi x), cos(pi x) and each
    factor derivative are evaluated once."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    sin, cos = np.sin(math.pi * x), np.cos(math.pi * x)

    @functools.cache
    def gx(i):
        s, c = _EX1_X[i]
        g = npoly.polyval(x, s) * sin
        if i:
            g += npoly.polyval(x, c) * cos
        return g

    gy = functools.cache(lambda j: npoly.polyval(y, _EX1_Y[j]))
    return lambda i, j: gx(i) * gy(j)


def _example1_partial(i, j, x, y):
    return _example1_at(x, y)(i, j)


def _sin_squared_derivs(x):
    """The n-th derivative of sin(pi x)^2 = (1 - cos(w x))/2, w = 2 pi, as a
    function of n = 0..4.  For n >= 1 it is -(1/2) w^n cos(w x + n pi/2),
    which cycles through sin, cos, -sin, -cos of w x times w^n / 2: orders
    0, 1 and 2 are made once each, from sin(pi x), sin(w x) and cos(w x), and
    kept; orders 3 and 4, -w^2 times orders 1 and 2, are made at each call."""
    x = np.asarray(x, dtype=float)
    w = 2.0 * math.pi

    @functools.cache
    def low(n):
        return np.sin(math.pi * x) ** 2 if n == 0 else 0.5 * w**n * (np.sin, np.cos)[n - 1](w * x)
    return lambda n: low(n) if n < 3 else -(w**2) * low(n - 2)


def _example2_at(x, y):
    """Example 2's partials at fixed points, each factor derivative
    evaluated once."""
    gx, gy = _sin_squared_derivs(x), _sin_squared_derivs(y)
    return lambda i, j: gx(i) * gy(j)


def _example2_partial(i, j, x, y):
    return _example2_at(x, y)(i, j)


EXAMPLES = {
    1: ManufacturedSolution("example1", _example1_partial, tabulate=_example1_at),
    2: ManufacturedSolution("example2", _example2_partial, tabulate=_example2_at),
}


def example_solution(which):
    try:
        return EXAMPLES[int(which)]
    except (KeyError, ValueError):
        raise ValueError(f"unknown example {which!r}; available: {sorted(EXAMPLES)}")


def biharmonic(exact):
    """The biharmonic of u from its partials ``exact(i, j)`` at some points."""
    return exact(4, 0) + 2.0 * exact(2, 2) + exact(0, 4)


def neg_laplacian(exact):
    """Minus the Laplacian of u from its partials ``exact(i, j)``."""
    return -(exact(2, 0) + exact(0, 2))


@dataclass(eq=False)
class ErrorRecord:
    """Energy error of one (mesh, eps) run.

    ``h2_part`` and ``h1_part`` are the unweighted components entering the
    total, so e_total^2 = eps^2 h2_part^2 + h1_part^2 holds exactly as
    stored.  The projection-based seminorm errors are kept alongside for
    comparison: ``proj_h2`` measures |u - p2|_{2,h} with p2 the h2-projected
    solution polynomial, ``proj_h1`` measures |u - p1|_{1,h} with the
    h1-projected one, and ``proj_h1_via_h2`` the gradient error of p2.
    ``solve`` holds the diagnostics of the solve that produced the record
    and ``seconds``, where a study fills it in, the wall seconds of its
    ``reduce``, ``solve`` and ``error`` stages.
    """

    eps: float
    n_cells: int
    h_max: float
    e_total: float
    h2_part: float
    h1_part: float
    j1_energy: float = 0.0
    proj_h2: float = float("nan")
    proj_h1: float = float("nan")
    proj_h1_via_h2: float = float("nan")
    solve: dict = field(default_factory=dict)
    seconds: dict = field(default_factory=dict)


def interpolation_dofs(mesh, elements, msol, exact=None):
    """Global DoF vector of the exact solution: its values at the mesh
    vertices and edge midpoints, and its fan-quadrature cell means.
    ``exact``, if given, is ``msol.at`` of the fan-rule points."""
    verts, rule = mesh.vertices, elements.fan_rule
    points = np.vstack([verts, 0.5 * (verts[mesh.edges[:, 0]] + verts[mesh.edges[:, 1]])])
    means = rule.cell_moments((exact or msol.at(*rule.points.T))(0, 0), 0)[:, 0] / elements.geometry.area
    return np.concatenate([np.broadcast_to(msol(points[:, 0], points[:, 1]), len(points)), means])


@dataclass(eq=False)
class ErrorData:
    """The eps-independent part of the error evaluation on one mesh.

    The exact gradient is fitted on each cell over 1, xi, eta and the exact
    Hessian by its cell mean, both in the fan-rule inner product.  The fit
    residual is orthogonal to the fit space, so for any p in that space
    int (u - p)^2 = int (u - fit)^2 + (fit - p)^T M (fit - p) with M the
    cell's Gram matrix: the first terms, summed over the mesh, are the two
    residual integrals kept here, and each eps adds only the second, from
    (C, 3) arrays.  Also kept: the exact-solution DoFs, and what the energy
    norm sums: the set-up's cell forms, whose elements hold the DoF indices,
    the projectors and the geometry, and the edge-trace operator J with its
    penalty weights."""

    grad_fit: np.ndarray        # (C, 2, 3) ux and uy over 1, xi, eta
    hess_mean: np.ndarray       # (C, 3) cell means of uxx, uxy, uyy
    grad_residual: float        # int |grad u - fit|^2 over the mesh
    hess_residual: float        # int |D^2 u - mean|^2 (Frobenius) over the mesh
    exact_dofs: np.ndarray      # (n_dofs,) DoFs of the exact solution
    cell_forms: object          # the set-up's forms.CellForms
    jump: sp.csr_matrix         # (3 E, n_dofs) the edge-trace operator J
    weights: np.ndarray         # (3 E,) penalty weight of each row of J


def build_error_data(mesh, cell_forms, traces, msol, exact):
    """Error data of one mesh, built once and shared by every eps, from its
    :class:`~ipvem.forms.CellForms` and :class:`~ipvem.forms.EdgeTraces`, whose
    J is built last, here; ``exact`` is ``msol.at`` of the fan-rule points."""
    elements, rule = cell_forms.elements, cell_forms.elements.fan_rule
    w, xi, eta, counts = rule.weights, rule.xi, rule.eta, rule.counts
    # the rule is exact at degree 2: the Gram matrices of 1, xi, eta are the
    # leading block of the elements' mass matrices
    gram = elements.mass[:, :3, :3]
    grad_fit, grad_residual = np.empty((mesh.n_cells, 2, 3)), 0.0
    for k, u in enumerate((exact(1, 0), exact(0, 1))):
        fit = grad_fit[:, k] = np.linalg.solve(gram, rule.cell_moments(u, 1)[:, :, None])[:, :, 0]
        r = u - np.repeat(fit[:, 0], counts) - np.repeat(fit[:, 1], counts) * xi - np.repeat(fit[:, 2], counts) * eta
        grad_residual += dot(w, r**2)
    hess_mean, hess_residual = np.empty((mesh.n_cells, 3)), 0.0
    for k, (u, weight) in enumerate(((exact(2, 0), 1.0), (exact(1, 1), 2.0), (exact(0, 2), 1.0))):
        mean = hess_mean[:, k] = rule.cell_moments(u, 0)[:, 0] / elements.geometry.area
        hess_residual += weight * dot(w, (u - np.repeat(mean, counts)) ** 2)
    exact_dofs = interpolation_dofs(mesh, elements, msol, exact)
    return ErrorData(
        grad_fit, hess_mean, grad_residual, hess_residual, exact_dofs, cell_forms, traces.jump, traces.weights
    )


#: columns of (c1, c2, 2 c3, c4, 2 c5) / h holding the x and y partials'
#: coefficients over 1, xi, eta
_GRADIENT_COLUMNS = np.array([[0, 2, 3], [1, 3, 4]])


def _projection_errors(data, values):
    """Broken seminorm errors of the element solution polynomials.

    Returns (|u - p2|_{2,h}, |u - p1|_{1,h}, |u - p2|_{1,h}) with p2 and p1
    the h2- and h1-projected polynomials of the DoF vector ``values``
    (double or ``np.longdouble``).  On the k = 2 basis 1, xi, eta, xi^2,
    xi eta, eta^2 the polynomial c has the gradient
    (c1 + 2 c3 xi + c4 eta, c2 + c4 xi + 2 c5 eta) / h and the constant
    Hessian (2 c3, c4, 2 c5) / h^2.  Both lie in the spaces of the
    :class:`ErrorData` fits, so each squared error is the mesh's residual
    integral plus a Gram-weighted sum of squares over the cells: no
    quadrature point is visited.
    """
    elements = data.cell_forms.elements
    g, local = elements.geometry, values[elements.dofs]
    inv_h = 1.0 / g.diameter
    # columns 1-5 of each polynomial become (c1, c2, 2 c3, c4, 2 c5) / h
    scale = np.array([1.0, 1.0, 1.0, 2.0, 1.0, 2.0]) * inv_h[:, None]
    p2, p1 = (np.einsum("ckn,cn->ck", coeff, local) * scale for coeff in (elements.h2_coeff, elements.h1_coeff))

    def gradient_error_sq(c):
        d = data.grad_fit - c[:, _GRADIENT_COLUMNS]
        return data.grad_residual + float(np.einsum("cki,cij,ckj->", d, elements.mass[:, :3, :3], d))

    d = data.hess_mean - p2[:, 3:6] * inv_h[:, None]
    h2_sq = data.hess_residual + dot(g.area, d[:, 0] ** 2 + 2.0 * d[:, 1] ** 2 + d[:, 2] ** 2)
    return math.sqrt(h2_sq), math.sqrt(gradient_error_sq(p1[:, 1:6])), math.sqrt(gradient_error_sq(p2[:, 1:6]))


def _cell_energy(forms, local):
    """sum_c v_c^T F_c v_c over the cells, of the (C, N, N) cell forms F and
    the (C, N) local DoF vectors v."""
    return dot(np.einsum("cij,cj->ci", forms, local).ravel(), local.ravel())


def _penalty_energy(data, x):
    """The penalty energy sum_e lam_e int_e [d_n x]^2 = sum(weights (J x)^2)
    of the DoF vector ``x``: a sum of nonnegative terms."""
    jump = data.jump @ x
    return dot(data.weights, jump * jump)


def energy_error(data, solution):
    """Error record of a discrete solution against the exact one.

    ``data`` is the mesh's :class:`ErrorData`.  The norm is the discrete
    energy of the DoF interpolation error delta = dofs(u) - dofs(u_h): the
    Hessian component is the a-form energy plus the penalty energy of
    delta, the gradient component the b-form energy, mirroring the norm the
    penalty parameter is designed to control.  Each is summed from local
    terms, the cell forms on each cell's DoFs and the penalty on each
    edge's jumps, so no term cancels another.  ``j1_energy`` is the penalty
    energy sum_e lam_e int_e [d_n u_h]^2 of the solution itself, and the
    ``proj_*`` fields the broken seminorm errors of its element
    polynomials.  All work on the double rounding of the solution's
    (extended-precision) DoF vector.
    """
    eps = solution.eps
    values = np.asarray(solution.values, dtype=float)
    proj = _projection_errors(data, values)
    delta = data.exact_dofs - values
    forms = data.cell_forms
    local = delta[forms.elements.dofs]
    h2_sq = _cell_energy(forms.a, local) + _penalty_energy(data, delta)
    h1_sq = _cell_energy(forms.b, local)
    return ErrorRecord(
        eps=eps,
        n_cells=len(local),
        h_max=float(forms.elements.geometry.diameter.max()),
        e_total=math.sqrt(eps**2 * h2_sq + h1_sq),
        h2_part=math.sqrt(h2_sq),
        h1_part=math.sqrt(h1_sq),
        j1_energy=_penalty_energy(data, values),
        proj_h2=proj[0],
        proj_h1=proj[1],
        proj_h1_via_h2=proj[2],
    )


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


def series_rate(x, errors):
    """:func:`fit_rate` of a series given in any order, fitted on its points
    sorted by decreasing ``x``; None with fewer than two points or where two
    points share an ``x``."""
    x, errors = np.asarray(x, dtype=float), np.asarray(errors, dtype=float)
    order = np.argsort(-x, kind="stable")
    if len(x) < 2 or np.any(np.diff(x[order]) == 0.0):
        return None
    return fit_rate(x[order], errors[order])


@dataclass(eq=False)
class ConvergenceReport:
    """Error records per eps with their fitted rates."""

    records: dict                   # eps -> list[ErrorRecord], sorted by decreasing h
    rates_h: dict = field(default_factory=dict)
    rates_n: dict = field(default_factory=dict)
    rates_last_pair: dict = field(default_factory=dict)  # eps -> local rate vs h_max of the two finest meshes

    def finalize(self):
        """Sort each eps's records by decreasing h_max and fit its rates; a
        series of fewer than three records, or with two of one mesh size,
        gets none.  The local rate of the two finest meshes needs two records
        of two mesh sizes: a fit over the whole series hides a collapse of the
        rate at its fine end."""
        for eps, recs in self.records.items():
            recs.sort(key=lambda r: -r.h_max)
            last = series_rate([r.h_max for r in recs[-2:]], [r.e_total for r in recs[-2:]])
            if last is not None:
                self.rates_last_pair[eps] = last
            if len(recs) < 3:
                continue
            errors = [r.e_total for r in recs]
            rate_h = series_rate([r.h_max for r in recs], errors)
            rate_n = series_rate([r.n_cells**-0.5 for r in recs], errors)
            if rate_h is not None and rate_n is not None:
                self.rates_h[eps], self.rates_n[eps] = rate_h, rate_n
        return self
