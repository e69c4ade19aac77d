"""Scaled monomial calculus and quadrature on edges, triangles and polygons.

All cell-local polynomial work happens in the scaled variables
xi = (x - x_D)/h_D, eta = (y - y_D)/h_D, where x_D is the centroid and h_D
the diameter of the domain piece.  This keeps the small per-element linear
systems well conditioned independently of the element size.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import legendre as npleg

#: polynomial order k of the method: the eps-uniform analysis, and this
#: code, cover the lowest order k = 2 only
ORDER = 2
#: order of the centroid-fan rule for loads, exact-solution moments and errors
QUAD_ORDER = 8
MAX_TRIANGLE_ORDER = 20


def monomial_exponents(degree):
    """Exponent pairs of the 2D monomial basis, graded by total degree.

    Within each degree the x-exponent decreases, so the first six members
    are 1, xi, eta, xi^2, xi*eta, eta^2.
    """
    return [(d - j, j) for d in range(degree + 1) for j in range(d + 1)]


@dataclass(eq=False)
class ScaledMonomialBasis:
    """Monomials ((x-x_D)/h_D)^p ((y-y_D)/h_D)^q up to a total degree."""

    center: np.ndarray
    diameter: float
    degree: int
    exponents: list = field(init=False)

    def __post_init__(self):
        self.center = np.asarray(self.center, dtype=float)
        if self.diameter <= 0.0:
            raise ValueError("basis diameter must be positive")
        self.exponents = monomial_exponents(self.degree)
        self._index = {e: i for i, e in enumerate(self.exponents)}

    @property
    def dim(self):
        return len(self.exponents)

    def index_of(self, exponent):
        return self._index[tuple(exponent)]

    def scaled_coords(self, points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return (pts - self.center) / self.diameter

    def evaluate(self, points):
        """Values of every basis member at ``points``, shape (npts, dim)."""
        sc = self.scaled_coords(points)
        xi, eta = sc[:, 0], sc[:, 1]
        out = np.empty((sc.shape[0], self.dim))
        for j, (p, q) in enumerate(self.exponents):
            out[:, j] = xi**p * eta**q
        return out


@dataclass(eq=False)
class PolyCoeffs:
    """Coefficient vector over a scaled monomial basis."""

    basis: object
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.basis.dim,):
            raise ValueError(
                f"coefficient length {self.values.shape} does not match basis dim {self.basis.dim}"
            )

    def __call__(self, points):
        return self.basis.evaluate(points) @ self.values


def derivative_matrix(basis, axis):
    """Matrix D with D @ c = coefficients of the requested partial derivative.

    The derivative lives on the same basis; the 1/h_D factor from the scaled
    variables is included.
    """
    ax = {"x": 0, "y": 1}[axis]
    dim = basis.dim
    D = np.zeros((dim, dim))
    for j, (p, q) in enumerate(basis.exponents):
        e = (p, q)
        if e[ax] == 0:
            continue
        target = (p - 1, q) if ax == 0 else (p, q - 1)
        D[basis.index_of(target), j] = e[ax] / basis.diameter
    return D


@dataclass(frozen=True)
class EdgeRule:
    """Quadrature rule on the reference interval [0, 1], weights sum to one."""

    nodes: tuple
    weights: tuple
    degree: int

    def integrate(self, fvals):
        return float(np.dot(self.weights, fvals))


def gauss_lobatto(k):
    """Gauss-Lobatto rule with k+1 nodes on [0, 1], exact to degree 2k-1.

    Endpoints are always nodes; for k = 2 this is Simpson's rule.
    """
    if k < 2:
        raise ValueError(f"gauss_lobatto requires k >= 2, got {k}")
    coeffs = np.zeros(k + 1)
    coeffs[k] = 1.0
    interior = npleg.legroots(npleg.legder(coeffs))
    nodes = np.concatenate(([-1.0], np.sort(interior), [1.0]))
    pk = npleg.legval(nodes, coeffs)
    weights = 2.0 / (k * (k + 1) * pk**2)
    # map [-1, 1] -> [0, 1]; weights halve so they sum to one
    return EdgeRule(
        nodes=tuple((nodes + 1.0) / 2.0),
        weights=tuple(weights / 2.0),
        degree=2 * k - 1,
    )


#: Simpson's rule, the k = 2 Gauss-Lobatto weights at an edge's tail vertex,
#: midpoint and head vertex: exact for every edge integrand at k = 2
SIMPSON = np.array(gauss_lobatto(ORDER).weights)
SIMPSON.flags.writeable = False


@functools.lru_cache(maxsize=None)
def gauss_legendre_01(n):
    """Gauss-Legendre nodes/weights on [0, 1].

    Each rule is built once; every call returns the same read-only arrays.
    """
    x, w = npleg.leggauss(n)
    t, wt = (x + 1.0) / 2.0, w / 2.0
    t.flags.writeable = False
    wt.flags.writeable = False
    return t, wt


@functools.lru_cache(maxsize=None)
def triangle_quadrature(order):
    """Quadrature on the reference triangle (0,0)-(1,0)-(0,1), exact to ``order``.

    Orders 1 and 2 are the classical centroid and three-point rules; higher
    orders use a collapsed tensor Gauss-Legendre rule.  Each rule is built
    once; every call returns the same read-only arrays.
    """
    if order < 1 or order > MAX_TRIANGLE_ORDER:
        raise ValueError(f"triangle quadrature order {order} unsupported")
    if order == 1:
        pts, w = np.array([[1.0 / 3.0, 1.0 / 3.0]]), np.array([0.5])
    elif order == 2:
        pts = np.array([[1 / 6, 1 / 6], [2 / 3, 1 / 6], [1 / 6, 2 / 3]])
        w = np.full(3, 1.0 / 6.0)
    else:
        # x = u, y = v(1-u): the Jacobian (1-u) raises the u-degree by one
        nu = (order + 3) // 2
        nv = (order + 2) // 2
        u, wu = gauss_legendre_01(nu)
        v, wv = gauss_legendre_01(nv)
        U, V = np.meshgrid(u, v, indexing="ij")
        w = (np.outer(wu, wv) * (1.0 - U)).ravel()
        pts = np.column_stack([U.ravel(), (V * (1.0 - U)).ravel()])
    pts.flags.writeable = False
    w.flags.writeable = False
    return pts, w


def map_to_triangle(points, weights, tri):
    """Map a reference-triangle rule onto the physical triangle ``tri`` (3x2).

    The weights carry the signed area, so a clockwise triangle subtracts.
    """
    v0, v1, v2 = np.asarray(tri, dtype=float)
    jac = np.column_stack([v1 - v0, v2 - v0])
    area2 = np.linalg.det(jac)
    phys = v0 + points @ jac.T
    return phys, weights * area2


def monomial_integral_table(geometry, max_degree, basis=None):
    """Exact integrals of every scaled monomial of degree <= max_degree.

    Uses the divergence theorem: a monomial m of degree d centered at the
    centroid satisfies div((x - x_D) m) = (d + 2) m, and (x - x_D) . n is
    constant along each straight edge.  Edge integrals are done with
    Gauss-Legendre of sufficient order, so the values are exact up to
    roundoff.  Returns an array indexed like ``monomial_exponents``.
    """
    if basis is None:
        basis = ScaledMonomialBasis(geometry.centroid, geometry.diameter, max_degree)
    if basis.degree < max_degree:
        raise ValueError("basis degree too small for requested table")
    exps = monomial_exponents(max_degree)
    n = len(exps)
    ngl = max_degree // 2 + 2
    t, wt = gauss_legendre_01(ngl)
    total = np.zeros(n)
    verts = geometry.vertices
    m = len(verts)
    for i in range(m):
        a, b = verts[i], verts[(i + 1) % m]
        normal = geometry.normals[i]
        h_e = geometry.edge_lengths[i]
        dist = float((a - geometry.centroid) @ normal)
        pts = a[None, :] + t[:, None] * (b - a)[None, :]
        vals = basis.evaluate(pts)[:, :n]
        total += dist * h_e * (wt @ vals)
    degrees = np.array([p + q for p, q in exps])
    return total / (degrees + 2)


def polygon_quadrature(geometry, order):
    """Quadrature on a simple polygon via the centroid fan.

    Fan triangles are weighted by their signed areas, so the rule stays
    exact for polynomials of degree <= ``order`` when the polygon is not
    star-shaped with respect to its centroid.
    """
    ref_pts, ref_w = triangle_quadrature(order)
    verts = geometry.vertices
    m = len(verts)
    pts, wts = [], []
    for i in range(m):
        tri = np.array([geometry.centroid, verts[i], verts[(i + 1) % m]])
        p, w = map_to_triangle(ref_pts, ref_w, tri)
        pts.append(p)
        wts.append(w)
    return np.vstack(pts), np.concatenate(wts)


def fan_quadrature(geometries, order):
    """Centroid-fan quadrature on every polygon of ``geometries`` at once.

    Returns ``(points, weights, owner)``: all quadrature points, polygon by
    polygon and fan triangle by fan triangle as ``polygon_quadrature`` orders
    them, their weights, and the position in ``geometries`` of the polygon
    each point belongs to.  Weights carry the signed fan areas, so the rule
    is exact to ``order`` on any simple polygon.
    """
    ref_pts, ref_w = triangle_quadrature(order)
    counts = [g.n_edges for g in geometries]
    tri_owner = np.repeat(np.arange(len(geometries)), counts)
    apex = np.array([g.centroid for g in geometries])[tri_owner]
    tail = np.concatenate([g.vertices for g in geometries]) - apex
    head = np.concatenate([np.roll(g.vertices, -1, axis=0) for g in geometries]) - apex
    fan2 = 2.0 * np.concatenate([g.fan_areas for g in geometries])
    points = (
        apex[:, None, :]
        + ref_pts[None, :, 0, None] * tail[:, None, :]
        + ref_pts[None, :, 1, None] * head[:, None, :]
    )
    weights = fan2[:, None] * ref_w[None, :]
    return points.reshape(-1, 2), weights.ravel(), np.repeat(tri_owner, len(ref_w))
