"""Scaled monomial calculus and quadrature on edges, triangles and polygons.

All cell-local polynomial work happens in the scaled variables
xi = (x - x_D)/h_D, eta = (y - y_D)/h_D, where x_D is the centroid and h_D
the diameter of the domain piece.  This keeps the small per-element linear
systems well conditioned independently of the element size.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import legendre as npleg

#: polynomial order k of the method: the eps-uniform analysis, and this
#: code, cover the lowest order k = 2 only
ORDER = 2
#: order of the centroid-fan rule for loads, exact-solution moments and errors
QUAD_ORDER = 8
MAX_TRIANGLE_ORDER = 20


def dot(a, b):
    """sum(a * b) of two vectors, by numpy's own loop rather than BLAS: on
    vectors longer than 10000 entries OpenBLAS runs ``ddot`` on its thread
    pool, which is slower at these lengths and leaves the pool's worker
    busy-waiting for about 0.1 s, during which the single-threaded work
    that follows, such as a band factor, runs up to 2x slower on a 2-vCPU
    host."""
    return float(np.einsum("i,i->", a, b))


def monomial_exponents(degree):
    """Exponent pairs of the 2D monomial basis, graded by total degree.

    Within each degree the x-exponent decreases, so the first six members
    are 1, xi, eta, xi^2, xi*eta, eta^2.
    """
    return [(d - j, j) for d in range(degree + 1) for j in range(d + 1)]


def monomials(xi, eta, degree):
    """Every monomial xi^p eta^q of total degree <= ``degree`` at the scaled
    points ``(xi, eta)`` of any shape, stacked on a new last axis.  The
    powers are built by repeated multiplication, which numpy's ``**`` does
    only up to the square (higher powers call ``pow`` per element)."""
    xs, etas = [np.ones_like(xi), xi], [np.ones_like(eta), eta]
    for _ in range(2, degree + 1):
        xs.append(xs[-1] * xi)
        etas.append(etas[-1] * eta)
    return np.stack([xs[p] * etas[q] for p, q in monomial_exponents(degree)], axis=-1)


#: Simpson's rule, the k = 2 Gauss-Lobatto weights at an edge's tail vertex,
#: midpoint and head vertex: exact for every edge integrand at k = 2
SIMPSON = np.array([1 / 6, 2 / 3, 1 / 6])
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

    A collapsed tensor Gauss-Legendre rule.  Each rule is built once; every
    call returns the same read-only arrays.
    """
    if order < 1 or order > MAX_TRIANGLE_ORDER:
        raise ValueError(f"triangle quadrature order {order} unsupported")
    # x = u, y = v(1-u): the Jacobian (1-u) raises the u-degree by one
    u, wu = gauss_legendre_01((order + 3) // 2)
    v, wv = gauss_legendre_01((order + 2) // 2)
    U, V = np.meshgrid(u, v, indexing="ij")
    w = (np.outer(wu, wv) * (1.0 - U)).ravel()
    pts = np.column_stack([U.ravel(), (V * (1.0 - U)).ravel()])
    pts.flags.writeable = False
    w.flags.writeable = False
    return pts, w


def monomial_integrals(geometry, degree):
    """Exact integrals of every scaled monomial of degree <= ``degree`` over
    every cell of a :class:`~ipvem.mesh.StackedGeometry`, shape (C, dim).

    Divergence theorem: a monomial m of degree d centered at the centroid
    satisfies div((x - x_D) m) = (d + 2) m, and (x - x_D) . n is constant
    along each straight edge; one exact Gauss-Legendre evaluation covers
    all edges of all cells (padded edges have zero length).
    """
    t, wt = gauss_legendre_01(degree // 2 + 2)
    tails = geometry.vertices
    pts = tails[:, :, None, :] + t[:, None] * (geometry.heads - tails)[:, :, None, :]
    scaled = (pts - geometry.centroid[:, None, None, :]) / geometry.diameter[:, None, None, None]
    edge_means = np.einsum("q,cpqd->cpd", wt, monomials(scaled[..., 0], scaled[..., 1], degree))
    dist = ((tails - geometry.centroid[:, None, :]) * geometry.normals).sum(axis=2)
    total = np.einsum("cp,cpd->cd", dist * geometry.edge_lengths, edge_means)
    degrees = np.array([p + q for p, q in monomial_exponents(degree)])
    return total / (degrees + 2)


@dataclass(eq=False)
class FanRule:
    """Centroid-fan quadrature points of many cells, flat, cell by cell and
    fan triangle by fan triangle: cell ``i`` owns the ``counts[i]`` points
    from ``starts[i]`` on, and ``xi``/``eta`` are each point scaled by its
    cell's centroid and diameter.  Per-cell values reach the points by
    ``np.repeat(values, counts)``."""

    points: np.ndarray          # (Q, 2)
    weights: np.ndarray         # (Q,) signed: fan area times reference weight
    counts: np.ndarray          # (C,) points of each cell
    starts: np.ndarray          # (C,) first point of each cell
    xi: np.ndarray              # (Q,)
    eta: np.ndarray             # (Q,)

    def cell_moments(self, values, degree):
        """Integrals of ``values`` (at the points) against every scaled
        monomial of degree <= ``degree`` on every cell, shape (C, dim): each
        cell's sum is one ``np.add.reduceat`` segment.  One monomial at a
        time, so no (Q, dim) temporary is made, and no zero power is built."""
        weighted = self.weights * values
        moments = []
        for p, q in monomial_exponents(degree):
            term = weighted if p == 0 else weighted * self.xi**p
            moments.append(np.add.reduceat(term if q == 0 else term * self.eta**q, self.starts))
        return np.column_stack(moments)


def fan_quadrature(geometry, order):
    """Centroid-fan quadrature on every cell of a
    :class:`~ipvem.mesh.StackedGeometry` at once, as a :class:`FanRule`.

    Weights carry the signed fan areas, so the rule is exact to ``order``
    on any simple polygon.
    """
    ref_pts, ref_w = triangle_quadrature(order)
    valid = geometry.valid
    apex = np.repeat(geometry.centroid, geometry.valence, axis=0)
    tail = geometry.vertices[valid] - apex
    head = geometry.heads[valid] - apex
    points = (
        apex[:, None, :]
        + ref_pts[None, :, 0, None] * tail[:, None, :]
        + ref_pts[None, :, 1, None] * head[:, None, :]
    ).reshape(-1, 2)
    weights = (2.0 * geometry.fan_areas[valid])[:, None] * ref_w[None, :]
    counts = geometry.valence * len(ref_w)
    scaled = (points - np.repeat(geometry.centroid, counts, axis=0)) / np.repeat(geometry.diameter, counts)[:, None]
    return FanRule(points, weights.ravel(), counts, np.cumsum(counts) - counts, scaled[:, 0], scaled[:, 1])
