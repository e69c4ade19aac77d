import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ipvem import basis
from ipvem.basis import (
    ScaledMonomialBasis,
    derivative_matrix,
    fan_quadrature,
    gauss_lobatto,
    monomial_exponents,
    monomial_integrals,
    triangle_quadrature,
)

from conftest import PolyCoeffs, non_star_polygons, polygon_rule, random_star_polygon, stack_of


def unit_square_geometry():
    return stack_of([[0, 0], [1, 0], [1, 1], [0, 1]])


def integral_of(stack, exponent):
    """Exact cell integral of one scaled monomial, read off the table."""
    p, q = exponent
    return float(monomial_integrals(stack, p + q)[0, monomial_exponents(p + q).index((p, q))])


def fan_moments(stack, degree, order):
    """Fan-rule integrals of every scaled monomial on a one-cell stack."""
    rule = fan_quadrature(stack, order)
    return rule.cell_moments(np.ones(len(rule.weights)), degree)[0]


def edge_integral(b, coeffs, a, bb, n_points=4):
    """Gauss-Legendre integral over the segment a->bb of a basis polynomial."""
    t, w = basis.gauss_legendre_01(n_points)
    pts = a[None, :] + t[:, None] * (bb - a)[None, :]
    return float(np.linalg.norm(bb - a) * (w @ (b.evaluate(pts) @ coeffs)))


class TestDot:
    @pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
    def test_matches_the_blas_inner_product(self, dtype):
        # longer than the 10000 entries past which OpenBLAS threads ddot
        rng = np.random.default_rng(5)
        a, b = (rng.standard_normal(20001).astype(dtype) for _ in range(2))
        assert basis.dot(a, b) == pytest.approx(float(np.dot(a, b)), rel=1e-12)
        assert basis.dot(a, a) == pytest.approx(float(np.sum(a * a)), rel=1e-14)


class TestGaussLobatto:
    def test_k2_is_simpson(self):
        rule = gauss_lobatto(2)
        assert np.allclose(rule.nodes, [0.0, 0.5, 1.0], atol=1e-15)
        assert np.allclose(rule.weights, [1 / 6, 4 / 6, 1 / 6], atol=1e-15)
        assert rule.degree == 3

    def test_k2_integrates_cubic_exactly(self):
        rule = gauss_lobatto(2)
        nodes = np.asarray(rule.nodes)
        assert rule.integrate(nodes**3) == pytest.approx(0.25, abs=1e-15)

    def test_k3_closed_form(self):
        # independently derived from the moment conditions up to degree 5
        rule = gauss_lobatto(3)
        s5 = math.sqrt(5.0)
        assert np.allclose(rule.nodes, [0.0, (5 - s5) / 10, (5 + s5) / 10, 1.0], atol=1e-14)
        assert np.allclose(rule.weights, [1 / 12, 5 / 12, 5 / 12, 1 / 12], atol=1e-14)
        for j in range(6):
            nodes = np.asarray(rule.nodes)
            assert rule.integrate(nodes**j) == pytest.approx(1 / (j + 1), abs=1e-13)

    def test_low_order_rejected(self):
        with pytest.raises(ValueError):
            gauss_lobatto(1)

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_exactness_and_weight_sum(self, k):
        rule = gauss_lobatto(k)
        nodes = np.asarray(rule.nodes)
        assert sum(rule.weights) == pytest.approx(1.0, abs=1e-14)
        assert nodes[0] == 0.0 and nodes[-1] == 1.0
        for j in range(2 * k):
            assert rule.integrate(nodes**j) == pytest.approx(1 / (j + 1), abs=1e-13)


class TestMonomialBasis:
    def test_graded_order(self):
        exps = monomial_exponents(2)
        assert exps == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]

    def test_dimension(self):
        b = ScaledMonomialBasis([0.0, 0.0], 1.0, 4)
        assert b.dim == 15
        assert b.exponents[0] == (0, 0)

    def test_constant_member_is_one(self):
        b = ScaledMonomialBasis([0.3, 0.7], 2.0, 2)
        vals = b.evaluate([[0.1, 0.2], [5.0, -3.0]])
        assert np.allclose(vals[:, 0], 1.0)


class TestIntegrateMonomial:
    def test_unit_square_constant(self):
        geom = unit_square_geometry()
        assert integral_of(geom, (0, 0)) == pytest.approx(1.0, abs=1e-14)

    def test_unit_square_odd_vanishes(self):
        geom = unit_square_geometry()
        assert integral_of(geom, (1, 0)) == pytest.approx(0.0, abs=1e-15)

    def test_unit_square_xi_squared(self):
        # int (x-1/2)^2 = 1/12 over the square, scaled by h^2 = 2 gives 1/24
        geom = unit_square_geometry()
        assert integral_of(geom, (2, 0)) == pytest.approx(1.0 / 24.0, rel=1e-13)

    def test_oracle_agreement_on_random_polygons(self):
        # a per-cell fan-triangulation quadrature is the independent route
        rng = np.random.default_rng(42)
        for _ in range(100):
            stack = stack_of(random_star_polygon(rng))
            geom = stack.cell(0)
            b = ScaledMonomialBasis(geom.centroid, geom.diameter, 4)
            table = monomial_integrals(stack, 4)[0]
            pts, w = polygon_rule(geom, 10)
            oracle = w @ b.evaluate(pts)
            assert np.allclose(table, oracle, rtol=1e-11, atol=1e-13 * geom.area)

    def test_many_cells_in_one_evaluation(self, cvt32):
        # the whole-mesh evaluation gives each cell the table of its own
        stack = cvt32.stacked_geometry
        table = monomial_integrals(stack, 4)
        for c in (0, 7, 31):
            geom = stack.cell(c)
            pts, w = polygon_rule(geom, 10)
            oracle = w @ ScaledMonomialBasis(geom.centroid, geom.diameter, 4).evaluate(pts)
            assert np.allclose(table[c], oracle, rtol=1e-11, atol=1e-13 * geom.area)


class TestPolyDerivative:
    def test_derivative_of_constant(self):
        b = ScaledMonomialBasis([0.0, 0.0], 1.0, 2)
        c = np.array([1.0, 0, 0, 0, 0, 0])
        assert np.allclose(derivative_matrix(b, "x") @ c, 0.0)

    def test_laplacian_of_radial_quadratic(self):
        h = 2.0
        b = ScaledMonomialBasis([0.5, 0.5], h, 2)
        c = np.array([0, 0, 0, 1.0, 0, 1.0])  # xi^2 + eta^2
        expected = np.zeros(6)
        expected[0] = 4.0 / h**2
        Dx, Dy = derivative_matrix(b, "x"), derivative_matrix(b, "y")
        assert np.allclose((Dx @ Dx + Dy @ Dy) @ c, expected, atol=1e-15)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(-10, 10), min_size=15, max_size=15))
    def test_mixed_partials_commute(self, coeffs):
        b = ScaledMonomialBasis([0.2, -0.1], 1.7, 4)
        Dx, Dy = derivative_matrix(b, "x"), derivative_matrix(b, "y")
        c = np.asarray(coeffs)
        assert np.allclose(Dy @ (Dx @ c), Dx @ (Dy @ c), atol=1e-12)

    def test_divergence_theorem_on_random_polygons(self):
        # int_K lap q  ==  boundary integral of dn q
        rng = np.random.default_rng(3)
        for _ in range(25):
            stack = stack_of(random_star_polygon(rng))
            geom = stack.cell(0)
            b = ScaledMonomialBasis(geom.centroid, geom.diameter, 4)
            table = monomial_integrals(stack, 4)[0]
            coeffs = rng.standard_normal(b.dim)
            Dx = derivative_matrix(b, "x")
            Dy = derivative_matrix(b, "y")
            lhs = float(table @ ((Dx @ Dx + Dy @ Dy) @ coeffs))
            rhs = 0.0
            verts = geom.vertices
            for j in range(len(verts)):
                a, bb = verts[j], verts[(j + 1) % len(verts)]
                n_e = geom.normals[j]
                dn = (n_e[0] * Dx + n_e[1] * Dy) @ coeffs
                rhs += edge_integral(b, dn, a, bb)
            assert lhs == pytest.approx(rhs, rel=1e-11, abs=1e-12)


class TestTriangleQuadrature:
    def test_order_eight_on_x5y3(self):
        # simplex moment in closed form: a! b! / (a+b+2)! = 1/5040
        pts, w = triangle_quadrature(8)
        got = float(w @ (pts[:, 0] ** 5 * pts[:, 1] ** 3))
        assert got == pytest.approx(1.0 / 5040.0, rel=1e-13)

    @pytest.mark.parametrize("order", range(1, 11))
    def test_exactness_sweep(self, order):
        pts, w = triangle_quadrature(order)
        for a in range(order + 1):
            for b in range(order + 1 - a):
                exact = math.factorial(a) * math.factorial(b) / math.factorial(a + b + 2)
                got = float(w @ (pts[:, 0] ** a * pts[:, 1] ** b))
                assert got == pytest.approx(exact, rel=1e-12), (a, b)

    def test_unsupported_order_rejected(self):
        with pytest.raises(ValueError):
            triangle_quadrature(25)
        with pytest.raises(ValueError):
            triangle_quadrature(0)

    def test_rule_is_cached_and_read_only(self):
        pts, w = triangle_quadrature(8)
        again = triangle_quadrature(8)
        assert again[0] is pts and again[1] is w
        with pytest.raises(ValueError):
            pts[0, 0] = 0.0
        with pytest.raises(ValueError):
            w[0] = 0.0

    def test_gauss_legendre_is_cached_and_read_only(self):
        t, w = basis.gauss_legendre_01(5)
        again = basis.gauss_legendre_01(5)
        assert again[0] is t and again[1] is w
        with pytest.raises(ValueError):
            t[0] = 0.0
        with pytest.raises(ValueError):
            w[0] = 0.0
        assert w.sum() == pytest.approx(1.0, rel=1e-15)


# C-shaped cell of area 0.52 whose centroid lies in the notch, outside the
# cell: three of its centroid-fan triangles are clockwise
C_SHAPE = [[0, 0], [1, 0], [1, 0.2], [0.2, 0.2], [0.2, 0.8], [1, 0.8], [1, 1], [0, 1]]


class TestFanQuadrature:
    def test_non_star_shaped_cell_integrates_one_to_its_area(self):
        stack = stack_of(C_SHAPE)
        assert not stack.cell(0).star_shaped
        _, w = polygon_rule(stack.cell(0), 8)
        assert abs(w.sum() - 0.52) <= 1e-14
        assert abs(fan_quadrature(stack, 8).weights.sum() - 0.52) <= 1e-14

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_batched_rule_integrates_monomials_to_degree_eight(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(3):
            stack = stack_of(random_star_polygon(rng))
            got = fan_moments(stack, 8, 8)
            assert np.max(np.abs(got - monomial_integrals(stack, 8)[0])) <= 1e-12

    @settings(max_examples=40, deadline=None)
    @given(non_star_polygons())
    def test_signed_fan_is_exact_on_polygons_that_are_not_star_shaped(self, points):
        # the centroid lies outside the kernel, so some fan triangles are
        # clockwise; their negative weights still make the rule exact
        stack = stack_of(points)
        assert np.any(stack.fan_areas[0] < 0.0)
        got = fan_moments(stack, 4, 4)
        assert np.max(np.abs(got - monomial_integrals(stack, 4)[0])) <= 1e-12 * stack.area[0]

    def test_points_belong_to_their_cells(self, cvt32):
        rule = fan_quadrature(cvt32.stacked_geometry, 8)
        areas = np.bincount(rule.cell, weights=rule.weights, minlength=cvt32.n_cells)
        assert np.allclose(areas, cvt32.stacked_geometry.area, rtol=1e-13)
        centroids = np.column_stack([np.bincount(rule.cell, weights=rule.weights * x) for x in rule.points.T])
        assert np.allclose(centroids / areas[:, None], cvt32.stacked_geometry.centroid, rtol=1e-12)


class TestPolyCoeffs:
    def test_length_mismatch_rejected(self):
        b = ScaledMonomialBasis([0, 0], 1.0, 2)
        with pytest.raises(ValueError):
            PolyCoeffs(b, [1.0, 2.0])

    def test_evaluation(self):
        b = ScaledMonomialBasis([0, 0], 1.0, 1)
        p = PolyCoeffs(b, [1.0, 2.0, 3.0])
        assert p([[1.0, 1.0]])[0] == pytest.approx(6.0)
