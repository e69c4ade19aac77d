import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ipvem import basis
from ipvem.basis import (
    PolyCoeffs,
    ScaledMonomialBasis,
    derivative_matrix,
    fan_quadrature,
    gauss_lobatto,
    map_to_triangle,
    monomial_exponents,
    monomial_integral_table,
    polygon_quadrature,
    triangle_quadrature,
)

from conftest import geometry_of, random_star_polygon


def unit_square_geometry():
    return geometry_of([[0, 0], [1, 0], [1, 1], [0, 1]])


def integral_of(geom, exponent):
    """Exact cell integral of one scaled monomial, read off the table."""
    p, q = exponent
    return float(monomial_integral_table(geom, p + q)[monomial_exponents(p + q).index((p, q))])


def edge_integral(b, coeffs, a, bb, n_points=4):
    """Gauss-Legendre integral over the segment a->bb of a basis polynomial."""
    t, w = basis.gauss_legendre_01(n_points)
    pts = a[None, :] + t[:, None] * (bb - a)[None, :]
    return float(np.linalg.norm(bb - a) * (w @ (b.evaluate(pts) @ coeffs)))


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
        # fan-triangulation quadrature is the independent route
        rng = np.random.default_rng(42)
        for _ in range(100):
            geom = geometry_of(random_star_polygon(rng))
            b = ScaledMonomialBasis(geom.centroid, geom.diameter, 4)
            table = monomial_integral_table(geom, 4, b)
            pts, w = polygon_quadrature(geom, 10)
            oracle = w @ b.evaluate(pts)
            assert np.allclose(table, oracle, rtol=1e-11, atol=1e-13 * geom.area)


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
            geom = geometry_of(random_star_polygon(rng))
            b = ScaledMonomialBasis(geom.centroid, geom.diameter, 4)
            table = monomial_integral_table(geom, 4, b)
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
    def test_order_one_is_centroid_rule(self):
        pts, w = triangle_quadrature(1)
        assert np.allclose(pts, [[1 / 3, 1 / 3]])
        assert np.allclose(w, [0.5])

    def test_order_two_three_point_rule(self):
        pts, w = triangle_quadrature(2)
        assert len(w) == 3
        assert np.sum(w) == pytest.approx(0.5, abs=1e-15)
        for a, b in [(2, 0), (1, 1), (0, 2)]:
            exact = math.factorial(a) * math.factorial(b) / math.factorial(a + b + 2)
            got = float(w @ (pts[:, 0] ** a * pts[:, 1] ** b))
            assert got == pytest.approx(exact, rel=1e-14)

    def test_order_eight_on_x5y3(self):
        # simplex moment in closed form: a! b! / (a+b+2)! = 1/5040
        pts, w = triangle_quadrature(8)
        got = float(w @ (pts[:, 0] ** 5 * pts[:, 1] ** 3))
        assert got == pytest.approx(1.0 / 5040.0, rel=1e-13)

    @pytest.mark.parametrize("order", range(3, 11))
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

    def test_map_to_triangle_scales_weights(self):
        pts, w = triangle_quadrature(4)
        tri = np.array([[1.0, 1.0], [3.0, 1.5], [1.5, 4.0]])
        phys, pw = map_to_triangle(pts, w, tri)
        (ux, uy), (vx, vy) = tri[1] - tri[0], tri[2] - tri[0]
        area = 0.5 * (ux * vy - uy * vx)
        assert np.sum(pw) == pytest.approx(area, rel=1e-14)
        assert phys.shape == pts.shape


# C-shaped cell of area 0.52 whose centroid lies in the notch, outside the
# cell: three of its centroid-fan triangles are clockwise
C_SHAPE = [[0, 0], [1, 0], [1, 0.2], [0.2, 0.2], [0.2, 0.8], [1, 0.8], [1, 1], [0, 1]]


class TestFanQuadrature:
    def test_non_star_shaped_cell_integrates_one_to_its_area(self):
        geom = geometry_of(C_SHAPE)
        assert not geom.star_shaped
        _, w = polygon_quadrature(geom, 8)
        assert abs(w.sum() - 0.52) <= 1e-14
        _, w, _ = fan_quadrature([geom], 8)
        assert abs(w.sum() - 0.52) <= 1e-14

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_batched_rule_integrates_monomials_to_degree_eight(self, seed):
        rng = np.random.default_rng(seed)
        geoms = [geometry_of(random_star_polygon(rng)) for _ in range(3)]
        pts, w, owner = fan_quadrature(geoms, 8)
        for i, geom in enumerate(geoms):
            b = ScaledMonomialBasis(geom.centroid, geom.diameter, 8)
            mine = owner == i
            got = w[mine] @ b.evaluate(pts[mine])
            assert np.max(np.abs(got - monomial_integral_table(geom, 8, b))) <= 1e-12


class TestPolyCoeffs:
    def test_length_mismatch_rejected(self):
        b = ScaledMonomialBasis([0, 0], 1.0, 2)
        with pytest.raises(ValueError):
            PolyCoeffs(b, [1.0, 2.0])

    def test_evaluation(self):
        b = ScaledMonomialBasis([0, 0], 1.0, 1)
        p = PolyCoeffs(b, [1.0, 2.0, 3.0])
        assert p([[1.0, 1.0]])[0] == pytest.approx(6.0)
