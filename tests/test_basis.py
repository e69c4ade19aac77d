import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import legendre as npleg

from ipvem import basis, mesh
from ipvem.basis import SIMPSON, fan_quadrature, monomial_exponents, monomial_integrals, monomials, triangle_quadrature
from ipvem.projectors import _DX, _DY

from conftest import PolyCoeffs, basis_at, derivatives, non_star_polygons, polygon_rule, random_star_polygon, stack_of


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


def fan_test_geometry(request, mesh_name):
    """The stacked geometry of the CVT-32 fixture or of a 3 x 3 uniform mesh."""
    m = request.getfixturevalue("cvt32") if mesh_name == "cvt32" else mesh.generate_uniform_squares(3)
    return m.stacked_geometry


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
        # nodes: the ends and the roots of P_2'; weights 2 / (k (k + 1) P_k^2),
        # halved on [0, 1]
        p2 = npleg.Legendre.basis(2)
        nodes = np.concatenate([[-1.0], p2.deriv().roots(), [1.0]])
        assert np.allclose((nodes + 1.0) / 2.0, [0.0, 0.5, 1.0], rtol=0, atol=1e-15)
        assert np.allclose(SIMPSON, 1.0 / (6.0 * p2(nodes) ** 2), rtol=0, atol=1e-15)

    def test_k2_integrates_cubic_exactly(self):
        for j in range(4):
            assert SIMPSON @ np.array([0.0, 0.5, 1.0]) ** j == pytest.approx(1 / (j + 1), abs=1e-15)


class TestMonomialBasis:
    def test_graded_order(self):
        exps = monomial_exponents(2)
        assert exps == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]

    def test_dimension(self):
        assert len(monomial_exponents(4)) == 15
        assert monomial_exponents(4)[0] == (0, 0)
        assert monomials(np.zeros(3), np.ones(3), 4).shape == (3, 15)

    def test_constant_member_is_one(self):
        vals = monomials(np.array([-0.1, 2.4]), np.array([-0.25, -1.85]), 2)
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
            table = monomial_integrals(stack, 4)[0]
            pts, w = polygon_rule(stack, 0, 10)
            oracle = w @ basis_at(stack, 0, pts, 4)
            assert np.allclose(table, oracle, rtol=1e-11, atol=1e-13 * stack.area[0])

    def test_many_cells_in_one_evaluation(self, cvt32):
        # the whole-mesh evaluation gives each cell the table of its own
        stack = cvt32.stacked_geometry
        table = monomial_integrals(stack, 4)
        for c in (0, 7, 31):
            pts, w = polygon_rule(stack, c, 10)
            oracle = w @ basis_at(stack, c, pts, 4)
            assert np.allclose(table[c], oracle, rtol=1e-11, atol=1e-13 * stack.area[c])


class TestPolyDerivative:
    # the k = 2 derivative literals act on a cell of unit diameter
    def test_derivative_of_constant(self):
        c = np.array([1.0, 0, 0, 0, 0, 0])
        assert not np.any(_DX @ c) and not np.any(_DY @ c)

    def test_laplacian_of_radial_quadratic(self):
        h = 2.0
        c = np.array([0, 0, 0, 1.0, 0, 1.0])  # xi^2 + eta^2
        expected = np.zeros(6)
        expected[0] = 4.0 / h**2
        assert np.allclose((_DX @ _DX + _DY @ _DY) / h**2 @ c, expected, atol=1e-15)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(-10, 10), min_size=6, max_size=6))
    def test_mixed_partials_commute(self, coeffs):
        c = np.asarray(coeffs)
        assert np.allclose(_DY @ (_DX @ c), _DX @ (_DY @ c), atol=1e-12)

    @pytest.mark.parametrize("axis", [0, 1])
    def test_literals_match_central_differences(self, axis):
        xi, eta = np.random.default_rng(4).uniform(-1.0, 1.0, (2, 20))
        dx, dy = 1e-6 * np.eye(2)[axis]
        fd = (monomials(xi + dx, eta + dy, 2) - monomials(xi - dx, eta - dy, 2)) / 2e-6
        assert np.allclose(fd, monomials(xi, eta, 2) @ (_DX, _DY)[axis], rtol=0, atol=1e-8)

    def test_divergence_theorem_on_random_polygons(self):
        # int_K lap q  ==  boundary integral of dn q
        rng = np.random.default_rng(3)
        for _ in range(25):
            stack = stack_of(random_star_polygon(rng))
            table = monomial_integrals(stack, 4)[0]
            coeffs = rng.standard_normal(15)
            Dx, Dy = derivatives(stack.diameter[0], 4)
            lhs = float(table @ ((Dx @ Dx + Dy @ Dy) @ coeffs))
            # Gauss-Legendre integral of dn q along every edge
            t, w = basis.gauss_legendre_01(4)
            pts = stack.vertices[0, :, None] + t[:, None] * (stack.heads - stack.vertices)[0, :, None]
            dn = np.einsum("pi,ikl,l->pk", stack.normals[0], np.array([Dx, Dy]), coeffs)
            rhs = float(np.einsum("p,q,pqk,pk->", stack.edge_lengths[0], w, basis_at(stack, 0, pts, 4), dn))
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
        assert np.any(stack.fan_areas[0] < 0.0)
        _, w = polygon_rule(stack, 0, 8)
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
        cell = np.repeat(np.arange(cvt32.n_cells), rule.counts)
        areas = np.bincount(cell, weights=rule.weights, minlength=cvt32.n_cells)
        assert np.allclose(areas, cvt32.stacked_geometry.area, rtol=1e-13)
        centroids = np.column_stack([np.bincount(cell, weights=rule.weights * x) for x in rule.points.T])
        assert np.allclose(centroids / areas[:, None], cvt32.stacked_geometry.centroid, rtol=1e-12)

    @pytest.mark.parametrize("mesh_name", ["cvt32", "uniform3"])
    def test_counts_and_starts_partition_the_points(self, request, mesh_name):
        g = fan_test_geometry(request, mesh_name)
        rule = fan_quadrature(g, 8)
        assert np.array_equal(rule.counts, g.valence * len(triangle_quadrature(8)[1]))
        assert rule.starts[0] == 0 and np.array_equal(rule.starts[1:], np.cumsum(rule.counts)[:-1])
        assert rule.starts[-1] + rule.counts[-1] == len(rule.weights) == len(rule.xi) == len(rule.points)

    @pytest.mark.parametrize("mesh_name", ["cvt32", "uniform3"])
    @pytest.mark.parametrize("degree", [0, 1, 2])
    def test_cell_moments_match_a_per_cell_loop(self, request, mesh_name, degree):
        # each cell's sum taken over the points of its own fan rule, one
        # point and one monomial at a time
        g = fan_test_geometry(request, mesh_name)

        def f(x, y):
            return np.exp(x) * np.cos(2.0 * y) + x * y

        rule = fan_quadrature(g, 8)
        got = rule.cell_moments(f(*rule.points.T), degree)
        expected = np.zeros_like(got)
        for c in range(len(g.area)):
            for (x, y), w in zip(*polygon_rule(g, c, 8)):
                xi, eta = (x - g.centroid[c, 0]) / g.diameter[c], (y - g.centroid[c, 1]) / g.diameter[c]
                for k, (p, q) in enumerate(monomial_exponents(degree)):
                    expected[c, k] += w * f(x, y) * xi**p * eta**q
        assert np.max(np.abs(got - expected)) <= 1e-13 * np.max(np.abs(expected))


class TestPolyCoeffs:
    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            PolyCoeffs([0, 0], 1.0, [1.0, 2.0])

    def test_evaluation(self):
        p = PolyCoeffs([0, 0], 1.0, [1.0, 2.0, 3.0], degree=1)
        assert p([[1.0, 1.0]])[0] == pytest.approx(6.0)
