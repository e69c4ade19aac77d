import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ipvem import cli, forms, mesh, system, verify
from ipvem.basis import QUAD_ORDER, SIMPSON
from ipvem.verify import (
    ManufacturedSolution,
    energy_error,
    example_solution,
    fit_rate,
    interpolation_dofs,
)

from conftest import basis_at, derivatives, dof_points, edge_coupling, polygon_rule

PI = math.pi


def forcing(msol, eps, x, y):
    """Source of the perturbed problem: eps^2 biharmonic(u) - laplacian(u)."""
    exact = msol.at(x, y)
    return eps**2 * verify.biharmonic(exact) + verify.neg_laplacian(exact)


def solve_case(m, eps, msol):
    d = cli.discretize(m, msol)
    return d, d.solve(eps)


class TestManufacturedSolutions:
    @pytest.mark.parametrize("which", [1, 2])
    def test_derivative_chain_against_finite_differences(self, which):
        # each supplied partial matches a central difference of the
        # next-lower one, which transitively validates everything against u
        msol = example_solution(which)
        rng = np.random.default_rng(10)
        x = rng.uniform(0.05, 0.95, 100)
        y = rng.uniform(0.05, 0.95, 100)
        step = 1e-5
        for i in range(5):
            for j in range(5 - i):
                if i + j == 0:
                    continue
                if i > 0:
                    fd = (msol.partial(i - 1, j, x + step, y) - msol.partial(i - 1, j, x - step, y)) / (2 * step)
                else:
                    fd = (msol.partial(i, j - 1, x, y + step) - msol.partial(i, j - 1, x, y - step)) / (2 * step)
                assert np.max(np.abs(msol.partial(i, j, x, y) - fd)) < 1e-6

    @pytest.mark.parametrize("which", [1, 2])
    def test_clamped_boundary_traces(self, which):
        msol = example_solution(which)
        t = np.linspace(0.0, 1.0, 57)
        zero = np.zeros_like(t)
        for x, y, normal in [
            (zero, t, (1, 0)),
            (zero + 1.0, t, (1, 0)),
            (t, zero, (0, 1)),
            (t, zero + 1.0, (0, 1)),
        ]:
            assert np.max(np.abs(msol(x, y))) < 1e-12
            dn = normal[0] * msol.partial(1, 0, x, y) + normal[1] * msol.partial(0, 1, x, y)
            assert np.max(np.abs(dn)) < 1e-12

    def test_unknown_example_rejected(self):
        with pytest.raises(ValueError):
            example_solution(9)

    @pytest.mark.parametrize("which", [1, 2])
    def test_tabulated_partials_match_pointwise_ones(self, which):
        msol = example_solution(which)
        rng = np.random.default_rng(11)
        x, y = rng.uniform(0.0, 1.0, (2, 500))
        exact = msol.at(x, y)
        for i in range(5):
            for j in range(5 - i):
                want = msol.partial(i, j, x, y)
                assert np.max(np.abs(exact(i, j) - want)) <= 5e-15 * np.max(np.abs(want))

    def test_example2_factor_derivatives_match_the_shifted_cosine(self):
        # one sin/cos pair per axis in place of one cosine per order: within
        # a few ulps of the amplitude w^n / 2 of the closed form it replaced
        x = np.random.default_rng(12).uniform(0.0, 1.0, 2000)
        w, deriv = 2.0 * PI, verify._sin_squared_derivs(x)
        assert np.array_equal(deriv(0), np.sin(PI * x) ** 2)
        for n in range(1, 5):
            old = -0.5 * w**n * np.cos(w * x + n * PI / 2.0)
            assert np.max(np.abs(deriv(n) - old)) <= 8.0 * np.finfo(float).eps * 0.5 * w**n

    @pytest.mark.parametrize("which", [1, 2])
    def test_discretize_tabulates_the_fan_points_once(self, which, cvt32):
        # loads and error data share one table of the exact partials
        msol = example_solution(which)
        calls = []

        def counting(x, y):
            calls.append(len(x))
            return msol.tabulate(x, y)

        d = cli.discretize(cvt32, ManufacturedSolution(msol.name, msol.partial, tabulate=counting))
        assert calls == [len(d.elements.fan_rule.weights)]
        ref = cli.discretize(cvt32, msol)
        assert np.array_equal(d.rhs4, ref.rhs4) and np.array_equal(d.error_data.exact_dofs, ref.error_data.exact_dofs)


class TestForcing:
    def test_linear_solution_has_zero_forcing(self):
        linear = ManufacturedSolution(
            "linear-x",
            lambda i, j, x, y: np.asarray(x, dtype=float)
            if (i, j) == (0, 0)
            else (np.ones_like(np.asarray(x, dtype=float)) if (i, j) == (1, 0) else np.zeros_like(np.asarray(x, dtype=float))),
            clamped=False,
        )
        x = np.array([0.3, 0.6])
        assert np.allclose(forcing(linear, 0.5, x, x), 0.0)

    def test_example2_center_value(self):
        # lap u = -4 pi^2 and biharmonic u = 24 pi^4 at the center
        msol = example_solution(2)
        for eps in (1.0, 1e-3):
            got = forcing(msol, eps, np.array([0.5]), np.array([0.5]))[0]
            assert got == pytest.approx(24 * PI**4 * eps**2 + 4 * PI**2, rel=1e-13)

    def test_eps_zero_reduces_to_negative_laplacian(self):
        msol = example_solution(1)
        x = np.array([0.37])
        y = np.array([0.54])
        lap = msol.partial(2, 0, x, y) + msol.partial(0, 2, x, y)
        assert forcing(msol, 0.0, x, y)[0] == pytest.approx(-lap[0], rel=1e-14)


class TestEnergyError:
    def test_polynomial_dofs_have_zero_error(self, cvt32):
        # dofs of a global quadratic compared against itself as the exact
        # solution: the projections reproduce it, so every measure vanishes
        coeffs = (0.3, -0.2, 0.5, 0.15, -0.4, 0.25)

        def partial(i, j, x, y):
            x = np.asarray(x, dtype=float)
            y = np.asarray(y, dtype=float)
            c0, cx, cy, cxx, cxy, cyy = coeffs
            table = {
                (0, 0): c0 + cx * x + cy * y + cxx * x * x + cxy * x * y + cyy * y * y,
                (1, 0): cx + 2 * cxx * x + cxy * y,
                (0, 1): cy + cxy * x + 2 * cyy * y,
                (2, 0): 2 * cxx * np.ones_like(x),
                (1, 1): cxy * np.ones_like(x),
                (0, 2): 2 * cyy * np.ones_like(x),
            }
            return table.get((i, j), np.zeros_like(x))

        msol = ManufacturedSolution("quadratic", partial, clamped=False)
        d = cli.discretize(cvt32, msol)
        values = interpolation_dofs(cvt32, d.elements, msol)
        sol = system.DiscreteSolution(values=values, eps=0.5, residual=0.0)
        rec = d.error(sol)
        assert max(rec.e_total, rec.proj_h2, rec.proj_h1, rec.proj_h1_via_h2) <= 1e-10

    def test_decomposition_identity(self, cvt32):
        d, sol = solve_case(cvt32, 1e-2, example_solution(2))
        rec = d.error(sol)
        residual = abs(rec.e_total**2 - (rec.eps**2 * rec.h2_part**2 + rec.h1_part**2))
        assert residual <= 1e-12 * rec.e_total**2

    def test_quadrature_order_insensitivity(self, cvt32):
        # the QUAD_ORDER rule against a per-cell rule of twice that order
        msol = example_solution(2)
        d, sol = solve_case(cvt32, 1e-1, msol)
        rec = d.error(sol)
        fine = oracle_projection_errors(cvt32, d.elements, sol.values, msol, 2 * QUAD_ORDER)
        assert (rec.proj_h2, rec.proj_h1, rec.proj_h1_via_h2) == pytest.approx(fine, rel=1e-8)

    def test_error_data_keeps_only_what_it_computes(self, cvt32):
        # everything else is read from the set-up's own cell forms, not copied
        d = cli.discretize(cvt32, example_solution(1))
        assert [f.name for f in dataclasses.fields(verify.ErrorData)] == [
            "grad_fit", "hess_mean", "grad_residual", "hess_residual", "exact_dofs", "cell_forms", "jump", "weights"
        ]
        assert d.error_data.cell_forms.elements is d.elements

    def test_eps_zero_gives_pure_gradient_error(self, cvt32):
        d, sol = solve_case(cvt32, 1e-3, example_solution(2))
        sol.eps = 0.0
        rec = d.error(sol)
        assert rec.e_total == rec.h1_part


def oracle_interpolation_dofs(m, elements, msol, quad_order=QUAD_ORDER):
    """Per-cell reference for the exact-solution DoFs."""
    chi, g = np.zeros(m.n_vertices + m.n_edges + m.n_cells), m.stacked_geometry
    for c in range(m.n_cells):
        idx = elements.dofs[c, : elements.n_dofs[c]]
        pts = dof_points(g, c)
        chi[idx[: len(pts)]] = msol(pts[:, 0], pts[:, 1])
        qp, qw = polygon_rule(g, c, quad_order)
        chi[idx[-1]] = float(qw @ msol(qp[:, 0], qp[:, 1])) / g.area[c]
    return chi


def oracle_projection_errors(m, elements, values, msol, quad_order=QUAD_ORDER):
    """Per-cell reference for (|u - p2|_{2,h}, |u - p1|_{1,h}, |u - p2|_{1,h})."""
    h2_sq = h1_h1_sq = h1_h2_sq = 0.0
    for c in range(m.n_cells):
        chi = values[elements.dofs[c]]
        p_h2 = elements.h2_coeff[c] @ chi
        p_h1 = elements.h1_coeff[c] @ chi
        pts, w = polygon_rule(m.stacked_geometry, c, quad_order)
        x, y = pts[:, 0], pts[:, 1]
        Dx, Dy = derivatives(m.stacked_geometry.diameter[c])
        vals = basis_at(m.stacked_geometry, c, pts)
        ux = msol.partial(1, 0, x, y)
        uy = msol.partial(0, 1, x, y)
        h1_h2_sq += float(w @ ((ux - vals @ (Dx @ p_h2)) ** 2 + (uy - vals @ (Dy @ p_h2)) ** 2))
        h1_h1_sq += float(w @ ((ux - vals @ (Dx @ p_h1)) ** 2 + (uy - vals @ (Dy @ p_h1)) ** 2))
        pxx = (Dx @ Dx @ p_h2)[0]
        pxy = (Dx @ Dy @ p_h2)[0]
        pyy = (Dy @ Dy @ p_h2)[0]
        uxx = msol.partial(2, 0, x, y)
        uxy = msol.partial(1, 1, x, y)
        uyy = msol.partial(0, 2, x, y)
        h2_sq += float(w @ ((uxx - pxx) ** 2 + 2.0 * (uxy - pxy) ** 2 + (uyy - pyy) ** 2))
    return math.sqrt(h2_sq), math.sqrt(h1_h1_sq), math.sqrt(h1_h2_sq)


def oracle_energies(d, x):
    """Test-local energies of the DoF vector ``x`` in long double: the a- and
    b-form energies summed cell by cell over each cell's own DoFs, and the
    penalty energy sum_e lam_e sum_k SIMPSON_k [d_n x]^2 over each edge's
    three jump rows."""
    lf = forms.build_local_forms(d.elements)
    traces = forms.build_edge_stencils(d.mesh, d.elements)
    x = np.asarray(x).astype(np.longdouble)
    a_energy = b_energy = np.longdouble(0.0)
    for c, n in enumerate(d.elements.n_dofs):
        v = x[d.elements.dofs[c, :n]]
        a_energy += v @ (lf.a[c, :n, :n].astype(np.longdouble) @ v)
        b_energy += v @ (lf.b[c, :n, :n].astype(np.longdouble) @ v)
    return a_energy, b_energy, penalty_energy(traces, x)


def penalty_energy(traces, x):
    """Test-local penalty energy of ``x`` from the jump rows, in long double."""
    jump = traces.jump.astype(np.longdouble) @ np.asarray(x).astype(np.longdouble)
    weights = np.repeat(traces.lam, 3).astype(np.longdouble) * np.tile(SIMPSON, len(traces.lam))
    return np.sum(weights * jump * jump)


class TestBatchedErrorsMatchPerCellOracle:
    @pytest.mark.parametrize("which", [1, 2])
    @pytest.mark.parametrize("mesh_name", ["cvt32", "uniform4"])
    def test_records_and_dofs_match(self, request, mesh_name, which):
        m = request.getfixturevalue("cvt32") if mesh_name == "cvt32" else mesh.generate_uniform_squares(4)
        msol = example_solution(which)
        d = cli.discretize(m, msol)
        elements = d.elements
        chi = oracle_interpolation_dofs(m, elements, msol)
        assert np.max(np.abs(d.error_data.exact_dofs - chi)) <= 1e-13
        assert np.max(np.abs(interpolation_dofs(m, elements, msol) - chi)) <= 1e-13
        for eps in (1.0, 1e-3, 1e-10):
            sol = d.solve(eps)
            rec = energy_error(d.error_data, sol)
            a_energy, b_energy, j1 = oracle_energies(d, chi - np.asarray(sol.values, dtype=float))
            h2, h1 = math.sqrt(a_energy + j1), math.sqrt(b_energy)
            expected = (math.sqrt(eps**2 * h2**2 + h1**2), h2, h1) + oracle_projection_errors(
                m, elements, sol.values, msol
            )
            got = (rec.e_total, rec.h2_part, rec.h1_part, rec.proj_h2, rec.proj_h1, rec.proj_h1_via_h2)
            assert got == pytest.approx(expected, rel=1e-12, abs=0.0)
            assert rec.h_max == m.stacked_geometry.diameter.max()


def pointwise_projection_errors(d, msol, values):
    """The projection errors summed over every fan-rule point, the error
    polynomials evaluated there against the exact partials."""
    rule, elements = d.elements.fan_rule, d.elements
    exact = msol.at(*rule.points.T)
    w, xi, eta = rule.weights, rule.xi, rule.eta
    cell = np.repeat(np.arange(len(rule.counts)), rule.counts)
    inv_h = 1.0 / elements.geometry.diameter
    projectors = np.concatenate([elements.h2_coeff, elements.h1_coeff], axis=1)
    coeffs = np.einsum("ckn,cn->ck", projectors, values[elements.dofs])
    coeffs *= np.tile([1.0, 1.0, 1.0, 2.0, 1.0, 2.0], 2) * inv_h[:, None]

    def gradient_error_sq(c):
        gx = c[:, 0] + c[:, 2] * xi + c[:, 3] * eta
        gy = c[:, 1] + c[:, 3] * xi + c[:, 4] * eta
        return float(w @ ((exact(1, 0) - gx) ** 2 + (exact(0, 1) - gy) ** 2))

    hess = coeffs[:, 3:6] * inv_h[:, None]
    h2_sq = float(
        w
        @ (
            (exact(2, 0) - hess[cell, 0]) ** 2
            + 2.0 * (exact(1, 1) - hess[cell, 1]) ** 2
            + (exact(0, 2) - hess[cell, 2]) ** 2
        )
    )
    return math.sqrt(h2_sq), math.sqrt(gradient_error_sq(coeffs[cell, 7:12])), math.sqrt(
        gradient_error_sq(coeffs[cell, 1:6])
    )


@pytest.fixture(scope="module")
def split_cases(cvt32):
    """(discretization, manufactured solution) of both examples on CVT-32
    and uniform-4."""
    return [
        (cli.discretize(m, example_solution(which)), example_solution(which))
        for m in (cvt32, mesh.generate_uniform_squares(4))
        for which in (1, 2)
    ]


class TestSplitProjectionErrors:
    @settings(max_examples=40, deadline=None)
    @given(
        case=st.integers(0, 3),
        seed=st.integers(0, 2**32 - 1),
        log_amplitude=st.floats(-8.0, 2.0),
        extended=st.booleans(),
    )
    def test_matches_pointwise_kernel(self, split_cases, case, seed, log_amplitude, extended):
        # random DoF vectors around the exact DoFs: small amplitudes leave
        # errors near the projection error of the exact solution, where a
        # split that cancelled would lose digits
        d, msol = split_cases[case]
        noise = np.random.default_rng(seed).standard_normal(d.dof_map.n_dofs)
        values = d.error_data.exact_dofs + 10.0**log_amplitude * noise
        if extended:
            values = values.astype(np.longdouble)
        got = verify._projection_errors(d.error_data, values)
        assert got == pytest.approx(pointwise_projection_errors(d, msol, values), rel=1e-12, abs=0.0)


class TestJ1Energy:
    def test_zero_solution(self, cvt32):
        d = cli.discretize(cvt32, example_solution(1))
        sol = system.DiscreteSolution(values=np.zeros(d.dof_map.n_dofs), eps=1.0, residual=0.0)
        assert energy_error(d.error_data, sol).j1_energy == 0.0

    def test_global_quadratic_interior_stencils_vanish(self, cvt32, cvt32_elements):
        traces = forms.build_edge_stencils(cvt32, cvt32_elements)

        def partial(i, j, x, y):
            x = np.asarray(x, dtype=float)
            if (i, j) == (0, 0):
                return x * x
            if (i, j) == (1, 0):
                return 2 * x
            if (i, j) == (2, 0):
                return 2 * np.ones_like(x)
            return np.zeros_like(x)

        msol = ManufacturedSolution("xsq", partial, clamped=False)
        chi = interpolation_dofs(cvt32, cvt32_elements, msol)
        for e in np.flatnonzero(~cvt32.boundary_edge):
            j1, _ = edge_coupling(traces, e)
            scale = max(1.0, np.max(np.abs(j1)))
            assert abs(chi @ j1 @ chi) < 1e-11 * scale

    def test_record_matches_long_double_sum_at_eps_1(self, cvt_sequence):
        # at eps = 1 the jumps of the solution are small against its traces:
        # x^T J1 x from an assembled J1 cancels to about 3e-9 relative here,
        # the edge-by-edge sum of nonnegative terms does not
        m = cvt_sequence[512]
        d = cli.discretize(m, example_solution(1))
        sol = d.solve(1.0)
        rec = d.error(sol)
        expected = penalty_energy(forms.build_edge_stencils(m, d.elements), np.asarray(sol.values, dtype=float))
        assert rec.j1_energy == pytest.approx(float(expected), rel=1e-12, abs=0.0)

    def test_solution_j1_energy_decreases_with_refinement(self, cvt_sequence):
        # moderate eps: the penalty actively controls the jumps, so the
        # penalty energy of the solution shrinks along the mesh sequence
        msol = example_solution(2)
        energies = []
        for n in (32, 64, 128):
            d, sol = solve_case(cvt_sequence[n], 1.0, msol)
            energies.append(d.error(sol).j1_energy)
        assert all(e > 0.0 for e in energies)
        assert energies[0] > energies[1] > energies[2]


class TestFitRate:
    def test_two_point_halving(self):
        assert fit_rate([0.2, 0.1], [1e-1, 5e-2]) == pytest.approx(1.0, abs=1e-12)

    def test_three_point_quadratic(self):
        assert fit_rate([0.4, 0.2, 0.1], [4e-2, 1e-2, 2.5e-3]) == pytest.approx(2.0, abs=1e-12)

    def test_reference_row_digitized(self):
        # least-squares fit of the published stabilized-row values against
        # h proportional to 1/sqrt(N) comes out at 0.91
        e_vals = [2.3910e-02, 1.7910e-02, 1.3133e-02, 9.4912e-03, 6.7755e-03]
        h_vals = [n**-0.5 for n in (32, 64, 128, 256, 512)]
        assert fit_rate(h_vals, e_vals) == pytest.approx(0.911, abs=0.01)

    def test_non_monotone_rejected(self):
        with pytest.raises(ValueError):
            fit_rate([0.2, 0.3, 0.1], [1.0, 0.5, 0.2])

    def test_too_few_records_rejected(self):
        with pytest.raises(ValueError):
            fit_rate([0.1], [1.0])

    def test_nonpositive_errors_rejected(self):
        with pytest.raises(ValueError):
            fit_rate([0.2, 0.1], [1.0, 0.0])


class TestConvergenceReport:
    def test_rates_only_with_three_records(self):
        recs = {
            1.0: [
                verify.ErrorRecord(1.0, n, h, e, e, 0.0)
                for n, h, e in [(16, 0.4, 4e-2), (64, 0.2, 1e-2)]
            ]
        }
        report = verify.ConvergenceReport(records=recs).finalize()
        assert 1.0 not in report.rates_h
        assert report.rates_last_pair[1.0] == pytest.approx(2.0, abs=1e-12)

    def test_last_pair_rate_is_local_to_the_two_finest_meshes(self):
        recs = {
            0.5: [
                verify.ErrorRecord(0.5, n, h, e, e, 0.0)
                for n, h, e in [(256, 0.1, 5e-3), (16, 0.4, 4e-2), (64, 0.2, 1e-2)]
            ],
            1e-3: [verify.ErrorRecord(1e-3, 16, 0.4, 4e-2, 4e-2, 0.0)],
        }
        report = verify.ConvergenceReport(records=recs).finalize()
        assert report.rates_last_pair == {0.5: pytest.approx(1.0, abs=1e-12)}
        assert report.rates_h[0.5] == pytest.approx(1.5, abs=0.1)

    def test_records_sorted_and_rates_fit(self):
        recs = {
            0.5: [
                verify.ErrorRecord(0.5, n, h, e, e, 0.0)
                for n, h, e in [(64, 0.2, 1e-2), (16, 0.4, 4e-2), (256, 0.1, 2.5e-3)]
            ]
        }
        report = verify.ConvergenceReport(records=recs).finalize()
        assert [r.h_max for r in report.records[0.5]] == [0.4, 0.2, 0.1]
        assert report.rates_h[0.5] == pytest.approx(2.0, abs=1e-12)
        assert report.rates_n[0.5] == pytest.approx(2.0, abs=1e-12)


class TestConvergenceTrend:
    @pytest.mark.parametrize("eps", [1.0, 1e-3])
    def test_errors_decrease_under_refinement(self, eps):
        msol = example_solution(2)
        totals = []
        for n in (4, 8, 16):
            d, sol = solve_case(mesh.generate_uniform_squares(n), eps, msol)
            totals.append(d.error(sol).e_total)
        assert totals[0] > totals[1] > totals[2]
