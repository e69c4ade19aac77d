import math

import numpy as np
import pytest

from ipvem import cli, forms, mesh, system, verify
from ipvem.basis import QUAD_ORDER, derivative_matrix, polygon_quadrature
from ipvem.verify import (
    ManufacturedSolution,
    build_error_data,
    energy_error,
    example_solution,
    fit_rate,
    forcing_parts,
    interpolation_dofs,
    j1_energy,
)

PI = math.pi


def forcing(msol, eps, x, y):
    """Source of the perturbed problem: eps^2 biharmonic(u) - laplacian(u)."""
    f4, f2 = forcing_parts(msol)
    return eps**2 * f4(x, y) + f2(x, y)


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
        values = interpolation_dofs(cvt32, d.dof_map, d.elements, msol)
        sol = system.DiscreteSolution(values=values, eps=0.5, residual=0.0)
        for norm in ("interp-energy", "projection"):
            assert d.error(sol, norm).e_total <= 1e-10

    def test_decomposition_identity(self, cvt32):
        d, sol = solve_case(cvt32, 1e-2, example_solution(2))
        rec = d.error(sol)
        assert rec.decomposition_residual <= 1e-12 * rec.e_total**2

    def test_quadrature_order_insensitivity(self, cvt32):
        # the QUAD_ORDER rule against a per-cell rule of twice that order
        msol = example_solution(2)
        d, sol = solve_case(cvt32, 1e-1, msol)
        rec = d.error(sol, norm="projection")
        fine = oracle_projection_errors(cvt32, d.dof_map, d.elements, sol.values, msol, 2 * QUAD_ORDER)
        assert (rec.proj_h2, rec.proj_h1, rec.proj_h1_via_h2) == pytest.approx(fine, rel=1e-8)

    def test_eps_zero_gives_pure_gradient_error(self, cvt32):
        d, sol = solve_case(cvt32, 1e-3, example_solution(2))
        sol.eps = 0.0
        rec = d.error(sol)
        assert rec.e_total == rec.h1_part

    def test_projection_norm_uses_selected_projector(self, cvt32):
        # the projection norm reads the h2 projection for the Hessian part
        # and the h1 projection for the gradient part
        d, sol = solve_case(cvt32, 1e-2, example_solution(2))
        rec = d.error(sol, norm="projection")
        assert rec.h2_part == rec.proj_h2
        assert rec.h1_part == rec.proj_h1
        assert rec.proj_h1 != rec.proj_h1_via_h2

    def test_interp_energy_requires_parts(self, cvt32, cvt32_elements):
        msol = example_solution(2)
        dof_map = system.number_dofs(cvt32)
        sol = system.DiscreteSolution(values=np.zeros(dof_map.n_dofs), eps=1.0, residual=0.0)
        data = build_error_data(cvt32, dof_map, cvt32_elements, msol)
        with pytest.raises(ValueError):
            energy_error(data, sol, parts=None)


def oracle_interpolation_dofs(m, dof_map, elements, msol, quad_order=QUAD_ORDER):
    """Per-cell reference for the exact-solution DoFs."""
    chi = np.zeros(dof_map.n_dofs)
    for el in elements:
        idx = system.cell_dof_indices(dof_map, m, el.cell_id)
        pts = el.layout.points
        chi[idx[: len(pts)]] = msol(pts[:, 0], pts[:, 1])
        qp, qw = polygon_quadrature(el.geometry, quad_order)
        chi[idx[-1]] = float(qw @ msol(qp[:, 0], qp[:, 1])) / el.geometry.area
    return chi


def oracle_projection_errors(m, dof_map, elements, values, msol, quad_order=QUAD_ORDER):
    """Per-cell reference for (|u - p2|_{2,h}, |u - p1|_{1,h}, |u - p2|_{1,h})."""
    h2_sq = h1_h1_sq = h1_h2_sq = 0.0
    for el in elements:
        chi = values[system.cell_dof_indices(dof_map, m, el.cell_id)]
        p_h2 = el.projectors.h2_coeff @ chi
        p_h1 = el.projectors.h1_coeff @ chi
        pts, w = polygon_quadrature(el.geometry, quad_order)
        x, y = pts[:, 0], pts[:, 1]
        Dx = derivative_matrix(el.basis, "x")
        Dy = derivative_matrix(el.basis, "y")
        vals = el.basis.evaluate(pts)
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


class TestBatchedErrorsMatchPerCellOracle:
    @pytest.mark.parametrize("which", [1, 2])
    @pytest.mark.parametrize("mesh_name", ["cvt32", "uniform4"])
    def test_records_and_dofs_match(self, request, mesh_name, which):
        m = request.getfixturevalue("cvt32") if mesh_name == "cvt32" else mesh.generate_uniform_squares(4)
        msol = example_solution(which)
        d = cli.discretize(m, msol)
        elements, dof_map, parts = d.elements, d.dof_map, d.parts
        chi = oracle_interpolation_dofs(m, dof_map, elements, msol)
        assert np.max(np.abs(d.error_data.exact_dofs - chi)) <= 1e-13
        assert np.max(np.abs(interpolation_dofs(m, dof_map, elements, msol) - chi)) <= 1e-13
        for eps in (1.0, 1e-3, 1e-10):
            sol = d.solve(eps)
            rec = energy_error(d.error_data, sol, parts=parts)
            delta = chi - sol.values
            h2 = math.sqrt(delta @ (parts.a_only @ delta) + delta @ (parts.j1 @ delta))
            h1 = math.sqrt(delta @ (parts.grad @ delta))
            expected = (math.sqrt(eps**2 * h2**2 + h1**2), h2, h1) + oracle_projection_errors(
                m, dof_map, elements, sol.values, msol
            )
            got = (rec.e_total, rec.h2_part, rec.h1_part, rec.proj_h2, rec.proj_h1, rec.proj_h1_via_h2)
            assert got == pytest.approx(expected, rel=1e-12, abs=0.0)
            assert rec.h_max == m.max_diameter()


class TestJ1Energy:
    def test_zero_solution(self, cvt32, cvt32_elements):
        dof_map = system.number_dofs(cvt32)
        lf = forms.build_local_forms(cvt32, cvt32_elements)
        stencils = forms.build_edge_stencils(cvt32, cvt32_elements)
        parts = system.build_operator_parts(cvt32, dof_map, lf, stencils)
        sol = system.DiscreteSolution(values=np.zeros(dof_map.n_dofs), eps=1.0, residual=0.0)
        assert j1_energy(sol, parts.j1) == 0.0

    def test_global_quadratic_interior_stencils_vanish(self, cvt32, cvt32_elements):
        stencils = forms.build_edge_stencils(cvt32, cvt32_elements)
        dof_map = system.number_dofs(cvt32)

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
        chi = interpolation_dofs(cvt32, dof_map, cvt32_elements, msol)
        for st in stencils:
            if len(st.cells) == 1:
                continue
            idx = np.concatenate([system.cell_dof_indices(dof_map, cvt32, c) for c in st.cells])
            local = chi[idx]
            scale = max(1.0, np.max(np.abs(st.j1_block)))
            assert abs(local @ st.j1_block @ local) < 1e-11 * scale

    def test_solution_j1_energy_decreases_with_refinement(self, cvt_sequence):
        # moderate eps: the penalty actively controls the jumps, so the
        # penalty energy of the solution shrinks along the mesh sequence
        msol = example_solution(2)
        energies = []
        for n in (32, 64, 128):
            d, sol = solve_case(cvt_sequence[n], 1.0, msol)
            energies.append(j1_energy(sol, d.parts.j1))
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
        report = verify.ConvergenceReport(records=recs, seed=0, penalty_a=2.0).finalize()
        assert 1.0 not in report.rates_h

    def test_records_sorted_and_rates_fit(self):
        recs = {
            0.5: [
                verify.ErrorRecord(0.5, n, h, e, e, 0.0)
                for n, h, e in [(64, 0.2, 1e-2), (16, 0.4, 4e-2), (256, 0.1, 2.5e-3)]
            ]
        }
        report = verify.ConvergenceReport(records=recs, seed=0, penalty_a=2.0).finalize()
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
