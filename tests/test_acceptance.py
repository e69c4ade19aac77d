"""Acceptance suite: every criterion runs at its stated tolerance and prints
one pass/fail line (run with -s to see them as they pass)."""

import math
import time

import numpy as np
import pytest

from ipvem import cli, forms, mesh, projectors, system, verify
from ipvem.basis import SIMPSON

from conftest import edge_coupling, is_positive_definite

SEED = 7
LLOYD = 100
SIZES = [32, 64, 128, 256, 512]
EPS_GRID = [1.0, 1e-1, 1e-2, 1e-3, 1e-4, 1e-5]

# published energy errors of the reference experiments (example 1, CVT
# meshes of 32..512 polygons) and their reported per-row rates
REFERENCE_TABLE = {
    1.0: [7.7401e-01, 4.9029e-01, 2.7904e-01, 1.6441e-01, 1.1698e-01],
    1e-1: [7.2306e-02, 4.8619e-02, 2.8865e-02, 1.7533e-02, 1.2075e-02],
    1e-2: [2.4167e-02, 1.8044e-02, 1.3098e-02, 9.4385e-03, 6.6785e-03],
    1e-3: [2.3908e-02, 1.7905e-02, 1.3125e-02, 9.4839e-03, 6.7673e-03],
    1e-4: [2.3910e-02, 1.7910e-02, 1.3132e-02, 9.4912e-03, 6.7754e-03],
    1e-5: [2.3910e-02, 1.7910e-02, 1.3133e-02, 9.4912e-03, 6.7755e-03],
}


def report(name, passed, detail, elapsed):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {name}: {status} ({detail}; {elapsed:.1f}s)")
    assert passed, f"{name}: {detail}"


@pytest.fixture(scope="module")
def table1_output():
    t0 = time.perf_counter()
    cfg = cli.StudyConfig(
        example=1, eps=list(EPS_GRID), mesh_kind="cvt", sizes=list(SIZES), seed=SEED, lloyd_iters=LLOYD
    )
    out = cli.run_study(cfg)
    out.elapsed = time.perf_counter() - t0
    assert not out.failures, out.failures
    return out


@pytest.fixture(scope="module")
def example2_deep():
    t0 = time.perf_counter()
    cfg = cli.StudyConfig(
        example=2, eps=[1e-10], mesh_kind="cvt", sizes=list(SIZES), seed=SEED, lloyd_iters=LLOYD
    )
    out = cli.run_study(cfg)
    out.elapsed = time.perf_counter() - t0
    assert not out.failures, out.failures
    return out


class TestCriterion1Projectors:
    def test_projector_reproduction(self, cvt64):
        t0 = time.perf_counter()
        rng = np.random.default_rng(SEED)
        cvt_elements = projectors.build_elements(cvt64)
        cells = [(cvt_elements, int(c)) for c in rng.choice(cvt64.n_cells, size=20, replace=False)]
        for n in (1, 2, 4):
            um = projectors.build_elements(mesh.generate_uniform_squares(n))
            cells += [(um, c) for c in range(len(um.n_dofs))]
        worst = 0.0
        checks = 0
        for E, cid in cells:
            probes = list(np.eye(6)) + list(rng.uniform(-1, 1, (6, 6)))
            for coeffs in probes:
                chi = E.dof_matrix[cid] @ coeffs
                scale = max(1.0, np.max(np.abs(coeffs)))
                for mat in (E.h1_coeff[cid], E.h2_coeff[cid], E.l2_coeff[cid]):
                    worst = max(worst, np.max(np.abs(mat @ chi - coeffs)) / scale)
                    checks += 1
        elapsed = time.perf_counter() - t0
        report(
            "criterion 1 (projector reproduction)",
            worst <= 1e-10 and elapsed < 5.0,
            f"max rel err {worst:.2e} over {checks} projections",
            elapsed,
        )


class TestCriterion2Consistency:
    def test_k_consistency_every_cell_cvt64(self, cvt64):
        from test_forms import gram_quadrature

        t0 = time.perf_counter()
        worst = 0.0
        elements = projectors.build_elements(cvt64)
        cell_forms = forms.build_local_forms(elements)
        for cid in range(cvt64.n_cells):
            D = elements.dof_matrix[cid]
            A = cell_forms.a[cid]
            B = cell_forms.b[cid]
            exact_a, exact_b = gram_quadrature(cvt64.stacked_geometry, cid)
            scale_a = np.max(np.abs(exact_a))
            scale_b = np.max(np.abs(exact_b))
            worst = max(worst, np.max(np.abs(D.T @ A @ D - exact_a)) / scale_a)
            worst = max(worst, np.max(np.abs(D.T @ B @ D - exact_b)) / scale_b)
        elapsed = time.perf_counter() - t0
        report(
            "criterion 2 (k-consistency on CVT-64)",
            worst <= 1e-10 and elapsed < 10.0,
            f"max rel defect {worst:.2e} over all monomial pairs and cells",
            elapsed,
        )


class TestCriterion3Solvability:
    def test_positive_definite_across_grid(self, cvt_sequence):
        t0 = time.perf_counter()
        worst_pivot = np.inf
        count = 0
        for n in SIZES:
            m = cvt_sequence[n]
            elements = projectors.build_elements(m)
            dof_map = system.number_dofs(m)
            lf = forms.build_local_forms(elements)
            stencils = forms.build_edge_stencils(m, elements)
            parts = system.build_operator_parts(dof_map, lf, stencils)
            for eps in EPS_GRID:
                sys_ = system.combine(
                    system.restrict(parts.hess, parts.grad, dof_map), np.zeros(dof_map.n_dofs), eps
                )
                ok, pivot = is_positive_definite(sys_)
                count += 1
                worst_pivot = min(worst_pivot, pivot)
                assert ok, f"not positive definite at N={n}, eps={eps}"
        elapsed = time.perf_counter() - t0
        report(
            "criterion 3 (positive-definite factorization)",
            elapsed < 60.0,
            f"{count} systems factorized, smallest pivot {worst_pivot:.3e}",
            elapsed,
        )


class TestCriterion4Table1:
    def test_values_within_factor_two(self, table1_output):
        t0 = time.perf_counter()
        worst_lo, worst_hi = np.inf, 0.0
        for eps, recs in table1_output.report.records.items():
            assert len(recs) == len(SIZES)
            for rec, ref in zip(recs, REFERENCE_TABLE[eps]):
                ratio = rec.e_total / ref
                worst_lo = min(worst_lo, ratio)
                worst_hi = max(worst_hi, ratio)
        passed = worst_lo >= 0.5 and worst_hi <= 2.0
        report(
            "criterion 4a (reference-table values within factor 2)",
            passed and table1_output.elapsed < 300.0,
            f"E_I/reference ratios in [{worst_lo:.2f}, {worst_hi:.2f}], study {table1_output.elapsed:.0f}s",
            time.perf_counter() - t0 + table1_output.elapsed,
        )

    def test_errors_decrease_along_each_row(self, table1_output):
        # refinement invariant: monotone decrease per eps, allowing one
        # non-monotone step for the random meshes
        t0 = time.perf_counter()
        worst_violations = 0
        for eps, recs in table1_output.report.records.items():
            vals = [r.e_total for r in recs]
            violations = sum(b >= a for a, b in zip(vals, vals[1:]))
            worst_violations = max(worst_violations, violations)
        report(
            "criterion 4 invariant (monotone refinement)",
            worst_violations <= 1,
            f"at most {worst_violations} non-monotone step(s) per eps row",
            time.perf_counter() - t0,
        )

    def test_per_run_wall_time(self, table1_output):
        t0 = time.perf_counter()
        worst = max(row["wall_ms"] for row in table1_output.rows)
        report(
            "criterion 4 invariant (desk-scale wall time)",
            worst < 60_000.0,
            f"slowest single run {worst:.0f} ms",
            time.perf_counter() - t0,
        )

    def test_fitted_rates_in_bands(self, table1_output):
        t0 = time.perf_counter()
        rate_1 = table1_output.report.rates_h[1.0]
        rate_5 = table1_output.report.rates_h[1e-5]
        passed = 1.1 <= rate_1 <= 1.7 and 0.75 <= rate_5 <= 1.1
        report(
            "criterion 4b (fitted rates)",
            passed,
            f"rate(eps=1) = {rate_1:.2f} in [1.1, 1.7], rate(eps=1e-5) = {rate_5:.2f} in [0.75, 1.1]",
            time.perf_counter() - t0,
        )


class TestCriterion5EpsRobustness:
    def test_adjacent_small_eps_rows_agree(self, table1_output):
        t0 = time.perf_counter()
        worst = 0.0
        recs4 = table1_output.report.records[1e-4]
        recs5 = table1_output.report.records[1e-5]
        for r4, r5 in zip(recs4, recs5):
            worst = max(worst, abs(r4.e_total - r5.e_total) / r5.e_total)
        report(
            "criterion 5 (eps-robustness 1e-4 vs 1e-5)",
            worst < 0.01,
            f"max relative difference {worst:.2e} over the mesh sequence",
            time.perf_counter() - t0,
        )


class TestCriterion6DeepSingular:
    def test_first_order_rate_at_eps_1e10(self, example2_deep):
        t0 = time.perf_counter()
        rate = example2_deep.report.rates_h[1e-10]
        report(
            "criterion 6 (example 2, eps=1e-10, rate >= 0.8)",
            rate >= 0.8 and example2_deep.elapsed < 120.0,
            f"fitted rate {rate:.3f}, study {example2_deep.elapsed:.0f}s",
            time.perf_counter() - t0 + example2_deep.elapsed,
        )


class TestCriterion7Units:
    def test_quadrature_penalty_and_annihilation(self):
        t0 = time.perf_counter()
        # Gauss-Lobatto exactness to degree 3 at k = 2
        nodes = np.array([0.0, 0.5, 1.0])
        gl_defect = max(abs(float(SIMPSON @ nodes**j) - 1.0 / (j + 1)) for j in range(4))
        # penalty spot values from the formula
        config = forms.PenaltyConfig(a=2.0, n_k=4)
        lam_int = forms.penalty_parameter(1.0, [0.25, 0.25], config, k=2)
        lam_bnd = forms.penalty_parameter(1.0, [0.25], config, k=2)
        lam_defect = max(abs(lam_int - 32.0), abs(lam_bnd - 32.0))
        # edge-block annihilation on global quadratic pairs
        vertices = [[0, 0], [1, 0], [2, 0], [0, 1], [1, 1], [2, 1]]
        m = mesh.build_mesh(vertices, [[0, 1, 4, 3], [1, 2, 5, 4]])
        elements = projectors.build_elements(m)
        interior = int(np.flatnonzero(~m.boundary_edge)[0])
        j1_block, block = edge_coupling(forms.build_edge_stencils(m, elements), interior, lam=lam_int)
        monomials = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
        chis = []
        for p, q in monomials:

            def partial(i, j, x, y, p=p, q=q):
                x = np.asarray(x, dtype=float)
                y = np.asarray(y, dtype=float)
                if i > p or j > q:
                    return np.zeros_like(x)
                cf = math.perm(p, i) * math.perm(q, j)
                return cf * x ** (p - i) * y ** (q - j)

            msol = verify.ManufacturedSolution(f"m{p}{q}", partial, clamped=False)
            chis.append(verify.interpolation_dofs(m, elements, msol))
        scale = np.max(np.abs(block))
        j_defect = max(
            max(abs(float(cp @ block @ cq)) for cq in chis) for cp in chis
        ) / scale
        jump_defect = max(np.max(np.abs(j1_block @ cp)) for cp in chis) / scale
        worst = max(gl_defect, lam_defect, j_defect, jump_defect)
        elapsed = time.perf_counter() - t0
        report(
            "criterion 7 (quadrature, penalty, annihilation units)",
            worst <= 1e-11,
            f"max defect {worst:.2e} (GL {gl_defect:.1e}, lambda {lam_defect:.1e}, J-pairs {j_defect:.1e}, jumps {jump_defect:.1e})",
            elapsed,
        )


class TestCriterion8PenaltyInsensitivity:
    def test_penalty_constant_four(self, example2_deep):
        t0 = time.perf_counter()
        cfg = cli.StudyConfig(
            example=2, eps=[1e-10], mesh_kind="cvt", sizes=list(SIZES), seed=SEED,
            lloyd_iters=LLOYD, penalty_a=4.0,
        )
        out4 = cli.run_study(cfg)
        assert not out4.failures
        base = example2_deep.report.records[1e-10]
        alt = out4.report.records[1e-10]
        worst = max(abs(a.e_total - b.e_total) / b.e_total for a, b in zip(alt, base))
        rate = out4.report.rates_h[1e-10]
        passed = worst < 0.20 and rate >= 0.8
        report(
            "criterion 8 (penalty constant a=4)",
            passed,
            f"max E_I change {worst:.2e}, rate {rate:.3f}",
            time.perf_counter() - t0,
        )
