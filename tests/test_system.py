import dataclasses
import math
import threading
import time
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from ipvem import cli, forms, mesh, projectors, system, verify
from ipvem.system import BandFactor, SolveError, SparseSystem, number_dofs, solve

from conftest import is_positive_definite, operator_parts, reference_coupling, reference_operators

# u = 0: zero forcing
ZERO = verify.ManufacturedSolution("zero", lambda i, j, x, y: np.zeros_like(np.asarray(x, dtype=float)))


def pipeline(m, eps, msol=ZERO, penalty_a=2.0):
    d = cli.discretize(m, msol, penalty_a)
    return d, d.reduced(eps)


def hand_built(mat, rhs):
    """The system of the canonical matrix ``mat`` and ``rhs`` on DoFs that
    are all free, with a factor of its own."""
    n = mat.shape[0]
    dm = system.GlobalDofMap(n_vertices=n, n_edges=0, n_cells=0, boundary=np.zeros(n, dtype=bool))
    return SparseSystem(
        matrix=mat, rhs=rhs, eps=1.0, dof_map=dm, free_indices=np.arange(n), factor=BandFactor.for_pattern(mat)
    )


def fresh(sys_):
    """``sys_`` with a new factor of its own and no limit factor, so that its
    solve factors afresh in the full band."""
    return dataclasses.replace(sys_, factor=BandFactor.for_pattern(sys_.matrix), limit=None)


class TestNumberDofs:
    def test_two_by_two_counts(self):
        m = mesh.generate_uniform_squares(2)
        dm = number_dofs(m)
        assert dm.n_dofs == 25
        assert int(np.sum(dm.boundary)) == 16
        assert int(np.sum(dm.free)) == 9

    def test_single_cell_counts(self):
        m = mesh.generate_uniform_squares(1)
        dm = number_dofs(m)
        assert dm.n_dofs == 9
        assert int(np.sum(dm.boundary)) == 8
        # the only free DoF is the interior moment
        assert np.flatnonzero(dm.free).tolist() == [dm.n_vertices + dm.n_edges]

    def test_cvt_census(self, cvt32):
        dm = number_dofs(cvt32)
        assert dm.n_dofs == cvt32.n_vertices + cvt32.n_edges + cvt32.n_cells
        n_bv = int(np.sum(cvt32.boundary_vertex))
        n_be = int(np.sum(cvt32.boundary_edge))
        assert int(np.sum(dm.boundary)) == n_bv + n_be
        # moments are never boundary DoFs
        assert not np.any(dm.boundary[dm.n_vertices + dm.n_edges :])

    def test_cell_indices_cover_all_dofs(self, cvt32):
        dm = number_dofs(cvt32)
        elements = projectors.build_elements(cvt32)
        seen = np.zeros(dm.n_dofs, dtype=bool)
        seen[elements.dofs[elements.dof_mask]] = True
        assert np.all(seen)


class TestAssemble:
    def test_zero_forcing_gives_zero_solution(self):
        m = mesh.generate_uniform_squares(2)
        *_, sys_ = pipeline(m, eps=1.0)
        sol = solve(sys_)
        assert np.allclose(sol.values, 0.0)
        assert sol.residual == 0.0

    def test_assembled_matrix_symmetric(self, cvt32):
        msol = verify.example_solution(2)
        *_, sys_ = pipeline(cvt32, 1e-2, msol)
        d = (sys_.matrix - sys_.matrix.T).tocoo()
        assert d.nnz == 0 or np.max(np.abs(d.data)) == 0.0

    def test_dual_path_gradient_part(self):
        # zeroing the edge blocks at eps = 0 must reproduce the plain
        # gradient-form matrix assembled independently
        m = mesh.generate_uniform_squares(2)
        d = cli.discretize(m, ZERO)
        lf = forms.build_local_forms(d.elements)
        traces = forms.build_edge_stencils(m, d.elements)
        zeroed = dataclasses.replace(traces, lam=0.0 * traces.lam, h=0.0 * traces.h)
        sys_zero = system.combine(system.build_operator_parts(d.dof_map, lf, zeroed), d.rhs2, 0.0)
        b_full = np.zeros((d.dof_map.n_dofs, d.dof_map.n_dofs))
        for cid, n in enumerate(d.elements.n_dofs):
            idx = d.elements.dofs[cid, :n]
            b_full[np.ix_(idx, idx)] += lf.b[cid, :n, :n]
        free = np.flatnonzero(d.dof_map.free)
        expected = b_full[np.ix_(free, free)]
        diff = sys_zero.matrix.toarray() - 0.5 * (expected + expected.T)
        assert np.max(np.abs(diff)) < 1e-14 * np.max(np.abs(expected))

    def test_dimension_mismatch_aborts(self):
        m = mesh.generate_uniform_squares(2)
        elements = projectors.build_elements(m)
        lf = forms.build_local_forms(elements)
        lf.a = np.zeros((m.n_cells, 3, 3))
        stencils = forms.build_edge_stencils(m, elements)
        with pytest.raises(ValueError):
            system.build_operator_parts(number_dofs(m), lf, stencils)


class TestSolve:
    def test_single_free_dof(self):
        m = mesh.generate_uniform_squares(1)
        msol = verify.example_solution(2)
        *_, sys_ = pipeline(m, 1.0, msol)
        assert sys_.matrix.shape == (1, 1)
        sol = solve(sys_)
        assert np.isfinite(sol.values).all()
        assert sol.residual <= 1e-10

    def test_random_spd_system(self):
        rng = np.random.default_rng(1)
        n = 50
        R = rng.standard_normal((n, n))
        mat = sp.csr_matrix(R @ R.T + n * np.eye(n))
        rhs = rng.standard_normal(n)
        factor = BandFactor.for_pattern(mat)
        factor.factor(mat, 1.0)
        x, residual, _ = system._refine(mat, rhs, factor.solve(rhs), factor, 1e-10)
        assert residual <= 1e-10

    def test_refine_reports_residual_of_returned_solution(self):
        # a factorization that halves every correction never reaches the
        # target, so all corrections run; the residual must still be the
        # returned iterate's, not the one before the last correction
        mat = sp.csr_matrix(np.diag([1.0, 2.0, 3.0]))
        rhs = np.ones(3)

        class HalvingLU:
            def solve(self, r):
                return 0.5 * r / mat.diagonal()

        x, residual, steps = system._refine(mat, rhs, np.zeros(3), HalvingLU(), 1e-10, max_steps=4)
        assert steps == 4
        # x is accumulated in long double, where the thirds are not rounded
        # to double, so the residual is 1/16 up to the last bit (1/8 before
        # the last correction)
        assert residual == np.linalg.norm((rhs - mat @ x).astype(float)) / np.linalg.norm(rhs)
        assert residual == pytest.approx(0.0625, rel=1e-15)

    def test_refine_stops_when_a_correction_stalls(self):
        # each correction removes a tenth of the residual: the first one
        # already stalls, so the refinement stops after it, and the residual
        # is that of the returned iterate
        mat = sp.csr_matrix(np.diag([1.0, 2.0, 3.0]))
        rhs = np.ones(3)

        class StallingLU:
            def solve(self, r):
                return 0.1 * r / mat.diagonal()

        x, residual, steps = system._refine(mat, rhs, np.zeros(3), StallingLU(), 1e-10, max_steps=4)
        assert steps == 1
        assert residual == np.linalg.norm((rhs - mat @ x).astype(float)) / np.linalg.norm(rhs)
        assert residual == pytest.approx(0.9, rel=1e-15)
        # a held attempt that stalls within the target is kept, one that
        # stalls above it is given up
        exact = rhs / mat.diagonal()
        x, residual, steps = system._refine(mat, rhs, (1.0 - 5e-11) * exact, StallingLU(), 1e-10, may_abort=True)
        assert steps == 1 and residual == pytest.approx(4.5e-11, rel=1e-4)
        assert system._refine(mat, rhs, (1.0 - 2e-10) * exact, StallingLU(), 1e-10, may_abort=True) is None

    def test_smoke_example2_cvt32(self, cvt32):
        msol = verify.example_solution(2)
        d, sys_ = pipeline(cvt32, 1e-5, msol)
        sol = solve(sys_)
        assert np.isfinite(sol.values).all()
        assert np.allclose(sol.values[d.dof_map.boundary], 0.0)
        assert sol.residual <= 1e-10
        assert sol.diagnostics["n_free"] == sys_.n_free == np.count_nonzero(d.dof_map.free)
        assert sol.diagnostics["nnz"] == sys_.matrix.nnz

    def test_solution_invariant_under_cell_permutation(self, cvt32):
        eps = 1e-2
        d = cli.discretize(cvt32, verify.example_solution(1))
        sol_a = d.solve(eps)
        # permute the edge order of the edge-trace data (cells are keyed by
        # id, edges are not)
        lf = forms.build_local_forms(d.elements)
        traces = forms.build_edge_stencils(cvt32, d.elements)
        rng = np.random.default_rng(3)
        order = rng.permutation(len(traces.lam))
        permuted = dataclasses.replace(traces, sides=traces.sides[:, order], lam=traces.lam[order], h=traces.h[order])
        parts = system.build_operator_parts(d.dof_map, lf, permuted)
        sol_b = solve(system.combine(parts, eps**2 * d.rhs4 + d.rhs2, eps))
        scale = np.max(np.abs(sol_a.values))
        assert np.max(np.abs(sol_a.values - sol_b.values)) <= 1e-9 * scale

    def test_linearity_in_forcing(self, cvt32):
        eps = 1e-1
        d = cli.discretize(cvt32, verify.example_solution(1))

        def solve_for(f):
            rhs = system.load_vector(d.elements, f)
            return solve(system.combine(d.free_parts, rhs, eps)).values

        sols = [
            solve_for(f)
            for f in (lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y), lambda x, y: x * y)
        ]
        combined = solve_for(lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y) + x * y)
        scale = np.max(np.abs(combined))
        assert np.max(np.abs(combined - sols[0] - sols[1])) <= 1e-9 * scale

    def test_residual_target_enforced(self):
        sys_ = hand_built(sp.csr_matrix(np.array([[1.0, 0.0], [0.0, 0.0]])), np.array([1.0, 1.0]))
        with pytest.raises(SolveError):
            solve(sys_)


class TestSymmetricModeFactor:
    @staticmethod
    def saddle_system(diagonal):
        # [[H, B], [B^T, diagonal * I]] with each of the three lower-right
        # columns coupled to one row of H: symmetric but indefinite, since
        # its Schur complement diagonal * I - B^T H^-1 B is negative
        n, k = 6, 3
        b = np.zeros((n, k))
        b[[0, 2, 4], [0, 1, 2]] = 1.0
        h = np.full((n, n), 1.0) + n * np.eye(n)
        mat = sp.csr_matrix(np.block([[h, b], [b.T, diagonal * np.eye(k)]]))
        return hand_built(mat, np.random.default_rng(6).standard_normal(n + k))

    @pytest.mark.parametrize("diagonal", [0.0, 1e-14])
    def test_threshold_pivoting_passes_over_small_diagonals(self, diagonal):
        # the Cholesky factor does not pivot: a zero or tiny diagonal that
        # makes the matrix indefinite is refused with a clear error
        with pytest.raises(SolveError, match="not positive definite"):
            solve(self.saddle_system(diagonal))

    def test_real_systems_stay_on_the_diagonal(self, cvt32):
        # the method's systems are positive definite: the band Cholesky
        # factors each, and the refined solution matches a pivoting LU's
        d = cli.discretize(cvt32, verify.example_solution(1))
        for eps in (1.0, 1e-3, 1e-10):
            sys_ = fresh(d.reduced(eps))
            sol = solve(sys_)
            assert sol.diagnostics["method"] == "band-cholesky"
            reference = sp.linalg.splu(sys_.matrix.tocsc()).solve(sys_.rhs)
            x = sol.values[sys_.free_indices]
            assert np.max(np.abs(x - reference)) <= 1e-10 * np.max(np.abs(reference))

    def test_fill_at_most_the_default_factor(self, cvt32, cvt64):
        # the factor stores the full band of the permuted matrix, and the
        # solution from it agrees with a dense solve
        for m in (cvt32, cvt64):
            d = cli.discretize(m, verify.example_solution(1))
            for eps in (1.0, 1e-3, 1e-10):
                sys_ = fresh(d.reduced(eps))
                sol = solve(sys_)
                diag = sol.diagnostics
                assert diag["factor_nnz"] == (diag["bandwidth"] + 1) * sys_.n_free
                reference = np.linalg.solve(sys_.matrix.toarray(), sys_.rhs)
                x = sol.values[sys_.free_indices].astype(float)
                assert np.linalg.norm(x - reference) <= 1e-10 * np.linalg.norm(reference)


class TestBandLayout:
    def test_one_layout_per_mesh_in_an_eleven_eps_sweep(self, monkeypatch):
        # each mesh lays out its full pattern and its limit pattern at most once
        made, real = [], system._band_layout

        def layout(mat):
            made.append(mat)
            return real(mat)

        monkeypatch.setattr(system, "_band_layout", layout)
        eps = [1.0, 1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8, 1e-9, 1e-10]
        cfg = cli.StudyConfig(example=1, eps=eps, mesh_kind="cvt", sizes=[32, 64], seed=7, lloyd_iters=20)
        out = cli.run_study(cfg)
        assert not out.failures
        assert 2 <= len(made) <= 4 and len({id(mat) for mat in made}) == len(made)
        assert sorted({mat.shape[0] for mat in made}) == [153, 329]

    def test_layout_places_every_lower_entry_in_the_band(self, cvt32):
        mat = cli.discretize(cvt32, verify.example_solution(1)).reduced(1e-3).matrix
        layout = BandFactor.for_pattern(mat)
        n = mat.shape[0]
        assert sorted(layout.order.tolist()) == list(range(n))
        permuted = mat.toarray()[np.ix_(layout.order, layout.order)]
        band = np.zeros((layout.kd + 1) * n)
        band[layout.slots] = mat.data[layout.entries]
        band = band.reshape((layout.kd + 1, n), order="F")
        for offset in range(layout.kd + 1):
            assert np.array_equal(band[offset, : n - offset], np.diagonal(permuted, -offset))
        assert not np.any(np.tril(permuted, -layout.kd - 1))

    def test_hand_built_system_without_layout(self):
        # a shuffled five-point Laplacian plus a diagonal shift, given as CSR
        # and brought to canonical form: its factor is laid out from its pattern
        k = 12
        lap1 = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(k, k))
        mat = sp.kronsum(lap1, lap1) + 0.1 * sp.eye(k * k)
        shuffle = np.random.default_rng(8).permutation(k * k)
        mat = sp.csr_matrix(mat)[shuffle][:, shuffle]
        mat.sort_indices()
        rhs = np.random.default_rng(9).standard_normal(k * k)
        sol = solve(hand_built(mat, rhs))
        reference = np.linalg.solve(mat.toarray(), rhs)
        assert np.max(np.abs(sol.values.astype(float) - reference)) <= 1e-12 * np.max(np.abs(reference))
        # the reverse Cuthill-McKee order undoes the shuffle's bandwidth
        assert sol.diagnostics["bandwidth"] <= 2 * k

    def test_hand_built_matrix_with_duplicate_entries(self):
        # CSR arrays that store each diagonal entry as two halves: the band
        # would keep one half of each, so the layout refuses the pattern
        data = np.array([2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 2.0])
        indices = np.array([0, 1, 0, 0, 1, 2, 1, 1, 2, 2])
        mat = sp.csr_matrix((data, indices, np.array([0, 3, 7, 10])), shape=(3, 3))
        with pytest.raises(ValueError, match="canonical"):
            BandFactor.for_pattern(mat)
        mat.sum_duplicates()
        dense = np.array([[4.0, 1.0, 0.0], [1.0, 4.0, 1.0], [0.0, 1.0, 4.0]])
        rhs = np.array([1.0, -2.0, 3.0])
        sol = solve(hand_built(mat, rhs))
        assert np.allclose(sol.values.astype(float), np.linalg.solve(dense, rhs), rtol=1e-14, atol=0.0)

    def test_two_solves_are_bit_identical(self, cvt64):
        sys_ = cli.discretize(cvt64, verify.example_solution(1)).reduced(1e-2)
        a, b = solve(fresh(sys_)), solve(fresh(sys_))
        assert a.values.dtype == b.values.dtype == system.SOLUTION_DTYPE
        assert np.array_equal(a.values, b.values)
        assert a.residual == b.residual


@pytest.mark.skipif(system.SOLUTION_DTYPE is np.float64, reason="long double is double on this platform")
class TestExtendedSolution:
    def test_residual_target_met_where_the_double_floor_exceeds_it(self):
        # CVT-1024 at eps = 1: the double vector nearest the solution has a
        # relative residual above 1e-10, the long double one meets it
        d = cli.discretize(mesh.generate_cvt(1024, seed=7, lloyd_iters=100), verify.example_solution(1))
        sys_ = d.reduced(1.0)
        sol = solve(sys_)
        mat_ld = sys_.matrix.astype(np.longdouble)
        rhs_ld = sys_.rhs.astype(np.longdouble)

        def residual(values):
            # recomputed from the returned values as the benchmark's gate does
            x = values[sys_.free_indices].astype(np.longdouble)
            return float(np.linalg.norm((rhs_ld - mat_ld @ x).astype(float)) / np.linalg.norm(sys_.rhs))

        assert residual(sol.values) <= system.RESIDUAL_TARGET
        assert residual(sol.values.astype(float)) > system.RESIDUAL_TARGET
        assert sol.residual == pytest.approx(residual(sol.values), rel=1e-6)


SWEEP = (1.0, 1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-8, 1e-10)


class TestHeldFactor:
    @staticmethod
    def discretizations(*meshes):
        return [cli.discretize(m, verify.example_solution(1)) for m in meshes]

    def test_decreasing_sweep_reuses_and_matches_fresh_factors(self, cvt32, cvt64):
        for d in self.discretizations(cvt32, cvt64):
            for eps in SWEEP:
                sol = d.solve(eps)
                own = solve(fresh(d.reduced(eps)))
                assert own.diagnostics["factor_eps"] == eps
                # a held factor of an eps at or above this one, or the limit's where it serves
                held = d.free_parts.factor if sol.diagnostics["factor_eps"] else d.free_parts.limit
                assert sol.diagnostics["factor_eps"] == held.eps
                assert held.eps >= eps or d.reduced(eps).rho <= system.LIMIT_CONTRACTION
                assert sol.residual <= system.RESIDUAL_TARGET
                assert sol.diagnostics["factor_nnz"] == held.band.size
                scale = np.max(np.abs(own.values))
                assert np.max(np.abs(sol.values - own.values)) <= 1e-10 * scale
            assert sol.diagnostics["factor_eps"] != SWEEP[-1]

    def test_increasing_sweep_never_reuses(self, cvt32, cvt64):
        # no factor of a smaller eps serves a larger one, bar the limit's where it serves
        for d in self.discretizations(cvt32, cvt64):
            for eps in SWEEP[::-1]:
                limit = d.reduced(eps).rho <= system.LIMIT_CONTRACTION
                held = d.free_parts.limit if limit else d.free_parts.factor
                assert d.solve(eps).diagnostics["factor_eps"] == held.eps == (0.0 if limit else eps)

    def test_attempt_from_eps_one_aborts_after_one_correction(self, cvt32, cvt64, monkeypatch):
        # the eps of the factor each correction is computed with
        held, real = [], BandFactor.solve

        def counting(factor, r):
            held.append(factor.eps)
            return real(factor, r)

        monkeypatch.setattr(BandFactor, "solve", counting)
        for d in self.discretizations(cvt32, cvt64):
            d.solve(1.0)
            held.clear()
            sol = d.solve(1e-3)
            # from the last solution the start residual already shows the
            # attempt cannot succeed: at most one correction, then a fresh factor
            assert held.count(1.0) <= 1
            assert sol.diagnostics["factor_eps"] == d.free_parts.factor.eps == 1e-3
            assert np.array_equal(sol.values, solve(fresh(d.reduced(1e-3))).values)

    def test_continuation_spends_fewer_corrections(self, cvt64, monkeypatch):
        # the solves below the last fresh factor start from the previous
        # eps's solution: fewer corrections in all than from M^-1 b (with no
        # limit factor, which starts from G^-1 b)
        monkeypatch.setattr(system, "LIMIT_CONTRACTION", 0.0)
        (d,) = self.discretizations(cvt64)
        for eps in (1.0, 1e-1, 1e-2, 1e-3, 1e-4):
            d.solve(eps)
        warm = cold = 0
        for eps in (1e-5, 1e-6, 1e-7, 1e-8, 1e-9, 1e-10):
            sol, reduced = d.solve(eps), d.reduced(eps)
            held = reduced.factor
            assert sol.diagnostics["factor_eps"] == held.eps > eps
            assert sol.residual <= system.RESIDUAL_TARGET
            warm += sol.diagnostics["refine_steps"]
            cold += system._refine(reduced.matrix, reduced.rhs, held.solve(reduced.rhs), held, system.RESIDUAL_TARGET)[2]
        assert warm < cold

    def test_fresh_factors_of_a_mesh_share_one_band(self, cvt32):
        (d,) = self.discretizations(cvt32)
        factor, bands = d.free_parts.factor, []
        for eps in SWEEP[::-1]:  # every solve factors afresh, in the limit band or the full one
            if d.solve(eps).diagnostics["factor_eps"]:
                bands.append(factor.band)
        assert len(bands) >= 2 and all(band is factor.band for band in bands)
        band = weakref.ref(factor.band)
        del bands
        factor.release()
        assert factor.band is factor.eps is factor.x is None and band() is None

    def test_one_factor_alive(self, cvt32, monkeypatch):
        real_factor = BandFactor.factor
        made = []

        def factor(self, *args):
            # each fresh factor is made in the band of the last, or once that is freed
            assert all(ref() is None or ref() is self.band for ref in made)
            real_factor(self, *args)
            made.append(weakref.ref(self.band))

        monkeypatch.setattr(BandFactor, "factor", factor)
        (d,) = self.discretizations(cvt32)
        for eps in SWEEP + SWEEP[::-1]:
            d.solve(eps)
            assert d.free_parts.factor.band is None or d.free_parts.limit.band is None
        # fresh factors from eps = 1 down to the first reused one, and again
        # above the reused factor's eps on the way back up
        assert len(made) >= 5
        assert len({id(ref()) for ref in made if ref() is not None}) == 1
        d.free_parts.release()
        assert all(ref() is None for ref in made)

    def test_no_held_factor_no_reuse(self, cvt32):
        # systems with factors of their own neither reuse one nor touch the mesh's
        (d,) = self.discretizations(cvt32)
        for eps in SWEEP:
            assert solve(fresh(d.reduced(eps))).diagnostics["factor_eps"] == eps
        assert d.free_parts.factor.eps is None and d.free_parts.factor.band is None
        assert d.free_parts.limit.eps is None and d.free_parts.limit.band is None

    def test_failed_factor_holds_no_eps(self, cvt32):
        # a system of the mesh's pattern that is not positive definite fails
        # in the band the mesh's factor holds: no eps may stay over it
        (d,) = self.discretizations(cvt32)
        factor = d.free_parts.factor
        d.solve(1.0)
        assert factor.eps == 1.0
        bad = d.reduced(1e-3)
        bad.matrix = bad.matrix.copy()
        bad.matrix.data *= -1.0
        with pytest.raises(SolveError, match="not positive definite"):
            solve(bad)
        assert factor.eps is None
        sol = d.solve(1e-3)
        assert sol.diagnostics["factor_eps"] == factor.eps == 1e-3
        assert sol.residual <= system.RESIDUAL_TARGET
        assert np.array_equal(sol.values, solve(fresh(d.reduced(1e-3))).values)


class TestLimitFactor:
    """The eps = 0 factor of ``grad`` alone on its own pattern, refined
    against the full system wherever its contraction rho is within
    ``system.LIMIT_CONTRACTION``."""

    @staticmethod
    def held_bands(parts):
        return [f for f in (parts.factor, parts.limit) if f.band is not None]

    @settings(max_examples=12, deadline=None)
    @given(
        st.sampled_from(["uniform-2", "uniform-4", "cvt-16", "cvt-32"]),
        st.lists(st.floats(-10.0, 0.0), min_size=1, max_size=6, unique=True),
        st.integers(1, 2),
    )
    def test_any_eps_order_meets_the_target_and_matches_a_fresh_factor(self, name, exponents, example):
        kind, n = name.split("-")
        m = mesh.generate_uniform_squares(int(n)) if kind == "uniform" else mesh.generate_cvt(int(n), seed=3)
        d = cli.discretize(m, verify.example_solution(example), first_eps=10.0 ** exponents[0])
        for eps in 10.0 ** np.array(exponents):
            sol = d.solve(eps)
            assert sol.residual <= system.RESIDUAL_TARGET
            assert len(self.held_bands(d.free_parts)) == 1
            if sol.diagnostics["factor_eps"] == 0.0:
                assert d.reduced(eps).rho <= system.LIMIT_CONTRACTION
            own = solve(fresh(d.reduced(eps))).values
            assert np.max(np.abs(sol.values - own)) <= 1e-10 * np.max(np.abs(own))
        d.free_parts.release()
        assert self.held_bands(d.free_parts) == []

    def test_limit_study_never_lays_out_the_full_band(self, monkeypatch):
        laid_out, real_layout = [], system._band_layout
        discretized, real_discretize = [], cli.discretize
        monkeypatch.setattr(system, "_band_layout", lambda mat: laid_out.append(mat) or real_layout(mat))
        monkeypatch.setattr(cli, "discretize", lambda *a, **k: discretized.append(real_discretize(*a, **k))
                            or discretized[-1])
        cfg = cli.StudyConfig(example=2, eps=[1e-10], mesh_kind="cvt", sizes=[32, 64], seed=7, lloyd_iters=20)
        out = cli.run_study(cfg)
        assert not out.failures
        assert all(rec.solve["factor_eps"] == 0.0 and rec.solve["factor_beside"] for rec in out.report.records[1e-10])
        assert [id(mat) for mat in laid_out] == [id(d.free_parts.limit.pattern) for d in discretized]
        assert not any("layout" in vars(d.free_parts.factor) for d in discretized)

    def test_limit_band_is_narrower(self, cvt64):
        d = cli.discretize(cvt64, verify.example_solution(2))
        diag = d.solve(1e-10).diagnostics
        assert diag["factor_eps"] == 0.0 and diag["refine_steps"] == 0
        assert diag["bandwidth"] == d.free_parts.limit.kd < d.free_parts.factor.kd
        assert d.free_parts.limit.pattern.nnz < d.free_parts.hess.nnz
        assert np.array_equal(d.free_parts.limit.pattern.toarray(), d.free_parts.grad.toarray())

    def test_failed_limit_cholesky_falls_back_to_the_full_factor(self, cvt32, monkeypatch):
        d = cli.discretize(cvt32, verify.example_solution(1))
        real = system._dpbtrf
        # a non-positive pivot in the limit's band only
        monkeypatch.setattr(system, "_dpbtrf", lambda band: 1 if band is d.free_parts.limit.band else real(band))
        sol = d.solve(1e-8)
        assert sol.diagnostics["factor_eps"] == d.free_parts.factor.eps == 1e-8
        assert sol.residual <= system.RESIDUAL_TARGET
        assert d.free_parts.limit.band is d.free_parts.limit.eps is None
        assert np.array_equal(sol.values, solve(fresh(d.reduced(1e-8))).values)

    def test_aborted_limit_attempt_falls_back_to_the_full_factor(self, cvt32, monkeypatch):
        # the limit tried far outside its bound cannot meet the target
        monkeypatch.setattr(system, "LIMIT_CONTRACTION", math.inf)
        d = cli.discretize(cvt32, verify.example_solution(1))
        sol = d.solve(1.0)
        assert sol.diagnostics["factor_eps"] == d.free_parts.factor.eps == 1.0
        assert d.free_parts.limit.band is None

    def test_band_that_does_not_fit_is_refused(self, cvt32, monkeypatch):
        monkeypatch.setattr(system, "_available_bytes", lambda: 1000)
        d = cli.discretize(cvt32, verify.example_solution(1), first_eps=1e-10)
        for eps in (1e-10, 1.0):
            with pytest.raises(SolveError, match=r"the band needs \d+ bytes, more than the 1000 bytes available"):
                d.solve(eps)
            assert self.held_bands(d.free_parts) == []
            assert d.free_parts.factor.eps is d.free_parts.limit.eps is None

    def test_band_guard_fails_one_mesh_of_a_study(self, monkeypatch):
        # the available memory reads low while the second mesh is solved
        current, real_discretize = [], cli.discretize
        monkeypatch.setattr(cli, "discretize", lambda m, *a, **k: current.append(m.n_cells) or real_discretize(m, *a, **k))
        monkeypatch.setattr(system, "_available_bytes", lambda: 0 if current[-1] == 64 else None)
        cfg = cli.StudyConfig(example=1, eps=[1.0, 1e-10], mesh_kind="cvt", sizes=[32, 64, 128], seed=7, lloyd_iters=20)
        out = cli.run_study(cfg)
        assert [(f["mesh"], f["eps"]) for f in out.failures] == [("cvt-64", 1.0), ("cvt-64", 1e-10)]
        assert all("SolveError('the band needs" in f["error"] for f in out.failures)
        for recs in out.report.records.values():
            assert [rec.n_cells for rec in recs] == [32, 128]


class TestPositiveDefinite:
    def test_detects_spd(self, cvt32):
        msol = verify.example_solution(1)
        for eps in (1.0, 1e-3):
            *_, sys_ = pipeline(cvt32, eps, msol)
            ok, pivot = is_positive_definite(sys_)
            assert ok
            assert pivot > 0.0

    def test_detects_indefinite(self):
        sys_ = hand_built(sp.csr_matrix(np.diag([1.0, -2.0])), np.zeros(2))
        ok, smallest = is_positive_definite(sys_)
        assert not ok
        assert smallest == pytest.approx(-2.0)


class TestSolveDiagnostics:
    def test_backward_error_after_refinement_is_a_few_roundoffs(self):
        n = 30
        rng = np.random.default_rng(4)
        R = rng.standard_normal((n, n))
        diag = solve(hand_built(sp.csr_matrix(R @ R.T + n * np.eye(n)), rng.standard_normal(n))).diagnostics
        assert 0.0 <= diag["backward_error"] <= 10 * system.UNIT_ROUNDOFF

    def test_backward_error_and_floor_by_hand(self):
        # x = (1, 1) with a residual of (1e-12, 0) against b = A x + r
        mat = sp.csr_matrix(np.array([[2.0, -1.0], [-1.0, 3.0]]))
        x = np.array([1.0, 1.0])
        rhs = mat @ x + np.array([1e-12, 0.0])

        class ExactLU:
            def solve(self, r):
                return np.zeros_like(r)

        diag = {}
        system._refine(mat, rhs, x, ExactLU(), 1e-30, max_steps=0, accuracy=diag)
        # |A||x| = (3, 4); |b| = (1 + 1e-12, 2)
        assert diag["backward_error"] == pytest.approx(1e-12 / (3.0 + 1.0 + 1e-12), rel=1e-3)
        assert diag["residual_floor"] == pytest.approx(2.0**-53 * 5.0 / np.linalg.norm(rhs), rel=1e-14)

    def test_report_json_records_both(self, tmp_path):
        import json

        cfg = cli.StudyConfig(example=2, eps=[1e-3], mesh_kind="uniform", sizes=[2, 4], out_dir=str(tmp_path))
        _, report_path = cli.write_outputs(cli.run_study(cfg))
        for rec in json.loads(open(report_path).read())["records"]["0.001"]:
            assert 0.0 <= rec["backward_error"] < 1e-12
            assert 0.0 < rec["residual_floor"] < system.RESIDUAL_TARGET


def free_block(part, free):
    """Test-local free block of a full-size part."""
    return part[free][:, free]


class TestReduceOncePerMesh:
    def test_cached_restriction_gives_the_reduced_system(self, cvt32):
        # each eps's system against scipy's sum of the test-local full-size
        # parts, restricted after assembly
        d = cli.discretize(cvt32, verify.example_solution(1))
        free, parts = np.flatnonzero(d.dof_map.free), operator_parts(d)
        hess, grad = free_block(parts.hess, free), free_block(parts.grad, free)
        for eps in (1.0, 1e-3, 1e-10):
            rhs = eps**2 * d.rhs4 + d.rhs2
            a = d.reduced(eps)
            assert (a.matrix != eps**2 * hess + grad).nnz == 0
            assert np.array_equal(a.rhs, rhs[free])
            # exactly symmetric: both restricted parts are
            assert (a.matrix != a.matrix.T).nnz == 0

    def test_restricted_parts_are_the_symmetric_free_blocks(self, cvt32):
        d = cli.discretize(cvt32, verify.example_solution(1))
        free, parts = np.flatnonzero(d.dof_map.free), operator_parts(d)
        for part, restricted in ((parts.hess, d.free_parts.hess), (parts.grad, d.free_parts.grad)):
            full = part.toarray()[np.ix_(free, free)]
            assert np.array_equal(full, full.T)
            assert np.array_equal(restricted.toarray(), full)

    @pytest.mark.parametrize("eps", [1.0, 1e-3, 1e-10])
    def test_reduced_matrix_is_the_sparse_sum_of_todays_parts(self, cvt64, eps):
        # the axpy on the shared pattern against scipy's sum of the parts,
        # and of the test-local full-size parts restricted one at a time:
        # restricting before the assembly's sums changes no bit
        d = cli.discretize(cvt64, verify.example_solution(1))
        free = np.flatnonzero(d.dof_map.free)
        a = d.reduced(eps).matrix
        parts = operator_parts(d)
        for hess, grad in (
            (d.free_parts.hess, d.free_parts.grad),
            (free_block(parts.hess, free), free_block(parts.grad, free)),
        ):
            b = ((eps**2) * hess + grad).tocsr()
            assert np.array_equal(a.indptr, b.indptr)
            assert np.array_equal(a.indices, b.indices)
            assert np.array_equal(a.data, b.data)

    def test_long_double_residual_on_csr_is_the_csc_one(self, cvt64):
        # the reduced matrix is CSR and exactly symmetric; its long double
        # products are bit for bit those of the CSC matrix
        sys_ = cli.discretize(cvt64, verify.example_solution(1)).reduced(1e-3)
        assert sys_.matrix.format == "csr"
        x = solve(sys_).values[sys_.free_indices]
        rhs = sys_.rhs.astype(np.longdouble)
        csr, csc = sys_.matrix.astype(np.longdouble), sys_.matrix.tocsc().astype(np.longdouble)
        assert np.array_equal(rhs - csr @ x, rhs - csc @ x)

    def test_free_parts_share_their_index_arrays(self, cvt32):
        parts = cli.discretize(cvt32, verify.example_solution(1)).free_parts
        assert parts.hess.format == parts.grad.format == "csr"
        assert np.shares_memory(parts.hess.indices, parts.grad.indices)
        assert np.shares_memory(parts.hess.indptr, parts.grad.indptr)

    def test_discretization_keeps_no_full_size_matrix(self, cvt32):
        # the energy norm reads cell and edge arrays: no field of a
        # discretization, or of the data it holds, is an (n_dofs, n_dofs) matrix
        d = cli.discretize(cvt32, verify.example_solution(1))
        n = d.dof_map.n_dofs
        fields = [getattr(d, f.name) for f in dataclasses.fields(d)]
        fields += [getattr(v, f.name) for v in fields if dataclasses.is_dataclass(v) for f in dataclasses.fields(v)]
        assert not [v for v in fields if sp.issparse(v) and v.shape == (n, n)]
        assert sum(sp.issparse(v) for v in fields) == 3  # free hess and grad, and the jump operator

    @pytest.mark.parametrize("kind", ["cvt64", "cvt64-lloyd3", "uniform8"])
    def test_free_parts_are_symmetric_bit_for_bit(self, request, kind):
        m = {
            "cvt64": lambda: request.getfixturevalue("cvt64"),
            "cvt64-lloyd3": lambda: mesh.generate_cvt(64, seed=7, lloyd_iters=3),
            "uniform8": lambda: mesh.generate_uniform_squares(8),
        }[kind]()
        parts = cli.discretize(m, verify.example_solution(1)).free_parts
        for mat in (parts.hess, parts.grad):
            assert (mat != mat.T).nnz == 0
        assert np.shares_memory(parts.hess.indices, parts.grad.indices)
        assert np.shares_memory(parts.hess.indptr, parts.grad.indptr)

    def test_scatter_keys_do_not_wrap_past_46341_free_dofs(self, monkeypatch):
        # row * n_free overflows int32 above 46341 free DoFs, the index type
        # of scipy's COO: an edge entry in the last rows must land there
        d = cli.discretize(mesh.generate_uniform_squares(2), ZERO)
        extra = 50000
        dm = dataclasses.replace(
            d.dof_map, n_cells=d.dof_map.n_cells + extra, boundary=np.append(d.dof_map.boundary, np.zeros(extra, bool))
        )

        def last_rows(traces, keep, local, n):  # no own-side terms, edge terms in the last two rows only
            coupling = sp.csr_matrix(([1.0, 1.0, 2.0], ([n - 2, n - 1, n - 1], [n - 1, n - 2, n - 1])), shape=(n, n))
            return 0.0, coupling

        monkeypatch.setattr(system, "_edge_terms", last_rows)
        cell_forms = forms.build_local_forms(d.elements)
        parts = system.build_operator_parts(dm, cell_forms, forms.build_edge_stencils(d.mesh, d.elements))
        n = len(parts.free)
        assert n > 46341
        last = parts.hess[n - 2 :].tocoo()
        entries = sorted(zip(last.row + n - 2, last.col, last.data))
        assert entries == [(n - 2, n - 1, 1.0), (n - 1, n - 2, 1.0), (n - 1, n - 1, 2.0)]

    def test_parts_of_two_patterns_raise(self):
        # grad stores (0, 2) and (2, 0), which hess does not
        hess = np.array([[4.0, 1.0, 0.0], [1.0, 4.0, 1.0], [0.0, 1.0, 4.0]])
        grad = np.array([[2.0, 0.0, -1.0], [0.0, 2.0, 0.0], [-1.0, 0.0, 2.0]])
        dm = system.GlobalDofMap(n_vertices=3, n_edges=0, n_cells=0, boundary=np.zeros(3, dtype=bool))
        with pytest.raises(ValueError, match="one pattern"):
            system.restrict(sp.csr_matrix(hess), sp.csr_matrix(grad), dm)
        with pytest.raises(ValueError, match="one pattern"):
            system.restrict(sp.csc_matrix(grad), sp.csc_matrix(grad), dm)
        # on their union, with the zeros stored, the parts are accepted
        union = sp.csr_matrix(np.ones((3, 3)))
        parts = system.restrict(system._with_data(union, hess.ravel()), system._with_data(union, grad.ravel()), dm)
        assert np.shares_memory(parts.hess.indices, parts.grad.indices)
        eps = 0.5
        assert np.array_equal(system.combine(parts, np.ones(3), eps).matrix.toarray(), eps**2 * hess + grad)


def unique_scatter(dof_map, cell_forms, coupling, own=0.0):
    """Test-local oracle of the free parts' keys and data: the cell terms
    (the a-form plus the own-side blocks ``own``), then the coupling's
    entries, through one ``np.unique`` of all keys."""
    elements = cell_forms.elements
    keep = elements.dof_mask & dof_map.free[elements.dofs]
    pair = keep[:, :, None] & keep[:, None, :]
    n = int(np.count_nonzero(dof_map.free))
    local = (np.cumsum(dof_map.free, dtype=np.int64) - 1)[elements.dofs]
    edges = coupling.tocoo()
    keys = (local[:, :, None] * n + local[:, None, :])[pair]
    slots, index = np.unique(np.concatenate([keys, edges.row.astype(np.int64) * n + edges.col]), return_inverse=True)
    hess = np.bincount(index, weights=np.concatenate([(cell_forms.a + own)[pair], edges.data]))
    grad = np.bincount(index[: len(keys)], weights=cell_forms.b[pair], minlength=len(slots))
    return slots, hess, grad


class TestMergedScatter:
    @pytest.mark.parametrize("drop", [False, True])
    def test_parts_match_a_unique_oracle(self, cvt64, monkeypatch, drop):
        # with ``drop``, the cross edge terms lose every entry whose row +
        # column is a multiple of 3, among them keys that cells need: they
        # are inserted into the coupling's keys
        edge_terms, used = system._edge_terms, []

        def dropped(*args):
            own, mat = edge_terms(*args)
            mat = mat.tocoo()
            kept = (mat.row + mat.col) % 3 != 0 if drop else np.ones(mat.nnz, dtype=bool)
            used.append((own.copy(), sp.csr_matrix((mat.data[kept], (mat.row[kept], mat.col[kept])), shape=mat.shape)))
            return own, used[-1][1]  # the assembly may add the a-form to ``own`` in place

        monkeypatch.setattr(system, "_edge_terms", dropped)
        elements = projectors.build_elements(cvt64)
        dof_map, cell_forms = number_dofs(cvt64), forms.build_local_forms(elements)
        parts = system.build_operator_parts(dof_map, cell_forms, forms.build_edge_stencils(cvt64, elements))
        own, coupling = used[0]
        slots, hess, grad = unique_scatter(dof_map, cell_forms, coupling, own)
        n = parts.hess.shape[0]
        # no cross term pairs a cell's moment with itself: those keys are always inserted
        assert (parts.hess.nnz - coupling.nnz > cvt64.n_cells) == drop
        assert parts.hess.nnz - coupling.nnz >= cvt64.n_cells
        assert np.array_equal(np.repeat(np.arange(n, dtype=np.int64) * n, np.diff(parts.hess.indptr)) + parts.hess.indices, slots)
        assert np.array_equal(parts.hess.data, hess)
        assert np.array_equal(parts.grad.data, grad)


class TestSideSplit:
    @pytest.mark.parametrize("kind", ["cvt64", "uniform4", "voronoi64"])
    def test_free_parts_match_the_sparse_product_reference(self, request, kind):
        # the edge terms split by side against the reference: the coupling
        # K^T K + (j2 + j2^T) of the sparse J and A on the free columns,
        # merged with the cell blocks through one np.unique: the same
        # pattern, grad bit for bit and hess to a few roundings
        m = {
            "cvt64": lambda: request.getfixturevalue("cvt64"),
            "uniform4": lambda: mesh.generate_uniform_squares(4),
            "voronoi64": lambda: mesh.generate_cvt(64, seed=7, lloyd_iters=0),
        }[kind]()
        # a corner cell: two boundary edges, both sides of each its own
        assert np.bincount(m.edge_cells[m.boundary_edge, 0]).max() >= 2
        elements = projectors.build_elements(m)
        dof_map, cell_forms = number_dofs(m), forms.build_local_forms(elements)
        traces = forms.build_edge_stencils(m, elements)
        parts = system.build_operator_parts(dof_map, cell_forms, traces)
        free = np.flatnonzero(dof_map.free)
        jump, average = reference_operators(traces)
        coupling = reference_coupling(jump[:, free], average[:, free], traces.lam, traces.h)
        slots, hess, grad = unique_scatter(dof_map, cell_forms, coupling)
        n = len(free)
        assert np.array_equal(parts.hess.indptr, np.searchsorted(slots, np.arange(n + 1) * n))
        assert np.array_equal(parts.hess.indices, slots % n)
        assert np.array_equal(parts.grad.data, grad)
        assert np.max(np.abs(parts.hess.data - hess)) <= 1e-14 * np.max(np.abs(hess))


def blas_threads():
    """scipy's OpenBLAS thread count, or None where it cannot be read."""
    return system._BLAS_THREADS[0]()


@pytest.fixture
def two_blas_threads():
    """scipy's OpenBLAS set to two threads for the test, then restored."""
    caller = blas_threads()
    if caller is None:
        pytest.skip("scipy's OpenBLAS exports no thread-count getter")
    system._BLAS_THREADS[1](2)
    yield 2
    system._BLAS_THREADS[1](caller)


class TestThreadsByBandWidth:
    @staticmethod
    def recording_dpbtrf(monkeypatch):
        """Wrap ``system._dpbtrf`` to record the BLAS thread count at each call."""
        seen, real = [], system._dpbtrf

        def recording(band):
            seen.append(blas_threads())
            return real(band)

        monkeypatch.setattr(system, "_dpbtrf", recording)
        return seen

    @staticmethod
    def sweep(d, caller):
        """Solve ``d`` at every eps of SWEEP, checking that the caller's BLAS
        count is back after each solve; the diagnostics of the solves."""
        diagnostics = []
        for eps in SWEEP:
            diagnostics.append(d.solve(eps).diagnostics)
            assert blas_threads() == caller
        return diagnostics

    def test_narrow_band_factors_on_one_thread(self, cvt32, monkeypatch, two_blas_threads):
        seen = self.recording_dpbtrf(monkeypatch)
        kd = cli.discretize(cvt32, verify.example_solution(1)).free_parts.factor.kd
        monkeypatch.setattr(system, "ONE_THREAD_KD", kd)  # the widest band that factors beside the set-up
        d = cli.discretize(cvt32, verify.example_solution(1), first_eps=SWEEP[0])
        assert seen == [1] and blas_threads() == two_blas_threads
        diagnostics = self.sweep(d, two_blas_threads)
        made = [diag for diag in diagnostics if diag["factor_s"] is not None]
        assert made[0] is diagnostics[0] and made[0]["factor_beside"] is True
        assert not any(diag["factor_beside"] for diag in made[1:])
        assert len(seen) == len(made) >= 2 and set(seen) == {1}
        for diag in diagnostics:
            assert diag["factor_threads"] == (None if diag["factor_s"] is None else 1)

    def test_wide_band_factors_in_the_first_solve_with_the_callers_pool(self, cvt32, monkeypatch, two_blas_threads):
        seen = self.recording_dpbtrf(monkeypatch)
        monkeypatch.setattr(system, "ONE_THREAD_KD", 0)
        threads = threading.active_count()
        d = cli.discretize(cvt32, verify.example_solution(1), first_eps=SWEEP[0])
        assert threading.active_count() == threads and seen == []
        assert d.free_parts.factor.band is None and d.free_parts.limit.band is None
        diagnostics = self.sweep(d, two_blas_threads)
        made = [diag for diag in diagnostics if diag["factor_s"] is not None]
        assert made[0] is diagnostics[0] and not any(diag["factor_beside"] for diag in diagnostics)
        assert len(seen) == len(made) >= 2 and set(seen) == {two_blas_threads}
        assert all(diag["factor_threads"] == two_blas_threads for diag in made)


class TestFactorBeside:
    @staticmethod
    def counting_dpbtrf(monkeypatch):
        calls, real = [], system._dpbtrf

        def counting(band):
            calls.append(band.shape)
            return real(band)

        monkeypatch.setattr(system, "_dpbtrf", counting)
        return calls

    @pytest.mark.parametrize("band", ["spd", "indefinite"])
    def test_pointer_dpbtrf_is_scipys(self, band):
        from scipy.linalg import lapack

        rng = np.random.default_rng(11)
        n, kd = 40, 5
        ab = np.asfortranarray(np.vstack([np.full((1, n), 4.0 * kd), rng.uniform(-1.0, 1.0, (kd, n))]))
        if band == "indefinite":
            ab[0, 17] = -1.0
        ours = ab.copy(order="F")
        info = system._dpbtrf(ours)
        reference, reference_info = lapack.dpbtrf(ab, lower=1)
        assert info == reference_info == (0 if band == "spd" else 18)
        assert np.array_equal(ours, reference)

    def test_study_solves_first_from_the_pending_factor(self, monkeypatch):
        calls = self.counting_dpbtrf(monkeypatch)
        threads, blas = threading.active_count(), blas_threads()
        cfg = cli.StudyConfig(example=1, eps=[1e-2], mesh_kind="cvt", sizes=[32, 64], seed=7, lloyd_iters=20)
        out = cli.run_study(cfg)
        assert not out.failures
        assert threading.active_count() == threads and blas_threads() == blas
        # one factor per mesh, made beside the set-up and used by the first solve
        assert len(calls) == 2
        for rec, m in zip(out.report.records[1e-2], (32, 64)):
            assert rec.solve["factor_eps"] == 1e-2 and rec.solve["factor_beside"] is True
            assert rec.solve["factor_s"] > 0.0
            d = cli.discretize(mesh.generate_cvt(m, seed=7, lloyd_iters=20), verify.example_solution(1))
            sync = d.solve(1e-2)
            assert sync.diagnostics["factor_beside"] is False
            assert rec.solve["refine_steps"] == sync.diagnostics["refine_steps"]
            assert rec.e_total == pytest.approx(d.error(sync).e_total, rel=1e-10)

    def test_factor_made_beside_is_not_factored_again(self, cvt32, monkeypatch):
        calls = self.counting_dpbtrf(monkeypatch)
        d = cli.discretize(cvt32, verify.example_solution(1), first_eps=1e-3)
        assert len(calls) == 1  # joined before the set-up returns
        sol = d.solve(1e-3)
        assert len(calls) == 1
        assert sol.diagnostics["factor_eps"] == 1e-3 and sol.diagnostics["factor_beside"] is True
        assert sol.residual <= system.RESIDUAL_TARGET
        # a second solve at the same eps refines from the held factor
        again = d.solve(1e-3)
        assert len(calls) == 1 and again.diagnostics["factor_s"] is None
        assert again.diagnostics["factor_beside"] is False

    def test_failed_first_factor_fails_only_its_eps(self, monkeypatch):
        # the first eps's Cholesky fails beside the set-up and again in its
        # solve; the study records that eps's SolveError, and the next eps solves
        lanes, real = [], system._dpbtrf

        def failing_first_eps(band):
            lanes.append(threading.current_thread())
            return 1 if len(lanes) <= 2 else real(band)

        threads, blas = threading.active_count(), blas_threads()
        monkeypatch.setattr(system, "_dpbtrf", failing_first_eps)
        cfg = cli.StudyConfig(example=1, eps=[1e-2, 1e-3], mesh_kind="cvt", sizes=[32], lloyd_iters=20)
        out = cli.run_study(cfg)
        (failure,) = out.failures
        assert failure["eps"] == 1e-2 and "not positive definite" in failure["error"]
        (rec,) = out.report.records[1e-3]
        assert rec.solve["factor_eps"] == 1e-3 and rec.solve["factor_beside"] is False
        assert rec.solve["residual"] <= system.RESIDUAL_TARGET
        assert len(lanes) == 3 and lanes[0] is not threading.main_thread() and not lanes[0].is_alive()
        assert lanes[1:] == [threading.main_thread()] * 2
        assert threading.active_count() == threads and blas_threads() == blas

    def test_first_factor_failure_joins_before_it_propagates(self, cvt32, monkeypatch):
        # an exception raised in the factor's own call comes out of the set-up,
        # with the lane joined and the BLAS pin undone
        pinned = []

        def failing_dpbtrf(band):
            pinned.append(blas_threads())
            raise RuntimeError("dpbtrf failed")

        threads, blas = threading.active_count(), blas_threads()
        monkeypatch.setattr(system, "_dpbtrf", failing_dpbtrf)
        with pytest.raises(RuntimeError, match="dpbtrf failed"):
            cli.discretize(cvt32, verify.example_solution(1), first_eps=1.0)
        assert pinned == [None if blas is None else 1]
        assert threading.active_count() == threads and blas_threads() == blas

    def test_zero_first_load_leaves_the_next_eps_solving(self, cvt32, monkeypatch):
        calls = self.counting_dpbtrf(monkeypatch)
        d = cli.discretize(cvt32, ZERO, first_eps=1.0)
        first = d.solve(1.0)
        assert first.residual == 0.0 and first.diagnostics["factor_s"] is None and len(calls) == 1
        rhs = system.load_vector(d.elements, lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y))
        sol = solve(system.combine(d.free_parts, rhs, 1e-1))
        assert sol.diagnostics["factor_eps"] == 1e-1 and sol.diagnostics["factor_beside"] is False
        assert sol.residual <= system.RESIDUAL_TARGET and len(calls) == 2

    @staticmethod
    def assert_study_records_the_failure(threads, blas):
        # a study records the failure and leaves no thread and no pin behind
        out = cli.run_study(cli.StudyConfig(example=1, eps=[1.0], mesh_kind="cvt", sizes=[32], lloyd_iters=20))
        assert out.failures and out.failures[0]["eps"] is None
        assert threading.active_count() == threads and blas_threads() == blas

    def test_set_up_failure_joins_before_it_propagates(self, cvt32, monkeypatch):
        # the loads fail on their lane, which runs beside the assembly, unpinned and not a daemon
        lane = []

        def failing_load_vector(elements, f):
            lane.append((threading.current_thread(), blas_threads()))
            raise RuntimeError("loads failed")

        threads, blas = threading.active_count(), blas_threads()
        calls = self.counting_dpbtrf(monkeypatch)
        monkeypatch.setattr(system, "load_vector", failing_load_vector)
        with pytest.raises(RuntimeError, match="loads failed"):
            cli.discretize(cvt32, verify.example_solution(1), first_eps=1.0)
        ((thread, pinned),) = lane
        assert thread is not threading.main_thread() and not thread.daemon and not thread.is_alive()
        assert pinned == blas and calls == []
        assert threading.active_count() == threads and blas_threads() == blas
        self.assert_study_records_the_failure(threads, blas)

    def test_assembly_failure_waits_for_the_lane(self, cvt32, monkeypatch):
        lane, load_vector = [], system.load_vector

        def slow_load_vector(elements, f):
            lane.append(threading.current_thread())
            time.sleep(0.2)  # still running when the assembly fails
            return load_vector(elements, f)

        def failing_operator_parts(*args):
            raise RuntimeError("assembly failed")

        threads = threading.active_count()
        monkeypatch.setattr(system, "load_vector", slow_load_vector)
        monkeypatch.setattr(system, "build_operator_parts", failing_operator_parts)
        with pytest.raises(RuntimeError, match="assembly failed"):
            cli.discretize(cvt32, verify.example_solution(1), first_eps=1.0)
        assert len(lane) == 2 and not lane[0].is_alive() and threading.active_count() == threads

    def test_error_data_failure_joins_the_factor_before_it_propagates(self, cvt32, monkeypatch):
        lanes, real = [], system._dpbtrf

        def recording_dpbtrf(band):
            lanes.append((threading.current_thread(), blas_threads()))
            return real(band)

        def failing_error_data(*args):
            raise RuntimeError("error data failed")

        threads, blas = threading.active_count(), blas_threads()
        monkeypatch.setattr(system, "_dpbtrf", recording_dpbtrf)
        monkeypatch.setattr(verify, "build_error_data", failing_error_data)
        with pytest.raises(RuntimeError, match="error data failed"):
            cli.discretize(cvt32, verify.example_solution(1), first_eps=1.0)
        ((thread, pinned),) = lanes
        assert thread is not threading.main_thread() and not thread.is_alive()
        assert pinned == (None if blas is None else 1)
        assert threading.active_count() == threads and blas_threads() == blas
        self.assert_study_records_the_failure(threads, blas)
