import numpy as np
import pytest
import scipy.sparse as sp

from ipvem import cli, forms, mesh, projectors, system, verify
from ipvem.forms import EdgeStencil
from ipvem.system import (
    SolveError,
    SparseSystem,
    cell_dof_indices,
    export_matrix,
    is_positive_definite,
    number_dofs,
    solve,
)

# u = 0: zero forcing
ZERO = verify.ManufacturedSolution("zero", lambda i, j, x, y: np.zeros_like(np.asarray(x, dtype=float)))


def pipeline(m, eps, msol=ZERO, penalty_a=2.0):
    d = cli.discretize(m, msol, penalty_a)
    return d, d.reduced(eps)


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
        assert np.flatnonzero(dm.free).tolist() == [dm.moment_dof(0)]

    def test_cvt_census(self, cvt32):
        dm = number_dofs(cvt32)
        assert dm.n_dofs == cvt32.n_vertices + cvt32.n_edges + cvt32.n_cells
        n_bv = int(np.sum(cvt32.boundary_vertex))
        n_be = int(np.sum(cvt32.boundary_edge))
        assert int(np.sum(dm.boundary)) == n_bv + n_be
        # moments are never boundary DoFs
        assert not np.any(dm.boundary[dm.moment_dof(0) :])

    def test_cell_indices_cover_all_dofs(self, cvt32):
        dm = number_dofs(cvt32)
        seen = np.zeros(dm.n_dofs, dtype=bool)
        for c in range(cvt32.n_cells):
            seen[cell_dof_indices(dm, cvt32, c)] = True
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
        lf = forms.build_local_forms(m, d.elements)
        zeroed = [
            EdgeStencil(s.edge_id, s.lam, np.zeros_like(s.block), np.zeros_like(s.j1_block), s.cells)
            for s in forms.build_edge_stencils(m, d.elements)
        ]
        parts = system.build_operator_parts(m, d.dof_map, lf, zeroed)
        sys_zero = system.reduce_system(parts.hess, parts.grad, d.rhs2, 0.0, d.dof_map)
        b_full = np.zeros((d.dof_map.n_dofs, d.dof_map.n_dofs))
        for cid, x in enumerate(lf):
            idx = cell_dof_indices(d.dof_map, m, cid)
            b_full[np.ix_(idx, idx)] += x.b_matrix
        free = np.flatnonzero(d.dof_map.free)
        expected = b_full[np.ix_(free, free)]
        diff = sys_zero.matrix.toarray() - 0.5 * (expected + expected.T)
        assert np.max(np.abs(diff)) < 1e-14 * np.max(np.abs(expected))

    def test_dimension_mismatch_aborts(self):
        m = mesh.generate_uniform_squares(2)
        elements = projectors.build_elements(m)
        lf = forms.build_local_forms(m, elements)
        lf[0].a_matrix = np.zeros((3, 3))
        stencils = forms.build_edge_stencils(m, elements)
        with pytest.raises(ValueError):
            system.build_operator_parts(m, number_dofs(m), lf, stencils)


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
        dm = number_dofs(mesh.generate_uniform_squares(1))
        sys_ = SparseSystem(
            matrix=mat, rhs=rhs, eps=1.0, dof_map=dm, free_indices=np.arange(n)
        )
        # the full-size scatter uses dof_map sizes; bypass by direct check
        x, residual, _ = system._refine(mat, rhs, sp.linalg.spsolve(mat.tocsc(), rhs), sp.linalg.splu(mat.tocsc()), 1e-10)
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
        assert residual == np.linalg.norm(rhs - mat @ x) / np.linalg.norm(rhs) == 0.0625

    def test_cg_fallback_reaches_target(self):
        rng = np.random.default_rng(2)
        n = 40
        R = rng.standard_normal((n, n))
        mat = sp.csr_matrix(R @ R.T + n * np.eye(n))
        rhs = rng.standard_normal(n)
        x, residual = system._cg_solve(mat, rhs, 1e-10)
        assert residual <= 1e-10

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
        # permute edge processing order (cells are keyed by id, edges are not)
        lf = forms.build_local_forms(cvt32, d.elements)
        stencils = forms.build_edge_stencils(cvt32, d.elements)
        rng = np.random.default_rng(3)
        order = rng.permutation(len(stencils))
        parts = system.build_operator_parts(cvt32, d.dof_map, lf, [stencils[i] for i in order])
        rhs = eps**2 * d.rhs4 + d.rhs2
        sol_b = solve(system.reduce_system(parts.hess, parts.grad, rhs, eps, d.dof_map))
        scale = np.max(np.abs(sol_a.values))
        assert np.max(np.abs(sol_a.values - sol_b.values)) <= 1e-9 * scale

    def test_linearity_in_forcing(self, cvt32):
        eps = 1e-1
        d = cli.discretize(cvt32, verify.example_solution(1))

        def solve_for(f):
            rhs = system.load_vector(cvt32, d.dof_map, [forms.local_load(el, f) for el in d.elements])
            return solve(system.reduce_system(d.parts.hess, d.parts.grad, rhs, eps, d.dof_map)).values

        sols = [
            solve_for(f)
            for f in (lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y), lambda x, y: x * y)
        ]
        combined = solve_for(lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y) + x * y)
        scale = np.max(np.abs(combined))
        assert np.max(np.abs(combined - sols[0] - sols[1])) <= 1e-9 * scale

    def test_residual_target_enforced(self):
        mat = sp.csr_matrix(np.array([[1.0, 0.0], [0.0, 0.0]]))
        dm = number_dofs(mesh.generate_uniform_squares(1))
        sys_ = SparseSystem(
            matrix=mat, rhs=np.array([1.0, 1.0]), eps=1.0, dof_map=dm, free_indices=np.arange(2)
        )
        with pytest.raises(SolveError):
            solve(sys_)


class TestPositiveDefinite:
    def test_detects_spd(self, cvt32):
        msol = verify.example_solution(1)
        for eps in (1.0, 1e-3):
            *_, sys_ = pipeline(cvt32, eps, msol)
            ok, pivot = is_positive_definite(sys_)
            assert ok
            assert pivot > 0.0

    def test_detects_indefinite(self):
        mat = sp.csr_matrix(np.diag([1.0, -2.0]))
        dm = number_dofs(mesh.generate_uniform_squares(1))
        sys_ = SparseSystem(
            matrix=mat, rhs=np.zeros(2), eps=1.0, dof_map=dm, free_indices=np.arange(2)
        )
        ok, smallest = is_positive_definite(sys_)
        assert not ok
        assert smallest == pytest.approx(-2.0)


class TestExportMatrix:
    def test_round_trip(self, tmp_path):
        m = mesh.generate_uniform_squares(2)
        msol = verify.example_solution(2)
        *_, sys_ = pipeline(m, 0.5, msol)
        path = tmp_path / "matrix.txt"
        export_matrix(sys_, path)
        lines = path.read_text().splitlines()
        nr, nc, nnz = (int(v) for v in lines[0].split())
        assert (nr, nc) == sys_.matrix.shape
        assert nnz == sys_.matrix.nnz
        rebuilt = np.zeros((nr, nc))
        for line in lines[1:]:
            r, c, v = line.split()
            rebuilt[int(r), int(c)] = float(v)
        assert np.array_equal(rebuilt, sys_.matrix.toarray())
