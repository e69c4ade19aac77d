import json

import numpy as np
import pytest

from ipvem import cli, mesh, projectors, system, verify
from ipvem.cli import (
    EXIT_BAD_CONFIG,
    EXIT_OK,
    ConfigError,
    StudyConfig,
    export_solution_fields,
    load_config,
    main,
    run_study,
    write_outputs,
)


def tiny_config(**overrides):
    base = dict(
        example=2,
        eps=[1e-2],
        mesh_kind="uniform",
        sizes=[2, 4],
        out_dir="unused",
    )
    base.update(overrides)
    return StudyConfig(**base)


class TestConfigValidation:
    def test_empty_eps_rejected(self):
        with pytest.raises(ConfigError):
            tiny_config(eps=[]).validate()

    def test_eps_out_of_range(self):
        for bad in (0.0, -1e-3, 1.5):
            with pytest.raises(ConfigError):
                tiny_config(eps=[bad]).validate()

    def test_sizes_must_increase(self):
        with pytest.raises(ConfigError):
            tiny_config(sizes=[8, 8]).validate()

    def test_penalty_constant(self):
        with pytest.raises(ConfigError):
            tiny_config(penalty_a=1.0).validate()

    def test_order_must_be_two(self, tmp_path):
        # the order is fixed at k = 2 and the cell quadrature order at
        # basis.QUAD_ORDER, so neither they nor a projector variant is a
        # config key
        for key, value in (("k", 2), ("k", 3), ("gradient_projector", "h1"), ("quad_order", 8)):
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps({"example": 1, key: value}))
            with pytest.raises(ConfigError, match="unknown config keys"):
                load_config(str(path))

    def test_negative_lloyd_iters_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="lloyd_iters"):
            tiny_config(lloyd_iters=-3).validate()
        argv = ["study", "--lloyd-iters", "-3", "--mesh-kind", "uniform", "--sizes", "2", "--out-dir", str(tmp_path)]
        assert main(argv) == EXIT_BAD_CONFIG

    def test_negative_seed_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="seed"):
            tiny_config(seed=-1).validate()
        argv = ["study", "--seed", "-1", "--sizes", "8", "--out-dir", str(tmp_path)]
        assert main(argv) == EXIT_BAD_CONFIG

    def test_non_integer_example_rejected(self, tmp_path):
        # int(1.7) is 1: a fractional example must not run example 1
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"example": 1.7, "mesh_kind": "uniform", "sizes": [2]}))
        with pytest.raises(ConfigError, match="example"):
            load_config(str(path))

    def test_unknown_config_key(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"exmple": 1}))
        with pytest.raises(ConfigError):
            load_config(str(path))

    def test_file_plus_overrides(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"example": 2, "eps": [0.5], "mesh_kind": "uniform", "sizes": [2, 4]}))
        cfg = load_config(str(path), {"seed": 11, "eps": None})
        assert cfg.example == 2
        assert cfg.seed == 11
        assert cfg.eps == [0.5]


class TestRunStudy:
    def test_csv_schema_and_rows(self, tmp_path):
        out = run_study(tiny_config())
        csv_path, report_path = write_outputs(out, str(tmp_path))
        lines = open(csv_path).read().splitlines()
        assert lines[0] == cli.CSV_HEADER
        assert len(lines) == 1 + 2  # one row per (mesh, eps)
        for line in lines[1:]:
            fields = line.split(",")
            assert len(fields) == len(cli.CSV_HEADER.split(","))
            assert all(np.isfinite(float(v)) for v in fields[1:])
        report = json.loads(open(report_path).read())
        assert "records" in report and "rates_vs_h" in report

    def test_report_has_solve_diagnostics_and_stage_seconds(self, tmp_path, caplog):
        with caplog.at_level("INFO", logger="ipvem.cli"):
            out = run_study(tiny_config(eps=[1e-2, 1e-6]))
        csv_path, report_path = write_outputs(out, str(tmp_path))
        report = json.loads(open(report_path).read())
        # uniform-2 has 9 free DoFs and uniform-4 has 49 (interior vertices,
        # interior edges and cell moments)
        for recs in report["records"].values():
            assert [rec["n_free"] for rec in recs] == [9, 49]
            for rec in recs:
                assert rec["solve_method"] in ("splu", "cg")
                assert 0.0 <= rec["solve_residual"] <= system.RESIDUAL_TARGET
                assert rec["refine_steps"] >= 0
                assert rec["n_free"] <= rec["nnz"] <= rec["n_free"] ** 2
        stages = ["mesh", "elements", "forms_stencils", "operator_parts", "loads", "error_data"]
        assert [entry["label"] for entry in report["meshes"]] == ["uniform-2", "uniform-4"]
        assert [entry["n_cells"] for entry in report["meshes"]] == [4, 16]
        for entry in report["meshes"]:
            assert list(entry["seconds"]) == stages
            assert all(t >= 0.0 for t in entry["seconds"].values())
        mesh_lines = [r.getMessage() for r in caplog.records if r.name == "ipvem.cli"]
        assert len(mesh_lines) == 2
        for line, label, n_cells, n_free in zip(mesh_lines, ["uniform-2", "uniform-4"], [4, 16], [9, 49]):
            assert line.startswith(f"{label}: {n_cells} cells, {n_free} free DoFs, set-up mesh ")
            assert all(f" {stage} " in line for stage in stages)
        # the CSV keeps its columns
        assert open(csv_path).readline().strip() == cli.CSV_HEADER

    def test_final_discretization_reproduces_last_row(self):
        out = run_study(tiny_config(eps=[1e-1, 1e-4]))
        final = out.final
        assert final.mesh.n_cells == 16
        rec = final.error(final.solve(1e-4))
        last = out.rows[-1]
        assert (rec.eps, rec.n_cells, rec.h_max, rec.e_total, rec.h2_part, rec.h1_part, rec.j1_energy) == (
            last["eps"], last["n_cells"], last["h_max"], last["E_I"], last["H2_part"], last["H1_part"],
            last["J1_energy"],
        )
        assert rec.solve == out.report.records[1e-4][-1].solve

    def test_rerun_bit_identical_except_walltime(self, tmp_path):
        cfg = tiny_config(mesh_kind="cvt", sizes=[8, 16], eps=[1e-1, 1e-3], seed=5, lloyd_iters=20)
        out1 = run_study(cfg)
        out2 = run_study(tiny_config(mesh_kind="cvt", sizes=[8, 16], eps=[1e-1, 1e-3], seed=5, lloyd_iters=20))
        p1 = write_outputs(out1, str(tmp_path / "a"))[0]
        p2 = write_outputs(out2, str(tmp_path / "b"))[0]
        rows1 = [line.rsplit(",", 1)[0] for line in open(p1)]
        rows2 = [line.rsplit(",", 1)[0] for line in open(p2)]
        assert rows1 == rows2

    def test_failures_recorded_not_raised(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("not a mesh\n")
        cfg = tiny_config(mesh_kind="files", mesh_files=[str(bad)], sizes=[])
        out = run_study(cfg)
        assert out.failures
        assert out.exit_code == cli.EXIT_RUN_FAILED

    def test_mesh_files_kind(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text(mesh.export_mesh(mesh.generate_uniform_squares(2)))
        cfg = tiny_config(mesh_kind="files", mesh_files=[str(path)], sizes=[])
        out = run_study(cfg)
        assert not out.failures
        assert out.rows[0]["n_cells"] == 4


class TestMain:
    def test_exit_ok(self, tmp_path):
        code = main(
            [
                "study",
                "--example",
                "2",
                "--eps",
                "0.01",
                "--mesh-kind",
                "uniform",
                "--sizes",
                "2,4",
                "--out-dir",
                str(tmp_path),
            ]
        )
        assert code == EXIT_OK
        assert (tmp_path / "study.csv").exists()

    def test_exit_bad_config(self, tmp_path):
        code = main(
            ["study", "--example", "9", "--mesh-kind", "uniform", "--sizes", "2", "--out-dir", str(tmp_path)]
        )
        assert code == EXIT_BAD_CONFIG

    def test_genmesh_round_trip(self, tmp_path):
        out = tmp_path / "mesh.txt"
        code = main(["genmesh", "--kind", "cvt", "--cells", "16", "--seed", "3", "--lloyd-iters", "10", "-o", str(out)])
        assert code == EXIT_OK
        m = mesh.import_mesh(out.read_text())
        assert m.n_cells == 16


def parse_vtk_counts(text):
    lines = text.splitlines()
    n_points = n_cells = None
    scalars = []
    for line in lines:
        if line.startswith("POINTS"):
            n_points = int(line.split()[1])
        elif line.startswith("CELLS "):
            n_cells = int(line.split()[1])
        elif line.startswith("SCALARS"):
            scalars.append(line.split()[1])
    return n_points, n_cells, scalars


class TestExportSolutionFields:
    def test_zero_solution_all_zero_samples(self, tmp_path):
        m = mesh.generate_uniform_squares(2)
        elements = projectors.build_elements(m)
        dof_map = system.number_dofs(m)
        sol = system.DiscreteSolution(values=np.zeros(dof_map.n_dofs), eps=1.0, residual=0.0)
        path = tmp_path / "zero.vtk"
        export_solution_fields(m, dof_map, elements, sol, str(path))
        text = path.read_text()
        n_points, n_cells, scalars = parse_vtk_counts(text)
        assert n_cells == 4
        assert n_points == sum(len(c) + 1 for c in m.cells)
        assert scalars == ["u_h", "u_h_centroid"]
        body = text.split("LOOKUP_TABLE default\n")[1].splitlines()[:n_points]
        assert all(float(v) == 0.0 for v in body)

    def test_deep_singular_field_matches_exact_solution(self, cvt_sequence, tmp_path):
        # sampled discrete field tracks the exact solution to within a few
        # multiples of the energy error (sanity heuristic)
        msol = verify.example_solution(2)
        d = cli.discretize(cvt_sequence[256], msol)
        sol = d.solve(1e-10)
        rec = d.error(sol)
        path = tmp_path / "field.vtk"
        export_solution_fields(d.mesh, d.dof_map, d.elements, sol, str(path), msol=msol)
        text = path.read_text()
        n_points, n_cells, scalars = parse_vtk_counts(text)
        assert scalars == ["u_h", "u_exact", "u_h_centroid", "u_exact_centroid"]
        blocks = text.split("LOOKUP_TABLE default\n")
        uh = np.array([float(v) for v in blocks[1].splitlines()[:n_points]])
        ue = np.array([float(v) for v in blocks[2].splitlines()[:n_points]])
        assert np.max(np.abs(uh - ue)) <= 10.0 * rec.e_total
