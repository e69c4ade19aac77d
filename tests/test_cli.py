import json
import os
import subprocess
import sys
from pathlib import Path

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

    def test_duplicate_eps_rejected(self, capsys):
        # a repeated eps would fit its rates on each mesh twice
        with pytest.raises(ConfigError, match="distinct"):
            tiny_config(eps=[1e-3, 1e-2, 1e-3]).validate()
        argv = ["study", "--example", "1", "--eps", "1e-3", "--eps", "1e-3", "--mesh-kind", "uniform", "--sizes", "2,4"]
        assert main(argv) == EXIT_BAD_CONFIG
        assert "distinct" in capsys.readouterr().err

    def test_sizes_must_increase(self):
        with pytest.raises(ConfigError):
            tiny_config(sizes=[8, 8]).validate()

    @pytest.mark.parametrize("kind, sizes", [("cvt", "0,4"), ("cvt", "1,4"), ("uniform", "0,2")])
    def test_size_below_the_generator_minimum_exits_bad_config(self, tmp_path, capsys, kind, sizes):
        # rejected before any mesh is built, so no output is written
        out = tmp_path / "out"
        assert main(["study", "--mesh-kind", kind, "--sizes", sizes, "--out-dir", str(out)]) == EXIT_BAD_CONFIG
        assert f"{kind} sizes must be at least" in capsys.readouterr().err and not out.exists()

    def test_penalty_constant(self):
        for penalty_a in (1.0, np.inf):
            with pytest.raises(ConfigError):
                tiny_config(penalty_a=penalty_a).validate()

    def test_order_must_be_two(self, tmp_path):
        # the order is fixed at k = 2, the cell quadrature order at
        # basis.QUAD_ORDER and the error at the energy norm, so neither they
        # nor a projector variant is a config key
        for key, value in (
            ("k", 2), ("k", 3), ("gradient_projector", "h1"), ("quad_order", 8), ("error_norm", "projection")
        ):
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps({"example": 1, key: value}))
            with pytest.raises(ConfigError, match="unknown config keys"):
                load_config(str(path))

    def test_error_norm_flag_rejected(self, tmp_path, capsys):
        # argparse itself refuses the removed flag, with the bad-config exit code
        argv = ["study", "--error-norm", "projection", "--mesh-kind", "uniform", "--sizes", "2"]
        with pytest.raises(SystemExit) as exit_info:
            main(argv + ["--out-dir", str(tmp_path / "out")])
        assert exit_info.value.code == EXIT_BAD_CONFIG
        assert "--error-norm" in capsys.readouterr().err and not (tmp_path / "out").exists()

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

    @pytest.mark.parametrize(
        "payload, message",
        [
            ([1, 2], "JSON object"),
            ({"eps": "abc"}, "eps must be a list of numbers"),
            ({"eps": 0.5}, "eps must be a list of numbers"),
            ({"sizes": [32, "x"]}, "sizes must be a list of integers"),
            ({"mesh_kind": "files", "mesh_files": ["a.txt", 3]}, "mesh_files must be a list of strings"),
            ({"penalty_a": "3"}, "penalty constant must be a number"),
        ],
        ids=["top-level-list", "eps-string", "eps-scalar", "sizes-string-entry", "mesh-files-number", "penalty-string"],
    )
    def test_malformed_config_file_exits_bad_config(self, tmp_path, capsys, payload, message):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ConfigError, match=message):
            load_config(str(path))
        assert main(["study", "--config", str(path), "--out-dir", str(tmp_path)]) == EXIT_BAD_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and message in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--sizes", ""], "sizes must be comma-separated integers"),
            (["--out-dir", ""], "out_dir must be a non-empty string"),
        ],
        ids=["empty-sizes", "empty-out-dir"],
    )
    def test_empty_study_flag_exits_bad_config(self, tmp_path, capsys, monkeypatch, argv, message):
        monkeypatch.chdir(tmp_path)
        built = []
        monkeypatch.setattr(mesh, "generate_uniform_squares", lambda n: built.append(n))
        argv = ["study", "--mesh-kind", "uniform", "--eps", "1", "--sizes", "2", "--out-dir", "out", *argv]
        assert main(argv) == EXIT_BAD_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and message in err
        assert len(err.strip().splitlines()) == 1
        assert built == [] and not list(tmp_path.iterdir())

    def test_out_dir_naming_a_file_exits_bad_config(self, tmp_path, capsys, monkeypatch):
        # checked with the config: no mesh is built and nothing is written
        monkeypatch.chdir(tmp_path)
        (tmp_path / "afile").write_text("")
        built = []
        monkeypatch.setattr(mesh, "generate_uniform_squares", lambda n: built.append(n))
        argv = ["study", "--mesh-kind", "uniform", "--eps", "1", "--sizes", "2,4", "--out-dir", "afile"]
        assert main(argv) == EXIT_BAD_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "exists and is not a directory" in err
        assert len(err.strip().splitlines()) == 1
        assert built == [] and (tmp_path / "afile").read_text() == ""

    def test_out_dir_below_a_file_exits_bad_config(self, tmp_path, capsys, monkeypatch):
        # the nearest existing ancestor of out_dir is a file: refused before any mesh is built
        monkeypatch.chdir(tmp_path)
        (tmp_path / "afile").write_text("")
        built = []
        monkeypatch.setattr(mesh, "generate_uniform_squares", lambda n: built.append(n))
        argv = ["study", "--mesh-kind", "uniform", "--eps", "1", "--sizes", "2,4", "--out-dir", "afile/sub/deeper"]
        assert main(argv) == EXIT_BAD_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "'afile/sub/deeper'" in err
        assert "exists and is not a directory" in err and len(err.strip().splitlines()) == 1
        assert built == [] and (tmp_path / "afile").read_text() == ""
        # a new directory below a new one still passes
        assert load_config(None, {"out_dir": "new/sub"}).out_dir == "new/sub"

    def test_infinite_penalty_constant_exits_bad_config(self, tmp_path, capsys, monkeypatch):
        # refused with the config, before any mesh is built
        built = []
        monkeypatch.setattr(mesh, "generate_cvt", lambda *args, **kwargs: built.append(args))
        argv = ["study", "--eps", "1", "--sizes", "16", "--penalty-a", "inf", "--out-dir", str(tmp_path / "out")]
        assert main(argv) == EXIT_BAD_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "penalty constant must be finite" in err
        assert built == [] and not list(tmp_path.iterdir())

    def test_empty_out_dir_in_a_config_file_is_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"mesh_kind": "uniform", "sizes": [2], "out_dir": ""}))
        with pytest.raises(ConfigError, match="out_dir must be a non-empty string"):
            load_config(str(path))

    def test_malformed_sizes_flag_exits_bad_config(self, tmp_path, capsys):
        assert main(["study", "--sizes", "32,abc", "--out-dir", str(tmp_path)]) == EXIT_BAD_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "32,abc" in err

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
        for eps, recs in report["records"].items():
            assert [rec["n_free"] for rec in recs] == [9, 49]
            for rec in recs:
                assert rec["solve_method"] == "band-cholesky"
                # a factor of this eps or a larger one, or the eps = 0 limit's
                assert rec["factor_eps"] >= float(eps) or rec["factor_eps"] == 0.0
                assert 0.0 <= rec["solve_residual"] <= system.RESIDUAL_TARGET
                assert rec["refine_steps"] >= 0
                assert rec["n_free"] <= rec["nnz"] <= rec["n_free"] ** 2
                # the band holds the lower triangle and the diagonal at least,
                # the limit's of its own pattern, which lacks the cross-edge entries
                assert rec["factor_nnz"] >= ((rec["nnz"] + rec["n_free"]) // 2 if rec["factor_eps"] else rec["n_free"])
                assert 0 <= rec["bandwidth"] < rec["n_free"]
        stages = ["mesh", "elements", "forms_stencils", "operator_parts", "loads", "loads_wait", "error_data", "factor_wait"]
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

    def test_record_seconds_split_wall_ms(self, tmp_path):
        out = run_study(tiny_config(eps=[1e-2, 1e-6]))
        report = json.loads(open(write_outputs(out, str(tmp_path))[1]).read())
        wall_ms = {(row["eps"], row["n_cells"]): row["wall_ms"] for row in out.rows}
        for eps, recs in report["records"].items():
            for rec in recs:
                seconds = rec["seconds"]
                assert list(seconds) == ["reduce", "solve", "error"]
                assert all(t >= 0.0 for t in seconds.values())
                assert sum(seconds.values()) * 1e3 <= wall_ms[(float(eps), rec["n_cells"])]

    def test_every_solve_diagnostic_reaches_its_record(self, tmp_path, monkeypatch):
        # a diagnostic that system.solve adds reaches report.json with no
        # edit to cli; "probe" numbers the solves, so each record names its own
        solve, diagnostics = system.solve, []

        def probed_solve(reduced, *args, **kwargs):
            solution = solve(reduced, *args, **kwargs)
            solution.diagnostics["probe"] = len(diagnostics)
            diagnostics.append(list(solution.diagnostics))
            return solution

        monkeypatch.setattr(system, "solve", probed_solve)
        out = run_study(tiny_config(eps=[1e-2, 1e-6]))
        report = json.loads(open(write_outputs(out, str(tmp_path))[1]).read())
        errors = ["n_cells", "h_max", "E_I", "H2_part", "H1_part", "J1_energy", "proj_h2", "proj_h1", "proj_h1_via_h2"]
        renamed = {"method": "solve_method", "residual": "solve_residual"}
        recs = [rec for recs in report["records"].values() for rec in recs]
        assert len(recs) == len(diagnostics) == 4
        assert sorted(rec["probe"] for rec in recs) == [0, 1, 2, 3]
        for rec in recs:
            solve_keys = [renamed.get(key, key) for key in diagnostics[rec["probe"]]]
            assert {"solve_method", "solve_residual", "probe"} <= set(solve_keys)
            assert list(rec) == errors + solve_keys + ["seconds"]

    def test_report_meshes_have_min_edge_length(self, tmp_path):
        report_path = write_outputs(run_study(tiny_config()), str(tmp_path))[1]
        meshes = json.loads(open(report_path).read())["meshes"]
        assert [entry["min_edge_length"] for entry in meshes] == [0.5, 0.25]

    def test_records_do_not_depend_on_eps_order(self):
        eps = [1.0, 1e-2, 1e-4, 1e-6, 1e-8, 1e-10]

        def study(order):
            out = run_study(tiny_config(example=1, eps=order, mesh_kind="cvt", sizes=[32, 64], seed=7, lloyd_iters=100))
            assert not out.failures
            assert out.final.free_parts.factor.band is out.final.free_parts.factor.eps is None
            return out.report.records

        down, up = study(eps), study(eps[::-1])
        for e in eps:
            for a, b in zip(down[e], up[e], strict=True):
                for name in ("e_total", "h2_part", "h1_part", "proj_h2", "proj_h1", "proj_h1_via_h2"):
                    assert getattr(a, name) == pytest.approx(getattr(b, name), rel=1e-10, abs=0.0)
        # going down, the small eps refine from a held factor of another eps (the
        # eps = 0 limit's, here); going up never from a larger eps's
        assert any(r.solve["factor_eps"] != r.eps for recs in down.values() for r in recs)
        assert all(r.solve["factor_eps"] in (r.eps, 0.0) for recs in up.values() for r in recs)

    def test_report_has_lloyd_diagnostics(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text(mesh.export_mesh(mesh.generate_uniform_squares(2)))
        runs = {
            "cvt": tiny_config(mesh_kind="cvt", sizes=[8, 16], seed=5, lloyd_iters=20),
            "cvt0": tiny_config(mesh_kind="cvt", sizes=[8], seed=5, lloyd_iters=0),
            "uniform": tiny_config(),
            "files": tiny_config(mesh_kind="files", mesh_files=[str(path)], sizes=[]),
        }
        entries = {}
        for name, cfg in runs.items():
            report_path = write_outputs(run_study(cfg), str(tmp_path / name))[1]
            entries[name] = json.loads(open(report_path).read())["meshes"]
        for entry, n in zip(entries["cvt"], (8, 16)):
            m = mesh.generate_cvt(n, seed=5, lloyd_iters=20)
            assert entry["lloyd_steps"] == 20
            assert entry["lloyd_final_movement"] == m.lloyd_movement[-1] > 0.0
            # the first step calls qhull; the counts of the steps and of the
            # final cells add up
            assert len(m.delaunay_calls) == len(m.lloyd_flips) == 21 and m.delaunay_calls[0] >= 1
            assert entry["delaunay_calls"] == sum(m.delaunay_calls) >= 1
            assert entry["lloyd_flips"] == sum(m.lloyd_flips)
        # with no step, the final cells are the one qhull call
        cvt0 = entries["cvt0"][0]
        assert (cvt0["lloyd_steps"], cvt0["lloyd_final_movement"], cvt0["delaunay_calls"], cvt0["lloyd_flips"]) == (
            0, None, 1, 0,
        )
        for entry in entries["uniform"] + entries["files"]:
            assert entry["lloyd_steps"] is None and entry["lloyd_final_movement"] is None
            assert entry["delaunay_calls"] is None and entry["lloyd_flips"] is None

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
        # apart from factor_s, the seconds of the factor's dpbtrf call
        untimed = [{k: v for k, v in r.solve.items() if k != "factor_s"} for r in (rec, out.report.records[1e-4][-1])]
        assert untimed[0] == untimed[1]

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

    def test_mesh_files_in_any_order(self, tmp_path):
        paths = {}
        for n in (2, 4, 8):
            paths[n] = tmp_path / f"u{n}.txt"
            paths[n].write_text(mesh.export_mesh(mesh.generate_uniform_squares(n)))

        def study(*sizes):
            cfg = tiny_config(mesh_kind="files", mesh_files=[str(paths[n]) for n in sizes], sizes=[])
            out = run_study(cfg)
            write_outputs(out, str(tmp_path / "-".join(map(str, sizes))))
            assert not out.failures
            return out

        coarse_to_fine = study(2, 4, 8)
        # fine to coarse: every running rate is fitted in order of decreasing h_max
        shuffled = study(8, 2, 4)
        rates = [r["rate_fit"] for r in shuffled.rows]
        assert rates[0] == 0.0 and np.isfinite(rates[1]) and rates[2] == coarse_to_fine.rows[2]["rate_fit"]
        assert shuffled.report.rates_h == coarse_to_fine.report.rates_h
        assert shuffled.report.rates_n == coarse_to_fine.report.rates_n
        assert shuffled.report.rates_last_pair == coarse_to_fine.report.rates_last_pair
        # a mesh listed twice leaves its series without a rate
        repeated = study(2, 4, 4)
        assert [r["rate_fit"] for r in repeated.rows] == [0.0, coarse_to_fine.rows[1]["rate_fit"], 0.0]
        assert repeated.report.rates_h == {} and repeated.report.rates_n == {}
        report = json.loads((tmp_path / "2-4-4" / "report.json").read_text())
        assert report["rates_vs_h"] == {} and len(report["records"]["0.01"]) == 3
        # the two finest meshes are one mesh: no local rate either
        assert report["rates_last_pair_vs_h"] == {}
        local = json.loads((tmp_path / "2-4-8" / "report.json").read_text())["rates_last_pair_vs_h"]
        assert local == {"0.01": coarse_to_fine.report.rates_last_pair[0.01]}
        study(4)
        assert json.loads((tmp_path / "4" / "report.json").read_text())["rates_last_pair_vs_h"] == {}


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

    def test_outputs_are_written_after_each_mesh(self, tmp_path, monkeypatch):
        # at each mesh's first row, study.csv and report.json hold every row before it
        seen, checked = [], []
        real_run_study = cli.run_study

        def reading_run_study(config, progress=None, **kwargs):
            def check(row):
                if row["eps"] == config.eps[0]:
                    csv_path = tmp_path / "study.csv"
                    assert csv_path.exists() == bool(seen)
                    if seen:
                        lines = csv_path.read_text().splitlines()[1:]
                        assert [line.split(",")[:4] for line in lines] == [
                            [repr(r[c]) for c in ("example", "eps", "n_cells", "h_max")] for r in seen
                        ]
                        records = json.loads((tmp_path / "report.json").read_text())["records"]
                        assert sum(map(len, records.values())) == len(seen)
                        checked.append(row["n_cells"])
                seen.append(row)
                progress(row)

            return real_run_study(config, progress=check, **kwargs)

        monkeypatch.setattr(cli, "run_study", reading_run_study)
        argv = ["study", "--example", "2", "--eps", "1", "--eps", "0.01", "--mesh-kind", "uniform"]
        assert main([*argv, "--sizes", "2,4,8", "--out-dir", str(tmp_path)]) == EXIT_OK
        assert checked == [16, 64]
        assert len((tmp_path / "study.csv").read_text().splitlines()) == 1 + len(seen) == 7

    def test_run_study_alone_writes_nothing(self, tmp_path):
        run_study(tiny_config(out_dir=str(tmp_path / "out")))
        assert not (tmp_path / "out").exists()

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

    def test_genmesh_uniform_round_trip(self, tmp_path, capsys):
        out = tmp_path / "mesh.txt"
        assert main(["genmesh", "--kind", "uniform", "--cells", "16", "-o", str(out)]) == EXIT_OK
        assert capsys.readouterr().out.startswith(f"wrote {out}: 16 cells")
        m = mesh.import_mesh(out.read_text())
        assert (m.n_cells, m.n_vertices) == (16, 25)

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--cells", "8", "--lloyd-iters", "-3"], "lloyd_iters"),
            (["--cells", "1"], "two generators"),
            (["--kind", "uniform", "--cells", "0"], "at least one cell"),
            (["--kind", "uniform", "--cells", "2"], "square number of cells, got 2"),
            (["--kind", "uniform", "--cells", "3"], "square number of cells, got 3"),
            (["--kind", "uniform", "--cells", "10"], "square number of cells, got 10"),
        ],
        ids=["negative-lloyd-iters", "one-cvt-cell", "zero-uniform-cells", "uniform-2", "uniform-3", "uniform-10"],
    )
    def test_genmesh_bad_input_exits_bad_config(self, tmp_path, capsys, argv, message):
        out = tmp_path / "mesh.txt"
        assert main(["genmesh", *argv, "-o", str(out)]) == EXIT_BAD_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("genmesh error:") and message in err
        assert len(err.strip().splitlines()) == 1
        assert not out.exists()


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
        export_solution_fields(elements, sol, str(path))
        text = path.read_text()
        n_points, n_cells, scalars = parse_vtk_counts(text)
        assert n_cells == 4
        assert n_points == m.offsets[-1] + m.n_cells
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
        export_solution_fields(d.elements, sol, str(path), msol=msol)
        text = path.read_text()
        n_points, n_cells, scalars = parse_vtk_counts(text)
        assert scalars == ["u_h", "u_exact", "u_h_centroid", "u_exact_centroid"]
        blocks = text.split("LOOKUP_TABLE default\n")
        uh = np.array([float(v) for v in blocks[1].splitlines()[:n_points]])
        ue = np.array([float(v) for v in blocks[2].splitlines()[:n_points]])
        assert np.max(np.abs(uh - ue)) <= 10.0 * rec.e_total

    @pytest.mark.parametrize("mesh_name", ["uniform2", "cvt32"])
    def test_quadratic_interpolant_is_sampled_exactly(self, request, mesh_name, tmp_path):
        # the h1 projector reproduces P2, so the DoF interpolant of a global
        # quadratic samples that quadratic at every point
        m = mesh.generate_uniform_squares(2) if mesh_name == "uniform2" else request.getfixturevalue("cvt32")
        c = np.random.default_rng(14).uniform(-1, 1, 6)

        def quadratic(x, y):
            return c[0] + c[1] * x + c[2] * y + c[3] * x * x + c[4] * x * y + c[5] * y * y

        # the interpolation reads only the values (i = j = 0)
        msol = verify.ManufacturedSolution("quadratic", lambda i, j, x, y: quadratic(x, y), clamped=False)
        elements = projectors.build_elements(m)
        sol = system.DiscreteSolution(values=verify.interpolation_dofs(m, elements, msol), eps=1.0, residual=0.0)
        path = tmp_path / "quadratic.vtk"
        export_solution_fields(elements, sol, str(path))
        lines = path.read_text().splitlines()
        n_points = int(lines[4].split()[1])
        assert n_points == m.offsets[-1] + m.n_cells
        x, y = np.array([line.split()[:2] for line in lines[5 : 5 + n_points]], dtype=float).T
        uh = np.array(lines[lines.index("LOOKUP_TABLE default") + 1 :][:n_points], dtype=float)
        assert np.max(np.abs(uh - quadratic(x, y))) <= 1e-12


@pytest.mark.skipif(system._BLAS_THREADS[0]() is None, reason="scipy's OpenBLAS exports no thread-count setter")
def test_records_do_not_depend_on_the_blas_thread_count(tmp_path):
    # the first factor of a mesh runs beside the set-up with OpenBLAS pinned
    # to one thread, so a study of one eps gives the same records whatever
    # pool the caller's environment asks for
    src = str(Path(cli.__file__).resolve().parent.parent)
    records = []
    for threads in ("1", "2"):
        out_dir = tmp_path / threads
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": src}
        args = ["study", "--example", "1", "--eps", "1.0", "--sizes", "128", "--lloyd-iters", "20"]
        subprocess.run([sys.executable, "-m", "ipvem.cli", *args, "--out-dir", str(out_dir)], env=env, check=True)
        (rec,) = json.loads((out_dir / "report.json").read_text())["records"]["1.0"]
        records.append({k: v for k, v in rec.items() if k not in ("seconds", "factor_s")})
    assert records[0]["factor_beside"] is True
    assert records[0] == records[1]


@pytest.mark.skipif(system._BLAS_THREADS[0]() is None, reason="scipy's OpenBLAS exports no thread-count setter")
def test_sweep_records_do_not_depend_on_the_blas_thread_count(tmp_path):
    # every factor of a band no wider than system.ONE_THREAD_KD runs on one
    # BLAS thread, beside the set-up or not, so a sweep whose later eps factor
    # afresh gives the same records whatever pool the caller's environment asks for
    src = str(Path(cli.__file__).resolve().parent.parent)
    reports = []
    for threads in ("1", "2"):
        out_dir = tmp_path / threads
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": src}
        eps = ["--eps", "1.0", "--eps", "0.1", "--eps", "1e-5"]
        args = ["study", "--example", "1", *eps, "--sizes", "128", "--lloyd-iters", "20"]
        subprocess.run([sys.executable, "-m", "ipvem.cli", *args, "--out-dir", str(out_dir)], env=env, check=True)
        records = json.loads((out_dir / "report.json").read_text())["records"]
        reports.append({eps: [{k: v for k, v in r.items() if k not in ("seconds", "factor_s")} for r in recs]
                        for eps, recs in records.items()})
    assert [rec["factor_threads"] for recs in reports[1].values() for rec in recs] == [1, 1, 1]
    assert reports[0] == reports[1]
