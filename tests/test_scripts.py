"""Smoke tests of the scripts under ``scripts/``: each runs end to end on a
small input through the package's public API."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

from ipvem import cli, system

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_writes_every_documented_field(tmp_path, monkeypatch):
    solve = system.solve

    def probed(*args, **kwargs):
        solution = solve(*args, **kwargs)
        solution.diagnostics["probe"] = True
        return solution

    # a diagnostic the solve adds reaches every sweep entry with no edit of the script
    monkeypatch.setattr(system, "solve", probed)
    bench = load_script("bench")
    assert bench.main(["--label", "smoke", "--sizes", "32", "--out-dir", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "BENCH_smoke.json").read_text())
    assert {"label", "example", "sweep_eps", "seed", "lloyd_iters", "provenance", "runs"} <= set(payload)
    assert "eps" not in payload
    assert payload["label"] == "smoke" and len(payload["runs"]) == 1
    run = payload["runs"][0]
    assert run["n_cells"] == 32
    stages = ["mesh", "elements", "forms_stencils", "operator_parts", "loads", "loads_wait", "error_data", "factor_wait"]
    assert list(run["seconds"]) == stages
    assert {"delaunay_calls", "lloyd_flips", "peak_rss_mb", "sweep_solve_s", "sweep_error_s"} <= set(run)
    assert [entry["eps"] for entry in run["sweep"]] == list(bench.SWEEP) and len(bench.SWEEP) == 11
    for entry in run["sweep"]:
        assert entry["error"] is None and set(entry["seconds"]) == {"reduce", "solve", "error"}
        assert entry["solve_residual"] <= system.RESIDUAL_TARGET
        assert entry["factor_eps"] is not None and entry["probe"] is True
    assert run["sweep_solve_s"] == sum(entry["seconds"]["solve"] for entry in run["sweep"])

    # each entry is the record of the same study run on its own, apart from its timing
    config = cli.StudyConfig(example=1, eps=list(bench.SWEEP), sizes=[32], seed=7, lloyd_iters=100)
    _, report_path = cli.write_outputs(cli.run_study(config), str(tmp_path / "study"))
    records = json.loads(Path(report_path).read_text())["records"]
    for entry in run["sweep"]:
        (record,) = records[repr(entry["eps"])]
        del record["seconds"], record["factor_s"]
        assert {k: v for k, v in entry.items() if k not in ("eps", "error", "seconds", "factor_s")} == record


def test_bench_times_the_deep_singular_study(tmp_path):
    bench = load_script("bench")
    argv = ["--label", "singular", "--example", "2", "--eps", "1e-10", "--sizes", "32", "--out-dir", str(tmp_path)]
    assert bench.main(argv) == 0
    payload = json.loads((tmp_path / "BENCH_singular.json").read_text())
    assert payload["example"] == 2 and payload["sweep_eps"] == [1e-10]
    ((entry,),) = [run["sweep"] for run in payload["runs"]]
    assert entry["eps"] == 1e-10 and entry["error"] is None
    assert entry["solve_residual"] <= system.RESIDUAL_TARGET
    # the deep-singular solve is served by the eps = 0 limit factor begun beside the set-up
    assert entry["factor_eps"] == 0.0 and entry["factor_beside"] is True


def test_bench_provenance_ignores_a_repository_above_the_checkout(tmp_path, monkeypatch):
    outer = tmp_path / "outer"
    package = outer / "copy" / "src" / "ipvem"
    package.mkdir(parents=True)
    git = ["git", "-C", str(outer), "-c", "user.name=bench", "-c", "user.email=bench@example.invalid"]
    subprocess.run([*git, "init", "-q"], check=True)
    subprocess.run([*git, "commit", "-q", "--allow-empty", "-m", "outer"], check=True)
    bench = load_script("bench")
    monkeypatch.setattr(bench, "cli", SimpleNamespace(__file__=str(package / "cli.py")))
    assert bench.provenance()["commit"] is None


def test_run_deep_singular_writes_the_study_and_the_finest_field(tmp_path, monkeypatch):
    script = load_script("run_deep_singular")
    monkeypatch.setattr(sys, "argv", [str(SCRIPTS / "run_deep_singular.py"), str(tmp_path)])
    assert script.main() == 0
    assert all((tmp_path / name).is_file() for name in ("study.csv", "report.json", "solution-512.vtk"))
