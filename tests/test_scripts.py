"""Smoke tests of the scripts under ``scripts/``: each runs end to end on a
small input through the package's public API."""

import importlib.util
import json
from pathlib import Path

from ipvem import system

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_writes_every_documented_field(tmp_path):
    bench = load_script("bench")
    assert bench.main(["--label", "smoke", "--sizes", "32", "--out-dir", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "BENCH_smoke.json").read_text())
    assert {"label", "example", "eps", "sweep_eps", "seed", "lloyd_iters", "provenance", "runs"} <= set(payload)
    assert payload["label"] == "smoke" and len(payload["runs"]) == 1
    run = payload["runs"][0]
    documented = {
        "seconds", "n_free", "nnz", "solve_method", "solve_residual", "refine_steps", "factor_nnz", "bandwidth",
        "delaunay_calls", "lloyd_flips", "peak_rss_mb", "sweep", "sweep_solve_s", "sweep_error_s",
    }
    assert documented <= set(run)
    assert run["n_cells"] == 32 and run["solve_residual"] <= system.RESIDUAL_TARGET
    assert len(run["sweep"]) == len(bench.SWEEP) == 11
    sweep_fields = {"eps", "reduce_s", "solve_s", "error_s", "refine_steps", "residual", "factor_eps", "error"}
    for entry in run["sweep"]:
        assert set(entry) == sweep_fields
        assert entry["error"] is None and entry["error_s"] is not None
        assert entry["residual"] <= system.RESIDUAL_TARGET
        assert entry["factor_eps"] is not None
