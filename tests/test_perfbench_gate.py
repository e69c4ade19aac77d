"""The benchmark's correctness gate, run against a tiny study.

``perfbench/run.py`` checks every study by wrapping ``system.solve`` through
its module attribute and recomputing each residual from the system it is
given and the values it returns.  A study must therefore call
``system.solve`` through the module, once per (mesh, eps) case, on a system
that carries the fields the gate reads.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from ipvem import cli, mesh, system, verify

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    """The benchmark's ``run`` and ``workloads`` modules, loaded as its
    script loads them, and dropped again after the test."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    before = set(sys.modules)
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    yield run, sys.modules["workloads"]
    for name in set(sys.modules) - before:
        del sys.modules[name]


def test_one_checked_solve_span_per_case(perfbench):
    run, workloads = perfbench
    eps = [1.0, 1e-3, 1e-10]
    cfg = cli.StudyConfig(example=1, eps=eps, mesh_kind="cvt", sizes=[32, 64], seed=7, lloyd_iters=20)
    probe = run.solve_probe()
    with probe, probe.trace("study"):
        out = cli.run_study(cfg)
    assert not out.failures
    spans = [s for s in probe.spans if s.name == "system.solve"]
    cases = [(entry["n_cells"], e) for entry in out.meshes for e in eps]
    assert sorted((s.attrs.get("cells"), s.attrs.get("eps")) for s in spans) == sorted(cases)
    for s in spans:
        assert "describe_error" not in s.attrs
        assert s.attrs["residual"] <= workloads.RESIDUAL_MAX


def test_operator_probe_counts_the_free_parts_bytes(perfbench):
    # the per-layer metric system.operator_bytes sums the bytes of every
    # sparse field of the FreeParts that build_operator_parts returns
    run, _ = perfbench
    m = mesh.generate_cvt(32, seed=7, lloyd_iters=20)
    probe = run.Tracer([(system, "build_operator_parts", run._operator_attrs)])
    with probe, probe.trace("discretize"):
        parts = cli.discretize(m, verify.example_solution(1)).free_parts
    assert len(probe.spans) == 1
    assert "describe_error" not in probe.spans[0].attrs
    arrays = [a for mat in (parts.hess, parts.grad) for a in (mat.data, mat.indices, mat.indptr)]
    assert probe.spans[0].attrs["bytes"] == sum(a.nbytes for a in arrays)
