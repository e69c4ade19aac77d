"""ipvem benchmark: one workload, one seed, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload paper_table --seed 7 --seconds 10 --trace 0

Run from anywhere; the program is imported from ``src/`` of the checkout
this file sits in.  ``--trace 0`` sets the inputs up in fresh processes
(several times, for ``setup_s``), then runs studies through
``cli.run_study`` and ``cli.write_outputs`` one after another (a closed loop
with one client) until ``--seconds`` have passed, at least one study.
``--trace 1`` sets up once and runs one untraced and one traced study; its
metrics come from spans recorded around the public functions of each layer.
Every study's outputs are checked (see ``workloads.check_study``).

The last line of standard output is the result as one JSON object; the line
before it carries provenance and the raw samples.  Spans and results are
written under ``.perfbench-out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

from tracer import Tracer, child_seconds
from workloads import WORKLOADS, check_study, make_inputs

ROOT = Path(__file__).resolve().parent.parent
NPROC = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
# set-ups per run: at least three, and cheap ones until a few seconds are
# measured; one run's import-bound set-ups scatter by up to half their median
SETUP_REPEATS = 3
SETUP_MIN_S = 4.0
SETUP_TIMEOUT_S = 120


class BenchError(RuntimeError):
    """The benchmark cannot run in this checkout."""


# ---------------------------------------------------------------- layers


def _mesh_attrs(result, args):
    return {"cells": result.n_cells, "lloyd_iters": len(getattr(result, "lloyd_movement", None) or ())}


def _reduce_attrs(result, args):
    return {"n_free": int(result.n_free), "nnz": int(result.matrix.nnz)}


def _solve_attrs(result, args):
    """The relative residual is recomputed from the returned values, in
    extended precision (in double precision it bottoms out near 1e-10 on the
    stiff systems); the solver's own figure is kept as ``reported_residual``."""
    import numpy as np

    system = args[0]
    x = result.values[system.free_indices].astype(np.longdouble)
    r = system.rhs.astype(np.longdouble) - system.matrix.astype(np.longdouble) @ x
    return {
        "cells": system.dof_map.n_cells,
        "eps": system.eps,
        "residual": float(np.linalg.norm(r.astype(float)) / np.linalg.norm(system.rhs)),
        "reported_residual": float(result.residual),
        "method": result.diagnostics.get("method"),
    }


def _operator_attrs(result, args):
    """Bytes of the sparse matrices held in the operator parts (computed)."""
    total = 0
    for mat in vars(result).values():
        if hasattr(mat, "indptr"):
            total += mat.data.nbytes + mat.indices.nbytes + mat.indptr.nbytes
    return {"bytes": total}


def layer_targets():
    """(module, function, describe) of every layer boundary the tracer wraps."""
    from ipvem import cli, forms, mesh, projectors, system, verify

    return [
        (mesh, "generate_cvt", _mesh_attrs),
        (mesh, "import_mesh", _mesh_attrs),
        (mesh, "build_mesh", None),
        (projectors, "build_elements", None),
        (projectors, "build_element", None),
        (forms, "build_local_forms", None),
        (forms, "build_edge_stencils", None),
        (forms, "edge_stencil", None),
        (forms, "local_load", None),
        (system, "number_dofs", None),
        (system, "build_operator_parts", _operator_attrs),
        (system, "load_vector", None),
        (system, "reduce_system", _reduce_attrs),
        (system, "solve", _solve_attrs),
        (verify, "example_solution", None),
        (verify, "forcing_parts", None),
        (verify, "energy_error", None),
        (verify, "projection_errors", None),
        (verify, "interpolation_dofs", None),
        (verify, "j1_energy", None),
        (verify, "fit_rate", None),
        (cli, "run_study", None),
        (cli, "write_outputs", None),
    ]


def solve_probe():
    """Wraps only ``system.solve``, so untraced studies can check residuals."""
    from ipvem import system

    return Tracer([(system, "solve", _solve_attrs)])


def layer_metrics(spans, overhead_s):
    """Per-layer metrics of a traced run (set-up trace plus study trace)."""
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
    covered = child_seconds(spans)

    def total(name):
        return sum(s.duration for s in by_name[name])

    def calls(name):
        return len(by_name[name])

    def p50_ms(name):
        d = [s.duration for s in by_name[name]]
        return statistics.median(d) * 1e3 if d else 0.0

    def self_s(name):
        return sum(s.duration - covered[s.id] for s in by_name[name])

    def attrs(name, key, trace=None):
        return [s.attrs[key] for s in by_name[name] if key in s.attrs and trace in (None, s.trace)]

    solves = by_name["system.solve"]
    studies = [s for s in by_name["cli.run_study"] if s.trace == "study"]
    study_s = sum(s.duration for s in studies)
    return {
        "mesh.generate_cvt.s": total("mesh.generate_cvt"),
        "mesh.import_mesh.s": total("mesh.import_mesh"),
        "mesh.build_mesh.s": total("mesh.build_mesh"),
        "mesh.cells": sum(attrs("mesh.generate_cvt", "cells", "study") + attrs("mesh.import_mesh", "cells", "study")),
        "mesh.lloyd_iters": sum(attrs("mesh.generate_cvt", "lloyd_iters")),
        "projectors.build_elements.s": total("projectors.build_elements"),
        "projectors.build_element.calls": calls("projectors.build_element"),
        "projectors.build_element.p50_ms": p50_ms("projectors.build_element"),
        "forms.build_local_forms.s": total("forms.build_local_forms"),
        "forms.build_edge_stencils.s": total("forms.build_edge_stencils"),
        "forms.edge_stencil.calls": calls("forms.edge_stencil"),
        "forms.local_load.s": total("forms.local_load"),
        "forms.local_load.calls": calls("forms.local_load"),
        "system.build_operator_parts.s": total("system.build_operator_parts"),
        "system.load_vector.s": total("system.load_vector"),
        "system.reduce_system.s": total("system.reduce_system"),
        "system.solve.s": total("system.solve"),
        "system.solve.p50_ms": p50_ms("system.solve"),
        "system.solve.calls": len(solves),
        "system.solve.cg_frac": sum(s.attrs.get("method") == "cg" for s in solves) / max(len(solves), 1),
        "system.solve.residual_max": max(attrs("system.solve", "residual"), default=0.0),
        "system.n_free": max(attrs("system.reduce_system", "n_free"), default=0),
        "system.nnz": max(attrs("system.reduce_system", "nnz"), default=0),
        "system.operator_bytes": max(attrs("system.build_operator_parts", "bytes"), default=0),
        "verify.energy_error.s": total("verify.energy_error"),
        "verify.energy_error.self_s": self_s("verify.energy_error"),
        "verify.energy_error.p50_ms": p50_ms("verify.energy_error"),
        "verify.energy_error.calls": calls("verify.energy_error"),
        "verify.projection_errors.s": total("verify.projection_errors"),
        "verify.interpolation_dofs.s": total("verify.interpolation_dofs"),
        "cli.run_study.self_s": self_s("cli.run_study"),
        "cli.write_outputs.s": total("cli.write_outputs"),
        "trace.coverage": sum(covered[s.id] for s in studies) / study_s if study_s else 0.0,
        "trace.overhead_s": overhead_s,
    }


def study_breakdown(spans):
    """Seconds of each direct child of the traced ``run_study``, largest first."""
    study_ids = {s.id for s in spans if s.name == "cli.run_study" and s.trace == "study"}
    seconds = defaultdict(float)
    for s in spans:
        if s.parent in study_ids:
            seconds[s.name] += s.duration
    return dict(sorted(seconds.items(), key=lambda kv: -kv[1]))


# ---------------------------------------------------------------- runs


def setup_in_process_seconds(workload, seed, directory):
    """One set-up in a fresh process: ipvem import plus input generation."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("workloads.py")),
         "--workload", workload.name, "--seed", str(seed), "--out", str(directory)],
        capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchError(f"set-up failed:\n{proc.stderr.strip()}")
    return float(proc.stdout.split()[-1])


def run_study_once(cli, config_path, out_dir):
    """Wall seconds of one ``run_study`` + ``write_outputs``, and the output."""
    config = cli.load_config(str(config_path), {"out_dir": str(out_dir)})
    t0 = time.perf_counter()
    output = cli.run_study(config)
    cli.write_outputs(output)
    return time.perf_counter() - t0, output


class CaseLedger:
    """Attempted and failed (mesh, eps) cases over every study of a run."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def add(self, output, spans, trace):
        residuals = {
            (s.attrs["cells"], s.attrs["eps"]): s.attrs["residual"]
            for s in spans
            if s.name == "system.solve" and s.trace == trace and "residual" in s.attrs
        }
        problems = check_study(self.workload, output, residuals)
        self.attempted += len(self.workload.cases)
        self.failed += len(problems)
        self.reasons += [f"{trace} N={n} eps={eps:g}: {why}" for (n, eps), why in problems.items()]
        self.reasons += [f"{trace} study failure: {f}" for f in output.failures]


def run_end_to_end(workload, seed, seconds, workdir):
    setup_s = []
    while len(setup_s) < SETUP_REPEATS or sum(setup_s) < SETUP_MIN_S:
        setup_s.append(setup_in_process_seconds(workload, seed, workdir / "inputs"))
    from ipvem import cli

    config_path = workdir / "inputs" / "study.json"
    ledger = CaseLedger(workload)
    probe = solve_probe()
    study_s = []
    began = time.perf_counter()
    while not study_s or time.perf_counter() - began < seconds:
        trace = f"study-{len(study_s)}"
        with probe, probe.trace(trace):
            elapsed, output = run_study_once(cli, config_path, workdir / "study")
        study_s.append(elapsed)
        ledger.add(output, probe.spans, trace)
        if len(study_s) == 1:
            # taken after the first study, so the number of studies a run
            # fits into --seconds does not move it
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            energy = [r["E_I"] for r in output.rows]
    logs = [math.log(e) for e in energy if e > 0.0 and math.isfinite(e)]
    metrics = {
        "study_s": statistics.median(study_s),
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": peak_rss_mb,
        # 0.0 only when no case produced an error, which fails the run anyway
        "energy_err.gmean": math.exp(statistics.fmean(logs)) if logs else 0.0,
    }
    samples = {"study_s": study_s, "setup_s": setup_s}
    return metrics, ledger, samples


def run_traced(workload, seed, workdir):
    from ipvem import cli

    tracer = Tracer(layer_targets())
    with tracer, tracer.trace("setup"):
        config_path = make_inputs(workload, seed, workdir / "inputs")
    ledger = CaseLedger(workload)
    probe = solve_probe()
    with probe, probe.trace("untraced"):
        untraced_s, output = run_study_once(cli, config_path, workdir / "study")
    ledger.add(output, probe.spans, "untraced")
    with tracer, tracer.trace("study"):
        traced_s, output = run_study_once(cli, config_path, workdir / "study")
    ledger.add(output, tracer.spans, "study")
    tracer.dump(workdir / "spans.json")
    metrics = layer_metrics(tracer.spans, traced_s - untraced_s)
    samples = {
        "untraced_study_s": untraced_s,
        "traced_study_s": traced_s,
        "run_study_children_s": study_breakdown(tracer.spans),
        "absent": tracer.absent,
        "describe_errors": sorted({s.name for s in tracer.spans if "describe_error" in s.attrs}),
        "spans": len(tracer.spans),
    }
    return metrics, ledger, samples


# ---------------------------------------------------------------- output


def git_commit(root):
    """HEAD of the checkout, or None when it is not a git repository."""
    # the ceiling keeps git from taking a repository above the checkout
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def provenance(seed):
    import numpy
    import scipy

    return {
        "seed": seed,
        "commit": git_commit(ROOT),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": NPROC,
        "threads": {var: int(os.environ[var]) for var in THREAD_VARS},
    }


def declared_metrics(trace):
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return spec["per_layer" if trace else "end_to_end"]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    # pinned before numpy loads, in this process and in the set-up processes
    for var in THREAD_VARS:
        os.environ[var] = str(NPROC)
    try:
        if not (ROOT / "src" / "ipvem" / "__init__.py").is_file():
            raise BenchError(f"no program to measure: {ROOT / 'src' / 'ipvem'} is missing")
        declared = declared_metrics(args.trace)
        sys.path.insert(0, str(ROOT / "src"))
        workload = WORKLOADS[args.workload]
        workdir = ROOT / ".perfbench-out" / f"{workload.name}-seed{args.seed}-trace{args.trace}"
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        if args.trace:
            metrics, ledger, samples = run_traced(workload, args.seed, workdir)
        else:
            metrics, ledger, samples = run_end_to_end(workload, args.seed, args.seconds, workdir)
        missing = [m["name"] for m in declared if m["name"] not in metrics]
        if missing:
            raise BenchError(f"BENCHMARK.json declares metrics this run does not make: {missing}")
    except (BenchError, OSError, subprocess.SubprocessError, ImportError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2

    for reason in ledger.reasons[:20]:
        print(f"FAILED {reason}", file=sys.stderr)
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }
    info = {"workload": workload.name, "trace": args.trace, "provenance": provenance(args.seed),
            "samples": samples}
    with open(workdir / "result.json", "w") as fh:
        json.dump({"info": info, "result": result}, fh, indent=1)
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
