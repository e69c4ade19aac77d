#!/usr/bin/env python3
"""Stage timings of the pipeline on CVT meshes, written to BENCH_<label>.json.

For each mesh size: ``mesh.generate_cvt`` (seed 7, 100 Lloyd steps), the
set-up stages of ``cli.discretize`` (its per-stage ``seconds``), then one
solve and one error evaluation of example 1 at eps = 1e-3.  Each record
holds the stage seconds, ``n_free``, ``nnz``, the solve method, its
residual, refinement steps, the entries the factor stores (``factor_nnz``;
a package that reports ``lu_nnz`` instead gives that), its half-bandwidth
(``bandwidth``), and the qhull calls and edge flips of the generator
(``delaunay_calls``, ``lloyd_flips``), each null where the timed package
does not report it, and the process's peak resident set so far
(``peak_rss_mb``, from ``ru_maxrss``).  Then the same
discretization solves once at each eps of the robustness sweep, 1 down to
1e-10, as a study does; ``sweep`` holds, at each eps, the seconds of the
boundary-reduced system (``reduce_s``), of its solve (``solve_s``) and of
the solution's error evaluation (``error_s``, null after a failed solve),
the refinement steps, the relative residual, ``factor_eps`` (the eps whose matrix was factored,
null where the timed package does not report it) and ``error`` (the
message of a ``SolveError``, else null); ``sweep_solve_s`` and
``sweep_error_s`` sum them over the sweep.  Only the public API is used, so
the same file runs against another checkout of the package:

    python3 scripts/bench.py --label cvt --sizes 32,128,512,2048
    PYTHONPATH=/path/to/other/src python3 scripts/bench.py --label other
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy

from ipvem import cli, mesh, system, verify

EXAMPLE = 1
EPS = 1e-3
SWEEP = (1.0, 1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8, 1e-9, 1e-10)
SEED = 7
LLOYD_ITERS = 100


def _total(per_step):
    """Sum of a mesh's per-Lloyd-step counts, or None where it has none."""
    return None if per_step is None else sum(per_step)


def bench_size(n_cells):
    """One pass of the pipeline on a CVT mesh of ``n_cells`` cells."""
    t0 = time.perf_counter()
    m = mesh.generate_cvt(n_cells, seed=SEED, lloyd_iters=LLOYD_ITERS)
    seconds = {"mesh": time.perf_counter() - t0}
    disc = cli.discretize(m, verify.example_solution(EXAMPLE))
    seconds.update(disc.seconds)
    t0 = time.perf_counter()
    solution = disc.solve(EPS)
    seconds["solve"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    rec = disc.error(solution)
    seconds["error"] = time.perf_counter() - t0
    # a checkout whose solves share a factor only through ``held=`` times
    # its sweep with that sharing, as its own studies run
    held = {"held": disc.factor} if hasattr(disc, "factor") else {}
    sweep = []
    for eps in SWEEP:
        t0 = time.perf_counter()
        reduced = disc.reduced(eps)
        t1 = time.perf_counter()
        try:
            solution, error = system.solve(reduced, **held), None
        except system.SolveError as exc:
            solution, error = None, str(exc)
        t2 = time.perf_counter()
        error_s = None
        if solution is not None:
            disc.error(solution)
            error_s = time.perf_counter() - t2
        diagnostics = {} if solution is None else solution.diagnostics
        sweep.append(
            {
                "eps": eps,
                "reduce_s": t1 - t0,
                "solve_s": t2 - t1,
                "error_s": error_s,
                "refine_steps": diagnostics.get("refine_steps"),
                "residual": diagnostics.get("residual"),
                "factor_eps": diagnostics.get("factor_eps"),
                "error": error,
            }
        )
    return {
        "n_cells": m.n_cells,
        "seconds": seconds,
        "total_s": sum(seconds.values()),
        "n_free": rec.solve.get("n_free"),
        "nnz": rec.solve.get("nnz"),
        "solve_method": rec.solve.get("method"),
        "solve_residual": rec.solve.get("residual"),
        "refine_steps": rec.solve.get("refine_steps"),
        "factor_nnz": rec.solve.get("factor_nnz", rec.solve.get("lu_nnz")),
        "bandwidth": rec.solve.get("bandwidth"),
        "E_I": rec.e_total,
        "delaunay_calls": _total(getattr(m, "delaunay_calls", None)),
        "lloyd_flips": _total(getattr(m, "lloyd_flips", None)),
        "sweep": sweep,
        "sweep_solve_s": sum(r["solve_s"] for r in sweep),
        "sweep_error_s": sum(r["error_s"] or 0.0 for r in sweep),
        # kilobytes on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def provenance():
    """Where the timed package came from and what it ran on."""
    package_dir = Path(cli.__file__).resolve().parent
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=package_dir, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--label", required=True, help="output file is BENCH_<label>.json")
    parser.add_argument("--sizes", default="32,128,512,2048", help="comma-separated CVT cell counts")
    parser.add_argument("--out-dir", default=".", help="directory for the output file")
    args = parser.parse_args(argv)

    payload = {
        "label": args.label,
        "example": EXAMPLE,
        "eps": EPS,
        "sweep_eps": SWEEP,
        "seed": SEED,
        "lloyd_iters": LLOYD_ITERS,
        "provenance": provenance(),
        "runs": [],
    }
    for n in (int(s) for s in args.sizes.split(",")):
        run = bench_size(n)
        payload["runs"].append(run)
        stages = " ".join(f"{k} {v:.3f}s" for k, v in run["seconds"].items())
        print(
            f"cvt-{n}: n_free {run['n_free']}, {run['solve_method']}, {stages}, "
            f"sweep solves {run['sweep_solve_s']:.3f}s, sweep errors {run['sweep_error_s']:.3f}s, "
            f"peak RSS {run['peak_rss_mb']:.0f} MB",
            flush=True,
        )
    path = Path(args.out_dir) / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(payload, indent=1) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
