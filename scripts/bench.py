#!/usr/bin/env python3
"""Stage timings of eps-sweep studies on CVT meshes, written to BENCH_<label>.json.

For each mesh size: one ``cli.run_study`` of an example (``--example``, 1
by default) over a list of eps (``--eps``, by default the sweep 1 down to
1e-10) on one CVT mesh (seed 7, 100 Lloyd steps), written by
``cli.write_outputs`` to a temporary directory.  The run is built from that
``report.json``: the study's mesh entry (``seconds`` of the stages mesh
through factor_wait, ``loads_wait`` among them, ``delaunay_calls``,
``lloyd_flips``, ...), then ``sweep``, at each eps the study's record as
written plus ``eps`` and ``error`` (the message of that eps's failure,
else null), then
``sweep_solve_s`` and ``sweep_error_s``, summed from the records'
``seconds``, and the process's peak resident set so far (``peak_rss_mb``,
from ``ru_maxrss``).  Every solve diagnostic a record carries reaches the
sweep unchanged.  Only the public API is used, so the same file runs
against another checkout of the package:

    python3 scripts/bench.py --label cvt --sizes 32,128,512,2048
    python3 scripts/bench.py --label singular --example 2 --eps 1e-10 --sizes 2048,8192
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
import tempfile
from pathlib import Path

import numpy as np
import scipy

from ipvem import cli

EXAMPLE = 1
SWEEP = (1.0, 1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8, 1e-9, 1e-10)
SEED = 7
LLOYD_ITERS = 100


def bench_size(n_cells, example=EXAMPLE, eps_values=SWEEP):
    """One study of example ``example`` at ``eps_values`` on a CVT mesh of ``n_cells`` cells."""
    config = cli.StudyConfig(example=example, eps=list(eps_values), sizes=[n_cells], seed=SEED, lloyd_iters=LLOYD_ITERS)
    output = cli.run_study(config)
    with tempfile.TemporaryDirectory() as out_dir:
        _, report_path = cli.write_outputs(output, out_dir)
        with open(report_path) as fh:
            report = json.load(fh)
    failed = {failure["eps"]: failure["error"] for failure in report["failures"]}
    if not report["meshes"]:
        raise RuntimeError(f"cvt-{n_cells}: {failed[None]}")
    sweep = []
    for eps in eps_values:
        # a failed eps has no record, only the failure's message
        records = report["records"][repr(eps)] or [{"error": failed[eps]}]
        sweep.append({"eps": eps, "error": None, **records[0]})
    solved = [entry["seconds"] for entry in sweep if entry["error"] is None]
    return {
        **report["meshes"][0],
        "sweep": sweep,
        "sweep_solve_s": sum(seconds["solve"] for seconds in solved),
        "sweep_error_s": sum(seconds["error"] for seconds in solved),
        # kilobytes on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def provenance():
    """Where the timed package came from and what it ran on."""
    package_dir = Path(cli.__file__).resolve().parent
    # the ceiling, the checkout's parent, keeps git from taking a repository above the checkout
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(package_dir.parents[2]))
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=package_dir, env=env, capture_output=True, text=True, check=True
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
    parser.add_argument("--example", type=int, default=EXAMPLE, help="manufactured solution id (1 or 2)")
    parser.add_argument("--eps", default=",".join(map(repr, SWEEP)), help="comma-separated eps, largest first")
    args = parser.parse_args(argv)
    sweep = tuple(float(s) for s in args.eps.split(","))

    payload = {
        "label": args.label,
        "example": args.example,
        "sweep_eps": sweep,
        "seed": SEED,
        "lloyd_iters": LLOYD_ITERS,
        "provenance": provenance(),
        "runs": [],
    }
    for n in (int(s) for s in args.sizes.split(",")):
        run = bench_size(n, args.example, sweep)
        payload["runs"].append(run)
        stages = " ".join(f"{k} {v:.3f}s" for k, v in run["seconds"].items())
        print(
            f"cvt-{n}: {stages}, sweep solves {run['sweep_solve_s']:.3f}s, "
            f"sweep errors {run['sweep_error_s']:.3f}s, peak RSS {run['peak_rss_mb']:.0f} MB",
            flush=True,
        )
    path = Path(args.out_dir) / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(payload, indent=1) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
