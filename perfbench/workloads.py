"""Benchmark workloads: seeded inputs, and the checks a study's output must pass.

Run as a script, this module is one set-up: it imports ipvem, writes the
workload's mesh files and study config for a seed, and prints the seconds
that took as its last line::

    python3 perfbench/workloads.py --workload eps_sweep_512 --seed 7 --out DIR
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402

EPS_TABLE = (1.0, 1e-1, 1e-2, 1e-3, 1e-4, 1e-5)
EPS_SWEEP = EPS_TABLE + (1e-6, 1e-7, 1e-8, 1e-9, 1e-10)
CVT_SIZES = (32, 64, 128, 256, 512)
LLOYD_ITERS = 100

# Published energy errors of example 1 on CVT 32..512, one row per eps;
# the same values as REFERENCE_TABLE in tests/test_acceptance.py.
REFERENCE_TABLE = {
    1.0: (7.7401e-01, 4.9029e-01, 2.7904e-01, 1.6441e-01, 1.1698e-01),
    1e-1: (7.2306e-02, 4.8619e-02, 2.8865e-02, 1.7533e-02, 1.2075e-02),
    1e-2: (2.4167e-02, 1.8044e-02, 1.3098e-02, 9.4385e-03, 6.6785e-03),
    1e-3: (2.3908e-02, 1.7905e-02, 1.3125e-02, 9.4839e-03, 6.7673e-03),
    1e-4: (2.3910e-02, 1.7910e-02, 1.3132e-02, 9.4912e-03, 6.7754e-03),
    1e-5: (2.3910e-02, 1.7910e-02, 1.3133e-02, 9.4912e-03, 6.7755e-03),
}
# published bands of the rate fitted against h_max
RATE_BANDS = {1.0: (1.1, 1.7), 1e-5: (0.75, 1.1)}
# E_I of example 2 at eps = 1e-10 on generate_cvt(1024, seed, lloyd_iters=10),
# calibrated on the unoptimised solver: 0.19235, 0.19206, 0.18908, 0.18855,
# 0.19174 at seeds 1..5; the value below is their median.
SINGULAR_REFERENCE = 0.19174
FACTOR = 2.0
ROBUST_RTOL = 0.01
DECOMPOSITION_RTOL = 1e-12
RESIDUAL_MAX = 1e-10
CSV_FIELDS = ("eps", "n_cells", "h_max", "E_I", "H2_part", "H1_part", "J1_energy", "rate_fit")


@dataclass(frozen=True)
class Workload:
    name: str
    example: int
    eps: tuple
    cells: tuple          # cells of each mesh, in study order
    setup_lloyd: int      # Lloyd steps of meshes made in set-up; 0: the study makes them

    @property
    def cases(self):
        return [(n, eps) for n in self.cells for eps in self.eps]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("paper_table", 1, EPS_TABLE, CVT_SIZES, 0),
        Workload("eps_sweep_512", 1, EPS_SWEEP, (512,), LLOYD_ITERS),
        Workload("singular_1024", 2, (1e-10,), (1024,), 10),
    )
}


def make_inputs(workload, seed, directory):
    """Write the workload's mesh files and study config; returns the config path."""
    from ipvem import mesh

    os.makedirs(directory, exist_ok=True)
    config = {"example": workload.example, "eps": list(workload.eps), "seed": seed}
    if workload.setup_lloyd:
        files = []
        for n in workload.cells:
            m = mesh.generate_cvt(n, seed=seed, lloyd_iters=workload.setup_lloyd)
            files.append(os.path.join(directory, f"cvt{n}.txt"))
            with open(files[-1], "w") as fh:
                fh.write(mesh.export_mesh(m))
        config.update(mesh_kind="files", mesh_files=files)
    else:
        config.update(mesh_kind="cvt", sizes=list(workload.cells), lloyd_iters=LLOYD_ITERS)
    path = os.path.join(directory, "study.json")
    with open(path, "w") as fh:
        json.dump(config, fh, indent=1)
    return path


def _read_back(output):
    """study.csv rows keyed by (n_cells, eps), and the parsed report.json."""
    with open(output.csv_path) as fh:
        lines = fh.read().splitlines()
    header = lines[0].split(",")
    rows = {}
    for line in lines[1:]:
        row = dict(zip(header, (float(v) for v in line.split(","))))
        rows[(int(row["n_cells"]), row["eps"])] = row
    with open(output.report_path) as fh:
        report = json.load(fh)
    return rows, report


def check_study(workload, output, residuals):
    """Failed cases of one study, as ``{(n_cells, eps): reason}``.

    ``residuals`` maps ``(n_cells, eps)`` to the relative residual of the
    returned solution, recomputed from the reduced system for that case.
    A case fails when it has no result row (``run_study`` recorded a
    failure) or when any check on it fails.
    """
    problems = {}

    def fail(case, reason):
        problems.setdefault(case, reason)

    rows = {(r["n_cells"], r["eps"]): r for r in output.rows}
    try:
        disk_rows, report = _read_back(output)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        disk_rows, report = {}, {}
        for case in workload.cases:
            fail(case, f"outputs do not parse: {exc!r}")
    for case in workload.cases:
        n, eps = case
        row = rows.get(case)
        if row is None:
            fail(case, "no result row (study failure)")
            continue
        e, h2, h1 = row["E_I"], row["H2_part"], row["H1_part"]
        if not (math.isfinite(e) and e > 0.0):
            fail(case, f"E_I = {e!r} is not finite and positive")
        elif abs(e * e - (eps**2 * h2 * h2 + h1 * h1)) > DECOMPOSITION_RTOL * e * e:
            fail(case, "E_I^2 != eps^2 H2^2 + H1^2")
        if not residuals.get(case, math.inf) <= RESIDUAL_MAX:
            fail(case, f"solve residual {residuals.get(case)!r} above {RESIDUAL_MAX}")
        disk = disk_rows.get(case)
        if disk is None or any(disk.get(k) != row[k] for k in CSV_FIELDS):
            fail(case, "study.csv does not read back as the result row")
        records = report.get("records", {}).get(repr(eps), [])
        if not any(r.get("n_cells") == n and r.get("E_I") == e and r.get("H1_part") == h1
                   and r.get("H2_part") == h2 for r in records):
            fail(case, "report.json does not read back as the result row")

    disk_e = {case: r["E_I"] for case, r in disk_rows.items() if case in workload.cases}
    if workload.name == "paper_table":
        _check_paper_table(workload, disk_e, report, fail)
    elif workload.name == "eps_sweep_512":
        _check_eps_sweep(workload, disk_e, fail)
    else:
        for case, e in disk_e.items():
            if not SINGULAR_REFERENCE / FACTOR <= e <= SINGULAR_REFERENCE * FACTOR:
                fail(case, f"E_I {e:.4e} not within x{FACTOR} of {SINGULAR_REFERENCE}")
    return problems


def _within_factor(e, ref):
    return ref / FACTOR <= e <= ref * FACTOR


def _check_paper_table(workload, disk_e, report, fail):
    for (n, eps), e in disk_e.items():
        ref = REFERENCE_TABLE[eps][CVT_SIZES.index(n)]
        if not _within_factor(e, ref):
            fail((n, eps), f"E_I {e:.4e} not within x{FACTOR} of published {ref:.4e}")
    rates = report.get("rates_vs_h", {})
    for eps, (lo, hi) in RATE_BANDS.items():
        rate = rates.get(repr(eps))
        if rate is None or not lo <= rate <= hi:
            for n in workload.cells:
                fail((n, eps), f"rate {rate!r} at eps={eps:g} outside [{lo}, {hi}]")


def _check_eps_sweep(workload, disk_e, fail):
    n = workload.cells[0]
    base = disk_e.get((n, 1e-5))
    for (_, eps), e in disk_e.items():
        ref = REFERENCE_TABLE[eps if eps in REFERENCE_TABLE else 1e-5][-1]
        if not _within_factor(e, ref):
            fail((n, eps), f"E_I {e:.4e} not within x{FACTOR} of published {ref:.4e}")
        if eps <= 1e-5 and (base is None or abs(e - base) > ROBUST_RTOL * base):
            fail((n, eps), f"E_I {e:.4e} differs from the eps=1e-5 value {base!r} by over 1%")


def main(argv=None):
    parser = argparse.ArgumentParser(description="write one workload's inputs")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
    make_inputs(WORKLOADS[args.workload], args.seed, args.out)
    print(time.perf_counter() - _T0)


if __name__ == "__main__":
    main()
