"""Steadiness check of the benchmark.

    python3 perfbench/steady.py

For each workload in BENCHMARK.json, runs ``run.py --trace 0`` for
``run_seconds`` once per seed 1..10 and prints, for every end-to-end metric,
the median, the quartiles and the spread (q3 - q1) / median next to a third
of the metric's bound.  Then runs ``run.py --trace 1`` twice at seed 1 and
checks that every count metric is identical between the two runs and that
spans cover at least 95% of ``cli.run_study``; it also prints the largest
span below it.  Exits with 1 if a run is incorrect, a spread reaches a third
of its bound, a count differs or the coverage is short.  Every raw result
goes to ``.perfbench-out/steady.json``.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = tuple(range(1, 11))
COUNT_METRICS = (
    "mesh.cells",
    "mesh.lloyd_iters",
    "forms.edge_stencil.calls",
    "forms.local_load.calls",
    "system.n_free",
    "system.nnz",
    "system.solve.calls",
    "system.operator_bytes",
    "verify.energy_error.calls",
)
MIN_COVERAGE = 0.95
# the layer each workload was chosen to stress
STRESSED = {
    "paper_table": "mesh.generate_cvt",
    "eps_sweep_512": "verify.energy_error",
    "singular_1024": "projectors.build_elements",
}


def bench(workload, seed, seconds, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["info"], json.loads(lines[-1])


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2


def check_spreads(spec, workload, results, problems):
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3, rel = spread(values)
        limit = bound / 3.0
        steady = rel < limit
        print(f"  {name:18s} median {med:.6g} [{q1:.6g}, {q3:.6g}] spread {rel:.4f}"
              f" (bound/3 {limit:.4f}) {'ok' if steady else 'NOT STEADY'}")
        if not steady:
            problems.append(f"{workload}: {name} spread {rel:.4f} >= {limit:.4f}")


def check_trace(workload, traced, problems):
    (info_a, run_a), (info_b, run_b) = traced
    for name in COUNT_METRICS:
        a, b = run_a["metrics"][name]["value"], run_b["metrics"][name]["value"]
        if a != b:
            problems.append(f"{workload}: count {name} differs between runs: {a} vs {b}")
    for info, run in traced:
        coverage = run["metrics"]["trace.coverage"]["value"]
        children = info["samples"]["run_study_children_s"]
        top = next(iter(children), None)
        print(f"  trace coverage {coverage:.4f}, overhead "
              f"{run['metrics']['trace.overhead_s']['value']:+.3f} s, largest span below "
              f"run_study {top} ({children.get(top, 0.0):.2f} s; chosen to stress {STRESSED[workload]})")
        if coverage < MIN_COVERAGE:
            problems.append(f"{workload}: trace coverage {coverage:.4f} < {MIN_COVERAGE}")
    print("  counts: " + ", ".join(f"{n}={run_a['metrics'][n]['value']}" for n in COUNT_METRICS))


def main():
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]

    problems, raw = [], {}
    for workload in (w["name"] for w in spec["workloads"]):
        print(f"{workload}: {len(SEEDS)} end-to-end runs", flush=True)
        runs = [bench(workload, seed, seconds, 0) for seed in SEEDS]
        raw[workload] = {"end_to_end": runs}
        results = [r for _, r in runs]
        for seed, r in zip(SEEDS, results):
            if not r["correct"]:
                problems.append(f"{workload} seed {seed}: {r['failed']}/{r['attempted']} cases failed")
        check_spreads(spec, workload, results, problems)
        traced = [bench(workload, SEEDS[0], seconds, 1) for _ in range(2)]
        raw[workload]["traced"] = traced
        for _, r in traced:
            if not r["correct"]:
                problems.append(f"{workload} traced: {r['failed']}/{r['attempted']} cases failed")
        check_trace(workload, traced, problems)
        sys.stdout.flush()

    out = ROOT / ".perfbench-out"
    out.mkdir(exist_ok=True)
    with open(out / "steady.json", "w") as fh:
        json.dump({"seeds": SEEDS, "runs": raw, "problems": problems}, fh, indent=1)
    for p in problems:
        print(f"PROBLEM {p}")
    print("steady" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
