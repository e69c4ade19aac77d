"""Batch driver for convergence studies and field export.

A study sweeps a mesh sequence against a list of perturbation parameters,
solves each case, and writes a CSV table plus a JSON report embedding the
full convergence data.  Configuration comes from a JSON file, command-line
flags, or both (flags win).
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
import time
from dataclasses import dataclass, field, asdict

import numpy as np

from . import forms, mesh, projectors, system, verify

log = logging.getLogger(__name__)

CSV_HEADER = "example,eps,n_cells,h_max,E_I,H2_part,H1_part,J1_energy,rate_fit,wall_ms"

EXIT_OK = 0
EXIT_RUN_FAILED = 1
EXIT_BAD_CONFIG = 2


class ConfigError(ValueError):
    """Invalid study configuration."""


@dataclass
class StudyConfig:
    example: int = 1
    eps: list = field(default_factory=lambda: [1.0])
    mesh_kind: str = "cvt"          # cvt | uniform | files
    sizes: list = field(default_factory=lambda: [32, 64, 128])
    mesh_files: list = field(default_factory=list)
    penalty_a: float = 2.0
    seed: int = 7
    lloyd_iters: int = 100
    out_dir: str = "study-out"
    error_norm: str = "interp-energy"   # or "projection"

    def validate(self):
        if not self.eps:
            raise ConfigError("eps list must not be empty")
        for e in self.eps:
            if not (0.0 < e <= 1.0):
                raise ConfigError(f"eps must lie in (0, 1], got {e}")
        if self.mesh_kind not in ("cvt", "uniform", "files"):
            raise ConfigError(f"unknown mesh kind {self.mesh_kind!r}")
        if self.mesh_kind == "files":
            if not self.mesh_files:
                raise ConfigError("mesh_kind 'files' needs mesh_files")
        else:
            if not self.sizes:
                raise ConfigError("sizes must not be empty")
            if any(b <= a for a, b in zip(self.sizes, self.sizes[1:])):
                raise ConfigError("sizes must be strictly increasing")
        if not self.penalty_a > 1.0:
            raise ConfigError(f"penalty constant must exceed 1, got {self.penalty_a}")
        if self.error_norm not in ("interp-energy", "projection"):
            raise ConfigError(f"unknown error norm {self.error_norm!r}")
        for name in ("example", "seed", "lloyd_iters"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int) or value < 0:
                raise ConfigError(f"{name} must be a nonnegative integer, got {value!r}")
        if self.example not in verify.EXAMPLES:
            raise ConfigError(f"unknown example {self.example!r}")
        return self


@dataclass
class StudyOutput:
    config: StudyConfig
    report: verify.ConvergenceReport
    rows: list
    failures: list
    meshes: list = field(default_factory=list)
    final: Discretization | None = None     # the last mesh's, if it was built
    csv_path: str = ""
    report_path: str = ""

    @property
    def exit_code(self):
        return EXIT_RUN_FAILED if self.failures else EXIT_OK


class _StageClock:
    """Wall seconds of consecutive stages: each ``lap`` closes one."""

    def __init__(self):
        self.seconds = {}
        self._last = time.perf_counter()

    def lap(self, stage):
        now = time.perf_counter()
        self.seconds[stage] = now - self._last
        self._last = now


@dataclass(eq=False)
class Discretization:
    """Everything of one mesh that does not depend on eps.

    The operator is eps^2 * parts.hess + parts.grad and the load vector
    eps^2 * rhs4 + rhs2, so every eps costs one reduction, one solve and one
    error evaluation.  ``seconds`` holds the wall time of each set-up stage.
    """

    mesh: mesh.PolygonalMesh
    elements: list
    dof_map: system.GlobalDofMap
    parts: system.OperatorParts
    rhs4: np.ndarray
    rhs2: np.ndarray
    error_data: verify.ErrorData
    seconds: dict

    def reduced(self, eps):
        """The boundary-reduced linear system at ``eps``."""
        rhs = eps**2 * self.rhs4 + self.rhs2
        return system.reduce_system(self.parts.hess, self.parts.grad, rhs, eps, self.dof_map)

    def solve(self, eps):
        return system.solve(self.reduced(eps))

    def error(self, solution, norm="interp-energy"):
        """Error record of ``solution`` with its penalty energy and solve
        diagnostics filled in."""
        rec = verify.energy_error(self.error_data, solution, parts=self.parts, norm=norm)
        rec.j1_energy = verify.j1_energy(solution, self.parts.j1)
        rec.solve = solution.diagnostics
        return rec


def discretize(mesh_obj, msol, penalty_a=2.0):
    """Build the :class:`Discretization` of ``mesh_obj`` for the manufactured
    solution ``msol``, timing each stage."""
    clock = _StageClock()
    elements = projectors.build_elements(mesh_obj)
    clock.lap("elements")
    dof_map = system.number_dofs(mesh_obj)
    lf = forms.build_local_forms(mesh_obj, elements)
    stencils = forms.build_edge_stencils(mesh_obj, elements, penalty_a)
    clock.lap("forms_stencils")
    parts = system.build_operator_parts(mesh_obj, dof_map, lf, stencils)
    clock.lap("operator_parts")
    rhs4, rhs2 = (
        system.load_vector(mesh_obj, dof_map, [forms.local_load(el, f) for el in elements])
        for f in verify.forcing_parts(msol)
    )
    clock.lap("loads")
    error_data = verify.build_error_data(mesh_obj, dof_map, elements, msol)
    clock.lap("error_data")
    return Discretization(mesh_obj, elements, dof_map, parts, rhs4, rhs2, error_data, clock.seconds)


def _mesh_from_file(path):
    with open(path) as fh:
        return mesh.import_mesh(fh.read())


def _study_meshes(config):
    """(label, factory) pairs of the study sequence; factories may fail."""
    if config.mesh_kind == "files":
        return [(path, lambda p=path: _mesh_from_file(p)) for path in config.mesh_files]
    if config.mesh_kind == "uniform":
        return [(f"uniform-{n}", lambda n=n: mesh.generate_uniform_squares(n)) for n in config.sizes]
    return [
        (f"cvt-{n}", lambda n=n: mesh.generate_cvt(n, seed=config.seed, lloyd_iters=config.lloyd_iters))
        for n in config.sizes
    ]


def run_study(config, progress=None):
    """Run the configured sweep; failures are recorded, not propagated.

    Each mesh is discretized once and the discretization is reused across
    the eps values; its set-up stages are timed into ``StudyOutput.meshes``
    and the last mesh's discretization is kept as ``StudyOutput.final``.
    """
    config.validate()
    msol = verify.example_solution(config.example)
    records = {e: [] for e in config.eps}
    rows, failures, meshes = [], [], []

    for label, factory in _study_meshes(config):
        # release the previous mesh's discretization before building this one
        disc = None
        t0 = time.perf_counter()
        try:
            m = factory()
            mesh_s = time.perf_counter() - t0
            disc = discretize(m, msol, config.penalty_a)
        except Exception as exc:  # noqa: BLE001 - study must survive bad runs
            failures.append({"mesh": label, "eps": None, "error": repr(exc)})
            log.error("mesh stage failed for %s: %r", label, exc)
            continue
        seconds = {"mesh": mesh_s, **disc.seconds}
        meshes.append({"label": label, "n_cells": m.n_cells, "seconds": seconds})
        log.info(
            "%s: %d cells, %d free DoFs, set-up %s",
            label,
            m.n_cells,
            np.count_nonzero(disc.dof_map.free),
            " ".join(f"{stage} {t:.3f}s" for stage, t in seconds.items()),
        )

        for eps in config.eps:
            t0 = time.perf_counter()
            try:
                rec = disc.error(disc.solve(eps), config.error_norm)
            except Exception as exc:  # noqa: BLE001
                failures.append({"mesh": label, "eps": eps, "error": repr(exc)})
                log.error("run failed for %s, eps=%g: %r", label, eps, exc)
                continue
            wall_ms = (time.perf_counter() - t0) * 1e3
            records[eps].append(rec)
            series = records[eps]
            rate = 0.0
            if len(series) >= 2:
                rate = verify.fit_rate([r.h_max for r in series], [r.e_total for r in series])
            rows.append(
                {
                    "example": config.example,
                    "eps": eps,
                    "n_cells": rec.n_cells,
                    "h_max": rec.h_max,
                    "E_I": rec.e_total,
                    "H2_part": rec.h2_part,
                    "H1_part": rec.h1_part,
                    "J1_energy": rec.j1_energy,
                    "rate_fit": rate,
                    "wall_ms": wall_ms,
                }
            )
            if progress:
                progress(rows[-1])

    report = verify.ConvergenceReport(
        records=records, seed=config.seed, penalty_a=config.penalty_a
    ).finalize()
    return StudyOutput(
        config=config, report=report, rows=rows, failures=failures, meshes=meshes, final=disc
    )


def write_outputs(output, out_dir=None):
    """Write the CSV table and the JSON report; returns their paths."""
    import os

    out_dir = out_dir or output.config.out_dir
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, "study.csv")
    with open(csv_path, "w") as fh:
        fh.write(CSV_HEADER + "\n")
        for row in output.rows:
            fh.write(
                f"{row['example']},{row['eps']!r},{row['n_cells']},{row['h_max']!r},"
                f"{row['E_I']!r},{row['H2_part']!r},{row['H1_part']!r},"
                f"{row['J1_energy']!r},{row['rate_fit']!r},{row['wall_ms']:.3f}\n"
            )
    report_path = os.path.join(out_dir, "report.json")
    rep = output.report
    payload = {
        "config": asdict(output.config),
        "failures": output.failures,
        "meshes": output.meshes,
        "rates_vs_h": {repr(k): v for k, v in rep.rates_h.items()},
        "rates_vs_sqrt_cells": {repr(k): v for k, v in rep.rates_n.items()},
        "records": {
            repr(eps): [
                {
                    "n_cells": r.n_cells,
                    "h_max": r.h_max,
                    "E_I": r.e_total,
                    "H2_part": r.h2_part,
                    "H1_part": r.h1_part,
                    "J1_energy": r.j1_energy,
                    "norm": r.norm,
                    "proj_h2": r.proj_h2,
                    "proj_h1": r.proj_h1,
                    "proj_h1_via_h2": r.proj_h1_via_h2,
                    "solve_method": r.solve.get("method"),
                    "solve_residual": r.solve.get("residual"),
                    "refine_steps": r.solve.get("refine_steps"),
                    "n_free": r.solve.get("n_free"),
                    "nnz": r.solve.get("nnz"),
                }
                for r in recs
            ]
            for eps, recs in rep.records.items()
        },
    }
    with open(report_path, "w") as fh:
        json.dump(payload, fh, indent=1)
    output.csv_path = csv_path
    output.report_path = report_path
    return csv_path, report_path


def export_solution_fields(mesh_obj, dof_map, elements, solution, path, msol=None):
    """Write the solution in legacy VTK unstructured-grid text format.

    Each cell gets its own copies of its vertices plus the centroid, sampled
    with the cell's h1-projected polynomial, so the discontinuous field is
    representable; exact-solution samples ride along when ``msol`` is given.
    """
    points, polys, uh_vals, ex_vals = [], [], [], []
    cell_uh, cell_ex = [], []
    for el in elements:
        chi = solution.values[system.cell_dof_indices(dof_map, mesh_obj, el.cell_id)]
        poly = el.projectors.h1_coeff @ chi
        verts = el.geometry.vertices
        base = len(points)
        sample = np.vstack([verts, el.geometry.centroid[None, :]])
        vals = el.basis.evaluate(sample) @ poly
        points.extend(sample.tolist())
        uh_vals.extend(vals.tolist())
        polys.append([base + i for i in range(len(verts))])
        cell_uh.append(float(vals[-1]))
        if msol is not None:
            exact = msol(sample[:, 0], sample[:, 1])
            ex_vals.extend(np.asarray(exact).tolist())
            cell_ex.append(float(np.asarray(exact)[-1]))

    with open(path, "w") as fh:
        fh.write("# vtk DataFile Version 3.0\n")
        fh.write("ipvem solution field\n")
        fh.write("ASCII\nDATASET UNSTRUCTURED_GRID\n")
        fh.write(f"POINTS {len(points)} double\n")
        for x, y in points:
            fh.write(f"{x!r} {y!r} 0.0\n")
        total = sum(len(p) + 1 for p in polys)
        fh.write(f"CELLS {len(polys)} {total}\n")
        for p in polys:
            fh.write(" ".join([str(len(p))] + [str(i) for i in p]) + "\n")
        fh.write(f"CELL_TYPES {len(polys)}\n")
        fh.write("\n".join(["7"] * len(polys)) + "\n")
        fh.write(f"POINT_DATA {len(points)}\n")
        fh.write("SCALARS u_h double 1\nLOOKUP_TABLE default\n")
        fh.write("\n".join(repr(v) for v in uh_vals) + "\n")
        if msol is not None:
            fh.write("SCALARS u_exact double 1\nLOOKUP_TABLE default\n")
            fh.write("\n".join(repr(v) for v in ex_vals) + "\n")
        fh.write(f"CELL_DATA {len(polys)}\n")
        fh.write("SCALARS u_h_centroid double 1\nLOOKUP_TABLE default\n")
        fh.write("\n".join(repr(v) for v in cell_uh) + "\n")
        if msol is not None:
            fh.write("SCALARS u_exact_centroid double 1\nLOOKUP_TABLE default\n")
            fh.write("\n".join(repr(v) for v in cell_ex) + "\n")
    return path


def load_config(path=None, overrides=None):
    data = {}
    if path:
        with open(path) as fh:
            data = json.load(fh)
    if overrides:
        data.update({k: v for k, v in overrides.items() if v is not None})
    known = {f.name for f in StudyConfig.__dataclass_fields__.values()}
    unknown = set(data) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    return StudyConfig(**data).validate()


def _build_parser():
    parser = argparse.ArgumentParser(prog="ipvem", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    study = sub.add_parser("study", help="run a convergence study")
    study.add_argument("--config", help="JSON config file")
    study.add_argument("--example", type=int, help="manufactured solution id (1 or 2)")
    study.add_argument("--eps", type=float, action="append", help="perturbation parameter (repeatable)")
    study.add_argument("--mesh-kind", choices=["cvt", "uniform", "files"], dest="mesh_kind")
    study.add_argument("--sizes", help="comma-separated mesh sizes, e.g. 32,64,128")
    study.add_argument("--mesh-file", action="append", dest="mesh_files", help="mesh file (repeatable)")
    study.add_argument("--seed", type=int)
    study.add_argument("--lloyd-iters", type=int, dest="lloyd_iters")
    study.add_argument("--penalty-a", type=float, dest="penalty_a")
    study.add_argument("--out-dir", dest="out_dir")
    study.add_argument("--error-norm", choices=["interp-energy", "projection"], dest="error_norm")

    gen = sub.add_parser("genmesh", help="generate a mesh and write it as text")
    gen.add_argument("--kind", choices=["cvt", "uniform"], default="cvt")
    gen.add_argument("--cells", type=int, required=True)
    gen.add_argument("--seed", type=int, default=7)
    gen.add_argument("--lloyd-iters", type=int, default=100)
    gen.add_argument("-o", "--output", required=True)
    return parser


def main(argv=None):
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    args = _build_parser().parse_args(argv)

    if args.command == "genmesh":
        if args.kind == "uniform":
            n = int(round(args.cells**0.5))
            m = mesh.generate_uniform_squares(n)
        else:
            m = mesh.generate_cvt(args.cells, seed=args.seed, lloyd_iters=args.lloyd_iters)
        with open(args.output, "w") as fh:
            fh.write(mesh.export_mesh(m))
        print(f"wrote {args.output}: {m.n_cells} cells, {m.n_vertices} vertices")
        return EXIT_OK

    overrides = {
        "example": args.example,
        "eps": args.eps,
        "mesh_kind": args.mesh_kind,
        "sizes": [int(s) for s in args.sizes.split(",")] if args.sizes else None,
        "mesh_files": args.mesh_files,
        "seed": args.seed,
        "lloyd_iters": args.lloyd_iters,
        "penalty_a": args.penalty_a,
        "out_dir": args.out_dir,
        "error_norm": args.error_norm,
    }
    try:
        config = load_config(args.config, overrides)
    except (ConfigError, OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG

    def progress(row):
        print(
            f"example {row['example']} eps={row['eps']:g} N={row['n_cells']:5d} "
            f"h={row['h_max']:.4f} E_I={row['E_I']:.6e} rate={row['rate_fit']:.2f} "
            f"({row['wall_ms']:.0f} ms)"
        )

    output = run_study(config, progress=progress)
    csv_path, report_path = write_outputs(output)
    print(f"wrote {csv_path} and {report_path}")
    for failure in output.failures:
        print(f"FAILED {failure['mesh']} eps={failure['eps']}: {failure['error']}", file=sys.stderr)
    return output.exit_code


if __name__ == "__main__":
    sys.exit(main())
