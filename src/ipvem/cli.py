"""Batch driver for convergence studies and field export.

A study sweeps a mesh sequence against a list of perturbation parameters,
solves each case, and writes a CSV table plus a JSON report embedding the
full convergence data.  Configuration comes from a JSON file, command-line
flags, or both (flags win).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import logging
import math
import numbers
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, asdict

import numpy as np

from . import basis, forms, mesh, projectors, system, verify

log = logging.getLogger(__name__)

CSV_HEADER = "example,eps,n_cells,h_max,E_I,H2_part,H1_part,J1_energy,rate_fit,wall_ms"

EXIT_OK = 0
EXIT_RUN_FAILED = 1
EXIT_BAD_CONFIG = 2


class ConfigError(ValueError):
    """Invalid study configuration."""


def _is_real(value):
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _is_int(value):
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_list_of(value, check):
    return isinstance(value, (list, tuple)) and all(check(v) for v in value)


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

    def validate(self):
        for name, check, kind in (
            ("eps", _is_real, "numbers"),
            ("sizes", _is_int, "integers"),
            ("mesh_files", lambda v: isinstance(v, str), "strings"),
        ):
            value = getattr(self, name)
            if not _is_list_of(value, check):
                raise ConfigError(f"{name} must be a list of {kind}, got {value!r}")
        if not _is_real(self.penalty_a):
            raise ConfigError(f"penalty constant must be a number, got {self.penalty_a!r}")
        if not isinstance(self.out_dir, str) or not self.out_dir:
            raise ConfigError(f"out_dir must be a non-empty string, got {self.out_dir!r}")
        ancestor = os.path.abspath(self.out_dir)
        while not os.path.exists(ancestor):  # the nearest existing ancestor: the root at the latest
            ancestor = os.path.dirname(ancestor)
        if not os.path.isdir(ancestor):
            raise ConfigError(f"out_dir {self.out_dir!r}: {ancestor!r} exists and is not a directory")
        if not self.eps:
            raise ConfigError("eps list must not be empty")
        for e in self.eps:
            if not (0.0 < e <= 1.0):
                raise ConfigError(f"eps must lie in (0, 1], got {e}")
        if len(set(self.eps)) != len(self.eps):
            raise ConfigError(f"eps values must be distinct, got {self.eps}")
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
            # the fewest CVT generators, or uniform cells per side, a generator accepts
            smallest = {"cvt": 2, "uniform": 1}[self.mesh_kind]
            if self.sizes[0] < smallest:
                raise ConfigError(f"{self.mesh_kind} sizes must be at least {smallest}, got {self.sizes[0]}")
        if not 1.0 < self.penalty_a < math.inf:
            raise ConfigError(f"penalty constant must be finite and exceed 1, got {self.penalty_a}")
        for name in ("example", "seed", "lloyd_iters"):
            value = getattr(self, name)
            if not _is_int(value) or value < 0:
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

    The operator is eps^2 * hess + grad, with the two operator parts of
    :func:`system.build_operator_parts` on the free DoFs (``free_parts``,
    on one shared pattern), and the load vector eps^2 * rhs4 + rhs2; so
    every eps costs one axpy on that pattern's data, one solve and one
    error evaluation from cell and edge arrays (``error_data``).
    ``seconds`` holds the wall time of each set-up stage; ``loads``, built
    beside ``forms_stencils`` and ``operator_parts``, overlaps them.  Every
    system of the mesh carries the factors of ``free_parts`` (see
    :func:`system.solve`).
    """

    mesh: mesh.PolygonalMesh
    elements: projectors.Elements
    dof_map: system.GlobalDofMap
    free_parts: system.FreeParts
    rhs4: np.ndarray
    rhs2: np.ndarray
    error_data: verify.ErrorData
    seconds: dict

    def reduced(self, eps):
        """The boundary-reduced linear system at ``eps``."""
        return system.combine(self.free_parts, eps**2 * self.rhs4 + self.rhs2, eps)

    def solve(self, eps):
        return system.solve(self.reduced(eps))

    def error(self, solution):
        """Error record of ``solution`` with its solve diagnostics filled in."""
        rec = verify.energy_error(self.error_data, solution)
        rec.solve = solution.diagnostics
        return rec


def _loads(elements, msol):
    """The loads of :func:`discretize`'s second lane: the table of the exact
    partials at the fan points, ``rhs4``, ``rhs2`` and the lane's wall seconds."""
    start = time.perf_counter()
    exact = msol.at(*elements.fan_rule.points.T)
    rhs4 = system.load_vector(elements, verify.biharmonic(exact))
    rhs2 = system.load_vector(elements, verify.neg_laplacian(exact))
    return exact, rhs4, rhs2, time.perf_counter() - start


def discretize(mesh_obj, msol, penalty_a=2.0, first_eps=None):
    """Build the :class:`Discretization` of ``mesh_obj`` for the manufactured
    solution ``msol``, timing each stage.  A second thread, the lane, builds
    the loads (:func:`_loads`) beside the forms and the operator parts
    (``loads_wait``: the wait for them), then the factor a first solve at
    ``first_eps`` makes (:meth:`system.FreeParts.begin`), if given, beside the
    error data, which shares the loads' table of the exact partials at the fan
    points (``factor_wait``: the heap trim and the wait for the factor)."""
    clock = _StageClock()
    elements = projectors.build_elements(mesh_obj)
    clock.lap("elements")
    # the loads call no scipy BLAS, the factor pins it only while it runs; the with block joins on every exit
    with ThreadPoolExecutor(1) as lane:
        loads = lane.submit(_loads, elements, msol)
        dof_map = system.number_dofs(mesh_obj)
        cell_forms = forms.build_local_forms(elements)
        traces = forms.build_edge_stencils(mesh_obj, elements, penalty_a)
        clock.lap("forms_stencils")
        free_parts = system.build_operator_parts(dof_map, cell_forms, traces)
        clock.lap("operator_parts")
        exact, rhs4, rhs2, clock.seconds["loads"] = loads.result()
        clock.lap("loads_wait")
        first = None if first_eps is None else free_parts.begin(first_eps, lane)
        error_data = verify.build_error_data(mesh_obj, cell_forms, traces, msol, exact)
        clock.lap("error_data")
        del loads, exact, cell_forms, traces  # free the set-up's temporaries for the trim
        if first is not None:
            system.MALLOC_TRIM(0)  # beside the factor's end
            with contextlib.suppress(system.SolveError):  # it holds no eps: the first solve makes it again
                first.result()
    clock.lap("factor_wait")
    return Discretization(mesh_obj, elements, dof_map, free_parts, rhs4, rhs2, error_data, clock.seconds)


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


def run_study(config, progress=None, after_mesh=None):
    """Run the configured sweep; failures are recorded, not propagated.

    Each mesh is discretized once and the discretization is reused across
    the eps values; its set-up stages are timed into ``StudyOutput.meshes``
    and the last mesh's discretization is kept as ``StudyOutput.final``.
    The factors a mesh's solves share are released after its last solve.
    ``progress`` is called with each row, and ``after_mesh``, if given, with
    the output so far after each mesh (``ipvem study`` writes it there, so a
    study killed during a mesh keeps every record finished before it).
    """
    config.validate()
    msol = verify.example_solution(config.example)
    records = {e: [] for e in config.eps}
    rows, failures, meshes = [], [], []
    output = StudyOutput(config=config, report=None, rows=rows, failures=failures, meshes=meshes)

    def report():
        return verify.ConvergenceReport(records=records).finalize()

    def mesh_done(disc):
        output.final = disc
        if after_mesh:
            output.report = report()
            after_mesh(output)

    for label, factory in _study_meshes(config):
        # release the previous mesh's discretization before building this one
        disc = output.final = None
        t0 = time.perf_counter()
        try:
            m = factory()
            mesh_s = time.perf_counter() - t0
            disc = discretize(m, msol, config.penalty_a, first_eps=config.eps[0])
        except Exception as exc:  # noqa: BLE001 - study must survive bad runs
            failures.append({"mesh": label, "eps": None, "error": repr(exc)})
            log.error("mesh stage failed for %s: %r", label, exc)
            mesh_done(None)
            continue
        seconds = {"mesh": mesh_s, **disc.seconds}
        moves = m.lloyd_movement
        meshes.append(
            {
                "label": label,
                "n_cells": m.n_cells,
                "min_edge_length": m.min_edge_length(),
                "seconds": seconds,
                "lloyd_steps": None if moves is None else len(moves),
                "lloyd_final_movement": moves[-1] if moves else None,
                "delaunay_calls": None if moves is None else sum(m.delaunay_calls),
                "lloyd_flips": None if moves is None else sum(m.lloyd_flips),
            }
        )
        log.info(
            "%s: %d cells, %d free DoFs, set-up %s",
            label,
            m.n_cells,
            np.count_nonzero(disc.dof_map.free),
            " ".join(f"{stage} {t:.3f}s" for stage, t in seconds.items()),
        )

        for i, eps in enumerate(config.eps, 1):
            clock = _StageClock()
            try:
                reduced = disc.reduced(eps)
                clock.lap("reduce")
                solution = system.solve(reduced)
                if i == len(config.eps):
                    # no later solve on this mesh: free the factor before the error evaluation
                    disc.free_parts.release()
                clock.lap("solve")
                rec = disc.error(solution)
                clock.lap("error")
            except Exception as exc:  # noqa: BLE001
                failures.append({"mesh": label, "eps": eps, "error": repr(exc)})
                log.error("run failed for %s, eps=%g: %r", label, eps, exc)
                continue
            rec.seconds = clock.seconds
            records[eps].append(rec)
            series = records[eps]
            # fitted in order of decreasing h_max, whatever the mesh order
            rate = verify.series_rate([r.h_max for r in series], [r.e_total for r in series]) or 0.0
            wall_ms = sum(clock.seconds.values()) * 1e3
            rows.append(
                {"example": config.example, "eps": eps, **_error_fields(rec), "rate_fit": rate, "wall_ms": wall_ms}
            )
            if progress:
                progress(rows[-1])
        disc.free_parts.release()  # also after a failed last solve
        mesh_done(disc)
    output.report = report()
    return output


def _error_fields(rec):
    """The error fields of the :class:`verify.ErrorRecord` ``rec`` under
    their report names, in record order."""
    return {
        "n_cells": rec.n_cells, "h_max": rec.h_max, "E_I": rec.e_total, "H2_part": rec.h2_part,
        "H1_part": rec.h1_part, "J1_energy": rec.j1_energy, "proj_h2": rec.proj_h2, "proj_h1": rec.proj_h1,
        "proj_h1_via_h2": rec.proj_h1_via_h2,
    }


#: the solve diagnostics a report record writes under another name
_RENAMED = {"method": "solve_method", "residual": "solve_residual"}


def _report_record(rec):
    """The ``report.json`` record of ``rec``: its error fields, then every
    diagnostic of its solve, then its stage ``seconds``."""
    solve = {_RENAMED.get(key, key): value for key, value in rec.solve.items()}
    return {**_error_fields(rec), **solve, "seconds": rec.seconds}


def write_outputs(output, out_dir=None):
    """Write the CSV table and the JSON report; returns their paths."""
    out_dir = out_dir or output.config.out_dir
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, "study.csv")
    columns = CSV_HEADER.split(",")
    with open(csv_path, "w") as fh:
        fh.write(CSV_HEADER + "\n")
        for row in output.rows:
            fh.write(",".join(f"{row[c]:.3f}" if c == "wall_ms" else repr(row[c]) for c in columns) + "\n")
    report_path = os.path.join(out_dir, "report.json")
    rep = output.report
    payload = {
        "config": asdict(output.config),
        "failures": output.failures,
        "meshes": output.meshes,
        "rates_vs_h": {repr(k): v for k, v in rep.rates_h.items()},
        "rates_last_pair_vs_h": {repr(k): v for k, v in rep.rates_last_pair.items()},
        "rates_vs_sqrt_cells": {repr(k): v for k, v in rep.rates_n.items()},
        "records": {repr(eps): [_report_record(r) for r in recs] for eps, recs in rep.records.items()},
    }
    with open(report_path, "w") as fh:
        json.dump(payload, fh, indent=1)
    output.csv_path = csv_path
    output.report_path = report_path
    return csv_path, report_path


def export_solution_fields(elements, solution, path, msol=None):
    """Write the solution in legacy VTK unstructured-grid text format.

    Each cell gets its own copies of its vertices plus the centroid, sampled
    with the cell's h1-projected polynomial, so the discontinuous field is
    representable; exact-solution samples ride along when ``msol`` is given.
    """
    g = elements.geometry
    # the double rounding of the DoFs: tolist() of long doubles gives numpy reprs
    poly = np.einsum("ckn,cn->ck", elements.h1_coeff, np.asarray(solution.values, dtype=float)[elements.dofs])
    # every row's corners with its centroid appended, padded corners dropped
    sample = np.concatenate([g.vertices, g.centroid[:, None]], axis=1)
    keep = np.concatenate([g.valid, np.ones((len(g.valence), 1), dtype=bool)], axis=1)
    scaled = (sample - g.centroid[:, None]) / g.diameter[:, None, None]
    values = np.einsum("cpk,ck->cp", basis.monomials(scaled[..., 0], scaled[..., 1], basis.ORDER), poly)
    xy = sample[keep]
    points, uh_vals, cell_uh = xy.tolist(), values[keep].tolist(), values[:, -1].tolist()
    starts = np.cumsum(g.valence + 1) - (g.valence + 1)
    polys = [range(start, start + m) for start, m in zip(starts.tolist(), g.valence.tolist())]
    if msol is not None:
        exact = np.asarray(msol(xy[:, 0], xy[:, 1]))
        ex_vals, cell_ex = exact.tolist(), exact[starts + g.valence].tolist()

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
        if not isinstance(data, dict):
            raise ConfigError(f"config file must hold a JSON object, got {type(data).__name__}")
    if overrides:
        data.update({k: v for k, v in overrides.items() if v is not None})
    known = {f.name for f in StudyConfig.__dataclass_fields__.values()}
    unknown = set(data) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    return StudyConfig(**data).validate()


def _parse_sizes(text):
    """The mesh sizes of ``--sizes``, comma-separated integers."""
    try:
        return [int(s) for s in text.split(",")]
    except ValueError:
        raise ConfigError(f"sizes must be comma-separated integers, got {text!r}") from None


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
        try:
            if args.kind == "uniform":
                side = math.isqrt(max(args.cells, 0))
                if side * side != args.cells:
                    raise ValueError(f"a uniform mesh needs a positive square number of cells, got {args.cells}")
                m = mesh.generate_uniform_squares(side)
            else:
                m = mesh.generate_cvt(args.cells, seed=args.seed, lloyd_iters=args.lloyd_iters)
        except (ValueError, mesh.MeshError) as exc:
            print(f"genmesh error: {exc}", file=sys.stderr)
            return EXIT_BAD_CONFIG
        with open(args.output, "w") as fh:
            fh.write(mesh.export_mesh(m))
        print(f"wrote {args.output}: {m.n_cells} cells, {m.n_vertices} vertices")
        return EXIT_OK

    overrides = {k: v for k, v in vars(args).items() if k in StudyConfig.__dataclass_fields__}
    try:
        overrides["sizes"] = _parse_sizes(args.sizes) if args.sizes is not None else None
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

    output = run_study(config, progress=progress, after_mesh=write_outputs)
    print(f"wrote {output.csv_path} and {output.report_path}")
    for failure in output.failures:
        print(f"FAILED {failure['mesh']} eps={failure['eps']}: {failure['error']}", file=sys.stderr)
    return output.exit_code


if __name__ == "__main__":
    sys.exit(main())
