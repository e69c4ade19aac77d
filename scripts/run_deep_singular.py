#!/usr/bin/env python3
"""Example 2 at eps = 1e-10: the solver runs far into the singular limit and
keeps first-order convergence.  Also exports the finest solution field in
VTK format for plotting."""

import os
import sys

from ipvem import cli, verify


def main():
    out_dir = sys.argv[1] if len(sys.argv) > 1 else "out/deep-singular"
    eps = 1e-10
    config = cli.StudyConfig(
        example=2,
        eps=[eps],
        mesh_kind="cvt",
        sizes=[32, 64, 128, 256, 512],
        seed=7,
        lloyd_iters=100,
        out_dir=out_dir,
    )
    output = cli.run_study(config)
    cli.write_outputs(output)
    print(f"fitted rate vs h: {output.report.rates_h[eps]:.3f}")

    # re-solve the finest mesh to export the field alongside the exact one
    final = output.final
    if final is None:
        print("finest mesh failed; no field exported", file=sys.stderr)
        return cli.EXIT_RUN_FAILED
    path = os.path.join(out_dir, f"solution-{final.mesh.n_cells}.vtk")
    cli.export_solution_fields(final.elements, final.solve(eps), path, msol=verify.example_solution(2))
    print(f"wrote {path}")
    return output.exit_code


if __name__ == "__main__":
    sys.exit(main())
