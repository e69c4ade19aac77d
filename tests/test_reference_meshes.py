"""The generator gate: ``generate_cvt(n, seed=7, lloyd_iters=100)`` against the
checked-in meshes of ``meshes/``, byte for byte.

The files were written by ``export_mesh`` from the generator they pin, and
``import_mesh`` gives back exactly the vertices and corners it wrote.  Each
mesh must come back with the same vertices, corners, offsets and edges, and
with the same total of qhull calls and flips over its Lloyd steps.  A change
to the Lloyd arithmetic that moves a mesh by design rewrites the files with

    PYTHONPATH=src python tests/test_reference_meshes.py

and re-bases the counts below, naming them.
"""

from pathlib import Path

import numpy as np
import pytest

from ipvem.mesh import export_mesh, generate_cvt, import_mesh

MESHES = Path(__file__).with_name("meshes")
#: cells -> (sum of delaunay_calls, sum of lloyd_flips) at seed 7, 100 Lloyd steps
COUNTS = {32: (3, 70), 64: (5, 139), 128: (4, 260), 256: (6, 431), 512: (7, 785)}


def path_of(n):
    return MESHES / f"cvt{n}_seed7.txt"


@pytest.mark.parametrize("n", list(COUNTS))
def test_generated_mesh_matches_its_file(n):
    got = generate_cvt(n, seed=7, lloyd_iters=100)
    want = import_mesh(path_of(n).read_text())
    for name in ("vertices", "corners", "offsets", "edges"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), name
    assert (sum(got.delaunay_calls), sum(got.lloyd_flips)) == COUNTS[n]


if __name__ == "__main__":
    for n in COUNTS:
        path_of(n).write_text(export_mesh(generate_cvt(n, seed=7, lloyd_iters=100)))
