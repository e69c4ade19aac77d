"""The records of the seed-7 reference studies, pinned to the checked-in
``reference_records.json`` far tighter than the acceptance criteria's factor
of two: a change that is meant to keep the records must keep them here.
The studies run on the pinned meshes of ``meshes/`` (imported, not
generated), so a change to the Lloyd arithmetic meets the generator gate of
``test_reference_meshes.py``, which also pins the meshes' qhull calls and
flips, and not this one.

A change that moves a field by design regenerates the file with

    PYTHONPATH=src python tests/test_reference_records.py

and states the field and its largest change.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from ipvem import cli, system

PATH = Path(__file__).with_name("reference_records.json")


def cvt(*sizes):
    """The study keys of the pinned seed-7 CVT meshes (100 Lloyd steps) of ``sizes`` cells."""
    return {"mesh_kind": "files", "mesh_files": [str(PATH.with_name("meshes") / f"cvt{n}_seed7.txt") for n in sizes]}


STUDIES = {
    # the paper's table: example 1, six eps, CVT 32..512
    "reference": {"example": 1, "eps": [1.0, 1e-1, 1e-2, 1e-3, 1e-4, 1e-5], **cvt(32, 64, 128, 256, 512)},
    # the deep-singular study: example 2 at eps = 1e-10
    "deep_singular": {"example": 2, "eps": [1e-10], **cvt(32, 64, 128, 256, 512)},
    # eleven eps on one mesh, most of them solved from a held factor
    "sweep_512": {"example": 1, "eps": [10.0**-k for k in range(11)], **cvt(512)},
}
#: relative tolerance of each float field; every other field must be equal
RELATIVE = {
    **dict.fromkeys(["E_I", "H2_part", "H1_part", "proj_h2", "proj_h1", "proj_h1_via_h2"], 1e-12),
    "J1_energy": 1.2e-11,  # the measured agreement of held and fresh factors
}
EXACT = ["n_cells", "n_free", "nnz", "factor_eps", "refine_steps"]


def records_of(name):
    """The pinned fields of a fresh run of the study ``name``."""
    out = cli.run_study(cli.StudyConfig(**STUDIES[name]))
    assert not out.failures
    return {
        "records": {
            repr(eps): [{k: rec[k] for k in EXACT + list(RELATIVE)} for rec in map(cli._report_record, recs)]
            for eps, recs in out.report.records.items()
        },
    }


@pytest.mark.skipif(system.SOLUTION_DTYPE is np.float64, reason="long double is double on this platform")
@pytest.mark.parametrize("name", list(STUDIES))
def test_records_match_the_reference(name):
    expected, got = json.loads(PATH.read_text())[name], records_of(name)
    assert got["records"].keys() == expected["records"].keys()
    for eps, recs in expected["records"].items():
        assert len(got["records"][eps]) == len(recs)
        for new, old in zip(got["records"][eps], recs):
            assert {k: new[k] for k in EXACT} == {k: old[k] for k in EXACT}, (eps, old["n_cells"])
            for key, rel in RELATIVE.items():
                assert abs(new[key] - old[key]) <= rel * abs(old[key]), (eps, old["n_cells"], key)


if __name__ == "__main__":
    PATH.write_text(json.dumps({name: records_of(name) for name in STUDIES}, indent=1) + "\n")
