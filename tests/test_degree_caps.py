"""A degree cap stops a computation or changes nothing: every fixture
command of `golden_outputs.json`, rerun under `--degree-cap`, either prints
its golden output byte for byte with the same exit code, or exits 1 (a
computation failure) naming `DegreeCapExceeded` on stderr."""

import json

import pytest

from golden import GOLDEN, run

RECORDS = json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("cap", [1, 2, 3, 4, 6])
def test_degree_cap_stops_or_matches_golden(cap):
    wrong = []
    for r in RECORDS:
        rc, out, err = run(r["fixture"], r["command"], r["prime"], degree_cap=cap)
        if (rc, out, err) == (r["rc"], r["stdout"], r["stderr"]):
            continue
        if rc == 1 and "DegreeCapExceeded" in err:
            continue
        wrong.append((r["fixture"], r["command"], r["prime"], rc, out, err))
    assert not wrong
