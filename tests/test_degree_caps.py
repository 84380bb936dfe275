"""The `--degree-cap` sweep is pinned: at each cap of `golden_caps.json`,
exactly the commands recorded there stop, each exiting 1 with the recorded
stderr line naming `DegreeCapExceeded`, and every other fixture command
prints its golden output byte for byte.  `verify-paper` prints its
recorded output at the default cap and at every recorded cap."""

import json

import pytest

from golden import (
    CAPS,
    GOLDEN,
    GOLDEN_CAPS,
    VERIFY_PAPER_CAPS,
    run,
    run_argv,
)

RECORDS = json.loads(GOLDEN.read_text(encoding="utf-8"))
SWEEP = json.loads(GOLDEN_CAPS.read_text(encoding="utf-8"))


def _key(r):
    return (r["fixture"], tuple(r["command"]), r["prime"])


def test_sweep_file_covers_every_cap():
    assert sorted(SWEEP["stopped"]) == sorted(str(c) for c in CAPS)
    assert sorted(SWEEP["verify_paper"]) == sorted(str(c) for c in VERIFY_PAPER_CAPS)


@pytest.mark.parametrize("cap", CAPS)
def test_degree_cap_stops_or_matches_golden(cap):
    stopped = {_key(r): r for r in SWEEP["stopped"][str(cap)]}
    for r in stopped.values():
        assert r["rc"] == 1 and r["stdout"] == ""
        assert r["stderr"].startswith("error: DegreeCapExceeded: ")
        assert r["stderr"].count("\n") == 1
    wrong = []
    for r in RECORDS:
        want = stopped.get(_key(r), r)
        got = run(r["fixture"], r["command"], r["prime"], degree_cap=cap)
        if got != (want["rc"], want["stdout"], want["stderr"]):
            wrong.append((_key(r), got))
    assert not wrong


@pytest.mark.parametrize("cap", VERIFY_PAPER_CAPS)
def test_verify_paper_under_degree_cap(cap):
    want = SWEEP["verify_paper"][str(cap)]
    assert run_argv(["verify-paper"], cap) == (want["rc"], want["stdout"], want["stderr"])
