"""Every fixture command prints what `golden_outputs.json` recorded, byte
for byte, with the same exit code (see golden.py and record_golden.py)."""

import json

import pytest

from golden import GOLDEN, fixture_commands, run

RECORDS = json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_file_covers_every_fixture_command():
    recorded = [(r["fixture"], r["command"], r["prime"]) for r in RECORDS]
    assert recorded == fixture_commands()


@pytest.mark.parametrize(
    "record", RECORDS,
    ids=[f"{r['fixture']}:{'-'.join(r['command'])}:{r['prime']}" for r in RECORDS],
)
def test_fixture_command_matches_golden(record):
    got = run(record["fixture"], record["command"], record["prime"])
    assert got == (record["rc"], record["stdout"], record["stderr"])
