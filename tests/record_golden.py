"""Record the output of every fixture command into golden_outputs.json, and
the degree-cap sweep into golden_caps.json.

    PYTHONPATH=src:tests python tests/record_golden.py

Run only for an intended change of output, and name the change in
CHANGES.md: `test_golden.py` and `test_degree_caps.py` fail on any byte
that differs from the files.
"""

import json

from golden import (
    CAPS,
    GOLDEN,
    GOLDEN_CAPS,
    VERIFY_PAPER_CAPS,
    fixture_commands,
    run,
    run_argv,
)


def _dump(path, data):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1)
        fh.write("\n")


def main():
    records = []
    for fixture, words, prime in fixture_commands():
        rc, out, err = run(fixture, words, prime)
        records.append(
            {"fixture": fixture, "command": words, "prime": prime,
             "rc": rc, "stdout": out, "stderr": err}
        )
    _dump(GOLDEN, records)
    print(f"{len(records)} commands recorded in {GOLDEN.name}")

    stopped = {}
    for cap in CAPS:
        differ = stopped[str(cap)] = []
        for r in records:
            rc, out, err = run(r["fixture"], r["command"], r["prime"], cap)
            if (rc, out, err) != (r["rc"], r["stdout"], r["stderr"]):
                differ.append({**r, "rc": rc, "stdout": out, "stderr": err})
        print(f"cap {cap}: {len(differ)} of {len(records)} commands differ")
    verify = {}
    for cap in VERIFY_PAPER_CAPS:
        rc, out, err = run_argv(["verify-paper"], cap)
        verify[str(cap)] = {"rc": rc, "stdout": out, "stderr": err}
    _dump(GOLDEN_CAPS, {"stopped": stopped, "verify_paper": verify})
    print(f"degree-cap sweep recorded in {GOLDEN_CAPS.name}")


if __name__ == "__main__":
    main()
