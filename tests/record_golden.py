"""Record the output of every fixture command into golden_outputs.json.

    PYTHONPATH=src:tests python tests/record_golden.py

Run only for an intended change of output, and name the change in
CHANGES.md: `test_golden.py` fails on any byte that differs from the file.
"""

import json

from golden import GOLDEN, fixture_commands, run


def main():
    records = []
    for fixture, words, prime in fixture_commands():
        rc, out, err = run(fixture, words, prime)
        records.append(
            {"fixture": fixture, "command": words, "prime": prime,
             "rc": rc, "stdout": out, "stderr": err}
        )
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(records, fh, indent=1)
        fh.write("\n")
    print(f"{len(records)} commands recorded in {GOLDEN.name}")


if __name__ == "__main__":
    main()
