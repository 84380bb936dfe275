"""Record the expected output of every fixed job into expected.json.

    python3 perfbench/record_expected.py

Run once at the commit whose outputs are the reference; the benchmark then
counts any job whose exit code or stdout differs as failed.
"""

from __future__ import annotations

import json
import sys

import calibrate
import run
import workloads


def main():
    sys.path.insert(0, str(run.SRC))
    from amalgams.cli import main as cli_main

    run.WORK.mkdir(parents=True, exist_ok=True)
    alarm = run.Alarm()
    expected = {}
    for job in workloads.all_fixed():
        path = None
        if job.text is not None:
            path = run.WORK / f"record-{job.name}.alg"
            path.write_text(job.text, encoding="utf-8")
        (seconds, _, _), rc, lines = run.run_job(cli_main, job.argv(str(path)), alarm,
                                                 calibrate.HostSpeed(), 600)
        if not isinstance(rc, int):
            sys.exit(f"{job.name}: {rc}")
        expected[job.name] = {"rc": rc, "stdout": lines}
        print(f"{job.name}: exit {rc} in {seconds:.2f} s", file=sys.stderr)
    with open(run.EXPECTED, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
