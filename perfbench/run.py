"""Benchmark of the `amalgams` CLI over four seeded workloads.

    python3 perfbench/run.py --workload present --seed 1 --seconds 24 --trace 0

Run from the root of a source checkout; the package is imported from its
`src/` directory.  Each job is one `amalgams FILE CMD` call, made in
process through `amalgams.cli.main(argv)` with stdout captured, one after
another from this single thread (a closed loop with one caller).  With
`--trace 0` the job list is run pass after pass for about `--seconds`
seconds, and the end-to-end metrics come from each job's median run, in
reference seconds: scaled by the host speed that calibrate.py samples
while the job runs.
With `--trace 1` a traced pass runs between two untraced ones, and the
per-layer metrics come from the traced one.  The last line of stdout is
the JSON result.  README.md in this directory describes the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import math
import resource
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

import calibrate
import tracing
import workloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORK = HERE / "_work"
EXPECTED = HERE / "expected.json"

LAYER_MODULES = ["poly", "gb", "series", "ring", "modules", "homology", "amalgam",
                 "finite", "cli"]
# Set-up runs this many times before the first pass and again after every
# timed pass, so that its median is taken across the whole run, as the job
# times are.
SETUP_REPEATS = 3
JOB_TIMEOUT_S = 60.0
# In a timed pass a small job runs until its runs add up to SAMPLE_S, so that
# its median is taken over several samples, as a large job's is over several
# passes.
SAMPLE_S = 0.1
MAX_REPEATS = 5
# A timed run makes at least this many passes, so that every job's median
# is taken over at least two samples however slow the machine is.
MIN_PASSES = 2
# Every job has started and ended by then, so the run exits within 180 s.
RUN_DEADLINE_S = 150.0


class JobTimeout(BaseException):
    """Raised by the alarm.  Not an OSError (TimeoutError is one), which
    `cli.main` would report as exit code 1 instead of letting it through."""


class Alarm:
    """Per-job time limit from SIGALRM, which starts no thread or process."""

    def __init__(self):
        self.armed = False
        signal.signal(signal.SIGALRM, self._fire)

    def _fire(self, signum, frame):
        if self.armed:
            self.armed = False
            raise JobTimeout()

    def start(self, seconds):
        self.armed = True
        signal.setitimer(signal.ITIMER_REAL, max(seconds, 0.001))

    def stop(self):
        self.armed = False
        signal.setitimer(signal.ITIMER_REAL, 0)


def fresh_cli():
    """Import the package anew, as each `amalgams` invocation does, so that
    no state survives from one job run to the next.  Returns `cli.main`."""
    for name in [n for n in sys.modules if n == "amalgams" or n.startswith("amalgams.")]:
        del sys.modules[name]
    for name in LAYER_MODULES:
        importlib.import_module(f"amalgams.{name}")
    return sys.modules["amalgams.cli"].main


def setup(workload, seed):
    """Import the package, build the job list, write the declaration files
    and load the expected outputs.  Returns (cli.main, jobs, paths, expected)."""
    main = fresh_cli()
    jobs = workloads.build(workload, seed)
    run_dir = WORK / f"{workload}-seed{seed}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    paths = {}
    for job in jobs:
        if job.text is not None:
            paths[job.name] = str(run_dir / f"{job.name}.alg")
            Path(paths[job.name]).write_text(job.text, encoding="utf-8")
    with open(EXPECTED, encoding="utf-8") as fh:
        expected = json.load(fh)
    return main, jobs, paths, expected


def run_job(main, argv, alarm, speed, limit_s):
    """((seconds net of the host speed sampler's time, start, end), exit
    code or failure text, stdout lines) of one call."""
    out = io.StringIO()
    span = (0.0, 0.0, 0.0)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            alarm.start(limit_s)
            overhead = speed.overhead
            start = time.perf_counter()
            try:
                rc = main(argv)
            finally:
                end = time.perf_counter()
                span = (end - start - (speed.overhead - overhead), start, end)
                alarm.stop()
    except JobTimeout:
        rc = f"timed out after {limit_s:.0f} s"
    except Exception as exc:  # the CLI must not raise; record and go on
        rc = f"raised {type(exc).__name__}: {exc}"
    finally:
        alarm.stop()
    return span, rc, out.getvalue().splitlines()


def check_job(job, rc, lines, expected):
    """Error message for a job's result, or None when it is correct."""
    if not isinstance(rc, int):
        return rc
    if job.fixed:
        want = expected.get(job.name)
        if want is None:
            return "no expected output recorded"
        if rc != want["rc"] or lines != want["stdout"]:
            return "output differs from the recorded output"
    for check in job.checks:
        message = check(rc, lines)
        if message:
            return message
    return None


def run_pass(main, jobs, paths, expected, alarm, speed, deadline, rows, label,
             sample_s=None):
    """Run every job of the list with `main`, or, when `sample_s` is given,
    with a freshly imported package for every run.  Then a job whose runs
    add up to less than `sample_s` runs again, up to MAX_REPEATS times.
    Returns (the (seconds, start, end) of each job's runs, in job order;
    runs; failed runs)."""
    times, runs, failures = [], 0, 0
    for job in jobs:
        samples = []
        while not samples or (sample_s is not None and sum(s[0] for s in samples) < sample_s
                              and len(samples) < MAX_REPEATS):
            limit = min(JOB_TIMEOUT_S, deadline - time.perf_counter())
            if limit <= 0:
                span, rc, lines = (0.0, 0.0, 0.0), "not started: run deadline passed", []
            else:
                if sample_s is not None:
                    main = fresh_cli()
                # Every run starts from the same collector state, so garbage
                # left by earlier jobs is not collected inside a small job.
                gc.collect()
                span, rc, lines = run_job(main, job.argv(paths.get(job.name)), alarm, speed,
                                          limit)
            error = check_job(job, rc, lines, expected)
            runs += 1
            failures += error is not None
            samples.append(span)
            rows.append((label, job.name, span, str(rc), error or "ok"))
            if error:
                break
        times.append(samples)
    return times, runs, failures


def pass_seconds(one_pass):
    """Measured seconds in the jobs of a pass."""
    return sum(span[0] for span in sum(one_pass[0], []))


def reference_seconds(span, speed):
    seconds, start, end = span
    return seconds * speed.scale(start, end)


def pass_metrics(passes, speed):
    """(wall_s, job_geomean_s) of each job's median run over the passes, in
    reference seconds."""
    medians = [statistics.median(reference_seconds(span, speed) for span in sum(runs, []))
               for runs in zip(*(p[0] for p in passes))]
    geomean = math.exp(statistics.fmean(math.log(max(t, 1e-9)) for t in medians))
    return sum(medians), geomean


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "amalgams" / "cli.py").is_file():
        print(f"error: no amalgams package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    deadline = time.perf_counter() + RUN_DEADLINE_S

    setup_times = []
    speed = calibrate.HostSpeed()

    def setup_round():
        for _ in range(SETUP_REPEATS):
            overhead = speed.overhead
            start = time.perf_counter()
            loaded = setup(args.workload, args.seed)
            end = time.perf_counter()
            setup_times.append((end - start - (speed.overhead - overhead), start, end))
        return loaded

    if not args.trace:
        speed.start()
    main_fn, jobs, paths, expected = setup_round()

    alarm = Alarm()
    rows, passes = [], []
    if args.trace:
        passes.append(run_pass(main_fn, jobs, paths, expected, alarm, speed, deadline, rows,
                               "untraced"))
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = run_pass(main_fn, jobs, paths, expected, alarm, speed, deadline, rows,
                              "traced")
        finally:
            tracer.uninstall()
        passes.append(traced)
        passes.append(run_pass(main_fn, jobs, paths, expected, alarm, speed, deadline, rows,
                               "untraced"))
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in tracer.metrics().items()}
        untraced = statistics.fmean(pass_seconds(p) for p in (passes[0], passes[2]))
        overhead = pass_seconds(traced) / untraced
        metrics["trace.overhead_ratio"] = {"value": overhead, "unit": "ratio"}
        print(f"absent: {', '.join(tracer.absent) or 'none'}")
    else:
        start = now = time.perf_counter()
        while now < deadline:
            pass_start = now
            passes.append(run_pass(main_fn, jobs, paths, expected, alarm, speed, deadline,
                                   rows, f"pass{len(passes) + 1}", SAMPLE_S))
            setup_round()
            now = time.perf_counter()
            # Stop unless another pass like the last one would end within
            # half a pass of --seconds.
            if (len(passes) >= MIN_PASSES
                    and now - start + (now - pass_start) / 2 > args.seconds):
                break
        speed.stop()
        wall_s, job_geomean_s = pass_metrics(passes, speed)
        metrics = {
            "setup_s": statistics.median(reference_seconds(span, speed) for span in setup_times),
            "wall_s": wall_s,
            "job_geomean_s": job_geomean_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = {"setup_s": "s", "wall_s": "s", "job_geomean_s": "s", "peak_rss_mb": "MiB"}
        metrics = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
        print(f"measured seconds in jobs: {[round(pass_seconds(p), 3) for p in passes]}; "
              f"{len(speed.times)} reference calls, mean {statistics.fmean(speed.times):.6f} s")

    attempted = sum(p[1] for p in passes)
    failed = sum(p[2] for p in passes)
    out_dir = WORK / f"{args.workload}-seed{args.seed}"
    with open(out_dir / f"jobs-trace{args.trace}.tsv", "w", encoding="utf-8") as fh:
        fh.write("pass\tjob\tseconds\tref_seconds\texit\tcheck\n")
        for label, name, span, rc, error in rows:
            ref = "" if args.trace else f"{reference_seconds(span, speed):.6f}"
            fh.write(f"{label}\t{name}\t{span[0]:.6f}\t{ref}\t{rc}\t{error}\n")
    for label, name, span, rc, error in rows:
        if error != "ok":
            print(f"FAILED {label} {name}: {error}")
    print(f"passes: {len(passes)}, fail_ratio: {failed / attempted}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
