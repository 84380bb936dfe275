"""Run the benchmark of two source trees in alternating pairs and compare
their end-to-end metrics.

    python tests/bench_pairs.py PARENT CHANGE --workload W [W ...] [--pairs 10]
                                [--seconds 24] [--seed 101]

PARENT and CHANGE are checkouts of this repository.  `--workload` takes
one or more workloads, or `all` for every workload, run one after the
other.  Pair k of a workload W runs `perfbench/run.py --workload W --seed
SEED+k --seconds S` once in each tree, as a subprocess whose working
directory is that tree, one at a time; the tree that runs first
alternates from pair to pair.  Both runs of a pair take the same seed.

For each workload, prints one line per pair with both trees' values of
each end-to-end metric run.py reports (`wall_s`, `job_geomean_s`,
`peak_rss_mb`, `setup_s`, all lower is better).  Then, for each metric,
each tree's median and quartiles, the interquartile range of the
parent's values and the number of pairs the change wins (a tie wins for
neither).  Exits
1 when a run fails or reports a failed job.  The script only reads the
trees; run.py writes its job files under each tree's `perfbench/_work/`.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

METRICS = ("wall_s", "job_geomean_s", "peak_rss_mb", "setup_s")
WORKLOADS = ("present", "classify", "verify-paper", "finite")


def run_once(tree, workload, seed, seconds):
    """The metrics of one `perfbench/run.py` run in the tree."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=Path(tree).resolve(),
        capture_output=True,
        text=True,
        check=False,
    )
    if done.returncode:
        raise RuntimeError(f"{tree}: run.py exited {done.returncode}\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{tree}: {result['failed']} failed job runs")
    return result["metrics"]


def quartiles(values):
    """(first quartile, median, third quartile) of `values`."""
    if len(values) == 1:
        return values * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def summary(label, parent, change):
    """One line on the paired values of a lower-is-better metric: each
    tree's median and quartiles, the parent's interquartile range and the
    number of pairs the change wins (a tie wins for neither)."""
    wins = sum(c < p for p, c in zip(parent, change))
    (p1, pm, p3), (c1, cm, c3) = quartiles(parent), quartiles(change)
    return (
        f"{label}: parent median {pm:.4g} (quartiles "
        f"{p1:.4g} / {p3:.4g}), change median {cm:.4g} (quartiles "
        f"{c1:.4g} / {c3:.4g}); parent IQR {p3 - p1:.4g}; "
        f"change wins {wins} of {len(parent)}"
    )


def compare(trees, workload, pairs, seconds, first_seed):
    """Run `pairs` alternating pairs of `workload` and print their lines."""
    values = {(side, m): [] for side in trees for m in METRICS}
    for k in range(pairs):
        order = ["parent", "change"] if k % 2 == 0 else ["change", "parent"]
        seed = first_seed + k
        for side in order:
            metrics = run_once(trees[side], workload, seed, seconds)
            for m in METRICS:
                values[side, m].append(metrics[m]["value"])
        both = "; ".join(
            f"{m} parent {values['parent', m][-1]:.4g}, "
            f"change {values['change', m][-1]:.4g}"
            for m in METRICS
        )
        print(f"pair {k + 1} (seed {seed}, {order[0]} first): {both}", flush=True)
    for m in METRICS:
        print(summary(f"{workload} {m}", values["parent", m], values["change", m]),
              flush=True)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True, nargs="+",
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=24)
    parser.add_argument("--seed", type=int, default=101)
    args = parser.parse_args(argv)
    trees = {"parent": args.parent, "change": args.change}
    workloads = WORKLOADS if "all" in args.workload else args.workload
    for workload in workloads:
        compare(trees, workload, args.pairs, args.seconds, args.seed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
