"""Time `classify`, `canonical` or `present` on rungs of the duplication ladder from two
source trees, in alternating pairs, and check that both trees print the
same lines.

    python tests/ladder_pairs.py PARENT CHANGE [--rungs 5 6 7] [--pairs 3]
                                 [--prime 101] [--command classify]

PARENT and CHANGE are checkouts of this repository, each with
`src/amalgams`.  W_n is k[x1..xn] duplicated along (x1..xn): C/K has 2n
variables.  For each rung, each pair runs one fresh subprocess per tree,
one at a time, and the tree that runs first alternates from pair to pair.
A subprocess imports the tree's package, parses W_n and then times the
command (`classify` unless `--command` names `canonical` or `present`)
in process, by wall clock: the presentation of C/K and the command's
work on it, without start-up, import or parsing.  `present` prints K and
the certificate, and cross-checks the certified series against counts of
standard monomials in degrees 0..8.  It prints the seconds and the
report lines.

Prints one line per pair with both trees' seconds, to three significant
digits, so that a W_6 `present` pair of 0.02-0.06 s shows a 10% change,
and exits 1 when a run fails or when the two trees print different lines
on a rung.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

CHILD = """
import json, sys, time
from amalgams.cli import Options, cmd_dispatch, parse_input
n, prime, command = int(sys.argv[1]), int(sys.argv[2]), sys.argv[3]
xs = ", ".join(f"x{i}" for i in range(1, n + 1))
text = f"ring A vars {xs}\\nideal M in A : {xs}\\nduplication W : A, M\\n"
session = parse_input(text, prime=prime)
start = time.perf_counter()
report = cmd_dispatch(session, [command, "W"], Options())
seconds = time.perf_counter() - start
print(json.dumps({"seconds": seconds, "status": report.status,
                  "lines": report.lines}))
"""


def run_once(tree, n, prime, command):
    """(seconds, lines) of one `command W_n` run on the tree's source."""
    env = dict(os.environ, PYTHONPATH=str(Path(tree).resolve() / "src"))
    done = subprocess.run(
        [sys.executable, "-c", CHILD, str(n), str(prime), command],
        env=env,
        capture_output=True,
        text=True,
        check=False,
    )
    if done.returncode:
        raise RuntimeError(f"{tree}: W_{n} exited {done.returncode}\n{done.stderr}")
    out = json.loads(done.stdout)
    if out["status"]:
        raise RuntimeError(f"{tree}: W_{n} reported status {out['status']}")
    return out["seconds"], out["lines"]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--rungs", type=int, nargs="+", default=[5, 6, 7])
    parser.add_argument("--pairs", type=int, default=3)
    parser.add_argument("--prime", type=int, default=101)
    parser.add_argument(
        "--command",
        choices=["classify", "canonical", "present"],
        default="classify",
    )
    args = parser.parse_args(argv)
    trees = {"parent": args.parent, "change": args.change}
    same = True
    for n in args.rungs:
        for k in range(args.pairs):
            order = ["parent", "change"] if k % 2 == 0 else ["change", "parent"]
            got = {
                side: run_once(trees[side], n, args.prime, args.command)
                for side in order
            }
            identical = got["parent"][1] == got["change"][1]
            same = same and identical
            print(
                f"W_{n} pair {k + 1} ({order[0]} first): "
                f"parent {got['parent'][0]:.3g} s, change {got['change'][0]:.3g} s"
                + ("" if identical else ", LINES DIFFER"),
                flush=True,
            )
    if not same:
        print("the trees printed different lines", file=sys.stderr)
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
