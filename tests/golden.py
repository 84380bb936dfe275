"""The fixture commands whose outputs `golden_outputs.json` records.

Every declared name of every bundled fixture gets each command that
applies to its kind, at p = 101 and p = 32003: `present`, `classify`,
`canonical` and `hom-into` on amalgams, `classify` and `canonical` on
rings, `finite check` on finite amalgams.  `run` makes one call through
`amalgams.cli.main`, optionally under a degree cap, and returns its exit
code, stdout and stderr.

`golden_caps.json` pins the `--degree-cap` sweep: for each cap in `CAPS`,
the commands whose output differs from `golden_outputs.json` (each one
stopped by the cap) with their exit code, stdout and stderr, and the
`verify-paper` output at the default cap and at each cap of
`VERIFY_PAPER_CAPS`.
"""

import contextlib
import io
from importlib import resources
from pathlib import Path

from amalgams.cli import main, parse_input

GOLDEN = Path(__file__).resolve().parent / "golden_outputs.json"
GOLDEN_CAPS = GOLDEN.with_name("golden_caps.json")
CAPS = (0, 1, 2, 3, 4, 6)
VERIFY_PAPER_CAPS = (None, 4, 6)
PRIMES = (101, 32003)
COMMANDS = {
    "amalgam": (["present"], ["classify"], ["canonical"], ["hom-into"]),
    "ring": (["classify"], ["canonical"]),
    "famalgam": (["finite", "check"],),
}


def fixture_path(name):
    return resources.files("amalgams").joinpath("fixtures", name)


def fixture_commands():
    """(fixture file, command words, prime) for every recorded command."""
    out = []
    for fixture in sorted(
        f.name for f in resources.files("amalgams").joinpath("fixtures").iterdir()
        if f.name.endswith(".alg")
    ):
        session = parse_input(fixture_path(fixture).read_text())
        for name, (kind, _obj) in session.decls.items():
            for words in COMMANDS.get(kind, ()):
                for p in PRIMES:
                    out.append((fixture, words + [name], p))
    return out


def run(fixture, words, prime, degree_cap=None):
    """(exit code, stdout, stderr) of one CLI call on a bundled fixture,
    under `--degree-cap` when one is given."""
    argv = ["--prime", str(prime), str(fixture_path(fixture))] + list(words)
    return run_argv(argv, degree_cap)


def run_argv(argv, degree_cap=None):
    """(exit code, stdout, stderr) of `amalgams.cli.main(argv)`, under
    `--degree-cap` when one is given."""
    out, err = io.StringIO(), io.StringIO()
    if degree_cap is not None:
        argv = ["--degree-cap", str(degree_cap)] + argv
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()
