"""The package has no dead API: every function or method defined in
`src/amalgams` is named somewhere else in `src`, or documented in README.

A name counts as used when it appears (as a bare name, an attribute or an
import) anywhere in the package outside the body of its own definition,
so a function that only calls itself is still unused.  Dunder methods are
called by Python itself and are exempt, and so are the identifiers the
README quotes in backticks: they are the documented library surface.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "amalgams"


def _names(node):
    """Every identifier named in `node`'s subtree, with multiplicity."""
    out = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            out[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            out[sub.name.rsplit(".", 1)[-1]] += 1
    return out


def unused_definitions():
    """`module.name` of each function or method defined in the package
    whose name appears nowhere in it outside its own definition."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    documented = set()
    for quoted in re.findall(r"`([^`]*)`", readme):
        documented.update(re.findall(r"[A-Za-z_]\w*", quoted))
    trees = {
        path.stem: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE.glob("*.py"))
    }
    everywhere = Counter()
    for tree in trees.values():
        everywhere += _names(tree)
    unused = []
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if name in documented:
                continue
            if everywhere[name] - _names(node)[name] <= 0:
                unused.append(f"{module}.{name}")
    return sorted(set(unused))


def test_every_definition_is_reached_or_documented():
    assert unused_definitions() == []
