"""No module in the package or the tests imports a name it never uses.

No linter ships with the project, so this is the check: each module is
parsed with `ast`, and every name an `import` binds must be read somewhere
in that module as a bare name (an attribute chain `a.b` reads `a`) or be
listed in its `__all__`.  `from __future__ import ...` binds nothing.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CHECKED = sorted(
    list((ROOT / "src" / "amalgams").glob("*.py")) + list((ROOT / "tests").glob("*.py"))
)


def unused_imports(source):
    """(name, line) of each imported name that `source` never reads."""
    tree = ast.parse(source)
    bound = {}
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds `a`
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read.update(
                e.value for e in node.value.elts if isinstance(e, ast.Constant)
            )
    return sorted((name, line) for name, line in bound.items() if name not in read)


def test_checker_sees_unused_and_used_imports():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import random as rnd\n"
        "from json import dumps, loads\n"
        "__all__ = ['loads']\n"
        "print(os.path.sep)\n"
    )
    assert unused_imports(source) == [("dumps", 4), ("rnd", 3)]


def test_every_import_is_used():
    found = {
        path.relative_to(ROOT).as_posix(): unused
        for path in CHECKED
        if (unused := unused_imports(path.read_text(encoding="utf-8")))
    }
    assert found == {}
