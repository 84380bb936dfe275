"""The package has no dead API: every function or method, and every
module-level class or assigned constant, defined in `src/amalgams` is
named somewhere else in `src`, or documented in README; and every
function or method is entered when the commands run.

A name counts as used when it appears (as a bare name, an attribute or an
import) anywhere in the package outside the body of its own definition,
so a function that only calls itself is still unused.  Dunder names are
read by Python itself and are exempt, and so are the identifiers the
README quotes in backticks: they are the documented library surface.
That check matches by name, so a dead method sharing its name with a live
one goes unseen; the second check runs every fixture command of
`golden.py` at both primes and `verify-paper` once under `sys.setprofile`
and fails on a function or method that is never entered, dunders again
exempt, save the few `UNREACHED_BY_COMMANDS` names with their reasons.
Two more checks keep stored state and parameters live: every parameter is
read in its function's body, and every attribute a class stores on `self`,
or declares as a dataclass field, is read by that class.  The attribute check goes by class, not by name, so
dead state cannot hide behind a live attribute of another class: an
attribute counts as read when the class reads it through `self`, when it
is read on an instance of the class while the commands above run, or,
for a name no other class stores, when it is read as an attribute
anywhere in the package.
"""

import ast
import functools
import importlib
import re
import sys
from collections import Counter
from pathlib import Path

from golden import fixture_commands, run, run_argv

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "amalgams"


def _package_trees():
    """The parsed tree of each module of the package, by module name."""
    return {
        path.stem: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE.glob("*.py"))
    }


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


def _definitions(tree):
    """(name, node) of every function or method in `tree`, and of every
    class and assigned name at its top level."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Name):
                        yield sub.id, node


def unused_definitions():
    """`module.name` of each definition in the package (`_definitions`)
    whose name appears nowhere in it outside its own definition."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    documented = set()
    for quoted in re.findall(r"`([^`]*)`", readme):
        documented.update(re.findall(r"[A-Za-z_]\w*", quoted))
    trees = _package_trees()
    everywhere = Counter()
    for tree in trees.values():
        everywhere += _names(tree)
    unused = []
    for module, tree in trees.items():
        for name, node in _definitions(tree):
            if name.startswith("__") and name.endswith("__"):
                continue
            if name in documented:
                continue
            if everywhere[name] - _names(node)[name] <= 0:
                unused.append(f"{module}.{name}")
    return sorted(set(unused))


def test_every_definition_is_reached_or_documented():
    assert unused_definitions() == []


# The degree cap lives on the ring (`PolyRing.degree_cap`).  Only the
# functions that build rings or pass a cap into them, the reducer and the
# one check of it, take one as a parameter.
CAP_PARAMETERS = {
    "poly.PolyRing.__init__",
    "ring.make_ring",
    "cli.Session.__init__",
    "cli.parse_input",
    "harness._Fixtures.__init__",
    "harness.run_harness",
    "harness.verify_paper",
    "modules._reduce",
    "poly.check_degree",
}


def _functions(node, prefix):
    """(qualified name, node) of every function under `node`."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield prefix + child.name, child
            yield from _functions(child, f"{prefix}{child.name}.")
        elif isinstance(child, ast.ClassDef):
            yield from _functions(child, f"{prefix}{child.name}.")


def test_only_ring_builders_take_a_degree_cap():
    taking = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for name, fn in _functions(tree, f"{path.stem}."):
            args = fn.args
            params = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
            if params & {"degree_cap", "cap"}:
                taking.add(name)
    assert taking <= CAP_PARAMETERS


# A `_Basis` carries the module order it was built under, and a
# `GroebnerBasis` carries its `_Basis`, so a reduction reads the order off
# its basis.  Only the functions that build an order or a basis, or pick a
# leading term before there is a basis, take one as a parameter.
ORDER_PARAMETERS = {
    "modules._Basis.__init__",
    "modules.leading_mod_term",
    "modules._monic",
    "modules._extend",
    "modules.module_groebner",
    "gb.buchberger",
}


def test_only_basis_and_order_builders_take_an_order():
    taking = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for name, fn in _functions(tree, f"{path.stem}."):
            args = fn.args
            params = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
            if params & {"order", "morder"}:
                taking.add(name)
    assert taking <= ORDER_PARAMETERS


# Definitions no fixture command and no `verify-paper` run enters, each
# with the reason it stays.
UNREACHED_BY_COMMANDS = {
    # README's library example builds its rings with it.
    "ring.make_ring",
}


def _is_dataclass(cls):
    """Whether the class definition `cls` is decorated with `dataclass`."""
    for deco in cls.decorator_list:
        if isinstance(deco, ast.Call):
            deco = deco.func
        if "dataclass" in (getattr(deco, "id", None), getattr(deco, "attr", None)):
            return True
    return False


def stored_attributes():
    """{`module.Class`: names} of the attributes each class of the package
    stores on `self` or declares as a dataclass field, and the set of
    `module.Class.attr` each class reads through `self` in its own body."""
    stored, self_read = {}, set()
    for module, tree in _package_trees().items():
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            owner = f"{module}.{cls.name}"
            if _is_dataclass(cls):
                for node in cls.body:
                    if isinstance(node, ast.AnnAssign) and isinstance(
                        node.target, ast.Name
                    ):
                        stored.setdefault(owner, set()).add(node.target.id)
            for node in ast.walk(cls):
                if not (
                    isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "self"
                ):
                    continue
                if isinstance(node.ctx, ast.Store):
                    stored.setdefault(owner, set()).add(node.attr)
                elif isinstance(node.ctx, ast.Load):
                    self_read.add(f"{owner}.{node.attr}")
    return stored, self_read


_ABSENT = object()


class _FirstRead:
    """Stands in for one stored attribute of one class: the first read of
    it on an instance is noted in `reads` as `module.Class.attr`, and the
    class gets back what it had under that name (a slot, or nothing)."""

    def __init__(self, cls, name, label, reads):
        self.cls, self.name, self.label, self.reads = cls, name, label, reads
        self.orig = cls.__dict__.get(name, _ABSENT)

    def restore(self):
        if self.cls.__dict__.get(self.name) is not self:
            return
        if self.orig is _ABSENT:
            delattr(self.cls, self.name)
        else:
            setattr(self.cls, self.name, self.orig)

    def __get__(self, obj, objtype=None):
        if obj is None:
            if self.orig is _ABSENT:
                raise AttributeError(self.name)
            return self.orig
        self.reads.add(self.label)
        self.restore()
        return getattr(obj, self.name)

    def __set__(self, obj, value):
        if hasattr(self.orig, "__set__"):
            self.orig.__set__(obj, value)
        else:
            obj.__dict__[self.name] = value


@functools.lru_cache(maxsize=None)
def command_run():
    """What each fixture command at both primes and one `verify-paper`
    run reach: the (resolved file, first line) of every code object
    entered, and the `module.Class.attr` of every stored attribute read
    on an instance of the class that stores it."""
    entered, reads = set(), set()
    standins = []
    for owner, names in stored_attributes()[0].items():
        module, name = owner.split(".")
        cls = getattr(importlib.import_module(f"amalgams.{module}"), name)
        for attr in sorted(names):
            standin = _FirstRead(cls, attr, f"{owner}.{attr}", reads)
            setattr(cls, attr, standin)
            standins.append(standin)

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            entered.add((code.co_filename, code.co_firstlineno))

    sys.setprofile(profile)
    try:
        for fixture, words, prime in fixture_commands():
            run(fixture, words, prime)
        run_argv(["verify-paper"])
    finally:
        sys.setprofile(None)
        for standin in standins:
            standin.restore()
    entered = {(Path(name).resolve(), line) for name, line in entered}
    return frozenset(entered), frozenset(reads)


def test_every_function_is_entered_by_a_command():
    entered = command_run()[0]
    never = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for name, fn in _functions(tree, f"{path.stem}."):
            if fn.name.startswith("__") and fn.name.endswith("__"):
                continue
            # A decorated function's code starts at its first decorator.
            first = min([fn.lineno] + [d.lineno for d in fn.decorator_list])
            if (path, first) not in entered:
                never.append(name)
    assert set(never) <= UNREACHED_BY_COMMANDS, sorted(
        set(never) - UNREACHED_BY_COMMANDS
    )


def unread_stored_attributes():
    """`module.Class.attr` of each attribute a class stores on `self` that
    is read neither through `self` in the class's body, nor on an instance
    of the class while the commands run (`command_run`), nor, when no
    other class stores that name, as an attribute anywhere in the package."""
    stored, self_read = stored_attributes()
    owners = Counter(attr for names in stored.values() for attr in names)
    read_by_name = {
        node.attr
        for tree in _package_trees().values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    read = self_read | command_run()[1]
    unread = []
    for owner, names in stored.items():
        for attr in names:
            if f"{owner}.{attr}" in read:
                continue
            if owners[attr] == 1 and attr in read_by_name:
                continue
            unread.append(f"{owner}.{attr}")
    return sorted(unread)


def test_every_stored_attribute_is_read():
    assert unread_stored_attributes() == []


def unread_parameters():
    """`module.function.parameter` of each parameter its function's body
    never reads.  `self` and `cls` are exempt."""
    unread = []
    for module, tree in _package_trees().items():
        for name, fn in _functions(tree, f"{module}."):
            args = fn.args
            params = [
                a.arg
                for a in args.posonlyargs + args.args + args.kwonlyargs
                + [args.vararg, args.kwarg]
                if a is not None
            ]
            body_reads = {
                node.id
                for stmt in fn.body
                for node in ast.walk(stmt)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            }
            for param in params:
                if param in ("self", "cls") or param in body_reads:
                    continue
                unread.append(f"{name}.{param}")
    return sorted(unread)


def test_every_parameter_is_read():
    assert unread_parameters() == []
