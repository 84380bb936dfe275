"""Command-line front end: declaration files, computations, reports.

Declarations (one per line, `#` starts a comment):

    field p=<prime>
    ring <Name> vars <v>[:<w>], ... [ideal: <poly>, ...]
    hom <name> <Src> -> <Tgt> : <v> -> <poly>, ...
    ideal <name> in <Ring> : <poly>, ...
    amalgam <name> : <hom>, <ideal>
    duplication <name> : <Ring>, <ideal>
    trivext <name> : <Ring>, module gens <d>, ... [relations <poly>; ...]
    trivext <name> : <Ring>, module canonical
    zring <name> n=<k>
    product <name> = <R1> x <R2>
    fideal <name> in <R> : <elem>, ...
    fhom <name> <R1> -> <R2> : <elem>, ...
    famalgam <name> : <fhom>, <fideal>

Commands: present, classify, canonical, hom-into, finite check, and
verify-paper, which runs the harness in `amalgams.harness`.  This module
is the parser and the dispatch.  Exit codes: 0 success, 1
computation/verification failure, 2 parse or usage error (a negative
--degree-cap or --max-degree, a --prime that is not a prime, or an
argument after verify-paper).
"""

from __future__ import annotations

import argparse
import os
import sys

from . import harness
from .amalgam import (
    AmalgamSpec,
    amalgam_present,
    duplication,
    hom_A_into_R,
    trivial_extension,
)
from .errors import (
    AlgebraError,
    DegreeCapExceeded,
    NotPrime,
    ParseError,
    ResolutionTooLong,
    UnknownReference,
)
from .finite import (
    FiniteAmalgam,
    FiniteHom,
    FiniteIdeal,
    ProductRing,
    classify_primes,
    zmod,
)
from .gb import DEFAULT_DEGREE_CAP
from .homology import canonical_module, classify, hilbert_series
from .modules import FPModule
from .poly import DEFAULT_PRIME, PolyRing, PrimeField, format_poly, parse_poly
from .ring import IdealHandle, PresentedRing, RingHom, hom_check


class Report:
    """Ordered `key = value` lines followed by free-text notes."""

    def __init__(self):
        self.lines = []
        self.notes = []
        self.status = 0

    def add(self, key, value):
        self.lines.append(f"{key} = {value}")

    def note(self, text):
        self.notes.append(text)

    def render(self):
        return "\n".join(self.lines + self.notes)


class Session:
    """Named declarations parsed from an input file."""

    def __init__(self, prime=None, degree_cap=DEFAULT_DEGREE_CAP):
        self.prime_override = prime
        self.degree_cap = degree_cap
        self.field = PrimeField(DEFAULT_PRIME if prime is None else prime)
        self.decls = {}  # name -> (kind, object)

    def declare(self, name, kind, obj, line_no):
        if name in self.decls:
            raise ParseError(line_no, f"duplicate name {name!r}")
        self.decls[name] = (kind, obj)

    def get(self, name, kind, line_no=None):
        where = f"line {line_no}: " if line_no is not None else ""
        if name not in self.decls:
            raise UnknownReference(f"{where}unknown name {name!r}")
        k, obj = self.decls[name]
        if k != kind:
            article = "an" if k[0] in "aeiou" else "a"
            raise UnknownReference(f"{where}{name!r} is {article} {k}, expected {kind}")
        return obj


def _split_list(text):
    items = [t.strip() for t in text.split(",")]
    return [t for t in items if t]


def parse_input(text, prime=None, degree_cap=DEFAULT_DEGREE_CAP):
    session = Session(prime, degree_cap)
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            _parse_decl(session, line, line_no)
        except ParseError as exc:
            if exc.line:
                raise
            raise ParseError(line_no, exc.message)
        except UnknownReference:
            raise
        except (DegreeCapExceeded, ResolutionTooLong) as exc:
            # A computation that stopped is not a parse error: it keeps its
            # type, so the CLI exits 1, and names the declaration's line.
            raise type(exc)(f"line {line_no}: {exc}") from exc
        except AlgebraError as exc:
            raise ParseError(line_no, str(exc))
    return session


def _parse_decl(session, line, n):
    word, _, rest = line.partition(" ")
    rest = rest.strip()
    handler = _DECLS.get(word)
    if handler is None:
        raise ParseError(n, f"unknown declaration {word!r}")
    handler(session, rest, n)


def _decl_field(session, rest, n):
    if not rest.startswith("p=") or not rest[2:].strip().isdigit():
        raise ParseError(n, "expected field p=<prime>")
    field = PrimeField(int(rest[2:]))
    if session.prime_override is None:
        session.field = field


def _decl_ring(session, rest, n):
    name, _, body = rest.partition(" ")
    body = body.strip()
    if not name or not body.startswith("vars"):
        raise ParseError(n, "expected ring <Name> vars ...")
    body = body[len("vars"):]
    var_part, sep, gen_part = body.partition("ideal:")
    variables = []
    for tok in _split_list(var_part):
        vname, _, w = tok.partition(":")
        try:
            weight = int(w) if w else 1
        except ValueError:
            raise ParseError(n, f"weight of {vname.strip()!r} must be an integer")
        variables.append((vname.strip(), weight))
    if not variables:
        raise ParseError(n, "ring needs at least one variable")
    ambient = PolyRing(
        session.field, [v for v, _ in variables], [w for _, w in variables]
    )
    gens = [
        parse_poly(ambient, g) for g in _split_list(gen_part if sep else "")
    ]
    ring = PresentedRing(ambient, gens, session.degree_cap)
    session.declare(name, "ring", ring, n)


def _decl_hom(session, rest, n):
    head, sep, body = rest.partition(":")
    if not sep:
        raise ParseError(n, "expected hom <name> <Src> -> <Tgt> : ...")
    parts = head.split()
    if len(parts) != 4 or parts[2] != "->":
        raise ParseError(n, "expected hom <name> <Src> -> <Tgt> : ...")
    name, src_name, _, tgt_name = parts
    src = session.get(src_name, "ring", n)
    tgt = session.get(tgt_name, "ring", n)
    images = {}
    for item in _split_list(body):
        v, arrow, img = item.partition("->")
        v = v.strip()
        if not arrow or v not in src.names:
            raise ParseError(n, f"bad image assignment {item!r}")
        images[v] = parse_poly(tgt.ambient, img.strip())
    missing = [v for v in src.names if v not in images]
    if missing:
        raise ParseError(n, f"no image for variable(s) {', '.join(missing)}")
    f = hom_check(RingHom(src, tgt, [images[v] for v in src.names]))
    session.declare(name, "hom", f, n)


def _decl_ideal(session, rest, n):
    head, sep, body = rest.partition(":")
    parts = head.split()
    if not sep or len(parts) != 3 or parts[1] != "in":
        raise ParseError(n, "expected ideal <name> in <Ring> : ...")
    name, _, ring_name = parts
    ring = session.get(ring_name, "ring", n)
    gens = [parse_poly(ring.ambient, g) for g in _split_list(body)]
    session.declare(name, "ideal", IdealHandle(ring, gens), n)


def _decl_amalgam(session, rest, n):
    head, sep, body = rest.partition(":")
    name = head.strip()
    refs = _split_list(body)
    if not sep or not name or len(refs) != 2:
        raise ParseError(n, "expected amalgam <name> : <hom>, <ideal>")
    f = session.get(refs[0], "hom", n)
    J = session.get(refs[1], "ideal", n)
    if J.ring is not f.target:
        raise ParseError(n, "ideal must live in the hom's target ring")
    session.declare(name, "amalgam", AmalgamSpec(f.source, f.target, f, J), n)


def _decl_duplication(session, rest, n):
    head, sep, body = rest.partition(":")
    name = head.strip()
    refs = _split_list(body)
    if not sep or not name or len(refs) != 2:
        raise ParseError(n, "expected duplication <name> : <Ring>, <ideal>")
    A = session.get(refs[0], "ring", n)
    I = session.get(refs[1], "ideal", n)
    if I.ring is not A:
        raise ParseError(n, "ideal must live in the duplicated ring")
    session.declare(name, "amalgam", duplication(A, I), n)


def _parse_module_block(session, A, body, n):
    body = body.strip()
    if body == "canonical":
        return canonical_module(A, session.degree_cap)
    if not body.startswith("gens"):
        raise ParseError(n, "expected module canonical or module gens ...")
    gens_part, sep, rel_part = body[len("gens"):].partition("relations")
    try:
        degs = [int(t) for t in _split_list(gens_part)]
    except ValueError:
        raise ParseError(n, "generator degrees must be integers")
    if not degs:
        raise ParseError(n, "module needs at least one generator")
    e_names = [f"e{i}" for i in range(1, len(degs) + 1)]
    if set(e_names) & set(A.names):
        raise ParseError(n, "ambient variables may not be named e1, e2, ...")
    # Only for parsing: weight 1 on the e's admits generator degrees below
    # 1, and FPModule checks homogeneity against the real twists.
    aux = PolyRing(
        session.field, list(A.names) + e_names, list(A.weights) + [1] * len(degs)
    )
    nA = A.ambient.nvars
    relations = []
    for rel_text in rel_part.split(";"):
        rel_text = rel_text.strip()
        if not rel_text:
            continue
        poly = parse_poly(aux, rel_text)
        comps = [A.ambient.zero() for _ in degs]
        for mono, c in poly.terms.items():
            e_part = mono[nA:]
            if sum(e_part) != 1:
                raise ParseError(n, f"relation {rel_text!r} is not linear in e's")
            i = e_part.index(1)
            comps[i] = comps[i] + A.ambient.monomial(mono[:nA], c)
        relations.append(comps)
    return FPModule(A.ambient, degs, relations)


def _decl_trivext(session, rest, n):
    head, sep, body = rest.partition(":")
    name = head.strip()
    ring_name, comma, mod_part = body.partition(",")
    mod_part = mod_part.strip()
    if not sep or not name or not comma or not mod_part.startswith("module"):
        raise ParseError(n, "expected trivext <name> : <Ring>, module ...")
    A = session.get(ring_name.strip(), "ring", n)
    M = _parse_module_block(session, A, mod_part[len("module"):], n)
    session.declare(name, "amalgam", trivial_extension(A, M, session.degree_cap), n)


def _decl_zring(session, rest, n):
    name, _, spec = rest.partition(" ")
    spec = spec.strip()
    if not name or not spec.startswith("n=") or not spec[2:].isdigit():
        raise ParseError(n, "expected zring <name> n=<k>")
    session.declare(name, "fring", zmod(int(spec[2:]), name=name), n)


def _decl_product(session, rest, n):
    name, eq, body = rest.partition("=")
    name = name.strip()
    factors = [t.strip() for t in body.split(" x ")]
    if not eq or not name or len(factors) != 2:
        raise ParseError(n, "expected product <name> = <R1> x <R2>")
    A = session.get(factors[0], "fring", n)
    B = session.get(factors[1], "fring", n)
    session.declare(name, "fring", ProductRing(A, B, name=name), n)


def _decl_fideal(session, rest, n):
    head, sep, body = rest.partition(":")
    parts = head.split()
    if not sep or len(parts) != 3 or parts[1] != "in":
        raise ParseError(n, "expected fideal <name> in <R> : <elem>, ...")
    name, _, ring_name = parts
    R = session.get(ring_name, "fring", n)
    try:
        elems = [int(t) for t in _split_list(body)]
    except ValueError:
        raise ParseError(n, "ideal elements must be integer labels")
    session.declare(name, "fideal", FiniteIdeal(R, elems), n)


def _decl_fhom(session, rest, n):
    head, sep, body = rest.partition(":")
    parts = head.split()
    if not sep or len(parts) != 4 or parts[2] != "->":
        raise ParseError(n, "expected fhom <name> <R1> -> <R2> : <images>")
    name, src_name, _, tgt_name = parts
    A = session.get(src_name, "fring", n)
    B = session.get(tgt_name, "fring", n)
    try:
        images = [int(t) for t in _split_list(body)]
    except ValueError:
        raise ParseError(n, "images must be integer labels")
    session.declare(name, "fhom", FiniteHom(A, B, images), n)


def _decl_famalgam(session, rest, n):
    head, sep, body = rest.partition(":")
    name = head.strip()
    refs = _split_list(body)
    if not sep or not name or len(refs) != 2:
        raise ParseError(n, "expected famalgam <name> : <fhom>, <fideal>")
    f = session.get(refs[0], "fhom", n)
    J = session.get(refs[1], "fideal", n)
    if J.ring is not f.target:
        raise ParseError(n, "ideal must live in the hom's target ring")
    session.declare(name, "famalgam", FiniteAmalgam(f, J), n)


_DECLS = {
    "field": _decl_field,
    "ring": _decl_ring,
    "hom": _decl_hom,
    "ideal": _decl_ideal,
    "amalgam": _decl_amalgam,
    "duplication": _decl_duplication,
    "trivext": _decl_trivext,
    "zring": _decl_zring,
    "product": _decl_product,
    "fideal": _decl_fideal,
    "fhom": _decl_fhom,
    "famalgam": _decl_famalgam,
}


class Options:
    def __init__(self, degree_cap=DEFAULT_DEGREE_CAP, prime=None,
                 assume_equidim=(), max_degree=8):
        self.degree_cap = degree_cap
        self.prime = prime
        self.assume_equidim = set(assume_equidim)
        self.max_degree = max_degree


def _poly_list(polys):
    if not polys:
        return "0"
    return ", ".join(format_poly(g, signed=True) for g in polys)


def cmd_present(session, name, options):
    report = Report()
    P = amalgam_present(session.get(name, "amalgam"), options.degree_cap)
    report.add("K", _poly_list(list(P.K.elements)))
    report.add("certificate", repr(P.certificate))
    # cross-check the certified series against raw graded dimension counts
    for d in range(options.max_degree + 1):
        if P.series.coefficient(d) != len(P.ring.standard_monomials(d)):
            report.note(f"hilbert cross-check failed in degree {d}")
            report.status = 1
            break
    if not P.certificate.is_certified():
        report.status = 1
    return report


def _ring_or_presented(session, name, options, report):
    """The ring `name`, or the presented ring C/K of the amalgam `name`."""
    kind, obj = session.decls.get(name, (None, None))
    if kind == "ring":
        return obj
    if kind == "amalgam":
        P = amalgam_present(obj, options.degree_cap)
        if not P.certificate.is_certified():
            report.note(f"presentation not certified: {P.certificate!r}")
            report.status = 1
        return P.ring
    raise UnknownReference(f"unknown ring or amalgam {name!r}")


def cmd_classify(session, name, options):
    report = Report()
    ring = _ring_or_presented(session, name, options, report)
    rep = classify(
        ring,
        assume_equidimensional=(name in options.assume_equidim),
        degree_cap=options.degree_cap,
    )
    report.lines.extend(rep.lines())
    return report


def cmd_canonical(session, name, options):
    report = Report()
    ring = _ring_or_presented(session, name, options, report)
    w = canonical_module(ring, options.degree_cap)
    report.add("mu", len(w.twists))
    report.add("twists", ";".join(str(t) for t in w.twists) or "-")
    report.add("relations", len(w.relations))
    report.add("hilbert", repr(hilbert_series(w, options.degree_cap)))
    return report


def cmd_hom_into(session, name, options):
    report = Report()
    P = amalgam_present(session.get(name, "amalgam"), options.degree_cap)
    if not P.certificate.is_certified():
        report.note(f"presentation not certified: {P.certificate!r}")
        report.status = 1
        return report
    h = hom_A_into_R(P, options.degree_cap)
    report.add("generators", _poly_list(h.generators) if h.generators else "1")
    report.add("hilbert", repr(hilbert_series(h, options.degree_cap)))
    return report


def cmd_finite_check(session, name, options):
    report = Report()
    W = session.get(name, "famalgam")
    labels, verdict, spectrum = classify_primes(W)
    report.add("order", W.order)
    report.add("primes", len(spectrum))
    report.add("candidates", len({l.elements for l in labels}))
    report.add("cardinality", "ok" if W.order == W.A.n * len(W.J) else "mismatch")
    report.add("classification", "match" if verdict else "mismatch")
    if not verdict:
        report.status = 1
    return report


def cmd_dispatch(session, command, options):
    if not command:
        raise ParseError(0, "empty command")
    if command[0] == "present" and len(command) == 2:
        return cmd_present(session, command[1], options)
    if command[0] == "classify" and len(command) == 2:
        return cmd_classify(session, command[1], options)
    if command[0] == "canonical" and len(command) == 2:
        return cmd_canonical(session, command[1], options)
    if command[0] == "hom-into" and len(command) == 2:
        return cmd_hom_into(session, command[1], options)
    if command[:2] == ["finite", "check"] and len(command) == 3:
        return cmd_finite_check(session, command[2], options)
    raise ParseError(0, f"unknown command {' '.join(command)!r}")


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="amalgams",
        description="Presentations and invariants of amalgamated algebras.",
    )
    parser.add_argument("--degree-cap", type=int, default=DEFAULT_DEGREE_CAP)
    parser.add_argument("--prime", type=int, default=None)
    parser.add_argument(
        "--assume-equidim", action="append", default=[], metavar="RING"
    )
    parser.add_argument("--max-degree", type=int, default=8)
    parser.add_argument(
        "words", nargs="+", metavar="FILE COMMAND | verify-paper"
    )
    args = parser.parse_args(argv)
    for flag, value in [("--degree-cap", args.degree_cap),
                        ("--max-degree", args.max_degree)]:
        if value < 0:
            parser.error(f"argument {flag}: must be at least 0")
    if args.prime is not None:
        try:
            PrimeField(args.prime)
        except NotPrime as exc:
            parser.error(f"argument --prime: {exc}")
    options = Options(
        degree_cap=args.degree_cap,
        prime=args.prime,
        assume_equidim=args.assume_equidim,
        max_degree=args.max_degree,
    )
    try:
        if args.words[0] == "verify-paper":
            if len(args.words) > 1:
                raise ParseError(0, "verify-paper takes no arguments")
            report = harness.verify_paper(options.degree_cap)
        else:
            if len(args.words) < 2:
                raise ParseError(0, "expected FILE COMMAND")
            with open(args.words[0], encoding="utf-8") as fh:
                text = fh.read()
            session = parse_input(text, prime=options.prime,
                                  degree_cap=options.degree_cap)
            report = cmd_dispatch(session, args.words[1:], options)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except UnknownReference as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AlgebraError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    out = report.render()
    try:
        if out:
            print(out)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader has gone (`amalgams FILE classify T | head -1`): send
        # what is left to the null device, so the flush at exit is quiet.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return report.status


if __name__ == "__main__":
    sys.exit(main())
