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
computation/verification failure (among them a `classify` whose
resolution disagrees with the ring's Hilbert series, `error:
SeriesMismatch: ...` naming the first degree that differs), 2 parse or
usage error (a negative --degree-cap or --max-degree, a --prime that is
not a prime, or an argument after verify-paper) or unknown name.

`parse_input` prefixes `line N: ` to every error raised while it reads
the declaration on line N; the declaration readers never see the line.
An error raised by a command names no line.
"""

from __future__ import annotations

import argparse
import os
import sys
from itertools import islice, zip_longest

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
from .homology import canonical_module, classify, hilbert_series
from .modules import FPModule
from .poly import (
    DEFAULT_DEGREE_CAP,
    DEFAULT_PRIME,
    PolyRing,
    PrimeField,
    format_poly,
    is_name,
    parse_poly,
)
from .ring import IdealHandle, PresentedRing, RingHom


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
    """Named declarations parsed from an input file.  Every ring declared
    gets the session's field and degree cap."""

    def __init__(self, prime=None, degree_cap=DEFAULT_DEGREE_CAP):
        self.prime_override = prime
        self.degree_cap = degree_cap
        self.field = PrimeField(DEFAULT_PRIME if prime is None else prime)
        self.decls = {}  # name -> (kind, object)

    def declare(self, name, kind, obj):
        if name in self.decls:
            raise ParseError(f"duplicate name {name!r}")
        self.decls[name] = (kind, obj)

    def get(self, name, kind):
        if name not in self.decls:
            raise UnknownReference(f"unknown name {name!r}")
        k, obj = self.decls[name]
        if k != kind:
            article = "an" if k[0] in "aeiou" else "a"
            raise UnknownReference(f"{name!r} is {article} {k}, expected {kind}")
        return obj


def _split_head(text):
    """The first word of `text` and the rest, split at any whitespace."""
    head, *rest = text.split(None, 1) or [""]
    return head, "".join(rest)


def _split_list(text):
    items = [t.strip() for t in text.split(",")]
    return [t for t in items if t]


def parse_input(text, prime=None, degree_cap=DEFAULT_DEGREE_CAP):
    session = Session(prime, degree_cap)
    for n, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        word, rest = _split_head(line)
        try:
            if word not in _DECLS:
                raise ParseError(f"unknown declaration {word!r}")
            _DECLS[word](session, rest)
        except (ParseError, UnknownReference, DegreeCapExceeded,
                ResolutionTooLong) as exc:
            # Each keeps its type, so an unknown name exits 2 and a
            # computation that stopped, which is not a parse error, exits 1.
            raise type(exc)(f"line {n}: {exc}") from exc
        except AlgebraError as exc:
            raise ParseError(f"line {n}: {exc}") from exc
    return session


def _read_arrow(rest, usage):
    """(name, source, target, body) of `<name> <A> -> <B> : <body>`."""
    head, sep, body = rest.partition(":")
    parts = head.split()
    if not sep or len(parts) != 4 or parts[2] != "->":
        raise ParseError(f"expected {usage}")
    return parts[0], parts[1], parts[3], body


def _read_in(rest, usage):
    """(name, ring, body) of `<name> in <R> : <body>`."""
    head, sep, body = rest.partition(":")
    parts = head.split()
    if not sep or len(parts) != 3 or parts[1] != "in":
        raise ParseError(f"expected {usage}")
    return parts[0], parts[2], body


def _read_pair(rest, usage):
    """(name, a, b) of `<name> : <a>, <b>`."""
    head, sep, body = rest.partition(":")
    name = head.strip()
    refs = _split_list(body)
    if not sep or not name or len(refs) != 2:
        raise ParseError(f"expected {usage}")
    return name, refs[0], refs[1]


def _read_labels(body, what):
    """The integer labels of a comma-separated list."""
    try:
        return [int(t) for t in _split_list(body)]
    except ValueError:
        raise ParseError(f"{what} must be integer labels")


def _decl_field(session, rest):
    if not rest.startswith("p=") or not rest[2:].strip().isdecimal():
        raise ParseError(f"expected field p=<prime>, not {rest!r}")
    field = PrimeField(int(rest[2:]))
    if session.prime_override is None:
        session.field = field


def _decl_ring(session, rest):
    name, body = _split_head(rest)
    if not name or not body.startswith("vars"):
        raise ParseError("expected ring <Name> vars ...")
    body = body[len("vars"):]
    var_part, sep, gen_part = body.partition("ideal:")
    variables = []
    for tok in _split_list(var_part):
        vname, _, w = tok.partition(":")
        vname = vname.strip()
        if not is_name(vname):
            raise ParseError(f"bad variable name {vname!r}")
        try:
            weight = int(w) if w else 1
        except ValueError:
            raise ParseError(f"weight of {vname!r} must be an integer")
        variables.append((vname, weight))
    if not variables:
        raise ParseError("ring needs at least one variable")
    ambient = PolyRing(
        session.field,
        [v for v, _ in variables],
        [w for _, w in variables],
        session.degree_cap,
    )
    gens = [
        parse_poly(ambient, g) for g in _split_list(gen_part if sep else "")
    ]
    session.declare(name, "ring", PresentedRing(ambient, gens))


def _decl_hom(session, rest):
    name, src_name, tgt_name, body = _read_arrow(
        rest, "hom <name> <Src> -> <Tgt> : ..."
    )
    src = session.get(src_name, "ring")
    tgt = session.get(tgt_name, "ring")
    images = {}
    for item in _split_list(body):
        v, arrow, img = item.partition("->")
        v = v.strip()
        if not arrow or v not in src.names:
            raise ParseError(f"bad image assignment {item!r}")
        if v in images:
            raise ParseError(f"two images for variable {v!r}")
        images[v] = parse_poly(tgt.ambient, img.strip())
    missing = [v for v in src.names if v not in images]
    if missing:
        raise ParseError(f"no image for variable(s) {', '.join(missing)}")
    f = RingHom(src, tgt, [images[v] for v in src.names])
    session.declare(name, "hom", f)


def _decl_ideal(session, rest):
    name, ring_name, body = _read_in(rest, "ideal <name> in <Ring> : ...")
    ring = session.get(ring_name, "ring")
    gens = [parse_poly(ring.ambient, g) for g in _split_list(body)]
    session.declare(name, "ideal", IdealHandle(ring, gens))


def _decl_amalgam(session, rest):
    name, f_name, J_name = _read_pair(rest, "amalgam <name> : <hom>, <ideal>")
    f = session.get(f_name, "hom")
    J = session.get(J_name, "ideal")
    if J.ring is not f.target:
        raise ParseError("ideal must live in the hom's target ring")
    session.declare(name, "amalgam", AmalgamSpec(f.source, f.target, f, J))


def _decl_duplication(session, rest):
    name, A_name, I_name = _read_pair(
        rest, "duplication <name> : <Ring>, <ideal>"
    )
    A = session.get(A_name, "ring")
    I = session.get(I_name, "ideal")
    if I.ring is not A:
        raise ParseError("ideal must live in the duplicated ring")
    session.declare(name, "amalgam", duplication(A, I))


def _parse_module_block(A, body):
    body = body.strip()
    if body == "canonical":
        return canonical_module(A)
    if not body.startswith("gens"):
        raise ParseError("expected module canonical or module gens ...")
    gens_part, sep, rel_part = body[len("gens"):].partition("relations")
    try:
        degs = [int(t) for t in _split_list(gens_part)]
    except ValueError:
        raise ParseError("generator degrees must be integers")
    if not degs:
        raise ParseError("module needs at least one generator")
    e_names = [f"e{i}" for i in range(1, len(degs) + 1)]
    if set(e_names) & set(A.names):
        raise ParseError("ambient variables may not be named e1, e2, ...")
    # Only for parsing, over A's field: weight 1 on the e's admits generator
    # degrees below 1, and FPModule checks homogeneity against the real twists.
    aux = A.ambient.with_variables(
        list(A.names) + e_names, list(A.weights) + [1] * len(degs)
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
                raise ParseError(f"relation {rel_text!r} is not linear in e's")
            i = e_part.index(1)
            comps[i] = comps[i] + A.ambient.monomial(mono[:nA], c)
        relations.append(comps)
    return FPModule(A.ambient, degs, relations)


def _decl_trivext(session, rest):
    head, sep, body = rest.partition(":")
    name = head.strip()
    ring_name, comma, mod_part = body.partition(",")
    mod_part = mod_part.strip()
    if not sep or not name or not comma or not mod_part.startswith("module"):
        raise ParseError("expected trivext <name> : <Ring>, module ...")
    A = session.get(ring_name.strip(), "ring")
    M = _parse_module_block(A, mod_part[len("module"):])
    session.declare(name, "amalgam", trivial_extension(A, M))


def _decl_zring(session, rest):
    name, spec = _split_head(rest)
    if not name or not spec.startswith("n=") or not spec[2:].isdecimal():
        raise ParseError(f"expected zring <name> n=<k>, not {rest!r}")
    session.declare(name, "fring", zmod(int(spec[2:]), name=name))


def _decl_product(session, rest):
    name, eq, body = rest.partition("=")
    name = name.strip()
    factors = [t.strip() for t in body.split(" x ")]
    if not eq or not name or len(factors) != 2:
        raise ParseError("expected product <name> = <R1> x <R2>")
    A = session.get(factors[0], "fring")
    B = session.get(factors[1], "fring")
    session.declare(name, "fring", ProductRing(A, B, name=name))


def _decl_fideal(session, rest):
    name, ring_name, body = _read_in(rest, "fideal <name> in <R> : <elem>, ...")
    R = session.get(ring_name, "fring")
    elems = _read_labels(body, "ideal elements")
    session.declare(name, "fideal", FiniteIdeal(R, elems))


def _decl_fhom(session, rest):
    name, src_name, tgt_name, body = _read_arrow(
        rest, "fhom <name> <R1> -> <R2> : <images>"
    )
    A = session.get(src_name, "fring")
    B = session.get(tgt_name, "fring")
    images = _read_labels(body, "images")
    session.declare(name, "fhom", FiniteHom(A, B, images))


def _decl_famalgam(session, rest):
    name, f_name, J_name = _read_pair(rest, "famalgam <name> : <fhom>, <fideal>")
    f = session.get(f_name, "fhom")
    J = session.get(J_name, "fideal")
    if J.ring is not f.target:
        raise ParseError("ideal must live in the hom's target ring")
    session.declare(name, "famalgam", FiniteAmalgam(f, J))


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


DEFAULT_MAX_DEGREE = 8


class Options:
    def __init__(self, assume_equidim=(), max_degree=DEFAULT_MAX_DEGREE):
        self.assume_equidim = set(assume_equidim)
        self.max_degree = max_degree


def _poly_list(polys):
    if not polys:
        return "0"
    return ", ".join(format_poly(g, signed=True) for g in polys)


def cmd_present(session, name, options):
    report = Report()
    P = amalgam_present(session.get(name, "amalgam"))
    report.add("K", _poly_list(list(P.ring.defining.elements)))
    report.add("certificate", repr(P.certificate))
    # cross-check the certified series against raw graded dimension counts;
    # degrees past the end of an artinian ring's basis count 0
    top = options.max_degree
    coeffs = P.ring.series.coefficients(top)
    counts = (len(basis) for basis in islice(P.ring.standard_monomials(), top + 1))
    for d, count in zip_longest(range(top + 1), counts, fillvalue=0):
        if coeffs.get(d, 0) != count:
            report.note(f"hilbert cross-check failed in degree {d}")
            report.status = 1
            break
    if not P.certificate.is_certified():
        report.status = 1
    return report


def _ring_or_presented(session, name, report):
    """The ring `name`, or the presented ring C/K of the amalgam `name`."""
    kind, obj = session.decls.get(name, (None, None))
    if kind == "ring":
        return obj
    if kind == "amalgam":
        P = amalgam_present(obj)
        if not P.certificate.is_certified():
            report.note(f"presentation not certified: {P.certificate!r}")
            report.status = 1
        return P.ring
    raise UnknownReference(f"unknown ring or amalgam {name!r}")


def cmd_classify(session, name, options):
    report = Report()
    ring = _ring_or_presented(session, name, report)
    rep = classify(ring)
    report.lines.extend(rep.lines(equidimensional=name in options.assume_equidim))
    return report


def cmd_canonical(session, name):
    report = Report()
    ring = _ring_or_presented(session, name, report)
    w = canonical_module(ring)
    report.add("mu", len(w.twists))
    report.add("twists", ";".join(str(t) for t in w.twists) or "-")
    report.add("relations", len(w.relations))
    report.add("hilbert", repr(hilbert_series(w)))
    return report


def cmd_hom_into(session, name):
    report = Report()
    P = amalgam_present(session.get(name, "amalgam"))
    if not P.certificate.is_certified():
        report.note(f"presentation not certified: {P.certificate!r}")
        report.status = 1
        return report
    h = hom_A_into_R(P)
    report.add("generators", _poly_list(h.generators))
    report.add("hilbert", repr(hilbert_series(h)))
    return report


def cmd_finite_check(session, name):
    report = Report()
    W = session.get(name, "famalgam")
    from_A, from_B, verdict, spectrum = classify_primes(W)
    report.add("order", W.order)
    report.add("primes", len(spectrum))
    report.add("candidates", len(set(from_A) | set(from_B)))
    # FiniteAmalgam raises NotARing unless its order is |A| * |J|
    report.add("cardinality", "ok")
    report.add("classification", "match" if verdict else "mismatch")
    if not verdict:
        report.status = 1
    return report


def cmd_dispatch(session, command, options):
    if not command:
        raise ParseError("empty command")
    if command[0] == "present" and len(command) == 2:
        return cmd_present(session, command[1], options)
    if command[0] == "classify" and len(command) == 2:
        return cmd_classify(session, command[1], options)
    if command[0] == "canonical" and len(command) == 2:
        return cmd_canonical(session, command[1])
    if command[0] == "hom-into" and len(command) == 2:
        return cmd_hom_into(session, command[1])
    if command[:2] == ["finite", "check"] and len(command) == 3:
        return cmd_finite_check(session, command[2])
    raise ParseError(f"unknown command {' '.join(command)!r}")


# Built once: `append` copies its default, so no call's list reaches the next.
_PARSER = argparse.ArgumentParser(
    prog="amalgams",
    description="Presentations and invariants of amalgamated algebras.",
)
_PARSER.add_argument("--degree-cap", type=int, default=DEFAULT_DEGREE_CAP)
_PARSER.add_argument("--prime", type=int, default=None)
_PARSER.add_argument(
    "--assume-equidim", action="append", default=[], metavar="RING"
)
_PARSER.add_argument("--max-degree", type=int, default=DEFAULT_MAX_DEGREE)
_PARSER.add_argument(
    "words", nargs="+", metavar="FILE COMMAND | verify-paper"
)


def main(argv=None):
    args = _PARSER.parse_args(argv)
    for flag, value in [("--degree-cap", args.degree_cap),
                        ("--max-degree", args.max_degree)]:
        if value < 0:
            _PARSER.error(f"argument {flag}: must be at least 0")
    if args.prime is not None:
        try:
            PrimeField(args.prime)
        except NotPrime as exc:
            _PARSER.error(f"argument --prime: {exc}")
    options = Options(
        assume_equidim=args.assume_equidim,
        max_degree=args.max_degree,
    )
    try:
        if args.words[0] == "verify-paper":
            if len(args.words) > 1:
                raise ParseError("verify-paper takes no arguments")
            report = harness.verify_paper(args.degree_cap)
        else:
            if len(args.words) < 2:
                raise ParseError("expected FILE COMMAND")
            with open(args.words[0], encoding="utf-8") as fh:
                try:
                    text = fh.read()
                except UnicodeDecodeError as exc:
                    raise ParseError(f"byte {exc.start} is not UTF-8")
            session = parse_input(text, prime=args.prime,
                                  degree_cap=args.degree_cap)
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
