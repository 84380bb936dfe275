import errno
import functools
import io
import os
import subprocess
import sys
from importlib import resources

import pytest

from amalgams import cli, homology
from amalgams import ring as ring_module
from amalgams.cli import Options, cmd_dispatch, main, parse_input
from amalgams.errors import (
    AlgebraError,
    NotPrime,
    ParseError,
    ResolutionTooLong,
    SeriesMismatch,
    UnknownReference,
)
from amalgams.amalgam import amalgam_present, duplication
from amalgams.harness import _j_module, run_harness, socle_dimension, verify_paper
from amalgams.homology import classify, depth_ab, hilbert_series, krull_dim
from amalgams.modules import FPModule
from amalgams.ring import IdealHandle, PresentedRing, make_ring
from conftest import parse_like_oracle

INTERSECTION = """\
# comment line
field p=101
ring A vars x
ring B vars X, Y
hom f A -> B : x -> X
ideal J in B : X, Y
amalgam W24 : f, J
"""

FINITE = """\
zring Z6 n=6
fhom id6 Z6 -> Z6 : 0, 1, 2, 3, 4, 5
fideal J3 in Z6 : 0, 3
famalgam W : id6, J3
"""


def dispatch(text, command, **kw):
    session = parse_input(text)
    return cmd_dispatch(session, command, Options(**kw))


def test_parse_happy_path():
    session = parse_input(INTERSECTION)
    assert sorted(session.decls) == ["A", "B", "J", "W24", "f"]


@pytest.mark.parametrize(
    "text, name",
    [
        ("ring\tA vars x\n", "A"),
        ("ring A\tvars x\n", "A"),
        ("zring\tZ n=4\n", "Z"),
        ("zring Z\tn=4\n", "Z"),
    ],
)
def test_a_tab_separates_words_in_a_declaration_head(text, name):
    assert list(parse_input(text).decls) == [name]


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as err:
        parse_input("field p=101\nring A vars x\nring A vars y\n")
    assert str(err.value) == "line 3: duplicate name 'A'"
    with pytest.raises(ParseError) as err:
        parse_input("ring A vars x ideal: x + x^2\n")
    assert str(err.value) == "line 1: generator x^2 + x mixes weighted degrees"
    with pytest.raises(UnknownReference) as err:
        parse_input("field p=101\nring A vars x\nhom f A -> Bogus : x -> x\n")
    assert str(err.value) == "line 3: unknown name 'Bogus'"
    with pytest.raises(ParseError) as err:
        parse_input("ring A vars x ideal: x^\n")
    assert str(err.value) == "line 1: expected integer exponent after '^'"


def test_present_report():
    report = dispatch(INTERSECTION, ["present", "W24"])
    assert report.lines == [
        "K = x*z1 - z1^2, x*z2 - z1*z2",
        "certificate = Certified",
    ]
    assert report.status == 0


def bigatti_runs_per_ring(monkeypatch, command, text=INTERSECTION):
    """Run `command` on `text` and return each ring it made, with the
    number of Bigatti runs (`monomial_kpoly`) made inside that ring's own
    `series`; the recursion's inner calls and the runs on modules' leads
    count for no ring."""
    built, runs, reading = [], [], []
    init = PresentedRing.__init__
    take_series = PresentedRing.__dict__["series"].func
    kpoly = ring_module.monomial_kpoly

    def made(self, *args):
        init(self, *args)
        built.append(self)

    def read(self):
        reading.append(self)
        try:
            return take_series(self)
        finally:
            reading.pop()

    def bigatti(leads, layout):
        runs.append(reading[-1])
        return kpoly(leads, layout)

    counted_series = functools.cached_property(read)
    counted_series.__set_name__(PresentedRing, "series")
    monkeypatch.setattr(PresentedRing, "__init__", made)
    monkeypatch.setattr(PresentedRing, "series", counted_series)
    monkeypatch.setattr(ring_module, "monomial_kpoly", bigatti)
    assert dispatch(text, command).status == 0
    return [(R, sum(run is R for run in runs)) for R in built]


def series_was_read(R):
    """Whether the ring's lazily computed `series` has been read."""
    return "series" in vars(R)


def test_present_takes_the_series_of_C_mod_K_once(monkeypatch):
    # C/K takes its series once, when it is first read, and the certificate
    # and the cross-check read it there.
    per_ring = bigatti_runs_per_ring(monkeypatch, ["present", "W24"])
    presented = [
        count for R, count in per_ring if R.names == ("x", "z1", "z2")
    ]
    assert presented == [1]
    assert all(count == series_was_read(R) for R, count in per_ring)


@pytest.mark.parametrize("command", ["classify", "canonical"])
def test_each_ring_takes_its_series_once(monkeypatch, command):
    # krull_dim, canonical_module and classify read a ring's series off the
    # ring instead of running Bigatti's recursion on its leads again, and a
    # ring whose series is never read never runs it.
    per_ring = bigatti_runs_per_ring(monkeypatch, [command, "W24"])
    assert len(per_ring) >= 4
    assert all(count == series_was_read(R) for R, count in per_ring)


def test_a_ring_takes_its_series_only_when_read(monkeypatch):
    # Parsing serre.alg makes four rings; classifying one reads only its
    # series, once, so the other three never run Bigatti's recursion.
    text = resources.files("amalgams").joinpath("fixtures", "serre.alg").read_text()
    per_ring = bigatti_runs_per_ring(monkeypatch, ["classify", "Hyper"], text)
    assert [(R.names, count) for R, count in per_ring] == [
        (("a", "b", "c", "d"), 0),
        (("x", "z"), 1),
        (("x", "y"), 0),
        (("x", "y"), 0),
    ]
    assert [R.names for R, _ in per_ring if series_was_read(R)] == [("x", "z")]


def test_classify_report():
    report = dispatch(INTERSECTION, ["classify", "W24"])
    assert report.lines[:3] == ["dim = 2", "depth = 1", "cm = false"]
    assert "betti = 1;2;1" in report.lines


DUPLICATION_K4 = """\
ring A vars x1, x2, x3, x4
ideal M in A : x1, x2, x3, x4
duplication W : A, M
"""


@pytest.mark.parametrize("p", [101, 32003])
def test_classify_8_variable_duplication(p):
    # The 8-variable rung of the duplication ladder: k[x1..x4] duplicated
    # along its maximal ideal.
    session = parse_input(DUPLICATION_K4, prime=p)
    assert session.decls["W"][1].A.ambient.p == p
    report = cmd_dispatch(session, ["classify", "W"], Options())
    assert report.lines == [
        "dim = 4",
        "depth = 1",
        "cm = false",
        "gorenstein = false",
        "quasi_gorenstein = false",
        "generalized_cm = true",
        "serre = S1?",
        "type = 1",
        "betti = 1;16;48;68;56;28;8;1",
    ]


DUPLICATION_K5 = """\
ring A vars x1, x2, x3, x4, x5
ideal M in A : x1, x2, x3, x4, x5
duplication W : A, M
"""


def test_classify_10_variable_duplication():
    # The 10-variable rung: k[x1..x5] duplicated along its maximal ideal.
    session = parse_input(DUPLICATION_K5, prime=101)
    report = cmd_dispatch(session, ["classify", "W"], Options())
    assert report.lines == [
        "dim = 5",
        "depth = 1",
        "cm = false",
        "gorenstein = false",
        "quasi_gorenstein = false",
        "generalized_cm = true",
        "serre = S1?",
        "type = 1",
        "betti = 1;25;100;200;250;210;120;45;10;1",
    ]


def test_classify_ring_with_equidim_flag():
    text = "field p=101\nring R vars a, b, c, d ideal: a*c, a*d, b*c, b*d\n"
    report = dispatch(text, ["classify", "R"], assume_equidim=["R"])
    assert "serre = S1" in report.lines
    report2 = dispatch(text, ["classify", "R"])
    assert "serre = S1?" in report2.lines


def test_canonical_report():
    text = "field p=101\nring A0 vars x, y ideal: x^2, x*y, y^2\n"
    report = dispatch(text, ["canonical", "A0"])
    assert report.lines[0] == "mu = 2"


def test_canonical_of_amalgam_presents_it_first():
    # W24 presents as C/K with C = k[x, z1, z2] (see test_present_report)
    presented = "field p=101\nring C vars x, z1, z2 ideal: x*z1 - z1^2, x*z2 - z1*z2\n"
    report = dispatch(INTERSECTION, ["canonical", "W24"])
    assert report.status == 0
    assert report.lines == dispatch(presented, ["canonical", "C"]).lines
    assert report.lines[:3] == ["mu = 1", "twists = 2", "relations = 1"]


@pytest.mark.parametrize(
    "command, message",
    [
        (["present", "A"], "'A' is a ring, expected amalgam"),
        (["hom-into", "J"], "'J' is an ideal, expected amalgam"),
        (["finite", "check", "W24"], "'W24' is an amalgam, expected famalgam"),
    ],
)
def test_kind_mismatch_message(tmp_path, capsys, command, message):
    f = tmp_path / "w.alg"
    f.write_text(INTERSECTION)
    assert main([str(f)] + command) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_hom_into_report():
    text = "field p=101\nring A vars x\nideal I in A : x\nduplication D : A, I\n"
    report = dispatch(text, ["hom-into", "D"])
    assert report.lines[0] == "generators = x - z1"


@pytest.mark.parametrize(
    "declarations, name, hilbert",
    [
        # J = (x*y) is zero in A = B, and J = () has no z-variable.
        ("ring A vars x, y ideal: x*y\nideal Z in A : x*y\nduplication D : A, Z\n",
         "D", "(1 - t^2) / (1 - 2*t + t^2)"),
        ("ring A vars x, y ideal: x*y\nideal Z in A :\nduplication D : A, Z\n",
         "D", "(1 - t^2) / (1 - 2*t + t^2)"),
        # The module of the trivial extension is 0.
        ("ring A vars x\ntrivext T : A, module gens 1 relations e1\n",
         "T", "(1) / (1 - t)"),
    ],
    ids=["j-zero-in-b", "j-without-generators", "trivext-zero-module"],
)
def test_hom_into_is_the_whole_ring_when_j_is_zero(
    tmp_path, capsys, declarations, name, hilbert
):
    # Ann_R(0 x J) = R: the unit ideal, whose series is HS(R).
    f = tmp_path / "w.alg"
    f.write_text("field p=101\n" + declarations)
    assert main([str(f), "hom-into", name]) == 0
    assert capsys.readouterr().out == f"generators = 1\nhilbert = {hilbert}\n"


def test_hom_into_prints_the_zero_ideal_as_zero():
    # A = k[x], B = k[x, y], J = (y): K = 0, so Ann_R(0 x J) = (0 : z1) = 0.
    text = (
        "field p=101\nring A vars x\nring B vars x, y\n"
        "hom f A -> B : x -> x\nideal J in B : y\namalgam W : f, J\n"
    )
    report = dispatch(text, ["hom-into", "W"])
    assert report.lines == ["generators = 0", "hilbert = (0) / (1 - 2*t + t^2)"]


def test_finite_check_report():
    report = dispatch(FINITE, ["finite", "check", "W"])
    assert "primes = 3" in report.lines
    assert "classification = match" in report.lines
    assert "cardinality = ok" in report.lines


def test_trivext_declarations():
    text = (
        "field p=101\n"
        "ring A vars x\n"
        "trivext T : A, module gens 1 relations x*e1\n"
    )
    report = dispatch(text, ["present", "T"])
    assert report.lines[0] == "K = x*z1, z1^2"
    assert report.lines[1] == "certificate = Certified"


def test_trivext_canonical_declaration():
    text = (
        "field p=101\n"
        "ring A0 vars x, y ideal: x^2, x*y, y^2\n"
        "trivext G : A0, module canonical\n"
    )
    report = dispatch(text, ["classify", "G"])
    assert "gorenstein = true" in report.lines


def test_unknown_command():
    with pytest.raises(ParseError):
        dispatch(INTERSECTION, ["bogus"])


def test_prime_override():
    session = parse_input(INTERSECTION, prime=32003)
    assert session.get("A", "ring").ambient.p == 32003


@pytest.mark.parametrize("prime", [4, 1, 0])
def test_parse_input_checks_its_prime(prime):
    # the library's prime is checked where it is given, not at the first
    # ring line, and 0 does not stand for the default
    for text in (FINITE, INTERSECTION):
        with pytest.raises(NotPrime):
            parse_input(text, prime=prime)


def test_reports_deterministic():
    a = dispatch(INTERSECTION, ["classify", "W24"]).render()
    b = dispatch(INTERSECTION, ["classify", "W24"]).render()
    assert a == b


def test_main_exit_codes(tmp_path, capsys):
    good = tmp_path / "good.alg"
    good.write_text(INTERSECTION)
    assert main([str(good), "present", "W24"]) == 0
    out = capsys.readouterr().out
    assert "certificate = Certified" in out

    bad = tmp_path / "bad.alg"
    bad.write_text("ring A vars x ideal: x + x^2\n")
    assert main([str(bad), "present", "W"]) == 2
    err = capsys.readouterr().err
    assert err.strip().startswith("parse error:")
    assert err.count("\n") == 1

    missing = tmp_path / "missing.alg"
    assert main([str(missing), "present", "W"]) == 1


def test_negative_max_degree_is_a_usage_error(tmp_path, capsys):
    # With no degree to count, the Hilbert cross-check would pass unseen.
    good = tmp_path / "good.alg"
    good.write_text(INTERSECTION)
    with pytest.raises(SystemExit) as exc:
        main(["--max-degree", "-1", str(good), "present", "W24"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(
        "amalgams: error: argument --max-degree: must be at least 0\n"
    )
    assert main(["--max-degree", "0", str(good), "present", "W24"]) == 0


def test_negative_degree_cap_is_a_usage_error(tmp_path, capsys):
    # A cap below 0 either stops the first computation or, with no degree
    # to check (finite rings), passes unseen.
    good = tmp_path / "good.alg"
    good.write_text(INTERSECTION)
    finite = tmp_path / "finite.alg"
    finite.write_text(FINITE)
    for words in (
        [str(good), "present", "W24"],
        [str(finite), "finite", "check", "W"],
        ["verify-paper"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(["--degree-cap", "-1"] + words)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(
            "amalgams: error: argument --degree-cap: must be at least 0\n"
        )
    # Cap 0 is a cap like any other: a computation that passes it exits 1.
    assert main(["--degree-cap", "0", str(good), "present", "W24"]) == 1
    assert main(["--degree-cap", "0", str(finite), "finite", "check", "W"]) == 0


@pytest.mark.parametrize(
    "text, words",
    [(FINITE, ["finite", "check", "W"]), (INTERSECTION, ["present", "W24"])],
    ids=["finite", "ring"],
)
def test_prime_flag_must_be_prime(tmp_path, capsys, text, words):
    # A finite-only file never builds a field, so the flag is checked
    # where it is given, not by the file's first ring.
    f = tmp_path / "a.alg"
    f.write_text(text)
    with pytest.raises(SystemExit) as exc:
        main(["--prime", "4", str(f)] + words)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(
        "amalgams: error: argument --prime: 4 is not a prime in [2, 2^31)\n"
    )


def test_verify_paper_takes_no_arguments(capsys):
    assert main(["verify-paper", "EXTRA"]) == 2
    assert capsys.readouterr() == ("", "parse error: verify-paper takes no arguments\n")


def test_hilbert_cross_check_failure_exits_1(tmp_path, capsys, monkeypatch):
    # A count one short in degree 2 must fail the cross-check, not pass it.
    count = PresentedRing.standard_monomials

    def one_short_in_degree_2(ring):
        for d, monos in enumerate(count(ring)):
            yield monos[1:] if d == 2 else monos

    monkeypatch.setattr(PresentedRing, "standard_monomials", one_short_in_degree_2)
    good = tmp_path / "good.alg"
    good.write_text(INTERSECTION)
    assert main([str(good), "present", "W24"]) == 1
    out = capsys.readouterr().out
    assert "certificate = Certified" in out
    assert out.endswith("hilbert cross-check failed in degree 2\n")


def test_present_lists_standard_monomials_in_one_pass(monkeypatch):
    # The cross-check takes every degree 0..--max-degree from one generator.
    calls = []
    original = PresentedRing.standard_monomials

    def counted(ring, *args):
        calls.append(args)
        return original(ring, *args)

    monkeypatch.setattr(PresentedRing, "standard_monomials", counted)
    assert dispatch(INTERSECTION, ["present", "W24"]).status == 0
    assert calls == [()]


def test_hilbert_cross_check_counts_degrees_past_the_end_as_zero(monkeypatch, capsys):
    # G of gorenstein.alg is artinian: a basis that ends one nonzero degree
    # early must fail the cross-check in that degree, not be padded over.
    original = PresentedRing.standard_monomials
    last = []

    def one_degree_early(ring):
        levels = list(original(ring))
        last.append(max(d for d, basis in enumerate(levels) if basis))
        yield from levels[: last[-1]]

    monkeypatch.setattr(PresentedRing, "standard_monomials", one_degree_early)
    path = resources.files("amalgams").joinpath("fixtures", "gorenstein.alg")
    assert main([str(path), "present", "G"]) == 1
    out = capsys.readouterr().out
    assert "certificate = Certified" in out
    assert last == [2]
    assert out.endswith("hilbert cross-check failed in degree 2\n")


def test_present_checks_a_high_max_degree_quickly():
    # An artinian basis ends after its last nonzero degree, and the series
    # is expanded once, so 20000 degrees cost little.
    path = resources.files("amalgams").joinpath("fixtures", "gorenstein.alg")
    src = os.path.dirname(os.path.dirname(homology.__file__))
    done = subprocess.run(
        [sys.executable, "-m", "amalgams.cli", "--max-degree", "20000",
         str(path), "present", "G"],
        capture_output=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=20,
    )
    assert (done.returncode, done.stderr) == (0, b"")
    assert done.stdout.decode().splitlines()[-1] == "certificate = Certified"


# Malformed declaration files: (text, the line of the error, its message).
MALFORMED_INPUTS = [
    ("ring A vars x:0\n", 1, "weights must be positive"),
    ("ring A vars x, x\n", 1, "duplicate variable names"),
    ("ring A vars x:a\n", 1, "weight of 'x' must be an integer"),
    (
        "field p=101\nring A vars x\n"
        "trivext T : A, module gens 1, 2 relations x*e1 + x*e2\n",
        3,
        "inhomogeneous module vector",
    ),
    (
        "field p=101\nring A vars x\n"
        "trivext T : A, module gens 0, 1 relations x*e1 + x*e2\n",
        3,
        "inhomogeneous module vector",
    ),
    (
        "zring Z6 n=6\nfhom f Z6 -> Z6 : 0, 1, 2, 3, 4, 9\n",
        2,
        "image labels must lie in 0..5",
    ),
    ("zring Z6 n=6\nfideal J in Z6 : 0, 9\n", 2, "ideal labels must lie in 0..5"),
    (
        "zring Z6 n=6\nfield p=4\nring A vars x\n",
        2,
        "4 is not a prime in [2, 2^31)",
    ),
    # Finite rings above the cap are refused before a table is built.
    ("zring Z n=4097\n", 1, "|R| = 4097 exceeds the spectrum cap 4096"),
    (
        "zring Z n=65\nproduct P = Z x Z\n",
        2,
        "|R| = 4225 exceeds the spectrum cap 4096",
    ),
    ("ring A vars :2\n", 1, "bad variable name ''"),
    ("ring A vars x y\n", 1, "bad variable name 'x y'"),
    ("ring A vars x y ideal: x^2\n", 1, "bad variable name 'x y'"),
    ("ring A vars 2x\n", 1, "bad variable name '2x'"),
    # `²` is a digit to str.isdigit but not to int, nor a letter.
    ("ring A vars ²\n", 1, "bad variable name '²'"),
    ("ring A vars x ideal: x^²\n", 1, "bad character '²' in polynomial"),
    ("ring A vars x ideal: ²*x\n", 1, "bad character '²' in polynomial"),
    ("field p=²\n", 1, "expected field p=<prime>, not 'p=²'"),
    ("zring Z n=²\n", 1, "expected zring <name> n=<k>, not 'Z n=²'"),
    (
        "ring A vars x\nring B vars x, y\nhom f A -> B : x -> x, x -> y\n",
        3,
        "two images for variable 'x'",
    ),
    # Each declaration's usage message, and the other messages the
    # declarations raise themselves.
    ("ring A\n", 1, "expected ring <Name> vars ..."),
    ("ring A vars\n", 1, "ring needs at least one variable"),
    (
        "ring A vars x\nring B vars y\nhom f A B : x -> y\n",
        3,
        "expected hom <name> <Src> -> <Tgt> : ...",
    ),
    (
        "ring A vars x\nring B vars y\nhom f A -> B x -> y\n",
        3,
        "expected hom <name> <Src> -> <Tgt> : ...",
    ),
    (
        "ring A vars x\nring B vars y\nhom f A -> B : z -> y\n",
        3,
        "bad image assignment 'z -> y'",
    ),
    (
        "ring A vars x\nring B vars y\nhom f A -> B : \n",
        3,
        "no image for variable(s) x",
    ),
    (
        "ring A vars x\nideal I A : x\n",
        2,
        "expected ideal <name> in <Ring> : ...",
    ),
    (
        "ring A vars x\nideal I in A x\n",
        2,
        "expected ideal <name> in <Ring> : ...",
    ),
    (
        "ring A vars x\nideal I in A : x\namalgam W : I\n",
        3,
        "expected amalgam <name> : <hom>, <ideal>",
    ),
    (
        "ring A vars x\nideal I in A : x\nduplication D : A\n",
        3,
        "expected duplication <name> : <Ring>, <ideal>",
    ),
    (
        "ring A vars x\ntrivext T : A, gens 1\n",
        2,
        "expected trivext <name> : <Ring>, module ...",
    ),
    (
        "ring A vars x\ntrivext T : A, module gen 1\n",
        2,
        "expected module canonical or module gens ...",
    ),
    (
        "ring A vars x\ntrivext T : A, module gens a\n",
        2,
        "generator degrees must be integers",
    ),
    (
        "ring A vars x\ntrivext T : A, module gens\n",
        2,
        "module needs at least one generator",
    ),
    (
        "ring e1 vars e1\ntrivext T : e1, module gens 1\n",
        2,
        "ambient variables may not be named e1, e2, ...",
    ),
    (
        "ring A vars x\ntrivext T : A, module gens 1 relations x^2\n",
        2,
        "relation 'x^2' is not linear in e's",
    ),
    (
        "zring Z n=2\nproduct P = Z\n",
        2,
        "expected product <name> = <R1> x <R2>",
    ),
    (
        "zring Z n=2\nfideal J Z : 0\n",
        2,
        "expected fideal <name> in <R> : <elem>, ...",
    ),
    (
        "zring Z n=2\nfideal J in Z : a\n",
        2,
        "ideal elements must be integer labels",
    ),
    (
        "zring Z n=2\nfhom f Z Z : 0, 1\n",
        2,
        "expected fhom <name> <R1> -> <R2> : <images>",
    ),
    ("zring Z n=2\nfhom f Z -> Z : 0, b\n", 2, "images must be integer labels"),
    (
        "zring Z n=2\nfhom f Z -> Z : 0, 1\nfideal J in Z : 0\n"
        "famalgam W : f\n",
        4,
        "expected famalgam <name> : <fhom>, <fideal>",
    ),
    (
        "ring A vars x\nring B vars y\nhom f A -> B : x -> y\n"
        "ideal I in A : x\namalgam W : f, I\n",
        5,
        "ideal must live in the hom's target ring",
    ),
    (
        "ring A vars x\nring B vars y\nideal I in B : y\n"
        "duplication D : A, I\n",
        4,
        "ideal must live in the duplicated ring",
    ),
    (
        "zring Z n=2\nzring Y n=2\nfhom f Z -> Z : 0, 1\n"
        "fideal J in Y : 0\nfamalgam W : f, J\n",
        5,
        "ideal must live in the hom's target ring",
    ),
    ("field p=101\n\nbogus X\n", 3, "unknown declaration 'bogus'"),
    ("ring A vars x\nring A vars y\n", 2, "duplicate name 'A'"),
]


@pytest.mark.parametrize("text, line, message", MALFORMED_INPUTS)
def test_malformed_input_exits_2(tmp_path, capsys, text, line, message):
    bad = tmp_path / "bad.alg"
    bad.write_text(text)
    assert main([str(bad), "present", "T"]) == 2
    err = capsys.readouterr().err
    assert err == f"parse error: line {line}: {message}\n"


def test_malformed_polynomials_raise_what_the_arithmetic_parser_raises(monkeypatch):
    # Every polynomial the malformed files hand the parser, a good one or
    # a bad one, parses or fails in both parsers alike.
    seen = []

    def parse_both(ring, text):
        seen.append(text)
        return parse_like_oracle(ring, text)

    monkeypatch.setattr(cli, "parse_poly", parse_both)
    for text, _, _ in MALFORMED_INPUTS:
        with pytest.raises(ParseError):
            parse_input(text)
    assert "x^²" in seen and "²*x" in seen and len(seen) > 10


def test_file_that_is_not_utf8_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.alg"
    bad.write_bytes(b"ring A vars x\n# caf\xe9\n")
    assert main([str(bad), "present", "T"]) == 2
    assert capsys.readouterr() == ("", "parse error: byte 19 is not UTF-8\n")


def test_a_huge_exponent_stops_at_the_cap_in_little_memory(tmp_path):
    # The pole order of 1 - t^N at t = 1 is read off its two terms, so
    # neither command expands N coefficients.  classify reads all it needs
    # off the resolution S(-N) -> S, and canonical reaches the degree cap
    # as it presents ω.
    f = tmp_path / "big.alg"
    f.write_text("ring A vars x ideal: x^100000000\n")
    src = os.path.dirname(os.path.dirname(homology.__file__))
    # The child caps its own address space at 64 MiB before it starts; its
    # peak is 19.5 MiB (VmPeak), as it loads no numpy.
    capped = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (64 << 20, 64 << 20))\n"
        "from amalgams.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )

    def run(command):
        return subprocess.run(
            [sys.executable, "-c", capped, str(f), command, "A"],
            capture_output=True,
            env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"},
            timeout=120,
        )

    done = run("canonical")
    assert (done.returncode, done.stdout) == (1, b"")
    assert done.stderr == (
        b"error: DegreeCapExceeded: intermediate degree 100000000 exceeds cap 64\n"
    )
    done = run("classify")
    assert (done.returncode, done.stderr) == (0, b"")
    assert done.stdout.decode().splitlines() == [
        "dim = 0",
        "depth = 0",
        "cm = true",
        "gorenstein = true",
        "quasi_gorenstein = true",
        "generalized_cm = true",
        "serre = S4?",
        "type = 1",
        "betti = 1;1",
    ]


def test_only_finite_commands_load_numpy():
    # numpy builds the finite tables and nothing else, so the polynomial
    # commands run without it.  The test process has it loaded, so a child
    # imports the package as the benchmark does, runs the commands and
    # reports whether numpy came in.
    fixtures = resources.files("amalgams").joinpath("fixtures")
    child = (
        "import contextlib, io, os, sys\n"
        "import amalgams.cli, amalgams.finite\n"
        "def run(name, *command):\n"
        "    argv = [os.path.join(sys.argv[1], name), *command]\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert amalgams.cli.main(argv) == 0, argv\n"
        "for name, ring in [('cm_family.alg', 'DupMax'), ('cm_family.alg', 'TrivK'),\n"
        "                   ('gorenstein.alg', 'G')]:\n"
        "    for command in ['present', 'classify', 'canonical']:\n"
        "        run(name, command, ring)\n"
        "print('numpy' in sys.modules)\n"
        "run('finite.alg', 'finite', 'check', 'W6')\n"
        "print('numpy' in sys.modules)\n"
    )
    src = os.path.dirname(os.path.dirname(homology.__file__))
    done = subprocess.run(
        [sys.executable, "-c", child, str(fixtures)],
        capture_output=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=60,
    )
    assert (done.returncode, done.stderr) == (0, b"")
    assert done.stdout == b"False\nTrue\n"


def test_a_huge_power_of_a_sum_stops_at_the_cap_while_parsing(tmp_path):
    # (x + y)^100000 has degree 100000, over the cap of 64: the parser
    # stops before it expands the power, though classify never reads I.
    f = tmp_path / "pow.alg"
    f.write_text("ring A vars x, y\nideal I in A : (x + y)^100000\n")
    src = os.path.dirname(os.path.dirname(homology.__file__))
    done = subprocess.run(
        [sys.executable, "-m", "amalgams.cli", str(f), "classify", "A"],
        capture_output=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=20,
    )
    assert (done.returncode, done.stdout) == (1, b"")
    assert done.stderr == (
        b"error: DegreeCapExceeded: line 2: intermediate degree 100000 exceeds cap 64\n"
    )


def test_trivext_generator_degree_below_one(tmp_path, capsys):
    # trivial_extension shifts the module so its lowest generator sits in
    # degree 1, so degree 0 presents the same ring as degree 1.
    f = tmp_path / "t.alg"
    f.write_text(
        "field p=101\nring A vars x\ntrivext T : A, module gens 0 relations x*e1\n"
    )
    assert main([str(f), "present", "T"]) == 0
    assert capsys.readouterr().out == "K = x*z1, z1^2\ncertificate = Certified\n"


def test_trivext_relations_are_read_over_the_ring_field(tmp_path, capsys):
    # A field declared after the ring does not reach its module relations:
    # 7*y is not zero in A, which lives over GF(101).
    f = tmp_path / "t.alg"
    f.write_text(
        "field p=101\nring A vars x, y\nfield p=7\n"
        "trivext T : A, module gens 1 relations x*e1 + 7*y*e1\n"
    )
    assert main([str(f), "present", "T"]) == 0
    assert capsys.readouterr().out == (
        "K = x*z1 + 7*y*z1, z1^2\ncertificate = Certified\n"
    )


def test_hom_between_rings_over_different_primes_exits_2(tmp_path, capsys):
    # 102 is -1 over GF(103) but 1 over GF(101): no hom carries the
    # coefficients of one field to the other, so the declaration is refused
    # instead of presenting the amalgam over the wrong coefficients.
    f = tmp_path / "mixed.alg"
    f.write_text(
        "field p=101\nring A vars x, y\nfield p=103\nring B vars X, Y\n"
        "hom f A -> B : x -> 102*X, y -> 5*X + 100*Y\n"
        "ideal J in B : 50*X + Y\namalgam W : f, J\n"
    )
    assert main([str(f), "present", "W"]) == 2
    assert capsys.readouterr() == (
        "",
        "parse error: line 5: hom from a ring over GF(101) to a ring over GF(103)\n",
    )


@pytest.mark.parametrize(
    "module",
    [
        "gens 1, 1 relations e1 - e2",
        "gens 1, 2 relations e2 - x*e1",
        "gens 2, 1, 1 relations e1 - x*e2; e2 - e3",
    ],
)
def test_trivext_with_unit_relations_is_the_one_generator_module(module):
    # Each module is free of rank one on a generator of degree 1, so the
    # trivial extension is the same ring as for `gens 1`.
    def lines(body, command):
        text = f"field p=101\nring A vars x, y\ntrivext T : A, module {body}\n"
        return dispatch(text, [command, "T"]).lines

    for command in ("present", "classify"):
        assert lines(module, command) == lines("gens 1", command)


class ClosedPipe(io.StringIO):
    """A stdout on file descriptor `fd` whose reader has gone, as under
    `amalgams ... | head -1`."""

    def __init__(self, fd):
        super().__init__()
        self.fd = fd

    def fileno(self):
        return self.fd

    def write(self, text):
        raise BrokenPipeError(errno.EPIPE, "Broken pipe")

    def flush(self):
        raise BrokenPipeError(errno.EPIPE, "Broken pipe")


def test_closed_stdout_is_quiet(tmp_path, capsys, monkeypatch):
    f = tmp_path / "a.alg"
    f.write_text(INTERSECTION)
    fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)
    try:
        monkeypatch.setattr(sys, "stdout", ClosedPipe(fd))
        assert main([str(f), "classify", "W24"]) == 0
        # stdout's descriptor now points at the null device.
        os.write(fd, b"dropped")
    finally:
        os.close(fd)
    assert (tmp_path / "stdout").read_bytes() == b""
    assert capsys.readouterr().err == ""


def test_closed_pipe_exits_quietly(tmp_path):
    # The command writes into a pipe whose read end is already closed.
    f = tmp_path / "a.alg"
    f.write_text(INTERSECTION)
    src = os.path.dirname(os.path.dirname(homology.__file__))
    read, write = os.pipe()
    os.close(read)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "amalgams.cli", str(f), "classify", "W24"],
            stdout=write,
            stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": src},
            timeout=120,
        )
    finally:
        os.close(write)
    assert (done.returncode, done.stderr) == (0, b"")


def test_unknown_name_in_command(tmp_path, capsys):
    f = tmp_path / "a.alg"
    f.write_text("ring A vars x\n")
    assert main([str(f), "present", "T"]) == 2
    assert capsys.readouterr().err == "error: unknown name 'T'\n"


@pytest.mark.parametrize(
    "text, message",
    [
        (
            "ring A vars x\n# B is never declared\nhom f A -> Bogus : x -> x\n",
            "line 3: unknown name 'Bogus'",
        ),
        (
            "ring A vars x\nideal I in A : x\nhom f A -> I : x -> x\n",
            "line 3: 'I' is an ideal, expected ring",
        ),
    ],
)
def test_unknown_name_in_declaration(tmp_path, capsys, text, message):
    # A reference inside a declaration names its line; one in a command
    # (above) names none.  Both exit 2.
    f = tmp_path / "a.alg"
    f.write_text(text)
    assert main([str(f), "present", "T"]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def never_vanishing_syzygies(vecs, twists=None):
    """A stand-in for `syzygies` whose minimal generators are the vectors
    given."""
    return vecs


def test_resolution_bound_exits_1(tmp_path, capsys, monkeypatch):
    assert issubclass(ResolutionTooLong, AlgebraError)
    # Syzygies that never vanish make the resolution overrun its bound.
    monkeypatch.setattr(homology, "syzygies", never_vanishing_syzygies)
    f = tmp_path / "h.alg"
    f.write_text("ring H vars x, z ideal: z^2\n")
    assert main([str(f), "classify", "H"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ResolutionTooLong: ")
    assert err.count("\n") == 1


def mutated_resolutions(monkeypatch, mutate):
    """Make `homology.free_resolution` hand out each new resolution after
    `mutate` has changed it in place."""
    real = homology.free_resolution

    def free_resolution(obj):
        if obj.resolution is None:
            mutate(real(obj))
        return real(obj)

    monkeypatch.setattr(homology, "free_resolution", free_resolution)


# Betti numbers 1;4;4;1, twists 0; 2,2,2,2; 3,3,3,3; 4.
FOUR_LINES = "ring R vars a, b, c, d ideal: a*c, a*d, b*c, b*d\n"


@pytest.mark.parametrize(
    "mutate",
    [
        # one generator of the middle stage F_2 lost, with its column
        lambda res: (res.twists[2].pop(), res.diffs[1].pop()),
        # one twist of F_2 shifted by one
        lambda res: res.twists[2].__setitem__(0, res.twists[2][0] + 1),
    ],
    ids=["drop-generator", "shift-twist"],
)
def test_classify_exits_1_on_a_resolution_that_disagrees_with_the_series(
    tmp_path, capsys, monkeypatch, mutate
):
    assert issubclass(SeriesMismatch, AlgebraError)
    f = tmp_path / "r.alg"
    f.write_text(FOUR_LINES)
    assert main([str(f), "classify", "R"]) == 0
    capsys.readouterr()
    mutated_resolutions(monkeypatch, mutate)
    assert main([str(f), "classify", "R"]) == 1
    assert capsys.readouterr() == (
        "",
        "error: SeriesMismatch: the resolution disagrees with the Hilbert "
        "series in degree 3\n",
    )


def test_a_resolution_that_disagrees_with_the_series_fails_the_harness(
    monkeypatch,
):
    mutated_resolutions(
        monkeypatch, lambda res: res.twists[-1].__setitem__(0, res.twists[-1][0] + 1)
    )
    assert not all(ok for _, ok in run_harness(101))


GORENSTEIN_TRIVEXT = (
    "ring A0 vars x, y ideal: x^2, x*y, y^2\ntrivext G : A0, module canonical\n"
)


def test_degree_cap_while_parsing_exits_1(tmp_path, capsys):
    # The canonical module of A0 is computed while line 2 is parsed, and at
    # cap 2 its resolution reaches degree 3.  That is a computation that
    # stopped, not a parse error.
    f = tmp_path / "g.alg"
    f.write_text(GORENSTEIN_TRIVEXT)
    assert main(["--degree-cap", "2", str(f), "classify", "A0"]) == 1
    assert capsys.readouterr().err == (
        "error: DegreeCapExceeded: line 2: intermediate degree 3 exceeds cap 2\n"
    )
    assert main(["--degree-cap", "3", str(f), "classify", "A0"]) == 0


def test_resolution_bound_while_parsing_exits_1(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(homology, "syzygies", never_vanishing_syzygies)
    f = tmp_path / "g.alg"
    f.write_text(GORENSTEIN_TRIVEXT)
    assert main([str(f), "classify", "A0"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ResolutionTooLong: line 2: ")
    assert err.count("\n") == 1


def test_main_flags(tmp_path):
    f = tmp_path / "serre.alg"
    f.write_text("ring R vars a, b, c, d ideal: a*c, a*d, b*c, b*d\n")
    assert main(["--assume-equidim", "R", str(f), "classify", "R"]) == 0
    assert main(["--prime", "32003", str(f), "classify", "R"]) == 0


def test_assume_equidim_does_not_reach_the_next_call(tmp_path, capsys):
    # The parser is built once; the ring named by one call's
    # --assume-equidim is not assumed equidimensional by the next call.
    f = tmp_path / "serre.alg"
    f.write_text("ring R vars a, b, c, d ideal: a*c, a*d, b*c, b*d\n")
    assert main(["--assume-equidim", "R", str(f), "classify", "R"]) == 0
    assert "serre = S1\n" in capsys.readouterr().out
    assert main([str(f), "classify", "R"]) == 0
    assert "serre = S1?\n" in capsys.readouterr().out


def test_socle_dimension_oracle():
    A0 = make_ring(101, ["x", "y"], ["x^2", "x*y", "y^2"])
    assert socle_dimension(A0) == 2
    G = make_ring(101, ["x", "y"], ["x^2", "y^2"])
    assert socle_dimension(G) == 1


def test_harness_all_pass():
    results = run_harness(101)
    assert results and all(ok for _, ok in results)


def test_harness_presents_a_duplications_J_modulo_I_A():
    # A = k[x,y]/(xy), I = (x): J = (x)/(xy) is S/(y)(-1), of depth 1, not
    # the ideal (x) of S, of depth 2; A and A ⋈ I are both CM of dim 1.
    A = make_ring(101, ["x", "y"], ["x*y"])
    spec = duplication(A, IdealHandle(A, ["x"]))
    J = _j_module(spec)
    S = A.ambient
    assert hilbert_series(J) == hilbert_series(FPModule(S, [1], [[S.var("y")]]))
    assert depth_ab(J) == 1
    cm = classify(amalgam_present(spec).ring).is_cm
    assert cm and cm == (classify(A).is_cm and depth_ab(J) == krull_dim(A))


def test_harness_parses_each_fixture_once_per_pass(monkeypatch):
    texts = []

    def counted(text, **kwargs):
        texts.append(text)
        return parse_input(text, **kwargs)

    monkeypatch.setattr(cli, "parse_input", counted)
    run_harness(101)
    assert len(texts) == len(set(texts)) == 6
    # nothing outlives a pass: the next one parses every file again
    run_harness(101)
    assert len(texts) == 12 and len(set(texts)) == 6


def test_verify_paper_runs_as_a_module():
    # `python -m amalgams.cli` runs cli as __main__, and the harness imports
    # amalgams.cli again: the two modules must load in either order.
    src = os.path.dirname(os.path.dirname(homology.__file__))
    done = subprocess.run(
        [sys.executable, "-m", "amalgams.cli", "verify-paper"],
        capture_output=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=300,
    )
    assert (done.returncode, done.stderr) == (0, b"")
    assert done.stdout.decode().splitlines()[-1] == "result = PASS"


def test_verify_paper_report():
    report = verify_paper()
    assert report.status == 0
    assert report.lines[-1] == "result = PASS"
    assert "determinism = PASS" in report.lines
    assert "characteristic-robustness = PASS" in report.lines
