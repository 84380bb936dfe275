import errno
import io
import os
import subprocess
import sys

import pytest

from amalgams import amalgam, cli, homology
from amalgams.cli import Options, cmd_dispatch, main, parse_input
from amalgams.errors import (
    AlgebraError,
    NotPrime,
    ParseError,
    ResolutionTooLong,
    UnknownReference,
)
from amalgams.harness import run_harness, socle_dimension, verify_paper
from amalgams.ring import PresentedRing, make_ring

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


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as err:
        parse_input("field p=101\nring A vars x\nring A vars y\n")
    assert err.value.line == 3
    with pytest.raises(ParseError) as err:
        parse_input("ring A vars x ideal: x + x^2\n")
    assert err.value.line == 1
    with pytest.raises(UnknownReference):
        parse_input("field p=101\nring A vars x\nhom f A -> Bogus : x -> x\n")
    with pytest.raises(ParseError) as err:
        parse_input("ring A vars x ideal: x^\n")
    assert err.value.line == 1


def test_present_report():
    report = dispatch(INTERSECTION, ["present", "W24"])
    assert report.lines == [
        "K = x*z1 - z1^2, x*z2 - z1*z2",
        "certificate = Certified",
    ]
    assert report.status == 0


def test_present_takes_the_series_of_C_mod_K_once(monkeypatch):
    # The certificate computes HS(C/K), and the cross-check reads that
    # series off the presentation instead of computing it again.
    seen = []

    def recording(obj, *args):
        seen.append(obj)
        return homology.hilbert_series(obj, *args)

    monkeypatch.setattr(amalgam, "hilbert_series", recording)
    monkeypatch.setattr(cli, "hilbert_series", recording)
    assert dispatch(INTERSECTION, ["present", "W24"]).status == 0
    presented = [
        obj for obj in seen
        if isinstance(obj, PresentedRing) and obj.names == ("x", "z1", "z2")
    ]
    assert len(presented) == 1


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
    report = cmd_dispatch(session, ["classify", "W"], Options(prime=p))
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

    def one_short_in_degree_2(ring, d):
        monos = count(ring, d)
        return monos[1:] if d == 2 else monos

    monkeypatch.setattr(PresentedRing, "standard_monomials", one_short_in_degree_2)
    good = tmp_path / "good.alg"
    good.write_text(INTERSECTION)
    assert main([str(good), "present", "W24"]) == 1
    out = capsys.readouterr().out
    assert "certificate = Certified" in out
    assert out.endswith("hilbert cross-check failed in degree 2\n")


@pytest.mark.parametrize(
    "text, line, message",
    [
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
    ],
)
def test_malformed_input_exits_2(tmp_path, capsys, text, line, message):
    bad = tmp_path / "bad.alg"
    bad.write_text(text)
    assert main([str(bad), "present", "T"]) == 2
    err = capsys.readouterr().err
    assert err == f"parse error: line {line}: {message}\n"


def test_trivext_generator_degree_below_one(tmp_path, capsys):
    # trivial_extension shifts the module so its lowest generator sits in
    # degree 1, so degree 0 presents the same ring as degree 1.
    f = tmp_path / "t.alg"
    f.write_text(
        "field p=101\nring A vars x\ntrivext T : A, module gens 0 relations x*e1\n"
    )
    assert main([str(f), "present", "T"]) == 0
    assert capsys.readouterr().out == "K = x*z1, z1^2\ncertificate = Certified\n"


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


def test_resolution_bound_exits_1(tmp_path, capsys, monkeypatch):
    assert issubclass(ResolutionTooLong, AlgebraError)
    # Syzygies that never vanish make the resolution overrun its bound.
    monkeypatch.setattr(homology, "syzygies", lambda vecs, cap: vecs)
    f = tmp_path / "h.alg"
    f.write_text("ring H vars x, z ideal: z^2\n")
    assert main([str(f), "classify", "H"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ResolutionTooLong: ")
    assert err.count("\n") == 1


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
    monkeypatch.setattr(homology, "syzygies", lambda vecs, cap: vecs)
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


def test_socle_dimension_oracle():
    A0 = make_ring(101, ["x", "y"], ["x^2", "x*y", "y^2"])
    assert socle_dimension(A0) == 2
    G = make_ring(101, ["x", "y"], ["x^2", "y^2"])
    assert socle_dimension(G) == 1


def test_harness_all_pass():
    results = run_harness(101)
    assert results and all(ok for _, ok in results)


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
