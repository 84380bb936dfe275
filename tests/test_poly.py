import random
import re
import sys
from itertools import islice
from operator import add

import pytest
from hypothesis import given
from hypothesis import strategies as st

from amalgams.errors import (
    ContextMismatch,
    DegreeCapExceeded,
    NotPrime,
    ParseError,
    ZeroInverse,
)
from amalgams.modules import ModOrder
from amalgams.poly import (
    PolyRing,
    PrimeField,
    format_poly,
    is_name,
    parse_poly,
)
from amalgams.ring import make_ring
from conftest import (
    leading_term,
    monomials_of_degree,
    parse_outcome,
    random_poly,
)
from oracles import block_rank, grevlex_rank, parse_poly_arith


class LexOrder:
    """Pure lexicographic order: a third monomial order for the order
    tests, which the package itself never uses."""

    def key(self, expts, weights):
        return tuple(expts)


LEX = LexOrder()


def test_field_inverse():
    p = 101
    field = PrimeField(p)
    for a in range(1, p):
        assert (a * field.inverse(a)) % p == 1
    with pytest.raises(ZeroInverse):
        field.inverse(0)
    with pytest.raises(ZeroInverse):
        field.inverse(101)


def test_prime_validation():
    with pytest.raises(NotPrime):
        PolyRing(100, ["x"])
    with pytest.raises(NotPrime):
        PolyRing(1, ["x"])
    PolyRing(2, ["x"])
    PolyRing(32003, ["x"])


def test_degree_cap_is_part_of_the_ring():
    # Rings that differ only in their caps are different contexts, as rings
    # over different fields are; a ring on other variables keeps the cap.
    capped = PolyRing(101, ["x", "y"], degree_cap=3)
    plain = PolyRing(101, ["x", "y"])
    assert capped != plain
    assert capped == PolyRing(101, ["x", "y"], degree_cap=3)
    assert hash(capped) == hash(PolyRing(101, ["x", "y"], degree_cap=3))
    # the message tells the two apart
    with pytest.raises(ContextMismatch, match=r"y\] \(degree cap 3\) vs GF\(101\)"):
        capped.var("x") + plain.var("x")
    other = capped.with_variables(["z"], [2])
    assert (other.field, other.weights, other.degree_cap) == (capped.field, (2,), 3)


def test_ring_axioms_random():
    ring = PolyRing(101, ["x", "y", "z"])
    rng = random.Random(7)
    for _ in range(350):
        f = random_poly(ring, rng)
        g = random_poly(ring, rng)
        h = random_poly(ring, rng)
        assert f + g == g + f
        assert f * g == g * f
        assert (f + g) + h == f + (g + h)
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h
        assert f + ring.zero() == f
        assert f * ring.one() == f
        assert f - f == ring.zero()
        assert f * ring.zero() == ring.zero()


def test_coefficients_normalized():
    ring = PolyRing(101, ["x"])
    x = ring.var("x")
    assert ring.const(101).is_zero()
    assert (ring.const(50) + ring.const(51)).is_zero()
    f = ring.const(100) * x
    assert (f + x).is_zero()


def test_degree_additivity():
    ring = PolyRing(101, ["x", "y"], [1, 2])
    rng = random.Random(3)
    for _ in range(200):
        f = random_poly(ring, rng)
        g = random_poly(ring, rng)
        if f.is_zero() or g.is_zero():
            continue
        assert (f * g).degree() == f.degree() + g.degree()


def test_leading_term_multiplicative():
    ring = PolyRing(101, ["x", "y", "z"])
    rng = random.Random(11)
    for rank in (grevlex_rank, LEX.key, block_rank(1)):
        for _ in range(120):
            f = random_poly(ring, rng)
            g = random_poly(ring, rng)
            if f.is_zero() or g.is_zero():
                continue
            mf, cf = leading_term(f, rank)
            mg, cg = leading_term(g, rank)
            mfg, cfg = leading_term(f * g, rank)
            assert mfg == tuple(map(add, mf, mg))
            assert cfg == (cf * cg) % 101


def test_order_well_founded_and_total():
    """ModOrder keys respect multiplication and 1 is the smallest monomial:
    the bigger term has the smaller key."""
    ring = PolyRing(101, ["x", "y"], [1, 2])
    monos = monomials_of_degree(ring, 4) + monomials_of_degree(ring, 3)
    one = ring.one_mono()
    for block in (0, 1, 2):
        order = ModOrder(ring.layout, block=block)

        def key(m):
            return order.key((0, ring.layout.pack(m)))

        for m in monos:
            key_m = key(m)
            assert key_m < key(one)
            for m2 in monos:
                if m != m2:
                    assert key(m) != key(m2)
                prod = tuple(map(add, m, m2))
                assert key(prod) < key_m


def test_weighted_degree():
    ring = PolyRing(101, ["x", "y"], [1, 3])
    f = parse_poly(ring, "x^3*y + y^2")
    assert f.degree() == 6
    assert f.is_homogeneous()
    g = parse_poly(ring, "x + y")
    assert not g.is_homogeneous()


def test_parse_format_round_trip():
    ring = PolyRing(101, ["x", "y", "u", "v"])
    rng = random.Random(23)
    for _ in range(150):
        f = random_poly(ring, rng)
        assert parse_poly(ring, format_poly(f)) == f
        assert parse_poly(ring, format_poly(f, signed=True)) == f


def test_display_syntax():
    ring = PolyRing(101, ["x", "u", "v"])
    f = parse_poly(ring, "x^2*u + 100*v")
    assert format_poly(f) == "x^2*u + 100*v"
    assert format_poly(f, signed=True) == "x^2*u - v"


def test_parse_errors():
    ring = PolyRing(101, ["x", "y"])
    for bad in ["x +", "z", "x^", "(x", "x**y", ""]:
        with pytest.raises(ParseError):
            parse_poly(ring, bad)


@given(st.text(alphabet="x_2²٣é *Ⅻ", min_size=1, max_size=4))
def test_a_name_is_what_parse_poly_reads_as_one_variable(text):
    # The ring declaration checks names with is_name: a name it accepts
    # must parse back as its variable, and no other text may.
    ring = PolyRing(101, [text])
    try:
        reads_as_var = parse_poly(ring, text) == ring.var(text)
    except ParseError:
        reads_as_var = False
    assert is_name(text) == reads_as_var


# Names with a non-ASCII letter, a leading `_` and a digit that `int`
# cannot read (`²`); weights other than 1 and caps that a power of a sum
# can pass.
PARSE_NAMES = ["x", "y_1", "_z", "é", "Ω2", "w²"]


def _parse_ring(rng):
    return PolyRing(
        rng.choice([2, 101, 32003]),
        PARSE_NAMES,
        rng.choice([None, [1, 2, 1, 3, 1, 1]]),
        rng.choice([None, 8, 20]),
    )


def _random_sum(rng, depth=0):
    """A well-formed polynomial text: a sum with an optional leading sign,
    whose factors are numbers (0, and at or above every prime used),
    names, unary minus and parenthesised sums nested two deep, each with
    an optional `^n`, n = 0 included."""
    out = rng.choice(["", "", "+", "-", "- "])
    for k in range(rng.randint(1, 3)):
        if k:
            out += rng.choice([" + ", " - ", "+", "-"])
        factors = [_random_factor(rng, depth) for _ in range(rng.randint(1, 3))]
        out += rng.choice(["*", " * "]).join(factors)
    return out


def _random_factor(rng, depth):
    r = rng.random()
    if r < 0.1:
        return "-" + _random_factor(rng, depth)
    if r < 0.35:
        base = str(rng.choice([0, 1, 2, 7, 100, 101, 102, 32003, 10**30]))
        powers = [0, 1, 2, 5, 10**6]
    elif r < 0.8 or depth >= 2:
        base = rng.choice(PARSE_NAMES)
        powers = [0, 1, 2, 3, 40]
    else:
        base = "(" + _random_sum(rng, depth + 1) + ")"
        powers = [0, 1, 2, 3, 4] if depth == 0 else [0, 1, 2]
    if rng.random() < 0.4:
        base += rng.choice(["^", " ^ ", "^ "]) + str(rng.choice(powers))
    return base


def test_parse_poly_is_the_arithmetic_parser_on_random_inputs():
    # Same terms in the same order, or the same exception and message: a
    # power of a sum past the cap raises DegreeCapExceeded in both.
    rng = random.Random(5)
    raised = 0
    for _ in range(1500):
        ring, text = _parse_ring(rng), _random_sum(rng)
        ours = parse_outcome(parse_poly, ring, text)
        assert ours == parse_outcome(parse_poly_arith, ring, text), text
        raised += isinstance(ours, tuple)
    assert 50 < raised < 500


# One-token edits: operators, a name, an unknown name, numbers, a digit
# `int` cannot read, a character of no token, and an exponent.
EDIT_TOKENS = ["+", "-", "*", "^", "(", ")", "x", "q", "3", "0", "²", "@", "^2"]


def test_one_token_edits_raise_what_the_arithmetic_parser_raises():
    rng = random.Random(7)
    raised = 0
    for _ in range(2000):
        ring = _parse_ring(rng)
        toks = re.findall(r"\d+|\w+|\S", _random_sum(rng))
        k = rng.randrange(len(toks) + 1)
        if k < len(toks) and rng.random() < 0.5:
            del toks[k]
        else:
            toks.insert(k, rng.choice(EDIT_TOKENS))
        text = " ".join(toks)
        ours = parse_outcome(parse_poly, ring, text)
        assert ours == parse_outcome(parse_poly_arith, ring, text), text
        raised += isinstance(ours, tuple)
    assert raised > 1000


def test_parse_poly_errors_name_what_the_arithmetic_parser_names():
    ring = PolyRing(101, ["x", "y"], degree_cap=4)
    for text in [
        "", "x +", "z", "x^", "x^y", "(x", "x**y", "x y", "x)", "-", "+-x",
        "--x", "x - +y", "x^2^3", "(x + y)^3", "(x + y)^1*x^9", "x*-", "2²",
        "²x", "x²", "1" * 5000, "x ^ ١٢", "@",
    ]:
        ours = parse_outcome(parse_poly, ring, text)
        assert ours == parse_outcome(parse_poly_arith, ring, text), text


def test_the_tokenizer_reads_characters_as_str_methods_do():
    # The tokenizer's \s, \d and \w are the character tests of the
    # arithmetic oracle's character loop: str.isspace, str.isdecimal and
    # (str.isalnum or `_`), on every code point.
    text = "".join(map(chr, range(sys.maxunicode + 1)))
    for pattern, test in [
        (r"\s", str.isspace),
        (r"\d", str.isdecimal),
        (r"\w", lambda ch: ch.isalnum() or ch == "_"),
    ]:
        found = {m.start() for m in re.finditer(pattern, text)}
        assert found == {i for i, ch in enumerate(text) if test(ch)}


def test_parse_precedence_and_parens():
    ring = PolyRing(101, ["x", "y"])
    assert parse_poly(ring, "x + y*x") == parse_poly(ring, "x + (y*x)")
    assert parse_poly(ring, "(x + y)^2") == parse_poly(ring, "x^2 + 2*x*y + y^2")
    assert parse_poly(ring, "-x + x").is_zero()
    assert parse_poly(ring, "3") == ring.const(3)


def test_a_power_of_a_sum_past_the_cap_is_not_expanded():
    ring = PolyRing(101, ["x", "y"], degree_cap=6)
    assert parse_poly(ring, "(x + y)^3*(x - y)^3").degree() == 6
    with pytest.raises(DegreeCapExceeded, match="intermediate degree 8 exceeds cap 6"):
        parse_poly(ring, "(x + y^2)^4")
    # a monomial costs nothing to build; the engine checks its degree
    assert parse_poly(ring, "(x*y)^50") == parse_poly(ring, "x^50*y^50")
    assert parse_poly(PolyRing(101, ["x", "y"], degree_cap=None), "(x + y)^7").degree() == 7


def test_monomials_of_degree():
    # the standard monomials of the zero ideal are all monomials
    levels = list(islice(make_ring(101, ["x", "y", "z"]).standard_monomials(), 5))
    assert len(levels[0]) == 1
    assert len(levels[4]) == 15  # C(6,2)
    wring = make_ring(101, ["x", ("y", 2)])
    # degree 4: x^4, x^2 y, y^2
    assert len(next(islice(wring.standard_monomials(), 4, None))) == 3


def test_pow():
    ring = PolyRing(101, ["x", "y"])
    f = parse_poly(ring, "x + y")
    assert f**0 == ring.one()
    assert f**3 == f * f * f
