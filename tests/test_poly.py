import random
from operator import add

import pytest

from amalgams.errors import NotPrime, ParseError, ZeroInverse, ZeroPolynomial
from amalgams.poly import (
    GREVLEX,
    LEX,
    BlockOrder,
    PolyRing,
    PrimeField,
    format_poly,
    leading_term,
    parse_poly,
)
from conftest import random_poly


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
    for order in (GREVLEX, LEX, BlockOrder(1)):
        for _ in range(120):
            f = random_poly(ring, rng)
            g = random_poly(ring, rng)
            if f.is_zero() or g.is_zero():
                continue
            mf, cf = leading_term(f, order)
            mg, cg = leading_term(g, order)
            mfg, cfg = leading_term(f * g, order)
            assert mfg == tuple(map(add, mf, mg))
            assert cfg == (cf * cg) % 101


def test_order_well_founded_and_total():
    """Order keys respect multiplication and 1 is smallest."""
    ring = PolyRing(101, ["x", "y"], [1, 2])
    monos = ring.monomials_of_degree(4) + ring.monomials_of_degree(3)
    one = ring.one_mono()
    for order in (GREVLEX, LEX, BlockOrder(1)):
        for m in monos:
            key_m = order.key(m, ring.weights)
            assert key_m > order.key(one, ring.weights)
            for m2 in monos:
                if m != m2:
                    assert order.key(m, ring.weights) != order.key(m2, ring.weights)
                prod = tuple(map(add, m, m2))
                assert order.key(prod, ring.weights) > key_m


def test_weighted_degree():
    ring = PolyRing(101, ["x", "y"], [1, 3])
    f = parse_poly(ring, "x^3*y + y^2")
    assert f.degree() == 6
    assert f.is_homogeneous()
    g = parse_poly(ring, "x + y")
    assert not g.is_homogeneous()


def test_leading_monomial_of_zero():
    ring = PolyRing(101, ["x"])
    with pytest.raises(ZeroPolynomial):
        leading_term(ring.zero())


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


def test_parse_precedence_and_parens():
    ring = PolyRing(101, ["x", "y"])
    assert parse_poly(ring, "x + y*x") == parse_poly(ring, "x + (y*x)")
    assert parse_poly(ring, "(x + y)^2") == parse_poly(ring, "x^2 + 2*x*y + y^2")
    assert parse_poly(ring, "-x + x").is_zero()
    assert parse_poly(ring, "3") == ring.const(3)


def test_monomials_of_degree():
    ring = PolyRing(101, ["x", "y", "z"])
    assert len(ring.monomials_of_degree(0)) == 1
    assert len(ring.monomials_of_degree(4)) == 15  # C(6,2)
    wring = PolyRing(101, ["x", "y"], [1, 2])
    # degree 4: x^4, x^2 y, y^2
    assert len(wring.monomials_of_degree(4)) == 3


def test_pow():
    ring = PolyRing(101, ["x", "y"])
    f = parse_poly(ring, "x + y")
    assert f**0 == ring.one()
    assert f**3 == f * f * f
