from itertools import islice

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from amalgams import poly
from amalgams.errors import (
    ContextMismatch,
    DegreeCapExceeded,
    DegreeMismatch,
    NotHomogeneous,
    NotWellDefined,
    UnitIdeal,
)
from amalgams.homology import hilbert_series
from amalgams.poly import PolyRing, parse_poly
from amalgams.ring import (
    IdealHandle,
    PresentedRing,
    RingHom,
    make_ring,
)
from conftest import ideal_degree_dim, monomials_of_degree
from oracles import lead_exponents, standard_monomials_filter
from samples import duplication_along_m, fixture_rings


def test_make_ring_variants():
    R = make_ring(101, ["x", ("y", 2)], ["x^2 - y"])
    assert R.weights == (1, 2)
    assert R.reduce(parse_poly(R.ambient, "x^2")) == parse_poly(R.ambient, "y")


def test_presented_ring_rejects_bad_input():
    with pytest.raises(NotHomogeneous):
        make_ring(101, ["x", "y"], ["x + x*y"])
    with pytest.raises(UnitIdeal):
        make_ring(101, ["x"], ["x", "2"])
    amb = PolyRing(101, ["x"])
    other = PolyRing(101, ["y"])
    with pytest.raises(ContextMismatch):
        PresentedRing(amb, [other.var("y")])


def test_reduce_canonical():
    R = make_ring(101, ["x", "y"], ["x^2 - y^2"])
    f = parse_poly(R.ambient, "x^2 + y^2")
    g = parse_poly(R.ambient, "2*y^2")
    assert R.reduce(f) == R.reduce(g)
    assert R.reduce(parse_poly(R.ambient, "x^2 - y^2")).is_zero()


def test_standard_monomials_and_hilbert_function():
    R = make_ring(101, ["x", "y"], ["x^2", "x*y", "y^2"])
    assert [len(basis) for basis in islice(R.standard_monomials(), 3)] == [1, 2, 0]


@st.composite
def monomial_ideals_and_degrees(draw):
    """(weights, generator exponents, degree) in at most six variables."""
    n = draw(st.integers(1, 6))
    weights = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    gens = draw(st.lists(st.tuples(*[st.integers(0, 3)] * n), max_size=6))
    return weights, gens, draw(st.integers(0, 10))


@given(monomial_ideals_and_degrees())
@example(([1, 2, 3], [], 10))  # the zero ideal
@example(([2, 1, 1], [(0, 3, 0)], 10))  # a pure power of one variable
@example(([1, 1, 2], [(0, 0, 2)], 9))  # leads on the last variable only
@example(([1, 1, 1, 1], [(0, 0, 0, 1), (0, 0, 0, 3)], 6))
def test_standard_monomials_match_filter(ideal):
    """The generator lists what the brute-force filter keeps, in order."""
    weights, gens, d = ideal
    amb = PolyRing(101, [f"x{i}" for i in range(len(weights))], weights)
    expected = standard_monomials_filter(weights, gens, d)
    if all(any(m) for m in gens):  # the ring needs a proper ideal
        R = PresentedRing(amb, [amb.monomial(m) for m in gens])
        level = next(islice(R.standard_monomials(), d, None), [])
        assert sorted(map(amb.layout.unpack, level)) == expected


@st.composite
def artinian_monomial_ideals(draw):
    """(weights, generator exponents) with a pure power of every variable
    among the generators, in at most four variables."""
    n = draw(st.integers(1, 4))
    weights = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    powers = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    gens = [tuple(a if j == i else 0 for j in range(n)) for i, a in enumerate(powers)]
    gens += draw(st.lists(st.tuples(*[st.integers(0, 2)] * n), max_size=4))
    return weights, [m for m in gens if any(m)]


@settings(max_examples=100)
@given(artinian_monomial_ideals())
@example(([1, 1], [(2, 0), (1, 1), (0, 2)]))  # A0 of gorenstein.alg
@example(([3], [(1,)]))  # nothing past degree 0, then three empty degrees
@example(([2, 3], [(2, 0), (0, 1)]))  # a gap inside the basis
def test_standard_monomials_end_on_an_artinian_ring(ideal):
    """On an artinian ring the generator ends after max(weights) empty
    degrees, and every degree up to its end, and past it, is the filter's."""
    weights, gens = ideal
    amb = PolyRing(101, [f"x{i}" for i in range(len(weights))], weights)
    R = PresentedRing(amb, [amb.monomial(m) for m in gens])
    levels = list(R.standard_monomials())
    reach = max(weights)
    assert levels[-reach:] == [[]] * reach and levels[-reach - 1]
    for d in range(len(levels) + reach):
        expected = standard_monomials_filter(weights, gens, d)
        level = levels[d] if d < len(levels) else []
        assert sorted(map(amb.layout.unpack, level)) == expected


def test_standard_monomials_check_each_degree_against_the_packed_bound(monkeypatch):
    """A degree at the packed bound raises before it is built, so no
    field of a packed standard monomial can overflow into the next."""
    levels = make_ring(101, ["x", ("y", 4)]).standard_monomials()
    monkeypatch.setattr(poly, "PACKED_DEGREE_BOUND", 6)
    assert [len(basis) for basis in islice(levels, 6)] == [1, 1, 1, 1, 2, 2]
    with pytest.raises(DegreeCapExceeded, match="intermediate degree 6"):
        next(levels)


def test_standard_monomials_do_not_end_on_a_polynomial_ring():
    levels = list(islice(make_ring(101, ["x", "y"]).standard_monomials(), 50))
    assert [len(basis) for basis in levels] == list(range(1, 51))


def test_standard_monomials_match_filter_on_fixtures_and_duplications():
    """Every fixture ring and the C/K of every fixture amalgam (those of
    `veronese.alg` weighted 2 and 3) in degrees 0..8, rings with a weight
    of 4 or more (64-bit packed fields) in degrees 0..12, and C/K of
    k[x1..xn] duplicated along (x1..xn) for n = 2..4 (8 variables at n = 4,
    so degrees 0..6)."""
    cases = [(R, 8) for R in fixture_rings(101)]
    weighted = [
        make_ring(101, ["x", ("y", 4), ("z", 5)], ["x^4 - y", "x*z - x^2*y"]),
        make_ring(101, [("a", 3), ("b", 7)], ["a^7 - b^3"]),
        make_ring(101, [("u", 4), ("v", 6), "w"], ["u^3 - v^2", "u*w^2", "w^9"]),
    ]
    cases += [(R, 12) for R in weighted]
    cases += [(duplication_along_m(n), 8 if n < 4 else 6) for n in (2, 3, 4)]
    for R, top in cases:
        leads = lead_exponents(R.defining)
        levels = list(islice(R.standard_monomials(), top + 1))
        levels += [[]] * (top + 1 - len(levels))  # an artinian ring ends early
        for d in range(top + 1):
            got = sorted(map(R.ambient.layout.unpack, levels[d]))
            assert got == standard_monomials_filter(R.weights, leads, d)


def test_hilbert_function_additive_over_ideal():
    """HF(R) = HF(R/J) + HF(J) for an ideal handle J of R."""
    R = make_ring(101, ["x", "y"], ["x^3"])
    J = IdealHandle(R, ["x"])
    big = make_ring(101, ["x", "y"], ["x^3", "x"])
    hs_J = hilbert_series(J).coefficients(7)
    levels = list(islice(R.standard_monomials(), 8))
    big_levels = list(islice(big.standard_monomials(), 8))
    for d in range(8):
        assert len(levels[d]) == len(big_levels[d]) + hs_J.get(d, 0)


def test_hilbert_function_matches_oracle():
    amb = PolyRing(101, ["x", "y", "z"])
    gens = [parse_poly(amb, "x*y - z^2"), parse_poly(amb, "x^2*z")]
    R = PresentedRing(amb, gens)
    levels = list(islice(R.standard_monomials(), 7))
    for d in range(7):
        total = len(monomials_of_degree(amb, d))
        assert len(levels[d]) == total - ideal_degree_dim(amb, gens, d)


def test_ideal_handle_drops_zero_generators():
    R = make_ring(101, ["x"], ["x^2"])
    J = IdealHandle(R, ["x^2", "x"])
    assert [str(g) for g in J.generators] == ["x"]
    assert not IdealHandle(R, ["x^2"]).generators


def test_ideal_handle_stores_normal_forms():
    R = make_ring(101, ["x", "y"], ["x^2 - y^2", "x*y"])
    J = IdealHandle(R, ["x^2 + x*y", "y^3", "x*y", "2*x"])
    # y^3 and x*y are 0 in R, and x^2 reduces to y^2
    assert [str(g) for g in J.generators] == ["y^2", "2*x"]
    assert all(R.reduce(g) == g for g in J.generators)


def test_hom_check_grading():
    A = make_ring(101, [("x", 2)])
    B = make_ring(101, ["u"])
    with pytest.raises(DegreeMismatch):
        RingHom(A, B, ["u"])
    RingHom(A, B, ["u^2"])


def test_hom_check_well_defined():
    A = make_ring(101, ["x", "y"], ["x*y"])
    B = make_ring(101, ["u"])
    with pytest.raises(NotWellDefined):
        RingHom(A, B, ["u", "u"])  # x*y -> u^2 != 0
    f = RingHom(A, B, ["u", "0"])
    assert f.apply(parse_poly(A.ambient, "x^2 + y")) == parse_poly(B.ambient, "u^2")


def test_hom_between_fields_rejected():
    # 102 is -1 over GF(103) and 1 over GF(101): a hom cannot carry
    # coefficients from one field to the other.
    A = make_ring(101, ["x"])
    B = make_ring(103, ["X"])
    with pytest.raises(ContextMismatch, match=r"GF\(101\) to a ring over GF\(103\)"):
        RingHom(A, B, ["102*X"])


def test_hom_mutation_detected():
    """Perturbing a valid image breaks well-definedness."""
    A = make_ring(101, ["x", "y"], ["x^2 - y^2"])
    B = make_ring(101, ["t"])
    RingHom(A, B, ["t", "t"])
    with pytest.raises(NotWellDefined):
        RingHom(A, B, ["t", "2*t"])
