"""Property tests for Hilbert series read off leading monomials.

Monomial ideals are checked against a brute-force count of standard
monomials and Bigatti's recursion on packed monomials against the same
recursion on exponent tuples, on 32-bit and 64-bit packed layouts, and
duplications against the additivity HS(C/K) = HS(A) + HS(J)
of the split sequence 0 -> J -> A ⋈ J -> A -> 0.  A series' dimension,
the order of its pole at t = 1, is checked on numerators with negative
degrees, on differences over product denominators and on weights above 1.
The pole order and the first differing degree, both read off terms alone,
are checked against dense expansions (`oracles`) on sparse Laurent
polynomials and on the series of every fixture.
"""

from importlib import resources
from itertools import combinations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from amalgams.amalgam import amalgam_present, duplication
from amalgams.cli import parse_input
from amalgams.homology import hilbert_series
from amalgams.poly import PackedLayout
from amalgams.ring import IdealHandle, make_ring
from amalgams.series import (
    HilbertSeries,
    _order_at_one,
    lp_mul,
    monomial_kpoly,
)
from oracles import (
    first_difference_scan,
    monomial_kpoly_tuples,
    order_at_one_divide,
    standard_monomials_filter,
)

TOP = 8


@st.composite
def monomial_ideals(draw):
    n = draw(st.integers(1, 4))
    weights = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    exponent = st.tuples(*[st.integers(0, 3)] * n)
    gens = draw(st.lists(exponent, max_size=6))
    return weights, gens


def packed_kpoly(gens, weights):
    """`monomial_kpoly` of the exponent tuples `gens`, packed first."""
    layout = PackedLayout(weights)
    return monomial_kpoly(list(map(layout.pack, gens)), layout)


@given(monomial_ideals())
def test_monomial_series_counts_standard_monomials(ideal):
    weights, gens = ideal
    hs = HilbertSeries(packed_kpoly(gens, weights), weights=weights)
    coeffs = hs.coefficients(TOP)
    for d in range(TOP + 1):
        assert coeffs.get(d, 0) == len(standard_monomials_filter(weights, gens, d))


def test_monomial_kpoly_small_cases():
    assert packed_kpoly([], [1, 1]) == {0: 1}
    assert packed_kpoly([(0, 0)], [1, 1]) == {}
    # (x^2, xy, y^2): 1 - 3t^2 + 2t^3
    assert packed_kpoly([(2, 0), (1, 1), (0, 2)], [1, 1]) == {0: 1, 2: -3, 3: 2}
    # principal ideal (x^3) in k[x:2, y:3]: 1 - t^6
    assert packed_kpoly([(3, 0)], [2, 3]) == {0: 1, 6: -1}


@st.composite
def monomial_ideals_any_width(draw):
    """(weights, generator exponents) in at most five variables, with
    every weight at most 3 (32-bit packed fields) or some weight of 4 or
    more (64-bit fields)."""
    n = draw(st.integers(1, 5))
    weights = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    if draw(st.booleans()):
        weights[draw(st.integers(0, n - 1))] = draw(st.integers(4, 9))
    exponent = st.tuples(*[st.integers(0, 4)] * n)
    return weights, draw(st.lists(exponent, max_size=8))


@settings(max_examples=200)
@given(monomial_ideals_any_width())
@example(([1, 2, 3], []))  # the zero ideal
@example(([2, 5], []))
@example(([1, 2, 3], [(0, 0, 0)]))  # the unit ideal
@example(([4, 1], [(0, 0), (2, 1)]))
@example(([1, 1, 1], [(2, 0, 0), (1, 1, 0), (0, 2, 1), (0, 0, 3)]))
@example(([4, 6, 1], [(3, 0, 0), (0, 2, 0), (1, 0, 2), (0, 0, 9), (1, 1, 1)]))
def test_packed_kpoly_matches_the_tuple_recursion(ideal):
    weights, gens = ideal
    assert packed_kpoly(gens, weights) == monomial_kpoly_tuples(gens, weights)


@settings(max_examples=25)
@given(
    st.lists(
        st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2)).filter(
            any
        ),
        min_size=1,
        max_size=3,
    )
)
def test_duplication_series_is_additive(exponents):
    A = make_ring(101, ["x1", "x2", "x3"])
    gens = [A.ambient.monomial(e) for e in exponents]
    I = IdealHandle(A, gens)
    P = amalgam_present(duplication(A, I))
    assert hilbert_series(P.ring) == hilbert_series(A) + hilbert_series(I)


def test_order_at_one():
    assert _order_at_one({0: 1}) == 0
    assert _order_at_one({0: 1, 1: -2, 2: 1}) == 2  # (1 - t)^2
    assert _order_at_one({-3: 1, -2: -1, 0: -1, 1: 1}) == 2  # t^-3(1 - t)(1 - t^3)
    assert _order_at_one({0: 1, 2: -1}) == 1  # (1 - t)(1 + t)


def test_dimension_is_the_pole_order_at_one():
    assert HilbertSeries({}, weights=[1, 1]).dimension() == -1
    assert HilbertSeries({0: 1}, weights=[]).dimension() == 0
    assert HilbertSeries({0: 1}, weights=[1, 1, 1]).dimension() == 3
    # Ext-like numerators with negative degrees: t^-3 / (1 - t) and
    # t^-2 (1 - t)^2 / (1 - t)^3
    assert HilbertSeries({-3: 1}, weights=[1]).dimension() == 1
    assert HilbertSeries({-2: 1, -1: -2, 0: 1}, weights=[1, 1, 1]).dimension() == 1
    # weights above 1: k[x:2, y:3] and its cusp x^3 - y^2
    assert HilbertSeries({0: 1}, weights=[2, 3]).dimension() == 2
    assert HilbertSeries({0: 1, 6: -1}, weights=[2, 3]).dimension() == 1


def test_dimension_of_differences_over_product_denominators():
    # (1 + t) / ((1 - t)(1 - t^2)) is 1 / (1 - t)^2 over another denominator
    plane = HilbertSeries({0: 1, 1: 1}, weights=[1, 2])
    line = HilbertSeries({0: 1}, weights=[1])
    diff = plane - HilbertSeries({1: 1}, weights=[1, 1])
    assert diff.den != plane.den
    assert diff == line
    assert diff.dimension() == 1
    assert (plane - line).dimension() == 2
    assert (plane - HilbertSeries({0: 1}, weights=[1, 1])).dimension() == -1


@st.composite
def sparse_laurent(draw):
    """A nonzero Laurent polynomial with a few terms spread over a wide
    degree range, times (1 - t)^k and a few factors 1 - t^w, so that t = 1
    is often a root of some multiplicity."""
    terms = draw(
        st.dictionaries(
            st.integers(-40, 300), st.integers(-3, 3).filter(bool),
            min_size=1, max_size=5,
        )
    )
    for w in draw(st.lists(st.integers(1, 40), max_size=3)):
        terms = lp_mul(terms, {0: 1, w: -1})
    for _ in range(draw(st.integers(0, 3))):
        terms = lp_mul(terms, {0: 1, 1: -1})
    return terms


WEIGHTS = st.lists(st.integers(1, 3), max_size=3)


@given(sparse_laurent())
def test_order_at_one_matches_the_division(a):
    assert _order_at_one(a) == order_at_one_divide(a)


@given(sparse_laurent(), WEIGHTS, sparse_laurent(), WEIGHTS, st.booleans())
def test_first_difference_matches_the_scan(num_a, weights_a, num_b, weights_b, same):
    a = HilbertSeries(num_a, weights=weights_a)
    if same:
        # a over a larger denominator: the same series
        num_b = lp_mul(num_a, {0: 1, 2: -1})
        weights_b = weights_a + [2]
    b = HilbertSeries(num_b, weights=weights_b)
    assert a.first_difference(b) == first_difference_scan(a, b)
    if same:
        assert a.first_difference(b) is None


def fixture_series():
    """The series of every ring a fixture declares, and for each amalgam
    HS(C/K) and HS(A) + HS(J)."""
    out = []
    for f in sorted(resources.files("amalgams").joinpath("fixtures").iterdir()):
        if not f.name.endswith(".alg"):
            continue
        for kind, obj in parse_input(f.read_text()).decls.values():
            if kind == "ring":
                out.append(obj.series)
            elif kind == "amalgam":
                P = amalgam_present(obj)
                out += [P.ring.series, obj.A.series + P.J_series]
    return out


def test_pole_order_and_first_difference_on_fixture_series():
    all_series = fixture_series()
    assert len(all_series) > 20
    for hs in all_series:
        for part in (hs.num, hs.den):
            assert _order_at_one(part) == order_at_one_divide(part)
    for a, b in combinations(all_series, 2):
        assert a.first_difference(b) == first_difference_scan(a, b)
