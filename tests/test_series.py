"""Property tests for Hilbert series read off leading monomials.

Monomial ideals are checked against a brute-force count of standard
monomials, and duplications against the additivity HS(C/K) = HS(A) + HS(J)
of the split sequence 0 -> J -> A ⋈ J -> A -> 0.  A series' dimension,
the order of its pole at t = 1, is checked on numerators with negative
degrees, on differences over product denominators and on weights above 1.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from amalgams.amalgam import amalgam_present, duplication
from amalgams.homology import hilbert_series
from amalgams.ring import IdealHandle, make_ring
from amalgams.series import HilbertSeries, _order_at_one, monomial_kpoly
from oracles import standard_monomials_filter

TOP = 8


@st.composite
def monomial_ideals(draw):
    n = draw(st.integers(1, 4))
    weights = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    exponent = st.tuples(*[st.integers(0, 3)] * n)
    gens = draw(st.lists(exponent, max_size=6))
    return weights, gens


@given(monomial_ideals())
def test_monomial_series_counts_standard_monomials(ideal):
    weights, gens = ideal
    hs = HilbertSeries(monomial_kpoly(gens, weights), weights=weights)
    coeffs = hs.coefficients(TOP)
    for d in range(TOP + 1):
        assert coeffs.get(d, 0) == len(standard_monomials_filter(weights, gens, d))


def test_monomial_kpoly_small_cases():
    assert monomial_kpoly([], [1, 1]) == {0: 1}
    assert monomial_kpoly([(0, 0)], [1, 1]) == {}
    # (x^2, xy, y^2): 1 - 3t^2 + 2t^3
    assert monomial_kpoly([(2, 0), (1, 1), (0, 2)], [1, 1]) == {0: 1, 2: -3, 3: 2}
    # principal ideal (x^3) in k[x:2, y:3]: 1 - t^6
    assert monomial_kpoly([(3, 0)], [2, 3]) == {0: 1, 6: -1}


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
