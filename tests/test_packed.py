"""The packed exponent layout (`poly.PackedLayout`) against the definitions
on exponent tuples: pack and unpack are inverse, and divides, quotient,
product, lcm, weighted degree and `ModOrder.key` agree with `all(<=)`,
`-`, `+`, `max`, the weighted sum and `poly.grevlex_key`, for exponents up
to the largest the layout admits.  Past the layout nothing wraps: packing
raises, and so does the engine, with no degree cap, on an S-pair whose
S-vector leaves the layout and on a reduction whose product would."""

from operator import add, le, mul, sub

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amalgams.errors import DegreeCapExceeded
from amalgams.gb import IdealBasis, buchberger
from amalgams.modules import FreeModule, ModOrder, _Basis, _reduce, leading_mod_term
from amalgams.poly import (
    PACKED_DEGREE_BOUND,
    PackedLayout,
    PolyRing,
    grevlex_key,
    parse_poly,
)

PAST_LAYOUT = "exceeds the packed exponent bound"


def degree(expts, weights):
    return sum(map(mul, expts, weights))


@st.composite
def monomials(draw, weights):
    """An exponent tuple of weighted degree below PACKED_DEGREE_BOUND: the
    variables, in a drawn order, take small exponents, any exponent the
    degree left admits, or all of it."""
    expts = [0] * len(weights)
    left = PACKED_DEGREE_BOUND - 1
    for i in draw(st.permutations(range(len(weights)))):
        most = left // weights[i]
        small = st.integers(0, min(3, most))
        e = draw(st.one_of(small, st.integers(0, most), st.just(most)))
        expts[i] = e
        left -= e * weights[i]
    return tuple(expts)


def packed_int(layout, expts, weights):
    """The documented layout: exponent i at bit i * field, the weighted
    degree at bit `shift`."""
    fields = sum(e << (i * layout.field) for i, e in enumerate(expts))
    return fields | (degree(expts, weights) << layout.shift)


@settings(max_examples=300)
@given(data=st.data())
def test_packed_arithmetic_matches_the_tuple_definitions(data):
    n = data.draw(st.integers(1, 6))
    w = tuple(data.draw(st.lists(st.integers(1, 3), min_size=n, max_size=n)))
    layout = PackedLayout(w)
    a, b = data.draw(monomials(w)), data.draw(monomials(w))
    if data.draw(st.booleans()):
        # b a multiple of a, when the degree allows, so divides holds
        c = data.draw(monomials(w))
        if degree(a, w) + degree(c, w) < PACKED_DEGREE_BOUND:
            b = tuple(map(add, a, c))
    pa, pb = layout.pack(a), layout.pack(b)
    for m, pm in ((a, pa), (b, pb)):
        assert layout.unpack(pm) == m
        assert pm == packed_int(layout, m, w)
        assert pm >> layout.shift == degree(m, w)
        assert not pm & layout.guard
    assert layout.divides(pa, pb) == all(map(le, a, b))
    if all(map(le, a, b)):
        assert pb - pa == layout.pack(tuple(map(sub, b, a)))
    # A product of two packed monomials and an S-vector term (a product of
    # a monomial with an lcm over a third) may leave the degree bound, but
    # each stays exact and below every guard bit.
    lcm = tuple(map(max, a, b))
    assert layout.lcm(pa, pb) == packed_int(layout, lcm, w)
    m = data.draw(monomials(w))
    for got, want in (
        (pa + pb, tuple(map(add, a, b))),
        (
            layout.pack(m) + layout.lcm(pa, pb) - pa,
            tuple(map(add, m, map(sub, lcm, a))),
        ),
    ):
        assert got == packed_int(layout, want, w)
        assert not got & layout.guard


@settings(max_examples=200)
@given(data=st.data())
def test_mod_order_keys_sort_as_grevlex_key(data):
    # The packed key of each order sorts terms as the tuple key built from
    # `grevlex_key`: the front component block, then grevlex on the first
    # `block` variables, then grevlex on all, then the component.
    n = data.draw(st.integers(1, 6))
    w = tuple(data.draw(st.lists(st.integers(1, 3), min_size=n, max_size=n)))
    split, block = data.draw(st.integers(0, 2)), data.draw(st.integers(0, n))
    order = ModOrder(PackedLayout(w), split, block)
    pack = PackedLayout(w).pack
    terms = data.draw(
        st.lists(st.tuples(st.integers(0, 2), monomials(w)), min_size=2, unique=True)
    )

    def tuple_key(term):
        comp, m = term
        front = -1 if comp < split else 0
        mono = grevlex_key(m, w)
        if block:
            mono = grevlex_key(m[:block], w[:block]) + mono
        return (front, mono, comp)

    keys = {order.key((c, pack(m))) for c, m in terms}
    assert len(keys) == len(terms)
    assert sorted(terms, key=lambda t: order.key((t[0], pack(t[1])))) == sorted(
        terms, key=tuple_key
    )


@pytest.mark.parametrize("weights", [(1,), (3,), (1, 2, 3), (4, 1), (2**40, 1)])
def test_packing_refuses_a_monomial_just_past_the_layout(weights):
    layout = PackedLayout(weights)
    w = weights[-1]
    last = (PACKED_DEGREE_BOUND - 1) // w
    inside = (0,) * (len(weights) - 1) + (last,)
    assert layout.unpack(layout.pack(inside)) == inside
    past = (0,) * (len(weights) - 1) + (last + 1,)
    with pytest.raises(DegreeCapExceeded, match=PAST_LAYOUT):
        layout.pack(past)


def test_an_uncapped_pair_leaving_the_layout_raises():
    # The leads x^(D-1) and x*y^(D-2) share x, and their S-vector
    # x^(D-2)*z^(D-1) - y^(2D-3) has degree 2D - 3, past the layout.
    D = PACKED_DEGREE_BOUND
    S = PolyRing(101, ["x", "y", "z"], degree_cap=None)
    f = parse_poly(S, f"x^{D - 1} - y^{D - 1}")
    g = parse_poly(S, f"x*y^{D - 2} - z^{D - 1}")
    with pytest.raises(DegreeCapExceeded, match=f"degree {2 * D - 3} {PAST_LAYOUT}"):
        buchberger(IdealBasis(S, [f, g]))


def test_an_uncapped_reduction_stops_before_a_product_leaves_the_layout():
    # Under the order that eliminates x, x - y^(2^28) turns each x of x^8
    # into y^(2^28); y^(2^31) would carry into the guard bit.  The second
    # product, x^6*y^(2^28) times x - y^(2^28), has degree 2^29 + 6.
    S = PolyRing(101, ["x", "y"], degree_cap=None)
    F = FreeModule(S, [0])
    g = F.from_polys([parse_poly(S, f"x - y^{2**28}")])
    order = ModOrder(S.layout, block=1)
    basis = _Basis(order, [g], [leading_mod_term(g, order)[0]])
    v = F.from_polys([parse_poly(S, "x^8")])
    with pytest.raises(DegreeCapExceeded, match=f"degree {2**29 + 6} {PAST_LAYOUT}"):
        _reduce(v, basis)
