"""The module Groebner engine: minimal generators from one incrementally
extended module GB agree with the from-scratch route of
`oracles.minimal_generators_rebuild`; the product criterion is kept to
rank 1; the reducer stops at the degree cap."""

import pytest
from hypothesis import given, settings

from amalgams.errors import DegreeCapExceeded
from amalgams.modules import (
    FPModule,
    FreeModule,
    ModOrder,
    _mod_reduce,
    leading_mod_term,
    minimal_generators,
    module_groebner,
    syzygies,
)
from amalgams.poly import BlockOrder, PolyRing, parse_poly
from oracles import minimal_generators_rebuild
from samples import binomial_or_monomial_rings, k3_duplications, serre_rings


def assert_same_kept_along_resolution(R):
    """Compare both routes on the relation module of R and on every
    syzygy module after it, each offered unminimized."""
    vecs = FPModule.quotient_ring(R).relations
    for _ in range(R.ambient.nvars + 1):
        kept = minimal_generators(vecs)
        assert kept == minimal_generators_rebuild(vecs)
        if not kept:
            return
        vecs = syzygies(kept)
    raise AssertionError("resolution longer than the syzygy bound")


def test_minimal_generators_match_rebuild_on_fixtures():
    for R in serre_rings() + k3_duplications():
        assert_same_kept_along_resolution(R)


@settings(max_examples=25)
@given(binomial_or_monomial_rings())
def test_minimal_generators_match_rebuild_on_random_ideals(R):
    assert_same_kept_along_resolution(R)


def test_product_criterion_is_not_applied_in_rank_two():
    # The leads x*e1 and y*e1 of f = (x, y) and g = (y, z) are coprime, yet
    # their S-vector y*f - x*g = (y^2 - x*z)*e2 does not reduce to 0 by f, g.
    S = PolyRing(101, ["x", "y", "z"])
    F = FreeModule(S, [0, 0])

    def vec(a, b):
        return F.from_polys([parse_poly(S, a), parse_poly(S, b)])

    G = module_groebner([vec("x", "y"), vec("y", "z")])
    order = ModOrder(S.weights)
    leads = [leading_mod_term(g, order)[0] for g in G]
    assert _mod_reduce(vec("0", "y^2 - x*z"), G, leads, order).is_zero()


def test_reduction_stops_at_the_degree_cap():
    # Under a block order x - y^3 leads with x, so reducing x*z by it
    # brings in y^3*z, a term above the degree of everything reduced so far.
    S = PolyRing(101, ["x", "y", "z"])
    F = FreeModule(S, [0])
    g = F.from_polys([parse_poly(S, "x - y^3")])
    order = ModOrder(S.weights, order=BlockOrder(1))
    lead = [leading_mod_term(g, order)[0]]
    v = F.from_polys([parse_poly(S, "x*z")])
    with pytest.raises(DegreeCapExceeded, match="intermediate degree 4 exceeds cap 3"):
        _mod_reduce(v, [g], lead, order, degree_cap=3)
    assert _mod_reduce(v, [g], lead, order, degree_cap=4) == F.from_polys(
        [parse_poly(S, "y^3*z")]
    )
