"""Minimal generators from one incrementally extended module GB agree with
the from-scratch route of `oracles.minimal_generators_rebuild`."""

from hypothesis import given, settings

from amalgams.modules import FPModule, minimal_generators, syzygies
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
