"""Second routes for results the package computes more cleverly.

`resolution_series` takes Hilbert series from the alternating sum of the
twists of a minimal free resolution, where
`amalgams.homology.hilbert_series` reads them off leading monomials.
`minimal_generators_rebuild` builds a new module GB from scratch after
every kept vector, where `amalgams.modules.minimal_generators` extends one.
"""

from amalgams.homology import free_resolution
from amalgams.modules import (
    ModOrder,
    _mod_reduce,
    leading_mod_term,
    module_groebner,
)
from amalgams.ring import IdealHandle, PresentedRing
from amalgams.series import HilbertSeries, lp_add, lp_monomial, lp_neg, lp_zero


def resolution_series(obj):
    """Hilbert series from the Betti twists of a minimal free resolution."""
    if isinstance(obj, IdealHandle):
        R = obj.ring
        big = PresentedRing(R.ambient, list(R.defining.elements) + obj.generators)
        return resolution_series(R) - resolution_series(big)
    res = free_resolution(obj)
    num = lp_zero()
    for i, tw in enumerate(res.twists):
        block = lp_zero()
        for t in tw:
            block = lp_add(block, lp_monomial(t))
        num = lp_add(num, block if i % 2 == 0 else lp_neg(block))
    return HilbertSeries(num, weights=res.ring.weights)


def minimal_generators_rebuild(vecs):
    """Minimal generating subset, one from-scratch module GB per kept vector."""
    vecs = [v for v in vecs if not v.is_zero()]
    vecs.sort(key=lambda v: (v.degree(), sorted(v.terms.items())))
    kept = []
    gb = []
    for v in vecs:
        if gb:
            order = ModOrder(v.ring.weights)
            leads = [leading_mod_term(g, order)[0] for g in gb]
            if _mod_reduce(v, gb, leads, order).is_zero():
                continue
        kept.append(v)
        gb = module_groebner(kept)
    return kept
