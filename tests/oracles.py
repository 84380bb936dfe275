"""Hilbert series by a second, independent route: the alternating sum of
the twists of a minimal free resolution.

`amalgams.homology.hilbert_series` reads series off leading monomials;
the tests compare the two routes.
"""

from amalgams.homology import free_resolution
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
