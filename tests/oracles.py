"""Second routes for results the package computes more cleverly.

`resolution_series` takes Hilbert series from the alternating sum of the
twists of a minimal free resolution, where
`amalgams.homology.hilbert_series` reads them off leading monomials.
`minimal_generators_rebuild` builds a new module GB from scratch after
every kept vector, where `amalgams.modules.minimal_generators` extends one.
`ideal_generated_by_closure` and `all_ideals_closure` close a finite ring's
multiples under addition until nothing changes, where `amalgams.finite`
adds principal ideals coset by coset; `amalgam_tables_loop` fills a finite
amalgam's tables one pair at a time, where `FiniteAmalgam` indexes them.
"""

import numpy as np

from amalgams.errors import NotARing
from amalgams.finite import FiniteIdeal, _normalize_one
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


def ideal_generated_by_closure(R, gens):
    """Smallest ideal containing gens: all multiples, closed under addition."""
    elems = set()
    for g in gens:
        for r in range(R.n):
            elems.add(int(R.mul[r, g]))
    elems.add(0)
    frontier = True
    while frontier:
        frontier = False
        for a in list(elems):
            for b in list(elems):
                s = int(R.add[a, b])
                if s not in elems:
                    elems.add(s)
                    frontier = True
    return FiniteIdeal(R, elems, check=False)


def all_ideals_closure(R):
    """The ideal lattice as the join-closure of the principal ideals, each
    join generated afresh from the union of the two ideals."""
    principals = {ideal_generated_by_closure(R, [a]).elements for a in range(R.n)}
    lattice = set(principals)
    frontier = set(principals)
    while frontier:
        new = set()
        for I in frontier:
            for P in principals:
                J = ideal_generated_by_closure(R, I | P).elements
                if J not in lattice:
                    lattice.add(J)
                    new.add(J)
        frontier = new
    return [FiniteIdeal(R, e, check=False) for e in sorted(lattice, key=sorted)]


def amalgam_tables_loop(A, B, f, J):
    """The addition and multiplication tables of {(a, f(a) + j)} in A x B,
    relabeled so that (1, 1) is 1, filled one pair of pairs at a time."""
    pairs = sorted({(a, int(B.add[f[a], j])) for a in range(A.n) for j in J.elements})
    index = {p: i for i, p in enumerate(pairs)}
    m = len(pairs)
    add = np.zeros((m, m), dtype=np.int64)
    mul = np.zeros((m, m), dtype=np.int64)
    for i, (a1, b1) in enumerate(pairs):
        for k, (a2, b2) in enumerate(pairs):
            s = (int(A.add[a1, a2]), int(B.add[b1, b2]))
            t = (int(A.mul[a1, a2]), int(B.mul[b1, b2]))
            if s not in index or t not in index:
                raise NotARing("amalgam subset is not closed in A x B")
            add[i, k] = index[s]
            mul[i, k] = index[t]
    (add, mul), _ = _normalize_one(add, mul, index[(A.one, B.one)])
    return add, mul
