"""Ideals as rank-1 submodules of the one Groebner engine in `modules`.

`buchberger` is the module Groebner basis of the rank-1 vectors,
minimalized and tail-reduced; `normal_form` is the module reducer;
`intersect` and `colon` are quotients (U : v) of a submodule U by one
vector v, computed as the syzygies of v modulo U; `eliminate` drops a
leading block of variables by the same engine under the block order that
eliminates them, and `kernel_of_map` puts the target's variables in that
block.  Everything here is deterministic: the S-pair selection uses the
normal strategy (minimal lcm weighted degree, ties by smallest pair
index), and reduced Groebner bases are unique for a fixed ideal and
order, so rerunning the engine reproduces them element for element.
Each computation runs under its ring's degree cap, and a ring derived
here (the subring of `eliminate`, the joint ring of `kernel_of_map`)
takes the cap of the ring it comes from.
"""

from __future__ import annotations

from .errors import ContextMismatch
from .modules import (
    FreeModule,
    ModOrder,
    ModVec,
    _Basis,
    _reduce,
    leading_mod_term,
    module_groebner,
    syzygies,
)
from .poly import GREVLEX, BlockOrder, Polynomial, leading_term


class IdealBasis:
    """A generating set of an ideal; the zero ideal is the empty list."""

    def __init__(self, ring, gens):
        self.ring = ring
        self.gens = [g for g in gens if not g.is_zero()]
        for g in self.gens:
            if g.ring != ring:
                raise ContextMismatch("generator in wrong ring")

    def is_zero(self):
        return not self.gens

    def __repr__(self):
        if not self.gens:
            return "<0>"
        return "<" + ", ".join(str(g) for g in self.gens) + ">"


class GroebnerBasis:
    """A reduced Groebner basis: monic elements, pairwise fully reduced."""

    def __init__(self, ring, elements, order):
        self.ring = ring
        self.elements = elements
        self.order = order
        self._vectors = None

    def is_zero(self):
        return not self.elements

    def contains_one(self):
        return len(self.elements) == 1 and self.elements[0].degree() == 0

    def leading_monomials(self):
        return [leading_term(g, self.order)[0] for g in self.elements]

    def _as_vectors(self):
        """(the elements as a `_Basis` of rank-1 vectors, module order):
        the form `normal_form` reduces against, built on first use."""
        if self._vectors is None:
            leads = [(0, m) for m in self.leading_monomials()]
            order = ModOrder(self.ring.weights, order=self.order)
            vecs = _rank_one(self.ring, self.elements)
            self._vectors = (_Basis(vecs, leads), order)
        return self._vectors

    def __repr__(self):
        if not self.elements:
            return "GB<0>"
        return "GB<" + ", ".join(str(g) for g in self.elements) + ">"


def _rank_one(ring, polys):
    """The polynomials as vectors of the free module S^1."""
    free = FreeModule(ring, [0])
    return [free.from_polys([f]) for f in polys]


def buchberger(basis, order=GREVLEX):
    """Reduced Groebner basis of the ideal generated by `basis`: the module
    engine's basis of the rank-1 submodule, minimalized and tail-reduced."""
    ring = basis.ring
    morder = ModOrder(ring.weights, order=order)
    G = module_groebner(_rank_one(ring, basis.gens), morder)
    return _reduced(ring, G, morder)


def _reduced(ring, G, morder):
    """The reduced basis of the ideal whose Groebner basis under `morder`
    is G, a list of monic rank-1 vectors."""
    lms = [leading_mod_term(g, morder)[0][1] for g in G]
    # Minimalize: drop elements whose leading monomial is divisible by
    # another one.
    minimal = [
        idx
        for idx, lm in enumerate(lms)
        if not any(
            k != idx and ring.mono_divides(lms[k], lm) and (lms[k] != lm or k < idx)
            for k in range(len(G))
        )
    ]
    # Tail-reduce each survivor against all of them, one index for all:
    # no other survivor's lead divides its lead, and its own lead divides
    # no term below it, so this is its normal form against the others.
    basis = _Basis([G[k] for k in minimal], [(0, lms[k]) for k in minimal])
    order = morder.order
    reduced = []
    for idx in minimal:
        lead = (0, lms[idx])
        tail = dict(G[idx].terms)
        c = tail.pop(lead)
        h = _reduce(ModVec(G[idx].free, tail), basis, morder)
        g = ModVec(h.free, {lead: c, **h.terms})
        reduced.append((order.key(lms[idx], ring.weights), g.component_poly(0)))
    reduced.sort(key=lambda kg: kg[0], reverse=True)
    return GroebnerBasis(ring, [g for _, g in reduced], order)


def normal_form(f, G):
    """Canonical representative of f modulo the ideal of G."""
    if f.ring != G.ring:
        raise ContextMismatch("polynomial and basis in different rings")
    if not G.elements:
        return f
    basis, morder = G._as_vectors()
    (v,) = _rank_one(f.ring, [f])
    return _reduce(v, basis, morder).component_poly(0)


def ideal_member(f, G):
    return normal_form(f, G).is_zero()


def eliminate(basis, k):
    """Contract the ideal to the subring on all but the first k variables,
    from its basis under the block order that eliminates them.

    Returns an IdealBasis over a new ring on the retained variables (with
    their weights and the degree cap preserved).  Eliminating nothing
    returns the input.
    """
    if not k:
        return basis
    ring = basis.ring
    G = buchberger(basis, BlockOrder(k))
    sub_ring = ring.with_variables(ring.names[k:], ring.weights[k:])
    survivors = [
        Polynomial(sub_ring, {m[k:]: c for m, c in g.terms.items()})
        for g in G.elements
        if not any(any(m[:k]) for m in g.terms)
    ]
    return IdealBasis(sub_ring, survivors)


def quotient_ideal(v, rels):
    """The reduced grevlex basis of the quotient (U : v) = {a | a*v in U},
    U the submodule generated by `rels`: the syzygies of v modulo U, which
    the engine returns as a grevlex Groebner basis, so they are only
    minimalized and tail-reduced."""
    ring = v.ring
    syz = syzygies([v], modulo=rels)
    return IdealBasis(ring, _reduced(ring, syz, ModOrder(ring.weights)).elements)


def intersect(I, J):
    """The reduced grevlex Groebner basis of the intersection of two ideals,
    in `buchberger`'s order: the quotient of (1, 1) modulo I+0 and 0+J."""
    if I.ring != J.ring:
        raise ContextMismatch("ideals in different rings")
    ring = I.ring
    if I.is_zero() or J.is_zero():
        return IdealBasis(ring, [])
    free = FreeModule(ring, [0, 0])
    zero = ring.zero()
    rels = [free.from_polys([f, zero]) for f in I.gens]
    rels += [free.from_polys([zero, g]) for g in J.gens]
    return quotient_ideal(free.from_polys([ring.one(), ring.one()]), rels)


def colon(I, J):
    """The quotient ideal (I : J) = {f | f*J inside I}, as the quotient of
    (g_1..g_m), the generators of J, modulo I^m; component i has twist
    -deg g_i, so the vector has degree 0."""
    if I.ring != J.ring:
        raise ContextMismatch("ideals in different rings")
    ring = I.ring
    if J.is_zero():
        return IdealBasis(ring, [ring.one()])
    free = FreeModule(ring, [-g.degree() for g in J.gens])
    zero = ring.zero()
    rels = [free.from_polys([zero] * i + [f]) for i in range(free.rank) for f in I.gens]
    return quotient_ideal(free.from_polys(J.gens), rels)


def kernel_of_map(source_ring, images, target_basis):
    """Kernel of k[source] -> k[target]/target_ideal, one image per variable.

    Computed in a joint ring (target variables in the elimination block,
    source variables retained, the source's degree cap) from
    target_ideal + <source_i - image_i>.
    The block order restricts to grevlex on the source variables, so the
    survivors are already the reduced grevlex basis, in `buchberger`'s order.
    """
    target_ring = target_basis.ring
    if len(images) != source_ring.nvars:
        raise ValueError("one image per source variable")
    joint = source_ring.with_variables(
        [f"@{n}" for n in target_ring.names] + list(source_ring.names),
        list(target_ring.weights) + list(source_ring.weights),
    )
    tail = (0,) * source_ring.nvars

    def lift(f):
        return Polynomial(joint, {m + tail: c for m, c in f.terms.items()})

    gens = [lift(g) for g in target_basis.gens]
    for name, img in zip(source_ring.names, images):
        if img.ring != target_ring:
            raise ContextMismatch("image not in target ring")
        gens.append(joint.var(name) - lift(img))
    contracted = eliminate(IdealBasis(joint, gens), target_ring.nvars)
    return IdealBasis(
        source_ring, [Polynomial(source_ring, dict(g.terms)) for g in contracted.gens]
    )
