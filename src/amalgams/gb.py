"""Ideals as rank-1 submodules of the one Groebner engine in `modules`.

`buchberger` is the module Groebner basis of the rank-1 vectors,
minimalized and tail-reduced; `intersect` and `colon` are quotients
(U : v) of a submodule U by one vector v, the syzygies of v modulo U;
`eliminate` drops a leading block of variables under the block order that
eliminates them.  `kernel_of_map` substitutes a section of the map into
the target ideal when the map sends a source variable to a unit multiple
of each target variable, and otherwise puts the target's variables in
that block.  Reduced Groebner bases are unique for a fixed ideal and
order, so both routes give the same kernel, and the engine is
deterministic, so rerunning it reproduces them element for element.

Every function here that returns an ideal returns a `GroebnerBasis`.  It
keeps the rank-1 `_Basis` it was reduced as, with its order and the leads
the engine found, and `normal_form` reduces against that basis, so no
caller rebuilds a basis, an order or a lead.  A ring derived here (the
subring of `eliminate`, the joint ring of `kernel_of_map`) takes the field
and the degree cap of the ring it comes from.

Polynomials in and out are exponent tuples; the rank-1 vectors in between
hold packed monomials (`poly.PackedLayout`), and the leads a basis keeps
(`basis.leads`) stay packed for the Hilbert series and the standard
monomials.  Only `eliminate` unpacks: the monomials it keeps, whose cut
it packs in the subring's layout.
"""

from __future__ import annotations

from .errors import ContextMismatch
from .modules import (
    FreeModule,
    ModOrder,
    ModVec,
    _Basis,
    _reduce,
    _syzygy_basis,
    module_groebner,
)
from .poly import Polynomial


class IdealBasis:
    """A generating set of an ideal, `buchberger`'s input; the zero ideal
    is the empty list."""

    def __init__(self, ring, gens):
        self.ring = ring
        self.gens = [g for g in gens if not g.is_zero()]
        for g in self.gens:
            if g.ring != ring:
                raise ContextMismatch("generator in wrong ring")

    def __repr__(self):
        if not self.gens:
            return "<0>"
        return "<" + ", ".join(str(g) for g in self.gens) + ">"


class GroebnerBasis:
    """A reduced Groebner basis: monic elements, pairwise fully reduced.

    `basis` is the `_Basis` of the elements as rank-1 vectors, with the
    order they are reduced under and the leads the engine found; it is
    what `normal_form` reduces against.  `elements` are its vectors as
    polynomials."""

    def __init__(self, ring, basis):
        self.ring = ring
        self.basis = basis
        self.elements = [g.component_poly(0) for g in basis]

    def contains_one(self):
        return len(self.elements) == 1 and self.elements[0].degree() == 0

    def __repr__(self):
        if not self.elements:
            return "GB<0>"
        return "GB<" + ", ".join(str(g) for g in self.elements) + ">"


def _rank_one(ring, polys):
    """The polynomials as vectors of the free module S^1."""
    free = FreeModule(ring, [0])
    return [free.from_polys([f]) for f in polys]


def buchberger(basis, order=None):
    """Reduced Groebner basis of the ideal generated by `basis` under the
    `ModOrder` `order` (grevlex by default): the module engine's basis of
    the rank-1 submodule, minimalized and tail-reduced."""
    ring = basis.ring
    order = order or ModOrder(ring.layout)
    return _reduced(ring, module_groebner(_rank_one(ring, basis.gens), order))


def _reduced(ring, G):
    """The reduced basis of the ideal whose Groebner basis is the `_Basis`
    G of monic rank-1 vectors, with G's leads and G's order."""
    vecs, leads = G.vecs, G.leads
    divides = ring.layout.divides
    # Minimalize: drop elements whose leading monomial is divisible by
    # another one.
    minimal = [
        idx
        for idx, (_, lm) in enumerate(leads)
        if not any(
            k != idx and divides(km, lm) and (km != lm or k < idx)
            for k, (_, km) in enumerate(leads)
        )
    ]
    # Tail-reduce each survivor against all of them, one index for all:
    # no other survivor's lead divides its lead, and its own lead divides
    # no term below it, so this is its normal form against the others.  A
    # tail no lead divides is its own normal form, and stays as it is.
    minimal_leads = [leads[k] for k in minimal]
    basis = _Basis(G.order, [vecs[k] for k in minimal], minimal_leads)
    free = FreeModule(ring, [0])
    reduced = []
    for idx in minimal:
        g, lead = vecs[idx], leads[idx]
        tail = dict(g.terms)
        c = tail.pop(lead)
        if any(divides(km, m) for _, m in tail for _, km in minimal_leads):
            g = ModVec(free, {lead: c, **_reduce(ModVec(free, tail), basis).terms})
        reduced.append((g, lead))
    reduced.sort(key=lambda gl: G.order.key(gl[1]))
    return GroebnerBasis(
        ring, _Basis(G.order, [g for g, _ in reduced], [m for _, m in reduced])
    )


def normal_form(f, G):
    """Canonical representative of f modulo the ideal of G."""
    if f.ring != G.ring:
        raise ContextMismatch("polynomial and basis in different rings")
    if not G.elements:
        return f
    (v,) = _rank_one(f.ring, [f])
    return _reduce(v, G.basis).component_poly(0)


def eliminate(ring, gens, k):
    """Contract the ideal of `gens` to the subring on all but the first k
    variables, from its basis under `ModOrder(layout, block=k)`, the order
    that eliminates them.

    Returns the reduced grevlex basis over a new ring on the retained
    variables (with their weights, the field and the degree cap).  The
    front block dominates, so an element of the block basis lies in the
    subring exactly when its lead does; on monomials free of the front
    block the order is grevlex, so these elements, in the block basis's
    order and with their terms and leads cut to the retained variables,
    are that basis.  The kept monomials are unpacked, cut and packed again
    in the subring's layout.
    """
    G = buchberger(IdealBasis(ring, gens), ModOrder(ring.layout, block=k)).basis
    sub_ring = ring.with_variables(ring.names[k:], ring.weights[k:])
    unpack, pack = ring.layout.unpack, sub_ring.layout.pack
    free = FreeModule(sub_ring, [0])
    kept = _Basis(ModOrder(sub_ring.layout))
    for g, (_, lead) in zip(G, G.leads):
        lead = unpack(lead)
        if not any(lead[:k]):
            cut = {(0, pack(unpack(m)[k:])): c for (_, m), c in g.terms.items()}
            kept.append(ModVec(free, cut), (0, pack(lead[k:])))
    return GroebnerBasis(sub_ring, kept)


def quotient_ideal(v, rels):
    """The reduced grevlex basis of the quotient (U : v) = {a | a*v in U},
    U the submodule generated by `rels`: the syzygies of v modulo U, which
    the engine returns, after running every pair, as a grevlex Groebner
    basis with its leads, so they are only minimalized and tail-reduced."""
    return _reduced(v.ring, _syzygy_basis([v], twists=[0], modulo=rels))


def intersect(ring, I, J):
    """The reduced grevlex Groebner basis of the intersection of the ideals
    generated by the polynomials I and J of `ring`: the quotient of (1, 1)
    modulo I+0 and 0+J."""
    free = FreeModule(ring, [0, 0])
    zero = ring.zero()
    rels = [free.from_polys([f, zero]) for f in I]
    rels += [free.from_polys([zero, g]) for g in J]
    return quotient_ideal(free.from_polys([ring.one(), ring.one()]), rels)


def colon(ring, I, J):
    """The quotient ideal (I : J) = {f | f*J inside I} of the ideals
    generated by the polynomials I and J of `ring`: the quotient of
    (g_1..g_m), the generators of J, modulo I^m; component i has twist
    -deg g_i, so the vector has degree 0.  For J = 0 the vector is zero and
    the quotient is the unit ideal."""
    free = FreeModule(ring, [-g.degree() for g in J])
    zero = ring.zero()
    rels = [free.from_polys([zero] * i + [f]) for i in range(free.rank) for f in I]
    return quotient_ideal(free.from_polys(J), rels)


def _section(source_ring, images, target_ring):
    """For each variable y_t of the target ring, the index of a source
    variable u of y_t's weight whose image is c*y_t, c a unit, with
    1/c; None when some y_t is no such image."""
    found = {}
    for i, (w, img) in enumerate(zip(source_ring.weights, images)):
        if len(img.terms) != 1:
            continue
        ((mono, c),) = img.terms.items()
        if sum(mono) == 1:
            t = mono.index(1)
            if target_ring.weights[t] == w:
                found.setdefault(t, (i, target_ring.field.inverse(c)))
    if len(found) < target_ring.nvars:
        return None
    return [found[t] for t in range(target_ring.nvars)]


def kernel_of_map(source_ring, images, target):
    """Kernel of k[source] -> k[target]/target_ideal, one image per
    variable, the target ideal given by its Groebner basis `target`; the
    result is its reduced grevlex basis, in `buchberger`'s order.

    When every target variable y_t is c_t times the image of a source
    variable u_t of its weight, the map has the graded section
    s: y_t -> u_t/c_t, and the kernel is s(target_ideal) + (v - s(image
    of v)) for the other source variables v: one basis in the source ring.
    Otherwise it is computed in a joint ring (target variables in the
    elimination block, source variables retained, the source's field and
    degree cap) from target_ideal + <source_i - image_i>.  Eliminating
    the block leaves a ring equal to the source ring.
    """
    target_ring = target.ring
    if len(images) != source_ring.nvars:
        raise ValueError("one image per source variable")
    for img in images:
        if img.ring != target_ring:
            raise ContextMismatch("image not in target ring")
    section = _section(source_ring, images, target_ring)
    if section is not None:
        return _kernel_by_section(source_ring, images, target, section)
    joint = source_ring.with_variables(
        [f"@{n}" for n in target_ring.names] + list(source_ring.names),
        list(target_ring.weights) + list(source_ring.weights),
    )
    gens = [joint.embed(g) for g in target.elements]
    for name, img in zip(source_ring.names, images):
        gens.append(joint.var(name) - joint.embed(img))
    return eliminate(joint, gens, target_ring.nvars)


def _kernel_by_section(source_ring, images, target, section):
    """The kernel of `kernel_of_map` from the section y_t -> u_t/c_t that
    `_section` found, as (u_t, 1/c_t) per target variable.  The u_t are
    distinct, so s sends distinct monomials to distinct monomials."""
    p = source_ring.p
    n = source_ring.nvars

    def s(f):
        terms = {}
        for mono, c in f.terms.items():
            out = [0] * n
            for (i, inv), e in zip(section, mono):
                if e:
                    out[i] = e
                    c = c * pow(inv, e, p) % p
            terms[tuple(out)] = c
        return Polynomial(source_ring, terms)

    gens = [s(g) for g in target.elements]
    hit = {i for i, _ in section}
    for i, (name, img) in enumerate(zip(source_ring.names, images)):
        if i not in hit:
            gens.append(source_ring.var(name) - s(img))
    return buchberger(IdealBasis(source_ring, gens))
