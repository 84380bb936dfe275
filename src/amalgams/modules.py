"""Graded free modules and the package's one Groebner engine.

Vectors in a free module S^s are sparse maps (component, monomial) -> coeff.
The module order takes a monomial order (grevlex or a block order) with a
position tie-break, and supports a dominant front block of components;
computing syzygies is elimination with the front block dominant, and
syzygies modulo a submodule U lift U's generators with a zero tail, which
makes them the one kernel primitive of the package.  Graded Nakayama is
the one minimalization rule: `minimal_generators(modulo=)` keeps what the
relations and the vectors kept so far do not span, and `subquotient`, built
on it, presents Ext and every module with a unit relation entry.  One
Buchberger loop (`_extend`) and one reducer (`_reduce`) run over module
vectors; `amalgams.gb` runs ideals through them as rank-1 submodules.
Both of the engine's choices are heap pops.  The loop computes each
S-pair's lcm and its degree once, when the pair is made, and pops the
next pair from a heap of (degree, i, j, lcm).  The reducer pops the
leading term of its working dict from a heap of (order key, term),
skipping popped terms that have left the dict.  `ModOrder` keeps each
monomial's key, one flat tuple of ints, in a dict on the instance, so a
key is built once per engine call.  Pairs come out in (lcm degree, i, j)
order and terms in falling module order, as a scan for the least pair
and the largest term would pick them.
A `_Basis` keeps a per-component index beside the basis and grows it with
the basis, so it is built once per basis, not once per reduction: the
loop makes pairs only between leads of one component, the chain criterion
looks only at the leads of the pair's component, and the reducer looks
for a divisor only among the leads of the term's component, in the order
of the basis, so the first divisor found is the first in the basis.  Each
S-vector is built in one dict, and the reducer builds its remainder in
falling order, so a new element's lead is the remainder's first key.
Callers in this package pass vectors homogeneous with respect to the
component twists; the engine itself only needs that for `degree()`.
"""

from __future__ import annotations

from collections import defaultdict
from heapq import heapify, heappop, heappush
from operator import add, le, mul, neg, sub

from .errors import DegreeCapExceeded, NotHomogeneous
from .poly import GREVLEX, Polynomial

DEFAULT_DEGREE_CAP = 64


class FreeModule:
    """S^rank with a generator degree (twist) per component."""

    def __init__(self, ring, twists):
        self.ring = ring
        self.twists = tuple(twists)
        self.rank = len(self.twists)

    def __eq__(self, other):
        return (
            isinstance(other, FreeModule)
            and self.ring == other.ring
            and self.twists == other.twists
        )

    def __repr__(self):
        return f"Free({self.ring}, twists={list(self.twists)})"

    def zero(self):
        return ModVec(self, {})

    def basis_vector(self, i):
        return ModVec(self, {(i, self.ring.one_mono()): 1})

    def from_polys(self, polys):
        """Vector with the given polynomial in each component."""
        terms = {}
        for i, f in enumerate(polys):
            for m, c in f.terms.items():
                terms[(i, m)] = c
        return ModVec(self, terms)


class ModVec:
    """Sparse element of a free module."""

    __slots__ = ("free", "terms", "_max_deg")

    def __init__(self, free, terms):
        self.free = free
        self.terms = terms
        self._max_deg = None

    @property
    def ring(self):
        return self.free.ring

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return (
            isinstance(other, ModVec)
            and self.free == other.free
            and self.terms == other.terms
        )

    def __add__(self, other):
        p = self.ring.p
        terms = dict(self.terms)
        for k, c in other.terms.items():
            s = (terms.get(k, 0) + c) % p
            if s:
                terms[k] = s
            else:
                terms.pop(k, None)
        return ModVec(self.free, terms)

    def __neg__(self):
        p = self.ring.p
        return ModVec(self.free, {k: p - c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        c = self.ring.field.normalize(c)
        if c == 0:
            return self.free.zero()
        p = self.ring.p
        return ModVec(self.free, {k: (v * c) % p for k, v in self.terms.items()})

    def component_poly(self, i):
        return Polynomial(
            self.ring, {m: c for (j, m), c in self.terms.items() if j == i}
        )

    def degree(self):
        """Common homogeneous degree, or -1 for the zero vector."""
        if not self.terms:
            return -1
        degs = {
            self.ring.mono_degree(m) + self.free.twists[i] for (i, m) in self.terms
        }
        if len(degs) > 1:
            raise NotHomogeneous("inhomogeneous module vector")
        return degs.pop()

    def max_mono_degree(self):
        """Largest monomial degree among the terms (-1 for zero), kept
        after the first call: a vector's terms never change."""
        if self._max_deg is None:
            degree = self.ring.mono_degree
            self._max_deg = max((degree(m) for (_, m) in self.terms), default=-1)
        return self._max_deg

    def __repr__(self):
        polys = [str(self.component_poly(i)) for i in range(self.free.rank)]
        return "(" + ", ".join(polys) + ")"


class ModOrder:
    """Module term order: front block of components dominates, then the
    monomial order (grevlex or a block order) on the monomial, then the
    smaller component index wins.

    `key` is one flat tuple of ints, negated, so the biggest term has the
    smallest key and a `heapq` pops leading terms first.  The monomial
    part of each key is computed once per instance and kept in a dict that
    lives as long as the instance.
    """

    def __init__(self, weights, split=0, order=GREVLEX):
        self.weights = weights
        self.split = split
        self.order = order
        self._mono_keys = {}

    def key(self, term):
        comp, mono = term
        k = self._mono_keys.get(mono)
        if k is None:
            k = self.order.key(mono, self.weights)
            # A block key is two grevlex keys, each of fixed length for a
            # given ring, so joining them keeps the order.
            if isinstance(k[0], tuple):
                k = k[0] + k[1]
            k = self._mono_keys[mono] = tuple(map(neg, k))
        return (-1 if comp < self.split else 0, *k, comp)


def leading_mod_term(v, order):
    k = min(v.terms, key=order.key)
    return k, v.terms[k]


def _check_cap(degree, degree_cap):
    if degree_cap is not None and degree > degree_cap:
        raise DegreeCapExceeded(
            f"intermediate degree {degree} exceeds cap {degree_cap}"
        )


class _Basis:
    """Monic module vectors, a GB or one being built, with their
    per-component index.

    `vecs` and `leads` are the elements and their leading (component,
    monomial) terms.  Per component, `divisors` holds the (vector, lead
    monomial) pairs and `numbered` the (index, lead monomial) pairs, both
    in the order of `vecs`.  `append` grows all four, so the index is
    built once per basis, not once per reduction or per S-pair.
    """

    __slots__ = ("vecs", "leads", "divisors", "numbered")

    def __init__(self, vecs=(), leads=()):
        self.vecs = []
        self.leads = []
        self.divisors = defaultdict(list)
        self.numbered = defaultdict(list)
        for g, lead in zip(vecs, leads):
            self.append(g, lead)

    def append(self, g, lead):
        comp, mono = lead
        self.numbered[comp].append((len(self.vecs), mono))
        self.divisors[comp].append((g, mono))
        self.vecs.append(g)
        self.leads.append(lead)


def _reduce(v, basis, order, degree_cap=None):
    """Full normal form of a vector against a `_Basis` under `order`.

    One working dict is reduced in place.  Its leading term is popped from
    a min-heap of (order key, term): a term is pushed when it enters the
    dict, and a popped term no longer in the dict is skipped.  Each term
    looks for a divisor only among the leads of its own component, in the
    order of the basis, so the first divisor found is the first one in the
    basis.  The remainder is built in falling order: its first key is its
    leading term.  With a `degree_cap`, raises as soon as a term of higher
    monomial degree appears.
    """
    ring = v.ring
    p = ring.p
    if degree_cap is not None:
        _check_cap(v.max_mono_degree(), degree_cap)
    divisors = basis.divisors
    key = order.key
    h = dict(v.terms)
    heap = [(key(t), t) for t in h]
    heapify(heap)
    rem = {}
    while heap:
        lead = heappop(heap)[1]
        c = h.get(lead)
        if c is None:
            continue
        comp, mono = lead
        for g, gm in divisors.get(comp, ()):
            if all(map(le, gm, mono)):
                q = tuple(map(sub, mono, gm))
                if degree_cap is not None:
                    _check_cap(ring.mono_degree(q) + g.max_mono_degree(), degree_cap)
                for (i, m), gcoef in g.terms.items():
                    k = (i, tuple(map(add, m, q)))
                    old = h.get(k)
                    if old is None:
                        h[k] = (-c * gcoef) % p
                        heappush(heap, (key(k), k))
                    else:
                        s = (old - c * gcoef) % p
                        if s:
                            h[k] = s
                        else:
                            del h[k]
                break
        else:
            rem[lead] = c
            del h[lead]
    return ModVec(v.free, rem)


def _monic(v, order):
    """v scaled to leading coefficient 1, with its leading (comp, mono)."""
    lead, c = leading_mod_term(v, order)
    return v.scale(v.ring.field.inverse(c)), lead


def _extend(basis, new, order, degree_cap):
    """Complete the `_Basis` `basis` after adding `new`, in place.

    `new` holds (monic vector, leading term) pairs.  Appends them, then
    runs Buchberger's loop over the pairs that involve them, the pair of
    least lcm degree first (ties broken by index).  Pairs are made only
    between leads of one component.  Each pair's lcm and its degree are
    computed once, when the pair is made, and the next pair is popped
    from a heap of (degree, i, j, lcm); the set `pairs` holds the same
    open pairs for the chain criterion.  A pair is skipped by the chain
    criterion, which looks only at the leads of the pair's component, and
    in rank 1 also by the product criterion.  The S-vector is built in one
    dict, and a nonzero remainder joins the basis with the remainder's
    first key, its leading term, as its lead.
    """
    G, leads, numbered = basis.vecs, basis.leads, basis.numbered
    if not G and not new:
        return
    free = (G[0] if G else new[0][0]).free
    ring = free.ring
    p = ring.p
    weights = ring.weights
    inverse = ring.field.inverse
    rank_one = free.rank == 1
    pairs = set()
    heap = []

    def append(g, lead):
        n = len(G)
        comp, mono = lead
        for k, km in numbered[comp]:
            lcm = tuple(map(max, km, mono))
            pairs.add((k, n))
            heappush(heap, (sum(map(mul, lcm, weights)), k, n, lcm))
        basis.append(g, lead)

    for g, lead in new:
        append(g, lead)

    def done(a, b):
        return (min(a, b), max(a, b)) not in pairs

    while heap:
        _, i, j, lcm = heappop(heap)
        pairs.discard((i, j))
        comp, mi = leads[i]
        mj = leads[j][1]
        # The product criterion is for ideals only: in S^2 the leads of
        # (x, y) and (y, z) are coprime, yet their S-vector reduces to
        # (y^2 - x*z) e_2.
        if rank_one and lcm == tuple(map(add, mi, mj)):
            continue
        # Chain criterion: a lead k dividing the lcm whose pairs with i
        # and j are both done makes the pair (i, j) redundant.
        if any(
            k != i
            and k != j
            and all(map(le, km, lcm))
            and done(i, k)
            and done(j, k)
            for k, km in numbered[comp]
        ):
            continue
        qi = tuple(map(sub, lcm, mi))
        qj = tuple(map(sub, lcm, mj))
        s = {(c, tuple(map(add, m, qi))): a for (c, m), a in G[i].terms.items()}
        for (c, m), b in G[j].terms.items():
            k = (c, tuple(map(add, m, qj)))
            d = (s.get(k, 0) - b) % p
            if d:
                s[k] = d
            else:
                s.pop(k, None)
        h = _reduce(ModVec(free, s), basis, order, degree_cap)
        if h.terms:
            lead = next(iter(h.terms))
            append(h.scale(inverse(h.terms[lead])), lead)


def module_groebner(vecs, order=None, degree_cap=DEFAULT_DEGREE_CAP):
    """Groebner basis of the submodule generated by `vecs` under the
    ModOrder `order` (plain grevlex over positions by default)."""
    if not vecs:
        return []
    if order is None:
        order = ModOrder(vecs[0].ring.weights)
    new = [_monic(v, order) for v in vecs if not v.is_zero()]
    new.sort(key=lambda gl: order.key(gl[1]), reverse=True)
    basis = _Basis()
    _extend(basis, new, order, degree_cap)
    return basis.vecs


def syzygies(vecs, degree_cap=DEFAULT_DEGREE_CAP, twists=None, modulo=()):
    """Generators of the syzygies of `vecs` modulo the submodule <modulo>:
    the a with sum a_i*vecs[i] in <modulo> (the plain syzygies by default).

    Returns vectors in a free module of rank len(vecs) whose twists are the
    degrees of the inputs (pass `twists` explicitly when some inputs are
    zero vectors, whose degree is ambiguous).  Each vecs[i] is lifted with
    the unit vector e_i as its tail and each relation with a zero tail; the
    elements of the lifted vectors' Groebner basis with a zero first block
    are the syzygies, and they form a Groebner basis under the plain
    grevlex module order.
    """
    if not vecs:
        return []
    free = vecs[0].free
    ring = free.ring
    if twists is None:
        twists = [v.degree() for v in vecs]
    ext = FreeModule(ring, list(free.twists) + list(twists))
    one = ring.one_mono()
    lifted = [
        ModVec(ext, {**v.terms, (free.rank + idx, one): 1})
        for idx, v in enumerate(vecs)
    ]
    lifted += [ModVec(ext, r.terms) for r in modulo]
    gb = module_groebner(lifted, ModOrder(ring.weights, free.rank), degree_cap)
    syz_free = FreeModule(ring, list(twists))
    out = []
    for g in gb:
        if all(i >= free.rank for (i, _) in g.terms):
            out.append(
                ModVec(
                    syz_free,
                    {(i - free.rank, m): c for (i, m), c in g.terms.items()},
                )
            )
    return out


def minimal_generators(vecs, degree_cap=DEFAULT_DEGREE_CAP, modulo=()):
    """Minimal generating subset of a list of homogeneous vectors, modulo
    the submodule <modulo> (nothing by default).

    Processes generators by increasing degree and keeps one exactly when it
    is not in <modulo> + <kept> (graded Nakayama).  One GB, seeded with the
    relations of degree at most the largest candidate's (no other relation
    reaches a candidate), is extended by each vector kept.
    """
    vecs = [v for v in vecs if not v.is_zero()]
    vecs.sort(key=lambda v: (v.degree(), sorted(v.terms.items())))
    if not vecs:
        return []
    order = ModOrder(vecs[0].ring.weights)
    top = vecs[-1].degree()
    seeds = [
        _monic(r, order) for r in modulo if not r.is_zero() and r.degree() <= top
    ]
    kept = []
    basis = _Basis()
    _extend(basis, seeds, order, degree_cap)
    for v in vecs:
        h = _reduce(v, basis, order)
        if h.is_zero():
            continue
        kept.append(v)
        _extend(basis, [_monic(h, order)], order, degree_cap)
    return kept


class FPModule:
    """Finitely presented graded module: twists plus relation columns.

    relations are ModVecs in FreeModule(ring, twists); the module is
    F/<relations>.  `resolutions` holds, by degree cap, what
    `homology.free_resolution` returned for this module; it lives and dies
    with the module.
    """

    def __init__(self, ring, twists, relations=()):
        self.ring = ring
        self.twists = list(twists)
        self.free = FreeModule(ring, self.twists)
        rels = []
        for r in relations:
            if isinstance(r, (list, tuple)):
                r = self.free.from_polys(r)
            if not r.is_zero():
                r.degree()  # raises on inhomogeneous input
                rels.append(r)
        self.relations = rels
        self.resolutions = {}

    @classmethod
    def zero(cls, ring):
        return cls(ring, [], [])

    @classmethod
    def quotient_ring(cls, presented):
        """S/I as a module over the ambient polynomial ring S."""
        return cls(
            presented.ambient, [0], [[g] for g in presented.defining.elements]
        )

    @classmethod
    def from_ideal(cls, ring_ambient, gens, degree_cap=DEFAULT_DEGREE_CAP):
        """An ideal of S as an S-module: generators plus their syzygies."""
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            return cls.zero(ring_ambient)
        degs = [g.degree() for g in gens]
        # Kernel of the surjection S(-d_i) -> I, e_i -> g_i, gives the
        # relations; the g_i live in the rank-1 free module S.
        one_free = FreeModule(ring_ambient, [0])
        images = [one_free.from_polys([g]) for g in gens]
        rels = syzygies(images, degree_cap)
        return cls(ring_ambient, degs, rels)

    def shift(self, a):
        """M(-a): add a to every generator degree."""
        shifted = FreeModule(self.ring, [t + a for t in self.twists])
        rels = [ModVec(shifted, dict(r.terms)) for r in self.relations]
        return FPModule(self.ring, shifted.twists, rels)

    def is_zero_presentation(self):
        return not self.twists

    def minimal_presentation(self, degree_cap=DEFAULT_DEGREE_CAP):
        """A minimal presentation of the same module.  With no constant
        relation entry the generators are already minimal (graded
        Nakayama) and only the relations are minimalized; otherwise it is
        the subquotient of the basis modulo the relations."""
        one = self.ring.one_mono()
        if all(m != one for r in self.relations for (_, m) in r.terms):
            rels = minimal_generators(self.relations, degree_cap)
            return FPModule(self.ring, self.twists, rels)
        basis = [self.free.basis_vector(i) for i in range(len(self.twists))]
        return subquotient(self.ring, basis, self.relations, degree_cap)

    def __repr__(self):
        return (
            f"FPModule(twists={self.twists}, {len(self.relations)} relations)"
        )


def subquotient(ring, gens, rels, degree_cap=DEFAULT_DEGREE_CAP):
    """Minimal presentation of (<gens> + <rels>)/<rels>, both given by
    vectors of one free module.  The generators are the minimal generators
    of `gens` modulo `rels`, the relations the minimal generators of their
    syzygies modulo `rels`.  No kept generator lies in the span of the
    others and `rels`, so no relation has a unit entry."""
    kept = minimal_generators(gens, degree_cap, modulo=rels)
    syz = syzygies(kept, degree_cap, modulo=rels)
    twists = [g.degree() for g in kept]
    return FPModule(ring, twists, minimal_generators(syz, degree_cap))
