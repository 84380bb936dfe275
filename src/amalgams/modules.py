"""Graded free modules and the package's one Groebner engine.

Vectors in a free module S^s are sparse maps (component, monomial) -> coeff,
each monomial packed into one int in the ring's `poly.PackedLayout`:
products and quotients are int sums and differences, divisibility one
subtraction and a mask, and `ModOrder`'s keys ints.  Polynomials keep
exponent tuples, and vectors convert only at their edges: `from_polys`
packs and the layout's `unpack` unpacks.  Leads stay packed through
the Hilbert series (`series.monomial_kpoly`) and the count of standard
monomials (`ring.PresentedRing.standard_monomials`), so on that path
tuples remain only at parsing, printing and `component_poly`.
Syzygies are elimination with a dominant front block of components, and
syzygies modulo a submodule U lift U's generators with a zero tail, which
makes them the one kernel primitive of the package.  The engine takes its
S-pairs in true degree (the lcm's degree plus its component's twist), so
a syzygy module is minimalized as it is built: graded Nakayama picks its
minimal generators out of the one basis, and no second basis is made to
prune it.  `syzygies` returns them and nothing else, and its run ends as
soon as they are settled, since every pair left then lies past the front
block and can add none; only `gb.quotient_ideal` takes a syzygy basis
whole, from the run of every pair (`_syzygy_basis`).
`minimal_generators(modulo=)` stays for vectors given from outside a
syzygy computation, and `subquotient`, built on both, presents every
module with a unit relation entry, and Ext (`homology.ext_module`).
`amalgams.gb` runs ideals through the same loop (`_extend`) and reducer
(`_reduce`) as rank-1 submodules.  Every caller hands `_extend` vectors
and an order, and it builds, fills and returns the `_Basis`: it drops
the zero vectors and makes the rest monic, so no caller does.

A `_Basis` carries the `ModOrder` it was built under, and the loop and the
reducer read it off the basis: a reduction under another order pops terms
in the wrong order and can return a wrong remainder without an error.
The engine's two choices are heap pops, taken in the order a scan for the
least pair and the largest term would take them, so the heaps change no
output.  Inside the loop the reducer top-reduces: it stops at the first
term no lead divides, which is the new element's lead and its remainder's
first key.  Normal forms, tail reduction and membership tests get the
full normal form.  Callers in this package pass vectors homogeneous with
respect to the component twists; the engine itself only needs that for
`degree()`, for candidates and for the minimal generators of a syzygy
module.

`minimal_generators` only asks whether each candidate lies in the span of
the relations and the vectors kept so far, so it is one engine run that
takes the candidates on its pair heap, each after the pairs of its degree,
and ends with the last of them: a Groebner basis up to a degree decides
membership exactly up to it, and no pair above the largest candidate's
degree is reduced.

The degree cap is the ring's (`PolyRing.degree_cap`): `_extend` passes it
to every reduction it runs, and `_reduce` is the one place that checks it.
Reductions outside the loop (membership tests, `gb.normal_form`, tail
reduction) run without a cap.  Every reduction, capped or not, checks the
packed layout's bound: a monomial of weighted degree 2^29 or more raises
`DegreeCapExceeded` when it would enter the working vector, from the
input or as a product, before it is formed; so does an S-vector whose
terms leave the layout, which only a pair whose lcm leaves it can form.
An S-vector term, a packed monomial times lcm/lead, is below 2^30 in
every field, so it never reaches a guard bit before that check.
"""

from __future__ import annotations

from collections import defaultdict
from heapq import heapify, heappop, heappush

from .errors import NotHomogeneous
from .poly import (
    PACKED_DEGREE_BOUND,
    Polynomial,
    check_degree,
)

# The monomial 1, packed, in every layout.
ONE = 0


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

    def from_polys(self, polys):
        """Vector with the given polynomial in each component, its
        monomials packed."""
        pack = self.ring.layout.pack
        terms = {}
        for i, f in enumerate(polys):
            for m, c in f.terms.items():
                terms[(i, pack(m))] = c
        return ModVec(self, terms)


class ModVec:
    """Sparse element of a free module: (component, packed monomial) ->
    coefficient."""

    __slots__ = ("free", "terms")

    def __init__(self, free, terms):
        self.free = free
        self.terms = terms

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

    def scale(self, c):
        """The vector times a nonzero scalar c."""
        p = self.ring.p
        return ModVec(self.free, {k: (v * c) % p for k, v in self.terms.items()})

    def component_poly(self, i):
        unpack = self.ring.layout.unpack
        return Polynomial(
            self.ring, {unpack(m): c for (j, m), c in self.terms.items() if j == i}
        )

    def degree(self):
        """Common homogeneous degree, or -1 for the zero vector."""
        if not self.terms:
            return -1
        shift = self.ring.layout.shift
        twists = self.free.twists
        degs = {(m >> shift) + twists[i] for (i, m) in self.terms}
        if len(degs) > 1:
            raise NotHomogeneous("inhomogeneous module vector")
        return degs.pop()

    def max_mono_degree(self):
        """Largest monomial degree among the terms (-1 for zero): that of
        the largest packed int, whose degree field is its top."""
        top = max((m for (_, m) in self.terms), default=-1)
        return top >> self.ring.layout.shift

    def __repr__(self):
        polys = [str(self.component_poly(i)) for i in range(self.free.rank)]
        return "(" + ", ".join(polys) + ")"


class ModOrder:
    """The package's one term order on (component, packed monomial) terms:
    a front block of `split` components dominates, then the monomial, then
    the smaller component index wins.  Monomials compare by weighted
    grevlex, as `poly.grevlex_key` orders their tuples, or for `block` =
    k > 0 by the elimination order of the first k variables: grevlex on
    those k first, ties by grevlex on the whole monomial, which then
    compares the rest.

    `key` is a tuple of ints, smallest for the biggest term, so a `heapq`
    pops leading terms first: (front, grevlex, component), with the front
    block's grevlex before the whole one's for `block` > 0.  The grevlex
    int of a packed monomial P of degree d = P >> shift is P - 2d*2^shift:
    the low fields minus d*2^shift, so a higher degree gives a smaller key
    and equal degrees compare the last variable's field first.
    """

    def __init__(self, layout, split=0, block=0):
        self.split = split
        self.block = block
        self._shift = layout.shift
        self._block_bits = block * layout.field
        self._low_degree = layout.low_degree

    def __repr__(self):
        return f"block({self.block})" if self.block else "grevlex"

    def key(self, term):
        comp, mono = term
        shift = self._shift
        whole = mono - ((mono >> shift) << (shift + 1))
        front = -1 if comp < self.split else 0
        if not self.block:
            return (front, whole, comp)
        bits = self._block_bits
        low = mono & ((1 << bits) - 1)
        return (front, low - (self._low_degree(low) << bits), whole, comp)


def leading_mod_term(v, order):
    k = min(v.terms, key=order.key)
    return k, v.terms[k]


class _Basis:
    """Monic module vectors, a GB or one being built, with the `ModOrder`
    they were built under and their per-component index: what
    `module_groebner` and `syzygies` return.

    `vecs` and `leads` are the elements and their leading (component,
    monomial) terms under `order`.  Per component, `index` holds the
    (position, vector, lead monomial, largest monomial degree) of its
    elements in the order of `vecs`.  `append` grows all three, so the
    index is built once per basis, not once per reduction or per S-pair.
    `minimal` holds the minimal generators the `_extend` run that built
    the basis found: the kept candidates, or the elements born minimal
    past the order's front block.  An empty basis made from no vectors and
    no order has no order.
    """

    __slots__ = ("order", "vecs", "leads", "index", "minimal")

    def __init__(self, order, vecs=(), leads=()):
        self.order = order
        self.vecs = []
        self.leads = []
        self.index = defaultdict(list)
        self.minimal = []
        for g, lead in zip(vecs, leads):
            self.append(g, lead)

    def append(self, g, lead):
        comp, mono = lead
        self.index[comp].append((len(self.vecs), g, mono, g.max_mono_degree()))
        self.vecs.append(g)
        self.leads.append(lead)

    def __len__(self):
        return len(self.vecs)

    def __iter__(self):
        return iter(self.vecs)


def _reduce(v, basis, degree_cap=None, full=True):
    """Normal form of a vector against a `_Basis`, under its order: the
    full normal form, or with `full` false the top-reduced one, which stops
    at the first term no lead divides and keeps the terms below it as they
    are.

    One working dict is reduced in place.  Its leading term is popped from
    a min-heap of (order key, term): a term is pushed when it enters the
    dict, and a popped term no longer in the dict is skipped.  Each term
    looks for a divisor only among the leads of its own component, in the
    order of the basis, so the first divisor found is the first one in the
    basis.  The remainder's first key is its leading term: the full normal
    form is built in falling order, and the top-reduced one is that term
    followed by the rest of the working dict.  Both forms take the same
    steps up to that term, so they are zero together and share their lead.
    Raises before a term of monomial degree past the `degree_cap` (when
    there is one) or past the packed layout enters the working dict.
    """
    ring = v.ring
    p = ring.p
    check_degree(v.max_mono_degree(), degree_cap)
    limit = PACKED_DEGREE_BOUND - 1
    if degree_cap is not None:
        limit = min(limit, degree_cap)
    shift = ring.layout.shift
    guard = ring.layout.guard
    index = basis.index
    key = basis.order.key
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
        for _, g, gm, g_deg in index.get(comp, ()):
            q = mono - gm
            if not q & guard:
                if (q >> shift) + g_deg > limit:
                    check_degree((q >> shift) + g_deg, degree_cap)
                for (i, m), gcoef in g.terms.items():
                    k = (i, m + q)
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
            if not full:
                rem.update(h)
                break
    return ModVec(v.free, rem)


def _monic(v, order):
    """v scaled to leading coefficient 1, with its leading (comp, mono)."""
    lead, c = leading_mod_term(v, order)
    return v.scale(v.ring.field.inverse(c)), lead


def _extend(order, vecs, every_pair=True, candidates=()):
    """The `_Basis` under the `ModOrder` `order` that one engine run builds
    from `vecs`, and in its `minimal` the minimal generators the run
    found: the kept `candidates`, or the elements born minimal past the
    order's front block.  A run has candidates or a front block, never
    both.

    Drops the zero vectors of `vecs`, makes the rest monic and appends
    them by falling lead, then runs Buchberger's loop in true degree: the
    next pair is the one of least lcm degree plus its component's twist,
    at equal degree one past the order's front block (components >=
    `order.split`) before one in it, ties broken by index.  Ideals have
    one component, of twist 0, and no front block, so they take pairs by
    lcm degree and index alone.  Pairs are made only between leads of one
    component.  Each pair's lcm and its degree are computed
    once, when the pair is made, and the next pair is popped from a heap
    of (degree, block, i, j, lcm); the set `pairs` holds the same open
    pairs for the chain criterion.  A pair is skipped by the chain
    criterion, which looks only at the leads of the pair's component, and
    in rank 1 also by the product criterion.  The S-vector is built in one
    dict and top-reduced (`_reduce` with `full` false), and a nonzero
    remainder joins the basis with the remainder's first key, its leading
    term, as its lead.  With `every_pair` false the loop ends once no
    front-block pair and no candidate is open, which leaves `minimal`
    complete and the basis a Groebner basis only up to the last front
    pair or candidate.

    `candidates`, homogeneous vectors, wait on the same heap as
    (degree, 2, position): at their own degree, after every pair of that
    degree, and in their given order at equal degree.  A popped candidate
    is reduced fully and without the ring's cap, as a membership test, and
    when its remainder is nonzero the candidate is kept, appended to
    `minimal`, and its monic remainder joins the basis as an S-vector's
    would.  Each kept candidate is outside the span of `vecs` and the
    candidates kept before it.  Proof: a new element's lead is divisible
    by no other lead, so its pairs are of higher degree than it, and the
    degrees popped never fall.  When a
    candidate of degree d is popped, every pair of degree at most d is
    done, so the basis is a Groebner basis up to degree d of the module it
    spans, which decides membership exactly for a vector of degree d.
    With `every_pair` false no pair of degree past the last candidate's is
    reduced.

    In a run without candidates `minimal` records the nonzero remainders
    of front-block pairs whose lead lies past the front block.  With the
    inputs whose lead lies past it, when no such input's lead divides
    another's, they minimally generate N, the part of the module past the
    front block (the syzygies of `syzygies`).  Proof, for inputs
    homogeneous in the twists: the
    degrees popped never fall, as above.  The front block dominates, so
    an element lies in N exactly when its lead does, and N's elements of
    the basis form its Groebner basis.  When the first front pair of
    degree d is popped, every pair of N's elements of degree at most d is
    done, so these elements are a Groebner basis up to degree d of m*N
    plus the generators recorded so far: a pair among them
    of degree d has a non-constant multiplier on each side (neither lead
    divides the other), so it lies in m*N, and its remainder lies in m*N
    plus the span of the inputs and recorded elements of degree d.  A
    front pair's remainder h of degree d whose lead lies past the front
    block is in N and reduced against that basis, so h is not in m*N plus
    the generators recorded so far: it is a new minimal generator, and the
    elements stay a Groebner basis up to degree d of the larger module.
    Once degree d is done, N_d is spanned by m*N and the inputs and
    elements recorded in degree d (graded Nakayama).  No pair after the
    last front pair can add to `minimal`: every open pair is then between
    elements past the front block, whose terms all lie past it, so its
    remainder does too, and a remainder past the front block opens no
    front pair.  Top-reduction keeps the proof: a remainder has the same
    zero-ness and lead as the full normal form would, only its terms below
    the lead are left unreduced, and the proof reads nothing but leads and
    the spans the remainders lie in.
    """
    basis = _Basis(order)
    new = [_monic(v, order) for v in vecs if not v.is_zero()]
    new.sort(key=lambda gl: order.key(gl[1]), reverse=True)
    if not new and not candidates:
        return basis
    G, leads, index = basis.vecs, basis.leads, basis.index
    free = (new[0][0] if new else candidates[0]).free
    ring = free.ring
    p = ring.p
    shift = ring.layout.shift
    guard = ring.layout.guard
    lcm_of = ring.layout.lcm
    degree_cap = ring.degree_cap
    inverse = ring.field.inverse
    twists = free.twists
    front = order.split
    rank_one = free.rank == 1
    pairs = set()
    heap = [(v.degree(), 2, n) for n, v in enumerate(candidates)]
    heapify(heap)
    # The open entries a run with `every_pair` false must still pop: the
    # front-block pairs and the candidates.
    needed = len(heap)

    def append(g, lead):
        nonlocal needed
        n = len(G)
        comp, mono = lead
        twist = twists[comp]
        block = comp < front
        for k, _, km, _ in index[comp]:
            lcm = lcm_of(km, mono)
            pairs.add((k, n))
            heappush(heap, ((lcm >> shift) + twist, block, k, n, lcm))
            needed += block
        basis.append(g, lead)

    for g, lead in new:
        append(g, lead)

    def done(a, b):
        return (min(a, b), max(a, b)) not in pairs

    while heap and (every_pair or needed):
        entry = heappop(heap)
        if len(entry) == 3:
            needed -= 1
            candidate = candidates[entry[2]]
            h = _reduce(candidate, basis)
        else:
            _, block, i, j, lcm = entry
            needed -= block
            candidate = None
            pairs.discard((i, j))
            comp, mi = leads[i]
            mj = leads[j][1]
            # The product criterion is for ideals only: in S^2 the leads of
            # (x, y) and (y, z) are coprime, yet their S-vector reduces to
            # (y^2 - x*z) e_2.
            if rank_one and lcm == mi + mj:
                continue
            # Chain criterion: a lead k dividing the lcm whose pairs with i
            # and j are both done makes the pair (i, j) redundant.
            if any(
                k != i
                and k != j
                and not (lcm - km) & guard
                and done(i, k)
                and done(j, k)
                for k, _, km, _ in index[comp]
            ):
                continue
            qi = lcm - mi
            qj = lcm - mj
            s = {(c, m + qi): a for (c, m), a in G[i].terms.items()}
            for (c, m), b in G[j].terms.items():
                k = (c, m + qj)
                d = (s.get(k, 0) - b) % p
                if d:
                    s[k] = d
                else:
                    s.pop(k, None)
            h = _reduce(ModVec(free, s), basis, degree_cap, full=False)
        if h.terms:
            lead = next(iter(h.terms))
            g = h.scale(inverse(h.terms[lead]))
            if candidate is not None:
                basis.minimal.append(candidate)
            elif comp < front <= lead[0]:
                basis.minimal.append(g)
            append(g, lead)
    return basis


def module_groebner(vecs, order=None):
    """The `_Basis` of the submodule generated by `vecs` under the
    ModOrder `order` (plain grevlex over positions by default): its
    Groebner basis with the order, the leading terms and the
    per-component index."""
    if order is None and vecs:
        order = ModOrder(vecs[0].ring.layout)
    return _extend(order, vecs)


def syzygies(vecs, twists=None, modulo=()):
    """The minimal generators of the syzygies of `vecs` modulo the
    submodule <modulo>: of the a with sum a_i*vecs[i] in <modulo> (the
    plain syzygies by default).

    Returns a list of vectors in a free module of rank len(vecs) whose
    twists are the degrees of the inputs (pass `twists` explicitly when
    some inputs are zero vectors, whose degree is ambiguous): e_i for each
    zero input, then the elements the engine finds born minimal
    (`_extend`), by degree.  They generate the syzygies minimally but are
    not a Groebner basis of them: the engine stops once their last one is
    settled, and no more of its basis is cut down to syzygies.
    """
    return _syzygy_basis(vecs, twists, modulo, every_pair=False).minimal


def _syzygy_basis(vecs, twists=None, modulo=(), every_pair=True):
    """The engine's run behind `syzygies`, as a `_Basis` whose `minimal`
    is what `syzygies` returns.

    Each vecs[i] is lifted with the unit vector e_i as its tail and each
    relation with a zero tail; the elements of the lifted vectors' Groebner
    basis with a zero first block are the syzygies.  The first block
    dominates, so an element has no term in it exactly when its lead lies
    past it.  With `every_pair` the engine runs every pair, and the result
    holds those syzygies, a Groebner basis under the plain grevlex module
    order, which it carries, with the leads they had there.  Without it
    the engine stops once `minimal` is settled (`_extend`), and the result
    holds only `minimal`.
    """
    if not vecs:
        return _Basis(None)
    free = vecs[0].free
    ring = free.ring
    if twists is None:
        twists = [v.degree() for v in vecs]
    ext = FreeModule(ring, list(free.twists) + list(twists))
    lifted = [
        ModVec(ext, {**v.terms, (free.rank + idx, ONE): 1})
        for idx, v in enumerate(vecs)
    ]
    lifted += [ModVec(ext, r.terms) for r in modulo]
    gb = _extend(ModOrder(ring.layout, free.rank), lifted, every_pair)
    syz_free = FreeModule(ring, list(twists))

    def tail(g):
        return ModVec(
            syz_free, {(i - free.rank, m): c for (i, m), c in g.terms.items()}
        )

    out = _Basis(ModOrder(ring.layout))
    if every_pair:
        for g, (comp, mono) in zip(gb.vecs, gb.leads):
            if comp >= free.rank:
                out.append(tail(g), (comp - free.rank, mono))
    out.minimal = [
        ModVec(syz_free, {(idx, ONE): 1}) for idx, v in enumerate(vecs) if v.is_zero()
    ] + [tail(g) for g in gb.minimal]
    return out


def minimal_generators(vecs, modulo=()):
    """Minimal generating subset of a list of homogeneous vectors, modulo
    the submodule <modulo> (nothing by default).

    Takes generators by increasing degree and keeps one exactly when it is
    not in <modulo> + <kept> (graded Nakayama): one engine run, seeded with
    the relations and given the vectors as candidates (`_extend`), which
    ends with the last candidate, so no S-pair above the largest
    candidate's degree is reduced.  Returns the run's `minimal`, the kept
    input vectors themselves; the order of the relations does not change
    it.  Candidates of one degree are taken in the order of their sorted
    terms with unpacked monomials, the order of exponent tuples.
    """
    vecs = [v for v in vecs if not v.is_zero()]
    if not vecs:
        return []
    unpack = vecs[0].ring.layout.unpack
    vecs.sort(
        key=lambda v: (
            v.degree(),
            sorted(((i, unpack(m)), c) for (i, m), c in v.terms.items()),
        )
    )
    order = ModOrder(vecs[0].ring.layout)
    return _extend(order, modulo, every_pair=False, candidates=vecs).minimal


class FPModule:
    """Finitely presented graded module: twists plus relation columns.

    relations are ModVecs in FreeModule(ring, twists); the module is
    F/<relations>.  `resolution` holds what `homology.free_resolution`
    returned for this module (None until then); it lives and dies with the
    module.
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
        self.resolution = None

    @classmethod
    def quotient_ring(cls, presented):
        """S/I as a module over the ambient polynomial ring S, related by
        the rank-1 vectors of I's reduced basis as they are."""
        return cls(presented.ambient, [0], presented.defining.basis.vecs)

    def shift(self, a):
        """M(-a): add a to every generator degree."""
        shifted = FreeModule(self.ring, [t + a for t in self.twists])
        rels = [ModVec(shifted, dict(r.terms)) for r in self.relations]
        return FPModule(self.ring, shifted.twists, rels)

    def minimal_presentation(self):
        """A minimal presentation of the same module.  With no constant
        relation entry the generators are already minimal (graded
        Nakayama) and only the relations are minimalized; otherwise it is
        the subquotient of the basis modulo the relations."""
        if all(m != ONE for r in self.relations for (_, m) in r.terms):
            rels = minimal_generators(self.relations)
            return FPModule(self.ring, self.twists, rels)
        basis = [ModVec(self.free, {(i, ONE): 1}) for i in range(len(self.twists))]
        return subquotient(self.ring, basis, self.relations)

    def __repr__(self):
        return (
            f"FPModule(twists={self.twists}, {len(self.relations)} relations)"
        )


def subquotient(ring, gens, rels):
    """Minimal presentation of (<gens> + <rels>)/<rels>, both given by
    vectors of one free module.  The generators are the minimal generators
    of `gens` modulo `rels`, the relations the minimal generators of their
    syzygies modulo `rels`, as the syzygy basis finds them (`minimal`).
    No kept generator lies in the span of the others and `rels`, so no
    relation has a unit entry."""
    kept = minimal_generators(gens, modulo=rels)
    twists = [g.degree() for g in kept]
    return FPModule(ring, twists, syzygies(kept, twists=twists, modulo=rels))
