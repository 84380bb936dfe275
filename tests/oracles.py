"""Second routes for results the package computes more cleverly.

`resolution_series` takes Hilbert series from the alternating sum of the
twists of a minimal free resolution, where
`amalgams.homology.hilbert_series` reads them off leading monomials, and
`dual_euler_series` that of the dual twists, where
`amalgams.homology._codim_ext_series` reads R's numerator at 1/t.
`order_at_one_divide` counts the factors 1 - t of a Laurent polynomial by
dividing them out, expanding each quotient over every degree, and
`first_difference_scan` expands two series and compares them degree by
degree, where `amalgams.series` reads both off the terms alone.
`minimal_generators_rebuild` builds a new module GB of every relation
and every kept vector from scratch after each kept vector and reduces by
`mod_reduce_scan`, where `amalgams.modules.minimal_generators` is one
engine run that takes the vectors as candidates on its pair heap and ends
with the last of them.  `free_resolution_rebuild` and
`ext_module_rebuild` take each stage of a resolution, and the relations
of Ext, as the minimal generators of a whole syzygy basis found by a
second basis, where `amalgams.modules.syzygies` returns those its one
basis finds born minimal and stops once they are settled.  Every route
here that reads a whole syzygy basis takes it from
`amalgams.modules._syzygy_basis`, the path that runs every pair.
`module_groebner_scan` is the module engine with every choice made by a
scan: the next S-pair by `min` over the open pairs of (true degree,
block, index), each leading term by `max` over the terms with a freshly
built order key, and each divisor by a pass over all of G, where
`amalgams.modules` pops pairs and terms from heaps; it takes the same
S-pairs in the same order and top-reduces each S-vector as the engine
does, so its output is the same list, term for term, and it records the
same elements born minimal.  It always runs every pair.  The scan engine does its
own monomial arithmetic (`term_mul`), apart from the engine it checks,
and in another representation: it takes and returns the package's
vectors, whose monomials are packed ints, but computes on exponent
tuples, converting at its entry and exit (`unpacked`, `packed`).
`ideal_generated_by` closes the multiples of a finite ring's elements
under addition until nothing changes, and `all_ideals_closure` joins
ideals that way, where `all_ideals` adds principal ideals coset by coset;
`primes_by_lattice` keeps the ideals of that lattice that are proper and
prime by definition, where `amalgams.finite.enumerate_primes` builds no
lattice and takes the maximal annihilators of the ring's elements;
`amalgam_tables_loop` fills a finite amalgam's tables one pair at a time
and then relabels them with `relabel_one`, where `FiniteAmalgam` indexes
them once, in their final labels.
`find_isomorphism` searches for a ring isomorphism between two finite
rings by backtracking, where the package only ever needs the explicit
map a -> (a, f(a)) of a J = 0 amalgam.
`annihilator` takes (0 : M) as one quotient ideal, the syzygies of
(e_1, ..., e_s) modulo U^s, where `amalgams.homology.classify` never
forms it: a cyclic ω is quasi-Gorenstein when its series is its twist
times the ring's.  `quasi_gorenstein_by_presentation` decides that on ω
presented by `canonical_module`, where `classify` presents no Ext module:
it reads μ(ω) off the type of a Cohen-Macaulay ring, and otherwise takes
HS(ω) from the Euler characteristic of the dual complex and counts ω's
generators only when that series is its lowest twist times the ring's.
`syzygies_then_project` finds the syzygies of vectors modulo a submodule
as the syzygies of the vectors and the relations together, cut down to the
vectors' coordinates, where `amalgams.modules.syzygies(modulo=)` lifts the
relations with a zero tail.  `intersect_project`, `colon_loop`,
`annihilator_loop` and `ext_project` are the routes built on it: the
intersection as first coordinates of syzygies, the colon and the
annihilator as intersections of one quotient per generator, and Ext with
its relations cut down from syzygies; they minimalize with
`minimal_presentation_substitute`, which substitutes unit relation
entries away one at a time, where `FPModule.minimal_presentation` takes
the subquotient of the basis modulo the relations.
`standard_monomials_filter` lists every exponent tuple of the degree from
a product of exponent ranges and drops those a lead divides, where
`PresentedRing.standard_monomials` builds each degree from the standard
monomials of the degrees below it, packed.
`monomial_kpoly_tuples` runs Bigatti's recursion on exponent tuples,
where `amalgams.series.monomial_kpoly` runs it on packed monomials.
`trivext_module` reads the module M of a trivial extension back off B's
Groebner basis (the elements linear in the e-variables), where
`trivial_extension` keeps the M it built as `spec.J_module`.
`kernel_by_elimination` takes the kernel of a ring map in the joint ring
of target and source variables, under the order that eliminates the
target's, keeps the elements free of them and reduces their cut to the
source ring by a second Buchberger run, where `amalgams.gb.kernel_of_map`
substitutes a section when the map has one.
`retraction_ideal_identity` checks K + (z's) = I_A*C + (z's) for a
presentation C/K, an identity that holds for every amalgam because
I_A*C lies in K; it lifts I_A into C itself.
`parse_poly_arith` parses a polynomial by recursive descent over a
character-by-character tokenizer, every factor a `Polynomial` and every
product and sum `Polynomial` arithmetic, where `amalgams.poly.parse_poly`
tokenizes with one regex and multiplies the numbers and variables of a
term into one exponent list and one coefficient.
`reduce_every_tail` tail-reduces every element of a minimalized basis,
where `amalgams.gb._reduced` keeps an element whose tail no lead divides
as it is.
`krull_dim_subsets` takes the dimension of S/I as the size of the largest
set of variables no leading monomial of I lives in, found by a search over
variable subsets, and `krull_dim_annihilator` takes the dimension of a
module as that of S/ann(M), with ann(M) from `annihilator_loop`, where
`amalgams.homology.krull_dim` reads both off the pole at t = 1 of the
Hilbert series.
`grevlex_rank` and `block_rank` define the term orders from scratch, and
`_scan_key` and `conftest.leading_term` use them on exponent tuples, where
the package keys packed monomials in `modules.ModOrder`.
`check_ring_axioms` checks the ring axioms of a finite ring's tables,
exhaustively up to order EXHAUSTIVE_CHECK_BOUND and on seeded random
triples above it, where `amalgams.finite` builds only rings whose axioms
hold by construction and checks none.
"""

import random
from itertools import combinations, product
from operator import add, le, mul, sub

import numpy as np

from amalgams.errors import DegreeCapExceeded, NotARing, ParseError
from amalgams.finite import FiniteIdeal
from amalgams.gb import GroebnerBasis, IdealBasis, buchberger, quotient_ideal
from amalgams.homology import (
    FreeResolution,
    _as_module,
    _dual_columns,
    canonical_module,
    free_resolution,
    hilbert_series,
)
from amalgams.modules import (
    ONE,
    FPModule,
    FreeModule,
    ModOrder,
    ModVec,
    _Basis,
    _reduce,
    _syzygy_basis,
    leading_mod_term,
    minimal_generators,
    module_groebner,
)
from amalgams.poly import DEFAULT_DEGREE_CAP, Polynomial
from amalgams.ring import IdealHandle, PresentedRing
from amalgams.series import (
    HilbertSeries,
    lp_add,
    lp_monomial,
    lp_mul,
    lp_neg,
    lp_sub,
    lp_zero,
)

EXHAUSTIVE_CHECK_BOUND = 64
RANDOM_CHECK_SAMPLES = 2000


def check_ring_axioms(R):
    """R, once its tables pass the axioms of a commutative unital ring;
    raises NotARing naming the first that fails.  Associativity and
    distributivity are checked on every triple up to order
    EXHAUSTIVE_CHECK_BOUND and on RANDOM_CHECK_SAMPLES seeded triples
    above it."""
    add, mul, n = R.add, R.mul, R.n
    if np.any(add < 0) or np.any(add >= n) or np.any(mul < 0) or np.any(mul >= n):
        raise NotARing("table entries out of range")
    if not np.array_equal(add, add.T):
        raise NotARing("addition is not commutative")
    if not np.array_equal(mul, mul.T):
        raise NotARing("multiplication is not commutative")
    if not np.array_equal(add[0], np.arange(n)):
        raise NotARing("0 is not an additive identity")
    one = 1 if n > 1 else 0
    if not np.array_equal(mul[one], np.arange(n)):
        raise NotARing("1 is not a multiplicative identity")
    # every element needs an additive inverse
    if not np.array_equal(np.sort(add, axis=1), np.tile(np.arange(n), (n, 1))):
        raise NotARing("addition rows are not permutations")
    if n <= EXHAUSTIVE_CHECK_BOUND:
        i = np.arange(n)
        a = i[:, None, None]
        b = i[None, :, None]
        c = i[None, None, :]
        if not np.array_equal(add[add[a, b], c], add[a, add[b, c]]):
            raise NotARing("addition is not associative")
        if not np.array_equal(mul[mul[a, b], c], mul[a, mul[b, c]]):
            raise NotARing("multiplication is not associative")
        if not np.array_equal(mul[a, add[b, c]], add[mul[a, b], mul[a, c]]):
            raise NotARing("distributivity fails")
    else:
        add, mul = add.tolist(), mul.tolist()
        rng = random.Random(0)
        for _ in range(RANDOM_CHECK_SAMPLES):
            a = rng.randrange(n)
            b = rng.randrange(n)
            c = rng.randrange(n)
            if add[add[a][b]][c] != add[a][add[b][c]]:
                raise NotARing("addition is not associative")
            if mul[mul[a][b]][c] != mul[a][mul[b][c]]:
                raise NotARing("multiplication is not associative")
            if mul[a][add[b][c]] != add[mul[a][b]][mul[a][c]]:
                raise NotARing("distributivity fails")
    return R


def standard_monomials_filter(weights, leads, d):
    """Exponent tuples of weighted degree d that no tuple in `leads`
    divides, in ascending order: the last exponent is solved from the
    degree, the others run over a product of ranges."""
    if not weights:
        return [()] if d == 0 and not leads else []
    *head_weights, w = weights
    out = []
    for head in product(*(range(d // v + 1) for v in head_weights)):
        e, r = divmod(d - sum(map(mul, head, head_weights)), w)
        if e < 0 or r:
            continue
        m = head + (e,)
        if not any(all(a <= b for a, b in zip(g, m)) for g in leads):
            out.append(m)
    return out


def _minimal_monomials(gens):
    """Minimal generators of the monomial ideal spanned by exponent tuples."""
    out = []
    for m in sorted(set(gens), key=sum):
        if not any(all(a <= b for a, b in zip(g, m)) for g in out):
            out.append(m)
    return out


def monomial_kpoly_tuples(gens, weights):
    """Numerator of HS(S/I) over prod(1 - t^w) for the monomial ideal I of
    the exponent tuples `gens`, by Bigatti's pivot recursion on tuples:
    K(I) = K(I + (x_i^e)) + t^(e*w_i) * K(I : x_i^e), x_i a variable in
    the most generators and e the lower median of its positive exponents,
    and prod(1 - t^deg(m)) once no two generators share a variable."""
    gens = _minimal_monomials(gens)
    n = len(weights)
    counts = [0] * n
    for m in gens:
        for i, e in enumerate(m):
            if e:
                counts[i] += 1
    i = max(range(n), key=counts.__getitem__, default=0)
    if n == 0 or counts[i] < 2:
        out = {0: 1}
        for m in gens:
            deg = sum(e * w for e, w in zip(m, weights))
            out = lp_mul(out, lp_sub({0: 1}, lp_monomial(deg)))
        return out
    exps = sorted(m[i] for m in gens if m[i])
    e = exps[(len(exps) - 1) // 2]
    pivot = tuple(e if j == i else 0 for j in range(n))
    colon = [m[:i] + (max(m[i] - e, 0),) + m[i + 1:] for m in gens]
    return lp_add(
        monomial_kpoly_tuples(gens + [pivot], weights),
        lp_mul(lp_monomial(e * weights[i]), monomial_kpoly_tuples(colon, weights)),
    )


def lead_exponents(G):
    """The leading exponent tuples of the `GroebnerBasis` G, in the order
    of its elements."""
    return [G.ring.layout.unpack(m) for _, m in G.basis.leads]


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


def dual_euler_series(res):
    """The Euler characteristic sum_j (-1)^j HS(F_j^*) of the dual of the
    resolution `res`, summed over every twist of every dual module."""
    num = lp_zero()
    for j in range(res.length + 1):
        for d in res.dual_twists(j):
            num = lp_add(num, lp_monomial(d, (-1) ** j))
    return HilbertSeries(num, weights=res.ring.weights)


def order_at_one_divide(a):
    """Multiplicity of t = 1 as a root of the nonzero Laurent polynomial a:
    while the coefficients sum to 0, a = (1 - t) * q with q's coefficients
    the partial sums of a's, so divide and count."""
    order = 0
    while sum(a.values()) == 0:
        q, s = {}, 0
        for d in range(min(a), max(a)):
            s += a.get(d, 0)
            if s:
                q[d] = s
        a = q
        order += 1
    return order


def first_difference_scan(a, b):
    """Smallest degree where the series a and b differ, or None if equal:
    both are expanded up to the top degree of the cross-multiplied
    numerator difference and compared degree by degree from the lowest."""
    diff = lp_sub(lp_mul(a.num, b.den), lp_mul(b.num, a.den))
    if not diff:
        return None
    bound = max(diff)
    ca = a.coefficients(bound)
    cb = b.coefficients(bound)
    for d in range(min(min(diff), 0), bound + 1):
        if ca.get(d, 0) != cb.get(d, 0):
            return d
    raise AssertionError("unequal series with no differing coefficient")


def unpacked(v):
    """The package's vector v with its packed monomials as exponent tuples,
    the form the scan engine computes on."""
    unpack = v.ring.layout.unpack
    return ModVec(v.free, {(i, unpack(m)): c for (i, m), c in v.terms.items()})


def packed(v):
    """A vector of exponent tuples with its monomials packed, the form of
    the package's vectors."""
    pack = v.ring.layout.pack
    return ModVec(v.free, {(i, pack(m)): c for (i, m), c in v.terms.items()})


def _unpacked_leads(ring, leads):
    return [(comp, ring.layout.unpack(m)) for comp, m in leads]


def _packed_lead(ring, lead):
    comp, m = lead
    return comp, ring.layout.pack(m)


def minimal_generators_rebuild(vecs, modulo=()):
    """Minimal generating subset modulo <modulo>, one from-scratch module GB
    of all of `modulo` and the vectors kept so far per kept vector; the
    candidates of one degree in the order of their sorted exponent tuples."""
    vecs = [v for v in vecs if not v.is_zero()]
    vecs.sort(key=lambda v: (v.degree(), sorted(unpacked(v).terms.items())))
    rels = [r for r in modulo if not r.is_zero()]
    kept = []
    gb = module_groebner(rels).vecs
    for v in vecs:
        if gb:
            order = ModOrder(v.ring.layout)
            leads = [leading_mod_term(g, order)[0] for g in gb]
            if mod_reduce_scan(v, gb, leads, order).is_zero():
                continue
        kept.append(v)
        gb = module_groebner(rels + kept).vecs
    return kept


def free_resolution_rebuild(obj):
    """The minimal free resolution of a ring or a module, each stage the
    minimal generators of the whole syzygy basis of the stage before,
    found by a second basis (`minimal_generators`).  Stores nothing on
    `obj`."""
    M = _as_module(obj).minimal_presentation()
    twists = [list(M.twists)]
    diffs = []
    current = M.relations
    while current:
        diffs.append(current)
        twists.append([v.degree() for v in current])
        current = minimal_generators(_syzygy_basis(current).vecs)
    return FreeResolution(M.ring, twists, diffs)


def ext_module_rebuild(res, j):
    """Ext^j from the resolution `res`: every element of the kernel's
    syzygy basis is a candidate generator, and the relations are the
    minimal generators of the whole syzygy basis of the kept generators
    modulo the image, found by a second basis."""
    ker_gens = _syzygy_basis(_dual_columns(res, j), twists=res.dual_twists(j)).vecs
    rels = _dual_columns(res, j - 1)
    kept = minimal_generators(ker_gens, modulo=rels)
    syz = _syzygy_basis(kept, modulo=rels).vecs
    return FPModule(res.ring, [g.degree() for g in kept], minimal_generators(syz))


def grevlex_rank(expts, weights):
    """Weighted grevlex from its definition, bigger for the bigger monomial:
    the higher weighted degree wins, and at equal degree the monomial with
    the smaller exponent on the last variable where the two differ."""
    return (sum(map(mul, expts, weights)), tuple(-e for e in reversed(expts)))


def block_rank(k):
    """The order that eliminates the first k variables, as a rank like
    `grevlex_rank`: grevlex on the first k variables, ties by grevlex on
    the others.  block_rank(0) is grevlex."""

    def rank(expts, weights):
        return (
            grevlex_rank(expts[:k], weights[:k]),
            grevlex_rank(expts[k:], weights[k:]),
        )

    return rank


def _scan_key(order, weights, term):
    """ModOrder's comparison as a nested tuple, built afresh on every call
    from the order's split and block and the ring's weights alone."""
    comp, mono = term
    return (
        1 if comp < order.split else 0,
        block_rank(order.block)(mono, weights),
        -comp,
    )


def _check_cap_scan(degree, degree_cap):
    if degree_cap is not None and degree > degree_cap:
        raise DegreeCapExceeded(
            f"intermediate degree {degree} exceeds cap {degree_cap}"
        )


def _divides_scan(a, b):
    """True when the exponent tuple a divides b."""
    return all(map(le, a, b))


def _max_degree_scan(v):
    """Largest monomial degree of a vector of exponent tuples (-1 for 0)."""
    return max((v.ring.mono_degree(m) for (_, m) in v.terms), default=-1)


def _term_mul(v, mono, coeff):
    """v times coeff * x^mono, on exponent tuples."""
    p = v.ring.p
    return ModVec(
        v.free,
        {(i, tuple(map(add, m, mono))): c * coeff % p for (i, m), c in v.terms.items()},
    )


def term_mul(v, mono, coeff):
    """The package's vector v times coeff * x^mono, mono an exponent tuple,
    multiplied on exponent tuples."""
    return packed(_term_mul(unpacked(v), mono, coeff))


def vec_add(v, w):
    """v + w, term by term."""
    p = v.ring.p
    terms = dict(v.terms)
    for k, c in w.terms.items():
        s = (terms.get(k, 0) + c) % p
        if s:
            terms[k] = s
        else:
            terms.pop(k, None)
    return ModVec(v.free, terms)


def _monic_scan(v, order):
    """v scaled to leading coefficient 1, with its leading term, by `max`,
    on exponent tuples."""
    lead = max(v.terms, key=lambda t: _scan_key(order, v.ring.weights, t))
    return v.scale(v.ring.field.inverse(v.terms[lead])), lead


def monic_scan(v, order):
    """`_monic_scan` of the package's vector v, its result packed."""
    g, lead = _monic_scan(unpacked(v), order)
    return packed(g), _packed_lead(v.ring, lead)


def mod_reduce_scan(v, gens, leads, order, degree_cap=None, full=True):
    """`_reduce_scan` of the package's vector v by the package's vectors
    `gens` with their packed `leads`, computed on exponent tuples and
    returned packed."""
    return packed(
        _reduce_scan(
            unpacked(v),
            [unpacked(g) for g in gens],
            _unpacked_leads(v.ring, leads),
            order,
            degree_cap,
            full,
        )
    )


def _reduce_scan(v, gens, leads, order, degree_cap=None, full=True):
    """Full normal form: the leading term by `max` over the working dict,
    the divisor by a pass over all of `gens`, on exponent tuples.  With
    `full` false, the top-reduced form: the first term no lead divides,
    then the rest of the working dict as it stands."""
    ring = v.ring
    p = ring.p
    if degree_cap is not None:
        _check_cap_scan(_max_degree_scan(v), degree_cap)
    h = dict(v.terms)
    rem = {}
    while h:
        lead = max(h, key=lambda t: _scan_key(order, ring.weights, t))
        comp, mono = lead
        c = h[lead]
        for g, (gc_comp, gm) in zip(gens, leads):
            if gc_comp == comp and _divides_scan(gm, mono):
                q = tuple(map(sub, mono, gm))
                if degree_cap is not None:
                    _check_cap_scan(
                        ring.mono_degree(q) + _max_degree_scan(g), degree_cap
                    )
                for (i, m), gcoef in g.terms.items():
                    k = (i, tuple(map(add, m, q)))
                    s = (h.get(k, 0) - c * gcoef) % p
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


def extend_scan(G, leads, new, order, degree_cap, top=None):
    """`_extend_scan` on the package's vectors: the lists G and leads and
    the (vector, lead) pairs `new` are unpacked, and the elements the loop
    adds are packed and appended to G and leads.  Returns the positions of
    the elements born minimal."""
    if not G and not new:
        return []
    ring = (G[0] if G else new[0][0]).ring
    vecs = [unpacked(g) for g in G]
    vec_leads = _unpacked_leads(ring, leads)
    unpack = ring.layout.unpack
    new = [(unpacked(g), (comp, unpack(m))) for g, (comp, m) in new]
    born = _extend_scan(vecs, vec_leads, new, order, degree_cap, top)
    G.extend(packed(g) for g in vecs[len(G):])
    leads.extend(_packed_lead(ring, lead) for lead in vec_leads[len(leads):])
    return born


def _extend_scan(G, leads, new, order, degree_cap, top=None):
    """Buchberger's loop with the next pair by `min` over the open pairs of
    (lcm degree + the component's twist, block, (i, j)), block 0 past the
    order's front block and 1 in it, the degree recomputed at every step,
    on exponent tuples, each S-vector top-reduced.  With a bound `top`, a
    pair whose true degree exceeds `top` is never opened.  Returns the
    positions of the elements born minimal: the remainders of front-block
    pairs whose lead lies past the front block."""
    pairs = set()
    born = []

    def pair_key(pr):
        i, j = pr
        comp = leads[i][0]
        lcm = tuple(map(max, leads[i][1], leads[j][1]))
        degree = G[i].ring.mono_degree(lcm) + G[i].free.twists[comp]
        return degree, 1 if comp < order.split else 0, pr

    def append(g, lead):
        G.append(g)
        leads.append(lead)
        n = len(G) - 1
        comp = lead[0]
        pairs.update(
            (k, n)
            for k in range(n)
            if leads[k][0] == comp and (top is None or pair_key((k, n))[0] <= top)
        )

    for g, lead in new:
        append(g, lead)
    if not G:
        return born
    ring = G[0].ring
    rank_one = G[0].free.rank == 1

    def done(a, b):
        return (min(a, b), max(a, b)) not in pairs

    while pairs:
        i, j = min(pairs, key=pair_key)
        pairs.discard((i, j))
        comp, mi = leads[i]
        mj = leads[j][1]
        lcm = tuple(map(max, mi, mj))
        if rank_one and lcm == tuple(map(add, mi, mj)):
            continue
        if any(
            k != i
            and k != j
            and kc == comp
            and _divides_scan(km, lcm)
            and done(i, k)
            and done(j, k)
            for k, (kc, km) in enumerate(leads)
        ):
            continue
        s = vec_add(
            _term_mul(G[i], tuple(map(sub, lcm, mi)), 1),
            _term_mul(G[j], tuple(map(sub, lcm, mj)), ring.p - 1),
        )
        h = _reduce_scan(s, G, leads, order, degree_cap, full=False)
        if not h.is_zero():
            g, lead = _monic_scan(h, order)
            if comp < order.split <= lead[0]:
                born.append(len(G))
            append(g, lead)
    return born


def module_groebner_scan(vecs, order=None, degree_cap=DEFAULT_DEGREE_CAP):
    """`module_groebner` with every choice made by a scan, on exponent
    tuples, returned as a `_Basis` of packed vectors with its order and the
    leads the scan found."""
    if order is None and vecs:
        order = ModOrder(vecs[0].ring.layout)
    new = [_monic_scan(unpacked(v), order) for v in vecs if not v.is_zero()]
    new.sort(key=lambda gl: _scan_key(order, gl[0].ring.weights, gl[1]))
    G, leads = [], []
    born = _extend_scan(G, leads, new, order, degree_cap)
    if not G:
        return _Basis(order)
    ring = G[0].ring
    basis = _Basis(
        order, [packed(g) for g in G], [_packed_lead(ring, lead) for lead in leads]
    )
    basis.minimal = [basis.vecs[n] for n in born]
    return basis


def ideal_generated_by(R, gens):
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
    principals = {ideal_generated_by(R, [a]).elements for a in range(R.n)}
    lattice = set(principals)
    frontier = set(principals)
    while frontier:
        new = set()
        for I in frontier:
            for P in principals:
                J = ideal_generated_by(R, I | P).elements
                if J not in lattice:
                    lattice.add(J)
                    new.add(J)
        frontier = new
    return [FiniteIdeal(R, e, check=False) for e in sorted(lattice, key=sorted)]


def _ideal_sum(add, I, P):
    """I + P for an ideal I and an additive subgroup P, given the addition
    table as nested lists: the union of the cosets x + P over x in I.  An
    x already in the union adds nothing new, since its coset is there."""
    S = set()
    for x in I:
        if x not in S:
            row = add[x]
            S.update([row[y] for y in P])
    return frozenset(S)


def all_ideals(R):
    """The ideal lattice: every sum of principal ideals, in sorted order.

    Row a of the multiplication table is the principal ideal R*a, and the
    join of two ideals is their sum, so the lattice is the closure of the
    principal ideals under I -> I + R*a.
    """
    add = R.add.tolist()
    # principal ideal -> one generator; R*a lies in I iff a does
    principals = {frozenset(row.tolist()): a for a, row in enumerate(R.mul)}
    lattice = set(principals)
    frontier = list(principals)
    while frontier:
        new = []
        for I in frontier:
            for P, a in principals.items():
                if a in I:
                    continue
                S = _ideal_sum(add, I, P)
                if S not in lattice:
                    lattice.add(S)
                    new.append(S)
        frontier = new
    return [FiniteIdeal(R, e, check=False) for e in sorted(lattice, key=sorted)]


def primes_by_lattice(R):
    """The element sets of R's prime ideals, in the lattice's sorted order:
    the ideals of `all_ideals` that are proper and whose complement is
    closed under multiplication."""
    products = R.mul.tolist()
    primes = []
    for I in all_ideals(R):
        E = I.elements
        outside = [a for a in range(R.n) if a not in E]
        if R.one not in E and all(
            E.isdisjoint(map(products[a].__getitem__, outside)) for a in outside
        ):
            primes.append(E)
    return primes


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
    return relabel_one(add, mul, index[(A.one, B.one)])


def relabel_one(add, mul, one):
    """The tables with the element `one` and the element 1 trading labels,
    so that `one` becomes the unit label 1."""
    n = add.shape[0]
    perm = np.arange(n)
    if n > 1:
        perm[[1, one]] = [one, 1]
    # perm is its own inverse: new label x holds old element perm[x]
    return perm[add[np.ix_(perm, perm)]], perm[mul[np.ix_(perm, perm)]]


def find_isomorphism(R, S):
    """Backtracking table-isomorphism search; None when not isomorphic."""
    if R.n != S.n:
        return None
    n = R.n
    phi = [None] * n
    used = [False] * n
    phi[0] = 0
    used[0] = True
    if n > 1:
        phi[R.one], used[S.one] = S.one, True

    def consistent(a):
        for b in range(n):
            if phi[b] is None:
                continue
            s = int(R.add[a, b])
            t = int(R.mul[a, b])
            if phi[s] is not None and phi[s] != int(S.add[phi[a], phi[b]]):
                return False
            if phi[s] is None and used[int(S.add[phi[a], phi[b]])]:
                return False
            if phi[t] is not None and phi[t] != int(S.mul[phi[a], phi[b]]):
                return False
        return True

    def backtrack():
        try:
            a = phi.index(None)
        except ValueError:
            # full assignment: verify both tables outright
            for x in range(n):
                for y in range(n):
                    if phi[int(R.add[x, y])] != int(S.add[phi[x], phi[y]]):
                        return False
                    if phi[int(R.mul[x, y])] != int(S.mul[phi[x], phi[y]]):
                        return False
            return True
        for img in range(n):
            if used[img]:
                continue
            phi[a] = img
            used[img] = True
            if consistent(a) and backtrack():
                return True
            phi[a] = None
            used[img] = False
        return False

    return list(phi) if backtrack() else None


def basis_vector(free, i):
    """The i-th unit vector e_i of the free module `free`."""
    return packed(ModVec(free, {(i, free.ring.one_mono()): 1}))


def syzygies_then_project(vecs, twists, modulo):
    """The a with sum a_i*vecs[i] in <modulo>: the syzygies of vecs and the
    nonzero relations together, each cut down to its first len(vecs)
    coordinates."""
    modulo = [r for r in modulo if not r.is_zero()]
    syz = _syzygy_basis(
        list(vecs) + modulo, twists=list(twists) + [r.degree() for r in modulo]
    )
    free = FreeModule(vecs[0].ring, twists)
    out = []
    for s in syz:
        terms = {(i, m): c for (i, m), c in s.terms.items() if i < len(vecs)}
        proj = ModVec(free, terms)
        if not proj.is_zero():
            out.append(proj)
    return out


def _first_coordinates(vecs, twists):
    """The first coordinates of the syzygies of `vecs`."""
    return [v.component_poly(0) for v in _syzygy_basis(vecs, twists=twists)]


def _reduced(ring, polys):
    return buchberger(IdealBasis(ring, polys))


def intersect_project(ring, I, J):
    """The ideals of the polynomials I and J intersected: the first
    coordinates of the syzygies of (1, 1), the (f, 0) and the (0, g),
    reduced by a Buchberger run."""
    I = [f for f in I if not f.is_zero()]
    J = [g for g in J if not g.is_zero()]
    if not I or not J:
        return _reduced(ring, [])
    free = FreeModule(ring, [0, 0])
    zero = ring.zero()
    vecs = [free.from_polys([ring.one(), ring.one()])]
    vecs += [free.from_polys([f, zero]) for f in I]
    vecs += [free.from_polys([zero, g]) for g in J]
    twists = [0] + [f.degree() for f in I + J]
    return _reduced(ring, _first_coordinates(vecs, twists))


def colon_loop(ring, I, J):
    """(I : J) as the intersection of the (I : g) over the generators g of
    J, each the first coordinates of the syzygies of [g] + I."""
    I = [f for f in I if not f.is_zero()]
    J = [g for g in J if not g.is_zero()]
    if not J:
        return _reduced(ring, [ring.one()])
    free = FreeModule(ring, [0])
    result = None
    for g in J:
        polys = [g] + I
        part = _first_coordinates(
            [free.from_polys([f]) for f in polys], [f.degree() for f in polys]
        )
        if result is not None:
            part = intersect_project(ring, result, part).elements
        result = part
    return _reduced(ring, result)


def quasi_gorenstein_by_presentation(R):
    """Whether ω of R is cyclic, ω = (S/ann ω)(-a), with the series of
    R(-a), which makes ann ω the defining ideal: read off ω presented."""
    omega = canonical_module(R)
    return len(omega.twists) == 1 and hilbert_series(omega) == HilbertSeries(
        lp_mul(lp_monomial(omega.twists[0]), R.series.num), R.series.den
    )


def annihilator(M):
    """The exact annihilator ideal (0 : M) of M = F/U in the ambient
    polynomial ring, as a reduced grevlex basis.

    (0 : M) is the intersection of the (U : e_i), so it is the quotient of
    (e_1, ..., e_s) in F^s modulo U^s.  Block i of F^s is F shifted by
    -twist_i, so the vector has degree 0.  For the zero module the vector
    is zero and the quotient is the unit ideal.
    """
    ring = M.ring
    s = len(M.twists)
    free = FreeModule(ring, [t - u for u in M.twists for t in M.twists])
    v = ModVec(free, {(i * s + i, ONE): 1 for i in range(s)})
    rels = [
        ModVec(free, {(i * s + j, m): c for (j, m), c in r.terms.items()})
        for i in range(s)
        for r in M.relations
    ]
    return quotient_ideal(v, rels)


def annihilator_loop(M):
    """(0 : M) as the intersection of the (U : e_i) over the generators of
    a minimal presentation F/U, each the first coordinates of the syzygies
    of [e_i] + U."""
    M = minimal_presentation_substitute(M)
    ring = M.ring
    if not M.twists:
        return _reduced(ring, [ring.one()])
    result = None
    for i in range(len(M.twists)):
        vecs = [basis_vector(M.free, i)] + list(M.relations)
        twists = [M.twists[i]] + [r.degree() for r in M.relations]
        part = _first_coordinates(vecs, twists)
        if result is not None:
            part = intersect_project(ring, result, part).elements
        result = part
    return _reduced(ring, result)


def _dim_by_subsets(n, leads):
    """dim S/(leads) for S in n variables: the size of the largest set U of
    variables such that no leading monomial lives in the variables of U,
    found by trying every subset, the largest first; -1 for the unit ideal."""
    for size in range(n, -1, -1):
        for U in combinations(range(n), size):
            outside = [i for i in range(n) if i not in U]
            if not any(all(m[i] == 0 for i in outside) for m in leads):
                return size
    return -1


def krull_dim_subsets(R):
    """dim R for a quotient ring R = S/I, that of S/in(I)."""
    return _dim_by_subsets(R.ambient.nvars, lead_exponents(R.defining))


def krull_dim_annihilator(M):
    """dim S/ann(M), with ann(M) from `annihilator_loop`."""
    return _dim_by_subsets(M.ring.nvars, lead_exponents(annihilator_loop(M)))


def ext_project(res, j):
    """Ext^j from the resolution `res` as the cohomology of its dual, the
    relations of ker/im cut down from syzygies of ker's generators and im."""
    ring = res.ring
    if j > res.length or not res.twists[j]:
        return FPModule(ring, [])
    dual_twists = [-t for t in res.twists[j]]
    if j == res.length:
        free = FreeModule(ring, dual_twists)
        ker_gens = [basis_vector(free, i) for i in range(free.rank)]
    else:
        ker_gens = _syzygy_basis(_dual_columns(res, j), twists=dual_twists).vecs
    im_gens = _dual_columns(res, j - 1) if j else []
    gens = minimal_generators(ker_gens)
    if not gens:
        return FPModule(ring, [])
    twists = [g.degree() for g in gens]
    rels = syzygies_then_project(gens, twists, im_gens)
    return minimal_presentation_substitute(FPModule(ring, twists, rels))


def minimal_presentation_substitute(M):
    """A minimal presentation of M: while a relation has a unit entry,
    solve it for that generator and substitute the solution into the other
    relations, then minimalize the relations that remain."""
    ring = M.ring
    p = ring.p
    one = ring.one_mono()
    twists = list(M.twists)
    rels = [dict(unpacked(r).terms) for r in M.relations if not r.is_zero()]
    while True:
        hit = next(
            (
                (ri, i, c)
                for ri, terms in enumerate(rels)
                for (i, m), c in terms.items()
                if m == one
            ),
            None,
        )
        if hit is None:
            break
        ri, comp, c = hit
        inv = (-pow(c, p - 2, p)) % p
        # e_comp = inv * (the relation without its comp entry)
        expr = {(i, m): v * inv % p for (i, m), v in rels[ri].items() if i != comp}
        new_rels = []
        for rj, terms in enumerate(rels):
            if rj == ri:
                continue
            out = {k: v for k, v in terms.items() if k[0] != comp}
            for (i, m), v in terms.items():
                if i != comp:
                    continue
                for (i2, m2), v2 in expr.items():
                    k = (i2, tuple(map(add, m, m2)))
                    s = (out.get(k, 0) + v * v2) % p
                    if s:
                        out[k] = s
                    else:
                        out.pop(k, None)
            if out:
                new_rels.append(out)
        twists.pop(comp)
        rels = [
            {(i - (i > comp), m): v for (i, m), v in terms.items()}
            for terms in new_rels
        ]
    free = FreeModule(ring, twists)
    vecs = minimal_generators([packed(ModVec(free, t)) for t in rels])
    return FPModule(ring, twists, vecs)


def trivext_module(spec):
    """Recover M over A's ambient from a trivial-extension amalgam spec."""
    A = spec.A
    nA = A.ambient.nvars
    amb = spec.B.ambient
    degs = list(amb.weights[nA:])
    rels = []
    for g in spec.B.defining.elements:
        comps = [A.ambient.zero() for _ in degs]
        linear = True
        for mono, c in g.terms.items():
            e_part = mono[nA:]
            if sum(e_part) != 1:
                linear = False
                break
            comps[e_part.index(1)] = comps[e_part.index(1)] + A.ambient.monomial(
                mono[:nA], c
            )
        if linear and any(not cp.is_zero() for cp in comps):
            rels.append(comps)
    return FPModule(A.ambient, degs, rels)


def kernel_by_elimination(source_ring, images, target):
    """ker(k[source] -> k[target]/target_ideal), `target` the ideal's
    Groebner basis: the basis of target_ideal + (u_i - image_i) in
    k[target vars, source vars] under the order that eliminates the target
    variables, its elements free of them cut to the source ring and
    reduced by a grevlex Buchberger run there."""
    r = target.ring.nvars
    joint = source_ring.with_variables(
        list(target.ring.names) + [f"@{n}" for n in source_ring.names],
        list(target.ring.weights) + list(source_ring.weights),
    )
    pad = (0,) * source_ring.nvars

    def lift(f):
        return Polynomial(joint, {m + pad: c for m, c in f.terms.items()})

    gens = [lift(g) for g in target.elements]
    for i, img in enumerate(images):
        e = [0] * (r + source_ring.nvars)
        e[r + i] = 1
        gens.append(joint.monomial(e) - lift(img))
    G = buchberger(IdealBasis(joint, gens), ModOrder(joint.layout, block=r))
    kept = [
        Polynomial(source_ring, {m[r:]: c for m, c in g.terms.items()})
        for g in G.elements
        if all(not any(m[:r]) for m in g.terms)
    ]
    return _reduced(source_ring, kept)


def retraction_ideal_identity(P):
    """Check K + (z's) = I_A*C + (z's) as ideals of C (GB equality), with
    I_A*C lifted from A's defining ideal here."""
    amb = P.ambient
    zs = [amb.var(n) for n in P.z_names]
    pad = (0,) * len(zs)
    lifted = [
        Polynomial(amb, {m + pad: c for m, c in g.terms.items()})
        for g in P.spec.A.defining.elements
    ]
    left = buchberger(IdealBasis(amb, list(P.ring.defining.elements) + zs))
    right = buchberger(IdealBasis(amb, lifted + zs))
    return left.elements == right.elements


def _tokens_by_character(text):
    """The (kind, value) tokens of a polynomial's text, read one character
    at a time: decimal digits, names (a letter or `_`, then letters,
    digits or `_`) and the operators."""
    toks = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch.isdecimal():
            # decimal digits only: `int` rejects other digits, like ²
            j = i
            while j < len(text) and text[j].isdecimal():
                j += 1
            toks.append(("int", int(text[i:j])))
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(("name", text[i:j]))
            i = j
        elif ch in "+-*^()":
            toks.append((ch, ch))
            i += 1
        else:
            raise ParseError(f"bad character {ch!r} in polynomial")
    return toks


def parse_poly_arith(ring, text):
    """The polynomial of `text` in `ring`, by recursive descent: every
    factor is a `Polynomial`, and products, sums and powers are
    `Polynomial` arithmetic.  Raises what `parse_poly` raises."""
    toks = _tokens_by_character(text) + [(None, None)]
    at = 0

    def take():
        nonlocal at
        at += 1
        return toks[at - 1]

    def factor():
        kind, val = take()
        if kind == "int":
            base = ring.const(val)
        elif kind == "name":
            if val not in ring.names:
                raise ParseError(f"unknown variable {val!r}")
            base = ring.var(val)
        elif kind == "(":
            base = expr()
            if take()[0] != ")":
                raise ParseError("expected ')'")
        elif kind == "-":
            return -factor()
        else:
            raise ParseError(f"unexpected token {val!r} in polynomial")
        if toks[at][0] == "^":
            take()
            kind, n = take()
            if kind != "int":
                raise ParseError("expected integer exponent after '^'")
            cap = ring.degree_cap
            if len(base.terms) > 1 and cap is not None and n * base.degree() > cap:
                raise DegreeCapExceeded(
                    f"intermediate degree {n * base.degree()} exceeds cap {cap}"
                )
            base = base**n
        return base

    def term():
        out = factor()
        while toks[at][0] == "*":
            take()
            out = out * factor()
        return out

    def expr():
        negate = toks[at][0] == "-"
        if toks[at][0] in ("+", "-"):
            take()
        out = -term() if negate else term()
        while toks[at][0] in ("+", "-"):
            op = take()[0]
            t = term()
            out = out + t if op == "+" else out - t
        return out

    result = expr()
    if toks[at][0] is not None:
        raise ParseError(f"trailing input in polynomial: {text!r}")
    return result


def reduce_every_tail(ring, G):
    """The reduced basis of the ideal whose Groebner basis is the `_Basis`
    G of monic rank-1 vectors: drop each element whose lead another lead
    divides (the first of equal leads stays), then reduce the tail of
    every element left against all of them, and sort by lead."""
    leads = G.leads
    unpack = ring.layout.unpack
    minimal = [
        k
        for k, (_, lm) in enumerate(leads)
        if not any(
            j != k
            and _divides_scan(unpack(lj), unpack(lm))
            and (lj != lm or j < k)
            for j, (_, lj) in enumerate(leads)
        )
    ]
    basis = _Basis(G.order, [G.vecs[k] for k in minimal], [leads[k] for k in minimal])
    free = FreeModule(ring, [0])
    reduced = []
    for k in minimal:
        tail = dict(G.vecs[k].terms)
        c = tail.pop(leads[k])
        h = _reduce(ModVec(free, tail), basis)
        reduced.append((ModVec(free, {leads[k]: c, **h.terms}), leads[k]))
    reduced.sort(key=lambda gl: G.order.key(gl[1]))
    return GroebnerBasis(
        ring, _Basis(G.order, [g for g, _ in reduced], [m for _, m in reduced])
    )
