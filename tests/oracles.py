"""Second routes for results the package computes more cleverly.

`resolution_series` takes Hilbert series from the alternating sum of the
twists of a minimal free resolution, where
`amalgams.homology.hilbert_series` reads them off leading monomials.
`minimal_generators_rebuild` builds a new module GB from scratch after
every kept vector, where `amalgams.modules.minimal_generators` extends one.
`module_groebner_scan` is the module engine with every choice made by a
scan: the next S-pair by `min` over the open pairs, each leading term by
`max` over the terms with a freshly built order key, and each divisor by a
pass over all of G, where `amalgams.modules` pops pairs and terms from
heaps; it takes the same S-pairs in the same order, so its output is the
same list, term for term.
`ideal_generated_by_closure` and `all_ideals_closure` close a finite ring's
multiples under addition until nothing changes, where `amalgams.finite`
adds principal ideals coset by coset; `amalgam_tables_loop` fills a finite
amalgam's tables one pair at a time, where `FiniteAmalgam` indexes them.
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
`PresentedRing.standard_monomials` walks only the standard ones.
`trivext_module` reads the module M of a trivial extension back off B's
Groebner basis (the elements linear in the e-variables), where
`trivial_extension` keeps the M it built as `spec.J_module`.
"""

from itertools import product
from operator import add, mul

import numpy as np

from amalgams.errors import DegreeCapExceeded, NotARing
from amalgams.finite import FiniteIdeal, _normalize_one
from amalgams.gb import IdealBasis, buchberger
from amalgams.homology import _dual_columns, free_resolution
from amalgams.modules import (
    DEFAULT_DEGREE_CAP,
    FPModule,
    FreeModule,
    ModOrder,
    ModVec,
    _mod_reduce,
    leading_mod_term,
    minimal_generators,
    module_groebner,
    syzygies,
)
from amalgams.poly import GREVLEX
from amalgams.ring import IdealHandle, PresentedRing
from amalgams.series import HilbertSeries, lp_add, lp_monomial, lp_neg, lp_zero


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


def _scan_key(order, term):
    """ModOrder's comparison as a nested tuple, built afresh on every call."""
    comp, mono = term
    return (
        1 if comp < order.split else 0,
        order.order.key(mono, order.weights),
        -comp,
    )


def _check_cap_scan(degree, degree_cap):
    if degree_cap is not None and degree > degree_cap:
        raise DegreeCapExceeded(
            f"intermediate degree {degree} exceeds cap {degree_cap}"
        )


def monic_scan(v, order):
    """v scaled to leading coefficient 1, with its leading term, by `max`."""
    lead = max(v.terms, key=lambda t: _scan_key(order, t))
    return v.scale(v.ring.field.inverse(v.terms[lead])), lead


def mod_reduce_scan(v, gens, leads, order, degree_cap=None):
    """Full normal form: the leading term by `max` over the working dict,
    the divisor by a pass over all of `gens`."""
    ring = v.ring
    p = ring.p
    if degree_cap is not None:
        _check_cap_scan(v.max_mono_degree(), degree_cap)
    h = dict(v.terms)
    rem = {}
    while h:
        lead = max(h, key=lambda t: _scan_key(order, t))
        comp, mono = lead
        c = h[lead]
        for g, (gc_comp, gm) in zip(gens, leads):
            if gc_comp == comp and ring.mono_divides(gm, mono):
                q = ring.mono_div(mono, gm)
                if degree_cap is not None:
                    _check_cap_scan(
                        ring.mono_degree(q) + g.max_mono_degree(), degree_cap
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
    return ModVec(v.free, rem)


def extend_scan(G, leads, new, order, degree_cap):
    """Buchberger's loop with the next pair by `min` over the open pairs of
    (lcm degree, (i, j)), the degree recomputed at every step."""
    pairs = set()

    def append(g, lead):
        G.append(g)
        leads.append(lead)
        n = len(G) - 1
        pairs.update((k, n) for k in range(n) if leads[k][0] == lead[0])

    for g, lead in new:
        append(g, lead)
    if not G:
        return G
    ring = G[0].ring
    rank_one = G[0].free.rank == 1

    def pair_deg(pr):
        i, j = pr
        return ring.mono_degree(ring.mono_lcm(leads[i][1], leads[j][1]))

    def done(a, b):
        return (min(a, b), max(a, b)) not in pairs

    while pairs:
        i, j = min(pairs, key=lambda pr: (pair_deg(pr), pr))
        pairs.discard((i, j))
        comp, mi = leads[i]
        mj = leads[j][1]
        lcm = ring.mono_lcm(mi, mj)
        if rank_one and lcm == ring.mono_mul(mi, mj):
            continue
        if any(
            k != i
            and k != j
            and kc == comp
            and ring.mono_divides(km, lcm)
            and done(i, k)
            and done(j, k)
            for k, (kc, km) in enumerate(leads)
        ):
            continue
        s = G[i].term_mul(ring.mono_div(lcm, mi), 1) - G[j].term_mul(
            ring.mono_div(lcm, mj), 1
        )
        h = mod_reduce_scan(s, G, leads, order, degree_cap)
        if not h.is_zero():
            append(*monic_scan(h, order))
    return G


def module_groebner_scan(vecs, order=None, degree_cap=DEFAULT_DEGREE_CAP):
    """`module_groebner` with every choice made by a scan."""
    if not vecs:
        return []
    if order is None:
        order = ModOrder(vecs[0].ring.weights)
    new = [monic_scan(v, order) for v in vecs if not v.is_zero()]
    new.sort(key=lambda gl: _scan_key(order, gl[1]))
    return extend_scan([], [], new, order, degree_cap)


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


def syzygies_then_project(vecs, twists, modulo):
    """The a with sum a_i*vecs[i] in <modulo>: the syzygies of vecs and the
    nonzero relations together, each cut down to its first len(vecs)
    coordinates."""
    modulo = [r for r in modulo if not r.is_zero()]
    syz = syzygies(
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
    """The ideal of first coordinates of the syzygies of `vecs`."""
    return IdealBasis(
        vecs[0].ring, [v.component_poly(0) for v in syzygies(vecs, twists=twists)]
    )


def _reduced(ideal):
    return IdealBasis(ideal.ring, buchberger(ideal, GREVLEX).elements)


def intersect_project(I, J):
    """I cap J: the first coordinates of the syzygies of (1, 1), the
    (f, 0) and the (0, g), reduced by a Buchberger run."""
    ring = I.ring
    if I.is_zero() or J.is_zero():
        return IdealBasis(ring, [])
    free = FreeModule(ring, [0, 0])
    zero = ring.zero()
    vecs = [free.from_polys([ring.one(), ring.one()])]
    vecs += [free.from_polys([f, zero]) for f in I.gens]
    vecs += [free.from_polys([zero, g]) for g in J.gens]
    twists = [0] + [f.degree() for f in I.gens + J.gens]
    return _reduced(_first_coordinates(vecs, twists))


def colon_loop(I, J):
    """(I : J) as the intersection of the (I : g) over the generators g of
    J, each the first coordinates of the syzygies of [g] + I."""
    ring = I.ring
    if J.is_zero():
        return IdealBasis(ring, [ring.one()])
    free = FreeModule(ring, [0])
    result = None
    for g in J.gens:
        polys = [g] + I.gens
        part = _first_coordinates(
            [free.from_polys([f]) for f in polys], [f.degree() for f in polys]
        )
        result = part if result is None else intersect_project(result, part)
    return _reduced(result)


def annihilator_loop(M):
    """(0 : M) as the intersection of the (U : e_i) over the generators of
    a minimal presentation F/U, each the first coordinates of the syzygies
    of [e_i] + U."""
    M = minimal_presentation_substitute(M)
    ring = M.ring
    if M.is_zero_presentation():
        return IdealBasis(ring, [ring.one()])
    result = None
    for i in range(len(M.twists)):
        vecs = [M.free.basis_vector(i)] + list(M.relations)
        twists = [M.twists[i]] + [r.degree() for r in M.relations]
        part = _first_coordinates(vecs, twists)
        result = part if result is None else intersect_project(result, part)
    return _reduced(result)


def ext_project(res, j):
    """Ext^j from the resolution `res` as the cohomology of its dual, the
    relations of ker/im cut down from syzygies of ker's generators and im."""
    ring = res.ring
    if j > res.length or not res.twists[j]:
        return FPModule.zero(ring)
    dual_twists = [-t for t in res.twists[j]]
    if j == res.length:
        free = FreeModule(ring, dual_twists)
        ker_gens = [free.basis_vector(i) for i in range(free.rank)]
    else:
        ker_gens = syzygies(_dual_columns(res, j), twists=dual_twists)
    im_gens = _dual_columns(res, j - 1) if j else []
    gens = minimal_generators(ker_gens)
    if not gens:
        return FPModule.zero(ring)
    twists = [g.degree() for g in gens]
    rels = syzygies_then_project(gens, twists, im_gens)
    return minimal_presentation_substitute(FPModule(ring, twists, rels))


def minimal_presentation_substitute(M, degree_cap=DEFAULT_DEGREE_CAP):
    """A minimal presentation of M: while a relation has a unit entry,
    solve it for that generator and substitute the solution into the other
    relations, then minimalize the relations that remain."""
    ring = M.ring
    p = ring.p
    one = ring.one_mono()
    twists = list(M.twists)
    rels = [dict(r.terms) for r in M.relations if not r.is_zero()]
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
                    k = (i2, ring.mono_mul(m, m2))
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
    vecs = minimal_generators([ModVec(free, t) for t in rels], degree_cap)
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
