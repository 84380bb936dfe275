"""The module Groebner engine: minimal generators from one engine run that
takes the vectors as candidates agree with the from-scratch route of
`oracles.minimal_generators_rebuild`, with and without relations, run the
engine once, reduce no vector above the largest candidate's degree and
keep the same list for the relations in any order;
the minimal generators a syzygy basis finds as it is built, which
`syzygies` returns from a run that stops once they are settled, are
element for element those of the run of every pair (`_syzygy_basis`),
have the degrees of
those the rebuild finds in that run's whole basis and generate the same
module, with and without relations; on `classify W_4` no pair is reduced
after a run's last front-block pair or candidate, and under degree caps a
stopped run raises or returns its uncapped result; the heap-driven engine
returns what the scan-driven `oracles.module_groebner_scan` returns,
element for element and in order, with the same elements born minimal,
also under degree caps; the reducer on a prebuilt
per-component index returns what `oracles.mod_reduce_scan` returns, also
under degree caps; the product criterion is kept to rank 1; the reducer
stops at the degree cap; minimal presentations
of modules with unit relation entries agree with the substitution route of
`oracles.minimal_presentation_substitute`."""

import random
from collections import Counter
from contextlib import ExitStack
from itertools import product
from operator import sub
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amalgams import modules
from amalgams.errors import DegreeCapExceeded
from amalgams.homology import (
    _ext_kernel_image,
    classify,
    free_resolution,
    hilbert_series,
)
from amalgams.modules import (
    FPModule,
    FreeModule,
    ModOrder,
    ModVec,
    _Basis,
    _monic,
    _reduce,
    _syzygy_basis,
    leading_mod_term,
    minimal_generators,
    module_groebner,
    syzygies,
)
from amalgams.poly import PackedLayout, PolyRing, parse_poly
from oracles import (
    _scan_key,
    extend_scan,
    minimal_generators_rebuild,
    minimal_presentation_substitute,
    mod_reduce_scan,
    module_groebner_scan,
    monic_scan,
    packed,
    term_mul,
    vec_add,
)
from samples import (
    binomial_or_monomial_rings,
    duplication_along_m,
    fixture_rings,
    k3_duplications,
    serre_rings,
)


def offered_along_resolution(R):
    """(vecs, modulo) along the resolution of R: the relation module and
    every syzygy module after it, each offered unminimized, once on its
    own and once split, the odd-numbered vectors as relations for the
    even-numbered ones."""
    vecs = FPModule.quotient_ring(R).relations
    for _ in range(R.ambient.nvars + 1):
        yield vecs, ()
        yield vecs[::2], vecs[1::2]
        kept = minimal_generators(vecs)
        if not kept:
            return
        vecs = _syzygy_basis(kept).vecs
    raise AssertionError("resolution longer than the syzygy bound")


def assert_same_kept_along_resolution(R):
    """Compare both routes on every input `offered_along_resolution`."""
    for vecs, modulo in offered_along_resolution(R):
        kept = minimal_generators(vecs, modulo=modulo)
        assert kept == minimal_generators_rebuild(vecs, modulo=modulo)


def test_minimal_generators_match_rebuild_on_fixtures():
    for p in (101, 32003):
        for R in serre_rings(p) + k3_duplications(p):
            assert_same_kept_along_resolution(R)


def test_minimal_generators_do_not_depend_on_the_order_of_the_relations():
    # The engine sorts the relations by lead before its run, and the kept
    # set depends only on their span: each dual kernel of a resolution,
    # modulo the image of the dual map before it, keeps the same list for
    # the image reversed and shuffled.
    rng = random.Random(32)
    shuffled_some = False
    for p in (101, 32003):
        for R in serre_rings(p) + k3_duplications(p):
            res = free_resolution(R)
            for j in range(res.length + 1):
                kernel, image = _ext_kernel_image(res, j)
                kept = minimal_generators(kernel, modulo=image)
                for moved in (image[::-1], rng.sample(image, len(image))):
                    assert minimal_generators(kernel, modulo=moved) == kept
                shuffled_some |= len(image) > 1 and bool(kept)
    assert shuffled_some


@settings(max_examples=25)
@given(data=st.data())
def test_minimal_generators_match_rebuild_on_random_ideals(data):
    for p in (101, 32003):
        assert_same_kept_along_resolution(data.draw(binomial_or_monomial_rings(p)))


def reduce_to_zero(vecs, gens):
    """Whether every vector of `vecs` lies in the module `gens` generate."""
    if not gens:
        return all(v.is_zero() for v in vecs)
    basis = module_groebner(gens)
    return all(_reduce(v, basis).is_zero() for v in vecs)


def assert_born_minimal_along_resolution(R):
    """On every input of `offered_along_resolution`, the syzygies' own
    minimal generators, from the run that stops once they are settled,
    are element for element those of the run of every pair; and against
    the rebuild's minimal generators of that run's whole syzygy basis:
    as many in each degree, each set in the module of the other."""
    for vecs, modulo in offered_along_resolution(R):
        minimal = syzygies(vecs, modulo=modulo)
        whole = _syzygy_basis(vecs, modulo=modulo)
        assert minimal == whole.minimal
        rebuilt = minimal_generators_rebuild(whole.vecs)
        assert Counter(v.degree() for v in minimal) == Counter(
            v.degree() for v in rebuilt
        )
        assert reduce_to_zero(minimal, rebuilt)
        assert reduce_to_zero(rebuilt, minimal)


@pytest.mark.parametrize("p", [101, 32003])
def test_syzygies_are_born_minimal_on_fixtures(p):
    for R in serre_rings(p) + k3_duplications(p):
        assert_born_minimal_along_resolution(R)


@pytest.mark.parametrize("p", [101, 32003])
@settings(max_examples=25)
@given(data=st.data())
def test_syzygies_are_born_minimal_on_random_ideals(p, data):
    assert_born_minimal_along_resolution(data.draw(binomial_or_monomial_rings(p)))


def test_zero_inputs_are_born_minimal_syzygies():
    # A zero vector's unit vector is a minimal syzygy, and the pairs of
    # the others find the rest: (x, y, 0) has syzygies e3 and y*e1 - x*e2.
    S = PolyRing(101, ["x", "y"])
    F = FreeModule(S, [0])
    x, y, zero = (F.from_polys([parse_poly(S, f)]) for f in ("x", "y", "0"))
    minimal = syzygies([x, y, zero], twists=[1, 1, 2])
    assert [v.degree() for v in minimal] == [2, 2]
    assert minimal[0] == ModVec(minimal[0].free, {(2, modules.ONE): 1})
    assert reduce_to_zero(_syzygy_basis([x, y, zero], twists=[1, 1, 2]).vecs, minimal)


def test_no_pair_is_reduced_after_the_last_front_pair():
    # Every syzygy computation and minimal generating set of `classify
    # W_4` (the runs that need not run every pair) ends once its last
    # front-block pair or candidate is popped: the pairs still open then
    # can add nothing to the minimal generators or the kept candidates.
    # Each entry is seen as the engine pops it off its heap, a pair
    # (degree, block, i, j, lcm) with block true in the front block or a
    # candidate (degree, 2, position), and a reduction belongs to the
    # entry popped last.
    runs, inside = [], []
    real_extend, real_pop, real_reduce = (
        modules._extend, modules.heappop, modules._reduce,
    )

    def extend(order, vecs, every_pair=True, candidates=()):
        if every_pair:
            return real_extend(order, vecs, every_pair, candidates)
        runs.append([])
        inside.append(True)
        try:
            return real_extend(order, vecs, every_pair, candidates)
        finally:
            inside.pop()

    def pop(heap):
        item = real_pop(heap)
        if inside and len(item) == 5:
            runs[-1].append([item[1], False])
        elif inside and len(item) == 3:
            runs[-1].append([True, False])
        return item

    def reduce(v, basis, *args, **kwargs):
        if inside and runs[-1]:
            runs[-1][-1][1] = True
        return real_reduce(v, basis, *args, **kwargs)

    with ExitStack() as stack:
        for name, stand_in in [
            ("_extend", extend),
            ("heappop", pop),
            ("_reduce", reduce),
        ]:
            stack.enter_context(patch.object(modules, name, stand_in))
        classify(duplication_along_m(4))
    assert any(any(block for block, _ in run) for run in runs)
    for run in runs:
        fronts = [k for k, (block, _) in enumerate(run) if block]
        after = run[fronts[-1] + 1:] if fronts else run
        assert not any(reduced for _, reduced in after)


def assert_no_reduction_above_top(R):
    """Every vector `minimal_generators` reduces, candidates and S-vectors
    alike, has degree at most the largest candidate's."""
    for vecs, modulo in offered_along_resolution(R):
        degrees = []

        def recording(v, *args, **kwargs):
            degrees.append(v.degree())
            return _reduce(v, *args, **kwargs)

        with patch.object(modules, "_reduce", recording):
            minimal_generators(vecs, modulo=modulo)
        top = max((v.degree() for v in vecs if not v.is_zero()), default=-1)
        assert max(degrees, default=-1) <= top


def test_minimal_generators_make_one_engine_run():
    # A call with a nonzero candidate runs the engine once, however many
    # candidates it keeps; a call with none does not run it.
    real_extend = modules._extend
    for p in (101, 32003):
        for R in serre_rings(p) + k3_duplications(p):
            for vecs, modulo in offered_along_resolution(R):
                calls = []

                def counting(*args, **kwargs):
                    calls.append(args)
                    return real_extend(*args, **kwargs)

                with patch.object(modules, "_extend", counting):
                    minimal_generators(vecs, modulo=modulo)
                assert len(calls) == (1 if any(not v.is_zero() for v in vecs) else 0)


def test_minimal_generators_reduce_nothing_above_the_largest_candidate():
    for p in (101, 32003):
        for R in serre_rings(p) + k3_duplications(p):
            assert_no_reduction_above_top(R)


@settings(max_examples=25)
@given(data=st.data())
def test_minimal_generators_reduce_nothing_above_top_on_random_ideals(data):
    for p in (101, 32003):
        assert_no_reduction_above_top(data.draw(binomial_or_monomial_rings(p)))


def test_product_criterion_is_not_applied_in_rank_two():
    # The leads x*e1 and y*e1 of f = (x, y) and g = (y, z) are coprime, yet
    # their S-vector y*f - x*g = (y^2 - x*z)*e2 does not reduce to 0 by f, g.
    S = PolyRing(101, ["x", "y", "z"])
    F = FreeModule(S, [0, 0])

    def vec(a, b):
        return F.from_polys([parse_poly(S, a), parse_poly(S, b)])

    G = module_groebner([vec("x", "y"), vec("y", "z")])
    order = ModOrder(S.layout)
    leads = [leading_mod_term(g, order)[0] for g in G]
    assert _reduce(vec("0", "y^2 - x*z"), _Basis(order, G, leads)).is_zero()


def test_reduction_stops_at_the_degree_cap():
    # Under a block order x - y^3 leads with x, so reducing x*z by it
    # brings in y^3*z, a term above the degree of everything reduced so far.
    S = PolyRing(101, ["x", "y", "z"])
    F = FreeModule(S, [0])
    g = F.from_polys([parse_poly(S, "x - y^3")])
    order = ModOrder(S.layout, block=1)
    basis = _Basis(order, [g], [leading_mod_term(g, order)[0]])
    v = F.from_polys([parse_poly(S, "x*z")])
    with pytest.raises(DegreeCapExceeded, match="intermediate degree 4 exceeds cap 3"):
        _reduce(v, basis, degree_cap=3)
    assert _reduce(v, basis, degree_cap=4) == F.from_polys(
        [parse_poly(S, "y^3*z")]
    )


@settings(max_examples=200)
@given(data=st.data())
def test_mod_order_ranks_terms_as_the_reference_order(data):
    # ModOrder keys packed monomials; `_scan_key` ranks terms of exponent
    # tuples from the definitions of grevlex and of the elimination order.
    n = data.draw(st.integers(1, 5))
    w = tuple(data.draw(st.lists(st.integers(1, 3), min_size=n, max_size=n)))
    layout = PackedLayout(w)
    split, block = data.draw(st.integers(0, 2)), data.draw(st.integers(0, n))
    order = ModOrder(layout, split, block)
    mono = st.tuples(*[st.integers(0, 3)] * n)
    terms = data.draw(
        st.lists(st.tuples(st.integers(0, 2), mono), min_size=2, unique=True)
    )

    def key(t):
        return order.key((t[0], layout.pack(t[1])))

    assert len({key(t) for t in terms}) == len(terms)
    assert sorted(terms, key=key) == sorted(
        terms, key=lambda t: _scan_key(order, w, t), reverse=True
    )


def scan_engine():
    """A context in which `modules`' own syzygies and minimal_generators
    run on the scan-driven oracle engine, which builds its basis as the two
    lists `vecs` and `leads` from the monic nonzero inputs, sorted by
    `_scan_key` on their unpacked leads, takes the degree cap that the
    engine reads off the ring, top-reduces as the engine does and runs
    every pair, whatever `every_pair` says.  Candidates take the route of
    one extension per kept vector: the basis is completed up to the
    largest candidate's degree `top`, and each candidate by increasing
    degree is reduced fully and, when its remainder is nonzero, kept and
    its remainder added, the basis completed again up to `top`.  The
    basis returned holds in `minimal` the kept candidates and the
    elements born minimal."""

    def groebner(vecs, order=None):
        cap = vecs[0].ring.degree_cap if vecs else None
        return module_groebner_scan(vecs, order, cap)

    def extend(order, vecs, every_pair=True, candidates=()):
        new = [monic_scan(v, order) for v in vecs if not v.is_zero()]
        if not new and not candidates:
            return _Basis(order)
        ring = (new[0][0] if new else candidates[0]).ring
        unpack = ring.layout.unpack
        new.sort(
            key=lambda gl: _scan_key(
                order, ring.weights, (gl[1][0], unpack(gl[1][1]))
            )
        )
        G, leads, cap = [], [], ring.degree_cap
        candidates = sorted(candidates, key=lambda v: v.degree())
        top = candidates[-1].degree() if candidates else None
        born = extend_scan(G, leads, new, order, cap, top)
        kept = []
        for v in candidates:
            h = mod_reduce_scan(v, G, leads, order)
            if not h.is_zero():
                kept.append(v)
                born += extend_scan(G, leads, [monic_scan(h, order)], order, cap, top)
        basis = _Basis(order, G, leads)
        basis.minimal = kept + [G[n] for n in born]
        return basis

    def reduce(v, basis, degree_cap=None, full=True):
        return mod_reduce_scan(
            v, basis.vecs, basis.leads, basis.order, degree_cap, full
        )

    stack = ExitStack()
    for name, oracle in [
        ("module_groebner", groebner),
        ("_extend", extend),
        ("_reduce", reduce),
    ]:
        stack.enter_context(patch.object(modules, name, oracle))
    return stack


def engine_orders(vecs):
    """Grevlex and a block order, and for rank >= 2 a dominant front block
    of one component under each; fresh instances for every call."""
    layout = vecs[0].ring.layout
    orders = [lambda: ModOrder(layout), lambda: ModOrder(layout, block=1)]
    if vecs[0].free.rank >= 2:
        orders += [
            lambda: ModOrder(layout, split=1),
            lambda: ModOrder(layout, split=1, block=1),
        ]
    return orders


def assert_engine_matches_scan(R):
    """module_groebner, syzygies (stopped, and the whole basis of every
    pair) and minimal_generators against the scan engine on the relations
    of R and every whole syzygy basis after them."""
    vecs = FPModule.quotient_ring(R).relations
    for _ in range(R.ambient.nvars + 1):
        if not vecs:
            return
        for order in engine_orders(vecs):
            heap = module_groebner(vecs, order())
            scan = module_groebner_scan(vecs, order())
            assert (heap.vecs, heap.leads) == (scan.vecs, scan.leads)
            assert heap.minimal == scan.minimal
        kept = minimal_generators(vecs)
        syz = _syzygy_basis(kept)
        minimal = syzygies(kept)
        with scan_engine():
            assert minimal_generators(vecs) == kept
            again = _syzygy_basis(kept)
            assert (again.vecs, again.leads) == (syz.vecs, syz.leads)
            assert again.minimal == syz.minimal
            assert syzygies(kept) == minimal
        vecs = syz.vecs
    raise AssertionError("resolution longer than the syzygy bound")


def test_engine_matches_scan_on_fixtures():
    for R in serre_rings() + k3_duplications():
        assert_engine_matches_scan(R)


@pytest.mark.parametrize("p", [101, 32003])
@settings(max_examples=25)
@given(data=st.data())
def test_engine_matches_scan_on_random_ideals(p, data):
    assert_engine_matches_scan(data.draw(binomial_or_monomial_rings(p)))


def outcome(run, cap):
    """run(cap), or None when it raises DegreeCapExceeded."""
    try:
        return run(cap)
    except DegreeCapExceeded:
        return None


@pytest.mark.parametrize("p", [101, 32003])
def test_engine_and_scan_agree_under_degree_caps(p):
    # At each cap both engines either raise DegreeCapExceeded or return
    # their uncapped result, and both do the same; over the caps, both
    # outcomes occur for every computation.  Each run builds its vectors in
    # a ring with its cap and returns their terms.
    def inputs(cap):
        S = PolyRing(p, ["x", "y", "z"], degree_cap=cap)
        F = FreeModule(S, [0])
        return [
            F.from_polys([parse_poly(S, f)])
            for f in ("x^2 - 2*y*z", "y^2 - 3*x*z", "z^2 - 5*x*y + x*z")
        ]

    def terms(vecs):
        return [v.terms for v in vecs]

    def heap_syzygies(cap):
        return terms(syzygies(inputs(cap)))

    def scan_syzygies(cap):
        with scan_engine():
            return heap_syzygies(cap)

    def groebner(block):
        def heap(cap):
            vecs = inputs(cap)
            morder = ModOrder(vecs[0].ring.layout, block=block)
            return terms(module_groebner(vecs, morder))

        def scan(cap):
            vecs = inputs(cap)
            morder = ModOrder(vecs[0].ring.layout, block=block)
            return terms(module_groebner_scan(vecs, morder, cap))

        return heap, scan

    runs = [groebner(block) for block in (0, 1)]
    runs.append((heap_syzygies, scan_syzygies))

    for heap_run, scan_run in runs:
        full = heap_run(None)
        assert scan_run(None) == full
        stopped = set()
        for cap in range(1, 9):
            got = outcome(heap_run, cap)
            assert got in (None, full)
            assert outcome(scan_run, cap) == got
            stopped.add(got is None)
        assert stopped == {True, False}


def in_capped_ring(vecs, cap):
    """The vectors of one free module, rebuilt in a ring with degree cap
    `cap` and otherwise the same."""
    ring = vecs[0].ring
    capped = PolyRing(ring.p, ring.names, ring.weights, degree_cap=cap)
    free = FreeModule(capped, vecs[0].free.twists)
    return [ModVec(free, dict(v.terms)) for v in vecs]


@pytest.mark.parametrize("p", [101, 32003])
def test_stopped_syzygies_under_degree_caps(p):
    # On every input of `offered_along_resolution` of the fixture rings,
    # rebuilt under caps 1-8, the stopped syzygy computation raises
    # DegreeCapExceeded or returns its uncapped result; over all runs,
    # both outcomes occur.
    def run(vecs, modulo, cap):
        both = in_capped_ring(vecs + list(modulo), cap)
        return [v.terms for v in syzygies(both[: len(vecs)], modulo=both[len(vecs):])]

    stopped = set()
    for R in serre_rings(p) + k3_duplications(p):
        for vecs, modulo in offered_along_resolution(R):
            if not vecs:
                continue
            full = [v.terms for v in syzygies(vecs, modulo=modulo)]
            for cap in range(1, 9):
                got = outcome(lambda c: run(vecs, modulo, c), cap)
                assert got in (None, full)
                stopped.add(got is None)
    assert stopped == {True, False}


@pytest.mark.parametrize("p", [101, 32003])
@settings(max_examples=20)
@given(data=st.data())
def test_engine_results_carry_their_leading_terms(p, data):
    # module_groebner under each engine order, and syzygies (plain and
    # modulo relations) under plain grevlex, the order they are a basis for.
    vecs = FPModule.quotient_ring(data.draw(binomial_or_monomial_rings(p))).relations
    for order in engine_orders(vecs):
        G = module_groebner(vecs, order())
        assert G.leads == [leading_mod_term(g, order())[0] for g in G]
    plain = ModOrder(vecs[0].ring.layout)
    for syz in (_syzygy_basis(vecs), _syzygy_basis(vecs[:1], modulo=vecs[1:])):
        assert syz.leads == [leading_mod_term(g, plain)[0] for g in syz]


@st.composite
def reduction_case(draw, vecs):
    """(basis, leads, order, vectors) for nonzero vectors of one free
    module: under one of `engine_orders`, their module GB together with
    their monic forms, in a drawn order, and up to four homogeneous
    vectors of the same free module, each a sum of up to three terms per
    component and up to two monomial multiples of basis elements."""
    order = draw(st.sampled_from(engine_orders(vecs)))()
    monic = [_monic(v, order)[0] for v in vecs]
    G = draw(st.permutations(module_groebner(vecs, order).vecs + monic))
    leads = [leading_mod_term(g, order)[0] for g in G]
    free = G[0].free
    twists = free.twists
    coeff = st.integers(1, free.ring.p - 1)

    def monomials(d):
        return [e for e in product(range(d + 1), repeat=3) if sum(e) == d]

    targets = []
    for _ in range(draw(st.integers(1, 4))):
        d = draw(st.integers(min(twists), max(twists) + 3))
        v = ModVec(free, {})
        for i, t in enumerate(twists):
            if d >= t:
                for e in draw(st.lists(st.sampled_from(monomials(d - t)), max_size=3)):
                    v = vec_add(v, packed(ModVec(free, {(i, e): draw(coeff)})))
        for g in draw(st.lists(st.sampled_from(G), max_size=2)):
            if d >= g.degree():
                e = draw(st.sampled_from(monomials(d - g.degree())))
                v = vec_add(v, term_mul(g, e, draw(coeff)))
        targets.append(v)
    return G, leads, order, targets


def s_vector(f, g, order):
    """f and g, monic with leads in one component, times the cofactors of
    their lcm, subtracted."""
    unpack = f.ring.layout.unpack
    mf = unpack(leading_mod_term(f, order)[0][1])
    mg = unpack(leading_mod_term(g, order)[0][1])
    lcm = tuple(map(max, mf, mg))
    return vec_add(
        term_mul(f, tuple(map(sub, lcm, mf)), 1),
        term_mul(g, tuple(map(sub, lcm, mg)), f.ring.p - 1),
    )


def assert_reducer_matches_scan(G, leads, order, targets):
    """One index grows with the basis, as in the engine.  After each
    element joins, it reduces the S-vectors of that element with the
    earlier ones of its component, and at the end `targets`, each under no
    cap and caps 1-8, as the scan reducer does on the same lists.  Until
    the basis is a GB, a remainder depends on which divisor is found
    first.  The remainder's first key is its leading term."""
    basis = _Basis(order)
    for n, (g, lead) in enumerate(zip(G, leads)):
        basis.append(g, lead)
        vecs = [s_vector(G[k], g, order) for k in range(n) if leads[k][0] == lead[0]]
        if n == len(G) - 1:
            vecs += targets
        for v in vecs:
            full = _reduce(v, basis)
            assert full == mod_reduce_scan(v, G[: n + 1], leads[: n + 1], order)
            if full.terms:
                assert next(iter(full.terms)) == leading_mod_term(full, order)[0]
            for cap in range(1, 9):
                got = outcome(lambda c: _reduce(v, basis, c), cap)
                assert got in (None, full)
                scan = outcome(
                    lambda c: mod_reduce_scan(v, G[: n + 1], leads[: n + 1], order, c),
                    cap,
                )
                assert scan == got


@pytest.mark.parametrize("p", [101, 32003])
@settings(max_examples=25)
@given(data=st.data())
def test_reducer_with_index_matches_scan_under_degree_caps(p, data):
    # On the relations of a random ring and on their syzygies.
    rels = FPModule.quotient_ring(data.draw(binomial_or_monomial_rings(p))).relations
    for vecs in (rels, _syzygy_basis(rels).vecs):
        if vecs:
            assert_reducer_matches_scan(*data.draw(reduction_case(vecs)))


@st.composite
def presentations_with_unit_entries(draw, p):
    """F/U over k[x, y, z] with up to four generators of degree 0..2 and
    homogeneous relations: one with a unit entry at a generator k and a
    term at every other generator of its degree or below, then up to four
    more of one to two degrees above a generator's, each with a term at
    that generator."""
    S = PolyRing(p, ["x", "y", "z"])
    twists = draw(st.lists(st.integers(0, 2), min_size=1, max_size=4))
    free = FreeModule(S, twists)
    coeff = st.integers(1, p - 1)

    def relation(k, d):
        terms = {}
        for i, t in enumerate(twists):
            if d < t:
                continue
            monos = [e for e in product(range(d - t + 1), repeat=3) if sum(e) == d - t]
            picked = st.lists(
                st.sampled_from(monos), min_size=int(i == k), max_size=2, unique=True
            )
            for e in draw(picked):
                terms[(i, e)] = draw(coeff)
        return terms

    k = draw(st.integers(0, len(twists) - 1))
    rels = [{**relation(k, twists[k]), (k, S.one_mono()): draw(coeff)}]
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(twists) - 1))
        rels.append(relation(i, twists[i] + draw(st.integers(1, 2))))
    return FPModule(S, twists, [packed(ModVec(free, t)) for t in rels])


@pytest.mark.parametrize("p", [101, 32003])
@settings(max_examples=40)
@given(data=st.data())
def test_minimal_presentation_matches_substitution(p, data):
    M = data.draw(presentations_with_unit_entries(p))
    got = M.minimal_presentation()
    old = minimal_presentation_substitute(M)
    assert sorted(got.twists) == sorted(old.twists)
    assert len(got.relations) == len(old.relations)
    assert hilbert_series(got) == hilbert_series(M) == hilbert_series(old)
    one = M.ring.layout.pack(M.ring.one_mono())
    assert all(m != one for r in got.relations for (_, m) in r.terms)


@pytest.mark.parametrize("p", [101, 32003])
def test_quotient_ring_relates_by_the_basis_vectors(p):
    # S/I is related by the rank-1 vectors of I's reduced basis, the same
    # vectors as its elements packed again, in the same order.
    for R in fixture_rings(p) + k3_duplications(p):
        M = FPModule.quotient_ring(R)
        free = FreeModule(R.ambient, [0])
        assert M.relations == [free.from_polys([g]) for g in R.defining.elements]
        assert M.free == free
