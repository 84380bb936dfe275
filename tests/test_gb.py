from itertools import product
from operator import le
from random import Random
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amalgams import gb as gb_module
from amalgams.errors import DegreeCapExceeded
from amalgams.gb import (
    GroebnerBasis,
    IdealBasis,
    buchberger,
    colon,
    eliminate,
    intersect,
    kernel_of_map,
    normal_form,
    quotient_ideal,
)
from amalgams.homology import ext_module, free_resolution
from amalgams.modules import FPModule, FreeModule, ModOrder, syzygies
from amalgams.poly import DEFAULT_DEGREE_CAP, PolyRing, format_poly, parse_poly
from conftest import (
    from_terms,
    ideal_degree_dim,
    ideal_degree_rows,
    in_span,
    leading_term,
    monomials_of_degree,
    oracle_member,
    random_homogeneous,
    random_poly,
)
from oracles import (
    annihilator,
    block_rank,
    grevlex_rank,
    kernel_by_elimination,
    lead_exponents,
    mod_reduce_scan,
    reduce_every_tail,
)
from samples import (
    binomial_or_monomial_rings,
    duplication_along_m,
    fixture_rings,
    k3_duplications,
    serre_rings,
    torus_ring,
)


def gb(ring, gens):
    polys = [parse_poly(ring, g) if isinstance(g, str) else g for g in gens]
    return buchberger(IdealBasis(ring, polys))


def test_gb_known_example(kxyz):
    # the intersection ideal of a plane and a line, by hand
    G = gb(kxyz, ["x*y - y^2", "x*z - y*z"])
    assert [str(g) for g in G.elements] == ["x*y + 100*y^2", "x*z + 100*y*z"]


def test_gb_unique_under_permutation_and_scaling(kxyz, rng):
    for _ in range(25):
        gens = [random_homogeneous(kxyz, rng, rng.randrange(1, 4)) for _ in range(3)]
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            continue
        G1 = gb(kxyz, gens)
        shuffled = gens[:]
        rng.shuffle(shuffled)
        scaled = [g.scale(rng.randrange(1, 101)) for g in shuffled]
        G2 = gb(kxyz, scaled)
        assert G1.elements == G2.elements


def test_gb_contains_one():
    ring = PolyRing(101, ["x"])
    G = gb(ring, ["x", "x - 1"])
    assert G.contains_one()


def test_membership_soundness(kxy, rng):
    gens = [parse_poly(kxy, "x^2 - y^2"), parse_poly(kxy, "x*y^2")]
    G = gb(kxy, gens)
    for _ in range(60):
        combo = kxy.zero()
        for g in gens:
            combo = combo + random_poly(kxy, rng, 2) * g
        assert normal_form(combo, G).is_zero()
    # and the oracle agrees on homogeneous elements of the ideal
    for d in range(2, 7):
        for g in gens:
            if g.degree() <= d:
                m = rng.choice(monomials_of_degree(kxy, d - g.degree()))
                assert oracle_member(kxy, gens, kxy.monomial(m, 1) * g)


def test_membership_completeness_oracle(kxy, rng):
    """NF zero iff the degreewise oracle puts the element in the ideal."""
    gens = [parse_poly(kxy, "x^3"), parse_poly(kxy, "x*y + y^2")]
    G = gb(kxy, gens)
    for d in range(1, 7):
        for _ in range(20):
            f = random_homogeneous(kxy, rng, d)
            if f.is_zero():
                continue
            assert normal_form(f, G).is_zero() == oracle_member(kxy, gens, f)


def test_normal_form_idempotent_linear(kxyz, rng):
    G = gb(kxyz, ["x^2 - y*z", "y^3"])
    for _ in range(50):
        f = random_poly(kxyz, rng)
        g = random_poly(kxyz, rng)
        nf = normal_form(f, G)
        assert normal_form(nf, G) == nf
        assert normal_form(f + g, G) == normal_form(f, G) + normal_form(g, G)
        c = rng.randrange(101)
        assert normal_form(f.scale(c), G) == normal_form(f, G).scale(c)


def test_hilbert_dimension_agreement(kxyz, rng):
    """GB leading-term count of standard monomials matches the oracle rank."""
    for _ in range(10):
        gens = [random_homogeneous(kxyz, rng, rng.randrange(2, 4)) for _ in range(2)]
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            continue
        G = buchberger(IdealBasis(kxyz, gens))
        if G.contains_one():
            continue
        lead = lead_exponents(G)
        for d in range(7):
            monos = monomials_of_degree(kxyz, d)
            std = sum(
                1
                for m in monos
                if not any(all(map(le, lm, m)) for lm in lead)
            )
            assert len(monos) - std == ideal_degree_dim(kxyz, gens, d)


def test_eliminate(kxyz):
    # projection of the twisted cubic-style curve x = t^2 (weights make
    # the parametrization graded): t front, eliminate it
    ring = PolyRing(101, ["t", "x", "y"], [1, 2, 3])
    E = eliminate(ring, [parse_poly(ring, "x - t^2"), parse_poly(ring, "y - t^3")], 1)
    assert E.ring.names == ("x", "y")
    assert [str(g) for g in E.elements] == ["x^3 + 100*y^2"]


def test_eliminate_oracle(kxyz, rng):
    gens = [parse_poly(kxyz, "x^2 - y*z"), parse_poly(kxyz, "x*y^2 - z^3")]
    E = eliminate(kxyz, gens, 1)
    sub = E.ring
    # each eliminated generator must be in the original ideal
    for g in E.elements:
        lift = from_terms(kxyz, [((0,) + m, c) for m, c in g.terms.items()])
        assert oracle_member(kxyz, gens, lift)
    # dimension count: dim(I_d cap k[y,z]_d) = dim I_d + dim V - dim(I_d + V)
    # with V the span of the x-free monomials
    from conftest import rank

    for d in range(1, 7):
        rows, index = ideal_degree_rows(kxyz, gens, d)
        xfree = [m for m in index if m[0] == 0]
        unit_rows = []
        for m in xfree:
            v = [0] * len(index)
            v[index[m]] = 1
            unit_rows.append(v)
        dim_I = rank(rows, 101)
        dim_sum = rank(rows + unit_rows, 101)
        expected = dim_I + len(xfree) - dim_sum
        assert ideal_degree_dim(sub, E.elements, d) == expected


def test_intersect_known(kxyz):
    I = [parse_poly(kxyz, "y"), parse_poly(kxyz, "z")]
    J = [parse_poly(kxyz, "x - y")]
    K = intersect(kxyz, I, J)
    assert [str(g) for g in K.elements] == [
        "x*y + 100*y^2",
        "x*z + 100*y*z",
    ]


def test_intersect_oracle(kxy, rng):
    for _ in range(8):
        gi = [random_homogeneous(kxy, rng, rng.randrange(1, 3)) for _ in range(2)]
        gj = [random_homogeneous(kxy, rng, rng.randrange(1, 3)) for _ in range(2)]
        gi = [g for g in gi if not g.is_zero()]
        gj = [g for g in gj if not g.is_zero()]
        if not gi or not gj:
            continue
        K = intersect(kxy, gi, gj)
        for d in range(6):
            di = ideal_degree_dim(kxy, gi, d)
            dj = ideal_degree_dim(kxy, gj, d)
            dsum = ideal_degree_dim(kxy, gi + gj, d)
            assert ideal_degree_dim(kxy, K.elements, d) == di + dj - dsum


def test_colon_known(kxy):
    Q = colon(kxy, [parse_poly(kxy, "x^2*y")], [parse_poly(kxy, "x*y")])
    assert [str(g) for g in Q.elements] == ["x"]


def test_colon_oracle(kxy, rng):
    gens = [parse_poly(kxy, "x^2"), parse_poly(kxy, "x*y^2")]
    J = [parse_poly(kxy, "x")]
    Q = colon(kxy, gens, J)
    # soundness: every degree-d element of (I : x) multiplies x into I
    from conftest import rref

    xs = J[0]
    for d in range(1, 7):
        rows, big_basis = ideal_degree_rows(kxy, gens, d + 1)
        rowsQ, idxQ = ideal_degree_rows(kxy, Q.elements, d)
        for row in rref(rowsQ, 101):
            f = from_terms(kxy, ((m, row[i]) for m, i in idxQ.items() if row[i]))
            if f.is_zero():
                continue
            assert in_span(f * xs, rows, big_basis, 101)


def test_colon_maximality_oracle(kxy):
    """Nothing outside the computed colon multiplies J into I (degree <= 5)."""
    gens = [parse_poly(kxy, "x^2"), parse_poly(kxy, "x*y^2")]
    jpoly = parse_poly(kxy, "x")
    Q = colon(kxy, gens, [jpoly])
    from conftest import poly_vector, rank, rref

    for d in range(1, 6):
        rowsI, idxI = ideal_degree_rows(kxy, gens, d + 1)
        spanI = rref(rowsI, 101)
        # colon dimension by kernel computation: f -> x*f mod I_d+1
        monos = monomials_of_degree(kxy, d)
        mat = []
        for m in monos:
            v = poly_vector(kxy.monomial(m, 1) * jpoly, idxI)
            mat.append(v)
        # rank of the induced map = rank([spanI; mat]) - rank(spanI)
        induced = rank([list(r) for r in spanI] + mat, 101) - len(spanI)
        kernel_dim = len(monos) - induced
        assert ideal_degree_dim(kxy, Q.elements, d) == kernel_dim


def test_kernel_of_map():
    # parametrization of the cuspidal cubic: x -> t^2, y -> t^3
    src = PolyRing(101, ["x", "y"], [2, 3])
    tgt = PolyRing(101, ["t"])
    images = [parse_poly(tgt, "t^2"), parse_poly(tgt, "t^3")]
    ker = kernel_of_map(src, images, gb(tgt, []))
    assert [str(g) for g in ker.elements] == ["x^3 + 100*y^2"]


def test_kernel_of_map_is_one_elimination(kxy, monkeypatch):
    # The survivors of the reduced block-order basis are already the
    # reduced grevlex basis of the kernel, element for element.
    calls = []
    real = gb_module.buchberger

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(gb_module, "buchberger", counted)
    src = PolyRing(101, ["u", "v", "w"], [1, 2, 2])
    cases = [
        (["x + y", "x*y", "x^2"], []),
        (["x", "y^2", "x*y"], ["x^3 - y^3"]),
        (["x + 2*y", "x^2 - y^2", "x*y"], ["x^2*y"]),
    ]
    for images, rels in cases:
        target = real(IdealBasis(kxy, [parse_poly(kxy, g) for g in rels]))
        calls.clear()
        ker = kernel_of_map(src, [parse_poly(kxy, g) for g in images], target)
        assert len(calls) == 1
        assert ker.elements
        reduced = real(IdealBasis(src, ker.elements))
        assert [g.terms for g in ker.elements] == [g.terms for g in reduced.elements]


def test_kernel_elements_map_to_zero(kxy, rng):
    src = PolyRing(101, ["u", "v"], [1, 2])
    images = [parse_poly(kxy, "x + y"), parse_poly(kxy, "x*y")]
    ker = kernel_of_map(src, images, gb(kxy, []))
    for g in ker.elements:
        out = kxy.zero()
        for m, c in g.terms.items():
            term = kxy.const(c)
            for img, e in zip(images, m):
                term = term * img**e
            out = out + term
        assert out.is_zero()


@st.composite
def maps_with_a_section(draw, p):
    """A graded map k[u's] -> k[y's]/I that has a section: each y_t is the
    image of some u times a unit.  The u's come in a shuffled order, and
    besides the unit multiples c*y_t the map may send a second u to a
    multiple of the same y_t and further u's to forms of degree 2 to 4.
    I is generated by up to two such forms.  Returns (source ring,
    images, the Groebner basis of I)."""
    r = draw(st.integers(1, 3))
    tweights = draw(st.lists(st.integers(1, 2), min_size=r, max_size=r))
    T = PolyRing(p, [f"y{t}" for t in range(1, r + 1)], tweights)
    unit = st.integers(1, p - 1)

    def form():
        d = draw(st.sampled_from([d for d in (2, 3, 4) if monomials_of_degree(T, d)]))
        monos = monomials_of_degree(T, d)
        terms = st.tuples(st.sampled_from(monos), unit)
        return from_terms(T, draw(st.lists(terms, min_size=1, max_size=3)))

    images = [T.var(n).scale(draw(unit)) for n in T.names]
    weights = list(tweights)
    for t in draw(st.lists(st.integers(0, r - 1), max_size=1)):
        images.append(T.var(T.names[t]).scale(draw(unit)))
        weights.append(tweights[t])
    for _ in range(draw(st.integers(0, 2))):
        img = form()
        images.append(img)
        weights.append(img.degree() if img else 2)
    order = draw(st.permutations(range(len(images))))
    S = PolyRing(
        p, [f"u{i}" for i in range(1, len(order) + 1)], [weights[i] for i in order]
    )
    rels = [form() for _ in range(draw(st.integers(0, 2)))]
    return S, [images[i] for i in order], buchberger(IdealBasis(T, rels))


@pytest.mark.parametrize("p", [101, 32003])
@settings(max_examples=40)
@given(data=st.data())
def test_kernel_by_section_equals_elimination(p, data):
    # A map with a section takes no elimination, and its kernel is the
    # joint-ring elimination's, element for element.
    S, images, target = data.draw(maps_with_a_section(p))
    with patch.object(gb_module, "eliminate", side_effect=AssertionError):
        ker = kernel_of_map(S, images, target)
    want = kernel_by_elimination(S, images, target)
    assert ker.ring == S
    assert [g.terms for g in ker.elements] == [g.terms for g in want.elements]
    assert lead_exponents(ker) == lead_exponents(want)


def test_maps_without_a_section_are_eliminated():
    # The Veronese map sends no variable to s or t, and random linear forms
    # send none to a multiple of one variable: both take the joint ring.
    rng = Random(29)
    S = PolyRing(101, ["x", "y", "z"], [2, 2, 2])
    T = PolyRing(101, ["s", "t"])
    maps = [(S, [parse_poly(T, g) for g in ("s^2", "s*t", "t^2")], gb(T, []))]
    for _ in range(3):
        src = PolyRing(101, ["u", "v", "w"])
        forms = [random_homogeneous(T, rng, 1, terms=4) for _ in range(3)]
        forms = [f if len(f.terms) == 2 else parse_poly(T, "s + t") for f in forms]
        maps.append((src, forms, gb(T, ["s^3"])))
    real, calls = gb_module.eliminate, []

    def counted(*args):
        calls.append(args)
        return real(*args)

    for src, images, target in maps:
        calls.clear()
        with patch.object(gb_module, "eliminate", counted):
            ker = kernel_of_map(src, images, target)
        assert len(calls) == 1
        want = kernel_by_elimination(src, images, target)
        assert [g.terms for g in ker.elements] == [g.terms for g in want.elements]


def _capped_runs(run, caps):
    """Run under each cap: `run(cap)` builds its inputs in rings with that
    degree cap.  Every run raises DegreeCapExceeded or returns the terms of
    the result under the default cap, and both outcomes occur over `caps`."""
    exact = [g.terms for g in run(DEFAULT_DEGREE_CAP)]
    outcomes = set()
    for cap in caps:
        try:
            got = [g.terms for g in run(cap)]
        except DegreeCapExceeded:
            outcomes.add("raised")
            continue
        assert got == exact, f"cap {cap} changed the result"
        outcomes.add("exact")
    assert outcomes == {"raised", "exact"}


def test_degree_cap():
    ring = PolyRing(101, ["x", "y"], degree_cap=4)
    with pytest.raises(DegreeCapExceeded):
        buchberger(
            IdealBasis(ring, [parse_poly(ring, "x^5 - y^5"), parse_poly(ring, "x*y^4")])
        )

    def ideal(ring, *gens):
        return [parse_poly(ring, g) for g in gens]

    def kxyz(cap):
        return PolyRing(101, ["x", "y", "z"], degree_cap=cap)

    # Every operation under a cap raises or returns the uncapped result.
    def intersect_run(cap):
        R = kxyz(cap)
        I, J = ideal(R, "x*y", "z^2"), ideal(R, "x^2 - y*z", "y^3")
        return intersect(R, I, J).elements

    def colon_run(cap):
        R = kxyz(cap)
        I, J = ideal(R, "x^2*y", "y^3 - x*z^2"), ideal(R, "x*y", "z")
        return colon(R, I, J).elements

    def syzygies_run(cap):
        free = FreeModule(kxyz(cap), [0])
        return syzygies([
            free.from_polys([parse_poly(free.ring, g)])
            for g in ("x^2", "x*y", "y^2 - x*z", "z^3")
        ])

    def kernel_run(cap):
        src = PolyRing(101, ["a", "b", "c", "d"], [3, 3, 3, 3], cap)
        tgt = PolyRing(101, ["s", "t"], degree_cap=cap)
        cubic = [parse_poly(tgt, m) for m in ("s^3", "s^2*t", "s*t^2", "t^3")]
        return kernel_of_map(src, cubic, gb(tgt, [])).elements

    _capped_runs(intersect_run, range(1, 7))
    _capped_runs(colon_run, range(1, 7))
    _capped_runs(syzygies_run, range(1, 7))
    _capped_runs(kernel_run, range(1, 10))


def test_zero_ideal():
    ring = PolyRing(101, ["x"])
    G = buchberger(IdealBasis(ring, []))
    assert not G.elements
    f = parse_poly(ring, "x^2 + 1")
    assert normal_form(f, G) == f


@st.composite
def homogeneous_ideals(draw, primes=(101, 32003)):
    """A prime and 2-3 homogeneous generators of degree 1-3 in k[x, y, z],
    each with 2-4 terms."""
    p = draw(st.sampled_from(primes))
    ring = PolyRing(p, ["x", "y", "z"])
    gens = []
    for _ in range(draw(st.integers(2, 3))):
        d = draw(st.integers(1, 3))
        monos = [e for e in product(range(d + 1), repeat=3) if sum(e) == d]
        support = draw(
            st.lists(st.sampled_from(monos), min_size=2, max_size=4, unique=True)
        )
        coeffs = draw(st.lists(st.integers(1, p - 1), min_size=4, max_size=4))
        gens.append(from_terms(ring, zip(support, coeffs)))
    return ring, gens


def _as_expr(sympy, syms, f):
    return sum(
        c * sympy.prod(s**e for s, e in zip(syms, m)) for m, c in f.terms.items()
    )


def _sympy_basis(sympy, ring, polys, gens, order):
    """sympy's reduced basis over GF(p) as polynomials of `ring`, the
    symmetric residues sympy prints taken to least non-negative ones.
    `polys` are polynomials of `ring` or sympy expressions in its
    variables."""
    syms = sympy.symbols(list(ring.names))
    exprs = [
        f if isinstance(f, sympy.Expr) else _as_expr(sympy, syms, f) for f in polys
    ]
    index = [ring.names.index(g) for g in gens]
    basis = sympy.groebner(
        exprs, *[syms[i] for i in index], modulus=ring.p, order=order
    )
    out = []
    for poly in basis.polys:
        terms = []
        for expts, c in poly.terms():
            full = [0] * ring.nvars
            for i, e in zip(index, expts):
                full[i] = e
            terms.append((full, int(c) % ring.p))
        out.append(from_terms(ring, terms))
    return out


def _sympy_intersection(sympy, ring, F, G):
    """Generators of (F) cap (G) as sympy expressions: the t-free part of
    sympy's lex basis of t*F + (1 - t)*G, t the largest variable."""
    syms = sympy.symbols(list(ring.names))
    t = sympy.Dummy("t")
    exprs = [t * _as_expr(sympy, syms, f) for f in F]
    exprs += [(1 - t) * _as_expr(sympy, syms, g) for g in G]
    lex = sympy.groebner(exprs, t, *syms, modulus=ring.p, order="lex")
    return [q.as_expr() for q in lex.polys if q.degree(t) == 0]


def _by_leading_term(polys):
    """The polynomials by falling grevlex leading monomial, as `buchberger`
    lists its basis."""
    return sorted(
        polys,
        key=lambda f: grevlex_rank(leading_term(f)[0], f.ring.weights),
        reverse=True,
    )


@settings(max_examples=40)
@given(homogeneous_ideals())
def test_buchberger_and_eliminate_match_sympy(sample):
    import sympy
    ring, gens = sample
    G = buchberger(IdealBasis(ring, gens))
    expected = _by_leading_term(
        _sympy_basis(sympy, ring, gens, ["x", "y", "z"], "grevlex")
    )
    assert [g.terms for g in G.elements] == [g.terms for g in expected]
    # The x-free elements of a lex basis generate I cap k[y, z].
    lex = _sympy_basis(sympy, ring, gens, ["x", "y", "z"], "lex")
    free_of_x = [g for g in lex if all(m[0] == 0 for m in g.terms)]
    E = eliminate(ring, gens, 1)
    expected = []
    if free_of_x:
        expected = _by_leading_term(
            _sympy_basis(sympy, ring, free_of_x, ["y", "z"], "grevlex")
        )
    assert [g.terms for g in E.elements] == [
        {m[1:]: c for m, c in g.terms.items()} for g in expected
    ]


@pytest.mark.parametrize("p", [101, 32003])
@settings(max_examples=30)
@given(data=st.data())
def test_reduced_basis_invariant_under_permutation_and_scaling(p, data):
    ring, gens = data.draw(homogeneous_ideals((p,)))
    order_of = data.draw(st.permutations(range(len(gens))))
    scales = data.draw(
        st.lists(st.integers(1, p - 1), min_size=len(gens), max_size=len(gens))
    )
    moved = [gens[i].scale(c) for i, c in zip(order_of, scales)]
    for block in (0, 1):
        G = buchberger(IdealBasis(ring, gens), ModOrder(ring.layout, block=block))
        H = buchberger(IdealBasis(ring, moved), ModOrder(ring.layout, block=block))
        assert [g.terms for g in H.elements] == [g.terms for g in G.elements]


@pytest.mark.parametrize("p", [101, 32003])
@settings(max_examples=8)
@given(data=st.data())
def test_intersect_and_colon_match_sympy(p, data):
    import sympy
    ring, F = data.draw(homogeneous_ideals((p,)))
    _, G = data.draw(homogeneous_ideals((p,)))
    names = list(ring.names)
    meet = _sympy_intersection(sympy, ring, F, G)
    expected = _by_leading_term(_sympy_basis(sympy, ring, meet, names, "grevlex"))
    got = intersect(ring, F, G)
    assert [g.terms for g in got.elements] == [g.terms for g in expected]
    # (F : g) = ((F) cap (g)) / g
    g = G[0]
    syms = sympy.symbols(names)
    divisor = sympy.Poly(_as_expr(sympy, syms, g), *syms, modulus=p)
    quotients = []
    for h in _sympy_intersection(sympy, ring, F, [g]):
        q, r = sympy.div(sympy.Poly(h, *syms, modulus=p), divisor)
        assert r.is_zero
        quotients.append(q.as_expr())
    expected = _by_leading_term(_sympy_basis(sympy, ring, quotients, names, "grevlex"))
    got = colon(ring, F, [g])
    assert [f.terms for f in got.elements] == [f.terms for f in expected]


def assert_own_reduced_basis(G):
    """G is a `GroebnerBasis` equal, element for element, to `buchberger`
    of its own elements under its basis's order, and its stored leads are
    the leading monomials of its elements."""
    assert isinstance(G, GroebnerBasis)
    block = G.basis.order.block
    again = buchberger(
        IdealBasis(G.ring, G.elements), ModOrder(G.ring.layout, block=block)
    )
    assert [g.terms for g in G.elements] == [g.terms for g in again.elements]
    rank = block_rank(block)
    assert lead_exponents(G) == [leading_term(g, rank)[0] for g in G.elements]


@pytest.mark.parametrize("p", [101, 32003])
@settings(max_examples=15)
@given(data=st.data())
def test_every_ideal_result_is_a_groebner_basis_with_its_leads(p, data):
    R = data.draw(binomial_or_monomial_rings(p))
    S = R.ambient
    I = R.defining.elements
    J = data.draw(binomial_or_monomial_rings(p)).defining.elements
    x, y, z = (S.var(n) for n in S.names)
    src = PolyRing(p, ["u", "v", "w"], [1, 1, 2])
    # (I : x) cap (J : y), as the quotient of (x, y) in S(-1)^2
    free = FreeModule(S, [-1, -1])
    rels = [free.from_polys([f, S.zero()]) for f in I]
    rels += [free.from_polys([S.zero(), g]) for g in J]
    res = free_resolution(R)
    fp_modules = [FPModule.quotient_ring(R)]
    fp_modules += [ext_module(R, j) for j in range(res.length + 1)]
    results = [
        intersect(S, I, J),
        colon(S, I, J),
        colon(S, J, I),
        eliminate(S, I + J, 1),
        kernel_of_map(src, [x + y, z, x * y], R.defining),
        quotient_ideal(free.from_polys([x, y]), rels),
    ] + [annihilator(M) for M in fp_modules]
    for G in results:
        assert_own_reduced_basis(G)


def test_printed_first_term_is_the_engine_lead():
    # `format_poly` sorts terms by `grevlex_key` and the engine by
    # `ModOrder`: the first term printed for each (monic) element of a
    # grevlex basis is its lead, with an eliminated basis among them.
    rings = serre_rings() + k3_duplications() + [duplication_along_m(3)]
    bases = [R.defining for R in rings]
    S = rings[-1].ambient
    bases.append(eliminate(S, rings[-1].defining.elements, 2))
    assert bases[-1].elements
    for G in bases:
        for g, (_, lead) in zip(G.elements, G.basis.leads):
            first = format_poly(g).split(" ")[0]
            lead = G.ring.layout.unpack(lead)
            assert first == format_poly(G.ring.monomial(lead))


def rebuilt_normal_form(f, elements, block):
    """The normal form of f against `elements` as rank-1 vectors, with
    their leads found afresh under the order that eliminates the first
    `block` variables (grevlex for 0), by the scan reducer."""
    free = FreeModule(f.ring, [0])
    vecs = [free.from_polys([g]) for g in elements]
    pack = f.ring.layout.pack
    leads = [(0, pack(leading_term(g, block_rank(block))[0])) for g in elements]
    morder = ModOrder(f.ring.layout, block=block)
    return mod_reduce_scan(free.from_polys([f]), vecs, leads, morder).component_poly(0)


@pytest.mark.parametrize("p", [101, 32003])
@settings(max_examples=15)
@given(data=st.data())
def test_kept_bases_give_the_normal_forms_of_rebuilt_ones(p, data):
    # Each result keeps the rank-1 basis it was reduced as, with its order
    # and leads; `normal_form` reduces against that basis.  Rebuilt from the
    # elements, with leads found under the order the result is for, it
    # must give the same normal forms: the leads of an eliminated basis cut
    # to the subring, those of a block basis under the block order.
    ring, gens = data.draw(homogeneous_ideals((p,)))
    x, y, z = (ring.var(n) for n in ring.names)
    src = PolyRing(p, ["u", "v", "w"], [1, 1, 2])
    grevlex = buchberger(IdealBasis(ring, gens))
    results = [
        (grevlex, 0),
        (buchberger(IdealBasis(ring, gens), ModOrder(ring.layout, block=1)), 1),
        (eliminate(ring, gens, 1), 0),
        (kernel_of_map(src, [x + y, z, x * y], grevlex), 0),
    ]
    coeff = st.integers(1, p - 1)
    for G, block in results:
        R = G.ring
        leads = [(0, leading_term(g, block_rank(block))[0]) for g in G.elements]
        assert [(c, R.layout.unpack(m)) for c, m in G.basis.leads] == leads
        monos = [
            m for m in product(range(5), repeat=R.nvars) if R.mono_degree(m) <= 4
        ]
        # a zero ideal (`eliminate` of [x + y, x + y]) has no element to
        # take a multiple of
        multiples = (
            st.lists(st.sampled_from(G.elements), max_size=2)
            if G.elements
            else st.just([])
        )
        targets = list(G.elements)
        for _ in range(3):
            terms = data.draw(
                st.lists(st.tuples(st.sampled_from(monos), coeff), max_size=4)
            )
            f = from_terms(R, terms)
            for g in data.draw(multiples):
                f = f + g * from_terms(R, [(data.draw(st.sampled_from(monos)), 1)])
            targets.append(f)
        for f in targets:
            assert normal_form(f, G) == rebuilt_normal_form(f, G.elements, block)


@pytest.mark.parametrize("p", [101, 32003])
def test_reduced_bases_are_those_that_reduce_every_tail(p, monkeypatch):
    # Every reduced basis `_reduced` makes, with the elements whose tails
    # no lead divides kept as they are, is the one the oracle makes by
    # reducing every tail: the same leads in the same order, term for term.
    # The sample rings are built under the check, so their own bases are
    # checked too; then each ring's ideal goes through intersect and colon
    # (quotient_ideal), eliminate, and kernel_of_map by a section and by
    # elimination.
    real = gb_module._reduced
    kept = reduced = 0

    def checked(ring, G):
        nonlocal kept, reduced
        ours, oracle = real(ring, G), reduce_every_tail(ring, G)
        assert ours.basis.leads == oracle.basis.leads
        assert [g.terms for g in ours.basis] == [g.terms for g in oracle.basis]
        same = sum(any(g is v for v in G.vecs) for g in ours.basis)
        kept += same
        reduced += len(ours.basis) - same
        return ours

    monkeypatch.setattr(gb_module, "_reduced", checked)
    # A tail whose first term no lead divides, and whose last term z^2 does.
    S = PolyRing(p, ["x", "y", "z"])
    x, y, z = (S.var(n) for n in S.names)
    G = buchberger(IdealBasis(S, [x**2 + x * y + z**2, z**2]))
    assert G.elements == [x**2 + x * y, z**2]
    rings = fixture_rings(p) + serre_rings(p) + k3_duplications(p)
    for R in rings + [duplication_along_m(3, p), torus_ring(p)]:
        amb, gens = R.ambient, R.defining.elements
        half = len(gens) // 2
        intersect(amb, gens[:half], gens[half:])
        colon(amb, gens, [amb.var(amb.names[0])])
        eliminate(amb, gens, 1)
        permuted = [amb.var(n) for n in amb.names]
        if len(set(amb.weights)) == 1:
            permuted.reverse()
        kernel_of_map(amb, permuted, R.defining)
        squares = amb.with_variables(
            [f"{n}_" for n in amb.names], [2 * w for w in amb.weights]
        )
        kernel_of_map(squares, [amb.var(n) ** 2 for n in amb.names], R.defining)
    # both branches run: most tails need no reduction, and some do
    assert kept > 500 and reduced > 20
