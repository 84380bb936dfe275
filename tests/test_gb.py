from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amalgams import gb as gb_module
from amalgams.errors import DegreeCapExceeded
from amalgams.gb import (
    IdealBasis,
    buchberger,
    colon,
    eliminate,
    intersect,
    kernel_of_map,
    normal_form,
)
from amalgams.modules import FreeModule, syzygies
from amalgams.poly import GREVLEX, BlockOrder, PolyRing, leading_term, parse_poly
from conftest import (
    from_terms,
    ideal_degree_dim,
    ideal_degree_rows,
    in_span,
    oracle_member,
    random_homogeneous,
    random_poly,
)


def gb(ring, gens, cap=64):
    polys = [parse_poly(ring, g) if isinstance(g, str) else g for g in gens]
    return buchberger(IdealBasis(ring, polys), GREVLEX, cap)


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
                m = rng.choice(kxy.monomials_of_degree(d - g.degree()))
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
        lead = G.leading_monomials()
        for d in range(7):
            monos = kxyz.monomials_of_degree(d)
            std = sum(
                1
                for m in monos
                if not any(kxyz.mono_divides(lm, m) for lm in lead)
            )
            assert len(monos) - std == ideal_degree_dim(kxyz, gens, d)


def test_eliminate(kxyz):
    # projection of the twisted cubic-style curve x = t^2 (weights make
    # the parametrization graded): t front, eliminate it
    ring = PolyRing(101, ["t", "x", "y"], [1, 2, 3])
    I = IdealBasis(ring, [parse_poly(ring, "x - t^2"), parse_poly(ring, "y - t^3")])
    E = eliminate(I, 1)
    assert E.ring.names == ("x", "y")
    assert [str(g) for g in E.gens] == ["x^3 + 100*y^2"]


def test_eliminate_oracle(kxyz, rng):
    gens = [parse_poly(kxyz, "x^2 - y*z"), parse_poly(kxyz, "x*y^2 - z^3")]
    E = eliminate(IdealBasis(kxyz, gens), 1)
    sub = E.ring
    # each eliminated generator must be in the original ideal
    for g in E.gens:
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
        assert ideal_degree_dim(sub, E.gens, d) == expected


def test_intersect_known(kxyz):
    I = IdealBasis(kxyz, [parse_poly(kxyz, "y"), parse_poly(kxyz, "z")])
    J = IdealBasis(kxyz, [parse_poly(kxyz, "x - y")])
    K = intersect(I, J)
    assert [str(g) for g in buchberger(K).elements] == [
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
        K = intersect(IdealBasis(kxy, gi), IdealBasis(kxy, gj))
        for d in range(6):
            di = ideal_degree_dim(kxy, gi, d)
            dj = ideal_degree_dim(kxy, gj, d)
            dsum = ideal_degree_dim(kxy, gi + gj, d)
            assert ideal_degree_dim(kxy, K.gens, d) == di + dj - dsum


def test_colon_known(kxy):
    I = IdealBasis(kxy, [parse_poly(kxy, "x^2*y")])
    J = IdealBasis(kxy, [parse_poly(kxy, "x*y")])
    Q = colon(I, J)
    assert [str(g) for g in buchberger(Q).elements] == ["x"]


def test_colon_oracle(kxy, rng):
    gens = [parse_poly(kxy, "x^2"), parse_poly(kxy, "x*y^2")]
    J = [parse_poly(kxy, "x")]
    Q = colon(IdealBasis(kxy, gens), IdealBasis(kxy, J))
    # soundness: every degree-d element of (I : x) multiplies x into I
    from conftest import rref

    xs = J[0]
    for d in range(1, 7):
        rows, big_basis = ideal_degree_rows(kxy, gens, d + 1)
        rowsQ, idxQ = ideal_degree_rows(kxy, Q.gens, d)
        for row in rref(rowsQ, 101):
            f = from_terms(kxy, ((m, row[i]) for m, i in idxQ.items() if row[i]))
            if f.is_zero():
                continue
            assert in_span(f * xs, rows, big_basis, 101)


def test_colon_maximality_oracle(kxy):
    """Nothing outside the computed colon multiplies J into I (degree <= 5)."""
    gens = [parse_poly(kxy, "x^2"), parse_poly(kxy, "x*y^2")]
    jpoly = parse_poly(kxy, "x")
    Q = colon(IdealBasis(kxy, gens), IdealBasis(kxy, [jpoly]))
    from conftest import poly_vector, rank, rref

    for d in range(1, 6):
        rowsI, idxI = ideal_degree_rows(kxy, gens, d + 1)
        spanI = rref(rowsI, 101)
        # colon dimension by kernel computation: f -> x*f mod I_d+1
        monos = kxy.monomials_of_degree(d)
        mat = []
        for m in monos:
            v = poly_vector(kxy.monomial(m, 1) * jpoly, idxI)
            mat.append(v)
        # rank of the induced map = rank([spanI; mat]) - rank(spanI)
        induced = rank([list(r) for r in spanI] + mat, 101) - len(spanI)
        kernel_dim = len(monos) - induced
        assert ideal_degree_dim(kxy, Q.gens, d) == kernel_dim


def test_kernel_of_map():
    # parametrization of the cuspidal cubic: x -> t^2, y -> t^3
    src = PolyRing(101, ["x", "y"], [2, 3])
    tgt = PolyRing(101, ["t"])
    ker = kernel_of_map(
        src, [parse_poly(tgt, "t^2"), parse_poly(tgt, "t^3")], IdealBasis(tgt, [])
    )
    assert [str(g) for g in buchberger(ker).elements] == ["x^3 + 100*y^2"]


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
        calls.clear()
        ker = kernel_of_map(
            src,
            [parse_poly(kxy, g) for g in images],
            IdealBasis(kxy, [parse_poly(kxy, g) for g in rels]),
        )
        assert len(calls) == 1
        assert ker.gens
        reduced = real(ker, GREVLEX)
        assert [g.terms for g in ker.gens] == [g.terms for g in reduced.elements]


def test_kernel_elements_map_to_zero(kxy, rng):
    src = PolyRing(101, ["u", "v"], [1, 2])
    images = [parse_poly(kxy, "x + y"), parse_poly(kxy, "x*y")]
    ker = kernel_of_map(src, images, IdealBasis(kxy, []))
    for g in ker.gens:
        out = kxy.zero()
        for m, c in g.terms.items():
            term = kxy.const(c)
            for img, e in zip(images, m):
                term = term * img**e
            out = out + term
        assert out.is_zero()


def _capped_runs(run, caps):
    """Run under each cap: every run raises DegreeCapExceeded or returns the
    uncapped result, and both outcomes occur over `caps`."""
    exact = run(64)
    outcomes = set()
    for cap in caps:
        try:
            got = run(cap)
        except DegreeCapExceeded:
            outcomes.add("raised")
            continue
        assert got == exact, f"cap {cap} changed the result"
        outcomes.add("exact")
    assert outcomes == {"raised", "exact"}


def test_degree_cap(kxyz):
    ring = PolyRing(101, ["x", "y"])
    with pytest.raises(DegreeCapExceeded):
        buchberger(
            IdealBasis(ring, [parse_poly(ring, "x^5 - y^5"), parse_poly(ring, "x*y^4")]),
            GREVLEX,
            degree_cap=4,
        )

    def ideal(*gens):
        return IdealBasis(kxyz, [parse_poly(kxyz, g) for g in gens])

    # Every operation under a cap raises or returns the uncapped result.
    I = ideal("x*y", "z^2")
    J = ideal("x^2 - y*z", "y^3")
    _capped_runs(lambda cap: intersect(I, J, cap).gens, range(1, 7))
    Q = ideal("x^2*y", "y^3 - x*z^2")
    _capped_runs(lambda cap: colon(Q, ideal("x*y", "z"), cap).gens, range(1, 7))
    free = FreeModule(kxyz, [0])
    vecs = [
        free.from_polys([parse_poly(kxyz, g)])
        for g in ("x^2", "x*y", "y^2 - x*z", "z^3")
    ]
    _capped_runs(lambda cap: syzygies(vecs, cap), range(1, 7))
    src = PolyRing(101, ["a", "b", "c", "d"], [3, 3, 3, 3])
    tgt = PolyRing(101, ["s", "t"])
    cubic = [parse_poly(tgt, m) for m in ("s^3", "s^2*t", "s*t^2", "t^3")]
    _capped_runs(
        lambda cap: kernel_of_map(src, cubic, IdealBasis(tgt, []), cap).gens,
        range(1, 10),
    )


def test_zero_ideal():
    ring = PolyRing(101, ["x"])
    G = buchberger(IdealBasis(ring, []))
    assert G.is_zero()
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
        key=lambda f: GREVLEX.key(leading_term(f)[0], f.ring.weights),
        reverse=True,
    )


@settings(max_examples=40)
@given(homogeneous_ideals())
def test_buchberger_and_eliminate_match_sympy(sample):
    sympy = pytest.importorskip("sympy")
    ring, gens = sample
    G = buchberger(IdealBasis(ring, gens))
    expected = _by_leading_term(
        _sympy_basis(sympy, ring, gens, ["x", "y", "z"], "grevlex")
    )
    assert [g.terms for g in G.elements] == [g.terms for g in expected]
    # The x-free elements of a lex basis generate I cap k[y, z].
    lex = _sympy_basis(sympy, ring, gens, ["x", "y", "z"], "lex")
    free_of_x = [g for g in lex if all(m[0] == 0 for m in g.terms)]
    E = eliminate(IdealBasis(ring, gens), 1)
    expected = []
    if free_of_x:
        expected = _by_leading_term(
            _sympy_basis(sympy, ring, free_of_x, ["y", "z"], "grevlex")
        )
    assert [g.terms for g in E.gens] == [
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
    for order in (GREVLEX, BlockOrder(1)):
        G = buchberger(IdealBasis(ring, gens), order)
        H = buchberger(IdealBasis(ring, moved), order)
        assert [g.terms for g in H.elements] == [g.terms for g in G.elements]


@pytest.mark.parametrize("p", [101, 32003])
@settings(max_examples=8)
@given(data=st.data())
def test_intersect_and_colon_match_sympy(p, data):
    sympy = pytest.importorskip("sympy")
    ring, F = data.draw(homogeneous_ideals((p,)))
    _, G = data.draw(homogeneous_ideals((p,)))
    names = list(ring.names)
    meet = _sympy_intersection(sympy, ring, F, G)
    expected = _by_leading_term(_sympy_basis(sympy, ring, meet, names, "grevlex"))
    got = intersect(IdealBasis(ring, F), IdealBasis(ring, G))
    assert [g.terms for g in got.gens] == [g.terms for g in expected]
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
    got = colon(IdealBasis(ring, F), IdealBasis(ring, [g]))
    assert [f.terms for f in got.gens] == [f.terms for f in expected]
