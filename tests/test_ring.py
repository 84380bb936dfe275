from importlib import resources

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from amalgams.amalgam import amalgam_present, duplication
from amalgams.cli import parse_input
from amalgams.errors import (
    ContextMismatch,
    DegreeMismatch,
    NotHomogeneous,
    NotWellDefined,
    UnitIdeal,
)
from amalgams.homology import hilbert_series
from amalgams.poly import PolyRing, parse_poly
from amalgams.ring import (
    IdealHandle,
    PresentedRing,
    RingHom,
    compose,
    contract_ideal,
    hom_check,
    identity_hom,
    make_ring,
)
from conftest import ideal_degree_dim
from oracles import standard_monomials_filter


def test_make_ring_variants():
    R = make_ring(101, ["x", ("y", 2)], ["x^2 - y"])
    assert R.weights == (1, 2)
    assert R.reduce(R.parse("x^2")) == R.parse("y")


def test_presented_ring_rejects_bad_input():
    with pytest.raises(NotHomogeneous):
        make_ring(101, ["x", "y"], ["x + x*y"])
    with pytest.raises(UnitIdeal):
        make_ring(101, ["x"], ["x", "2"])
    amb = PolyRing(101, ["x"])
    other = PolyRing(101, ["y"])
    with pytest.raises(ContextMismatch):
        PresentedRing(amb, [other.var("y")])


def test_reduce_canonical():
    R = make_ring(101, ["x", "y"], ["x^2 - y^2"])
    f = R.parse("x^2 + y^2")
    g = R.parse("2*y^2")
    assert R.reduce(f) == R.reduce(g)
    assert R.reduce(R.parse("x^2 - y^2")).is_zero()


def test_standard_monomials_and_hilbert_function():
    R = make_ring(101, ["x", "y"], ["x^2", "x*y", "y^2"])
    assert [len(R.standard_monomials(d)) for d in (-1, 0, 1, 2)] == [0, 1, 2, 0]


@st.composite
def monomial_ideals_and_degrees(draw):
    """(weights, generator exponents, degree) in at most six variables."""
    n = draw(st.integers(1, 6))
    weights = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    gens = draw(st.lists(st.tuples(*[st.integers(0, 3)] * n), max_size=6))
    return weights, gens, draw(st.integers(0, 10))


@given(monomial_ideals_and_degrees())
@example(([1, 2, 3], [], 10))  # the zero ideal
@example(([2, 1, 1], [(0, 3, 0)], 10))  # a pure power of one variable
@example(([1, 1, 2], [(0, 0, 2)], 9))  # leads on the last variable only
@example(([1, 1, 1, 1], [(0, 0, 0, 1), (0, 0, 0, 3)], 6))
@example(([3, 1], [(1, 2), (0, 0)], 7))  # a unit lead
def test_standard_monomials_match_filter(ideal):
    """The pruned walk lists what the brute-force filter keeps, in order."""
    weights, gens, d = ideal
    amb = PolyRing(101, [f"x{i}" for i in range(len(weights))], weights)
    expected = standard_monomials_filter(weights, gens, d)
    assert amb.monomials_of_degree(d, gens) == expected
    if all(any(m) for m in gens):  # the ring needs a proper ideal
        R = PresentedRing(amb, [amb.monomial(m) for m in gens])
        assert R.standard_monomials(d) == expected


def _fixture_rings():
    rings = []
    for f in resources.files("amalgams").joinpath("fixtures").iterdir():
        if f.name.endswith(".alg"):
            decls = parse_input(f.read_text()).decls.values()
            rings += [R for kind, R in decls if kind == "ring"]
    return rings


def _duplication_along_m(n):
    names = [f"x{i}" for i in range(1, n + 1)]
    A = make_ring(101, names)
    return amalgam_present(duplication(A, IdealHandle(A, names))).ring


def test_standard_monomials_match_filter_on_fixtures_and_duplications():
    """Every fixture ring in degrees 0..8, and C/K of k[x1..xn] duplicated
    along (x1..xn) for n = 2..4 (8 variables at n = 4, so degrees 0..6)."""
    cases = [(R, 8) for R in _fixture_rings()]
    cases += [(_duplication_along_m(n), 8 if n < 4 else 6) for n in (2, 3, 4)]
    for R, top in cases:
        leads = R.defining.leading_monomials()
        for d in range(top + 1):
            assert R.standard_monomials(d) == standard_monomials_filter(
                R.weights, leads, d
            )


def test_hilbert_function_additive_over_ideal():
    """HF(R) = HF(R/J) + HF(J) for an ideal handle J of R."""
    R = make_ring(101, ["x", "y"], ["x^3"])
    J = IdealHandle(R, ["x"])
    big = make_ring(101, ["x", "y"], ["x^3", "x"])
    hs_J = hilbert_series(J)
    for d in range(8):
        assert len(R.standard_monomials(d)) == (
            len(big.standard_monomials(d)) + hs_J.coefficient(d)
        )


def test_hilbert_function_matches_oracle():
    amb = PolyRing(101, ["x", "y", "z"])
    gens = [parse_poly(amb, "x*y - z^2"), parse_poly(amb, "x^2*z")]
    R = PresentedRing(amb, gens)
    for d in range(7):
        total = len(amb.monomials_of_degree(d))
        assert len(R.standard_monomials(d)) == total - ideal_degree_dim(amb, gens, d)


def test_ideal_handle_drops_zero_generators():
    R = make_ring(101, ["x"], ["x^2"])
    J = IdealHandle(R, ["x^2", "x"])
    assert [str(g) for g in J.generators] == ["x"]
    assert IdealHandle(R, ["x^2"]).is_zero()


def test_hom_check_grading():
    A = make_ring(101, [("x", 2)])
    B = make_ring(101, ["u"])
    with pytest.raises(DegreeMismatch):
        hom_check(RingHom(A, B, ["u"]))
    hom_check(RingHom(A, B, ["u^2"]))


def test_hom_check_well_defined():
    A = make_ring(101, ["x", "y"], ["x*y"])
    B = make_ring(101, ["u"])
    with pytest.raises(NotWellDefined):
        hom_check(RingHom(A, B, ["u", "u"]))  # x*y -> u^2 != 0
    f = hom_check(RingHom(A, B, ["u", "0"]))
    assert f.apply(A.parse("x^2 + y")) == B.parse("u^2")


def test_hom_mutation_detected():
    """Perturbing a valid image breaks well-definedness."""
    A = make_ring(101, ["x", "y"], ["x^2 - y^2"])
    B = make_ring(101, ["t"])
    hom_check(RingHom(A, B, ["t", "t"]))
    with pytest.raises(NotWellDefined):
        hom_check(RingHom(A, B, ["t", "2*t"]))


def test_identity_and_compose():
    A = make_ring(101, ["x"])
    B = make_ring(101, ["u", "v"], ["u*v"])
    f = hom_check(RingHom(A, B, ["u"]))
    idA = identity_hom(A)
    assert idA.is_identity()
    g = compose(f, idA)
    assert g.apply(A.parse("x^3")) == B.parse("u^3")


def test_contract_ideal():
    # preimage of (t^3) under x -> t^2, y -> t^3 is (y, x^3)
    A = make_ring(101, [("x", 2), ("y", 3)])
    B = make_ring(101, ["t"])
    f = hom_check(RingHom(A, B, ["t^2", "t^3"]))
    J = IdealHandle(B, ["t^3"])
    back = contract_ideal(f, J)
    gens = sorted(str(g) for g in back.generators)
    # the contraction contains y and x^3 (t^6 = (t^3)*t^3) but not x
    names = " ".join(gens)
    assert "y" in names
    got = make_ring(
        101, [("x", 2), ("y", 3)], [str(g) for g in back.generators]
    )
    assert got.reduce(A.parse("y")).is_zero()
    assert not got.reduce(A.parse("x")).is_zero()


def test_contract_composition_consistency():
    """Contraction along a composite equals iterated contraction."""
    A = make_ring(101, ["a"])
    B = make_ring(101, ["b"])
    C = make_ring(101, ["c"])
    f = hom_check(RingHom(A, B, ["2*b"]))
    g = hom_check(RingHom(B, C, ["c"]))
    J = IdealHandle(C, ["c^2"])
    via_compose = contract_ideal(compose(g, f), J)
    step = contract_ideal(g, J)
    via_steps = contract_ideal(f, step)
    assert sorted(str(x) for x in via_compose.generators) == sorted(
        str(x) for x in via_steps.generators
    )
