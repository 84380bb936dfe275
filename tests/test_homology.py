from importlib import resources
from operator import add

import pytest
from hypothesis import given, settings

from amalgams import homology
from amalgams.errors import DegreeCapExceeded, ZeroModule
from amalgams.homology import (
    _ext_from_resolution,
    annihilator,
    canonical_module,
    classify,
    depth_ab,
    ext_module,
    free_resolution,
    hilbert_series,
    krull_dim,
)
from amalgams.amalgam import amalgam_present, duplication
from amalgams.cli import parse_input
from amalgams.modules import FPModule, minimal_generators
from amalgams.poly import PolyRing
from amalgams.ring import IdealHandle, make_ring
from amalgams.series import HilbertSeries, lp_const, lp_monomial
from oracles import resolution_series
from samples import binomial_or_monomial_rings, k3_duplications, serre_rings


def intersection_ring(p=101):
    return make_ring(p, ["x", "z1", "z2"], ["x*z1 - z1^2", "x*z2 - z1*z2"])


def test_resolution_intersection_example():
    R = intersection_ring()
    res = free_resolution(R)
    assert res.betti_numbers() == [1, 2, 1]
    assert res.twists[0] == [0]
    assert sorted(res.twists[1]) == [2, 2]
    assert res.twists[2] == [3]


def test_resolution_free_and_hypersurface():
    S = make_ring(101, ["x", "z"])
    assert free_resolution(S).betti_numbers() == [1]
    H = make_ring(101, ["x", "z"], ["z^2"])
    res = free_resolution(H)
    assert res.betti_numbers() == [1, 1]
    assert res.twists[1] == [2]


def test_resolution_length_bound():
    R = make_ring(101, ["x", "y"], ["x^2", "x*y", "y^2"])
    res = free_resolution(R)
    assert len(res.betti_numbers()) - 1 <= 2


def test_resolution_composites_zero():
    R = intersection_ring()
    res = free_resolution(R)
    # successive differentials compose to zero
    for j in range(1, len(res.diffs)):
        prev = res.diffs[j - 1]
        cur = res.diffs[j]
        for col in cur:
            # apply prev to col
            out = {}
            for (i, m), c in col.terms.items():
                for (i2, m2), c2 in prev[i].terms.items():
                    key = (i2, tuple(map(add, m, m2)))
                    out[key] = (out.get(key, 0) + c * c2) % 101
            assert all(v == 0 for v in out.values())


def test_resolution_minimality():
    R = intersection_ring()
    res = free_resolution(R)
    one = R.ambient.one_mono()
    for diff in res.diffs:
        for col in diff:
            assert all(m != one for (_, m), _c in col.terms.items())


def test_hilbert_series_examples():
    H = make_ring(101, ["x", "z"], ["z^2 - x*z"])
    hs = hilbert_series(H)
    assert hs == HilbertSeries(
        {0: 1, 1: 1}, weights=[1]
    )  # (1+t)/(1-t)
    S = make_ring(101, [("x", 1), ("y", 2)])
    assert hilbert_series(S) == HilbertSeries(lp_const(1), weights=[1, 2])
    R = intersection_ring()
    assert hilbert_series(R) == HilbertSeries(
        {0: 1, 2: -2, 3: 1}, weights=[1, 1, 1]
    )


def test_hilbert_series_matches_function():
    for gens in [["x*z1 - z1^2", "x*z2 - z1*z2"], ["x^2"], []]:
        R = make_ring(101, ["x", "z1", "z2"], gens)
        hs = hilbert_series(R)
        for d in range(9):
            assert hs.coefficient(d) == len(R.standard_monomials(d))


def assert_same_series(obj):
    # The numerator over prod(1 - t^w) is unique, so equal series print alike.
    assert repr(hilbert_series(obj)) == repr(resolution_series(obj))


def test_series_matches_resolution_on_rings_and_ideals():
    cubic = ["b^2 - a*c", "b*c - a*d", "c^2 - b*d"]
    cone = make_ring(101, ["a", "b", "c", "d"], cubic)
    k3 = make_ring(101, ["x1", "x2", "x3"])
    cases = [
        (k3, ["x1", "x2", "x3"]),
        (k3, ["x1^2", "x2^2", "x3^2"]),
        (cone, ["a", "b"]),
        (intersection_ring(), ["x"]),
    ]
    for A, gens in cases:
        I = IdealHandle(A, gens)
        P = amalgam_present(duplication(A, I))
        for obj in (A, I, P.ring):
            assert_same_series(obj)
    assert_same_series(make_ring(101, [("x", 2), ("y", 3)], ["x^3 - y^2"]))
    assert_same_series(IdealHandle(cone, ["a*c", "d^2"]))


def test_series_matches_resolution_on_modules():
    session = parse_input(
        resources.files("amalgams").joinpath("fixtures", "serre.alg").read_text()
    )
    for kind, R in session.decls.values():
        assert kind == "ring"
        assert_same_series(canonical_module(R))
        for j in range(R.ambient.nvars + 1):
            ext = ext_module(R, j)
            if not ext.minimal_presentation().is_zero_presentation():
                assert_same_series(ext)


def test_series_arithmetic_and_witness():
    a = HilbertSeries(lp_const(1), weights=[1])  # 1/(1-t)
    b = HilbertSeries(lp_monomial(1), weights=[1])  # t/(1-t)
    s = a + b
    assert s == HilbertSeries({0: 1, 1: 1}, weights=[1])
    assert (s - b) == a
    assert a.first_difference(a) is None
    c = HilbertSeries(lp_const(1), weights=[1, 1])
    assert a.first_difference(c) == 1
    assert a.shift(2).coefficient(2) == 1


def test_krull_dim():
    assert krull_dim(intersection_ring()) == 2
    assert krull_dim(make_ring(101, ["x"])) == 1
    assert krull_dim(make_ring(101, ["x", "y"], ["x^2", "x*y", "y^2"])) == 0


def test_depth_and_auslander_buchsbaum():
    R = intersection_ring()
    assert depth_ab(R) == 1
    H = make_ring(101, ["x", "z"], ["z^2 - x*z"])
    assert depth_ab(H) == 1 == krull_dim(H)
    S = make_ring(101, ["x", "y", "z"])
    assert depth_ab(S) == 3
    # AB identity across fixtures: depth + pdim = #vars
    for ring in [R, H, S, make_ring(101, ["x", "y"], ["x^2", "x*y", "y^2"])]:
        res = free_resolution(ring)
        pdim = len(res.betti_numbers()) - 1
        assert depth_ab(ring) + pdim == ring.ambient.nvars


def test_depth_of_zero_module():
    S = PolyRing(101, ["x"])
    with pytest.raises(ZeroModule):
        depth_ab(FPModule(S, [0], [[S.var("x")], [S.one()]]))


def test_ext_examples():
    R = intersection_ring()
    e2 = ext_module(R, 2)
    assert krull_dim(e2) == 1
    # isomorphic to (S/(z1,z2))(3): one generator, HS = shifted line count
    e2 = e2.minimal_presentation()
    assert len(e2.twists) == 1
    assert hilbert_series(e2) == HilbertSeries(lp_monomial(-3), weights=[1])
    # j = 0 on a torsion module vanishes
    e0 = ext_module(R, 0)
    assert e0.minimal_presentation().is_zero_presentation()
    # hypersurface: Ext^1 is the twisted quotient
    H = make_ring(101, ["x", "z"], ["z^2"])
    e1 = ext_module(H, 1).minimal_presentation()
    assert len(e1.twists) == 1
    assert hilbert_series(e1) == hilbert_series(H).shift(-2)


def test_cm_duality_degeneration():
    """For CM quotients Ext^j vanishes away from the codimension."""
    fixtures = [
        (make_ring(101, ["x", "z"], ["z^2 - x*z"]), 1),
        (make_ring(101, ["x", "y"], ["x^2", "x*y", "y^2"]), 2),
        (make_ring(101, ["x", "y", "z"], ["x*y - z^2"]), 1),
    ]
    for R, codim in fixtures:
        for j in range(R.ambient.nvars + 1):
            if j != codim:
                assert ext_module(R, j).minimal_presentation().is_zero_presentation()
            else:
                assert not ext_module(R, j).minimal_presentation().is_zero_presentation()


def test_canonical_module():
    # polynomial ring: omega = S(-sum of weights)
    S = make_ring(101, ["x"])
    w = canonical_module(S).minimal_presentation()
    assert w.twists == [1] and not w.relations
    # hypersurface: cyclic omega (Gorenstein)
    H = make_ring(101, ["x", "z"], ["z^2 - x*z"])
    wh = canonical_module(H).minimal_presentation()
    assert len(wh.twists) == 1
    # type-2 artinian ring: two generators
    A0 = make_ring(101, ["x", "y"], ["x^2", "x*y", "y^2"])
    w0 = canonical_module(A0).minimal_presentation()
    assert len(w0.twists) == 2
    assert w0.twists == [-1, -1]


def test_annihilator():
    S = PolyRing(101, ["x", "z1", "z2"])
    M = FPModule(S, [0], [[S.var("z1")], [S.var("z2")]])
    ann = annihilator(M)
    from amalgams.gb import buchberger

    assert [str(g) for g in buchberger(ann).elements] == ["z1", "z2"]
    free = FPModule(S, [0])
    assert not annihilator(free).gens
    # dim of the annihilator quotient equals dim of the module
    R = intersection_ring()
    w = canonical_module(R)
    annw = annihilator(w)
    quotient = make_ring(
        101, ["x", "z1", "z2"], [str(g) for g in annw.gens]
    )
    assert krull_dim(quotient) == krull_dim(w) == 2


def test_classify_intersection_example():
    rep = classify(intersection_ring())
    assert (rep.dim, rep.depth, rep.is_cm) == (2, 1, False)
    assert rep.betti == [1, 2, 1]
    assert not rep.is_generalized_cm


def test_classify_two_planes():
    R = make_ring(101, ["a", "b", "c", "d"], ["a*c", "a*d", "b*c", "b*d"])
    rep = classify(R, assume_equidimensional=True)
    assert (rep.dim, rep.depth) == (2, 1)
    assert not rep.is_cm
    assert rep.is_generalized_cm
    assert rep.serre_level == 1
    assert "serre = S1" in "\n".join(rep.lines())


def test_classify_trivial_extension_by_k():
    R = make_ring(101, ["x", "z"], ["x*z", "z^2"])
    rep = classify(R)
    assert (rep.dim, rep.depth, rep.is_cm, rep.is_generalized_cm) == (
        1,
        0,
        False,
        True,
    )


def test_classify_cm_fixtures_full_serre():
    for gens in [["z^2 - x*z"], ["z^2"], []]:
        R = make_ring(101, ["x", "z"], gens)
        rep = classify(R, assume_equidimensional=True)
        assert rep.is_cm and rep.serre_level == 4
        assert rep.is_generalized_cm and rep.is_quasi_gorenstein


def test_classify_implications():
    fixtures = [
        make_ring(101, ["x", "z"], ["z^2 - x*z"]),
        make_ring(101, ["x", "y"], ["x^2", "x*y", "y^2"]),
        make_ring(101, ["x", "z"], ["x*z", "z^2"]),
        intersection_ring(),
        make_ring(101, ["a", "b", "c", "d"], ["a*c", "a*d", "b*c", "b*d"]),
    ]
    for R in fixtures:
        rep = classify(R, assume_equidimensional=True)
        assert rep.depth <= rep.dim
        assert rep.is_cm == (rep.depth == rep.dim)
        assert rep.is_gorenstein == (rep.is_cm and rep.type == 1)
        if rep.is_gorenstein:
            assert rep.is_quasi_gorenstein
        if rep.is_cm:
            assert rep.is_generalized_cm
            assert rep.serre_level == 4


def test_classify_report_serialization():
    rep = classify(intersection_ring())
    lines = rep.lines()
    assert lines[0] == "dim = 2"
    assert lines[1] == "depth = 1"
    assert lines[2] == "cm = false"
    assert lines[-1] == "betti = 1;2;1"
    assert any(l.startswith("serre = S") and l.endswith("?") for l in lines)
    rep2 = classify(intersection_ring(), assume_equidimensional=True)
    assert all(not l.endswith("?") for l in rep2.lines())


def test_weighted_ring_invariants():
    R = make_ring(101, [("x", 2), ("y", 3)], ["x^3 - y^2"])
    rep = classify(R)
    assert (rep.dim, rep.depth, rep.is_gorenstein) == (1, 1, True)
    hs = hilbert_series(R)
    for d in range(9):
        assert hs.coefficient(d) == len(R.standard_monomials(d))


def test_ext_from_one_resolution_matches_ext_module():
    for R in serre_rings() + k3_duplications():
        M = FPModule.quotient_ring(R)
        res = free_resolution(M)
        for j in range(R.ambient.nvars + 1):
            a = _ext_from_resolution(res, j)
            # a fresh module, so ext_module resolves anew and does not
            # reuse the resolution M keeps
            b = ext_module(FPModule.quotient_ring(R), j)
            assert a.twists == b.twists
            assert a.relations == b.relations


def test_classify_builds_one_resolution(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return free_resolution(*args)

    monkeypatch.setattr(homology, "free_resolution", counted)
    rep = classify(intersection_ring())
    assert len(calls) == 1
    assert rep.betti == [1, 2, 1]


def test_a_ring_keeps_one_resolution_and_its_reports(monkeypatch):
    R = intersection_ring()
    rep = classify(R)
    assert classify(R) is rep
    # each resolution step minimalizes once; after classify nothing
    # resolves R again
    steps = []

    def counted(*args):
        steps.append(args)
        return minimal_generators(*args)

    monkeypatch.setattr(homology, "minimal_generators", counted)
    res = free_resolution(R)
    assert free_resolution(R) is res
    assert depth_ab(R) == rep.depth
    canonical_module(R)
    ext_module(R, 1)
    assert steps == []
    # a module keeps its own resolution, apart from the ring's
    M = FPModule.quotient_ring(R)
    assert free_resolution(M) is free_resolution(M) is not res
    assert free_resolution(M).twists == res.twists


def test_a_resolution_that_hits_the_cap_keeps_nothing():
    R = make_ring(101, ["x", "y"], ["x^2", "y^2"])
    with pytest.raises(DegreeCapExceeded):
        free_resolution(R, 1)
    assert R.resolutions == {}
    assert free_resolution(R).betti_numbers() == [1, 2, 1]
    with pytest.raises(DegreeCapExceeded):
        free_resolution(R, 1)


def test_classify_keeps_one_report_per_equidimensionality_flag():
    R = make_ring(101, ["a", "b", "c", "d"], ["a*c", "a*d", "b*c", "b*d"])
    assumed = classify(R, True)
    plain = classify(R, False)
    assert "serre = S1" in assumed.lines()
    assert "serre = S1?" in plain.lines()
    assert classify(R, True) is assumed
    assert classify(R, False) is plain


@settings(max_examples=25)
@given(binomial_or_monomial_rings())
def test_depth_and_betti_numbers_against_series(R):
    rep = classify(R)
    assert rep.depth <= rep.dim
    # The Betti twists give the numerator of the Hilbert series over
    # prod(1 - t^w), so at t = 1 it is the alternating Betti sum.
    num = hilbert_series(R).num
    assert sum(num.values()) == sum((-1) ** i * b for i, b in enumerate(rep.betti))
    assert_same_series(R)
