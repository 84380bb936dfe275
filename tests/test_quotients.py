"""Quotients (U : v) computed as syzygies modulo U, against the routes they
replaced (tests/oracles.py), and the work each computation may do."""

import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amalgams import gb, homology, modules
from amalgams.gb import colon, intersect
from amalgams.homology import (
    _ext_series,
    classify,
    ext_module,
    free_resolution,
    hilbert_series,
    krull_dim,
)
from amalgams.modules import FPModule
from amalgams.poly import PolyRing, parse_poly
from oracles import (
    annihilator,
    annihilator_loop,
    colon_loop,
    ext_project,
    intersect_project,
    krull_dim_annihilator,
)
from samples import (
    binomial_or_monomial_rings,
    duplication_along_m,
    k3_duplications,
    serre_rings,
)


def terms(G):
    return [g.terms for g in G.elements]


def ext_modules(R):
    res = free_resolution(R)
    return res, [ext_module(R, j) for j in range(res.length + 1)]


@pytest.mark.parametrize("p", [101, 32003])
@settings(max_examples=25)
@given(data=st.data())
def test_intersect_and_colon_match_the_projection_routes(p, data):
    R = data.draw(binomial_or_monomial_rings(p))
    S = R.ambient
    I = R.defining.elements
    J = data.draw(binomial_or_monomial_rings(p)).defining.elements
    # With the zero ideal on either side the meet is GB<0>, still a grevlex
    # basis.
    x, y = S.var("x"), S.var("y")
    for left, right in [(I, J), ([], []), ([x], []), ([], [y * y])]:
        meet = intersect(S, left, right)
        assert terms(meet) == terms(intersect_project(S, left, right))
        assert repr(meet.basis.order) == "grevlex"
    assert terms(colon(S, I, J)) == terms(colon_loop(S, I, J))
    assert terms(colon(S, J, I)) == terms(colon_loop(S, J, I))


@pytest.mark.parametrize("p", [101, 32003])
@settings(max_examples=30)
@given(data=st.data())
def test_annihilator_and_ext_match_the_projection_routes(p, data):
    R = data.draw(binomial_or_monomial_rings(p))
    res, exts = ext_modules(R)
    for j, ext in enumerate(exts):
        old = ext_project(res, j)
        assert ext.twists == old.twists
        assert len(ext.relations) == len(old.relations)
        assert hilbert_series(ext) == hilbert_series(old)
    for M in exts + [FPModule.quotient_ring(R)]:
        assert terms(annihilator(M)) == terms(annihilator_loop(M))


def counting(monkeypatch, module, name):
    """Count the calls of module.name, which keeps working."""
    calls = []
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def counting_everywhere(monkeypatch, name):
    """Count the calls of the package function `name` through every
    binding a package module holds to it."""
    calls = []
    real = getattr(modules, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("amalgams") and getattr(module, name, None) is real:
            monkeypatch.setattr(module, name, counted)
    return calls


def test_one_minimal_generators_per_resolution_step(monkeypatch):
    # The minimal presentation takes the one call: each syzygy module's
    # basis finds its own minimal generators.
    calls = counting_everywhere(monkeypatch, "minimal_generators")
    for R in serre_rings() + k3_duplications():
        calls.clear()
        free_resolution(R)
        assert len(calls) == 1


def test_one_syzygies_per_colon_and_annihilator(monkeypatch):
    S = PolyRing(101, ["x", "y", "z"])
    I = [parse_poly(S, g) for g in ("x^2*y", "x*z^2", "y^3")]
    J = [parse_poly(S, g) for g in ("x", "y", "z^2")]
    calls = counting(monkeypatch, gb, "_syzygy_basis")
    colon(S, I, J)
    assert len(calls) == 1
    R = serre_rings()[0]
    modules_with_many_generators = [M for M in ext_modules(R)[1] if len(M.twists) > 1]
    assert modules_with_many_generators
    for M in modules_with_many_generators:
        calls.clear()
        annihilator(M)
        assert len(calls) == 1


def test_classify_presents_no_ext_module(monkeypatch):
    # Each Ext above the codimension is measured by its series, and ω's by
    # the Euler characteristic of the dual complex: no Ext is presented.
    exts = counting(monkeypatch, homology, "ext_module")
    presented = counting_everywhere(monkeypatch, "subquotient")
    for R in [duplication_along_m(4)] + serre_rings():
        classify(R)
    assert exts == presented == []


def test_ext_series_read_each_cokernel_once(monkeypatch):
    # Over j = 0..c, C_{-1}..C_c are read once each (C_i serves Ext^i and
    # Ext^(i+1)), and F_(j+1)^* once for each j.
    series = counting(monkeypatch, homology, "hilbert_series")
    for R in serre_rings() + k3_duplications():
        res = free_resolution(R)
        series.clear()
        for j in range(res.length + 1):
            _ext_series(res, j)
        assert len(series) == (res.length + 2) + (res.length + 1)


def test_krull_dim_of_a_module_never_calls_the_annihilator(monkeypatch):
    # dim F/U is read off the leads of U's own basis, one module GB per
    # module, with no quotient and no minimal presentation.
    exts = [M for R in serre_rings() for M in ext_modules(R)[1]]
    quotients = counting_everywhere(monkeypatch, "_syzygy_basis")
    engine = counting(monkeypatch, homology, "module_groebner")
    pruned = counting(monkeypatch, FPModule, "minimal_presentation")
    for M in exts:
        engine.clear()
        krull_dim(M)
        assert len(engine) == 1
    assert quotients == []
    assert pruned == []


@pytest.mark.parametrize("p", [101, 32003])
def test_krull_dim_of_a_module_matches_the_annihilator_route(p):
    for R in serre_rings(p) + k3_duplications(p):
        exts = [M for M in ext_modules(R)[1] if M.twists]
        for M in exts + [FPModule.quotient_ring(R)]:
            assert krull_dim(M) == krull_dim_annihilator(M)


def test_krull_dim_of_degenerate_and_weighted_modules():
    S = PolyRing(101, ["x", "y", "z"])
    x, y, zero = S.var("x"), S.var("y"), S.zero()
    # F/U = (S(-1) + S)/(e1 + x*e2, y*e2) is S/(y) by its second generator
    unit_entry = FPModule(S, [1, 0], [[S.one(), x], [zero, y]])
    killed = FPModule(S, [0], [[x], [S.one()]])
    cases = [(FPModule(S, []), -1), (killed, -1), (unit_entry, 2)]
    W = PolyRing(101, ["x", "y"], [2, 3])
    cusp = FPModule(W, [0], [[parse_poly(W, "x^3 - y^2")]])
    weighted = FPModule(W, [0, 1], [[W.var("y"), W.var("x")]])
    cases += [(cusp, 1), (weighted, 2)]
    for M, dim in cases:
        assert krull_dim(M) == krull_dim_annihilator(M) == dim
