"""Quotients (U : v) computed as syzygies modulo U, against the routes they
replaced (tests/oracles.py), and the work each computation may do."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amalgams import gb, homology, modules
from amalgams.gb import colon, intersect
from amalgams.homology import (
    _ext_from_resolution,
    annihilator,
    free_resolution,
    hilbert_series,
    krull_dim,
)
from amalgams.modules import FPModule
from amalgams.poly import PolyRing, parse_poly
from oracles import annihilator_loop, colon_loop, ext_project, intersect_project
from samples import binomial_or_monomial_rings, serre_rings


def terms(G):
    return [g.terms for g in G.elements]


def ext_modules(R):
    res = free_resolution(R)
    return res, [_ext_from_resolution(res, j) for j in range(res.length + 1)]


@pytest.mark.parametrize("p", [101, 32003])
@settings(max_examples=25)
@given(data=st.data())
def test_intersect_and_colon_match_the_projection_routes(p, data):
    R = data.draw(binomial_or_monomial_rings(p))
    S = R.ambient
    I = R.defining.elements
    J = data.draw(binomial_or_monomial_rings(p)).defining.elements
    assert terms(intersect(S, I, J)) == terms(intersect_project(S, I, J))
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


def test_one_minimal_generators_per_resolution_step(monkeypatch):
    calls = counting(monkeypatch, modules, "minimal_generators")
    monkeypatch.setattr(homology, "minimal_generators", modules.minimal_generators)
    for R in serre_rings():
        calls.clear()
        res = free_resolution(R)
        # One for the minimal presentation, one for each syzygy module.
        assert len(calls) == len(res.twists)


def test_one_syzygies_per_colon_and_annihilator(monkeypatch):
    S = PolyRing(101, ["x", "y", "z"])
    I = [parse_poly(S, g) for g in ("x^2*y", "x*z^2", "y^3")]
    J = [parse_poly(S, g) for g in ("x", "y", "z^2")]
    calls = counting(monkeypatch, gb, "syzygies")
    colon(S, I, J)
    assert len(calls) == 1
    R = serre_rings()[0]
    modules_with_many_generators = [M for M in ext_modules(R)[1] if len(M.twists) > 1]
    assert modules_with_many_generators
    for M in modules_with_many_generators:
        calls.clear()
        annihilator(M)
        assert len(calls) == 1


def test_krull_dim_of_a_module_reuses_the_annihilator_basis(monkeypatch):
    # Every `buchberger` runs through gb.module_groebner; the quotient
    # routes reach the engine through modules.syzygies instead.
    engine = counting(monkeypatch, gb, "module_groebner")
    pruned = counting(monkeypatch, FPModule, "minimal_presentation")
    for R in serre_rings():
        for M in ext_modules(R)[1]:
            engine.clear()
            pruned.clear()
            krull_dim(M)
            assert pruned == []
            assert engine == []
