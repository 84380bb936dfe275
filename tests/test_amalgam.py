from importlib import resources

import pytest

from amalgams import ring as ring_module
from amalgams.amalgam import (
    AmalgamSpec,
    CertStatus,
    amalgam_present,
    duplication,
    hom_A_into_R,
    trivial_extension,
    verify_presentation,
)
from amalgams.cli import parse_input
from amalgams.errors import DegreeCapExceeded, JUnit
from amalgams.gb import buchberger
from amalgams.homology import classify, depth_ab, free_resolution, hilbert_series
from amalgams.modules import FPModule
from amalgams.ring import IdealHandle, PresentedRing, RingHom, hom_check, make_ring
from amalgams.series import HilbertSeries, lp_monomial
from oracles import retraction_ideal_identity, trivext_module


def line_ring(p=101):
    return make_ring(p, ["x"])


def intersection_spec(p=101, drop_generator=False):
    A = make_ring(p, ["x"])
    B = make_ring(p, ["X", "Y"])
    f = hom_check(RingHom(A, B, ["X"]))
    gens = ["X"] if drop_generator else ["X", "Y"]
    return AmalgamSpec(A, B, f, IdealHandle(B, gens)), IdealHandle(B, ["X", "Y"])


def test_a_spec_keeps_its_presentation():
    spec, _ = intersection_spec()
    with pytest.raises(DegreeCapExceeded):
        amalgam_present(spec, 1)
    assert spec.presentations == {}
    P = amalgam_present(spec)
    assert amalgam_present(spec) is P
    assert P.certificate.is_certified()


def test_intersection_example_presentation():
    spec, _ = intersection_spec()
    P = amalgam_present(spec)
    assert [str(g) for g in P.K.elements] == [
        "x*z1 + 100*z1^2",
        "x*z2 + 100*z1*z2",
    ]
    assert P.ambient.names == ("x", "z1", "z2")
    assert P.ambient.weights == (1, 1, 1)
    assert P.certificate.is_certified()


def test_duplication_along_x():
    A = line_ring()
    P = amalgam_present(duplication(A, IdealHandle(A, ["x"])))
    assert [str(g) for g in P.K.elements] == ["x*z1 + 100*z1^2"]
    assert P.certificate.is_certified()
    # HS(C/K) = (1+t)/(1-t)
    assert hilbert_series(P.ring) == HilbertSeries({0: 1, 1: 1}, weights=[1])


def test_presentation_keeps_the_basis_intersect_returns(monkeypatch):
    # intersect already returns the reduced basis of K, so building C/K
    # runs no Buchberger on C, and the basis is the one a rerun gives.
    rings = []

    def recording(basis, *args):
        rings.append(basis.ring)
        return buchberger(basis, *args)

    monkeypatch.setattr(ring_module, "buchberger", recording)
    A = make_ring(101, ["x1", "x2", "x3"])
    L = line_ring()
    specs = [
        intersection_spec()[0],
        intersection_spec(p=32003, drop_generator=True)[0],
        duplication(A, IdealHandle(A, ["x1", "x2", "x3"])),
        duplication(A, IdealHandle(A, ["x1^2", "x2*x3"])),
        trivial_extension(L, FPModule(L.ambient, [1])),
    ]
    for spec in specs:
        rings.clear()
        P = amalgam_present(spec)
        assert P.ambient not in rings
        assert P.K.elements == PresentedRing(P.ambient, P.K.elements).defining.elements


def test_verification_reuses_the_ring_B_mod_J(monkeypatch):
    # amalgam_present builds B/(I_B + J) to rule out J = B, and the
    # certificate reads HS(J) = HS(B) - HS(B/J) off that ring, so running
    # it again on the presentation runs no Buchberger of its own.
    rings = []

    def recording(basis, *args):
        rings.append(basis.ring)
        return buchberger(basis, *args)

    monkeypatch.setattr(ring_module, "buchberger", recording)
    A = make_ring(101, ["x1", "x2", "x3"])
    specs = [
        intersection_spec()[0],
        intersection_spec(p=32003, drop_generator=True)[0],
        duplication(A, IdealHandle(A, ["x1^2", "x2*x3"])),
        trivial_extension(line_ring(), FPModule(line_ring().ambient, [1])),
    ]
    for spec in specs:
        P = amalgam_present(spec)
        rings.clear()
        verify_presentation(P)
        assert rings == []
        assert hilbert_series(spec.B) - hilbert_series(P.B_mod_J) == hilbert_series(
            spec.J
        )


def test_trivial_extension_by_free_module():
    A = line_ring()
    M = FPModule(A.ambient, [1])
    P = amalgam_present(trivial_extension(A, M))
    assert [str(g) for g in P.K.elements] == ["z1^2"]
    assert P.certificate.is_certified()


def test_trivial_extension_by_residue_field():
    A = line_ring()
    M = FPModule(A.ambient, [1], [[A.ambient.var("x")]])
    P = amalgam_present(trivial_extension(A, M))
    assert sorted(str(g) for g in P.K.elements) == ["x*z1", "z1^2"]
    assert P.certificate.is_certified()


def test_trivial_extension_normalizes_degrees():
    # generator degree 0 input is shifted up to weight 1
    A = line_ring()
    M = FPModule(A.ambient, [0], [[A.ambient.var("x")]])
    spec = trivial_extension(A, M)
    assert spec.B.ambient.weights == (1, 1)


@pytest.mark.parametrize("p", [101, 32003])
def test_trivial_extension_keeps_its_module(p):
    # The module the spec keeps has the series and depth of the module that
    # B's Groebner basis presents in the e-variables.
    def fixture(name):
        text = resources.files("amalgams").joinpath("fixtures", name).read_text()
        return parse_input(text, prime=p)

    cm, gor = fixture("cm_family.alg"), fixture("gorenstein.alg")
    depths = []
    for spec in (cm.get("TrivA", "amalgam"), cm.get("TrivK", "amalgam"),
                 gor.get("G", "amalgam")):
        M, oracle = spec.J_module, trivext_module(spec)
        assert hilbert_series(M) == hilbert_series(oracle)
        assert depth_ab(M) == depth_ab(oracle)
        depths.append(depth_ab(M))
    assert depths == [1, 0, 0]
    assert cm.get("DupX", "amalgam").J_module is None


def test_not_surjective_witness():
    spec, full_J = intersection_spec(drop_generator=True)
    P = amalgam_present(spec)
    # the listed generator X does not even generate (X) over the image
    # of A (elements X*Y^k are missed), so the certificate amalgam_present
    # made fails, first in degree 2
    assert P.certificate == CertStatus(CertStatus.NOT_SURJECTIVE, 2)
    # against the full J = (X, Y) the series differ already in degree 1
    full = hilbert_series(spec.A) + hilbert_series(full_J)
    assert P.series.first_difference(full) == 1


def test_junit_rejected():
    A = line_ring()
    B = make_ring(101, ["u"])
    f = hom_check(RingHom(A, B, ["u"]))
    with pytest.raises(JUnit):
        amalgam_present(AmalgamSpec(A, B, f, IdealHandle(B, ["2"])))


def test_duplication_along_zero_ideal():
    A = make_ring(101, ["x", "y"], ["x*y"])
    P = amalgam_present(duplication(A, IdealHandle(A, [])))
    assert P.certificate.is_certified()
    assert hilbert_series(P.ring) == hilbert_series(A)
    assert (
        free_resolution(P.ring).betti_numbers()
        == free_resolution(A).betti_numbers()
    )


def test_duplication_along_maximal_certified_and_oracle():
    A = make_ring(101, ["x", "y"])
    P = amalgam_present(duplication(A, IdealHandle(A, ["x", "y"])))
    assert P.certificate.is_certified()
    # every presentation generator is sound: it maps into the kernel, so
    # its image under psi must vanish; check via the B-side oracle
    B = A
    for g in P.K.elements:
        img = B.ambient.zero()
        for mono, c in g.terms.items():
            term = B.ambient.const(c)
            for im, e in zip(P.images, mono):
                term = term * im**e
            img = img + term
        assert B.reduce(img).is_zero()


def test_retraction_ideal_identity():
    # K + (z's) = I_A*C + (z's) for every amalgam, since I_A*C lies in K:
    # checked on each amalgam the bundled fixtures declare, at both primes.
    fixtures = [
        f.read_text()
        for f in resources.files("amalgams").joinpath("fixtures").iterdir()
        if f.name.endswith(".alg")
    ]
    for p in (101, 32003):
        specs = [
            spec
            for text in fixtures
            for kind, spec in parse_input(text, prime=p).decls.values()
            if kind == "amalgam"
        ]
        assert len(specs) == 9
        for spec in specs:
            assert retraction_ideal_identity(amalgam_present(spec))


def test_determinism():
    runs = []
    for _ in range(2):
        spec, _ = intersection_spec()
        P = amalgam_present(spec)
        runs.append([str(g) for g in P.K.elements])
    assert runs[0] == runs[1]


def test_trivial_extension_square_zero_visible():
    A0 = make_ring(101, ["x", "y"], ["x^2", "x*y", "y^2"])
    from amalgams.homology import canonical_module

    P = amalgam_present(trivial_extension(A0, canonical_module(A0)))
    assert P.certificate.is_certified()
    zs = P.z_polys()
    for i in range(len(zs)):
        for j in range(i, len(zs)):
            assert P.ring.reduce(zs[i] * zs[j]).is_zero()


def test_hom_A_into_R_duplication():
    A = line_ring()
    I = IdealHandle(A, ["x"])
    P = amalgam_present(duplication(A, I))
    h = hom_A_into_R(P)
    assert hilbert_series(h) == HilbertSeries(lp_monomial(1), weights=[1])
    assert hilbert_series(h) == hilbert_series(I)


def test_hom_A_into_R_trivial_extension():
    A = line_ring()
    spec = trivial_extension(A, FPModule(A.ambient, [1]))
    P = amalgam_present(spec)
    h = hom_A_into_R(P)
    # Ann_A(J) = 0, so Hom(A, R) matches J alone: t/(1-t)
    assert hilbert_series(h) == HilbertSeries(lp_monomial(1), weights=[1])


def test_hom_A_into_R_zero_J():
    A = line_ring()
    P = amalgam_present(duplication(A, IdealHandle(A, [])))
    h = hom_A_into_R(P)
    assert [str(g) for g in h.generators] == ["1"]


def test_certificate_equality():
    assert CertStatus(CertStatus.CERTIFIED) == CertStatus(CertStatus.CERTIFIED)
    assert CertStatus(CertStatus.NOT_SURJECTIVE, 1) != CertStatus(
        CertStatus.NOT_SURJECTIVE, 2
    )
    assert repr(CertStatus(CertStatus.NOT_SURJECTIVE, 1)) == (
        "NotSurjective(witness degree 1)"
    )


def test_characteristic_robustness():
    for p in (101, 32003):
        spec, _ = intersection_spec(p)
        P = amalgam_present(spec)
        assert P.certificate.is_certified()
        rep = classify(P.ring)
        assert (rep.dim, rep.depth, rep.is_cm) == (2, 1, False)
