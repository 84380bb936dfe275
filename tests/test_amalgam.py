from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amalgams import amalgam as amalgam_module
from amalgams import gb as gb_module
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
from amalgams.gb import buchberger, intersect
from amalgams.homology import (
    classify,
    depth_ab,
    free_resolution,
    hilbert_series,
    krull_dim,
)
from amalgams.modules import FPModule
from amalgams.poly import DEFAULT_DEGREE_CAP, Polynomial
from amalgams.ring import IdealHandle, PresentedRing, RingHom, make_ring
from amalgams.series import HilbertSeries, lp_monomial
from oracles import (
    kernel_by_elimination,
    retraction_ideal_identity,
    trivext_module,
)


def line_ring(p=101):
    return make_ring(p, ["x"])


def intersection_spec(p=101, drop_generator=False, degree_cap=DEFAULT_DEGREE_CAP):
    A = make_ring(p, ["x"], degree_cap=degree_cap)
    B = make_ring(p, ["X", "Y"], degree_cap=degree_cap)
    f = RingHom(A, B, ["X"])
    gens = ["X"] if drop_generator else ["X", "Y"]
    return AmalgamSpec(A, B, f, IdealHandle(B, gens)), IdealHandle(B, ["X", "Y"])


def test_a_spec_keeps_its_presentation():
    # A presentation that stops at the cap stores nothing, and a later call
    # raises again.
    capped, _ = intersection_spec(degree_cap=1)
    for _ in range(2):
        with pytest.raises(DegreeCapExceeded):
            amalgam_present(capped)
        assert capped.presentation is None
    spec, _ = intersection_spec()
    P = amalgam_present(spec)
    assert spec.presentation is P and amalgam_present(spec) is P
    assert P.certificate.is_certified()


def test_intersection_example_presentation():
    spec, _ = intersection_spec()
    P = amalgam_present(spec)
    assert [str(g) for g in P.ring.defining.elements] == [
        "x*z1 + 100*z1^2",
        "x*z2 + 100*z1*z2",
    ]
    assert P.ambient.names == ("x", "z1", "z2")
    assert P.ambient.weights == (1, 1, 1)
    assert P.certificate.is_certified()


def test_duplication_along_x():
    A = line_ring()
    P = amalgam_present(duplication(A, IdealHandle(A, ["x"])))
    assert [str(g) for g in P.ring.defining.elements] == ["x*z1 + 100*z1^2"]
    assert P.certificate.is_certified()
    # HS(C/K) = (1+t)/(1-t)
    assert hilbert_series(P.ring) == HilbertSeries({0: 1, 1: 1}, weights=[1])


def test_presentation_keeps_the_basis_intersect_returns(monkeypatch):
    # intersect, or kernel_of_map when K_B lies in K_A, already returns the
    # reduced basis of K, so building C/K runs no Buchberger on C, and the
    # basis is the one a rerun gives.
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
        K = P.ring.defining.elements
        assert K == PresentedRing(P.ambient, K).defining.elements


def test_verification_reuses_the_ring_B_mod_J(monkeypatch):
    # amalgam_present takes HS(J) = HS(B) - HS(B/(I_B + J)) once and keeps
    # it as J_series, so certifying the presentation again runs no
    # Buchberger of its own.
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
        assert P.J_series == hilbert_series(spec.J)


def test_every_derived_ring_keeps_the_degree_cap(monkeypatch):
    # The session's cap goes into every ring it declares, and each ring
    # built from them (B of a trivial extension, C/K, B/(I_B + J)) takes it
    # over.
    text = resources.files("amalgams").joinpath("fixtures", "cm_family.alg").read_text()
    decls = parse_input(text, degree_cap=7).decls.values()
    built = []
    init = PresentedRing.__init__

    def recording(self, *args):
        built.append(self)
        init(self, *args)

    monkeypatch.setattr(PresentedRing, "__init__", recording)
    for kind, obj in decls:
        if kind == "amalgam":
            built.clear()
            P = amalgam_present(obj)
            # C/K and B/(I_B + J), the ring HS(J) is read from
            assert len(built) == 2 and P.ring in built
            rings = [obj.A.ambient, obj.B.ambient] + [R.ambient for R in built]
            assert {r.degree_cap for r in rings} == {7}


def test_trivial_extension_by_free_module():
    A = line_ring()
    M = FPModule(A.ambient, [1])
    P = amalgam_present(trivial_extension(A, M))
    assert [str(g) for g in P.ring.defining.elements] == ["z1^2"]
    assert P.certificate.is_certified()


def test_trivial_extension_by_residue_field():
    A = line_ring()
    M = FPModule(A.ambient, [1], [[A.ambient.var("x")]])
    P = amalgam_present(trivial_extension(A, M))
    assert sorted(str(g) for g in P.ring.defining.elements) == ["x*z1", "z1^2"]
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
    assert P.certificate == CertStatus(2)
    # against the full J = (X, Y) the series differ already in degree 1
    full = hilbert_series(spec.A) + hilbert_series(full_J)
    assert P.ring.series.first_difference(full) == 1


def test_junit_rejected():
    A = line_ring()
    B = make_ring(101, ["u"])
    f = RingHom(A, B, ["u"])
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
    # every presentation generator is sound: it lies in the kernel of
    # C -> B = A, x -> x, y -> y, z1 -> x, z2 -> y, so its image vanishes
    x, y = A.ambient.var("x"), A.ambient.var("y")
    images = [x, y, x, y]
    for g in P.ring.defining.elements:
        img = A.ambient.zero()
        for mono, c in g.terms.items():
            term = A.ambient.const(c)
            for im, e in zip(images, mono):
                term = term * im**e
            img = img + term
        assert A.reduce(img).is_zero()


def fixture_amalgams(p):
    """(fixture file, name, spec) of each amalgam the bundled fixtures
    declare, over GF(p), each spec freshly parsed."""
    out = []
    for f in sorted(
        resources.files("amalgams").joinpath("fixtures").iterdir(),
        key=lambda f: f.name,
    ):
        if f.name.endswith(".alg"):
            for name, (kind, spec) in parse_input(f.read_text(), prime=p).decls.items():
                if kind == "amalgam":
                    out.append((f.name, name, spec))
    return out


def test_retraction_ideal_identity():
    # K + (z's) = I_A*C + (z's) for every amalgam, since I_A*C lies in K:
    # checked on each amalgam the bundled fixtures declare, at both primes.
    for p in (101, 32003):
        specs = [spec for _, _, spec in fixture_amalgams(p)]
        assert len(specs) == 10
        for spec in specs:
            assert retraction_ideal_identity(amalgam_present(spec))


def assert_K_is_the_intersection(P):
    """K of the presentation P is K_A ∩ K_B, with K_B from the joint-ring
    elimination of the unreduced images and the intersection by
    `intersect`."""
    spec, C = P.spec, P.ambient
    pad = (0,) * len(P.z_names)
    K_A = [
        Polynomial(C, {m + pad: c for m, c in g.terms.items()})
        for g in spec.A.defining.elements
    ] + P.z_polys()
    images = list(spec.f.images) + list(spec.J.generators)
    K_B = kernel_by_elimination(C, images, spec.B.defining)
    want = intersect(C, K_A, K_B.elements)
    assert [g.terms for g in P.ring.defining.elements] == [
        g.terms for g in want.elements
    ]


def test_K_is_the_intersection_on_fixtures_and_duplications():
    # Where amalgam_present skips the intersection (K_B inside K_A) and
    # where it runs one, K is what `intersect` makes of K_A and K_B.
    for p in (101, 32003):
        specs = [spec for _, _, spec in fixture_amalgams(p)]
        A = make_ring(p, ["x1", "x2", "x3"])
        for gens in (["x1", "x2", "x3"], ["x1^2", "x2^2", "x3^2"], ["x1"]):
            specs.append(duplication(A, IdealHandle(A, gens)))
        for spec in specs:
            assert_K_is_the_intersection(amalgam_present(spec))


@st.composite
def quadratic_extensions(draw, p):
    """A = k[x, y] -> B = A[t]/(t^2 - q), q a drawn quadratic form (0
    allowed), amalgamated along J = (t) or (t, x)."""
    A = make_ring(p, ["x", "y"])
    coeffs = draw(st.lists(st.integers(0, p - 1), min_size=3, max_size=3))
    q = " + ".join(f"{c}*{m}" for c, m in zip(coeffs, ("x^2", "x*y", "y^2")))
    B = make_ring(p, ["x", "y", "t"], [f"t^2 - ({q})"])
    f = RingHom(A, B, ["x", "y"])
    J = draw(st.sampled_from([["t"], ["t", "x"]]))
    return AmalgamSpec(A, B, f, IdealHandle(B, J))


@pytest.mark.parametrize("p", [101, 32003])
@settings(max_examples=15)
@given(data=st.data())
def test_amalgams_along_a_quadratic_extension(p, data):
    # f is not the identity: K is still K_A ∩ K_B, the presentation is
    # certified, and dim C/K = dim A.
    P = amalgam_present(data.draw(quadratic_extensions(p)))
    assert P.certificate.is_certified()
    assert krull_dim(P.ring) == krull_dim(P.spec.A) == 2
    assert_K_is_the_intersection(P)


def test_only_the_veronese_eliminates_and_no_trivial_extension_intersects(
    monkeypatch,
):
    # Every other fixture map sends a variable of C to each variable of B,
    # so its kernel is a substitution; and K_B lies in K_A for a trivial
    # extension, so its K is K_B.  Every other amalgam intersects.
    calls = []
    for module, name in ((gb_module, "eliminate"), (amalgam_module, "intersect")):
        real = getattr(module, name)

        def counted(*args, real=real, name=name):
            calls.append(name)
            return real(*args)

        monkeypatch.setattr(module, name, counted)
    for p in (101, 32003):
        for fixture, name, spec in fixture_amalgams(p):
            calls.clear()
            amalgam_present(spec)
            trivext = spec.J_module is not None
            assert ("eliminate" in calls) == (fixture == "veronese.alg"), name
            assert ("intersect" in calls) == (not trivext), name


def test_determinism():
    runs = []
    for _ in range(2):
        spec, _ = intersection_spec()
        P = amalgam_present(spec)
        runs.append([str(g) for g in P.ring.defining.elements])
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
    assert CertStatus() == CertStatus()
    assert CertStatus(1) != CertStatus(2)
    assert CertStatus() != CertStatus(1)
    assert repr(CertStatus()) == "Certified"
    assert repr(CertStatus(1)) == "NotSurjective(witness degree 1)"


def test_characteristic_robustness():
    for p in (101, 32003):
        spec, _ = intersection_spec(p)
        P = amalgam_present(spec)
        assert P.certificate.is_certified()
        rep = classify(P.ring)
        assert (rep.dim, rep.depth, rep.is_cm) == (2, 1, False)
