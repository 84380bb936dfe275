"""Acceptance gate: ten exact, property-based criteria over GF(p).

Each test prints a single `criterion-N <slug>: PASS` line on success;
pytest reports FAIL otherwise.  All equality checks are exact (GF(p)
arithmetic and exact rational Hilbert series; zero tolerance).
"""

from amalgams.amalgam import (
    AmalgamSpec,
    amalgam_present,
    duplication,
    hom_A_into_R,
    trivial_extension,
)
from amalgams.finite import (
    FiniteAmalgam,
    FiniteHom,
    ProductRing,
    classify_primes,
    zmod,
)
from amalgams.harness import run_harness, socle_dimension, verify_paper
from amalgams.homology import (
    canonical_module,
    classify,
    depth_ab,
    hilbert_series,
    krull_dim,
)
from amalgams.modules import FPModule, FreeModule, subquotient
from amalgams.poly import format_poly, parse_poly
from amalgams.ring import IdealHandle, PresentedRing, RingHom, make_ring
from amalgams.series import HilbertSeries, lp_monomial
from conftest import pair_index
from oracles import ideal_generated_by

P = 101


def report(n, slug):
    print(f"criterion-{n} {slug}: PASS")


def certified(spec):
    pres = amalgam_present(spec)
    assert pres.certificate.is_certified()
    return pres


def line_ring(p=P):
    return make_ring(p, ["x"])


def a0_ring(p=P):
    return make_ring(p, ["x", "y"], ["x^2", "x*y", "y^2"])


def ideal_module(A, gens):
    """The ideal (gens) of A = S/I_A as an S-module: (gens + I_A)/I_A."""
    S = A.ambient
    F = FreeModule(S, [0])
    return subquotient(
        S,
        [F.from_polys([parse_poly(S, g)]) for g in gens],
        [F.from_polys([g]) for g in A.defining.elements],
    )


def cm_battery(p=P):
    """Six certified fixtures with J finitely generated over A."""
    A = line_ring(p)
    P2 = make_ring(p, ["x", "y"])
    A0 = a0_ring(p)
    out = []
    for gens in (["x"], ["x^2"]):
        out.append((duplication(A, IdealHandle(A, gens)), ideal_module(A, gens)))
    spec = duplication(P2, IdealHandle(P2, ["x", "y"]))
    out.append((spec, ideal_module(P2, ["x", "y"])))
    MA = FPModule(A.ambient, [1])
    out.append((trivial_extension(A, MA), MA))
    Mk = FPModule(A.ambient, [1], [[A.ambient.var("x")]])
    out.append((trivial_extension(A, Mk), Mk))
    omega = canonical_module(A0)
    out.append((trivial_extension(A0, omega), omega))
    return out


def test_criterion_1_intersection_example():
    """Exact presentation, certificate, and non-CM classification."""
    A = line_ring()
    B = make_ring(P, ["X", "Y"])
    f = RingHom(A, B, ["X"])
    spec = AmalgamSpec(A, B, f, IdealHandle(B, ["X", "Y"]))
    pres = certified(spec)
    assert [format_poly(g, signed=True) for g in pres.ring.defining.elements] == [
        "x*z1 - z1^2",
        "x*z2 - z1*z2",
    ]
    rep = classify(pres.ring)
    assert (rep.dim, rep.depth, rep.is_cm) == (2, 1, False)
    report(1, "intersection-example")


def test_criterion_2_cm_transfer_battery():
    """is_cm(amalgam) iff is_cm(A) and the J-module is maximal CM."""
    fixtures = cm_battery()
    assert len(fixtures) >= 6
    seen_false = False
    for spec, Jmod in fixtures:
        pres = certified(spec)
        left = classify(pres.ring).is_cm
        right = classify(spec.A).is_cm and depth_ab(Jmod) == krull_dim(spec.A)
        assert left == right
        if not left:
            seen_false = True
    assert seen_false  # the designed failure (extension by k) is exercised
    report(2, "cm-transfer-battery")


def test_criterion_3_gorenstein_via_canonical():
    """Extension by the canonical module of a type-2 ring is Gorenstein."""
    A0 = a0_ring()
    rep0 = classify(A0)
    assert rep0.is_cm and not rep0.is_gorenstein and rep0.type == 2
    omega = canonical_module(A0).minimal_presentation()
    assert len(omega.twists) == 2
    assert socle_dimension(A0) == 2  # independent linear-algebra oracle
    pres = certified(trivial_extension(A0, omega))
    rep = classify(pres.ring)
    assert rep.is_gorenstein and rep.type == 1
    report(3, "gorenstein-via-canonical")


def test_criterion_4_depth_minimum():
    """depth = min(depth A, depth J) and dim = dim A on every fixture."""
    for spec, Jmod in cm_battery():
        pres = certified(spec)
        assert depth_ab(pres.ring) == min(depth_ab(spec.A), depth_ab(Jmod))
        assert krull_dim(pres.ring) == krull_dim(spec.A)
    report(4, "depth-minimum")


def test_criterion_5_hom_into_identities():
    """Hilbert series of Hom(A, R) in both structural regimes."""
    A = line_ring()
    I = IdealHandle(A, ["x"])
    pres = certified(duplication(A, I))
    h = hom_A_into_R(pres)
    t_over_1mt = HilbertSeries(lp_monomial(1), weights=[1])
    assert hilbert_series(h) == t_over_1mt == hilbert_series(I)
    spec = trivial_extension(A, FPModule(A.ambient, [1]))
    pres = certified(spec)
    h = hom_A_into_R(pres)
    # J^2 = 0 and Ann_A(J) = 0: series equals 0 + HS(J)
    assert hilbert_series(h) == t_over_1mt == hilbert_series(spec.J)
    report(5, "hom-into-identities")


def test_criterion_6_dimension_dichotomy():
    """Generalized CM iff the module dimension is 0 or dim A."""
    A = line_ring()
    Mk = FPModule(A.ambient, [1], [[A.ambient.var("x")]])
    rep = classify(certified(trivial_extension(A, Mk)).ring)
    assert rep.is_generalized_cm and not rep.is_cm
    P2 = make_ring(P, ["x", "y"])
    Mline = FPModule(P2.ambient, [1], [[P2.ambient.var("x")]])
    rep2 = classify(certified(trivial_extension(P2, Mline)).ring)
    assert not rep2.is_generalized_cm
    report(6, "dimension-dichotomy")


def test_criterion_7_serre_conditions():
    """S1-but-not-S2 on the two-planes ring; S4 on every CM fixture."""
    R = make_ring(P, ["a", "b", "c", "d"], ["a*c", "a*d", "b*c", "b*d"])
    rep = classify(R)
    assert rep.serre_level == 1
    cm_fixtures = [
        make_ring(P, ["x", "z"], ["z^2 - x*z"]),
        make_ring(P, ["x", "z"], ["z^2"]),
        a0_ring(),
        make_ring(P, ["x", "y"]),
    ]
    for ring in cm_fixtures:
        rep = classify(ring)
        assert rep.is_cm and rep.serre_level == 4
    report(7, "serre-conditions")


def test_criterion_8_finite_spectrum():
    """Exhaustive spectrum classification on three finite fixtures."""
    Z6 = zmod(6)
    fixtures = [
        FiniteAmalgam(FiniteHom(Z6, Z6, range(6)), ideal_generated_by(Z6, [3])),
        FiniteAmalgam(
            FiniteHom(zmod(8), zmod(4), [a % 4 for a in range(8)]),
            ideal_generated_by(zmod(4), [2]),
        ),
    ]
    Z4, Z2 = zmod(4), zmod(2)
    Pr = ProductRing(Z4, Z2)
    fixtures.append(
        FiniteAmalgam(
            FiniteHom(Pr, Pr, range(Pr.n)),
            ideal_generated_by(Pr, [pair_index(Z4, Z2, 2, 0)]),
        )
    )
    for W in fixtures:
        assert W.order == W.A.n * len(W.J)
        _, _, verdict, _ = classify_primes(W)
        assert verdict
    report(8, "finite-spectrum")


def test_criterion_9_quasi_gorenstein_closure():
    """Square-zero presentation of the rank-one extension, plus mutation."""
    A = line_ring()
    spec = trivial_extension(A, FPModule(A.ambient, [1]))
    pres = certified(spec)
    assert [str(g) for g in pres.ring.defining.elements] == ["z1^2"]
    rep = classify(pres.ring)
    assert rep.is_quasi_gorenstein and rep.is_gorenstein
    # mutate z^2 -> z^3: both trivial-extension signatures flip
    mutated = PresentedRing(pres.ambient, [pres.z_polys()[0] ** 3])
    target = hilbert_series(spec.A) + hilbert_series(spec.J)
    assert hilbert_series(mutated) != target  # certificate against A x M
    assert hilbert_series(mutated).first_difference(target) is not None
    assert not mutated.reduce(pres.z_polys()[0] ** 2).is_zero()  # J^2 != 0
    report(9, "quasi-gorenstein-closure")


def test_criterion_10_determinism_and_characteristic():
    """Byte-identical harness reports; same statuses at p = 32003."""
    rep = verify_paper()
    assert rep.status == 0
    assert "determinism = PASS" in rep.lines
    assert "characteristic-robustness = PASS" in rep.lines
    first = run_harness(101)
    again = run_harness(101)
    assert first == again
    other = run_harness(32003)
    assert [ok for _, ok in first] == [ok for _, ok in other]
    report(10, "determinism-and-characteristic")
