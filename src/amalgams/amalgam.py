"""Finite presentations of amalgamated algebras.

Given a graded hom f : A -> B and a homogeneous ideal J of B with listed
generators j_1..j_m, the amalgamated algebra {(a, f(a) + j)} is presented
as C/K with C = k[x's, z_1..z_m] (one z per listed generator, weighted by
its degree) and K the intersection of two explicit kernels:

    K_A = I_A*C + (z_1..z_m)          (kernel over the first factor)
    K_B = ker(C -> B), x -> f(x), z_t -> j_t

The construction never assumes the listed generators are enough to reach
the whole subring: that is certified a posteriori by the exact
Hilbert-series identity HS(C/K) = HS(A) + HS(J), the graded shadow of the
split exact sequence 0 -> J -> (A join J) -> A -> 0.  `amalgam_present`
builds C/K and certifies it against the J the spec lists
(`verify_presentation`); `duplication` and `trivial_extension` build the
specs of the two special constructions, and `hom_A_into_R` realizes
Hom_R(A, R) as a colon ideal of C/K.  A spec keeps its certified
presentation by degree cap, stored only when `amalgam_present` returns,
so each amalgam is presented once; the memo lives and dies with the spec.
"""

from __future__ import annotations

from .errors import JUnit, NotHomogeneous, UnitIdeal
from .gb import (
    DEFAULT_DEGREE_CAP,
    GroebnerBasis,
    IdealBasis,
    colon,
    intersect,
    kernel_of_map,
)
from .homology import hilbert_series
from .modules import FPModule
from .poly import GREVLEX, PolyRing, Polynomial
from .ring import (
    IdealHandle,
    PresentedRing,
    RingHom,
    hom_check,
    identity_hom,
)


class AmalgamSpec:
    """Input data: rings A, B, a verified graded hom f, and J-generators.

    `presentations` holds, by degree cap, what `amalgam_present` returned
    for this spec.
    """

    def __init__(self, A, B, f, J):
        if not f.verified:
            hom_check(f)
        self.A = A
        self.B = B
        self.f = f
        self.J = J
        # J as an A-module, when the constructor has it (`trivial_extension`)
        self.J_module = None
        self.presentations = {}


class CertStatus:
    CERTIFIED = "Certified"
    NOT_SURJECTIVE = "NotSurjective"

    def __init__(self, status, witness_degree=None):
        self.status = status
        self.witness_degree = witness_degree

    def is_certified(self):
        return self.status == CertStatus.CERTIFIED

    def __repr__(self):
        if self.status == CertStatus.NOT_SURJECTIVE:
            return f"NotSurjective(witness degree {self.witness_degree})"
        return self.status

    def __eq__(self, other):
        return (
            isinstance(other, CertStatus)
            and self.status == other.status
            and self.witness_degree == other.witness_degree
        )


def _fresh_names(base, count, taken):
    prefix = base
    while any(f"{prefix}{i}" in taken for i in range(1, count + 1)):
        prefix = base + prefix
    return [f"{prefix}{i}" for i in range(1, count + 1)]


class AmalgamPresentation:
    """The presented ring C/K, its Hilbert series and certificate, plus the
    bookkeeping maps."""

    def __init__(self, spec, ring, series, K_A, K_B, z_names, images, B_mod_J):
        self.spec = spec
        self.ring = ring  # PresentedRing C/K
        self.series = series  # HS(C/K)
        self.B_mod_J = B_mod_J  # PresentedRing B/(I_B + J)
        self.K = ring.defining
        self.K_A = K_A
        self.K_B = K_B
        self.z_names = z_names
        self.images = images  # images of C's variables in B (x -> f(x), z -> j)
        self.certificate = None  # set by verify_presentation

    @property
    def ambient(self):
        return self.ring.ambient

    def z_polys(self):
        return [self.ambient.var(n) for n in self.z_names]

    def __repr__(self):
        return f"AmalgamPresentation({self.ring!r}, certificate={self.certificate})"


def amalgam_present(spec, degree_cap=DEFAULT_DEGREE_CAP):
    """Build the presentation C/K = C/(K_A ∩ K_B) of the amalgam and
    certify it (`verify_presentation`).  The spec keeps the result by
    degree cap, so a second call returns the same presentation."""
    if degree_cap in spec.presentations:
        return spec.presentations[degree_cap]
    A, B, f, J = spec.A, spec.B, spec.f, spec.J
    jgens = [B.reduce(g) for g in J.generators]
    jgens = [g for g in jgens if not g.is_zero()]
    try:
        B_mod_J = PresentedRing(
            B.ambient, list(B.defining.elements) + jgens, degree_cap
        )
    except UnitIdeal:
        raise JUnit("the listed generators generate the unit ideal of B")
    m = len(jgens)
    z_names = _fresh_names("z", m, set(A.names))
    z_weights = [g.degree() for g in jgens]
    C = PolyRing(A.ambient.field, list(A.names) + z_names, list(A.weights) + z_weights)

    # K_A = I_A*C + (z's)
    lifted_IA = [
        Polynomial(C, {tuple(mm) + (0,) * m: c for mm, c in g.terms.items()})
        for g in A.defining.elements
    ]
    K_A = IdealBasis(C, lifted_IA + [C.var(n) for n in z_names])

    # K_B = ker(C -> B), x -> f(x), z_t -> j_t
    images = [B.reduce(img) for img in f.images] + jgens
    K_B = kernel_of_map(C, images, IdealBasis(B.ambient, B.defining.elements), degree_cap)

    # intersect returns the reduced grevlex basis of K, so it is passed on
    # as one instead of being computed again.
    K = intersect(K_A, K_B, degree_cap)
    presented = PresentedRing(C, GroebnerBasis(C, K.gens, GREVLEX), degree_cap)
    P = AmalgamPresentation(
        spec, presented, hilbert_series(presented, degree_cap),
        K_A, K_B, z_names, images, B_mod_J,
    )
    verify_presentation(P, degree_cap=degree_cap)
    spec.presentations[degree_cap] = P
    return P


def verify_presentation(P, degree_cap=DEFAULT_DEGREE_CAP):
    """Certify HS(C/K) = HS(A) + HS(J) as exact rational functions.

    On inequality the smallest degree where the graded dimensions differ
    is reported; the presented ring is then the proper subring generated
    by the images, not the full amalgam.  HS(C/K) is the series the
    presentation keeps, and HS(J) is HS(B) - HS(B/J), from the ring B/J
    that `amalgam_present` built.
    """
    spec = P.spec
    hs_A = hilbert_series(spec.A, degree_cap)
    hs_J = hilbert_series(spec.B, degree_cap) - hilbert_series(P.B_mod_J, degree_cap)
    witness = P.series.first_difference(hs_A + hs_J)
    if witness is None:
        status = CertStatus(CertStatus.CERTIFIED)
    else:
        status = CertStatus(CertStatus.NOT_SURJECTIVE, witness)
    P.certificate = status
    return status


def duplication(A, I):
    """Amalgamated duplication along an ideal: B = A, f = id, J = I."""
    return AmalgamSpec(A, A, identity_hom(A), I)


def trivial_extension(A, M, degree_cap=DEFAULT_DEGREE_CAP):
    """Idealization of a module: B = A plus square-zero generators for M.

    M is a finitely presented graded module over A's ambient ring with
    positive generator degrees; the result is the amalgam data whose
    presentation realizes the trivial extension.  Its `J_module` is M as
    the e-variables present it: minimal, shifted to start in degree 1.
    """
    if not isinstance(M, FPModule):
        raise TypeError("expected a finitely presented module")
    if M.ring != A.ambient:
        raise NotHomogeneous("module lives over a different ambient ring")
    M = M.minimal_presentation(degree_cap)
    # variable weights must be positive: normalize so the lowest generator
    # sits in degree 1 (a grading shift does not change the ring structure)
    if M.twists and min(M.twists) < 1:
        M = M.shift(1 - min(M.twists))
    degs = list(M.twists)
    s = len(degs)
    e_names = _fresh_names("e", s, set(A.names))
    amb = PolyRing(A.ambient.field, list(A.names) + e_names, list(A.weights) + degs)
    lift = lambda g: Polynomial(
        amb, {tuple(mm) + (0,) * s: c for mm, c in g.terms.items()}
    )
    gens = [lift(g) for g in A.defining.elements]
    evars = [amb.var(n) for n in e_names]
    for rel in M.relations:
        poly = amb.zero()
        for i in range(s):
            poly = poly + lift(rel.component_poly(i)) * evars[i]
        if not poly.is_zero():
            gens.append(poly)
    for i in range(s):
        for j in range(i, s):
            gens.append(evars[i] * evars[j])
    B = PresentedRing(amb, gens, degree_cap)
    f = hom_check(RingHom(A, B, [amb.var(n) for n in A.names]))
    spec = AmalgamSpec(A, B, f, IdealHandle(B, evars))
    spec.J_module = M
    return spec


def hom_A_into_R(P, degree_cap=DEFAULT_DEGREE_CAP):
    """The ideal (K : (z's))/K of C/K, realizing Hom_R(A, R) = Ann_R(0 x J)."""
    amb = P.ambient
    zs = P.z_polys()
    if not zs:
        return IdealHandle(P.ring, [amb.one()])
    quot = colon(
        IdealBasis(amb, list(P.K.elements)), IdealBasis(amb, zs), degree_cap
    )
    gens = []
    for g in quot.gens:
        r = P.ring.reduce(g)
        if not r.is_zero():
            gens.append(r)
    return IdealHandle(P.ring, gens)

