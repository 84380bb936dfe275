"""Finite presentations of amalgamated algebras.

Given a graded hom f : A -> B and a homogeneous ideal J of B with listed
generators j_1..j_m, the amalgamated algebra {(a, f(a) + j)} is presented
as C/K with C = k[x's, z_1..z_m] (one z per listed generator, weighted by
its degree) and K the intersection of two explicit kernels:

    K_A = I_A*C + (z_1..z_m)          (kernel over the first factor)
    K_B = ker(C -> B), x -> f(x), z_t -> j_t

When C -> B sends a variable of C to each variable of B, as for a
duplication and a trivial extension, K_B is a substitution
(`kernel_of_map`).  When K_B lies in K_A, as for every trivial extension,
K is K_B and no intersection runs: C/K_A is A with the z's sent to 0, so
that is when each element of K_B, its z's set to 0, lies in I_A.

The construction never assumes the listed generators are enough to reach
the whole subring: that is certified a posteriori by the exact
Hilbert-series identity HS(C/K) = HS(A) + HS(J), the graded shadow of the
split exact sequence 0 -> J -> (A join J) -> A -> 0.  `amalgam_present`
builds C/K and certifies it against the J the spec lists
(`verify_presentation`); `duplication` and `trivial_extension` build the
specs of the two special constructions, and `hom_A_into_R` realizes
Hom_R(A, R) as a colon ideal of C/K.  A spec keeps its certified
presentation (`presentation`), stored only when `amalgam_present`
returns, so each amalgam is presented once; the memo lives and dies with
the spec.  Every ring built here (C, and the ambient ring of a trivial
extension) takes the degree cap of A's ambient ring.
"""

from __future__ import annotations

from .errors import JUnit, NotHomogeneous
from .gb import colon, intersect, kernel_of_map
from .homology import hilbert_series
from .modules import FPModule
from .poly import Polynomial
from .ring import IdealHandle, PresentedRing, RingHom, identity_hom


class AmalgamSpec:
    """Input data: rings A, B, a graded hom f (checked when it was built),
    and J-generators.

    `presentation` holds what `amalgam_present` returned for this spec
    (None until then).
    """

    def __init__(self, A, B, f, J):
        self.A = A
        self.B = B
        self.f = f
        self.J = J
        # J as an A-module, when the constructor has it (`trivial_extension`)
        self.J_module = None
        self.presentation = None


class CertStatus:
    """The Hilbert-series certificate: the smallest degree where HS(C/K)
    and HS(A) + HS(J) differ, None when they agree (certified)."""

    def __init__(self, witness_degree=None):
        self.witness_degree = witness_degree

    def is_certified(self):
        return self.witness_degree is None

    def __repr__(self):
        if self.is_certified():
            return "Certified"
        return f"NotSurjective(witness degree {self.witness_degree})"

    def __eq__(self, other):
        return (
            isinstance(other, CertStatus)
            and self.witness_degree == other.witness_degree
        )


def _fresh_names(base, count, taken):
    prefix = base
    while any(f"{prefix}{i}" in taken for i in range(1, count + 1)):
        prefix = base + prefix
    return [f"{prefix}{i}" for i in range(1, count + 1)]


class AmalgamPresentation:
    """What the amalgam adds to its spec: the presented ring C/K (which
    keeps K as `ring.defining` and HS(C/K) as `ring.series`), the names of
    C's z-variables, HS(J) as `J_series`, and the certificate that
    `verify_presentation` sets."""

    def __init__(self, spec, ring, z_names, J_series):
        self.spec = spec
        self.ring = ring  # PresentedRing C/K
        self.z_names = z_names
        self.J_series = J_series  # HS(J), for the certificate
        self.certificate = None  # set by verify_presentation

    @property
    def ambient(self):
        return self.ring.ambient

    def z_polys(self):
        return [self.ambient.var(n) for n in self.z_names]

    def __repr__(self):
        return f"AmalgamPresentation({self.ring!r}, certificate={self.certificate})"


def amalgam_present(spec):
    """Build the presentation C/K = C/(K_A ∩ K_B) of the amalgam, K = K_B
    when K_B lies in K_A, and certify it (`verify_presentation`).  The
    spec keeps the result, so a second call returns the same
    presentation."""
    if spec.presentation is not None:
        return spec.presentation
    A, B, f, J = spec.A, spec.B, spec.f, spec.J
    if J.is_unit():
        raise JUnit("the listed generators generate the unit ideal of B")
    J_series = hilbert_series(J)
    jgens = J.generators
    m = len(jgens)
    z_names = _fresh_names("z", m, set(A.names))
    z_weights = [g.degree() for g in jgens]
    C = A.ambient.with_variables(list(A.names) + z_names, list(A.weights) + z_weights)

    # K_A = I_A*C + (z's)
    K_A = [C.embed(g) for g in A.defining.elements] + [C.var(n) for n in z_names]

    # K_B = ker(C -> B), x -> f(x), z_t -> j_t
    images = [B.reduce(img) for img in f.images] + jgens
    K_B = kernel_of_map(C, images, B.defining)

    K = K_B if _inside_K_A(K_B, A) else intersect(C, K_A, K_B.elements)
    presented = PresentedRing(C, K)
    P = AmalgamPresentation(spec, presented, z_names, J_series)
    verify_presentation(P)
    spec.presentation = P
    return P


def _inside_K_A(K_B, A):
    """Whether K_B lies in K_A = I_A*C + (z's): C/K_A is A with the z's
    sent to 0, so K_B lies in K_A exactly when each of its elements, with
    the z's set to 0, reduces to 0 modulo I_A."""
    n = A.ambient.nvars
    for g in K_B.elements:
        cut = {m[:n]: c for m, c in g.terms.items() if not any(m[n:])}
        if not A.reduce(Polynomial(A.ambient, cut)).is_zero():
            return False
    return True


def verify_presentation(P):
    """Certify HS(C/K) = HS(A) + HS(J) as exact rational functions.

    On inequality the smallest degree where the graded dimensions differ
    is reported; the presented ring is then the proper subring generated
    by the images, not the full amalgam.  HS(C/K) is the series C/K keeps,
    and HS(J) the one `amalgam_present` took when it built C/K.
    """
    target = hilbert_series(P.spec.A) + P.J_series
    P.certificate = CertStatus(P.ring.series.first_difference(target))
    return P.certificate


def duplication(A, I):
    """Amalgamated duplication along an ideal: B = A, f = id, J = I."""
    return AmalgamSpec(A, A, identity_hom(A), I)


def trivial_extension(A, M):
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
    M = M.minimal_presentation()
    # variable weights must be positive: normalize so the lowest generator
    # sits in degree 1 (a grading shift does not change the ring structure)
    if M.twists and min(M.twists) < 1:
        M = M.shift(1 - min(M.twists))
    degs = list(M.twists)
    s = len(degs)
    e_names = _fresh_names("e", s, set(A.names))
    amb = A.ambient.with_variables(list(A.names) + e_names, list(A.weights) + degs)
    gens = [amb.embed(g) for g in A.defining.elements]
    evars = [amb.var(n) for n in e_names]
    unpack = A.ambient.layout.unpack
    units = [(0,) * i + (1,) + (0,) * (s - 1 - i) for i in range(s)]
    for rel in M.relations:
        terms = {unpack(m) + units[i]: c for (i, m), c in rel.terms.items()}
        gens.append(Polynomial(amb, terms))
    for i in range(s):
        for j in range(i, s):
            gens.append(evars[i] * evars[j])
    B = PresentedRing(amb, gens)
    f = RingHom(A, B, [amb.var(n) for n in A.names])
    spec = AmalgamSpec(A, B, f, IdealHandle(B, evars))
    spec.J_module = M
    return spec


def hom_A_into_R(P):
    """The ideal (K : (z's))/K of C/K, realizing Hom_R(A, R) = Ann_R(0 x J)."""
    amb = P.ambient
    quot = colon(amb, P.ring.defining.elements, P.z_polys())
    return IdealHandle(P.ring, quot.elements)

