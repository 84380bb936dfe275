"""Finitely presented graded rings, graded homomorphisms, and ideals inside
quotient rings.

A PresentedRing is k[x_1..x_n]/I with positive integer variable weights and
a homogeneous defining ideal stored as a reduced grevlex Groebner basis.
Local statements are modeled at the irrelevant maximal ideal (all
variables), where graded and local notions of depth and dimension agree.
"""

from __future__ import annotations

from .errors import (
    ContextMismatch,
    DegreeMismatch,
    NotHomogeneous,
    NotWellDefined,
    UnitIdeal,
)
from .gb import (
    DEFAULT_DEGREE_CAP,
    GroebnerBasis,
    IdealBasis,
    buchberger,
    normal_form,
)
from .poly import GREVLEX, PolyRing, parse_poly


class PresentedRing:
    """Quotient of a weighted polynomial ring by a homogeneous ideal.

    `generators` are polynomials or strings, or a GroebnerBasis the caller
    knows to be the reduced grevlex basis of a homogeneous ideal, which is
    kept as it is instead of being computed again.

    `resolutions` (by degree cap) and `reports` (by equidimensionality
    flag and degree cap) hold what `homology.free_resolution` and
    `homology.classify` returned for this ring, so each is computed once
    per ring; they live and die with it.
    """

    def __init__(self, ambient, generators, degree_cap=DEFAULT_DEGREE_CAP):
        self.ambient = ambient
        if isinstance(generators, GroebnerBasis):
            if generators.ring != ambient:
                raise ContextMismatch("basis in wrong ambient ring")
            self.defining = generators
        else:
            gens = []
            for g in generators:
                if isinstance(g, str):
                    g = parse_poly(ambient, g)
                if g.ring != ambient:
                    raise ContextMismatch("generator in wrong ambient ring")
                if g.is_zero():
                    continue
                if not g.is_homogeneous():
                    raise NotHomogeneous(f"generator {g} mixes weighted degrees")
                gens.append(g)
            self.defining = buchberger(IdealBasis(ambient, gens), GREVLEX, degree_cap)
        if self.defining.contains_one():
            raise UnitIdeal("1 lies in the defining ideal")
        self.resolutions = {}
        self.reports = {}

    @property
    def p(self):
        return self.ambient.p

    @property
    def names(self):
        return self.ambient.names

    @property
    def weights(self):
        return self.ambient.weights

    def reduce(self, f):
        """Canonical representative of f modulo the defining ideal."""
        return normal_form(f, self.defining)

    def standard_monomials(self, d):
        """Monomial k-basis of the degree-d graded piece of the quotient:
        the monomials of degree d that no leading monomial divides, sorted.

        Only these are enumerated (`PolyRing.monomials_of_degree`).  The
        walk fixes exponents variable by variable and keeps the leads that
        divide the exponents fixed so far.  A lead drops out when its
        exponent exceeds the chosen one.  A kept lead with no nonzero
        exponent left divides every completion, so the walk prunes that
        branch and every larger exponent at that variable.
        """
        return self.ambient.monomials_of_degree(
            d, self.defining.leading_monomials()
        )

    def __repr__(self):
        if self.defining.is_zero():
            return repr(self.ambient)
        return f"{self.ambient}/{self.defining!r}"


def make_ring(p, variables, generators=(), degree_cap=DEFAULT_DEGREE_CAP):
    """Build a presented ring from (name, weight) pairs and generators.

    Generators may be polynomial strings in the display syntax.
    """
    names = [v[0] if isinstance(v, tuple) else v for v in variables]
    weights = [v[1] if isinstance(v, tuple) else 1 for v in variables]
    ambient = PolyRing(p, names, weights)
    return PresentedRing(ambient, list(generators), degree_cap)


class IdealHandle:
    """An ideal of a quotient ring, stored by homogeneous representatives."""

    def __init__(self, ring, generators):
        self.ring = ring
        gens = []
        for g in generators:
            if isinstance(g, str):
                g = parse_poly(ring.ambient, g)
            if g.ring != ring.ambient:
                raise ContextMismatch("generator in wrong ambient ring")
            if not g.is_homogeneous():
                raise NotHomogeneous(f"generator {g} mixes weighted degrees")
            if ring.reduce(g).is_zero():
                continue
            gens.append(g)
        self.generators = gens

    def is_zero(self):
        return not self.generators

    def __repr__(self):
        if not self.generators:
            return "<0>"
        return "<" + ", ".join(str(g) for g in self.generators) + ">"


class RingHom:
    """Graded homomorphism between presented rings, given by variable images."""

    def __init__(self, source, target, images):
        self.source = source
        self.target = target
        imgs = []
        for im in images:
            if isinstance(im, str):
                im = parse_poly(target.ambient, im)
            if im.ring != target.ambient:
                raise ContextMismatch("image not in target ambient ring")
            imgs.append(im)
        if len(imgs) != source.ambient.nvars:
            raise ValueError("one image per source variable")
        self.images = imgs
        self.verified = False

    def apply(self, f):
        """Image of a source polynomial, reduced in the target."""
        if f.ring != self.source.ambient:
            raise ContextMismatch("argument not in source ring")
        tgt = self.target.ambient
        out = tgt.zero()
        for mono, c in f.terms.items():
            term = tgt.const(c)
            for img, e in zip(self.images, mono):
                if e:
                    term = term * img**e
            out = out + term
        return self.target.reduce(out)

    def __repr__(self):
        arrows = ", ".join(
            f"{n} -> {img}" for n, img in zip(self.source.names, self.images)
        )
        return f"hom({arrows})"


def hom_check(f):
    """Verify well-definedness and gradedness; returns the hom or raises."""
    src = f.source
    for name, w, img in zip(src.names, src.weights, f.images):
        if img.is_zero():
            continue
        if not img.is_homogeneous() or img.degree() != w:
            raise DegreeMismatch(
                f"image of {name} has degree {img.degree()}, expected {w}"
            )
    for g in src.defining.elements:
        if not f.apply(g).is_zero():
            raise NotWellDefined(f"defining relation {g} does not map to 0")
    f.verified = True
    return f


def identity_hom(ring):
    return hom_check(RingHom(ring, ring, [ring.ambient.var(n) for n in ring.names]))

