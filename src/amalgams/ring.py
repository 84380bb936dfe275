"""Finitely presented graded rings, graded homomorphisms, and ideals inside
quotient rings.

A PresentedRing is k[x_1..x_n]/I with positive integer variable weights and
a homogeneous defining ideal stored as a reduced grevlex Groebner basis.
Local statements are modeled at the irrelevant maximal ideal (all
variables), where graded and local notions of depth and dimension agree.
Every computation on a ring runs under its ambient ring's degree cap
(`PolyRing.degree_cap`), set once when the ambient ring is made.  The
series and the standard monomials are read off the defining basis's
packed leads, in the ambient ring's `PackedLayout`, and stay packed.
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain, count

from .errors import (
    ContextMismatch,
    DegreeMismatch,
    NotHomogeneous,
    NotWellDefined,
    UnitIdeal,
)
from .gb import GroebnerBasis, IdealBasis, buchberger, normal_form
from .poly import DEFAULT_DEGREE_CAP, PolyRing, check_degree, parse_poly
from .series import HilbertSeries, monomial_kpoly


def _homogeneous(ambient, generators):
    """The generators as polynomials of `ambient`, strings parsed, each
    checked to lie in `ambient` and to be homogeneous."""
    gens = []
    for g in generators:
        if isinstance(g, str):
            g = parse_poly(ambient, g)
        if g.ring != ambient:
            raise ContextMismatch("generator in wrong ambient ring")
        if not g.is_homogeneous():
            raise NotHomogeneous(f"generator {g} mixes weighted degrees")
        gens.append(g)
    return gens


class PresentedRing:
    """Quotient of a weighted polynomial ring by a homogeneous ideal.

    `generators` are polynomials or strings, or a GroebnerBasis the caller
    knows to be the reduced grevlex basis of a homogeneous ideal, which is
    kept as it is instead of being computed again.

    `series` is the ring's exact Hilbert series, read off the leading
    monomials of the defining ideal (Bigatti's recursion) when it is first
    read and kept, so every invariant that needs it reads this one and a
    ring whose series is never read never runs the recursion.
    `resolution` and `report` (None until then) hold what
    `homology.free_resolution` and `homology.classify` returned for this
    ring, so each is computed once per ring; they live and die with it.
    """

    def __init__(self, ambient, generators):
        self.ambient = ambient
        if isinstance(generators, GroebnerBasis):
            if generators.ring != ambient:
                raise ContextMismatch("basis in wrong ambient ring")
            self.defining = generators
        else:
            gens = [g for g in _homogeneous(ambient, generators) if not g.is_zero()]
            self.defining = buchberger(IdealBasis(ambient, gens))
        if self.defining.contains_one():
            raise UnitIdeal("1 lies in the defining ideal")
        self.resolution = None
        self.report = None

    @cached_property
    def series(self):
        return HilbertSeries(
            monomial_kpoly(
                [m for _, m in self.defining.basis.leads], self.ambient.layout
            ),
            weights=self.weights,
        )

    @property
    def names(self):
        return self.ambient.names

    @property
    def weights(self):
        return self.ambient.weights

    def reduce(self, f):
        """Canonical representative of f modulo the defining ideal."""
        return normal_form(f, self.defining)

    def standard_monomials(self):
        """Yield the monomial k-basis of each graded piece of the quotient,
        degrees 0, 1, 2, ...: the monomials no leading monomial divides,
        packed in the ambient ring's layout, in the order the pass makes
        them.

        Standard monomials form an order ideal, so each degree is built
        from the degrees below it.  A standard monomial c of degree d > 0
        is m + e_i, with i the last variable of c and m a standard monomial
        of degree d - w_i with no exponent after i, so each c is made once.
        A lead that divides c but not m has exponent c_i at i, its own last
        variable, so only those leads are tried.  Degree d reads only
        degrees d - w, so after max(weights) empty degrees in a row every
        later one is empty: the generator ends there, that is, exactly
        when the ring is artinian.

        Packed, the step e_i adds `units[i]`, c_i is read off field i, and
        a lead divides c when c - lead borrows into no guard bit.  Each
        degree is checked against the packed bound (`check_degree`) before
        it is built.
        """
        weights = self.weights
        layout = self.ambient.layout
        field, guard, mask = layout.field, layout.guard, layout.mask
        leads = [{} for _ in weights]  # last variable -> its exponent -> leads
        for _, g in self.defining.basis.leads:
            i = ((g & layout.low).bit_length() - 1) // field
            leads[i].setdefault(g >> i * field & mask, []).append(g)
        steps = [
            (i * field, unit, w, leads[i])
            for i, (w, unit) in enumerate(zip(weights, layout.units))
        ]
        reach = max(weights)
        # degree -> its standard monomials, bucketed by last variable + 1
        past = {0: [[0]]}
        empty = 0
        for d in count():
            check_degree(d)
            buckets = past.setdefault(d, [[]])
            for i, (at, unit, w, tried) in enumerate(steps):
                made = []
                for m in chain.from_iterable(past.get(d - w, ())[: i + 2]):
                    c = m + unit
                    tests = tried.get(c >> at & mask)
                    if tests is None or all((c - g) & guard for g in tests):
                        made.append(c)
                buckets.append(made)
            past.pop(d - reach, None)
            level = list(chain.from_iterable(buckets))
            yield level
            empty = 0 if level else empty + 1
            if empty == reach:
                return

    def __repr__(self):
        if not self.defining.elements:
            return repr(self.ambient)
        return f"{self.ambient}/{self.defining!r}"


def make_ring(p, variables, generators=(), degree_cap=DEFAULT_DEGREE_CAP):
    """Build a presented ring from (name, weight) pairs and generators, over
    an ambient ring with the given degree cap.

    Generators may be polynomial strings in the display syntax.
    """
    names = [v[0] if isinstance(v, tuple) else v for v in variables]
    weights = [v[1] if isinstance(v, tuple) else 1 for v in variables]
    ambient = PolyRing(p, names, weights, degree_cap)
    return PresentedRing(ambient, list(generators))


class IdealHandle:
    """An ideal of a quotient ring, stored by the normal forms of its
    homogeneous generators: `generators` keeps `ring.reduce(g)` for each
    given g that is nonzero in the ring, in the given order."""

    def __init__(self, ring, generators):
        self.ring = ring
        reduced = map(ring.reduce, _homogeneous(ring.ambient, generators))
        self.generators = [g for g in reduced if not g.is_zero()]

    def is_unit(self):
        """Whether the ideal is the whole ring: for a homogeneous ideal,
        exactly when a generator has degree 0."""
        return any(g.degree() == 0 for g in self.generators)

    def __repr__(self):
        if not self.generators:
            return "<0>"
        return "<" + ", ".join(str(g) for g in self.generators) + ">"


class RingHom:
    """Graded homomorphism between presented rings, given by variable images.

    Checked once, when built: both rings must have one field, each image
    must be homogeneous of its variable's weight (or zero), and every
    defining relation of the source must map to zero.
    """

    def __init__(self, source, target, images):
        if source.ambient.field != target.ambient.field:
            raise ContextMismatch(
                f"hom from a ring over {source.ambient.field} "
                f"to a ring over {target.ambient.field}"
            )
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
        for name, w, img in zip(source.names, source.weights, imgs):
            if img.is_zero():
                continue
            if not img.is_homogeneous() or img.degree() != w:
                raise DegreeMismatch(
                    f"image of {name} has degree {img.degree()}, expected {w}"
                )
        for g in source.defining.elements:
            if not self.apply(g).is_zero():
                raise NotWellDefined(f"defining relation {g} does not map to 0")

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


def identity_hom(ring):
    return RingHom(ring, ring, [ring.ambient.var(n) for n in ring.names])

