"""Minimal graded free resolutions and derived ring invariants.

All homological algebra happens over the ambient polynomial ring: depth via
the Auslander-Buchsbaum identity (#vars - projective dimension), canonical
modules and the classification predicates via Ext against the ambient ring
and graded local duality.  `classify` reads the Betti numbers and depth
through `free_resolution` and `depth_ab`, once the alternating sum of the
resolution's twists is found to be the numerator of the ring's series
(else it raises `SeriesMismatch`), the dimension of each Ext^j with
j > codim off its series (`_ext_series`), and whether R is
quasi-Gorenstein off the type, or off HS(ω) from the Euler
characteristic of the dual complex (`_codim_ext_series`); it presents no
Ext module.  `canonical_module` presents ω for the `canonical` command,
the `trivext ... module canonical` declaration and the harness.
A ring or module keeps its resolution on itself (`resolution`), and a ring
its classify report (`report`), each stored only when the call returns; so
`classify`, `depth_ab`, `ext_module` and `canonical_module` on one ring
share one resolution, and the memo lives and dies with its object.  A call
that stops at the degree cap stores nothing.  The cap is the ambient
ring's (`PolyRing.degree_cap`), so no function here takes one.
Each stage of a resolution is the minimal generating set that its
syzygy basis finds as it is built (`modules.syzygies`), so no
stage takes a second Groebner basis to minimalize.  Ext modules are
kernels into quotient modules, by one rule for every dual map: Ext is
the subquotient (`modules.subquotient`) of the kernel's minimal
generators modulo the image's columns (`_ext_kernel_image`), so those of
the generators that generate the kernel modulo the image generate Ext
minimally, and their syzygies modulo the image are its relations.
`classify` counts these generators for ω only when HS(ω) = t^a HS(R).
Hilbert series are read off leading monomials and need no resolution:
F/U has the series of F/in(U), and a ring keeps its own (`series`); the
packed leads of a module's basis go to `monomial_kpoly` as they are.  The
Krull dimension is the order of the series' pole at t = 1, so it is read
off the same monomials.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .errors import ResolutionTooLong, SeriesMismatch, ZeroModule
from .modules import (
    FPModule,
    FreeModule,
    ModVec,
    minimal_generators,
    module_groebner,
    subquotient,
    syzygies,
)
from .ring import IdealHandle, PresentedRing
from .series import (
    HilbertSeries,
    lp_add,
    lp_monomial,
    lp_mul,
    lp_zero,
    monomial_kpoly,
)


class FreeResolution:
    """Minimal graded free resolution F_0 <- F_1 <- ... <- F_c.

    diffs[i] holds the columns of the map F_{i+1} -> F_i as vectors in
    FreeModule(ring, twists[i]).
    """

    def __init__(self, ring, twists, diffs):
        self.ring = ring
        self.twists = twists
        self.diffs = diffs
        self.cokernel_series = {}

    @property
    def length(self):
        return len(self.diffs)

    def dual_twists(self, j):
        """Twists of F_j^*, where F_j = 0 for j < 0 and past the end."""
        return [-t for t in self.twists[j]] if 0 <= j <= self.length else []

    def betti_numbers(self):
        return [len(t) for t in self.twists]

    def __repr__(self):
        return f"FreeResolution(betti={self.betti_numbers()})"


def _as_module(obj):
    if isinstance(obj, PresentedRing):
        return FPModule.quotient_ring(obj)
    if isinstance(obj, FPModule):
        return obj
    raise TypeError(f"cannot resolve a {type(obj).__name__}")


def free_resolution(obj):
    """Minimal free resolution of a ring or a module, by iterated syzygies
    of minimal generators.

    The relations of the minimal presentation are the first stage as they
    are, and each later stage is the minimal generating set of the
    previous stage's syzygies that their one basis finds as it is built
    (`syzygies`).  Every stage is minimal, so no differential
    carries a unit entry and the result is minimal (graded Nakayama).  The
    ring or module keeps its resolution (`resolution`), stored only when
    the call returns.
    """
    if obj.resolution is not None:
        return obj.resolution
    M = _as_module(obj).minimal_presentation()
    ring = M.ring
    twists = [list(M.twists)]
    diffs = []
    current = M.relations
    while current:
        if len(diffs) == ring.nvars:
            raise ResolutionTooLong(
                f"resolution longer than the syzygy bound {ring.nvars}"
            )
        diffs.append(current)
        twists.append([v.degree() for v in current])
        current = syzygies(current, twists=twists[-1])
    obj.resolution = FreeResolution(ring, twists, diffs)
    return obj.resolution


def hilbert_series(obj):
    """Exact rational Hilbert series read off leading monomials.

    A ring S/I has the series of S/in(I), and a module F/U that of
    F/in(U), taken componentwise; the numerators come from Bigatti's
    recursion (`monomial_kpoly`).  No resolution is built.  A ring's
    series is the one it keeps (`PresentedRing.series`).
    """
    if isinstance(obj, IdealHandle):
        # Series of the image of the ideal inside its quotient ring; the
        # unit ideal's image is R itself, and R/I is no ring.
        R = obj.ring
        if obj.is_unit():
            return R.series
        big = PresentedRing(R.ambient, list(R.defining.elements) + obj.generators)
        return R.series - big.series
    if isinstance(obj, PresentedRing):
        return obj.series
    if isinstance(obj, FPModule):
        leads = [[] for _ in obj.twists]
        for comp, mono in module_groebner(obj.relations).leads:
            leads[comp].append(mono)
        num = lp_zero()
        for twist, lead in zip(obj.twists, leads):
            part = monomial_kpoly(lead, obj.ring.layout)
            num = lp_add(num, lp_mul(lp_monomial(twist), part))
        return HilbertSeries(num, weights=obj.ring.weights)
    raise TypeError(f"no Hilbert series for a {type(obj).__name__}")


def krull_dim(obj):
    """Krull dimension of a ring or module: the order of the pole of its
    Hilbert series at t = 1, and -1 for the zero module."""
    return hilbert_series(obj).dimension()


def depth_ab(obj):
    """Depth via Auslander-Buchsbaum: #vars - projective dimension."""
    res = free_resolution(obj)
    if not res.twists[0]:
        raise ZeroModule("depth of the zero module is undefined")
    return res.ring.nvars - res.length


def _dual_columns(res, j):
    """Columns of the dual of d_{j+1}: the map F_j^* -> F_{j+1}^*, the
    transpose, built in one pass over the terms of each column of d_{j+1}.
    From the end of the resolution on they are zero columns into 0."""
    target = FreeModule(res.ring, res.dual_twists(j + 1))
    cols = [{} for _ in res.dual_twists(j)]
    for b, column in enumerate(res.diffs[j] if 0 <= j < res.length else ()):
        for (a, m), c in column.terms.items():
            cols[a][(b, m)] = c
    return [ModVec(target, terms) for terms in cols]


def _ext_kernel_image(res, j):
    """The two halves of Ext^j = ker δ_j / im δ_{j-1}, with δ_i the dual of
    d_{i+1}: the kernel's minimal generators (`syzygies`) and the image's
    columns."""
    kernel = syzygies(_dual_columns(res, j), twists=res.dual_twists(j))
    return kernel, _dual_columns(res, j - 1)


def ext_module(obj, j):
    """Ext^j against the ambient polynomial ring, as a presented module: the
    cohomology of the dual of the resolution of `obj`, by one rule for all
    j, presented minimally as the subquotient of the kernel modulo the
    image (`_ext_kernel_image`)."""
    res = free_resolution(obj)
    if j < 0 or j > res.ring.nvars:
        raise ValueError("cohomological degree out of range")
    return subquotient(res.ring, *_ext_kernel_image(res, j))


def _ext_series(res, j):
    """HS(Ext^j) = HS(C_j) + HS(C_{j-1}) - HS(F_{j+1}^*), C_i = F_{i+1}^*/im δ_i
    for δ_i the dual of d_{i+1}, as HS(ker δ_j) = HS(F_j^*) - HS(im δ_j) and
    HS(im δ_i) = HS(F_{i+1}^*) - HS(C_i).  `res` keeps each HS(C_i)."""
    for i in (j - 1, j):
        if i not in res.cokernel_series:
            C = FPModule(res.ring, res.dual_twists(i + 1), _dual_columns(res, i))
            res.cokernel_series[i] = hilbert_series(C)
    free = hilbert_series(FPModule(res.ring, res.dual_twists(j + 1)))
    return res.cokernel_series[j] + res.cokernel_series[j - 1] - free


def _codim_ext_series(R, c, higher):
    """HS(Ext^c) for c the codimension, from the Euler characteristic
    N(1/t)/D, HS(R) = N/D, of the dual complex F_0^* -> ... -> F_pd^*,
    whose cohomology is Ext^j.  In a polynomial ring grade I = ht I, so
    Ext^j = 0 for j < c and
    (-1)^c HS(Ext^c) = N(1/t)/D - sum_{j>c} (-1)^j HS(Ext^j).
    `higher` maps each j > c to HS(Ext^j)."""
    euler = HilbertSeries({-d: n for d, n in R.series.num.items()}, R.series.den)
    for j, series in higher.items():
        euler = euler - (series if j % 2 == 0 else -series)
    return euler if c % 2 == 0 else -euler


def canonical_module(R):
    """Graded canonical module of the quotient ring R = S/I:
    Ext^codim(R, S) twisted by -(sum of weights)."""
    ring = R.ambient
    c = ring.nvars - krull_dim(R)
    return ext_module(R, c).shift(sum(ring.weights))


@dataclass
class ClassifyReport:
    dim: int
    depth: int
    betti: list
    type: int
    is_cm: bool
    is_gorenstein: bool
    is_quasi_gorenstein: bool
    is_generalized_cm: bool
    serre_level: int

    def lines(self, equidimensional=False):
        """The report's lines.  The Serre level carries a `?` unless the
        caller knows the ring to be equidimensional, where the Ext
        criterion is exact."""

        def b(v):
            return "true" if v else "false"

        serre = f"S{self.serre_level}" + ("" if equidimensional else "?")
        return [
            f"dim = {self.dim}",
            f"depth = {self.depth}",
            f"cm = {b(self.is_cm)}",
            f"gorenstein = {b(self.is_gorenstein)}",
            f"quasi_gorenstein = {b(self.is_quasi_gorenstein)}",
            f"generalized_cm = {b(self.is_generalized_cm)}",
            f"serre = {serre}",
            f"type = {self.type}",
            "betti = " + ";".join(str(x) for x in self.betti),
        ]


MAX_SERRE_LEVEL = 4


def classify(R):
    """Full invariant report for a graded quotient ring.

    The Serre-condition levels use the Ext-dimension criterion, which is
    exact for equidimensional rings and conservative (it may under-report)
    otherwise; `ClassifyReport.lines` marks the level unless told the ring
    is equidimensional.  No Ext module is presented: each Ext above the
    codimension is measured by its series (`_ext_series`), and
    quasi-Gorenstein is decided from the type when R is Cohen-Macaulay,
    and otherwise from HS(ω) by the Euler characteristic of the dual
    complex (`_codim_ext_series`), with ω's generators counted (the
    minimal generators of `_ext_kernel_image`) only when HS(ω) =
    t^a HS(R).  R keeps the report (`report`).  A resolution whose
    twists disagree with R's series (`SeriesMismatch`) reports nothing.
    """
    if R.report is not None:
        return R.report
    n = R.ambient.nvars
    res = free_resolution(R)
    # Over the same denominator prod(1 - t^w), the alternating sum of the
    # twists is the numerator of R's series (Hilbert's syzygy theorem).
    euler = Counter()
    for i, twists in enumerate(res.twists):
        for d in twists:
            euler[d] += (-1) ** i
    euler = {d: c for d, c in euler.items() if c}
    if euler != R.series.num:
        degree = HilbertSeries(euler, R.series.den).first_difference(R.series)
        raise SeriesMismatch(
            f"the resolution disagrees with the Hilbert series in degree {degree}"
        )
    betti = res.betti_numbers()
    dim = krull_dim(R)
    depth = depth_ab(R)
    codim = n - dim
    rtype = betti[-1]
    is_cm = dim == depth
    is_gorenstein = is_cm and rtype == 1

    # Dimensions of the nonzero Ext modules above the codimension; zero Ext
    # modules, those of zero series, impose no condition.
    higher = {j: _ext_series(res, j) for j in range(codim + 1, res.length + 1)}
    ext_dims = {}
    for j, series in higher.items():
        dim_ext = series.dimension()
        if dim_ext >= 0:
            ext_dims[j] = dim_ext

    # Quasi-Gorenstein means ω ≅ R(-a).  A CM ring's ω is presented by the
    # last dual map, minimally, as every entry of a minimal resolution lies
    # in m: so μ(ω) = type, and ω is cyclic exactly when R is Gorenstein.
    # Otherwise a cyclic ω is (S/ann ω)(-a), a its lowest degree, and
    # ann ω contains I; so ann ω = I exactly when HS(ω) = t^a HS(R), and
    # then ω has one generator in degree a and is cyclic when μ(ω) = 1.
    # ω is Ext^codim twisted, and the test holds for both or neither.
    if is_cm:
        quasi = is_gorenstein
    else:
        ext = _codim_ext_series(R, codim, higher)
        shifted = lp_mul(lp_monomial(min(ext.num)), R.series.num)
        quasi = (
            ext == HilbertSeries(shifted, R.series.den)
            and len(minimal_generators(*_ext_kernel_image(res, codim))) == 1
        )

    gcm = all(d <= 0 for d in ext_dims.values())
    serre = 0
    for level in range(1, MAX_SERRE_LEVEL + 1):
        if all(d <= n - j - level for j, d in ext_dims.items()):
            serre = level
        else:
            break

    R.report = ClassifyReport(
        dim=dim,
        depth=depth,
        betti=betti,
        type=rtype,
        is_cm=is_cm,
        is_gorenstein=is_gorenstein,
        is_quasi_gorenstein=quasi,
        is_generalized_cm=gcm,
        serre_level=serre,
    )
    return R.report
