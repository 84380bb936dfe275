"""Minimal graded free resolutions and derived ring invariants.

All homological algebra happens over the ambient polynomial ring: depth via
the Auslander-Buchsbaum identity (#vars - projective dimension), canonical
modules and the classification predicates via Ext against the ambient ring
and graded local duality.  `classify` builds one resolution and takes the
Betti numbers, depth, canonical module and every higher Ext from it.
A ring or module keeps its resolution, and a ring its classify report, on
itself (`resolutions`, `reports`), keyed by the other arguments and stored
only when the call returns; so `classify`, `depth_ab`, `ext_module` and
`canonical_module` on one ring share one resolution, and the memo lives
and dies with its object.
Ext modules and annihilators are kernels into quotient modules, each
taken as syzygies modulo the relations (`modules.syzygies(modulo=)`); Ext
is presented by `modules.subquotient`, the one minimalization rule, and
each module is minimalized once.
Hilbert series are read off leading monomials and need no resolution.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import ResolutionTooLong, ZeroModule
from .gb import DEFAULT_DEGREE_CAP, IdealBasis, ideal_member, quotient_ideal
from .modules import (
    FPModule,
    FreeModule,
    ModOrder,
    ModVec,
    leading_mod_term,
    minimal_generators,
    module_groebner,
    subquotient,
    syzygies,
)
from .poly import GREVLEX, leading_term
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

    @property
    def length(self):
        return len(self.diffs)

    def betti_numbers(self):
        return [len(t) for t in self.twists]

    def __repr__(self):
        return f"FreeResolution(betti={self.betti_numbers()})"


def _as_module(obj):
    if isinstance(obj, PresentedRing):
        return FPModule.quotient_ring(obj)
    if isinstance(obj, IdealHandle):
        gens = [obj.ring.reduce(g) for g in obj.generators]
        return FPModule.from_ideal(obj.ring.ambient, gens)
    if isinstance(obj, FPModule):
        return obj
    raise TypeError(f"cannot resolve a {type(obj).__name__}")


def free_resolution(obj, degree_cap=DEFAULT_DEGREE_CAP):
    """Minimal free resolution by iterated syzygies of minimal generators.

    Every stage uses a minimal generating set, so no differential carries a
    unit entry and the result is minimal (graded Nakayama).  The relations
    of the minimal presentation are the first stage as they are.  A ring
    or module keeps its resolution by degree cap; an ideal is resolved
    through a module built for the call.
    """
    owner = obj if isinstance(obj, (PresentedRing, FPModule)) else _as_module(obj)
    if degree_cap in owner.resolutions:
        return owner.resolutions[degree_cap]
    M = _as_module(owner).minimal_presentation(degree_cap)
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
        current = minimal_generators(syzygies(current, degree_cap), degree_cap)
    res = owner.resolutions[degree_cap] = FreeResolution(ring, twists, diffs)
    return res


def hilbert_series(obj, degree_cap=DEFAULT_DEGREE_CAP):
    """Exact rational Hilbert series read off leading monomials.

    A ring S/I has the series of S/in(I), and a module F/U that of
    F/in(U), taken componentwise; the numerators come from Bigatti's
    recursion (`monomial_kpoly`).  No resolution is built.
    """
    if isinstance(obj, IdealHandle):
        # Series of the image of the ideal inside its quotient ring.
        R = obj.ring
        big = PresentedRing(
            R.ambient, list(R.defining.elements) + obj.generators, degree_cap
        )
        return hilbert_series(R, degree_cap) - hilbert_series(big, degree_cap)
    if isinstance(obj, PresentedRing):
        num = monomial_kpoly(obj.defining.leading_monomials(), obj.weights)
        return HilbertSeries(num, weights=obj.weights)
    if isinstance(obj, FPModule):
        weights = obj.ring.weights
        order = ModOrder(weights)
        leads = [[] for _ in obj.twists]
        for g in module_groebner(obj.relations, degree_cap=degree_cap):
            comp, mono = leading_mod_term(g, order)[0]
            leads[comp].append(mono)
        num = lp_zero()
        for twist, lead in zip(obj.twists, leads):
            part = monomial_kpoly(lead, weights)
            num = lp_add(num, lp_mul(lp_monomial(twist), part))
        return HilbertSeries(num, weights=weights)
    raise TypeError(f"no Hilbert series for a {type(obj).__name__}")


def _dim_of_leading_monomials(nvars, lead):
    """Combinatorial Krull dimension of S/(leading ideal).

    The dimension is the largest size of a variable subset U such that no
    leading monomial is supported entirely inside U.
    """
    if any(all(e == 0 for e in m) for m in lead):
        return -1  # unit ideal
    supports = [frozenset(i for i, e in enumerate(m) if e) for m in lead]
    for size in range(nvars, -1, -1):
        for U in combinations(range(nvars), size):
            Uset = set(U)
            if not any(s <= Uset for s in supports):
                return size
    return -1


def krull_dim(obj, degree_cap=DEFAULT_DEGREE_CAP):
    """Krull dimension of a quotient ring or of a finitely presented module."""
    if isinstance(obj, PresentedRing):
        return _dim_of_leading_monomials(
            obj.ambient.nvars, obj.defining.leading_monomials()
        )
    # The annihilator is a reduced grevlex basis, and the unit ideal of a
    # zero module has dimension -1.
    ann = annihilator(obj, degree_cap)
    lead = [leading_term(g, GREVLEX)[0] for g in ann.gens]
    return _dim_of_leading_monomials(ann.ring.nvars, lead)


def depth_ab(obj, degree_cap=DEFAULT_DEGREE_CAP):
    """Depth via Auslander-Buchsbaum: #vars - projective dimension."""
    res = free_resolution(obj, degree_cap)
    if not res.twists[0]:
        raise ZeroModule("depth of the zero module is undefined")
    return res.ring.nvars - res.length


def _dual_columns(res, j):
    """Columns of the dual of d_{j+1}: the map F_j^* -> F_{j+1}^*, the
    transpose, built in one pass over the terms of each column of d_{j+1}."""
    target = FreeModule(res.ring, [-t for t in res.twists[j + 1]])
    cols = [{} for _ in res.twists[j]]
    for b, column in enumerate(res.diffs[j]):
        for (a, m), c in column.terms.items():
            cols[a][(b, m)] = c
    return [ModVec(target, terms) for terms in cols]


def ext_module(obj, j, degree_cap=DEFAULT_DEGREE_CAP):
    """Ext^j against the ambient polynomial ring, as a presented module,
    from the resolution of `obj`."""
    res = free_resolution(obj, degree_cap)
    if j < 0 or j > res.ring.nvars:
        raise ValueError("cohomological degree out of range")
    return _ext_from_resolution(res, j, degree_cap)


def _ext_from_resolution(res, j, degree_cap=DEFAULT_DEGREE_CAP):
    """Ext^j as the cohomology of the dual of the resolution `res`."""
    ring = res.ring
    c = res.length
    if j > c or not res.twists[j]:
        return FPModule.zero(ring)
    dual_twists = [-t for t in res.twists[j]]
    if j == c:
        ker_free = FreeModule(ring, dual_twists)
        ker_gens = [ker_free.basis_vector(i) for i in range(ker_free.rank)]
    else:
        cols = _dual_columns(res, j)
        ker_gens = syzygies(cols, degree_cap, twists=dual_twists)
    im_gens = _dual_columns(res, j - 1) if j else []
    return subquotient(ring, ker_gens, im_gens, degree_cap)


def canonical_module(R, degree_cap=DEFAULT_DEGREE_CAP):
    """Graded canonical module of the quotient ring R = S/I:
    Ext^codim(R, S) twisted by -(sum of weights)."""
    ring = R.ambient
    c = ring.nvars - krull_dim(R, degree_cap)
    return ext_module(R, c, degree_cap).shift(sum(ring.weights))


def annihilator(obj, degree_cap=DEFAULT_DEGREE_CAP):
    """The exact annihilator ideal (0 : M) of M = F/U in the ambient
    polynomial ring, as a reduced grevlex basis.

    (0 : M) is the intersection of the (U : e_i), so it is the quotient of
    (e_1, ..., e_s) in F^s modulo U^s.  Block i of F^s is F shifted by
    -twist_i, so the vector has degree 0.
    """
    M = _as_module(obj)
    ring = M.ring
    if M.is_zero_presentation():
        return IdealBasis(ring, [ring.one()])
    s = len(M.twists)
    free = FreeModule(ring, [t - u for u in M.twists for t in M.twists])
    v = ModVec(free, {(i * s + i, ring.one_mono()): 1 for i in range(s)})
    rels = [
        ModVec(free, {(i * s + j, m): c for (j, m), c in r.terms.items()})
        for i in range(s)
        for r in M.relations
    ]
    return quotient_ideal(v, rels, degree_cap)


@dataclass
class ClassifyReport:
    dim: int
    depth: int
    codim: int
    betti: list
    type: int
    is_cm: bool
    is_gorenstein: bool
    is_quasi_gorenstein: bool
    is_generalized_cm: bool
    serre_level: int
    equidimensional_assumed: bool

    def lines(self):
        def b(v):
            return "true" if v else "false"

        serre = f"S{self.serre_level}"
        if not self.equidimensional_assumed:
            serre += "?"
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

    def __repr__(self):
        return "\n".join(self.lines())


MAX_SERRE_LEVEL = 4


def classify(R, assume_equidimensional=False, degree_cap=DEFAULT_DEGREE_CAP):
    """Full invariant report for a graded quotient ring.

    The Serre-condition levels use the Ext-dimension criterion, which is
    exact for equidimensional rings and conservative (it may under-report)
    otherwise; the report carries the distinction.  R keeps the report
    by (assume_equidimensional, degree_cap).
    """
    key = (assume_equidimensional, degree_cap)
    if key in R.reports:
        return R.reports[key]
    ring = R.ambient
    n = ring.nvars
    res = free_resolution(R, degree_cap)
    dim = krull_dim(R, degree_cap)
    depth = n - res.length
    codim = n - dim
    betti = res.betti_numbers()
    rtype = betti[-1]
    is_cm = dim == depth
    is_gorenstein = is_cm and rtype == 1

    # One resolution serves the Betti numbers, depth, the canonical module
    # and every Ext^j above the codimension.
    omega = _ext_from_resolution(res, codim, degree_cap).shift(sum(ring.weights))
    mu_omega = len(omega.twists)
    if mu_omega == 1:
        ann = annihilator(omega, degree_cap)
        quasi = all(ideal_member(g, R.defining) for g in ann.gens)
    else:
        quasi = False

    # Dimensions of the nonzero Ext modules above the codimension; zero Ext
    # modules impose no condition.
    ext_dims = {}
    for j in range(codim + 1, n + 1):
        ext = _ext_from_resolution(res, j, degree_cap)
        if not ext.is_zero_presentation():
            ext_dims[j] = krull_dim(ext, degree_cap)
    gcm = all(d <= 0 for d in ext_dims.values())
    serre = 0
    for level in range(1, MAX_SERRE_LEVEL + 1):
        if all(d <= n - j - level for j, d in ext_dims.items()):
            serre = level
        else:
            break

    report = R.reports[key] = ClassifyReport(
        dim=dim,
        depth=depth,
        codim=codim,
        betti=betti,
        type=rtype,
        is_cm=is_cm,
        is_gorenstein=is_gorenstein,
        is_quasi_gorenstein=quasi,
        is_generalized_cm=gcm,
        serre_level=serre,
        equidimensional_assumed=assume_equidimensional,
    )
    return report
