"""Built-in verification harness: `amalgams verify-paper`.

Nine items check the structural theory the package implements on the
fixtures in `amalgams/fixtures/`.  `verify_paper` runs them twice at
p = 101 (the reports must agree) and once at p = 32003 (the statuses
must agree), one PASS/FAIL line per item.

Within one pass (`run_harness`) each fixture file is parsed once and the
CM family is built once (`_Fixtures`), and the items share what hangs off
those objects: a spec's presentation, a ring's or module's resolution and
a ring's classify report are each computed once (see `amalgam` and
`homology`).  Nothing is kept at module level, so every pass, the second
p = 101 pass included, computes everything anew.
"""

from __future__ import annotations

from importlib import resources

from . import cli
from .amalgam import amalgam_present, hom_A_into_R
from .errors import AlgebraError
from .finite import classify_primes, find_isomorphism
from .gb import DEFAULT_DEGREE_CAP
from .homology import (
    canonical_module,
    classify,
    depth_ab,
    hilbert_series,
    krull_dim,
)
from .modules import FPModule
from .poly import DEFAULT_PRIME, format_poly
from .ring import PresentedRing


class _Fixtures:
    """The inputs of one harness pass: each fixture file parsed once, at
    the pass's prime and degree cap, and the CM family built once.  A
    parse or build that raises stores nothing, so every item that needs it
    fails on its own."""

    def __init__(self, prime, cap):
        self.prime = prime
        self.cap = cap
        self._sessions = {}
        self._family = None

    def load(self, name):
        if name not in self._sessions:
            text = resources.files("amalgams").joinpath("fixtures", name).read_text()
            self._sessions[name] = cli.parse_input(
                text, prime=self.prime, degree_cap=self.cap
            )
        return self._sessions[name]

    def cm_family(self):
        """(amalgam spec, J as a module over A's ambient) pairs."""
        if self._family is None:
            s = self.load("cm_family.alg")
            specs = [s.get(name, "amalgam")
                     for name in ["DupX", "DupX2", "DupMax", "TrivA", "TrivK"]]
            specs.append(self.load("gorenstein.alg").get("G", "amalgam"))
            family = []
            for spec in specs:
                Jmod = spec.J_module  # the module M of a trivial extension
                if Jmod is None:  # a duplication: J is an ideal of A
                    Jmod = FPModule.from_ideal(
                        spec.A.ambient,
                        [spec.A.reduce(g) for g in spec.J.generators],
                        self.cap,
                    )
                family.append((spec, Jmod))
            self._family = family
        return self._family


def socle_dimension(R):
    """dim_k of the socle of an artinian quotient, by linear algebra.

    In each degree d, an element of the socle is a combination of standard
    monomials killed by every variable; the count is the nullity of the
    stacked multiplication-by-variable matrices over GF(p).
    """
    amb = R.ambient
    p = amb.p
    # last nonzero degree; in a graded artinian quotient a gap longer than
    # the largest weight means everything above is zero too
    top = -1
    d = 0
    gap = 0
    while gap <= max(amb.weights):
        if R.standard_monomials(d):
            top = d
            gap = 0
        else:
            gap += 1
        d += 1
    total = 0
    for d in range(top + 1):
        basis = R.standard_monomials(d)
        if not basis:
            continue
        rows = []
        for v, w in zip(amb.names, amb.weights):
            target = {m: i for i, m in enumerate(R.standard_monomials(d + w))}
            for ti in range(len(target)):
                rows.append([0] * len(basis))
            off = len(rows) - len(target)
            for j, m in enumerate(basis):
                prod = R.reduce(amb.var(v) * amb.monomial(m, 1))
                for mono, c in prod.terms.items():
                    rows[off + target[mono]][j] = c
        total += len(basis) - _rank_mod_p(rows, p)
    return total


def _rank_mod_p(rows, p):
    rows = [list(r) for r in rows if any(r)]
    rank = 0
    cols = len(rows[0]) if rows else 0
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] % p), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = pow(rows[r][c], p - 2, p)
        rows[r] = [(x * inv) % p for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] % p:
                f = rows[i][c]
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[r])]
        r += 1
        rank += 1
        if r == len(rows):
            break
    return rank


def _item_intersection_example(fx, cap):
    s = fx.load("intersection.alg")
    P = amalgam_present(s.get("W24", "amalgam"), cap)
    K = [format_poly(g, signed=True) for g in P.K.elements]
    if K != ["x*z1 - z1^2", "x*z2 - z1*z2"]:
        return False
    if not P.certificate.is_certified():
        return False
    rep = classify(P.ring, degree_cap=cap)
    return rep.dim == 2 and rep.depth == 1 and not rep.is_cm


def _item_cm_transfer(fx, cap):
    for spec, Jmod in fx.cm_family():
        P = amalgam_present(spec, cap)
        if not P.certificate.is_certified():
            return False
        left = classify(P.ring, degree_cap=cap).is_cm
        cm_A = classify(spec.A, degree_cap=cap).is_cm
        dim_A = krull_dim(spec.A, cap)
        right = cm_A and depth_ab(Jmod, cap) == dim_A
        if left != right:
            return False
    return True


def _item_canonical_gorenstein(fx, cap):
    s = fx.load("gorenstein.alg")
    A0 = s.get("A0", "ring")
    rep0 = classify(A0, degree_cap=cap)
    if not (rep0.is_cm and not rep0.is_gorenstein and rep0.type == 2):
        return False
    w = canonical_module(A0, cap)
    if len(w.twists) != socle_dimension(A0):
        return False
    P = amalgam_present(s.get("G", "amalgam"), cap)
    rep = classify(P.ring, degree_cap=cap)
    return P.certificate.is_certified() and rep.is_gorenstein and rep.type == 1


def _item_depth_minimum(fx, cap):
    for spec, Jmod in fx.cm_family():
        P = amalgam_present(spec, cap)
        pres = P.ring
        if depth_ab(pres, cap) != min(depth_ab(spec.A, cap), depth_ab(Jmod, cap)):
            return False
        if krull_dim(pres, cap) != krull_dim(spec.A, cap):
            return False
    return True


def _item_hom_into(fx, cap):
    s = fx.load("cm_family.alg")
    # duplication along (x): Hom(A, R) matches the contracted ideal
    spec = s.get("DupX", "amalgam")
    P = amalgam_present(spec, cap)
    h = hom_A_into_R(P, cap)
    if hilbert_series(h, cap) != hilbert_series(spec.J, cap):
        return False
    # square-zero case: Hom(A, R) matches Ann(J) + J with Ann = 0
    spec = s.get("TrivA", "amalgam")
    P = amalgam_present(spec, cap)
    h = hom_A_into_R(P, cap)
    return hilbert_series(h, cap) == hilbert_series(spec.J, cap)


def _item_dimension_dichotomy(fx, cap):
    s = fx.load("dichotomy.alg")
    P1 = amalgam_present(s.get("TrivK", "amalgam"), cap)
    rep1 = classify(P1.ring, degree_cap=cap)
    if not (rep1.is_generalized_cm and not rep1.is_cm):
        return False
    P2 = amalgam_present(s.get("TrivLine", "amalgam"), cap)
    rep2 = classify(P2.ring, degree_cap=cap)
    return not rep2.is_generalized_cm


def _item_serre_conditions(fx, cap):
    s = fx.load("serre.alg")
    two_planes = s.get("TwoPlanes", "ring")
    rep = classify(two_planes, assume_equidimensional=True, degree_cap=cap)
    if rep.serre_level != 1:
        return False
    for name in ["Hyper", "A0", "Poly"]:
        ring = s.get(name, "ring")
        rep = classify(ring, assume_equidimensional=True, degree_cap=cap)
        if not rep.is_cm or rep.serre_level != 4:
            return False
    return True


def _item_finite_spectrum(fx, cap):
    s = fx.load("finite.alg")
    for name in ["W6", "W84", "WP"]:
        W = s.get(name, "famalgam")
        if W.order != W.A.n * len(W.J):
            return False
        _, verdict, _ = classify_primes(W)
        if not verdict:
            return False
    # J = 0 degenerates to A itself, up to relabeling
    W0 = s.get("W0", "famalgam")
    _, v0, _ = classify_primes(W0)
    return v0 and find_isomorphism(W0.ring, W0.A) is not None


def _item_square_zero(fx, cap):
    s = fx.load("cm_family.alg")
    spec = s.get("TrivA", "amalgam")
    P = amalgam_present(spec, cap)
    K = [format_poly(g, signed=True) for g in P.K.elements]
    rep = classify(P.ring, degree_cap=cap)
    if K != ["z1^2"] or not rep.is_quasi_gorenstein or not rep.is_gorenstein:
        return False
    zz = P.ring.reduce(P.z_polys()[0] ** 2)
    if not zz.is_zero():
        return False
    # mutate the square-zero relation to a cube: the ring no longer passes
    # either trivial-extension check (certificate or J^2-visibility)
    amb = P.ambient
    mutated = PresentedRing(amb, [P.z_polys()[0] ** 3], cap)
    hs_target = hilbert_series(spec.A, cap) + hilbert_series(spec.J, cap)
    still_certified = hilbert_series(mutated, cap) == hs_target
    square_visible = mutated.reduce(P.z_polys()[0] ** 2).is_zero()
    return not still_certified and not square_visible


_HARNESS_ITEMS = [
    ("intersection-example", _item_intersection_example),
    ("cm-transfer", _item_cm_transfer),
    ("canonical-gorenstein", _item_canonical_gorenstein),
    ("depth-minimum", _item_depth_minimum),
    ("hom-into-identities", _item_hom_into),
    ("dimension-dichotomy", _item_dimension_dichotomy),
    ("serre-conditions", _item_serre_conditions),
    ("finite-spectrum", _item_finite_spectrum),
    ("square-zero-closure", _item_square_zero),
]

ROBUSTNESS_PRIME = 32003


def run_harness(prime, degree_cap=DEFAULT_DEGREE_CAP):
    """Run every harness item at the given prime; list of (name, ok).

    The items share one `_Fixtures`, which dies with the call."""
    fx = _Fixtures(prime, degree_cap)
    results = []
    for name, fn in _HARNESS_ITEMS:
        try:
            ok = bool(fn(fx, degree_cap))
        except AlgebraError:
            ok = False
        results.append((name, ok))
    return results


def verify_paper(degree_cap=DEFAULT_DEGREE_CAP):
    report = cli.Report()
    first = run_harness(DEFAULT_PRIME, degree_cap)
    second = run_harness(DEFAULT_PRIME, degree_cap)
    robust = run_harness(ROBUSTNESS_PRIME, degree_cap)
    for name, ok in first:
        report.add(name, "PASS" if ok else "FAIL")
    deterministic = first == second
    report.add("determinism", "PASS" if deterministic else "FAIL")
    robust_ok = [ok for _, ok in first] == [ok for _, ok in robust]
    report.add("characteristic-robustness", "PASS" if robust_ok else "FAIL")
    all_ok = all(ok for _, ok in first) and deterministic and robust_ok
    report.add("result", "PASS" if all_ok else "FAIL")
    report.status = 0 if all_ok else 1
    return report
