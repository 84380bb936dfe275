"""Job lists of the four workloads, and the checks on each job's output.

A job is one `amalgams FILE CMD` invocation.  Inputs exist only as `.alg`
declaration text: fixed rungs are literal text, seeded extras are drawn
from `random.Random(seed)`.  Every job of a workload has a distinct input,
so a cache kept across calls can hit only inside one job, except in
`verify-paper`.  README.md in this directory says why each workload exists.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

P = 101
WORKLOADS = ("present", "classify", "verify-paper", "finite")


@dataclass(frozen=True)
class Job:
    """One CLI invocation: `amalgams [options] [FILE] command...`.

    `text` is the declaration file (None for `verify-paper`).  `fixed` jobs
    are compared line for line against the outputs recorded in
    expected.json; every job also runs its independent `checks`, each a
    callable (exit_code, stdout_lines) -> error message or None.
    """

    name: str
    command: tuple
    text: str | None = None
    options: tuple = ()
    fixed: bool = True
    checks: tuple = ()

    def argv(self, path):
        if self.text is None:
            return list(self.options) + list(self.command)
        return list(self.options) + [path] + list(self.command)


# ---------------------------------------------------------------------------
# Independent output checks.  They never call into the package.


def fields(lines):
    out = {}
    for line in lines:
        key, sep, value = line.partition(" = ")
        if sep:
            out[key] = value
    return out


def exit_code(expected):
    def check(rc, lines):
        if rc != expected:
            return f"exit code {rc}, expected {expected}"
        return None

    return check


def line(key, value):
    def check(rc, lines):
        got = fields(lines).get(key)
        if got != str(value):
            return f"{key} = {got}, expected {value}"
        return None

    return check


def classify_consistent(nvars):
    """Relations every classify report must satisfy, for a ring in `nvars`
    variables with a nonzero defining ideal."""

    def check(rc, lines):
        f = fields(lines)
        try:
            dim, depth, rtype = int(f["dim"]), int(f["depth"]), int(f["type"])
            betti = [int(b) for b in f["betti"].split(";")]
            cm, gor = f["cm"] == "true", f["gorenstein"] == "true"
        except (KeyError, ValueError):
            return "classify report incomplete"
        if not 0 <= depth <= dim < nvars:
            return f"expected 0 <= depth <= dim < {nvars}: {depth}, {dim}"
        if cm != (depth == dim):
            return "cm disagrees with depth = dim"
        if len(betti) - 1 != nvars - depth:
            return "projective dimension breaks Auslander-Buchsbaum"
        if betti[0] != 1 or betti[-1] != rtype:
            return "betti numbers disagree with the type"
        if sum((-1) ** i * b for i, b in enumerate(betti)) != 0:
            return "alternating Betti sum of a proper quotient is not 0"
        if gor and not (cm and rtype == 1):
            return "gorenstein without cm and type 1"
        return None

    return check


def monomial_dim(nvars, supports):
    """Krull dimension of k[x]/(monomials): the largest variable set that
    contains the support of no generator."""
    for size in range(nvars, -1, -1):
        for subset in itertools.combinations(range(nvars), size):
            if not any(s <= set(subset) for s in supports):
                return size
    return 0


# ---------------------------------------------------------------------------
# Declaration text.


def _vars(names, weights=None):
    if weights is None:
        return ", ".join(names)
    return ", ".join(f"{v}:{w}" if w != 1 else v for v, w in zip(names, weights))


def dup_text(names, ring_gens, ideal_gens, weights=None):
    ring = f"ring A vars {_vars(names, weights)}"
    if ring_gens:
        ring += " ideal: " + ", ".join(ring_gens)
    return (
        f"field p={P}\n{ring}\n"
        f"ideal I in A : {', '.join(ideal_gens)}\n"
        "duplication W : A, I\n"
    )


def ring_text(names, gens, weights=None):
    return f"field p={P}\nring W vars {_vars(names, weights)} ideal: {', '.join(gens)}\n"


# ---------------------------------------------------------------------------
# Fixed rungs.

X2, X3, X4 = ["x1", "x2"], ["x1", "x2", "x3"], ["x1", "x2", "x3", "x4"]
CUBIC = ["a*c - b^2", "a*d - b*c", "b*d - c^2"]

GORENSTEIN_TRIVEXT = (
    f"field p={P}\nring A0 vars x, y ideal: x^2, x*y, y^2\n"
    "trivext G : A0, module canonical\n"
)
INTERSECTION = (
    f"field p={P}\nring A vars x\nring B vars X, Y\n"
    "hom f A -> B : x -> X\nideal J in B : X, Y\namalgam W : f, J\n"
)
LINE_TO_SPACE = (
    f"field p={P}\nring A vars x\nring B vars X, Y, Z\n"
    "hom f A -> B : x -> X\nideal J in B : X, Y, Z\namalgam W : f, J\n"
)
# k[x,y,z] in weight 2 onto the even part of k[s,t]; the only rung whose
# kernel_of_map does real elimination.  The odd part of degree 4 of J, such
# as s^3*t, is out of reach of f(A) and the z's, so the certificate is
# NotSurjective with witness degree 4 and the command exits 1.
VERONESE = (
    f"field p={P}\nring A vars x:2, y:2, z:2\nring B vars s, t\n"
    "hom f A -> B : x -> s^2, y -> s*t, z -> t^2\n"
    "ideal J in B : s^3, t^3\namalgam W : f, J\n"
)
SERRE = (
    f"field p={P}\n"
    "ring TwoPlanes vars a, b, c, d ideal: a*c, a*d, b*c, b*d\n"
    "ring Hyper vars x, z ideal: z^2 - x*z\n"
    "ring A0 vars x, y ideal: x^2, x*y, y^2\n"
    "ring Poly vars x, y\n"
)

CERTIFIED = (exit_code(0), line("certificate", "Certified"))

PRESENT_FIXED = [
    Job("dup-k2-m", ("present", "W"), dup_text(X2, [], X2), checks=CERTIFIED),
    Job("dup-k3-m", ("present", "W"), dup_text(X3, [], X3), checks=CERTIFIED),
    Job("dup-k3-squares", ("present", "W"),
        dup_text(X3, [], ["x1^2", "x2^2", "x3^2"]), checks=CERTIFIED),
    Job("dup-k4-x123", ("present", "W"), dup_text(X4, [], X3), checks=CERTIFIED),
    Job("dup-cubic-cone-ab", ("present", "W"),
        dup_text(["a", "b", "c", "d"], CUBIC, ["a", "b"]), checks=CERTIFIED),
    Job("veronese-s3t3", ("present", "W"), VERONESE,
        checks=(exit_code(1), line("certificate", "NotSurjective(witness degree 4)"))),
    Job("intersection-W24", ("present", "W"), INTERSECTION, checks=CERTIFIED),
    Job("line-to-3-space", ("present", "W"), LINE_TO_SPACE, checks=CERTIFIED),
    Job("trivext-A0-omega", ("present", "G"), GORENSTEIN_TRIVEXT, checks=CERTIFIED),
]

# Presentation ideals K of duplications, as `present` prints them at the
# seed commit, declared directly as rings; dim C/K = dim A.
K_DUP_K2_M = ["x1*z1 - z1^2", "x2*z1 - z1*z2", "x1*z2 - z1*z2", "x2*z2 - z2^2"]
K_DUP_K2_SQ = ["x1^2*z1 - z1^2", "x2^2*z1 - z1*z2", "x1^2*z2 - z1*z2", "x2^2*z2 - z2^2"]
K_DUP_K3_M = [
    "x1*z1 - z1^2", "x2*z1 - z1*z2", "x3*z1 - z1*z3", "x1*z2 - z1*z2", "x2*z2 - z2^2",
    "x3*z2 - z2*z3", "x1*z3 - z1*z3", "x2*z3 - z2*z3", "x3*z3 - z3^2",
]
K_DUP_K3_SQ = [
    "x1^2*z1 - z1^2", "x2^2*z1 - z1*z2", "x3^2*z1 - z1*z3", "x1^2*z2 - z1*z2",
    "x2^2*z2 - z2^2", "x3^2*z2 - z2*z3", "x1^2*z3 - z1*z3", "x2^2*z3 - z2*z3",
    "x3^2*z3 - z3^2",
]
K_DUP_CUBIC = [
    "b^2 - a*c", "b*c - a*d", "c^2 - b*d", "a*z1 - z1^2", "b*z1 - z1*z2",
    "c*z1 - z2^2", "d*z1 - c*z2", "a*z2 - z1*z2", "b*z2 - z2^2",
]


def _k_job(name, names, weights, gens, dim):
    return Job(
        name, ("classify", "W"), ring_text(names, gens, weights),
        checks=(exit_code(0), line("dim", dim), classify_consistent(len(names))),
    )


def _serre_job(ring, nvars):
    checks = [exit_code(0), line("serre", "S4") if ring != "TwoPlanes" else line("serre", "S1")]
    if ring != "Poly":  # k[x, y] has the zero defining ideal
        checks.append(classify_consistent(nvars))
    return Job(f"serre-{ring}", ("classify", ring), SERRE,
               options=("--assume-equidim", ring), checks=tuple(checks))


CLASSIFY_FIXED = [
    _k_job("K-dup-k2-m", X2 + ["z1", "z2"], None, K_DUP_K2_M, 2),
    _k_job("K-dup-k2-squares", X2 + ["z1", "z2"], [1, 1, 2, 2], K_DUP_K2_SQ, 2),
    _k_job("K-dup-k3-m", X3 + ["z1", "z2", "z3"], None, K_DUP_K3_M, 3),
    _k_job("K-dup-k3-squares", X3 + ["z1", "z2", "z3"], [1, 1, 1, 2, 2, 2],
           K_DUP_K3_SQ, 3),
    _k_job("K-dup-cubic-cone-ab", ["a", "b", "c", "d", "z1", "z2"], None, K_DUP_CUBIC, 2),
    _serre_job("TwoPlanes", 4),
    _serre_job("Hyper", 2),
    _serre_job("A0", 2),
    _serre_job("Poly", 2),
]

VERIFY_FIXED = [
    Job("verify-paper", ("verify-paper",), checks=(exit_code(0), line("result", "PASS"))),
]

# Finite amalgams, checked by exhaustive enumeration of ideals.  Z/n is
# declared with its elements 0..n-1; an ideal lists all its elements.

FINITE_CHECKS = (exit_code(0), line("classification", "match"), line("cardinality", "ok"))


def _prime_divisors(n):
    return [q for q in range(2, n + 1) if n % q == 0 and all(q % r for r in range(2, q))]


def _z_ideal(n, d):
    return sorted({d * k % n for k in range(n)})


def _finite_job(n, m, d):
    """`finite check` on Z/n -> Z/m (reduction mod m; the identity when
    m = n) along J = (d) in Z/m.  Spec of the amalgam is Spec Z/n together
    with the primes of Z/m that do not contain J, so the prime count is
    known without the package, as is the order n * |J|."""
    J = _z_ideal(m, d)
    if m == n:
        name, decl = f"fin-dup-z{n}-{d}", f"zring Z{n} n={n}\n"
    else:
        name, decl = f"fin-red-z{n}-z{m}-{d}", f"zring Z{n} n={n}\nzring Z{m} n={m}\n"
    text = (
        decl + f"fhom f Z{n} -> Z{m} : {', '.join(str(i % m) for i in range(n))}\n"
        f"fideal J in Z{m} : {', '.join(map(str, J))}\nfamalgam W : f, J\n"
    )
    primes = len(_prime_divisors(n)) + sum(1 for q in _prime_divisors(m) if d % q)
    return Job(name, ("finite", "check", "W"), text, checks=FINITE_CHECKS + (
        line("order", n * len(J)), line("primes", primes)))


# The declarations of the package's finite.alg fixture.
FINITE_FIXTURE = """\
zring Z6 n=6
fhom id6 Z6 -> Z6 : 0, 1, 2, 3, 4, 5
fideal J3 in Z6 : 0, 3
famalgam W6 : id6, J3
zring Z8 n=8
zring Z4 n=4
fhom red Z8 -> Z4 : 0, 1, 2, 3, 0, 1, 2, 3
fideal J2 in Z4 : 0, 2
famalgam W84 : red, J2
zring Z2 n=2
product P42 = Z4 x Z2
fhom idp P42 -> P42 : 0, 1, 2, 3, 4, 5, 6, 7
fideal JP in P42 : 0, 4
famalgam WP : idp, JP
fideal J0 in Z6 : 0
famalgam W0 : id6, J0
"""

FINITE_FIXED = [
    _finite_job(12, 12, 6),
    _finite_job(18, 18, 6),
    _finite_job(30, 30, 15),
    _finite_job(60, 60, 30),
    _finite_job(24, 12, 6),
    _finite_job(48, 24, 12),
] + [
    Job(f"fin-fixture-{w}", ("finite", "check", w), FINITE_FIXTURE, checks=FINITE_CHECKS)
    for w in ("W6", "W84", "WP", "W0")
]

# ---------------------------------------------------------------------------
# Seeded extras.  Each family keeps the shape of its inputs fixed and draws
# coefficients, variable orders or rings at random, so that the seed moves
# the inputs but hardly the work of a pass.


def _coef(rng):
    return rng.randrange(1, P)


def _linear(rng, names):
    return " + ".join(f"{_coef(rng)}*{v}" for v in names)


def _monomial(rng, names, deg):
    exps = [0] * len(names)
    for _ in range(deg):
        exps[rng.randrange(len(names))] += 1
    return tuple(exps)


def _mono_text(names, exps):
    return "*".join(v if e == 1 else f"{v}^{e}" for v, e in zip(names, exps) if e)


def _invertible(rng, size):
    while True:
        rows = [[rng.randrange(P) for _ in range(size)] for _ in range(size)]
        if _det_mod_p(rows):
            return rows


def _det_mod_p(rows):
    rows = [list(r) for r in rows]
    det = 1
    for c in range(len(rows)):
        piv = next((r for r in range(c, len(rows)) if rows[r][c] % P), None)
        if piv is None:
            return 0
        if piv != c:
            rows[c], rows[piv] = rows[piv], rows[c]
            det = -det
        det = det * rows[c][c] % P
        inv = pow(rows[c][c], P - 2, P)
        for r in range(c + 1, len(rows)):
            f = rows[r][c] * inv % P
            rows[r] = [(a - f * b) % P for a, b in zip(rows[r], rows[c])]
    return det % P


def _surjective_amalgam(rng):
    """k[x1,x2] -> k[y1,y2,y3] by independent linear forms, J = (the third
    form, a random quadric): f(A) + J = B, so the answer is Certified."""
    ys = ["y1", "y2", "y3"]
    forms = [" + ".join(f"{c}*{y}" for c, y in zip(row, ys) if c) for row in _invertible(rng, 3)]
    quad = " + ".join(
        f"{_coef(rng)}*{_mono_text(ys, _monomial(rng, ys, 2))}" for _ in range(2)
    )
    return (
        f"field p={P}\nring A vars x1, x2\nring B vars {', '.join(ys)}\n"
        f"hom f A -> B : x1 -> {forms[0]}, x2 -> {forms[1]}\n"
        f"ideal J in B : {forms[2]}, {quad}\namalgam W : f, J\n"
    )


def present_extras(rng):
    jobs = []
    for i in range(2):  # f = id, so f(A) + J = B: always Certified
        text = dup_text(X3, [], [_linear(rng, X3), _linear(rng, X3)])
        jobs.append(Job(f"x-dup-k3-linear-{i}", ("present", "W"), text, fixed=False,
                        checks=CERTIFIED))
    for i in range(2):
        jobs.append(Job(f"x-surjective-{i}", ("present", "W"), _surjective_amalgam(rng),
                        fixed=False, checks=CERTIFIED))
    return jobs


# Exponent vectors of the seeded classify rings.  The seed permutes the
# variables of the monomial ideals and draws the coefficients of the
# binomials, so the inputs move with the seed while the shape of the ideal,
# and with it the work, stays the same.  (Permuting the variables of a
# binomial ideal changes which term leads, and the work with it.)
MONOMIAL_SHAPES = {
    3: [(2, 0, 0), (1, 1, 0), (0, 1, 1)],
    5: [(2, 0, 0, 0, 0), (0, 1, 1, 0, 0), (0, 0, 0, 1, 1)],
}
BINOMIAL_SHAPES = {
    4: [((2, 0, 0, 0), (0, 1, 1, 0)), ((0, 1, 0, 1), (0, 0, 2, 0))],
    5: [((1, 1, 0, 0, 0), (0, 0, 2, 0, 0)), ((0, 0, 0, 2, 0), (1, 0, 0, 0, 1))],
}


def _permuted(rng, nvars):
    """The variable names x1..xn and a random permutation of them."""
    names = [f"x{i}" for i in range(1, nvars + 1)]
    return names, rng.sample(names, nvars)


def _monomial_ideal(rng, nvars):
    names, perm = _permuted(rng, nvars)
    gens = [_mono_text(perm, exps) for exps in MONOMIAL_SHAPES[nvars]]
    supports = [{names.index(perm[i]) for i, e in enumerate(exps) if e}
                for exps in MONOMIAL_SHAPES[nvars]]
    return ring_text(names, gens), monomial_dim(nvars, supports)


def _binomial_ideal(rng, nvars):
    names = [f"x{i}" for i in range(1, nvars + 1)]
    gens = [f"{_mono_text(names, a)} - {_coef(rng)}*{_mono_text(names, b)}"
            for a, b in BINOMIAL_SHAPES[nvars]]
    return ring_text(names, gens)


def classify_extras(rng):
    jobs = []
    for nvars in sorted(MONOMIAL_SHAPES):
        text, dim = _monomial_ideal(rng, nvars)
        jobs.append(Job(f"x-monomial-{nvars}", ("classify", "W"), text, fixed=False,
                        checks=(exit_code(0), line("dim", dim), classify_consistent(nvars))))
    for nvars in sorted(BINOMIAL_SHAPES):
        jobs.append(Job(f"x-binomial-{nvars}", ("classify", "W"), _binomial_ideal(rng, nvars),
                        fixed=False, checks=(exit_code(0), classify_consistent(nvars))))
    return jobs


def build(workload, seed):
    """The job list of one workload for one seed."""
    rng = random.Random(seed)
    if workload == "present":
        return PRESENT_FIXED + present_extras(rng)
    if workload == "classify":
        return CLASSIFY_FIXED + classify_extras(rng)
    if workload == "verify-paper":
        return list(VERIFY_FIXED)
    if workload == "finite":
        return list(FINITE_FIXED)
    raise ValueError(f"unknown workload {workload!r}")


def all_fixed():
    return PRESENT_FIXED + CLASSIFY_FIXED + VERIFY_FIXED + FINITE_FIXED
