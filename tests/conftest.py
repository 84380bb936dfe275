"""Shared helpers: random polynomial generators, a degreewise
linear-algebra oracle over GF(p), and small builders of polynomials and
finite rings.

The oracle works degree by degree: the span of a homogeneous ideal in
degree d is the row space of all (monomial) x (generator) products of
that degree, so ranks and membership can be checked by Gaussian
elimination independently of any Groebner machinery.
"""

import random

import numpy as np
import pytest
from hypothesis import settings

from amalgams.errors import AlgebraError
from amalgams.finite import FiniteRing
from amalgams.poly import PolyRing, Polynomial, parse_poly
from oracles import (
    check_ring_axioms,
    grevlex_rank,
    parse_poly_arith,
    relabel_one,
    standard_monomials_filter,
)

# Reproducible property tests with no per-example deadline: example run
# times vary a lot on a loaded machine.
settings.register_profile("amalgams", derandomize=True, deadline=None)
settings.load_profile("amalgams")


def leading_term(f, rank=grevlex_rank):
    """(monomial, coefficient) of the largest term of the nonzero f under
    the order `rank` (exponents, weights) -> bigger for the bigger
    monomial, by `max` over its terms: the package keeps the leads its
    Groebner engine found and computes none this way."""
    ws = f.ring.weights
    m = max(f.terms, key=lambda mono: rank(mono, ws))
    return m, f.terms[m]


def from_terms(ring, terms):
    """The polynomial of `ring` with the (exponent tuple, coeff) terms."""
    acc = {}
    for expts, c in terms:
        expts = tuple(expts)
        acc[expts] = (acc.get(expts, 0) + c) % ring.p
    return Polynomial(ring, {m: c for m, c in acc.items() if c})


def parse_outcome(parse, ring, text):
    """What `parse` makes of `text`: the polynomial's (monomial, coeff)
    terms in their order, or the type and message of what it raised (a
    ValueError from `int` on a number of too many digits included)."""
    try:
        return list(parse(ring, text).terms.items())
    except (AlgebraError, ValueError) as exc:
        return type(exc), str(exc)


def parse_like_oracle(ring, text):
    """`parse_poly(ring, text)`, once the arithmetic oracle is seen to give
    the same terms in the same order, or to raise the same exception with
    the same message."""
    assert parse_outcome(parse_poly, ring, text) == parse_outcome(
        parse_poly_arith, ring, text
    ), text
    return parse_poly(ring, text)


def random_poly(ring, rng, max_degree=3, terms=4):
    out = ring.zero()
    for _ in range(terms):
        expts = tuple(rng.randrange(0, max_degree + 1) for _ in range(ring.nvars))
        out = out + ring.monomial(expts, rng.randrange(ring.p))
    return out


def monomials_of_degree(ring, d):
    """Every exponent tuple of the ring's weighted degree d, ascending."""
    return standard_monomials_filter(ring.weights, [], d)


def random_homogeneous(ring, rng, degree, terms=3):
    monos = monomials_of_degree(ring, degree)
    if not monos:
        return ring.zero()
    out = ring.zero()
    for _ in range(terms):
        out = out + ring.monomial(rng.choice(monos), rng.randrange(1, ring.p))
    return out


# ---------------------------------------------------------------------------
# GF(p) Gaussian elimination
# ---------------------------------------------------------------------------


def rref(rows, p):
    """Reduced row echelon form over GF(p); returns nonzero rows as tuples."""
    rows = [list(r) for r in rows]
    out = []
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
        if r == len(rows):
            break
    for row in rows[:r]:
        out.append(tuple(x % p for x in row))
    return out


def rank(rows, p):
    return len(rref(rows, p))


def poly_vector(f, basis_index):
    vec = [0] * len(basis_index)
    for mono, c in f.terms.items():
        vec[basis_index[mono]] = c
    return vec


def ideal_degree_rows(ring, gens, d):
    """Row vectors spanning the degree-d piece of the ideal (gens)."""
    basis = monomials_of_degree(ring, d)
    index = {m: i for i, m in enumerate(basis)}
    rows = []
    for g in gens:
        if g.is_zero():
            continue
        gd = g.degree()
        if gd > d:
            continue
        for m in monomials_of_degree(ring, d - gd):
            prod = ring.monomial(m, 1) * g
            rows.append(poly_vector(prod, index))
    if not rows:
        rows = [[0] * max(len(basis), 1)]
    return rows, index


def ideal_degree_dim(ring, gens, d):
    rows, _ = ideal_degree_rows(ring, gens, d)
    return rank(rows, ring.p)


def in_span(f, rows, index, p):
    """Membership of a homogeneous polynomial in a row space."""
    space = rref(rows, p)
    vec = poly_vector(f, index)
    augmented = rref(space + [tuple(vec)], p)
    return len(augmented) == len(space)


def oracle_member(ring, gens, f):
    """Ideal membership of a homogeneous f by degreewise linear algebra."""
    if f.is_zero():
        return True
    rows, index = ideal_degree_rows(ring, gens, f.degree())
    return in_span(f, rows, index, ring.p)


# ---------------------------------------------------------------------------
# Finite rings
# ---------------------------------------------------------------------------


def pair_index(A, B, a, b):
    """The label of (a, b) in the product ring A x B: the pair's index
    a*|B| + b, with the index of (1, 1) and the label 1 swapped."""
    raw, one = a * B.n + b, A.one * B.n + B.one
    if A.n * B.n > 1 and raw in (one, 1):
        return one + 1 - raw
    return raw


def quotient_ring(R, I):
    """R / I with cosets labeled by their smallest representative."""
    elems = sorted(I.elements)
    coset_of = {}
    reps = []
    for a in range(R.n):
        if a in coset_of:
            continue
        coset = sorted(int(R.add[a, i]) for i in elems)
        for c in coset:
            coset_of[c] = len(reps)
        reps.append(coset[0])
    add = np.array([[coset_of[int(R.add[x, y])] for y in reps] for x in reps])
    mul = np.array([[coset_of[int(R.mul[x, y])] for y in reps] for x in reps])
    return check_ring_axioms(FiniteRing(*relabel_one(add, mul, coset_of[R.one])))


@pytest.fixture
def rng():
    return random.Random(20260823)


@pytest.fixture
def kxy():
    return PolyRing(101, ["x", "y"])


@pytest.fixture
def kxyz():
    return PolyRing(101, ["x", "y", "z"])
