"""Prime-field coefficients and sparse weighted multivariate polynomials.

Coefficients live in GF(p) and are stored as least non-negative residues.
A polynomial's monomials are dense exponent tuples; each polynomial carries
a reference to its ambient ring context (variable names, weights, field,
degree cap, packed layout).  All values are immutable after construction.
`grevlex_key` is the package's one definition of the weighted grevlex
order on exponent tuples, and `format_poly` sorts terms by it.

The module vectors of `amalgams.modules` store their monomials packed,
one int each, in the ring's `PackedLayout`; `modules.ModOrder` orders
packed monomials as `grevlex_key` orders tuples.
"""

from __future__ import annotations

import re
from operator import add, mul
from struct import Struct

from .errors import (
    ContextMismatch,
    DegreeCapExceeded,
    InvalidRing,
    NotPrime,
    ParseError,
    ZeroInverse,
)

DEFAULT_PRIME = 101
DEFAULT_DEGREE_CAP = 64


def is_prime(n):
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


class PrimeField:
    """Arithmetic in GF(p) on plain integer residues."""

    def __init__(self, p):
        if not (2 <= p < 2**31) or not is_prime(p):
            raise NotPrime(f"{p} is not a prime in [2, 2^31)")
        self.p = p

    def __eq__(self, other):
        return isinstance(other, PrimeField) and self.p == other.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def __repr__(self):
        return f"GF({self.p})"

    def normalize(self, a):
        return a % self.p

    def inverse(self, a):
        a %= self.p
        if a == 0:
            raise ZeroInverse("0 has no inverse")
        return pow(a, self.p - 2, self.p)


# ---------------------------------------------------------------------------
# The term order.


def grevlex_key(expts, weights):
    """Negated weighted grevlex key: the bigger monomial has the smaller key
    (higher weighted degree, then the smaller exponent on the last variable
    where two monomials differ)."""
    return (-sum(map(mul, expts, weights)), *expts[::-1])


# ---------------------------------------------------------------------------
# The packed layout of module vectors' monomials.

PACKED_DEGREE_BOUND = 1 << 29


def check_packed_degree(degree):
    """Raise `DegreeCapExceeded` for a weighted degree past the packed
    layout: a monomial of degree at least `PACKED_DEGREE_BOUND`."""
    if degree >= PACKED_DEGREE_BOUND:
        raise DegreeCapExceeded(
            f"intermediate degree {degree} exceeds the packed exponent bound "
            f"{PACKED_DEGREE_BOUND - 1}"
        )


class PackedLayout:
    """A ring's monomials packed into one int each, the form every
    `modules.ModVec` stores them in.

    Variable i takes field i, `field` bits wide, from the low end, and the
    weighted degree sits above all the fields, from bit `shift` on.  The
    top bit of each field is a guard bit (`guard` has them all).  A packed
    monomial keeps its weighted degree, hence every exponent, below
    `PACKED_DEGREE_BOUND` = 2^29: `pack` refuses anything else, and the
    engine checks every product it forms (`modules._reduce`).  So on the
    whole int a product is a + b and a quotient b - a, degree included, a
    sum of two packed monomials leaves every guard bit clear, and a
    divides b exactly when b - a borrows into no guard bit.

    The weighted degree of the lcm of two packed monomials is read by one
    multiply with the weights packed in reverse (`low_degree`), whose
    fields reach (largest weight) * 2^30.  So the field width is 32 bits
    when every weight is at most 3, and 64 bits otherwise; a weight of
    2^29 or more counts as 0 in that multiply, since its variable occurs
    in no packed monomial.  Whole bytes per field let `pack` and `unpack`
    go through `struct`.

    Packed ints order as the tuples do only through `modules.ModOrder`;
    sorted as ints they compare the last variable first.
    """

    def __init__(self, weights):
        n = len(weights)
        self.weights = weights
        self.field = 32 if max(weights, default=1) <= 3 else 64
        self._fields = Struct(f"<{n}{'I' if self.field == 32 else 'Q'}")
        self.shift = n * self.field
        self._low = (1 << self.shift) - 1
        self._mask = (1 << self.field) - 1
        # one bit at the base of every field, then the top bit of each
        ones = self._low // self._mask
        self.guard = ones << (self.field - 1)
        light = [w if w < PACKED_DEGREE_BOUND else 0 for w in weights]
        self._reversed_weights = int.from_bytes(
            self._fields.pack(*light[::-1]), "little"
        )
        self._degree_at = self.shift - self.field

    def pack(self, expts):
        """The packed form of an exponent tuple."""
        degree = sum(map(mul, expts, self.weights))
        check_packed_degree(degree)
        fields = int.from_bytes(self._fields.pack(*expts), "little")
        return fields | (degree << self.shift)

    def unpack(self, mono):
        """The exponent tuple of a packed monomial."""
        fields = (mono & self._low).to_bytes(self._fields.size, "little")
        return self._fields.unpack(fields)

    def divides(self, a, b):
        """True when the packed monomial a divides b."""
        return not (b - a) & self.guard

    def low_degree(self, low):
        """Weighted degree of the fields `low`, with no degree above them,
        whose exponents sum to less than 2^30 (as those of the lcm of two
        packed monomials do): one multiply, read at the last variable's
        field, which no lower field carries into."""
        return (low * self._reversed_weights >> self._degree_at) & self._mask

    def lcm(self, a, b):
        """The lcm of two packed monomials: each field of a where it is at
        least b's (its guard bit survives (a | guard) - b), of b elsewhere."""
        ge = ((a | self.guard) - b) & self.guard
        take_a = ge - (ge >> (self.field - 1))
        low = (b ^ ((a ^ b) & take_a)) & self._low
        return low | (self.low_degree(low) << self.shift)


# ---------------------------------------------------------------------------
# Ring context and polynomials.


class PolyRing:
    """Ambient context: GF(p), variable names, positive integer weights and
    the degree cap, the largest monomial degree a Groebner computation over
    the ring may reach before it raises `DegreeCapExceeded` (None: no cap).
    Like the field, the cap is part of the context: rings that differ only
    in their caps are different rings.  `layout` is the `PackedLayout` of
    the ring's module vectors."""

    def __init__(self, p, names, weights=None, degree_cap=DEFAULT_DEGREE_CAP):
        self.field = p if isinstance(p, PrimeField) else PrimeField(p)
        self.degree_cap = degree_cap
        self.names = tuple(names)
        if weights is None:
            weights = (1,) * len(self.names)
        self.weights = tuple(int(w) for w in weights)
        if len(self.weights) != len(self.names):
            raise InvalidRing("one weight per variable")
        if any(w < 1 for w in self.weights):
            raise InvalidRing("weights must be positive")
        if len(set(self.names)) != len(self.names):
            raise InvalidRing("duplicate variable names")
        self.nvars = len(self.names)
        self._index = {n: i for i, n in enumerate(self.names)}
        self.layout = PackedLayout(self.weights)

    @property
    def p(self):
        return self.field.p

    def with_variables(self, names, weights):
        """A ring on other variables, with this ring's field and degree cap."""
        return PolyRing(self.field, names, weights, self.degree_cap)

    def __eq__(self, other):
        return (
            isinstance(other, PolyRing)
            and self.field == other.field
            and self.names == other.names
            and self.weights == other.weights
            and self.degree_cap == other.degree_cap
        )

    def __hash__(self):
        return hash((self.field, self.names, self.weights, self.degree_cap))

    def __repr__(self):
        vs = ", ".join(
            n if w == 1 else f"{n}:{w}" for n, w in zip(self.names, self.weights)
        )
        cap = self.degree_cap
        return f"GF({self.p})[{vs}]" + (
            "" if cap == DEFAULT_DEGREE_CAP else f" (degree cap {cap})"
        )

    # -- monomial helpers (exponent tuples) --

    def mono_degree(self, expts):
        return sum(map(mul, expts, self.weights))

    def one_mono(self):
        return (0,) * self.nvars

    # -- polynomial constructors --

    def zero(self):
        return Polynomial(self, {})

    def one(self):
        return self.const(1)

    def const(self, c):
        return self.monomial(self.one_mono(), c)

    def var(self, name):
        i = self._index[name]
        e = [0] * self.nvars
        e[i] = 1
        return Polynomial(self, {tuple(e): 1})

    def embed(self, f):
        """f, a polynomial of a ring whose variables are this ring's first
        ones, as a polynomial of this ring: the others get exponent 0."""
        tail = (0,) * (self.nvars - f.ring.nvars)
        return Polynomial(self, {m + tail: c for m, c in f.terms.items()})

    def monomial(self, expts, coeff=1):
        expts = tuple(int(e) for e in expts)
        if len(expts) != self.nvars or any(e < 0 for e in expts):
            raise ValueError("bad exponent vector")
        c = self.field.normalize(coeff)
        return Polynomial(self, {expts: c} if c else {})


class Polynomial:
    """Sparse polynomial: map from exponent tuple to nonzero residue."""

    __slots__ = ("ring", "terms", "_hash")

    def __init__(self, ring, terms):
        self.ring = ring
        self.terms = terms
        self._hash = None

    def __bool__(self):
        return bool(self.terms)

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.ring, frozenset(self.terms.items())))
        return self._hash

    def _check(self, other):
        if self.ring != other.ring:
            raise ContextMismatch(f"{self.ring} vs {other.ring}")

    def __add__(self, other):
        if isinstance(other, int):
            other = self.ring.const(other)
        self._check(other)
        p = self.ring.p
        terms = dict(self.terms)
        for m, c in other.terms.items():
            s = (terms.get(m, 0) + c) % p
            if s:
                terms[m] = s
            else:
                terms.pop(m, None)
        return Polynomial(self.ring, terms)

    __radd__ = __add__

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return self.ring.const(other) - self

    def __mul__(self, other):
        if isinstance(other, int):
            other = self.ring.const(other)
        self._check(other)
        p = self.ring.p
        terms = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = tuple(a + b for a, b in zip(m1, m2))
                s = (terms.get(m, 0) + c1 * c2) % p
                if s:
                    terms[m] = s
                else:
                    terms.pop(m, None)
        return Polynomial(self.ring, terms)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power")
        out = self.ring.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def scale(self, c):
        c = self.ring.field.normalize(c)
        if c == 0:
            return self.ring.zero()
        p = self.ring.p
        return Polynomial(self.ring, {m: (v * c) % p for m, v in self.terms.items()})

    def degree(self):
        """Maximal weighted degree among terms; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(self.ring.mono_degree(m) for m in self.terms)

    def is_homogeneous(self):
        degs = {self.ring.mono_degree(m) for m in self.terms}
        return len(degs) <= 1

    def __str__(self):
        return format_poly(self)

    def __repr__(self):
        return format_poly(self)


# ---------------------------------------------------------------------------
# Display and parsing.  Terms are sorted descending in grevlex order,
# `*` separates factors, exponents use `^`.  The default style prints
# coefficients as least non-negative residues; the signed style renders
# residues above p/2 with a minus sign, which is what the CLI reports use.


def _mono_str(ring, mono):
    parts = []
    for name, e in zip(ring.names, mono):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts)


def format_poly(f, signed=False):
    if f.is_zero():
        return "0"
    p = f.ring.p
    ws = f.ring.weights
    pieces = []
    terms = sorted(f.terms.items(), key=lambda mc: grevlex_key(mc[0], ws))
    for mono, coeff in terms:
        neg = False
        if signed and coeff > p // 2:
            neg = True
            coeff = p - coeff
        ms = _mono_str(f.ring, mono)
        if not ms:
            body = str(coeff)
        elif coeff == 1:
            body = ms
        else:
            body = f"{coeff}*{ms}"
        if not pieces:
            pieces.append(("-" if neg else "") + body)
        else:
            pieces.append(("- " if neg else "+ ") + body)
    return " ".join(pieces)


# One token per match, after any whitespace: a run of decimal digits, a
# word of letters, digits and `_`, an operator, or any other character.
# `\s`, `\d` and `\w` match what str.isspace, str.isdecimal and
# (str.isalnum or `_`) accept, so `int` reads every run of digits.
_TOKEN = re.compile(r"\s*(?:(\d+)|(\w+)|([-+*^()])|(\S))")


def is_name(text):
    """Whether `parse_poly` reads `text` as one variable name: a letter or
    `_`, then letters, digits or `_`."""
    return (text[:1].isalpha() or text[:1] == "_") and bool(re.fullmatch(r"\w+", text))


def _tokens(text):
    """The tokens of `text`, then None: ints, names, and the operators as
    one-character strings.  A word that starts with a digit `int` cannot
    read, like `²`, is a bad character."""
    toks = []
    for digits, word, op, other in _TOKEN.findall(text):
        if word and not (word[0].isalpha() or word[0] == "_"):
            other = word[0]
        if other:
            raise ParseError(f"bad character {other!r} in polynomial")
        toks.append(int(digits) if digits else word or op)
    toks.append(None)
    return toks


def _power(toks, at):
    """The exponent after the factor that ends before token `at`, the int
    after a `^` (None with no `^`), and the index of the token after it."""
    if toks[at] != "^":
        return None, at
    if type(toks[at + 1]) is not int:
        raise ParseError("expected integer exponent after '^'")
    return toks[at + 1], at + 2


def _sum(ring, toks, at):
    """The terms of the sum that starts at token `at`, as one dict, and the
    index of the first token after it.

    A term's numbers and variables, each with its power, multiply into one
    exponent list and one coefficient, and a minus, unary or between two
    terms, flips the coefficient's sign; only a parenthesised factor, with
    its power, is a `Polynomial`, and the factors of a term that has one
    multiply by its monomial last.  A `+` may open the sum."""
    p, index, nvars = ring.p, ring._index, ring.nvars
    terms = {}
    while True:
        if toks[at] == "+":
            at += 1
        expts, c, factors = [0] * nvars, 1, None
        while True:
            tok = toks[at]
            at += 1
            if tok == "-":
                c = -c
                continue
            if type(tok) is int:
                n, at = _power(toks, at)
                c = c * (tok if n is None else pow(tok, n, p)) % p
            elif tok == "(":
                inner, at = _sum(ring, toks, at)
                if toks[at] != ")":
                    raise ParseError("expected ')'")
                n, at = _power(toks, at + 1)
                f = Polynomial(ring, inner)
                if n is not None:
                    # f^n has degree n * deg f; expanding a sum of terms
                    # past the cap costs time and memory no computation uses
                    cap = ring.degree_cap
                    if len(f.terms) > 1 and cap is not None and n * f.degree() > cap:
                        raise DegreeCapExceeded(
                            f"intermediate degree {n * f.degree()} exceeds cap {cap}"
                        )
                    f = f**n
                factors = f if factors is None else factors * f
            elif tok is None or tok in "+*^)":
                raise ParseError(f"unexpected token {tok!r} in polynomial")
            elif tok in index:
                n, at = _power(toks, at)
                expts[index[tok]] += 1 if n is None else n
            else:
                raise ParseError(f"unknown variable {tok!r}")
            if toks[at] != "*":
                break
            at += 1
        c %= p
        if not c:
            product = {}
        elif factors is None:
            product = {tuple(expts): c}
        else:
            product = {
                tuple(map(add, m, expts)): v * c % p for m, v in factors.terms.items()
            }
        for m, v in product.items():
            s = (terms.get(m, 0) + v) % p
            if s:
                terms[m] = s
            else:
                del terms[m]
        if toks[at] not in ("+", "-"):
            return terms, at


def parse_poly(ring, text):
    """Parse the display syntax back into a Polynomial of `ring`, in one
    pass over the tokens of one regex (`_sum`)."""
    toks = _tokens(text)
    terms, at = _sum(ring, toks, 0)
    if toks[at] is not None:
        raise ParseError(f"trailing input in polynomial: {text!r}")
    return Polynomial(ring, terms)
