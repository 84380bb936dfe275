"""Exact rational Hilbert series.

A series is stored as numerator / product(1 - t^w) with an integer Laurent
polynomial numerator (dict degree -> coefficient) and a denominator that is
itself expanded to a Laurent polynomial.  Equality is decided by
cross-multiplication, so comparisons are exact rational-function identities.
The numerator of a monomial ideal (`monomial_kpoly`) is read off packed
monomials (`poly.PackedLayout`), the leads a Groebner basis keeps, with
no exponent tuple made.
"""

from __future__ import annotations


def lp_zero():
    return {}


def lp_const(c):
    return {0: c} if c else {}


def lp_monomial(d, c=1):
    return {d: c} if c else {}


def lp_add(a, b):
    out = dict(a)
    for d, c in b.items():
        s = out.get(d, 0) + c
        if s:
            out[d] = s
        else:
            out.pop(d, None)
    return out


def lp_neg(a):
    return {d: -c for d, c in a.items()}


def lp_sub(a, b):
    return lp_add(a, lp_neg(b))


def lp_mul(a, b):
    out = {}
    for d1, c1 in a.items():
        for d2, c2 in b.items():
            d = d1 + d2
            s = out.get(d, 0) + c1 * c2
            if s:
                out[d] = s
            else:
                out.pop(d, None)
    return out


def lp_str(a):
    if not a:
        return "0"
    parts = []
    for d in sorted(a):
        c = a[d]
        if d == 0:
            body = str(abs(c))
        else:
            t = "t" if d == 1 else f"t^{d}"
            body = t if abs(c) == 1 else f"{abs(c)}*{t}"
        if not parts:
            parts.append(("-" if c < 0 else "") + body)
        else:
            parts.append(("- " if c < 0 else "+ ") + body)
    return " ".join(parts)


def denominator_poly(weights):
    """Expanded product of (1 - t^w) over the given weights."""
    out = lp_const(1)
    for w in weights:
        out = lp_mul(out, lp_add(lp_const(1), lp_monomial(w, -1)))
    return out


def _order_at_one(a):
    """Multiplicity of t = 1 as a root of the nonzero Laurent polynomial a:
    the least k at which the k-th derivative of t^-min(a) * a is nonzero
    at 1, where its value is the sum of its coefficients.  Each derivative
    is taken term by term, so the degrees between the terms are never
    visited, and k stays below the number of terms."""
    low = min(a)
    a = {d - low: c for d, c in a.items()}
    k = 0
    while sum(a.values()) == 0:
        a = {d - 1: c * d for d, c in a.items() if d}
        k += 1
    return k


def monomial_kpoly(gens, layout):
    """Numerator of HS(S/I) over prod(1 - t^w) for a monomial ideal I.

    `gens` are packed monomials (`poly.PackedLayout` `layout`) generating
    I in S = k[x_1..x_n] with the layout's weights.  Bigatti's pivot
    recursion: for a pivot x_i^e the exact sequence 0 -> S/(I :
    x_i^e)(-e*w_i) -> S/I -> S/(I + x_i^e) -> 0 gives K(I) = K(I +
    (x_i^e)) + t^(e*w_i) * K(I : x_i^e).  The pivot variable is one
    occurring in the most generators and e is the lower median of its
    positive exponents; with at least two of them e lies below any pure
    power x_i^b in I, so both ideals grow strictly and the recursion ends.
    Once no two generators share a variable, K(I) is prod(1 - t^deg(m)).

    No monomial is unpacked.  The degree sits above the fields, so in
    ascending order a divisor comes before the monomials it divides, and
    the minimal generators are kept by one pass of guard-bit tests.  A
    field is nonzero exactly when adding 2^(field - 1) - 1 to it sets its
    guard bit, so one sum of those bits counts the generators in every
    variable at once.  The exponent at i is field i, the colon subtracts
    min(field i, e) times unit_i = x_i packed, and a degree is m >> shift.
    """
    field, shift, guard = layout.field, layout.shift, layout.guard
    mask = (1 << field) - 1
    minimal = []
    for m in sorted(set(gens)):
        if all((m - g) & guard for g in minimal):
            minimal.append(m)
    half = guard - (guard >> (field - 1))
    tally = sum(((m + half) & guard) >> (field - 1) for m in minimal)
    counts = [tally >> at & mask for at in range(0, shift, field)]
    i = max(range(len(counts)), key=counts.__getitem__, default=0)
    if not counts or counts[i] < 2:
        out = lp_const(1)
        for m in minimal:
            out = lp_mul(out, lp_sub(lp_const(1), lp_monomial(m >> shift)))
        return out
    at = i * field
    exps = sorted(e for e in (m >> at & mask for m in minimal) if e)
    e = exps[(len(exps) - 1) // 2]
    w = layout.weights[i]
    unit = (1 << at) + (w << shift)
    colon = [m - min(m >> at & mask, e) * unit for m in minimal]
    return lp_add(
        monomial_kpoly(minimal + [e * unit], layout),
        lp_mul(lp_monomial(e * w), monomial_kpoly(colon, layout)),
    )


class HilbertSeries:
    """numerator / denominator with integer Laurent polynomial parts.

    The denominator must have constant term 1 and no negative degree
    (products of 1 - t^w do), which makes power-series expansion well
    defined.
    """

    def __init__(self, numerator, denominator=None, weights=None):
        if denominator is None:
            denominator = denominator_poly(weights or [])
        self.num = dict(numerator)
        self.den = dict(denominator)
        if self.den.get(0) != 1 or min(self.den) < 0:
            raise ValueError("denominator must be a polynomial with constant term 1")

    def __add__(self, other):
        if self.den == other.den:
            return HilbertSeries(lp_add(self.num, other.num), self.den)
        return HilbertSeries(
            lp_add(lp_mul(self.num, other.den), lp_mul(other.num, self.den)),
            lp_mul(self.den, other.den),
        )

    def __neg__(self):
        return HilbertSeries(lp_neg(self.num), self.den)

    def __sub__(self, other):
        return self + -other

    def __eq__(self, other):
        if not isinstance(other, HilbertSeries):
            return NotImplemented
        return lp_mul(self.num, other.den) == lp_mul(other.num, self.den)

    def __hash__(self):
        raise TypeError("unhashable")

    def coefficients(self, upto):
        """Series coefficients in degrees min_deg..upto as a dict."""
        if not self.num:
            return {}
        lo = min(min(self.num), 0)
        coeffs = {}
        # c[d] satisfies sum_k den[k] * c[d-k] = num[d].
        for d in range(lo, upto + 1):
            s = self.num.get(d, 0)
            for k, dc in self.den.items():
                if k == 0:
                    continue
                s -= dc * coeffs.get(d - k, 0)
            if s:
                coeffs[d] = s
        return coeffs

    def first_difference(self, other):
        """Smallest degree where the two series differ, or None if equal.

        The difference is diff / (den * other.den), with diff the
        cross-multiplied numerator difference.  That denominator is a
        polynomial in t with constant term 1, so dividing by it keeps
        diff's trailing degree and trailing coefficient.
        """
        diff = lp_sub(lp_mul(self.num, other.den), lp_mul(other.num, self.den))
        return min(diff) if diff else None

    def dimension(self):
        """Order of the pole at t = 1, the Krull dimension of a graded
        module with this series; -1 for the zero series."""
        if not self.num:
            return -1
        return _order_at_one(self.den) - _order_at_one(self.num)

    def __repr__(self):
        return f"({lp_str(self.num)}) / ({lp_str(self.den)})"
