"""Prime spectra of finite commutative rings, read off their tables.

Finite rings are explicit addition/multiplication tables; amalgams are
built as literal subrings of a product ring, so every structural claim
is checked on the literal tables rather than symbolically: the
cardinality by counting the subring's elements, and the spectrum
classification by comparing W's primes, the maximal annihilators of its
elements, with the candidates pulled back from Spec(A) and Spec(B).
The tables are numpy arrays, and numpy is imported only by the code that
builds them, so the polynomial commands never load it.
"""

from __future__ import annotations

from itertools import compress
from operator import not_

from .errors import NotAHom, NotARing, SizeCap

SPECTRUM_SIZE_CAP = 4096


class FiniteRing:
    """Commutative unital ring on labels 0..n-1 with 0 = zero, 1 = one.

    The tables are taken as given: the package builds them by formula
    (`zmod`), componentwise (`ProductRing`) or as a closed subset of a
    product (`FiniteAmalgam`), so the axioms hold by construction.
    """

    def __init__(self, add, mul, name=None):
        import numpy as np

        self.add = np.asarray(add, dtype=np.int64)
        self.mul = np.asarray(mul, dtype=np.int64)
        self.n = self.add.shape[0]
        self.name = name
        if self.add.shape != (self.n, self.n) or self.mul.shape != (self.n, self.n):
            raise NotARing("tables must be square and of equal size")

    @property
    def one(self):
        return 1 if self.n > 1 else 0

    def __repr__(self):
        return self.name or f"FiniteRing(order {self.n})"


def _unit_first(n, one):
    """The label permutation that moves the element `one` to label 1: the
    identity with 1 and `one` swapped, so it is its own inverse."""
    import numpy as np

    perm = np.arange(n)
    if n > 1:
        perm[1], perm[one] = one, 1
    return perm


def _check_order(n):
    if n > SPECTRUM_SIZE_CAP:
        raise SizeCap(f"|R| = {n} exceeds the spectrum cap {SPECTRUM_SIZE_CAP}")


def zmod(n, name=None):
    """The ring Z/n."""
    if n < 1:
        raise NotARing("order must be positive")
    _check_order(n)
    import numpy as np

    i = np.arange(n)
    add, mul = np.add.outer(i, i), np.multiply.outer(i, i)
    add %= n  # in place, so no second n x n table is made
    mul %= n
    return FiniteRing(add, mul, name=name or f"Z/{n}")


class ProductRing(FiniteRing):
    """A x B with pair (a, b) <-> index; (0,0) -> 0 and (1,1) -> 1."""

    def __init__(self, A, B, name=None):
        nA, nB = A.n, B.n
        n = nA * nB
        _check_order(n)
        # label -> pair code a * |B| + b, which is also pair code -> label
        perm = _unit_first(n, A.one * nB + B.one)
        add, mul = _pair_tables(A, B, perm // nB, perm % nB, perm)
        super().__init__(add, mul, name=name or f"{A} x {B}")


def _pair_tables(A, B, a, b, label):
    """The tables of the pairs (a[i], b[i]) of A x B, each entry the
    `label` of its pair code a * |B| + b."""
    ai, ak = a[:, None], a[None, :]
    bi, bk = b[:, None], b[None, :]
    add = label[A.add[ai, ak] * B.n + B.add[bi, bk]]
    mul = label[A.mul[ai, ak] * B.n + B.mul[bi, bk]]
    return add, mul


class FiniteIdeal:
    """An ideal of a finite ring, stored as a frozen element set."""

    def __init__(self, ring, elements, check=True):
        self.ring = ring
        self.elements = frozenset(int(e) for e in elements)
        if check:
            if not all(0 <= e < ring.n for e in self.elements):
                raise NotARing(f"ideal labels must lie in 0..{ring.n - 1}")
            if 0 not in self.elements:
                raise NotARing("ideal must contain 0")
            for a in self.elements:
                for b in self.elements:
                    if int(ring.add[a, b]) not in self.elements:
                        raise NotARing("not closed under addition")
            for a in self.elements:
                for r in range(ring.n):
                    if int(ring.mul[r, a]) not in self.elements:
                        raise NotARing("not absorbing under multiplication")

    def __eq__(self, other):
        return (
            isinstance(other, FiniteIdeal)
            and self.ring is other.ring
            and self.elements == other.elements
        )

    def __len__(self):
        return len(self.elements)

    def __repr__(self):
        return "{" + ", ".join(str(e) for e in sorted(self.elements)) + "}"


def enumerate_primes(R):
    """All prime ideals of R, in sorted order of their element lists.

    Each prime is an annihilator ann(x) = {r : r*x = 0} of an x != 0, and
    the primes are exactly the annihilators maximal under inclusion.  A
    finite ring is artinian, so every prime is minimal, and a minimal
    prime is associated: it is ann(x) for some x (Matsumura, Commutative
    Ring Theory, Thm 6.5).  A prime is also maximal, and every ann(x) with
    x != 0 is proper, so no annihilator lies strictly above it.
    Conversely, let ann(x) be maximal among the annihilators.  It is
    proper, as x != 0, and if ab*x = 0 with b*x != 0, then ann(x) lies in
    ann(bx), which is therefore ann(x) and holds a.  The annihilators are
    the zeros of the rows of the multiplication table; each maximal one is
    tested prime by definition all the same.
    """
    _check_order(R.n)
    mul = R.mul.tolist()
    everything = range(R.n)
    annihilators = {
        frozenset(compress(everything, map(not_, row))) for row in mul[1:]
    }
    maximal = []
    # taken by decreasing size, an annihilator is maximal iff it lies in
    # none of those kept so far: each larger one came first and lies in one
    for E in sorted(annihilators, key=len, reverse=True):
        if not any(E < M for M in maximal):
            maximal.append(E)
    primes = []
    for E in maximal:
        outside = [a not in E for a in everything]
        if R.one not in E and all(
            E.isdisjoint(compress(mul[a], outside))
            for a in compress(everything, outside)
        ):
            primes.append(E)
    return [FiniteIdeal(R, E, check=False) for E in sorted(primes, key=sorted)]


def check_hom(A, B, images):
    """Verify a unital ring hom A -> B given as an image list, exhaustively."""
    f = [int(x) for x in images]
    if len(f) != A.n:
        raise NotAHom("one image per element")
    if not all(0 <= x < B.n for x in f):
        raise NotAHom(f"image labels must lie in 0..{B.n - 1}")
    if f[0] != 0 or f[A.one] != B.one:
        raise NotAHom("does not preserve 0 and 1")
    Aadd, Amul = A.add.tolist(), A.mul.tolist()
    Badd, Bmul = B.add.tolist(), B.mul.tolist()
    for a in range(A.n):
        for b in range(A.n):
            if f[Aadd[a][b]] != Badd[f[a]][f[b]]:
                raise NotAHom(f"additivity fails at ({a}, {b})")
            if f[Amul[a][b]] != Bmul[f[a]][f[b]]:
                raise NotAHom(f"multiplicativity fails at ({a}, {b})")
    return f


class FiniteHom:
    """A unital ring hom A -> B, given by its image list and checked once."""

    def __init__(self, A, B, images):
        self.source = A
        self.target = B
        self.images = check_hom(A, B, images)


class FiniteAmalgam:
    """The subring {(a, f(a)+j)} of A x B, for a FiniteHom f : A -> B and
    an ideal J of B, with its own tables."""

    def __init__(self, f, J):
        import numpy as np

        A, B = f.source, f.target
        if A.n * B.n > SPECTRUM_SIZE_CAP:
            raise SizeCap("product ring exceeds the size cap")
        self.A = A
        self.B = B
        self.f = f.images
        self.J = J
        f, nB = self.f, B.n
        Badd = B.add.tolist()
        pairs = sorted({(a, Badd[f[a]][j]) for a in range(A.n) for j in J.elements})
        if len(pairs) != A.n * len(J.elements):
            raise NotARing(
                "amalgam cardinality differs from |A| * |J|; construction invalid"
            )
        m = len(pairs)
        try:
            one = pairs.index((A.one, B.one))
        except ValueError:
            raise NotARing("amalgam subset does not contain (1, 1)") from None
        # the pairs in label order, with (1, 1) at label 1
        pairs = [pairs[i] for i in _unit_first(m, one)]
        self.pairs = pairs
        self.index = {p: i for i, p in enumerate(pairs)}
        a = np.array([p[0] for p in pairs], dtype=np.int64)
        b = np.array([p[1] for p in pairs], dtype=np.int64)
        # pair code a * |B| + b -> label, -1 off the subset
        lookup = np.full(A.n * nB, -1, dtype=np.int64)
        lookup[a * nB + b] = np.arange(m)
        add, mul = _pair_tables(A, B, a, b, lookup)
        if (add < 0).any() or (mul < 0).any():
            raise NotARing("amalgam subset is not closed in A x B")
        # A finite subset of the checked ring A x B that holds 0 and 1 and
        # is closed under + and * is a subring: the axioms need no check.
        self.ring = FiniteRing(add, mul, name="amalgam")

    @property
    def order(self):
        return len(self.pairs)

    def subset_from_A_prime(self, p):
        """p'^f = {(a, f(a)+j) : a in p, j in J}."""
        return frozenset(
            self.index[(a, int(self.B.add[self.f[a], j]))]
            for a in p.elements
            for j in self.J.elements
        )

    def subset_from_B_prime(self, q):
        """q^bar^f = {(a, f(a)+j) : f(a)+j in q}."""
        return frozenset(
            i for (a, b), i in self.index.items() if b in q.elements
        )


def classify_primes(W):
    """Compare Spec(W), enumerated on W's tables, with the pullback
    candidates.

    Candidates are p'^f for p in Spec(A) and q^bar^f for q in Spec(B) not
    containing J; the verdict is exact set equality.  Spec(A) is
    enumerated once when B is A (a duplication).  Returns the candidates
    from A and from B, each a list of W's element sets, the verdict and
    Spec(W) itself, as the list of W.ring's primes.
    """
    spectrum = enumerate_primes(W.ring)
    spec_A = enumerate_primes(W.A)
    spec_B = spec_A if W.B is W.A else enumerate_primes(W.B)
    from_A = [W.subset_from_A_prime(p) for p in spec_A]
    # a q that contains J is left out: Spec(B) minus V(J)
    from_B = [W.subset_from_B_prime(q) for q in spec_B
              if not W.J.elements <= q.elements]
    verdict = set(from_A) | set(from_B) == {P.elements for P in spectrum}
    return from_A, from_B, verdict, spectrum
