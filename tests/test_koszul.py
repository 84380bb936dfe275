"""Graded Betti numbers against Koszul homology.

beta_{i,j}(R) = dim_k Tor_i^S(R, k)_j, and Tor_i(R, k) is the homology of
the Koszul complex of R on the variables: K_i is the direct sum of
R(-deg e_F) over the i-subsets F of the variables, with deg e_F the sum
of their weights, and the differential sends e_F * m to the signed sum of
e_{F - f} * x_f * m.  `koszul_betti` builds it from the standard
monomials of R, multiplies by normal forms, and takes ranks with
conftest's `rank`, one block of the sparse differential at a time.  It
shares no code with `amalgams.homology`, whose Betti numbers come from a
resolution built by syzygies.  A series check cannot tell apart two
resolutions that differ by a cancelling pair of twists in adjacent
steps; this count can.  Every degree up to the resolution's largest
twist plus the largest variable weight is checked, and the same graded
Betti numbers come out of `oracles.free_resolution_rebuild`, whose stages
are minimalized by a second basis.
"""

from itertools import combinations, islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amalgams.amalgam import amalgam_present, duplication
from amalgams.homology import free_resolution
from amalgams.ring import IdealHandle, make_ring
from conftest import rank
from oracles import free_resolution_rebuild
from samples import (
    binomial_or_monomial_rings,
    fixture_rings,
    k3_duplications,
    serre_rings,
)


def koszul_betti(R, top):
    """{(i, j): dim Tor_i(R, k)_j} for every i and every j <= top with a
    nonzero value."""
    S = R.ambient
    n, weights, p = S.nvars, S.weights, S.p
    levels = islice(R.standard_monomials(), top + 1)
    basis = {d: sorted(map(S.layout.unpack, level)) for d, level in enumerate(levels)}
    products = {}

    def times(f, m):
        """The coordinates of x_f * m in R: (standard monomial, coeff)."""
        if (f, m) not in products:
            e = list(m)
            e[f] += 1
            products[f, m] = R.reduce(S.monomial(tuple(e))).terms.items()
        return products[f, m]

    def cells(i, j):
        """The k-basis (F, m) of K_i in degree j."""
        out = []
        for F in combinations(range(n), i):
            d = j - sum(weights[f] for f in F)
            out.extend((F, m) for m in basis.get(d, ()))
        return out

    def differential_rank(i, j):
        """Rank of K_i -> K_{i-1} in degree j."""
        if i == 0:
            return 0
        rows = []
        for F, m in cells(i, j):
            row = {}
            for pos, f in enumerate(F):
                face = F[:pos] + F[pos + 1 :]
                for mono, c in times(f, m):
                    cell = (face, mono)
                    row[cell] = row.get(cell, 0) + (c if pos % 2 == 0 else -c)
            rows.append(row)
        return sparse_rank(rows, p)

    betti = {}
    for j in range(top + 1):
        ranks = [differential_rank(i, j) for i in range(n + 2)]
        for i in range(n + 1):
            dim = len(cells(i, j)) - ranks[i] - ranks[i + 1]
            if dim:
                betti[i, j] = dim
    return betti


def sparse_rank(rows, p):
    """Rank over GF(p) of rows given as {column: entry} dicts.  Rows that
    share no column with each other's blocks are independent, so the rank
    is the sum of the ranks of the blocks of the row-column incidence
    graph, each taken densely by conftest's `rank`."""
    parent = {}

    def root(c):
        while parent.setdefault(c, c) != c:
            parent[c] = parent[parent[c]]
            c = parent[c]
        return c

    for row in rows:
        cols = [root(c) for c in row]
        for c in cols[1:]:
            parent[root(c)] = cols[0]
    blocks = {}
    for row in rows:
        if row:
            blocks.setdefault(root(next(iter(row))), []).append(row)
    total = 0
    for block in blocks.values():
        index = {c: k for k, c in enumerate({c for row in block for c in row})}
        dense = []
        for row in block:
            vec = [0] * len(index)
            for c, a in row.items():
                vec[index[c]] = a
            dense.append(vec)
        total += rank(dense, p)
    return total


def graded_betti(res):
    """{(i, j): beta_{i,j}} read off the twists of a minimal free
    resolution, and its largest twist."""
    betti = {}
    for i, tw in enumerate(res.twists):
        for j in tw:
            betti[i, j] = betti.get((i, j), 0) + 1
    return betti, max(max(tw) for tw in res.twists)


def assert_betti_match_koszul(R):
    betti, top = graded_betti(free_resolution(R))
    assert graded_betti(free_resolution_rebuild(R)) == (betti, top)
    assert koszul_betti(R, top + max(R.ambient.weights)) == betti


def duplications_along_m(p, n):
    """C/K of k[x1..xn] duplicated along its maximal ideal."""
    names = [f"x{k}" for k in range(1, n + 1)]
    A = make_ring(p, names)
    return amalgam_present(duplication(A, IdealHandle(A, names))).ring


@pytest.mark.parametrize("p", [101, 32003])
def test_betti_numbers_of_fixture_rings_match_koszul(p):
    rings = fixture_rings(p)
    assert rings
    for R in rings:
        assert_betti_match_koszul(R)


@pytest.mark.parametrize("p", [101, 32003])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_betti_numbers_of_duplications_match_koszul(p, n):
    assert_betti_match_koszul(duplications_along_m(p, n))


@pytest.mark.parametrize("p", [101, 32003])
def test_betti_numbers_of_sample_rings_match_koszul(p):
    for R in serre_rings(p) + k3_duplications(p):
        assert_betti_match_koszul(R)


@pytest.mark.parametrize("p", [101, 32003])
@settings(max_examples=25)
@given(data=st.data())
def test_betti_numbers_of_random_rings_match_koszul(p, data):
    assert_betti_match_koszul(data.draw(binomial_or_monomial_rings(p)))


def test_koszul_betti_of_a_complete_intersection():
    # k[x, y]/(x^2, y^3): Koszul on the two generators, twists 0; 2, 3; 5.
    R = make_ring(101, ["x", "y"], ["x^2", "y^3"])
    assert koszul_betti(R, 6) == {(0, 0): 1, (1, 2): 1, (1, 3): 1, (2, 5): 1}
