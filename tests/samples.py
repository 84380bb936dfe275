"""Rings shared by several test modules: the `serre.alg` fixture rings,
every ring of the bundled fixtures, duplications of k[x1..x3], the
duplication ladder W_n, the Stanley-Reisner ring of the 7-vertex torus,
and a hypothesis strategy for random monomial and binomial ideals of
k[x, y, z] over GF(p)."""

from importlib import resources
from itertools import combinations, product

from hypothesis import strategies as st

from amalgams.amalgam import amalgam_present, duplication
from amalgams.cli import parse_input
from amalgams.poly import PolyRing
from amalgams.ring import IdealHandle, PresentedRing, make_ring


def serre_rings(p=None):
    """The rings of `serre.alg`, over GF(p) if p is given."""
    text = resources.files("amalgams").joinpath("fixtures", "serre.alg").read_text()
    return [R for _kind, R in parse_input(text, prime=p).decls.values()]


def fixture_rings(p):
    """Every ring the bundled fixtures declare, and the presented ring
    C/K of every amalgam they declare, over GF(p)."""
    out = []
    for path in sorted(resources.files("amalgams").joinpath("fixtures").iterdir()):
        if not path.name.endswith(".alg"):
            continue
        for kind, obj in parse_input(path.read_text(), prime=p).decls.values():
            if kind == "ring":
                out.append(obj)
            elif kind == "amalgam":
                out.append(amalgam_present(obj).ring)
    return out


def k3_duplications(p=101):
    """The rings C/K of k[x1..x3] duplicated along m and along the squares."""
    A = make_ring(p, ["x1", "x2", "x3"])
    return [
        amalgam_present(duplication(A, IdealHandle(A, gens))).ring
        for gens in (["x1", "x2", "x3"], ["x1^2", "x2^2", "x3^2"])
    ]


def duplication_along_m(n, p=101):
    """The rung W_n of the duplication ladder: C/K of k[x1..xn] duplicated
    along (x1..xn), in 2n variables."""
    A = make_ring(p, [f"x{i}" for i in range(1, n + 1)])
    return amalgam_present(duplication(A, IdealHandle(A, list(A.names)))).ring


def torus_ring(p=101):
    """The Stanley-Reisner ring of the 7-vertex (Moebius) torus over GF(p):
    its 14 triangles are {i, i+1, i+3} and {i, i+2, i+3} mod 7, every pair
    of vertices is an edge, and the ideal is generated by the 21 other
    triples.  It is not Cohen-Macaulay (depth 2, dim 3), and ω of an
    orientable surface is the ring itself, so it is quasi-Gorenstein."""
    faces = {
        frozenset({i, (i + s) % 7, (i + 3) % 7}) for i in range(7) for s in (1, 2)
    }
    names = [f"x{i}" for i in range(7)]
    gens = [
        "*".join(names[i] for i in t)
        for t in combinations(range(7), 3)
        if frozenset(t) not in faces
    ]
    return make_ring(p, names, gens)


VARS = ["x", "y", "z"]


def _monomials(d):
    return [e for e in product(range(d + 1), repeat=len(VARS)) if sum(e) == d]


@st.composite
def binomial_or_monomial_rings(draw, p=101):
    """k[x, y, z] over GF(p) modulo generators x^a - c*x^b of one degree,
    which are monomials x^a when c = 0."""
    S = PolyRing(p, VARS)
    gens = []
    for _ in range(draw(st.integers(1, 4))):
        d = draw(st.integers(1, 3))
        a, b = draw(
            st.lists(st.sampled_from(_monomials(d)), min_size=2, max_size=2, unique=True)
        )
        c = draw(st.integers(0, p - 1))
        gens.append(S.monomial(a) - S.monomial(b, c))
    return PresentedRing(S, gens)
