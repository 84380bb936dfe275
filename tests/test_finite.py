import os
import subprocess
import sys
from importlib import resources
from itertools import product
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from amalgams import finite
from amalgams.cli import main, parse_input
from amalgams.errors import NotAHom, NotARing, SizeCap
from amalgams.finite import (
    FiniteAmalgam,
    FiniteHom,
    FiniteIdeal,
    FiniteRing,
    ProductRing,
    check_hom,
    classify_primes,
    enumerate_primes,
    zmod,
)
from conftest import pair_index, quotient_ring
from oracles import (
    all_ideals,
    all_ideals_closure,
    amalgam_tables_loop,
    check_ring_axioms,
    find_isomorphism,
    ideal_generated_by,
    primes_by_lattice,
)


def test_zmod_axioms():
    for n in [1, 2, 6, 12]:
        R = zmod(n)
        assert R.n == n


def test_bad_tables_rejected():
    # swap one multiplication entry of Z/4 to break distributivity
    R = zmod(4)
    mul = R.mul.copy()
    mul[2, 2], mul[2, 3] = mul[2, 3], mul[2, 2]
    mul[3, 2] = mul[2, 3]
    mul[2, 2] = mul[2, 2]
    with pytest.raises(NotARing):
        check_ring_axioms(FiniteRing(R.add, mul))


def test_non_commutative_rejected():
    R = zmod(3)
    mul = R.mul.copy()
    mul[1, 2] = 0
    with pytest.raises(NotARing):
        check_ring_axioms(FiniteRing(R.add, mul))


def test_product_and_quotient():
    A, B = zmod(4), zmod(2)
    P = ProductRing(A, B)
    assert P.n == 8
    assert pair_index(A, B, 0, 0) == 0
    assert pair_index(A, B, 1, 1) == 1
    # the tables act componentwise on the pairs
    pairs = list(product(range(A.n), range(B.n)))
    for (a, b), (c, d) in product(pairs, repeat=2):
        x, y = pair_index(A, B, a, b), pair_index(A, B, c, d)
        assert P.add[x, y] == pair_index(A, B, A.add[a, c], B.add[b, d])
        assert P.mul[x, y] == pair_index(A, B, A.mul[a, c], B.mul[b, d])
    Q = quotient_ring(zmod(8), ideal_generated_by(zmod(8), [4]))
    assert Q.n == 4
    assert find_isomorphism(Q, zmod(4)) is not None
    # Z/2 x Z/3 is isomorphic to Z/6 (CRT)
    P6 = ProductRing(zmod(2), zmod(3))
    assert find_isomorphism(P6, zmod(6)) is not None
    # ... but Z/2 x Z/2 is not isomorphic to Z/4
    assert find_isomorphism(ProductRing(zmod(2), zmod(2)), zmod(4)) is None


def test_ideal_validation():
    R = zmod(6)
    FiniteIdeal(R, [0, 3])
    with pytest.raises(NotARing):
        FiniteIdeal(R, [3])  # missing 0
    with pytest.raises(NotARing):
        FiniteIdeal(R, [0, 1, 3])  # not closed


def test_ideal_lattice():
    # ideals of Z/12 correspond to divisors of 12
    assert len(all_ideals(zmod(12))) == 6
    assert len(all_ideals(zmod(6))) == 4


def test_enumerate_primes():
    assert sorted(sorted(P.elements) for P in enumerate_primes(zmod(6))) == [
        [0, 2, 4],
        [0, 3],
    ]
    assert len(enumerate_primes(zmod(4))) == 1
    assert len(enumerate_primes(ProductRing(zmod(4), zmod(2)))) == 2


def test_size_cap(monkeypatch):
    import amalgams.finite as finite

    R = zmod(6)
    monkeypatch.setattr(finite, "SPECTRUM_SIZE_CAP", 4)
    with pytest.raises(SizeCap):
        enumerate_primes(R)
    with pytest.raises(SizeCap):
        zmod(6)
    with pytest.raises(SizeCap):
        ProductRing(zmod(2), zmod(3))


def test_check_hom():
    check_hom(zmod(6), zmod(6), list(range(6)))
    check_hom(zmod(8), zmod(4), [a % 4 for a in range(8)])
    with pytest.raises(NotAHom):
        check_hom(zmod(8), zmod(4), [a % 4 for a in range(7)])
    with pytest.raises(NotAHom):
        check_hom(zmod(4), zmod(4), [0, 2, 0, 2])  # not unital
    with pytest.raises(NotAHom):
        check_hom(zmod(6), zmod(6), [0, 1, 2, 3, 4, 0])


def test_each_fhom_is_checked_once(monkeypatch):
    # finite.alg declares 3 fhoms and 4 famalgams (W6 and W0 share id6):
    # the homs are checked where they are declared, not again per amalgam.
    calls = []
    real = finite.check_hom

    def counting(A, B, images):
        calls.append(len(images))
        return real(A, B, images)

    monkeypatch.setattr(finite, "check_hom", counting)
    text = resources.files("amalgams").joinpath("fixtures", "finite.alg").read_text()
    kinds = [kind for kind, _ in parse_input(text).decls.values()]
    assert (kinds.count("fhom"), kinds.count("famalgam")) == (3, 4)
    assert len(calls) == 3


def test_amalgam_cardinality():
    Z6 = zmod(6)
    J = ideal_generated_by(Z6, [3])
    W = FiniteAmalgam(FiniteHom(Z6, Z6, range(6)), J)
    assert W.order == 6 * 2
    Z8, Z4 = zmod(8), zmod(4)
    red = FiniteHom(Z8, Z4, [a % 4 for a in range(8)])
    W2 = FiniteAmalgam(red, ideal_generated_by(Z4, [2]))
    assert W2.order == 16


def test_classify_primes_duplication_z6():
    Z6 = zmod(6)
    W = FiniteAmalgam(FiniteHom(Z6, Z6, range(6)), ideal_generated_by(Z6, [3]))
    from_A, from_B, verdict, spectrum = classify_primes(W)
    assert verdict
    assert len(enumerate_primes(W.ring)) == 3
    assert spectrum == enumerate_primes(W.ring)
    assert (len(from_A), len(from_B)) == (2, 1)


def test_classify_primes_reduction():
    Z8, Z4 = zmod(8), zmod(4)
    red = FiniteHom(Z8, Z4, [a % 4 for a in range(8)])
    W = FiniteAmalgam(red, ideal_generated_by(Z4, [2]))
    _, _, verdict, _ = classify_primes(W)
    assert verdict
    assert len(enumerate_primes(W.ring)) == 1


def test_classify_primes_product_fixture():
    Z4, Z2 = zmod(4), zmod(2)
    P = ProductRing(Z4, Z2)
    J = ideal_generated_by(P, [pair_index(Z4, Z2, 2, 0)])
    W = FiniteAmalgam(FiniteHom(P, P, range(P.n)), J)
    assert W.order == P.n * len(J)
    _, _, verdict, _ = classify_primes(W)
    assert verdict


def test_zero_ideal_amalgam_isomorphic_to_A():
    Z6 = zmod(6)
    W = FiniteAmalgam(FiniteHom(Z6, Z6, range(6)), ideal_generated_by(Z6, [0]))
    assert W.order == 6
    # a -> (a, f(a)) is a ring hom Z6 -> W, injective, so onto as |W| = 6
    iso = check_hom(Z6, W.ring, [W.index[(a, W.f[a])] for a in range(6)])
    assert sorted(iso) == list(range(W.order))
    _, from_B, verdict, _ = classify_primes(W)
    assert verdict
    # only candidates from A: V(J) is everything when J = 0
    assert from_B == []


def test_embedding_and_retraction():
    """iota_A is injective and P_A (first projection) retracts it."""
    Z6 = zmod(6)
    J = ideal_generated_by(Z6, [3])
    W = FiniteAmalgam(FiniteHom(Z6, Z6, range(6)), J)
    seen = set()
    for a in range(6):
        idx = W.index[(a, W.f[a])]
        assert idx not in seen
        seen.add(idx)
    for (a, b), idx in W.index.items():
        # the first coordinate recovers a: P_A(iota_A(a)) = a
        if b == W.f[a]:
            assert (a, b) in W.pairs


def test_cap_size_tables_build_in_little_memory():
    # The 64 x 64 product and the order-4096 amalgam of Z/64 along J = Z/64
    # build each table once, in its final labels: the child caps its own
    # address space at 768 MiB before it starts; its peak is 741 MiB
    # (VmPeak).
    images = ", ".join(str(a) for a in range(64))
    text = (
        "zring Z n=64\n"
        "product P = Z x Z\n"
        f"fhom f Z -> Z : {images}\n"
        f"fideal J in Z : {images}\n"
        "famalgam W : f, J\n"
    )
    capped = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (768 << 20, 768 << 20))\n"
        "from amalgams.cli import parse_input\n"
        "decls = parse_input(sys.stdin.read()).decls\n"
        "print(decls['P'][1].n, decls['W'][1].order)\n"
    )
    src = os.path.dirname(os.path.dirname(finite.__file__))
    done = subprocess.run(
        [sys.executable, "-c", capped],
        input=text.encode(),
        capture_output=True,
        env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"},
        timeout=120,
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, b"4096 4096\n", b"")


def test_finite_check_at_order_2048_runs_in_little_memory(tmp_path):
    # Z/64 -> Z/32 along J = Z/32: enumerate_primes copies only the
    # multiplication table into lists, one n x n copy at a time.  The child
    # caps its own address space at 448 MiB before it starts; its peak is
    # 307 MiB (VmPeak), and was 596 MiB when two list copies of the tables
    # were alive at once.
    images = ", ".join(str(a % 32) for a in range(64))
    elements = ", ".join(str(a) for a in range(32))
    f = tmp_path / "w.alg"
    f.write_text(
        "zring Z n=64\n"
        "zring Y n=32\n"
        f"fhom f Z -> Y : {images}\n"
        f"fideal J in Y : {elements}\n"
        "famalgam W : f, J\n"
    )
    capped = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (448 << 20, 448 << 20))\n"
        "from amalgams.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    src = os.path.dirname(os.path.dirname(finite.__file__))
    done = subprocess.run(
        [sys.executable, "-c", capped, str(f), "finite", "check", "W"],
        capture_output=True,
        env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"},
        timeout=120,
    )
    assert (done.returncode, done.stderr) == (0, b"")
    assert done.stdout.decode().splitlines()[0] == "order = 2048"


def test_amalgam_of_a_subset_without_zero_rejected():
    # {3} is no ideal of Z/6: (1, 1) is not among the pairs (a, a + 3)
    Z6 = zmod(6)
    J = FiniteIdeal(Z6, [3], check=False)
    with pytest.raises(NotARing):
        FiniteAmalgam(FiniteHom(Z6, Z6, range(6)), J)


def fixture_amalgams():
    text = resources.files("amalgams").joinpath("fixtures", "finite.alg").read_text()
    return [W for kind, W in parse_input(text).decls.values() if kind == "famalgam"]


def reduction_amalgam(n, m, d):
    """Z/n -> Z/m, reduction mod m, along J = (d): the benchmark's shapes."""
    Zm = zmod(m)
    Zn = Zm if n == m else zmod(n)
    f = FiniteHom(Zn, Zm, [a % m for a in range(n)])
    return FiniteAmalgam(f, ideal_generated_by(Zm, [d]))


BENCH_SHAPES = [(12, 12, 6), (18, 18, 6), (30, 30, 15), (60, 60, 30), (24, 12, 6), (48, 24, 12)]


def small_rings():
    Z2, Z4, Z6 = zmod(2), zmod(4), zmod(6)
    P42 = ProductRing(Z4, Z2)
    P46 = ProductRing(Z4, Z6)
    return [
        P42,
        P46,
        ProductRing(Z2, Z2),
        ProductRing(ProductRing(Z2, Z2), zmod(3)),
        quotient_ring(zmod(12), ideal_generated_by(zmod(12), [4])),
        quotient_ring(P46, ideal_generated_by(P46, [pair_index(Z4, Z6, 2, 3)])),
        quotient_ring(P42, ideal_generated_by(P42, [pair_index(Z4, Z2, 0, 1)])),
    ]


def assert_ideals_match_closure(R):
    lattice = [I.elements for I in all_ideals(R)]
    assert lattice == [I.elements for I in all_ideals_closure(R)]
    for gens in ([], [0], [R.one], [R.n - 1], list(range(R.n)), [R.n // 2, R.n // 3]):
        assert ideal_generated_by(R, gens).elements in lattice


@settings(max_examples=40)
@given(st.integers(1, 60), st.data())
def test_zmod_ideals_match_closure(n, data):
    R = zmod(n)
    assert_ideals_match_closure(R)
    gens = data.draw(st.lists(st.integers(0, n - 1), max_size=4))
    assert ideal_generated_by(R, gens) in all_ideals(R)


def test_product_and_quotient_ideals_match_closure():
    for R in small_rings():
        assert_ideals_match_closure(R)


def test_fixture_amalgam_ideals_match_closure():
    for W in fixture_amalgams():
        assert_ideals_match_closure(W.ring)


def test_zmod_ideal_count_is_divisor_count():
    for n in range(1, 61):
        divisors = sum(1 for d in range(1, n + 1) if n % d == 0)
        assert len(all_ideals(zmod(n))) == divisors


@given(st.integers(1, 60), st.data())
def test_zmod_two_generators_give_gcd(n, data):
    a = data.draw(st.integers(0, n - 1))
    b = data.draw(st.integers(0, n - 1))
    g = gcd(gcd(a, b), n)
    assert ideal_generated_by(zmod(n), [a, b]).elements == set(range(0, n, g))


def test_amalgam_tables_match_loop():
    amalgams = fixture_amalgams() + [reduction_amalgam(*s) for s in BENCH_SHAPES]
    for W in amalgams:
        add, mul = amalgam_tables_loop(W.A, W.B, W.f, W.J)
        assert np.array_equal(W.ring.add, add)
        assert np.array_equal(W.ring.mul, mul)


def test_amalgam_of_non_ideal_rejected():
    Z6 = zmod(6)
    # {0, 2} is not closed under addition
    J = FiniteIdeal(Z6, [0, 2], check=False)
    # the additive subgroup generated by (1, 1) in Z/4 x Z/2 is no ideal:
    # (1, 0) * (1, 1) = (1, 0) lies outside it
    Z4, Z2 = zmod(4), zmod(2)
    P = ProductRing(Z4, Z2)
    labels = [pair_index(Z4, Z2, k % 4, k % 2) for k in range(4)]
    S = FiniteIdeal(P, labels, check=False)
    for A, f, J in [(Z6, list(range(6)), J), (P, list(range(P.n)), S)]:
        with pytest.raises(NotARing, match="not closed"):
            FiniteAmalgam(FiniteHom(A, A, f), J)
        with pytest.raises(NotARing, match="not closed"):
            amalgam_tables_loop(A, A, f, J)


def test_amalgam_rings_satisfy_the_unchecked_axioms():
    # FiniteAmalgam builds its ring without the axiom check: the axioms
    # follow from those of A x B and from the closure check.
    for W in fixture_amalgams() + [reduction_amalgam(*s) for s in BENCH_SHAPES]:
        check_ring_axioms(W.ring)


def test_formula_rings_satisfy_the_unchecked_axioms():
    # zmod and ProductRing build their tables by formula and check no
    # axiom.  Z/n up to 70 runs both the exhaustive branch and the
    # sampled one (above EXHAUSTIVE_CHECK_BOUND = 64).
    for n in range(1, 71):
        check_ring_axioms(zmod(n))
    text = resources.files("amalgams").joinpath("fixtures", "finite.alg").read_text()
    rings = [R for kind, R in parse_input(text).decls.values() if kind == "fring"]
    assert any(isinstance(R, ProductRing) for R in rings)
    rings += [
        ProductRing(zmod(n), zmod(m)) for n, m, _ in BENCH_SHAPES if n * m <= 1200
    ]
    for R in rings:
        check_ring_axioms(R)


def assert_primes_match_lattice(R):
    assert [P.elements for P in enumerate_primes(R)] == primes_by_lattice(R), R


def test_enumerate_primes_matches_the_lattice_on_zmod():
    # Z/1 is the zero ring, with no primes
    assert enumerate_primes(zmod(1)) == []
    for n in range(1, 201):
        assert_primes_match_lattice(zmod(n))


def test_enumerate_primes_matches_the_lattice_on_products():
    # Z/b x Z/a is Z/a x Z/b with its labels permuted, and a factor Z/1
    # gives the other factor back, so 2 <= a <= b covers every shape; the
    # lattice oracle's cost grows fast with the order, so ab stops at 120
    Z = {n: zmod(n) for n in range(2, 61)}
    for a in range(2, 11):
        for b in range(a, 120 // a + 1):
            assert_primes_match_lattice(ProductRing(Z[a], Z[b]))


def test_enumerate_primes_matches_the_lattice_on_small_rings_and_amalgams():
    amalgams = fixture_amalgams() + [reduction_amalgam(*s) for s in BENCH_SHAPES]
    rings = small_rings() + [R for W in amalgams for R in (W.ring, W.A, W.B)]
    for R in rings:
        assert_primes_match_lattice(R)


@settings(max_examples=30)
@given(st.integers(1, 12), st.integers(1, 4), st.data())
def test_enumerate_primes_matches_the_lattice_on_drawn_amalgams(m, k, data):
    d = data.draw(st.integers(0, m - 1))
    W = reduction_amalgam(m * k, m, d)
    assert_primes_match_lattice(W.ring)
    assert classify_primes(W)[2]


def test_enumerate_primes_never_reads_the_addition_table(monkeypatch):
    R = reduction_amalgam(24, 12, 6).ring
    expected = primes_by_lattice(R)

    def unread(self):
        raise AssertionError("enumerate_primes read the addition table")

    monkeypatch.setattr(FiniteRing, "add", property(unread), raising=False)
    assert [P.elements for P in enumerate_primes(R)] == expected


def test_classify_primes_enumerates_a_duplications_ring_once(monkeypatch):
    seen = []
    real = finite.enumerate_primes

    def counting(R):
        seen.append(R)
        return real(R)

    monkeypatch.setattr(finite, "enumerate_primes", counting)
    dup, red = reduction_amalgam(12, 12, 6), reduction_amalgam(24, 12, 6)
    assert classify_primes(dup)[2] and classify_primes(red)[2]
    assert seen == [dup.ring, dup.A, red.ring, red.A, red.B]


def _prime_divisors(n):
    return [q for q in range(2, n + 1) if n % q == 0 and all(q % r for r in range(2, q))]


def test_finite_check_on_the_benchmark_shapes(tmp_path, capsys):
    # the `finite` benchmark's checks: Spec of Z/n -> Z/m along (d) is
    # Spec Z/n with the primes q | m that do not contain J, i.e. q does
    # not divide d, and the order is n * |J|
    for n, m, d in BENCH_SHAPES:
        J = sorted({d * k % m for k in range(m)})
        f = tmp_path / f"z{n}-z{m}-{d}.alg"
        decl = f"zring Z{n} n={n}\n" + (f"zring Z{m} n={m}\n" if m != n else "")
        f.write_text(
            decl + f"fhom f Z{n} -> Z{m} : {', '.join(str(a % m) for a in range(n))}\n"
            f"fideal J in Z{m} : {', '.join(map(str, J))}\n"
            "famalgam W : f, J\n"
        )
        assert main([str(f), "finite", "check", "W"]) == 0
        primes = len(_prime_divisors(n)) + sum(1 for q in _prime_divisors(m) if d % q)
        lines = capsys.readouterr().out.splitlines()
        for expected in (
            f"order = {n * len(J)}",
            f"primes = {primes}",
            "cardinality = ok",
            "classification = match",
        ):
            assert expected in lines, (n, m, d, lines)
