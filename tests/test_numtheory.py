import functools
import math
import random
import time
import tracemalloc

import pytest

from srknots import numtheory
from srknots.laurent import normalize
from srknots.numtheory import (
    _PRIMORIAL,
    _iroot,
    _same_support,
    admissible_pair,
    catalan_scan,
    scan_base_match,
    scan_det_power_products,
    scan_minus_match,
    scan_plus_match,
)
from srknots.srpoly import F_factor, SRParams
from srknots.srsearch import decompose


@functools.cache
def support(n):
    """P(n) by sympy's complete factorization: the oracle for `_same_support`."""
    return frozenset(pytest.importorskip("sympy").factorint(n))


class TestSameSupport:
    def test_matches_factorization_on_every_small_pair(self):
        supports = {n: support(n) for n in range(1, 301)}
        for x in range(1, 301):
            for y in range(1, 301):
                assert _same_support(x, y) == (supports[x] == supports[y]), (x, y)

    def test_shared_primes_with_different_exponents(self):
        # Both sides are built from one prime pool with independent
        # exponents (0 leaves a prime out), so supports often agree while
        # the values differ.  The supports are known by construction, and
        # sympy's factorint checks them independently.
        sympy = pytest.importorskip("sympy")
        rng = random.Random(4242)
        pool = [2, 3, 5, 7, 11, 13, 101, 9973, 10007, 65537, 1_000_003, 2**31 - 1]
        agree = 0
        for _ in range(300):
            x_exps, y_exps = {}, {}
            for p in rng.sample(pool, rng.randint(1, 4)):
                a, b = rng.choice([(0, 1), (1, 0), *[(1, 1)] * 6])
                x_exps[p], y_exps[p] = a * rng.randint(1, 40), b * rng.randint(1, 40)
            x = math.prod(p**e for p, e in x_exps.items())
            y = math.prod(p**e for p, e in y_exps.items())
            x_primes = {p for p, e in x_exps.items() if e}
            y_primes = {p for p, e in y_exps.items() if e}
            assert set(sympy.factorint(x)) == x_primes and set(sympy.factorint(y)) == y_primes
            same = _same_support(x, y)
            assert same == (x_primes == y_primes) == _same_support(y, x), (x, y)
            agree += same
        assert 100 < agree < 250

    def test_high_prime_power(self):
        for p in (2, 3, 65537):
            for a in (1, 2, 63, 64, 200):
                assert _same_support(p**a, p)
                assert _same_support(p, p**a)
                assert not _same_support(p**a, p * 7)


def reference_scan_minus(A_max, m_max):
    """The factorization-based minus scan the divisibility test replaced."""
    hits = []
    for A in range(2, A_max + 1):
        supports = {e: support(A**e - 1) for e in range(1, m_max + 1)}
        for m in range(2, m_max + 1):
            for n in range(1, m):
                if supports[m] == supports[n]:
                    hits.append((A, m, n))
    return hits


def reference_scan_base(A_max, exp_max):
    odd_hits = []
    even_hits = []
    for A in range(2, A_max + 1):
        base = support(A + 1)
        for p in range(3, exp_max + 1, 2):
            if support(A**p + 1) == base:
                odd_hits.append((A, p))
        for q in range(2, exp_max + 1, 2):
            if support(A**q - 1) == base:
                even_hits.append((A, q))
    return odd_hits, even_hits


def reference_scan_plus(A_max, m_max):
    plus_plus = []
    plus_minus = []
    for A in range(2, A_max + 1):
        plus = {e: support(A**e + 1) for e in range(1, m_max + 1)}
        minus = {e: support(A**e - 1) for e in range(1, m_max + 1)}
        for m in range(1, m_max + 1):
            for n in range(1, m_max + 1):
                if n < m and plus[m] == plus[n]:
                    plus_plus.append((A, m, n))
                if plus[m] == minus[n]:
                    plus_minus.append((A, m, n))
    return plus_plus, plus_minus


# Boxes with A_max and e_max in 0..3: rules with no pairs (base with no odd
# p >= 3, minus with no m > n), and A = 2, 3 alone.
EDGE_BOXES = [(A_max, e_max) for A_max in range(4) for e_max in range(4)]


class TestScansMatchFactorization:
    @pytest.mark.parametrize("bounds", [(50, 12), (40, 8), (60, 11)] + EDGE_BOXES)
    def test_minus_and_base(self, bounds):
        assert scan_minus_match(*bounds) == reference_scan_minus(*bounds)
        assert scan_base_match(*bounds) == reference_scan_base(*bounds)

    @pytest.mark.parametrize("bounds", [(50, 12), (40, 8), (60, 11), (100, 12)] + EDGE_BOXES)
    def test_plus(self, bounds):
        assert scan_plus_match(*bounds) == reference_scan_plus(*bounds)


def divisibility_scan_minus(A_max, m_max):
    """The minus scan with two modular powers on every pair, no signature."""
    hits = []
    for A in range(2, A_max + 1):
        values = {e: A**e - 1 for e in range(1, m_max + 1)}
        for m in range(2, m_max + 1):
            for n in range(1, m):
                if _same_support(values[m], values[n]):
                    hits.append((A, m, n))
    return hits


def divisibility_scan_base(A_max, exp_max):
    odd_hits = []
    even_hits = []
    for A in range(2, A_max + 1):
        base = A + 1
        for p in range(3, exp_max + 1, 2):
            if _same_support(A**p + 1, base):
                odd_hits.append((A, p))
        for q in range(2, exp_max + 1, 2):
            if _same_support(A**q - 1, base):
                even_hits.append((A, q))
    return odd_hits, even_hits


def divisibility_scan_plus(A_max, m_max):
    plus_plus = []
    plus_minus = []
    for A in range(2, A_max + 1):
        plus = {e: A**e + 1 for e in range(1, m_max + 1)}
        minus = {e: A**e - 1 for e in range(1, m_max + 1)}
        for m in range(1, m_max + 1):
            for n in range(1, m_max + 1):
                if n < m and _same_support(plus[m], plus[n]):
                    plus_plus.append((A, m, n))
                if _same_support(plus[m], minus[n]):
                    plus_minus.append((A, m, n))
    return plus_plus, plus_minus


class TestSignaturePrefilter:
    @pytest.mark.parametrize("bounds", [(50, 12), (60, 11), (100, 12), (40, 16)] + EDGE_BOXES)
    def test_scans_equal_the_unfiltered_ones(self, bounds):
        assert scan_minus_match(*bounds) == divisibility_scan_minus(*bounds)
        assert scan_base_match(*bounds) == divisibility_scan_base(*bounds)
        assert scan_plus_match(*bounds) == divisibility_scan_plus(*bounds)

    def test_equal_supports_have_equal_signatures(self):
        for x in range(1, 2000):
            for y in (x * x, x**3 * 7, 2 * x):
                if _same_support(x, y):
                    assert math.gcd(x, _PRIMORIAL) == math.gcd(y, _PRIMORIAL)
        sympy = pytest.importorskip("sympy")
        assert _PRIMORIAL == math.prod(sympy.primerange(50))

    def test_few_pairs_reach_the_modular_powers(self, monkeypatch):
        calls = []
        monkeypatch.setattr(numtheory, "_same_support",
                            lambda x, y: calls.append((x, y)) or _same_support(x, y))
        plus_plus, plus_minus = scan_plus_match(100, 12)
        # 99 * (66 + 144) = 20,790 pairs in all.
        assert len(plus_plus) + len(plus_minus) <= len(calls) < 20_790 // 4
        assert all(math.gcd(x, _PRIMORIAL) == math.gcd(y, _PRIMORIAL) for x, y in calls)


class TestScanBudget:
    SCANS = (scan_minus_match, scan_base_match, scan_plus_match)

    # e_max = 2^64 is above sys.maxsize, where len() of a range stops.
    @pytest.mark.parametrize("bounds", [(2, 100_000_000), (2, 2**64), (2**64, 3)])
    def test_oversized_boxes_are_refused_before_any_pair_test(self, monkeypatch, bounds):
        calls = []
        monkeypatch.setattr(numtheory, "_same_support", lambda x, y: calls.append((x, y)))
        for scan in self.SCANS:
            started = time.perf_counter()
            with pytest.raises(ValueError, match=r"^the scan box costs [\d,]+ units, "
                               r"above the budget of 500,000,000$"):
                scan(*bounds)
            assert time.perf_counter() - started < 1
        assert calls == []

    @pytest.mark.parametrize("bounds", [(1, 100_000_000), (0, 100_000_000), (1, 2**64)])
    def test_boxes_without_a_base_are_answered_empty_at_once(self, bounds):
        started = time.perf_counter()
        assert [scan(*bounds) for scan in self.SCANS] == [[], ([], []), ([], [])]
        assert time.perf_counter() - started < 1


def binary_search_iroot(n, k):
    """Largest r with r^k <= n, by binary search (the former `_iroot`)."""
    if n in (0, 1) or k == 1:
        return n
    lo = 1
    hi = 1 << ((n.bit_length() + k - 1) // k + 1)
    while lo < hi - 1:
        mid = (lo + hi) // 2
        if mid**k <= n:
            lo = mid
        else:
            hi = mid
    return lo


class TestIntegerRoot:
    def test_matches_binary_search_on_random_values(self):
        rng = random.Random(14)
        for _ in range(3000):
            n = rng.getrandbits(rng.randint(1, 3000))
            k = rng.randint(1, 40)
            assert _iroot(n, k) == binary_search_iroot(n, k), (n, k)

    def test_exact_powers_and_their_neighbours(self):
        for r in range(300):
            for k in range(1, 12):
                for n in (r**k - 1, r**k, r**k + 1):
                    if n >= 0:
                        assert _iroot(n, k) == binary_search_iroot(n, k), (n, k)

    def test_large_exact_powers(self):
        rng = random.Random(15)
        for _ in range(200):
            r = rng.getrandbits(rng.randint(2, 400)) | 2
            k = rng.randint(2, 30)
            assert _iroot(r**k, k) == r
            assert _iroot(r**k - 1, k) == r - 1

    def test_negative_value_raises(self):
        with pytest.raises(ValueError):
            _iroot(-1, 3)


def full_catalan_scan(x_max, y_max, u_max, v_max):
    """One integer root for every (x, u, v) in the box: the scan without its v stop or budget."""
    hits = []
    for x in range(2, x_max + 1):
        for u in range(2, u_max + 1):
            for v in range(2, v_max + 1):
                y = _iroot(x**u - 1, v)
                if y <= y_max and y**v == x**u - 1:
                    hits.append((x, u, y, v))
    return sorted(hits)


class TestCatalanScan:
    def test_standard_box(self):
        assert catalan_scan(10, 10, 5, 5) == [(3, 2, 2, 3)]

    def test_tiny_box_is_empty(self):
        assert catalan_scan(2, 2, 2, 2) == []

    def test_large_box(self):
        assert catalan_scan(100, 100, 7, 7) == [(3, 2, 2, 3)]

    def test_pruned_scan_matches_the_full_loop(self):
        rng = random.Random(16)
        for _ in range(60):
            bounds = tuple(rng.randint(0, 24) for _ in range(4))
            assert catalan_scan(*bounds) == full_catalan_scan(*bounds), bounds

    def test_wide_exponent_box_is_prompt(self):
        # No v above the bit length of x^u - 1 can hit, so v_max = 10^8
        # costs what v_max = 49 does.
        started = time.perf_counter()
        assert catalan_scan(100, 100, 7, 100_000_000) == [(3, 2, 2, 3)]
        assert time.perf_counter() - started < 1

    @pytest.mark.parametrize("bounds", [(3, 2, 100_000_000, 1), (1, 100, 7, 7), (100, 0, 7, 7),
                                        (2**64, 2**64, 2**64, 1)])
    def test_boxes_with_a_bound_below_two_are_answered_empty_at_once(self, monkeypatch, bounds):
        monkeypatch.setattr(numtheory, "_iroot", lambda n, k: pytest.fail("formed a root"))
        started = time.perf_counter()
        assert catalan_scan(*bounds) == []
        assert time.perf_counter() - started < 1

    @pytest.mark.parametrize("bounds", [(2, 2, 100_000_000, 2), (2**64, 2, 2, 2), (121, 121, 200, 200)])
    def test_oversized_boxes_are_refused_before_any_root(self, monkeypatch, bounds):
        monkeypatch.setattr(numtheory, "_iroot", lambda n, k: pytest.fail("formed a root"))
        started = time.perf_counter()
        with pytest.raises(ValueError, match=r"^the scan box costs [\d,]+ units, "
                           r"above the budget of 100,000,000$"):
            catalan_scan(*bounds)
        assert time.perf_counter() - started < 1


class TestMinusMatchScan:
    def test_hits_are_exactly_the_known_family(self):
        hits = scan_minus_match(40, 8)
        assert hits == [(3, 2, 1), (7, 2, 1), (15, 2, 1), (31, 2, 1)]

    def test_base_two_has_no_hits(self):
        assert all(A != 2 for A, _, _ in scan_minus_match(10, 10))


class TestBaseMatchScan:
    def test_families(self):
        odd_hits, even_hits = scan_base_match(50, 12)
        assert odd_hits == [(2, 3)]
        assert even_hits == [(A, 2) for A in (2, 3, 5, 9, 17, 33)]


class TestPlusMatchScan:
    def test_families(self):
        plus_plus, plus_minus = scan_plus_match(50, 12)
        assert plus_plus == [(2, 3, 1)]
        expected = {(3, 1, 1), (2, 3, 2), (3, 2, 4)}
        expected |= {(A, 1, 2) for A in (2, 3, 5, 9, 17, 33)}
        assert set(plus_minus) == expected


def reference_det_power_products(M_max, exp_max):
    """The six shapes from separate power tables and one collision pass per shape."""
    minus_pow = {}
    plus_pow = {}
    for M in range(1, M_max + 1):
        lo, hi = (1 << M) - 1, (1 << M) + 1
        for e in range(1, exp_max + 1):
            minus_pow[M, e] = lo**e
            plus_pow[M, e] = hi**e

    def collide(left, right, ordered):
        by_value = {}
        for key, v in right.items():
            by_value.setdefault(v, []).append(key)
        hits = []
        for key, v in left.items():
            for other in by_value.get(v, ()):
                if key[0] == other[0]:
                    continue
                if ordered and key[0] < other[0]:
                    continue
                hits.append((key[0], other[0]) + tuple(key[1:]) + tuple(other[1:]))
        return sorted(hits)

    prod = {}
    for M in range(1, M_max + 1):
        for p in range(1, exp_max + 1):
            for q in range(1, exp_max + 1):
                prod[M, p, q] = minus_pow[M, p] * plus_pow[M, q]
    return (
        collide(minus_pow, minus_pow, ordered=True),
        collide(plus_pow, plus_pow, ordered=True),
        collide(plus_pow, minus_pow, ordered=False),
        collide(prod, prod, ordered=True),
        collide(prod, minus_pow, ordered=False),
        collide(prod, plus_pow, ordered=False),
    )


class TestDetPowerProducts:
    def test_matches_the_per_shape_collisions(self):
        # The acceptance box, the paper_grid boxes at seed 61 and the
        # corners of all its boxes (20 +- 4, 8 +- 2), the CLI test boxes, two
        # tiny boxes and seeded ones; all are inside the budget.  M = 1 is
        # in every box: 2^1 - 1 = 1, so each (1, p, q) product is 3^q
        # whatever p is.
        rng = random.Random(19)
        boxes = [(20, 8), (17, 9), (8, 4), (12, 4), (2, 1), (3, 3)]
        boxes += [(M, e) for M in (16, 24) for e in (6, 10)]
        boxes += [(rng.randint(2, 24), rng.randint(1, 10)) for _ in range(30)]
        for box in boxes:
            assert scan_det_power_products(*box) == reference_det_power_products(*box), box

    def test_small_box(self):
        s1, s2, s3, s4, s5, s6 = scan_det_power_products(8, 4)
        assert s1 == [] and s4 == []
        assert s2 == [(3, 1, 1, 2), (3, 1, 2, 4)]
        assert set(s3) == {(3, 2, 1, 2), (3, 2, 2, 4)} | {(1, 2, r, r) for r in range(1, 5)}

    def test_bounds_validation(self):
        with pytest.raises(ValueError):
            scan_det_power_products(1, 4)

    @pytest.mark.parametrize("bounds", [(2000, 100), (400, 60), (2, 2000), (2, 200)])
    def test_oversized_boxes_are_refused_before_the_index(self, bounds):
        # The first three boxes' value indexes would take gigabytes; (2, 200)
        # is over the budget by its 8 million pairs of M = 1 keys alone.
        # Refused, a box forms no value.
        tracemalloc.start()
        started = time.perf_counter()
        try:
            with pytest.raises(ValueError, match=r"^the scan box costs [\d,]+ units, "
                               r"above the budget of 1,000,000,000$"):
                scan_det_power_products(*bounds)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert time.perf_counter() - started < 1
        assert peak < 2**16

    def test_consistency_with_admissible_pairs(self):
        # Every cross-base coincidence of determinant shapes must involve an
        # admissible band-count pair.
        _, s2, s3, _, s5, s6 = scan_det_power_products(12, 4)
        for hits in (s2, s3, s5, s6):
            for hit in hits:
                m, n = max(hit[0], hit[1]), min(hit[0], hit[1])
                assert admissible_pair(m, n) is not None, hit


class TestAdmissiblePair:
    def test_examples(self):
        assert admissible_pair(3, 1) == "(3,1)"
        assert admissible_pair(4, 2) == "(2n,n)"
        assert admissible_pair(5, 3) is None

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            admissible_pair(2, 2)
        with pytest.raises(ValueError):
            admissible_pair(1, 3)

    def test_family_tag_accompanies_admissible(self):
        for m in range(2, 12):
            for n in range(1, m):
                assert admissible_pair(m, n) in (None, "(3,1)", "(3,2)", "(2n,n)")


def pair_witnesses(m, poly, found):
    """Add to `found` each pair (larger, smaller) of {m, n}, n != m, for which
    poly, a product of m-band factors, has a certificate made only of n-band
    factors.
    """
    for cert in decompose(poly):
        bands = {prm.m for prm in cert}
        if len(bands) == 1 and bands != {m}:
            (n,) = bands
            found.add((max(m, n), min(m, n)))


def admitted(pairs):
    return {pair for pair in pairs if admissible_pair(*pair) is not None}


class TestPairTableFromTheSearch:
    """The band-count table of `admissible_pair`, derived from `decompose`.

    A pair (m, n) is witnessed when some product of m-band factors has a
    certificate made only of n-band factors, with n on either side of m.
    This is the paper's condition at the polynomial level: a witness does
    not certify a knot, just as POLY_COMPATIBLE does not.
    """

    def test_single_factors(self):
        found = set()
        for m in range(2, 9):
            for l in range(-12, 13):
                for p in range(m + 1):
                    f = F_factor(SRParams(m, l, p))
                    if f.span:
                        pair_witnesses(m, f, found)
        assert found == admitted((m, n) for m in range(2, 9) for n in range(1, m))
        # The named witnesses: F(3,-3,3) for (3,1) and (3,2), F(2n,-12,0) for (2n,n).
        for n in (1, 2):
            certs = decompose(F_factor(SRParams(3, -3, 3)))
            assert any({prm.m for prm in cert} == {n} for cert in certs), n
        for n in range(1, 5):
            certs = decompose(F_factor(SRParams(2 * n, -12, 0)))
            assert any({prm.m for prm in cert} == {n} for cert in certs), n

    def test_two_factor_products(self):
        # Products of two m-band factors, 2 <= m <= 7, |l| <= 8, span <= 64;
        # here a product of two n-band factors may also be one 2n-band factor.
        found = set()
        count = 0
        for m in range(2, 8):
            factors = {F_factor(SRParams(m, l, p)) for l in range(-8, 9) for p in range(m + 1)}
            factors = [f for f in factors if f.span]
            for i, f in enumerate(factors):
                for g in factors[i:]:
                    if f.span + g.span <= 64:
                        pair_witnesses(m, normalize(f * g), found)
                        count += 1
        assert count == 1394
        pairs = ((m, n) for m in range(2, 65) for n in range(1, m) if {m, n} & set(range(2, 8)))
        assert found == admitted(pairs)
        assert found == {(3, 1), (3, 2)} | {(2 * n, n) for n in range(1, 8)}
