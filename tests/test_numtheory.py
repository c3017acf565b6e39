import random

import pytest

from srknots.numtheory import (
    _prime_support,
    admissible_pair,
    catalan_scan,
    factorize,
    is_prime,
    scan_base_match,
    scan_det_power_products,
    scan_minus_match,
    scan_plus_match,
)


def naive_prime_set(n):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return tuple(out)


class TestFactorization:
    # `_prime_support` is the P(x) that the minus, base and plus scans compare.
    def test_examples(self):
        assert _prime_support(9) == (3,)
        assert _prime_support(2**3 + 1) == _prime_support(2**1 + 1)
        assert _prime_support(63) == (3, 7)
        assert _prime_support(1) == ()

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            _prime_support(0)

    def test_against_naive_trial_division(self):
        rng = random.Random(31)
        samples = list(range(1, 2000)) + [rng.randrange(1, 10**6) for _ in range(500)]
        for n in samples:
            assert _prime_support(n) == naive_prime_set(n), n

    def test_reconstruction_from_multiplicities(self):
        rng = random.Random(17)
        values = [2**31 - 1, 2**20 + 1, 3**12 - 1, (2**20 - 1) * (2**19 + 1)]
        values += [rng.randrange(2, 10**12) for _ in range(50)]
        for n in values:
            factors = factorize(n)
            product = 1
            for p, e in factors.items():
                assert is_prime(p), (n, p)
                product *= p**e
            assert product == n

    def test_large_semiprime(self):
        p, q = 1_000_003, 999_983
        assert sorted(factorize(p * q)) == [q, p]

    def test_matches_sympy_factorint(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(2718)

        def prime_of_bits(low, high):
            return sympy.nextprime(rng.randrange(1 << (low - 1), 1 << high))

        samples = list(range(1, 3000))
        big = [prime_of_bits(20, 31) for _ in range(24)]
        samples += [big[i] * big[i + 1] for i in range(0, 24, 2)]
        samples += [p**k for p in (2, 3, 7919, 10007, *big[:4]) for k in (2, 3, 5)]
        # Chernick's (6k + 1)(12k + 1)(18k + 1) is a Carmichael number when
        # all three factors are prime; from k = 1667 on, every factor lies
        # above trial division, so the number reaches the primality test.
        chernick = [k for k in (*range(1, 400), *range(1667, 2400))
                    if all(sympy.isprime(j * k + 1) for j in (6, 12, 18))]
        samples += [(6 * k + 1) * (12 * k + 1) * (18 * k + 1) for k in chernick]
        samples += [561, 1105, 2465, 2821, 6601, 8911, 10585, 15841, 29341, 41041]
        samples += [big[0] ** 2 * big[1], big[2] ** 3 * big[3] ** 2, 3**4 * big[4] ** 2 * big[5]]
        for n in samples:
            assert factorize(n) == sympy.factorint(n), n


class TestCatalanScan:
    def test_standard_box(self):
        assert catalan_scan(10, 10, 5, 5) == [(3, 2, 2, 3)]

    def test_tiny_box_is_empty(self):
        assert catalan_scan(2, 2, 2, 2) == []

    def test_large_box(self):
        assert catalan_scan(100, 100, 7, 7) == [(3, 2, 2, 3)]


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


class TestDetPowerProducts:
    def test_small_box(self):
        s1, s2, s3, s4, s5, s6 = scan_det_power_products(8, 4)
        assert s1 == [] and s4 == []
        assert s2 == [(3, 1, 1, 2), (3, 1, 2, 4)]
        assert set(s3) == {(3, 2, 1, 2), (3, 2, 2, 4)} | {(1, 2, r, r) for r in range(1, 5)}

    def test_bounds_validation(self):
        with pytest.raises(ValueError):
            scan_det_power_products(1, 4)

    def test_consistency_with_admissible_pairs(self):
        # Every cross-base coincidence of determinant shapes must involve an
        # admissible band-count pair.
        _, s2, s3, _, s5, s6 = scan_det_power_products(12, 4)
        for hits in (s2, s3, s5, s6):
            for hit in hits:
                m, n = max(hit[0], hit[1]), min(hit[0], hit[1])
                assert admissible_pair(m, n).admissible, hit


class TestAdmissiblePair:
    def test_examples(self):
        assert admissible_pair(3, 1).admissible
        assert admissible_pair(3, 1).family == "(3,1)"
        assert admissible_pair(4, 2).family == "(2n,n)"
        assert not admissible_pair(5, 3).admissible

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            admissible_pair(2, 2)
        with pytest.raises(ValueError):
            admissible_pair(1, 3)

    def test_family_tag_accompanies_admissible(self):
        for m in range(2, 12):
            for n in range(1, m):
                verdict = admissible_pair(m, n)
                assert verdict.admissible == (verdict.family is not None)
