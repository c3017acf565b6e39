import inspect
import random
import sys
import time

import pytest

from srknots import invariants
from srknots.invariants import (
    DELTA2_BITS,
    _bits_at_two,
    _generators,
    delta2,
    is_pm_power_product,
    knot_det,
    symmetry_check,
)
from srknots.laurent import LaurentPoly, equal_up_to_unit, eval_int, normalize, parse
from srknots.srpoly import SRParams, F_factor


def NF(text):
    return normalize(parse(text))


class TestDelta2:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("2 - 5*t + 2*t^2", 0),
            ("2 - 6*t + 9*t^2 - 6*t^3 + 2*t^4", 5),
            ("1 - t - t^2 + 3*t^3 - t^4 - t^5 + t^6", 35),
            ("6 - 13*t + 6*t^2", 1),
        ],
    )
    def test_table_values(self, text, expected):
        assert delta2(NF(text)) == expected

    def test_zero_or_odd(self):
        for m in range(1, 5):
            for l in range(-4, 5):
                for p in range(m + 1):
                    v = delta2(F_factor(SRParams(m, l, p)))
                    assert v == 0 or v % 2 == 1

    def test_unit_invariance(self):
        rng = random.Random(7)
        base = parse("2 - 6*t + 9*t^2 - 6*t^3 + 2*t^4")
        for _ in range(20):
            shifted = base.shift(rng.randrange(-5, 6))
            if rng.random() < 0.5:
                shifted = -shifted
            dp = normalize(shifted)
            assert delta2(dp) == 5
            assert knot_det(dp) == 25

    def test_huge_power_of_two_is_stripped_promptly(self):
        # The value at 2 is 2^249996, the largest such power within the bit
        # budget: halving it one bit at a time is quadratic in the exponent
        # and takes about 16 s.
        dp = NF("t^249996 + t - 2")
        assert _bits_at_two(dp) <= DELTA2_BITS
        start = time.perf_counter()
        assert delta2(dp) == 1
        assert time.perf_counter() - start < 5.0

    def test_matches_division_loop(self):
        def odd_part_by_division(v):
            while v % 2 == 0:
                v //= 2
            return v

        rng = random.Random(41)
        texts = [str(rng.choice((1, -1)) * (rng.getrandbits(64) | 1) << rng.randrange(300))
                 for _ in range(100)]
        for _ in range(100):
            terms = [f"{rng.randrange(-9, 10):+d}*t^{e}" for e in range(rng.randrange(1, 40))]
            texts.append(" ".join(terms).lstrip("+"))
        for text in texts:
            if parse(text).is_zero:
                continue
            dp = NF(text)
            v = abs(eval_int(dp, 2))
            assert delta2(dp) == (odd_part_by_division(v) if v else 0), text


class TestDelta2Budget:
    def test_bound_holds_on_seeded_polynomials(self):
        rng = random.Random(43)
        for _ in range(300):
            terms = {e: rng.choice((1, -1)) * rng.getrandbits(rng.randrange(1, 80))
                     for e in rng.sample(range(200), rng.randrange(1, 12))}
            terms[0] = rng.randrange(1, 1 << 40)
            dp = normalize(LaurentPoly(terms))
            assert _bits_at_two(dp) >= abs(eval_int(dp, 2)).bit_length(), dp

    def test_trinomial_probe_is_within_budget(self):
        # 1 - 2^100000 + 2^200000 has 200,001 bits; the bound reads 200,003.
        assert _bits_at_two(NF("1 - t^100000 + t^200000")) == 200_003 <= DELTA2_BITS

    def test_refused_at_budget_plus_one_before_evaluating(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("dp(2) was formed")

        monkeypatch.setattr(invariants, "eval_int", forbidden)
        for text in ("t^100000000000 + t - 2", "2 - 5*t^2000000 + 2*t^4000000",
                     f"1 - t^{DELTA2_BITS - 1}"):
            with pytest.raises(ValueError, match="budget"):
                delta2(NF(text))
        assert _bits_at_two(NF(f"1 - t^{DELTA2_BITS - 1}")) == DELTA2_BITS + 1

    def test_value_at_the_budget_is_answered(self):
        # |1 - 2^(B-2)| has B - 2 bits; the bound, 1 + (B - 2) plus one bit
        # for the two terms, reads B.
        dp = NF(f"1 - t^{DELTA2_BITS - 2}")
        assert _bits_at_two(dp) == DELTA2_BITS
        assert delta2(dp) == (1 << (DELTA2_BITS - 2)) - 1


class TestKnotDet:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("2 - 5*t + 2*t^2", 9),
            ("1 - 6*t + 15*t^2 - 24*t^3 + 29*t^4 - 24*t^5 + 15*t^6 - 6*t^7 + t^8", 121),
            ("1", 1),
        ],
    )
    def test_table_values(self, text, expected):
        assert knot_det(NF(text)) == expected

    def test_factor_identity_on_grid(self):
        for m in range(1, 7):
            for l in range(-6, 7):
                for p in range(m + 1):
                    det = knot_det(F_factor(SRParams(m, l, p)))
                    assert det == (2**m - (-1) ** l) ** 2


class TestSymmetry:
    def test_palindromes(self):
        assert symmetry_check(NF("2 - 5*t + 2*t^2"))
        assert symmetry_check(NF("6 - 13*t + 6*t^2"))

    def test_non_palindrome(self):
        assert not symmetry_check(NF("1 + 2*t"))

    def test_one_normalize_and_unit_equivalence(self, monkeypatch):
        # q q(1/t) is symmetric, q - q(1/t) is equal to its image up to the
        # unit -1, and q alone is mostly neither.
        calls = []

        def counting(p):
            calls.append(p)
            return normalize(p)

        monkeypatch.setattr(invariants, "normalize", counting)
        rng = random.Random(12)
        seen = set()
        for _ in range(300):
            low = rng.randint(-3, 3)
            q = LaurentPoly({e: rng.randint(-3, 3) for e in range(low, low + rng.randint(1, 6))})
            for p in (q * q.substitute_inverse(), q - q.substitute_inverse(), q):
                if p.is_zero:
                    continue
                calls.clear()
                answer = symmetry_check(normalize(p))
                assert len(calls) == 1
                assert answer == equal_up_to_unit(p, p.substitute_inverse()), str(p)
                seen.add(answer)
        assert seen == {True, False}


def pm_product_set(limit):
    """Independent oracle: closure of {2^s +- 1 > 1} under products, up to limit."""
    atoms = set()
    s = 0
    while (1 << s) - 1 <= limit:
        for v in ((1 << s) - 1, (1 << s) + 1):
            if 1 < v <= limit:
                atoms.add(v)
        s += 1
    reachable = {1}
    frontier = [1]
    while frontier:
        value = frontier.pop()
        for a in atoms:
            nxt = value * a
            if nxt <= limit and nxt not in reachable:
                reachable.add(nxt)
                frontier.append(nxt)
    return reachable


def reference_pm_divisors(n):
    """One big-int remainder per candidate 2^s +- 1, s from the bit length down."""
    for s in range(n.bit_length(), -1, -1):
        for v in ((1 << s) + 1, (1 << s) - 1) if s >= 3 else ((1 << s) + 1,):
            if v <= n and n % v == 0:
                yield v


def reference_generators(n):
    """reference_pm_divisors(n) cut to the generators, as sorted (cyclotomic index, G)."""
    pairs = []
    for v in reference_pm_divisors(n):
        if v > 2 and (v - 1) & (v - 2) == 0:  # 2^s + 1 with s >= 1, index 2s
            pairs.append((2 * (v.bit_length() - 1), v))
        elif v & (v + 1) == 0 and v.bit_length() % 2:  # 2^s - 1 with s odd, index s
            pairs.append((v.bit_length(), v))
    return sorted(pairs)


def pm_value(s, sign):
    return 2 if s == 0 else (1 << s) + sign


class TestPmDivisors:
    def assert_matches_reference(self, n):
        """The scan of n's odd part, the value the division chain hands it."""
        n >>= (n & -n).bit_length() - 1
        pairs = _generators(n)
        assert sorted(pairs) == reference_generators(n), n
        for index, g in pairs:
            # 2^s - 1 at odd index s >= 3 or 2^s + 1 at index 2s >= 2: never
            # 1, 2 or 2^s - 1 with s even (3 is 2^1 + 1).
            if index % 2:
                assert index >= 3 and g == (1 << index) - 1, (n, index, g)
            else:
                assert index >= 2 and g == (1 << index // 2) + 1, (n, index, g)

    def test_every_small_n(self):
        for n in range(1, 40000, 2):
            self.assert_matches_reference(n)

    def test_seeded_products_with_cofactors(self):
        rng = random.Random(5)
        for _ in range(300):
            n = rng.getrandbits(rng.randrange(1, 601)) or 1
            for _ in range(rng.randrange(6)):
                n *= pm_value(rng.randrange(301), rng.choice((1, -1)))
            self.assert_matches_reference(n)

    def test_divisible_and_not_by_each_sieve_prime(self):
        # Each odd prime q < 256 with e = ord_q(2), by increasing e: q divides
        # 2^s - 1 exactly when e | s, and 2^s + 1 when s = e/2 (mod e).
        rng = random.Random(9)
        primes = [q for q in range(3, 256, 2) if all(q % d for d in range(3, int(q**0.5) + 1, 2))]
        orders = [(q, next(e for e in range(1, q) if pow(2, e, q) == 1)) for q in primes]
        for q, e in sorted(orders, key=lambda qe: qe[1]):
            base = ((1 << e) - 1) * ((1 << (e // 2 or 1)) + 1) * (rng.getrandbits(200) | 1)
            while base % q == 0:
                base //= q
            self.assert_matches_reference(base)
            self.assert_matches_reference(base * q)
            self.assert_matches_reference(base * q * q * pm_value(rng.randrange(1, 200), -1))

    def test_pm_values_themselves_and_even_n(self):
        rng = random.Random(13)
        for s in range(301):
            for sign in (1, -1):
                n = pm_value(s, sign)
                if n > 1:
                    self.assert_matches_reference(n)
                    self.assert_matches_reference(n << rng.randrange(1, 40))

    def test_large_product_witness(self):
        n = ((1 << 4001) - 1) * ((1 << 2000) + 1) * 3**5
        ok, witness = is_pm_power_product(n)
        assert ok
        product = 1
        for w in witness:
            product *= w
            # w - 1 or w + 1 is a power of two.
            assert (w - 1) & (w - 2) == 0 or (w + 1) & w == 0, w
        assert product == n
        assert list(witness) == sorted(witness, reverse=True)

    # The scan strikes every s >= top/2 from the bits of n around its middle
    # (top = bit length of n), and each failed exact test strikes the
    # multiples of s it implies.  The cases below sit on the edges of both.

    def test_cofactors_putting_s_at_the_middle(self):
        rng = random.Random(17)
        for s in range(1, 160):
            for sign in (1, -1):
                v = pm_value(s, sign)
                if v < 3:
                    continue
                for top in (2 * s - 1, 2 * s, 2 * s + 1):
                    hits = 0
                    for k in (top - v.bit_length(), top - v.bit_length() + 1):
                        for _ in range(3 if k >= 1 else 0):
                            n = v * (rng.getrandbits(k) | 1 << (k - 1))
                            if n.bit_length() == top:
                                hits += 1
                                self.assert_matches_reference(n)
                                self.assert_matches_reference(n * 3)
                    assert hits or top <= v.bit_length(), (s, sign, top)

    def test_empty_window_at_two_to_the_2s_minus_one(self):
        # n = 2^(2s) - 1 splits as hi = lo = 2^s - 1, so lo + hi = 2(2^s - 1)
        # and the window of s is empty.
        rng = random.Random(19)
        for s in range(1, 200):
            n = (1 << 2 * s) - 1
            self.assert_matches_reference(n)
            self.assert_matches_reference(n << rng.randrange(1, 8))
            self.assert_matches_reference(n * pm_value(rng.randrange(1, 2 * s), -1))

    def test_long_runs_across_the_middle_bit(self):
        rng = random.Random(23)
        for top in range(4, 260):
            for _ in range(6):
                a = rng.randrange(top // 2 + 1)
                b = rng.randrange(top // 2, top)
                run = ((1 << (b - a + 1)) - 1) << a
                noise = rng.getrandbits(top - 1)
                ones = (1 << (top - 1)) | run | noise
                zeros = (1 << (top - 1)) | (noise & ~run)
                for n in (ones, zeros, ones ^ (1 << rng.randrange(top - 1))):
                    self.assert_matches_reference(n | 1)
            # Exact multiples, one bit away from them, and the same built
            # so that the window holds and only the exact test can decide.
            s = rng.randrange((top + 1) // 2, top)
            hi = rng.getrandbits(top - s) | 1 << (top - s - 1) | 1
            for n in (hi * ((1 << s) - 1), hi * ((1 << s) + 1)):
                self.assert_matches_reference(n)
                for j in (top - s - 1, top - s, s - 1, s):
                    self.assert_matches_reference(n ^ (1 << j))

    def test_composite_exponents_with_one_dividing_factor(self):
        # 2^a +- 1 divides n but 2^b +- 1 does not, for exponents near ab:
        # a strike from b must not reach a multiple of a that divides n.
        rng = random.Random(29)
        seen = 0
        for a in range(1, 13):
            for b in range(2, 13):
                if a == b:
                    continue
                bases = [(1 << a * b) - 1, (1 << a * b) + 1]
                bases.append(((1 << a * b) - 1) // ((1 << b) - 1))
                if a % 2:
                    bases.append(((1 << a * b) + 1) // ((1 << b) + 1))
                for base in bases:
                    for cofactor in (1, rng.getrandbits(a * b) | 1, pm_value(a, -1) * 7):
                        n = base * cofactor
                        self.assert_matches_reference(n)
                        self.assert_matches_reference(n << 1)
                        seen += any(
                            n % pm_value(a, x) == 0 and n % pm_value(b, y)
                            for x in (1, -1)
                            for y in (1, -1)
                            if pm_value(a, x) > 1 and pm_value(b, y) > 1
                        )
        assert seen > 100


def reference_pm_power_product(n):
    """Depth-first search over cofactors: the search the division chain replaced.

    It tries every 2^s +- 1 divisor of each cofactor, with an explicit stack
    and a set of cofactors known to fail, so it is exponential in the number
    of such divisors of n.
    """
    divisors = list(reference_pm_divisors(n))
    dead = set()
    factors = []
    stack = [iter(divisors)]
    k = n
    while k != 1:
        v = next(stack[-1], None)
        if v is None:
            dead.add(k)
            stack.pop()
            if not factors:
                return False, None
            k *= factors.pop()
        elif k // v not in dead:
            factors.append(v)
            k //= v
            stack.append(iter([w for w in divisors if w <= k and k % w == 0]))
    return True, tuple(factors)


def assert_witness(n, witness):
    product = 1
    for w in witness:
        product *= w
        # w - 1 or w + 1 is a power of two, and w > 1.
        assert w > 1 and ((w - 1) & (w - 2) == 0 or (w + 1) & w == 0), (n, w)
    assert product == n, n
    assert list(witness) == sorted(witness, reverse=True), n


class TestDivisionChain:
    def assert_matches_reference(self, n):
        ok, witness = is_pm_power_product(n)
        assert ok == reference_pm_power_product(n)[0], n
        if ok:
            assert_witness(n, witness)
        else:
            assert witness is None

    def test_every_small_n(self):
        for n in range(1, 20000):
            self.assert_matches_reference(n)

    def test_seeded_products_of_up_to_six_generators(self):
        rng = random.Random(31)
        primes = [q for q in range(2, 50) if all(q % d for d in range(2, q))]
        for i in range(300):
            n = primes[rng.randrange(len(primes))] if i % 2 else 1
            for _ in range(rng.randrange(1, 7)):
                n *= pm_value(rng.randrange(60), rng.choice((1, -1)))
            self.assert_matches_reference(n)

    def test_every_two_generator_shape(self):
        values = sorted({pm_value(a, sign) for a in range(41) for sign in (1, -1)} - {0, 1})
        for i, x in enumerate(values):
            for y in values[i:]:
                for cofactor in (1, 3, 9, 11):
                    self.assert_matches_reference(x * y * cofactor)

    def test_even_mersenne_values_split(self):
        # 2^s - 1 with s even is (2^(s/2) - 1)(2^(s/2) + 1), so no witness
        # holds it.
        assert is_pm_power_product(15) == (True, (5, 3))
        assert is_pm_power_product(63) == (True, (9, 7))
        assert is_pm_power_product(255) == (True, (17, 5, 3))

    def test_many_dividing_generators_decide_promptly(self):
        # The reference search takes about 72 s here: 11 (2^360 - 1)^2 has
        # dozens of 2^s +- 1 divisors and is no such product.
        start = time.perf_counter()
        assert is_pm_power_product(11 * ((1 << 360) - 1) ** 2) == (False, None)
        assert time.perf_counter() - start < 1.0


class TestPmPowerProduct:
    def test_witness_for_35(self):
        ok, witness = is_pm_power_product(35)
        assert ok
        product = 1
        for w in witness:
            product *= w
            assert any(w == (1 << s) + d for s in range(8) for d in (1, -1))
        assert product == 35

    @pytest.mark.parametrize("n", [11, 13, 91, 121])
    def test_known_obstruction_values(self, n):
        ok, witness = is_pm_power_product(n)
        assert not ok and witness is None

    def test_one_is_empty_product(self):
        assert is_pm_power_product(1) == (True, ())

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            is_pm_power_product(0)

    def test_delta2_of_factors_is_always_product(self):
        for m in range(1, 7):
            for l in range(-6, 7):
                for p in range(m + 1):
                    d2 = delta2(F_factor(SRParams(m, l, p)))
                    if d2 >= 1:
                        ok, _ = is_pm_power_product(d2)
                        assert ok, (m, l, p, d2)

    def test_chain_deeper_than_recursion_limit(self):
        depth = len(inspect.stack(0))
        limit = depth + 100
        old_limit = sys.getrecursionlimit()
        sys.setrecursionlimit(limit)
        try:
            ok, witness = is_pm_power_product(9**limit)
        finally:
            sys.setrecursionlimit(old_limit)
        assert ok and witness == (9,) * limit

    def test_against_enumeration_oracle(self):
        limit = 10**6
        oracle = pm_product_set(limit)
        for n in range(1, 20001):
            assert is_pm_power_product(n)[0] == (n in oracle), n
        rng = random.Random(2024)
        for _ in range(1500):
            n = rng.randrange(1, limit + 1)
            assert is_pm_power_product(n)[0] == (n in oracle), n
