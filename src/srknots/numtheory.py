"""Exact integer machinery: factorization, prime-support scans, determinant shapes.

The determinant of a knot built from m-band fusions is (2^m - 1)^a (2^m + 1)^b,
so questions about knots shared between band counts reduce to coincidences
between such power products.  This module provides the prime-support set
P(x), bounded brute-force scans over the relevant exponential Diophantine
shapes, and the admissible-pair classifier for band counts.

All scans run on exact big integers; they are verification harnesses over
finite boxes, not proofs.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Tuple

__all__ = [
    "FactorSet",
    "PairVerdict",
    "factorize",
    "prime_factor_set",
    "gcd_structure",
    "catalan_scan",
    "scan_minus_match",
    "scan_base_match",
    "scan_plus_match",
    "scan_det_power_products",
    "admissible_pair",
    "det_constraint",
]

_TRIAL_LIMIT = 10_000
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_DETERMINISTIC_BOUND = 3_317_044_064_679_887_385_961_981


def _small_primes() -> list[int]:
    sieve = bytearray([1]) * (_TRIAL_LIMIT + 1)
    sieve[0] = sieve[1] = 0
    for i in range(2, int(math.isqrt(_TRIAL_LIMIT)) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
    return [i for i, flag in enumerate(sieve) if flag]


_SMALL_PRIMES = _small_primes()


def is_prime(n: int) -> bool:
    """Miller-Rabin, deterministic for n below ~3.3e24; fixed-seed rounds above."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1

    def witness_passes(a: int) -> bool:
        x = pow(a, d, n)
        if x in (1, n - 1):
            return True
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                return True
        return False

    witnesses = list(_MR_WITNESSES)
    if n >= _MR_DETERMINISTIC_BOUND:
        rng = random.Random(0xC0FFEE ^ n)
        witnesses += [rng.randrange(2, n - 1) for _ in range(24)]
    return all(witness_passes(a) for a in witnesses)


def _pollard_rho(n: int) -> int:
    """A nontrivial factor of composite odd n (Brent's cycle variant)."""
    if n % 2 == 0:
        return 2
    for c in range(1, 1000):
        y, m_batch, g, r, q = 2, 128, 1, 1, 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m_batch, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m_batch
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
    raise ArithmeticError(f"rho failed to split {n}")


def factorize(n: int) -> dict[int, int]:
    """Complete prime factorization as a prime -> multiplicity map."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    out: dict[int, int] = {}
    for p in _SMALL_PRIMES:
        if p * p > n:
            break
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    if n == 1:
        return out
    stack = [n]
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        d = _pollard_rho(m)
        stack.append(d)
        stack.append(m // d)
    return out


@dataclass(frozen=True)
class FactorSet:
    """A positive integer with its set of distinct prime factors."""

    n: int
    primes: Tuple[int, ...]


@lru_cache(maxsize=4096)
def _prime_support(n: int) -> Tuple[int, ...]:
    return tuple(sorted(factorize(n)))


def prime_factor_set(n: int) -> FactorSet:
    """The set of distinct primes dividing n; empty for n = 1."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    return FactorSet(n, _prime_support(n))


def gcd_structure(A: int, m: int, n: int, second_is_minus: bool) -> int:
    """gcd(A^m + 1, A^n +- 1).

    Always lands in {1, 2, A^g + 1} with g = gcd(m, n); the enclosing test
    grid asserts that classification.
    """
    if A <= 1:
        raise ValueError("A must exceed 1")
    second = A**n - 1 if second_is_minus else A**n + 1
    return math.gcd(A**m + 1, second)


def _iroot(n: int, k: int) -> int:
    """Largest r with r^k <= n (n >= 0, k >= 1), by exact binary search."""
    if n < 0:
        raise ValueError("n must be non-negative")
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


def catalan_scan(
    x_max: int, y_max: int, u_max: int, v_max: int
) -> list[tuple[int, int, int, int]]:
    """All solutions of x^u - y^v = 1 with x, y > 0 and u, v > 1 in the box.

    Returned as (x, u, y, v) tuples; any box containing (3, 2, 2, 3) yields
    exactly that one solution.
    """
    hits = []
    for x in range(2, x_max + 1):
        for u in range(2, u_max + 1):
            target = x**u - 1
            if target < 1:
                continue
            for v in range(2, v_max + 1):
                y = _iroot(target, v)
                if y != 0 and y <= y_max and y**v == target:
                    hits.append((x, u, y, v))
    return sorted(hits)


def scan_minus_match(A_max: int, m_max: int) -> list[tuple[int, int, int]]:
    """All (A, m, n) with A <= A_max, m_max >= m > n >= 1 and
    P(A^m - 1) = P(A^n - 1).

    Every hit has m = 2, n = 1 and A of the form 2^j - 1.
    """
    hits = []
    for A in range(2, A_max + 1):
        supports = {e: _support_of(A**e - 1) for e in range(1, m_max + 1)}
        for m in range(2, m_max + 1):
            for n in range(1, m):
                if supports[m] == supports[n]:
                    hits.append((A, m, n))
    return hits


def _support_of(x: int) -> Tuple[int, ...]:
    # P(1) is the empty set.
    return _prime_support(x) if x > 1 else ()


def scan_base_match(
    A_max: int, exp_max: int
) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """Hits of P(A^p + 1) = P(A + 1) for odd p > 1, and of
    P(A^q - 1) = P(A + 1) for even q, within the box.

    The first list is exactly {(2, 3)}; the second holds (A, 2) for
    A = 2^j + 1 only.
    """
    odd_hits = []
    even_hits = []
    for A in range(2, A_max + 1):
        base = _support_of(A + 1)
        for p in range(3, exp_max + 1, 2):
            if _support_of(A**p + 1) == base:
                odd_hits.append((A, p))
        for q in range(2, exp_max + 1, 2):
            if _support_of(A**q - 1) == base:
                even_hits.append((A, q))
    return odd_hits, even_hits


def scan_plus_match(
    A_max: int, m_max: int
) -> tuple[list[tuple[int, int, int]], list[tuple[int, int, int]]]:
    """Hits of P(A^m + 1) = P(A^n + 1) with m > n >= 1, and of
    P(A^m + 1) = P(A^n - 1) with m, n >= 1, within the box.

    The first list is exactly {(2, 3, 1)}.  The second consists of the
    families (3, 1, 1), (2, 3, 2), (3, 2, 4) and (2^j + 1, 1, 2).
    """
    plus_plus = []
    plus_minus = []
    for A in range(2, A_max + 1):
        plus = {e: _support_of(A**e + 1) for e in range(1, m_max + 1)}
        minus = {e: _support_of(A**e - 1) for e in range(1, m_max + 1)}
        for m in range(1, m_max + 1):
            for n in range(1, m_max + 1):
                if n < m and plus[m] == plus[n]:
                    plus_plus.append((A, m, n))
                if plus[m] == minus[n]:
                    plus_minus.append((A, m, n))
    return plus_plus, plus_minus


def scan_det_power_products(M_max: int, exp_max: int):
    """Coincidences among products of powers of 2^M - 1 and 2^M + 1, M != N.

    Returns six sorted lists for the six equation shapes (exponents range
    over 1..exp_max, bases over 1 <= M, N <= M_max, always with M != N):

      1. (2^M-1)^p = (2^N-1)^r                      -> (M, N, p, r), none
      2. (2^M+1)^q = (2^N+1)^s  (M > N)             -> (M, N, q, s)
      3. (2^M+1)^q = (2^N-1)^r                      -> (M, N, q, r)
      4. (2^M-1)^p (2^M+1)^q = (2^N-1)^r (2^N+1)^s  -> (M, N, p, q, r, s), none
      5. (2^M-1)^p (2^M+1)^q = (2^N-1)^r            -> (M, N, p, q, r)
      6. (2^M-1)^p (2^M+1)^q = (2^N+1)^r            -> (M, N, p, q, r)
    """
    if M_max < 2 or exp_max < 1:
        raise ValueError("bounds too small")
    minus_pow = {}
    plus_pow = {}
    for M in range(1, M_max + 1):
        lo, hi = (1 << M) - 1, (1 << M) + 1
        for e in range(1, exp_max + 1):
            minus_pow[M, e] = lo**e
            plus_pow[M, e] = hi**e

    def collide(left: dict, right: dict, ordered: bool):
        by_value: dict[int, list] = {}
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

    shape1 = collide(minus_pow, minus_pow, ordered=True)
    shape2 = collide(plus_pow, plus_pow, ordered=True)
    shape3 = collide(plus_pow, minus_pow, ordered=False)

    prod = {}
    for M in range(1, M_max + 1):
        for p in range(1, exp_max + 1):
            for q in range(1, exp_max + 1):
                prod[M, p, q] = minus_pow[M, p] * plus_pow[M, q]

    shape4 = collide(prod, prod, ordered=True)
    shape5 = collide(prod, minus_pow, ordered=False)
    shape6 = collide(prod, plus_pow, ordered=False)
    return shape1, shape2, shape3, shape4, shape5, shape6


@dataclass(frozen=True)
class PairVerdict:
    """Whether band counts m > n can share a nontrivial knot."""

    m: int
    n: int
    admissible: bool
    family: Optional[str] = None

    def __post_init__(self):
        if self.admissible and self.family is None:
            raise ValueError("admissible verdicts carry a family tag")


def admissible_pair(m: int, n: int) -> PairVerdict:
    """Classify (m, n), m > n >= 1: admissible iff (3,1), (3,2) or (2n, n)."""
    if n < 1 or m <= n:
        raise ValueError("require m > n >= 1")
    if (m, n) == (3, 1):
        return PairVerdict(m, n, True, "(3,1)")
    if (m, n) == (3, 2):
        return PairVerdict(m, n, True, "(3,2)")
    if m == 2 * n:
        return PairVerdict(m, n, True, "(2n,n)")
    return PairVerdict(m, n, False)


def det_constraint(det: int, m: int) -> Optional[tuple[int, int]]:
    """Exponents (a, b) with det = (2^m - 1)^a (2^m + 1)^b, or None.

    For m = 1 the base 2^1 - 1 = 1 forces a = 0 by convention.
    """
    if det < 1 or m < 1:
        raise ValueError("det and m must be positive")
    lo, hi = (1 << m) - 1, (1 << m) + 1

    def exponent_of(value: int, base: int) -> Optional[int]:
        e = 0
        while value > 1:
            if value % base:
                return None
            value //= base
            e += 1
        return e

    if m == 1:
        b = exponent_of(det, hi)
        return None if b is None else (0, b)
    rest = det
    a = 0
    while True:
        b = exponent_of(rest, hi)
        if b is not None:
            return (a, b)
        if rest % lo:
            return None
        rest //= lo
        a += 1
