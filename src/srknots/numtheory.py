"""Exact integer machinery: prime-support scans and determinant shapes.

The determinant of a knot built from m-band fusions is (2^m - 1)^a (2^m + 1)^b,
so questions about knots shared between band counts reduce to coincidences
between such power products.  This module provides bounded brute-force
scans over the relevant exponential Diophantine shapes (the `nt scan`
families), and the admissible-pair classifier for band counts (`nt pairs`).
No scan factors a value.

Three scan families (`minus`, `base`, `plus`) ask whether two values have
the same prime support P(x), the set of primes dividing x.  All three run
through one pair scan, `_support_scan`: a family is a list of rules, each
with two signs a, b and the exponent pairs (i, j) at which to test
P(A^i + a) = P(A^j + b).  The scan answers by divisibility, without
factoring: for x, y >= 1, P(x) is contained in P(y) exactly when x divides
y^k with k = x.bit_length().  If every prime of x divides y, each prime
power p^a in x has a < k, so it divides y^k; if x divides y^k, each prime
of x divides y^k and hence y.  So two modular powers decide P(x) = P(y)
exactly and deterministically.

Before those powers, the scan forms each value A^e +- 1 that a rule uses
once per A, with one signature, gcd(v, 2 * 3 * 5 * ... * 47): the product
of the primes below 50 that divide v.  Equal supports force equal
signatures, so a pair whose signatures differ cannot match and is
skipped; only pairs that agree on the small primes reach the modular
powers.  Hits and their order are those of the powers alone.  One cost,
counted from the bounds before any value is formed, refuses a box above
SCAN_BUDGET with ValueError.

`catalan_scan` and `scan_det_power_products` have budgets of their own,
CATALAN_BUDGET and DET_BUDGET, so every family refuses an oversized box
before it forms a value.  All scans run on exact big integers; they are
verification harnesses over finite boxes, not proofs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations
from typing import Optional

__all__ = [
    "PairVerdict",
    "catalan_scan",
    "scan_minus_match",
    "scan_base_match",
    "scan_plus_match",
    "scan_det_power_products",
    "admissible_pair",
]

# The product of the primes below 50: gcd(v, _PRIMORIAL) is the scans'
# signature of v.
_PRIMORIAL = math.prod((2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47))


def _same_support(x: int, y: int) -> bool:
    """P(x) = P(y) for x, y >= 1: x divides y^bitlen(x) and y divides x^bitlen(y).

    1 has empty support, so it matches only 1.
    """
    return pow(y, x.bit_length(), x) == 0 and pow(x, y.bit_length(), y) == 0


def _within_budget(cost: int, budget: int) -> None:
    """Refuse a scan box whose cost, counted from its bounds, is above budget."""
    if cost > budget:
        raise ValueError(f"the scan box costs {cost:,} units, above the budget of {budget:,}")


def _iroot(n: int, k: int) -> int:
    """Largest r with r^k <= n (n >= 0, k >= 1), exactly.

    k = 2 is `math.isqrt`.  Otherwise integer Newton steps
    r <- ((k - 1) r + n // r^(k - 1)) // k run from r = 2^ceil(bits / k),
    which is above the root.  By the AM-GM inequality a step never lands
    below the root, and from above the root it strictly falls, so the
    first step that does not fall leaves r at the root.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if n in (0, 1) or k == 1:
        return n
    if k == 2:
        return math.isqrt(n)
    r = 1 << -(-n.bit_length() // k)
    while True:
        s = ((k - 1) * r + n // r ** (k - 1)) // k
        if s >= r:
            return r
        r = s


# The cost of a `catalan_scan` box, from its bounds alone: every (x, u) and
# every v up to top = u_max * bitlen(x_max), the bit bound of x^u, each root
# counted as 64 plus top bits.  Single in-process runs (2-core x86-64 VM,
# Python 3.11) took 0.9-12.5 ns per unit, more for many small values than
# for few wide ones, and 0.34-1.21 s at the budget: (2, -, 4984, 3) 0.36 s,
# (2, -, 1116, 40) 0.58 s, (20, -, 229, 20) 0.75 s, (100, -, 56, 40) 1.21 s,
# (1000, -, 20, 20) 1.13 s, (10^6, -, 2, 2) 0.88 s (y_max costs nothing).
# The widest box the tests and the benchmark use, (120, 120, 8, 8), costs
# 7.0e5.
CATALAN_BUDGET = 100_000_000


def catalan_scan(
    x_max: int, y_max: int, u_max: int, v_max: int
) -> list[tuple[int, int, int, int]]:
    """All solutions of x^u - y^v = 1 with x, y > 0 and u, v > 1 in the box.

    Returned as (x, u, y, v) tuples; any box containing (3, 2, 2, 3) yields
    exactly that one solution.  Since y >= 2 gives y^v >= 2^v, v stops below
    the bit length of x^u - 1.  A box with a bound below 2 is answered
    empty, and one that costs more than CATALAN_BUDGET raises ValueError,
    both before anything is formed.
    """
    hits = []
    if min(x_max, y_max, u_max, v_max) < 2:
        return hits
    top = u_max * x_max.bit_length()
    _within_budget((x_max - 1) * (u_max - 1) * min(v_max - 1, top) * (64 + top), CATALAN_BUDGET)
    for x in range(2, x_max + 1):
        for u in range(2, u_max + 1):
            target = x**u - 1
            for v in range(2, min(v_max + 1, target.bit_length())):
                y = _iroot(target, v)
                if y <= y_max and y**v == target:
                    hits.append((x, u, y, v))
    return sorted(hits)


# The cost of a `_support_scan` box, from its bounds alone: for each base A,
# two values A^e +- 1 per exponent up to the top one, e_max, and every pair
# test, each counted as 64 plus the e_max * bitlen(A_max) bits that bound
# every value, so at A_max = 2 it grows 8x per doubling of e_max.  Single
# in-process runs (2-core x86-64 VM, Python 3.11) took 1.2-3.6 ns per unit
# (minus (2, 1000) costs 1.0e9 and took 1.4 s, base (2, 20000) 2.4e9 and
# 3.1 s, plus (2, 1000) 3.1e9 and 3.7 s), and 0.4-2.0 s at the budget: minus
# (2, 782) 0.55 s, (1000, 43) 1.25 s, (262143, 4) 2.0 s; base (2, 9112)
# 0.40 s, (55804, 12) 1.2 s; plus (2, 539) 0.59 s, (9211, 12) 0.80 s.  The
# widest box the tests and the benchmark use, plus (200, 16), costs 1.6e7.
SCAN_BUDGET = 500_000_000


def _span(r: range) -> int:
    """The length of a range with a positive step; len() stops at sys.maxsize."""
    return max(0, -(-(r.stop - r.start) // r.step))


def _support_scan(A_max: int, rules) -> list[list[tuple[int, int, int]]]:
    """Hits (A, i, j) of P(A^i + a) = P(A^j + b) for 2 <= A <= A_max, one list per rule.

    A rule (a, b, left, right) has signs a, b in {1, -1} and tests every i
    in the range `left` against every j in the range `right`, or, when
    `right` is None, against the j of `left` below i.  For each A the scan
    forms A^e + s and its signature once for each (s, e) that a pair uses;
    hits are listed by A, then in the rule's (i, j) order.  A box with no
    base or no pair is answered empty, and one that costs more than
    SCAN_BUDGET raises ValueError, both before anything is formed.
    """
    hits = [[] for _ in rules]
    pairs = sum(
        _span(left) * (_span(left) - 1) // 2 if right is None else _span(left) * _span(right)
        for _, _, left, right in rules
    )
    if A_max < 2 or not pairs:
        return hits
    top = max(r[-1] for _, _, left, right in rules for r in (left, right) if r)
    _within_budget((A_max - 1) * (2 * top + pairs) * (64 + top * A_max.bit_length()), SCAN_BUDGET)
    # slot[(s, e)] is the index of A^e + s in `values`; each rule's pair
    # tests are two slot-index lists read in step, which beat values
    # indexed by exponent on the base family's few pairs per A.
    slot: dict[tuple[int, int], int] = {}
    tests = []
    for a, b, left, right in rules:
        xs, ys = [], []
        for k, i in enumerate(left):
            for j in left[:k] if right is None else right:
                xs.append(slot.setdefault((a, i), len(slot)))
                ys.append(slot.setdefault((b, j), len(slot)))
        tests.append((xs, ys))
    forms = list(slot)
    for A in range(2, A_max + 1):
        values = [A**e + s for s, e in forms]
        sigs = [math.gcd(v, _PRIMORIAL) for v in values]
        for found, (xs, ys) in zip(hits, tests):
            for x, y in zip(xs, ys):
                if sigs[x] == sigs[y] and _same_support(values[x], values[y]):
                    found.append((A, forms[x][1], forms[y][1]))
    return hits


def scan_minus_match(A_max: int, m_max: int) -> list[tuple[int, int, int]]:
    """All (A, m, n) with A <= A_max, m_max >= m > n >= 1 and
    P(A^m - 1) = P(A^n - 1).

    Every hit has m = 2, n = 1 and A of the form 2^j - 1.
    """
    (hits,) = _support_scan(A_max, [(-1, -1, range(1, m_max + 1), None)])
    return hits


def scan_base_match(
    A_max: int, exp_max: int
) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """Hits of P(A^p + 1) = P(A + 1) for odd p > 1, and of
    P(A^q - 1) = P(A + 1) for even q, within the box.

    The first list is exactly {(2, 3)}; the second holds (A, 2) for
    A = 2^j + 1 only.
    """
    odd_hits, even_hits = _support_scan(A_max, [
        (1, 1, range(3, exp_max + 1, 2), range(1, 2)),
        (-1, 1, range(2, exp_max + 1, 2), range(1, 2)),
    ])
    return [(A, p) for A, p, _ in odd_hits], [(A, q) for A, q, _ in even_hits]


def scan_plus_match(
    A_max: int, m_max: int
) -> tuple[list[tuple[int, int, int]], list[tuple[int, int, int]]]:
    """Hits of P(A^m + 1) = P(A^n + 1) with m > n >= 1, and of
    P(A^m + 1) = P(A^n - 1) with m, n >= 1, within the box.

    The first list is exactly {(2, 3, 1)}.  The second consists of the
    families (3, 1, 1), (2, 3, 2), (3, 2, 4) and (2^j + 1, 1, 2).
    """
    exponents = range(1, m_max + 1)
    plus_plus, plus_minus = _support_scan(
        A_max, [(1, 1, exponents, None), (1, -1, exponents, exponents)]
    )
    return plus_plus, plus_minus


# The cost of a `scan_det_power_products` box, from its bounds alone: each
# of its M_max ((exp_max + 1)^2 - 1) values counted as 64 plus the
# 2 M_max exp_max bits that bound it, and 400 units for each of the about
# (exp_max + 1)^3 ordered pairs of keys (1, p, q) that share a value, since
# 2^1 - 1 = 1.  Single runs in fresh processes (2-core x86-64 VM, Python
# 3.11) took 0.5-0.9 ns per value unit and 210-400 ns per pair ((2, 500) took
# 34 s), and 0.53-0.72 s, at a peak of 23-80 MB, at the budget: (2, 133),
# (10, 117), (22, 88), (50, 56), (100, 35), (238, 19), (643, 10), (1687, 5)
# and (12893, 1).  The widest box the tests and the benchmark use, (24, 10),
# costs 2.1e6.
DET_BUDGET = 1_000_000_000


# The kind of a key (M, p, q) of `scan_det_power_products`, and the shape
# index of each left kind + right kind that is one of its six shapes.
_DET_SHAPES = {"--": 0, "++": 1, "+-": 2, "**": 3, "*-": 4, "*+": 5}


def _kind(p: int, q: int) -> str:
    return "*" if p and q else "+" if q else "-"


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

    One index maps each value (2^M-1)^p (2^M+1)^q, p, q >= 0 not both 0, to
    its keys (M, p, q).  A key's kind is "-" for q = 0, "+" for p = 0 and
    "*" otherwise.  Each ordered pair of keys of one value with M != N whose
    kinds name a shape is a hit, kept only for M > N when the kinds agree.
    A box that costs more than DET_BUDGET raises ValueError before the index
    is built.
    """
    if M_max < 2 or exp_max < 1:
        raise ValueError("bounds too small")
    values = M_max * ((exp_max + 1) ** 2 - 1)
    _within_budget(values * (64 + 2 * M_max * exp_max) + 400 * (exp_max + 1) ** 3, DET_BUDGET)
    keys: dict[int, list[tuple[int, int, int]]] = {}
    for M in range(1, M_max + 1):
        lo, hi = (1 << M) - 1, (1 << M) + 1
        for p in range(exp_max + 1):
            for q in range(exp_max + 1):
                if p or q:
                    keys.setdefault(lo**p * hi**q, []).append((M, p, q))
    shapes: tuple[list, ...] = ([], [], [], [], [], [])
    for same in keys.values():
        for (M, p, q), (N, r, s) in permutations(same, 2):
            left, right = _kind(p, q), _kind(r, s)
            shape = _DET_SHAPES.get(left + right)
            if M != N and shape is not None and (left != right or M > N):
                shapes[shape].append((M, N) + tuple(e for e in (p, q, r, s) if e))
    return tuple(sorted(hits) for hits in shapes)


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
