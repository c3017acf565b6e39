"""Scalar invariants of normalized Alexander polynomials.

delta2 is the largest odd factor of the absolute value at t = 2 (0 when the
value vanishes); the knot determinant is the absolute value at t = -1.  Both
are invariant under multiplication by units +-t^k, hence well defined on
normal forms.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from .laurent import NormalForm, eval_int, normalize

__all__ = ["delta2", "knot_det", "is_pm_power_product", "symmetry_check"]


# Bits that dp(2) may hold before `delta2` forms it.  Deciding whether a
# value of this many bits is a product of 2^s +- 1 takes up to about 2.6 s
# (the slowest shape measured, (2^N - 1)(2^N + 1), read 1.4-1.8 s at
# 200,000 bits, 2.2-2.6 s at 250,000 and 2.8-3.6 s at 300,000 on a shared
# 2-core x86-64 VM under Python 3.11, nearly all of it in `_generators`),
# and the `1 - t^100000 + t^200000` probe needs 200,003.
DELTA2_BITS = 250_000


def _bits_at_two(dp: NormalForm) -> int:
    """An upper bound on the bit length of |dp(2)|, from the terms alone.

    |sum_e c_e 2^e| <= sum_e |c_e| 2^e < (number of terms) * 2^M, where
    M is the largest e + bitlen(c_e).
    """
    terms = dp.terms
    top = max(e + abs(c).bit_length() for e, c in terms.items())
    return top + (len(terms) - 1).bit_length()


def delta2(dp: NormalForm) -> int:
    """Largest odd factor of |dp(2)|, or 0 when dp(2) = 0.  Always 0 or odd.

    Raises ValueError before forming dp(2) when its bit-length bound is
    above DELTA2_BITS.
    """
    bits = _bits_at_two(dp)
    if bits > DELTA2_BITS:
        raise ValueError(
            f"dp(2) may hold {bits:,} bits, above the delta2 budget of {DELTA2_BITS:,} bits"
        )
    # A normal form has no negative exponents, so dp(2) is a sum of shifts.
    v = abs(sum(c << e for e, c in dp.terms.items()))
    if v == 0:
        return 0
    # One shift by the 2-adic valuation: dividing by 2 in a loop is
    # quadratic in the bit length.
    return v >> ((v & -v).bit_length() - 1)


def knot_det(dp: NormalForm) -> int:
    """|dp(-1)|."""
    return abs(eval_int(dp, -1))


def symmetry_check(dp: NormalForm) -> bool:
    """Whether dp is unit-equivalent to its own t -> 1/t image (dp is normal already)."""
    return normalize(dp.substitute_inverse()) == dp


def _strike(flags: bytearray, start: int, step: int) -> None:
    """Clear flags[start], flags[start + step], ... up to the sentinel."""
    flags[start:-1:step] = bytes(len(range(start, len(flags) - 1, step)))


def _generators(n: int) -> List[Tuple[int, int]]:
    """(cyclotomic index, G) for each generator G that divides the odd n.

    The generators are 2^s + 1 for s >= 1, of index 2s, and 2^s - 1 for odd
    s >= 3, of index s; the index of G is the least D with G | 2^D - 1.
    2^s - 1 with s even is (2^(s/2) - 1)(2^(s/2) + 1), so it is none, and
    neither is 2, which the caller strips.

    Most s are struck before any big-int step, and each survivor costs a few
    linear ones, not a full remainder:

    - Window.  For s >= top/2, where top is the bit length of n, n < 2^(2s)
      splits as hi * 2^s + lo with hi < 2^(top-s) <= 2^s.  Then 2^s - 1 | n
      forces lo + hi to be 2^s - 1 or 2(2^s - 1), and 2^s + 1 | n forces
      lo = hi; either way bits top-s .. s-1 of n are all ones (minus) or
      all zeros (plus).  That window grows with s, so the zero (or one)
      bit of n nearest the middle gives the first s it rules out, and every
      larger s is struck with it.
    - Closure.  The survivors are tested from s = 1 up, and a failed test
      strikes what it implies: 2^d +- 1 divides 2^(kd) +- 1 for odd k, so
      if it does not divide n, that sign is struck at 3d, 5d, ...  The next
      survivor is found with `bytearray.find`.
    - Fold.  2^(2s) = 1 (mod 2^(2s) - 1), so splitting r at a multiple h of
      2s and replacing it with (r mod 2^h) + (r >> h) keeps its class modulo
      both 2^s - 1 and 2^s + 1.  Halving r this way down to 2s + 1 bits and
      splitting it at s into lo and hi leaves lo + hi = n (mod 2^s - 1) and
      lo - hi = n (mod 2^s + 1), so the exact test acts on s-bit values.
    """
    top = n.bit_length()
    # minus[s] (plus[s]): 2^s - 1 (2^s + 1) may divide n.  The last index,
    # above top, is a sentinel that is never struck, so `find` always ends.
    minus = bytearray(b"\0\1") * (top // 2 + 1) + b"\1"  # odd s only
    minus[1] = 0  # 2^1 - 1 = 1
    plus = bytearray([1]) * len(minus)
    plus[0] = 0
    # Bit j lies in the window of every s >= max(j + 1, top - j), which is
    # j + 1 for j >= c and top - j below c.  So the lowest zero (one) bit at
    # or above c and the highest below c give the first s struck for minus
    # (plus); top + 1 when there is none.
    c = top // 2
    high, low = n >> c, n & ((1 << c) - 1)
    zero_above = (~high & (high + 1)).bit_length() + c  # lowest zero, plus one
    one_above = (high & -high).bit_length() + c
    zero_below = top - (low ^ ((1 << c) - 1)).bit_length() + 1
    one_below = top - low.bit_length() + 1
    _strike(minus, min(zero_above, zero_below), 1)
    _strike(plus, min(one_above, one_below), 1)
    found = []
    s = 0
    while True:
        s = min(minus.find(1, s), plus.find(1, s))
        if s > top:
            return found
        width = 2 * s
        r = n
        while r.bit_length() > width + 1:
            h = -(-(r.bit_length() // 2) // width) * width
            r = (r & ((1 << h) - 1)) + (r >> h)
        lo, hi = r & ((1 << s) - 1), r >> s
        if minus[s]:
            if (lo + hi) % ((1 << s) - 1) == 0:
                found.append((s, (1 << s) - 1))
            else:
                _strike(minus, 3 * s, 2 * s)
        if plus[s]:
            if (lo - hi) % ((1 << s) + 1) == 0:
                found.append((2 * s, (1 << s) + 1))
            else:
                _strike(plus, 3 * s, 2 * s)
        s += 1


def is_pm_power_product(n: int) -> Tuple[bool, Optional[Tuple[int, ...]]]:
    """Whether n is a product of integers of the form 2^s +- 1, each > 1.

    Returns (flag, witness): the witness is one multiset of factors, largest
    first, multiplying back to n; n = 1 gets the empty witness.

    The decision is one division chain.  The factors of 2 = 2^0 + 1 are
    stripped first.  One scan, `_generators`, lists the generators that
    divide the rest with their cyclotomic indices D; its docstring defines
    both and says how it finds them.  D is odd for 2^s - 1 and even for
    2^s + 1, so no two generators share one (3 is 2^1 + 1, of index 2).
    The chain walks them once, by decreasing D, and divides each out while
    it divides; n is a product exactly when 1 is left.

    Why the greedy step is exact: let m be a product of generators and G,
    of index D, the generator of largest index that divides m.  If D != 6,
    Zsigmondy's theorem (Bang 1886, Zsigmondy 1892) gives a prime q with
    ord_q(2) = D, which divides 2^D - 1 but no 2^j - 1 with j < D; so q
    divides G (for G = 2^s + 1 it divides (2^s - 1) G but not 2^s - 1).
    Some generator H of m's representation holds q, so D divides H's
    index; H divides m, so its index is at most D.  Hence H has index D
    and H = G: G is in every representation of m, and m is a product
    exactly when m / G is one.  D = 6 is the exception of the theorem
    (2^6 - 1 = 3^2 * 7 has no new prime): G = 9 = 3 * 3, and the
    generators of index at most 6 are 3, 7, 5, 31 and 9, so such an m is
    3^a 5^b 7^c 31^d with a >= 2, and m / 9 is still a product.  Once G no
    longer divides the cofactor, no later division makes it divide, so
    the next generator in the walk that divides is the largest again.  A
    factor of any cofactor divides n, so n's list serves every step.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    twos = (n & -n).bit_length() - 1
    n >>= twos
    factors = []
    for _, v in sorted(_generators(n), reverse=True):
        while n % v == 0:
            factors.append(v)
            n //= v
    if n != 1:
        return False, None
    return True, tuple(sorted(factors, reverse=True)) + (2,) * twos
