"""Scalar invariants of normalized Alexander polynomials.

delta2 is the largest odd factor of the absolute value at t = 2 (0 when the
value vanishes); the knot determinant is the absolute value at t = -1.  Both
are invariant under multiplication by units +-t^k, hence well defined on
normal forms.
"""

from __future__ import annotations

from typing import Iterator, Optional, Tuple

from .laurent import NormalForm, equal_up_to_unit, eval_int

__all__ = ["delta2", "knot_det", "is_pm_power_product", "symmetry_check"]


def delta2(dp: NormalForm) -> int:
    """Largest odd factor of |dp(2)|, or 0 when dp(2) = 0.  Always 0 or odd."""
    v = abs(eval_int(dp.poly, 2))
    if v == 0:
        return 0
    # One shift by the 2-adic valuation: dividing by 2 in a loop is
    # quadratic in the bit length.
    return v >> ((v & -v).bit_length() - 1)


def knot_det(dp: NormalForm) -> int:
    """|dp(-1)|."""
    return abs(eval_int(dp.poly, -1))


def symmetry_check(dp: NormalForm) -> bool:
    """Whether dp is unit-equivalent to its own t -> 1/t image."""
    return equal_up_to_unit(dp.poly, dp.poly.substitute_inverse())


def _order_of_two(q: int) -> int:
    e, r = 1, 2
    while r != 1:
        e, r = e + 1, 2 * r % q
    return e


# (q, ord_q(2)) for the odd primes q < 256.  A larger bound strikes few more
# s but costs far more to tabulate at import.
_SIEVE_PRIMES = tuple(
    (q, _order_of_two(q))
    for q in range(3, 256, 2)
    if all(q % d for d in range(3, int(q**0.5) + 1, 2))
)


def _pm_divisors(n: int) -> Iterator[int]:
    """The values 2^s +- 1 in (1, n] that divide n, largest first.

    2^s + 1 for s >= 0 and 2^s - 1 for s >= 3 give each value once
    (3 = 2^1 + 1 = 2^2 - 1); the factor 1 is excluded so that factor chains
    strictly decrease.

    Each s costs a few linear big-int steps, not a full remainder:

    - Sieve.  For an odd prime q with e = ord_q(2), q | 2^s - 1 iff e | s,
      and q | 2^s + 1 iff e is even and s = e/2 (mod e).  So a small prime
      q that does not divide n strikes those s from the candidates; the
      survivors are tested exactly.
    - Fold.  2^(2s) = 1 (mod 2^(2s) - 1), so splitting r at a multiple h of
      2s and replacing it with (r mod 2^h) + (r >> h) keeps its class modulo
      both 2^s - 1 and 2^s + 1.  Halving r this way down to 2s + 1 bits and
      splitting it at s into lo and hi leaves lo + hi = n (mod 2^s - 1) and
      lo - hi = n (mod 2^s + 1), so the final remainders act on s-bit values.
    """
    if n < 2:
        return
    top = n.bit_length()
    minus = bytearray([1]) * (top + 1)  # minus[s]: 2^s - 1 may divide n
    plus = bytearray([1]) * (top + 1)  # plus[s]: 2^s + 1 may divide n
    minus[:3] = bytes(3)  # 2^s - 1 < 3 is no factor, and 3 is 2^1 + 1
    for q, e in _SIEVE_PRIMES:
        if n % q:
            minus[::e] = bytes(len(range(0, top + 1, e)))
            if e % 2 == 0:
                plus[e // 2 :: e] = bytes(len(range(e // 2, top + 1, e)))
    for s in range(top, 0, -1):
        if not (plus[s] or minus[s]):
            continue
        width = 2 * s
        r = n
        while r.bit_length() > width + 1:
            h = -(-(r.bit_length() // 2) // width) * width
            r = (r & ((1 << h) - 1)) + (r >> h)
        lo, hi = r & ((1 << s) - 1), r >> s
        if plus[s] and (lo - hi) % ((1 << s) + 1) == 0:
            yield (1 << s) + 1
        if minus[s] and (lo + hi) % ((1 << s) - 1) == 0:
            yield (1 << s) - 1
    if n % 2 == 0:
        yield 2


def is_pm_power_product(n: int) -> Tuple[bool, Optional[Tuple[int, ...]]]:
    """Whether n is a product of integers of the form 2^s +- 1, each > 1.

    Returns (flag, witness): the witness is one multiset of factors, largest
    first, multiplying back to n; n = 1 gets the empty witness.  The search
    is depth-first with an explicit stack, so deep factor chains cannot
    exhaust the interpreter's recursion limit.

    The candidate factors come from one scan of n (`_pm_divisors`), linear
    per s through two facts: 2^(2s) = 1 (mod 2^(2s) - 1), so n folds to 2s
    bits without changing its classes modulo 2^s - 1 and 2^s + 1; and for an
    odd prime q, q | 2^s - 1 iff ord_q(2) | s, while q | 2^s + 1 iff
    s = ord_q(2)/2 (mod ord_q(2)), so small primes not dividing n rule out
    most s before any big-int step.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    # A factor of any cofactor of n divides n, so n's list serves every node.
    divisors = list(_pm_divisors(n))
    dead: set[int] = set()  # cofactors known not to be such products
    factors: list[int] = []
    stack = [iter(divisors)]  # per cofactor on the path, its untried factors
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
