"""Scalar invariants of normalized Alexander polynomials.

delta2 is the largest odd factor of the absolute value at t = 2 (0 when the
value vanishes); the knot determinant is the absolute value at t = -1.  Both
are invariant under multiplication by units +-t^k, hence well defined on
normal forms.
"""

from __future__ import annotations

from typing import Iterator, Optional, Tuple

from .laurent import NormalForm, equal_up_to_unit, eval_int, substitute_inverse

__all__ = ["delta2", "knot_det", "is_pm_power_product", "symmetry_check"]


def delta2(dp: NormalForm) -> int:
    """Largest odd factor of |dp(2)|, or 0 when dp(2) = 0.  Always 0 or odd."""
    v = abs(eval_int(dp.poly, 2))
    if v == 0:
        return 0
    while v % 2 == 0:
        v //= 2
    return v


def knot_det(dp: NormalForm) -> int:
    """|dp(-1)|."""
    return abs(eval_int(dp.poly, -1))


def symmetry_check(dp: NormalForm) -> bool:
    """Whether dp is unit-equivalent to its own t -> 1/t image."""
    return equal_up_to_unit(dp.poly, substitute_inverse(dp.poly))


def _pm_divisors(n: int) -> Iterator[int]:
    """The values 2^s +- 1 in (1, n] that divide n, largest first.

    2^s + 1 for s >= 0 and 2^s - 1 for s >= 3 give each value once
    (3 = 2^1 + 1 = 2^2 - 1); the factor 1 is excluded so that factor chains
    strictly decrease.
    """
    for s in range(n.bit_length(), -1, -1):
        for v in ((1 << s) + 1, (1 << s) - 1) if s >= 3 else ((1 << s) + 1,):
            if v <= n and n % v == 0:
                yield v


def is_pm_power_product(n: int) -> Tuple[bool, Optional[Tuple[int, ...]]]:
    """Whether n is a product of integers of the form 2^s +- 1, each > 1.

    Returns (flag, witness): the witness is one multiset of factors, largest
    first, multiplying back to n; n = 1 gets the empty witness.  The search
    is depth-first with an explicit stack, so deep factor chains cannot
    exhaust the interpreter's recursion limit.
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
