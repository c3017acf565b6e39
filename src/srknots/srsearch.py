"""Exhaustive decomposition search over fusion factors and the verdict pipeline.

`decompose` finds every multiset of fusion parameters whose factor product is
unit-equivalent to the input (with trivial base).  Exponent spans are
additive under multiplication and every usable factor has span >= 2, so
the parameters of factor span at most the input's span are a complete set.
A factor depends only on the key (m, p + l, p mod 2), and the mirror
identity (m,l,p) ~ (m,-l,m-p) pairs the keys.  The search walks one key of
each pair, with spans from `factor_span`, forms only the factors whose
closed-form values at t = -1 and 3 divide the input's, keeping no table,
and peels by those that divide it.  Many triples share one factor
polynomial (a key's aliases, their `mirror`s, and two pairs of keys more),
so `_peel` runs over distinct polynomials and collects each solution as a
tuple of divisor indices.  Two checks, independent of the search, then run
over those solutions: the factor polynomials of each solution must multiply
to the input, and each alias of a polynomial some solution uses must give
that polynomial as its term-pair product.  Only then is each solution
expanded into its alias certificates.  A certificate's product is its
solution's, the input, at a cost of one product per solution and one
term-pair factor per alias, not one product per certificate.

`classify` runs the obstruction pipeline: symmetry, the 2^s +- 1 test on
delta2, the rigidity of delta2 = 1 polynomials, and finally the search.  A
POLY_COMPATIBLE verdict only says the polynomial matches some fusion
product; it never certifies that a knot with that polynomial is itself
built from fusions.  NOT_SR verdicts are genuine obstructions.
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass
from itertools import chain, combinations_with_replacement, product
from math import prod
from typing import Optional, Tuple

from .invariants import delta2, is_pm_power_product, symmetry_check
from .laurent import LaurentPoly, NormalForm, divide_exact, eval_int, parse
from .srpoly import (
    F_factor, SRDecomposition, SRParams, factor_span, gh_factors, mirror, product_formula
)

__all__ = [
    "Verdict",
    "Obstruction",
    "SRClassification",
    "DELTA2_ONE_QUARTIC",
    "MAX_SEARCH_SPAN",
    "decompose",
    "classify",
    "delta2_one_factors",
]

# The only factor polynomial with delta2 = 1 besides units.
DELTA2_ONE_QUARTIC = parse("1 - 6*t + 11*t^2 - 6*t^3 + t^4")

# Widest target `decompose` searches.  The key screen takes 2-7 ms on a cold
# product of span 56-64 (2-core x86-64 VM, Python 3.11), but the parameter
# triples, and with them the alias expansion and the certificates, grow about
# as the cube of the span, so wider inputs are refused.
MAX_SEARCH_SPAN = 64


class Verdict(enum.Enum):
    POLY_COMPATIBLE = "POLY_COMPATIBLE"
    NOT_SR = "NOT_SR"


class Obstruction(enum.Enum):
    ASYMMETRIC = "ASYMMETRIC"
    DELTA2_FACTOR = "DELTA2_FACTOR"
    DELTA2_ONE_FORM = "DELTA2_ONE_FORM"
    NO_DECOMPOSITION = "NO_DECOMPOSITION"


@dataclass(frozen=True)
class SRClassification:
    verdict: Verdict
    decompositions: Tuple[SRDecomposition, ...] = ()
    obstruction: Optional[Obstruction] = None

    def __post_init__(self):
        if self.verdict is Verdict.NOT_SR and self.obstruction is None:
            raise ValueError("NOT_SR requires an obstruction")
        if self.verdict is Verdict.POLY_COMPATIBLE and not self.decompositions:
            raise ValueError("POLY_COMPATIBLE requires at least one certificate")


def _factor_value(m: int, s: int, par: int, h: int, x: int) -> int:
    """|F(x)| = |x^h f(x) f(1/x)| for the key's factor, of span 2h, in integers.

    x^low f(x) and x^high f(1/x) are integers; low + high - h is 0, or 1 in
    `factor_span`'s two cancellation cases, where x must divide their product.
    """
    sign = -1 if par else 1
    low, high = max(0, -s), max(m, s)
    below = (1 - x) ** m * x**low - sign * x ** (s + low)
    above = (x - 1) ** m * x ** (high - m) - sign * x ** (high - s)
    value, rest = divmod(below * above, x ** (low + high - h))
    if rest:
        raise ArithmeticError(f"the key {(m, s, par)} has no integer value at {x}")
    return abs(value)


def _det_value(m: int, l_par: int) -> int:
    """|F(-1)| = (2^m - (-1)^l)^2 for every triple (m, l, p) with l = l_par mod 2."""
    return (2**m - (-1) ** l_par) ** 2


def _divisors(target: LaurentPoly) -> list[tuple[LaurentPoly, tuple[SRParams, ...], LaurentPoly]]:
    """(factor, sorted aliases, quotient) for each factor dividing target, by (span, aliases).

    f(t; m, l, p) = (1 - t)^m - (-1)^p t^(p+l) depends only on the key
    (m, s = p + l, p mod 2), whose aliases are p = par, par + 2, ... <= m.
    |F(-1)| depends only on m and l mod 2, so each (m, l mod 2) whose value
    does not divide the target's determinant is dropped whole.  The key
    (m, s, par) and its mirror (m, m - s, (m - par) mod 2) share F and
    l mod 2, so s runs only up to m / 2; its low end is the least s whose
    `factor_span` fits the target.  A key must then pass one more integer
    test, |F(3)| dividing the target's value there, before F is formed; the
    aliases of a dividing F are its keys' and their `mirror`s.
    """
    if target.span > MAX_SEARCH_SPAN:
        raise ValueError(f"span {target.span} is above the search budget of {MAX_SEARCH_SPAN}")
    det, at_3 = abs(eval_int(target, -1)), abs(eval_int(target, 3))
    half = target.span // 2
    groups: dict[LaurentPoly, list[tuple[int, int, int]]] = {}
    for m, l_par in product(range(1, half + 2), (0, 1)):
        if not det or det % _det_value(m, l_par):
            continue
        for s in range(min(0, m - half), m // 2 + 1):
            par = (s - l_par) % 2
            prm = SRParams(m, s - par, par)
            h = factor_span(prm) // 2
            if not 1 <= h <= half or at_3 % _factor_value(m, s, par, h, 3):
                continue
            groups.setdefault(F_factor(prm), []).append((m, s, par))
    found = []
    for f, keys in groups.items():
        quotient = divide_exact(target, f)
        if quotient is not None:
            aliases = [SRParams(m, s - p, p) for m, s, par in keys for p in range(par, m + 1, 2)]
            found.append((f, tuple(sorted({*aliases, *map(mirror, aliases)})), quotient))
    found.sort(key=lambda d: (d[0].span, d[1]))
    return found


def _peel(divisors, cur: LaurentPoly, start: int, acc: list[int], quotients, solutions) -> None:
    """Append to solutions each index tuple, from start on, of divisors whose product is cur.

    quotients yields cur / divisors[idx] (or None) for idx = start, start + 1, ...;
    acc holds the indices peeled so far, and every tuple appended begins with them.
    """
    if cur == 1:
        solutions.append(tuple(acc))
        return
    for idx, quotient in enumerate(quotients, start):
        if quotient is not None:
            acc.append(idx)
            tail = (divide_exact(quotient, f) for f, _, _ in divisors[idx:])
            _peel(divisors, quotient, idx, acc, tail, solutions)
            acc.pop()


def decompose(dp: NormalForm) -> list[SRDecomposition]:
    """All multiset-distinct fusion decompositions of dp, canonically ordered.

    Each decomposition is the sorted tuple of its validated (m, l, p)
    triples, and the list is in tuple order, which is canonical order.

    An empty list is a proof that no decomposition exists.  `_peel` starts
    from the quotients of `_divisors`, divides only by its factors and
    collects each solution over distinct factor polynomials as a tuple of
    divisor indices.  The checks then run over those solutions, and each
    solution is expanded into one certificate per choice of aliases.
    Targets wider than MAX_SEARCH_SPAN raise ValueError.

    Every certificate is checked independently of the divisions: the
    product of each solution's factor polynomials must equal dp, and each
    alias of a polynomial some solution uses must give it through
    `product_formula`, the term-pair product.  Together these make every
    certificate's term-pair product equal dp; a failure of either raises
    ArithmeticError.
    """
    divisors = _divisors(dp)
    solutions: list[tuple[int, ...]] = []
    _peel(divisors, dp, 0, [], [quotient for _, _, quotient in divisors], solutions)
    # One multiplication checks each solution's divisions; a product of normal
    # forms is a normal form, so unit equivalence is plain equality.
    for sol in solutions:
        if prod(divisors[idx][0] for idx in sol) != dp:
            raise ArithmeticError(f"solution {list(sol)} does not regenerate {dp}")
    # Every alias of a used divisor must give its polynomial as its term-pair
    # factor, so every certificate's product is some solution's, which is dp.
    for idx in sorted(set(chain.from_iterable(solutions))):
        f, aliases, _ = divisors[idx]
        for prm in aliases:
            if product_formula(SRDecomposition((prm,))) != f:
                raise ArithmeticError(f"alias {prm} does not regenerate {f}")
    results = []
    for sol in solutions:
        picks = (
            combinations_with_replacement(divisors[idx][1], k) for idx, k in Counter(sol).items()
        )
        results.extend(SRDecomposition(chain(*choice)) for choice in product(*picks))
    results.sort()
    return results


def _is_quartic_power(poly: LaurentPoly) -> bool:
    """Whether poly is DELTA2_ONE_QUARTIC^n for some n >= 0 (n = 0 gives 1).

    The quartic is (1 - 3t + t^2)^2, of value 1 at t = 3 and 25 at t = -1,
    so its n-th power has span 4n, value 1 at 3 and 25^n at -1.  Those
    integer screens come first; the division chain, whose quotients fill
    in, so that its cost grows at least as the square of the span, stays
    the exact test.
    """
    span = poly.span
    if span % 4 or abs(eval_int(poly, -1)) != 25 ** (span // 4) or eval_int(poly, 3) != 1:
        return False
    cur = poly
    while cur != 1:
        nxt = divide_exact(cur, DELTA2_ONE_QUARTIC)
        if nxt is None:
            return False
        cur = nxt
    return True


def classify(dp: NormalForm) -> SRClassification:
    """Obstruction pipeline ending in an exhaustive decomposition search."""
    if not symmetry_check(dp):
        return SRClassification(Verdict.NOT_SR, obstruction=Obstruction.ASYMMETRIC)
    d2 = delta2(dp)
    if d2 >= 1:
        compatible, _ = is_pm_power_product(d2)
        if not compatible:
            return SRClassification(Verdict.NOT_SR, obstruction=Obstruction.DELTA2_FACTOR)
    if d2 == 1 and not _is_quartic_power(dp):
        return SRClassification(Verdict.NOT_SR, obstruction=Obstruction.DELTA2_ONE_FORM)
    decs = decompose(dp)
    if not decs:
        return SRClassification(Verdict.NOT_SR, obstruction=Obstruction.NO_DECOMPOSITION)
    return SRClassification(Verdict.POLY_COMPATIBLE, decompositions=tuple(decs))


def delta2_one_factors(max_m: int, max_abs_l: int) -> list[tuple[SRParams, LaurentPoly]]:
    """All parameters within bounds whose factor has delta2 = 1, with g*h.

    The returned products are unit-equivalent either to 1 (via g*h = t) or to
    the quartic DELTA2_ONE_QUARTIC; no third shape occurs.
    """
    if max_m < 1 or max_abs_l < 0:
        raise ValueError("bounds must be positive")
    out = []
    for m in range(1, max_m + 1):
        for l in range(-max_abs_l, max_abs_l + 1):
            for p in range(m + 1):
                prm = SRParams(m, l, p)
                if delta2(F_factor(prm)) == 1:
                    g, h = gh_factors(prm)
                    out.append((prm, g * h))
    return out
