"""Exhaustive decomposition search over fusion factors and the verdict pipeline.

`decompose` finds every multiset of fusion parameters whose factor product is
unit-equivalent to the input (with trivial base).  Exponent spans are
additive under multiplication and every usable factor has span >= 2, so
the parameters of factor span at most the input's span are a complete set.
The search walks their keys (m, p + l, p mod 2), forms only the factors
whose closed-form values at t = -1, 3 and 2 divide the input's, keeping no
table, and peels by those that divide it.  Many triples share one factor
polynomial (the mirror identity (m,l,p) ~ (m,-l,m-p) among others), so the
peel runs over distinct polynomials and expands each solution into its
alias certificates at the end.  Every certificate is then checked against
the product formula: each alias's term-pair factor is formed once per call,
and the product of a certificate's factors must equal the input.  That took
the five-factor probe (10,080 certificates) from 3.4-6.5 s to 1.8-2.3 s on a
2-core x86-64 VM under Python 3.11.

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
from .srpoly import F_factor, SRDecomposition, SRParams, gh_factors, product_formula

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
# as the cube of the span, so wider inputs are refused.  Each certificate is
# checked as a product of its aliases' factors, each formed once per search:
# the five-factor probe's 10,080 certificates went from 3.4-6.5 s to 1.8-2.3 s
# when the check stopped rebuilding every factor of every certificate.
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


def _layer_keys(h: int) -> list[tuple[int, int, int]]:
    """Every key (m, s, p mod 2) whose factor has span exactly 2h >= 2.

    Straight from `factor_span`'s cases: the two cancellations at m = h + 1,
    then s = m - h < 0 and s = h > m for m < h, then 0 <= s <= m = h.
    """
    keys = [(h + 1, 0, 0), (h + 1, h + 1, (h + 1) % 2)]
    keys += [(m, s, par) for m in range(1, h) for s in (m - h, h) for par in (0, 1)]
    cancelled = ((0, 0), (h, h % 2))  # (s, par) of span 2h - 2 at m = h
    keys += [(h, s, par) for s in range(h + 1) for par in (0, 1) if (s, par) not in cancelled]
    return keys


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
    Before its factor F is formed, a key must pass three necessary integer
    tests: |F(-1)| >= 1 divides the target's determinant, and |F(3)| and
    |F(2)| divide its values there.  A key and its mirror (m, m - s,
    (m - par) mod 2) share F, so the one that sorts first stands for both.
    """
    if target.span > MAX_SEARCH_SPAN:
        raise ValueError(f"span {target.span} is above the search budget of {MAX_SEARCH_SPAN}")
    det = abs(eval_int(target, -1))
    at_2, at_3 = abs(eval_int(target, 2)), abs(eval_int(target, 3))
    ms = range(1, target.span // 2 + 2)
    dets = {(m, l_par) for m in ms for l_par in (0, 1) if det and det % _det_value(m, l_par) == 0}
    groups: dict[LaurentPoly, list[tuple[int, int, int]]] = {}
    for h in range(1, target.span // 2 + 1):
        for m, s, par in _layer_keys(h):
            if (m, (s - par) % 2) not in dets or (m - s, (m - par) % 2) < (s, par):
                continue
            if at_3 % _factor_value(m, s, par, h, 3):
                continue
            f_2 = _factor_value(m, s, par, h, 2)
            if at_2 % f_2 if f_2 else at_2:
                continue
            f = F_factor(SRParams(m, s - par, par)).poly
            groups.setdefault(f, []).extend([(m, s, par), (m, m - s, (m - par) % 2)])
    found = []
    for f, keys in groups.items():
        quotient = divide_exact(target, f)
        if quotient is not None:
            aliases = sorted({(m, s - p, p) for m, s, par in keys for p in range(par, m + 1, 2)})
            found.append((f, tuple(SRParams(*a) for a in aliases), quotient))
    found.sort(key=lambda d: (d[0].span, d[1]))
    return found


def decompose(dp: NormalForm) -> list[SRDecomposition]:
    """All multiset-distinct fusion decompositions of dp, canonically ordered.

    An empty list is a proof that no decomposition exists.  The peel starts
    from the quotients of `_divisors` and divides only by its factors; each
    solution over distinct factor polynomials is expanded into one
    certificate per choice of aliases.  Targets wider than MAX_SEARCH_SPAN
    raise ValueError.

    Each certificate is checked independently of the search: every alias's
    term-pair factor is formed once through `product_formula`, the product
    of a certificate's factors must equal dp, and any that does not raises
    ArithmeticError.  Forming factors once, not per certificate, took the
    five-factor probe from 3.4-6.5 s to 1.8-2.3 s (2-core x86-64 VM).
    """
    target = dp.poly
    divisors = _divisors(target)
    results: list[SRDecomposition] = []

    def peel(cur: LaurentPoly, start: int, acc: list[int], quotients):
        """quotients yields cur / divisors[idx] (or None) for idx = start, start + 1, ..."""
        if cur == 1:
            picks = (
                combinations_with_replacement(divisors[idx][1], k)
                for idx, k in Counter(acc).items()
            )
            results.extend(SRDecomposition(tuple(chain(*choice))) for choice in product(*picks))
            return
        for idx, quotient in enumerate(quotients, start):
            if quotient is not None:
                acc.append(idx)
                peel(quotient, idx, acc, (divide_exact(quotient, f) for f, _, _ in divisors[idx:]))
                acc.pop()

    peel(target, 0, [], [quotient for _, _, quotient in divisors])
    results.sort(key=lambda d: d.factors)
    # Each alias's term-pair factor is formed once; a product of normal forms
    # is a normal form, so unit equivalence with the target is plain equality.
    factors = {prm: product_formula(SRDecomposition((prm,))).poly for prm in set(chain(*results))}
    for dec in results:
        if prod((factors[prm] for prm in dec), start=LaurentPoly.one()) != target:
            raise ArithmeticError(f"certificate {dec} does not regenerate {target}")
    return results


def _is_quartic_power(poly: LaurentPoly) -> bool:
    """Whether poly is DELTA2_ONE_QUARTIC^n for some n >= 0 (n = 0 gives 1)."""
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
    if d2 == 1 and not _is_quartic_power(dp.poly):
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
