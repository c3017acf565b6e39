"""Exhaustive decomposition search over fusion factors and the verdict pipeline.

`decompose` finds every multiset of fusion parameters whose factor product is
unit-equivalent to the input (with trivial base).  Exponent spans are
additive under multiplication and every usable factor has span >= 2, so
enumerating all parameters with factor span at most the input's span is a
complete candidate set and the search is a finite exact-division peel.

`classify` runs the obstruction pipeline: symmetry, the 2^s +- 1 test on
delta2, the rigidity of delta2 = 1 polynomials, and finally the search.  A
POLY_COMPATIBLE verdict only says the polynomial matches some fusion
product; it never certifies that a knot with that polynomial is itself
built from fusions.  NOT_SR verdicts are genuine obstructions.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Tuple

from .invariants import delta2, is_pm_power_product, symmetry_check
from .laurent import LaurentPoly, NormalForm, divide_exact, equal_up_to_unit, eval_int, parse
from .srpoly import F_factor, SRDecomposition, SRParams, factor_span, gh_factors, product_formula

__all__ = [
    "Verdict",
    "Obstruction",
    "SRClassification",
    "DELTA2_ONE_QUARTIC",
    "decompose",
    "classify",
    "delta2_one_factors",
]

# The only factor polynomial with delta2 = 1 besides units.
DELTA2_ONE_QUARTIC = parse("1 - 6*t + 11*t^2 - 6*t^3 + t^4")


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


@dataclass(frozen=True)
class _Candidate:
    params: SRParams
    poly: LaurentPoly  # normalized factor polynomial
    span: int
    at_minus1: int     # |poly(-1)|, always >= 1
    at_2: int


@lru_cache(maxsize=64)
def _candidates(max_span: int) -> tuple[_Candidate, ...]:
    """All parameters with 2 <= factor_span <= max_span, by span, then params.

    The span of f(t;m,l,p) is at least m - 1 and at least |p + l| - trivia,
    which bounds m and p + l once the span budget is fixed; the filter below
    then applies the exact span formula.
    """
    if max_span < 2:
        return ()
    budget = max_span // 2
    found = []
    for m in range(1, budget + 2):
        for p in range(m + 1):
            for s in range(min(m - budget, 0), max(budget, m) + 1):
                prm = SRParams(m, s - p, p)
                span = factor_span(prm)
                if 2 <= span <= max_span:
                    poly = F_factor(prm).poly
                    found.append(
                        _Candidate(
                            prm,
                            poly,
                            span,
                            abs(eval_int(poly, -1)),
                            eval_int(poly, 2),
                        )
                    )
    found.sort(key=lambda c: (c.span, c.params))
    return tuple(found)


def decompose(dp: NormalForm) -> list[SRDecomposition]:
    """All multiset-distinct fusion decompositions of dp, canonically ordered.

    An empty list is a proof that no decomposition exists: the candidate set
    is complete for the span budget.  Distinct parameter triples with the
    same factor polynomial are reported as distinct certificates.
    """
    target = dp.poly
    cands = _candidates(target.span)
    results: list[SRDecomposition] = []

    def peel(cur: LaurentPoly, cur_det: int, cur_at2: int, start: int, acc: list[SRParams]):
        if cur == 1:
            results.append(SRDecomposition(tuple(acc)))
            return
        span = cur.span
        if span == 0:
            return
        for idx in range(start, len(cands)):
            cand = cands[idx]
            if cand.span > span:
                break
            # Necessary divisibility at t = -1 and t = 2 prunes cheaply.
            if cur_det % cand.at_minus1:
                continue
            if cand.at_2 == 0:
                if cur_at2 != 0:
                    continue
            elif cur_at2 % cand.at_2:
                continue
            quotient = divide_exact(cur, cand.poly)
            if quotient is None:
                continue
            acc.append(cand.params)
            peel(
                quotient,
                abs(eval_int(quotient, -1)),
                eval_int(quotient, 2),
                idx,
                acc,
            )
            acc.pop()

    peel(target, abs(eval_int(target, -1)), eval_int(target, 2), 0, [])
    results.sort(key=lambda d: d.factors)
    for dec in results:
        if not equal_up_to_unit(product_formula(LaurentPoly.one(), dec).poly, target):
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
