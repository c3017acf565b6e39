"""Exhaustive decomposition search over fusion factors and the verdict pipeline.

`decompose` finds every multiset of fusion parameters whose factor product is
unit-equivalent to the input (with trivial base).  Exponent spans are
additive under multiplication and every usable factor has span >= 2, so
enumerating all parameters with factor span at most the input's span is a
complete candidate set.  Every factor of a solution divides the input, so
the search screens the candidates once, by their values at t = -1 and t = 2
and then by exact division, and peels by the input's divisors alone.
Many triples share one factor polynomial (the mirror identity (m,l,p) ~
(m,-l,m-p) among others), so the peel runs over distinct polynomials and
expands each solution into its alias certificates at the end.

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
from functools import lru_cache
from itertools import chain, combinations_with_replacement, product
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

# Widest target `decompose` searches.  The candidate table is cheap (span 64
# in 0.16 s on a 2-core x86-64 VM, Python 3.11) and is screened once down to
# the target's divisors, but its parameter triples grow about as the cube of
# the span, and with them the alias expansion and check of every certificate,
# so wider inputs are refused rather than searched for minutes.
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


@dataclass(frozen=True)
class _Candidate:
    aliases: Tuple[SRParams, ...]  # sorted triples whose factor is poly
    poly: LaurentPoly  # normalized factor polynomial
    at_minus1: int     # |poly(-1)|, always >= 1
    at_2: int


def _layer_keys(h: int) -> list[tuple[int, int, int]]:
    """Every key (m, s, p mod 2) whose factor has span exactly 2h >= 2.

    Straight from `factor_span`'s cases: the two cancellations at m = h + 1,
    then s = m - h < 0 and s = h > m for m < h, then 0 <= s <= m = h.
    """
    keys = [(h + 1, 0, 0), (h + 1, h + 1, (h + 1) % 2)]
    keys += [(m, s, par) for m in range(1, h) for s in (m - h, h) for par in (0, 1)]
    keys += [
        (h, s, par)
        for s in range(h + 1)
        for par in (0, 1)
        if (s, par) not in ((0, 0), (h, h % 2))
    ]
    return keys


@lru_cache(maxsize=MAX_SEARCH_SPAN // 2)
def _layer(h: int) -> tuple[_Candidate, ...]:
    """The candidates of span exactly 2h, sorted by aliases."""
    groups: dict[LaurentPoly, list[SRParams]] = {}
    for m, s, par in _layer_keys(h):
        f = F_factor(SRParams(m, s - par, par)).poly
        groups.setdefault(f, []).extend(SRParams(m, s - p, p) for p in range(par, m + 1, 2))
    found = [
        _Candidate(tuple(sorted(prms)), f, abs(eval_int(f, -1)), eval_int(f, 2))
        for f, prms in groups.items()
    ]
    found.sort(key=lambda c: c.aliases)
    return tuple(found)


def _candidates(max_span: int) -> tuple[_Candidate, ...]:
    """Distinct factor polynomials with 2 <= span <= max_span, with aliases.

    Sorted by span, then aliases.  f(t; m, l, p) = (1 - t)^m - (-1)^p t^(p+l)
    depends only on the key (m, s = p + l, p mod 2), and so does its span, so
    each span layer lists its keys by `factor_span`'s cases and expands each
    key into its aliases p = par, par + 2, ... <= m, l = s - p.  The key
    (m, s, par) and its mirror (m, m - s, (m - par) mod 2) share one F, as
    the mirror (m, -l, m - p) of each alias is an alias of the mirror key;
    grouping by polynomial merges the two, and any rarer coincidence too.
    Every alias of a polynomial has that polynomial's span, so the table is
    the layers 1..max_span // 2 joined, each built once per process.
    """
    if max_span > MAX_SEARCH_SPAN:
        raise ValueError(f"span {max_span} is above the search budget of {MAX_SEARCH_SPAN}")
    return tuple(chain.from_iterable(_layer(h) for h in range(1, max_span // 2 + 1)))


def decompose(dp: NormalForm) -> list[SRDecomposition]:
    """All multiset-distinct fusion decompositions of dp, canonically ordered.

    An empty list is a proof that no decomposition exists: the candidate set
    is complete for the span budget.  The peel divides only by the target's
    divisors: the candidates whose values at t = -1 and t = 2 divide the
    target's, evaluated once, and which divide it exactly; the quotients of
    those divisions are the peel's first level.  It runs over
    distinct factor polynomials; each solution is expanded into one
    certificate per choice of aliases, so distinct parameter triples with the
    same factor polynomial are reported as distinct certificates.  Targets
    wider than MAX_SEARCH_SPAN raise ValueError instead of building a huge
    table.
    """
    target = dp.poly
    det, at_2 = abs(eval_int(target, -1)), eval_int(target, 2)
    screened = [
        (c, quotient)
        for c in _candidates(target.span)
        if det % c.at_minus1 == 0
        and (at_2 % c.at_2 == 0 if c.at_2 else at_2 == 0)
        and (quotient := divide_exact(target, c.poly)) is not None
    ]
    divisors = [c for c, _ in screened]
    results: list[SRDecomposition] = []

    def peel(cur: LaurentPoly, start: int, acc: list[int], quotients):
        """quotients yields cur / divisors[idx] (or None) for idx = start, start + 1, ..."""
        if cur == 1:
            picks = (
                combinations_with_replacement(divisors[idx].aliases, k)
                for idx, k in Counter(acc).items()
            )
            results.extend(SRDecomposition(tuple(chain(*choice))) for choice in product(*picks))
            return
        for idx, quotient in enumerate(quotients, start):
            if quotient is not None:
                acc.append(idx)
                peel(quotient, idx, acc, (divide_exact(quotient, c.poly) for c in divisors[idx:]))
                acc.pop()

    peel(target, 0, [], [quotient for _, quotient in screened])
    results.sort(key=lambda d: d.factors)
    # Both sides are normal forms, so unit equivalence is plain equality.
    for dec in results:
        if product_formula(dec).poly != target:
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
