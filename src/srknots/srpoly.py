"""Fusion factors and the product formula for Alexander polynomials.

One elementary simple-ribbon fusion is described by a band count m >= 1, the
linking number l of its attendant knot (any sign), and the number p of
positive bands (0 <= p <= m).  Its contribution to the Alexander polynomial
of the fused knot is the symmetric factor

    F(t; m, l, p) = f(t; m, l, p) * f(1/t; m, l, p),
    f(t; m, l, p) = (1 - t)^m - t^l * (-t)^p.

A knot built from the trivial knot by a sequence of such fusions has
Alexander polynomial equal (up to units) to the product of the factors, so a
decomposition is an unordered multiset of parameter triples.  Both are plain
tuples: a triple is the tuple (m, l, p), validated when it is made, and a
decomposition is the sorted tuple of its triples.  Canonical order is tuple
order, the order of (m, l, p), for triples and decompositions alike.
"""

from __future__ import annotations

import re
from math import comb, prod
from typing import Iterable, NamedTuple

from .laurent import LaurentPoly, NormalForm, PolyParseError, equal_up_to_unit, normalize

__all__ = [
    "SRParams",
    "SRDecomposition",
    "f_factor",
    "F_factor",
    "product_formula",
    "mirror",
    "mirror_identity_check",
    "gh_factors",
    "factor_span",
    "parse_decomposition",
]


# Largest band count m that `f_factor` and `F_factor` take, and largest sum
# of band counts that `product_formula` takes; either refuses more with
# ValueError before forming a binomial.  At m = 1,000, F_factor takes 0.12 s
# and a one-factor product_formula 1.2 s; at m = 2,000 they take 0.70 s and
# 13.5 s, and F_factor takes 4.4 s at 4,000 (2-core x86_64 VM, Python 3.11).
MAX_BANDS = 1000


# Largest bound on the term count of a product that `product_formula`
# forms; more is refused with ValueError before any multiplication.  The
# bound is min(prod (4 m_i + 3), sum span(F_i) + 1), since F(m, l, p) has at
# most 4m + 3 terms.  Spread linking numbers reach it: F(1, 3^i, 0) for
# i < 12 has 531,441 terms, its bound, and takes 1.6 s (0.58 s at i < 11);
# F(1, 10^(i+2), 0) for i < 9 has 255,879 terms under a bound of 40 million
# and takes 0.93 s (2-core x86_64 VM, Python 3.11).  Terms are not the whole
# cost: F(100, 1000 i, 0) for 1 <= i <= 8 has a bound of 72,001 and takes
# 16 s, in products of wide binomial coefficients.
MAX_PRODUCT_TERMS = 500_000


def _check_bands(m: int) -> None:
    if m > MAX_BANDS:
        raise ValueError(f"{m:,} bands are above the budget of {MAX_BANDS}")


def _sign(k: int) -> int:
    """(-1)**k, exact for negative k as well."""
    return -1 if k % 2 else 1


def _one_minus_t_terms(m: int) -> dict[int, int]:
    """The exponent -> coefficient map of (1 - t)^m for m >= 0, from the binomial coefficients."""
    return {k: _sign(k) * comb(m, k) for k in range(m + 1)}


def _one_minus_t_power(m: int) -> LaurentPoly:
    """(1 - t)^m for m >= 0."""
    return LaurentPoly(_one_minus_t_terms(m))


class SRParams(NamedTuple("SRParams", [("m", int), ("l", int), ("p", int)])):
    """Parameters (m, l, p) of one elementary fusion.

    A tuple: it equals, orders and hashes as its field tuple, so
    SRParams(1, 0, 0) == (1, 0, 0).  `__new__` validates; the inherited
    `_make` and `_replace` skip it, so nothing may call them.
    """

    __slots__ = ()

    def __new__(cls, m: int, l: int, p: int):
        if m < 1:
            raise ValueError(f"band count must be >= 1, got {m}")
        if not 0 <= p <= m:
            raise ValueError(f"positive-band count must satisfy 0 <= p <= m, got {p}")
        return super().__new__(cls, m, l, p)

    def __str__(self) -> str:
        return "F(%d,%d,%d)" % self


class SRDecomposition(tuple):
    """An unordered multiset of fusion parameters: the sorted tuple of its triples.

    It equals and hashes as that plain tuple, so
    SRDecomposition((x,)) == (x,).  The empty decomposition stands for the
    trivial knot (polynomial 1).
    """

    __slots__ = ()

    def __new__(cls, factors: Iterable[SRParams] = ()):
        return super().__new__(cls, sorted(factors))

    def __str__(self) -> str:
        return "*".join(map(str, self)) or "1"


def f_factor(params: SRParams) -> LaurentPoly:
    """(1 - t)^m - t^l * (-t)^p, expanded exactly.

    Has negative exponents when p + l < 0.  An m above MAX_BANDS raises
    ValueError.
    """
    _check_bands(params.m)
    terms = _one_minus_t_terms(params.m)
    s = params.p + params.l
    terms[s] = terms.get(s, 0) - _sign(params.p)
    return LaurentPoly(terms)


def F_factor(params: SRParams) -> NormalForm:
    """Normalized symmetric factor f(t) * f(1/t), in closed form.

    With s = p + l, f(t) = (1 - t)^m - (-1)^p t^s, and Vandermonde's identity
    turns f(t) f(1/t) into

        sum_{i=-m..m} (-1)^i C(2m, m+i) t^i + 1
            - (-1)^p sum_{k=0..m} (-1)^k C(m, k) (t^(s-k) + t^(k-s)).

    That is O(m) binomial terms in place of a term-pair product, and shows
    that F depends only on the key (m, s, p mod 2).  The sum is symmetric
    under t -> 1/t, so only the coefficients of t^e for e >= 0 are summed,
    sparsely: the cost is O(m) however large |s| is.  An m above MAX_BANDS
    raises ValueError.
    """
    _check_bands(params.m)
    m, p = params.m, params.p
    s = p + params.l
    half = {i: _sign(i) * comb(2 * m, m + i) for i in range(m + 1)}
    half[0] += 1
    for k in range(m + 1):
        # t^(s-k) and t^(k-s) land on e = |s - k| and -e, both on 0 when k = s.
        e = abs(s - k)
        half[e] = half.get(e, 0) - _sign(p + k) * comb(m, k) * (2 if k == s else 1)
    top = max(e for e, c in half.items() if c)
    sign = -1 if half[top] < 0 else 1
    coeffs = {}
    for e, c in half.items():
        coeffs[top - e] = coeffs[top + e] = sign * c
    return NormalForm(LaurentPoly(coeffs))


def product_formula(factors: SRDecomposition) -> NormalForm:
    """Normalized product of every fusion factor.

    This is the Alexander polynomial of the knot that these fusions build
    from the trivial knot; the empty decomposition gives 1.  A sum of band
    counts above MAX_BANDS, or a term bound above MAX_PRODUCT_TERMS, raises
    ValueError before any factor is formed.
    """
    _check_bands(sum(prm.m for prm in factors))
    terms = prod(4 * prm.m + 3 for prm in factors)
    if terms > MAX_PRODUCT_TERMS:  # the span bound costs more, so only then
        terms = min(terms, sum(map(factor_span, factors)) + 1)
    if terms > MAX_PRODUCT_TERMS:
        raise ValueError(
            f"the product may hold {terms:,} terms, above the budget of {MAX_PRODUCT_TERMS:,} terms"
        )
    acc = LaurentPoly.one()
    for prm in factors:
        f = f_factor(prm)
        acc = acc * f * f.substitute_inverse()
    return normalize(acc)


def mirror(params: SRParams) -> SRParams:
    """The parameter triple (m, -l, m-p), always an alias of the same factor."""
    return SRParams(params.m, -params.l, params.m - params.p)


def mirror_identity_check(params: SRParams) -> bool:
    """Whether f(t)*f(1/t) and f(t)*f_mirror(t) agree up to units.

    Holds for every valid parameter triple; exposed so the identity is
    directly testable.
    """
    f = f_factor(params)
    lhs = f * f.substitute_inverse()
    rhs = f * f_factor(mirror(params))
    return equal_up_to_unit(lhs, rhs)


def gh_factors(params: SRParams) -> tuple[LaurentPoly, LaurentPoly]:
    """The pair (g, h) with g ~ f(t) and h ~ f(1/t) up to units.

        g = t^(p+l) + (-1)^(m-p-1) (t-1)^m
        h = t^(m-p-l) + (-1)^(p+1) (t-1)^m

    Their product is unit-equivalent to F(t; m, l, p); evaluating g and h at
    t = 2 splits |F(2)| into the two 2^s +- 1 contributions.
    """
    m, l, p = params.m, params.l, params.p
    t_minus_one_m = _sign(m) * _one_minus_t_power(m)
    g = LaurentPoly.monomial(1, p + l) + _sign(m - p - 1) * t_minus_one_m
    h = LaurentPoly.monomial(1, m - p - l) + _sign(p + 1) * t_minus_one_m
    return g, h


def factor_span(params: SRParams) -> int:
    """Exponent span of F_factor(params).

    Writing s = p + l, the span of f is max(s, m, m - s) except in the two
    cancellation cases (s = 0 with p even, s = m with m - p even) where the
    extra monomial kills an end term of (1 - t)^m and the span drops to
    m - 1.  F doubles that.  Validated against the computed span of F_factor
    on a grid by the test suite; the computed span is the oracle.
    """
    m, p = params.m, params.p
    s = params.p + params.l
    if s == 0 and p % 2 == 0:
        half = m - 1
    elif s == m and (m - p) % 2 == 0:
        half = m - 1
    elif s < 0:
        half = m - s
    elif s > m:
        half = s
    else:
        half = m
    return 2 * half


_ATOM = re.compile(r"\s*F\(\s*(-?\d+)\s*,\s*(-?\d+)\s*,\s*(-?\d+)\s*\)\s*")


def parse_decomposition(text: str) -> SRDecomposition:
    """Parse the `F(m,l,p)*F(m,l,p)*...` format; `1` is the empty decomposition."""
    stripped = text.strip()
    if stripped == "1":
        return SRDecomposition()
    factors = []
    pos = 0
    while True:
        m = _ATOM.match(text, pos)
        if m is None:
            raise PolyParseError("expected an F(m,l,p) atom", pos)
        factors.append(SRParams(int(m.group(1)), int(m.group(2)), int(m.group(3))))
        pos = m.end()
        if pos >= len(text) or text[pos:].strip() == "":
            break
        if text[pos] != "*":
            raise PolyParseError("expected '*' between factors", pos)
        pos += 1
    return SRDecomposition(factors)
