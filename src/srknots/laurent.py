"""Exact sparse Laurent polynomial arithmetic over the integers.

A Laurent polynomial in t is stored as a sparse map from integer exponents
(possibly negative) to nonzero arbitrary-precision integer coefficients; the
zero polynomial is the empty map.  All arithmetic is exact: no rounding, no
overflow.

Polynomials a and b are *unit-equivalent* when a = +-t^k * b for some integer
k.  Every nonzero polynomial has a unique unit-equivalent representative with
lowest exponent 0 and positive constant term (`normalize`); unit equivalence
is decided by comparing these normal forms (`equal_up_to_unit`).

Text grammar accepted by `parse` and emitted by `str()`:

    poly := ['-'] term (('+' | '-') term)*
    term := INT | INT '*' 't' ['^' ['-'] INT] | 't' ['^' ['-'] INT]

Whitespace is insignificant.  The printer emits terms in ascending exponent
order with explicit '*' and '^' and spaces around binary +/- ; printed forms
are byte-stable and round-trip exactly through `parse`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush
from typing import Mapping, Optional, Union

__all__ = [
    "LaurentPoly",
    "NormalForm",
    "PolyParseError",
    "substitute_inverse",
    "normalize",
    "equal_up_to_unit",
    "eval_int",
    "divide_exact",
    "parse",
]

class PolyParseError(ValueError):
    """Malformed polynomial text; `position` is the character offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class LaurentPoly:
    """An immutable Laurent polynomial with integer coefficients."""

    __slots__ = ("_terms", "_hash")

    def __new__(cls, terms: Optional[Mapping[int, int]] = None):
        return cls._adopt({e: c for e, c in terms.items() if c} if terms else {})

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPoly is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def _adopt(cls, terms: dict[int, int]) -> "LaurentPoly":
        """Wrap `terms` without copying; it must hold no zero coefficients."""
        out = object.__new__(cls)
        object.__setattr__(out, "_terms", terms)
        object.__setattr__(out, "_hash", None)
        return out

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return _ZERO

    @classmethod
    def one(cls) -> "LaurentPoly":
        return _ONE

    @classmethod
    def constant(cls, c: int) -> "LaurentPoly":
        return cls({0: c})

    @classmethod
    def monomial(cls, coeff: int, exp: int) -> "LaurentPoly":
        return cls({exp: coeff})

    @classmethod
    def var(cls) -> "LaurentPoly":
        """The polynomial t."""
        return _T

    # -- basic queries -----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def min_exp(self) -> int:
        if not self._terms:
            raise ValueError("the zero polynomial has no minimum exponent")
        return min(self._terms)

    @property
    def max_exp(self) -> int:
        if not self._terms:
            raise ValueError("the zero polynomial has no maximum exponent")
        return max(self._terms)

    @property
    def span(self) -> int:
        """max_exp - min_exp; 0 for the zero polynomial."""
        if not self._terms:
            return 0
        return max(self._terms) - min(self._terms)

    def coeff(self, exp: int) -> int:
        return self._terms.get(exp, 0)

    def items(self):
        """Terms as (exponent, coefficient) pairs in ascending exponent order."""
        return sorted(self._terms.items())

    @property
    def terms(self) -> dict[int, int]:
        """A copy of the sparse exponent -> coefficient map."""
        return dict(self._terms)

    # -- comparisons -------------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = LaurentPoly.constant(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash(tuple(sorted(self._terms.items())))
            object.__setattr__(self, "_hash", h)
        return h

    def __bool__(self) -> bool:
        return bool(self._terms)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: Union[int, "LaurentPoly"]) -> "LaurentPoly":
        if isinstance(other, int):
            other = LaurentPoly.constant(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        data = dict(self._terms)
        for e, c in other._terms.items():
            s = data.get(e, 0) + c
            if s:
                data[e] = s
            elif e in data:
                del data[e]
        return LaurentPoly._adopt(data)

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly._adopt({e: -c for e, c in self._terms.items()})

    def __sub__(self, other: Union[int, "LaurentPoly"]) -> "LaurentPoly":
        if isinstance(other, int):
            other = LaurentPoly.constant(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: Union[int, "LaurentPoly"]) -> "LaurentPoly":
        return (-self) + other

    def __mul__(self, other: Union[int, "LaurentPoly"]) -> "LaurentPoly":
        if isinstance(other, int):
            if other == 0:
                return _ZERO
            return LaurentPoly._adopt({e: c * other for e, c in self._terms.items()})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        # Term-pair products; cost follows the term counts, not the spans.
        data: dict[int, int] = {}
        get = data.get
        for ea, ca in self._terms.items():
            for eb, cb in other._terms.items():
                e = ea + eb
                data[e] = get(e, 0) + ca * cb
        return LaurentPoly(data)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LaurentPoly":
        if n < 0:
            raise ValueError("negative powers of a general Laurent polynomial")
        result = _ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by t^k."""
        if k == 0:
            return self
        return LaurentPoly._adopt({e + k: c for e, c in self._terms.items()})

    def substitute_inverse(self) -> "LaurentPoly":
        """Replace t by 1/t term by term (an involution)."""
        return LaurentPoly._adopt({-e: c for e, c in self._terms.items()})

    # -- printing ----------------------------------------------------------

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for i, (e, c) in enumerate(self.items()):
            mag = abs(c)
            if e == 0:
                body = str(mag)
            else:
                tpart = "t" if e == 1 else f"t^{e}"
                body = tpart if mag == 1 else f"{mag}*{tpart}"
            if i == 0:
                parts.append(body if c > 0 else "-" + body)
            else:
                parts.append((" + " if c > 0 else " - ") + body)
        return "".join(parts)

    def __repr__(self) -> str:
        return f"LaurentPoly({self})"


_ZERO = LaurentPoly._adopt({})
_ONE = LaurentPoly._adopt({0: 1})
_T = LaurentPoly._adopt({1: 1})


@dataclass(frozen=True)
class NormalForm:
    """A nonzero polynomial with lowest exponent 0 and positive constant term.

    Instances certify their own shape: constructing one from a polynomial
    that is not in normal form raises ValueError.
    """

    poly: LaurentPoly

    def __post_init__(self):
        p = self.poly
        if p.is_zero:
            raise ValueError("the zero polynomial has no normal form")
        if p.min_exp != 0:
            raise ValueError("normal form must have minimum exponent 0")
        if p.coeff(0) <= 0:
            raise ValueError("normal form must have a positive constant term")

    @property
    def span(self) -> int:
        return self.poly.span

    def __str__(self) -> str:
        return str(self.poly)


# -- module-level operations ------------------------------------------------


def substitute_inverse(p: LaurentPoly) -> LaurentPoly:
    """t -> 1/t, term by term."""
    return p.substitute_inverse()


def normalize(p: LaurentPoly) -> NormalForm:
    """Canonical unit-equivalent representative of a nonzero polynomial."""
    if p.is_zero:
        raise ValueError("the zero polynomial has no normal form")
    shifted = p.shift(-p.min_exp)
    if shifted.coeff(0) < 0:
        shifted = -shifted
    return NormalForm(shifted)


def equal_up_to_unit(a: LaurentPoly, b: LaurentPoly) -> bool:
    """True when a = +-t^k * b for some integer k (both zero counts)."""
    if a.is_zero or b.is_zero:
        return a.is_zero and b.is_zero
    return normalize(a).poly == normalize(b).poly


def eval_int(p: LaurentPoly, x: int) -> Union[int, Fraction]:
    """Exact evaluation at an integer point.

    Returns an int when the polynomial has no negative exponents, otherwise
    an exact Fraction.  Evaluation at 0 is an error in the presence of
    negative exponents.
    """
    if x == 0:
        if not p.is_zero and p.min_exp < 0:
            raise ValueError("cannot evaluate negative exponents at 0")
        return p.coeff(0)
    if p.is_zero:
        return 0
    # One integer pass over t^-v * p, then a single division by x^-v.
    v = min(p.min_exp, 0)
    total = 0
    for e, c in p._terms.items():
        total += c * x ** (e - v)
    return Fraction(total, x**-v) if v else total


def divide_exact(a: LaurentPoly, b: LaurentPoly) -> Optional[LaurentPoly]:
    """The exact quotient a / b over the Laurent ring, or None if b does not divide a.

    Sparse long division from the lowest term up: the work grows with the
    terms that the quotient and the remainder hold, never with the spans.
    """
    if b.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
    if a.is_zero:
        return _ZERO
    (low, lead), *rest = sorted(b._terms.items())
    top = max(a._terms) - max(b._terms)  # highest exponent a quotient can have
    rem = dict(a._terms)
    pending = list(rem)  # a heap holding every exponent of rem, maybe twice
    heapify(pending)
    quot: dict[int, int] = {}
    while rem:
        e = heappop(pending)
        r = rem.pop(e, 0)
        if not r:
            continue
        q, bad = divmod(r, lead)
        e -= low
        if bad or e > top:
            return None
        quot[e] = q
        # Every exponent touched lies above the one just removed.
        for be, bc in rest:
            k = e + be
            s = rem.get(k, 0) - q * bc
            if s:
                if k not in rem:
                    heappush(pending, k)
                rem[k] = s
            else:
                rem.pop(k, None)
    return LaurentPoly._adopt(quot)


# -- parsing ----------------------------------------------------------------

_TOKEN = re.compile(r"\s*(?:(?P<int>\d+)|(?P<t>t)|(?P<op>[*^+\-]))")


def _tokenize(text: str):
    pos = 0
    tokens = []
    n = len(text)
    while pos < n:
        m = _TOKEN.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise PolyParseError(f"unexpected character {stripped[0]!r}", pos)
        if m.lastgroup == "int":
            tokens.append(("int", int(m.group("int")), m.start("int")))
        elif m.lastgroup == "t":
            tokens.append(("t", "t", m.start("t")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    return tokens


def parse(text: str) -> LaurentPoly:
    """Parse the polynomial grammar; raises PolyParseError with a position."""
    tokens = _tokenize(text)
    if not tokens:
        raise PolyParseError("empty polynomial text", 0)
    pos = 0
    total: dict[int, int] = {}
    end = len(tokens)

    def peek():
        return tokens[pos] if pos < end else ("end", None, len(text))

    def take():
        nonlocal pos
        tok = peek()
        pos += 1
        return tok

    def parse_exponent() -> int:
        kind, val, at = peek()
        sign = 1
        if kind == "op" and val in "+-":
            take()
            sign = -1 if val == "-" else 1
            kind, val, at = peek()
        if kind != "int":
            raise PolyParseError("expected an exponent after '^'", at)
        take()
        return sign * val

    def parse_term(sign: int) -> tuple[int, int]:
        """(exponent, coefficient) of the next term."""
        kind, val, at = peek()
        coeff = sign
        if kind == "int":
            take()
            coeff = sign * val
            kind, val, _ = peek()
            if kind != "op" or val != "*":
                return 0, coeff
            take()
            kind, _, at = peek()
            if kind != "t":
                raise PolyParseError("expected 't' after '*'", at)
        elif kind != "t":
            raise PolyParseError("expected a term", at)
        take()
        exp = 1
        kind, val, _ = peek()
        if kind == "op" and val == "^":
            take()
            exp = parse_exponent()
        return exp, coeff

    sign = 1
    kind, val, _ = peek()
    if kind == "op" and val == "-":
        take()
        sign = -1
    while True:
        exp, coeff = parse_term(sign)
        total[exp] = total.get(exp, 0) + coeff
        if pos == end:
            return LaurentPoly(total)
        kind, val, at = take()
        if kind != "op" or val not in "+-":
            raise PolyParseError("expected '+' or '-' between terms", at)
        sign = -1 if val == "-" else 1
