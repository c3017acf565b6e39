"""Exact sparse Laurent polynomial arithmetic over the integers.

A Laurent polynomial in t is stored as a sparse map from integer exponents
(possibly negative) to nonzero arbitrary-precision integer coefficients; the
zero polynomial is the empty map.  All arithmetic is exact: no rounding, no
overflow.

Polynomials a and b are *unit-equivalent* when a = +-t^k * b for some integer
k.  Every nonzero polynomial has a unique unit-equivalent representative with
lowest exponent 0 and positive constant term (`normalize`); unit equivalence
is decided by comparing these normal forms (`equal_up_to_unit`).  A normal
form is itself a `LaurentPoly`: `NormalForm` only checks that shape when it
is built, so a normal form is read, printed and multiplied like any other
polynomial.

Text grammar accepted by `parse` and emitted by `str()`:

    poly := ['-'] term (('+' | '-') term)*
    term := INT | INT '*' 't' ['^' ['+' | '-'] INT] | 't' ['^' ['+' | '-'] INT]

Whitespace is insignificant.  The printer emits terms in ascending exponent
order with explicit '*' and '^' and spaces around binary +/- ; printed forms
are byte-stable and round-trip exactly through `parse`.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from heapq import heapify, heappop, heappush
from typing import Mapping, Optional, Union

__all__ = [
    "LaurentPoly",
    "NormalForm",
    "PolyParseError",
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

    __slots__ = ("_terms",)

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
        return out

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return _ZERO

    @classmethod
    def one(cls) -> "LaurentPoly":
        return _ONE

    @classmethod
    def constant(cls, c: int) -> "LaurentPoly":
        return LaurentPoly({0: c})

    @classmethod
    def monomial(cls, coeff: int, exp: int) -> "LaurentPoly":
        return LaurentPoly({exp: coeff})

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
            return self._terms == ({0: other} if other else {})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        terms = self._terms
        if terms.keys() <= {0}:  # a constant equals its int, so hashes as it
            return hash(terms.get(0, 0))
        return hash(tuple(sorted(terms.items())))

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
            if other == 1:
                return self
            return LaurentPoly._adopt({e: c * other for e, c in self._terms.items()})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        # Both sides are immutable, so a product by the shared one is the other side.
        if self is _ONE:
            return other
        if other is _ONE:
            return self
        # Term-pair products; cost follows the term counts, not the spans.
        data: dict[int, int] = {}
        get = data.get
        right = list(other._terms.items())
        for ea, ca in self._terms.items():
            for eb, cb in right:
                e = ea + eb
                data[e] = get(e, 0) + ca * cb
        for e in [e for e, c in data.items() if not c]:
            del data[e]
        return LaurentPoly._adopt(data)

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
        return f"{type(self).__name__}({self})"


_ZERO = LaurentPoly._adopt({})
_ONE = LaurentPoly._adopt({0: 1})


class NormalForm(LaurentPoly):
    """A nonzero polynomial with lowest exponent 0 and positive constant term.

    A normal form is a `LaurentPoly` and certifies its own shape:
    `NormalForm(poly)` raises ValueError when poly is not in normal form,
    and otherwise shares poly's terms.  Arithmetic on it returns an operand
    unchanged (x * 1, x ** 1, x.shift(0)) or builds a plain `LaurentPoly`,
    so no operation yields a `NormalForm` of other terms.
    """

    __slots__ = ()

    def __new__(cls, poly: LaurentPoly):
        if poly.is_zero:
            raise ValueError("the zero polynomial has no normal form")
        if poly.min_exp != 0:
            raise ValueError("normal form must have minimum exponent 0")
        if poly.coeff(0) <= 0:
            raise ValueError("normal form must have a positive constant term")
        return cls._adopt(poly._terms)


# -- module-level operations ------------------------------------------------


def normalize(p: LaurentPoly) -> NormalForm:
    """Canonical unit-equivalent representative of a nonzero polynomial."""
    terms = p._terms
    if not terms:
        raise ValueError("the zero polynomial has no normal form")
    low = min(terms)
    sign = -1 if terms[low] < 0 else 1
    return NormalForm._adopt({e - low: sign * c for e, c in terms.items()})


def equal_up_to_unit(a: LaurentPoly, b: LaurentPoly) -> bool:
    """True when a = +-t^k * b for some integer k (both zero counts)."""
    if a.is_zero or b.is_zero:
        return a.is_zero and b.is_zero
    return normalize(a) == normalize(b)


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

# One term with its sign.  Every part is optional, so the match never fails:
# it stops where the grammar does, and `_term_error` names what is missing
# there.  `*`, the exponent and its sign are read only after what they need;
# trailing whitespace is taken, so the match ends at the next token or the end.
_TERM = re.compile(
    r"\s*(?P<sign>[+-]?)"
    r"\s*(?:(?P<coeff>\d+)(?:\s*(?P<star>\*))?)?"
    r"(?:(?(star)\s*|(?(coeff)(?!)))(?P<t>t))?"
    r"(?(t)(?:\s*(?P<caret>\^)\s*(?P<esign>[+-]?)\s*(?P<exp>\d*))?)"
    r"\s*"
)
# A whole integer literal, or a character no token starts with.
_LEXEME = re.compile(r"(\d+)|[^\s\dt*^+\-]")


def _term_error(text: str, m: re.Match) -> PolyParseError:
    """The error of the text at the term match m.

    m is not a whole term, or holds a literal longer than Python's int <-> str
    cap.  A character outside the grammar or such a literal, the first from
    m.start() on, is named first: a character at the end of the token before
    it, a literal at its first digit.  Then the grammar's own errors, at the
    next token (or the end of the text), where m stops.
    """
    for lexeme in _LEXEME.finditer(text, m.start()):
        digits = lexeme.group(1)
        if digits is None:
            at = len(text[: lexeme.start()].rstrip())
            return PolyParseError(f"unexpected character {lexeme.group()!r}", at)
        try:
            int(digits)
        except ValueError:
            return PolyParseError(
                f"integer literal has more than {sys.get_int_max_str_digits()} digits",
                lexeme.start(),
            )
    sign, coeff, star, t, _, _, _ = m.groups()
    if m.start():
        if not sign:
            return PolyParseError("expected '+' or '-' between terms", m.start())
    elif sign == "+":
        return PolyParseError("expected a term", m.start("sign"))
    elif not (sign or coeff or t) and m.end() == len(text):
        return PolyParseError("empty polynomial text", 0)
    if not (coeff or t):
        return PolyParseError("expected a term", m.end())
    if star and not t:
        return PolyParseError("expected 't' after '*'", m.end())
    return PolyParseError("expected an exponent after '^'", m.end())


def parse(text: str) -> LaurentPoly:
    """Parse the polynomial grammar; raises PolyParseError with a position.

    One `_TERM` match per term reads its sign, coefficient, `*t` and
    `^[+-]exponent`, and adds it into one exponent -> coefficient map.  Every
    term but the first needs a sign, and the first may only have '-'.
    """
    total: dict[int, int] = {}
    n = len(text)
    pos = 0
    while True:
        m = _TERM.match(text, pos)
        sign, coeff, star, t, caret, esign, exp = m.groups()
        signed = sign != "+" if pos == 0 else sign
        if not (signed and (coeff or t) and (t or not star) and exp != ""):
            raise _term_error(text, m)
        try:
            c = int(coeff) if coeff else 1
            e = (int(exp) if caret else 1) if t else 0
        except ValueError:  # more digits than Python's int <-> str cap
            raise _term_error(text, m) from None
        if esign == "-":
            e = -e
        total[e] = total.get(e, 0) + (-c if sign == "-" else c)
        pos = m.end()
        if pos == n:
            return LaurentPoly(total)
