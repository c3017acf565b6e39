"""Small integer Laurent-polynomial helpers the benchmark uses on its own.

The benchmark builds its inputs and expected answers with this code rather
than with `srknots`, so a check never asks the program under test to grade
itself.  A polynomial is a dict mapping exponent -> nonzero integer
coefficient.
"""

from __future__ import annotations

import re
from math import comb


def clean(poly: dict) -> dict:
    return {e: c for e, c in poly.items() if c}


def mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            out[ea + eb] = out.get(ea + eb, 0) + ca * cb
    return clean(out)


def shift(poly: dict, k: int, sign: int = 1) -> dict:
    return {e + k: sign * c for e, c in poly.items()}


def normal(poly: dict) -> dict:
    """The unit multiple +-t^k * poly with lowest exponent 0 and positive constant."""
    low = min(poly)
    return shift(poly, -low, 1 if poly[low] > 0 else -1)


def is_symmetric(poly: dict) -> bool:
    """Whether poly equals +-t^k * poly(1/t) for some k."""
    n = normal(poly)
    top = max(n)
    mirrored = {top - e: c for e, c in n.items()}
    return mirrored == n or mirrored == {e: -c for e, c in n.items()}


def value(poly: dict, x: int) -> int:
    """poly(x) for a polynomial without negative exponents."""
    return sum(c * x**e for e, c in poly.items())


def odd_part(n: int) -> int:
    n = abs(n)
    if n == 0:
        return 0
    return n >> ((n & -n).bit_length() - 1)


def fusion_factor(m: int, l: int, p: int) -> dict:
    """Normal form of F(t; m, l, p) = f(t) f(1/t), f = (1 - t)^m - t^l (-t)^p."""
    f = {k: (-1) ** k * comb(m, k) for k in range(m + 1)}
    f[l + p] = f.get(l + p, 0) - (-1) ** p
    f = clean(f)
    return normal(mul(f, {-e: c for e, c in f.items()}))


def fusion_factors_up_to(top: int) -> list[tuple[tuple, dict]]:
    """Every (m, l, p) whose factor has span 2..top, with its normal form.

    F has span 2 * span(f); span(f) >= m - 1, and with s = l + p it is
    m - s for s < 0 and s for s > m, which bounds m and s.
    """
    half = top // 2
    out = []
    for m in range(1, half + 2):
        for p in range(m + 1):
            for s in range(min(0, m - half), max(half, m) + 1):
                factor = fusion_factor(m, s - p, p)
                if 2 <= max(factor) <= top:
                    out.append(((m, s - p, p), factor))
    return out


def key(poly: dict) -> tuple:
    """A hashable, order-independent identity for a polynomial."""
    return tuple(sorted(poly.items()))


def fmt(poly: dict) -> str:
    """Text in the package's polynomial grammar, ascending exponents."""
    parts = []
    for i, (e, c) in enumerate(sorted(poly.items())):
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
    return "".join(parts) if parts else "0"


_TERM = re.compile(r"([+-]?)\s*(\d+)?\s*\*?\s*(t(?:\^(-?\d+))?)?")


def parse(text: str) -> dict:
    """Inverse of `fmt`, also accepting any term order and spacing."""
    out: dict = {}
    body = text.replace(" ", "")
    pos = 0
    while pos < len(body):
        m = _TERM.match(body, pos)
        if m is None or m.end() == pos:
            raise ValueError(f"cannot parse polynomial {text!r} at {pos}")
        sign, digits, tpart, exp = m.groups()
        coeff = int(digits) if digits else 1
        e = 0 if not tpart else (int(exp) if exp else 1)
        out[e] = out.get(e, 0) + (-coeff if sign == "-" else coeff)
        pos = m.end()
    return clean(out)
