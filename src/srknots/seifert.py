"""Block Seifert matrices of an elementary fusion and exact symbolic determinants.

For band signs eps_1..eps_m and linking number l, the fusion contributes two
square integer blocks P and Q of size m + |l|.  The Alexander polynomial of
the fused knot is the base knot's polynomial times |P - t Q^T| times
|Q - t P^T|.

Block layout, with a = (e+1)/2, b = (e-1)/2 for the sign e of l and
a_i, b_i the same expressions in the band signs:

* band part (size m): P has -a_i on the diagonal and eps_i at (i, i-1 mod m);
  Q has -b_i on the diagonal and eps_j at (j-1 mod m, j).  For m = 1 the
  diagonal and cycle entries land on the same cell and are summed.
* linking part (size |l|): P carries e down its column m block, a on the
  diagonal and b below it; Q carries e along its row m block, b on the
  diagonal and a above it; the two corner cells hold eps_1.

Both determinants admit two-term closed forms (`closed_form_dets`) built from
c = a - t b, d = b - t a, e_i = eps_i (1 - t), and fully reduced bracket
forms (`reduced_form_dets`) that depend on the signs only through the count
of positive bands.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple, Union

from .laurent import LaurentPoly, NormalForm, divide_exact, normalize, parse
from .srpoly import SRParams, _sign

__all__ = [
    "FusionSigns",
    "SeifertBlocks",
    "SeifertMatrix",
    "value_row",
    "build_blocks",
    "parse_matrix",
    "symbolic_det",
    "det_P_minus_tQT",
    "det_Q_minus_tPT",
    "closed_form_dets",
    "reduced_form_dets",
    "alexander_from_fusion",
    "alexander_from_seifert",
]

IntMatrix = Tuple[Tuple[int, ...], ...]


@dataclass(frozen=True)
class FusionSigns:
    """Band signs (each +-1) and the linking number of one fusion."""

    eps: Tuple[int, ...]
    l: int

    def __post_init__(self):
        object.__setattr__(self, "eps", tuple(self.eps))
        if not self.eps:
            raise ValueError("at least one band is required")
        if any(e not in (1, -1) for e in self.eps):
            raise ValueError("band signs must be +1 or -1")

    @property
    def m(self) -> int:
        return len(self.eps)

    @property
    def p(self) -> int:
        return sum(1 for e in self.eps if e == 1)

    @property
    def l_sign(self) -> int:
        """Sign of l; +1 for l = 0, where only its 0th power is ever used."""
        return -1 if self.l < 0 else 1

    @property
    def params(self) -> SRParams:
        return SRParams(self.m, self.l, self.p)


@dataclass(frozen=True)
class SeifertBlocks:
    """The two square integer blocks of one fusion, size m + |l|."""

    P: IntMatrix
    Q: IntMatrix


def build_blocks(signs: FusionSigns) -> SeifertBlocks:
    """Populate P and Q from the band signs and linking number."""
    m, l, eps = signs.m, signs.l, signs.eps
    k = abs(l)
    size = m + k
    P = [[0] * size for _ in range(size)]
    Q = [[0] * size for _ in range(size)]

    for i, e in enumerate(eps):
        P[i][i] -= (e + 1) // 2
        Q[i][i] -= (e - 1) // 2
    # One cycle through the bands; for m = 1 it collapses onto the diagonal.
    for i, e in enumerate(eps):
        P[i][(i - 1) % m] += e
        Q[(i - 1) % m][i] += e

    if l != 0:
        lsign = signs.l_sign
        a, b = (lsign + 1) // 2, (lsign - 1) // 2
        P[0][m + k - 1] = eps[0]
        Q[m + k - 1][0] = eps[0]
        for i in range(k):
            P[m + i][m - 1] = lsign
            Q[m - 1][m + i] = lsign
            P[m + i][m + i] = a
            Q[m + i][m + i] = b
            if i >= 1:
                P[m + i][m + i - 1] = b
            if i < k - 1:
                Q[m + i][m + i + 1] = a

    return SeifertBlocks(tuple(map(tuple, P)), tuple(map(tuple, Q)))


# -- symbolic determinants ---------------------------------------------------


def _as_poly(x: Union[int, LaurentPoly]) -> LaurentPoly:
    return LaurentPoly.constant(x) if isinstance(x, int) else x


def _bareiss_det(rows: list[list[LaurentPoly]]) -> LaurentPoly:
    n = len(rows)
    M = [row[:] for row in rows]
    sign = 1
    prev = LaurentPoly.one()
    for k in range(n - 1):
        # Lowest-span nonzero pivot limits intermediate growth.
        pivot_row = -1
        best = None
        for i in range(k, n):
            entry = M[i][k]
            if not entry.is_zero and (best is None or entry.span < best):
                best = entry.span
                pivot_row = i
        if pivot_row < 0:
            return LaurentPoly.zero()
        if pivot_row != k:
            M[k], M[pivot_row] = M[pivot_row], M[k]
            sign = -sign
        pivot = M[k][k]
        for i in range(k + 1, n):
            row_i = M[i]
            head = row_i[k]
            row_k = M[k]
            for j in range(k + 1, n):
                if row_i[j].is_zero and (head.is_zero or row_k[j].is_zero):
                    continue
                num = pivot * row_i[j] - head * row_k[j]
                q = divide_exact(num, prev)
                if q is None:
                    raise ArithmeticError("fraction-free elimination lost exactness")
                row_i[j] = q
            row_i[k] = LaurentPoly.zero()
        prev = pivot
    return M[n - 1][n - 1] if sign == 1 else -M[n - 1][n - 1]


def parse_matrix(text: str) -> list[list[LaurentPoly]]:
    """Parse the matrix text format: rows separated by ';', entries by ','.

    Entries use the polynomial grammar; integer matrices are the degenerate
    case.  Rows must all have the same length.
    """
    rows = [
        [parse(entry) for entry in row.split(",")]
        for row in text.split(";")
    ]
    width = len(rows[0])
    if any(len(row) != width for row in rows):
        raise ValueError("matrix rows must all have the same length")
    return rows


def symbolic_det(matrix: Sequence[Sequence[Union[int, LaurentPoly]]]) -> LaurentPoly:
    """Exact determinant of a square matrix with Laurent polynomial entries.

    Every size goes through fraction-free (Bareiss) elimination: each step
    replaces an entry by (pivot * entry - head * pivot-row entry) divided
    exactly by the previous pivot, so no fractions arise and intermediate
    entries stay polynomials.  Pivots are the lowest-span nonzero entries of
    their column, and a row swap flips the sign.
    """
    rows = [[_as_poly(x) for x in row] for row in matrix]
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("matrix must be square")
    if n == 0:
        return LaurentPoly.one()
    return _bareiss_det(rows)


def _pencil(A: IntMatrix, B: IntMatrix) -> list[list[LaurentPoly]]:
    """A - t * B^T as a Laurent matrix."""
    n = len(A)
    return [
        [LaurentPoly({0: A[i][j], 1: -B[j][i]}) for j in range(n)]
        for i in range(n)
    ]


def det_P_minus_tQT(signs: FusionSigns) -> LaurentPoly:
    """|P - t Q^T| computed from the actual block matrices."""
    blocks = build_blocks(signs)
    return symbolic_det(_pencil(blocks.P, blocks.Q))


def det_Q_minus_tPT(signs: FusionSigns) -> LaurentPoly:
    """|Q - t P^T| computed from the actual block matrices."""
    blocks = build_blocks(signs)
    return symbolic_det(_pencil(blocks.Q, blocks.P))


# -- closed forms ------------------------------------------------------------

def value_row(sign: int) -> tuple[int, int, LaurentPoly, LaurentPoly, LaurentPoly]:
    """(a, b, c, d, e) from the defining formulas a=(s+1)/2, b=(s-1)/2,
    c = a - t b, d = b - t a, e = s (1 - t)."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    a = (sign + 1) // 2
    b = (sign - 1) // 2
    c = LaurentPoly({0: a, 1: -b})
    d = LaurentPoly({0: b, 1: -a})
    e = LaurentPoly({0: sign, 1: -sign})
    return a, b, c, d, e


def closed_form_dets(signs: FusionSigns) -> tuple[LaurentPoly, LaurentPoly]:
    """Two-term closed forms of |P - t Q^T| and |Q - t P^T|.

        |P - t Q^T| = c^|l| prod(-c_i) + (-1)^(|l|+m+1) d^|l| prod(e_i)
        |Q - t P^T| = d^|l| prod(-d_i) + (-1)^(|l|+m+1) c^|l| prod(e_i)
    """
    k = abs(signs.l)
    m = signs.m
    _, _, c, d, _ = value_row(signs.l_sign)
    prod_c = LaurentPoly.one()
    prod_d = LaurentPoly.one()
    prod_e = LaurentPoly.one()
    for e in signs.eps:
        _, _, ci, di, ei = value_row(e)
        prod_c = prod_c * (-ci)
        prod_d = prod_d * (-di)
        prod_e = prod_e * ei
    parity = _sign(k + m + 1)
    det_p = c**k * prod_c + parity * d**k * prod_e
    det_q = d**k * prod_d + parity * c**k * prod_e
    return det_p, det_q


def reduced_form_dets(signs: FusionSigns) -> tuple[LaurentPoly, LaurentPoly]:
    """Sign-split bracket forms; they depend on eps only through p.

    l >= 0:  |P - t Q^T| = (-1)^(1-p) { t^l (1-t)^m - (-t)^(m-p) }
             |Q - t P^T| = (-1)^(l+1-p) { (1-t)^m - t^l (-t)^p }
    l < 0:   |P - t Q^T| = (-1)^(1-p) { (1-t)^m - t^(-l) (-t)^(m-p) }
             |Q - t P^T| = (-1)^(-l+1-p) { t^(-l) (1-t)^m - (-t)^p }
    """
    m, l, p = signs.m, signs.l, signs.p
    one_minus_t_m = LaurentPoly({0: 1, 1: -1}) ** m
    if l >= 0:
        det_p = _sign(1 - p) * (
            one_minus_t_m.shift(l) - LaurentPoly.monomial(_sign(m - p), m - p)
        )
        det_q = _sign(l + 1 - p) * (
            one_minus_t_m - LaurentPoly.monomial(_sign(p), l + p)
        )
    else:
        det_p = _sign(1 - p) * (
            one_minus_t_m - LaurentPoly.monomial(_sign(m - p), m - p - l)
        )
        det_q = _sign(-l + 1 - p) * (
            one_minus_t_m.shift(-l) - LaurentPoly.monomial(_sign(p), p)
        )
    return det_p, det_q


def alexander_from_fusion(base: LaurentPoly, signs: FusionSigns) -> NormalForm:
    """Normalized base * |P - t Q^T| * |Q - t P^T|."""
    if base.is_zero:
        raise ValueError("base polynomial must be nonzero")
    return normalize(base * det_P_minus_tQT(signs) * det_Q_minus_tPT(signs))


# -- assembled Seifert matrices ----------------------------------------------


@dataclass(frozen=True)
class SeifertMatrix:
    """A square integer Seifert matrix, possibly assembled from fusion blocks."""

    entries: IntMatrix

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(map(tuple, self.entries)))
        n = len(self.entries)
        if any(len(row) != n for row in self.entries):
            raise ValueError("Seifert matrix must be square")

    @property
    def size(self) -> int:
        return len(self.entries)

    @classmethod
    def assemble(
        cls,
        blocks: SeifertBlocks,
        genus_block: Sequence[Sequence[int]],
        mid_fill: Sequence[Sequence[int]],
        right_fill: Sequence[Sequence[int]],
        bottom_fill: Sequence[Sequence[int]],
    ) -> "SeifertMatrix":
        """Block layout (n = m + |l|, 2g = genus-block size):

            [ O_nn  P     O    ]
            [ Q     mid   right]
            [ O     bottom M'  ]

        The zero blocks make the determinant of the pencil independent of the
        three fill blocks.
        """
        n = len(blocks.P)
        g2 = len(genus_block)
        if any(len(row) != g2 for row in genus_block):
            raise ValueError("genus block must be square")
        if len(mid_fill) != n or any(len(row) != n for row in mid_fill):
            raise ValueError(f"mid fill must be {n}x{n}")
        if len(right_fill) != n or any(len(row) != g2 for row in right_fill):
            raise ValueError(f"right fill must be {n}x{g2}")
        if len(bottom_fill) != g2 or any(len(row) != n for row in bottom_fill):
            raise ValueError(f"bottom fill must be {g2}x{n}")
        rows = []
        for i in range(n):
            rows.append((0,) * n + tuple(blocks.P[i]) + (0,) * g2)
        for i in range(n):
            rows.append(tuple(blocks.Q[i]) + tuple(mid_fill[i]) + tuple(right_fill[i]))
        for i in range(g2):
            rows.append((0,) * n + tuple(bottom_fill[i]) + tuple(genus_block[i]))
        return cls(tuple(rows))


def alexander_from_seifert(matrix: SeifertMatrix) -> NormalForm:
    """Normalized |M - t M^T|; the empty matrix gives 1 by convention."""
    n = matrix.size
    if n == 0:
        return normalize(LaurentPoly.one())
    det = symbolic_det(_pencil(matrix.entries, matrix.entries))
    return normalize(det)
