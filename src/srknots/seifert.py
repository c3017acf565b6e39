"""Block Seifert matrices of an elementary fusion and exact symbolic determinants.

For band signs eps_1..eps_m and linking number l, the fusion contributes two
square integer blocks P and Q of size m + |l|.  Fusion multiplies the
Alexander polynomial by |P - t Q^T| times |Q - t P^T|; one fusion of the
trivial knot (polynomial 1) has exactly that product
(`alexander_from_fusion`).

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
of positive bands.  The closed forms are evaluated at t = 2^K as integer
products, with K above the bit length of their coefficient bound 1 + 2^m,
and decoded by the same balanced-digit reader as the pencils.

Every determinant comes from one fraction-free (Bareiss) elimination,
`_bareiss`, on one of two entry encodings:

* integer pencils A - t B^T (the fusion blocks, and |M - t M^T| of an
  assembled Seifert matrix) go through `_pencil_det`, which eliminates the
  integers A - 2^K B^T, with K above the bit length of the Hadamard bound
  sqrt(prod_i sum_j (|A_ij| + |B_ji|)^2) on the coefficients, and reads
  the coefficients off the integer determinant as balanced base-2^K digits
  (Kronecker substitution, `_from_digits`);
* general Laurent matrices (`seifert det --matrix`), whose entries may be
  sparse with huge span, go through `symbolic_det`, which eliminates the
  sparse entries as they are and never builds a dense or 2^K-packed one.

The loop takes the ring's one, an exact division and a pivot key, and the
two routes differ in the key (timings on a 2-core x86_64 VM, Python 3.11).
Integer pencils take the first nonzero pivot: taking the entry with the
fewest bits made the P side of m = 1, l = 120 take 4.7 s instead of
0.005 s.  Laurent entries take the lowest-span pivot, which keeps the
products with the pivot and the exact divisions by it narrow: on 12 sparse
6x6 matrices with exponents in [-1000, 1000] it took 1.21 s in all against
1.28 s for the first nonzero pivot, and was faster on 8 of them.

The loop only updates the rows whose entry in the pivot column is nonzero.
A row it skips keeps its old values and the divisor of its last update;
the Bareiss row is those values times the current divisor over that one,
and the next update that touches the row divides by it.  The fusion
pencils have two or three entries in most rows, so few rows are touched
per step and the rest never grow.

Each fusion runs one elimination (`block_dets`), on (P, Q) whatever the
sign of l.  Transposing gives |Q - t P^T| = |Q^T - t P| =
(-t)^n |P - t^-1 Q^T| with n = m + |l|, so |Q - t P^T| is |P - t Q^T|
with coefficient e moved to n - e and multiplied by (-1)^n.  (P, Q) is the
fast side for either sign: in P - t Q^T the linking part fills column
m - 1, which touches many rows with a sparse pivot row, while in Q - t P^T
it fills row m - 1, which fills every row it touches.  At n = 200, (P, Q)
took 0.03 s for one band with l = +-200 and 0.4-0.7 s for 50 to 150 bands
with the rest in l of either sign; (Q, P) took 0.02 s for l = -200, but
4.1 s for l = 200 and 2.4-10.6 s for the mixed shapes.  The closed and
reduced forms stay independent checks of both determinants.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from math import isqrt
from typing import Callable, Optional, Sequence, Tuple, Union

from .laurent import LaurentPoly, NormalForm, divide_exact, normalize, parse
from .srpoly import SRParams, _one_minus_t_power, _sign

__all__ = [
    "FusionSigns",
    "SeifertBlocks",
    "SeifertMatrix",
    "build_blocks",
    "parse_matrix",
    "parse_int_matrix",
    "symbolic_det",
    "det_P_minus_tQT",
    "det_Q_minus_tPT",
    "block_dets",
    "closed_form_dets",
    "reduced_form_dets",
    "alexander_from_fusion",
    "alexander_from_seifert",
]

IntMatrix = Tuple[Tuple[int, ...], ...]

# Largest fusion block size n = m + |l| that `build_blocks` builds.  The
# slowest shapes measured for one elimination mix bands and linking
# (m = |l| = n/2, random signs): 0.7 s at n = 200, 1.9 s at n = 256, 4.5 s
# at n = 300 and 19 s at n = 400, where one band with l = +-800 takes 2.6 s
# (2-core x86-64 VM, Python 3.11).
FUSION_SIZE = 256

# Largest matrix `symbolic_det` and `alexander_from_seifert` take.  At this
# size a dense matrix with entries in [-2, 2] takes 0.6 s for |M - t M^T| by
# `_pencil_det` (2.8 s at 50, 14 s at 64), and the Laurent route takes
# 2.8 s for its pencil M - t M^T (1.6 s at 32) on the same VM.
MATRIX_SIZE = 40


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
    """Populate P and Q from the band signs and linking number.

    Raises ValueError before allocating when m + |l| is above FUSION_SIZE.
    """
    m, l, eps = signs.m, signs.l, signs.eps
    k = abs(l)
    size = m + k
    if size > FUSION_SIZE:
        raise ValueError(
            f"fusion blocks of size {size:,} are above the budget of {FUSION_SIZE}"
        )
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


def parse_matrix(text: str) -> list[list[LaurentPoly]]:
    """Parse the matrix text format: rows separated by ';', entries by ','.

    Entries use the polynomial grammar; integer matrices are the degenerate
    case.  Rows must all have the same length.
    """
    return _same_width([[parse(entry) for entry in row.split(",")] for row in text.split(";")])


def _same_width(rows: list) -> list:
    if any(len(row) != len(rows[0]) for row in rows):
        raise ValueError("matrix rows must all have the same length")
    return rows


# Matrix text whose entries are all plain integers.
_INT_MATRIX = re.compile(r"-?[0-9]+(?:[,;]-?[0-9]+)*")


def parse_int_matrix(text: str) -> list[tuple[int, ...]]:
    """Parse matrix text whose entries are integers, as `parse_matrix` would.

    Plain integer text (`-?[0-9]+` joined by ',' and ';') is read straight
    into int rows.  Any other text goes through `parse_matrix`, and each
    entry must be a constant polynomial, so `3*t^0` and `1 - t + t` count
    as integers.
    """
    if _INT_MATRIX.fullmatch(text):
        return _same_width([tuple(map(int, row.split(","))) for row in text.split(";")])
    rows = []
    for row in parse_matrix(text):
        if any(not entry.is_zero and (entry.min_exp != 0 or entry.span != 0) for entry in row):
            raise ValueError("alexander expects an integer matrix")
        rows.append(tuple(entry.coeff(0) for entry in row))
    return rows


def _check_matrix_size(n: int) -> None:
    if n > MATRIX_SIZE:
        raise ValueError(f"a {n}x{n} matrix is above the size budget of {MATRIX_SIZE}")


def _exact_int(a: int, b: int) -> int:
    q, r = divmod(a, b)
    if r:
        raise ArithmeticError("fraction-free elimination lost exactness")
    return q


def _exact_poly(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    q = divide_exact(a, b)
    if q is None:
        raise ArithmeticError("fraction-free elimination lost exactness")
    return q


def _bareiss(M: list[list], one, exact: Callable, pivot_key: Optional[Callable] = None):
    """Determinant of the square matrix M, by fraction-free (Bareiss) elimination.

    M holds rows of entries of an integral domain (ints, or LaurentPolys)
    and is eliminated in place.  `one` is the ring's one, and `exact(a, b)`
    returns a / b or raises ArithmeticError when b does not divide a.  Each
    step replaces an entry by (pivot * entry - head * pivot-row entry)
    divided exactly by the previous pivot, so no fractions arise.  The pivot
    of a column is its first nonzero entry or, given `pivot_key`, its first
    nonzero entry of least key; a row swap flips the sign.  A column with
    no nonzero entry holds the ring's zero, which is the determinant.  Only
    the rows with a nonzero entry in the pivot column are updated (see the
    module docstring).
    """
    n = len(M)
    # Row i is stored as of its last update, whose divisor was last[i]; the
    # current Bareiss row is the stored one times prev / last[i].
    last = [one] * n
    sign = 1
    prev = one
    for k in range(n):
        nonzero = (i for i in range(k, n) if M[i][k])
        if pivot_key is None:
            pivot_row = next(nonzero, -1)
        else:
            pivot_row = min(nonzero, key=lambda i: pivot_key(M[i][k]), default=-1)
        if pivot_row < 0:
            return M[k][k]
        if pivot_row != k:
            M[k], M[pivot_row] = M[pivot_row], M[k]
            last[k], last[pivot_row] = last[pivot_row], last[k]
            sign = -sign
        row_k = M[k]
        if last[k] != prev:
            for j in range(k, n):
                row_k[j] = exact(row_k[j] * prev, last[k])
        pivot = row_k[k]
        for i in range(k + 1, n):
            row_i = M[i]
            head = row_i[k]
            if not head:
                continue
            divisor = last[i]
            for j in range(k + 1, n):
                row_i[j] = exact(pivot * row_i[j] - head * row_k[j], divisor)
            last[i] = pivot
        prev = pivot
    return prev if sign == 1 else -prev


def symbolic_det(matrix: Sequence[Sequence[Union[int, LaurentPoly]]]) -> LaurentPoly:
    """Exact determinant of a square matrix with Laurent polynomial entries.

    This is the route for general Laurent matrices such as parsed
    `--matrix` text; integer entries are read as constants.  The entries go
    into `_bareiss` as they are, sparse, with lowest-span pivots (see the
    module docstring).  A matrix above MATRIX_SIZE raises ValueError before
    the elimination.
    """
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("matrix must be square")
    _check_matrix_size(n)
    rows = [[LaurentPoly.constant(x) if isinstance(x, int) else x for x in row] for row in matrix]
    return _bareiss(rows, LaurentPoly.one(), _exact_poly, lambda entry: entry.span)


def _from_digits(value: int, K: int, degree: int) -> LaurentPoly:
    """The polynomial sum_{e=0}^{degree} c_e t^e whose value at t = 2^K is `value`.

    The caller guarantees every c_e lies in [-2^(K-1), 2^(K-1)).  Balanced
    base-2^K digits, each in that range, are unique, so they are the c_e.
    A nonzero remainder past the top digit means the guarantee failed, and
    raises ArithmeticError.
    """
    coeffs = {}
    mask, half = (1 << K) - 1, 1 << (K - 1)
    for e in range(degree + 1):
        digit = value & mask
        value >>= K
        if digit >= half:
            digit -= 1 << K
            value += 1
        coeffs[e] = digit
    if value:
        raise ArithmeticError("determinant exceeds its coefficient bound")
    return LaurentPoly(coeffs)


def _pencil_det(A: IntMatrix, B: IntMatrix) -> LaurentPoly:
    """|A - t B^T| for square integer matrices A and B of the same size.

    This is the route for integer pencils (fusion blocks and assembled
    Seifert matrices), whose determinant p(t) = sum_k c_k t^k has degree at
    most n.  The coefficients are bounded by a Hadamard bound:

    * by Cauchy's estimate, c_k is the mean of p(t) t^-k over the unit
      circle, so |c_k| <= max over |t| = 1 of |p(t)|;
    * for |t| = 1, entry (i, j) of A - t B^T has modulus at most
      |A_ij| + |B_ji|, and Hadamard's inequality bounds |det| by the
      product of the row 2-norms, sqrt(prod_i sum_j (|A_ij| + |B_ji|)^2).

    So Bnd = isqrt(prod_i sum_j (|A_ij| + |B_ji|)^2) + 1 exceeds every
    |c_k|.  (A Sylvester-Hadamard matrix H with B = 0 meets it: |det H| =
    n^(n/2).)  With K = Bnd.bit_length() + 2 and x = 2^K, |c_k| < x/4, so
    `_from_digits` reads the c_k off the integer det(A - x B^T) =
    sum_k c_k x^k (Kronecker substitution).  That integer comes from
    `_bareiss` over Z with first-nonzero pivots (see the module docstring).
    """
    n = len(A)
    square_norms = 1
    for i in range(n):
        square_norms *= sum((abs(A[i][j]) + abs(B[j][i])) ** 2 for j in range(n))
    K = (isqrt(square_norms) + 1).bit_length() + 2
    M = [[A[i][j] - (B[j][i] << K) for j in range(n)] for i in range(n)]
    return _from_digits(_bareiss(M, 1, _exact_int), K, n)


def _transposed(det: LaurentPoly, n: int) -> LaurentPoly:
    """|B - t A^T| from det = |A - t B^T| of size n: (-t)^n det(1/t)."""
    sign = _sign(n)
    return LaurentPoly({n - e: sign * c for e, c in det.terms.items()})


def block_dets(signs: FusionSigns) -> tuple[LaurentPoly, LaurentPoly]:
    """(|P - t Q^T|, |Q - t P^T|) from one elimination, on (P, Q).

    |Q - t P^T| is |P - t Q^T| read through `_transposed`.
    """
    blocks = build_blocks(signs)
    det_p = _pencil_det(blocks.P, blocks.Q)
    return det_p, _transposed(det_p, len(blocks.P))


def det_P_minus_tQT(signs: FusionSigns) -> LaurentPoly:
    """|P - t Q^T|, by `block_dets`."""
    return block_dets(signs)[0]


def det_Q_minus_tPT(signs: FusionSigns) -> LaurentPoly:
    """|Q - t P^T|, by `block_dets`."""
    return block_dets(signs)[1]


# -- closed forms ------------------------------------------------------------

def closed_form_dets(signs: FusionSigns) -> tuple[LaurentPoly, LaurentPoly]:
    """Two-term closed forms of |P - t Q^T| and |Q - t P^T|.

        |P - t Q^T| = c^|l| prod(-c_i) + (-1)^(|l|+m+1) d^|l| prod(e_i)
        |Q - t P^T| = d^|l| prod(-d_i) + (-1)^(|l|+m+1) c^|l| prod(e_i)

    Both formulas are evaluated at t = 2^K as integer products and read by
    `_from_digits`.  c and d are +-monomials and each e_i has L1 norm 2, so
    the L1 norm of a product is at most the product of the L1 norms: each
    first term is a +-monomial and each second term has L1 norm 2^m.  Every
    coefficient is therefore at most 1 + 2^m in absolute value, and both
    determinants have degree at most m + |l|.
    """
    k = abs(signs.l)
    m = signs.m
    K = (1 + (1 << m)).bit_length() + 2
    x = 1 << K
    # (c, d, e) at x for each sign s: a = (s + 1)/2, b = (s - 1)/2,
    # c = a - t b, d = b - t a and e = s (1 - t).
    at_x = {}
    for s in (1, -1):
        a, b = (s + 1) // 2, (s - 1) // 2
        at_x[s] = (a - x * b, b - x * a, s * (1 - x))
    c, d, _ = at_x[signs.l_sign]
    prod_c = prod_d = prod_e = 1
    for e in signs.eps:
        ci, di, ei = at_x[e]
        prod_c *= -ci
        prod_d *= -di
        prod_e *= ei
    parity = _sign(k + m + 1)
    det_p = c**k * prod_c + parity * d**k * prod_e
    det_q = d**k * prod_d + parity * c**k * prod_e
    return _from_digits(det_p, K, m + k), _from_digits(det_q, K, m + k)


def reduced_form_dets(signs: FusionSigns) -> tuple[LaurentPoly, LaurentPoly]:
    """Sign-split bracket forms; they depend on eps only through p.

    l >= 0:  |P - t Q^T| = (-1)^(1-p) { t^l (1-t)^m - (-t)^(m-p) }
             |Q - t P^T| = (-1)^(l+1-p) { (1-t)^m - t^l (-t)^p }
    l < 0:   |P - t Q^T| = (-1)^(1-p) { (1-t)^m - t^(-l) (-t)^(m-p) }
             |Q - t P^T| = (-1)^(-l+1-p) { t^(-l) (1-t)^m - (-t)^p }
    """
    m, l, p = signs.m, signs.l, signs.p
    one_minus_t_m = _one_minus_t_power(m)
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


def alexander_from_fusion(signs: FusionSigns) -> NormalForm:
    """Normalized |P - t Q^T| * |Q - t P^T|: one fusion of the trivial knot."""
    det_p, det_q = block_dets(signs)
    return normalize(det_p * det_q)


# -- assembled Seifert matrices ----------------------------------------------


class SeifertMatrix(tuple):
    """A square integer Seifert matrix, possibly assembled from fusion blocks.

    The matrix is the tuple of its row tuples; building one from rows that
    do not form a square raises ValueError.
    """

    __slots__ = ()

    def __new__(cls, rows: Sequence[Sequence[int]]):
        self = super().__new__(cls, map(tuple, rows))
        if any(len(row) != len(self) for row in self):
            raise ValueError("Seifert matrix must be square")
        return self

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
    """Normalized |M - t M^T|; the empty matrix gives 1 by convention.

    A matrix above MATRIX_SIZE raises ValueError before the elimination.
    """
    _check_matrix_size(len(matrix))
    return normalize(_pencil_det(matrix, matrix))
