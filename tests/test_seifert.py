import itertools
import random
from math import comb, isqrt
import tracemalloc

import pytest

from srknots import seifert
from srknots.cli import main
from srknots.laurent import LaurentPoly, equal_up_to_unit, parse
from srknots.seifert import (
    FUSION_SIZE,
    MATRIX_SIZE,
    FusionSigns,
    SeifertMatrix,
    _from_digits,
    _pencil_det,
    alexander_from_fusion,
    alexander_from_seifert,
    block_dets,
    build_blocks,
    closed_form_dets,
    reduced_form_dets,
    symbolic_det,
)
from srknots.srpoly import F_factor, SRParams, _one_minus_t_power


def sign_grid(max_m, max_abs_l):
    for m in range(1, max_m + 1):
        for l in range(-max_abs_l, max_abs_l + 1):
            for eps in itertools.product((1, -1), repeat=m):
                yield FusionSigns(eps, l)


class TestFusionSigns:
    def test_validation(self):
        with pytest.raises(ValueError):
            FusionSigns((), 0)
        with pytest.raises(ValueError):
            FusionSigns((1, 2), 0)

    def test_derived_values(self):
        signs = FusionSigns((1, -1, 1), -2)
        assert (signs.m, signs.l, signs.p) == (3, -2, 2) and signs.l_sign == -1


def value_row(sign):
    """(a, b, c, d, e) from the defining formulas a=(s+1)/2, b=(s-1)/2,
    c = a - t b, d = b - t a, e = s (1 - t): the reference that the closed
    forms are checked against."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    a = (sign + 1) // 2
    b = (sign - 1) // 2
    c = LaurentPoly({0: a, 1: -b})
    d = LaurentPoly({0: b, 1: -a})
    e = LaurentPoly({0: sign, 1: -sign})
    return a, b, c, d, e


class TestValueTable:
    def test_hardcoded_rows_match_defining_formulas(self):
        rows = {
            1: (1, 0, LaurentPoly({0: 1}), LaurentPoly({1: -1}), LaurentPoly({0: 1, 1: -1})),
            -1: (0, -1, LaurentPoly({1: 1}), LaurentPoly({0: -1}), LaurentPoly({0: -1, 1: 1})),
        }
        for s in (1, -1):
            assert value_row(s) == rows[s]
        with pytest.raises(ValueError):
            value_row(0)

    def test_row_contents(self):
        a, b, c, d, e = value_row(1)
        assert (a, b) == (1, 0)
        assert (str(c), str(d), str(e)) == ("1", "-t", "1 - t")
        a, b, c, d, e = value_row(-1)
        assert (a, b) == (0, -1)
        assert (str(c), str(d), str(e)) == ("t", "-1", "-1 + t")


class TestBuildBlocks:
    def test_two_negative_bands_no_linking(self):
        P, Q = build_blocks(FusionSigns((-1, -1), 0))
        assert P == ((0, -1), (-1, 0))
        assert Q == ((1, -1), (-1, 1))

    def test_single_band_overlap_convention(self):
        assert build_blocks(FusionSigns((1,), 0)) == (((0,),), ((1,),))
        assert build_blocks(FusionSigns((-1,), 0)) == (((-1,),), ((0,),))

    def test_positive_linking_blocks(self):
        P, Q = build_blocks(FusionSigns((1, 1), 1))
        assert P == ((-1, 1, 1), (1, -1, 0), (0, 1, 1))
        assert Q == ((0, 1, 0), (1, 0, 1), (1, 0, 0))


class TestSymbolicDet:
    def test_identity(self):
        eye = [[LaurentPoly.one() if i == j else LaurentPoly.zero() for j in range(3)] for i in range(3)]
        assert symbolic_det(eye) == LaurentPoly.one()

    def test_diagonal(self):
        one_minus_t = parse("1 - t")
        m = [[one_minus_t, LaurentPoly.zero()], [LaurentPoly.zero(), one_minus_t]]
        assert symbolic_det(m) == parse("1 - 2*t + t^2")

    def test_two_by_two_cofactor(self):
        m = [[parse("0"), parse("-t")], [parse("1"), parse("5 - t^3")]]
        assert symbolic_det(m) == parse("t")

    def test_empty_matrix(self):
        assert symbolic_det([]) == LaurentPoly.one()

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            symbolic_det([[LaurentPoly.one()], [LaurentPoly.one(), LaurentPoly.zero()]])

    @pytest.mark.parametrize("n", range(1, 8))
    def test_matches_sympy_det_on_random_matrices(self, n):
        sympy = pytest.importorskip("sympy")
        t = sympy.Symbol("t")
        rng = random.Random(100 + n)
        for _ in range(4):
            # About a third of the entries are zero, as in the fusion pencils.
            m = [
                [
                    LaurentPoly({e: rng.randrange(-3, 4) for e in range(-1, 2)})
                    if rng.random() < 0.67
                    else LaurentPoly.zero()
                    for _ in range(n)
                ]
                for _ in range(n)
            ]
            # Multiplying every entry by t makes them polynomials and the det t^n times larger.
            shifted = sympy.Matrix(
                [[sum(c * t ** (e + 1) for e, c in x.items()) for x in row] for row in m]
            )
            expected = sympy.Poly(shifted.det(method="domain-ge"), t).as_dict()
            got = LaurentPoly({k - n: int(c) for (k,), c in expected.items()})
            assert symbolic_det(m) == got

    def test_sparse_pivots_of_huge_span_stay_sparse(self):
        # Bareiss divides by two-term pivots of span 10^6 here; dense exact
        # division would allocate the whole span (72 MB).
        n = 10**6
        m = [
            [parse(f"1 + t^{n}"), parse(f"2 + t^{n - 1}"), parse("3 - t")],
            [parse(f"1 - t^{n}"), parse("1 + t^5"), parse(f"2 + t^{n}")],
            [parse("3 + t"), parse(f"t - t^{n}"), parse(f"1 + t^{n - 2}")],
        ]
        (a, b, c), (d, e, f), (g, h, i) = m
        expected = a * e * i + b * f * g + c * d * h + -1 * (c * e * g + a * f * h + b * d * i)
        tracemalloc.start()
        try:
            got = symbolic_det(m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == expected
        assert peak < 2**20

    def test_singular_matrix(self):
        row = [parse("1 + t"), parse("2 - t"), parse("t"), parse("1"), parse("3")]
        m = [row, row, [parse("1")] * 5, [parse("t")] * 5, [parse("t^2")] * 5]
        assert symbolic_det(m).is_zero

    def test_skipped_rows_come_back_stale(self):
        # Row 1 has no entry in column 0, so the first step skips it; its
        # monomial is the first nonzero entry in column 1, so it is the next
        # pivot row, still stale, and must first be brought up to date by
        # the non-unit pivot 2 - t^-3.  Row 3 is skipped twice and updated
        # at the third step.
        z = LaurentPoly.zero()
        m = [
            [parse("2 - t^-3"), parse("t^4 + 1"), parse("t^-2"), parse("3 - t")],
            [z, parse("-5*t^-1"), parse("1 + t^2"), parse("t^-4 - 2")],
            [parse("t^-1 + t^6 - 2"), parse("1 - t^9 + t^-2"), parse("7"), z],
            [z, z, parse("t^-40 + t^40"), parse("2*t^3 - t^-1")],
        ]
        assert symbolic_det(m) == laplace_det(m)

    @pytest.mark.parametrize("n", range(2, 8))
    def test_sparse_matrices_match_laplace_expansion(self, n):
        # Mostly zero entries with negative exponents: most rows are skipped
        # at most steps and come back stale, as pivot rows or as updated ones.
        rng = random.Random(900 + n)
        for density in (0.25, 0.4):
            for _ in range(6):
                m = [
                    [
                        LaurentPoly({rng.randint(-6, 6): rng.choice((-3, -2, -1, 1, 2, 3))
                                     for _ in range(rng.randint(1, 3))})
                        if rng.random() < density
                        else LaurentPoly.zero()
                        for _ in range(n)
                    ]
                    for _ in range(n)
                ]
                assert symbolic_det(m) == laplace_det(m)

    def test_inexact_division_raises(self, monkeypatch):
        # Laurent Bareiss divisions are exact, so fake a failed one to show
        # the check fires, also under python -O.
        monkeypatch.setattr(seifert, "divide_exact", lambda a, b: None)
        with pytest.raises(ArithmeticError):
            symbolic_det([[parse("1 + t"), parse("t")], [parse("2"), parse("t^-1")]])


def laplace_det(rows):
    """Cofactor expansion along the first row, skipping zero entries."""
    if not rows:
        return LaurentPoly.one()
    total = LaurentPoly.zero()
    for j, entry in enumerate(rows[0]):
        if not entry.is_zero:
            minor = [row[:j] + row[j + 1:] for row in rows[1:]]
            total = total + (-1) ** j * entry * laplace_det(minor)
    return total


def transpose(rows):
    return [list(col) for col in zip(*rows)]


def laurent_pencil(A, B):
    """A - t B^T with Laurent entries, for the sparse route."""
    n = len(A)
    return [[LaurentPoly({0: A[i][j], 1: -B[j][i]}) for j in range(n)] for i in range(n)]


def sympy_pencil_det(A, B):
    """|A - t B^T| from sympy's determinant over Z[t]."""
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    t = sympy.Symbol("t")
    n = len(A)
    pencil = sympy.Matrix(n, n, lambda i, j: A[i][j] - t * B[j][i])
    ring = sympy.ZZ[t]
    det = DomainMatrix.from_Matrix(pencil).convert_to(ring).det()
    coeffs = sympy.Poly(ring.to_sympy(det), t).as_dict()
    return LaurentPoly({k: int(c) for (k,), c in coeffs.items()})


class TestPencilDet:
    @pytest.mark.parametrize("n", range(1, 25))
    def test_matches_sympy_det_on_random_pencils(self, n):
        rng = random.Random(300 + n)

        def draw():
            # About a third of the entries are zero.
            return [
                [rng.randint(-50, 50) if rng.random() < 0.67 else 0 for _ in range(n)]
                for _ in range(n)
            ]

        A, B, M = draw(), draw(), draw()
        assert _pencil_det(A, B) == sympy_pencil_det(A, B)
        assert _pencil_det(M, M) == sympy_pencil_det(M, M)

    @pytest.mark.parametrize("n", [2, 5, 9, 16])
    def test_sparse_pencils_leave_rows_behind(self, n):
        # Most entries of A - t B^T are zero, so most rows have a zero in
        # the pivot column, are skipped, and come back later stale.
        rng = random.Random(700 + n)
        for density in (0.15, 0.3):
            for _ in range(6):
                cells = [(i, j) for i in range(n) for j in range(n) if rng.random() < density]
                A = [[0] * n for _ in range(n)]
                BT = [[0] * n for _ in range(n)]
                for i, j in cells:
                    A[i][j] = rng.randint(-5, 5)
                    BT[i][j] = rng.randint(-5, 5)
                # Both routes run one elimination loop, so each is checked
                # against sympy on its own.
                expected = sympy_pencil_det(A, transpose(BT))
                assert _pencil_det(A, transpose(BT)) == expected
                assert symbolic_det(laurent_pencil(A, transpose(BT))) == expected

    def test_singular_pencils(self):
        rng = random.Random(41)
        n = 6
        A = random_matrix(rng, n, n, -9, 9)
        BT = random_matrix(rng, n, n, -9, 9)
        repeated = [row[:] for row in A], [row[:] for row in BT]
        repeated[0][4], repeated[1][4] = A[1], BT[1]
        zero_row = [row[:] for row in A], [row[:] for row in BT]
        zero_row[0][2], zero_row[1][2] = [0] * n, [0] * n
        zero_column = [[0] + row[1:] for row in A], [[0] + row[1:] for row in BT]
        for A_, BT_ in (repeated, zero_row, zero_column):
            assert _pencil_det(A_, transpose(BT_)).is_zero
            assert sympy_pencil_det(A_, transpose(BT_)).is_zero

    def test_zero_leading_entries_force_row_swaps(self):
        rng = random.Random(43)
        for n in range(2, 9):
            A = random_matrix(rng, n, n, -9, 9)
            BT = random_matrix(rng, n, n, -9, 9)
            for i in range(n):
                A[i][0] = 0  # the first column vanishes at t = 0 ...
            for i in range(n - 1):
                BT[i][0] = 0  # ... and everywhere but in the last row.
            BT[n - 1][0] = rng.choice((-3, -1, 2, 5))
            expected = sympy_pencil_det(A, transpose(BT))
            assert _pencil_det(A, transpose(BT)) == expected
            assert symbolic_det(laurent_pencil(A, transpose(BT))) == expected

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 24, 40])
    def test_identity_pencils_meet_the_bound(self, n):
        # |I - t(+-I)| = (1 -+ t)^n: its coefficients sum in absolute value
        # to 2^n, which is the row-norm bound itself.
        eye = [[int(i == j) for j in range(n)] for i in range(n)]
        minus_eye = [[-x for x in row] for row in eye]
        assert _pencil_det(eye, eye) == _one_minus_t_power(n)
        assert _pencil_det(eye, minus_eye) == LaurentPoly({k: comb(n, k) for k in range(n + 1)})

    def test_every_grid_pattern_matches_sparse_route(self):
        count = 0
        for signs in sign_grid(5, 4):
            P, Q = build_blocks(signs)
            # The bracket forms share no code with the elimination loop.
            reduced_p, reduced_q = reduced_form_dets(signs)
            det_p, det_q = block_dets(signs)
            assert det_p == reduced_p, signs
            assert det_p == symbolic_det(laurent_pencil(P, Q)), signs
            assert det_q == reduced_q, signs
            assert det_q == symbolic_det(laurent_pencil(Q, P)), signs
            assert det_q == _pencil_det(Q, P), signs
            count += 1
        assert count == 558

    @pytest.mark.parametrize("n", range(9))
    def test_transpose_identity(self, n):
        # |B - t A^T| = (-t)^n |A - t^-1 B^T|: the coefficients of |A - t B^T|
        # reversed (e -> n - e) and multiplied by (-1)^n.
        rng = random.Random(500 + n)
        pencils = [(random_matrix(rng, n, n, -9, 9), random_matrix(rng, n, n, -9, 9))
                   for _ in range(6)]
        # Row i of A - t B^T is row i of A and column i of B.
        A, B = pencils[0]
        singular = []
        if n >= 1:  # a zero row
            singular.append(([[0] * n] + A[1:], [[0] + row[1:] for row in B]))
        if n >= 2:
            # The last row repeats the first.
            singular.append((A[:-1] + [A[0]], [row[:-1] + [row[0]] for row in B]))
        for A, B in pencils + singular:
            forward = _pencil_det(A, B)
            assert forward.is_zero == ((A, B) in singular)
            assert all(0 <= e <= n for e in forward.terms)
            reversed_ = LaurentPoly({n - e: (-1) ** n * c for e, c in forward.terms.items()})
            assert _pencil_det(B, A) == reversed_

    def test_both_orientations_on_the_grid(self):
        # block_dets eliminates (P, Q) only; (Q, P) is the oracle for the
        # other side, and each side is the other one transposed.
        count = 0
        for signs in sign_grid(5, 12):
            P, Q = build_blocks(signs)
            det_p, det_q = block_dets(signs)
            assert det_p == _pencil_det(P, Q), signs
            assert det_q == _pencil_det(Q, P), signs
            count += 1
        assert count == 62 * 25

    def test_inexact_division_raises(self, monkeypatch):
        # Integer Bareiss divisions are exact, so fake a remainder to show
        # the check fires, also under python -O.
        monkeypatch.setattr(seifert, "divmod", lambda a, b: (a // b, 1), raising=False)
        with pytest.raises(ArithmeticError):
            block_dets(FusionSigns((1, -1), 2))


def sylvester_hadamard(n):
    """The Sylvester-Hadamard matrix of order n, a power of 2."""
    H = [[1]]
    while len(H) < n:
        H = [row + row for row in H] + [row + [-x for x in row] for row in H]
    return H


class TestPencilBound:
    @pytest.mark.parametrize("n", [1, 2, 4, 8, 16, 32])
    def test_sylvester_hadamard_pencils(self, n):
        # |det H| = n^(n/2) is the Hadamard bound itself, so (H, 0) meets
        # the coefficient bound; (H, H) gives (1 - t)^n det H.
        H = sylvester_hadamard(n)
        zero = [[0] * n for _ in range(n)]
        det_h = _pencil_det(H, zero)
        assert abs(det_h.coeff(0)) == isqrt(n**n) and det_h.span == 0
        assert det_h == sympy_pencil_det(H, zero)
        assert _pencil_det(H, H) == sympy_pencil_det(H, H)
        assert _pencil_det(H, H) == det_h * _one_minus_t_power(n)

    def test_from_digits_refuses_a_leftover_digit(self):
        assert _from_digits(-3 * 16**2 + 5 * 16 - 8, 4, 2) == LaurentPoly({0: -8, 1: 5, 2: -3})
        with pytest.raises(ArithmeticError):
            _from_digits(8 * 16**2, 4, 2)  # 8 is no balanced base-16 digit
        with pytest.raises(ArithmeticError):
            _from_digits(16**3, 4, 2)


def laurent_closed_form_dets(signs):
    """The closed forms multiplied out in LaurentPoly, as the paper writes them."""
    k, m = abs(signs.l), signs.m
    _, _, c, d, _ = value_row(signs.l_sign)
    prod_c = prod_d = prod_e = LaurentPoly.one()
    for e in signs.eps:
        _, _, ci, di, ei = value_row(e)
        prod_c = prod_c * (-ci)
        prod_d = prod_d * (-di)
        prod_e = prod_e * ei
    parity = (-1) ** (k + m + 1)
    return (c**k * prod_c + parity * d**k * prod_e,
            d**k * prod_d + parity * c**k * prod_e)


class TestClosedFormsAtPowerOfTwo:
    def test_every_sign_pattern_up_to_m6_l12(self):
        count = 0
        for signs in sign_grid(6, 12):
            assert closed_form_dets(signs) == laurent_closed_form_dets(signs), signs
            count += 1
        assert count == 126 * 25

    def test_seeded_wide_patterns(self):
        rng = random.Random(61)
        for _ in range(200):
            m = rng.randint(1, 12)
            signs = FusionSigns(tuple(rng.choice((1, -1)) for _ in range(m)),
                                rng.randint(-60, 60))
            assert closed_form_dets(signs) == laurent_closed_form_dets(signs), signs

    def test_no_polynomial_products_and_one_decoder(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("LaurentPoly multiplication")

        calls = []
        monkeypatch.setattr(LaurentPoly, "__mul__", forbidden)
        monkeypatch.setattr(LaurentPoly, "__rmul__", forbidden)
        monkeypatch.setattr(LaurentPoly, "__pow__", forbidden)
        monkeypatch.setattr(seifert, "_from_digits",
                            lambda *args, _inner=_from_digits: calls.append(args) or _inner(*args))
        signs = FusionSigns((1, -1, -1), -5)
        closed_form_dets(signs)
        assert len(calls) == 2
        block_dets(signs)
        assert len(calls) == 3


class TestBlockDeterminants:
    def test_single_band_values(self):
        plus = FusionSigns((1,), 0)
        assert block_dets(plus) == (parse("-t"), parse("1"))
        minus = FusionSigns((-1,), 0)
        assert block_dets(minus) == (parse("-1"), parse("t"))

    def test_reduced_form_example(self):
        signs = FusionSigns((-1, -1), 0)
        assert block_dets(signs)[1] == parse("2*t - t^2")

    def test_closed_and_reduced_forms_on_grid(self):
        for signs in sign_grid(4, 3):
            det_p, det_q = block_dets(signs)
            closed_p, closed_q = closed_form_dets(signs)
            reduced_p, reduced_q = reduced_form_dets(signs)
            assert det_p == closed_p == reduced_p, signs
            assert det_q == closed_q == reduced_q, signs

    def test_sign_pattern_permutation_invariance(self):
        for base in ((1, 1, -1), (1, -1, -1), (1, -1, 1, -1)):
            for l in (-2, 0, 3):
                dets = {block_dets(FusionSigns(perm, l)) for perm in set(itertools.permutations(base))}
                assert len(dets) == 1, (base, l)


class TestOneEliminationPerFusion:
    @pytest.fixture
    def calls(self, monkeypatch):
        counts = {"build_blocks": 0, "_pencil_det": 0}
        for name in counts:
            inner = getattr(seifert, name)

            def counted(*args, _name=name, _inner=inner):
                counts[_name] += 1
                return _inner(*args)

            monkeypatch.setattr(seifert, name, counted)
        return counts

    @pytest.mark.parametrize("eps,l", [((1,), 3), ((1, -1, -1), -2), ((-1, -1), 0)])
    def test_seifert_check(self, calls, capsys, eps, l):
        text = ",".join("+1" if e == 1 else "-1" for e in eps)
        assert main(["seifert", "check", f"--m={len(eps)}", f"--l={l}", f"--eps={text}"]) == 0
        assert capsys.readouterr().out.endswith("agree=true\n")
        assert calls == {"build_blocks": 1, "_pencil_det": 1}

    @pytest.mark.parametrize("func", [alexander_from_fusion, block_dets])
    def test_library_entry_points(self, calls, func):
        func(FusionSigns((1, -1), 2))
        assert calls == {"build_blocks": 1, "_pencil_det": 1}

    def test_long_linking_check_is_fast_in_a_fresh_process(self, fresh_process):
        # The Q side of l > 0 is the slow elimination; it is never run.
        done = fresh_process(*check_argv(200), timeout=5)
        assert done.returncode == 0, done.stderr
        assert done.stdout.endswith("agree=true\n")

    def test_negative_linking_check_is_fast_in_a_fresh_process(self, fresh_process):
        # With every row updated at every step, the P side took 55 s here.
        done = fresh_process(*check_argv(-200), timeout=5)
        assert done.returncode == 0, done.stderr
        assert done.stdout.endswith("agree=true\n")


def check_argv(l):
    """`seifert check --m 1 --l <l> --eps +1`."""
    return ("seifert", "check", "--m", "1", "--l", str(l), "--eps", "+1")


class TestBudgets:
    def test_fusion_size(self):
        # At the budget both block shapes build, and one more is refused
        # before anything is allocated.
        assert len(build_blocks(FusionSigns((1,), FUSION_SIZE - 1))[0]) == FUSION_SIZE
        assert len(build_blocks(FusionSigns((-1,) * FUSION_SIZE, 0))[1]) == FUSION_SIZE
        for signs in (FusionSigns((1,), -FUSION_SIZE), FusionSigns((1, -1), 10**12)):
            with pytest.raises(ValueError, match=f"above the budget of {FUSION_SIZE}"):
                block_dets(signs)

    def test_matrix_size(self):
        n = MATRIX_SIZE + 1
        eye = [[int(i == j) for j in range(n)] for i in range(n)]
        message = f"a {n}x{n} matrix is above the size budget of {MATRIX_SIZE}"
        with pytest.raises(ValueError, match=message):
            symbolic_det(eye)
        with pytest.raises(ValueError, match=message):
            alexander_from_seifert(SeifertMatrix(eye))
        assert symbolic_det([row[1:] for row in eye[1:]]) == LaurentPoly.one()


class TestAlexanderFromFusion:
    @pytest.mark.parametrize(
        "eps,l,expected",
        [
            ((-1, -1), 0, "2 - 5*t + 2*t^2"),
            ((1,), 1, "1 - 2*t + 3*t^2 - 2*t^3 + t^4"),
        ],
    )
    def test_table_rows(self, eps, l, expected):
        got = alexander_from_fusion(FusionSigns(eps, l))
        assert str(got) == expected

    def test_unit_fusion_gives_one(self):
        # One positive band with l = 0: f(t) = (1 - t) - (-t) = 1.
        assert alexander_from_fusion(FusionSigns((1,), 0)) == 1

    def test_matches_factor_formula_on_grid(self):
        for signs in sign_grid(4, 3):
            via_blocks = alexander_from_fusion(signs)
            assert via_blocks == F_factor(SRParams(signs.m, signs.l, signs.p)), signs


def random_matrix(rng, rows, cols, lo=-3, hi=3):
    return [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)]


class TestAssembledSeifertMatrix:
    def test_empty_matrix_is_trivial_knot(self):
        assert str(alexander_from_seifert(SeifertMatrix(()))) == "1"

    def test_trefoil_like_two_by_two(self):
        m = SeifertMatrix(((-1, 1), (0, -1)))
        assert str(alexander_from_seifert(m)) == "1 - t + t^2"

    def test_a_matrix_is_its_rows(self):
        rows = [[-1, 1], [0, -1]]
        m = SeifertMatrix(rows)
        assert isinstance(m, tuple) and m == tuple(map(tuple, rows))
        assert all(type(row) is tuple for row in m) and len(m) == 2

    @pytest.mark.parametrize("rows", [[[1, 2]], [[1, 2], [3]], [[1], [2]]])
    def test_a_matrix_that_is_not_square_raises(self, rows):
        with pytest.raises(ValueError, match="Seifert matrix must be square"):
            SeifertMatrix(rows)

    def test_block_determinant_ignores_fill_blocks(self):
        rng = random.Random(23)
        signs = FusionSigns((-1, -1), 0)
        trefoil = ((-1, 1), (0, -1))
        results = set()
        for _ in range(5):
            n = 2
            assembled = SeifertMatrix.assemble(
                build_blocks(signs),
                trefoil,
                random_matrix(rng, n, n),
                random_matrix(rng, n, 2),
                random_matrix(rng, 2, n),
            )
            results.add(alexander_from_seifert(assembled))
        assert len(results) == 1
        expected = parse("1 - t + t^2") * parse("2 - 5*t + 2*t^2")
        assert equal_up_to_unit(results.pop(), expected)

    def test_assemble_validates_shapes(self):
        blocks = build_blocks(FusionSigns((1,), 0))
        with pytest.raises(ValueError):
            SeifertMatrix.assemble(blocks, ((0,),), [[0]], [[0]], [[0, 0]])

    def test_randomized_block_factorization(self):
        rng = random.Random(5)
        trials = 0
        while trials < 25:
            m = rng.randint(1, 3)
            l = rng.randint(-2, 2)
            g = rng.randint(0, 2)
            signs = FusionSigns(tuple(rng.choice((1, -1)) for _ in range(m)), l)
            genus_block = random_matrix(rng, 2 * g, 2 * g)
            n = m + abs(l)
            assembled = SeifertMatrix.assemble(
                build_blocks(signs),
                genus_block,
                random_matrix(rng, n, n),
                random_matrix(rng, n, 2 * g),
                random_matrix(rng, 2 * g, n),
            )
            try:
                base = alexander_from_seifert(SeifertMatrix(genus_block))
                whole = alexander_from_seifert(assembled)
            except ValueError:
                continue  # degenerate genus block with vanishing determinant
            product = base * block_dets(signs)[0] * block_dets(signs)[1]
            assert equal_up_to_unit(whole, product)
            trials += 1
