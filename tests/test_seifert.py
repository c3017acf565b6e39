import itertools
import random
import tracemalloc

import pytest

from srknots.laurent import LaurentPoly, equal_up_to_unit, parse
from srknots.seifert import (
    FusionSigns,
    SeifertMatrix,
    alexander_from_fusion,
    alexander_from_seifert,
    build_blocks,
    closed_form_dets,
    det_P_minus_tQT,
    det_Q_minus_tPT,
    reduced_form_dets,
    symbolic_det,
    value_row,
)
from srknots.srpoly import F_factor, SRParams


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
        assert signs.m == 3 and signs.p == 2 and signs.l_sign == -1
        assert signs.params == SRParams(3, -2, 2)


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
        blocks = build_blocks(FusionSigns((-1, -1), 0))
        assert blocks.P == ((0, -1), (-1, 0))
        assert blocks.Q == ((1, -1), (-1, 1))

    def test_single_band_overlap_convention(self):
        plus = build_blocks(FusionSigns((1,), 0))
        assert plus.P == ((0,),) and plus.Q == ((1,),)
        minus = build_blocks(FusionSigns((-1,), 0))
        assert minus.P == ((-1,),) and minus.Q == ((0,),)

    def test_positive_linking_blocks(self):
        blocks = build_blocks(FusionSigns((1, 1), 1))
        assert blocks.P == ((-1, 1, 1), (1, -1, 0), (0, 1, 1))
        assert blocks.Q == ((0, 1, 0), (1, 0, 1), (1, 0, 0))


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


class TestBlockDeterminants:
    def test_single_band_values(self):
        plus = FusionSigns((1,), 0)
        assert det_P_minus_tQT(plus) == parse("-t")
        assert det_Q_minus_tPT(plus) == parse("1")
        minus = FusionSigns((-1,), 0)
        assert det_P_minus_tQT(minus) == parse("-1")
        assert det_Q_minus_tPT(minus) == parse("t")

    def test_reduced_form_example(self):
        signs = FusionSigns((-1, -1), 0)
        assert det_Q_minus_tPT(signs) == parse("2*t - t^2")

    def test_closed_and_reduced_forms_on_grid(self):
        for signs in sign_grid(4, 3):
            det_p = det_P_minus_tQT(signs)
            det_q = det_Q_minus_tPT(signs)
            closed_p, closed_q = closed_form_dets(signs)
            reduced_p, reduced_q = reduced_form_dets(signs)
            assert det_p == closed_p == reduced_p, signs
            assert det_q == closed_q == reduced_q, signs

    def test_sign_pattern_permutation_invariance(self):
        for base in ((1, 1, -1), (1, -1, -1), (1, -1, 1, -1)):
            for l in (-2, 0, 3):
                dets = {
                    (det_P_minus_tQT(FusionSigns(perm, l)), det_Q_minus_tPT(FusionSigns(perm, l)))
                    for perm in set(itertools.permutations(base))
                }
                assert len(dets) == 1, (base, l)


class TestAlexanderFromFusion:
    @pytest.mark.parametrize(
        "eps,l,expected",
        [
            ((-1, -1), 0, "2 - 5*t + 2*t^2"),
            ((1,), 1, "1 - 2*t + 3*t^2 - 2*t^3 + t^4"),
        ],
    )
    def test_table_rows(self, eps, l, expected):
        got = alexander_from_fusion(LaurentPoly.one(), FusionSigns(eps, l))
        assert str(got) == expected

    def test_unit_factor_keeps_base(self):
        base = parse("2 - 5*t + 2*t^2")
        got = alexander_from_fusion(base, FusionSigns((1,), 0))
        assert equal_up_to_unit(got.poly, base)

    def test_matches_factor_formula_on_grid(self):
        for signs in sign_grid(4, 3):
            via_blocks = alexander_from_fusion(LaurentPoly.one(), signs)
            assert via_blocks.poly == F_factor(signs.params).poly, signs

    def test_zero_base_rejected(self):
        with pytest.raises(ValueError):
            alexander_from_fusion(LaurentPoly.zero(), FusionSigns((1,), 0))


def random_matrix(rng, rows, cols, lo=-3, hi=3):
    return [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)]


class TestAssembledSeifertMatrix:
    def test_empty_matrix_is_trivial_knot(self):
        assert str(alexander_from_seifert(SeifertMatrix(()))) == "1"

    def test_trefoil_like_two_by_two(self):
        m = SeifertMatrix(((-1, 1), (0, -1)))
        assert str(alexander_from_seifert(m)) == "1 - t + t^2"

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
            results.add(alexander_from_seifert(assembled).poly)
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
                base = alexander_from_seifert(SeifertMatrix(genus_block)).poly
                whole = alexander_from_seifert(assembled).poly
            except ValueError:
                continue  # degenerate genus block with vanishing determinant
            product = base * det_P_minus_tQT(signs) * det_Q_minus_tPT(signs)
            assert equal_up_to_unit(whole, product)
            trials += 1
