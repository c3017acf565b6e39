import pytest

from srknots.laurent import (
    LaurentPoly,
    eval_int,
    equal_up_to_unit,
    normalize,
    parse,
    substitute_inverse,
)
from srknots.srpoly import (
    SRDecomposition,
    SRParams,
    F_factor,
    f_factor,
    factor_span,
    gh_factors,
    mirror,
    mirror_identity_check,
    parse_decomposition,
    product_formula,
)


def grid(max_m, max_abs_l):
    for m in range(1, max_m + 1):
        for l in range(-max_abs_l, max_abs_l + 1):
            for p in range(m + 1):
                yield SRParams(m, l, p)


class TestSRParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            SRParams(0, 0, 0)
        with pytest.raises(ValueError):
            SRParams(2, 0, 3)
        with pytest.raises(ValueError):
            SRParams(2, 0, -1)

    def test_canonical_ordering_in_decompositions(self):
        d = SRDecomposition((SRParams(2, 0, 2), SRParams(1, 1, 1)))
        assert d.factors == (SRParams(1, 1, 1), SRParams(2, 0, 2))
        assert str(d) == "F(1,1,1)*F(2,0,2)"
        assert str(SRDecomposition()) == "1"

    def test_decomposition_format_round_trip(self):
        text = "F(1,1,1)*F(2,0,2)"
        assert str(parse_decomposition(text)) == text
        assert parse_decomposition("1") == SRDecomposition()
        assert parse_decomposition("F(2,-1,1)").factors == (SRParams(2, -1, 1),)


class TestFFactor:
    def test_hand_expansions(self):
        assert f_factor(SRParams(2, 0, 0)) == parse("-2*t + t^2")
        assert f_factor(SRParams(1, 1, 1)) == parse("1 - t + t^2")
        assert f_factor(SRParams(2, 1, 2)) == parse("1 - 2*t + t^2 - t^3")

    def test_negative_linking_gives_negative_exponents(self):
        assert f_factor(SRParams(1, -2, 0)) == parse("1 - t - t^-2")


class TestSymmetricFactor:
    @pytest.mark.parametrize(
        "params,expected",
        [
            ((2, 0, 0), "2 - 5*t + 2*t^2"),
            ((2, 1, 2), "1 - 3*t + 5*t^2 - 7*t^3 + 5*t^4 - 3*t^5 + t^6"),
            ((1, 2, 1), "1 - t - t^2 + 3*t^3 - t^4 - t^5 + t^6"),
        ],
    )
    def test_table_rows(self, params, expected):
        assert str(F_factor(SRParams(*params))) == expected

    def test_raw_product_evaluates_to_one_at_one(self):
        for prm in grid(6, 6):
            f = f_factor(prm)
            raw = f * substitute_inverse(f)
            assert eval_int(raw, 1) == 1, prm

    def test_reciprocal_symmetry(self):
        for prm in grid(6, 6):
            F = F_factor(prm).poly
            assert equal_up_to_unit(F, substitute_inverse(F)), prm

    def test_determinant_closed_form(self):
        for prm in grid(6, 6):
            F = F_factor(prm)
            expected = (2**prm.m - (-1) ** prm.l) ** 2
            assert abs(eval_int(F.poly, -1)) == expected, prm


class TestProductFormula:
    def test_two_factor_table_row(self):
        dec = SRDecomposition((SRParams(1, 1, 1), SRParams(2, 0, 1)))
        got = product_formula(LaurentPoly.one(), dec)
        assert str(got) == (
            "1 - 4*t + 10*t^2 - 16*t^3 + 19*t^4 - 16*t^5 + 10*t^6 - 4*t^7 + t^8"
        )

    def test_empty_product(self):
        assert str(product_formula(LaurentPoly.one(), SRDecomposition())) == "1"

    def test_nontrivial_base_squares(self):
        base = parse("2 - 5*t + 2*t^2")
        got = product_formula(base, SRDecomposition((SRParams(2, 0, 0),)))
        assert got.poly == normalize(base * base).poly

    def test_zero_base_rejected(self):
        with pytest.raises(ValueError):
            product_formula(LaurentPoly.zero(), SRDecomposition())


class TestMirrorIdentity:
    @pytest.mark.parametrize("params", [(2, 1, 2), (1, 0, 0), (3, -2, 1)])
    def test_examples(self, params):
        assert mirror_identity_check(SRParams(*params))

    def test_full_grid(self):
        assert all(mirror_identity_check(prm) for prm in grid(6, 6))

    def test_mirror_is_alias(self):
        for prm in grid(4, 4):
            assert equal_up_to_unit(
                F_factor(prm).poly, F_factor(mirror(prm)).poly
            ), prm


class TestGHFactors:
    def test_unit_case(self):
        g, h = gh_factors(SRParams(1, 0, 0))
        assert g == parse("t")
        assert h == parse("1")
        assert g * h == parse("t")

    def test_quartic_case(self):
        # Both halves equal t - (t-1)^2 exactly when p + l = 1 with p even.
        g, h = gh_factors(SRParams(2, 1, 0))
        assert g == h == parse("-1 + 3*t - t^2")
        assert g * h == parse("1 - 6*t + 11*t^2 - 6*t^3 + t^4")

    def test_product_matches_symmetric_factor_on_grid(self):
        for prm in grid(6, 6):
            g, h = gh_factors(prm)
            assert equal_up_to_unit(g * h, F_factor(prm).poly), prm

    def test_values_at_two_split_the_factor(self):
        for prm in grid(4, 4):
            g, h = gh_factors(prm)
            raw = g * h
            assert eval_int(g, 2) * eval_int(h, 2) == eval_int(raw, 2), prm


class TestFactorSpan:
    @pytest.mark.parametrize(
        "params,expected",
        [
            ((2, 0, 0), 2),  # end-term cancellation drops the span
            ((1, 1, 1), 4),
            ((1, 2, 1), 6),
        ],
    )
    def test_examples(self, params, expected):
        assert factor_span(SRParams(*params)) == expected

    def test_against_computed_span_oracle(self):
        for prm in grid(6, 6):
            assert factor_span(prm) == F_factor(prm).poly.span, prm

    def test_even_and_nonnegative(self):
        for prm in grid(5, 5):
            span = factor_span(prm)
            assert span >= 0 and span % 2 == 0
