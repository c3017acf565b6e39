import math
import random

import pytest

from srknots.laurent import (
    LaurentPoly,
    eval_int,
    equal_up_to_unit,
    normalize,
    parse,
)
from srknots import srpoly
from srknots.srpoly import (
    MAX_BANDS,
    MAX_PRODUCT_TERMS,
    SRDecomposition,
    SRParams,
    F_factor,
    _one_minus_t_power,
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
        with pytest.raises(ValueError, match=r"^band count must be >= 1, got 0$"):
            SRParams(0, 0, 0)
        with pytest.raises(ValueError, match=r"^positive-band count must satisfy 0 <= p <= m, got 3$"):
            SRParams(2, 0, 3)
        with pytest.raises(ValueError):
            SRParams(2, 0, -1)

    def test_equal_and_hash_as_the_plain_tuple(self):
        prm = SRParams(1, 0, 0)
        assert prm == (1, 0, 0)
        assert hash(prm) == hash((1, 0, 0))
        dec = SRDecomposition((SRParams(2, 0, 2), prm))
        assert dec == ((1, 0, 0), (2, 0, 2))
        assert hash(dec) == hash(((1, 0, 0), (2, 0, 2)))
        assert SRDecomposition() == ()
        assert hash(SRDecomposition()) == hash(())
        assert not hasattr(dec, "factors")

    def test_fields_are_read_only(self):
        prm = SRParams(1, 0, 0)
        with pytest.raises(AttributeError):
            prm.m = 2
        assert prm.m == 1

    def test_order_and_text_match_sorted_field_tuples(self):
        # The oracle sorts and formats plain int triples, not the class.
        rng = random.Random(27)
        for _ in range(200):
            triples = []
            for _ in range(rng.randint(0, 6)):
                m = rng.randint(1, 4)
                triples.append((m, rng.randint(-5, 5), rng.randint(0, m)))
            expected = "*".join(
                f"F({m},{l},{p})" for m, l, p in sorted(triples, key=lambda q: (q[0], q[1], q[2]))
            )
            assert str(SRDecomposition([SRParams(*q) for q in triples])) == (expected or "1")
        assert str(SRDecomposition([])) == "1"

    def test_canonical_ordering_in_decompositions(self):
        d = SRDecomposition((SRParams(2, 0, 2), SRParams(1, 1, 1)))
        assert d == (SRParams(1, 1, 1), SRParams(2, 0, 2))
        assert str(d) == "F(1,1,1)*F(2,0,2)"
        assert str(SRDecomposition()) == "1"

    def test_decomposition_format_round_trip(self):
        text = "F(1,1,1)*F(2,0,2)"
        assert str(parse_decomposition(text)) == text
        assert parse_decomposition("1") == SRDecomposition()
        assert parse_decomposition("F(2,-1,1)") == (SRParams(2, -1, 1),)


class TestFFactor:
    def test_hand_expansions(self):
        assert f_factor(SRParams(2, 0, 0)) == parse("-2*t + t^2")
        assert f_factor(SRParams(1, 1, 1)) == parse("1 - t + t^2")
        assert f_factor(SRParams(2, 1, 2)) == parse("1 - 2*t + t^2 - t^3")

    def test_negative_linking_gives_negative_exponents(self):
        assert f_factor(SRParams(1, -2, 0)) == parse("1 - t - t^-2")

    def test_matches_sympy_expand(self):
        sympy = pytest.importorskip("sympy")
        t = sympy.Symbol("t")
        rng = random.Random(28)
        triples = []
        for _ in range(60):
            m = rng.randint(1, 12)
            triples.append(SRParams(m, rng.randint(-15, 15), rng.randint(0, m)))
        # Negative exponents, then the cancellation cases: s = p + l = 0 with
        # p even, and s = m with m - p even, where the monomial kills an end term.
        triples += [SRParams(3, -9, 1), SRParams(12, -15, 0)]
        triples += [SRParams(1, 0, 0), SRParams(4, -2, 2), SRParams(12, -12, 12)]
        triples += [SRParams(2, 0, 2), SRParams(5, 4, 1), SRParams(12, 12, 0)]
        for prm in triples:
            shift = max(0, -(prm.p + prm.l))  # t^shift clears every negative exponent
            f = (1 - t) ** prm.m - t**prm.l * (-t) ** prm.p
            raw = sympy.Poly(sympy.expand(f * t**shift), t).as_dict()
            expected = LaurentPoly({k - shift: int(c) for (k,), c in raw.items()})
            assert f_factor(prm) == expected, prm


class TestOneMinusTPower:
    def test_matches_repeated_multiplication(self):
        one_minus_t = LaurentPoly({0: 1, 1: -1})
        for m in range(81):
            assert _one_minus_t_power(m) == one_minus_t**m, m

    def test_matches_sympy_expand(self):
        sympy = pytest.importorskip("sympy")
        t = sympy.Symbol("t")
        for m in range(81):
            expected = sympy.Poly(sympy.expand((1 - t) ** m), t).as_dict()
            assert _one_minus_t_power(m) == LaurentPoly(
                {k: int(c) for (k,), c in expected.items()}
            ), m


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
            raw = f * f.substitute_inverse()
            assert eval_int(raw, 1) == 1, prm

    def test_reciprocal_symmetry(self):
        for prm in grid(6, 6):
            F = F_factor(prm)
            assert equal_up_to_unit(F, F.substitute_inverse()), prm

    def test_determinant_closed_form(self):
        for prm in grid(6, 6):
            F = F_factor(prm)
            expected = (2**prm.m - (-1) ** prm.l) ** 2
            assert abs(eval_int(F, -1)) == expected, prm


class TestClosedFormFactor:
    def test_matches_term_pair_product(self):
        # Every m <= 40, |l| <= m + 3 or |l| = 10^9, 0 <= p <= m.  F's cost
        # must follow m, not |l|.  The product depends only on f, so it is
        # formed once per distinct f.
        products = {}
        for m in range(1, 41):
            for l in (*range(-m - 3, m + 4), -10**9, 10**9):
                for p in range(m + 1):
                    prm = SRParams(m, l, p)
                    f = f_factor(prm)
                    if f not in products:
                        products[f] = normalize(f * f.substitute_inverse())
                    assert F_factor(prm) == products[f], prm

    def test_matches_sympy_expand(self):
        sympy = pytest.importorskip("sympy")
        t = sympy.Symbol("t")
        rng = random.Random(10)
        for _ in range(40):
            m = rng.randint(1, 30)
            prm = SRParams(m, rng.randint(-m - 5, m + 5), rng.randint(0, m))
            f = (1 - t) ** prm.m - t**prm.l * (-t) ** prm.p
            # t^shift clears every negative exponent of f(t) f(1/t).
            shift = prm.m + abs(prm.p + prm.l)
            raw = sympy.Poly(sympy.expand(f * f.subs(t, 1 / t) * t**shift), t).as_dict()
            expected = normalize(LaurentPoly({k: int(c) for (k,), c in raw.items()}))
            assert F_factor(prm) == expected, prm


class TestProductFormula:
    def test_two_factor_table_row(self):
        dec = SRDecomposition((SRParams(1, 1, 1), SRParams(2, 0, 1)))
        got = product_formula(dec)
        assert str(got) == (
            "1 - 4*t + 10*t^2 - 16*t^3 + 19*t^4 - 16*t^5 + 10*t^6 - 4*t^7 + t^8"
        )

    def test_empty_product(self):
        assert str(product_formula(SRDecomposition())) == "1"


class TestBandBudget:
    def test_factors_at_the_budget_and_one_above(self):
        at = SRParams(MAX_BANDS, 3, 1)
        # f(1) = -(-1)^p and F(1) = f(1)^2, whatever m is.
        assert eval_int(f_factor(at), 1) == 1
        assert eval_int(F_factor(at), 1) == 1
        above = SRParams(MAX_BANDS + 1, 3, 1)
        message = f"{MAX_BANDS + 1:,} bands are above the budget of {MAX_BANDS}"
        for func in (f_factor, F_factor):
            with pytest.raises(ValueError, match=message):
                func(above)

    def test_product_counts_every_factor(self):
        # The budget is on the sum of m, checked before any factor is formed.
        halves = SRDecomposition((SRParams(MAX_BANDS // 2, 0, 0), SRParams(MAX_BANDS // 2 + 1, 1, 0)))
        with pytest.raises(ValueError, match=f"{MAX_BANDS + 1:,} bands are above the budget"):
            product_formula(halves)

    def test_product_at_a_lowered_budget(self, monkeypatch):
        # A product with m summing to the real budget takes about a second,
        # so the edge is shown at a budget of 6.
        monkeypatch.setattr(srpoly, "MAX_BANDS", 6)
        at = SRDecomposition((SRParams(2, 1, 1), SRParams(4, -3, 2)))
        expected = F_factor(SRParams(2, 1, 1)) * F_factor(SRParams(4, -3, 2))
        assert equal_up_to_unit(product_formula(at), expected)
        with pytest.raises(ValueError, match="7 bands are above the budget of 6"):
            product_formula(SRDecomposition(at + (SRParams(1, 0, 0),)))


def term_bound(dec):
    """min(prod (4 m_i + 3), sum span(F_i) + 1), from the parameters alone."""
    return min(math.prod(4 * prm.m + 3 for prm in dec),
               sum(factor_span(prm) for prm in dec) + 1)


class TestProductTermBudget:
    def test_bound_holds_on_seeded_products(self):
        rng = random.Random(37)
        tight = 0
        for _ in range(200):
            dec = SRDecomposition(tuple(
                SRParams(m, rng.choice((rng.randint(-6, 6), rng.randint(-60, 60))),
                         rng.randint(0, m))
                for m in (rng.randint(1, 4) for _ in range(rng.randint(1, 4)))
            ))
            for prm in dec:
                assert len(F_factor(prm).terms) <= 4 * prm.m + 3, prm
            terms = len(product_formula(dec).terms)
            assert terms <= term_bound(dec), dec
            tight += terms == term_bound(dec)
        assert tight > 0

    def test_product_at_a_lowered_budget(self, monkeypatch):
        monkeypatch.setattr(srpoly, "MAX_PRODUCT_TERMS", 49)
        at = SRDecomposition((SRParams(1, 100, 0), SRParams(1, 1000, 0)))
        assert term_bound(at) == 49
        assert len(product_formula(at).terms) == 33
        above = SRDecomposition(at + (SRParams(1, 10, 0),))
        with pytest.raises(ValueError, match="343 terms, above the budget of 49 terms"):
            product_formula(above)
        # 7^3 = 343 by the term counts, but the spans 2 + 4 + 6 allow only 13.
        narrow = SRDecomposition(tuple(SRParams(1, l, 0) for l in (1, 2, 3)))
        assert term_bound(narrow) == 13
        assert len(product_formula(narrow).terms) == 13

    def test_refused_before_any_factor_is_formed(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("a factor was formed")

        monkeypatch.setattr(srpoly, "f_factor", forbidden)
        spread = SRDecomposition(tuple(SRParams(1, 10 ** (i + 2), 0) for i in range(12)))
        assert term_bound(spread) == 7**12 > MAX_PRODUCT_TERMS
        with pytest.raises(ValueError, match=f"{7**12:,} terms, above the budget"):
            product_formula(spread)


class TestMirrorIdentity:
    @pytest.mark.parametrize("params", [(2, 1, 2), (1, 0, 0), (3, -2, 1)])
    def test_examples(self, params):
        assert mirror_identity_check(SRParams(*params))

    def test_full_grid(self):
        assert all(mirror_identity_check(prm) for prm in grid(6, 6))

    def test_mirror_is_alias(self):
        for prm in grid(4, 4):
            assert equal_up_to_unit(
                F_factor(prm), F_factor(mirror(prm))
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
            assert equal_up_to_unit(g * h, F_factor(prm)), prm

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
            assert factor_span(prm) == F_factor(prm).span, prm

    def test_even_and_nonnegative(self):
        for prm in grid(5, 5):
            span = factor_span(prm)
            assert span >= 0 and span % 2 == 0
