import random
from fractions import Fraction

import pytest

from hypothesis import given, settings, strategies as st

from srknots.laurent import (
    LaurentPoly,
    NormalForm,
    PolyParseError,
    divide_exact,
    equal_up_to_unit,
    eval_int,
    normalize,
    parse,
    substitute_inverse,
)


def P(text):
    return parse(text)


# Coefficients well past 128-bit magnitude keep the exactness claim honest.
coeffs = st.integers(min_value=-(2**160), max_value=2**160)
exponents = st.integers(min_value=-8, max_value=8)
polys = st.dictionaries(exponents, coeffs, max_size=6).map(LaurentPoly)
nonzero_polys = polys.filter(lambda p: not p.is_zero)


class TestAdd:
    def test_cancellation(self):
        assert P("1 - t") + P("t") == P("1")

    def test_identity(self):
        p = P("3*t^2 - 7")
        assert LaurentPoly.zero() + p == p

    def test_disjoint_supports(self):
        assert P("t^-1") + P("t") == P("t^-1 + t")


class TestMul:
    def test_square(self):
        assert P("1 - t") * P("1 - t") == P("1 - 2*t + t^2")

    def test_triple_product_normalizes_to_table_row(self):
        prod = P("t - 2") * P("t^-1") * P("1 - 2*t")
        assert str(normalize(prod)) == "2 - 5*t + 2*t^2"

    def test_identity(self):
        p = P("t^-3 + 4 - t^2")
        assert p * LaurentPoly.one() == p

    def test_zero_annihilates(self):
        assert (P("1 + t") * LaurentPoly.zero()).is_zero

    @pytest.mark.parametrize("combined_span", [40, 4095, 4097, 20000])
    def test_matches_sympy_on_sparse_operands(self, combined_span):
        sympy = pytest.importorskip("sympy")
        t = sympy.Symbol("t")
        rng = random.Random(combined_span)

        def sparse(span, low):
            exps = {low, low + span} | {low + rng.randrange(span) for _ in range(12)}
            return LaurentPoly({e: rng.choice((-1, 1)) * rng.randrange(1, 2**70) for e in exps})

        def to_sympy(p):
            low = p.min_exp
            return sympy.Poly.from_dict({(e - low,): c for e, c in p.items()}, t), low

        for _ in range(5):
            left = rng.randrange(1, combined_span)
            a = sparse(left, rng.randrange(-50, 50))
            b = sparse(combined_span - left, rng.randrange(-50, 50))
            (pa, la), (pb, lb) = to_sympy(a), to_sympy(b)
            expected = LaurentPoly(
                {k + la + lb: int(c) for (k,), c in (pa * pb).as_dict().items()}
            )
            assert a * b == expected
            assert (a * b).span == combined_span


class TestSubstituteInverse:
    def test_negates_exponents(self):
        assert substitute_inverse(P("2 - 5*t + 2*t^2")) == P("2 - 5*t^-1 + 2*t^-2")

    def test_constant_fixed_point(self):
        assert substitute_inverse(P("17")) == P("17")

    def test_involution(self):
        p = P("t^-2 - 3 + 4*t^5")
        assert substitute_inverse(substitute_inverse(p)) == p


class TestNormalize:
    def test_shift_and_negate(self):
        assert str(normalize(P("t^2 - 2*t"))) == "2 - t"

    def test_sign_flip_on_quartic(self):
        got = normalize(P("-1 + 6*t - 11*t^2 + 6*t^3 - t^4"))
        assert got.poly == P("1 - 6*t + 11*t^2 - 6*t^3 + t^4")

    def test_constant(self):
        assert str(normalize(P("7"))) == "7"

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            normalize(LaurentPoly.zero())

    def test_normal_form_validates(self):
        with pytest.raises(ValueError):
            NormalForm(P("t + t^2"))
        with pytest.raises(ValueError):
            NormalForm(P("-1 + t"))


class TestEqualUpToUnit:
    def test_unit_minus_one(self):
        assert equal_up_to_unit(P("1 - t"), P("t - 1"))

    def test_different_spans(self):
        assert not equal_up_to_unit(P("t - 2"), P("2 - 5*t + 2*t^2"))

    def test_unit_t_shift(self):
        assert equal_up_to_unit(P("2 - 5*t + 2*t^2"), P("2*t^-1 - 5 + 2*t"))

    def test_both_zero(self):
        assert equal_up_to_unit(LaurentPoly.zero(), LaurentPoly.zero())
        assert not equal_up_to_unit(LaurentPoly.zero(), P("1"))


class TestEvalInt:
    def test_root_at_two(self):
        assert eval_int(P("2 - 5*t + 2*t^2"), 2) == 0

    def test_det_at_minus_one(self):
        assert eval_int(P("2 - 5*t + 2*t^2"), -1) == 9

    def test_constant(self):
        assert eval_int(P("1"), 17) == 1

    def test_negative_exponents_give_fractions(self):
        assert eval_int(P("t^-1 + t"), 2) == Fraction(5, 2)

    def test_zero_with_negative_exponents_rejected(self):
        with pytest.raises(ValueError):
            eval_int(P("t^-1 + t"), 0)

    def test_zero_point_without_negative_exponents(self):
        assert eval_int(P("3 + 4*t"), 0) == 3


class TestDivideExact:
    def test_quotient_multiplies_back(self):
        q = divide_exact(P("2 - 5*t + 2*t^2"), P("2 - t"))
        assert q == P("1 - 2*t")
        assert P("2 - t") * q == P("2 - 5*t + 2*t^2")

    def test_nonzero_remainder_is_none(self):
        assert divide_exact(P("1 - 2*t + t^2"), P("1 + t")) is None

    def test_unit_divisor(self):
        p = P("t^-2 - 3 + 4*t^5")
        assert divide_exact(p, P("1")) == p

    def test_shifted_divisor(self):
        q = divide_exact(P("2 - 5*t + 2*t^2"), P("2*t^-1 - 1"))
        assert q == P("t - 2*t^2")
        assert P("2*t^-1 - 1") * q == P("2 - 5*t + 2*t^2")

    def test_inexact_coefficient_is_none(self):
        assert divide_exact(P("1 + t"), P("2")) is None

    def test_monomial_divisor_on_wide_sparse_dividend(self):
        a = P("-6*t^-3 + 9*t^4000000")
        assert divide_exact(a, P("-3*t^2")) == P("2*t^-5 - 3*t^3999998")
        assert divide_exact(a, P("4*t")) is None

    def test_zero_dividend(self):
        assert divide_exact(LaurentPoly.zero(), P("1 + t")).is_zero

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_sympy_div(self, seed):
        """divide_exact against sympy's division in Z[t] after clearing negative exponents.

        b divides a in Z[t, 1/t] exactly when t^-min(b) * b divides
        t^-min(a) * a in Z[t], because both then have a nonzero constant term.
        """
        sympy = pytest.importorskip("sympy")
        t = sympy.Symbol("t")
        rng = random.Random(seed)

        def sparse(span, terms, low):
            exps = {low, low + span} | {low + rng.randrange(span) for _ in range(terms)}
            return LaurentPoly({e: rng.choice((-3, -2, -1, 1, 2, 5)) for e in exps})

        def oracle(a, b):
            pa = sympy.Poly.from_dict({(e - a.min_exp,): c for e, c in a.items()}, t, domain="ZZ")
            pb = sympy.Poly.from_dict({(e - b.min_exp,): c for e, c in b.items()}, t, domain="ZZ")
            q, r = sympy.div(pa, pb, auto=False)  # stay in Z[t]
            if not r.is_zero:
                return None
            shift = a.min_exp - b.min_exp
            return LaurentPoly({k + shift: int(c) for (k,), c in q.as_dict().items()})

        cases = []
        for _ in range(6):
            a = sparse(rng.randrange(1, 12), 5, rng.randrange(-20, 20))
            b = sparse(rng.randrange(1, 8), 4, rng.randrange(-20, 20))
            ab = a * b
            cases += [(ab, b), (ab + P(f"t^{rng.randrange(-25, 45)}"), b), (ab, a), (a, b)]
            cases.append((ab, b * 2))  # a quotient over Q that is integral only if a is even
            # A perturbed leading coefficient: a near miss, or a quotient over Q only.
            cases.append((ab, b + LaurentPoly.monomial(rng.choice((1, 2)), b.max_exp)))
        wide = 10**5
        a = sparse(wide // 2, 3, -rng.randrange(wide))
        b = sparse(wide // 2, 3, rng.randrange(wide))
        ab = a * b
        cases += [(ab, b), (ab, a)]
        cases.append((ab + LaurentPoly.monomial(1, ab.max_exp - 1), b * 3))
        outcomes = []
        for dividend, divisor in cases:
            expected = oracle(dividend, divisor)
            assert divide_exact(dividend, divisor) == expected, (dividend, divisor)
            outcomes.append(expected is None)
        assert True in outcomes and False in outcomes

    def test_zero_divisor_rejected(self):
        with pytest.raises(ZeroDivisionError):
            divide_exact(P("1"), LaurentPoly.zero())


class TestParse:
    def test_plain_reading(self):
        assert parse("2 - 5*t + 2*t^2").terms == {0: 2, 1: -5, 2: 2}

    def test_negative_exponent(self):
        assert parse("t^-1 + t").terms == {-1: 1, 1: 1}

    def test_cancellation_during_accumulation(self):
        assert parse("3*t^2 - 3*t^2").is_zero

    def test_leading_minus(self):
        assert parse("-2*t + t^2").terms == {1: -2, 2: 1}

    MALFORMED = [
        ("", "empty polynomial text", 0),
        ("t^", "expected an exponent after '^'", 2),
        ("2 *", "expected 't' after '*'", 3),
        ("1 + + 2", "expected a term", 4),
        ("x", "unexpected character 'x'", 0),
        ("2**t", "expected 't' after '*'", 2),
        ("F(1,2)", "unexpected character 'F'", 0),
        ("1 +", "expected a term", 3),
        ("2*x", "unexpected character 'x'", 2),
        ("3*", "expected 't' after '*'", 2),
        ("1 2", "expected '+' or '-' between terms", 2),
        ("--t", "expected a term", 1),
        ("t^-", "expected an exponent after '^'", 3),
        ("3*t^2 t", "expected '+' or '-' between terms", 6),
    ]

    @pytest.mark.parametrize(
        "bad, message, position", MALFORMED, ids=[row[0] for row in MALFORMED]
    )
    def test_malformed_input_reports_position(self, bad, message, position):
        with pytest.raises(PolyParseError) as err:
            parse(bad)
        assert str(err.value) == f"{message} (at position {position})"
        assert err.value.position == position

    @given(polys)
    @settings(deadline=None)
    def test_round_trip_through_printer(self, p):
        assert parse(str(p)) == p


class TestRingAxioms:
    @given(polys, polys, polys)
    @settings(deadline=None)
    def test_associativity_and_commutativity(self, a, b, c):
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a

    @given(polys, polys, polys)
    @settings(deadline=None)
    def test_distributivity(self, a, b, c):
        assert a * (b + c) == a * b + a * c

    @given(polys, polys)
    @settings(deadline=None)
    def test_substitute_inverse_is_multiplicative(self, a, b):
        assert substitute_inverse(a * b) == substitute_inverse(a) * substitute_inverse(b)


class TestUnitEquivalenceProperties:
    @given(nonzero_polys, st.integers(min_value=-5, max_value=5), st.booleans())
    @settings(deadline=None)
    def test_units_are_absorbed(self, p, k, flip):
        q = p.shift(k)
        if flip:
            q = -q
        assert equal_up_to_unit(p, q)
        assert normalize(p).poly == normalize(q).poly

    @given(nonzero_polys, nonzero_polys, nonzero_polys)
    @settings(deadline=None)
    def test_equivalence_relation(self, a, b, c):
        assert equal_up_to_unit(a, a)
        assert equal_up_to_unit(a, b) == equal_up_to_unit(b, a)
        if equal_up_to_unit(a, b) and equal_up_to_unit(b, c):
            assert equal_up_to_unit(a, c)

    @given(nonzero_polys, nonzero_polys, nonzero_polys)
    @settings(deadline=None)
    def test_preserved_by_fixed_multiplier(self, a, b, c):
        if equal_up_to_unit(a, b):
            assert equal_up_to_unit(a * c, b * c)

    @given(nonzero_polys)
    @settings(deadline=None)
    def test_normalize_is_idempotent_and_equivalent(self, p):
        nf = normalize(p)
        assert equal_up_to_unit(nf.poly, p)
        assert normalize(nf.poly).poly == nf.poly


class TestExactDivisionProperties:
    @given(nonzero_polys, nonzero_polys)
    @settings(deadline=None)
    def test_divide_recovers_factor_exactly(self, a, b):
        assert divide_exact(a * b, b) == a
