import functools
import gc
import itertools
import random
import time
import tracemalloc
from collections import Counter
from math import comb

import pytest

from srknots import srsearch
from srknots.corpus import load_corpus
from srknots.laurent import LaurentPoly, divide_exact, eval_int, normalize, parse
from srknots.srpoly import (
    SRDecomposition,
    SRParams,
    F_factor,
    f_factor,
    factor_span,
    parse_decomposition,
    product_formula,
)
from srknots.srsearch import (
    DELTA2_ONE_QUARTIC,
    Obstruction,
    certificates,
    classify,
    decompose,
    delta2_one_factors,
)


def NF(text):
    return normalize(parse(text))


class TestDecompose:
    def test_single_factor_with_aliases(self):
        results = list(certificates(decompose(NF("2 - 5*t + 2*t^2"))))
        assert SRDecomposition((SRParams(2, 0, 0),)) in results
        assert all(len(d) == 1 for d in results)
        for d in results:
            regen = product_formula(d)
            assert regen == parse("2 - 5*t + 2*t^2")

    def test_trivial_polynomial(self):
        assert list(certificates(decompose(NF("1")))) == [SRDecomposition()]

    def test_no_decomposition(self):
        assert decompose(NF("6 - 13*t + 6*t^2")) == []

    def test_constant_above_one_has_none(self):
        assert decompose(NF("2")) == []

    def test_results_are_sorted_and_unique(self):
        results = list(certificates(decompose(NF("1 - 4*t + 10*t^2 - 16*t^3 + 19*t^4 - 16*t^5 + 10*t^6 - 4*t^7 + t^8"))))
        assert results == sorted(results)
        assert len(results) == len(set(results))
        assert SRDecomposition((SRParams(1, 1, 1), SRParams(2, 0, 1))) in results

    def test_completeness_over_polynomial_pairs(self):
        # Every product of two non-unit factors from the small grid is
        # recovered at the polynomial level.
        factors = {}
        for m in range(1, 4):
            for l in range(-3, 4):
                for p in range(m + 1):
                    prm = SRParams(m, l, p)
                    if factor_span(prm) >= 2:
                        factors.setdefault(F_factor(prm), prm)
        polys = sorted(factors, key=lambda f: (f.span, str(f)))
        pairs = list(itertools.combinations_with_replacement(polys, 2))
        for fa, fb in pairs:
            target = normalize(fa * fb)
            results = list(certificates(decompose(target)))
            wanted = sorted([fa, fb], key=hash)
            recovered = [
                sorted((F_factor(x) for x in d), key=hash)
                for d in results
                if len(d) == 2
            ]
            assert wanted in recovered, (str(fa), str(fb))


class TestClassify:
    def test_delta2_factor_obstruction(self):
        outcome = classify(NF("2 - 6*t + 10*t^2 - 13*t^3 + 10*t^4 - 6*t^5 + 2*t^6"))
        assert isinstance(outcome, Obstruction)
        assert outcome is Obstruction.DELTA2_FACTOR

    def test_delta2_one_form_obstruction(self):
        outcome = classify(
            NF("1 - 6*t + 15*t^2 - 24*t^3 + 29*t^4 - 24*t^5 + 15*t^6 - 6*t^7 + t^8")
        )
        assert isinstance(outcome, Obstruction)
        assert outcome is Obstruction.DELTA2_ONE_FORM

    def test_asymmetric_obstruction(self):
        outcome = classify(NF("1 + 2*t"))
        assert outcome is Obstruction.ASYMMETRIC

    def test_no_decomposition_obstruction(self):
        # Symmetric, delta2 = 3 is a 2^s-1 value, but the only span-2 factor
        # polynomial fails to divide.
        outcome = classify(NF("5 - 11*t + 5*t^2"))
        assert isinstance(outcome, Obstruction)
        assert outcome is Obstruction.NO_DECOMPOSITION

    def test_poly_compatible_with_certificates(self):
        outcome = classify(NF("1 - 3*t + 5*t^2 - 7*t^3 + 5*t^4 - 3*t^5 + t^6"))
        assert not isinstance(outcome, Obstruction)
        assert SRDecomposition((SRParams(2, 1, 2),)) in certificates(outcome)

    def test_wide_delta2_one_form_is_screened_promptly(self):
        # Symmetric, with value 2^(3n+1) at t = 2, so delta2 = 1, and a bit
        # bound of 240,003 under DELTA2_BITS: the division chain by the
        # quartic alone took 23.5 s on it.
        n = 80_000
        dp = normalize(LaurentPoly({0: 2**n, n: 2 ** (2 * n) - 1, 2 * n: 2**n}))
        start = time.perf_counter()
        outcome = classify(dp)
        elapsed = time.perf_counter() - start
        assert outcome is Obstruction.DELTA2_ONE_FORM
        assert elapsed < 2, elapsed

    def test_quartic_screens_leave_the_exact_test_to_division(self):
        quartic_root = parse("1 - 3*t + t^2")
        for k in range(6):
            assert srsearch._is_quartic_power(DELTA2_ONE_QUARTIC**k)
        # Vanishes at t = -1 and t = 3 without changing the span, so it passes
        # every screen, and only the division chain turns it away.
        twin = DELTA2_ONE_QUARTIC**2 + parse("t^2") * (1 + parse("t")) * (parse("t") - 3)
        assert twin.span == 8 and eval_int(twin, 3) == 1 and eval_int(twin, -1) == 625
        assert not srsearch._is_quartic_power(twin)
        assert not srsearch._is_quartic_power(quartic_root**3)
        assert not srsearch._is_quartic_power(DELTA2_ONE_QUARTIC.shift(1))

    def test_quartic_power_passes_the_rigidity_gate(self):
        quartic = parse("1 - 6*t + 11*t^2 - 6*t^3 + t^4")
        squared = classify(normalize(quartic * quartic))
        assert not isinstance(squared, Obstruction)

    def test_trivial_polynomial_is_compatible(self):
        outcome = classify(NF("1"))
        assert not isinstance(outcome, Obstruction)
        assert list(certificates(outcome)) == [SRDecomposition()]


class TestDelta2OneFactors:
    def test_bounds_validation(self):
        with pytest.raises(ValueError):
            delta2_one_factors(0, 3)

    def test_minimal_box_contains_unit_factor(self):
        hits = delta2_one_factors(1, 0)
        assert SRParams(1, 0, 0) in [prm for prm, _ in hits]

    def test_unit_case_product_is_t(self):
        hits = dict(delta2_one_factors(1, 0))
        assert hits[SRParams(1, 0, 0)] == parse("t")

    def test_only_two_shapes_in_large_box(self):
        hits = delta2_one_factors(6, 6)
        shapes = {normalize(gh) for _, gh in hits}
        assert shapes == {LaurentPoly.one(), DELTA2_ONE_QUARTIC}

    def test_expected_parameter_set(self):
        hits = {prm for prm, _ in delta2_one_factors(6, 6)}
        assert hits == {
            SRParams(1, 0, 0),
            SRParams(1, 0, 1),
            SRParams(2, 1, 0),
            SRParams(2, -1, 2),
        }


def _small_pool():
    return [SRParams(m, l, p) for m in range(1, 4) for l in range(-3, 4) for p in range(m + 1)]


class TestRoundTripProperty:
    def test_random_multisets_recovered(self):
        rng = random.Random(99)
        pool = [prm for prm in _small_pool() if factor_span(prm) >= 2]
        for _ in range(40):
            count = rng.randint(1, 2)
            chosen = [rng.choice(pool) for _ in range(count)]
            target = product_formula(SRDecomposition(tuple(chosen)))
            results = list(certificates(decompose(target)))
            wanted = sorted((F_factor(prm) for prm in chosen), key=hash)
            recovered = [
                sorted((F_factor(prm) for prm in d), key=hash)
                for d in results
                if len(d) == count
            ]
            assert wanted in recovered, [str(c) for c in chosen]


def _triple_by_triple_decompose(target):
    """Reference peel over single parameter triples, with no polynomial grouping."""
    poly = target
    budget = poly.span // 2
    table = sorted(
        (factor_span(prm), prm, F_factor(prm))
        for m in range(1, budget + 2)
        for p in range(m + 1)
        for s in range(min(m - budget, 0), max(budget, m) + 1)
        for prm in [SRParams(m, s - p, p)]
        if 2 <= factor_span(prm) <= poly.span
    )
    results = []

    def peel(cur, start, acc):
        if cur == 1:
            results.append(SRDecomposition(tuple(acc)))
            return
        for idx in range(start, len(table)):
            span, prm, factor = table[idx]
            if span > cur.span:
                break
            # Necessary conditions at t = -1 and t = 2; a factor vanishing at 2
            # is left to the division.
            if eval_int(cur, -1) % eval_int(factor, -1):
                continue
            if eval_int(cur, 2) % (eval_int(factor, 2) or 1):
                continue
            quotient = divide_exact(cur, factor)
            if quotient is not None:
                peel(quotient, idx, acc + [prm])

    peel(poly, 0, [])
    return sorted(results)


def product_factor(prm):
    """F(t; m, l, p) as the normalized term-pair product f(t) * f(1/t)."""
    f = f_factor(prm)
    return normalize(f * f.substitute_inverse())


@functools.lru_cache(maxsize=None)
def reference_keys(max_span):
    """(factor polynomial, sorted aliases) for 2 <= span <= max_span, sorted by (span, aliases).

    From the cubic loop over triples, one term-pair product per triple.
    """
    budget = max_span // 2
    groups = {}
    for m in range(1, budget + 2):
        for p in range(m + 1):
            for s in range(min(m - budget, 0), max(budget, m) + 1):
                prm = SRParams(m, s - p, p)
                if 2 <= factor_span(prm) <= max_span:
                    groups.setdefault(product_factor(prm), []).append(prm)
    found = [(f, tuple(sorted(prms))) for f, prms in groups.items()]
    found.sort(key=lambda c: (c[0].span, c[1]))
    return tuple(found)


def _seeded_products(seed, spans, pool, sizes):
    """Per span in spans, one seeded product of a size in sizes from the non-unit triples of pool."""
    rng = random.Random(seed)
    pool = [prm for prm in pool if factor_span(prm) >= 2]
    out = []
    for span in spans:
        while True:
            dec = SRDecomposition(tuple(rng.choice(pool) for _ in range(rng.choice(sizes))))
            if sum(map(factor_span, dec)) == span:
                out.append(dec)
                break
    return out


@functools.lru_cache(maxsize=None)
def screen_targets():
    """The 25 table rows, a seeded product at each even span 2..64, and 6 with a repeated factor.

    The products at each span take m <= 4 and |l| <= 24, so that wide factors
    come with few aliases and `decompose` stays fast; the repeated-factor
    products take m <= 3 and |l| <= 3.
    """
    wide = [SRParams(m, l, p) for m in range(1, 5) for l in range(-24, 25) for p in range(m + 1)]
    products = _seeded_products(21, range(2, 65, 2), wide, (1, 2, 3))
    products += [
        SRDecomposition(dec + dec[:1])
        for dec in _seeded_products(22, (12, 16, 20, 24, 28, 32), _small_pool(), (2, 3))
    ]
    rows = [record.delta_prime for record in load_corpus()]
    return tuple(rows + [product_formula(dec) for dec in products])


class TestKeyWalk:
    """The key screen of `srsearch._divisors` against the triple-loop reference table."""

    def test_matches_the_triple_loop_at_every_span(self):
        reference = reference_keys(srsearch.MAX_SEARCH_SPAN)
        spans = set()
        for dp in screen_targets():
            target = dp
            spans.add(target.span)
            expected = [
                (f, aliases)
                for f, aliases in reference
                if f.span <= target.span and divide_exact(target, f) is not None
            ]
            found = [(f, aliases) for f, aliases, _ in srsearch._divisors(target)]
            assert found == expected, str(target)
        assert set(range(2, srsearch.MAX_SEARCH_SPAN + 1, 2)) <= spans

    @pytest.mark.parametrize("span", [2, 10, 32, 64])
    def test_walk_lists_every_key_of_the_triple_loop(self, monkeypatch, span):
        # With every value test and division passing, the walk must list the
        # whole reference table up to the target's span, aliases included.
        monkeypatch.setattr(srsearch, "_det_value", lambda *key: 1)
        monkeypatch.setattr(srsearch, "_factor_value", lambda *key: 1)
        monkeypatch.setattr(srsearch, "divide_exact", lambda a, b: LaurentPoly.one())
        found = [(f, aliases) for f, aliases, _ in srsearch._divisors(parse(f"1 + t^{span}"))]
        assert found == list(reference_keys(span))

    def test_span_64_counts(self):
        table = reference_keys(64)
        assert len(table) == 1566
        assert sum(len(aliases) for _, aliases in table) == 24464

    def test_closed_form_values(self):
        for f, aliases in reference_keys(srsearch.MAX_SEARCH_SPAN):
            values = {x: abs(eval_int(f, x)) for x in (-1, 2, 3)}
            for prm in aliases:
                key = (prm.m, prm.p + prm.l, prm.p % 2)
                assert srsearch._det_value(prm.m, prm.l % 2) == values[-1], key
                for x in (2, 3):
                    assert srsearch._factor_value(*key, f.span // 2, x) == values[x], (key, x)

    def test_inexact_value_raises(self):
        # With h one short, (1 - 2x)(x - 2) must be divisible by x; at x = 3 it is -5.
        with pytest.raises(ArithmeticError):
            srsearch._factor_value(1, 1, 0, 0, 3)


def oracle_certificate_count(target):
    """How many certificates `decompose` should find for target, from sympy alone.

    The divisors are the reference-table polynomials that sympy's `rem`
    divides into target (after a test of the values at t = -1, 2 and 3, a
    necessary condition that saves most of the divisions).  Factoring target
    and each divisor over Z gives multisets of irreducible factors (integer
    primes of the content included); a solution is a multiset of divisors
    whose factors add up to target's, and a divisor with a aliases used k
    times gives C(a + k - 1, k) alias choices.  Shares no code with the peel.
    """
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")

    def to_sympy(poly):
        return sympy.Poly.from_dict({(e,): c for e, c in poly.items()}, t, domain="ZZ")

    def factors(p):
        content, irreducible = p.factor_list()
        out = Counter(sympy.factorint(abs(int(content))))
        for q, k in irreducible:
            out[(q if q.LC() > 0 else -q).as_expr()] += k
        return out

    values = [eval_int(target, x) for x in (-1, 2, 3)]
    whole = to_sympy(target)
    parts = []
    for f, aliases in reference_keys(srsearch.MAX_SEARCH_SPAN):
        if f.span > target.span:
            break
        if any(v % fv if (fv := eval_int(f, x)) else v for x, v in zip((-1, 2, 3), values)):
            continue
        g = to_sympy(f)
        if whole.rem(g).is_zero:
            parts.append((len(aliases), factors(g)))
    goal = factors(whole)
    keys = list(goal)
    vectors = [(a, tuple(fs[k] for k in keys)) for a, fs in parts]

    @functools.lru_cache(maxsize=None)
    def covers(i, rest):
        if not any(rest):
            return 1
        if i == len(vectors):
            return 0
        aliases, vec = vectors[i]
        total, k = 0, 0
        while min(rest) >= 0:
            total += comb(aliases + k - 1, k) * covers(i + 1, rest)
            k += 1
            rest = tuple(r - v for r, v in zip(rest, vec))
        return total

    return covers(0, tuple(goal[k] for k in keys))


class TestExactCoverOracle:
    def test_counts_match_decompose(self):
        for dp in screen_targets():
            assert len(list(certificates(decompose(dp)))) == oracle_certificate_count(dp), str(dp)

    @pytest.mark.parametrize("lose", ["divisor", "alias"])
    def test_oracle_sees_a_lost_divisor_or_alias(self, monkeypatch, lose):
        screen = srsearch._divisors

        def lossy(target):
            found = screen(target)
            if lose == "divisor":
                return found[:-1]
            return [(f, aliases[:-1] or aliases, q) for f, aliases, q in found]

        monkeypatch.setattr(srsearch, "_divisors", lossy)
        dp = product_formula(parse_decomposition("F(1,1,1)*F(2,0,1)*F(2,0,1)"))
        assert len(list(certificates(decompose(dp)))) != oracle_certificate_count(dp)


def _times(a, b):
    """The coefficient list of the product of two coefficient lists."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _unit_normal(coeffs):
    """Trim zeros from both ends and make the lowest coefficient positive."""
    kept = [i for i, c in enumerate(coeffs) if c]
    body = coeffs[kept[0]:kept[-1] + 1]
    return tuple(-c for c in body) if body[0] < 0 else tuple(body)


def _box_factor(m, l, p):
    """F(m, l, p) = f(t) f(1/t) with f = (1 - t)^m - (-t)^p t^l, from integer lists."""
    s = p + l
    low = min(0, s)
    f = [0] * (max(m, s) - low + 1)
    for k in range(m + 1):
        f[k - low] += (-1) ** k * comb(m, k)
    f[s - low] -= (-1) ** p
    # f(1/t) t^(top) is f reversed, so the product is F up to a unit.
    return _unit_normal(_times(f, f[::-1]))


def box_products(span):
    """Every fusion product of span at most `span`, 1 included, as coefficient tuples.

    A factor of span at most S has m <= S/2 + 1 and |l| <= S + 2; units
    are dropped, since they add no span and change no product.
    """
    factors = sorted({
        _box_factor(m, l, p)
        for m in range(1, span // 2 + 2)
        for l in range(-span - 2, span + 3)
        for p in range(m + 1)
    } - {(1,)})
    found = set()

    def extend(start, cur):
        found.add(cur)
        for i in range(start, len(factors)):
            if len(cur) + len(factors[i]) - 2 <= span:
                extend(i, _unit_normal(_times(cur, factors[i])))

    extend(0, (1,))
    return found


def box_polys(span, bound):
    """Every normalized polynomial of span at most `span` with coefficients in
    [-bound, bound] that equals its reverse up to sign, as a coefficient tuple.
    """
    for d in range(span + 1):
        for head in itertools.product(range(1, bound + 1), *[range(-bound, bound + 1)] * (d // 2)):
            for sign in (1, -1):
                coeffs = tuple(head[k] if 2 * k <= d else sign * head[d - k] for k in range(d + 1))
                if all(coeffs[k] == sign * coeffs[d - k] for k in range(d + 1)):
                    yield coeffs


class TestEveryVerdictInABox:
    @pytest.mark.parametrize("span, bound", [(4, 12), (6, 6), (10, 3)])
    def test_compatible_exactly_for_the_products(self, span, bound):
        # (4, 12) is the only box that holds DELTA2_ONE_QUARTIC, whose middle
        # coefficient is 11.  The products share no code with srknots.
        products = box_products(span)
        if span == 4:
            assert tuple(DELTA2_ONE_QUARTIC.coeff(e) for e in range(5)) in products
        wrong = []
        seen = 0
        for coeffs in box_polys(span, bound):
            dp = normalize(LaurentPoly(dict(enumerate(coeffs))))
            compatible = not isinstance(classify(dp), Obstruction)
            if compatible != (coeffs in products):
                wrong.append(coeffs)
            seen += coeffs in products
        assert not wrong
        # Every product with coefficients in the box was among the inputs.
        assert seen == sum(max(map(abs, c)) <= bound for c in products)


def counted_divisions(monkeypatch):
    """The divisor of each `divide_exact` call that `srsearch` makes from now on."""
    calls = []

    def counting(a, b):
        calls.append(b)
        return divide_exact(a, b)

    monkeypatch.setattr(srsearch, "divide_exact", counting)
    return calls


class TestPolynomialPeel:
    def test_matches_triple_by_triple_search(self):
        rng = random.Random(4)
        pool = [prm for prm in _small_pool() if factor_span(prm) >= 2]
        for count in (1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 3):
            chosen = SRDecomposition(tuple(rng.choice(pool) for _ in range(count)))
            target = product_formula(chosen)
            assert list(certificates(decompose(target))) == _triple_by_triple_decompose(target), str(chosen)

    def test_candidate_table_groups_every_triple_once(self):
        for dp in screen_targets():
            target = dp
            divisors = srsearch._divisors(target)
            assert len({f for f, _, _ in divisors}) == len(divisors)
            for f, aliases, quotient in divisors:
                assert list(aliases) == sorted(set(aliases))
                assert f * quotient == target
            spans = [f.span for f, _, _ in divisors]
            assert spans == sorted(spans)

    def test_aliases_do_not_repeat_divisions(self, monkeypatch):
        # Peeling each parameter triple on its own takes 1,784 divisions here;
        # peeling each distinct factor polynomial once takes 50.
        calls = counted_divisions(monkeypatch)
        dec = SRDecomposition((SRParams(1, -1, 1), SRParams(3, 1, 2), SRParams(3, 2, 1)))
        target = product_formula(dec)
        assert decompose(target)
        assert len(calls) <= 100

    def test_peel_divides_only_by_the_targets_divisors(self, monkeypatch):
        # Screening every node's quotient against the whole candidate table
        # took 587 divisions here; screening the table once against the
        # target and peeling by its divisors from the screen's quotients
        # takes 80.
        calls = counted_divisions(monkeypatch)
        dec = SRDecomposition(
            (SRParams(1, -6, 1), SRParams(1, 4, 0), SRParams(3, -5, 0), SRParams(4, -4, 4))
        )
        target = product_formula(dec)
        assert target.span == 42
        assert len(list(certificates(decompose(target)))) == 288
        assert len(calls) <= 250


class TestStreamedCertificates:
    """`certificates` against the set the triple-by-triple peel finds, sorted."""

    @pytest.mark.parametrize(
        "text",
        [
            "F(2,0,0)*F(2,0,0)*F(2,0,0)*F(3,-1,0)*F(3,-1,0)",  # one solution, two classes
            "F(1,-1,1)*F(3,1,2)*F(3,2,1)",  # three solutions
            "F(1,1,1)*F(2,0,1)*F(2,0,1)",  # one class, used three times
        ],
    )
    def test_named_products(self, text):
        target = product_formula(parse_decomposition(text))
        expected = sorted(set(_triple_by_triple_decompose(target)))
        assert list(certificates(decompose(target))) == expected

    def test_seeded_products(self):
        rng = random.Random(5)
        pool = [prm for prm in _small_pool() if factor_span(prm) >= 2]
        shapes = []
        for count in (2, 2, 2, 3, 3, 3, 3, 3):
            chosen = SRDecomposition(tuple(rng.choice(pool) for _ in range(count)))
            target = product_formula(chosen)
            solutions = decompose(target)
            shapes.append([len(sol) for sol in solutions])
            expected = sorted(set(_triple_by_triple_decompose(target)))
            assert list(certificates(solutions)) == expected, str(chosen)
        # Several solutions to merge, and solutions of one and of several classes.
        assert max(map(len, shapes)) >= 3
        assert {1, 2, 3, 4} <= {classes for shape in shapes for classes in shape}

    def test_solutions_are_class_form(self):
        target = product_formula(parse_decomposition("F(2,0,0)*F(2,0,0)*F(2,0,0)*F(3,-1,0)*F(3,-1,0)"))
        ((first, second),) = decompose(target)
        assert first[1] == 3 and SRParams(2, 0, 0) in first[0]
        assert second[1] == 2 and SRParams(3, -1, 0) in second[0]
        for aliases, _ in (first, second):
            assert list(aliases) == sorted(set(aliases))

    def test_first_certificates_of_a_large_power_stay_small(self):
        # (2 - 5t + 2t^2)^32 has 435,897 certificates, about 400 MB as a list.
        target = normalize(parse("2 - 5*t + 2*t^2") ** 32)
        tracemalloc.start()
        try:
            first = list(itertools.islice(certificates(decompose(target)), 10))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert first[0] == SRDecomposition((SRParams(1, -1, 1),) * 32)
        assert first == sorted(set(first)) and len(first) == 10
        assert peak < 4 * 2**20, peak


class TestCertificateCheck:
    ONE_ALIAS = SRParams(2, 0, 0)

    def test_wrong_certificate_raises(self, monkeypatch):
        monkeypatch.setattr(srsearch, "product_formula", lambda dec: NF("1 + t"))
        with pytest.raises(ArithmeticError):
            decompose(NF("2 - 5*t + 2*t^2"))

    def test_one_wrong_alias_raises(self, monkeypatch):
        def patched(dec):
            true = product_formula(dec)
            if dec != (self.ONE_ALIAS,):
                return true
            return normalize(true * parse("1 + t"))

        target = NF("2 - 5*t + 2*t^2")
        assert SRDecomposition((self.ONE_ALIAS,)) in certificates(decompose(target))
        monkeypatch.setattr(srsearch, "product_formula", patched)
        with pytest.raises(ArithmeticError, match="does not regenerate"):
            decompose(target)

    def test_wrong_solution_raises(self, monkeypatch):
        def one_quotient(a, b):  # every division that succeeds gives 1
            return None if divide_exact(a, b) is None else LaurentPoly.one()

        monkeypatch.setattr(srsearch, "divide_exact", one_quotient)
        with pytest.raises(ArithmeticError, match="does not regenerate"):
            decompose(NF("4 - 20*t + 33*t^2 - 20*t^3 + 4*t^4"))

    def test_check_cost_does_not_grow_with_the_certificates(self, monkeypatch):
        target = normalize(parse("2 - 5*t + 2*t^2") ** 12)
        calls = []
        mul = LaurentPoly.__mul__

        def counted(a, b):
            calls.append(1)
            return mul(a, b)

        monkeypatch.setattr(LaurentPoly, "__mul__", counted)
        decs = list(certificates(decompose(target)))
        assert len(decs) == comb(6 + 12 - 1, 12) == 6188
        assert decs == sorted(decs)
        assert len(calls) <= 100

    def test_one_term_pair_factor_per_alias(self, monkeypatch):
        calls = []

        def counted(dec):
            calls.append(dec)
            return product_formula(dec)

        monkeypatch.setattr(srsearch, "product_formula", counted)
        target = product_formula(parse_decomposition("F(1,-6,1)*F(1,4,0)*F(3,-5,0)*F(4,-4,4)"))
        assert len(list(certificates(decompose(target)))) == 288
        assert len(calls) <= 30
        assert all(len(dec) == 1 for dec in calls)

    def test_check_runs_under_python_O(self, fresh_process):
        script = "\n".join(
            [
                "import sys",
                "from srknots import srsearch",
                "from srknots.laurent import LaurentPoly, divide_exact, normalize, parse",
                "from srknots.srpoly import SRParams, product_formula",
                "if not sys.flags.optimize:",
                "    sys.exit(2)",
                "target = normalize(parse('2 - 5*t + 2*t^2'))",
                "square = normalize(parse('4 - 20*t + 33*t^2 - 20*t^3 + 4*t^4'))",
                "def one_alias(dec):",
                "    true = product_formula(dec)",
                "    if dec != (SRParams(2, 0, 0),):",
                "        return true",
                "    return normalize(true * parse('1 + t'))",
                "def one_quotient(a, b):",
                "    return None if divide_exact(a, b) is None else LaurentPoly.one()",
                "for name, patch, dp in (",
                "    ('product_formula', lambda dec: normalize(parse('1 + t')), target),",
                "    ('product_formula', one_alias, target),",
                "    ('divide_exact', one_quotient, square),",
                "):",
                "    srsearch.product_formula, srsearch.divide_exact = product_formula, divide_exact",
                "    setattr(srsearch, name, patch)",
                "    try:",
                "        srsearch.decompose(dp)",
                "    except ArithmeticError:",
                "        continue",
                "    sys.exit(1)",
                "sys.exit(0)",
            ]
        )
        done = fresh_process(entry=("-c", script), optimize=1, timeout=60)
        assert done.returncode == 0, done.stderr


def test_wide_targets_are_refused_before_any_factor(monkeypatch):
    formed = []
    monkeypatch.setattr(srsearch, "F_factor", lambda prm: formed.append(prm))
    target = NF("1 - t + t^%d" % (srsearch.MAX_SEARCH_SPAN + 2))
    with pytest.raises(ValueError, match="above the search budget"):
        decompose(target)
    assert formed == []
    assert not [name for name, value in vars(srsearch).items() if hasattr(value, "cache_info")]


def test_a_search_leaves_no_reference_cycle():
    # A search's results, divisors and aliases are freed by reference
    # counting alone, never left for the cyclic collector.
    dp = product_formula(parse_decomposition("F(1,1,1)*F(2,1,2)*F(3,1,1)"))
    gc.collect()
    gc.disable()
    try:
        assert len(list(certificates(classify(dp)))) == 48
        assert gc.collect() == 0
    finally:
        gc.enable()
