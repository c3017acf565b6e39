import itertools
import os
import random
import subprocess
import sys

import pytest

import srknots
from srknots import numtheory, srsearch
from srknots.laurent import LaurentPoly, normalize, parse
from srknots.srpoly import SRDecomposition, SRParams, F_factor, factor_span, product_formula
from srknots.srsearch import (
    DELTA2_ONE_QUARTIC,
    Obstruction,
    Verdict,
    classify,
    decompose,
    delta2_one_factors,
)


def NF(text):
    return normalize(parse(text))


class TestDecompose:
    def test_single_factor_with_aliases(self):
        results = decompose(NF("2 - 5*t + 2*t^2"))
        assert SRDecomposition((SRParams(2, 0, 0),)) in results
        assert all(len(d) == 1 for d in results)
        for d in results:
            regen = product_formula(LaurentPoly.one(), d)
            assert regen.poly == parse("2 - 5*t + 2*t^2")

    def test_trivial_polynomial(self):
        assert decompose(NF("1")) == [SRDecomposition()]

    def test_no_decomposition(self):
        assert decompose(NF("6 - 13*t + 6*t^2")) == []

    def test_constant_above_one_has_none(self):
        assert decompose(NF("2")) == []

    def test_results_are_sorted_and_unique(self):
        results = decompose(NF("1 - 4*t + 10*t^2 - 16*t^3 + 19*t^4 - 16*t^5 + 10*t^6 - 4*t^7 + t^8"))
        keys = [d.factors for d in results]
        assert keys == sorted(keys)
        assert len(keys) == len(set(keys))
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
                        factors.setdefault(F_factor(prm).poly, prm)
        polys = sorted(factors, key=lambda f: (f.span, str(f)))
        pairs = list(itertools.combinations_with_replacement(polys, 2))
        for fa, fb in pairs:
            target = normalize(fa * fb)
            results = decompose(target)
            wanted = sorted([fa, fb], key=hash)
            recovered = [
                sorted((F_factor(x).poly for x in d), key=hash)
                for d in results
                if len(d) == 2
            ]
            assert wanted in recovered, (str(fa), str(fb))


class TestClassify:
    def test_delta2_factor_obstruction(self):
        outcome = classify(NF("2 - 6*t + 10*t^2 - 13*t^3 + 10*t^4 - 6*t^5 + 2*t^6"))
        assert outcome.verdict is Verdict.NOT_SR
        assert outcome.obstruction is Obstruction.DELTA2_FACTOR

    def test_delta2_one_form_obstruction(self):
        outcome = classify(
            NF("1 - 6*t + 15*t^2 - 24*t^3 + 29*t^4 - 24*t^5 + 15*t^6 - 6*t^7 + t^8")
        )
        assert outcome.verdict is Verdict.NOT_SR
        assert outcome.obstruction is Obstruction.DELTA2_ONE_FORM

    def test_asymmetric_obstruction(self):
        outcome = classify(NF("1 + 2*t"))
        assert outcome.obstruction is Obstruction.ASYMMETRIC

    def test_no_decomposition_obstruction(self):
        # Symmetric, delta2 = 3 is a 2^s-1 value, but the only span-2 factor
        # polynomial fails to divide.
        outcome = classify(NF("5 - 11*t + 5*t^2"))
        assert outcome.verdict is Verdict.NOT_SR
        assert outcome.obstruction is Obstruction.NO_DECOMPOSITION

    def test_poly_compatible_with_certificates(self):
        outcome = classify(NF("1 - 3*t + 5*t^2 - 7*t^3 + 5*t^4 - 3*t^5 + t^6"))
        assert outcome.verdict is Verdict.POLY_COMPATIBLE
        assert SRDecomposition((SRParams(2, 1, 2),)) in outcome.decompositions

    def test_quartic_power_passes_the_rigidity_gate(self):
        quartic = parse("1 - 6*t + 11*t^2 - 6*t^3 + t^4")
        squared = classify(normalize(quartic * quartic))
        assert squared.verdict is Verdict.POLY_COMPATIBLE

    def test_trivial_polynomial_is_compatible(self):
        outcome = classify(NF("1"))
        assert outcome.verdict is Verdict.POLY_COMPATIBLE
        assert outcome.decompositions == (SRDecomposition(),)


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
        shapes = {normalize(gh).poly for _, gh in hits}
        assert shapes == {LaurentPoly.one(), DELTA2_ONE_QUARTIC}

    def test_expected_parameter_set(self):
        hits = {prm for prm, _ in delta2_one_factors(6, 6)}
        assert hits == {
            SRParams(1, 0, 0),
            SRParams(1, 0, 1),
            SRParams(2, 1, 0),
            SRParams(2, -1, 2),
        }


class TestRoundTripProperty:
    def test_random_multisets_recovered(self):
        rng = random.Random(99)
        pool = [
            SRParams(m, l, p)
            for m in range(1, 4)
            for l in range(-3, 4)
            for p in range(m + 1)
            if factor_span(SRParams(m, l, p)) >= 2
        ]
        for _ in range(40):
            count = rng.randint(1, 2)
            chosen = [rng.choice(pool) for _ in range(count)]
            target = product_formula(LaurentPoly.one(), SRDecomposition(tuple(chosen)))
            results = decompose(target)
            wanted = sorted((F_factor(prm).poly for prm in chosen), key=hash)
            recovered = [
                sorted((F_factor(prm).poly for prm in d), key=hash)
                for d in results
                if len(d) == count
            ]
            assert wanted in recovered, [str(c) for c in chosen]


class TestCertificateCheck:
    def test_wrong_certificate_raises(self, monkeypatch):
        monkeypatch.setattr(srsearch, "product_formula", lambda base, dec: NF("1 + t"))
        with pytest.raises(ArithmeticError):
            decompose(NF("2 - 5*t + 2*t^2"))

    def test_check_runs_under_python_O(self):
        script = "\n".join(
            [
                "import sys",
                "from srknots import srsearch",
                "from srknots.laurent import normalize, parse",
                "if not sys.flags.optimize:",
                "    sys.exit(2)",
                "srsearch.product_formula = lambda base, dec: normalize(parse('1 + t'))",
                "try:",
                "    srsearch.decompose(normalize(parse('2 - 5*t + 2*t^2')))",
                "except ArithmeticError:",
                "    sys.exit(0)",
                "sys.exit(1)",
            ]
        )
        src = os.path.dirname(os.path.dirname(srknots.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        done = subprocess.run([sys.executable, "-O", "-c", script], env=env, timeout=60)
        assert done.returncode == 0


def test_caches_are_bounded():
    assert srsearch._candidates.cache_info().maxsize is not None
    assert numtheory._prime_support.cache_info().maxsize is not None
