import inspect
import random
import sys

import pytest

from srknots.invariants import delta2, is_pm_power_product, knot_det, symmetry_check
from srknots.laurent import normalize, parse
from srknots.srpoly import SRParams, F_factor


def NF(text):
    return normalize(parse(text))


class TestDelta2:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("2 - 5*t + 2*t^2", 0),
            ("2 - 6*t + 9*t^2 - 6*t^3 + 2*t^4", 5),
            ("1 - t - t^2 + 3*t^3 - t^4 - t^5 + t^6", 35),
            ("6 - 13*t + 6*t^2", 1),
        ],
    )
    def test_table_values(self, text, expected):
        assert delta2(NF(text)) == expected

    def test_zero_or_odd(self):
        for m in range(1, 5):
            for l in range(-4, 5):
                for p in range(m + 1):
                    v = delta2(F_factor(SRParams(m, l, p)))
                    assert v == 0 or v % 2 == 1

    def test_unit_invariance(self):
        rng = random.Random(7)
        base = parse("2 - 6*t + 9*t^2 - 6*t^3 + 2*t^4")
        for _ in range(20):
            shifted = base.shift(rng.randrange(-5, 6))
            if rng.random() < 0.5:
                shifted = -shifted
            dp = normalize(shifted)
            assert delta2(dp) == 5
            assert knot_det(dp) == 25


class TestKnotDet:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("2 - 5*t + 2*t^2", 9),
            ("1 - 6*t + 15*t^2 - 24*t^3 + 29*t^4 - 24*t^5 + 15*t^6 - 6*t^7 + t^8", 121),
            ("1", 1),
        ],
    )
    def test_table_values(self, text, expected):
        assert knot_det(NF(text)) == expected

    def test_factor_identity_on_grid(self):
        for m in range(1, 7):
            for l in range(-6, 7):
                for p in range(m + 1):
                    det = knot_det(F_factor(SRParams(m, l, p)))
                    assert det == (2**m - (-1) ** l) ** 2


class TestSymmetry:
    def test_palindromes(self):
        assert symmetry_check(NF("2 - 5*t + 2*t^2"))
        assert symmetry_check(NF("6 - 13*t + 6*t^2"))

    def test_non_palindrome(self):
        assert not symmetry_check(NF("1 + 2*t"))


def pm_product_set(limit):
    """Independent oracle: closure of {2^s +- 1 > 1} under products, up to limit."""
    atoms = set()
    s = 0
    while (1 << s) - 1 <= limit:
        for v in ((1 << s) - 1, (1 << s) + 1):
            if 1 < v <= limit:
                atoms.add(v)
        s += 1
    reachable = {1}
    frontier = [1]
    while frontier:
        value = frontier.pop()
        for a in atoms:
            nxt = value * a
            if nxt <= limit and nxt not in reachable:
                reachable.add(nxt)
                frontier.append(nxt)
    return reachable


class TestPmPowerProduct:
    def test_witness_for_35(self):
        ok, witness = is_pm_power_product(35)
        assert ok
        product = 1
        for w in witness:
            product *= w
            assert any(w == (1 << s) + d for s in range(8) for d in (1, -1))
        assert product == 35

    @pytest.mark.parametrize("n", [11, 13, 91, 121])
    def test_known_obstruction_values(self, n):
        ok, witness = is_pm_power_product(n)
        assert not ok and witness is None

    def test_one_is_empty_product(self):
        assert is_pm_power_product(1) == (True, ())

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            is_pm_power_product(0)

    def test_delta2_of_factors_is_always_product(self):
        for m in range(1, 7):
            for l in range(-6, 7):
                for p in range(m + 1):
                    d2 = delta2(F_factor(SRParams(m, l, p)))
                    if d2 >= 1:
                        ok, _ = is_pm_power_product(d2)
                        assert ok, (m, l, p, d2)

    def test_chain_deeper_than_recursion_limit(self):
        depth = len(inspect.stack(0))
        limit = depth + 100
        old_limit = sys.getrecursionlimit()
        sys.setrecursionlimit(limit)
        try:
            ok, witness = is_pm_power_product(9**limit)
        finally:
            sys.setrecursionlimit(old_limit)
        assert ok and witness == (9,) * limit

    def test_against_enumeration_oracle(self):
        limit = 10**6
        oracle = pm_product_set(limit)
        for n in range(1, 20001):
            assert is_pm_power_product(n)[0] == (n in oracle), n
        rng = random.Random(2024)
        for _ in range(1500):
            n = rng.randrange(1, limit + 1)
            assert is_pm_power_product(n)[0] == (n in oracle), n
