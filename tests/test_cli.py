import argparse
import contextlib
import io
import random
import sys
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from srknots import cli
from srknots.cli import main
from srknots.laurent import LaurentPoly, normalize, parse
from srknots.seifert import FUSION_SIZE, MATRIX_SIZE
from srknots.srpoly import MAX_BANDS, MAX_PRODUCT_TERMS, SRParams, f_factor
from srknots.srsearch import MAX_SEARCH_SPAN


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@contextlib.contextmanager
def uncapped_int_strings():
    """Python's int <-> str cap lifted, for building the expected text."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


class TestPolyCommands:
    def test_eval(self, capsys):
        code, out, _ = run(capsys, "poly", "eval", "--poly", "2 - 5*t + 2*t^2", "--at", "2")
        assert code == 0 and out == "0\n"

    def test_eval_rational(self, capsys):
        code, out, _ = run(capsys, "poly", "eval", "--poly", "t^-1 + t", "--at", "2")
        assert code == 0 and out == "5/2\n"

    def test_normalize(self, capsys):
        code, out, _ = run(capsys, "poly", "normalize", "--poly", "t^2 - 2*t")
        assert code == 0 and out == "2 - t\n"

    def test_bad_poly_exits_1(self, capsys):
        code, _, err = run(capsys, "poly", "eval", "--poly", "2 +* t", "--at", "1")
        assert code == 1 and "error:" in err

    def test_values_and_literals_above_int_string_cap(self, fresh_process):
        with uncapped_int_strings():
            big = str(7**6000)
            power = str(2**20000 - 1)
        for argv, want in [
            (("--poly", "t^20000 - 1", "--at", "2"), power),
            (("--poly", f"{big}*t", "--at", "1"), big),
            (("--poly", "t", "--at", big), big),
        ]:
            done = fresh_process("poly", "eval", *argv, timeout=60)
            assert (done.returncode, done.stdout) == (0, want + "\n"), done.stderr

    def test_values_above_the_cli_digit_cap_exit_1_promptly(self, fresh_process):
        # 2^10^7 and this delta2 have over 3,000,000 digits; printing them
        # would take minutes, so the command refuses them at once.
        for argv in [
            ("poly", "eval", "--poly", "t^10000000", "--at", "2"),
            ("knot", "invariants", "--poly", "1 - t^5000000 + t^10000000"),
        ]:
            done = fresh_process(*argv, timeout=30)
            assert done.returncode == 1 and done.stdout == ""
            assert done.stderr.startswith("error:")
            assert "set_int_max_str_digits" not in done.stderr

    def test_eval_above_the_power_budget_exits_1_promptly(self, fresh_process):
        # 3^100000000 has 158 million bits; the command refuses it before
        # forming any power instead of running for minutes.
        done = fresh_process("poly", "eval", "--poly", "t^100000000", "--at", "3", timeout=10)
        assert done.returncode == 1 and done.stdout == ""
        assert done.stderr.startswith("error:") and "budget of 5,000,000 bits" in done.stderr

    def test_eval_with_cancelling_large_powers(self, fresh_process):
        # 3^900000 - 3 * 3^899999 forms about 2.85 million bits of powers
        # and is 0: the budget counts work, not the printed value.
        done = fresh_process("poly", "eval", "--poly", "t^900000 - 3*t^899999", "--at", "3",
                               timeout=30)
        assert (done.returncode, done.stdout) == (0, "0\n"), done.stderr

    def test_zero_poly_normalize_exits_1(self, capsys):
        code, _, err = run(capsys, "poly", "normalize", "--poly", "t - t")
        assert code == 1 and "error:" in err

    def test_out_of_memory_is_a_clean_error(self, fresh_process, capsys, monkeypatch):
        resource = pytest.importorskip("resource")

        def limit_memory():
            # 256 MiB of address space: 2^(10^11) cannot be built within it.
            resource.setrlimit(resource.RLIMIT_AS, (2**28, 2**28))

        done = fresh_process(
            "poly", "eval", "--poly", "t^100000000000", "--at", "2",
            timeout=60, preexec_fn=limit_memory,
        )
        assert done.returncode == 1
        assert done.stderr.startswith("error:")
        assert "Traceback" not in done.stderr
        # `poly eval` refuses that value by its power budget before it
        # allocates, delta2 by its bit budget, `seifert check` by its block
        # size budget and the minus and det-powers scans by their cost
        # budgets, so the handler is reached in-process at the end.
        done = fresh_process(
            "knot", "invariants", "--poly", "t^100000000000 + t - 2",
            timeout=60, preexec_fn=limit_memory,
        )
        assert done.returncode == 1
        assert done.stderr == (
            "error: dp(2) may hold 100,000,000,003 bits, "
            "above the delta2 budget of 250,000 bits\n"
        )
        done = fresh_process(
            "seifert", "check", "--m", "1", "--l", "100000000", "--eps", "+1",
            timeout=60, preexec_fn=limit_memory,
        )
        assert (done.returncode, done.stderr) == (
            1, "error: fusion blocks of size 100,000,001 are above the budget of 256\n"
        )
        done = fresh_process(
            "nt", "scan", "--family", "minus", "--bounds", "2,100000000",
            timeout=60, preexec_fn=limit_memory,
        )
        assert (done.returncode, done.stderr) == (1, (
            "error: the scan box costs 1,000,000,350,000,009,600,000,000 units, "
            "above the budget of 500,000,000\n"
        ))
        done = fresh_process(
            "nt", "scan", "--family", "det-powers", "--bounds", "2000,100",
            timeout=60, preexec_fn=limit_memory,
        )
        assert (done.returncode, done.stderr) == (1, (
            "error: the scan box costs 8,161,717,720,400 units, "
            "above the budget of 1,000,000,000\n"
        ))

        def exhausted(*bounds):
            raise MemoryError

        count, _, labels = cli._SCANS["det-powers"]
        monkeypatch.setitem(cli._SCANS, "det-powers", (count, exhausted, labels))
        assert run(capsys, "nt", "scan", "--family", "det-powers", "--bounds", "20,8") == (
            1, "", "error: out of memory\n"
        )


class TestSrCommands:
    def test_factor(self, capsys):
        code, out, _ = run(capsys, "sr", "factor", "--m", "2", "--l", "0", "--p", "0")
        assert code == 0 and out == "2 - 5*t + 2*t^2\n"

    def test_product(self, capsys):
        code, out, _ = run(capsys, "sr", "product", "--factors", "F(1,1,1)*F(2,0,1)")
        assert code == 0
        assert out == "1 - 4*t + 10*t^2 - 16*t^3 + 19*t^4 - 16*t^5 + 10*t^6 - 4*t^7 + t^8\n"

    def test_classify_not_sr(self, capsys):
        code, out, _ = run(capsys, "sr", "classify", "--poly", "6 - 13*t + 6*t^2")
        assert code == 0
        assert out == "NOT_SR obstruction=DELTA2_ONE_FORM\n"

    def test_product_of_empty_decomposition(self, capsys):
        code, out, _ = run(capsys, "sr", "product", "--factors", "1")
        assert code == 0 and out == "1\n"

    def test_classify_compatible(self, capsys):
        code, out, _ = run(capsys, "sr", "classify", "--poly", "2 - 5*t + 2*t^2")
        assert code == 0
        assert out.startswith("POLY_COMPATIBLE certificates=")
        assert "F(2,0,0)" in out

    def test_factor_with_huge_linking_number_is_prompt(self, fresh_process):
        # F(1, 10^9, 0) has seven terms; its cost must not grow with |l|.
        done = fresh_process("sr", "factor", "--m", "1", "--l", "1000000000", "--p", "0",
                               timeout=30)
        f = f_factor(SRParams(1, 10**9, 0))
        assert done.returncode == 0
        assert done.stdout == f"{normalize(f * f.substitute_inverse())}\n"

    def test_invalid_params_exit_1(self, capsys):
        code, _, err = run(capsys, "sr", "factor", "--m", "0", "--l", "0", "--p", "0")
        assert code == 1 and "error:" in err

    @pytest.mark.parametrize("argv", [
        ("sr", "factor", "--m", "100000000", "--l", "0", "--p", "0"),
        ("sr", "product", "--factors", "F(100000000,0,0)"),
    ])
    def test_band_counts_above_the_budget_exit_1(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err == f"error: 100,000,000 bands are above the budget of {MAX_BANDS}\n"

    def test_spread_product_above_the_term_budget_exits_1_promptly(self, fresh_process):
        # Each factor has 7 terms and the linking numbers share no exponent
        # range, so the term count grows about 3.4x per factor: ten factors
        # gave 846,369 terms in 3.3 s before the budget.
        factors = "*".join(f"F(1,{10 ** (i + 2)},0)" for i in range(12))
        done = fresh_process("sr", "product", "--factors", factors, timeout=10)
        assert (done.returncode, done.stdout) == (1, "")
        assert done.stderr == (
            f"error: the product may hold {7**12:,} terms, above the budget of "
            f"{MAX_PRODUCT_TERMS:,} terms\n"
        )

    def test_classify_many_pm_divisors_is_prompt(self, fresh_process):
        # delta2 = 11 (2^240 - 1)^2 has dozens of 2^s +- 1 divisors; a
        # depth-first search over them took 24 s.
        done = fresh_process(
            "sr", "classify", "--poly",
            "1 + 3*t + t^2 - 2*t^240 - 6*t^241 - 2*t^242 + t^480 + 3*t^481 + t^482",
            timeout=10,
        )
        assert (done.returncode, done.stdout) == (0, "NOT_SR obstruction=DELTA2_FACTOR\n")

    def test_classify_above_search_budget_exits_1(self, capsys):
        # (1 - t + t^2)^33 has span 66 and passes every cheaper obstruction.
        wide = str(parse("1 - t + t^2") ** 33)
        code, out, err = run(capsys, "sr", "classify", "--poly", wide)
        assert code == 1 and out == ""
        assert err.startswith("error:") and str(MAX_SEARCH_SPAN) in err

    def test_classify_above_the_delta2_budget_exits_1_promptly(self, fresh_process):
        # delta2 would have 4 million bits; the 2^s +- 1 test on it ran for
        # over a minute before the bit budget.
        done = fresh_process("sr", "classify", "--poly", "2 - 5*t^2000000 + 2*t^4000000",
                               timeout=10)
        assert (done.returncode, done.stdout) == (1, "")
        assert done.stderr == (
            "error: dp(2) may hold 4,000,004 bits, above the delta2 budget of 250,000 bits\n"
        )

    def test_classify_wide_trinomial_is_prompt(self, fresh_process):
        # delta2 = 2^40000 - 2^20000 + 1 has 40,001 bits; a full remainder
        # for every candidate 2^s +- 1 took about 45 s.
        done = fresh_process("sr", "classify", "--poly", "1 - t^20000 + t^40000", timeout=30)
        assert done.returncode == 0
        assert done.stdout == "NOT_SR obstruction=DELTA2_FACTOR\n"


class TestKnotCommand:
    def test_invariants_line(self, capsys):
        code, out, _ = run(capsys, "knot", "invariants", "--poly", "2 - 5*t + 2*t^2")
        assert code == 0 and out == "delta2=0 det=9 symmetric=true\n"

    def test_delta2_above_int_string_cap(self, fresh_process):
        # 1 - 2^10000 + 2^20000 is odd, has 6,021 digits and is its own delta2.
        done = fresh_process("knot", "invariants", "--poly", "1 - t^10000 + t^20000", timeout=60)
        with uncapped_int_strings():
            want = f"delta2={1 - 2**10000 + 2**20000} det=1 symmetric=true\n"
        assert (done.returncode, done.stdout, done.stderr) == (0, want, "")


class TestSeifertCommand:
    def test_check_agrees(self, capsys):
        code, out, _ = run(
            capsys, "seifert", "check", "--m", "2", "--l", "1", "--eps", "+1,-1"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("det_P=") and lines[-1] == "agree=true"

    def test_eps_length_mismatch_exits_1(self, capsys):
        code, _, err = run(capsys, "seifert", "check", "--m", "3", "--l", "0", "--eps", "1,-1")
        assert code == 1 and "error:" in err

    def test_symbolic_det_of_matrix(self, capsys):
        code, out, _ = run(capsys, "seifert", "det", "--matrix", "1 - t, 0; t, 1 - t")
        assert code == 0 and out == "1 - 2*t + t^2\n"

    def test_alexander_from_integer_matrix(self, capsys):
        code, out, _ = run(capsys, "seifert", "alexander", "--matrix=-1,1;0,-1")
        assert code == 0 and out == "1 - t + t^2\n"

    def test_alexander_rejects_a_matrix_that_is_not_square(self, capsys):
        code, out, err = run(capsys, "seifert", "alexander", "--matrix=1,2")
        assert (code, out, err) == (1, "", "error: Seifert matrix must be square\n")

    def test_alexander_rejects_polynomial_entries(self, capsys):
        code, _, err = run(capsys, "seifert", "alexander", "--matrix", "1 - t, 0; 0, 1")
        assert code == 1 and "integer matrix" in err

    def test_ragged_matrix_exits_1(self, capsys):
        code, _, err = run(capsys, "seifert", "det", "--matrix", "1, 0; 1")
        assert code == 1 and "error:" in err

    def test_alexander_accepts_constant_polynomial_entries(self, capsys):
        code, out, _ = run(capsys, "seifert", "alexander", "--matrix", "-1*t^0, 1 - t + t; 0, -1")
        assert code == 0 and out == "1 - t + t^2\n"

    def test_check_size_budget(self, capsys):
        code, out, _ = run(capsys, "seifert", "check", "--m", "1", "--l", f"{FUSION_SIZE - 1}", "--eps", "+1")
        assert code == 0 and out.endswith("agree=true\n")
        code, out, err = run(capsys, "seifert", "check", "--m", "2", "--l", f"-{FUSION_SIZE - 1}", "--eps", "+1,-1")
        assert (code, out) == (1, "")
        assert err == f"error: fusion blocks of size {FUSION_SIZE + 1} are above the budget of {FUSION_SIZE}\n"

    @pytest.mark.parametrize("verb", ["det", "alexander"])
    def test_matrix_size_budget(self, capsys, verb):
        # A dense 100x100 matrix with entries in [-2, 2], about 25 KB of text.
        rng = random.Random(100)
        text = ";".join(",".join(str(rng.randint(-2, 2)) for _ in range(100)) for _ in range(100))
        code, out, err = run(capsys, "seifert", verb, f"--matrix={text}")
        assert (code, out) == (1, "")
        assert err == f"error: a 100x100 matrix is above the size budget of {MATRIX_SIZE}\n"
        # At the budget: MATRIX_SIZE / 2 trefoil blocks [[-1, 1], [0, -1]]
        # down the diagonal, of determinant 1.
        size = MATRIX_SIZE
        cells = {(i, i): -1 for i in range(size)} | {(i, i + 1): 1 for i in range(0, size, 2)}
        text = ";".join(",".join(str(cells.get((i, j), 0)) for j in range(size)) for i in range(size))
        want = "1" if verb == "det" else str(normalize(parse("1 - t + t^2") ** (size // 2)))
        code, out, _ = run(capsys, "seifert", verb, f"--matrix={text}")
        assert (code, out) == (0, want + "\n")


class TestNtCommands:
    def test_pairs(self, capsys):
        code, out, _ = run(capsys, "nt", "pairs", "--m", "4", "--n", "2")
        assert code == 0 and out == "admissible=true family=(2n,n)\n"
        code, out, _ = run(capsys, "nt", "pairs", "--m", "5", "--n", "3")
        assert code == 0 and out == "admissible=false\n"
        code, out, _ = run(capsys, "nt", "pairs", "--m", "3", "--n", "1")
        assert code == 0 and out == "admissible=true family=(3,1)\n"
        code, out, _ = run(capsys, "nt", "pairs", "--m", "3", "--n", "2")
        assert code == 0 and out == "admissible=true family=(3,2)\n"

    def test_catalan_scan(self, capsys):
        code, out, _ = run(capsys, "nt", "scan", "--family", "catalan", "--bounds", "10,10,5,5")
        assert code == 0 and out == "hits=(3,2,2,3)\n"

    def test_catalan_scan_above_the_budget_exits_1(self, capsys):
        code, out, err = run(capsys, "nt", "scan", "--family", "catalan",
                             "--bounds", "2,2,100000000,2")
        assert (code, out) == (1, "")
        assert err == (
            "error: the scan box costs 20,000,006,199,999,936 units, "
            "above the budget of 100,000,000\n"
        )

    @pytest.mark.parametrize("bounds, hits", [("100,100,7,100000000", "(3,2,2,3)"),
                                              ("3,2,100000000,1", "")])
    def test_catalan_scan_with_a_wide_bound_answers(self, capsys, bounds, hits):
        code, out, _ = run(capsys, "nt", "scan", "--family", "catalan", "--bounds", bounds)
        assert (code, out) == (0, f"hits={hits}\n")

    @pytest.mark.parametrize("bounds, cost", [("2000,100", "8,161,717,720,400"),
                                              ("400,60", "71,610,024,400"),
                                              ("2,2000", "3,269,378,912,400")])
    def test_det_powers_scan_above_the_budget_exits_1(self, capsys, bounds, cost):
        code, out, err = run(capsys, "nt", "scan", "--family", "det-powers", "--bounds", bounds)
        assert (code, out) == (1, "")
        assert err == f"error: the scan box costs {cost} units, above the budget of 1,000,000,000\n"

    def test_det_powers_scan(self, capsys):
        code, out, _ = run(capsys, "nt", "scan", "--family", "det-powers", "--bounds", "8,4")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "shape1="
        assert lines[1] == "shape2=(3,1,1,2);(3,1,2,4)"

    def test_minus_scan(self, capsys):
        code, out, _ = run(capsys, "nt", "scan", "--family", "minus", "--bounds", "8,4")
        assert code == 0 and out == "hits=(3,2,1);(7,2,1)\n"

    def test_base_scan(self, capsys):
        code, out, _ = run(capsys, "nt", "scan", "--family", "base", "--bounds", "10,6")
        assert code == 0
        assert out == "odd_hits=(2,3)\neven_hits=(2,2);(3,2);(5,2);(9,2)\n"

    def test_plus_scan(self, capsys):
        code, out, _ = run(capsys, "nt", "scan", "--family", "plus", "--bounds", "5,4")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "plus_plus_hits=(2,3,1)"
        assert lines[1].startswith("plus_minus_hits=(2,1,2);(2,3,2);(3,1,1)")

    def test_wide_plus_scan_is_prompt(self, fresh_process):
        done = fresh_process("nt", "scan", "--family", "plus", "--bounds", "200,16", timeout=10)
        assert done.returncode == 0, done.stderr
        plus_plus, plus_minus = done.stdout.splitlines()
        assert plus_plus == "plus_plus_hits=(2,3,1)"
        families = {(3, 1, 1), (2, 3, 2), (3, 2, 4)} | {(2**j + 1, 1, 2) for j in range(8)}
        assert plus_minus == "plus_minus_hits=" + ";".join(
            f"({A},{m},{n})" for A, m, n in sorted(families)
        )

    def test_wide_minus_scan_is_prompt(self, fresh_process):
        done = fresh_process("nt", "scan", "--family", "minus", "--bounds", "200,16", timeout=10)
        assert done.returncode == 0, done.stderr
        assert done.stdout == "hits=" + ";".join(f"({2**j - 1},2,1)" for j in range(2, 8)) + "\n"

    def test_unknown_family_exits_2(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["nt", "scan", "--family", "nope", "--bounds", "8,4"])
        assert err.value.code == 2

    def test_bad_bounds_exit_1(self, capsys):
        code, _, err = run(capsys, "nt", "scan", "--family", "catalan", "--bounds", "10,10")
        assert code == 1 and "error:" in err


class TestTableCommand:
    def test_verify_bundled_corpus(self, capsys):
        code, out, _ = run(capsys, "table", "verify")
        assert code == 0
        assert out.strip().splitlines()[-1] == "verified=25/25"

    def test_verify_failing_corpus(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("k|no|3|5|2 - 5*t + 2*t^2|\n", encoding="utf-8")
        code, out, _ = run(capsys, "table", "verify", "--corpus", str(bad))
        assert code == 1
        assert "FAIL" in out

    def test_row_above_search_budget_exits_1(self, capsys, tmp_path):
        # (1 - t + t^2)^2500: span 5000 with delta2 = 3^2500, refused at search
        # entry instead of building the candidate table.  The coefficients come
        # from J. C. P. Miller's recurrence for powers, since `**` is quadratic.
        a = [1]
        for k in range(1, 5001):
            terms = ((2501 * i - k) * c * a[k - i] for i, c in ((1, -1), (2, 1)) if i <= k)
            a.append(sum(terms) // k)
        row = f"k|yes|1|1|{LaurentPoly(dict(enumerate(a)))}|F(1,0,0)\n"
        wide = tmp_path / "wide.txt"
        wide.write_text(row, encoding="utf-8")
        code, out, err = run(capsys, "table", "verify", "--corpus", str(wide))
        assert code == 1 and out == ""
        assert err.startswith("error:")

    def test_missing_corpus_exits_1(self, capsys, tmp_path):
        code, _, err = run(capsys, "table", "verify", "--corpus", str(tmp_path / "nope.txt"))
        assert code == 1 and "error:" in err


class TestUsageErrors:
    def test_python_m_runs_the_cli(self, fresh_process):
        for argv, code, out in [
            (("knot", "invariants", "--poly", "2 - 5*t + 2*t^2"), 0, "delta2=0 det=9 symmetric=true\n"),
            (("poly", "eval", "--poly", "2 +* t", "--at", "1"), 1, ""),
            (("frobnicate",), 2, ""),
        ]:
            done = fresh_process(*argv, entry=("-m", "srknots.cli"), timeout=60)
            assert (done.returncode, done.stdout) == (code, out), done.stderr

    def test_unknown_group_exits_2(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 2

    def test_unknown_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["poly", "eval", "--nope", "1"])
        assert err.value.code == 2

    def test_missing_required_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["sr", "factor", "--m", "2"])
        assert err.value.code == 2

    def test_threads_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["--threads", "4", "table", "verify"])
        assert err.value.code == 2


class TestDeterminism:
    def test_identical_argv_identical_stdout(self, capsys):
        argv = ["sr", "classify", "--poly", "2 - 5*t + 2*t^2"]
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second

    def test_one_process_matches_fresh_processes(self, capsys, fresh_process):
        # main reuses one parser per process; a run must not leak into the
        # next.  Every leaf runs, and nt scan once per family.
        argvs = [
            ["poly", "eval", "--poly", "1 - t + t^2", "--at", "2"],
            ["sr", "classify", "--poly", "2 - 5*t + 2*t^2"],
            ["seifert", "check", "--m", "2", "--l", "-1", "--eps", "1,-1"],
            ["sr", "factor", "--m", "2"],
            ["nt", "pairs", "--m", "4", "--n", "2"],
            ["poly", "normalize", "--poly", "t^-1 - 1 + t"],
            ["sr", "factor", "--m", "2", "--l", "0", "--p", "1"],
            ["sr", "product", "--factors", "F(1,0,0)*F(2,1,1)"],
            ["knot", "invariants", "--poly", "2 - 5*t + 2*t^2"],
            ["seifert", "det", "--matrix", "1 - t, 0; t, 1 - t"],
            ["seifert", "alexander", "--matrix=-1,1;0,-1"],
            ["nt", "scan", "--family", "catalan", "--bounds", "10,10,5,5"],
            ["nt", "scan", "--family", "minus", "--bounds", "8,4"],
            ["nt", "scan", "--family", "base", "--bounds", "10,6"],
            ["nt", "scan", "--family", "plus", "--bounds", "5,4"],
            ["nt", "scan", "--family", "det-powers", "--bounds", "8,4"],
            ["nt", "scan", "--family", "catalan", "--bounds", "10,10"],
            ["table", "verify"],
        ]
        codes = []
        for argv in argvs:
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            out = capsys.readouterr().out
            fresh = fresh_process(*argv)
            assert (code, out) == (fresh.returncode, fresh.stdout), argv
            codes.append(code)
        assert codes == [0, 0, 0, 2, 0] + [0] * 11 + [1, 0]


# argv lists for the dispatch test: help at every level, option forms,
# abbreviations, repeats, "--", and each kind of usage error.
DISPATCH_CORPUS = [
    [],
    ["-h"],
    ["--help"],
    ["seifert", "-h"],
    ["poly", "-h", "eval"],
    ["seifert", "check", "-h"],
    ["nt", "scan", "--help"],
    ["seifert", "check", "--m", "1", "--l", "0", "--eps", "+1", "-h"],
    ["seifert", "check", "--m=1", "--l=2", "--eps=+1"],
    ["seifert", "check", "--m", "2", "--l", "-1", "--eps", "+1,-1"],
    ["seifert", "check", "--eps=-1,-1", "--l=-3", "--m=2"],
    ["poly", "eval", "--po", "1 + t", "--at", "2"],
    ["poly", "eval", "--poly=t", "--a=3"],
    ["sr", "classify", "--p", "2 - 5*t + 2*t^2"],
    ["poly", "eval", "--poly", "t", "--poly", "1 + t", "--at", "2"],
    ["seifert", "check", "--m", "1", "--m", "2", "--l", "0", "--eps", "+1,+1"],
    ["poly", "eval", "--poly", "t", "--at", "2", "--"],
    ["poly", "eval", "--", "--poly", "t", "--at", "2"],
    ["seifert", "check", "--m", "1", "--l", "0", "--eps", "+1", "--bogus"],
    ["seifert", "check", "--bogus", "--m", "1"],
    ["seifert", "check", "--m", "1", "--l", "0", "--eps", "+1", "extra"],
    ["seifert", "check", "--m", "1", "--eps", "+1"],
    ["seifert", "check", "--m", "x", "--l", "0", "--eps", "+1"],
    ["seifert", "alexander", "--matrix", "-1,1;0,-1"],
    ["seifert", "alexander", "--matrix=-1,1;0,-1"],
    ["seifert", "det", "--matrix", "1 - t, 0; t, 1 - t"],
    ["nt", "scan", "--family", "bogus", "--bounds", "1,2"],
    ["nt", "scan", "--family=plus", "--bounds=20,4"],
    ["nt", "pairs", "--m", "4", "--n", "2"],
    ["table", "verify", "--corpus"],
    ["sr", "factor", "--m", "2", "--l", "0", "--p", "0"],
    ["sr", "factor", "--m", "2"],
    ["frobnicate"],
    ["seifert"],
    ["seifert", "frobnicate"],
    ["--threads", "4", "table", "verify"],
    # Values at the edge of what argparse reads as an option.
    ["poly", "normalize", "--poly", "-2 + t"],
    ["poly", "normalize", "--poly", "-h x"],
    ["poly", "normalize", "--poly", "-t"],
    ["poly", "normalize", "--poly", "-"],
    ["poly", "normalize", "--poly="],
    ["poly", "eval", "--poly", "t", "--at", "-3"],
    ["nt", "scan", "--family=det-powers", "--bounds", "20,8"],
    ["table", "verify", "--corpus=missing-corpus.txt"],
]


def outcome(argv):
    """(exit code, stdout, stderr) of main(argv), usage exits included."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def nested_parse(argv):
    """The reference route: the root parser runs the group and leaf parsers."""
    return cli.build_parser().parse_args(argv)


# Tokens for the differential test: "--" and help, an unknown flag, every
# leaf's flags (some an abbreviation of another leaf's), and values on both
# sides of what argparse reads as an option.
FLAGS = sorted({flag for _, _, arguments in cli._COMMANDS.values() for flag, _ in arguments})
LONE = ["-h", "--", "--bogus", *FLAGS]
VALUES = [
    "-", "-3", "-t", "-h x", "-2 + t", "-- t", "--poly=1 + t", "", "t", "0", "2", "+1,-1", "20,8",
    "1 - t, 0; t, 1 - t", "2 - 5*t + 2*t^2", "F(1,0,0)*F(2,1,1)", "plus", "det-powers",
]


@st.composite
def leaf_argvs(draw):
    """`<group> <verb>` and up to four pieces: a flag and a value, `--flag=value`, or a lone token."""
    key = draw(st.sampled_from(sorted(cli._COMMANDS)))
    flags = st.sampled_from([flag for flag, _ in cli._COMMANDS[key][2]]) | st.sampled_from(LONE)
    values = st.sampled_from(VALUES)
    piece = st.one_of(
        st.tuples(flags, values),
        st.tuples(st.builds("{}={}".format, flags, values)),
        st.tuples(st.sampled_from(LONE + VALUES)),
    )
    return [*key, *(token for tokens in draw(st.lists(piece, max_size=4)) for token in tokens)]


class TestDispatch:
    @pytest.mark.parametrize("argv", DISPATCH_CORPUS, ids=" ".join)
    def test_same_as_the_nested_parse(self, monkeypatch, argv):
        got = outcome(argv)
        monkeypatch.setattr(cli, "_parse_args", nested_parse)
        assert got == outcome(argv)

    @pytest.mark.parametrize("argv", DISPATCH_CORPUS, ids=" ".join)
    def test_cold_dispatch_matches_the_nested_parse(self, monkeypatch, argv):
        # As a process's first call: no root parser built yet.
        cli.build_parser.cache_clear()
        got = outcome(argv)
        monkeypatch.setattr(cli, "_parse_args", nested_parse)
        assert got == outcome(argv)

    def test_first_call_builds_only_its_leaf(self, fresh_process):
        script = "\n".join([
            "import argparse",
            "from srknots import cli",
            "built = []",
            "init = argparse.ArgumentParser.__init__",
            "def recording(self, *args, **kwargs):",
            "    init(self, *args, **kwargs)",
            "    built.append(self.prog)",
            "argparse.ArgumentParser.__init__ = recording",
            "code = cli.main(['sr', 'classify', '--poly', '2 - 5*t + 2*t^2'])",
            "print(code, built)",
        ])
        done = fresh_process(entry=("-c", script), timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "0 []"

    def test_named_leaf_skips_the_root_parser(self, monkeypatch):
        def forbidden():
            raise AssertionError("nested parse")

        # One argv of each benchmark request shape.
        argvs = [
            ["seifert", "check", "--m=2", "--l=-4", "--eps=+1,-1"],
            ["seifert", "alexander", "--matrix=-1,1;0,-1"],
            ["nt", "scan", "--family", "minus", "--bounds", "40,8"],
            ["nt", "pairs", "--m", "4", "--n", "2"],
            ["table", "verify"],
            ["sr", "classify", "--poly", "-2*t^-1 + 5 - 2*t"],
            ["knot", "invariants", "--poly", "-1 + 3*t - t^2"],
        ]
        with monkeypatch.context() as patch:
            patch.setattr(cli, "build_parser", forbidden)
            got = [outcome(argv) for argv in argvs]
            for argv in argvs:
                with pytest.raises(AssertionError, match="nested parse"):
                    main(argv + ["extra"])
        monkeypatch.setattr(cli, "_parse_args", nested_parse)
        assert got == [outcome(argv) for argv in argvs]
        assert [code for code, _, _ in got] == [0] * len(argvs)

    @given(leaf_argvs())
    @settings(deadline=None, max_examples=400)
    def test_table_parse_matches_the_nested_parse(self, argv):
        args = cli._table_parse(tuple(argv[:2]), argv[2:])
        if args is not None:
            nested = vars(nested_parse(argv))
            assert (nested.pop("group"), nested.pop("verb")) == tuple(argv[:2])
            assert vars(args) == nested
        got = outcome(argv)
        with mock.patch.object(cli, "_parse_args", nested_parse):
            assert got == outcome(argv)

    def test_an_explicit_double_dash_takes_the_nested_parse(self):
        # argparse drops the "--" of `--flag=--` and sets the flag to [].
        assert cli._table_parse(("poly", "normalize"), ["--poly=--"]) is None

    @pytest.mark.parametrize("argv", [
        ["poly", "normalize", "--poly=--"],
        ["nt", "scan", "--family=--", "--bounds", "1,2"],
    ], ids=" ".join)
    def test_an_explicit_double_dash_value_is_a_usage_error(self, argv):
        # The nested parse gives the flag [], which no command can take; the
        # error is argparse's own for that flag given with no value.
        flag = argv[2].partition("=")[0]
        code, out, err = outcome(argv)
        assert (code, out) == (2, "")
        assert err.splitlines()[-1].endswith(f"error: argument {flag}: expected one argument")
        assert "Traceback" not in err
        assert outcome([*argv[:2], flag, *argv[3:]]) == (code, out, err)

    def test_commands_use_only_what_the_table_parse_reads(self):
        for key, (_, _, arguments) in cli._COMMANDS.items():
            for flag, options in arguments:
                assert set(options) <= {"required", "type", "choices", "default", "help", "metavar"}, (key, flag)
                # argparse would run a str default through `type`; the table parse does not.
                assert not isinstance(options.get("default"), str), (key, flag)
                action = argparse.ArgumentParser().add_argument(flag, **options)
                assert flag.startswith("--") and action.option_strings == [flag], (key, flag)
                assert action.dest == flag[2:], (key, flag)
