import os
import subprocess
import sys

import pytest

import srknots
from srknots.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    def test_zero_poly_normalize_exits_1(self, capsys):
        code, _, err = run(capsys, "poly", "normalize", "--poly", "t - t")
        assert code == 1 and "error:" in err

    def test_out_of_memory_is_a_clean_error(self):
        resource = pytest.importorskip("resource")
        src = os.path.dirname(os.path.dirname(srknots.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))

        def limit_memory():
            # 256 MiB of address space: 2^(10^11) cannot be built within it.
            resource.setrlimit(resource.RLIMIT_AS, (2**28, 2**28))

        done = subprocess.run(
            [sys.executable, "-c", "from srknots.cli import run; run()",
             "poly", "eval", "--poly", "t^100000000000", "--at", "2"],
            env=env, capture_output=True, text=True, timeout=60, preexec_fn=limit_memory,
        )
        assert done.returncode == 1
        assert done.stderr.startswith("error:")
        assert "Traceback" not in done.stderr


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

    def test_invalid_params_exit_1(self, capsys):
        code, _, err = run(capsys, "sr", "factor", "--m", "0", "--l", "0", "--p", "0")
        assert code == 1 and "error:" in err


class TestKnotCommand:
    def test_invariants_line(self, capsys):
        code, out, _ = run(capsys, "knot", "invariants", "--poly", "2 - 5*t + 2*t^2")
        assert code == 0 and out == "delta2=0 det=9 symmetric=true\n"


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

    def test_alexander_rejects_polynomial_entries(self, capsys):
        code, _, err = run(capsys, "seifert", "alexander", "--matrix", "1 - t, 0; 0, 1")
        assert code == 1 and "integer matrix" in err

    def test_ragged_matrix_exits_1(self, capsys):
        code, _, err = run(capsys, "seifert", "det", "--matrix", "1, 0; 1")
        assert code == 1 and "error:" in err


class TestNtCommands:
    def test_pairs(self, capsys):
        code, out, _ = run(capsys, "nt", "pairs", "--m", "4", "--n", "2")
        assert code == 0 and out == "admissible=true family=(2n,n)\n"
        code, out, _ = run(capsys, "nt", "pairs", "--m", "5", "--n", "3")
        assert code == 0 and out == "admissible=false\n"

    def test_catalan_scan(self, capsys):
        code, out, _ = run(capsys, "nt", "scan", "--family", "catalan", "--bounds", "10,10,5,5")
        assert code == 0 and out == "hits=(3,2,2,3)\n"

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

    def test_missing_corpus_exits_1(self, capsys, tmp_path):
        code, _, err = run(capsys, "table", "verify", "--corpus", str(tmp_path / "nope.txt"))
        assert code == 1 and "error:" in err


class TestUsageErrors:
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
