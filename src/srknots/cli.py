"""Command-line interface for batch and scripted use.

Output is plain text, machine-parseable, one result per line; identical
arguments always produce byte-identical stdout.  Exit codes: 0 success,
1 computational failure (bad polynomial, failed verification), 2 usage error.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from . import corpus as corpus_mod
from .invariants import delta2, knot_det, symmetry_check
from .laurent import LaurentPoly, eval_int, normalize, parse
from .numtheory import (
    admissible_pair,
    catalan_scan,
    scan_base_match,
    scan_det_power_products,
    scan_minus_match,
    scan_plus_match,
)
from .seifert import (
    FusionSigns,
    SeifertMatrix,
    alexander_from_seifert,
    closed_form_dets,
    det_P_minus_tQT,
    det_Q_minus_tPT,
    parse_matrix,
    symbolic_det,
)
from .srpoly import SRParams, F_factor, parse_decomposition, product_formula
from .srsearch import Verdict, classify

__all__ = ["main", "run", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="srknots",
        description="Exact Alexander-polynomial toolkit for simple-ribbon knots.",
    )
    groups = parser.add_subparsers(dest="group", required=True)

    poly = groups.add_parser("poly", help="Laurent polynomial operations")
    poly_verbs = poly.add_subparsers(dest="verb", required=True)
    p_eval = poly_verbs.add_parser("eval", help="exact evaluation at an integer")
    p_eval.add_argument("--poly", required=True)
    p_eval.add_argument("--at", required=True, type=int)
    p_norm = poly_verbs.add_parser("normalize", help="canonical normal form")
    p_norm.add_argument("--poly", required=True)

    sr = groups.add_parser("sr", help="fusion factors, products, classification")
    sr_verbs = sr.add_subparsers(dest="verb", required=True)
    s_factor = sr_verbs.add_parser("factor", help="normalized factor F(t;m,l,p)")
    s_factor.add_argument("--m", required=True, type=int)
    s_factor.add_argument("--l", required=True, type=int)
    s_factor.add_argument("--p", required=True, type=int)
    s_product = sr_verbs.add_parser("product", help="product of a factor list")
    s_product.add_argument("--factors", required=True, metavar='"F(m,l,p)*..."')
    s_classify = sr_verbs.add_parser("classify", help="verdict and certificates")
    s_classify.add_argument("--poly", required=True)

    knot = groups.add_parser("knot", help="scalar invariants")
    knot_verbs = knot.add_subparsers(dest="verb", required=True)
    k_inv = knot_verbs.add_parser("invariants", help="delta2, determinant, symmetry")
    k_inv.add_argument("--poly", required=True)

    seifert = groups.add_parser("seifert", help="fusion block determinants")
    seifert_verbs = seifert.add_subparsers(dest="verb", required=True)
    se_check = seifert_verbs.add_parser("check", help="both determinants vs closed forms")
    se_check.add_argument("--m", required=True, type=int)
    se_check.add_argument("--l", required=True, type=int)
    se_check.add_argument("--eps", required=True, metavar="+1,-1,...")
    se_det = seifert_verbs.add_parser("det", help="symbolic determinant of a matrix")
    se_det.add_argument("--matrix", required=True, metavar='"1 - t, 0; t, 1"')
    se_alex = seifert_verbs.add_parser(
        "alexander", help="normalized |M - t M^T| of an integer matrix"
    )
    se_alex.add_argument("--matrix", required=True, metavar='"-1,1;0,-1"')

    nt = groups.add_parser("nt", help="integer scans and pair classification")
    nt_verbs = nt.add_subparsers(dest="verb", required=True)
    n_pairs = nt_verbs.add_parser("pairs", help="band-count pair admissibility")
    n_pairs.add_argument("--m", required=True, type=int)
    n_pairs.add_argument("--n", required=True, type=int)
    n_scan = nt_verbs.add_parser("scan", help="bounded brute-force scans")
    n_scan.add_argument(
        "--family",
        required=True,
        choices=["catalan", "minus", "base", "plus", "det-powers"],
    )
    n_scan.add_argument("--bounds", required=True, metavar="a,b[,c,d]")

    table = groups.add_parser("table", help="reference table verification")
    table_verbs = table.add_subparsers(dest="verb", required=True)
    t_verify = table_verbs.add_parser("verify", help="re-check every table row")
    t_verify.add_argument("--corpus", default=None, help="path (default: bundled table)")

    return parser


def _parse_eps(text: str, m: int) -> tuple[int, ...]:
    try:
        eps = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise ValueError(f"bad sign list {text!r}") from None
    if len(eps) != m:
        raise ValueError(f"expected {m} band signs, got {len(eps)}")
    return eps


def _parse_bounds(text: str, count: int) -> tuple[int, ...]:
    try:
        bounds = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise ValueError(f"bad bounds {text!r}") from None
    if len(bounds) != count:
        raise ValueError(f"expected {count} comma-separated bounds, got {len(bounds)}")
    return bounds


def _bool_text(flag: bool) -> str:
    return "true" if flag else "false"


def _fmt_hits(hits) -> str:
    return ";".join("(" + ",".join(str(x) for x in hit) + ")" for hit in hits)


def _cmd_poly(args) -> int:
    p = parse(args.poly)
    if args.verb == "eval":
        print(eval_int(p, args.at))
    else:
        print(normalize(p))
    return 0


def _cmd_sr(args) -> int:
    if args.verb == "factor":
        print(F_factor(SRParams(args.m, args.l, args.p)))
    elif args.verb == "product":
        decomposition = parse_decomposition(args.factors)
        print(product_formula(LaurentPoly.one(), decomposition))
    else:
        outcome = classify(normalize(parse(args.poly)))
        if outcome.verdict is Verdict.POLY_COMPATIBLE:
            certs = ";".join(str(d) for d in outcome.decompositions)
            print(f"POLY_COMPATIBLE certificates={certs}")
        else:
            print(f"NOT_SR obstruction={outcome.obstruction.value}")
    return 0


def _cmd_knot(args) -> int:
    dp = normalize(parse(args.poly))
    print(
        f"delta2={delta2(dp)} det={knot_det(dp)} "
        f"symmetric={_bool_text(symmetry_check(dp))}"
    )
    return 0


def _cmd_seifert(args) -> int:
    if args.verb == "det":
        print(symbolic_det(parse_matrix(args.matrix)))
        return 0
    if args.verb == "alexander":
        rows = parse_matrix(args.matrix)
        entries = []
        for row in rows:
            ints = []
            for entry in row:
                if not entry.is_zero and (entry.min_exp != 0 or entry.span != 0):
                    raise ValueError("alexander expects an integer matrix")
                ints.append(entry.coeff(0))
            entries.append(tuple(ints))
        print(alexander_from_seifert(SeifertMatrix(tuple(entries))))
        return 0
    signs = FusionSigns(_parse_eps(args.eps, args.m), args.l)
    det_p = det_P_minus_tQT(signs)
    det_q = det_Q_minus_tPT(signs)
    closed_p, closed_q = closed_form_dets(signs)
    print(f"det_P={det_p}")
    print(f"det_Q={det_q}")
    print(f"closed_P={closed_p}")
    print(f"closed_Q={closed_q}")
    print(f"agree={_bool_text(det_p == closed_p and det_q == closed_q)}")
    return 0


def _cmd_nt(args) -> int:
    if args.verb == "pairs":
        verdict = admissible_pair(args.m, args.n)
        if verdict.admissible:
            print(f"admissible=true family={verdict.family}")
        else:
            print("admissible=false")
        return 0
    family = args.family
    if family == "catalan":
        x_max, y_max, u_max, v_max = _parse_bounds(args.bounds, 4)
        print(f"hits={_fmt_hits(catalan_scan(x_max, y_max, u_max, v_max))}")
    elif family == "minus":
        a_max, m_max = _parse_bounds(args.bounds, 2)
        print(f"hits={_fmt_hits(scan_minus_match(a_max, m_max))}")
    elif family == "base":
        a_max, e_max = _parse_bounds(args.bounds, 2)
        odd_hits, even_hits = scan_base_match(a_max, e_max)
        print(f"odd_hits={_fmt_hits(odd_hits)}")
        print(f"even_hits={_fmt_hits(even_hits)}")
    elif family == "plus":
        a_max, m_max = _parse_bounds(args.bounds, 2)
        plus_plus, plus_minus = scan_plus_match(a_max, m_max)
        print(f"plus_plus_hits={_fmt_hits(plus_plus)}")
        print(f"plus_minus_hits={_fmt_hits(plus_minus)}")
    else:
        m_max, e_max = _parse_bounds(args.bounds, 2)
        shapes = scan_det_power_products(m_max, e_max)
        for i, hits in enumerate(shapes, start=1):
            print(f"shape{i}={_fmt_hits(hits)}")
    return 0


def _cmd_table(args) -> int:
    records = corpus_mod.load_corpus(args.corpus)
    reports = corpus_mod.verify_corpus(records)
    passed = 0
    for report in reports:
        fact = "n/a" if report.factorization_ok is None else _ok(report.factorization_ok)
        print(
            f"row={report.name} delta2={_ok(report.delta2_ok)} det={_ok(report.det_ok)} "
            f"factorization={fact} classify={_ok(report.classify_ok)}"
        )
        passed += report.passed
    print(f"verified={passed}/{len(reports)}")
    return 0 if passed == len(reports) else 1


def _ok(flag: bool) -> str:
    return "ok" if flag else "FAIL"


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "poly": _cmd_poly,
        "sr": _cmd_sr,
        "knot": _cmd_knot,
        "seifert": _cmd_seifert,
        "nt": _cmd_nt,
        "table": _cmd_table,
    }
    try:
        return handlers[args.group](args)
    except (ValueError, ZeroDivisionError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 1


def run() -> None:
    raise SystemExit(main())
