"""Command-line interface for batch and scripted use.

Output is plain text, machine-parseable, one result per line; identical
arguments always produce byte-identical stdout.  Exit codes: 0 success,
1 computational failure (bad polynomial, failed verification), 2 usage error.

One table, `_COMMANDS`, describes every leaf (`srknots <group> <verb>`):
its command, help and flags.  When argv names a leaf, its flags are read
straight from that row, without argparse (`_table_parse`).  The nested
argparse parser, built from the same table, runs only for help (-h), "--",
an abbreviated, unknown or missing flag, a flag with no value, a value
that the flag's type or choices reject or that argparse may read as an
option, and argv that names no leaf; so help, usage and every error stay
argparse's.  Either way `main` runs `args.command(args)`.  A command
prints its result and returns None, or an exit code other than 0.
"""

from __future__ import annotations

import argparse
import functools
import math
import re
import sys
from typing import Optional, Sequence

from . import corpus as corpus_mod
from .invariants import delta2, knot_det, symmetry_check
from .laurent import eval_int, normalize, parse
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
    block_dets,
    closed_form_dets,
    parse_int_matrix,
    parse_matrix,
    symbolic_det,
)
from .srpoly import SRParams, F_factor, parse_decomposition, product_formula
from .srsearch import Verdict, classify

__all__ = ["main", "run", "build_parser"]


def _parse_ints(text: str, count: int, what: str) -> tuple[int, ...]:
    """`count` comma-separated integers; `what` names them in the errors."""
    try:
        values = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise ValueError(f"bad {what} {text!r}") from None
    if len(values) != count:
        raise ValueError(f"expected {count} comma-separated {what}, got {len(values)}")
    return values


def _word(flag: bool, words: tuple[str, str] = ("false", "true")) -> str:
    """`flag` as text: words[1] when it holds, words[0] when not."""
    return words[bool(flag)]


# `poly eval` forms x^(e - v) for every term t^e, with v = min(min_exp, 0),
# and x^-v as the denominator.  Forming 3^e takes about 0.08 s for a
# 1.3-million-bit power, 0.58 s at 5.3 million bits and 2.2 s at 10.6
# million (2-core x86-64 VM, Python 3.11), so an evaluation whose powers
# hold more bits than this in all is refused before any is formed.
_EVAL_BITS = 5_000_000


def _eval_bits(p, x: int) -> int:
    """Bits of the powers of x that `eval_int(p, x)` forms."""
    if p.is_zero or abs(x) < 2:
        return 0
    v = min(p.min_exp, 0)
    return math.ceil((sum(e - v for e in p.terms) - v) * math.log2(abs(x)))


def _poly_eval(args) -> None:
    p = parse(args.poly)
    bits = _eval_bits(p, args.at)
    if bits > _EVAL_BITS:
        raise ValueError(
            f"evaluation forms powers of {bits:,} bits, "
            f"above the budget of {_EVAL_BITS:,} bits"
        )
    print(eval_int(p, args.at))


def _poly_normalize(args) -> None:
    print(normalize(parse(args.poly)))


def _sr_factor(args) -> None:
    print(F_factor(SRParams(args.m, args.l, args.p)))


def _sr_product(args) -> None:
    print(product_formula(parse_decomposition(args.factors)))


def _sr_classify(args) -> None:
    outcome = classify(normalize(parse(args.poly)))
    if outcome.verdict is Verdict.POLY_COMPATIBLE:
        print("POLY_COMPATIBLE certificates=" + ";".join(str(d) for d in outcome.decompositions))
    else:
        print(f"NOT_SR obstruction={outcome.obstruction.value}")


def _knot_invariants(args) -> None:
    dp = normalize(parse(args.poly))
    print(f"delta2={delta2(dp)} det={knot_det(dp)} symmetric={_word(symmetry_check(dp))}")


def _seifert_check(args) -> None:
    signs = FusionSigns(_parse_ints(args.eps, args.m, "band signs"), args.l)
    det_p, det_q = block_dets(signs)
    closed_p, closed_q = closed_form_dets(signs)
    print(f"det_P={det_p}\ndet_Q={det_q}\nclosed_P={closed_p}\nclosed_Q={closed_q}")
    print(f"agree={_word(det_p == closed_p and det_q == closed_q)}")


def _seifert_det(args) -> None:
    print(symbolic_det(parse_matrix(args.matrix)))


def _seifert_alexander(args) -> None:
    print(alexander_from_seifert(SeifertMatrix(parse_int_matrix(args.matrix))))


def _nt_pairs(args) -> None:
    family = admissible_pair(args.m, args.n)
    print("admissible=false" if family is None else f"admissible=true family={family}")


# `nt scan --family`: family -> (number of bounds, scan, labels of the hit
# lists the scan returns; a scan with one label returns one list).
_SCANS = {
    "catalan": (4, catalan_scan, ("hits",)),
    "minus": (2, scan_minus_match, ("hits",)),
    "base": (2, scan_base_match, ("odd_hits", "even_hits")),
    "plus": (2, scan_plus_match, ("plus_plus_hits", "plus_minus_hits")),
    "det-powers": (2, scan_det_power_products, tuple(f"shape{i}" for i in range(1, 7))),
}


def _nt_scan(args) -> None:
    count, scan, labels = _SCANS[args.family]
    found = scan(*_parse_ints(args.bounds, count, "bounds"))
    for label, hits in zip(labels, found if len(labels) > 1 else [found]):
        print(f"{label}=" + ";".join("(" + ",".join(map(str, hit)) + ")" for hit in hits))


def _table_verify(args) -> int:
    reports = corpus_mod.verify_corpus(corpus_mod.load_corpus(args.corpus))
    for report in reports:
        flags = report.delta2_ok, report.det_ok, report.factorization_ok, report.classify_ok
        d2, det, fact, cls = ("n/a" if f is None else _word(f, ("FAIL", "ok")) for f in flags)
        print(f"row={report.name} delta2={d2} det={det} factorization={fact} classify={cls}")
    passed = sum(report.passed for report in reports)
    print(f"verified={passed}/{len(reports)}")
    return 0 if passed == len(reports) else 1


# Each group's help in `srknots -h`.
_GROUPS = {
    "poly": "Laurent polynomial operations",
    "sr": "fusion factors, products, classification",
    "knot": "scalar invariants",
    "seifert": "fusion block determinants",
    "nt": "integer scans and pair classification",
    "table": "reference table verification",
}


def _required(flag: str, **options) -> tuple:
    return flag, {"required": True, **options}


_POLY = (_required("--poly"),)


def _ints(*flags: str) -> tuple:
    return tuple(_required(flag, type=int) for flag in flags)


# The CLI: (group, verb) -> (command, help, the leaf's (flag, options) arguments).
_COMMANDS = {
    ("poly", "eval"): (_poly_eval, "exact evaluation at an integer", _POLY + _ints("--at")),
    ("poly", "normalize"): (_poly_normalize, "canonical normal form", _POLY),
    ("sr", "factor"): (_sr_factor, "normalized factor F(t;m,l,p)", _ints("--m", "--l", "--p")),
    ("sr", "product"): (
        _sr_product, "product of a factor list", (_required("--factors", metavar='"F(m,l,p)*..."'),)
    ),
    ("sr", "classify"): (_sr_classify, "verdict and certificates", _POLY),
    ("knot", "invariants"): (_knot_invariants, "delta2, determinant, symmetry", _POLY),
    ("seifert", "check"): (
        _seifert_check,
        "both determinants vs closed forms",
        _ints("--m", "--l") + (_required("--eps", metavar="+1,-1,..."),),
    ),
    ("seifert", "det"): (
        _seifert_det,
        "symbolic determinant of a matrix",
        (_required("--matrix", metavar='"1 - t, 0; t, 1"'),),
    ),
    ("seifert", "alexander"): (
        _seifert_alexander,
        "normalized |M - t M^T| of an integer matrix",
        (_required("--matrix", metavar='"-1,1;0,-1"'),),
    ),
    ("nt", "pairs"): (_nt_pairs, "band-count pair admissibility", _ints("--m", "--n")),
    ("nt", "scan"): (
        _nt_scan,
        "bounded brute-force scans",
        (_required("--family", choices=_SCANS), _required("--bounds", metavar="a,b[,c,d]")),
    ),
    ("table", "verify"): (
        _table_verify,
        "re-check every table row",
        (("--corpus", {"default": None, "help": "path (default: bundled table)"}),),
    ),
}


def _fill(leaf: argparse.ArgumentParser, key: tuple) -> argparse.ArgumentParser:
    """Give a leaf parser the command and arguments of `_COMMANDS[key]`."""
    command, _, arguments = _COMMANDS[key]
    leaf.set_defaults(command=command)
    for flag, options in arguments:
        leaf.add_argument(flag, **options)
    return leaf


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The whole nested parser, from `_GROUPS` and `_COMMANDS`, built on first use.

    Only help, usage, errors and the argv forms that `_table_parse` leaves
    to argparse need it (see `_parse_args`).
    """
    parser = argparse.ArgumentParser(
        prog="srknots",
        description="Exact Alexander-polynomial toolkit for simple-ribbon knots.",
    )
    groups = parser.add_subparsers(dest="group", required=True)
    verbs = {
        name: groups.add_parser(name, help=help).add_subparsers(dest="verb", required=True)
        for name, help in _GROUPS.items()
    }
    for (name, verb), (_, help, _) in _COMMANDS.items():
        _fill(verbs[name].add_parser(verb, help=help), (name, verb))
    return parser


_NEGATIVE_INT = re.compile(r"-\d+")


def _is_value(token: str) -> bool:
    """Whether argparse reads `token`, after a flag, as that flag's value.

    This is the part of `_parse_optional` (Python 3.10 and 3.11) that holds
    for a leaf, whose only short option is -h: a token that does not start
    with "-", "-" alone, a negative integer, or a token with a space that
    no option string can start.  Other tokens argparse may read as options.
    """
    return (
        token[:1] != "-"
        or token == "-"
        or _NEGATIVE_INT.fullmatch(token) is not None
        or (" " in token and not token.startswith(("-h", "--")))
    )


def _table_parse(key: tuple, tokens: list) -> Optional[argparse.Namespace]:
    """The leaf `_COMMANDS[key]`'s parse of `tokens`, read from the table.

    Reads `--flag value` and `--flag=value` for the leaf's own flags; the
    last of a repeated flag wins.  Each value goes through the row's `type`
    and `choices`, flags not given take their `default`, and the result is
    what the nested parse gives.  Returns None where that parse may differ
    or fail: an unknown or abbreviated flag, -h, "--" (also as `--flag=--`),
    a missing value or flag, a value that `type` or `choices` rejects, a
    value that argparse may read as an option (see `_is_value`).
    """
    command, _, arguments = _COMMANDS[key]
    options = dict(arguments)
    given = {}
    at = 0
    while at < len(tokens):
        flag, equals, value = tokens[at].partition("=")
        at += 1
        if flag not in options:
            return None
        if not equals:
            if at == len(tokens) or not _is_value(tokens[at]):
                return None
            value = tokens[at]
            at += 1
        elif value == "--":  # argparse drops it and gives the flag []
            return None
        spec = options[flag]
        if "type" in spec:
            try:
                value = spec["type"](value)
            except (TypeError, ValueError):
                return None
        if "choices" in spec and value not in spec["choices"]:
            return None
        given[flag] = value
    args = argparse.Namespace(command=command)
    for flag, spec in arguments:
        if flag in given:
            setattr(args, flag[2:], given[flag])
        elif spec.get("required"):
            return None
        else:
            setattr(args, flag[2:], spec.get("default"))
    return args


def _parse_args(argv: list) -> argparse.Namespace:
    """`build_parser().parse_args(argv)`, without argparse where the table suffices.

    When argv starts with a group and a verb, `_table_parse` reads the rest
    from that leaf's `_COMMANDS` row.  Any other argv, and any the table
    parse gives up on, takes the nested parse, so help, usage and every
    error stay argparse's.  argparse reads `--flag=--` as the flag with its
    "--" dropped and gives it []; that is a usage error here.
    """
    key = tuple(argv[:2])
    if key in _COMMANDS:
        args = _table_parse(key, argv[2:])
        if args is not None:
            return args
    args = build_parser().parse_args(argv)
    for name, value in vars(args).items():
        if isinstance(value, list):
            leaf = argparse.ArgumentParser(prog=f"srknots {args.group} {args.verb}")
            _fill(leaf, (args.group, args.verb)).error(f"argument --{name}: expected one argument")
    return args


def _message(exc: Exception) -> str:
    """The error text, with Python's int <-> str cap stated as this command's limit."""
    if isinstance(exc, ValueError) and "integer string conversion" in str(exc):
        return f"a value has more than {sys.get_int_max_str_digits()} digits, the limit of this command"
    return str(exc)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one command and return its exit code.

    Python's int <-> str cap stays as the caller set it; `run` raises it.
    """
    args = _parse_args(sys.argv[1:] if argv is None else list(argv))
    try:
        return args.command(args) or 0
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {_message(exc)}", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 1


# Exact values (delta2 of a wide polynomial, an evaluation, a coefficient
# literal) run past Python's default 4,300-digit cap on int <-> str
# conversion.  The command raises the cap, but keeps it finite: before
# Python 3.12 that conversion is quadratic (a 400,000-digit int prints in
# about 3 s on a 2-core x86-64 VM under Python 3.11), so anything longer
# ends with `error:` and exit 1 instead of printing for minutes.
_INT_STR_DIGITS = 400_000


def run() -> None:
    """Process entry point: set the int <-> str cap once, then run main."""
    sys.set_int_max_str_digits(_INT_STR_DIGITS)
    raise SystemExit(main())


if __name__ == "__main__":
    run()
