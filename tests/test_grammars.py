"""Fuzz tests for the polynomial, matrix, decomposition and corpus row text grammars.

Printed forms must parse back to the same value, and any text must either
parse or raise ValueError (the parse errors subclass it), never another
exception.  A polynomial raises PolyParseError, whose position lies in the
text, and a corpus row raises CorpusError, which names its line.
"""

import re
import sys

import pytest
from hypothesis import given, settings, strategies as st

from srknots.corpus import CorpusError, KnotRecord, _parse_record
from srknots.laurent import LaurentPoly, PolyParseError, normalize, parse
from srknots import seifert
from srknots.seifert import parse_int_matrix, parse_matrix
from srknots.srpoly import SRDecomposition, SRParams, parse_decomposition

coeffs = st.integers(min_value=-(2**80), max_value=2**80)
exponents = st.integers(min_value=-(10**12), max_value=10**12)
polys = st.dictionaries(exponents, coeffs, max_size=5).map(LaurentPoly)


@st.composite
def matrices(draw):
    rows = draw(st.integers(min_value=1, max_value=5))
    cols = draw(st.integers(min_value=1, max_value=5))
    return [[draw(polys) for _ in range(cols)] for _ in range(rows)]


@st.composite
def sr_params(draw):
    m = draw(st.integers(min_value=1, max_value=60))
    p = draw(st.integers(min_value=0, max_value=m))
    return SRParams(m, draw(st.integers(min_value=-(10**9), max_value=10**9)), p)


decompositions = st.lists(sr_params(), max_size=6).map(lambda fs: SRDecomposition(tuple(fs)))


def token_soup(*tokens):
    """Text glued from grammar tokens, so that draws get past the first few characters."""
    return st.lists(st.sampled_from(tokens), max_size=16).map("".join)


entry_text = st.one_of(
    polys.map(str), polys.map(str), token_soup("1", "-3", "t", "t^-2", "2*t^5", "+", "-", "*", "^", " ", "x")
)
# Rows of mostly valid entries, of varying lengths.
matrix_text = st.lists(
    st.lists(entry_text, min_size=1, max_size=4).map(",".join), min_size=1, max_size=4
).map(";".join)
decomposition_text = token_soup(
    "F(1,0,0)", "F(3,-2,1)", "F(2,5,3)", "F(0,1,0)", "F(", ",", ")", "-", "7", "*", "1", " ", "G"
)


poly_text = token_soup("1", "-3", "07", "t", "t^-2", "2*t^5", "+", "-", "*", "^", " ", "\t", "x", ",")


def parses_or_names_its_position(text):
    try:
        parse(text)
    except PolyParseError as exc:
        assert 0 <= exc.position <= len(text), (text, exc.position)


_TOKEN = re.compile(r"\s*(?:(?P<int>\d+)|(?P<t>t)|(?P<op>[*^+\-]))")


def reference_tokenize(text: str):
    pos = 0
    tokens = []
    n = len(text)
    while pos < n:
        m = _TOKEN.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise PolyParseError(f"unexpected character {stripped[0]!r}", pos)
        if m.lastgroup == "int":
            try:
                value = int(m.group("int"))
            except ValueError:  # more digits than Python's int <-> str cap
                raise PolyParseError(
                    f"integer literal has more than {sys.get_int_max_str_digits()} digits",
                    m.start("int"),
                ) from None
            tokens.append(("int", value, m.start("int")))
        elif m.lastgroup == "t":
            tokens.append(("t", "t", m.start("t")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    return tokens


def reference_parse(text: str) -> LaurentPoly:
    """The token-list parser that `parse` replaced, kept as its reference."""
    tokens = reference_tokenize(text)
    if not tokens:
        raise PolyParseError("empty polynomial text", 0)
    pos = 0
    total: dict[int, int] = {}
    end = len(tokens)

    def peek():
        return tokens[pos] if pos < end else ("end", None, len(text))

    def take():
        nonlocal pos
        tok = peek()
        pos += 1
        return tok

    def parse_exponent() -> int:
        kind, val, at = peek()
        sign = 1
        if kind == "op" and val in "+-":
            take()
            sign = -1 if val == "-" else 1
            kind, val, at = peek()
        if kind != "int":
            raise PolyParseError("expected an exponent after '^'", at)
        take()
        return sign * val

    def parse_term(sign: int) -> tuple[int, int]:
        """(exponent, coefficient) of the next term."""
        kind, val, at = peek()
        coeff = sign
        if kind == "int":
            take()
            coeff = sign * val
            kind, val, _ = peek()
            if kind != "op" or val != "*":
                return 0, coeff
            take()
            kind, _, at = peek()
            if kind != "t":
                raise PolyParseError("expected 't' after '*'", at)
        elif kind != "t":
            raise PolyParseError("expected a term", at)
        take()
        exp = 1
        kind, val, _ = peek()
        if kind == "op" and val == "^":
            take()
            exp = parse_exponent()
        return exp, coeff

    sign = 1
    kind, val, _ = peek()
    if kind == "op" and val == "-":
        take()
        sign = -1
    while True:
        exp, coeff = parse_term(sign)
        total[exp] = total.get(exp, 0) + coeff
        if pos == end:
            return LaurentPoly(total)
        kind, val, at = take()
        if kind != "op" or val not in "+-":
            raise PolyParseError("expected '+' or '-' between terms", at)
        sign = -1 if val == "-" else 1


def parsed_or_error(parser, text):
    try:
        return parser(text)
    except PolyParseError as exc:
        return str(exc), exc.position


# Characters of every token, whitespace `\s` takes and `str.strip` too, a
# digit `\d` takes and `int` reads, and characters of no token.
poly_chars = st.text(alphabet="0123456789t*^+- \t\n\x1c\x85\u00a0\u0663xT,.", max_size=24)


class TestPolyGrammar:
    @given(st.one_of(poly_text, entry_text, poly_chars, st.text(max_size=40)))
    @settings(deadline=None, max_examples=500)
    def test_same_as_the_token_parser(self, text):
        assert parsed_or_error(parse, text) == parsed_or_error(reference_parse, text)

    @pytest.mark.parametrize("text", [
        "1" * 5000, "t^" + "1" * 5000, "1 + + " + "1" * 5000, "1" * 5000 + " x",
        "x " + "1" * 5000, "2*t^" + "1" * 5000 + " y", "1 +  " + "2" * 5000 + "*",
    ])
    def test_same_as_the_token_parser_on_literals_above_the_digit_cap(self, text):
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
        try:
            assert parsed_or_error(parse, text) == parsed_or_error(reference_parse, text)
        finally:
            sys.set_int_max_str_digits(limit)

    @given(poly_text)
    @settings(deadline=None)
    def test_near_grammar_text_parses_or_names_its_position(self, text):
        parses_or_names_its_position(text)

    @given(st.text(max_size=40))
    @settings(deadline=None)
    def test_any_text_parses_or_names_its_position(self, text):
        parses_or_names_its_position(text)


def print_matrix(rows):
    return "; ".join(", ".join(str(entry) for entry in row) for row in rows)


def parses_or_value_error(parser, text):
    try:
        parser(text)
    except ValueError:
        pass


class TestMatrixGrammar:
    @given(matrices())
    @settings(deadline=None)
    def test_printed_matrix_round_trips(self, rows):
        assert parse_matrix(print_matrix(rows)) == rows

    @given(matrix_text)
    @settings(deadline=None)
    def test_near_grammar_text_parses_or_raises_value_error(self, text):
        parses_or_value_error(parse_matrix, text)

    @given(st.text(max_size=40))
    @settings(deadline=None)
    def test_any_text_parses_or_raises_value_error(self, text):
        parses_or_value_error(parse_matrix, text)

    def test_ragged_rows_raise_value_error(self):
        with pytest.raises(ValueError, match="same length"):
            parse_matrix("1, t; 1")


def int_rows_by_grammar(text):
    """Integer rows read through the polynomial grammar, the reference route."""
    rows = parse_matrix(text)
    for row in rows:
        for entry in row:
            if not entry.is_zero and (entry.min_exp != 0 or entry.span != 0):
                raise ValueError("alexander expects an integer matrix")
    return [tuple(entry.coeff(0) for entry in row) for row in rows]


def result_or_message(parser, text):
    try:
        return parser(text)
    except ValueError as exc:
        return str(exc)


int_matrices = st.integers(1, 6).flatmap(
    lambda n: st.lists(st.lists(st.integers(-(2**70), 2**70), min_size=n, max_size=n), min_size=1, max_size=6)
)


class TestIntegerMatrixText:
    @given(int_matrices)
    @settings(deadline=None)
    def test_plain_text_skips_the_grammar(self, rows):
        text = ";".join(",".join(map(str, row)) for row in rows)
        want = int_rows_by_grammar(text)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(seifert, "parse", None)
            assert parse_int_matrix(text) == want == [tuple(row) for row in rows]

    @given(st.one_of(matrix_text, token_soup("1", "-2", "007", "-0", ",", ";", " ", "t", "*", "^0", "+")))
    @settings(deadline=None)
    def test_any_text_reads_as_by_the_grammar(self, text):
        assert result_or_message(parse_int_matrix, text) == result_or_message(int_rows_by_grammar, text)

    @pytest.mark.parametrize("text", [
        "3*t^0,1;0,1", " -2 ,1;0,1", "1 - t + t,0;0,1", "1,2;3", "1,2;3,4,5", "1,t;0,1",
        "1;2", "-1,1;0,-1", "007,-0;1,1", "1,,2", "", ";", "1,2;", "+1,2;3,4",
    ])
    def test_examples(self, text):
        assert result_or_message(parse_int_matrix, text) == result_or_message(int_rows_by_grammar, text)


class TestDecompositionGrammar:
    @given(decompositions)
    @settings(deadline=None)
    def test_printed_decomposition_round_trips(self, decomposition):
        assert parse_decomposition(str(decomposition)) == decomposition

    @given(decomposition_text)
    @settings(deadline=None)
    def test_near_grammar_text_parses_or_raises_value_error(self, text):
        parses_or_value_error(parse_decomposition, text)

    @given(st.text(max_size=40))
    @settings(deadline=None)
    def test_any_text_parses_or_raises_value_error(self, text):
        parses_or_value_error(parse_decomposition, text)


names = st.text(
    st.characters(blacklist_characters="|\n\r", blacklist_categories=("Cs",)), min_size=1, max_size=12
)
normal_forms = polys.filter(lambda p: not p.is_zero).map(normalize)


@st.composite
def knot_records(draw):
    sr = draw(st.booleans())
    return KnotRecord(
        name=draw(names),
        sr=sr,
        delta2=draw(st.integers(min_value=0, max_value=2**100)),
        det=draw(st.integers(min_value=1, max_value=2**100)),
        delta_prime=draw(normal_forms),
        factorization=draw(decompositions) if sr else None,
    )


def print_record(record):
    return "|".join((
        record.name,
        "yes" if record.sr else "no",
        str(record.delta2),
        str(record.det),
        str(record.delta_prime),
        "" if record.factorization is None else str(record.factorization),
    ))


# Six fields, each valid or near it, and rows with other field counts.
int_field = st.one_of(
    st.integers(min_value=-5, max_value=2**70).map(str), st.sampled_from(["", "x", "1_000", " 7 ", "0x10"])
)
row_text = st.one_of(
    st.tuples(
        st.one_of(names, st.just("")),
        st.sampled_from(["yes", "no", "", "YES", "x"]),
        int_field,
        int_field,
        st.one_of(normal_forms.map(str), entry_text),
        st.one_of(st.just(""), decompositions.map(str), decomposition_text),
    ).map("|".join),
    st.lists(st.one_of(names, entry_text, decomposition_text), max_size=8).map("|".join),
)


def parses_or_names_its_line(text, lineno):
    try:
        _parse_record(text, lineno)
    except CorpusError as exc:
        assert exc.lineno == lineno
        assert str(exc).startswith(f"line {lineno}: ")


class TestCorpusRowGrammar:
    @given(knot_records(), st.integers(min_value=1, max_value=10**6))
    @settings(deadline=None)
    def test_printed_row_round_trips(self, record, lineno):
        assert _parse_record(print_record(record), lineno) == record

    @given(row_text, st.integers(min_value=1, max_value=10**6))
    @settings(deadline=None)
    def test_near_grammar_text_parses_or_names_its_line(self, text, lineno):
        parses_or_names_its_line(text, lineno)

    @given(st.text(max_size=60), st.integers(min_value=1, max_value=10**6))
    @settings(deadline=None)
    def test_any_text_parses_or_names_its_line(self, text, lineno):
        parses_or_names_its_line(text, lineno)

    def test_six_fields_with_bad_values_name_the_line(self):
        for text in ("a|maybe|0|1|1|", "a|no|x|1|1|", "a|no|0|0|1|", "a|no|0|1|t - 1|",
                     "a|yes|0|1|1|", "a|yes|0|1|1|G", "a|no|0|1|1|F(2,0,0)", "|no|0|1|1|"):
            with pytest.raises(CorpusError, match="^line 17: "):
                _parse_record(text, 17)
