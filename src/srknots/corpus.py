"""The bundled ribbon-knot reference table and its verification harness.

Each record carries a knot name, a yes/no simple-ribbon flag, the delta2 and
determinant values, the normalized Alexander polynomial, and (for yes rows) a
fusion-factor decomposition that regenerates the polynomial.

File format: UTF-8 text, one record per line, six fields separated by '|':

    name|sr_flag|delta2|det|delta_prime|factorization

sr_flag is "yes" or "no"; delta_prime uses the polynomial grammar of
`srknots.laurent` and must already be in normal form; factorization uses the
F(m,l,p) atom format of `srknots.srpoly` and is empty exactly when sr_flag is
"no".  Names are opaque (they may contain '#' and '*').  Files written by
`save_corpus` round-trip byte-exactly through `load_corpus`.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Optional, Sequence

from .invariants import delta2, knot_det
from .laurent import LaurentPoly, NormalForm, equal_up_to_unit, parse
from .srpoly import SRDecomposition, parse_decomposition, product_formula
from .srsearch import Obstruction, SRClassification, Verdict, classify

__all__ = [
    "CorpusError",
    "KnotRecord",
    "RecordReport",
    "bundled_corpus_path",
    "load_corpus",
    "save_corpus",
    "verify_record",
    "verify_corpus",
]

_FIELDS = 6


class CorpusError(ValueError):
    """A malformed corpus file; carries the offending line number."""

    def __init__(self, message: str, lineno: int):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


@dataclass(frozen=True)
class KnotRecord:
    name: str
    sr: bool
    delta2: int
    det: int
    delta_prime: NormalForm
    factorization: Optional[SRDecomposition]

    def __post_init__(self):
        if self.sr and self.factorization is None:
            raise ValueError(f"{self.name}: yes rows carry a factorization")
        if not self.sr and self.factorization is not None:
            raise ValueError(f"{self.name}: no rows carry no factorization")


def bundled_corpus_path() -> Path:
    """Path of the table shipped inside the package."""
    return Path(resources.files("srknots").joinpath("data", "ribbon_table.txt"))


def _parse_record(line: str, lineno: int) -> KnotRecord:
    fields = line.split("|")
    if len(fields) != _FIELDS:
        raise CorpusError(f"expected {_FIELDS} fields, got {len(fields)}", lineno)
    name, flag, d2_text, det_text, poly_text, fact_text = fields
    if not name:
        raise CorpusError("empty knot name", lineno)
    if flag not in ("yes", "no"):
        raise CorpusError(f"sr flag must be yes or no, got {flag!r}", lineno)
    try:
        d2 = int(d2_text)
        det = int(det_text)
    except ValueError:
        raise CorpusError("delta2 and det must be integers", lineno) from None
    if d2 < 0 or det < 1:
        raise CorpusError("delta2 must be >= 0 and det >= 1", lineno)
    try:
        poly = NormalForm(parse(poly_text))
    except ValueError as exc:
        raise CorpusError(f"bad polynomial: {exc}", lineno) from None
    fact = None
    if flag == "yes":
        if not fact_text:
            raise CorpusError("yes rows need a factorization", lineno)
        try:
            fact = parse_decomposition(fact_text)
        except ValueError as exc:
            raise CorpusError(f"bad factorization: {exc}", lineno) from None
    elif fact_text:
        raise CorpusError("no rows must leave the factorization empty", lineno)
    return KnotRecord(name, flag == "yes", d2, det, poly, fact)


def load_corpus(path=None) -> list[KnotRecord]:
    """Load records from `path` (default: the bundled table)."""
    path = Path(path) if path is not None else bundled_corpus_path()
    records = []
    seen = set()
    with open(path, encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.rstrip("\n")
            if not line:
                raise CorpusError("blank line", lineno)
            record = _parse_record(line, lineno)
            if record.name in seen:
                raise CorpusError(f"duplicate knot name {record.name!r}", lineno)
            seen.add(record.name)
            records.append(record)
    return records


def _format_record(record: KnotRecord) -> str:
    fact = str(record.factorization) if record.factorization is not None else ""
    return "|".join(
        (
            record.name,
            "yes" if record.sr else "no",
            str(record.delta2),
            str(record.det),
            str(record.delta_prime),
            fact,
        )
    )


def save_corpus(records: Sequence[KnotRecord], path) -> None:
    """Write records in the canonical byte-stable format."""
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(_format_record(record) + "\n")


@dataclass(frozen=True)
class RecordReport:
    """Per-record verification outcome; factorization_ok is None on no rows."""

    name: str
    delta2_ok: bool
    det_ok: bool
    factorization_ok: Optional[bool]
    classify_ok: bool
    obstruction: Optional[Obstruction]

    @property
    def passed(self) -> bool:
        return (
            self.delta2_ok
            and self.det_ok
            and self.factorization_ok is not False
            and self.classify_ok
        )


def verify_record(record: KnotRecord) -> RecordReport:
    """Check the record against the computational modules.

    (a) delta2 matches, (b) determinant matches, (c) the stored factorization
    regenerates the polynomial up to units, (d) the classification verdict
    matches the yes/no flag.
    """
    dp = record.delta_prime
    d2_ok = delta2(dp) == record.delta2
    det_ok = knot_det(dp) == record.det
    fact_ok = None
    if record.factorization is not None:
        regenerated = product_formula(LaurentPoly.one(), record.factorization)
        fact_ok = equal_up_to_unit(regenerated.poly, dp.poly)
    outcome: SRClassification = classify(dp)
    wanted = Verdict.POLY_COMPATIBLE if record.sr else Verdict.NOT_SR
    return RecordReport(
        name=record.name,
        delta2_ok=d2_ok,
        det_ok=det_ok,
        factorization_ok=fact_ok,
        classify_ok=outcome.verdict is wanted,
        obstruction=outcome.obstruction,
    )


def verify_corpus(records: Sequence[KnotRecord]) -> list[RecordReport]:
    """Verify every record; order of reports matches the input order."""
    return [verify_record(r) for r in records]
