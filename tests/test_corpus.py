import hashlib
import re
from pathlib import Path

import pytest

from srknots.corpus import (
    CorpusError,
    KnotRecord,
    bundled_corpus_path,
    load_corpus,
    verify_corpus,
    verify_record,
)
from srknots.laurent import NormalForm, parse
from srknots.srpoly import SRDecomposition, SRParams
from srknots.srsearch import Obstruction


@pytest.fixture(scope="module")
def records():
    return load_corpus()


class TestLoad:
    def test_bundled_table_has_25_records(self, records):
        assert len(records) == 25

    def test_spot_rows(self, records):
        by_name = {r.name: r for r in records}
        row = by_name["6_1"]
        assert row.sr and row.delta2 == 0 and row.det == 9
        assert str(row.delta_prime) == "2 - 5*t + 2*t^2"
        assert row.factorization == SRDecomposition((SRParams(2, 0, 0),))

        row = by_name["10_48"]
        assert not row.sr and row.delta2 == 91 and row.det == 49
        assert str(row.delta_prime) == (
            "1 - 3*t + 6*t^2 - 9*t^3 + 11*t^4 - 9*t^5 + 6*t^6 - 3*t^7 + t^8"
        )
        assert row.factorization is None

        row = by_name["10_99"]
        assert len(row.factorization) == 2

    def test_connected_sum_names_are_verbatim(self, records):
        names = {r.name for r in records}
        assert {"3_1#3_1*", "4_1#4_1", "5_1#5_1*", "5_2#5_2*"} <= names

    def test_round_trip_is_bit_exact(self, records):
        # The bundled file is in canonical form: each line is exactly the
        # printed fields of the record it loads as.
        lines = [
            "|".join(
                (
                    r.name,
                    "yes" if r.sr else "no",
                    str(r.delta2),
                    str(r.det),
                    str(r.delta_prime),
                    "" if r.factorization is None else str(r.factorization),
                )
            )
            + "\n"
            for r in records
        ]
        assert "".join(lines).encode("utf-8") == bundled_corpus_path().read_bytes()

    def test_readme_hash_matches_bundled_file(self):
        readme = Path(__file__).resolve().parents[1] / "README.md"
        hashes = re.findall(r"^[0-9a-f]{64}$", readme.read_text(encoding="utf-8"), re.M)
        digest = hashlib.sha256(bundled_corpus_path().read_bytes()).hexdigest()
        assert hashes == [digest]


class TestLoadErrors:
    def write(self, tmp_path, text):
        path = tmp_path / "bad.txt"
        path.write_text(text, encoding="utf-8")
        return path

    def test_field_count(self, tmp_path):
        path = self.write(tmp_path, "k|yes|0|9|1 - t + t^2\n")
        with pytest.raises(CorpusError) as err:
            load_corpus(path)
        assert err.value.lineno == 1

    def test_duplicate_name(self, tmp_path):
        line = "k|no|1|9|2 - 5*t + 2*t^2|\n"
        path = self.write(tmp_path, line + line)
        with pytest.raises(CorpusError, match="duplicate"):
            load_corpus(path)

    def test_yes_row_needs_factorization(self, tmp_path):
        path = self.write(tmp_path, "k|yes|0|9|2 - 5*t + 2*t^2|\n")
        with pytest.raises(CorpusError, match="factorization"):
            load_corpus(path)

    def test_no_row_must_not_have_factorization(self, tmp_path):
        path = self.write(tmp_path, "k|no|0|9|2 - 5*t + 2*t^2|F(2,0,0)\n")
        with pytest.raises(CorpusError):
            load_corpus(path)

    def test_polynomial_must_be_normal_form(self, tmp_path):
        path = self.write(tmp_path, "k|no|1|9|t - 2*t^2|\n")
        with pytest.raises(CorpusError, match="polynomial"):
            load_corpus(path)

    def test_bad_flag(self, tmp_path):
        path = self.write(tmp_path, "k|maybe|1|9|2 - 5*t + 2*t^2|\n")
        with pytest.raises(CorpusError, match="flag"):
            load_corpus(path)


class TestVerifyRecord:
    def test_all_checks_pass_on_8_8(self, records):
        row = next(r for r in records if r.name == "8_8")
        report = verify_record(row)
        assert report.passed
        assert report.factorization_ok is True

    def test_obstruction_reported_for_10_22(self, records):
        row = next(r for r in records if r.name == "10_22")
        report = verify_record(row)
        assert report.passed
        assert report.factorization_ok is None
        assert report.obstruction is Obstruction.DELTA2_FACTOR

    def test_obstruction_reported_for_5_2_sum(self, records):
        row = next(r for r in records if r.name == "5_2#5_2*")
        report = verify_record(row)
        assert report.passed
        assert report.obstruction is Obstruction.DELTA2_ONE_FORM

    def test_failures_show_up_in_report(self):
        record = KnotRecord(
            name="bogus",
            sr=False,
            delta2=3,
            det=5,
            delta_prime=NormalForm(parse("2 - 5*t + 2*t^2")),
            factorization=None,
        )
        report = verify_record(record)
        assert not report.delta2_ok and not report.det_ok and not report.classify_ok
        assert not report.passed

    def test_wrong_factorization_fails(self, records):
        row = next(r for r in records if r.name == "8_8")
        wrong = SRDecomposition((SRParams(2, 0, 0),))
        report = verify_record(
            KnotRecord(row.name, True, row.delta2, row.det, row.delta_prime, wrong)
        )
        assert report.factorization_ok is False
        assert not report.passed


class TestVerifyCorpus:
    def test_full_table_passes(self, records):
        reports = verify_corpus(records)
        assert all(r.passed for r in reports)
