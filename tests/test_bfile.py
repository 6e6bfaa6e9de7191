from pathlib import Path

import pytest

from invseq.bfile import BFileError, compare_with_bfile, parse_bfile

DATA = Path(__file__).resolve().parent.parent / "data"


def write(tmp_path, text):
    p = tmp_path / "b.txt"
    p.write_text(text)
    return p


class TestParse:
    def test_basic(self, tmp_path):
        bf = parse_bfile(write(tmp_path, "# comment\n\n0 1\n1 1\n2 2\n"))
        assert bf.entries == [(0, 1), (1, 1), (2, 2)]
        assert bf.value(1) == 1
        assert bf.value(99) is None

    def test_negative_values_allowed(self, tmp_path):
        bf = parse_bfile(write(tmp_path, "1 -5\n2 7\n"))
        assert bf.value(1) == -5

    def test_rejects_malformed_line(self, tmp_path):
        with pytest.raises(BFileError, match="expected"):
            parse_bfile(write(tmp_path, "0 1 2\n"))

    def test_rejects_non_integer(self, tmp_path):
        with pytest.raises(BFileError):
            parse_bfile(write(tmp_path, "0 x\n"))

    def test_rejects_decreasing_index(self, tmp_path):
        with pytest.raises(BFileError, match="strictly increasing"):
            parse_bfile(write(tmp_path, "2 1\n1 1\n"))


class TestCompare:
    def test_mismatch_reported(self, tmp_path):
        bf = parse_bfile(write(tmp_path, "0 1\n1 2\n2 4\n"))
        res = compare_with_bfile([1, 2, 5], bf, offset=0)
        assert res["verdict"] == "FAIL"
        assert res["first_mismatch"] == (2, 5, 4)

    def test_no_overlap(self, tmp_path):
        bf = parse_bfile(write(tmp_path, "10 1\n"))
        res = compare_with_bfile([1, 2], bf, offset=0)
        assert res["verdict"] == "NO_OVERLAP"

    def test_explicit_offset_shifts(self, tmp_path):
        bf = parse_bfile(write(tmp_path, "0 99\n1 7\n2 8\n"))
        res = compare_with_bfile([7, 8], bf, offset=1)
        assert res["verdict"] == "PASS"


class TestBundledData:
    def test_bundled_files_parse(self):
        for name in (
            "b000110.txt",
            "b000772.txt",
            "b094198.txt",
            "b297196.txt",
            "b218225.txt",
        ):
            bf = parse_bfile(DATA / name)
            assert bf.entries, name

    def test_bell_against_series(self):
        from invseq.series import series_Rk

        bf = parse_bfile(DATA / "b000110.txt")
        values = [series_Rk(1, 10).egf_int(n) for n in range(11)]
        assert compare_with_bfile(values, bf, offset=0)["verdict"] == "PASS"

    def test_a218225_against_recursion(self):
        from invseq.series import a218225_terms

        bf = parse_bfile(DATA / "b218225.txt")
        assert compare_with_bfile(a218225_terms(10), bf, offset=1)["verdict"] == "PASS"
