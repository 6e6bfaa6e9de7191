import csv
import io
import json
from pathlib import Path

import pytest

from invseq.cli import main

DATA = Path(__file__).resolve().parent.parent / "data"


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def rows_csv(out):
    return list(csv.DictReader(io.StringIO(out)))


def rows_json(out):
    return [json.loads(line) for line in out.splitlines() if line]


class TestCount:
    def test_single_n(self, capsys):
        code, out, err = run(["count", "--pattern", "000", "--n", "3"], capsys)
        assert code == 0
        assert rows_csv(out) == [{"n": "3", "pattern": "000", "count": "5"}]

    def test_set(self, capsys):
        code, out, _ = run(
            ["count", "--pattern", "210", "--set", "2,3,5", "--format", "json"],
            capsys,
        )
        assert code == 0
        assert rows_json(out) == [{"set": "2,3,5", "pattern": "210", "count": 30}]

    def test_set_past_int16(self, capsys):
        code, out, _ = run(["count", "--pattern", "10", "--set", "3,40000"], capsys)
        assert code == 0
        assert rows_csv(out) == [{"set": "3,40000", "pattern": "10", "count": "119997"}]

    def test_vector(self, capsys):
        code, out, _ = run(
            ["count", "--pattern", "000", "--n", "5", "--vector"], capsys
        )
        assert code == 0
        assert [r["count"] for r in rows_csv(out)] == ["1", "2", "5", "16", "61"]

    def test_requires_exactly_one_domain(self, capsys):
        with pytest.raises(SystemExit):
            main(["count", "--pattern", "000"])
        with pytest.raises(SystemExit):
            main(["count", "--pattern", "000", "--n", "3", "--set", "1,2"])

    def test_long_run_guard(self, capsys):
        with pytest.raises(SystemExit):
            main(["count", "--pattern", "0102", "--n", "12"])


class TestClassify:
    def test_length_two(self, capsys):
        code, out, _ = run(
            ["classify", "--length", "2", "--nmax", "5", "--threads", "1"], capsys
        )
        assert code == 0
        rows = rows_csv(out)
        assert len(rows) == 2
        assert rows[0]["patterns"] == "00 01"
        assert rows[1]["patterns"] == "10"
        assert rows[1]["counts"] == "1 2 5 14 42"

    def test_threads_env(self, capsys, monkeypatch):
        monkeypatch.setenv("INVSEQ_THREADS", "2")
        code, out, _ = run(["classify", "--length", "2", "--nmax", "4"], capsys)
        assert code == 0
        assert len(rows_csv(out)) == 2


class TestBijection:
    def test_forward_and_back(self, capsys):
        code, out, _ = run(
            ["bijection", "--seq", "0,1,2,3,2,0,1", "--format", "json"], capsys
        )
        assert code == 0
        fwd = rows_json(out)[0]
        assert fwd["direction"] == "3210->3201"
        code, out, _ = run(
            ["bijection", "--seq", fwd["output"], "--inverse", "--format", "json"],
            capsys,
        )
        assert code == 0
        assert rows_json(out)[0]["output"] == "0,1,2,3,2,0,1"

    def test_rejects_containing_input(self, capsys):
        with pytest.raises(SystemExit):
            main(["bijection", "--seq", "0,1,2,3,2,1,0"])


class TestTreesAndSeries:
    def test_tree_oracles_agree(self, capsys):
        code, out, _ = run(
            ["trees", "--n", "6", "--k", "2", "--format", "json"], capsys
        )
        series_count = rows_json(out)[0]["count"]
        code, out, _ = run(
            ["trees", "--n", "6", "--k", "2", "--oracle", "bruteforce",
             "--format", "json"],
            capsys,
        )
        assert series_count == rows_json(out)[0]["count"]

    def test_series_table(self, capsys):
        code, out, _ = run(
            ["series", "--kind", "tansec", "--order", "6", "--format", "json"],
            capsys,
        )
        assert code == 0
        assert [r["egf_coefficient"] for r in rows_json(out)] == [
            1, 1, 1, 2, 5, 16, 61,
        ]


class TestChecks:
    def test_unknown_check(self, capsys):
        with pytest.raises(SystemExit):
            main(["check", "no-such-check"])

    def test_c_identity(self, capsys):
        code, _, err = run(["check", "c-identity"], capsys)
        assert code == 0
        assert "PASS c-identity k=2" in err
        assert "FAIL" not in err

    def test_lemma_binary_small(self, capsys):
        code, _, err = run(["check", "lemma-binary", "--nmax", "4"], capsys)
        assert code == 0
        assert "FAIL" not in err

    def test_thm31_small(self, capsys):
        code, _, err = run(["check", "thm31", "--nmax", "4"], capsys)
        assert code == 0
        assert "FAIL" not in err


class TestOeisCompare:
    def test_bell_passes(self, capsys):
        code, out, err = run(
            ["oeis-compare", "--seq", "bell", "--bfile", str(DATA / "b000110.txt"),
             "--nmax", "10"],
            capsys,
        )
        assert code == 0
        assert rows_csv(out)[0]["verdict"] == "PASS"

    def test_inv_pattern_with_offset(self, capsys):
        code, out, _ = run(
            ["oeis-compare", "--seq", "inv-0021", "--bfile",
             str(DATA / "b218225.txt"), "--offset", "1", "--nmax", "8"],
            capsys,
        )
        assert code == 0
        assert rows_csv(out)[0]["verdict"] == "PASS"

    def test_mismatch_fails(self, capsys, tmp_path):
        bad = tmp_path / "b.txt"
        bad.write_text("0 1\n1 1\n2 3\n")
        code, out, _ = run(
            ["oeis-compare", "--seq", "bell", "--bfile", str(bad), "--nmax", "4"],
            capsys,
        )
        assert code == 1
        assert rows_csv(out)[0]["verdict"] == "FAIL"

    def test_missing_file(self, capsys):
        with pytest.raises(SystemExit):
            main(["oeis-compare", "--seq", "bell", "--bfile", "/nonexistent/b.txt"])
