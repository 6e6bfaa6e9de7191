import csv
import io
import json
from pathlib import Path

import pytest

from invseq import bijections, wilf
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

    def test_vector_with_set_refused(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["count", "--pattern", "000", "--set", "1,2,3", "--vector"])
        assert exc.value.code == 2
        assert "--vector needs --n" in capsys.readouterr().err

    def test_step_that_cannot_fit_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["count", "--pattern", "10", "--set", "10000000,10000001"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "bytes of memory" in err


class TestClassify:
    def test_length_two(self, capsys):
        code, out, _ = run(
            ["classify", "--length", "2", "--nmax", "5"], capsys
        )
        assert code == 0
        rows = rows_csv(out)
        assert len(rows) == 2
        assert rows[0]["patterns"] == "00 01"
        assert rows[1]["patterns"] == "10"
        assert rows[1]["counts"] == "1 2 5 14 42"


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

    @pytest.mark.parametrize("argv", [
        ["--seq", "0,5"], ["--seq", "0,5", "--inverse"],
        ["--seq", "3,2,1,0", "--inverse"], ["--seq", "0,-1"],
    ])
    def test_rejects_non_inversion_sequence(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(["bijection"] + argv)
        assert exc.value.code == 2


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

    def test_bruteforce_trees_past_the_recursion_limit(self, capsys):
        code, out, _ = run(
            ["trees", "--n", "1200", "--k", "1", "--oracle", "bruteforce",
             "--format", "json"],
            capsys,
        )
        assert code == 0
        assert rows_json(out)[0]["count"] == 1

    def test_series_table(self, capsys):
        code, out, _ = run(
            ["series", "--kind", "tansec", "--order", "6", "--format", "json"],
            capsys,
        )
        assert code == 0
        assert [r["egf_coefficient"] for r in rows_json(out)] == [
            1, 1, 1, 2, 5, 16, 61,
        ]

    @pytest.mark.parametrize("kind, k", [("T", "0"), ("R", "-1")])
    def test_series_k_below_one_refused(self, capsys, kind, k):
        with pytest.raises(SystemExit) as exc:
            main(["series", "--kind", kind, "--k", k, "--order", "3"])
        assert exc.value.code == 2
        assert "--k must be >= 1" in capsys.readouterr().err


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

    @pytest.mark.parametrize("name, cap", [
        ("thm31", 8),
        ("s-equiv", 8),
        ("refined-terminal", 7),
        ("refined-initial", 7),
        ("refined-initial2", 7),
        ("refined-noninv", 7),
    ])
    def test_nmax_above_cap_rejected(self, capsys, name, cap):
        with pytest.raises(SystemExit) as exc:
            main(["check", name, "--nmax", str(cap + 1)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"cap {cap}" in err
        assert "PASS" not in err

    @pytest.mark.parametrize("name", ["lemma-binary", "thm31", "bijection-3210"])
    @pytest.mark.parametrize("nmax", ["0", "-1"])
    def test_nmax_below_one_rejected(self, capsys, name, nmax):
        # a range that runs no case would otherwise pass vacuously
        with pytest.raises(SystemExit) as exc:
            main(["check", name, "--nmax", nmax])
        assert exc.value.code == 2
        assert "PASS" not in capsys.readouterr().err

    def test_bijection(self, capsys):
        code, out, err = run(["check", "bijection-3210", "--nmax", "7"], capsys)
        assert code == 0
        assert "FAIL" not in err
        assert rows_csv(out)[-1]["avoiders_3201"] == "5034"

    def test_bijection_checks_images(self, capsys, monkeypatch):
        # The identity is a round-tripping, multiset- and layer-preserving
        # bijection of I_n(3210) onto a set of the right size, but at n=7
        # that set is I_7(3210), not I_7(3201).
        monkeypatch.setattr(bijections, "map_3210_to_3201", lambda e: e)
        monkeypatch.setattr(bijections, "map_3201_to_3210", lambda f: f)
        code, _, err = run(["check", "bijection-3210", "--nmax", "7"], capsys)
        assert code == 1
        assert "PASS bijection-3210 n=6" in err
        assert "FAIL bijection-3210 n=7" in err

    def test_bijection_checks_layers(self, capsys, monkeypatch):
        # Swapping the images (0,0,1) and (0,1,0) keeps a round-tripping,
        # multiset-preserving bijection onto I_3(3201), but moves a weak
        # left-to-right maximum of (0,0,1).
        swap = {(0, 0, 1): (0, 1, 0), (0, 1, 0): (0, 0, 1)}
        forward, inverse = bijections.map_3210_to_3201, bijections.map_3201_to_3210
        monkeypatch.setattr(bijections, "map_3210_to_3201",
                            lambda e: swap.get(forward(e), forward(e)))
        monkeypatch.setattr(bijections, "map_3201_to_3210",
                            lambda f: inverse(swap.get(f, f)))
        code, _, err = run(["check", "bijection-3210", "--nmax", "3"], capsys)
        assert code == 1
        assert "PASS bijection-3210 n=2" in err
        assert "FAIL bijection-3210 n=3" in err

    def test_classify_4_names_a_split_class(self, capsys, monkeypatch):
        # Every pattern in a class of its own splits every proved class.
        monkeypatch.setattr(wilf, "classify", lambda length, nmax: [
            wilf.WilfClass((p,), (i,)) for i, p in enumerate(wilf.canonical_patterns(length))])
        code, out, err = run(["check", "classify-4", "--nmax", "9"], capsys)
        assert code == 1 and len(rows_csv(out)) == 75
        assert "PASS classify-4 75 patterns" in err
        assert "FAIL classify-4 3201=3210" in err and "FAIL classify-4 2001=2011" in err

    @pytest.mark.parametrize("nmax", ["9", "10"])
    def test_divergence_below_and_at_ten(self, capsys, nmax):
        # 2001 and 2011 agree through n=9, so no divergence is the answer there
        code, out, err = run(["check", "divergence-2001", "--nmax", nmax], capsys)
        assert code == 0
        assert "PASS divergence-2001" in err
        assert rows_csv(out)[0]["first_divergence"] == ("10" if nmax == "10" else "")

    def test_c_identity_nmax_is_largest_k(self, capsys):
        code, _, err = run(["check", "c-identity", "--nmax", "3"], capsys)
        assert code == 0
        assert [line for line in err.splitlines() if line.startswith("PASS")] == [
            "PASS c-identity k=2", "PASS c-identity k=3",
        ]
        # k starts at 2, so --nmax 1 would run no case
        with pytest.raises(SystemExit) as exc:
            main(["check", "c-identity", "--nmax", "1"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("name, nmax", [
        ("characterizations", 10),
        ("bijection-3210", 9),
        ("lemma-binary", 10),
        ("trees-0000", 12),
        ("trees-0111", 12),
        ("euler-000", 13),
        ("c-identity", 9),
        ("conj-3012", 12),
        ("conj-0021", 13),
        ("divergence-2001", 11),
        ("classify-4", 11),
    ])
    def test_long_check_needs_allow_long(self, capsys, name, nmax):
        with pytest.raises(SystemExit) as exc:
            main(["check", name, "--nmax", str(nmax)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"cap {nmax - 1}" in err and "--allow-long" in err
        assert "PASS" not in err

    def test_allow_long_lifts_the_cap(self, capsys):
        code, _, err = run(["check", "thm31", "--nmax", "9", "--allow-long"], capsys)
        assert code == 0
        assert "PASS thm31 0321 n=9" in err
        assert "FAIL" not in err


class TestFlags:
    def test_threads_only_on_classify(self, capsys):
        # classify derives its worker count, so no subcommand takes --threads.
        for argv in (["bijection", "--seq", "0,1"],
                     ["classify", "--length", "4", "--nmax", "9"]):
            with pytest.raises(SystemExit) as exc:
                main(argv + ["--threads", "1"])
            assert exc.value.code == 2, argv
            assert "unrecognized arguments: --threads" in capsys.readouterr().err

    def test_allow_long_only_where_guarded(self, capsys):
        # Only check has a cap to lift; the engine refuses what cannot fit.
        for argv in (["series", "--kind", "tansec", "--order", "3"],
                     ["count", "--pattern", "000", "--n", "3"],
                     ["classify", "--length", "2", "--nmax", "3"],
                     ["oeis-compare", "--seq", "bell", "--bfile",
                      str(DATA / "b000110.txt")]):
            with pytest.raises(SystemExit) as exc:
                main(argv + ["--allow-long"])
            assert exc.value.code == 2, argv
            assert "unrecognized arguments: --allow-long" in capsys.readouterr().err


class TestOeisCompare:
    def test_bell_passes(self, capsys):
        code, out, err = run(
            ["oeis-compare", "--seq", "bell", "--bfile", str(DATA / "b000110.txt"),
             "--nmax", "10"],
            capsys,
        )
        assert code == 0
        assert rows_csv(out)[0]["verdict"] == "PASS"

    def test_inv_pattern_past_the_old_cell_limit(self, capsys):
        # 11! is past the 5M-sequence limit the CLI once applied.
        code, out, _ = run(
            ["oeis-compare", "--seq", "inv-0021", "--bfile",
             str(DATA / "b218225.txt"), "--nmax", "11"],
            capsys,
        )
        assert code == 0
        row = rows_csv(out)[0]
        assert row["verdict"] == "PASS" and row["overlap"] == "11"

    @pytest.mark.parametrize("seq, bfile", [
        ("bell", "b000110"),
        ("boxes-2", "b000772"),
        ("boxes-3", "b094198"),
        ("inv-0000", "b297196"),
        ("inv-0111", "b000772"),
        ("inv-0021", "b218225"),
    ])
    def test_bundled_pairs_align_by_n(self, capsys, seq, bfile):
        code, out, _ = run(["oeis-compare", "--seq", seq, "--bfile",
                            str(DATA / f"{bfile}.txt"), "--nmax", "8"], capsys)
        row = rows_csv(out)[0]
        assert code == 0 and row["verdict"] == "PASS", row
        # Named selectors start at n = 0 and inv-<pattern> at n = 1.
        assert row["offset"] == ("1" if seq.startswith("inv-") else "0")
        assert row["overlap"] == ("8" if seq.startswith("inv-") else "9")

    def test_offset_overrides_alignment(self, capsys):
        # Term n of trees-bounded-3 counts trees on n vertices, which is
        # term n - 1 of A297196.
        argv = ["oeis-compare", "--seq", "trees-bounded-3", "--bfile",
                str(DATA / "b297196.txt"), "--nmax", "8"]
        code, out, _ = run(argv, capsys)
        assert code == 1 and rows_csv(out)[0]["verdict"] == "FAIL"
        code, out, _ = run(argv + ["--offset", "-1"], capsys)
        row = rows_csv(out)[0]
        assert code == 0 and row["verdict"] == "PASS" and row["offset"] == "-1"

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

    @pytest.mark.parametrize("argv", [
        ["--seq", "inv-0021", "--bfile", str(DATA / "b218225.txt")],
        ["--seq", "bell", "--bfile", str(DATA / "b000110.txt")],
    ])
    def test_nmax_below_one_refused(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(["oeis-compare", *argv, "--nmax", "0"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "PASS" not in captured.out + captured.err

    @pytest.mark.parametrize("text", ["0 1\n1 x\n", "0 1\n2 2\n1 1\n"],
                             ids=["non-integer", "decreasing-index"])
    def test_malformed_bfile_is_a_usage_error(self, capsys, tmp_path, text):
        bad = tmp_path / "b.txt"
        bad.write_text(text)
        with pytest.raises(SystemExit) as exc:
            main(["oeis-compare", "--seq", "bell", "--bfile", str(bad), "--nmax", "4"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}:")

    def test_missing_file(self, capsys):
        with pytest.raises(SystemExit):
            main(["oeis-compare", "--seq", "bell", "--bfile", "/nonexistent/b.txt"])
