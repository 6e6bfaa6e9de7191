"""End-to-end acceptance checks for the library, one per claimed result.

Every criterion runs claims of `invseq.claims`, the same definitions
`invseq check` runs, at the bounds in `CRITERIA`; a bound is never below
the claim's default `--nmax`. Each check prints a single pass/fail line
(run pytest with -s to see them interleaved) and asserts exact integer
equality; there are no tolerances anywhere in this file.
"""

from pathlib import Path

from invseq.bfile import compare_with_bfile, parse_bfile
from invseq.claims import CLAIMS
from invseq.cli import RunReport

DATA = Path(__file__).resolve().parent.parent / "data"


def report(num, title, ok):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num:2d}: {title}", flush=True)
    assert ok, f"criterion {num}: {title}"


CRITERIA = {  # criterion: (nmax, claims)
    1: (9, ["classify-4"]),
    2: (10, ["divergence-2001"]),
    3: (10, ["conj-3012"]),
    4: (9, ["euler-000"]),
    5: (8, ["trees-0000"]),
    6: (8, ["trees-0111"]),
    7: (8, ["lemma-binary"]),
    8: (8, ["thm31"]),
    9: (8, ["s-equiv"]),
    10: (7, ["refined-terminal", "refined-initial", "refined-initial2",
             "refined-noninv"]),
    11: (8, ["bijection-3210"]),
    12: (8, ["characterizations"]),
    13: (11, ["conj-0021"]),
    14: (6, ["c-identity"]),
}


def run_criterion(num):
    """Run the claims of criterion num, report its verdict, return the rows."""
    nmax, names = CRITERIA[num]
    out = RunReport(f"criterion {num}")
    for name in names:
        CLAIMS[name].run(nmax, out)
    failed = [name for name, ok in out.verdicts if not ok]
    title = f"{', '.join(names)} at nmax={nmax}"
    report(num, title + (f"; first failure: {failed[0]}" if failed else ""),
           out.verdicts and not failed)
    return out.rows


def criterion(num):
    def test():
        run_criterion(num)
    return test


# The test names predate the shared claims; they are kept so that a
# criterion's history stays under one name.
test_01_wilf_sweep_length4 = criterion(1)
test_02_divergence_of_2001_at_10 = criterion(2)
test_03_conjectured_3012_equivalence = criterion(3)
test_04_euler_numbers = criterion(4)
test_05_trees_0000 = criterion(5)
test_07_binary_word_formula = criterion(7)
test_08_subset_sum_identity = criterion(8)
test_09_s_level_equivalences = criterion(9)
test_10_refined_tables = criterion(10)
test_11_bijection_3210_3201 = criterion(11)
test_12_characterizations = criterion(12)
test_13_functional_equation_0021 = criterion(13)
test_14_c_identity = criterion(14)


def test_06_trees_0111():
    values = [row["avoiders"] for row in run_criterion(6)]
    res = compare_with_bfile(values, parse_bfile(DATA / "b000772.txt"), offset=1)
    report(6, "|I_n(0111)| matches the A000772 prefix",
           res["verdict"] == "PASS" and res["overlap"] == len(values))


def test_bounds_cover_cli_defaults():
    bounds = {name: nmax for nmax, names in CRITERIA.values() for name in names}
    for name, claim in CLAIMS.items():
        assert 1 <= claim.default <= claim.limit, name
        assert claim.default <= bounds[name] <= claim.limit, name
