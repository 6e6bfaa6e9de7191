"""The paper's claims, one definition each.

`CLAIMS` maps each check name to a `Claim(run, default, limit)`.
`run(nmax, report)` adds result rows with `report.add(**row)` and
verdicts with `report.verdict(name, ok)`; `default` is the nmax used when
none is given; `limit` is the largest nmax that runs without
`--allow-long`. `invseq check` and the acceptance tests both run these.
"""

from __future__ import annotations

from itertools import combinations
from typing import Callable, NamedTuple

from . import bijections, counting, series, trees, wilf
from .core import Pattern, ordinary_bounds
from .engine import avoider_matrix, contains_mask


class Claim(NamedTuple):
    run: Callable
    default: int
    limit: int


def _subsets(ground):
    for r in range(len(ground) + 1):
        yield from combinations(ground, r)


# The proved Wilf classes of length-4 patterns that hold more than one.
_PROVED_4 = [
    ("1011", "1101", "1110"),
    ("2011", "2101", "2110"),
    ("0212", "0221"),
    ("0312", "0321"),
    ("1012", "1102"),
    ("2201", "2210"),
    ("2301", "2310"),
    ("3201", "3210"),
]


def _classify_4(nmax, report):
    """The count classes of all 75 length-4 patterns through nmax: each
    proved class lies in one, and 2001 lies in 2011's exactly while nmax
    <= 9, as the two first differ at n = 10 (see _divergence)."""
    classes = wilf.classify(4, nmax)
    where = {}
    for i, cls in enumerate(classes):
        where.update(dict.fromkeys(map(str, cls.patterns), i))
        report.add(cls=i, patterns=" ".join(map(str, cls.patterns)),
                   counts=" ".join(map(str, cls.counts)))
    report.verdict("classify-4 75 patterns", len(where) == 75)
    for group in _PROVED_4:
        report.verdict(f"classify-4 {'='.join(group)}", len({where[p] for p in group}) == 1)
    joined = nmax <= 9
    report.verdict(f"classify-4 2001{'=' if joined else '!='}2011",
                   (where["2001"] == where["2011"]) == joined)


def _thm31(nmax, report):
    for word in ("111", "212", "221", "312", "321"):
        suffix = tuple(int(c) for c in word)
        full = Pattern((0,) + suffix)
        direct = wilf.count_vector(full, nmax).counts
        for n, lhs in enumerate(direct, start=1):
            rhs = counting.theorem31_rhs(n, suffix)
            report.add(pattern=str(full), n=n, direct=lhs, subset_sum=rhs)
            report.verdict(f"thm31 0{word} n={n}", lhs == rhs)


def _lemma_binary(nmax, report):
    for ell in range(2, 6):
        for zero_pos in range(ell):
            p = tuple(1 if i != zero_pos else 0 for i in range(ell))
            ok = all(
                counting.binary_avoider_formula(j, k, ell)
                == counting.count_binary_avoiders_bruteforce(j, k, p)
                for j in range(nmax + 1)
                for k in range(nmax + 1)
            )
            report.add(pattern="".join(map(str, p)), ell=ell, limit=nmax, ok=ok)
            report.verdict(f"lemma-binary {''.join(map(str, p))}", ok)


def _equal_over_subsets(nmax, report, name, group, value):
    """Verdict `name`: value(S, p) is the same for every p in group, for
    every S contained in [nmax]."""
    ok = True
    for s in _subsets(range(1, nmax + 1)):
        first, *rest = (value(s, p) for p in group)
        if any(v != first for v in rest):
            ok = False
            report.add(group=name, set=",".join(map(str, s)), equal=False)
            break
    report.add(group=name, smax=nmax, equal=ok)
    report.verdict(name, ok)


_S_GROUPS = [
    ("thm 210=201", [(2, 1, 0), (2, 0, 1)]),
    ("cor 1011-class", [(1, 0, 1, 1), (1, 1, 0, 1), (1, 1, 1, 0)]),
    ("cor 1012=1102", [(1, 0, 1, 2), (1, 1, 0, 2)]),
    ("cor 2011-class", [(2, 0, 1, 1), (2, 1, 0, 1), (2, 1, 1, 0)]),
    ("cor 2201=2210", [(2, 2, 0, 1), (2, 2, 1, 0)]),
    ("cor 2301=2310", [(2, 3, 0, 1), (2, 3, 1, 0)]),
]


def _s_equiv(nmax, report):
    for name, group in _S_GROUPS:
        _equal_over_subsets(nmax, report, f"s-equiv {name}", group,
                            counting.count_avoiders)


def _refined(name, group, mode):
    def run(nmax, report):
        _equal_over_subsets(nmax, report, name, group,
                            lambda s, p: counting.refined_table(s, p, mode))
    return run


def _bijection(nmax, report):
    for n in range(nmax + 1):
        a = avoider_matrix(ordinary_bounds(n), bijections.P3210)
        b = avoider_matrix(ordinary_bounds(n), bijections.P3201)
        targets = set(map(tuple, b.tolist()))
        images = set()
        ok = True
        for row in a:
            e = tuple(row.tolist())
            f = bijections.map_3210_to_3201(e)
            layers = bijections.maxima_layers(e)
            if (bijections.map_3201_to_3210(f) != e or sorted(f) != sorted(e)
                    or any(f[i] != e[i] for i in layers.x + layers.y)):
                ok = False
                break
            images.add(f)
        ok = ok and images == targets
        report.add(n=n, avoiders_3210=a.shape[0], avoiders_3201=b.shape[0], ok=ok)
        report.verdict(f"bijection-3210 n={n}", ok)


def _characterizations(nmax, report):
    for n in range(nmax + 1):
        e_mat, m3210 = contains_mask(ordinary_bounds(n), bijections.P3210)
        _, m3201 = contains_mask(ordinary_bounds(n), bijections.P3201)
        ok = True
        for row, c0, c1 in zip(e_mat, m3210, m3201):
            e = tuple(row.tolist())
            if (bijections.is_3210_by_partition(e) != (not c0)
                    or bijections.is_3201_by_characterization(e) != (not c1)):
                ok = False
                break
        report.add(n=n, sequences=e_mat.shape[0], ok=ok)
        report.verdict(f"characterizations n={n}", ok)


def _conj_3012(nmax, report):
    a = wilf.count_vector((3, 0, 1, 2), nmax).counts
    b = wilf.count_vector((3, 2, 0, 1), nmax).counts
    for n, (x, y) in enumerate(zip(a, b), start=1):
        report.add(n=n, count_3012=x, count_3201=y)
    report.verdict(f"conj-3012 nmax={nmax}", a == b)


def _conj_0021(nmax, report):
    ok, res = series.check_0021_conjecture(nmax)
    oracle = series.a218225_terms(nmax)
    for n, (c, a) in enumerate(zip(res["counts"], oracle), start=1):
        report.add(n=n, count_0021=c, a218225=a)
    report.verdict(f"conj-0021 nmax={nmax}", ok and res["counts"] == oracle)


def _trees(name, pattern, k, root_unbounded):
    """|I_n(pattern)| against the tree series for L_{n+1,k} (or L'_{n+1,k}
    with an unbounded root), and against brute force while n+1 <= 7."""
    via_series = (trees.count_trees_root_unbounded if root_unbounded
                  else trees.count_trees_bounded)

    def run(nmax, report):
        counts = wilf.count_vector(pattern, nmax).counts
        for n, direct in enumerate(counts, start=1):
            row = {"n": n, "avoiders": direct, "trees_series": via_series(n + 1, k)}
            if n + 1 <= 7:
                row["trees_bruteforce"] = trees.count_trees_bruteforce(
                    n + 1, k, root_unbounded
                )
            report.add(**row)
            report.verdict(f"{name} n={n}", all(
                v == direct for key, v in row.items() if key.startswith("trees_")
            ))

    return run


def _c_identity(nmax, report):
    for k in range(2, nmax + 1):
        ok = series.c_identity_holds(k)
        report.add(k=k, ok=ok)
        report.verdict(f"c-identity k={k}", ok)


def _euler(nmax, report):
    euler = series.euler_numbers(nmax + 1)
    counts = wilf.count_vector((0, 0, 0), nmax).counts
    for n in range(1, nmax + 1):
        report.add(n=n, avoiders_000=counts[n - 1], euler=euler[n + 1])
    report.verdict(f"euler-000 nmax={nmax}", all(
        counts[n - 1] == euler[n + 1] for n in range(1, nmax + 1)
    ))


def _divergence(nmax, report):
    # 2001 and 2011 agree through n=9 and first differ at n=10
    d = wilf.first_divergence((2, 0, 0, 1), (2, 0, 1, 1), nmax)
    report.add(pair="2001/2011", nmax=nmax, first_divergence=d)
    report.verdict("divergence-2001", d == (10 if nmax >= 10 else None))


# Limits keep each check to seconds on a 2-core, 7 GB machine:
# characterizations takes about 2.2 s at 9 and 20 s at 10 (3.6M sequences
# tested one by one in Python), bijection-3210 about 1 s at 8 and 7 s at
# 9, and trees-0000 at 12 takes about 2 s and peaks at 342 MB.
CLAIMS = {
    "classify-4": Claim(_classify_4, 9, 10),
    "thm31": Claim(_thm31, 7, 8),
    "lemma-binary": Claim(_lemma_binary, 8, 9),
    "s-equiv": Claim(_s_equiv, 8, 8),
    "refined-terminal": Claim(_refined(
        "refined-terminal", [(1, 0, 1, 2), (1, 1, 0, 2)], ("terminal", 1)), 7, 7),
    "refined-initial": Claim(_refined(
        "refined-initial", [(2, 0, 1, 1), (2, 1, 0, 1), (2, 1, 1, 0)],
        ("initial", 1)), 7, 7),
    "refined-initial2": Claim(_refined(
        "refined-initial2", [(2, 2, 0, 1), (2, 2, 1, 0)], ("initial", 2)), 7, 7),
    "refined-noninv": Claim(_refined(
        "refined-noninv", [(2, 3, 0, 1), (2, 3, 1, 0)], "non_inversion"), 7, 7),
    "bijection-3210": Claim(_bijection, 7, 8),
    "characterizations": Claim(_characterizations, 7, 9),
    "conj-3012": Claim(_conj_3012, 10, 11),
    "conj-0021": Claim(_conj_0021, 11, 12),
    "trees-0000": Claim(_trees("trees-0000", (0, 0, 0, 0), 3, False), 8, 11),
    "trees-0111": Claim(_trees("trees-0111", (0, 1, 1, 1), 2, True), 8, 11),
    "c-identity": Claim(_c_identity, 6, 8),
    "euler-000": Claim(_euler, 9, 12),
    "divergence-2001": Claim(_divergence, 10, 10),
}
