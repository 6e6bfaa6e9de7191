"""Command-line front end.

Subcommands: count, classify, check, bijection, trees, series,
oeis-compare. Result tables go to stdout as CSV or JSON-lines; PASS/FAIL
verdict lines go to stderr; the exit status is 0 iff every verdict passed.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from dataclasses import dataclass, field
from itertools import combinations
from math import prod

from . import bijections, counting, series, trees, wilf
from .bfile import compare_with_bfile, parse_bfile
from .core import Pattern, ordinary_bounds, validate_bounds

_LONG_RUN_CELLS = 5_000_000


class UsageError(ValueError):
    pass


@dataclass
class RunReport:
    command: str
    params: dict
    rows: list = field(default_factory=list)
    verdicts: list = field(default_factory=list)  # (name, bool)
    duration: float = 0.0

    def add(self, **row):
        self.rows.append(row)

    def verdict(self, name, ok):
        self.verdicts.append((name, bool(ok)))

    @property
    def passed(self):
        return all(ok for _, ok in self.verdicts)

    def emit(self, fmt="csv", out=None, err=None):
        out = out or sys.stdout
        err = err or sys.stderr
        if self.rows:
            if fmt == "csv":
                cols = list(self.rows[0].keys())
                writer = csv.DictWriter(out, fieldnames=cols)
                writer.writeheader()
                for row in self.rows:
                    writer.writerow(row)
            elif fmt == "json":
                for row in self.rows:
                    out.write(json.dumps(row) + "\n")
            else:
                raise UsageError(f"unknown format {fmt!r}")
        for name, ok in self.verdicts:
            err.write(f"{'PASS' if ok else 'FAIL'} {name}\n")
        err.write(f"# {self.command} finished in {self.duration:.2f}s\n")


def _parse_set(text):
    try:
        values = tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise UsageError(f"bad bound set {text!r}: comma-separated integers expected")
    try:
        return validate_bounds(values)
    except ValueError as ex:
        raise UsageError(f"bad bound set {text!r}: {ex}")


def _parse_pattern(text):
    try:
        return Pattern.parse(text)
    except ValueError as ex:
        raise UsageError(str(ex))


def _guard_long(args, cells, what):
    if cells > _LONG_RUN_CELLS and not args.allow_long:
        raise UsageError(
            f"{what} enumerates ~{cells} sequences; rerun with --allow-long"
        )


def _threads(args):
    if args.threads is not None:
        return args.threads
    env = os.environ.get("INVSEQ_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise UsageError(f"bad INVSEQ_THREADS value {env!r}")
    return os.cpu_count() or 1


def _subsets(ground):
    for r in range(len(ground) + 1):
        yield from combinations(ground, r)


# -- subcommands ----------------------------------------------------------


def cmd_count(args):
    report = RunReport("count", vars(args).copy())
    pattern = _parse_pattern(args.pattern)
    if (args.n is None) == (args.set is None):
        raise UsageError("provide exactly one of --n or --set")
    if args.set is not None:
        bounds = _parse_set(args.set)
        _guard_long(args, prod(bounds) if bounds else 1, "count over I_S")
        report.add(set=",".join(map(str, bounds)), pattern=str(pattern),
                   count=counting.count_avoiders(bounds, pattern))
    else:
        if args.n < 1:
            raise UsageError("--n must be >= 1")
        _guard_long(args, prod(range(1, args.n + 1)), "count over I_n")
        if args.vector:
            counts = wilf.count_vector(pattern, args.n).counts
            for n, c in enumerate(counts, start=1):
                report.add(n=n, pattern=str(pattern), count=c)
        else:
            report.add(n=args.n, pattern=str(pattern),
                       count=counting.count_avoiders_n(args.n, pattern))
    return report


def cmd_classify(args):
    report = RunReport("classify", vars(args).copy())
    if args.length < 1 or args.nmax < 1:
        raise UsageError("--length and --nmax must be >= 1")
    if args.nmax >= 10:
        _guard_long(args, prod(range(1, args.nmax + 1)), "classification sweep")
    classes = wilf.classify(args.length, args.nmax, threads=_threads(args))
    for idx, cls in enumerate(classes):
        report.add(
            cls=idx,
            patterns=" ".join(str(p) for p in cls.patterns),
            counts=" ".join(str(c) for c in cls.counts),
        )
    return report


def cmd_bijection(args):
    report = RunReport("bijection", vars(args).copy())
    try:
        e = tuple(int(tok) for tok in args.seq.split(","))
    except ValueError:
        raise UsageError(f"bad sequence {args.seq!r}")
    try:
        if args.inverse:
            out = bijections.map_3201_to_3210(e)
        else:
            out = bijections.map_3210_to_3201(e)
    except ValueError as ex:
        raise UsageError(str(ex))
    report.add(direction="3201->3210" if args.inverse else "3210->3201",
               input=",".join(map(str, e)), output=",".join(map(str, out)))
    return report


def cmd_trees(args):
    report = RunReport("trees", vars(args).copy())
    if args.n < 0 or args.k < 1:
        raise UsageError("--n must be >= 0 and --k >= 1")
    if args.oracle == "bruteforce":
        count = trees.count_trees_bruteforce(args.n, args.k, args.root_unbounded)
    elif args.root_unbounded:
        count = trees.count_trees_root_unbounded(args.n, args.k)
    else:
        count = trees.count_trees_bounded(args.n, args.k)
    report.add(n=args.n, k=args.k, root_unbounded=args.root_unbounded,
               oracle=args.oracle, count=count)
    return report


def cmd_series(args):
    report = RunReport("series", vars(args).copy())
    if args.order < 0:
        raise UsageError("--order must be >= 0")
    if args.kind == "tansec":
        s = series.tan_plus_sec(args.order)
    elif args.kind == "T":
        s = series.series_Tk(args.k, args.order)
    elif args.kind == "R":
        s = series.series_Rk(args.k, args.order)
    else:
        raise UsageError(f"unknown series kind {args.kind!r}")
    for n in range(args.order + 1):
        report.add(kind=args.kind, k=args.k if args.kind != "tansec" else "",
                   n=n, egf_coefficient=s.egf_int(n))
    return report


_SEQ_SELECTORS = {}


def _selector(name):
    def deco(fn):
        _SEQ_SELECTORS[name] = fn
        return fn
    return deco


@_selector("bell")
def _sel_bell(nmax):
    return [series.series_Rk(1, nmax).egf_int(n) for n in range(nmax + 1)]


@_selector("trees-bounded-3")
def _sel_trees3(nmax):
    return [trees.count_trees_bounded(n, 3) for n in range(nmax + 1)]


@_selector("boxes-2")
def _sel_boxes2(nmax):
    return trees.boxed_counts_operator(2, nmax)


@_selector("boxes-3")
def _sel_boxes3(nmax):
    return trees.boxed_counts_operator(3, nmax)


def _computed_sequence(sel, nmax):
    if sel in _SEQ_SELECTORS:
        return _SEQ_SELECTORS[sel](nmax)
    if sel.startswith("inv-"):
        pattern = _parse_pattern(sel[4:])
        return list(wilf.count_vector(pattern, nmax).counts)
    known = sorted(_SEQ_SELECTORS) + ["inv-<pattern>"]
    raise UsageError(f"unknown sequence selector {sel!r}; known: {', '.join(known)}")


def cmd_oeis_compare(args):
    report = RunReport("oeis-compare", vars(args).copy())
    values = _computed_sequence(args.seq, args.nmax)
    bf = parse_bfile(args.bfile)
    result = compare_with_bfile(values, bf, args.offset)
    report.add(seq=args.seq, bfile=str(args.bfile), offset=result["offset"],
               overlap=result["overlap"],
               first_mismatch=str(result["first_mismatch"]),
               verdict=result["verdict"])
    report.verdict(f"oeis-compare {args.seq}", result["verdict"] == "PASS")
    return report


# -- checks ---------------------------------------------------------------


def _check_thm31(args, report):
    nmax = min(args.nmax or 7, 8)
    for word in ("111", "212", "221", "312", "321"):
        suffix = tuple(int(c) for c in word)
        full = Pattern((0,) + suffix)
        for n in range(1, nmax + 1):
            lhs = counting.count_avoiders_n(n, full)
            rhs = counting.theorem31_rhs(n, suffix)
            report.add(pattern=str(full), n=n, direct=lhs, subset_sum=rhs)
            report.verdict(f"thm31 0{word} n={n}", lhs == rhs)


def _check_lemma_binary(args, report):
    limit = args.nmax or 8
    for ell in range(2, 6):
        for zero_pos in range(ell):
            p = tuple(1 if i != zero_pos else 0 for i in range(ell))
            ok = all(
                counting.binary_avoider_formula(j, k, ell)
                == counting.count_binary_avoiders_bruteforce(j, k, p)
                for j in range(limit + 1)
                for k in range(limit + 1)
            )
            report.add(pattern="".join(map(str, p)), ell=ell, limit=limit, ok=ok)
            report.verdict(f"lemma-binary {''.join(map(str, p))}", ok)


_S_GROUPS = [
    ("thm 210=201", [(2, 1, 0), (2, 0, 1)]),
    ("cor 1011-class", [(1, 0, 1, 1), (1, 1, 0, 1), (1, 1, 1, 0)]),
    ("cor 1012=1102", [(1, 0, 1, 2), (1, 1, 0, 2)]),
    ("cor 2011-class", [(2, 0, 1, 1), (2, 1, 0, 1), (2, 1, 1, 0)]),
    ("cor 2201=2210", [(2, 2, 0, 1), (2, 2, 1, 0)]),
    ("cor 2301=2310", [(2, 3, 0, 1), (2, 3, 1, 0)]),
]


def _check_s_equiv(args, report):
    smax = min(args.nmax or 8, 8)
    for name, group in _S_GROUPS:
        ok = True
        for s in _subsets(range(1, smax + 1)):
            counts = {counting.count_avoiders(s, p) for p in group}
            if len(counts) != 1:
                ok = False
                report.add(group=name, set=",".join(map(str, s)), equal=False)
                break
        report.add(group=name, smax=smax, equal=ok)
        report.verdict(f"s-equiv {name}", ok)


_REFINED_GROUPS = [
    ("refined-terminal", [(1, 0, 1, 2), (1, 1, 0, 2)], ("terminal", 1)),
    ("refined-initial", [(2, 0, 1, 1), (2, 1, 0, 1), (2, 1, 1, 0)], ("initial", 1)),
    ("refined-initial2", [(2, 2, 0, 1), (2, 2, 1, 0)], ("initial", 2)),
    ("refined-noninv", [(2, 3, 0, 1), (2, 3, 1, 0)], "non_inversion"),
]


def _refined_check(name, group, mode):
    def run(args, report):
        smax = min(args.nmax or 7, 7)
        ok = True
        for s in _subsets(range(1, smax + 1)):
            tabs = [counting.refined_table(s, p, mode) for p in group]
            if any(t != tabs[0] for t in tabs[1:]):
                ok = False
                report.add(group=name, set=",".join(map(str, s)), equal=False)
                break
        report.add(group=name, smax=smax, equal=ok)
        report.verdict(name, ok)

    return run


def _check_bijection(args, report):
    from .engine import avoider_matrix

    nmax = args.nmax or 7
    for n in range(nmax + 1):
        a = avoider_matrix(ordinary_bounds(n), bijections.P3210)
        b = avoider_matrix(ordinary_bounds(n), bijections.P3201)
        images = set()
        ok = a.shape[0] == b.shape[0]
        for row in a:
            e = tuple(int(x) for x in row)
            f = bijections.map_3210_to_3201(e)
            if bijections.map_3201_to_3210(f) != e or sorted(f) != sorted(e):
                ok = False
                break
            images.add(f)
        ok = ok and len(images) == b.shape[0]
        report.add(n=n, avoiders_3210=a.shape[0], avoiders_3201=b.shape[0], ok=ok)
        report.verdict(f"bijection-3210 n={n}", ok)


def _check_characterizations(args, report):
    from .engine import contains_mask

    nmax = args.nmax or 7
    for n in range(nmax + 1):
        e_mat, m3210 = contains_mask(ordinary_bounds(n), bijections.P3210)
        _, m3201 = contains_mask(ordinary_bounds(n), bijections.P3201)
        ok = True
        for row, c0, c1 in zip(e_mat, m3210, m3201):
            e = tuple(int(x) for x in row)
            if bijections.is_3210_by_partition(e) != (not c0):
                ok = False
                break
            if bijections.is_3201_by_characterization(e) != (not c1):
                ok = False
                break
        report.add(n=n, sequences=e_mat.shape[0], ok=ok)
        report.verdict(f"characterizations n={n}", ok)


def _check_conj_3012(args, report):
    nmax = args.nmax or 10
    if nmax >= 12:
        _guard_long(args, prod(range(1, nmax + 1)), "conjecture sweep")
    a = wilf.count_vector((3, 0, 1, 2), nmax).counts
    b = wilf.count_vector((3, 2, 0, 1), nmax).counts
    for n, (x, y) in enumerate(zip(a, b), start=1):
        report.add(n=n, count_3012=x, count_3201=y)
    report.verdict(f"conj-3012 nmax={nmax}", a == b)


def _check_conj_0021(args, report):
    nmax = args.nmax or 11
    if nmax > 12:
        _guard_long(args, prod(range(1, nmax + 1)), "conjecture sweep")
    ok, res = series.check_0021_conjecture(nmax)
    for n, c in enumerate(res["counts"], start=1):
        report.add(n=n, count_0021=c)
    report.verdict(f"conj-0021 nmax={nmax}", ok)


def _check_trees_0000(args, report):
    nmax = args.nmax or 8
    for n in range(1, nmax + 1):
        direct = counting.count_avoiders_n(n, (0, 0, 0, 0))
        via_series = trees.count_trees_bounded(n + 1, 3)
        row = {"n": n, "avoiders": direct, "trees_series": via_series}
        ok = direct == via_series
        if n + 1 <= 7:
            brute = trees.count_trees_bruteforce(n + 1, 3)
            row["trees_bruteforce"] = brute
            ok = ok and direct == brute
        report.add(**row)
        report.verdict(f"trees-0000 n={n}", ok)


def _check_trees_0111(args, report):
    nmax = args.nmax or 8
    for n in range(1, nmax + 1):
        direct = counting.count_avoiders_n(n, (0, 1, 1, 1))
        via_series = trees.count_trees_root_unbounded(n + 1, 2)
        row = {"n": n, "avoiders": direct, "trees_series": via_series}
        ok = direct == via_series
        if n + 1 <= 7:
            brute = trees.count_trees_bruteforce(n + 1, 2, root_unbounded=True)
            row["trees_bruteforce"] = brute
            ok = ok and direct == brute
        report.add(**row)
        report.verdict(f"trees-0111 n={n}", ok)


def _check_c_identity(args, report):
    for k in range(2, 7):
        ok = series.c_identity_holds(k)
        report.add(k=k, ok=ok)
        report.verdict(f"c-identity k={k}", ok)


def _check_euler(args, report):
    nmax = args.nmax or 9
    euler = series.euler_numbers(nmax + 1)
    counts = wilf.count_vector((0, 0, 0), nmax).counts
    for n in range(1, nmax + 1):
        report.add(n=n, avoiders_000=counts[n - 1], euler=euler[n + 1])
    report.verdict(f"euler-000 nmax={nmax}", all(
        counts[n - 1] == euler[n + 1] for n in range(1, nmax + 1)
    ))


def _check_divergence(args, report):
    nmax = args.nmax or 10
    if nmax >= 10:
        _guard_long(args, prod(range(1, nmax + 1)), "divergence search")
    d = wilf.first_divergence((2, 0, 0, 1), (2, 0, 1, 1), nmax)
    report.add(pair="2001/2011", nmax=nmax, first_divergence=d)
    report.verdict("divergence-2001", d == 10)


_CHECKS = {
    "thm31": _check_thm31,
    "lemma-binary": _check_lemma_binary,
    "s-equiv": _check_s_equiv,
    "refined-terminal": _refined_check(*_REFINED_GROUPS[0]),
    "refined-initial": _refined_check(*_REFINED_GROUPS[1]),
    "refined-initial2": _refined_check(*_REFINED_GROUPS[2]),
    "refined-noninv": _refined_check(*_REFINED_GROUPS[3]),
    "bijection-3210": _check_bijection,
    "characterizations": _check_characterizations,
    "conj-3012": _check_conj_3012,
    "conj-0021": _check_conj_0021,
    "trees-0000": _check_trees_0000,
    "trees-0111": _check_trees_0111,
    "c-identity": _check_c_identity,
    "euler-000": _check_euler,
    "divergence-2001": _check_divergence,
}


def cmd_check(args):
    report = RunReport(f"check {args.name}", vars(args).copy())
    fn = _CHECKS.get(args.name)
    if fn is None:
        raise UsageError(
            f"unknown check {args.name!r}; available: {', '.join(sorted(_CHECKS))}"
        )
    fn(args, report)
    return report


# -- entry point ----------------------------------------------------------


def _add_common(sp):
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    sp.add_argument("--threads", type=int, default=None)
    sp.add_argument("--allow-long", action="store_true")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="invseq",
        description="Pattern-avoiding inversion sequences: counting, "
        "classification, verification.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("count", help="count avoiders over I_n or I_S")
    p.add_argument("--pattern", required=True)
    p.add_argument("--n", type=int)
    p.add_argument("--set")
    p.add_argument("--vector", action="store_true",
                   help="emit the whole count vector 1..n")
    _add_common(p)
    p.set_defaults(fn=cmd_count)

    p = sub.add_parser("classify", help="empirical Wilf classes")
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--nmax", type=int, required=True)
    _add_common(p)
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("check", help="run a named verification suite")
    p.add_argument("name")
    p.add_argument("--nmax", type=int, default=None)
    _add_common(p)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("bijection", help="apply the 3210<->3201 map")
    p.add_argument("--seq", required=True, help="comma-separated entries")
    p.add_argument("--inverse", action="store_true")
    _add_common(p)
    p.set_defaults(fn=cmd_bijection)

    p = sub.add_parser("trees", help="count label-increasing trees")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--root-unbounded", action="store_true")
    p.add_argument("--oracle", choices=("series", "bruteforce"), default="series")
    _add_common(p)
    p.set_defaults(fn=cmd_trees)

    p = sub.add_parser("series", help="EGF coefficient tables")
    p.add_argument("--kind", choices=("T", "R", "tansec"), required=True)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--order", type=int, required=True)
    _add_common(p)
    p.set_defaults(fn=cmd_series)

    p = sub.add_parser("oeis-compare", help="compare a computed sequence to a b-file")
    p.add_argument("--seq", required=True)
    p.add_argument("--bfile", required=True)
    p.add_argument("--offset", type=int, default=None)
    p.add_argument("--nmax", type=int, default=10,
                   help="number of computed terms")
    _add_common(p)
    p.set_defaults(fn=cmd_oeis_compare)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    start = time.monotonic()
    try:
        report = args.fn(args)
    except UsageError as ex:
        parser.exit(2, f"error: {ex}\n")
    except OSError as ex:
        parser.exit(2, f"error: {ex}\n")
    report.duration = time.monotonic() - start
    report.emit(args.format)
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
