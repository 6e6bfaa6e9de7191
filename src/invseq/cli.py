"""Command-line front end.

Subcommands: count, classify, check, bijection, trees, series,
oeis-compare. Result tables go to stdout as CSV or JSON-lines; PASS/FAIL
verdict lines go to stderr; the exit status is 0 iff every verdict passed.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from dataclasses import dataclass, field

from . import bijections, counting, series, trees, wilf
from .bfile import BFileError, compare_with_bfile, parse_bfile
from .claims import CLAIMS
from .core import Pattern, validate_bounds


class UsageError(ValueError):
    pass


@dataclass
class RunReport:
    command: str
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

    def emit(self, fmt="csv"):
        out, err = sys.stdout, sys.stderr
        if self.rows:
            if fmt == "csv":
                cols = list(self.rows[0].keys())
                writer = csv.DictWriter(out, fieldnames=cols)
                writer.writeheader()
                writer.writerows(self.rows)
            else:
                for row in self.rows:
                    out.write(json.dumps(row) + "\n")
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


# -- subcommands ----------------------------------------------------------


def cmd_count(args):
    report = RunReport("count")
    pattern = _parse_pattern(args.pattern)
    if (args.n is None) == (args.set is None):
        raise UsageError("provide exactly one of --n or --set")
    if args.set is not None:
        if args.vector:
            raise UsageError("--vector needs --n: a bound set has one count")
        bounds = _parse_set(args.set)
        report.add(set=",".join(map(str, bounds)), pattern=str(pattern),
                   count=counting.count_avoiders(bounds, pattern))
    else:
        if args.n < 1:
            raise UsageError("--n must be >= 1")
        if args.vector:
            counts = wilf.count_vector(pattern, args.n).counts
            for n, c in enumerate(counts, start=1):
                report.add(n=n, pattern=str(pattern), count=c)
        else:
            report.add(n=args.n, pattern=str(pattern),
                       count=counting.count_avoiders_n(args.n, pattern))
    return report


def cmd_classify(args):
    report = RunReport("classify")
    if args.length < 1 or args.nmax < 1:
        raise UsageError("--length and --nmax must be >= 1")
    classes = wilf.classify(args.length, args.nmax)
    for idx, cls in enumerate(classes):
        report.add(
            cls=idx,
            patterns=" ".join(str(p) for p in cls.patterns),
            counts=" ".join(str(c) for c in cls.counts),
        )
    return report


def cmd_bijection(args):
    report = RunReport("bijection")
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
    report = RunReport("trees")
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
    report = RunReport("series")
    if args.order < 0:
        raise UsageError("--order must be >= 0")
    if args.kind == "tansec":
        s = series.tan_plus_sec(args.order)
    elif args.k < 1:
        raise UsageError(f"--k must be >= 1 for kind {args.kind}")
    elif args.kind == "T":
        s = series.series_Tk(args.k, args.order)
    else:
        s = series.series_Rk(args.k, args.order)
    for n in range(args.order + 1):
        report.add(kind=args.kind, k=args.k if args.kind != "tansec" else "",
                   n=n, egf_coefficient=s.egf_int(n))
    return report


_SEQUENCES = {
    "bell": lambda nmax: [series.series_Rk(1, nmax).egf_int(n)
                          for n in range(nmax + 1)],
    "trees-bounded-3": lambda nmax: [trees.count_trees_bounded(n, 3)
                                     for n in range(nmax + 1)],
    "boxes-2": lambda nmax: trees.boxed_counts_operator(2, nmax),
    "boxes-3": lambda nmax: trees.boxed_counts_operator(3, nmax),
}


def _computed_sequence(args):
    """(first n, terms for n = first n..nmax) of the selected sequence."""
    sel, nmax = args.seq, args.nmax
    if nmax < 1:
        raise UsageError("--nmax must be >= 1")
    if sel in _SEQUENCES:
        return 0, _SEQUENCES[sel](nmax)
    if sel.startswith("inv-"):
        pattern = _parse_pattern(sel[4:])
        return 1, wilf.count_vector(pattern, nmax).counts
    known = sorted(_SEQUENCES) + ["inv-<pattern>"]
    raise UsageError(f"unknown sequence selector {sel!r}; known: {', '.join(known)}")


def cmd_oeis_compare(args):
    report = RunReport("oeis-compare")
    bf = parse_bfile(args.bfile)
    first, values = _computed_sequence(args)
    offset = first if args.offset is None else args.offset
    result = compare_with_bfile(values, bf, offset)
    report.add(seq=args.seq, bfile=str(args.bfile), offset=result["offset"],
               overlap=result["overlap"],
               first_mismatch=str(result["first_mismatch"]),
               verdict=result["verdict"])
    report.verdict(f"oeis-compare {args.seq}", result["verdict"] == "PASS")
    return report


def cmd_check(args):
    claim = CLAIMS.get(args.name)
    if claim is None:
        raise UsageError(
            f"unknown check {args.name!r}; available: {', '.join(sorted(CLAIMS))}"
        )
    nmax = claim.default if args.nmax is None else args.nmax
    if nmax < 1:
        raise UsageError("--nmax must be >= 1")
    if nmax > claim.limit and not args.allow_long:
        raise UsageError(f"--nmax {nmax} exceeds the cap {claim.limit} of check "
                         f"{args.name}; rerun with --allow-long")
    report = RunReport(f"check {args.name}")
    claim.run(nmax, report)
    if not report.verdicts:
        raise UsageError(f"--nmax {nmax} runs no case of check {args.name}")
    return report


# -- entry point ----------------------------------------------------------


def _add_common(sp):
    sp.add_argument("--format", choices=("csv", "json"), default="csv")


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
                   help="emit the whole count vector 1..n (with --n)")
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
    p.add_argument("--allow-long", action="store_true", help="lift the --nmax cap")
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
    p.add_argument("--offset", type=int, default=None,
                   help="b-file index of the first term (default: its n)")
    p.add_argument("--nmax", type=int, default=10,
                   help="largest n computed")
    _add_common(p)
    p.set_defaults(fn=cmd_oeis_compare)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    start = time.monotonic()
    try:
        report = args.fn(args)
    except (UsageError, BFileError, OSError, MemoryError) as ex:
        parser.exit(2, f"error: {ex}\n")
    report.duration = time.monotonic() - start
    report.emit(args.format)
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
