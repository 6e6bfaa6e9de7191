"""The four benchmark workloads.

Each workload has three parts:

- `setup(seed, root)` builds the inputs (this is what `setup_s` times);
- `timed(inp, tr, out)` makes the library calls that are measured and
  stores every result in `out`, so a crash part-way leaves the results
  made so far. It is a generator that yields after each part of the
  workload; every repetition yields the same parts in the same order, so
  the runner can time each part across repetitions;
- `check(inp, out)` returns one (name, ok) verdict per planned output;
  an output that is missing counts as failed.

`expected(inp)` computes the oracle answers once, outside the timed section.
The inputs are copied here instead of being read from `invseq.cli`, so they
stay fixed when the CLI's checks move.
"""

from __future__ import annotations

import random
from itertools import combinations
from math import comb

from invseq import (
    bijections,
    counting,
    engine,
    series,
    trees,
    wilf,
)
from invseq.bfile import parse_bfile
from invseq.core import ordinary_bounds


def _subsets(ground):
    for r in range(len(ground) + 1):
        yield from combinations(ground, r)


# Lists of many small calls are timed in this many parts. A part of a few
# milliseconds would make its best time pick out timer jitter; a part of a
# few hundred milliseconds does not.
PARTS_PER_LIST = 8


def _parts(items):
    """`items` cut into PARTS_PER_LIST runs of consecutive items."""
    n = len(items)
    return [items[n * i // PARTS_PER_LIST: n * (i + 1) // PARTS_PER_LIST]
            for i in range(PARTS_PER_LIST)]


class Workload:
    threads = 1
    # Spans of work that only the traced run does; trace.overhead_s leaves them out.
    trace_only = ()

    def setup(self, seed, root):
        return {"root": root}

    def expected(self, inp):
        pass

    def check_trace(self, inp, out, tr):
        return []

    def counts(self, inp, out):
        return {}


# -- sweep ----------------------------------------------------------------

# Wilf classes proved in the paper; at n <= 9 2001 still agrees with 2011.
SWEEP_GROUPS = [
    ("1011", "1101", "1110"),
    ("2110", "2101", "2011", "2001"),
    ("0221", "0212"),
    ("0312", "0321"),
    ("1102", "1012"),
    ("2201", "2210"),
    ("2301", "2310"),
    ("3201", "3210"),
]


class Sweep(Workload):
    """classify(4, 9) over all 75 canonical patterns on a 2-worker pool."""

    length, nmax, threads = 4, 9, 2
    trace_only = ("wilf.job",)

    def expected(self, inp):
        inp["trees_0000"] = [trees.count_trees_bounded(n + 1, 3)
                             for n in range(1, self.nmax + 1)]
        inp["trees_0111"] = [trees.count_trees_root_unbounded(n + 1, 2)
                             for n in range(1, self.nmax + 1)]

    def timed(self, inp, tr, out):
        out["classes"] = tr.call(wilf.classify, self.length, self.nmax,
                                 threads=self.threads)
        yield
        if tr.enabled:
            # Pool workers report nothing back, so the traced run repeats each
            # job serially in-process to time it and record its layers.
            for p in wilf.canonical_patterns(self.length):
                with tr.span("wilf.job"):
                    out["job", str(p)] = tr.call(wilf.count_vector, p, self.nmax).counts

    def _vectors(self, out):
        return {str(p): cls.counts
                for cls in out.get("classes", ()) for p in cls.patterns}

    def check(self, inp, out):
        classes = out.get("classes", ())
        vectors = self._vectors(out)
        member = {str(p): i for i, cls in enumerate(classes) for p in cls.patterns}
        verdicts = [("sweep.patterns=75",
                     sum(len(cls.patterns) for cls in classes) == 75)]
        for group in SWEEP_GROUPS:
            verdicts.append((f"sweep.class {'='.join(group)}",
                             all(p in member for p in group)
                             and len({member[p] for p in group}) == 1))
        for word, key in (("0000", "trees_0000"), ("0111", "trees_0111")):
            got = vectors.get(word, ())
            for n, want in enumerate(inp[key], start=1):
                verdicts.append((f"sweep.{word} n={n}",
                                 len(got) >= n and got[n - 1] == want))
        return verdicts

    def check_trace(self, inp, out, tr):
        vectors = self._vectors(out)
        return [(f"sweep.job {p}", out.get(("job", str(p))) == vectors.get(str(p)))
                for p in wilf.canonical_patterns(self.length)]


# -- deep -----------------------------------------------------------------

# |I_n(3201)| for n = 1..11, pinned at the commit that added this benchmark.
# n <= 8 agrees with the reference engine; n = 9, 10 are the ROADMAP figures.
PIN_3201 = (1, 2, 6, 24, 120, 720, 5034, 40074, 356352, 3483636, 36944790)


class Deep(Workload):
    """A few huge layers in one process; every bound <= 11, so int8 rows."""

    nmax = 11

    def expected(self, inp):
        inp["a218225"] = series.a218225_terms(self.nmax)
        bf = parse_bfile(inp["root"] / "data" / "b218225.txt")
        inp["b218225"] = [bf.value(n) for n in range(1, self.nmax + 1)]

    def timed(self, inp, tr, out):
        out["3201"] = tr.call(wilf.count_vector, "3201", self.nmax).counts
        yield
        out["0021"] = tr.call(series.check_0021_conjecture, self.nmax)
        yield
        out["divergence"] = tr.call(wilf.first_divergence, "2001", "2011", 10)
        yield

    def check(self, inp, out):
        verdicts = []
        got = out.get("3201", ())
        for n, want in enumerate(PIN_3201, start=1):
            verdicts.append((f"deep.3201 n={n}", len(got) >= n and got[n - 1] == want))
        ok, report = out.get("0021", (False, {"counts": []}))
        verdicts.append(("deep.0021 functional equation", ok))
        counts = report["counts"]
        for source in ("a218225", "b218225"):
            for n, want in enumerate(inp[source], start=1):
                verdicts.append((f"deep.0021 n={n} vs {source}",
                                 len(counts) >= n and counts[n - 1] == want))
        verdicts.append(("deep.divergence 2001/2011 = 10", out.get("divergence") == 10))
        return verdicts

    def check_trace(self, inp, out, tr):
        kept = tr.layers_of("3201", ordinary_bounds(self.nmax))
        return [("trace.3201 rows_kept n=9", kept.get(9) == 356352),
                ("trace.3201 rows_kept n=10", kept.get(10) == 3483636)]


# -- subsets --------------------------------------------------------------

S_GROUPS = [
    ("210=201", [(2, 1, 0), (2, 0, 1)]),
    ("1011-class", [(1, 0, 1, 1), (1, 1, 0, 1), (1, 1, 1, 0)]),
    ("1012=1102", [(1, 0, 1, 2), (1, 1, 0, 2)]),
    ("2011-class", [(2, 0, 1, 1), (2, 1, 0, 1), (2, 1, 1, 0)]),
    ("2201=2210", [(2, 2, 0, 1), (2, 2, 1, 0)]),
    ("2301=2310", [(2, 3, 0, 1), (2, 3, 1, 0)]),
]

REFINED_GROUPS = [
    ("refined-terminal", [(1, 0, 1, 2), (1, 1, 0, 2)], ("terminal", 1)),
    ("refined-initial", [(2, 0, 1, 1), (2, 1, 0, 1), (2, 1, 1, 0)], ("initial", 1)),
    ("refined-initial2", [(2, 2, 0, 1), (2, 2, 1, 0)], ("initial", 2)),
    ("refined-noninv", [(2, 3, 0, 1), (2, 3, 1, 0)], "non_inversion"),
]

# |I_10(0 . suffix)| for the theorem 3.1 subset sums; each value agrees with
# the reference engine, and 0111 also with count_trees_root_unbounded(11, 2).
THM31 = {"111": 1684295, "212": 2109648, "221": 2109648,
         "312": 2638572, "321": 2638572}

# The engine stores every bound above 127 as int16, so the widest bound it
# counts correctly is 32768 (entries up to 32767). Wider sets are left out:
# the engine gives wrong counts there (ROADMAP, known defects).
INT16_BOUND = 32768


class Subsets(Workload):
    """Thousands of small S-inversion counts and materialized avoider rows."""

    thm31_n = 10
    reference_sets = 6

    def setup(self, seed, root):
        inp = super().setup(seed, root)
        rng = random.Random(seed)
        inp["sets8"] = rng.sample(list(_subsets(range(1, 9))), 2 ** 8)
        inp["sets7"] = rng.sample(list(_subsets(range(1, 8))), 2 ** 7)
        # Seeded fast-against-reference sample of the S-equivalence counts.
        inp["reference_sets"] = inp["sets8"][: self.reference_sets]
        # Bound sets whose largest bound straddles 127 (int8 -> int16), two
        # on each side, and two whose largest bound is near the int16 limit.
        wide = []
        for lo, hi, small, pats in (
            (100, 127, 5, [(1, 0), (0, 1), (1, 0, 1), (2, 1, 0), (0, 0, 2, 1)]),
            (128, 160, 5, [(1, 0), (0, 1), (1, 0, 1), (2, 1, 0), (0, 0, 2, 1)]),
            (30000, INT16_BOUND, 3, [(1, 0), (0, 1), (0, 0)]),
        ):
            for _ in range(2):
                head = sorted(rng.sample(range(1, small + 1), rng.randint(1, 2)))
                wide.append((tuple(head) + (rng.randint(lo, hi),), rng.choice(pats)))
        inp["wide"] = wide
        return inp

    def expected(self, inp):
        ref = lambda s, p: counting.count_avoiders(s, p, engine_name="reference")
        inp["reference"] = {(s, p): ref(s, p) for s in inp["reference_sets"]
                            for _, group in S_GROUPS for p in group}
        inp["wide_reference"] = [ref(s, p) for s, p in inp["wide"]]

    def timed(self, inp, tr, out):
        for part in _parts(inp["sets8"]):
            for s in part:
                for name, group in S_GROUPS:
                    out["sequiv", name, s] = [tr.call(counting.count_avoiders, s, p)
                                              for p in group]
            yield
        for part in _parts(inp["sets7"]):
            for s in part:
                for name, group, mode in REFINED_GROUPS:
                    out["refined", name, s] = [
                        tr.call(counting.refined_table, s, p, mode) for p in group]
            yield
        for suffix in THM31:
            out["thm31", suffix] = tr.call(counting.theorem31_rhs, self.thm31_n, suffix)
            yield
        for i, (s, p) in enumerate(inp["wide"]):
            out["wide", i] = tr.call(counting.count_avoiders, s, p)
        yield

    def check(self, inp, out):
        verdicts = []
        count_of = {}
        for s in inp["sets8"]:
            for name, group in S_GROUPS:
                got = out.get(("sequiv", name, s))
                verdicts.append((f"subsets.s-equiv {name} S={s}",
                                 got is not None and len(set(got)) == 1))
                for p, c in zip(group, got or ()):
                    count_of[s, p] = c
        for (s, p), want in inp["reference"].items():
            verdicts.append((f"subsets.reference {p} S={s}", count_of.get((s, p)) == want))
        for s in inp["sets7"]:
            for name, group, _ in REFINED_GROUPS:
                tables = out.get(("refined", name, s))
                ok = tables is not None and all(t == tables[0] for t in tables)
                ok = ok and all(sum(t.values()) == count_of.get((s, p))
                                for t, p in zip(tables, group))
                verdicts.append((f"subsets.{name} S={s}", ok))
        for suffix, want in THM31.items():
            verdicts.append((f"subsets.thm31 0{suffix} n={self.thm31_n}",
                             out.get(("thm31", suffix)) == want))
        for i, ((s, p), want) in enumerate(zip(inp["wide"], inp["wide_reference"])):
            verdicts.append((f"subsets.wide {p} S={s}", out.get(("wide", i)) == want))
        return verdicts

    def counts(self, inp, out):
        rows = sum(sum(t.values()) for key, tables in out.items()
                   if key[0] == "refined" for t in tables)
        return {"counting.refined_rows": rows}


# -- oracles --------------------------------------------------------------

# Euler zigzag numbers E_0..E_11 (OEIS A000111).
EULER = (1, 1, 1, 2, 5, 16, 61, 272, 1385, 7936, 50521, 353792)


class Oracles(Workload):
    """The pure-Python reference layers: core.contains does most of the work."""

    # Sized so a repetition takes 2 to 4 s: j, k <= 7 and n <= 8 together
    # take it past 10 s, and then too few repetitions fit in a run for the
    # best time of each part to be steady.
    binary_max = 6
    bijection_n = 7
    trees_n = 9
    euler_n = 9

    def setup(self, seed, root):
        inp = super().setup(seed, root)
        cases = [(tuple(0 if i == z else 1 for i in range(ell)), j, k)
                 for ell in range(2, 6) for z in range(ell)
                 for j in range(self.binary_max + 1)
                 for k in range(self.binary_max + 1)]
        random.Random(seed).shuffle(cases)
        inp["binary"] = cases
        return inp

    def timed(self, inp, tr, out):
        for part in _parts(inp["binary"]):
            for p, j, k in part:
                out["binary", p, j, k] = tr.call(
                    counting.count_binary_avoiders_bruteforce, j, k, p)
            yield
        for n in range(self.bijection_n + 1):
            out["bijection", n] = self._bijection(tr, n)
        yield
        for n in range(self.bijection_n + 1):
            out["characterization", n] = self._characterizations(tr, n)
        yield
        for n in range(1, self.trees_n + 1):
            out["trees", n, 3] = (
                tr.call(trees.count_trees_bruteforce, n, 3),
                tr.call(trees.count_trees_bounded, n, 3))
            out["trees", n, 2] = (
                tr.call(trees.count_trees_bruteforce, n, 2, root_unbounded=True),
                tr.call(trees.count_trees_root_unbounded, n, 2))
        yield
        out["euler"] = tr.call(series.euler_numbers, len(EULER) - 1)
        for n in range(1, self.euler_n + 1):
            out["000", n] = tr.call(counting.count_avoiders_n, n, (0, 0, 0),
                                    engine_name="reference")
        yield

    @staticmethod
    def _bijection(tr, n):
        """(round trip, multiset kept, x/y layers kept, onto I_n(3201))."""
        a = tr.call(engine.avoider_matrix, ordinary_bounds(n), bijections.P3210)
        b = tr.call(engine.avoider_matrix, ordinary_bounds(n), bijections.P3201)
        targets = {tuple(int(x) for x in row) for row in b}
        round_trip = multiset = layers_kept = True
        images = set()
        for row in a:
            e = tuple(int(x) for x in row)
            f = tr.each(bijections.map_3210_to_3201, e)
            layers = tr.each(bijections.maxima_layers, e)
            multiset = multiset and sorted(f) == sorted(e)
            layers_kept = layers_kept and all(f[i] == e[i] for i in layers.x + layers.y)
            round_trip = round_trip and tr.each(bijections.map_3201_to_3210, f) == e
            images.add(f)
        return round_trip, multiset, layers_kept, images == targets

    @staticmethod
    def _characterizations(tr, n):
        """Rows where a characterization disagrees with containment."""
        e_mat, m3210 = tr.call(engine.contains_mask, ordinary_bounds(n), bijections.P3210)
        _, m3201 = tr.call(engine.contains_mask, ordinary_bounds(n), bijections.P3201)
        wrong = 0
        for row, c0, c1 in zip(e_mat, m3210, m3201):
            e = tuple(int(x) for x in row)
            wrong += tr.each(bijections.is_3210_by_partition, e) == bool(c0)
            wrong += tr.each(bijections.is_3201_by_characterization, e) == bool(c1)
        return wrong

    def check(self, inp, out):
        verdicts = []
        for p, j, k in inp["binary"]:
            verdicts.append((f"oracles.binary {p} j={j} k={k}",
                             out.get(("binary", p, j, k))
                             == counting.binary_avoider_formula(j, k, len(p))))
        for n in range(self.bijection_n + 1):
            verdicts.append((f"oracles.bijection n={n}",
                             out.get(("bijection", n)) == (True,) * 4))
        for n in range(self.bijection_n + 1):
            verdicts.append((f"oracles.characterizations n={n}",
                             out.get(("characterization", n)) == 0))
        for n in range(1, self.trees_n + 1):
            for k in (3, 2):
                pair = out.get(("trees", n, k))
                verdicts.append((f"oracles.trees n={n} k={k}",
                                 pair is not None and pair[0] == pair[1]))
        verdicts.append(("oracles.euler tan+sec", tuple(out.get("euler", ())) == EULER))
        for n in range(1, self.euler_n + 1):
            verdicts.append((f"oracles.000 n={n} = E_{n + 1}",
                             out.get(("000", n)) == EULER[n + 1]))
        return verdicts

    def counts(self, inp, out):
        return {
            "counting.binary_words": sum(comb(j + k, k) for _, j, k in inp["binary"]),
            "trees.enumerated": sum(out[key][0] for key in out
                                    if isinstance(key, tuple) and key[0] == "trees"),
        }


WORKLOADS = {"sweep": Sweep(), "deep": Deep(), "subsets": Subsets(),
             "oracles": Oracles()}
