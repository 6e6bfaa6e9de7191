"""Empirical Wilf classification of patterns over inversion sequences."""

from __future__ import annotations

import os
from dataclasses import dataclass
from itertools import product, repeat

from .core import Pattern, _integer, as_pattern, ordinary_bounds
from . import engine


@dataclass(frozen=True)
class CountVector:
    pattern: Pattern
    counts: tuple  # |I_n(pattern)| for n = 1..n_max


@dataclass(frozen=True)
class WilfClass:
    patterns: tuple  # sorted lexicographically
    counts: tuple


def canonical_patterns(length):
    """All canonical words of the given length, lexicographic order."""
    length = _integer(length, "length")
    if length < 1:
        raise ValueError("length must be >= 1")
    out = []
    for word in product(range(length), repeat=length):
        if set(word) == set(range(max(word) + 1)):
            out.append(Pattern(word))
    return out


def count_vector(pattern, n_max):
    """Exact |I_n(pattern)| for n = 1..n_max."""
    n_max = _integer(n_max, "n_max")
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    p = as_pattern(pattern)
    return CountVector(p, tuple(engine.count_steps(ordinary_bounds(n_max), p)))


def classify(length, n_max, threads=os.cpu_count() or 1):
    """Partition canonical patterns of the given length by count vector.

    Runs min(threads, CPU count, number of patterns) worker processes, or
    none when that is 1. Classes are returned sorted by their
    lexicographically smallest pattern; the partition is independent of
    input order and worker count.
    """
    threads = _integer(threads, "threads")
    if threads < 1:
        raise ValueError("threads must be >= 1")
    patterns = canonical_patterns(length)
    workers = min(threads, os.cpu_count() or 1, len(patterns))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # loads multiprocessing
        import numpy  # noqa: F401  the forked workers inherit it, so none imports it again
        with ProcessPoolExecutor(max_workers=workers) as pool:
            vectors = list(pool.map(count_vector, patterns, repeat(n_max)))
    else:
        vectors = list(map(count_vector, patterns, repeat(n_max)))
    by_counts = {}
    for v in vectors:
        by_counts.setdefault(v.counts, []).append(v.pattern)
    classes = [
        WilfClass(tuple(sorted(ps, key=lambda q: q.entries)), counts)
        for counts, ps in by_counts.items()
    ]
    classes.sort(key=lambda c: c.patterns[0].entries)
    return classes


def first_divergence(p, q, n_max):
    """Smallest n <= n_max with |I_n(p)| != |I_n(q)|, or None.

    Counts are grown incrementally and compared per length, so the search
    stops at the first difference; the length n_max is only counted.
    """
    n_max = _integer(n_max, "n_max")
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    p, q = as_pattern(p), as_pattern(q)
    bounds = ordinary_bounds(n_max)
    counts = zip(engine.count_steps(bounds, p), engine.count_steps(bounds, q))
    for n, (a, b) in enumerate(counts, start=1):
        if a != b:
            return n
    return None
