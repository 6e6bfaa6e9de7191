"""Empirical Wilf classification of patterns over inversion sequences."""

from __future__ import annotations

import os
from dataclasses import dataclass
from itertools import product

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

    Counts in min(threads, CPU count, number of patterns) processes: this
    one and workers - 1 forked children (see _split), or this one alone when
    that number is 1 or the platform cannot fork. While they count, each
    process gets an equal share of the free memory for its steps. Classes
    are returned sorted by their lexicographically smallest pattern; the
    partition is independent of input order and worker count.
    """
    threads = _integer(threads, "threads")
    if threads < 1:
        raise ValueError("threads must be >= 1")
    patterns = canonical_patterns(length)
    workers = min(threads, os.cpu_count() or 1, len(patterns)) if hasattr(os, "fork") else 1
    if workers > 1:
        counts = _split(patterns, n_max, workers)
    else:
        counts = [count_vector(p, n_max).counts for p in patterns]
    by_counts = {}
    for p, c in zip(patterns, counts):
        by_counts.setdefault(c, []).append(p)
    classes = [
        WilfClass(tuple(sorted(ps, key=lambda q: q.entries)), c)
        for c, ps in by_counts.items()
    ]
    classes.sort(key=lambda c: c.patterns[0].entries)
    return classes


def _split(patterns, n_max, workers):
    """The count tuples of `patterns`, counted in `workers` processes.

    Child i counts patterns[i::workers] and sends its counts, or the
    exception it raised, pickled through a pipe; this process counts
    patterns[0::workers] meanwhile. It reads each pipe to its end before it
    reaps that child, so no child blocks on a full pipe, and re-raises a
    child's exception. Whatever it raises, no child outlives the call:
    those not yet reaped are killed and reaped.
    """
    import pickle
    import signal
    import numpy  # noqa: F401  the children inherit it, so none imports it again

    counts = [None] * len(patterns)
    pipes, pids, reaped = [], [], 0
    previous = engine._share_memory(workers)
    try:
        for i in range(1, workers):
            r, w = os.pipe()
            pipes.append(r)
            try:
                pid = os.fork()
                if not pid:
                    _child(w, patterns[i::workers], n_max)
            finally:
                os.close(w)
            pids.append(pid)
        counts[0::workers] = [count_vector(p, n_max).counts for p in patterns[0::workers]]
        for i, (r, pid) in enumerate(zip(pipes, pids), start=1):
            data = b"".join(iter(lambda: os.read(r, 1 << 16), b""))
            status = os.waitpid(pid, 0)[1]
            reaped = i
            if not data:
                raise ChildProcessError(f"a classify worker exited with code "
                                        f"{os.waitstatus_to_exitcode(status)} and sent no counts")
            ok, result = pickle.loads(data)
            if not ok:
                raise result
            counts[i::workers] = result
    finally:
        engine._share_memory(previous)
        for pid in pids[reaped:]:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for r in pipes:
            os.close(r)
    return counts


def _child(w, share, n_max):
    """Count `share` in a forked child, write the pickled (ok, counts or
    exception) to the pipe end `w` and leave without returning."""
    status = 1
    try:
        import pickle

        try:
            result = True, [count_vector(p, n_max).counts for p in share]
        except BaseException as ex:  # sent to the parent, which raises it
            result = False, ex
        data = pickle.dumps(result, pickle.HIGHEST_PROTOCOL)
        with os.fdopen(w, "wb") as fh:
            fh.write(data)
        status = 0
    finally:
        os._exit(status)


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
