"""Vectorized avoider enumeration.

Grows the set of pattern-avoiding S-inversion sequences one position at a
time as a numpy matrix (one row per avoider, rows in lexicographic order).
Correctness rests on hereditary avoidance: every prefix of an avoider
avoids, so extending only surviving rows and rejecting extensions that
complete an occurrence at the new position enumerates exactly the avoiders.

Each growth step filters once per parent row, not once per child. For a
choice of L-1 old columns whose values realize the pattern head p[:L-1],
the new values v that complete an occurrence form one interval: v must
lie above every entry whose pattern value is below p[L-1], below every
entry whose pattern value is above it, and equal to any tied entry. The
union of these forbidden intervals over all column choices is taken with
a difference array over the (value, row) grid and a running sum; the
children with coverage 0 survive. Layers are stored column-major, so
each column comparison reads contiguous memory. Entries use the narrowest
signed integer dtype that holds the largest bound minus one, so none wraps.
"""

from __future__ import annotations

from math import comb

import numpy as np

from .core import _pattern_entries, _sign, validate_bounds

_INT_DTYPES = [(np.iinfo(dt).max, dt) for dt in (np.int8, np.int16, np.int32)]


def _int_dtype(limit):
    """The narrowest signed integer dtype holding every value in [-limit, limit]."""
    return next((dt for top, dt in _INT_DTYPES if limit <= top), np.int64)


def _dtype_for(bounds):
    """Storage dtype for entries below the largest bound."""
    return _int_dtype(max(bounds, default=1) - 1)


def _interval_ends(p):
    """Where the forbidden interval [lo, hi] for the new value v comes from.

    Returns (start, stop), each None or (head position, offset): given the
    matched head values x, lo = x[start[0]] + start[1] (0 when start is
    None) and hi + 1 = x[stop[0]] + stop[1] (the bound s when stop is
    None). A tied entry pins v to its value. Otherwise v lies just above
    the largest head value below p[-1] and just below the smallest one
    above it; once the head matches, entries with equal pattern values are
    equal, so one position of each suffices.
    """
    last, head = p[-1], p[:-1]
    tie = next((a for a, x in enumerate(head) if x == last), None)
    if tie is not None:
        return (tie, 0), (tie, 1)
    lower = [a for a, x in enumerate(head) if x < last]
    upper = [a for a, x in enumerate(head) if x > last]
    start = (max(lower, key=head.__getitem__), 1) if lower else None
    stop = (min(upper, key=head.__getitem__), 0) if upper else None
    return start, stop


def _head_matches(cols, rel, combo=(), mask=None):
    """Yield (combo, mask) for every choice of len(rel) columns, in order.

    mask marks the rows whose values in those columns are order-isomorphic
    to the pattern head, or is None when every row qualifies. Masks are
    built incrementally, so choices sharing a prefix share its comparisons.
    """
    t = len(combo)
    if t == len(rel):
        yield combo, mask
        return
    for c in range(combo[-1] + 1 if combo else 0, len(cols) - len(rel) + t + 1):
        x, sub = cols[c], mask
        for a in range(t):
            y, r = cols[combo[a]], rel[a][t]
            cond = x > y if r > 0 else x < y if r < 0 else x == y
            sub = cond if sub is None else sub & cond
        yield from _head_matches(cols, rel, combo + (c,), sub)


def _plan(p):
    """What every growth step for pattern entries p needs: (rel, start, stop).

    rel[a][b] is the sign of p[b] - p[a] over the pattern head; start and
    stop are the ends of the forbidden interval (see _interval_ends).
    """
    k = len(p) - 1
    rel = [[_sign(p[b] - p[a]) for b in range(k)] for a in range(k)]
    return (rel,) + _interval_ends(p)


def _keep_mask(E, s, rel, start, stop):
    """keep[v, r]: whether row r of E followed by the value v still avoids.

    E holds avoiders as rows, column-major; its dtype must hold s - 1.
    """
    rows, m = E.shape
    cols = [E[:, j] for j in range(m)]
    # diff[v, r] is +1 where an interval of row r starts and -1 just past
    # its end; a cell gets at most one of each per column choice.
    diff = np.zeros((s + 1, rows), dtype=_int_dtype(comb(m, len(rel))))
    for combo, mask in _head_matches(cols, rel):
        idx = mask.nonzero()[0] if mask is not None else np.arange(rows)
        # Old entries are below their bound, which is below the largest
        # one, so x + 1 still fits the storage dtype.
        if start is None:
            diff[0, idx] += 1
        else:
            diff[cols[combo[start[0]]][idx] + start[1], idx] += 1
        if stop is not None:
            diff[cols[combo[stop[0]]][idx] + stop[1], idx] -= 1
    # The running sum counts the intervals covering each (v, row) child.
    np.add.accumulate(diff, axis=0, out=diff)
    return diff[:s] == 0


def _grow(E, s, keep):
    """The next layer: each row of E followed by each value kept for it.

    Lexicographic order, column-major storage and E's dtype carry over.
    """
    rows, m = E.shape
    counts = np.add.reduce(keep, axis=0)
    keep = np.ascontiguousarray(keep.T)
    out = np.empty((int(counts.sum()), m + 1), dtype=E.dtype, order="F")
    for j in range(m):
        out[:, j] = E[:, j].repeat(counts)
    out[:, m] = np.arange(s, dtype=E.dtype)[None].repeat(rows, 0)[keep]
    return out


def _empty_layer(bounds):
    """The single empty avoider, in the storage dtype for `bounds`."""
    return np.zeros((1, 0), dtype=_dtype_for(bounds), order="F")


def avoider_steps(bounds, pattern):
    """Yield the avoider matrix after each successive bound.

    The matrix for the length-m prefix of `bounds` has one row per element
    of I_{S_m}(pattern), in lexicographic order, stored column-major.
    """
    bounds = validate_bounds(bounds)
    plan = _plan(_pattern_entries(pattern))
    E = _empty_layer(bounds)
    for s in bounds:
        E = _grow(E, s, _keep_mask(E, s, *plan))
        yield E


def subset_total(ground, pattern):
    """Sum of |I_S(pattern)| over every subset S of the bound set `ground`.

    A depth-first walk over the subset lattice: each subset, taken in
    increasing order, is its parent's bounds plus one larger bound, so its
    layer is one growth step from the parent's layer. That is one step per
    nonempty subset instead of one per entry of every subset. Subsets
    ending in the largest bound have no children, so only their rows are
    counted and their layers are never built.
    """
    ground = validate_bounds(ground)
    plan = _plan(_pattern_entries(pattern))

    def walk(E, lo):
        total = E.shape[0]
        for i in range(lo, len(ground)):
            keep = _keep_mask(E, ground[i], *plan)
            if i + 1 < len(ground):
                total += walk(_grow(E, ground[i], keep), i + 1)
            else:
                total += int(np.count_nonzero(keep))
        return total

    return walk(_empty_layer(ground), 0)


def avoider_matrix(bounds, pattern):
    """All of I_S(pattern) as rows of a matrix, lexicographic order."""
    E = np.zeros((1, 0), dtype=np.int8)
    for E in avoider_steps(bounds, pattern):
        pass
    return E


def avoider_counts(bounds, pattern):
    """|I_{S_m}(pattern)| for every prefix S_m of the bound set."""
    return [E.shape[0] for E in avoider_steps(bounds, pattern)]


def full_matrix(bounds):
    """All S-inversion sequences for the given bounds, lexicographic order."""
    bounds = validate_bounds(bounds)
    n = len(bounds)
    dt = _dtype_for(bounds)
    if n == 0:
        return np.zeros((1, 0), dtype=dt)
    grids = np.meshgrid(*[np.arange(s, dtype=dt) for s in bounds], indexing="ij")
    return np.stack(grids, axis=-1).reshape(-1, n)


def contains_mask(bounds, pattern):
    """(matrix of all of I_S, boolean mask of rows containing the pattern).

    The rows that avoid are those of `avoider_matrix`, located in the full
    lexicographic matrix by their mixed-radix index.
    """
    bounds = validate_bounds(bounds)
    E = full_matrix(bounds)
    A = avoider_matrix(bounds, pattern)
    index = np.zeros(A.shape[0], dtype=np.int64)
    for j, s in enumerate(bounds):
        index = index * s + A[:, j]
    hit = np.ones(E.shape[0], dtype=bool)
    hit[index] = False
    return E, hit
