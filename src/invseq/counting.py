"""Counting and enumerating avoiders, the subset-sum identity, the
binary-word formula, and the refined statistics used by the double
inductions.
"""

from __future__ import annotations

from collections import Counter
from math import comb

from .core import (
    Pattern,
    _completes,
    _integer,
    _integers,
    _numpy,
    _relations,
    as_pattern,
    ordinary_bounds,
    validate_bounds,
)
from . import engine

np = _numpy()


def enumerate_avoiders(bounds, pattern):
    """Yield every element of I_S(pattern) exactly once, lexicographically.

    Pruned depth-first search: a prefix is extended only if the new entry
    does not complete an occurrence (hereditary avoidance justifies never
    revisiting a rejected prefix). The pattern's relation table is looked
    up once and each candidate is checked by `core._completes` directly.
    The walk keeps one prefix and a stack of the value iterators of its
    levels, so its depth is not bounded by Python's recursion limit, and
    each avoider is yielded from the last level without a frame per entry.
    """
    bounds = validate_bounds(bounds)
    rel = _relations(as_pattern(pattern).entries)
    if not bounds:
        yield ()
        return
    last = len(bounds) - 1
    seq = []
    stack = [iter(range(bounds[0]))]
    while stack:
        i = len(seq)
        for x in stack[-1]:
            if not _completes(seq, i, x, rel):
                if i == last:
                    yield (*seq, x)
                else:
                    seq.append(x)
                    stack.append(iter(range(bounds[i + 1])))
                    break
        else:  # level i is exhausted: back to the value before it
            stack.pop()
            del seq[-1:]


def count_avoiders(bounds, pattern, engine_name="fast"):
    """|I_S(pattern)| for the given bound set.

    engine_name 'fast' uses the vectorized grower; 'reference' the pure
    Python backtracking enumerator (kept as an independent cross-check).
    """
    if engine_name not in ("fast", "reference"):
        raise ValueError(f"unknown engine {engine_name!r}")
    if engine_name == "reference":
        return sum(1 for _ in enumerate_avoiders(bounds, pattern))
    count = 1  # the empty sequence, when there are no bounds
    for count in engine.count_steps(bounds, pattern):  # which validates them
        pass
    return count


def count_avoiders_n(n, pattern, engine_name="fast"):
    """|I_n(pattern)| over ordinary inversion sequences.

    Nothing in the library calls it (`wilf.count_vector` ends with this
    count). It stays only because perfbench/workloads.py calls it, and
    goes when the benchmark next changes (ROADMAP direction 8)."""
    return count_avoiders(ordinary_bounds(n), pattern, engine_name)


_SUBSET_LIMIT = 25


def theorem31_rhs(n, suffix):
    """Sum of |I_S(suffix)| over all S subset of [n-1].

    `suffix` is the literal tail of a pattern whose first entry is 0 and
    whose remaining entries are positive; zero entries are rejected since
    they violate that hypothesis. Equals |I_n(0 . suffix)|. The subsets
    are visited by one depth-first walk of the subset lattice
    (`engine.subset_total`).
    """
    n = _integer(n, "n", 1)
    if n > _SUBSET_LIMIT:
        raise ValueError(
            f"refusing subset sum for n > {_SUBSET_LIMIT} (2^(n-1) subsets)"
        )
    word = _integers(suffix, "suffix entry", digits=True)
    if not word:
        raise ValueError("suffix must be nonempty")
    if min(word) < 1:
        raise ValueError("suffix entries must be positive (pattern tail after 0)")
    return engine.subset_total(range(1, n), Pattern(word))


def binary_avoider_formula(j, k, ell):
    """C(j + min(k, ell-2), j): binary words with j zeros and k ones avoiding
    any length-ell binary pattern with exactly one zero."""
    ell = _integer(ell, "ell", 2)
    j, k = _integers((j, k), "(j, k) entry")
    if j < 0 or k < 0:
        raise ValueError("j and k must be nonnegative")
    return comb(j + min(k, ell - 2), j)


def count_binary_avoiders_bruteforce(j, k, pattern):
    """Exhaustive count of pattern-avoiding binary words with j zeros, k ones.

    The pattern must be over {0,1} with exactly one zero; this is the
    oracle for binary_avoider_formula. Words grow one letter at a time and
    a prefix that contains the pattern is never extended (avoidance is
    hereditary under prefixes), so every avoider is reached exactly once.
    Prefixes wait on one explicit stack, so no recursion limit bounds j + k.
    """
    p = as_pattern(pattern)
    if len(p) < 2 or set(p) - {0, 1} or p.entries.count(0) != 1:
        raise ValueError("pattern must be binary with exactly one zero")
    j, k = _integers((j, k), "(j, k) entry")
    if j < 0 or k < 0:
        raise ValueError("j and k must be nonnegative")
    rel = _relations(p.entries)
    total, stack = 0, [((), j, k)]
    while stack:
        word, zeros, ones = stack.pop()
        if not zeros and not ones:
            total += 1
            continue
        n = len(word)
        if zeros and not _completes(word, n, 0, rel):
            stack.append((word + (0,), zeros - 1, ones))
        if ones and not _completes(word, n, 1, rel):
            stack.append((word + (1,), zeros, ones - 1))
    return total


def _zero_positions(e):
    return [i for i, x in enumerate(e) if x == 0]


def terminal_h_repeat(e, h):
    """Largest r such that e has >= r zeros and some positive value occurs
    at least h times strictly after the r-th zero; 0 if none."""
    h = _integer(h, "h", 0)
    zeros = _zero_positions(e)
    if h == 0:
        return len(zeros)
    best = 0
    for r in range(1, len(zeros) + 1):
        z = zeros[r - 1]
        counts = Counter(x for x in e[z + 1 :] if x > 0)
        if counts and max(counts.values()) >= h:
            best = r
    return best


def initial_h_repeat(e, h):
    """Largest r such that e has >= r zeros and some positive value occurs
    at least h times strictly before the r-th-to-last zero; 0 if none."""
    h = _integer(h, "h", 1)
    zeros = _zero_positions(e)
    best = 0
    for r in range(1, len(zeros) + 1):
        z = zeros[-r]
        counts = Counter(x for x in e[:z] if x > 0)
        if counts and max(counts.values()) >= h:
            best = r
    return best


def initial_non_inversion(e):
    """Largest z such that e has >= z zeros and no ascent of two positive
    entries occurs strictly before the z-th zero; may be 0."""
    zeros = _zero_positions(e)
    best = 0
    for z in range(1, len(zeros) + 1):
        cut = zeros[z - 1]
        prefix = [x for x in e[:cut] if x > 0]
        ok = True
        lowest = None
        for x in prefix:
            if lowest is not None and x > lowest:
                ok = False
                break
            lowest = x if lowest is None else min(lowest, x)
        if ok:
            best = z
    return best


def initial_positive_set(e):
    """Indices i < z (z the initial non-inversion statistic) such that a
    positive entry sits between the i-th and (i+1)-th zeros; i=0 means
    before the first zero."""
    z = initial_non_inversion(e)
    zeros = _zero_positions(e)
    out = set()
    for i in range(z):
        lo = zeros[i - 1] + 1 if i >= 1 else 0
        hi = zeros[i]
        if any(e[t] > 0 for t in range(lo, hi)):
            out.add(i)
    return frozenset(out)


def _refined_key(e, mode):
    j = sum(1 for x in e if x == 0)
    k = sum(1 for x in e if x == 1)
    if mode == "non_inversion":
        return (j, k, initial_non_inversion(e), initial_positive_set(e))
    try:
        kind, h = mode
    except (TypeError, ValueError):
        kind = h = None
    if kind not in ("terminal", "initial") or not isinstance(h, int):
        raise ValueError(f"unknown refinement mode {mode!r}")
    stat = terminal_h_repeat if kind == "terminal" else initial_h_repeat
    return (j, k, stat(e, h))


def _repeat_counts(E, zero, pos, kind, h):
    """terminal_h_repeat resp. initial_h_repeat of every row of E.

    For 'terminal' a zero qualifies when some positive value occurs h times
    after it, for 'initial' when one does before it. The qualifying zeros
    are the leftmost resp. rightmost ones, so the statistic is their number.
    Walking the columns toward that end, a zero qualifies once the running
    multiplicity of some positive value over the walked columns reaches h.
    """
    rows, n = E.shape
    if h == 0:
        return zero.sum(axis=1)
    walk = range(n) if kind == "initial" else range(n - 1, -1, -1)
    hit = np.zeros(rows, dtype=bool)
    r = np.zeros(rows, dtype=np.int64)
    for i, t in enumerate(walk):
        x = E[:, t]
        seen = 1 + sum(E[:, u] == x for u in walk[:i]) if h > 1 else 1
        hit |= pos[:, t] & (seen >= h)
        r += zero[:, t] & hit
    return r


def _non_inversion_columns(E, zero, pos):
    """(z, B) for every row of E: z = initial_non_inversion, and B[row, i]
    is true iff i is in initial_positive_set.

    A zero counts toward z iff no ascent of positives is completed at or
    before it; a positive entry marks the segment numbered by the zeros
    before it.
    """
    rows, n = E.shape
    low = np.full(rows, np.iinfo(E.dtype).max, dtype=E.dtype)
    clean = np.ones(rows, dtype=bool)
    z = np.zeros(rows, dtype=np.int64)
    for t in range(n):
        x = E[:, t]
        clean &= x <= low
        np.minimum(low, x, out=low, where=pos[:, t])
        z += zero[:, t] & clean
    segment = np.cumsum(zero, axis=1) - zero
    r, t = np.nonzero(pos & (segment < z[:, None]))
    B = np.zeros((rows, n), dtype=bool)
    B[r, segment[r, t]] = True
    return z, B


def _refined_counts(E, mode):
    """Counter(_refined_key(row, mode) for row in E) as a dict, computed
    column-wise over the matrix E of sequences, one per row.

    Each row's key is packed into int64 words of 63 bits (j, k and the
    statistic take n.bit_length() bits each, the positive set one bit per
    segment), and rows are grouped by sorting the words: a group starts
    where a sorted word changes (engine._starts).
    """
    rows, n = E.shape
    if rows == 0:
        return {}
    zero, pos = E == 0, E > 0
    fields = [zero.sum(axis=1), (E == 1).sum(axis=1)]
    if mode == "non_inversion":
        z, B = _non_inversion_columns(E, zero, pos)
        fields.append(z)
        bits = [(byte, 8) for byte in np.packbits(B, axis=1).T]
    else:
        fields.append(_repeat_counts(E, zero, pos, *mode))
        bits = []
    packed = [(f, n.bit_length()) for f in fields] + bits
    words, used = [np.zeros(rows, dtype=np.int64)], 0
    for values, w in packed:
        if used + w > 63:
            words.append(np.zeros(rows, dtype=np.int64))
            used = 0
        words[-1] |= values.astype(np.int64) << used
        used += w
    order = np.lexsort(words)
    starts = engine._starts((word[order] for word in words), rows)
    reps = order[starts]
    keys = [f[reps].tolist() for f in fields]
    if mode == "non_inversion":
        keys.append(frozenset(b.nonzero()[0].tolist()) for b in B[reps])
    sizes = np.append(starts[1:], rows) - starts
    return dict(zip(zip(*keys), sizes.tolist()))


def refined_table(bounds, pattern, mode):
    """Counts of I_S(pattern) partitioned by refined key.

    mode is ('terminal', h), ('initial', h) or 'non_inversion'; keys are
    (j, k, r) resp. (j, k, z, P) with P a frozenset. Values sum to
    |I_S(pattern)|. The keys are computed column-wise over the avoider
    matrix; `_refined_key` is their per-row definition.
    """
    bounds = validate_bounds(bounds)
    _refined_key((), mode)  # reject a bad mode even when there are no rows
    return _refined_counts(engine.avoider_matrix(bounds, pattern), mode)
