"""Vectorized avoider enumeration.

Grows the set of pattern-avoiding S-inversion sequences one position at a
time as a numpy matrix (one row per avoider, rows in lexicographic order).
Correctness rests on hereditary avoidance: every prefix of an avoider
avoids, so extending only surviving rows and rejecting extensions that
complete an occurrence at the new position enumerates exactly the avoiders.

Each growth step first finds, for every row, the next values that would
complete an occurrence. For a choice of L-1 columns whose values realize
the pattern head p[:L-1], those values form one interval: v must lie above
every entry whose pattern value is below p[L-1], below every entry whose
pattern value is above it, and equal to any tied entry; choices sharing
the columns of the interval's ends share it, so it is found once for them.
The forbidden values of a row are bits in uint64 words, ceil(largest bound
/ 64) words per row, so their union is a bitwise OR; the children whose bit
is clear survive. A grown row starts from its parent's bits, which hold
every occurrence ending before its last column, so a growth step tests
only the choices ending there. A count of the last length, rows × s minus
the set bits below s, builds no layer and gets its parent layer bare from
`avoider_steps`, so it walks prefixes: an occurrence whose head ends at
column t-1 depends only on the length-t prefix, and rows sharing a prefix
are adjacent, so a walk over t = 1..m tests it once per distinct prefix and
passes the bits down. It walks at most _BLOCK rows at a time; a block's
first row starts a new prefix, so block edges change no bit, and the count
never holds the bits of a whole layer. Layers are stored column-major, so
each column comparison reads contiguous memory. Entries use the narrowest
signed integer dtype that holds the largest bound minus one, so none wraps.

Each step first predicts its bytes from its shape and, if they exceed the
memory the OS reports available, raises MemoryError before it allocates.
A count done in blocks predicts one block's arrays, and its refusal names
the whole layer.
"""

from __future__ import annotations

import os
from functools import lru_cache
from itertools import islice
from math import comb, prod

import numpy as np

from .core import _relations, as_pattern, validate_bounds

_INT_DTYPES = [(np.iinfo(dt).max, dt) for dt in (np.int8, np.int16, np.int32)]

_WORD = 64
# Bit words are little-endian, so their bytes list the values in order.
_BITS = np.dtype("<u8")
# _LOW[b] has the bits below b set and _HIGH[b] the others, for 0 <= b <= 64.
_LOW = np.array([(1 << b) - 1 for b in range(_WORD + 1)], dtype=_BITS)
_HIGH = ~_LOW
# Rows per block of a layer whose last step is counted (see _count_after):
# fewer makes more numpy calls, more holds more bits.
_BLOCK = 1 << 18


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
    None) and hi + 1 = x[stop[0]] + stop[1] (no upper end when stop is
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


def _plan(pattern, bounds):
    """What every growth step for `pattern` over `bounds` needs (see _pattern_plan)."""
    words = -(-max(bounds, default=1) // _WORD)
    return _pattern_plan(as_pattern(pattern).entries) + (words,)


@lru_cache(maxsize=64)
def _pattern_plan(p):
    """(rel, ends) for pattern entries p; _plan adds the uint64 words per row.

    rel is core's relation table cut to the pattern head: rel[t][a] is the
    sign of p[t] - p[a] for a < t < len(p) - 1. ends has one (head
    position, table, offset) for each end of the forbidden interval (see
    _interval_ends): for the matched head value x at that position,
    table.take(x + offset - 64 * w, mode="clip") is word w of the values
    on the interval's side of that end, so their AND is the interval. Each
    step builds these indices once it has reserved their memory.
    """
    k = len(p) - 1
    rel = _relations(p)[:k]
    ends = tuple((end[0], table, end[1])
                 for end, table in zip(_interval_ends(p), (_HIGH, _LOW))
                 if end is not None)
    return rel, ends


def _budget(need):
    """Bytes of memory free, or, once `need` exceeds that, MemAvailable, which
    also counts the page cache the kernel can drop but costs a file read."""
    free = os.sysconf("SC_AVPHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if need <= free:
        return free
    try:
        with open("/proc/meminfo", encoding="ascii") as fh:
            return next((int(line.split()[1]) * 1024 for line in fh
                         if line.startswith("MemAvailable:")), free)
    except OSError:
        return free


def _reserve(nbytes, step, *args):
    """Raise MemoryError naming step.format(*args) if `nbytes` more cannot fit."""
    nbytes += 1 << 16  # what any step allocates: Python objects, small arrays
    budget = _budget(nbytes)
    if nbytes > budget:
        raise MemoryError(f"{step.format(*args)} needs about {nbytes:,} bytes of "
                          f"memory; {budget:,} bytes are available")


def _compare(x, y, r):
    return x > y if r > 0 else x < y if r < 0 else x == y


def _head_matches(cols, rel, combo=(), mask=None):
    """Yield (combo, mask) for every choice of len(rel) columns ending at the last.

    mask marks the rows whose values in those columns are order-isomorphic
    to the pattern head, or is None when every row qualifies. Masks are
    built incrementally, so choices sharing a prefix share its comparisons.
    """
    k, last, t = len(rel), len(cols) - 1, len(combo)
    if t == k - 1:
        yield combo + (last,), mask
        return
    for c in range(combo[-1] + 1 if combo else 0, last - k + t + 2):
        y = cols[c]
        sub = _compare(cols[last], y, rel[k - 1][t])
        for a in range(t):
            sub &= _compare(y, cols[combo[a]], rel[t][a])
        if mask is not None:
            sub &= mask
        yield from _head_matches(cols, rel, combo + (c,), sub)


def _run_lengths(first):
    """Lengths of the runs of rows that start where `first` is set."""
    edges = np.concatenate((first, [True])).nonzero()[0]
    return edges[1:] - edges[:-1]


def _or_level(bits, sub, rel, ends):
    """OR into `bits` the intervals of the head matches ending at the last
    column of `sub`, once per group of matches with the same end columns."""
    groups = {}
    for combo, mask in _head_matches(sub, rel):
        key = tuple(combo[pos] for pos, _, _ in ends)
        held = groups.get(key)
        groups[key] = mask if held is None else np.bitwise_or(held, mask, out=held)
    for key, mask in groups.items():
        idx = slice(None) if mask is None else mask.nonzero()[0]
        if mask is not None and not len(idx):
            continue
        new = None
        for col, (_, table, base) in zip(key, ends):
            side = table.take(np.add.outer(sub[col, idx], base), mode="clip")
            new = side if new is None else np.bitwise_and(new, side, out=new)
        bits[idx] |= new


def _forbidden(E, plan, parent=None, layer_rows=None):
    """Bit words of the next values that complete an occurrence, per row of E.

    Returns a (rows, words) uint64 array in which bit v % 64 of word v // 64
    of row r is set when row r followed by v contains the pattern. `parent`
    is (bits, counts) of the layer `_grow` made E from; its bits hold every
    occurrence ending before the last column. Without it, a walk over
    prefixes needs E's rows distinct and in lexicographic order, as every
    layer is. E may then be a run of consecutive rows of a layer: the walk
    takes its first row as a new prefix, so each row gets the bits it has
    in the whole layer, and `layer_rows` names that layer's rows in a refusal.
    """
    rel, ends, words = plan
    rows, m = E.shape
    k = len(rel)
    # At most one group per choice, or per value of each end column that is
    # not the last (m - k + 1 values each).
    free = {pos for pos, _, _ in ends if pos < k - 1}
    groups = min(comb(m - 1, k - 1), (m - k + 1) ** len(free)) if m >= k > 0 else 0
    # Bytes per row at the last level: the bits; one mask per group of head
    # matches sharing their ends and k - 1 more; for the rows one group
    # selects (at most all), three arrays of their size (the interval's two
    # sides, their bits) and their positions; the prefix flags. Once per
    # step, each end's per-word indices.
    per_row = 32 * words + groups + k + 8
    step = "finding the values forbidden after {:,} rows of length {}"
    _reserve(rows * per_row + 8 * words * len(ends), step, layer_rows or rows, m)
    if not k:  # a one-letter pattern: every value completes it
        return np.full((rows, words), _LOW[-1], dtype=_BITS)
    # Word w holds the values 64w..64w+63; clipping the index to 0..64
    # leaves a word all clear or all set past its range.
    ends = [(pos, table, np.arange(offset, offset - _WORD * words, -_WORD))
            for pos, table, offset in ends]
    cols = E.T
    if parent is not None:
        bits = parent[0].repeat(parent[1], axis=0)
        _or_level(bits, cols, rel, ends)  # none when m < k
        return bits
    # first[r]: row r is the first of its length-(t-1) prefix.
    first = np.zeros(rows, dtype=bool)
    first[:1] = True
    bits = None  # per distinct length-t prefix, from level k on
    for t in range(1, m + 1):
        if t < m:
            change = np.empty(rows, dtype=bool)
            change[:1] = True
            np.not_equal(cols[t - 1, 1:], cols[t - 1, :-1], out=change[1:])
            change |= first
        if t >= k:  # an occurrence ending at column t - 1 needs k - 1 before it
            if t < m:
                reps = change.nonzero()[0]
                # Also both flag arrays, and per prefix its row and t columns.
                need = 2 * rows + len(reps) * (per_row + 7 + t * E.itemsize)
                if need > rows * per_row:
                    _reserve(need, step, layer_rows or rows, m)
                sub = cols[:t].take(reps, axis=1)
            else:  # each row is its own length-m prefix
                reps, sub = slice(None), cols
            if bits is None:
                bits = np.zeros((sub.shape[1], words), dtype=_BITS)
            else:
                bits = bits.repeat(_run_lengths(first[reps]), axis=0)
            _or_level(bits, sub, rel, ends)
        if t < m:
            first = change
    if bits is None:  # rows shorter than the pattern head
        return np.zeros((rows, words), dtype=_BITS)
    return bits


def _grow(E, s, forbidden):
    """(next layer, children per row of E): each row of E followed by each
    value below s not forbidden.

    Lexicographic order, column-major storage and E's dtype carry over.
    """
    rows, m = E.shape
    # The keep flags, each row's child count, the new layer at its bound of
    # s children per row, one column in flight and every row's s candidates.
    _reserve(rows * (s * (1 + (m + 3) * E.itemsize) + 8),
             "growing {:,} rows of length {} by one", rows, m)
    keep = np.unpackbits(forbidden.view(np.uint8), axis=1, count=s,
                         bitorder="little").view(bool)
    np.logical_not(keep, out=keep)
    counts = np.add.reduce(keep, axis=1)
    out = np.empty((int(counts.sum()), m + 1), dtype=E.dtype, order="F")
    for j in range(m):
        out[:, j] = E[:, j].repeat(counts)
    out[:, m] = np.arange(s, dtype=E.dtype)[None].repeat(rows, 0)[keep]
    return out, counts


def _count_after(E, plan, s):
    """Rows of the layer after E at bound s, from the forbidden bits of at
    most _BLOCK rows at a time."""
    return sum(_count_next(_forbidden(E[lo:lo + _BLOCK], plan, layer_rows=len(E)), s)
               for lo in range(0, len(E), _BLOCK))


def _count_next(forbidden, s):
    """Rows of the next layer, never built: a popcount of the bits below s."""
    full, rest = divmod(s, _WORD)
    taken = np.bitwise_count(forbidden[:, full] & _LOW[rest]).sum() if rest else 0
    if full:
        taken += np.bitwise_count(forbidden[:, :full]).sum()
    return forbidden.shape[0] * s - int(taken)


def _empty_layer(bounds):
    """The single empty avoider, in the storage dtype for `bounds`."""
    return np.zeros((1, 0), dtype=_dtype_for(bounds), order="F")


def avoider_steps(bounds, pattern):
    """Yield the avoider matrix after each successive bound.

    The matrix for the length-m prefix of `bounds` has one row per element
    of I_{S_m}(pattern), in lexicographic order, stored column-major.
    """
    bounds = validate_bounds(bounds)
    plan = _plan(pattern, bounds)
    E, parent = _empty_layer(bounds), None
    for s in bounds:
        forbidden = _forbidden(E, plan, parent)
        E, counts = _grow(E, s, forbidden)
        parent = forbidden, counts
        yield E


def count_steps(bounds, pattern):
    """Yield |I_{S_m}(pattern)| for each prefix S_m of the bound set, in order.

    The lengths before the last are read from `avoider_steps`, looked up on
    this module at each call, so a wrapper put there sees every layer built.
    The last is counted from its parent layer's bits and never built; that
    layer comes bare, so the count walks its prefixes (see _forbidden).
    """
    bounds = validate_bounds(bounds)
    if not bounds:
        return
    pattern = as_pattern(pattern)
    E = _empty_layer(bounds)
    steps = avoider_steps(bounds, pattern)
    for E in islice(steps, len(bounds) - 1):
        yield E.shape[0]
    steps.close()
    yield _count_after(E, _plan(pattern, bounds), bounds[-1])


def subset_total(ground, pattern):
    """Sum of |I_S(pattern)| over every subset S of the bound set `ground`.

    A depth-first walk over the subset lattice: each subset, taken in
    increasing order, is its parent's bounds plus one larger bound, so its
    layer is one growth step from the parent's layer, and one set of
    forbidden bits serves every child. Subsets ending in the largest bound
    have no children, so only their rows are counted and their layers are
    never built.
    """
    ground = validate_bounds(ground)
    if not ground:
        return 1
    plan = _plan(pattern, ground)

    def walk(E, lo, parent=None):
        forbidden = _forbidden(E, plan, parent)
        total = E.shape[0] + _count_next(forbidden, ground[-1])
        for i in range(lo, len(ground) - 1):
            child, counts = _grow(E, ground[i], forbidden)
            total += walk(child, i + 1, (forbidden, counts))
        return total

    return walk(_empty_layer(ground), 0)


def avoider_matrix(bounds, pattern):
    """All of I_S(pattern) as rows of a matrix, lexicographic order."""
    E = np.zeros((1, 0), dtype=np.int8)
    for E in avoider_steps(bounds, pattern):
        pass
    return E


def full_matrix(bounds):
    """All S-inversion sequences for the given bounds, lexicographic order."""
    bounds = validate_bounds(bounds)
    dtype = _dtype_for(bounds)
    size = prod(bounds)
    _reserve(len(bounds) * size * dtype().itemsize,
             "listing all {:,} sequences of length {}", size, len(bounds))
    return np.indices(bounds, dtype=dtype).reshape(len(bounds), size).T


def contains_mask(bounds, pattern):
    """(matrix of all of I_S, boolean mask of rows containing the pattern).

    The rows that avoid are those of `avoider_matrix`, located in the full
    lexicographic matrix by their mixed-radix index.
    """
    bounds = validate_bounds(bounds)
    E = full_matrix(bounds)
    A = avoider_matrix(bounds, pattern)
    hit = np.ones(E.shape[0], dtype=bool)
    hit[np.ravel_multi_index(A.T, bounds)] = False
    return E, hit
