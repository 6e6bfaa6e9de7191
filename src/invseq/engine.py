"""Vectorized avoider enumeration.

Grows the set of pattern-avoiding S-inversion sequences one position at a
time as a numpy matrix: one row per avoider, rows in lexicographic order,
stored column-major, entries in the narrowest signed integer dtype that
holds the largest bound minus one. Correctness rests on hereditary
avoidance: every prefix of an avoider avoids, so extending only surviving
rows and rejecting extensions that complete an occurrence at the new
position enumerates exactly the avoiders.

- A sequence shorter than the pattern cannot contain it, so those layers
  are whole lexicographic products, written down and not grown, and a
  count of such a length is the product of its bounds.
- A growth step finds each row's forbidden next values as bits in uint64
  words, ceil(largest bound / 64) per row; the children whose bit is clear
  survive. For each match of the pattern head p[:-1] ending at the last
  column, the values that complete it form one interval, bounded by the
  last letter's tightest bounds (core._ends). Matches sharing the columns
  of the interval's ends share it; where one end is always the last
  column, a row's intervals have one union, found once per row.
- A grown row starts from its parent's bits, which hold every occurrence
  ending before its last column, so a step tests only the matches ending
  there. The first step, at the pattern's length, starts from clear bits.
- A step writes the layer it grows with one np.repeat (see _write). Rows
  are in lexicographic order, so column j of a layer is the last column
  of the layer of length j + 1 with each entry repeated once per
  descendant. Each step keeps those columns end to end, with the first
  row of every entry's descendants (the layer's runs, see _runs), and
  maps the first rows through the cumulative child counts; their
  differences are the repeat counts. A layer of fewer than _RUN_ROWS rows,
  where those fixed numpy calls cost more, repeats its rows instead and
  keeps no runs. Either way the new column is written into the layer in
  blocks of at most _CANDIDATES candidates, so a step makes a fixed number
  of numpy calls per block, however long its rows.
- What a step reads of the pattern (_word_plan) is built once per pattern
  and words per row, and kept.
- A count never builds its last layer: it is rows × s minus the set bits
  below s. `count_steps` reads the bits of the last layer's parents off
  that layer (see _parent_bits), in blocks of at most max(_BLOCK, b) rows,
  or hands the last length to the row engine (states.row_counts) where its
  work fits the last layer's rows times _UNITS_PER_ROW.
- Each step predicts its bytes from its shape and raises MemoryError
  before it allocates when they exceed the memory the OS reports
  available (see _budget). A count done in blocks predicts one block's
  arrays, and its refusal names the whole layer.
- Importing this module does not load numpy; its first call does (core._numpy).
"""

from __future__ import annotations

import os
from functools import lru_cache
from itertools import islice
from math import comb, prod
from operator import itemgetter

from . import states
from .core import _ends, _numpy, _relations, as_pattern, validate_bounds

np = _numpy()

_WORD = 64
# Bit words are little-endian, so their bytes list the values in order.
_BITS = "<u8"
# Rows per block of a layer whose last step is counted (see _count_after):
# fewer makes more numpy calls, more holds more bits.
_BLOCK = 1 << 18
# Units of the row engine's work (see states.row_counts) that cost about as
# much time as one row of the matrix's last count (see _merged_count),
# measured where the two cross.
_UNITS_PER_ROW = 25
# Rows of a layer from which a growth step writes the next one as one
# repeat of its runs (see _write) rather than of its rows, measured where
# the two cross.
_RUN_ROWS = 1 << 10
# Candidates (rows times the bound) per block of a new column (see
# _write_column): fewer makes more numpy calls, more holds more flags.
_CANDIDATES = 1 << 16


def _int_dtype(limit):
    """The narrowest signed integer type holding every value in [-limit, limit]."""
    bits = next((b for b in (8, 16, 32) if limit < 1 << b - 1), 64)
    return getattr(np, f"int{bits}")


@lru_cache(maxsize=None)
def _masks():
    """(high, low) bit words: low[b] has the bits below b set and high[b]
    the others, for 0 <= b <= 64. Built on first use, which loads numpy."""
    low = np.array([(1 << b) - 1 for b in range(_WORD + 1)], dtype=_BITS)
    return ~low, low


def _dtype_for(bounds):
    """Storage dtype for entries below the largest bound."""
    return _int_dtype(max(bounds, default=1) - 1)


def _plan(pattern, bounds):
    """What every growth step for `pattern` over `bounds` needs: (rel, ends,
    union, words), words being the uint64 words per row (see _word_plan)."""
    return _word_plan(as_pattern(pattern).entries, -(-max(bounds, default=1) // _WORD))


@lru_cache(maxsize=states._KEPT)
def _word_plan(p, words):
    """(rel, ends, union, words) for pattern entries p at `words` words per row.

    rel is core's relation table cut to the pattern head: rel[t][a] is the
    sign of p[t] - p[a] for a < t < len(p) - 1. Given the matched head
    values x, the values that complete an occurrence form one interval
    [lo, hi], bounded by the last letter's tightest bounds (core._ends):
    lo = x[a] + 1 for its lower bound a, hi = x[b] - 1 for its upper bound
    b, and lo = hi = x[c] for a tie c. ends has one (head position, table,
    index) for each end there is: table.take(x + index[w], mode="clip") is
    word w of the values on the interval's side of that end, so their AND
    is the interval. union is None unless exactly one end sits at the last
    head position, which every head match puts at the level's last column:
    then all the intervals of a row share that end, their union is one
    interval, and union is (i, extreme) for the other end, ends[i], whose
    widest value over the matches is np.minimum of starts or np.maximum of
    stops.

    A plan is built once per process for each key and kept, for up to
    states._KEPT = 128 keys: its indices take 8 bytes per word and end, at
    most 16 per word, which is 8 KB at the bound 32,768 and 33.5 MB at
    2^27, so the kept plans hold at most 1 MB resp. 4.3 GB. A plan not yet
    kept reserves its indices before it builds them.
    """
    k = len(p) - 1
    lo, hi, tie = _ends(p[:-1], p[-1])
    # Each end as (head position, offset): lo and hi + 1 are x[pos] + offset.
    if tie is not None:
        start, stop = (tie, 0), (tie, 1)
    else:
        start = None if lo is None else (lo, 1)
        stop = None if hi is None else (hi, 0)
    union = None
    if start and stop and (start[0] == k - 1) != (stop[0] == k - 1):
        vary = 1 if start[0] == k - 1 else 0
        union = vary, (np.minimum, np.maximum)[vary]
    ends = [(end, table) for end, table in zip((start, stop), _masks()) if end]
    _reserve(8 * words * len(ends), "indexing the forbidden values below {:,}",
             _WORD * words)
    # Word w holds the values 64w..64w+63; clipping the index to 0..64
    # leaves a word all clear or all set past its range.
    ends = tuple((pos, table, np.arange(offset, offset - _WORD * words, -_WORD))
                 for (pos, offset), table in ends)
    for _, _, index in ends:
        index.flags.writeable = False  # shared by every step that reads the plan
    return _relations(p)[:k], ends, union, words


# What the last reading of free memory left after the requests granted
# since it (see _budget). A forked child has made no request yet, but its
# parent's reading is shared with every other child, so it reads its own.
_slack = 0
# The processes counting at once, which share the free memory (see _budget).
_sharers = 1


def _forget_reading():
    global _slack
    _slack = 0


os.register_at_fork(after_in_child=_forget_reading)


def _share_memory(processes):
    """Give this process, and the children it forks from now on, 1/processes
    of every later reading of free memory; return the previous divisor.

    The last reading is dropped, since it was not divided the same way.
    """
    global _sharers, _slack
    previous, _sharers, _slack = _sharers, processes, 0
    return previous


def _budget(need):
    """Bytes of memory available to a request of `need` bytes.

    A request within what the last reading left, after every request
    granted since, is granted without a new reading: those requests bound
    what this process can have taken since, whatever it gave back. Otherwise
    it reads the free memory, or, once `need` exceeds that, MemAvailable,
    which also counts the page cache the kernel can drop but costs a file
    read. Either reading is divided by the processes that count at once
    (see _share_memory).
    """
    global _slack
    budget = _slack
    if need > budget:
        budget = os.sysconf("SC_AVPHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") // _sharers
        if need > budget:
            try:
                with open("/proc/meminfo", encoding="ascii") as fh:
                    budget = next((int(line.split()[1]) * 1024 // _sharers for line in fh
                                   if line.startswith("MemAvailable:")), budget)
            except OSError:
                pass
        _slack = budget
    _slack -= need
    return budget


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
    if t == k - 1:  # a one-letter head
        yield combo + (last,), mask
        return
    x = cols[last]
    for c in range(combo[-1] + 1 if combo else 0, last - k + t + 2):
        y = cols[c]
        sub = _compare(x, y, rel[k - 1][t])
        for a in range(t):
            sub &= _compare(y, cols[combo[a]], rel[t][a])
        if mask is not None:
            sub &= mask
        if t == k - 2:
            yield combo + (c, last), sub
        else:
            yield from _head_matches(cols, rel, combo + (c,), sub)


def _or_level(bits, sub, rel, ends, union):
    """OR into `bits` the intervals of the head matches ending at the last
    column of `sub`: once per group of matches with the same end columns,
    or once per row where one end is shared (union, see _word_plan)."""
    key = itemgetter(*[pos for pos, _, _ in ends])
    groups = {}  # a group's first match and the OR of its masks, by end columns
    for combo, mask in _head_matches(sub, rel):
        held = groups.setdefault(key(combo), (combo, mask))
        if held[1] is not mask:
            np.bitwise_or(held[1], mask, out=held[1])
    if union is not None and len(groups) > 1:
        # Per row, the other end's widest offset from the shared end's value
        # over the groups it matches: a matched value lies strictly beyond
        # the shared one, so the offset is 0 where no group matches.
        vary, extreme = union
        pos = ends[vary][0]
        shared = sub[-1]
        reach, offset = np.zeros_like(shared), np.empty_like(shared)
        for combo, mask in groups.values():
            np.subtract(sub[combo[pos]], shared, out=offset)
            offset *= mask
            extreme(reach, offset, out=reach)
        idx = reach.nonzero()[0]
        values = [shared[idx]] * 2
        values[vary] = values[vary] + reach[idx]
        _or_interval(bits, idx, values, ends)
        return
    for combo, mask in groups.values():
        idx = slice(None) if mask is None else mask.nonzero()[0]
        _or_interval(bits, idx, [sub[combo[pos], idx] for pos, _, _ in ends], ends)


def _or_interval(bits, idx, values, ends):
    """OR into bits[idx] the interval whose end ends[i] has value values[i]."""
    if isinstance(idx, np.ndarray) and not len(idx):
        return
    new = None
    for vals, (_, table, base) in zip(values, ends):
        side = table.take(np.add.outer(vals, base), mode="clip")
        new = side if new is None else np.bitwise_and(new, side, out=new)
    bits[idx] |= new


def _forbidden(E, plan, parent=None, layer_rows=None):
    """Bit words of the next values that complete an occurrence, per row of E.

    Returns a (rows, words) uint64 array in which bit v % 64 of word v // 64
    of row r is set when row r followed by v contains the pattern. `parent`
    is (bits, counts) of the rows E grew from, counts[i] of them from the
    ith; its bits hold every occurrence ending before the last column.
    Without it, no occurrence ends before E's last column, as in the empty
    layer and the layers no longer than the pattern head. E may be a run of
    consecutive rows of a layer, whose rows `layer_rows` names in a refusal.
    """
    rel, ends, union, words = plan
    rows, m = E.shape
    k = len(rel)
    # At most one group per choice, or per value of each end column that is
    # not the last (m - k + 1 values each).
    free = {pos for pos, _, _ in ends if pos < k - 1}
    groups = min(comb(m - 1, k - 1), (m - k + 1) ** len(free)) if m >= k > 0 else 0
    # Bytes per row: the bits; one mask per group of head matches sharing
    # their ends and k - 1 more; for the rows one group selects (at most
    # all), three arrays of their size (the interval's two sides, their
    # bits) and their positions; where one end is shared, the other's reach
    # and the flags of the rows it moved.
    per_row = 32 * words + groups + k + 8 + E.itemsize
    _reserve(rows * per_row, "finding the values forbidden after {:,} rows of length {}",
             layer_rows or rows, m)
    if not k:  # a one-letter pattern: every value completes it
        return np.full((rows, words), (1 << _WORD) - 1, dtype=_BITS)
    bits = (np.zeros((rows, words), dtype=_BITS) if parent is None
            else parent[0].repeat(parent[1], axis=0))
    if m:
        _or_level(bits, E.T, rel, ends, union)  # none when m < k
    return bits


def _runs(E):
    """The runs of layer E: (values, firsts) of every column but the last,
    end to end, each column followed by one junction entry.

    Rows are in lexicographic order, so column j of E is the last column of
    the layer of length j + 1 with each entry repeated once per descendant
    in E. values holds those entries and firsts, for each, the first row of
    its descendants in E; a junction's first is len(E) and its value is
    never written (see _write). Found here from E's columns, one prefix at
    a time, so the entries without descendants, which write nothing, are
    left out.
    """
    rows, m = E.shape
    # Per column a flag, a comparison and the starts with their values,
    # then every column's starts and values again, joined.
    _reserve(rows * (2 + 2 * (m - 1) * (8 + E.itemsize)),
             "finding the runs of {:,} rows of length {}", rows, m)
    values, firsts = [np.empty(0, E.dtype)], [np.empty(0, np.intp)]
    junction, end = np.zeros(1, E.dtype), np.full(1, rows, np.intp)
    new = np.ones(rows, dtype=bool)
    new[1:] = False
    for col in E.T[:-1]:
        new[1:] |= col[1:] != col[:-1]
        starts = new.nonzero()[0]
        values += col[starts], junction
        firsts += starts, end
    return np.concatenate(values), np.concatenate(firsts)


def _later(counts, firsts=()):
    """firsts mapped to the next layer, whose rows number counts[i] children
    of row i, then the first child of each row and their total."""
    h = len(firsts)
    later = np.empty(h + len(counts) + 1, dtype=np.intp)
    ends = later[h:]
    ends[0] = 0
    np.cumsum(counts, out=ends[1:])
    if h:  # firsts lie in 0..len(counts), so clipping moves none and spares a buffer
        np.take(ends, firsts, out=later[:h], mode="clip")
    return later


def _write_column(out, forbidden, s, ends):
    """Write into `out` the last entries of each row's children: the values
    below s whose forbidden bits are clear, row by row. Rows go in blocks of
    at most _CANDIDATES // s rows (at least one), rows [a, b) to
    out[ends[a]:ends[b]], ends being the first child of each row and their
    total (see _later), which may be None where one block takes every row.
    """
    rows = len(forbidden)
    step = max(1, _CANDIDATES // s)
    for a in range(0, rows, step):
        b = min(a + step, rows)
        keep = np.unpackbits(forbidden[a:b].view(np.uint8), axis=1, count=s,
                             bitorder="little").view(bool)
        np.logical_not(keep, out=keep)
        column = np.arange(s, dtype=out.dtype)[None].repeat(b - a, 0)[keep]
        if ends is None:
            out[:] = column
        else:
            out[ends[a]:ends[b]] = column


def _write(E, s, forbidden, runs):
    """(next layer, children per row of E, its runs): each row of E followed
    by each value below s not forbidden. runs are E's (see _runs), or None.

    From the empty layer, and from fewer than _RUN_ROWS rows, E's columns
    and a spare one for the new column, held as rows, are repeated along
    each row once per child, and no runs are kept. Otherwise E's runs, found
    from its columns where None, give the layer in one repeat: each entry
    of values repeats by the difference between its first row, mapped to
    the next layer, and the next entry's; a junction's difference is
    negative and clipped to 0. The last junction repeats once per row of
    the next layer, and the new column is written over those entries, so
    the repeat's buffer, reshaped, is the layer, column-major. The repeat
    counts' tail is the children per row of E, which are returned.

    Lexicographic order, column-major storage and E's dtype carry over.
    """
    rows, m = E.shape
    runs = None if rows < _RUN_ROWS or not m else runs or _runs(E)
    n = len(runs[0]) + rows + 1 if runs else rows + 1
    # The layer, at its bound of s children per row, and one block's keep
    # flags, candidates and new entries; the children and first children
    # per row; and the values repeated: E's runs or its rows and a spare.
    block = min(rows * s, max(s, _CANDIDATES))
    _reserve(rows * s * (m + 1) * E.itemsize + block * (1 + 2 * E.itemsize) + 16 * n
             + (n if runs else rows * (m + 1)) * E.itemsize,
             "growing {:,} rows of length {} by one", rows, m)
    if not runs:
        counts = _children(forbidden, s)
        ends = _later(counts) if rows * s > _CANDIDATES else None
        # E's columns as rows, and a spare row for the new column.
        spare = np.empty((m + 1, rows), dtype=E.dtype)
        spare[:m] = E.T
        out = spare.repeat(counts, axis=1)
        _write_column(out[m], forbidden, s, ends)
        return out.T, counts, None
    head, firsts = runs
    h = len(head)
    repeats = np.empty(n, dtype=np.intp)
    counts = _children(forbidden, s, out=repeats[h:-1])
    later = _later(counts, firsts)
    np.subtract(later[1:h + 1], later[:h], out=repeats[:h])
    np.maximum(repeats[:h], 0, out=repeats[:h])
    size = repeats[-1] = int(later[-1])
    values = np.empty(n, dtype=E.dtype)
    values[:h] = head
    values[h:-1] = E[:, -1]
    values[-1] = 0
    out = values.repeat(repeats)
    _write_column(out[m * size:], forbidden, s, later[h:])
    return out.reshape(m + 1, size).T, counts, (values, later)


def _grow(E, s, forbidden):
    """(next layer, children per row of E): one step of _write, from no runs."""
    return _write(E, s, forbidden, None)[:2]


def _children(forbidden, s, out=None):
    """Per row, the values below s whose forbidden bits are clear, in `out`
    if given."""
    full, rest = divmod(s, _WORD)
    if full:
        taken = np.bitwise_count(forbidden[:, :full]).sum(axis=1, dtype=np.intp, out=out)
        if rest:
            taken += np.bitwise_count(forbidden[:, full] & _masks()[1][rest])
    else:  # one word, counted in bytes
        taken = np.bitwise_count(forbidden[:, 0] & _masks()[1][rest], out=out)
    return np.subtract(s, taken, out=taken)


def _count_after(E, plan, bounds):
    """Rows of the layer after E at bound bounds[-1], never built.

    Where E is shorter than the pattern head, it is a whole product and
    every row takes every value. Otherwise E grew at bound width =
    bounds[-2]. Each block of at most max(_BLOCK, width) rows ends where a
    parent's children start (a parent has at most width, so one row past
    a block shows a start) and carries in the bits read off them (see
    _parent_bits). The empty layer has no parent.
    """
    s = bounds[-1]
    rows, m = E.shape
    if m < len(plan[0]):  # E is a whole product with clear bits
        return rows * s
    if not m:
        return _count_next(_forbidden(E, plan), s)
    width, words = bounds[-2], plan[-1]
    size = max(_BLOCK, width)
    total = a = 0
    while a < rows:
        b = rows if rows - a <= size else a + size + 1
        # Per row two flags, then two word arrays of a row or a parent (at
        # most one per row), and per parent its edge and child count.
        _reserve((b - a) * (16 * words + 18),
                 "finding the values forbidden after {:,} rows of length {}", rows, m)
        edges = _edges(E[a:b])
        if b < rows:  # end at the last start
            edges = edges[:-1]
            b = a + int(edges[-1])
        parent = _parent_bits(E[a:b], edges, width, words)
        total += _count_next(_forbidden(E[a:b], plan, parent, rows), s)
        a = b
    return total


def _edges(E):
    """Where each parent's children start in E, the rows whose prefix, all
    but the last column, differs from the row before, then len(E)."""
    rows = len(E)
    first = np.zeros(rows + 1, dtype=bool)
    first[0] = first[rows] = True
    new = first[1:rows]
    for col in E.T[:-1]:
        new |= col[1:] != col[:-1]
    return first.nonzero()[0]


def _parent_bits(E, edges, width, words):
    """(bits, counts) of the parents E grew from at bound width, one per run
    of rows between `edges`: the children of one parent, which end in the
    values below width that its bits leave clear. Every entry of a parent
    lies below the bound before width, so width - 1 and every larger value
    compare alike with each, and share a bit.
    """
    # Each row's bit for its last entry, in every word: a shift by 64 or
    # more, or by a negative amount wrapped round, leaves none.
    shift = np.subtract(E[:, -1:], np.arange(0, _WORD * words, _WORD, dtype=_BITS),
                        dtype=_BITS, casting="unsafe")
    free = np.bitwise_or.reduceat(np.left_shift(1, shift, out=shift),
                                  edges[:-1], axis=0)
    del shift
    # Where a child ends in width - 1, the parent also takes every larger value.
    w, b = divmod(width - 1, _WORD)
    high = _masks()[0].take(np.arange(width, width - _WORD * words, -_WORD), mode="clip")
    free |= (free[:, w:w + 1] >> b) * high
    np.invert(free, out=free)
    return free, edges[1:] - edges[:-1]


def _count_next(forbidden, s):
    """Rows of the next layer, never built: a popcount of the bits below s."""
    return int(_children(forbidden, s).sum())


def _empty_layer(bounds):
    """The single empty avoider, in the storage dtype for `bounds`."""
    return np.zeros((1, 0), dtype=_dtype_for(bounds), order="F")


def avoider_steps(bounds, pattern):
    """Yield the avoider matrix after each successive bound.

    The matrix for the length-m prefix of `bounds` has one row per element
    of I_{S_m}(pattern), in lexicographic order, stored column-major. A
    sequence shorter than the pattern cannot contain it, so the layers
    before the pattern's length are whole products, written down and not
    grown; growth starts at the pattern's length, where no occurrence ends
    before the last column.
    """
    bounds = validate_bounds(bounds)
    plan = _plan(pattern, bounds)
    E, parent, runs = _empty_layer(bounds), None, None
    for m in range(1, min(len(plan[0]), len(bounds)) + 1):
        E = _product(bounds[:m], E.dtype)
        yield E
    for s in bounds[E.shape[1]:]:
        forbidden = _forbidden(E, plan, parent)
        E, counts, runs = _write(E, s, forbidden, runs)
        parent = forbidden, counts
        yield E


def count_steps(bounds, pattern):
    """Yield |I_{S_m}(pattern)| for each prefix S_m of the bound set, in order.

    The lengths before the last are read from `avoider_steps`, looked up on
    this module at each call, so a wrapper put there sees every layer built;
    those shorter than the pattern are products, grown by no step. The last
    is counted and never built: by the row engine where that is cheaper
    (see _merged_count), otherwise from the last layer drawn alone (see
    _count_after).
    """
    bounds = validate_bounds(bounds)
    if not bounds:
        return
    pattern = as_pattern(pattern)
    plan = _plan(pattern, bounds)
    steps = avoider_steps(bounds, pattern)
    E, rows = _empty_layer(bounds), []
    for E in islice(steps, len(bounds) - 1):
        rows.append(E.shape[0])
        yield rows[-1]
    steps.close()
    count = _merged_count(bounds, pattern, rows)
    yield _count_after(E, plan, bounds) if count is None else count


def _merged_count(bounds, pattern, rows):
    """The count of the last length from the row engine, checked against
    the layers' `rows` at every shorter length, or None where the matrix
    count is the cheaper one.

    The row engine runs for every pattern whose states it holds
    (states.fits_rows), and only while its work stays within the rows of
    the last layer drawn times _UNITS_PER_ROW, so it never costs much more
    than the matrix count it replaces. It is not started where that budget
    is below the fixed units of every length. A count that differs from a
    layer's rows raises RuntimeError naming the first such length.
    """
    work = (rows[-1] if rows else 1) * _UNITS_PER_ROW
    if work < len(bounds) * states._LENGTH_UNITS or not states.fits_rows(pattern):
        return None
    counts = list(states.row_counts(bounds, pattern, work))
    for m, (got, want) in enumerate(zip(counts, rows), 1):
        if got != want:
            raise RuntimeError(f"the row engine counts {got:,} sequences of length "
                               f"{m}, where the layer holds {want:,}")
    return counts[-1] if len(counts) == len(bounds) else None


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

    def walk(E, lo, runs, parent=None):
        forbidden = _forbidden(E, plan, parent)
        total = E.shape[0] + _count_next(forbidden, ground[-1])
        for i in range(lo, len(ground) - 1):
            child, counts, child_runs = _write(E, ground[i], forbidden, runs)
            total += walk(child, i + 1, child_runs, (forbidden, counts))
        return total

    return walk(_empty_layer(ground), 0, None)


def avoider_matrix(bounds, pattern):
    """All of I_S(pattern) as rows of a matrix, lexicographic order."""
    E = np.zeros((1, 0), dtype=np.int8)
    for E in avoider_steps(bounds, pattern):
        pass
    return E


def full_matrix(bounds):
    """All S-inversion sequences for the given bounds, lexicographic order."""
    bounds = validate_bounds(bounds)
    return _product(bounds, _dtype_for(bounds))


def _product(bounds, dtype):
    """Every sequence below `bounds`, lexicographic order, column-major, in
    `dtype`."""
    size = prod(bounds)
    _reserve(len(bounds) * size * np.dtype(dtype).itemsize,
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
