"""Exact counts from a state derived from the pattern alone.

Prefixes with the same future are merged: the engine keeps one exact count
per state, not one row per avoider, and grows the states one length at a
time (the generating-tree method of Kotsireas, Mansour and Yildirim, close
to Zeilberger's enumeration schemes).

For a pattern p of length L, the state of an avoiding prefix holds, for
each level j = 1..L-2, the partial matches of the head prefix p[:j]: the
values of subsequences order-isomorphic to p[:j]. A match keeps only its
*binding* positions. A position is binding if some later letter t >= j
uses it as its tightest bound among p[:j]: the position of the largest
value below p[t] (a lower bound), of the smallest value above it (an upper
bound), or of a value equal to it (a tie, which alone pins the letter).
Equal values are equal in a match, so each value is kept at its first
position. Every other position is implied by these and the pattern.

Each binding position has a kind. It is "lo" if it only ever serves as a
lower bound: a smaller value lets more letters follow, so it is better. It
is "hi" if it only ever serves as an upper bound: larger is better. It is
"eq" otherwise: a tie, or a lower bound for one letter and an upper bound
for another, and then only an equal value does as well. A match that is at
least as good as another in every position completes wherever the other
completes, so each level keeps only its Pareto frontier under these orders.

The rest of the state is F, the bits of the forbidden next values, as a
Python int, so it is exact at any bound. A completed head p[:L-1] only adds
the interval, or the tied value, that its last letter may take to F, for
good: the head stays completed. The head of the one-letter pattern `0` is
empty and complete from the start, so F then holds every value.

Pruning: a match whose interval for the last letter, from its known
positions and cut below the largest bound, already lies inside F can add
nothing to F, nor can any match grown from it, so it is dropped. Pruning
is done once per step, against that step's final F, so the state of a
prefix does not depend on the order in which its F was filled.

A length m has sum(count * (s - set bits of F below s)) sequences at bound
s; the last length is counted so, with no successor states built.

Two engines hold these states. `state_counts` keeps them as dict keys of
tuples and a Python int F: it takes any pattern and is the oracle.
`row_counts` keeps them as fixed-width numpy rows, one per state, for the
patterns whose levels keep at most two positions, every pattern of length
at most 4 among them (`fits_rows`). A row holds the bits of F, then each
level as cells indexed by the values of its "eq" positions, or of the
first of two "lo"/"hi" positions: a cell holds the best value of the
level's other "lo"/"hi" position, or, where there is none, one bit for
whether the match is kept. Cells that a better one dominates are emptied,
so equal frontiers give equal rows (the (hi, lo) staircase of 2011 and
3012 is one such level). A step expands every state and allowed value at
once, applies the move and prunes on arrays, and merges equal rows with
one sort.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb
from typing import NamedTuple

# engine imports this module for its route, so its memory guard is looked
# up on the module at call time.
from . import engine
from .core import _ends, _numpy, as_pattern, validate_bounds

np = _numpy()

# Bytes a successor state may take, beyond its F (about top / 7.5 bytes):
# its dict slot, key, frontier tuples and count, and per kept match its
# tuple. Steps of 3201, 3012, 0021, 1001 and 0122 at n = 9..11 peaked at
# 105-522 bytes per successor under tracemalloc (CPython 3.11, 64-bit).
_STATE_BYTES = 400
_MATCH_BYTES = 120
# The row engine's work (see row_counts) in units of one cell of a
# successor: a length costs _LENGTH_UNITS, the calls of one step whatever its
# size, and each successor its cells and _SUCCESSOR_UNITS more, its share of
# F, the merge and the per-row arrays. Fitted to the step times of length-3
# and length-4 patterns at n = 9-11 and of wide bound sets: a step took
# about 0.1 ms, a successor 0.18 us and a cell 3.3 ns (CPython 3.11, numpy
# 2.4, a 2-core x86-64 box).
_LENGTH_UNITS = 200_000
_SUCCESSOR_UNITS = 50
# The patterns whose schemes, tables and layouts (and engine._word_plan's
# plans) a process keeps: more than the 75 canonical patterns of length 4,
# so a serial classify(4, n) builds each of them once.
_KEPT = 128


class _Level(NamedTuple):
    """What a state keeps of the matches of one head prefix p[:j]."""

    keep: tuple  # the binding positions, in order
    signs: tuple  # per kept position, its kind: -1 "lo", 1 "hi", 0 "eq"
    grow: tuple  # letter j's (lo, hi, tie), as indices into keep
    final: tuple  # the last letter's (lo, hi, tie), as indices into keep
    build: tuple  # per position kept at level j + 1, its index in keep, or -1 for j


@lru_cache(maxsize=_KEPT)
def _scheme(p):
    """The _Level of each j = 0..L-1 for pattern entries p: level 0 is the
    empty match and level L-1 the completed head, which keeps only the
    last letter's ends and has no grow, build or signs (None).

    A position a match of p[:j + 1] keeps lies in level j's `keep` or is j
    itself, since a tightest bound among p[:j + 1] that lies before j is
    one among p[:j] too (the first position of its value, in both).
    """
    L = len(p)
    keeps, signs = [], []
    for j in range(L - 1):
        roles = {}  # position -> the signs of the bounds it sets
        for t in range(j, L):
            for a, sign in zip(_ends(p[:j], p[t]), (-1, 1, 0)):
                if a is not None:
                    roles.setdefault(a, set()).add(sign)
        keeps.append(tuple(sorted(roles)))
        signs.append(tuple(min(roles[a]) if len(roles[a]) == 1 else 0 for a in keeps[-1]))
    keeps.append(tuple(sorted(a for a in _ends(p[:-1], p[-1]) if a is not None)))
    signs.append(None)
    levels = []
    for j, keep in enumerate(keeps):
        index = {a: i for i, a in enumerate(keep)}

        def ends(x):
            return tuple(None if a is None else index[a] for a in _ends(p[:j], x))

        head = j == L - 1
        levels.append(_Level(
            keep, signs[j], None if head else ends(p[j]), ends(p[-1]),
            None if head else tuple(-1 if a == j else index[a] for a in keeps[j + 1])))
    return tuple(levels)


def _interval(ends, x, top):
    """(a, b): the values a..b (none when a > b) below `top` that a letter
    bounded by `ends` (lo, hi, tie indices into the match x) may take."""
    lo, hi, tie = ends
    if tie is not None:
        return x[tie], x[tie]
    return (0 if lo is None else x[lo] + 1), (top - 1 if hi is None else x[hi] - 1)


def _mask(a, b):
    """The bits a..b, none when a > b."""
    return (1 << b + 1) - (1 << a) if a <= b else 0


def _dominates(x, y, signs):
    """True when match x is at least as good as y in every position."""
    for u, w, sign in zip(x, y, signs):
        if u != w and (sign == 0 or (u - w) * sign < 0):
            return False
    return True


def _start(p, top):
    """The state of the empty prefix: no matches, and F holding every value
    when the head is empty (the one-letter pattern)."""
    L = len(p)
    F = _mask(0, top - 1) if L == 1 else 0
    return ((),) * max(L - 2, 0), F


def _free(F, s):
    """Values below s that F leaves clear."""
    return s - (F & ((1 << s) - 1)).bit_count()


def _growing(fronts, scheme, top):
    """(level, match, a, b, build) for each match of `fronts`, and the
    empty match, whose next letter may take some value a..b: a value there
    grows it to a match of that level, with the positions `build` keeps."""
    out = []
    for j, level in enumerate(scheme[:-1]):
        for x in (fronts[j - 1] if j else ((),)):
            a, b = _interval(level.grow, x, top)
            if a <= b:
                out.append((j + 1, x, a, b, level.build))
    return out


def _move(fronts, growing, v, scheme, top):
    """What the value v does to the frontiers `fronts`, whatever F is:
    (frontiers, added, bits), the frontiers with the matches v grows, not
    yet pruned, those of them that are new, by level, and the bits that
    the heads v completes add to F."""
    last = len(scheme) - 1
    levels, added, bits = list(fronts), [], 0
    for j, x, a, b, build in growing:
        if not a <= v <= b:
            continue
        y = tuple([v if i < 0 else x[i] for i in build])
        if j == last:
            bits |= _mask(*_interval(scheme[j].final, y, top))
            continue
        signs, kept = scheme[j].signs, levels[j - 1]
        if any(_dominates(z, y, signs) for z in kept):
            continue
        levels[j - 1] = tuple(sorted(
            [z for z in kept if not _dominates(y, z, signs)] + [y]))
        added.append((j, y))
    return tuple(levels), added, bits


def _after(F, move, finals, top):
    """The state that a value with this `move` (see _move) leads to from a
    state whose forbidden bits are F, pruned against its final F: all its
    matches where the value added bits to F, and otherwise only the new
    ones, as the others were pruned against that F before. `finals` holds
    the last letter's ends per kept level. Pruning before or after the
    frontier is taken keeps the same matches, as a match at least as good
    as a pruned one is pruned too."""
    levels, added, bits = move
    G = F | bits
    if G != F:
        levels = tuple(
            tuple([x for x in front if _mask(*_interval(final, x, top)) & ~G])
            for front, final in zip(levels, finals))
    elif added:
        levels = list(levels)
        for j, y in added:
            if not _mask(*_interval(finals[j - 1], y, top)) & ~G:
                levels[j - 1] = tuple([x for x in levels[j - 1] if x != y])
        levels = tuple(levels)
    return levels, G


def _step(states, s, p, top):
    """The states after one more entry below s, with their counts.

    What a value does to the frontiers does not depend on F, so it is found
    once per frontier tuple and value (_move) and then applied to each
    state with those frontiers (_after).
    """
    scheme = _scheme(p)
    finals = [level.final for level in scheme[1:-1]]
    known, out = {}, {}
    for (fronts, F), count in states.items():
        growing, moves = known.get(fronts) or known.setdefault(
            fronts, (_growing(fronts, scheme, top), {}))
        for v in range(s):
            if F >> v & 1:
                continue
            move = moves.get(v)
            if move is None:
                move = moves[v] = _move(fronts, growing, v, scheme, top)
            key = _after(F, move, finals, top)
            out[key] = out.get(key, 0) + count
    return out


def state_counts(bounds, pattern):
    """Yield |I_{S_m}(pattern)| for each prefix S_m of the bound set, in
    order, as exact Python ints, from merged prefix states held in dicts.

    This engine takes any pattern and is the oracle of `row_counts`.
    Before each step, the bytes of the states it can make are predicted
    and refused as a growth step's are (see engine._reserve). The last
    length builds no states.
    """
    bounds = validate_bounds(bounds)
    if not bounds:
        return
    p = as_pattern(pattern).entries
    top = bounds[-1]
    states = {_start(p, top): 1}
    for m, s in enumerate(bounds, 1):
        free = [(_free(F, s), count) for (_, F), count in states.items()]
        yield sum(f * count for f, count in free)
        if m == len(bounds):
            return
        successors = sum(f for f, _ in free)
        matches = max((sum(map(len, fronts)) for fronts, _ in states), default=0)
        engine._reserve(successors * (_STATE_BYTES + _MATCH_BYTES * matches + top // 7),
                        "merging {:,} successors, each a state of length {} and a value "
                        "it allows", successors, m)
        states = _step(states, s, p, top)


# -- the row engine ---------------------------------------------------------


class _Table(NamedTuple):
    """How a state row holds the frontier of one kept level: as cells,
    indexed by the values of the `grid` positions, that hold the best value
    of the `value` position, or only whether a match is there."""

    grid: tuple  # the indices into the level's keep that index the cells
    value: int | None  # the index into keep whose best value a cell holds
    sign: int | None  # that position's kind, -1 "lo" or 1 "hi"; None for a set
    stair: int  # for two "lo"/"hi" positions, the grid position's kind, else 0


@lru_cache(maxsize=_KEPT)
def _tables(p):
    """The _Table of each kept level j = 1..L-2 of pattern entries p, or
    None when some level keeps more than two positions."""
    tables = []
    for level in _scheme(p)[1:-1]:
        signs = level.signs
        if len(signs) > 2:
            return None
        eq = tuple(i for i, sign in enumerate(signs) if sign == 0)
        if len(eq) == len(signs):  # ties only: a set of values or of pairs
            tables.append(_Table(eq, None, None, 0))
        elif eq:  # a tie and a bound: the best bound per tied value
            tables.append(_Table(eq, 1 - eq[0], signs[1 - eq[0]], 0))
        elif len(signs) == 1:  # one bound: its best value
            tables.append(_Table((), 0, signs[0], 0))
        else:  # two bounds: a staircase, the best second per first value
            tables.append(_Table((0,), 1, signs[1], signs[0]))
    return tuple(tables)


def fits_rows(pattern):
    """True when every kept level of `pattern`'s state keeps at most two
    positions, as for every pattern of length at most 4: the states that
    `row_counts` holds in fixed-width rows."""
    return _tables(as_pattern(pattern).entries) is not None


@lru_cache(maxsize=_KEPT)
def _layout(p, top):
    """(dtype, spans, width, cells) of the state rows of pattern entries p
    below `top`. A row starts with the bits of F, ceil(top / 8) bytes; then
    each kept level has a byte span (start, stop) of its cells (see
    _Table): one bit per cell of a set, padded to whole bytes, or one
    `dtype` value per cell, which holds -1..top + 1. `width`, the row's
    bytes, is a multiple of 8, so a row also reads as uint64 words, the
    keys of the merge. `cells` counts the cells of every level, padding
    included, as a step holds them."""
    dtype = np.dtype(engine._int_dtype(top + 1))
    at, spans, total = -(-top // 8), [], 0
    for table in _tables(p):
        cells = top ** len(table.grid)
        size = -(-cells // 8) if table.sign is None else cells * dtype.itemsize
        spans.append((at, at + size))
        at += size
        total += 8 * size if table.sign is None else cells
    return dtype, tuple(spans), -(-at // 8) * 8, total


def _forbidden_words(rows, top):
    """F of each state row as ceil(top / 64) little-endian uint64 words."""
    F = np.zeros((len(rows), 8 * -(-top // 64)), np.uint8)
    F[:, :-(-top // 8)] = rows[:, :-(-top // 8)]
    return F.view(engine._BITS)


def _worst(table, top):
    """The value of an empty cell, worse than any held: top for "lo", -1
    for "hi"."""
    return top if table.sign < 0 else -1


def _matches(table, D, top):
    """(r, at, x) for the matches that a level held as D keeps, one row of
    D per state and one column per cell, in row-major order: the row of
    each, its flat index into D, and per kept position the values."""
    at = np.flatnonzero(D if table.sign is None else D != _worst(table, top))
    r = at // D.shape[1] if table.grid else at
    x = [None] * (len(table.grid) + (table.value is not None))
    if table.grid:
        c = at - r * D.shape[1]
        if len(table.grid) == 2:
            x[table.grid[0]], x[table.grid[1]] = np.divmod(c, top)
        else:
            x[table.grid[0]] = c
    if table.value is not None:
        x[table.value] = D.reshape(-1)[at]
    return r, at, x


def _span(a, b, w, words):
    """Word w of `words` of the bits of the values a..b, none when a > b,
    elementwise, for values a and b + 1 in 0..top."""
    a, b = a - 64 * w, b + 1 - 64 * w
    if words > 1:
        a, b = np.clip(a, 0, 64), np.clip(b, 0, 64)
    high, low = engine._masks()
    return high[a] & low[b]


def _row_start(p, top):
    """The state row of the empty prefix (see _start)."""
    dtype, spans, width, _ = _layout(p, top)
    row = np.zeros((1, width), np.uint8)
    if len(p) == 1:
        row[:, :-(-top // 8)] = np.packbits(np.ones(top, bool), bitorder="little")
    for table, (a, b) in zip(_tables(p), spans):
        if table.sign is not None:
            row[:, a:b].view(dtype)[:] = _worst(table, top)
    return row


def _row_bytes(p, top, m):
    """Bytes that one successor of a state, a prefix of length m, takes
    while a step runs: three rows (the new one, its sorted copy and the
    merged one), its F unpacked, indices and counts; each cell of a level
    as the step holds it, a bool or a value, and its mask, twice over; and
    each match that level j can keep, at most C(m, j), with its indices,
    values and bit words."""
    _, spans, width, _ = _layout(p, top)
    nbytes = 3 * width + 2 * top + 64
    for j, (table, (a, b)) in enumerate(zip(_tables(p), spans), 1):
        nbytes += ((b - a) * (16 if table.sign is None else 3)
                   + 96 * min(top ** len(table.grid), comb(m, j)))
    return nbytes


def _row_step(rows, counts, s, p, top):
    """(rows, counts) of the states after one more entry below s: each
    state row followed by each value its F leaves clear, all at once,
    merged where equal. The same move as _step, on every level as arrays:
    growth reads the frontiers before any value joins them, F takes the
    values that the completed heads allow, and every level is then pruned
    against that final F."""
    scheme, tables = _scheme(p), _tables(p)
    dtype, spans, width, _ = _layout(p, top)
    F = _forbidden_words(rows, top)
    words = F.shape[1]
    taken = np.unpackbits(F.view(np.uint8).reshape(-1), bitorder="little").view(bool)
    at = np.flatnonzero(~taken.reshape(len(rows), 64 * words)[:, :s])
    at, v = np.divmod(at, s)
    F, counts = F[at], counts[at]
    R, last = len(v), len(scheme) - 1
    fronts = [np.unpackbits(rows[at, a:b].reshape(-1), bitorder="little").view(bool)
              .reshape(R, 8 * (b - a)) if table.sign is None else rows[at, a:b].view(dtype)
              for table, (a, b) in zip(tables, spans)]
    for j in range(last - 1, -1, -1):  # from the top, so growth reads old frontiers
        if j:
            r, _, x = _matches(tables[j - 1], fronts[j - 1], top)
            a, b = _interval(scheme[j].grow, x, top)
            vr = v[r]
            grows = (a <= vr) & (vr <= b)
            r = r[grows]
            y = [v[r] if i < 0 else x[i][grows] for i in scheme[j].build]
            single = fronts[j - 1].shape[1] == 1  # at most one match per row
        else:  # the empty match grows by any value, to (v,)
            r, y, single = np.arange(R), [v], True
        if j == last - 1:  # completed heads: F takes their last letters' values
            a, b = _interval(scheme[last].final, y, top)
            for w, Fw in enumerate(F.T):
                if single:
                    Fw[r] |= _span(a, b, w, words)
                else:
                    np.bitwise_or.at(Fw, r, _span(a, b, w, words))
            continue
        table, D = tables[j], fronts[j]
        cell = r * D.shape[1]
        if len(table.grid) == 2:
            cell += y[table.grid[0]].astype(np.intp) * top
        if table.grid:
            cell += y[table.grid[-1]]
        flat = D.reshape(-1)
        if table.sign is None:
            flat[cell] = True
        else:
            value = y[table.value].astype(dtype)
            better = np.minimum if table.sign < 0 else np.maximum
            if single:
                flat[cell] = better(flat[cell], value)
            else:
                better.at(flat, cell, value)
    out = np.zeros((R, width), np.uint8)
    out[:, :-(-top // 8)] = F.view(np.uint8)[:, :-(-top // 8)]
    clear = ~F.T
    for j, (table, D, (a, b)) in enumerate(zip(tables, fronts, spans), 1):
        r, at, x = _matches(table, D, top)
        lo, hi = _interval(scheme[j].final, x, top)
        drop = (_span(lo, hi, 0, words) & clear[0][r]) == 0
        for w in range(1, words):
            drop &= (_span(lo, hi, w, words) & clear[w][r]) == 0
        if table.stair:
            drop |= _beaten(table, r, x[table.value], top)
        if table.sign is None:
            D.reshape(-1)[at[drop]] = False
            out[:, a:b] = np.packbits(D.reshape(-1), bitorder="little").reshape(R, b - a)
        else:
            D.reshape(-1)[at[drop]] = _worst(table, top)
            out[:, a:b] = D.view(np.uint8)
    return _merge(out, counts)


def _beaten(table, r, value, top):
    """Per match of a staircase, in row-major order, whether a match of
    its row with a better grid value has a value at least as good: the
    matches to drop so that equal frontiers give equal rows.

    Within a row the matches are taken from the best grid value on, and
    each is compared with the best value before it. One running minimum
    serves every row: shifting each row's values below all of the rows
    before it keeps a row from seeing them.
    """
    sign, order = table.sign, slice(None, None, -table.stair)  # best grid value first
    score = value[order].astype(np.intp) * -sign  # smaller is better
    score -= r[order] * (-table.stair * (2 * top + 4))
    best = np.minimum.accumulate(score)
    beaten = np.zeros(len(score), bool)
    np.less_equal(best[:-1], score[1:], out=beaten[1:])
    return beaten[order]


def _merge(rows, counts):
    """The distinct rows, each with the sum of the counts of its copies."""
    if not len(rows):
        return rows, counts
    keys = rows.view(np.uint64)
    order = np.lexsort(keys.T) if keys.shape[1] > 1 else keys[:, 0].argsort()
    keys = keys[order]
    start = np.empty(len(keys), bool)
    start[0] = True
    np.not_equal(keys[1:, 0], keys[:-1, 0], out=start[1:])
    for k in range(1, keys.shape[1]):
        start[1:] |= keys[1:, k] != keys[:-1, k]
    start = start.nonzero()[0]
    return rows[order[start]], np.add.reduceat(counts[order], start)


def row_counts(bounds, pattern, work=None):
    """Yield |I_{S_m}(pattern)| for each prefix S_m of the bound set, in
    order, as exact Python ints, from merged prefix states held as
    fixed-width rows (see _layout), for a pattern that `fits_rows`.

    Counts are uint64 while the product of the bounds so far stays below
    2^64, which bounds every sum of them, and Python ints after that.

    A length costs _LENGTH_UNITS units of work, and each of its successors
    (a state and a value its F leaves clear) one per cell of its levels and
    _SUCCESSOR_UNITS more; the last length builds no successors, but is
    costed so too. With `work`, the counts stop short, before the first
    length whose units, with as many again for each length left, would
    take the units spent past `work`. Before each step, its bytes are
    predicted and refused as a growth step's are (see engine._reserve).
    """
    bounds = validate_bounds(bounds)
    p = as_pattern(pattern).entries
    if not fits_rows(p):
        raise ValueError(f"pattern {as_pattern(p)} keeps more than two positions on a level")
    if not bounds:
        return
    top = bounds[-1]
    _, _, width, cells = _layout(p, top)
    engine._reserve(width, "holding a state of {:,} bytes", width)
    rows, counts, size = _row_start(p, top), np.ones(1, np.uint64), 1
    for m, s in enumerate(bounds, 1):
        free = engine._children(_forbidden_words(rows, top), s)
        successors = int(free.sum())
        if work is not None:
            units = _LENGTH_UNITS + successors * (cells + _SUCCESSOR_UNITS)
            work -= units
            if work < units * (len(bounds) - m):
                return
        size *= s
        if size >> 64 and counts.dtype != object:
            counts = counts.astype(object)
        yield int((counts * free.astype(counts.dtype)).sum())
        if m == len(bounds):
            return
        # The sort of the merge also takes about 4 KB per uint64 word of a row.
        engine._reserve(successors * _row_bytes(p, top, m) + 512 * width,
                        "merging {:,} successors, each a state of length {} and a value "
                        "it allows", successors, m)
        rows, counts = _row_step(rows, counts, s, p, top)
