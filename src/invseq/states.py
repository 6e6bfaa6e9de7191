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
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

# engine imports this module for its route, so its memory guard is looked
# up on the module at call time.
from . import engine
from .core import _ends, as_pattern, validate_bounds

# Bytes a successor state may take, beyond its F (about top / 7.5 bytes):
# its dict slot, key, frontier tuples and count, and per kept match its
# tuple. Steps of 3201, 3012, 0021, 1001 and 0122 at n = 9..11 peaked at
# 105-522 bytes per successor under tracemalloc (CPython 3.11, 64-bit).
_STATE_BYTES = 400
_MATCH_BYTES = 120


class _Level(NamedTuple):
    """What a state keeps of the matches of one head prefix p[:j]."""

    keep: tuple  # the binding positions, in order
    signs: tuple  # per kept position, its kind: -1 "lo", 1 "hi", 0 "eq"
    grow: tuple  # letter j's (lo, hi, tie), as indices into keep
    final: tuple  # the last letter's (lo, hi, tie), as indices into keep
    build: tuple  # per position kept at level j + 1, its index in keep, or -1 for j


@lru_cache(maxsize=64)
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


def single_valued(pattern):
    """True when every kept level of `pattern`'s state keeps at most one
    binding position, and it is "lo" or "hi": then each frontier is one
    value, the best one, or empty.

    Every later letter is bounded by some entry of a nonempty head prefix,
    so a level keeps one "lo" position exactly when all the letters after
    p[:j] lie above its largest entry, and one "hi" position when they all
    lie below its smallest; found so, the answer costs no _scheme.
    """
    p = as_pattern(pattern).entries
    return all(min(p[j:]) > max(p[:j]) or max(p[j:]) < min(p[:j])
               for j in range(1, len(p) - 1))


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


def state_counts(bounds, pattern, work=None):
    """Yield |I_{S_m}(pattern)| for each prefix S_m of the bound set, in
    order, as exact Python ints, from merged prefix states.

    A length costs one unit of work per state and value that its F leaves
    clear: a transition, or at the last length a term of the popcount sum.
    With `work`, the counts stop short, before the first length whose units,
    with as many again for each length left, would take the units spent
    past `work`; so they never spend more, and where each length costs at
    least as much as the one before, they stop as soon as it is sure that
    they would. Before each step, the bytes of the states it can make are
    predicted and refused as a growth step's are (see engine._reserve). The
    last length builds no states.
    """
    bounds = validate_bounds(bounds)
    if not bounds:
        return
    p = as_pattern(pattern).entries
    top = bounds[-1]
    states = {_start(p, top): 1}
    for m, s in enumerate(bounds, 1):
        free = [(_free(F, s), count) for (_, F), count in states.items()]
        successors = sum(f for f, _ in free)
        if work is not None:
            work -= successors
            if work < successors * (len(bounds) - m):
                return
        yield sum(f * count for f, count in free)
        if m == len(bounds):
            return
        matches = max((sum(map(len, fronts)) for fronts, _ in states), default=0)
        engine._reserve(successors * (_STATE_BYTES + _MATCH_BYTES * matches + top // 7),
                        "merging the states of {:,} sequences of length {}", successors, m)
        states = _step(states, s, p, top)
