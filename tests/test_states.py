import gc
import tracemalloc
from collections import defaultdict
from math import comb, prod

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from invseq import (
    canonical_patterns,
    check_0021_conjecture,
    classify,
    count_avoiders,
    count_vector,
    engine,
    enumerate_avoiders,
    extend_avoids,
    first_divergence,
    states,
)
from invseq.core import as_pattern, ordinary_bounds
from invseq.engine import avoider_steps
from invseq.states import fits_rows, row_counts, state_counts

_ALL_UP_TO_4 = [p for n in (1, 2, 3, 4) for p in canonical_patterns(n)]
# One pattern of each kind of state: one value per level, "eq" positions
# (ties), two positions on a level (3012's staircase), and Bell-like.
_SHAPES = ["3201", "0122", "0021", "3012", "1001", "0101", "0000", "2011", "1012", "0231"]


def _check_both_engines(bounds, pattern, want):
    """Step both state engines side by side: the dict engine's counts, as
    state_counts sums them, equal `want`, and at every length the row
    engine keeps as many states, so equal frontiers merge in rows."""
    p, top = as_pattern(pattern).entries, bounds[-1]
    level = {states._start(p, top): 1}
    rows, counts = states._row_start(p, top), np.ones(1, np.uint64)
    for m, s in enumerate(bounds):
        assert sum(states._free(F, s) * c for (_, F), c in level.items()) == want[m], (pattern, m)
        if m + 1 < len(bounds):
            level = states._step(level, s, p, top)
            rows, counts = states._row_step(rows, counts, s, p, top)
            assert len(level) == len(rows), (pattern, m)
    assert list(row_counts(bounds, pattern)) == want, pattern


def test_counts_match_the_layers():
    # Every canonical pattern of length 1-4, including the empty head of 0.
    bounds = ordinary_bounds(8)
    for p in _ALL_UP_TO_4:
        _check_both_engines(bounds, p, [E.shape[0] for E in avoider_steps(bounds, p)])


@settings(max_examples=40, deadline=None)
@given(
    pattern=st.sampled_from(_ALL_UP_TO_4),
    head=st.lists(st.integers(1, 6), max_size=3, unique=True),
    tail=st.lists(st.integers(60, 200), min_size=1, max_size=2, unique=True),
)
def test_counts_match_reference_on_bound_sets(pattern, head, tail):
    # Bounds past 64 and past 127 put F's bits past a machine word, where a
    # fixed-width F would wrap.
    bounds = tuple(sorted(head)) + tuple(sorted(tail))
    assume(prod(bounds) <= 20_000)
    want = [sum(1 for _ in enumerate_avoiders(bounds[:m], pattern))
            for m in range(1, len(bounds) + 1)]
    assert list(state_counts(bounds, pattern)) == want
    assert list(row_counts(bounds, pattern)) == want


def test_counts_at_n_12_and_at_the_edges():
    # The figures the matrix engine gives; the counts are Python ints,
    # which do not wrap.
    for engine_counts in (state_counts, row_counts):
        counts = list(engine_counts(ordinary_bounds(12), "3201"))
        assert counts[-2:] == [36944790, 420395292]
        assert all(type(c) is int for c in counts)
        assert list(engine_counts((), "3201")) == []
        assert list(engine_counts((5,), "0")) == [0]
        assert list(engine_counts((2, 3), "0")) == [0, 0]


def test_counts_past_64_bits_are_exact():
    # |I_n(10)| is the Catalan number C_n; C_37 is the first past 2^64, and
    # the row engine's counts leave uint64 once n! passes it, at n = 21.
    catalan = [comb(2 * n, n) // (n + 1) for n in range(1, 41)]
    assert catalan[35] < 1 << 64 < catalan[36]
    for engine_counts in (state_counts, row_counts):
        counts = list(engine_counts(ordinary_bounds(40), "10"))
        assert counts == catalan
        assert all(type(c) is int for c in counts)


def _walk(bounds, pattern):
    """Yield (length, state, descendants) for every avoider shorter than
    bounds, depth first, its children found by the reference
    (extend_avoids) and its state by one transition from its parent's:
    descendants[k] is the number of avoiders of length length + 1 + k that
    extend it."""
    p = as_pattern(pattern).entries
    scheme, top = states._scheme(p), bounds[-1]
    finals = [level.final for level in scheme[1:-1]]

    def visit(seq, state):
        below = [0] * (len(bounds) - len(seq))
        if len(seq) == len(bounds):
            return below
        found = []
        fronts, F = state
        growing = states._growing(fronts, scheme, top)
        for v in range(bounds[len(seq)]):
            if extend_avoids(seq, v, pattern):
                move = states._move(fronts, growing, v, scheme, top)
                child = states._after(F, move, finals, top)
                sub = yield from visit(seq + (v,), child)
                below[0] += 1
                for k, c in enumerate(sub, 1):
                    below[k] += c
                found.append(v)
        # The state's F holds exactly the values the reference refuses.
        assert [v for v in range(bounds[len(seq)]) if not F >> v & 1] == found, seq
        yield len(seq), state, tuple(below)
        return below

    yield from visit((), states._start(p, top))


@pytest.mark.parametrize("n, patterns", [
    (6, _ALL_UP_TO_4),
    (7, _SHAPES + ["0123", "0132", "2100", "3210"]),
], ids=["all-6", "shapes-7"])
def test_prefixes_merged_into_a_state_have_one_future(n, patterns):
    # A cheap form of the merge oracle: prefixes of the same length and
    # state have equal descendant counts at every later length, so no
    # merge loses a count.
    for p in patterns:
        futures = defaultdict(set)
        for length, state, below in _walk(ordinary_bounds(n), p):
            futures[length, state].add(below)
        assert all(len(f) == 1 for f in futures.values()), str(p)


@pytest.mark.parametrize("pattern", _SHAPES)
def test_states_are_pruned_against_their_own_forbidden_bits(pattern):
    # No kept match can still add a forbidden value: pruning is done once
    # per step, against the F that the step ends with.
    p = as_pattern(pattern).entries
    bounds = ordinary_bounds(8)
    scheme, top = states._scheme(p), bounds[-1]
    reached = {states._start(p, top): 1}
    for s in bounds[:-1]:
        reached = states._step(reached, s, p, top)
        for fronts, F in reached:
            for front, level in zip(fronts, scheme[1:-1]):
                for x in front:
                    assert states._mask(*states._interval(level.final, x, top)) & ~F, (fronts, F)


def test_state_sizes_per_length():
    # The number of states at lengths 1..10 for patterns whose futures
    # merge well, and for 1001, whose states grow like the Bell numbers.
    def sizes(pattern, n):
        p = as_pattern(pattern).entries
        level, out = {states._start(p, n): 1}, []
        for s in ordinary_bounds(n)[:-1]:
            level = states._step(level, s, p, n)
            out.append(len(level))
        return out

    assert sizes("3201", 11) == [1, 2, 3, 5, 9, 15, 26, 49, 96, 187]
    assert sizes("0132", 11) == [1, 2, 3, 5, 8, 13, 21, 34, 55, 89]
    assert sizes("1001", 8) == [1, 2, 5, 15, 54, 223, 1028]


def test_row_shapes():
    # Every pattern of length at most 4 keeps at most two positions on a
    # level; of the 541 of length 5, 60 keep three on some level, and the
    # row engine refuses those.
    fits = {n: [p for p in canonical_patterns(n) if fits_rows(p)] for n in (1, 2, 3, 4, 5)}
    assert [len(fits[n]) for n in fits] == [1, 3, 13, 75, 481]
    for p in [p for n in (1, 2, 3, 4, 5) for p in canonical_patterns(n)]:
        levels = states._scheme(p.entries)[1:-1]
        assert fits_rows(p) == all(len(level.keep) <= 2 for level in levels), str(p)
    assert not fits_rows("02413")
    with pytest.raises(ValueError, match="keeps more than two positions"):
        list(row_counts((1, 2, 3), "02413"))
    # A sample of the length-5 patterns that fit, whose three kept levels
    # take every kind of cell: counts and states agree with the dict engine.
    bounds = ordinary_bounds(7)
    for p in fits[5][::8]:
        _check_both_engines(bounds, p, [E.shape[0] for E in avoider_steps(bounds, p)])


def test_reserves_each_step_before_it_allocates(monkeypatch):
    # The prediction, states x bytes per state, covers each step's traced
    # peak; a budget below it refuses the step, naming its successors.
    for pattern in ("3201", "1001", "3012"):
        p = as_pattern(pattern).entries
        needs = []
        monkeypatch.setattr(engine, "_budget", lambda need: needs.append(need) or need)
        real = states._step

        def traced(*args):
            gc.collect()
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            out = real(*args)
            assert tracemalloc.get_traced_memory()[1] - base <= needs[-1], (pattern, len(args[0]))
            return out

        monkeypatch.setattr(states, "_step", traced)
        tracemalloc.start()
        try:
            list(state_counts(ordinary_bounds(8), p))
        finally:
            tracemalloc.stop()
        monkeypatch.setattr(states, "_step", real)
    monkeypatch.setattr(engine, "_budget", lambda need: 10**5)
    with pytest.raises(MemoryError, match="merging [0-9,]+ successors, each a state of "
                                          "length [0-9]+ and a value it allows"):
        list(state_counts(ordinary_bounds(9), "1001"))


def test_row_steps_reserve_before_they_allocate(monkeypatch):
    # The prediction, successors x bytes per successor, covers each row
    # step's traced peak, for sets, pairs, best values and a staircase, at
    # one word of F and at three; a budget below it refuses the step.
    for pattern, bounds in [("0021", ordinary_bounds(9)), ("2011", ordinary_bounds(9)),
                            ("1001", ordinary_bounds(8)), ("0102", (2, 3, 5, 7, 150))]:
        needs = []
        monkeypatch.setattr(engine, "_budget", lambda need: needs.append(need) or need)
        real = states._row_step

        def traced(*args):
            gc.collect()
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            out = real(*args)
            assert tracemalloc.get_traced_memory()[1] - base <= needs[-1], (pattern, len(args[0]))
            return out

        monkeypatch.setattr(states, "_row_step", traced)
        tracemalloc.start()
        try:
            list(row_counts(bounds, pattern))
        finally:
            tracemalloc.stop()
        monkeypatch.setattr(states, "_row_step", real)
    monkeypatch.setattr(engine, "_budget", lambda need: 10**5)
    with pytest.raises(MemoryError, match="merging [0-9,]+ successors, each a state of "
                                          "length [0-9]+ and a value it allows"):
        list(row_counts(ordinary_bounds(9), "1001"))


# -- the route in engine.count_steps ---------------------------------------

def _refuse(*args):
    raise AssertionError("the other engine was asked")


def test_deep_3201_count_takes_the_state_route(monkeypatch):
    # Its last layer, n = 10, has 3,483,636 rows, a budget of 87M units
    # (engine._UNITS_PER_ROW each); the rows need about 2.4M.
    monkeypatch.setattr(engine, "_count_after", _refuse)
    assert count_vector("3201", 11).counts[-2:] == (3483636, 36944790)


def test_deep_staircase_and_tie_counts_take_the_row_route(monkeypatch):
    # 0021 and 2001 keep "eq" positions and 2011 a (hi, lo) staircase; the
    # row engine counts their last lengths within the budget of the
    # 359,112 and 342,594 rows of the last layers drawn.
    monkeypatch.setattr(engine, "_count_after", _refuse)
    assert check_0021_conjecture(11)[0]
    assert first_divergence("2001", "2011", 10) == 10


def test_small_and_wide_counts_stay_on_the_matrix(monkeypatch):
    # classify(4, 9)'s jobs and S-equivalence counts over subsets of [8]
    # have last layers too small to pay the row engine's fixed units per
    # length, so it is not started, and wide bounds barely merge, so it
    # stops short of its work budget; the matrix counts.
    calls = []
    real = engine._count_after
    monkeypatch.setattr(engine, "_count_after", lambda *a: calls.append(a) or real(*a))
    classify(4, 9, threads=1)
    assert len(calls) == 75
    calls.clear()
    sets = [(1, 2, 3, 4, 5, 6, 7, 8), (2, 3, 5, 8), (1, 4, 6, 7, 8)]
    for S in sets:
        assert count_avoiders(S, "210") == count_avoiders(S, "201")
    assert len(calls) == 2 * len(sets)
    calls.clear()
    # Its last layer has 1,008,000 rows, a budget of 25.2M units, and the
    # rows about 2.9M successors, 150M units: the two engines measured 25
    # and 29 ms, so the budget leaves close calls to the matrix.
    assert count_avoiders((3, 60, 70, 80, 90), "3201") == 89257095
    assert len(calls) == 1


def test_a_state_count_that_differs_from_a_layer_is_refused(monkeypatch):
    real = states.row_counts

    def doctored(*args):
        for m, count in enumerate(real(*args), 1):
            yield count + (m == 5)

    monkeypatch.setattr(states, "row_counts", doctored)
    with pytest.raises(RuntimeError, match="sequences of length 5, where the layer holds 120"):
        count_vector("3201", 11)
