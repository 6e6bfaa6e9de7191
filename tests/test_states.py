import gc
import tracemalloc
from collections import defaultdict
from math import prod

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
from invseq.states import single_valued, state_counts

_ALL_UP_TO_4 = [p for n in (1, 2, 3, 4) for p in canonical_patterns(n)]
# One pattern of each kind of state: one value per level, "eq" positions
# (ties), two positions on a level (3012's staircase), and Bell-like.
_SHAPES = ["3201", "0122", "0021", "3012", "1001", "0101", "0000", "2011", "1012", "0231"]


def test_counts_match_the_layers():
    # Every canonical pattern of length 1-4, including the empty head of 0.
    bounds = ordinary_bounds(8)
    for p in _ALL_UP_TO_4:
        want = [E.shape[0] for E in avoider_steps(bounds, p)]
        assert list(state_counts(bounds, p)) == want, str(p)


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


def test_counts_at_n_12_and_at_the_edges():
    # The figures the matrix engine gives; the counts are Python ints,
    # which do not wrap.
    counts = list(state_counts(ordinary_bounds(12), "3201"))
    assert counts[-2:] == [36944790, 420395292]
    assert all(type(c) is int for c in counts)
    assert list(state_counts((), "3201")) == []
    assert list(state_counts((5,), "0")) == [0]
    assert list(state_counts((2, 3), "0")) == [0, 0]


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


def test_single_valued_shapes():
    assert [str(p) for p in canonical_patterns(4) if single_valued(p)] == [
        "0122", "0123", "0132", "2100", "3201", "3210"]
    # The closed form agrees with the levels the state keeps.
    for p in [p for n in (1, 2, 3, 4, 5) for p in canonical_patterns(n)]:
        levels = states._scheme(p.entries)[1:-1]
        assert single_valued(p) == all(
            len(level.keep) <= 1 and 0 not in level.signs for level in levels), str(p)


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
    with pytest.raises(MemoryError, match="merging the states of [0-9,]+ sequences of length"):
        list(state_counts(ordinary_bounds(9), "1001"))


# -- the route in engine.count_steps ---------------------------------------

def _refuse(*args):
    raise AssertionError("the other engine was asked")


def test_deep_3201_count_takes_the_state_route(monkeypatch):
    # Its last layer, n = 10, has 3,483,636 rows; the states need about
    # 3,500 units of work, far within 3,483,636 / engine._ROWS_PER_UNIT.
    monkeypatch.setattr(engine, "_count_after", _refuse)
    assert count_vector("3201", 11).counts[-2:] == (3483636, 36944790)


def test_deep_staircase_and_tie_counts_stay_on_the_matrix(monkeypatch):
    # 0021 and 2001 keep "eq" positions and 2011 two positions on a level,
    # so the state engine is never started for them.
    monkeypatch.setattr(states, "state_counts", _refuse)
    assert check_0021_conjecture(11)[0]
    assert first_divergence("2001", "2011", 10) == 10


def test_small_and_wide_counts_stay_on_the_matrix(monkeypatch):
    # classify(4, 9)'s jobs and S-equivalence counts over subsets of [8]
    # have small last layers, and wide bounds barely merge, so the state
    # engine stops short of its work budget and the matrix counts.
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
    # Its last layer has 1,008,000 rows, and the states about 2.9M
    # transitions (all of them took 1.2 s, against 0.03 s for the matrix).
    assert count_avoiders((3, 60, 70, 80, 90), "3201") == 89257095
    assert len(calls) == 1


def test_a_state_count_that_differs_from_a_layer_is_refused(monkeypatch):
    real = states.state_counts

    def doctored(*args):
        for m, count in enumerate(real(*args), 1):
            yield count + (m == 5)

    monkeypatch.setattr(states, "state_counts", doctored)
    with pytest.raises(RuntimeError, match="sequences of length 5, where the layer holds 120"):
        count_vector("3201", 11)
