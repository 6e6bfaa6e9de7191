import gc
import os
import time
import tracemalloc
from functools import lru_cache
from itertools import chain, combinations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invseq import (
    canonical_patterns,
    check_0021_conjecture,
    count_avoiders,
    count_vector,
    engine,
    enumerate_avoiders,
    first_divergence,
)
from invseq.core import as_pattern, contains, ordinary_bounds
from invseq.engine import (
    _dtype_for,
    avoider_steps,
    contains_mask,
    count_steps,
    full_matrix,
)


@lru_cache(maxsize=None)
def _reference_layers(pattern):
    bounds = ordinary_bounds(7)
    return [list(enumerate_avoiders(bounds[:m], pattern)) for m in range(1, 8)]


@pytest.mark.parametrize("length", [1, 2, 3, 4])
def test_every_layer_matches_reference(length):
    # Rows, not just counts, and in the same lexicographic order.
    for p in canonical_patterns(length):
        layers = [[tuple(row) for row in E.tolist()]
                  for E in avoider_steps(ordinary_bounds(7), p)]
        assert layers == _reference_layers(p), str(p)


@pytest.mark.parametrize("length", [1, 2, 3, 4])
def test_counts_match_reference(length):
    # The last length is counted from forbidden bits, never built as a layer.
    for p in canonical_patterns(length):
        want = [len(rows) for rows in _reference_layers(p)]
        assert list(count_steps(ordinary_bounds(7), p)) == want, str(p)


_WIDE_BOUNDS = [(2, 65, 66), (2, 64, 65), (3, 65, 130)]
_WIDE_PATTERNS = [(1, 0), (0, 1), (0, 0), (1, 0, 1)]


@pytest.mark.parametrize("bounds", _WIDE_BOUNDS)
@pytest.mark.parametrize("pattern", _WIDE_PATTERNS)
def test_bit_words_past_64(bounds, pattern):
    # Two or more entries reach past the first 64-value word, so forbidden
    # intervals start, end or lie inside a later word.
    want = list(enumerate_avoiders(bounds, pattern))
    layers = list(avoider_steps(bounds, pattern))
    assert [tuple(row) for row in layers[-1].tolist()] == want
    assert list(count_steps(bounds, pattern)) == [E.shape[0] for E in layers]


@pytest.mark.parametrize("block", [7, 61])
def test_block_edges_change_nothing(monkeypatch, block):
    # Small odd blocks put edges inside runs of rows that share a prefix;
    # the block after an edge starts that prefix again from its first row.
    # Every length is counted as the last one, so every layer is split.
    monkeypatch.setattr(engine, "_BLOCK", block)
    patterns = [p for length in (1, 2, 3) for p in canonical_patterns(length)]
    patterns += map(as_pattern, ("3201", "3012", "0021", "1001", "0000"))
    bounds = ordinary_bounds(7)
    for p in patterns:
        want = [len(rows) for rows in _reference_layers(p)]
        got = [list(count_steps(bounds[:n], p))[-1] for n in range(1, 8)]
        assert got == want, str(p)
    for bounds, p in product(_WIDE_BOUNDS, _WIDE_PATTERNS):
        want = [E.shape[0] for E in avoider_steps(bounds, p)]
        got = [list(count_steps(bounds[:n], p))[-1] for n in (1, 2, 3)]
        assert got == want, (bounds, p)


@pytest.mark.parametrize("pattern", ["3201", "0021"])
def test_blocked_counts_match_unblocked(monkeypatch, pattern):
    unblocked = list(count_steps(ordinary_bounds(9), pattern))
    monkeypatch.setattr(engine, "_BLOCK", 61)
    assert list(count_steps(ordinary_bounds(9), pattern)) == unblocked


def _carried_and_walked(bounds, pattern):
    """Yield (layer, carried bits, walked bits) as avoider_steps grows each
    layer: carried bits start from the parent's, walked bits from none."""
    plan = engine._plan(pattern, bounds)
    E, parent = engine._empty_layer(bounds), None
    for s in bounds:
        forbidden = engine._forbidden(E, plan, parent)
        yield E, forbidden, engine._forbidden(E, plan)
        E, counts = engine._grow(E, s, forbidden)
        parent = forbidden, counts


@pytest.mark.parametrize("bounds, patterns", [
    (ordinary_bounds(8), [p for n in (1, 2, 3, 4) for p in canonical_patterns(n)]),
] + [(bounds, _WIDE_PATTERNS) for bounds in _WIDE_BOUNDS],
    ids=["ordinary-8"] + [f"wide-{b}" for b in _WIDE_BOUNDS])
def test_carried_bits_equal_walked_bits(bounds, patterns):
    # Every word, not only those below the next bound.
    for p in patterns:
        steps = avoider_steps(bounds, p)
        for m, (E, carried, walked) in enumerate(_carried_and_walked(bounds, p)):
            assert np.array_equal(carried, walked), (str(as_pattern(p)), m)
            if m:
                assert np.array_equal(E, next(steps)), (str(as_pattern(p)), m)


_ALL_UP_TO_4 = [p for n in (1, 2, 3, 4) for p in canonical_patterns(n)]


@pytest.mark.parametrize("bounds, patterns, blocks", [
    (ordinary_bounds(9), _ALL_UP_TO_4, (None, 4099)),
    # 61 rows split the layers before the last anywhere; over [9] it takes
    # half a minute, so it runs over [7].
    (ordinary_bounds(7), _ALL_UP_TO_4, (61,)),
] + [(bounds, _WIDE_PATTERNS, (None, 4099, 61)) for bounds in _WIDE_BOUNDS],
    ids=["ordinary-9", "ordinary-7"] + [f"wide-{b}" for b in _WIDE_BOUNDS])
def test_carried_last_count_equals_walked_count(monkeypatch, bounds, patterns, blocks):
    # Every length is counted as the last one. With 61-row blocks, a row of
    # the layer before the parent may have more children (65, 66 or 130)
    # than a block holds, and many of its rows have none.
    for p in patterns:
        plan = engine._plan(p, bounds)
        layers = [engine._empty_layer(bounds), *avoider_steps(bounds[:-1], p)]
        walked = [engine._count_next(engine._forbidden(E, plan), s)
                  for E, s in zip(layers, bounds)]
        for block in blocks:
            if block:
                monkeypatch.setattr(engine, "_BLOCK", block)
            carried = [engine._count_after(layers[n - 2] if n > 1 else None,
                                           layers[n - 1], plan, bounds[:n])
                       for n in range(1, len(bounds) + 1)]
            assert carried == walked, (str(as_pattern(p)), block)


@pytest.mark.parametrize("pattern", ["3201", "0021", "0231", "1302", "0101", "1001"])
def test_subset_total_matches_subset_sums(pattern):
    # 0231 and 1302 take both interval ends away from the last column, so no
    # head matches share a group; 0101 and 1001 end on a tie.
    ground = range(1, 8)
    subsets = chain.from_iterable(combinations(ground, r) for r in range(8))
    want = sum(count_avoiders(S, pattern) for S in subsets)
    assert engine.subset_total(ground, pattern) == want


def test_counts_draw_their_layers_from_avoider_steps(monkeypatch):
    # A wrapper on engine.avoider_steps, as a tracer installs, sees every
    # call with its whole bound tuple and each layer before the last.
    real, calls = engine.avoider_steps, []

    def recording(bounds, pattern):
        rows = []
        calls.append((bounds, str(as_pattern(pattern)), rows))
        for E in real(bounds, pattern):
            rows.append(E.shape[0])
            yield E

    monkeypatch.setattr(engine, "avoider_steps", recording)
    assert count_vector("3201", 8).counts[-1] == 40074
    assert first_divergence("2001", "2011", 8) is None
    assert check_0021_conjecture(8)[0]
    bounds = ordinary_bounds(8)
    assert calls == [
        (bounds, "3201", [1, 2, 6, 24, 120, 720, 5034]),
        (bounds, "2001", [1, 2, 6, 24, 120, 718, 4982]),
        (bounds, "2011", [1, 2, 6, 24, 120, 718, 4982]),
        (bounds, "0021", [1, 2, 6, 23, 101, 480, 2400]),
    ]


@pytest.mark.parametrize(
    "bounds, dtype",
    [
        (ordinary_bounds(11), np.int8),
        ((3, 128), np.int8),
        ((3, 129), np.int16),
        ((3, 32768), np.int16),
        ((3, 32769), np.int32),
        ((3, 40000), np.int32),
    ],
)
def test_storage_dtype_holds_largest_entry(bounds, dtype):
    assert _dtype_for(bounds) is dtype


def test_bound_past_int16_counts_exactly():
    # e_2 >= e_1 for e_1 in {0, 1, 2}: 40000 + 39999 + 39998
    assert count_avoiders((3, 40000), "10") == 119997


@settings(max_examples=25, deadline=None)
@given(
    st.lists(st.integers(1, 4), max_size=2),
    st.sampled_from(
        [63, 64, 65, 126, 127, 128, 129, 32766, 32767, 32768, 32769, 40000]
    ),
    st.sampled_from([(1, 0), (0, 1), (0, 0), (1, 0, 1), (0, 0, 1), (2, 1, 0)]),
)
def test_engines_agree_near_dtype_limits(head, top, pattern):
    bounds = tuple(sorted(set(head))) + (top,)
    assert count_avoiders(bounds, pattern, "fast") == count_avoiders(
        bounds, pattern, "reference"
    )


@pytest.mark.parametrize("bounds", [(), (1, 2, 3, 4, 5), (2, 3, 5), (1, 3, 4, 6)])
@pytest.mark.parametrize("pattern", [(0,), (1, 0), (0, 0, 0), (1, 0, 1, 2), (3, 2, 0, 1)])
def test_contains_mask_matches_contains(bounds, pattern):
    E, hit = contains_mask(bounds, pattern)
    assert hit.tolist() == [contains(tuple(row), pattern) for row in E.tolist()]
    assert hit.tolist() == [contains(row, pattern) for row in E]


@pytest.mark.parametrize("bounds", [(), (2, 3, 5), (2, 130)])
def test_full_matrix_is_lexicographic_product(bounds):
    E = full_matrix(bounds)
    assert E.dtype == _dtype_for(bounds)
    assert [tuple(row) for row in E.tolist()] == list(product(*map(range, bounds)))


@pytest.mark.parametrize("pattern, bounds, block", [
    ("3201", ordinary_bounds(9), None),
    ("0021", ordinary_bounds(10), None),
    ("101", (2, 3, 5, 130, 140), None),
    ("01", (3, 4, 40000), None),
    ("3201", ordinary_bounds(9), 4099),
], ids=["3201-bounds0", "0021-bounds1", "101-bounds2", "01-bounds3", "3201-blocks"])
def test_step_prediction_covers_traced_peak(monkeypatch, pattern, bounds, block):
    # Each step's prediction is the largest request it makes of the budget.
    needs, peaks = [], []
    monkeypatch.setattr(engine, "_budget", lambda need: needs.append(need) or need)
    if block:  # the count's 40,074-row parent layer spans blocks
        monkeypatch.setattr(engine, "_BLOCK", block)

    def measure(rows, step, *args):
        gc.collect()
        needs.clear()
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        out = step(*args)
        peaks.append(tracemalloc.get_traced_memory()[1] - base)
        assert max(needs) >= peaks[-1], (step.__name__, rows)
        if pattern in ("3201", "0021") and rows >= 10**4:
            assert max(needs) <= 4 * peaks[-1], (step.__name__, rows)
        return out

    plan = engine._plan(pattern, bounds)
    P, E, parent = None, engine._empty_layer(bounds), None
    tracemalloc.start()
    try:
        # As avoider_steps does: each step starts from its parent's bits.
        for s in bounds[:-1]:
            forbidden = measure(len(E), engine._forbidden, E, plan, parent)
            layer, counts = measure(len(E), engine._grow, E, s, forbidden)
            P, E, parent = E, layer, (forbidden, counts)
        # As count_steps does: E's bits carried from P's, walked.
        count = measure(len(E), engine._count_after, P, E, plan, bounds)
        if block:  # the whole count as one block
            monkeypatch.setattr(engine, "_BLOCK", len(P) * bounds[-2])
            assert measure(len(E), engine._count_after, P, E, plan, bounds) == count
            assert peaks[-2] < peaks[-1] / 4
    finally:
        tracemalloc.stop()
    assert count == count_avoiders(bounds, pattern)


def test_step_refused_before_it_allocates(monkeypatch):
    needs = []
    monkeypatch.setattr(engine, "_budget", lambda need: needs.append(need) or 10**6)
    for count, where in (
        # The last count's carried step, named by its whole layer.
        (lambda: count_vector("3201", 9), "40,074 rows of length 8"),
        # The per-word indices, 2^21 words for the bound 2^27, are reserved
        # by the plan before it builds them.
        (lambda: count_avoiders((3, 2**27), "10"), "values below 134,217,728"),
    ):
        tracemalloc.start()
        try:
            with pytest.raises(MemoryError) as exc:
                count()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        refused = needs[-1]
        assert refused > 10**6
        assert where in str(exc.value) and f"{refused:,} bytes" in str(exc.value)
        assert peak < min(refused, 10**6), where


def test_free_memory_read_only_past_the_last_reading(monkeypatch):
    # A reading of 10^7 bytes lasts until the requests granted since would
    # exceed it; a forked child starts without one.
    reads, needs, budget = [], [], engine._budget
    monkeypatch.setattr(engine, "_slack", 0)
    monkeypatch.setattr(os, "sysconf", lambda name: reads.append(name) or (
        10**7 if name == "SC_AVPHYS_PAGES" else 1))
    monkeypatch.setattr(engine, "_budget", lambda need: needs.append(need) or budget(need))
    for _ in range(20):
        assert count_avoiders((1, 3, 5, 8), "2201") == 120
    left, readings = 0, 0
    for need in needs:
        if need > left:
            left, readings = 10**7, readings + 1
        left -= need
    assert len(reads) == 2 * readings and readings < len(needs) / 10
    pid = os.fork()
    if not pid:
        os._exit(engine._slack != 0)
    assert os.waitpid(pid, 0)[1] == 0


def test_step_that_cannot_fit_is_refused_quickly():
    # The second step's forbidden bits alone would take 10^7 rows of
    # 156,251 words each, about 12.5 TB.
    start = time.monotonic()
    with pytest.raises(MemoryError, match="10,000,000 rows of length 1"):
        count_avoiders((10**7, 10**7 + 1), (1, 0))
    assert time.monotonic() - start < 2
