import gc
import os
import time
import tracemalloc
from functools import lru_cache
from itertools import chain, combinations, islice, product
from math import prod

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


def _layers_match_reference(bounds, pattern, reference=None):
    """Every layer of avoider_steps has the reference's rows, in its order,
    stored column-major in the dtype of the whole bound set, and
    count_steps counts them."""
    if reference is None:
        reference = [list(enumerate_avoiders(bounds[:m], pattern))
                     for m in range(1, len(bounds) + 1)]
    case = bounds, str(as_pattern(pattern))
    layers = list(avoider_steps(bounds, pattern))
    assert [[tuple(row) for row in E.tolist()] for E in layers] == reference, case
    assert all(E.dtype == _dtype_for(bounds) and E.flags.f_contiguous for E in layers), case
    assert list(count_steps(bounds, pattern)) == [len(rows) for rows in reference], case


@pytest.mark.parametrize("length", [1, 2, 3, 4])
def test_every_layer_matches_reference(length):
    # Rows, not just counts, and in the same lexicographic order.
    for p in canonical_patterns(length):
        _layers_match_reference(ordinary_bounds(7), p, _reference_layers(p))


def test_length_5_layers_match_reference():
    # Growth starts at layer 5; layers 1-4 are products.
    for p in canonical_patterns(5):
        _layers_match_reference(ordinary_bounds(6), p)


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


@pytest.mark.parametrize("bounds, patterns", [
    (bounds, _WIDE_PATTERNS) for bounds in _WIDE_BOUNDS
] + [
    # A bound above 127 after the head: the head's products take int16 too.
    ((1, 2, 3, 130), canonical_patterns(4)),
    ((2, 3, 4, 200), canonical_patterns(4)),
    ((1, 2, 3, 40000), ["3201"]),
], ids=[f"wide-{b}" for b in _WIDE_BOUNDS] + ["130-length-4", "200-length-4", "40000-3201"])
def test_wide_layers_match_reference(bounds, patterns):
    for p in patterns:
        _layers_match_reference(bounds, p)


@pytest.mark.parametrize("pattern", ["0", "10", "000", "3201", "0021", "01234", "43210"])
def test_counts_shorter_than_pattern_are_products(pattern):
    # No sequence shorter than the pattern contains it.
    length, ground = len(pattern), (1, 2, 3, 5, 64, 65, 130, 200)
    for size in range(length):
        for S in combinations(ground, size):
            assert count_avoiders(S, pattern) == prod(S), S
    counts = list(count_steps(ground[:length], pattern))
    assert counts[:-1] == [prod(ground[:m]) for m in range(1, length)]


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


def _growth_chain(bounds, pattern):
    """Yield (layer, its carried bits, children per row) as avoider_steps
    grows each layer, through the last bound."""
    plan = engine._plan(pattern, bounds)
    E, parent = engine._empty_layer(bounds), None
    for s in bounds:
        forbidden = engine._forbidden(E, plan, parent)
        E_next, counts = engine._grow(E, s, forbidden)
        yield E, forbidden, counts
        E, parent = E_next, (forbidden, counts)


@pytest.mark.parametrize("bounds, patterns", [
    (ordinary_bounds(8), [p for n in (1, 2, 3, 4) for p in canonical_patterns(n)]),
] + [(bounds, _WIDE_PATTERNS) for bounds in _WIDE_BOUNDS],
    ids=["ordinary-8"] + [f"wide-{b}" for b in _WIDE_BOUNDS])
def test_bits_read_off_children_equal_carried_bits(bounds, patterns):
    # Every word, not only those below the next bound, of every parent row
    # with a child.
    words = -(-bounds[-1] // 64)
    for p in patterns:
        layers = [engine._empty_layer(bounds), *avoider_steps(bounds, p)]
        for m, (E, carried, counts) in enumerate(_growth_chain(bounds, p)):
            child, kept = layers[m + 1], counts > 0
            bits, sizes = engine._parent_bits(child, engine._edges(child), bounds[m], words)
            assert np.array_equal(E, layers[m]), (str(as_pattern(p)), m)
            assert np.array_equal(bits, carried[kept]), (str(as_pattern(p)), m)
            assert np.array_equal(sizes, counts[kept]), (str(as_pattern(p)), m)


_ALL_UP_TO_4 = [p for n in (1, 2, 3, 4) for p in canonical_patterns(n)]


@pytest.mark.parametrize("bounds, patterns, blocks", [
    (ordinary_bounds(9), _ALL_UP_TO_4, (None, 4099)),
    # 61 rows split the last layers anywhere; over [9] it takes 15 s, so
    # it runs over [7].
    (ordinary_bounds(7), _ALL_UP_TO_4, (61,)),
] + [(bounds, _WIDE_PATTERNS, (None, 4099, 61)) for bounds in _WIDE_BOUNDS],
    ids=["ordinary-9", "ordinary-7"] + [f"wide-{b}" for b in _WIDE_BOUNDS])
def test_carried_last_count_equals_walked_count(monkeypatch, bounds, patterns, blocks):
    # Every length is counted as the last one, against the popcount of the
    # bits the growth chain carried into that layer. With 61-row blocks, a
    # parent row may have more children (65, 66 or 130) than a block holds.
    for p in patterns:
        plan = engine._plan(p, bounds)
        chain = list(_growth_chain(bounds, p))
        want = [engine._count_next(carried, s) for (_, carried, _), s in zip(chain, bounds)]
        for block in blocks:
            if block:
                monkeypatch.setattr(engine, "_BLOCK", block)
            got = [engine._count_after(E, plan, bounds[:n])
                   for n, (E, _, _) in enumerate(chain, 1)]
            assert got == want, (str(as_pattern(p)), block)


@pytest.mark.parametrize("pattern", ["3201", "0021", "0231", "1302", "0101", "1001"])
def test_subset_total_matches_subset_sums(pattern):
    # 0231 and 1302 take both interval ends away from the last column, so no
    # head matches share a group; 0101 and 1001 end on a tie.
    ground = range(1, 8)
    subsets = chain.from_iterable(combinations(ground, r) for r in range(8))
    want = sum(count_avoiders(S, pattern) for S in subsets)
    assert engine.subset_total(ground, pattern) == want


# engine._RUN_ROWS at which every step from a layer with a column repeats
# its runs, and at which every step repeats its rows.
_BY_RUNS, _BY_ROWS = 0, 1 << 62


def _layers_written_by(monkeypatch, run_rows, bounds, pattern):
    monkeypatch.setattr(engine, "_RUN_ROWS", run_rows)
    return list(avoider_steps(bounds, pattern))


def test_runs_and_rows_write_equal_layers(monkeypatch):
    # The same rows in the same order, dtype and column-major storage,
    # whichever repeat writes each layer.
    bounds = ordinary_bounds(9)
    for p in _ALL_UP_TO_4:
        by_runs = _layers_written_by(monkeypatch, _BY_RUNS, bounds, p)
        by_rows = _layers_written_by(monkeypatch, _BY_ROWS, bounds, p)
        assert len(by_runs) == len(by_rows) == len(bounds)
        for a, b in zip(by_runs, by_rows):
            assert a.dtype == b.dtype == _dtype_for(bounds), str(as_pattern(p))
            assert a.flags.f_contiguous and b.flags.f_contiguous, str(as_pattern(p))
            assert np.array_equal(a, b), (str(as_pattern(p)), a.shape)


@pytest.mark.parametrize("run_rows", [_BY_RUNS, _BY_ROWS], ids=["runs", "rows"])
@pytest.mark.parametrize("bounds, patterns", [
    (bounds, _WIDE_PATTERNS + ["0"]) for bounds in _WIDE_BOUNDS
] + [((2, 3, 4, 200), ["3201", "0021", "1001", "0"])],
    ids=[f"wide-{b}" for b in _WIDE_BOUNDS] + ["200-length-4"])
def test_either_repeat_matches_reference_in_column_blocks(monkeypatch, run_rows, bounds,
                                                          patterns):
    # int16 entries past 127, and the empty layers of 0 from length 1. At
    # 7 candidates a block, each new column is written a row or two at a
    # time, and one row at a time past the bound 7.
    monkeypatch.setattr(engine, "_RUN_ROWS", run_rows)
    monkeypatch.setattr(engine, "_CANDIDATES", 7)
    for p in patterns:
        _layers_match_reference(bounds, p)


@pytest.mark.parametrize("pattern", ["3201", "1001", "0"])
def test_subset_total_by_either_repeat(monkeypatch, pattern):
    # Over [8] a walk passes _RUN_ROWS (5,034 rows for 3201 over [7]), so
    # it finds runs, carries them to children and drops them below it.
    ground = range(1, 9)
    subsets = chain.from_iterable(combinations(ground, r) for r in range(9))
    want = sum(count_avoiders(S, pattern) for S in subsets)
    for run_rows in (_BY_RUNS, _BY_ROWS, engine._RUN_ROWS):
        monkeypatch.setattr(engine, "_RUN_ROWS", run_rows)
        assert engine.subset_total(ground, pattern) == want, run_rows


def test_runs_found_once_where_layers_reach_run_rows(monkeypatch):
    # 3201 over [9]: the steps from fewer than _RUN_ROWS rows repeat rows,
    # the first from more finds its runs from its layer's columns, and the
    # later ones take theirs from the step before.
    bounds, found, runs, run_rows = ordinary_bounds(9), [], engine._runs, engine._RUN_ROWS
    by_rows = _layers_written_by(monkeypatch, _BY_ROWS, bounds, "3201")
    monkeypatch.setattr(engine, "_runs", lambda E: found.append(len(E)) or runs(E))
    layers = _layers_written_by(monkeypatch, run_rows, bounds, "3201")
    parents = [len(E) for E in layers[3:-1]]  # after the products
    assert min(parents) < run_rows <= max(parents)
    assert found == [next(rows for rows in parents if rows >= run_rows)]
    assert all(np.array_equal(a, b) for a, b in zip(layers, by_rows))


def test_plan_built_once_per_pattern_and_words(monkeypatch):
    # count_steps, avoider_steps and the last count share one plan, kept
    # across calls, so two rounds of counts index the forbidden values once
    # per pattern and words per row.
    cases = [(ordinary_bounds(7), "3201"), ((3, 65, 130), "10"), ((2, 3, 5), "10")]
    want = [count_avoiders(bounds, p, "reference") for bounds, p in cases]
    reserve, built = engine._reserve, []

    def recording(nbytes, step, *args):
        if step.startswith("indexing the forbidden values"):
            built.append(args)
        return reserve(nbytes, step, *args)

    engine._word_plan.cache_clear()
    monkeypatch.setattr(engine, "_reserve", recording)
    for _ in range(2):
        assert [count_avoiders(bounds, p) for bounds, p in cases] == want
    assert built == [(64,), (192,), (64,)]


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
    if block:  # the count's 40,074-row last layer spans blocks
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
    E, parent = engine._empty_layer(bounds), None
    tracemalloc.start()
    try:
        # As avoider_steps does: each step starts from its parent's bits.
        for s in bounds[:-1]:
            forbidden = measure(len(E), engine._forbidden, E, plan, parent)
            layer, counts = measure(len(E), engine._grow, E, s, forbidden)
            E, parent = layer, (forbidden, counts)
        # As count_steps does: the parents' bits read off E, carried into it.
        count = measure(len(E), engine._count_after, E, plan, bounds)
        if block:  # the whole count as one block
            monkeypatch.setattr(engine, "_BLOCK", len(E))
            assert measure(len(E), engine._count_after, E, plan, bounds) == count
            assert peaks[-2] < peaks[-1] / 4
    finally:
        tracemalloc.stop()
    assert count == count_avoiders(bounds, pattern)


def test_step_refused_before_it_allocates(monkeypatch):
    engine._word_plan.cache_clear()  # so the 2^27 plan is built, not found
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


@pytest.mark.parametrize("bounds, budget, where", [
    # Layer 3 of 3201, a product of 6,000,000 rows.
    ((100, 200, 300, 400), 10**6, "listing all 6,000,000 sequences of length 3"),
    # The first growth step, from clear bits: 210,000 rows of 262,144 words.
    ((50, 60, 70, 2**24), 10**7, "finding the values forbidden after 210,000 rows of length 3"),
])
def test_product_layer_refused_before_it_allocates(monkeypatch, bounds, budget, where):
    needs = []
    monkeypatch.setattr(engine, "_budget", lambda need: needs.append(need) or budget)
    tracemalloc.start()
    try:
        with pytest.raises(MemoryError) as exc:
            list(avoider_steps(bounds, "3201"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert where in str(exc.value) and f"{needs[-1]:,} bytes" in str(exc.value)
    assert peak < budget < needs[-1]


def test_count_block_request_covers_its_arrays(monkeypatch):
    # A block of the last count reserves its flags, the one-bit words of
    # its rows and the bits of its parents before it allocates them;
    # _forbidden then reserves its own. At 157 words per row and a parent
    # per five rows, the word arrays outweigh the fixed part of a request,
    # so a request that undercounts them is seen.
    bounds, pattern = (1, 2, 3, 4, 5, 6, 7, 10000), "000"
    *_, E = islice(avoider_steps(bounds, pattern), len(bounds) - 1)
    plan, forbidden = engine._plan(pattern, bounds), engine._forbidden
    requests, blocks = [], []

    def budget(need):
        gc.collect()
        tracemalloc.reset_peak()
        requests.append((need, tracemalloc.get_traced_memory()[0]))
        return need

    def traced(*args):
        need, base = requests[-1]  # the block's own request
        blocks.append((need, tracemalloc.get_traced_memory()[1] - base))
        return forbidden(*args)

    monkeypatch.setattr(engine, "_budget", budget)
    monkeypatch.setattr(engine, "_forbidden", traced)
    tracemalloc.start()
    try:
        engine._count_after(E, plan, bounds)
    finally:
        tracemalloc.stop()
    [(need, peak)] = blocks
    assert peak <= need < 2 * peak


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
