from functools import lru_cache
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invseq import canonical_patterns, count_avoiders, enumerate_avoiders
from invseq.core import contains, ordinary_bounds
from invseq.engine import (
    _dtype_for,
    avoider_counts,
    avoider_steps,
    contains_mask,
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
        assert avoider_counts(ordinary_bounds(7), p) == want, str(p)


@pytest.mark.parametrize("bounds", [(2, 65, 66), (2, 64, 65), (3, 65, 130)])
@pytest.mark.parametrize("pattern", [(1, 0), (0, 1), (0, 0), (1, 0, 1)])
def test_bit_words_past_64(bounds, pattern):
    # Two or more entries reach past the first 64-value word, so forbidden
    # intervals start, end or lie inside a later word.
    want = list(enumerate_avoiders(bounds, pattern))
    layers = list(avoider_steps(bounds, pattern))
    assert [tuple(row) for row in layers[-1].tolist()] == want
    assert avoider_counts(bounds, pattern) == [E.shape[0] for E in layers]


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
