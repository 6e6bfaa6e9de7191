import re

import numpy as np
import pytest

from invseq import enumerate_avoiders, ordinary_bounds
from invseq.trees import (
    boxed_counts_operator,
    count_trees_bounded,
    count_trees_bruteforce,
    count_trees_root_unbounded,
    iter_trees,
)


class TestLabelTree:
    def test_unbounded_count_is_factorial(self):
        # unrestricted label-increasing trees on n vertices: (n-1)!
        assert count_trees_bruteforce(5, None) == 24
        assert count_trees_bruteforce(6, None) == 120

    @pytest.mark.parametrize("n", range(7))
    def test_parent_sequences_are_avoiders(self, n):
        # Branching <= 3 forbids four equal parents, i.e. 0000; branching
        # <= 2 off the root forbids three equal positive parents, i.e. 0111.
        # Both sides are lexicographic.
        assert list(iter_trees(n + 1, 3)) == list(
            enumerate_avoiders(ordinary_bounds(n), (0, 0, 0, 0))
        )
        assert list(iter_trees(n + 1, 2, root_unbounded=True)) == list(
            enumerate_avoiders(ordinary_bounds(n), (0, 1, 1, 1))
        )


class TestCounts:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_series_matches_bruteforce(self, k):
        for n in range(8):
            assert count_trees_bounded(n, k) == count_trees_bruteforce(n, k)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_root_unbounded_matches_bruteforce(self, k):
        for n in range(8):
            assert count_trees_root_unbounded(n, k) == count_trees_bruteforce(
                n, k, root_unbounded=True
            )

    def test_k1_paths(self):
        # branching <= 1 forces a path; exactly one per vertex count
        assert [count_trees_bounded(n, 1) for n in range(6)] == [1, 1, 1, 1, 1, 1]

    def test_k1_root_unbounded_is_bell(self):
        # a star of paths from the root: set partitions of the non-root labels
        assert [count_trees_root_unbounded(n, 1) for n in range(1, 8)] == [
            1, 1, 2, 5, 15, 52, 203,
        ]


class TestArguments:
    ORACLES = [
        count_trees_bruteforce,
        count_trees_bounded,
        count_trees_root_unbounded,
        lambda n, k: count_trees_bruteforce(n, k, root_unbounded=True),
    ]

    @pytest.mark.parametrize("n, k, message", [
        (4, 1.5, "k 1.5 is not an integer"),  # used to count as k = 2
        (4, 0, "k must be >= 1"),  # used to count 0 trees
        (4, -1, "k must be >= 1"),
        (0, 0, "k must be >= 1"),
        (2.5, 3, "n 2.5 is not an integer"),
        (-1, 2, "n must be nonnegative"),
    ])
    def test_oracles_reject_the_same_arguments(self, n, k, message):
        for count in self.ORACLES:
            with pytest.raises(ValueError, match=re.escape(message)):
                count(n, k)

    @pytest.mark.parametrize("count", [count_trees_bounded, count_trees_root_unbounded])
    @pytest.mark.parametrize("n", [0, 3])
    def test_series_oracles_need_a_bound(self, count, n):
        # The enumerator counts unbounded trees; the series have no k = None.
        with pytest.raises(ValueError, match="the series needs a bound k"):
            count(n, None)
        assert count_trees_bruteforce(3, None) == 2

    def test_iter_trees_checks_at_the_call(self):
        with pytest.raises(ValueError, match="k must be >= 1"):
            iter_trees(3, 0)

    def test_numpy_integer_arguments(self):
        for count in self.ORACLES:
            assert count(np.int8(5), np.uint8(2)) == count(5, 2)


class TestOperator:
    @pytest.mark.parametrize("k", [2, 3])
    def test_operator_matches_exp_route(self, k):
        values = boxed_counts_operator(k, 8)
        assert values == [count_trees_root_unbounded(n + 1, k) for n in range(9)]

    def test_known_prefix_k2(self):
        assert boxed_counts_operator(2, 6) == [1, 1, 2, 6, 23, 107, 583]
