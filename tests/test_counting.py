import re
from collections import Counter
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from invseq import (
    binary_avoider_formula,
    canonical_patterns,
    count_avoiders,
    count_avoiders_n,
    count_binary_avoiders_bruteforce,
    enumerate_avoiders,
    initial_h_repeat,
    initial_non_inversion,
    initial_positive_set,
    refined_table,
    terminal_h_repeat,
    theorem31_rhs,
)
from invseq import counting, engine
from invseq.core import contains, ordinary_bounds
from invseq.counting import _refined_counts, _refined_key

MODES = [
    ("terminal", 0),
    ("terminal", 1),
    ("terminal", 2),
    ("initial", 1),
    ("initial", 2),
    ("initial", 3),
    "non_inversion",
]
PATTERNS = [p for length in range(1, 5) for p in canonical_patterns(length)]
SINGLE_ZERO = [tuple(0 if i == z else 1 for i in range(ell))
               for ell in range(2, 6) for z in range(ell)]


def per_row_table(rows, mode):
    return dict(Counter(_refined_key(row, mode) for row in rows))


class TestEnumerate:
    def test_lexicographic_and_complete(self):
        seqs = list(enumerate_avoiders((1, 2, 3), (0, 0, 0)))
        assert seqs == sorted(seqs)
        assert len(seqs) == 5
        for e in seqs:
            assert not contains(e, (0, 0, 0))

    def test_matches_filtering_all_sequences(self):
        bounds = (1, 2, 3, 4, 5)
        for pattern in [(0, 1, 0), (1, 1, 0), (0, 0, 2, 1)]:
            direct = [
                e
                for e in product(*[range(s) for s in bounds])
                if not contains(e, pattern)
            ]
            assert list(enumerate_avoiders(bounds, pattern)) == direct

    def test_empty_bounds(self):
        assert list(enumerate_avoiders((), (0, 0))) == [()]


class TestCount:
    def test_known_small_values(self):
        assert count_avoiders_n(3, (0, 0, 0)) == 5
        assert count_avoiders_n(4, (0, 0, 0, 0)) == 23
        assert count_avoiders((2, 3, 5), (2, 1, 0)) == 30

    def test_engines_agree(self):
        for pattern in [(0, 0, 0), (2, 1, 0), (0, 2, 1, 2), (3, 2, 0, 1)]:
            for n in range(7):
                bounds = ordinary_bounds(n)
                assert count_avoiders(bounds, pattern, "fast") == count_avoiders(
                    bounds, pattern, "reference"
                )

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.integers(1, 9), min_size=1, max_size=5),
        st.sampled_from([(0, 0, 0), (1, 0), (2, 0, 1), (1, 1, 0)]),
    )
    def test_engines_agree_on_arbitrary_bounds(self, raw, pattern):
        bounds = tuple(sorted(set(raw)))
        assert count_avoiders(bounds, pattern, "fast") == count_avoiders(
            bounds, pattern, "reference"
        )

    @pytest.mark.parametrize("engine_name", ["fast", "reference"])
    def test_rejects_non_integer_bounds(self, engine_name):
        # Truncated, (1.9, 2.5, 3.7) would count as (1, 2, 3): 5 avoiders of 10.
        with pytest.raises(ValueError, match="bound 1.9 at position 0"):
            count_avoiders((1.9, 2.5, 3.7), "10", engine_name)

    def test_reference_is_independent(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the reference must not call this")

        for name, fn in vars(engine).copy().items():
            if callable(fn) and getattr(fn, "__module__", None) == engine.__name__:
                monkeypatch.setattr(engine, name, refuse)
        assert count_avoiders(ordinary_bounds(7), "3201", engine_name="reference") == 5034
        assert next(enumerate_avoiders((1, 2, 3), "3201")) == (0, 0, 0)

    def test_unknown_engine(self):
        with pytest.raises(ValueError):
            count_avoiders((1, 2), (0, 0), engine_name="magic")
        with pytest.raises(ValueError):
            count_avoiders((), (0, 1), engine_name="bogus")


class TestTheorem31:
    @pytest.mark.parametrize("suffix", [(1, 1, 1), (2, 1, 2), (2, 2, 1), (3, 1, 2)])
    def test_identity_small(self, suffix):
        full = (0,) + suffix
        for n in range(1, 7):
            assert theorem31_rhs(n, suffix) == count_avoiders_n(n, full)

    def test_spot_values(self):
        # computed independently by direct enumeration
        assert theorem31_rhs(4, (2, 1, 2)) == 24 == count_avoiders_n(4, (0, 2, 1, 2))
        assert theorem31_rhs(5, (2, 1)) == 90 == count_avoiders_n(5, (0, 2, 1))

    @pytest.mark.parametrize("suffix", ["111", "212", "221", "312", "321", "21"])
    def test_matches_reference_subset_sum(self, suffix):
        # Every subset counted on its own by the pure-Python enumerator.
        for n in range(1, 8):
            want = sum(
                count_avoiders(s, suffix, engine_name="reference")
                for r in range(n)
                for s in combinations(range(1, n), r)
            )
            assert theorem31_rhs(n, suffix) == want, n

    def test_rejects_zero_suffix(self):
        with pytest.raises(ValueError):
            theorem31_rhs(4, (0, 1))

    def test_rejects_huge_n(self):
        with pytest.raises(ValueError):
            theorem31_rhs(40, (1, 1))

    def test_rejects_non_integer_n(self):
        for n in (2.5, "4"):
            with pytest.raises(ValueError, match=f"n {n!r} is not an integer"):
                theorem31_rhs(n, "11")
        assert theorem31_rhs(np.int64(4), "11") == theorem31_rhs(4, "11")

    def test_rejects_non_integer_suffix(self):
        with pytest.raises(ValueError, match="suffix entry 1.5 at position 0"):
            theorem31_rhs(5, (1.5, 2))
        assert theorem31_rhs(5, "21") == theorem31_rhs(5, (2, 1)) == 90


class TestBinaryFormula:
    def test_spot_value(self):
        # j=2 zeros, k=3 ones, pattern 101: C(2 + min(3,1), 2) = 3
        assert binary_avoider_formula(2, 3, 3) == 3
        assert count_binary_avoiders_bruteforce(2, 3, (1, 0, 1)) == 3

    @pytest.mark.parametrize("ell", [2, 3, 4, 5])
    def test_formula_matches_bruteforce(self, ell):
        for zero_pos in range(ell):
            p = tuple(0 if i == zero_pos else 1 for i in range(ell))
            for j in range(6):
                for k in range(6):
                    assert binary_avoider_formula(
                        j, k, ell
                    ) == count_binary_avoiders_bruteforce(j, k, p)

    @pytest.mark.parametrize("p", SINGLE_ZERO, ids=lambda p: "".join(map(str, p)))
    def test_bruteforce_equals_per_word_count(self, p):
        # the per-word count: every word with j zeros and k ones, tested
        # in full with contains
        for j in range(6):
            for k in range(6):
                words = (tuple(1 if i in ones else 0 for i in range(j + k))
                         for ones in combinations(range(j + k), k))
                assert count_binary_avoiders_bruteforce(j, k, p) == sum(
                    not contains(w, p) for w in words
                )

    def test_bruteforce_is_independent(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the brute force must not call this")

        monkeypatch.setattr(counting, "binary_avoider_formula", refuse)
        for name, fn in vars(engine).copy().items():
            if callable(fn) and getattr(fn, "__module__", None) == engine.__name__:
                monkeypatch.setattr(engine, name, refuse)
        # C(3 + min(4, 2), 3) = 10
        assert count_binary_avoiders_bruteforce(3, 4, (1, 0, 1, 1)) == 10

    def test_rejects_negative_sizes(self):
        with pytest.raises(ValueError):
            count_binary_avoiders_bruteforce(-1, 0, (0, 1))

    @pytest.mark.parametrize("j, k, bad", [
        (1.5, 0, "1.5 at position 0"),  # never reached zero zeros: RecursionError
        (2, "1", "'1' at position 1"),  # raised TypeError
    ])
    def test_rejects_non_integer_sizes(self, j, k, bad):
        message = re.escape(f"(j, k) entry {bad} is not an integer")
        with pytest.raises(ValueError, match=message):
            count_binary_avoiders_bruteforce(j, k, (0, 1))
        with pytest.raises(ValueError, match=message):
            binary_avoider_formula(j, k, 2)

    def test_numpy_integer_sizes(self):
        assert count_binary_avoiders_bruteforce(np.int8(3), np.uint8(4), (1, 0, 1, 1)) == 10

    def test_rejects_nonbinary_pattern(self):
        with pytest.raises(ValueError):
            count_binary_avoiders_bruteforce(1, 1, (0, 2, 1))

    def test_rejects_two_zeros(self):
        with pytest.raises(ValueError):
            count_binary_avoiders_bruteforce(1, 1, (0, 0, 1))


class TestStatistics:
    def test_terminal_repeat(self):
        # zeros at 0,2; value 1 occurs twice after the first zero but only
        # once after the second
        e = (0, 1, 0, 2, 1)
        assert terminal_h_repeat(e, 1) == 2
        assert terminal_h_repeat(e, 2) == 1
        assert terminal_h_repeat(e, 3) == 0

    def test_terminal_zero_h_counts_zeros(self):
        assert terminal_h_repeat((0, 0, 1, 0), 0) == 3

    def test_initial_repeat(self):
        e = (0, 1, 1, 0, 2, 0)
        assert initial_h_repeat(e, 1) == 2
        assert initial_h_repeat(e, 2) == 2
        assert initial_h_repeat(e, 3) == 0

    def test_non_inversion(self):
        # positive ascent (1 then 2) sits before the third zero only
        e = (0, 1, 0, 2, 0)
        assert initial_non_inversion(e) == 2
        assert initial_positive_set(e) == frozenset({1})

    def test_positive_set_before_first_zero(self):
        # no zero precedes position 0, so index 0 marks "before first zero"
        e = (0, 0, 1, 0)
        assert initial_non_inversion(e) == 3
        assert initial_positive_set(e) == frozenset({2})


class TestRefinedTable:
    def test_totals_match_count(self):
        for mode in [("terminal", 1), ("initial", 1), ("initial", 2), "non_inversion"]:
            bounds = (1, 2, 3, 4, 5)
            table = refined_table(bounds, (1, 0, 1, 2), mode)
            assert sum(table.values()) == count_avoiders(bounds, (1, 0, 1, 2))

    def test_equidistribution_examples(self):
        bounds = (1, 3, 4, 6)
        t1 = refined_table(bounds, (1, 0, 1, 2), ("terminal", 1))
        t2 = refined_table(bounds, (1, 1, 0, 2), ("terminal", 1))
        assert t1 == t2
        u1 = refined_table(bounds, (2, 3, 0, 1), "non_inversion")
        u2 = refined_table(bounds, (2, 3, 1, 0), "non_inversion")
        assert u1 == u2

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            refined_table((1, 2), (0, 0), ("sideways", 1))

    @pytest.mark.parametrize("bounds, pattern", [((1,), (0,)), ((), (0, 0))])
    @pytest.mark.parametrize(
        "mode",
        [("initial", 0), ("terminal", -1), ("sideways", 1), "noninversion",
         ("terminal", "2"), ("terminal", 1.5), ("initial", 2.0)],
    )
    def test_bad_mode_rejected_with_or_without_rows(self, bounds, pattern, mode):
        # I_{(1)}(0) is empty and I_{()} holds one row; both must reject.
        with pytest.raises(ValueError):
            refined_table(bounds, pattern, mode)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.integers(1, 5), max_size=3),
        st.sampled_from([None, 6, 127, 128, 129, 160]),
        st.sampled_from(PATTERNS),
        st.sampled_from(MODES),
    )
    @example([], None, (0, 0), "non_inversion")
    @example([], None, (0, 1, 2), ("terminal", 0))
    @example([2, 3], None, (0,), ("initial", 1))
    @example([1, 2], 130, (0,), "non_inversion")
    def test_matches_per_row_keys(self, head, top, pattern, mode):
        bounds = tuple(sorted(set(head))) + ((top,) if top else ())
        rows = enumerate_avoiders(bounds, pattern)
        assert refined_table(bounds, pattern, mode) == per_row_table(rows, mode)


class TestRefinedCounts:
    @staticmethod
    def long_rows():
        # 70 zeros, each followed by a 1: the initial positive set is
        # {1, ..., 69}, past one 64-bit word.
        a = [0, 1] * 70
        # The same entries but segment 67's positive moved into segment 66:
        # j, k and z agree with `a`; only bit 67 of the positive set differs.
        b = a[:132] + [1, 0] + a[134:]
        c = a[:65] + [2] + a[66:]  # an ascent 1 < 2 inside the prefix
        return [a, b, c, a, [3] * 64 + [0] * 76]

    @pytest.mark.parametrize("mode", MODES)
    def test_rows_longer_than_a_word(self, mode):
        rows = self.long_rows()
        E = np.array(rows, dtype=np.int8, order="F")
        assert _refined_counts(E, mode) == per_row_table(rows, mode)

    def test_positive_set_beyond_bit_63_separates_rows(self):
        a, b = self.long_rows()[:2]
        table = _refined_counts(np.array([a, b, a]), "non_inversion")
        assert table == {
            (70, 70, 70, frozenset(range(1, 70))): 2,
            (70, 70, 70, frozenset(range(1, 70)) - {67}): 1,
        }

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(0, 140).flatmap(
            lambda n: st.lists(
                st.lists(st.sampled_from([0, 0, 1, 1, 2, 3, 100]), min_size=n, max_size=n),
                min_size=1,
                max_size=6,
            )
        ),
        st.sampled_from(MODES),
    )
    def test_matches_per_row_keys_on_arbitrary_rows(self, rows, mode):
        E = np.array(rows, dtype=np.int16, order="F").reshape(len(rows), -1)
        assert _refined_counts(E, mode) == per_row_table(rows, mode)
