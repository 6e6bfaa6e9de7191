import re
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from invseq import (
    Pattern,
    a218225_terms,
    binary_avoider_formula,
    c_coefficients,
    c_identity_holds,
    canonical_patterns,
    classify,
    contains,
    count_avoiders_n,
    euler_numbers,
    extend_avoids,
    initial_h_repeat,
    lehmer_decode,
    lehmer_encode,
    order_isomorphic,
    ordinary_bounds,
    tan_plus_sec,
    terminal_h_repeat,
)
from invseq.core import canonicalize, is_permutation, validate_bounds

PATTERNS = [p for length in range(1, 5) for p in canonical_patterns(length)]
WORDS = st.lists(st.integers(0, 4), max_size=8).map(tuple)
SMALL_WORDS = [w for n in range(5) for w in product(range(4), repeat=n)]


def completes_by_definition(seq, nxt, pattern):
    # Some subsequence of seq + (nxt,) that ends at the new entry nxt is
    # order-isomorphic to the pattern.
    return any(
        order_isomorphic(sub + (nxt,), pattern)
        for sub in combinations(seq, len(pattern) - 1)
    )


def invseqs(n):
    return product(*[range(i) for i in range(1, n + 1)]) if n else [()]


class TestPattern:
    def test_canonicalization(self):
        assert Pattern((5, 9, 6, 9)).entries == (0, 2, 1, 2)
        assert Pattern((3, 2, 0, 1)).entries == (3, 2, 0, 1)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Pattern(())

    def test_parse_digits(self):
        assert Pattern.parse("0021").entries == (0, 0, 2, 1)

    def test_parse_commas(self):
        assert Pattern.parse("10,2,0").entries == (2, 1, 0)

    def test_parse_error_reports_position(self):
        with pytest.raises(ValueError, match="position 2"):
            Pattern.parse("01x1")

    @pytest.mark.parametrize("entries, bad", [
        ((0.9, 0.1, 1.2), "0.9 at position 0"),
        ((0, 1.0), "1.0 at position 1"),
        (("0", "x"), "'x' at position 1"),
        (("1", "-1"), "'-1' at position 1"),
    ])
    def test_rejects_non_integer_entries(self, entries, bad):
        # Entries are never truncated: (0.9, 0.1, 1.2) is not 001.
        with pytest.raises(ValueError,
                           match=re.escape(f"pattern entry {bad} is not an integer")):
            Pattern(entries)

    def test_integer_and_digit_entries(self):
        assert Pattern(np.array([3, 2, 0, 1])).entries == (3, 2, 0, 1)
        assert Pattern(("0", "0", 2, np.int8(1))).entries == (0, 0, 2, 1)
        assert Pattern(tuple("3201")) == Pattern((3, 2, 0, 1))


class TestOrderIsomorphic:
    def test_values_need_not_match(self):
        assert order_isomorphic((0, 2, 1, 2), (5, 9, 6, 9))

    def test_relation_differs(self):
        assert not order_isomorphic((0, 1), (0, 0))

    def test_shifted_values(self):
        assert order_isomorphic((3, 1, 4, 1, 5), (2, 0, 3, 0, 4))
        assert order_isomorphic(np.array([3, 1, 4, 1, 5], np.uint8), (2, 0, 3, 0, 4))

    def test_unequal_lengths(self):
        assert not order_isomorphic((0, 1), (0, 1, 2))

    @given(st.lists(st.integers(0, 5), max_size=6))
    def test_reflexive(self, w):
        assert order_isomorphic(w, w)

    @given(st.lists(st.integers(0, 5), max_size=6))
    def test_canonicalize_is_isomorphic(self, w):
        assert order_isomorphic(w, canonicalize(w))


class TestContains:
    def test_simple(self):
        assert contains((0, 1, 1, 0), (1, 1, 0))
        assert not contains((0, 1, 0, 2, 1), (1, 1, 0))
        assert contains((0, 1, 2, 3, 2, 0, 1), (3, 2, 0, 1))

    def test_short_sequence_avoids(self):
        assert not contains((0, 1), (0, 1, 2))
        assert not contains((), (0,))

    def test_single_value_pattern(self):
        assert contains((0,), (0,))

    def test_bruteforce_agreement(self):
        # independent oracle: scan all subsequences explicitly
        from itertools import combinations

        p = Pattern((1, 0, 2))
        for e in invseqs(5):
            expected = any(
                order_isomorphic([e[i] for i in idx], p.entries)
                for idx in combinations(range(5), 3)
            )
            assert contains(e, p) == expected

    @given(WORDS)
    def test_matches_definition(self, w):
        for p in PATTERNS:
            expected = any(
                order_isomorphic(sub, p.entries) for sub in combinations(w, len(p))
            )
            assert contains(w, p) == expected

    def test_monotone_under_supersequence(self):
        # if a subsequence contains p, so does the full sequence
        e = (0, 1, 0, 2, 2, 1)
        sub = (1, 2, 1)
        assert contains(sub, (0, 1, 0))
        assert contains(e, (0, 1, 0))


class TestExtendAvoids:
    def test_completion(self):
        assert not extend_avoids((0, 1, 1), 0, (1, 1, 0))

    def test_too_short(self):
        assert extend_avoids((), 0, (0, 0, 0, 0))

    @pytest.mark.parametrize("pattern", [(0, 0, 0), (1, 1, 0), (0, 2, 1, 2), (3, 2, 0, 1)])
    def test_equals_full_containment(self, pattern):
        for n in range(6):
            for e in invseqs(n):
                if contains(e, pattern):
                    continue
                for nxt in range(n + 1):
                    assert extend_avoids(e, nxt, pattern) == (
                        not completes_by_definition(e, nxt, pattern)
                    )

    def test_matches_definition_on_all_small_words(self):
        # Every canonical pattern of length 1-4 (the head of 0 is empty),
        # every word over {0,1,2,3} of length <= 4, every next entry; the
        # word need not avoid the pattern for the search to answer.
        for p in PATTERNS:
            for w in SMALL_WORDS:
                for nxt in range(4):
                    assert extend_avoids(w, nxt, p) == (
                        not completes_by_definition(w, nxt, p.entries)
                    ), (w, nxt, p)

    @pytest.mark.parametrize("dtype", [np.int8, np.uint8])
    def test_reads_numpy_rows(self, dtype):
        for p in PATTERNS:
            for w in filter(lambda w: len(w) <= 3, SMALL_WORDS):
                row = np.array(w, dtype)
                assert contains(row, p) == contains(w, p)
                for nxt in range(4):
                    expected = not completes_by_definition(w, nxt, p.entries)
                    assert extend_avoids(row, dtype(nxt), p) == expected, (w, nxt, p)
                    assert extend_avoids(row, nxt, p) == expected, (w, nxt, p)

    @given(WORDS, st.integers(0, 4))
    def test_matches_contains_on_words(self, w, nxt):
        for p in PATTERNS:
            if not contains(w, p):
                assert extend_avoids(w, nxt, p) == (
                    not completes_by_definition(w, nxt, p.entries)
                )


class TestLehmer:
    def test_identity(self):
        assert lehmer_decode((0, 0, 0)) == (1, 2, 3)

    def test_reversal(self):
        assert lehmer_decode((0, 1, 2)) == (3, 2, 1)

    def test_roundtrip_exhaustive(self):
        for n in range(6):
            seen = set()
            for e in invseqs(n):
                perm = lehmer_decode(e)
                assert is_permutation(perm)
                assert lehmer_encode(perm) == e
                seen.add(perm)
            # decode is a bijection onto S_n
            import math

            assert len(seen) == math.factorial(n)

    def test_rejects_bad_code(self):
        with pytest.raises(ValueError):
            lehmer_decode((1,))

    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            lehmer_encode((1, 1))


class TestSInvSeq:
    """The bound sets S of S-inversion sequences."""

    def test_bounds_not_increasing(self):
        with pytest.raises(ValueError):
            validate_bounds((3, 2))

    def test_ordinary(self):
        assert ordinary_bounds(3) == validate_bounds((1, 2, 3)) == (1, 2, 3)

    @pytest.mark.parametrize("bounds, bad", [
        ((1.9, 2.5, 3.7), "1.9 at position 0"),
        ((1, 2.0), "2.0 at position 1"),
        ("3", "'3' at position 0"),
        ((1, "3"), "'3' at position 1"),
        ((1, np.float64(3)), "np.float64(3.0) at position 1"),
    ])
    def test_rejects_non_integer_bounds(self, bounds, bad):
        # Bounds are never truncated or parsed: (1.9, 2.5, 3.7) is not (1, 2, 3).
        with pytest.raises(ValueError, match=re.escape(f"bound {bad} is not an integer")):
            validate_bounds(bounds)

    def test_numpy_integer_bounds(self):
        bounds = validate_bounds(np.arange(1, 4, dtype=np.int16))
        assert bounds == (1, 2, 3) and all(type(b) is int for b in bounds)
        assert validate_bounds(range(2, 5)) == (2, 3, 4)


class TestIntegerArguments:
    """Integer arguments are taken through core._integer: a non-integer is
    refused with a ValueError naming the argument, and numpy integers pass."""

    @pytest.mark.parametrize("call, name, value", [
        (euler_numbers, "n_max", 5),
        (a218225_terms, "n_max", 5),
        (c_coefficients, "k", 4),
        (c_identity_holds, "k", 4),
        (canonical_patterns, "length", 3),
        (lambda v: classify(2, 3, threads=v), "threads", 1),  # 1: no pool
        (lambda v: terminal_h_repeat((0, 1, 1, 0, 2, 2), v), "h", 2),
        (lambda v: initial_h_repeat((1, 1, 0, 0), v), "h", 2),
        (tan_plus_sec, "order", 4),
        (ordinary_bounds, "n", 3),
        (lambda v: count_avoiders_n(v, "010"), "n", 5),
        (lambda v: binary_avoider_formula(3, 4, v), "ell", 4),
    ], ids=["euler_numbers", "a218225_terms", "c_coefficients", "c_identity_holds",
            "canonical_patterns", "classify-threads", "terminal_h_repeat",
            "initial_h_repeat", "tan_plus_sec", "ordinary_bounds", "count_avoiders_n",
            "binary_avoider_formula"])
    def test_non_integer_refused_numpy_integer_taken(self, call, name, value):
        with pytest.raises(ValueError, match=re.escape(f"{name} 1.5 is not an integer")):
            call(1.5)
        assert call(np.int64(value)) == call(value)
