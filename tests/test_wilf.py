import concurrent.futures
import os
import subprocess
import sys

import numpy as np
import pytest

from invseq import canonical_patterns, classify, count_vector, first_divergence, wilf
from invseq.core import Pattern


class TestCanonicalPatterns:
    def test_counts(self):
        # ordered set partitions of {1..n} (Fubini numbers)
        assert len(canonical_patterns(1)) == 1
        assert len(canonical_patterns(2)) == 3
        assert len(canonical_patterns(3)) == 13
        assert len(canonical_patterns(4)) == 75

    def test_sorted_and_canonical(self):
        pats = canonical_patterns(3)
        entries = [p.entries for p in pats]
        assert entries == sorted(entries)
        for p in pats:
            assert set(p.entries) == set(range(max(p.entries) + 1))


class TestCountVector:
    def test_000_is_euler(self):
        assert count_vector((0, 0, 0), 8).counts == (1, 2, 5, 16, 61, 272, 1385, 7936)

    def test_0000(self):
        assert count_vector((0, 0, 0, 0), 6).counts == (1, 2, 6, 23, 108, 601)

    def test_0021(self):
        assert count_vector((0, 0, 2, 1), 8).counts == (
            1, 2, 6, 23, 101, 480, 2400, 12434,
        )


class TestClassify:
    def test_length_two(self):
        classes = classify(2, 5)
        # 00 and 01 share the all-ones vector; 10 is Catalan
        as_sets = {
            frozenset(str(p) for p in c.patterns): c.counts for c in classes
        }
        assert as_sets == {
            frozenset({"00", "01"}): (1, 1, 1, 1, 1),
            frozenset({"10"}): (1, 2, 5, 14, 42),
        }

    def test_length_three_class_count(self):
        assert len(classify(3, 7)) == 11

    def test_workers_capped_by_cpus_and_patterns(self, monkeypatch):
        # A stand-in pool that records its size and maps serially, so no
        # worker process is started.
        asked = []

        class SerialPool:
            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            map = staticmethod(map)

        # classify imports the pool class from concurrent.futures when it runs.
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        serial = classify(2, 3, threads=1)
        assert asked == []
        assert classify(2, 3, threads=64) == serial
        assert classify(2, 3) == serial  # the default, as the CLI runs it
        cap = min(64, os.cpu_count() or 1, 3)
        assert asked == ([cap, cap] if cap > 1 else [])

    def test_import_leaves_the_pool_unloaded(self):
        # multiprocessing is loaded only when classify starts a pool.
        code = "import sys, invseq; print('multiprocessing' in sys.modules)"
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "False"

    def test_threads_below_one_refused(self):
        with pytest.raises(ValueError, match="threads"):
            classify(2, 3, threads=0)

    def test_threads_do_not_change_partition(self):
        a = classify(3, 6, threads=1)
        b = classify(3, 6, threads=2)
        assert a == b

    def test_patterns_partitioned(self):
        classes = classify(3, 6)
        seen = [p for c in classes for p in c.patterns]
        assert sorted(seen, key=lambda p: p.entries) == canonical_patterns(3)
        assert len(seen) == len(set(seen))


@pytest.mark.parametrize("count", [
    lambda n: count_vector("3201", n).counts,
    lambda n: first_divergence("01", "10", n),
], ids=["count_vector", "first_divergence"])
def test_n_max_must_be_an_integer(count):
    # Not truncated, and not a bare TypeError from range.
    for n_max in (2.5, "3", None):
        with pytest.raises(ValueError, match=f"n_max {n_max!r} is not an integer"):
            count(n_max)
    assert count(np.int64(3)) == count(3)


class TestFirstDivergence:
    def test_known_pair(self):
        assert first_divergence((1, 0, 2), (1, 2, 0), 6) == 4

    def test_divergence_at_n_max(self):
        # The last length is only counted, never built.
        assert first_divergence((1, 0, 2), (1, 2, 0), 4) == 4
        assert first_divergence((1, 0, 2), (1, 2, 0), 3) is None

    def test_equal_within_range(self):
        assert first_divergence((2, 0, 1, 1), (2, 1, 1, 0), 8) is None

    def test_accepts_pattern_objects(self):
        assert first_divergence(Pattern((1, 0)), Pattern((0, 1)), 5) == 2

    @pytest.mark.parametrize("n_max", [0, -3])
    def test_rejects_empty_range(self, n_max):
        # No length was compared, so None ("no divergence") would be wrong.
        with pytest.raises(ValueError, match="n_max must be >= 1"):
            first_divergence("2001", "2011", n_max)
