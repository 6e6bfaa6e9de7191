import os
import subprocess
import sys
import time

import numpy as np
import pytest

from invseq import canonical_patterns, classify, count_vector, first_divergence, wilf
from invseq import engine, states
from invseq.core import Pattern


def _fresh(code):
    """What `code` prints, run in a fresh interpreter that imports invseq
    from this checkout."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, timeout=120,
                         capture_output=True, text=True, check=True)
    return out.stdout.strip()


NUMPY_LOADED = "'numpy' in sys.modules"


class TestNumpyOnFirstUse:
    # pytest's own process has numpy loaded, so each test runs in a fresh one.
    def test_import_leaves_numpy_unloaded(self):
        assert _fresh(f"import sys, invseq, invseq.cli; print({NUMPY_LOADED})") == "False"

    def test_numpy_free_oracles_leave_it_unloaded(self):
        code = f"""if True:
            import sys
            from invseq import bijections, series, trees
            assert trees.count_trees_bounded(8, 2) == 1385
            assert series.euler_numbers(8)[-1] == 1385
            assert bijections.map_3210_to_3201((0, 1, 2, 3, 2, 0, 1)) == (0, 1, 2, 3, 2, 1, 0)
            print({NUMPY_LOADED})"""
        assert _fresh(code) == "False"

    def test_a_count_loads_it(self):
        code = f"import sys, invseq; invseq.count_vector('3201', 6); print({NUMPY_LOADED})"
        assert _fresh(code) == "True"

    def test_threads_that_load_it_together_wait_for_one_load(self):
        # A thread that looks up a name while another imports numpy waits
        # for the import rather than seeing numpy half run.
        code = """if True:
            import sys, threading, invseq
            sys.setswitchinterval(1e-6)  # switch threads as often as possible
            start, got = threading.Barrier(4), []

            def count():
                start.wait()
                try:
                    got.append(invseq.count_vector("3201", 6).counts[-1])
                except Exception as ex:
                    got.append(repr(ex))

            threads = [threading.Thread(target=count, daemon=True) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(60)
            print(not any(t.is_alive() for t in threads), got)"""
        assert _fresh(code) == "True [720, 720, 720, 720]"

    def test_classify_loads_it_before_the_pool(self):
        # The forked children inherit what the parent loaded, so none of them
        # imports numpy again.
        code = f"""if True:
            import os, sys
            import invseq
            loaded = []
            os.register_at_fork(before=lambda: loaded.append({NUMPY_LOADED}))
            os.cpu_count = lambda: 2
            invseq.classify(3, 5, threads=2)
            print(loaded)"""
        assert _fresh(code) == "[True]"

    def test_missing_numpy_fails_the_import(self):
        code = """if True:
            import sys
            sys.modules["numpy"] = None
            try:
                import invseq
            except ImportError as ex:
                print(ex.name)"""
        assert _fresh(code) == "numpy"


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

    def test_workers_capped_by_cpus_and_patterns(self):
        # Every worker past the calling process is a forked child.
        code = """if True:
            import os, invseq
            forks = []
            os.register_at_fork(before=lambda: forks.append(1))
            serial = invseq.classify(2, 3, threads=1)
            counted = [len(forks)]
            same = invseq.classify(2, 3, threads=64) == serial
            counted.append(len(forks) - counted[0])
            same &= invseq.classify(2, 3) == serial  # the default, as the CLI runs it
            counted.append(len(forks) - sum(counted))
            print(same, counted)"""
        cap = min(64, os.cpu_count() or 1, 3)
        assert _fresh(code) == f"True {[0, cap - 1, cap - 1]}"

    def test_import_leaves_the_pool_unloaded(self):
        # What only a split classify needs is loaded when it runs.
        code = """if True:
            import sys, invseq, invseq.cli
            print([m for m in ("multiprocessing", "concurrent.futures", "pickle")
                   if m in sys.modules])"""
        assert _fresh(code) == "[]"

    def test_split_shares_the_free_memory(self):
        # 1,024,000,000 bytes are free. A job needing 0.6 of them fits in one
        # process but not in either half of a two-process split, and the
        # calling process gets the whole of each reading back after it.
        code = """if True:
            import io, os
            from invseq import classify, engine, wilf
            free = 1_024_000_000
            os.sysconf = lambda name: free if name == "SC_AVPHYS_PAGES" else 1
            engine.open = lambda *args, **kwargs: io.StringIO(
                f"MemAvailable: {free // 1024} kB")
            os.cpu_count = lambda: 2
            count = wilf.count_vector

            def job(p, n_max):
                if str(p) == big:
                    engine._reserve(free * 6 // 10, "job {}", p)
                return count(p, n_max)

            wilf.count_vector = job
            for big in ("01", "10"):  # in the child's share, in the caller's
                try:
                    classify(2, 3, threads=2)
                except MemoryError as ex:
                    print(ex)
                print(len(classify(2, 3, threads=1)), engine._sharers)"""
        refused = ("job {} needs about 614,465,536 bytes of memory; "
                   "512,000,000 bytes are available")
        assert _fresh(code).splitlines() == [
            refused.format("01"), "2 1", refused.format("10"), "2 1"]

    def test_threads_below_one_refused(self):
        with pytest.raises(ValueError, match="threads"):
            classify(2, 3, threads=0)

    def test_threads_do_not_change_partition(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        assert classify(3, 6, threads=2) == classify(3, 6, threads=1)
        # All 75 length-4 patterns go through the split and back into classes.
        assert classify(4, 7, threads=2) == classify(4, 7, threads=1)

    def test_serial_sweep_keeps_every_plan(self):
        # The plans and state layouts of all 75 length-4 patterns stay kept,
        # so a second serial sweep in the same process builds none of them.
        caches = [engine._word_plan, states._scheme, states._tables, states._layout]
        assert all(c.cache_info().maxsize >= len(canonical_patterns(4)) for c in caches)
        first = classify(4, 6, threads=1)
        misses = [c.cache_info().misses for c in caches]
        assert classify(4, 6, threads=1) == first
        assert [c.cache_info().misses for c in caches] == misses

    def test_patterns_partitioned(self):
        classes = classify(3, 6)
        seen = [p for c in classes for p in c.patterns]
        assert sorted(seen, key=lambda p: p.entries) == canonical_patterns(3)
        assert len(seen) == len(set(seen))


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestSplit:
    # On two CPUs the length-2 patterns 00, 01 and 10 are split between two
    # processes: the calling one counts 00 and 10, its one child 01.
    @pytest.fixture(autouse=True)
    def two_cpus(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)

    @pytest.fixture
    def fail_at(self, monkeypatch):
        """Make count_vector raise for the pattern given; return the
        exception's message."""
        count = wilf.count_vector

        def fail_at(word, child_sleeps=False):
            parent = os.getpid()

            def failing(p, n_max):
                if child_sleeps and os.getpid() != parent:
                    time.sleep(60)  # until the parent kills it
                if str(p) == word:
                    raise ArithmeticError(f"no count for {p}")
                return count(p, n_max)

            monkeypatch.setattr(wilf, "count_vector", failing)
            return f"^no count for {word}$"

        return fail_at

    def test_success_leaves_no_child(self):
        assert classify(2, 3, threads=2) == classify(2, 3, threads=1)
        _no_child_left()

    def test_counts_alone_where_the_platform_cannot_fork(self, monkeypatch):
        serial = classify(2, 3, threads=1)
        monkeypatch.delattr(os, "fork")
        assert classify(2, 3, threads=2) == serial

    def test_child_failure_raised_in_the_caller(self, fail_at):
        with pytest.raises(ArithmeticError, match=fail_at("01")):
            classify(2, 3, threads=2)
        _no_child_left()

    def test_caller_failure_kills_the_child(self, fail_at):
        start = time.monotonic()
        with pytest.raises(ArithmeticError, match=fail_at("10", child_sleeps=True)):
            classify(2, 3, threads=2)
        assert time.monotonic() - start < 30  # the child did not sleep its 60 s out
        _no_child_left()

    def test_child_that_sends_nothing_reported(self, monkeypatch):
        count, parent = wilf.count_vector, os.getpid()
        monkeypatch.setattr(wilf, "count_vector", lambda p, n_max: (
            count(p, n_max) if os.getpid() == parent else os._exit(3)))
        with pytest.raises(ChildProcessError, match="exited with code 3 and sent no counts"):
            classify(2, 3, threads=2)
        _no_child_left()


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
