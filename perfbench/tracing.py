"""Span recording for the traced benchmark run.

The timed runs use `NullTracer`, whose hooks cost one extra Python call.
The traced run uses `Tracer`. It records a span (name, start, end, parent,
workload) around each call the benchmark makes into a public function of
the library; calls made once per row are tallied (calls, seconds) instead.
While `instrumented()` is active it also replaces
`invseq.engine.avoider_steps` and `invseq.core.contains` with wrappers that
drive the real functions and record what they did:

- one record per length for every avoider_steps call, whichever library
  function made it (count_vector, avoider_matrix, first_divergence, ...);
- the calls made to `core.contains` through the module attribute, and the
  time spent in them.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from time import perf_counter


def span_name(fn):
    """'counting.count_avoiders' for invseq.counting.count_avoiders."""
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


class NullTracer:
    enabled = False

    def call(self, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def each(self, fn, *args):
        return fn(*args)


class _Span:
    __slots__ = ("tracer", "name", "idx", "start")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tr = self.tracer
        self.idx = len(tr.spans)
        tr.spans.append(None)
        tr.stack.append(self.idx)
        self.start = perf_counter()
        return self

    def __exit__(self, *exc):
        end = perf_counter()
        tr = self.tracer
        tr.stack.pop()
        tr.spans[self.idx] = (self.name, self.start, end,
                              tr.stack[-1] if tr.stack else -1)
        return False


class Tracer:
    enabled = True

    def __init__(self, workload):
        self.workload = workload
        self.spans = []  # (name, start, end, parent index or -1)
        self.stack = []
        # One entry per avoider_steps call: [parent span, pattern, bounds, busy_s].
        self.engine_calls = []
        # One entry per generated length:
        # (call, m, bound, rows_in, rows_kept, seconds, layer_bytes, step_bytes).
        self.layers = []
        self.tallies = {"core.contains": [0, 0.0]}  # name -> [calls, seconds]
        self._tally_of = {}  # function -> its entry in tallies

    def span(self, name):
        return _Span(self, name)

    def call(self, fn, *args, **kwargs):
        with _Span(self, span_name(fn)):
            return fn(*args, **kwargs)

    def each(self, fn, *args):
        """call() for a function called once per row: tallied, not a span."""
        rec = self._tally_of.get(fn)
        if rec is None:
            rec = self._tally_of[fn] = self.tallies.setdefault(span_name(fn), [0, 0.0])
        t0 = perf_counter()
        try:
            return fn(*args)
        finally:
            rec[0] += 1
            rec[1] += perf_counter() - t0

    def _traced_steps(self, real, Pattern):
        tracer = self

        def avoider_steps(bounds, pattern):
            bounds = tuple(bounds)
            call = len(tracer.engine_calls)
            record = [tracer.stack[-1] if tracer.stack else -1,
                      str(Pattern(pattern)), bounds, 0.0]
            tracer.engine_calls.append(record)
            steps = real(bounds, pattern)
            rows = 1
            for m, s in enumerate(bounds, start=1):
                t0 = perf_counter()
                E = next(steps)
                dt = perf_counter() - t0
                rows_in = rows * s
                tracer.layers.append((call, m, s, rows_in, E.shape[0], dt,
                                      E.nbytes, rows_in * m * E.itemsize))
                record[3] += dt
                rows = E.shape[0]
                yield E

        return avoider_steps

    def _traced_contains(self, real):
        rec = self.tallies["core.contains"]

        def contains(seq, pattern):
            t0 = perf_counter()
            try:
                return real(seq, pattern)
            finally:
                rec[0] += 1
                rec[1] += perf_counter() - t0

        return contains

    @contextmanager
    def instrumented(self):
        from invseq import Pattern, core, engine

        real_steps, real_contains = engine.avoider_steps, core.contains
        engine.avoider_steps = self._traced_steps(real_steps, Pattern)
        core.contains = self._traced_contains(real_contains)
        try:
            yield self
        finally:
            engine.avoider_steps, core.contains = real_steps, real_contains

    # -- reading the trace back -------------------------------------------

    def durations(self, *names):
        return [end - start for name, start, end, _ in self.spans if name in names]

    def totals(self, *names):
        """(calls, seconds) over the named spans and tallies."""
        spans = self.durations(*names)
        tallied = [self.tallies[n] for n in names if n in self.tallies]
        return (len(spans) + sum(c for c, _ in tallied),
                sum(spans) + sum(s for _, s in tallied))

    def self_seconds(self, *names):
        """Time in the named spans minus the part covered by child spans
        and by engine calls made beneath them."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        for parent, _, _, busy in self.engine_calls:
            if parent >= 0:
                covered[parent] += busy
        return sum(end - start - covered[i]
                   for i, (name, start, end, _) in enumerate(self.spans)
                   if name in names)

    def layers_of(self, pattern, bounds):
        """{m: rows_kept} for the first engine call on (pattern, bounds)."""
        for call, (_, p, b, _) in enumerate(self.engine_calls):
            if p == pattern and b == tuple(bounds):
                return {m: kept for c, m, _, _, kept, *_ in self.layers if c == call}
        return {}

    def dump(self, path, header):
        """Write the header, spans, tallies, engine calls and layers as JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        w = self.workload
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"workload": w, **header}) + "\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"span": i, "name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "workload": w}) + "\n")
            for name, (calls, seconds) in self.tallies.items():
                fh.write(json.dumps({"tally": name, "calls": calls,
                                     "seconds": seconds, "workload": w}) + "\n")
            for call, (parent, p, b, busy) in enumerate(self.engine_calls):
                fh.write(json.dumps({"engine_call": call, "parent": parent,
                                     "pattern": p, "bounds": list(b),
                                     "busy_s": busy, "workload": w}) + "\n")
            for call, m, s, rows_in, kept, dt, nbytes, step in self.layers:
                fh.write(json.dumps({"layer_of": call, "m": m, "bound": s,
                                     "rows_in": rows_in, "rows_kept": kept,
                                     "seconds": dt, "layer_bytes": nbytes,
                                     "step_bytes": step, "workload": w}) + "\n")


def tail_percentile(n):
    """The highest of p99.9, p99, p90, p50 with at least ten of n samples
    beyond it, or None (use the maximum) when n is below twenty."""
    for q in (0.999, 0.99, 0.9, 0.5):
        if n * (1 - q) >= 10:
            return q
    return None


def percentile(values, q):
    """Nearest-rank percentile; q=None gives the maximum."""
    if not values:
        return 0.0
    ordered = sorted(values)
    if q is None:
        return ordered[-1]
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def layer_metrics(tr, counts, overhead_s, threads):
    """Every per-layer metric of BENCHMARK.json from one traced repetition.

    A layer the workload does not reach reads 0."""
    rows_in = sum(rec[3] for rec in tr.layers)
    rows_kept = sum(rec[4] for rec in tr.layers)
    engine_busy = [rec[3] for rec in tr.engine_calls]
    calls_us = [b * 1e6 for b in engine_busy]
    counts_us = [d * 1e6 for d in tr.durations("counting.count_avoiders")]
    jobs = tr.durations("wilf.job")
    classify = sum(tr.durations("wilf.classify"))
    contains_calls, contains_s = tr.totals("core.contains")
    map_calls, map_s = tr.totals("bijections.map_3210_to_3201",
                                 "bijections.map_3201_to_3210")
    _, char_s = tr.totals("bijections.is_3210_by_partition",
                          "bijections.is_3201_by_characterization")
    _, trees_s = tr.totals("trees.count_trees_bruteforce", "trees.count_trees_bounded",
                           "trees.count_trees_root_unbounded")
    m = {
        "engine.rows_in": (rows_in, "rows"),
        "engine.rows_kept": (rows_kept, "rows"),
        "engine.keep_ratio": (rows_kept / rows_in if rows_in else 0.0, "ratio"),
        "engine.busy_s": (sum(engine_busy), "s"),
        "engine.max_layer_bytes": (max((rec[6] for rec in tr.layers), default=0), "B"),
        "engine.step_peak_bytes": (max((rec[7] for rec in tr.layers), default=0), "B"),
        "engine.calls": (len(engine_busy), "count"),
        "engine.call_p50_us": (percentile(calls_us, 0.5), "us"),
        "engine.call_tail_us": (
            percentile(calls_us, tail_percentile(len(calls_us))), "us"),
        "wilf.jobs": (len(jobs), "count"),
        "wilf.job_busy_s": (sum(jobs), "s"),
        "wilf.job_max_s": (max(jobs, default=0.0), "s"),
        "wilf.pool_efficiency": (
            sum(jobs) / (threads * classify) if classify else 0.0, "ratio"),
        "counting.count_calls": (len(counts_us), "count"),
        "counting.count_p50_us": (percentile(counts_us, 0.5), "us"),
        "counting.thm31_busy_s": (tr.totals("counting.theorem31_rhs")[1], "s"),
        "counting.refined_rows": (counts.get("counting.refined_rows", 0), "rows"),
        "counting.refined_busy_s": (tr.totals("counting.refined_table")[1], "s"),
        "counting.binary_words": (counts.get("counting.binary_words", 0), "count"),
        "core.contains_calls": (contains_calls, "count"),
        "core.contains_busy_s": (contains_s, "s"),
        "bijections.map_calls": (map_calls, "count"),
        "bijections.map_busy_s": (map_s, "s"),
        "bijections.char_busy_s": (char_s, "s"),
        "series.busy_s": (tr.self_seconds(
            "series.check_0021_conjecture", "series.euler_numbers"), "s"),
        "trees.busy_s": (trees_s, "s"),
        "trees.enumerated": (counts.get("trees.enumerated", 0), "count"),
        "trace.overhead_s": (overhead_s, "s"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in m.items()}
