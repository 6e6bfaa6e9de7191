"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Run from anywhere; the library is imported from `src/` next to this
directory, never from an installed copy, and the run fails with exit code 2
when it is not there. Each run is a fresh closed-loop process: it builds the
inputs from the seed, computes the oracle answers, then repeats the workload
at least three times and while another repetition fits in `--seconds`,
checking the outputs of each repetition after it, and prints as its last
stdout line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

`attempted` and `failed` count verdicts over all repetitions; a crash counts
every verdict it left unproduced as failed (fail_ratio = failed / attempted).

With `--trace 0` the metrics are the end-to-end ones:

- wall_s: wall time of one repetition, taken part by part: each part of
  the workload (see workloads.py) counts with its fastest time over the
  repetitions. The host's speed swings by a third in phases that last
  from seconds to minutes, and a part's best time is the one least
  touched by them;
- cpu_s: user+sys CPU of one repetition, this process plus the pool
  workers it reaped, taken part by part in the same way;
- peak_rss_mb: peak RSS of this process plus that of its largest reaped
  child, from getrusage, taken before the set-up probes start;
- setup_s: median, over nine fresh interpreters, of the time from starting
  the interpreter until `invseq` is imported and the inputs are built.

With `--trace 1` the untraced repetitions run as above, then one traced
repetition gives the per-layer metrics (see tracing.py), including
trace.overhead_s = traced wall time - median untraced repetition. Its
spans and per-length engine records go to
.perfbench/<workload>-seed<seed>.jsonl.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SETUP_PROBES = 9
MIN_REPETITIONS = 3
WORKLOAD_NAMES = ("sweep", "deep", "subsets", "oracles")


def load_library():
    """Import invseq from this checkout's src/, or exit with code 2."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import invseq
    except ImportError as ex:
        print(f"perfbench: cannot import invseq from {src}: {ex}", file=sys.stderr)
        sys.exit(2)
    if src.resolve() not in Path(invseq.__file__).resolve().parents:
        print(f"perfbench: invseq came from {invseq.__file__}, not {src}",
              file=sys.stderr)
        sys.exit(2)


def cpu_seconds():
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb():
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (me.ru_maxrss + kids.ru_maxrss) / 1024  # ru_maxrss is in KiB


def setup_seconds(workload, seed):
    """Median time for a fresh interpreter to reach the end of set-up."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = perf_counter()
        with subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--setup-probe"],
            stdout=subprocess.PIPE, text=True,
        ) as proc:
            line = proc.stdout.readline()
            times.append(perf_counter() - t0)
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return statistics.median(times)


def timed_parts(wl, inp, tr, out):
    """One repetition: [(wall, cpu)] of each part, in order."""
    parts = []
    c0, t0 = cpu_seconds(), perf_counter()
    for _ in wl.timed(inp, tr, out):
        c1, t1 = cpu_seconds(), perf_counter()
        parts.append((t1 - t0, c1 - c0))
        c0, t0 = c1, t1
    return parts


def repeat_untraced(wl, inp, seconds):
    """Run and check the workload at least MIN_REPETITIONS times, then until
    another repetition would not fit in `seconds`. Returns (the parts of
    each repetition, verdicts, crashed)."""
    from tracing import NullTracer

    reps, verdicts = [], []
    start = perf_counter()
    while True:
        out = {}
        try:
            parts = timed_parts(wl, inp, NullTracer(), out)
        except Exception:  # a crash or MemoryError fails the verdicts left
            traceback.print_exc()
            return reps, verdicts + wl.check(inp, out), True
        reps.append(parts)
        verdicts += wl.check(inp, out)
        wall = sum(w for w, _ in parts)
        if len(reps) >= MIN_REPETITIONS and perf_counter() - start + wall > seconds:
            return reps, verdicts, False


def best_of_parts(reps, column):
    """Sum over the parts of each part's least time over the repetitions."""
    return sum(min(times) for times in zip(*([part[column] for part in parts]
                                             for parts in reps)))


def traced_metrics(wl, inp, args, untraced_wall):
    """One traced repetition: (per-layer metrics, its verdicts)."""
    from tracing import Tracer, layer_metrics

    tr, out = Tracer(args.workload), {}
    t0 = perf_counter()
    try:
        with tr.instrumented():
            for _ in wl.timed(inp, tr, out):
                pass
    except Exception:
        traceback.print_exc()
    traced_wall = perf_counter() - t0 - sum(tr.durations(*wl.trace_only))
    metrics = layer_metrics(tr, wl.counts(inp, out), traced_wall - untraced_wall,
                            wl.threads)
    tr.dump(ROOT / ".perfbench" / f"{args.workload}-seed{args.seed}.jsonl",
            {"seed": args.seed, "metrics": metrics})
    return metrics, wl.check(inp, out) + wl.check_trace(inp, out, tr)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="build the inputs, print 'ready' and exit")
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be >= 1")

    load_library()
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    inp = wl.setup(args.seed, ROOT)
    if args.setup_probe:
        print("ready", flush=True)
        return 0

    wl.expected(inp)
    reps, verdicts, crashed = repeat_untraced(wl, inp, args.seconds)
    peak = peak_rss_mb()
    walls = [sum(w for w, _ in parts) for parts in reps]

    if args.trace:
        metrics, traced_verdicts = traced_metrics(
            wl, inp, args, statistics.median(walls) if walls else 0.0)
        verdicts += traced_verdicts
    else:
        metrics = {
            "wall_s": {"value": best_of_parts(reps, 0), "unit": "s"},
            "cpu_s": {"value": best_of_parts(reps, 1), "unit": "s"},
            "peak_rss_mb": {"value": peak, "unit": "MB"},
            "setup_s": {"value": setup_seconds(args.workload, args.seed), "unit": "s"},
        }

    failed = sum(not ok for _, ok in verdicts)
    for name, ok in verdicts:
        if not ok:
            print(f"FAIL {name}", file=sys.stderr)
    print(f"# {args.workload} seed={args.seed} repetitions={len(walls)} "
          f"parts={len(reps[0]) if reps else 0} "
          f"walls={[round(w, 3) for w in walls]} "
          f"fail_ratio={failed / len(verdicts):.6f} ({failed}/{len(verdicts)})")
    print(json.dumps({"correct": failed == 0 and not crashed,
                      "attempted": len(verdicts), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
