"""Run every workload, untraced and traced, and print all metrics with units.

    python3 perfbench/report.py [--seed 1] [--seconds 25]

For each workload it runs `run.py --trace 0` (end-to-end metrics plus
fail_ratio = failed / attempted verdicts) and `run.py --trace 1` (the
per-layer metrics; layers a workload does not reach read 0 and are not
printed). Takes about five minutes at the default 25 seconds.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import WORKLOAD_NAMES  # noqa: E402


def run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def machine():
    import numpy

    mem_gib = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**30
    return (f"nproc={os.cpu_count()} memory={mem_gib:.1f}GiB "
            f"python={platform.python_version()} numpy={numpy.__version__}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=25)
    args = ap.parse_args(argv)

    print(f"# {machine()} seed={args.seed} seconds={args.seconds}")
    for workload in WORKLOAD_NAMES:
        for trace in (0, 1):
            res = run(workload, args.seed, args.seconds, trace)
            kind = "per-layer" if trace else "end-to-end"
            print(f"\n{workload} ({kind}): correct={res['correct']} "
                  f"attempted={res['attempted']} failed={res['failed']}"
                  + ("" if trace else
                     f" fail_ratio={res['failed'] / res['attempted']:.6f}"))
            for name, m in res["metrics"].items():
                if m["value"] or not trace:
                    print(f"  {name:28s} {m['value']:>16.6g} {m['unit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
