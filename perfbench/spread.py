#!/usr/bin/env python3
"""Run the benchmark over several seeds and print each metric's spread.

Usage, from the root of a checkout::

    python3 perfbench/spread.py --workloads emu-1core,serve-mixed \
        --seeds 1-10 --seconds 12

With several workloads the runs are interleaved (seed 1 of every
workload, then seed 2, ...), so a drift in the host's speed lands on
every workload alike instead of on whichever ran last.  For every
workload and metric it prints the median over the seeds and the
distance between the first and third quartile as a share of that
median: the figure each end-to-end metric's ``bound`` in BENCHMARK.json
must stay well above.  The ungated figures a run prints beside the
result (raw ms, the reference loop's own time) follow, marked ``~``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def printed_figure(line: str) -> tuple[str, float] | None:
    """``(name, value)`` of a printed ``name value unit`` line, if any."""
    parts = line.split()
    if len(parts) != 3 or not parts[0][0].isalpha():
        return None
    try:
        return parts[0], float(parts[1])
    except ValueError:
        return None


def all_workloads() -> list[str]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return [w["name"] for w in json.load(fh)["workloads"]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", type=lambda s: s.split(","),
                        default=None, help="comma-separated; default all")
    parser.add_argument("--seeds", type=seeds, default=seeds("1-5"))
    parser.add_argument("--seconds", type=int, default=12)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args(argv)
    workloads = args.workloads or all_workloads()
    values: dict[str, dict[str, list[float]]] = {w: {} for w in workloads}
    for seed in args.seeds:
        for workload in workloads:
            start = time.perf_counter()
            done = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                 workload, "--seed", str(seed), "--seconds",
                 str(args.seconds), "--trace", str(args.trace)],
                capture_output=True, text=True, cwd=ROOT)
            if done.returncode != 0:
                print(done.stderr, file=sys.stderr)
                return 1
            lines = done.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: {result['failed']} failed"
                      " ops", file=sys.stderr)
            for name, metric in result["metrics"].items():
                values[workload].setdefault(name, []).append(metric["value"])
            for line in lines[:-1]:
                printed = printed_figure(line)
                if printed and printed[0] not in result["metrics"]:
                    values[workload].setdefault(
                        "~" + printed[0], []).append(printed[1])
            wall = time.perf_counter() - start
            print(f"{workload} seed {seed} ({wall:.0f}s): " + " ".join(
                f"{n}={m['value']:.4g}"
                for n, m in result["metrics"].items()), flush=True)
    for workload, metrics in values.items():
        print(f"-- {workload}")
        for name, vals in metrics.items():
            median = statistics.median(vals)
            spread = 0.0
            if len(vals) > 1 and median:
                q1, _, q3 = statistics.quantiles(vals, n=4)
                spread = (q3 - q1) / median
            print(f"{name:34s} median {median:12.6g}  iqr/median"
                  f" {spread:.4f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
