#!/usr/bin/env python3
"""Parent-vs-change speed gate over the repository benchmark.

Usage::

    python3 tools/bench_gate.py BASE_DIR HEAD_DIR

``BASE_DIR`` and ``HEAD_DIR`` are two checkouts of the repository (for
a pull request: a worktree at its base commit and the change itself).
The gate runs each checkout's own, unchanged ``perfbench/run.py
--trace 0`` on every workload ``HEAD_DIR/BENCHMARK.json`` declares, in
:data:`PAIRS` pairs of runs.  Pair ``i`` runs seed ``i + 1`` on both
sides, and the side that goes first alternates from pair to pair, so a
drift in host speed lands on both sides alike.  Both sides run on the
same host in the same job, so no reference medians are checked in: a
``ref`` unit is only comparable between runs on one machine.

The change fails the gate when, on any workload:

* a head run is not ``correct``, or exits non-zero;
* a larger share of its operations fails than at the base;
* an ``end_to_end`` metric's head median is worse than the base median
  by more than that metric's ``bound`` (a fraction of the base median),
  in the metric's ``better`` direction.

A workload the base does not declare, or a metric the base never
reports, is printed as "new, not gated".  A metric with no value on
either side (``null`` in every result line: no op of that class ran) is
skipped; one that has values at the base and none at the head fails.

The runs see the environment without ``REPRO_*`` knobs and without
``PYTHONPATH``: each checkout measures its own source tree in its
default configuration.  A full gate takes about 8 minutes on a 2-vCPU
x86-64 host.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

#: Pairs of (base, head) runs per workload.  ``setup_s`` is the
#: noisiest end-to-end metric: one run's value spreads by 20-50 % of
#: its median (IQR) on a 2-vCPU host, and with 6 pairs two checkouts
#: of the same tree drew medians up to 19 % apart, close to the 25 %
#: bound.  Ten pairs halve the chance of such a false alarm.
PAIRS = 10
#: ``perfbench/run.py --seconds`` per run.  Short: set-up, the engine
#: checks and the minimum passes dominate a run anyway, and the pairs
#: buy more than longer runs do.
RUN_SECONDS = 2


def load_spec(root: str) -> dict:
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        return json.load(fh)


def clean_env() -> dict:
    """The environment without ``REPRO_*`` knobs or ``PYTHONPATH``."""
    return {k: v for k, v in os.environ.items()
            if not k.startswith("REPRO_") and k != "PYTHONPATH"}


def run_one(root: str, workload: str, seed: int) -> dict:
    """One ``--trace 0`` run; its result line, or a failed stand-in."""
    done = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(RUN_SECONDS), "--trace", "0"],
        cwd=root, env=clean_env(), capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode == 0 and lines:
        try:
            return json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    tail = (done.stderr.strip().splitlines() or ["no output"])[-1]
    return {"correct": False, "attempted": 0, "failed": 0, "metrics": {},
            "error": f"exit {done.returncode}: {tail}"}


def metric_values(lines: list[dict], name: str) -> list[float]:
    """The non-null values of one metric over a side's result lines."""
    values = []
    for line in lines:
        value = line.get("metrics", {}).get(name, {}).get("value")
        if value is not None:
            values.append(value)
    return values


def failed_share(lines: list[dict]) -> float:
    attempted = sum(line.get("attempted", 0) for line in lines)
    failed = sum(line.get("failed", 0) for line in lines)
    return failed / attempted if attempted else 0.0


def worse_by(better: str, base: float, head: float) -> float:
    """How much worse ``head`` is than ``base``, as a fraction of
    ``|base|`` (negative: better)."""
    delta = head - base if better == "lower" else base - head
    if base == 0:
        return 0.0 if delta <= 0 else float("inf")
    return delta / abs(base)


def verdict(end_to_end: list[dict], base: dict[str, list[dict]],
            head: dict[str, list[dict]]) -> tuple[list[str], list[str]]:
    """Gate ``head`` against ``base``: (failures, report lines).

    ``base`` and ``head`` map each workload to its result lines;
    ``end_to_end`` is ``BENCHMARK.json``'s metric list.  A workload
    missing from ``base`` is new and only its correctness is gated.
    """
    failures: list[str] = []
    report: list[str] = []
    for workload, head_lines in head.items():
        for line in head_lines:
            if not line.get("correct", False):
                why = line.get("error") or f"{line.get('failed', '?')} failed"
                failures.append(f"{workload}: correct is false ({why})")
        base_lines = base.get(workload)
        if base_lines is None:
            report.append(f"{workload}: new, not gated")
            continue
        base_share, head_share = failed_share(base_lines), failed_share(head_lines)
        if head_share > base_share:
            failures.append(
                f"{workload}: failed ops {head_share:.2%} of attempted"
                f" (base {base_share:.2%})")
        for metric in end_to_end:
            name, better, bound = metric["name"], metric["better"], metric["bound"]
            base_values = metric_values(base_lines, name)
            head_values = metric_values(head_lines, name)
            if not base_values:
                if head_values:
                    report.append(f"{workload} {name}: new, not gated")
                continue
            base_med = statistics.median(base_values)
            if not head_values:
                failures.append(f"{workload} {name}: no value at head"
                                f" (base median {base_med:.6g})")
                continue
            head_med = statistics.median(head_values)
            worse = worse_by(better, base_med, head_med)
            change = (head_med - base_med) / abs(base_med) if base_med else 0.0
            line = (f"{workload:14s} {name:12s} base {base_med:12.6g}"
                    f"  head {head_med:12.6g}  {change:+7.1%}"
                    f"  ({better} better, bound {bound:.0%})")
            report.append(line)
            if worse > bound:
                failures.append(
                    f"{workload} {name}: head median {head_med:.6g} is"
                    f" {worse:.1%} worse than base {base_med:.6g}"
                    f" (bound {bound:.0%}, {better} is better)")
    return failures, report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base_dir", metavar="BASE_DIR")
    parser.add_argument("head_dir", metavar="HEAD_DIR")
    args = parser.parse_args(argv)
    base_dir = os.path.abspath(args.base_dir)
    head_dir = os.path.abspath(args.head_dir)
    spec = load_spec(head_dir)
    base_workloads = {w["name"] for w in load_spec(base_dir)["workloads"]}
    workloads = [w["name"] for w in spec["workloads"]]
    base: dict[str, list[dict]] = {w: [] for w in workloads
                                   if w in base_workloads}
    head: dict[str, list[dict]] = {w: [] for w in workloads}
    sides = [("base", base_dir, base), ("head", head_dir, head)]
    for pair in range(PAIRS):
        for workload in workloads:
            for side, root, results in sides if pair % 2 == 0 else sides[::-1]:
                if workload not in results:
                    continue
                result = run_one(root, workload, seed=pair + 1)
                results[workload].append(result)
                print(f"pair {pair + 1}/{PAIRS} {workload:14s} {side}"
                      f"  correct={result['correct']}", flush=True)
    failures, report = verdict(spec["end_to_end"], base, head)
    print()
    for line in report:
        print(line)
    if failures:
        for line in failures:
            print(f"REGRESSION: {line}")
        print("bench gate FAILED")
        return 1
    print("bench gate passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
