"""Persistent emulation-speed benchmark harness.

Runs the tagged performance workloads (the Figure 8 trace and the
Figure 10 CPU-copy stream) in three serve configurations — the object
reference oracle (baseline: the cycle engine on per-access traces with
the kernel off), the event engine's array-native fast path with the
batch kernel off, and the batch serve kernel — and writes
``BENCH_emulation.json``: per-workload wall time, accesses per second,
the measured speedups, plus engine/revision/compiler metadata.  The
kernel backend is warmed before any timing so its one-time compile cost
is reported separately (``kernel_backend.build_seconds``), never folded
into a workload wall.  Future PRs regress against the *speedup*
columns — same-host same-process ratios — because absolute wall times
are machine-dependent while the ratios are stable.

Usage::

    python benchmarks/harness.py                 # write BENCH_emulation.json
    python benchmarks/harness.py --check         # also gate vs the baseline
    python benchmarks/harness.py --update-baseline
    python -m repro run --bench                  # the CLI front door

The checked-in baseline lives at ``benchmarks/BENCH_baseline.json``; the
gate fails when any workload's speedup drops more than
:data:`REGRESSION_TOLERANCE` below its baseline value.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import subprocess
import sys
import time
from typing import Callable

from repro.core.config import jetson_nano_time_scaling
from repro.core.system import EasyDRAMSystem
from repro.workloads import lmbench, microbench

#: Fractional speedup loss vs the checked-in baseline that fails the gate.
REGRESSION_TOLERANCE = 0.20

#: The kernel column's tolerance.  Kernel walls are single-digit
#: milliseconds, so the ~50-120x ratios carry far more relative noise
#: than the ~3.5x fastpath column; 50% still catches any real
#: regression (a broken kernel falls back to ~1x) without flaking on
#: scheduler jitter in the tiny denominator.
KERNEL_REGRESSION_TOLERANCE = 0.50

#: Compiling the default experiment spec must cost less than this
#: fraction of the fig08 emulation run measured in the same report, so
#: the declarative layer stays invisible next to the work it schedules.
SPEC_OVERHEAD_BUDGET = 0.01

#: The spec the overhead probe loads — the suite CI shards over.
DEFAULT_SPEC_PATH = os.path.join(os.path.dirname(__file__), os.pardir,
                                 "specs", "default.yaml")

#: Timing rounds per (workload, mode); the fastest round is kept so
#: transient host load cannot fail the gate spuriously.  Five rounds
#: (up from three) keeps the speedup ratios stable now that the kernel
#: column's denominator is tens of milliseconds.
ROUNDS = 5

#: Fig 8's main-memory regime: a working set far beyond the 512 KiB L2.
FIG08_WORKING_SET = 2 * 1024 * 1024
FIG08_CHASE_ACCESSES = 12_000

#: Fig 10 CPU-copy: src/dst anchors of the RowClone case study.
COPY_BYTES = 2 * 1024 * 1024
COPY_SRC = 0
COPY_DST = 1 << 26

BASELINE_PATH = os.path.join(os.path.dirname(__file__),
                             "BENCH_baseline.json")


def _fig08(session, fast: bool) -> None:
    if fast:
        session.run_trace(microbench.touch_blocks(0, FIG08_WORKING_SET))
        session.run_trace(lmbench.pointer_chase_blocks(
            FIG08_WORKING_SET, FIG08_CHASE_ACCESSES, base_addr=0))
    else:
        session.run_trace(microbench.touch_trace(0, FIG08_WORKING_SET))
        session.run_trace(lmbench.pointer_chase(
            FIG08_WORKING_SET, FIG08_CHASE_ACCESSES, base_addr=0))


def _fig10_copy(session, fast: bool) -> None:
    if fast:
        session.run_trace(microbench.cpu_copy_blocks(
            COPY_SRC, COPY_DST, COPY_BYTES))
    else:
        session.run_trace(microbench.cpu_copy_trace(
            COPY_SRC, COPY_DST, COPY_BYTES))


#: workload name -> driver(session, fast)
WORKLOADS: dict[str, Callable] = {
    "fig08": _fig08,
    "fig10-cpu-copy": _fig10_copy,
}


#: mode -> (engine, REPRO_KERNEL, block traces); None leaves the knob
#: at its default, so the "kernel" column measures what users actually
#: get.  The baseline is the object reference oracle.
MODES = {
    "baseline": ("cycle", "0", False),
    "fastpath": ("event", "0", True),
    "kernel": ("event", None, True),
}


def _run_once(driver: Callable, mode: str) -> tuple[float, dict]:
    """One emulation run; returns (wall seconds, observable artifact)."""
    engine, kernel, blocks = MODES[mode]
    saved = os.environ.get("REPRO_KERNEL")
    if kernel is None:
        os.environ.pop("REPRO_KERNEL", None)
    else:
        os.environ["REPRO_KERNEL"] = kernel
    try:
        system = EasyDRAMSystem(jetson_nano_time_scaling(), engine=engine)
        session = system.session("bench")
        start = time.perf_counter()
        driver(session, blocks)
        wall = time.perf_counter() - start
        result = session.finish()
    finally:
        if saved is None:
            os.environ.pop("REPRO_KERNEL", None)
        else:
            os.environ["REPRO_KERNEL"] = saved
    artifact = dataclasses.asdict(result)
    artifact.pop("wall_seconds")
    artifact["smc"] = dataclasses.asdict(system.smc.stats)
    artifact["device"] = dataclasses.asdict(system.device.stats)
    return wall, artifact


def measure_workload(name: str, rounds: int = ROUNDS) -> dict:
    """Benchmark one workload across all serve modes (best of ``rounds``)."""
    driver = WORKLOADS[name]
    walls = dict.fromkeys(MODES, float("inf"))
    artifacts = dict.fromkeys(MODES)
    for _ in range(rounds):
        for mode in MODES:
            wall, artifacts[mode] = _run_once(driver, mode)
            walls[mode] = min(walls[mode], wall)
    if artifacts["baseline"] != artifacts["fastpath"]:
        raise AssertionError(
            f"{name}: fast path changed the emulated artifact")
    if artifacts["fastpath"] != artifacts["kernel"]:
        raise AssertionError(
            f"{name}: batch kernel changed the emulated artifact")
    accesses = artifacts["fastpath"]["accesses"]
    return {
        "workload": name,
        "accesses": accesses,
        "baseline_wall_s": round(walls["baseline"], 4),
        "fastpath_wall_s": round(walls["fastpath"], 4),
        "kernel_wall_s": round(walls["kernel"], 4),
        "baseline_accesses_per_s": round(accesses / walls["baseline"]),
        "fastpath_accesses_per_s": round(accesses / walls["fastpath"]),
        "kernel_accesses_per_s": round(accesses / walls["kernel"]),
        "speedup": round(walls["baseline"] / walls["fastpath"], 3),
        "kernel_speedup": round(walls["baseline"] / walls["kernel"], 3),
        "kernel_vs_fastpath": round(walls["fastpath"] / walls["kernel"], 3),
    }


def measure_spec_overhead(rounds: int = ROUNDS) -> dict:
    """Best-of-``rounds`` wall time to validate and compile the default
    spec (warm, like the workload walls — imports and the knob inventory
    are shared process state, not per-plan cost)."""
    from repro.specs import load_and_compile, load_spec

    path = os.path.relpath(DEFAULT_SPEC_PATH)
    validate_wall = compile_wall = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        load_spec(path)
        validate_wall = min(validate_wall, time.perf_counter() - start)
        start = time.perf_counter()
        load_and_compile(path)
        compile_wall = min(compile_wall, time.perf_counter() - start)
    return {
        "spec": "specs/default.yaml",
        "validate_wall_s": round(validate_wall, 5),
        "compile_wall_s": round(compile_wall, 5),
    }


def check_spec_overhead(report: dict,
                        budget: float = SPEC_OVERHEAD_BUDGET) -> list[str]:
    """Spec-compilation overhead failures (empty = pass).

    The denominator is the report's own fig08 emulation wall (the
    reference baseline), so both sides of the ratio come from the same host and
    process and the gate does not drift with machine speed.
    """
    overhead = report.get("spec_overhead")
    if not overhead:
        return []
    fig08 = next((r for r in report.get("results", [])
                  if r.get("workload") == "fig08"), None)
    if fig08 is None:
        return []
    allowed = budget * fig08["baseline_wall_s"]
    if overhead["compile_wall_s"] >= allowed:
        return [
            f"spec compile: {overhead['compile_wall_s'] * 1000:.1f}ms is"
            f" over {budget:.0%} of the fig08 run"
            f" ({fig08['baseline_wall_s']:.3f}s -> {allowed * 1000:.1f}ms"
            " budget)"]
    return []


def kernel_build_info() -> dict:
    """Resolve (and thereby warm) the kernel backend; report its cost.

    Called before any workload timing so the one-time C compile lands
    here — ``build_seconds`` with ``compiled_this_process`` true — and
    never inside a measured wall.  On hosts without a compiler the dict
    says so and the kernel column measures the flat closures instead.
    """
    from repro.dram.kernel import backend_info

    info = dict(backend_info())
    info.pop("cache_path", None)  # host-specific; keep the report portable
    return info


def _git_rev() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10,
            cwd=os.path.dirname(os.path.abspath(__file__)))
        return out.stdout.strip() or "unknown"
    except Exception:
        return "unknown"


def run_benchmarks(rounds: int = ROUNDS) -> dict:
    """Measure every tagged workload and assemble the report."""
    return {
        "schema": "bench-emulation/v2",
        "engine": "event",
        "git_rev": _git_rev(),
        "python": platform.python_version(),
        "rounds": rounds,
        "kernel_backend": kernel_build_info(),
        "results": [measure_workload(name, rounds) for name in WORKLOADS],
        "spec_overhead": measure_spec_overhead(rounds),
    }


def check_regression(report: dict, baseline: dict,
                     tolerance: float = REGRESSION_TOLERANCE) -> list[str]:
    """Speedup regressions of ``report`` vs ``baseline`` (empty = pass)."""
    failures = []
    columns = (("speedup", tolerance),
               ("kernel_speedup", KERNEL_REGRESSION_TOLERANCE))
    baseline_by_name = {r["workload"]: r for r in baseline.get("results", [])}
    for row in report["results"]:
        ref = baseline_by_name.get(row["workload"])
        if ref is None:
            continue
        for column, column_tolerance in columns:
            value, floor_ref = row.get(column), ref.get(column)
            if value is None or floor_ref is None:
                continue  # pre-kernel baselines gate the classic column only
            floor = floor_ref * (1.0 - column_tolerance)
            if value < floor:
                failures.append(
                    f"{row['workload']}: {column} {value:.2f}x is"
                    f" below {floor:.2f}x ({floor_ref:.2f}x baseline"
                    f" - {column_tolerance:.0%} tolerance)")
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Run the emulation speed benchmarks")
    parser.add_argument("--out", default="BENCH_emulation.json",
                        help="report path (default: ./BENCH_emulation.json)")
    parser.add_argument("--rounds", type=int, default=ROUNDS)
    parser.add_argument("--check", action="store_true",
                        help="fail on >20%% speedup regression vs baseline")
    parser.add_argument("--update-baseline", action="store_true",
                        help=f"rewrite {BASELINE_PATH}")
    args = parser.parse_args(argv)

    report = run_benchmarks(rounds=args.rounds)
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    backend = report.get("kernel_backend", {})
    if backend:
        build = backend.get("build_seconds")
        built = (f", built in {build:.2f}s" if build
                 and backend.get("compiled_this_process") else "")
        print(f"{'kernel backend':16s} {backend.get('backend', 'none')}"
              f" ({backend.get('compiler', backend.get('reason', '?'))}"
              f"{built})")
    for row in report["results"]:
        print(f"{row['workload']:16s} base {row['baseline_wall_s']:.3f}s"
              f"  fast {row['fastpath_wall_s']:.3f}s"
              f"  kernel {row['kernel_wall_s']:.3f}s"
              f"  ({row['speedup']:.2f}x / {row['kernel_speedup']:.2f}x,"
              f" {row['kernel_accesses_per_s']:,} acc/s)")
    overhead = report.get("spec_overhead")
    if overhead:
        print(f"{'spec compile':16s} "
              f"{overhead['compile_wall_s'] * 1000:.1f}ms"
              f" (validate {overhead['validate_wall_s'] * 1000:.1f}ms,"
              f" budget {SPEC_OVERHEAD_BUDGET:.0%} of fig08)")
    print(f"wrote {args.out}")

    if args.update_baseline:
        with open(BASELINE_PATH, "w") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
        print(f"updated {BASELINE_PATH}")
        return 0
    if args.check:
        if not os.path.exists(BASELINE_PATH):
            print(f"no baseline at {BASELINE_PATH}; run --update-baseline",
                  file=sys.stderr)
            return 2
        with open(BASELINE_PATH) as fh:
            baseline = json.load(fh)
        failures = check_regression(report, baseline)
        failures += check_spec_overhead(report)
        if failures:
            for line in failures:
                print(f"REGRESSION: {line}", file=sys.stderr)
            return 1
        print("benchmark gate passed (within tolerance of baseline)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
