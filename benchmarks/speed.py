"""Timers and budgets for the speed guards.

``test_emulation_speed.py`` and ``test_spec_overhead.py`` assert the
repository's stated speed claims against the object reference oracle
(the cycle engine with the kernel off), timed in the same process:

* the event engine's array-native fast path (kernel off) is at least
  3x faster than the oracle on the Figure 8 trace and the Figure 10
  CPU-copy stream;
* the event engine's batched serve ladder is at least 2x faster than
  the cycle engine on the Figure 8 trace;
* compiling the default experiment spec costs under 1 % of the oracle's
  Figure 8 run.

Every mode is fed the same access blocks.  Walls are best of N, with
the modes alternating inside each round so a drift in host speed lands
on all of them alike; noise only ever slows a run, so the minimum
converges to the true speed.  End-to-end speed is gated separately, by
``tools/bench_gate.py`` over the ``BENCHMARK.json`` workloads.
"""

from __future__ import annotations

import dataclasses
import os
import time
from typing import Callable, NamedTuple

from repro.core.config import jetson_nano_time_scaling
from repro.core.system import EasyDRAMSystem
from repro.workloads import lmbench, microbench

#: Compiling the default experiment spec must cost less than this
#: fraction of the oracle's fig08 run, so the declarative layer stays
#: invisible next to the work it schedules.
SPEC_OVERHEAD_BUDGET = 0.01

#: The spec the overhead probe loads — the suite CI shards over.
DEFAULT_SPEC_PATH = os.path.join(os.path.dirname(__file__), os.pardir,
                                 "specs", "default.yaml")

#: Timing rounds per mode; the fastest round is kept.
ROUNDS = 5

#: Fig 8's main-memory regime: a working set far beyond the 512 KiB L2.
FIG08_WORKING_SET = 2 * 1024 * 1024
FIG08_CHASE_ACCESSES = 12_000

#: Fig 10 CPU-copy: src/dst anchors of the RowClone case study.
COPY_BYTES = 2 * 1024 * 1024
COPY_SRC = 0
COPY_DST = 1 << 26


def fig08(session) -> None:
    """Working-set touch, then the lmbench-style pointer chase."""
    session.run_trace(microbench.touch_blocks(0, FIG08_WORKING_SET))
    session.run_trace(lmbench.pointer_chase_blocks(
        FIG08_WORKING_SET, FIG08_CHASE_ACCESSES, base_addr=0))


def fig10_copy(session) -> None:
    """The CPU-copy stream RowClone is compared against."""
    session.run_trace(microbench.cpu_copy_blocks(COPY_SRC, COPY_DST,
                                                 COPY_BYTES))


#: workload name -> driver(session)
WORKLOADS: dict[str, Callable] = {"fig08": fig08, "fig10-cpu-copy": fig10_copy}

#: mode -> (engine, kernel).  The oracle is the object reference; the
#: fast path is the event engine with the compiled kernel off.
ORACLE = ("cycle", False)
FASTPATH = ("event", False)


class Timing(NamedTuple):
    """One run's wall, its emulated artifact and its engine."""

    wall: float
    artifact: dict
    engine: object


def run_once(driver: Callable, engine: str, kernel: bool) -> Timing:
    """One emulation run."""
    system = EasyDRAMSystem(jetson_nano_time_scaling(), engine=engine,
                            kernel=kernel)
    session = system.session("speed", engine=engine)
    start = time.perf_counter()
    driver(session)
    wall = time.perf_counter() - start
    artifact = dataclasses.asdict(session.finish())
    artifact.pop("wall_seconds")  # host time is the quantity under test
    artifact["smc"] = dataclasses.asdict(system.smc.stats)
    artifact["device"] = dataclasses.asdict(system.device.stats)
    artifact["violations"] = [
        (v.constraint, v.time_ps, v.earliest_ps)
        for v in system.device.checker.violations]
    return Timing(wall, artifact, session.engine)


def best_of(driver: Callable, modes: dict[str, tuple[str, bool]],
            rounds: int = ROUNDS) -> dict[str, Timing]:
    """Best-of-``rounds`` wall per mode, the modes alternating each round."""
    best: dict[str, Timing] = {}
    for _ in range(rounds):
        for name, (engine, kernel) in modes.items():
            timing = run_once(driver, engine, kernel)
            if name not in best or timing.wall < best[name].wall:
                best[name] = timing
    return best


def measure_spec_overhead(rounds: int = ROUNDS) -> dict:
    """Best-of-``rounds`` wall time to validate and compile the default
    spec (warm — imports and the knob inventory are shared process
    state, not per-plan cost)."""
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


def check_spec_overhead(overhead: dict, fig08_wall: float,
                        budget: float = SPEC_OVERHEAD_BUDGET) -> list[str]:
    """Spec-compilation overhead failures (empty = pass).

    ``fig08_wall`` is the oracle's fig08 wall measured in the same
    process, so both sides of the ratio come from the same host and the
    check does not drift with machine speed.
    """
    allowed = budget * fig08_wall
    if overhead["compile_wall_s"] < allowed:
        return []
    return [f"spec compile: {overhead['compile_wall_s'] * 1000:.1f}ms is"
            f" over {budget:.0%} of the fig08 run"
            f" ({fig08_wall:.3f}s -> {allowed * 1000:.1f}ms budget)"]
