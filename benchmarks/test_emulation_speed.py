"""Benchmark: the event engine vs the cycle engine's object reference.

Guards the tentpole property of the event engine's serve ladder on the
Figure 8 trace workload (working-set touch + lmbench-style pointer
chase):

* **equivalence** — the artifact dict and every emulated statistic are
  bit-identical between engines (the serve path changes host work,
  never simulated time);
* **speed** — the event engine finishes the same emulation at least 2x
  faster in host wall time.

Run with ``-s`` to see the measured speedup and the event-engine
counters (gates, releases, batched and fallback episodes).
"""

from __future__ import annotations

import dataclasses
import time

from repro.core.config import jetson_nano_time_scaling
from repro.core.system import EasyDRAMSystem
from repro.workloads import lmbench, microbench

#: Fig 8's main-memory regime: a working set far beyond the 512 KiB L2.
WORKING_SET_BYTES = 2 * 1024 * 1024
CHASE_ACCESSES = 12_000

#: Required host-time advantage of the event engine.
MIN_SPEEDUP = 2.0

#: Timing rounds per engine; the fastest round is compared so transient
#: host load cannot fail the gate spuriously.
ROUNDS = 3


def _fig08_workload(session) -> None:
    session.run_trace(microbench.touch_blocks(0, WORKING_SET_BYTES).accesses())
    session.run_trace(lmbench.pointer_chase_blocks(
        WORKING_SET_BYTES, CHASE_ACCESSES, base_addr=0).accesses())


def _run(engine: str) -> tuple[dict, float, object]:
    system = EasyDRAMSystem(jetson_nano_time_scaling(), engine=engine)
    session = system.session("fig08-speed", engine=engine)
    start = time.perf_counter()
    _fig08_workload(session)
    wall = time.perf_counter() - start
    result = session.finish()
    artifact = dataclasses.asdict(result)
    artifact.pop("wall_seconds")  # host time is the quantity under test
    artifact["smc"] = dataclasses.asdict(system.smc.stats)
    artifact["device"] = dataclasses.asdict(system.device.stats)
    artifact["violations"] = [
        (v.constraint, v.time_ps, v.earliest_ps)
        for v in system.device.checker.violations]
    return artifact, wall, session.engine


def test_fastpath_bit_identical_and_3x_faster(once):
    """The array-native fast path: >= 3x over the object reference.

    Runs the harness's tagged workloads (the fig08 trace and the fig10
    CPU-copy stream) on the event engine's fast path (kernel off) and on
    the reference oracle (cycle engine, per-access traces, kernel off),
    asserting bit-identical artifacts (the harness itself raises
    otherwise) and a >= 3x host speedup on both.
    """
    from benchmarks import harness

    # More rounds than the harness default: best-of-N on both sides
    # converges to true speed (noise only ever slows a run), so the
    # ratio estimate tightens with N and the 3x gate doesn't flake.
    report = once(harness.run_benchmarks, rounds=5)
    print()
    for row in report["results"]:
        print(f"  {row['workload']:16s} base {row['baseline_wall_s']:.3f}s"
              f"  fast {row['fastpath_wall_s']:.3f}s"
              f"  ({row['speedup']:.2f}x)")
    for row in report["results"]:
        assert row["speedup"] >= 3.0, (
            f"{row['workload']}: fast path only {row['speedup']:.2f}x over"
            " the reference baseline (need 3x)")


def test_event_engine_bit_identical_and_2x_faster(once):
    def measure():
        cycle_artifact = event_artifact = engine_stats = None
        cycle_wall = event_wall = float("inf")
        for _ in range(ROUNDS):
            artifact, wall, _engine = _run("cycle")
            cycle_artifact = artifact
            cycle_wall = min(cycle_wall, wall)
            artifact, wall, engine = _run("event")
            event_artifact = artifact
            event_wall = min(event_wall, wall)
            engine_stats = engine.stats
        return (cycle_artifact, event_artifact, cycle_wall, event_wall,
                engine_stats)

    cycle_artifact, event_artifact, cycle_wall, event_wall, stats = \
        once(measure)
    speedup = cycle_wall / event_wall
    print()
    print(f"fig08 trace workload ({WORKING_SET_BYTES // 1024} KiB,"
          f" {CHASE_ACCESSES} chased loads)")
    print(f"  cycle engine: {cycle_wall:.3f} s")
    print(f"  event engine: {event_wall:.3f} s  ({speedup:.2f}x)")
    print(f"  event stats:  {stats.as_dict()}")

    # Bit-identical artifacts: the serve path changes host work, not
    # simulated time.
    assert event_artifact == cycle_artifact

    # The engine really took the batched serve ladder...
    assert stats.batched_episodes > 0
    assert stats.fallback_episodes == 0
    # ...and it pays off.
    assert speedup >= MIN_SPEEDUP, (
        f"event engine only {speedup:.2f}x faster (need {MIN_SPEEDUP}x);"
        f" cycle={cycle_wall:.3f}s event={event_wall:.3f}s")
