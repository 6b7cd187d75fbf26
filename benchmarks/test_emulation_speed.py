"""Benchmark: the fast paths vs the cycle engine's object reference.

Guards two stated speed claims (see :mod:`benchmarks.speed`), each on
the same access blocks fed to every mode:

* **equivalence** — the artifact dict and every emulated statistic are
  bit-identical between the modes (the serve path changes host work,
  never simulated time);
* **speed** — the event engine's array-native fast path (kernel off) is
  at least 3x faster than the object reference on the Figure 8 trace
  and the Figure 10 CPU-copy stream, and the event engine's batched
  serve ladder is at least 2x faster than the cycle engine on the
  Figure 8 trace.

Run with ``-s`` to see the measured walls and the event-engine counters
(gates, releases, batched and fallback episodes).
"""

from __future__ import annotations

from benchmarks import speed

#: Required host-time advantage of the fast path over the oracle.
MIN_FASTPATH_SPEEDUP = 3.0

#: Required host-time advantage of the event engine's serve ladder.
MIN_SPEEDUP = 2.0

#: Timing rounds for the engine comparison.
ROUNDS = 3


def test_fastpath_bit_identical_and_3x_faster(once):
    """The array-native fast path: >= 3x over the object reference."""
    modes = {"oracle": speed.ORACLE, "fastpath": speed.FASTPATH}

    def measure():
        return {name: speed.best_of(driver, modes)
                for name, driver in speed.WORKLOADS.items()}

    results = once(measure)
    print()
    for name, best in results.items():
        oracle, fast = best["oracle"], best["fastpath"]
        print(f"  {name:16s} oracle {oracle.wall:.3f}s"
              f"  fast {fast.wall:.3f}s  ({oracle.wall / fast.wall:.2f}x)")
    for name, best in results.items():
        oracle, fast = best["oracle"], best["fastpath"]
        assert fast.artifact == oracle.artifact, (
            f"{name}: fast path changed the emulated artifact")
        ratio = oracle.wall / fast.wall
        assert ratio >= MIN_FASTPATH_SPEEDUP, (
            f"{name}: fast path only {ratio:.2f}x over the reference"
            f" oracle (need {MIN_FASTPATH_SPEEDUP}x)")


def test_event_engine_bit_identical_and_2x_faster(once, monkeypatch):
    # The claim is about the serve ladder: decline the resident replay
    # so the event engine serves gate by gate in the burst loop.
    from repro.dram.kernel import blockrun

    monkeypatch.setattr(blockrun, "run_gated_kernel",
                        lambda engine, session, proc, smc: False)
    modes = {"cycle": ("cycle", True), "event": ("event", True)}
    best = once(speed.best_of, speed.fig08, modes, ROUNDS)
    cycle, event = best["cycle"], best["event"]
    ratio = cycle.wall / event.wall
    stats = event.engine.stats
    print()
    print(f"fig08 trace workload ({speed.FIG08_WORKING_SET // 1024} KiB,"
          f" {speed.FIG08_CHASE_ACCESSES} chased loads)")
    print(f"  cycle engine: {cycle.wall:.3f} s")
    print(f"  event engine: {event.wall:.3f} s  ({ratio:.2f}x)")
    print(f"  event stats:  {stats.as_dict()}")

    # Bit-identical artifacts: the serve path changes host work, not
    # simulated time.
    assert event.artifact == cycle.artifact

    # The engine really took the batched serve ladder...
    assert stats.batched_episodes > 0
    assert stats.fallback_episodes == 0
    # ...and it pays off.
    assert ratio >= MIN_SPEEDUP, (
        f"event engine only {ratio:.2f}x faster (need {MIN_SPEEDUP}x);"
        f" cycle={cycle.wall:.3f}s event={event.wall:.3f}s")
