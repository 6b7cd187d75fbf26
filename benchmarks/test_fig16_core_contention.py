"""Benchmark: regenerate Figure 16 (multi-core contention extension)."""

from repro.experiments import fig16_core_contention


def test_fig16_core_contention(once, full):
    result = once(fig16_core_contention.run,
                  **fig16_core_contention.SWEEP.run_overrides(full=full))
    print()
    print(fig16_core_contention.report(result))
    # Contention must grow with core count under both schedulers...
    assert all(result["slowdown_monotonic"].values())
    # ...and FR-FCFS must recover at least FCFS's row-buffer locality.
    assert result["frfcfs_hit_rate_wins"]
    # At 4 cores the shared channel is genuinely contended.
    for sched in result["schedulers"]:
        assert result["avg_slowdowns"][sched][-1] > 1.5
        # One core means no contention: slowdown exactly 1.
        assert abs(result["avg_slowdowns"][sched][0] - 1.0) < 1e-9
    # The chase core is always the worst-off one (unfairness > 1).
    for sched in result["schedulers"]:
        assert result["unfairness"][sched][-1] > 1.2
