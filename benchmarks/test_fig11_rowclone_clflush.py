"""Benchmark: regenerate Figure 11 (RowClone speedups, CLFLUSH)."""

from repro.experiments import fig11_rowclone_clflush


def test_fig11_rowclone_clflush(once, full):
    result = once(fig11_rowclone_clflush.run,
                  **fig11_rowclone_clflush.SWEEP.run_overrides(full=full))
    print()
    print(fig11_rowclone_clflush.report(result))
    ts = "EasyDRAM - Time Scaling"
    copy = result["copy"][ts]
    init = result["init"][ts]
    # Coherence overhead compresses copy speedups (paper: ~3-4x vs 15x)
    # and grows milder as the array size grows.
    assert copy[-1] > copy[0] * 0.8
    assert max(copy) < 40
    # Init degrades (speedup < 1) at the smallest sizes under CLFLUSH.
    assert init[0] < 1.2
    # ... and recovers with size.
    assert init[-1] > init[0]
