"""Benchmark: regenerate Figure 10 (RowClone speedups, No Flush)."""

from repro.experiments import fig10_rowclone_noflush


def test_fig10_rowclone_noflush(once, full):
    result = once(fig10_rowclone_noflush.run,
                  **fig10_rowclone_noflush.SWEEP.run_overrides(full=full))
    print()
    print(fig10_rowclone_noflush.report(result))
    copy = result["copy_geomean"]
    init = result["init_geomean"]
    no_ts, ts = ("EasyDRAM - No Time Scaling", "EasyDRAM - Time Scaling")
    # The headline: evaluation without faithful system modeling skews
    # RowClone's benefit by an order of magnitude (paper: ~20x).
    assert copy[no_ts] / copy[ts] > 5
    # Copy with time scaling lands in the paper's ~15x ballpark.
    assert 5 < copy[ts] < 60
    # Init gains are far smaller than copy gains in every methodology.
    assert init[ts] < copy[ts]
    assert init[no_ts] < copy[no_ts]
    # The idealized baseline sits between the extremes on copy.
    assert copy[ts] < copy["Ramulator 2.0"] * 3
    assert copy["Ramulator 2.0"] < copy[no_ts]
