"""Benchmark: regenerate Figure 13 (tRCD-reduction speedup)."""

from repro.experiments import fig13_trcd_speedup
from repro.workloads import polybench


def test_fig13_trcd_speedup(once, full):
    kernels = (polybench.FIG13_KERNELS if full
               else polybench.FIG13_KERNELS[:6])
    result = once(fig13_trcd_speedup.run, kernels=kernels, size="mini")
    print()
    print(fig13_trcd_speedup.report(result))
    # Paper shape: low-single-digit average improvement on both
    # platforms (EasyDRAM +2.75%, Ramulator +2.58%), no regressions
    # beyond noise.
    assert 1.0 <= result["easydram_geomean"] < 1.12
    assert 0.99 <= result["ramulator_geomean"] < 1.12
    assert all(s > 0.97 for s in result["easydram"])
