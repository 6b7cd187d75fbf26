"""Benchmark: regenerate Figure 12 (minimum reliable tRCD heatmap)."""

from repro.experiments import fig12_trcd_heatmap


def test_fig12_trcd_heatmap(once, full):
    result = once(fig12_trcd_heatmap.run,
                  **fig12_trcd_heatmap.SWEEP.run_overrides(
                      {"banks": 2}, full=full))
    print()
    print(fig12_trcd_heatmap.report(result))
    # Paper findings: most rows strong (84.5%), the rest weak, and the
    # emulated profiling path agrees with the device's ground truth.
    assert 0.6 < result["strong_fraction"] < 0.98
    assert result["weak_fraction"] > 0.02
    assert result["emulated_sample_mismatches"] == 0
