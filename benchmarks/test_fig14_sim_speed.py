"""Benchmark: regenerate Figure 14 (simulation speed comparison)."""

from repro.experiments import fig14_sim_speed
from repro.workloads import polybench


def test_fig14_simulation_speed(once, full):
    kernels = (polybench.FIG13_KERNELS if full
               else polybench.FIG13_KERNELS[:6] + ("durbin",))
    kernels = tuple(dict.fromkeys(kernels))  # dedupe, keep order
    result = once(fig14_sim_speed.run, kernels=kernels, size="mini")
    print()
    print(fig14_sim_speed.report(result))
    # Paper shape: the event-driven emulator beats the cycle-level
    # simulator on average (paper: 5.9x), most on compute-bound kernels.
    assert result["mean_ratio"] > 1.0
    ratios = dict(zip(result["kernels"], result["speed_ratios"]))
    assert ratios["durbin"] >= result["mean_ratio"] * 0.5
