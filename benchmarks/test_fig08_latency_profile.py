"""Benchmark: regenerate Figure 8 (lmbench latency profile)."""

from repro.experiments import fig08_latency_profile
from repro.workloads import lmbench


def test_fig08_latency_profile(once, full):
    if full:
        sizes = lmbench.FIG8_SIZES_KIB
        max_accesses = 12_000
    else:
        sizes = (4, 16, 64, 256, 1024, 4096, 8192)
        max_accesses = 5_000
    result = once(fig08_latency_profile.run, sizes_kib=sizes,
                  max_accesses=max_accesses)
    print()
    print(fig08_latency_profile.report(result))
    series = result["series"]
    no_ts = series["EasyDRAM - No Time Scaling"]
    ts = series["EasyDRAM - Time Scaling"]
    a57 = series["Cortex A57"]
    # Paper shapes: No-TS deflates main-memory latency by >3x; time
    # scaling tracks the real A57's profile.
    assert a57[-1] > 3 * no_ts[-1]
    assert abs(ts[-1] - a57[-1]) / a57[-1] < 0.25
