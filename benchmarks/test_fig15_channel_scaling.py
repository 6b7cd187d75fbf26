"""Benchmark: regenerate Figure 15 (channel-scaling extension)."""

from repro.experiments import fig15_channel_scaling


def test_fig15_channel_scaling(once, full):
    result = once(fig15_channel_scaling.run,
                  **fig15_channel_scaling.SWEEP.run_overrides(full=full))
    print()
    print(fig15_channel_scaling.report(result))
    # The whole point of channel-level parallelism: emulated stream
    # throughput rises monotonically from 1 to 4 channels.
    assert result["monotonic"]
    assert result["speedups"][-1] > 1.5
    # The channel-line interleave balances the stream across channels.
    for counts in result["requests_per_channel"].values():
        assert min(counts) > 0.8 * max(counts)
