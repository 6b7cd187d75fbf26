"""Figure 15 (extension) — memory-system channel scaling.

The paper's evaluated system is one DDR4 channel (footnote 5).  This
experiment extends the reproduction beyond the paper: the same
bandwidth-bound copy kernel runs on 1-, 2-, and 4-channel topologies
(``ddr4-Nch`` presets, ``channel-line`` interleave, identical
within-channel layout), and we report

* **emulated copy throughput** — bytes moved per emulated second.  With
  per-channel software memory controllers servicing their slices of
  every critical-mode batch on independent DRAM timelines, throughput
  must *increase* with channel count (channel-level parallelism);
* **request routing** — how the channel interleave spread the kernel's
  DRAM requests over the controllers (near-uniform for a stream);
* a **Figure-14-style axis** — host simulation speed (emulated processor
  cycles per wall second) at each channel count, isolating what the
  extra per-channel bookkeeping costs the host.

Like Figure 14, the host-speed column measures wall time, so the sweep
is ``parallel_safe=False``; the emulated columns are deterministic.
"""

from __future__ import annotations

from repro.analysis import bar_chart, format_table
from repro.core.config import jetson_nano_time_scaling
from repro.core.system import EasyDRAMSystem
from repro.experiments.common import full_runs_enabled, scaled_cache_overrides
from repro.runner import SweepPoint, SweepSpec, register
from repro.workloads import microbench

#: Channel counts swept (the fig14-style axis).
CHANNEL_COUNTS = (1, 2, 4)

#: Lines of the copy stream per channel-count point (the *total* work is
#: fixed across points so emulated times are directly comparable).
CI_LINES = 8_192            # 512 KiB footprint
FULL_LINES = 65_536         # 4 MiB footprint


def sweep_point(channels: int, total_lines: int) -> dict:
    """Copy-stream throughput on one ``channels``-wide topology.

    Built from the ``ddr4-1ch`` preset with the channel count overridden
    so any count — not just the preset 1/2/4 — sweeps cleanly.
    """
    config = jetson_nano_time_scaling(
        **scaled_cache_overrides()).with_topology(
        "ddr4-1ch", mapping_scheme="channel-line", channels=channels)
    system = EasyDRAMSystem(config)
    lines_per_channel = total_lines // channels
    trace = microbench.channel_stream_blocks(
        system.mapper, lines_per_channel, write=True)
    result = system.run(trace, workload_name=f"stream-{channels}ch")
    # The stream issues exactly lines_per_channel * channels lines; with
    # a channel count that does not divide total_lines the remainder is
    # dropped, so throughput must be computed from the issued work.
    bytes_moved = lines_per_channel * channels * config.geometry.line_bytes
    emulated_s = result.emulated_ps / 1e12
    return {
        "channels": channels,
        "bytes_moved": bytes_moved,
        "emulated_ms": result.emulated_ps / 1e9,
        "gbps": bytes_moved / emulated_s / 1e9 if emulated_s else 0.0,
        "host_mhz": result.sim_speed_hz / 1e6,
        "requests_per_channel": result.requests_per_channel,
        "stall_cycles": result.stall_cycles,
        "row_hits": result.row_hits,
    }


def _build_points(channel_counts: tuple[int, ...] = CHANNEL_COUNTS,
                  total_lines: int | None = None) -> tuple[SweepPoint, ...]:
    if total_lines is None:
        total_lines = FULL_LINES if full_runs_enabled() else CI_LINES
    return tuple(
        SweepPoint(artifact="fig15", point_id=f"{channels}ch",
                   fn=f"{__name__}:sweep_point",
                   params={"channels": channels, "total_lines": total_lines})
        for channels in channel_counts)


def _combine(results: dict) -> dict:
    ordered = sorted(results.values(), key=lambda v: v["channels"])
    base_gbps = ordered[0]["gbps"] if ordered else 0.0
    rows = []
    for value in ordered:
        speedup = value["gbps"] / base_gbps if base_gbps else 0.0
        balance = value["requests_per_channel"]
        rows.append((value["channels"], round(value["emulated_ms"], 4),
                     round(value["gbps"], 3), round(speedup, 2),
                     round(value["host_mhz"], 3),
                     "/".join(str(n) for n in balance)))
    return {
        "rows": rows,
        "channels": [v["channels"] for v in ordered],
        "gbps": [v["gbps"] for v in ordered],
        "speedups": [r[3] for r in rows],
        "host_mhz": [v["host_mhz"] for v in ordered],
        "requests_per_channel": {str(v["channels"]): v["requests_per_channel"]
                                 for v in ordered},
        "monotonic": all(b["gbps"] > a["gbps"]
                         for a, b in zip(ordered, ordered[1:])),
    }


def run(channel_counts: tuple[int, ...] = CHANNEL_COUNTS,
        total_lines: int | None = None) -> dict:
    points = _build_points(channel_counts=tuple(channel_counts),
                           total_lines=total_lines)
    return _combine({p.point_id: sweep_point(**p.params) for p in points})


SWEEP = register(SweepSpec(
    artifact="fig15", title="Figure 15 (channel scaling)", module=__name__,
    build_points=_build_points, combine=_combine,
    csv_headers=("channels", "emulated ms", "GB/s", "speedup vs 1ch",
                 "host MHz", "requests/channel"),
    description="beyond-paper channel scaling: stream throughput and host"
                " sim speed on 1/2/4-channel topologies",
    runtime="~1 s",
    parallel_safe=False,
    host_timed=("host_mhz", "rows.*.4")))


def report(result: dict) -> str:
    table = format_table(
        ["channels", "emulated ms", "GB/s", "speedup vs 1ch", "host MHz",
         "requests/channel"],
        result["rows"],
        title="Figure 15 — copy-stream throughput vs channel count")
    chart = bar_chart(
        [f"{c}ch" for c in result["channels"]],
        {"GB/s (emulated)": result["gbps"]},
        title="\nFigure 15 (chart)")
    tail = ("\nthroughput scales monotonically with channels"
            if result["monotonic"] else
            "\nWARNING: throughput did not scale monotonically")
    return table + "\n" + chart + tail


def main() -> None:  # pragma: no cover - CLI entry
    print(report(run()))


if __name__ == "__main__":  # pragma: no cover
    main()
