"""Table 1 — comparison of DRAM-technique evaluation platforms.

The qualitative columns come straight from the paper; the "evaluated CPU
clock cycles per second" column is *measured* where we model the
platform: EasyDRAM's estimated FPGA-wall throughput (the platform's
defining ~10M cycles/s figure) and the software simulator's measured
rate come from actual runs of this repository's engines.
"""

from __future__ import annotations

from repro.analysis import format_table
from repro.baselines.ramulator import RamulatorConfig, RamulatorSim
from repro.core.config import jetson_nano_time_scaling
from repro.core.system import EasyDRAMSystem
from repro.experiments.common import polybench_size
from repro.runner import SweepPoint, SweepSpec, register
from repro.workloads import polybench


def sweep_point(kernel: str, size: str) -> dict:
    """Measure both platforms' rates and build the whole table."""
    easy = EasyDRAMSystem(jetson_nano_time_scaling()).run(
        polybench.trace_blocks(kernel, size), kernel)
    ram = RamulatorSim(RamulatorConfig()).run(
        polybench.trace(kernel, size), kernel)
    # Cycles the modeled FPGA platform would evaluate per second of FPGA
    # wall time (the paper's Table 1 metric for hardware platforms).
    easy_fpga_rate = easy.cycles / max(easy.estimated_fpga_seconds, 1e-12)
    rows = [
        ("Commercial systems", "yes", "no", "billions", "yes", "no"),
        ("Software simulators", "no", "yes (C/C++)",
         f"~{_eng(ram.sim_speed_hz)} (measured, this host)", "yes", "yes"),
        ("FPGA-based simulators", "no", "no", "~4M - ~100M", "yes", "yes"),
        ("DRAM testing platforms", "DDR3/4", "no", "n/a", "no", "no"),
        ("FPGA-based emulators", "DDR3/4", "HDL", "50M - 200M", "no", "yes"),
        ("EasyDRAM (this work)", "DDR4", "yes (C/C++)",
         f"~{_eng(easy_fpga_rate)} (estimated FPGA wall)", "yes", "yes"),
    ]
    return {
        "rows": rows,
        "easydram_fpga_rate_hz": easy_fpga_rate,
        "ramulator_rate_hz": ram.sim_speed_hz,
    }


def run(kernel: str = "gemm", size: str | None = None) -> dict:
    return sweep_point(kernel, size or polybench_size())


def _build_points(kernel: str = "gemm",
                  size: str | None = None) -> tuple[SweepPoint, ...]:
    return (SweepPoint(
        artifact="tab01", point_id="table",
        fn=f"{__name__}:sweep_point",
        params={"kernel": kernel, "size": size or polybench_size()}),)


def _combine(results: dict) -> dict:
    return results["table"]


SWEEP = register(SweepSpec(
    artifact="tab01", title="Table 1", module=__name__,
    build_points=_build_points, combine=_combine,
    csv_headers=("platform", "real DRAM", "flexible MC", "CPU cycles/s",
                 "accurate perf", "configurable"),
    description="evaluation-platform comparison (measured cycles/second"
                " column)",
    runtime="~1 s",
    host_timed=("ramulator_rate_hz", "rows.1.3")))


def _eng(value: float) -> str:
    if value >= 1e9:
        return f"{value / 1e9:.1f}G"
    if value >= 1e6:
        return f"{value / 1e6:.1f}M"
    if value >= 1e3:
        return f"{value / 1e3:.1f}K"
    return f"{value:.0f}"


def report(result: dict) -> str:
    table = format_table(
        ["platform", "real DRAM", "flexible MC", "CPU cycles/s",
         "accurate perf", "configurable"],
        result["rows"],
        title="Table 1 — evaluation platform comparison")
    tail = (
        f"\nEasyDRAM estimated FPGA-wall rate:"
        f" {result['easydram_fpga_rate_hz'] / 1e6:.1f}M cycles/s"
        f" (paper: ~10M)")
    return table + tail


def main() -> None:  # pragma: no cover - CLI entry
    print(report(run()))


if __name__ == "__main__":  # pragma: no cover
    main()
