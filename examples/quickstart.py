#!/usr/bin/env python3
"""Quickstart: emulate a PolyBench kernel on EasyDRAM.

Builds the default time-scaled system (a BOOM core emulated as the
Jetson Nano's 1.43 GHz Cortex A57 over DDR4-1333), runs one workload to
completion, and prints the execution statistics an end-to-end DRAM-
technique evaluation is based on.

Run:  python examples/quickstart.py [kernel] [size]
"""

from __future__ import annotations

import sys

from repro import EasyDRAMSystem, jetson_nano_time_scaling
from repro.workloads import polybench


def main() -> None:
    kernel = sys.argv[1] if len(sys.argv) > 1 else "gemm"
    size = sys.argv[2] if len(sys.argv) > 2 else "mini"

    config = jetson_nano_time_scaling()
    system = EasyDRAMSystem(config)
    print(f"system: {config.name}")
    print(f"  processor: {config.processor.name}"
          f" ({config.processor_domain.fpga_freq_hz / 1e6:.0f} MHz FPGA"
          f" -> {config.processor.emulated_freq_hz / 1e9:.2f} GHz emulated)")
    print(f"  caches: L1D {config.l1.size_bytes // 1024} KiB,"
          f" L2 {config.l2.size_bytes // 1024} KiB")
    print(f"  DRAM: {config.timing.name},"
          f" {config.geometry.num_banks} banks x"
          f" {config.geometry.rows_per_bank} rows")
    print(f"running PolyBench {kernel!r} ({size} dataset)...\n")

    result = system.run(polybench.trace_blocks(kernel, size),
                        workload_name=kernel)

    print(result.summary())
    print(f"  emulated time:     {result.emulated_seconds * 1e3:.3f} ms")
    print(f"  L1D hit rate:      {1 - result.l1.miss_rate:.3f}")
    print(f"  L2 hit rate:       {1 - result.l2.miss_rate:.3f}")
    print(f"  LLC misses/kacc:   {result.mpk_accesses:.2f}")
    print(f"  row buffer:        {result.row_hits} hits,"
          f" {result.row_misses} misses, {result.row_conflicts} conflicts")
    print(f"  refreshes issued:  {result.refreshes}")
    print(f"  DRAM commands:     {result.dram_commands}")
    print(f"  simulation speed:  {result.sim_speed_hz / 1e6:.2f} MHz"
          f" (emulated cycles / host second)")


if __name__ == "__main__":
    main()
