#!/usr/bin/env python3
"""tRCD reduction end to end (the Section 8 case study).

1. characterize the DRAM module: find every row's minimum reliable
   tRCD through profiling requests (Figure 12);
2. load the weak rows into a Bloom filter (RAIDR-style, Section 8.2);
3. run a workload with the reduced-tRCD scheduler installed and compare
   against the nominal-timing baseline (Figure 13).

Run:  python examples/reduced_latency_dram.py [kernel]
"""

from __future__ import annotations

import sys

from repro import EasyDRAMSystem, jetson_nano_time_scaling
from repro.core.techniques import TrcdReductionTechnique
from repro.dram.timing import ns
from repro.profiling import characterize, oracle_characterize
from repro.workloads import polybench


def main() -> None:
    kernel = sys.argv[1] if len(sys.argv) > 1 else "gemver"
    config = jetson_nano_time_scaling()

    # --- stage 1: DRAM characterization ------------------------------------
    probe = EasyDRAMSystem(config)
    geometry = probe.config.geometry
    print("profiling a sample of rows through real profiling requests...")
    session = probe.session("characterize")
    sample = characterize(session, banks=range(1), rows=range(0, 64, 8),
                          cols_per_row_sampled=1)
    for (bank, row), profile in list(sample.profiles.items())[:4]:
        print(f"  bank {bank} row {row:4d}:"
              f" min reliable tRCD = {profile.min_trcd_ps / 1000:.1f} ns"
              f" ({'strong' if profile.is_strong() else 'weak'})")
    print("sweeping the full module (oracle-accelerated)...")
    full = oracle_characterize(probe.tile.cells, geometry,
                               range(geometry.num_banks),
                               range(geometry.rows_per_bank))
    strong = full.strong_fraction(threshold_ps=ns(9.0))
    print(f"  strong rows (<= 9.0 ns): {strong * 100:.1f}%"
          f"   weak rows: {(1 - strong) * 100:.1f}%"
          f"   (nominal tRCD: 13.5 ns)")

    # --- stage 2 + 3: Bloom filter + reduced-tRCD scheduling ---------------------
    base = EasyDRAMSystem(config).run(polybench.trace_blocks(kernel, "mini"),
                                      kernel)
    fast_system = EasyDRAMSystem(config)
    technique = TrcdReductionTechnique(fast_system, full)
    technique.install()
    print(f"\nBloom filter: {technique.bloom.size_bytes} bytes,"
          f" {technique.bloom.num_hashes} hashes,"
          f" est. false-positive rate"
          f" {technique.bloom.estimated_fp_rate() * 100:.2f}%")
    fast = fast_system.run(polybench.trace_blocks(kernel, "mini"), kernel)

    speedup = base.emulated_ps / fast.emulated_ps
    print(f"\n{kernel}: baseline {base.emulated_seconds * 1e3:.3f} ms"
          f" -> reduced-tRCD {fast.emulated_seconds * 1e3:.3f} ms"
          f"  (speedup {speedup:.4f}x)")
    print(f"  activations: {technique.stats.reduced_acts} reduced,"
          f" {technique.stats.nominal_acts} nominal,"
          f" {technique.stats.row_hits} row hits")
    print(f"  data integrity: "
          f"{fast_system.device.stats.unreliable_reads} unreliable reads"
          f" (must be 0 — the Bloom filter has no false negatives)")


if __name__ == "__main__":
    main()
