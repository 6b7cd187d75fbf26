#!/usr/bin/env python3
"""RowClone end to end: in-DRAM bulk copy vs CPU load/store copy.

Reproduces the Section 7 case-study flow on one array size:

1. allocate clonable source/destination row pairs (solving the
   alignment / granularity / mapping constraints of Section 7.1);
2. execute the copy with in-DRAM RowClone operations (plus CLFLUSH
   coherence in the worst-case setting);
3. verify the destination rows byte-for-byte against the source;
4. compare against a CPU copy of the same size on a fresh system.

Run:  python examples/rowclone_bulk_copy.py [size_kib]
"""

from __future__ import annotations

import sys

from repro import EasyDRAMSystem, jetson_nano_time_scaling
from repro.core.techniques import RowCloneTechnique
from repro.workloads.microbench import cpu_copy_blocks, touch_blocks

SRC, DST = 0, 1 << 26


def main() -> None:
    size_kib = int(sys.argv[1]) if len(sys.argv) > 1 else 64
    size = size_kib * 1024

    # --- CPU baseline -----------------------------------------------------
    cpu_system = EasyDRAMSystem(jetson_nano_time_scaling())
    cpu = cpu_system.run(cpu_copy_blocks(SRC, DST, size), "cpu-copy")
    print(f"CPU copy of {size_kib} KiB: {cpu.emulated_seconds * 1e6:.2f} us"
          f" ({cpu.accesses} ld/st accesses,"
          f" {cpu.llc_miss_requests} DRAM fills)")

    # --- RowClone, best case (data already in DRAM) ----------------------------
    rc_system = EasyDRAMSystem(jetson_nano_time_scaling())
    session = rc_system.session("rowclone-copy")
    technique = RowCloneTechnique(session)
    plan = technique.plan_copy(size, base_addr=SRC)
    reliable = sum(1 for p in plan.pairs if p.reliable)
    print(f"\nallocation: {len(plan.pairs)} row pairs,"
          f" {reliable} clonable, {len(plan.pairs) - reliable} CPU-fallback")
    technique.execute_copy(plan, clflush=False)
    rc = session.finish()
    assert technique.copy_is_correct(plan), "destination rows must match!"
    print(f"RowClone copy (No Flush): {rc.emulated_seconds * 1e6:.2f} us"
          f" -> speedup {cpu.emulated_ps / rc.emulated_ps:.1f}x"
          f"  (data verified in DRAM)")

    # --- RowClone, worst case (dirty cached copies must be flushed) -------------
    fl_system = EasyDRAMSystem(jetson_nano_time_scaling())
    fl_session = fl_system.session("rowclone-clflush")
    fl_technique = RowCloneTechnique(fl_session)
    fl_plan = fl_technique.plan_copy(size, base_addr=SRC)
    fl_session.run_trace(touch_blocks(SRC, size, write=True))  # dirty the src
    start = fl_session.processor.cycles
    fl_technique.execute_copy(fl_plan, clflush=True)
    flush_result = fl_session.finish()
    measured = (flush_result.cycles - start) * 699 / 1e6
    print(f"RowClone copy (CLFLUSH):  {measured:.2f} us"
          f" ({fl_technique.stats.flushed_lines} dirty lines written back)")


if __name__ == "__main__":
    main()
