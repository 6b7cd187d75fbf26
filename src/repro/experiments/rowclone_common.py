"""Shared measurement harness for the RowClone case study (Figs 10/11).

Each data point compares two program variants on a fresh system:

* **CPU** — copy/init with load/store instructions;
* **RowClone** — in-DRAM copy operations with CPU fallback for
  unclonable pairs.

Two settings bracket RowClone's benefit (Section 7.2):

* **No Flush** — source data is already in DRAM (cold caches): best
  case, no coherence work;
* **CLFLUSH** — the data has dirty cached copies that must be written
  back (RowClone variants flush; CPU variants enjoy the warm cache):
  worst case.

The Ramulator series reproduces the baseline's idealized methodology:
partial-workload cycle simulation for the CPU variant and an analytic
command-sequence cost for RowClone (every pair succeeds, no real-chip
characterization, footnote 6 not modeled).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.baselines.ramulator import RamulatorConfig, RamulatorSim
from repro.core.config import SystemConfig
from repro.core.system import EasyDRAMSystem
from repro.core.techniques.rowclone import RowCloneTechnique
from repro.workloads.microbench import (
    cpu_copy_blocks,
    cpu_init_blocks,
    touch_blocks,
)

#: Src/dst array anchors (DRAM-row aligned, far apart).
SRC_BASE = 0
DST_BASE = 1 << 26

#: A baseline-simulator access cap (the paper simulates 500M instructions
#: of much larger workloads; we cap and extrapolate the same way).
RAMULATOR_ACCESS_CAP = 60_000


#: Array sizes swept by Figures 10 and 11: 8 KiB to 2 MiB at CI scale,
#: to 16 MiB at paper scale.
CI_SIZES = tuple(8 * 1024 * (1 << i) for i in range(9))
PAPER_SIZES = tuple(8 * 1024 * (1 << i) for i in range(12))


@dataclass
class Point:
    """One (size, variant) measurement."""

    size: int
    cpu_ps: int
    rowclone_ps: int
    fallback_rows: int
    total_rows: int

    @property
    def speedup(self) -> float:
        return self.cpu_ps / self.rowclone_ps if self.rowclone_ps else 0.0


def _measured(session, phase) -> int:
    """Emulated picoseconds consumed by ``phase`` (warmup excluded)."""
    period = session._proc_period
    before = session.processor.cycles
    phase()
    return (session.processor.cycles - before) * period


def measure_easydram(config: SystemConfig, workload: str, size: int,
                     clflush: bool) -> Point:
    """One EasyDRAM data point (fresh systems for each variant)."""
    if workload not in ("copy", "init"):
        raise ValueError(f"unknown workload {workload!r}")
    # -- CPU variant ------------------------------------------------------
    sys_cpu = EasyDRAMSystem(config)
    ses_cpu = sys_cpu.session(f"cpu-{workload}")
    if clflush:
        # The data has live cached copies before the measured phase.
        warm_base = SRC_BASE if workload == "copy" else DST_BASE
        ses_cpu.run_trace(touch_blocks(warm_base, size, write=True))
    if workload == "copy":
        cpu_ps = _measured(ses_cpu, lambda: ses_cpu.run_trace(
            cpu_copy_blocks(SRC_BASE, DST_BASE, size)))
    else:
        cpu_ps = _measured(ses_cpu, lambda: ses_cpu.run_trace(
            cpu_init_blocks(DST_BASE, size)))
    # -- RowClone variant ----------------------------------------------------
    sys_rc = EasyDRAMSystem(config)
    ses_rc = sys_rc.session(f"rowclone-{workload}")
    tech = RowCloneTechnique(ses_rc)
    if workload == "copy":
        plan = tech.plan_copy(size, base_addr=SRC_BASE)
        total_rows = len(plan.pairs)
        if clflush:
            ses_rc.run_trace(touch_blocks(SRC_BASE, size, write=True))
        rc_ps = _measured(ses_rc, lambda: tech.execute_copy(
            plan, clflush=clflush))
    else:
        plan = tech.plan_init(size, base_addr=DST_BASE)
        total_rows = len(plan.targets)
        if clflush:
            ses_rc.run_trace(touch_blocks(DST_BASE, size, write=True))
        rc_ps = _measured(ses_rc, lambda: tech.execute_init(
            plan, clflush=clflush, include_source_setup=False))
    return Point(size=size, cpu_ps=cpu_ps, rowclone_ps=rc_ps,
                 fallback_rows=tech.stats.fallback_rows,
                 total_rows=total_rows)


def measure_ramulator(workload: str, size: int, clflush: bool) -> Point:
    """One baseline data point (idealized RowClone, partial simulation)."""
    lines = size // 64
    cap = RAMULATOR_ACCESS_CAP
    sim = RamulatorSim(RamulatorConfig(max_accesses=cap))
    if workload == "copy":
        trace = cpu_copy_blocks(SRC_BASE, DST_BASE, size)
        total_accesses = 2 * lines
    else:
        trace = cpu_init_blocks(DST_BASE, size)
        total_accesses = lines
    result = sim.run(trace, f"{workload}-{size}")
    # Extrapolate the capped simulation to the full size (the baseline's
    # partial-workload methodology).
    scale = max(1.0, total_accesses / max(1, result.accesses))
    cpu_cycles = result.cpu_cycles * scale
    rows = -(-size // (sim.config.geometry.row_bytes))
    ratio = sim.config.cpu_freq_hz / sim.config.mem_freq_hz
    rc_cycles = sim.rowclone_rows_cycles(rows) * ratio
    if clflush:
        # Dirty resident lines must be written back before the in-DRAM op.
        dirty_lines = min(size, sim.config.l2_size) // 64
        rc_cycles += dirty_lines * sim.model.c_ccd * ratio
        # The CPU variant benefits from the warm cache instead.
        resident = min(size, sim.config.l2_size)
        hit_fraction = resident / size
        cpu_cycles *= (1.0 - 0.5 * hit_fraction)
    cpu_period = 1e12 / sim.config.cpu_freq_hz
    return Point(size=size, cpu_ps=int(cpu_cycles * cpu_period),
                 rowclone_ps=int(rc_cycles * cpu_period),
                 fallback_rows=0, total_rows=rows)
