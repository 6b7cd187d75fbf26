"""Ablation studies on EasyDRAM's design choices.

Beyond the paper's figures, these sweeps isolate the contribution of
individual mechanisms (DESIGN.md section 6):

* ``scheduler_ablation`` — FR-FCFS vs FCFS on a row-locality workload
  (why the software library ships FR-FCFS as the default);
* ``mlp_sweep`` — how the modeled core's memory-level parallelism bound
  shapes streaming throughput (the knob that separates the in-order
  No-Time-Scaling system from the A57 model);
* ``bloom_ablation`` — weak-row Bloom-filter size vs false-positive
  rate vs retained tRCD-reduction benefit (the RAIDR-style trade-off);
* ``quantization_sweep`` — time-scaling validation error vs the
  measurement clock, demonstrating that the <0.1 % residual of
  Section 6 is measurement-grid quantization.
"""

from __future__ import annotations

import numpy as np

from repro.analysis import format_table
from repro.core.config import jetson_nano_time_scaling, validation_reference
from repro.core.schedulers import make_scheduler
from repro.core.system import EasyDRAMSystem
from repro.core.techniques.trcd import TrcdReductionTechnique
from repro.core.timescale import ClockDomain
from repro.cpu.blocks import AccessBlock, BlockTrace
from repro.cpu.processor import ProcessorConfig
from repro.profiling.characterize import oracle_characterize
from repro.runner import SweepPoint, SweepSpec, register
from repro.workloads.microbench import cpu_copy_blocks


def _locality_trace(system, rows: int = 8,
                    lines_per_row: int = 48) -> BlockTrace:
    """Interleave accesses across a few rows of two banks: FR-FCFS can
    batch row hits that FCFS serves in arrival (thrashing) order."""
    mapper = system.mapper
    bases = np.array([mapper.row_base_physical(row % 2, 10 + row)
                      for row in range(rows)], dtype=np.int64)
    i = np.arange(rows * lines_per_row, dtype=np.int64)
    addr = bases[i % rows] + (i // rows % lines_per_row) * 64
    return BlockTrace([AccessBlock(addr, np.zeros_like(addr),
                                   np.ones_like(addr))])


def scheduler_ablation() -> dict:
    """FR-FCFS vs FCFS execution time on a row-locality workload."""
    times = {}
    for name in ("fr-fcfs", "fcfs"):
        system = EasyDRAMSystem(jetson_nano_time_scaling())
        system.smc.scheduler = make_scheduler(name)
        result = system.run(_locality_trace(system), f"sched-{name}")
        times[name] = result.emulated_ps
    return {
        "times_ps": times,
        "frfcfs_speedup": times["fcfs"] / times["fr-fcfs"],
        "rows": [(name, ps / 1e6) for name, ps in times.items()],
    }


def mlp_sweep(mlps: tuple[int, ...] = (1, 2, 4, 8, 16),
              size: int = 64 * 1024) -> dict:
    """Streaming-copy time vs the core's outstanding-miss bound."""
    rows = []
    times = []
    for mlp in mlps:
        config = jetson_nano_time_scaling(processor=ProcessorConfig(
            name=f"mlp{mlp}", emulated_freq_hz=1.43e9, fpga_freq_hz=100e6,
            mlp=mlp, miss_window=max(8, 6 * mlp)))
        system = EasyDRAMSystem(config)
        result = system.run(cpu_copy_blocks(0, 1 << 26, size), f"mlp-{mlp}")
        times.append(result.emulated_ps)
        rows.append((mlp, result.emulated_ps / 1e6,
                     round(times[0] / result.emulated_ps, 2)))
    return {"mlps": list(mlps), "times_ps": times, "rows": rows,
            "speedup_1_to_max": times[0] / times[-1]}


def bloom_ablation(fp_rates: tuple[float, ...] = (0.3, 0.1, 0.01, 0.001),
                   rows: int = 1024) -> dict:
    """Bloom-filter sizing: bytes vs false positives vs lost benefit."""
    probe = EasyDRAMSystem(jetson_nano_time_scaling())
    geometry = probe.config.geometry
    characterization = oracle_characterize(
        probe.tile.cells, geometry, range(geometry.num_banks), range(rows))
    strong = [(b, r) for (b, r), p in characterization.profiles.items()
              if p.min_trcd_ps <= 9000]
    out_rows = []
    for fp_rate in fp_rates:
        system = EasyDRAMSystem(jetson_nano_time_scaling())
        technique = TrcdReductionTechnique(
            system, characterization, bloom_fp_rate=fp_rate)
        demoted = sum(
            1 for bank, row in strong
            if technique.trcd_for(bank, row) == technique.nominal_trcd_ps)
        out_rows.append((fp_rate, technique.bloom.size_bytes,
                         technique.bloom.num_hashes,
                         round(demoted / len(strong), 4)))
    return {"rows": out_rows, "strong_rows": len(strong)}


def quantization_sweep(
        freqs_hz: tuple[float, ...] = (50e6, 100e6, 333e6, 1e9),
        accesses: int = 1500) -> dict:
    """Validation error vs the Bender measurement clock.

    The coarser the clock that measures DRAM durations, the larger the
    time-scaling residual — the mechanism behind Section 6's <0.1 %.
    """
    def trace() -> BlockTrace:
        addr = np.arange(accesses, dtype=np.int64) * 64
        return BlockTrace([AccessBlock(addr, np.zeros_like(addr),
                                       np.full_like(addr, 2))])

    ref = EasyDRAMSystem(validation_reference(
        bender_domain=ClockDomain("bender", 1e9, 1e9))).run(trace(), "ref")
    rows = []
    errors = []
    for freq in freqs_hz:
        config = validation_reference(
            name=f"meas-{freq / 1e6:.0f}MHz",
            bender_domain=ClockDomain("bender", freq, freq))
        result = EasyDRAMSystem(config).run(trace(), "q")
        err = abs(result.cycles - ref.cycles) / ref.cycles * 100
        errors.append(err)
        rows.append((f"{freq / 1e6:.0f} MHz", result.cycles, round(err, 4)))
    return {"rows": rows, "errors_pct": errors, "reference_cycles": ref.cycles}


#: The individual studies, in report order.
STUDIES = {
    "scheduler": scheduler_ablation,
    "mlp": mlp_sweep,
    "bloom": bloom_ablation,
    "quantization": quantization_sweep,
}


def sweep_point(study: str) -> dict:
    return STUDIES[study]()


def _build_points() -> tuple[SweepPoint, ...]:
    return tuple(
        SweepPoint(artifact="ablations", point_id=study,
                   fn=f"{__name__}:sweep_point", params={"study": study})
        for study in STUDIES)


def _combine(results: dict) -> dict:
    return dict(results)


def run() -> dict:
    """All four ablation studies, keyed by study name."""
    return _combine({p.point_id: sweep_point(**p.params)
                     for p in _build_points()})


SWEEP = register(SweepSpec(
    artifact="ablations", title="Ablations", module=__name__,
    build_points=_build_points, combine=_combine,
    description="beyond-paper ablations: FR-FCFS vs FCFS, pipelined-occupancy"
                " sweep, Bloom-filter false-positive-rate sweep",
    runtime="~1 s"))


def report(result: dict) -> str:
    blocks = []
    sched = result["scheduler"]
    blocks.append(format_table(
        ["scheduler", "exec us"], sched["rows"],
        title="Ablation — scheduler policy (row-locality workload)"))
    blocks.append(f"FR-FCFS speedup over FCFS: {sched['frfcfs_speedup']:.2f}x")
    blocks.append(format_table(
        ["mlp", "copy us", "speedup vs mlp=1"], result["mlp"]["rows"],
        title="\nAblation — memory-level parallelism (64 KiB copy)"))
    blocks.append(format_table(
        ["target fp rate", "filter bytes", "hashes", "strong rows demoted"],
        result["bloom"]["rows"], title="\nAblation — Bloom-filter sizing"))
    blocks.append(format_table(
        ["measurement clock", "cycles", "error %"],
        result["quantization"]["rows"],
        title="\nAblation — time-scaling error vs measurement clock"))
    return "\n".join(blocks)


def report_all() -> str:  # pragma: no cover - CLI convenience
    return report(run())


def main() -> None:  # pragma: no cover - CLI entry
    print(report_all())


if __name__ == "__main__":  # pragma: no cover
    main()
