"""Figure 13 — execution-time speedup with tRCD reduction.

Eleven PolyBench workloads run to completion on EasyDRAM - Time Scaling
with and without the reduced-tRCD scheduler (Bloom-filtered weak rows),
and on the cycle-level baseline (which simulates only a prefix of each
workload — one of the two reasons the paper gives for its per-workload
divergence, e.g. on correlation).

Paper results: EasyDRAM +2.75 % average (max +9.76 %); Ramulator +2.58 %
average (max +7.04 %).  The evaluated workloads are not memory-intensive
(2.2 LLC misses per kilo-cycle on average), so single-digit gains are
the expected shape.
"""

from __future__ import annotations

from functools import lru_cache

from repro.analysis import bar_chart, format_table, geomean
from repro.baselines.ramulator import RamulatorConfig, RamulatorSim
from repro.core.config import jetson_nano_time_scaling
from repro.core.system import EasyDRAMSystem
from repro.core.techniques.trcd import TrcdReductionTechnique
from repro.dram.timing import ns
from repro.experiments.common import scaled_cache_overrides
from repro.profiling.characterize import oracle_characterize
from repro.runner import SweepPoint, SweepSpec, register
from repro.workloads import polybench

KERNELS = polybench.FIG13_KERNELS

#: Baseline-simulator access cap (partial-workload simulation).
RAMULATOR_CAP = 120_000


def _config():
    return jetson_nano_time_scaling(**scaled_cache_overrides())


@lru_cache(maxsize=1)
def _characterization():
    """The full-geometry weak-row map (cells are seeded: deterministic
    across processes, so each pool worker derives the identical map)."""
    probe = EasyDRAMSystem(_config())
    geometry = probe.config.geometry
    characterization = oracle_characterize(
        probe.tile.cells, geometry, range(geometry.num_banks),
        range(geometry.rows_per_bank))
    reduced_c = -(-ns(9.0) // probe.config.timing.tCK)
    nominal_c = -(-probe.config.timing.tRCD // probe.config.timing.tCK)
    return characterization, reduced_c, nominal_c


def sweep_point(kernel: str, size: str) -> dict:
    """Baseline vs reduced-tRCD runs (EasyDRAM and Ramulator), one kernel."""
    characterization, reduced_c, nominal_c = _characterization()
    config = _config()
    base = EasyDRAMSystem(config).run(polybench.trace_blocks(kernel, size),
                                      kernel)
    sys_t = EasyDRAMSystem(config)
    technique = TrcdReductionTechnique(sys_t, characterization)
    technique.install()
    fast = sys_t.run(polybench.trace_blocks(kernel, size), kernel)
    easy = base.emulated_ps / fast.emulated_ps

    ram_base = RamulatorSim(RamulatorConfig(max_accesses=RAMULATOR_CAP)).run(
        polybench.trace_blocks(kernel, size), kernel)
    sim_fast = RamulatorSim(RamulatorConfig(max_accesses=RAMULATOR_CAP))
    sim_fast.controller.trcd_cycles_for = (
        lambda bank, row: reduced_c
        if characterization.min_trcd(bank, row) <= ns(9.0) else nominal_c)
    ram_fast = sim_fast.run(polybench.trace_blocks(kernel, size), kernel)
    ram = ram_base.cpu_cycles / max(1, ram_fast.cpu_cycles)
    return {
        "easydram": easy,
        "ramulator": ram,
        "mpk_accesses": base.mpk_accesses,
        "reduced_acts": technique.stats.reduced_acts,
        "nominal_acts": technique.stats.nominal_acts,
    }


def _build_points(kernels: tuple[str, ...] = KERNELS,
                  size: str = "mini") -> tuple[SweepPoint, ...]:
    return tuple(
        SweepPoint(artifact="fig13", point_id=kernel,
                   fn=f"{__name__}:sweep_point",
                   params={"kernel": kernel, "size": size})
        for kernel in kernels)


def _combine(results: dict) -> dict:
    rows = []
    easy_speedups: list[float] = []
    ram_speedups: list[float] = []
    for name, value in results.items():
        easy_speedups.append(value["easydram"])
        ram_speedups.append(value["ramulator"])
        rows.append((name, round(value["easydram"], 4),
                     round(value["ramulator"], 4),
                     round(value["mpk_accesses"], 2),
                     value["reduced_acts"], value["nominal_acts"]))
    rows.append(("geomean", round(geomean(easy_speedups), 4),
                 round(geomean(ram_speedups), 4), "", "", ""))
    return {
        "rows": rows,
        "kernels": list(results),
        "easydram": easy_speedups,
        "ramulator": ram_speedups,
        "easydram_geomean": geomean(easy_speedups),
        "ramulator_geomean": geomean(ram_speedups),
    }


def run(kernels: tuple[str, ...] = KERNELS, size: str = "mini") -> dict:
    points = _build_points(kernels=tuple(kernels), size=size)
    return _combine({p.point_id: sweep_point(**p.params) for p in points})


SWEEP = register(SweepSpec(
    artifact="fig13", title="Figure 13", module=__name__,
    build_points=_build_points, combine=_combine,
    paper_overrides={"size": "small"},
    csv_headers=("workload", "EasyDRAM speedup", "Ramulator speedup",
                 "LLC-miss/kacc", "reduced ACTs", "nominal ACTs"),
    description="execution-time speedup with reduced-tRCD scheduling on"
                " PolyBench kernels",
    runtime="~6 s"))


def report(result: dict) -> str:
    table = format_table(
        ["workload", "EasyDRAM speedup", "Ramulator speedup",
         "LLC-miss/kacc", "reduced ACTs", "nominal ACTs"],
        result["rows"],
        title="Figure 13 — tRCD-reduction speedup (1.0 = baseline)")
    chart = bar_chart(
        result["kernels"],
        {"EasyDRAM": result["easydram"], "Ramulator 2.0": result["ramulator"]},
        title="\nFigure 13 (chart)")
    tail = (f"\nEasyDRAM geomean: {result['easydram_geomean']:.4f}"
            f" (paper: +2.75% avg)"
            f"\nRamulator geomean: {result['ramulator_geomean']:.4f}"
            f" (paper: +2.58% avg)")
    return table + "\n" + chart + tail


def main() -> None:  # pragma: no cover - CLI entry
    print(report(run()))


if __name__ == "__main__":  # pragma: no cover
    main()
