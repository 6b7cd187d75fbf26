"""Figure 8 — memory latency profile (lmbench-style).

Average cycles per load instruction for growing working-set sizes on:

* ``EasyDRAM - No Time Scaling`` — the 50 MHz system; few processor
  cycles pass while DRAM serves a request, so main memory looks absurdly
  fast;
* ``EasyDRAM - Time Scaling`` — the Cortex-A57 model; and
* ``Cortex A57`` — the real Jetson Nano board (our native-clock
  reference configuration with its 2 MiB L2).

Expected shape: all three step up at the L1 and L2 boundaries; in the
main-memory region the No-Time-Scaling line sits far below the other
two, while Time Scaling tracks the A57 reference (the A57's L2 is 2 MiB
vs EasyDRAM's 512 KiB, so their L2->DRAM steps differ).
"""

from __future__ import annotations

from repro.analysis import format_table, line_chart
from repro.core.config import (
    cortex_a57_reference,
    jetson_nano_time_scaling,
    pidram_no_time_scaling,
)
from repro.core.system import EasyDRAMSystem
from repro.runner import SweepPoint, SweepSpec, register
from repro.workloads import lmbench, microbench

CONFIGS = (
    ("EasyDRAM - No Time Scaling", pidram_no_time_scaling),
    ("EasyDRAM - Time Scaling", jetson_nano_time_scaling),
    ("Cortex A57", cortex_a57_reference),
)


def sweep_point(config: str, size_kib: int, max_accesses: int) -> dict:
    """Steady-state cycles/load for one (configuration, size) point.

    Like the real ``lat_mem_rd``, each point reports steady state: the
    working set is touched once (untimed warm-up) before the dependent
    chase is measured, so capacity — not compulsory misses — decides
    where each cache step appears.
    """
    factory = dict(CONFIGS)[config]
    size = size_kib * 1024
    accesses = lmbench.accesses_for(size, max_accesses=max_accesses)
    system = EasyDRAMSystem(factory())
    session = system.session(f"lat-{size_kib}KiB")
    session.run_trace(microbench.touch_blocks(0, size))
    before_cycles = session.processor.cycles
    before_accesses = session.processor.stats.accesses
    session.run_trace(lmbench.pointer_chase_blocks(size, accesses, base_addr=0))
    result = session.finish()
    cycles = result.cycles - before_cycles
    measured = result.accesses - before_accesses
    return {"config": config, "size_kib": size_kib,
            "cycles_per_load": cycles / measured}


def _build_points(sizes_kib: tuple[int, ...] = lmbench.FIG8_SIZES_KIB,
                  max_accesses: int = 12_000) -> tuple[SweepPoint, ...]:
    return tuple(
        SweepPoint(
            artifact="fig08", point_id=f"{name}-{size_kib}KiB".lower()
            .replace(" ", ""),
            fn=f"{__name__}:sweep_point",
            params={"config": name, "size_kib": size_kib,
                    "max_accesses": max_accesses})
        for size_kib in sizes_kib for name, _factory in CONFIGS)


def _combine(results: dict) -> dict:
    # Each point's payload carries its own (config, size) coordinates,
    # so combining never parses point ids.
    series: dict[str, list[float]] = {name: [] for name, _ in CONFIGS}
    sizes_kib: list[int] = []
    for value in results.values():
        if value["size_kib"] not in sizes_kib:
            sizes_kib.append(value["size_kib"])
        series[value["config"]].append(value["cycles_per_load"])
    return {"sizes_kib": sizes_kib, "series": series}


def run(sizes_kib: tuple[int, ...] = lmbench.FIG8_SIZES_KIB,
        max_accesses: int = 12_000) -> dict:
    """Measure steady-state cycles/load per size per configuration."""
    points = _build_points(sizes_kib=tuple(sizes_kib),
                           max_accesses=max_accesses)
    return _combine({p.point_id: sweep_point(**p.params) for p in points})


SWEEP = register(SweepSpec(
    artifact="fig08", title="Figure 8", module=__name__,
    build_points=_build_points, combine=_combine,
    description="lmbench memory-latency profile: No-Time-Scaling vs"
                " Time-Scaling vs the real Cortex A57",
    runtime="~1 s"))


def report(result: dict) -> str:
    sizes = result["sizes_kib"]
    series = result["series"]
    rows = [
        [f"{s} KiB"] + [round(series[name][i], 1) for name, _ in CONFIGS]
        for i, s in enumerate(sizes)
    ]
    table = format_table(
        ["size"] + [name for name, _ in CONFIGS], rows,
        title="Figure 8 — average cycles per load vs working-set size")
    chart = line_chart(
        sizes, series, title="\nFigure 8 (chart)",
        ylabel="cycles per LD instruction")
    return table + "\n" + chart


def main() -> None:  # pragma: no cover - CLI entry
    print(report(run()))


if __name__ == "__main__":  # pragma: no cover
    main()
