"""Figure 14 — simulation speed of EasyDRAM vs the cycle-level baseline.

Simulation speed = simulated processor cycles per wall-clock second, in
MHz, for the Figure 13 workloads.  Paper results: EasyDRAM averages
5.9x (max 20.3x) faster than Ramulator 2.0, with the gap growing as the
workload's memory intensity falls (durbin, at 0.01 LLC misses per
kilo-cycle, shows the maximum) — an emulator whose processor runs at
its own speed until it gates on a miss skips the compute phases that a
cycle-level simulator must tick through.

In this reproduction both "platforms" are Python models, so absolute
MHz is far below the paper's FPGA numbers; the *relative* gap and its
correlation with memory intensity are the reproduced shape.

The sweep also carries an **engine-comparison axis**: every kernel is
emulated twice, once on the event engine's batched serve ladder and once
on the cycle engine's object reference (see :mod:`repro.core.engine`).
The two engines return bit-identical artifacts, so the extra column
isolates the host-time win of the production serve path on this host —
the same argument Figure 14 makes for EasyDRAM against Ramulator, one
level down.
"""

from __future__ import annotations

import os

from repro.analysis import bar_chart, format_table, geomean
from repro.baselines.ramulator import RamulatorConfig, RamulatorSim
from repro.core.config import jetson_nano_time_scaling
from repro.core.system import EasyDRAMSystem
from repro.cpu.blocks import BlockTrace
from repro.cpu.memtrace import take
from repro.experiments.common import polybench_size, scaled_cache_overrides
from repro.runner import SweepPoint, SweepSpec, register
from repro.workloads import polybench

KERNELS = polybench.FIG13_KERNELS
RAMULATOR_CAP = 60_000

#: Keep sampling a platform until its accumulated wall time reaches this
#: floor.  The fast path finishes mini kernels in single-digit
#: milliseconds, where one-shot rates are dominated by scheduler jitter;
#: best-of-N over a fixed window keeps the reported rate stable run to
#: run.  The round cap only bounds pathological cases — it must be high
#: enough that millisecond-scale runs actually fill the window.
MIN_MEASURE_SECONDS = 0.1
MAX_MEASURE_ROUNDS = 100


def _best_rates(*runs) -> list[tuple[float, object]]:
    """Best (max) sim rate of each platform over its measurement window.

    The platforms are timed in interleaved rounds — one run of every
    platform still short of ``MIN_MEASURE_SECONDS`` per round — so a
    burst of other load on the host lands on all of them alike instead
    of on whichever one happened to be sampling.
    """
    best_hz = [0.0] * len(runs)
    results: list[object] = [None] * len(runs)
    spent = [0.0] * len(runs)
    for _ in range(MAX_MEASURE_ROUNDS):
        sampling = [i for i in range(len(runs))
                    if spent[i] < MIN_MEASURE_SECONDS]
        if not sampling:
            break
        for i in sampling:
            result = results[i] = runs[i]()
            spent[i] += result.wall_seconds
            best_hz[i] = max(best_hz[i], result.sim_speed_hz)
    return list(zip(best_hz, results))


def sweep_point(kernel: str, size: str) -> dict:
    """Wall-clock simulation speed of both platforms on one kernel.

    Note: unlike every other sweep, these values measure *this host's*
    wall time, so they vary run to run (caching still makes re-runs
    reproducible — the cached measurement is returned verbatim).  The
    sweep is marked ``parallel_safe=False`` so concurrent workers never
    contend for cores while a point is timing itself.
    """
    config = jetson_nano_time_scaling(**scaled_cache_overrides())
    # Each platform times simulation only: the kernel's trace is built
    # once, up front, and every timed run replays the same accesses.
    blocks = list(polybench.trace_blocks(kernel, size))
    accesses = list(take(BlockTrace(blocks).accesses(), RAMULATOR_CAP))
    # The serve kernel (REPRO_KERNEL) collapses memory-service host time
    # so far that it would swamp the engine-comparison axis this figure
    # isolates — the memory-bound kernels would suddenly "gain" the most,
    # inverting the intensity correlation that is the reproduced shape.
    # Both platforms measure with it pinned off; every *artifact*-bearing
    # experiment runs it as usual (results are bit-identical regardless).
    prior = os.environ.get("REPRO_KERNEL")
    os.environ["REPRO_KERNEL"] = "0"
    try:
        (easy_hz, easy), (cycle_hz, _), (ram_hz, _) = _best_rates(
            lambda: EasyDRAMSystem(config, engine="event").run(
                BlockTrace(blocks), kernel),
            lambda: EasyDRAMSystem(config, engine="cycle").run(
                BlockTrace(blocks), kernel),
            lambda: RamulatorSim(RamulatorConfig(
                max_accesses=RAMULATOR_CAP)).run(iter(accesses), kernel))
    finally:
        if prior is None:
            os.environ.pop("REPRO_KERNEL", None)
        else:
            os.environ["REPRO_KERNEL"] = prior
    return {
        "easydram_mhz": easy_hz / 1e6,
        "easydram_cycle_mhz": cycle_hz / 1e6,
        "ramulator_mhz": ram_hz / 1e6,
        "mpk_accesses": easy.mpk_accesses,
    }


def _build_points(kernels: tuple[str, ...] = KERNELS,
                  size: str | None = None) -> tuple[SweepPoint, ...]:
    size = size or polybench_size()
    return tuple(
        SweepPoint(artifact="fig14", point_id=kernel,
                   fn=f"{__name__}:sweep_point",
                   params={"kernel": kernel, "size": size})
        for kernel in kernels)


def _combine(results: dict) -> dict:
    rows = []
    easy_speeds: list[float] = []
    cycle_speeds: list[float] = []
    ram_speeds: list[float] = []
    ratios: list[float] = []
    engine_speedups: list[float] = []
    for name, value in results.items():
        easy_mhz = value["easydram_mhz"]
        cycle_mhz = value.get("easydram_cycle_mhz", 0.0)
        ram_mhz = value["ramulator_mhz"]
        easy_speeds.append(easy_mhz)
        cycle_speeds.append(cycle_mhz)
        ram_speeds.append(ram_mhz)
        ratio = easy_mhz / ram_mhz if ram_mhz else 0.0
        ratios.append(ratio)
        engine_speedup = easy_mhz / cycle_mhz if cycle_mhz else 0.0
        engine_speedups.append(engine_speedup)
        rows.append((name, round(easy_mhz, 3), round(cycle_mhz, 3),
                     round(ram_mhz, 3), round(ratio, 2),
                     round(engine_speedup, 2),
                     round(value["mpk_accesses"], 2)))
    rows.append(("geomean", round(geomean(easy_speeds), 3),
                 round(geomean(cycle_speeds), 3),
                 round(geomean(ram_speeds), 3),
                 round(geomean(ratios), 2),
                 round(geomean(engine_speedups), 2), ""))
    return {
        "rows": rows,
        "kernels": list(results),
        "easydram_mhz": easy_speeds,
        "easydram_cycle_mhz": cycle_speeds,
        "ramulator_mhz": ram_speeds,
        "speed_ratios": ratios,
        "engine_speedups": engine_speedups,
        "mean_ratio": geomean(ratios),
        "max_ratio": max(ratios),
        "mean_engine_speedup": geomean(engine_speedups),
    }


def run(kernels: tuple[str, ...] = KERNELS, size: str | None = None) -> dict:
    points = _build_points(kernels=tuple(kernels), size=size)
    return _combine({p.point_id: sweep_point(**p.params) for p in points})


SWEEP = register(SweepSpec(
    artifact="fig14", title="Figure 14", module=__name__,
    build_points=_build_points, combine=_combine,
    csv_headers=("workload", "EasyDRAM (event) MHz", "EasyDRAM (cycle) MHz",
                 "Ramulator MHz", "ratio", "engine speedup",
                 "LLC-miss/kacc"),
    description="simulation speed vs the cycle-level baseline, plus the"
                " event-vs-cycle engine comparison",
    runtime="~3 s",
    parallel_safe=False,
    host_timed=("easydram_mhz", "easydram_cycle_mhz", "ramulator_mhz",
                "speed_ratios", "engine_speedups", "mean_ratio", "max_ratio",
                "mean_engine_speedup", "rows.*.1", "rows.*.2", "rows.*.3",
                "rows.*.4", "rows.*.5")))


def report(result: dict) -> str:
    table = format_table(
        ["workload", "EasyDRAM (event) MHz", "EasyDRAM (cycle) MHz",
         "Ramulator MHz", "ratio", "engine speedup", "LLC-miss/kacc"],
        result["rows"],
        title="Figure 14 — simulation speed (simulated cycles / wall second)")
    chart = bar_chart(
        result["kernels"],
        {"EasyDRAM": result["easydram_mhz"],
         "Ramulator 2.0": result["ramulator_mhz"]},
        log=True, title="\nFigure 14 (chart, log scale)")
    tail = (f"\nEasyDRAM is {result['mean_ratio']:.1f}x faster on average"
            f" (paper: 5.9x), max {result['max_ratio']:.1f}x (paper: 20.3x)")
    engine = result.get("mean_engine_speedup")
    if engine:
        tail += (f"\nEvent engine vs cycle engine (object reference):"
                 f" {engine:.1f}x host speedup (bit-identical artifacts)")
    return table + "\n" + chart + tail


def main() -> None:  # pragma: no cover - CLI entry
    print(report(run()))


if __name__ == "__main__":  # pragma: no cover
    main()
