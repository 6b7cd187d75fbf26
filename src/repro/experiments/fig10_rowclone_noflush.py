"""Figure 10 — RowClone speedup, No-Flush setting.

Execution-time speedup of RowClone over the CPU baseline for Copy (a)
and Init (b) across array sizes, for three evaluation methodologies:
EasyDRAM without time scaling, EasyDRAM with time scaling, and the
cycle-level baseline simulator.

Paper shapes: without time scaling Copy averages ~307x and Init ~37x;
with time scaling Copy drops to ~15x and Init to ~1.8x; Ramulator lands
in between (27x / 17x) because it idealizes RowClone reliability.  The
headline: evaluation without faithful system modeling overstates the
technique by ~20x.
"""

from __future__ import annotations

from repro.analysis import bar_chart, format_table, geomean
from repro.core.config import jetson_nano_time_scaling, pidram_no_time_scaling
from repro.experiments.rowclone_common import (
    default_sizes,
    measure_easydram,
    measure_ramulator,
)
from repro.runner import SweepPoint, SweepSpec, register

SERIES = ("EasyDRAM - No Time Scaling", "EasyDRAM - Time Scaling",
          "Ramulator 2.0")

_SERIES_IDS = {"EasyDRAM - No Time Scaling": "no-ts",
               "EasyDRAM - Time Scaling": "ts",
               "Ramulator 2.0": "ramulator"}


def sweep_point(workload: str, size: int, series: str, clflush: bool) -> dict:
    """One (workload, size, methodology) measurement, JSON-ready."""
    if series == "no-ts":
        point = measure_easydram(
            pidram_no_time_scaling(), workload, size, clflush)
    elif series == "ts":
        point = measure_easydram(
            jetson_nano_time_scaling(), workload, size, clflush)
    elif series == "ramulator":
        point = measure_ramulator(workload, size, clflush)
    else:
        raise ValueError(f"unknown series {series!r}")
    return {"workload": workload, "size": size, "series": series,
            "cpu_ps": point.cpu_ps, "rowclone_ps": point.rowclone_ps,
            "speedup": point.speedup,
            "fallback_rows": point.fallback_rows,
            "total_rows": point.total_rows}


def _build_points(sizes: tuple[int, ...] | None = None,
                  clflush: bool = False,
                  artifact: str = "fig10") -> tuple[SweepPoint, ...]:
    sizes = tuple(sizes or default_sizes())
    return tuple(
        SweepPoint(
            artifact=artifact,
            point_id=f"{workload}-{size}-{_SERIES_IDS[name]}",
            fn=f"{__name__}:sweep_point",
            params={"workload": workload, "size": size,
                    "series": _SERIES_IDS[name], "clflush": clflush})
        for workload in ("copy", "init")
        for size in sizes
        for name in SERIES)


def _combine(results: dict, clflush: bool = False) -> dict:
    # Index payloads by the coordinates they carry (never parse ids).
    by_coord = {(v["workload"], v["size"], v["series"]): v
                for v in results.values()}
    sizes: list[int] = []
    for value in results.values():
        if value["size"] not in sizes:
            sizes.append(value["size"])
    out: dict = {"sizes": sizes, "clflush": clflush}
    for workload in ("copy", "init"):
        speedups: dict[str, list[float]] = {name: [] for name in SERIES}
        for size in sizes:
            for name in SERIES:
                value = by_coord[(workload, size, _SERIES_IDS[name])]
                speedups[name].append(value["speedup"])
        out[workload] = speedups
        out[f"{workload}_geomean"] = {
            name: geomean(vals) for name, vals in speedups.items()}
        out[f"{workload}_max"] = {
            name: max(vals) for name, vals in speedups.items()}
    return out


def run(sizes: tuple[int, ...] | None = None, clflush: bool = False) -> dict:
    """Measure Copy and Init speedups for every size and methodology."""
    points = _build_points(sizes=sizes, clflush=clflush)
    return _combine(
        {p.point_id: sweep_point(**p.params) for p in points}, clflush)


SWEEP = register(SweepSpec(
    artifact="fig10", title="Figure 10", module=__name__,
    build_points=_build_points, combine=_combine,
    description="RowClone speedup over CPU copy/init, No-Flush setting,"
                " three methodologies",
    runtime="~12 s"))


def report(result: dict, figure: str = "Figure 10",
           setting: str = "No Flush") -> str:
    sizes = result["sizes"]
    blocks = []
    for workload in ("copy", "init"):
        speedups = result[workload]
        rows = [
            [_size_label(s)] + [round(speedups[name][i], 2) for name in SERIES]
            for i, s in enumerate(sizes)
        ]
        rows.append(["geomean"] + [
            round(result[f"{workload}_geomean"][name], 2) for name in SERIES])
        rows.append(["max"] + [
            round(result[f"{workload}_max"][name], 2) for name in SERIES])
        blocks.append(format_table(
            ["size"] + list(SERIES), rows,
            title=f"{figure} ({setting}) — {workload} speedup over CPU"))
        blocks.append(bar_chart(
            [_size_label(s) for s in sizes],
            {name: speedups[name] for name in SERIES},
            log=True, title=f"{figure} — {workload} (log-scale bars)"))
    return "\n\n".join(blocks)


def _size_label(size: int) -> str:
    if size >= 1 << 20:
        return f"{size >> 20}M"
    return f"{size >> 10}K"


def main() -> None:  # pragma: no cover - CLI entry
    print(report(run()))


if __name__ == "__main__":  # pragma: no cover
    main()
