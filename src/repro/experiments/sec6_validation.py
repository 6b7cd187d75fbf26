"""Section 6 — time-scaling validation.

Compares EasyDRAM with time scaling (a 100 MHz FPGA processor emulating
1 GHz) against the RTL reference system (everything natively at 1 GHz,
same scheduling logic in hardware) across PolyBench workloads plus the
lmbench memory-read-latency microbenchmark.

Paper result: execution time and memory latency differ by <0.1 % on
average and <1 % at most across 29 microbenchmarks.  The residual error
comes from measuring DRAM durations on the FPGA clock grid.
"""

from __future__ import annotations

from repro.analysis import arith_mean, format_table
from repro.core.config import validation_reference, validation_time_scaled
from repro.core.system import EasyDRAMSystem
from repro.runner import SweepPoint, SweepSpec, register
from repro.workloads import lmbench, polybench


def _make_trace(workload: str, size: str):
    if workload == "lmbench-lat":
        return lmbench.pointer_chase_blocks(256 * 1024, 6000)
    return polybench.trace_blocks(workload, size)


def sweep_point(workload: str, size: str) -> dict:
    """Reference vs time-scaled run of one workload; error percentages."""
    ref = EasyDRAMSystem(validation_reference()).run(
        _make_trace(workload, size), workload)
    ts = EasyDRAMSystem(validation_time_scaled()).run(
        _make_trace(workload, size), workload)
    exec_err = abs(ts.cycles - ref.cycles) / ref.cycles * 100
    ref_lat = max(ref.avg_request_latency_cycles, 1e-9)
    lat_err = (abs(ts.avg_request_latency_cycles
                   - ref.avg_request_latency_cycles) / ref_lat * 100)
    return {"ref_cycles": ref.cycles, "ts_cycles": ts.cycles,
            "exec_err": exec_err, "lat_err": lat_err}


def _build_points(kernels: list[str] | None = None,
                  size: str = "mini") -> tuple[SweepPoint, ...]:
    names = list(kernels if kernels is not None else polybench.names())
    names.append("lmbench-lat")
    return tuple(
        SweepPoint(artifact="sec6", point_id=name,
                   fn=f"{__name__}:sweep_point",
                   params={"workload": name, "size": size})
        for name in names)


def _combine(results: dict) -> dict:
    rows = []
    exec_errors = []
    latency_errors = []
    for name, value in results.items():
        exec_errors.append(value["exec_err"])
        latency_errors.append(value["lat_err"])
        rows.append((name, value["ref_cycles"], value["ts_cycles"],
                     round(value["exec_err"], 4), round(value["lat_err"], 4)))
    return {
        "avg_exec_error_pct": arith_mean(exec_errors),
        "max_exec_error_pct": max(exec_errors),
        "avg_latency_error_pct": arith_mean(latency_errors),
        "max_latency_error_pct": max(latency_errors),
        "rows": rows,
    }


def run(kernels: list[str] | None = None, size: str = "mini") -> dict:
    """Run the validation sweep; returns per-workload error rows."""
    points = _build_points(kernels=kernels, size=size)
    return _combine({p.point_id: sweep_point(**p.params) for p in points})


SWEEP = register(SweepSpec(
    artifact="sec6", title="Section 6 validation", module=__name__,
    build_points=_build_points, combine=_combine,
    paper_overrides={"size": "small"},
    csv_headers=("workload", "ref cycles", "time-scaled cycles",
                 "exec err %", "mem-lat err %"),
    description="time-scaling validation: scaled 100 MHz system vs 1 GHz"
                " reference, <0.1% average error",
    runtime="~1 s"))


def report(result: dict) -> str:
    table = format_table(
        ["workload", "ref cycles", "time-scaled cycles",
         "exec err %", "mem-lat err %"],
        result["rows"],
        title="Section 6 — time scaling vs 1 GHz RTL reference")
    tail = (
        f"\naverage execution-time error: {result['avg_exec_error_pct']:.4f}%"
        f" (paper: <0.1%)"
        f"\nmaximum execution-time error: {result['max_exec_error_pct']:.4f}%"
        f" (paper: <1%)")
    return table + tail


def main() -> None:  # pragma: no cover - CLI entry
    print(report(run()))


if __name__ == "__main__":  # pragma: no cover
    main()
