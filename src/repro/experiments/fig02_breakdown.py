"""Figure 2 — execution-time breakdown of memory requests.

The paper plots this figure qualitatively to motivate time scaling; we
measure it: the same memory-intensive microworkload runs on four system
models and each reports where a request's time goes —

1. **Real system** — native clocks, hardware memory controller;
2. **FPGA + RTL memory controller** — slow 50 MHz processor, but the
   controller is hardware (tiny scheduling cost);
3. **FPGA + software memory controller** — the controller's software
   cost is fully exposed and serialized (the PiDRAM pathology);
4. **FPGA + software MC + time scaling** — EasyDRAM: the breakdown
   matches the real system again.

Expected shape: (2) and especially (3) inflate total time, with (3)
dominated by scheduling; (4) restores (1)'s proportions.
"""

from __future__ import annotations

from repro.analysis import format_table
from repro.core.config import (
    cortex_a57_reference,
    jetson_nano_time_scaling,
    pidram_no_time_scaling,
)
from repro.core.easyapi import CostModel
from repro.core.system import EasyDRAMSystem
from repro.runner import SweepPoint, SweepSpec, register
from repro.workloads.lmbench import pointer_chase_blocks

_RTL_COSTS = CostModel(
    poll=0, receive_request=1, enqueue_response=1, address_map=0,
    table_insert=0, command_insert=0, flush=1, per_instruction_transfer=0,
    readback=0, critical_toggle=0)


def _configs():
    rtl = pidram_no_time_scaling()
    rtl = rtl.with_overrides(name="FPGA + RTL MC")
    return (
        ("Real system", cortex_a57_reference(), None),
        ("FPGA + RTL MC", rtl, _RTL_COSTS),
        ("FPGA + software MC", pidram_no_time_scaling(), None),
        ("FPGA + software MC + Time Scaling", jetson_nano_time_scaling(), None),
    )


def _measure(name: str, accesses: int, working_set: int):
    """One system model's breakdown row (and the full result)."""
    config, costs = next(
        (config, costs) for n, config, costs in _configs() if n == name)
    system = EasyDRAMSystem(config, costs=costs)
    result = system.run(
        pointer_chase_blocks(working_set, accesses), "fig02-chase")
    total_ms = result.emulated_ps / 1e9
    b = result.breakdown
    per_req_ns = (result.avg_request_latency_cycles
                  / config.processor.emulated_freq_hz * 1e9)
    sched_share = b.scheduling_ps / max(1, result.emulated_ps)
    dram_share = b.main_memory_ps / max(1, result.emulated_ps)
    row = (name, round(total_ms, 4),
           round(result.avg_request_latency_cycles, 1),
           round(per_req_ns, 1),
           round(100 * sched_share, 1),
           round(100 * dram_share, 1),
           round(100 * result.stall_cycles / result.cycles, 1))
    return row, result


def sweep_point(model: str, accesses: int, working_set: int) -> dict:
    row, _ = _measure(model, accesses, working_set)
    return {"row": row}


def run(accesses: int = 4000, working_set: int = 2 * 1024 * 1024) -> dict:
    """Measure the per-request breakdown on a dependent-load stream."""
    rows = []
    details = {}
    for name, _config, _costs in _configs():
        row, result = _measure(name, accesses, working_set)
        rows.append(row)
        details[name] = result
    return {"rows": rows, "details": details}


def _build_points(accesses: int = 4000,
                  working_set: int = 2 * 1024 * 1024) -> tuple[SweepPoint, ...]:
    return tuple(
        SweepPoint(
            artifact="fig02", point_id=f"model-{i}",
            fn=f"{__name__}:sweep_point",
            params={"model": name, "accesses": accesses,
                    "working_set": working_set})
        for i, (name, _config, _costs) in enumerate(_configs()))


def _combine(results: dict) -> dict:
    return {"rows": [value["row"] for value in results.values()]}


SWEEP = register(SweepSpec(
    artifact="fig02", title="Figure 2", module=__name__,
    build_points=_build_points, combine=_combine,
    csv_headers=("system", "exec ms", "mem latency (cycles)",
                 "mem latency (ns)", "sched %", "DRAM %", "stalled %"),
    description="execution-time breakdown of a memory request on four"
                " system models",
    runtime="~0.6 s"))


def report(result: dict) -> str:
    table = format_table(
        ["system", "exec ms", "mem latency (cycles)", "mem latency (ns)",
         "sched %", "DRAM %", "stalled %"],
        result["rows"],
        title="Figure 2 — where a memory request's time goes, 4 system models")
    notes = (
        "\nExpected shape: the software-MC FPGA system inflates latency"
        " (scheduling-dominated);\nthe RTL-MC FPGA system shrinks DRAM's"
        " share (too few processor cycles pass);\ntime scaling restores"
        " the real system's proportions.")
    return table + notes


def main() -> None:  # pragma: no cover - CLI entry
    print(report(run()))


if __name__ == "__main__":  # pragma: no cover
    main()
