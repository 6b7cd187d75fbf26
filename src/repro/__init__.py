"""repro: a Python reproduction of EasyDRAM (DSN 2025).

EasyDRAM is an FPGA-based framework for fast and accurate end-to-end
evaluation of DRAM techniques on real DRAM chips.  This package rebuilds
the full system in simulation: the DDR4 device substrate, the DRAM
Bender command sequencer, the programmable software memory controller
with its EasyAPI, the time-scaling emulation engine, the RowClone and
tRCD-reduction case studies, and a cycle-level baseline simulator for
comparison.  See DESIGN.md for the system inventory and EXPERIMENTS.md
for the paper-vs-measured record.

Quickstart::

    from repro import jetson_nano_time_scaling, EasyDRAMSystem
    from repro.workloads import polybench

    system = EasyDRAMSystem(jetson_nano_time_scaling())
    result = system.run(polybench.trace_blocks("gemm"), workload_name="gemm")
    print(result.summary())
"""

from repro.core import (
    TOPOLOGIES,
    EasyDRAMSystem,
    RunResult,
    Session,
    SystemConfig,
    cortex_a57_reference,
    jetson_nano_time_scaling,
    pidram_no_time_scaling,
    preset,
    topology,
    validation_reference,
    validation_time_scaled,
)

__version__ = "1.0.0"

__all__ = [
    "EasyDRAMSystem",
    "TOPOLOGIES",
    "RunResult",
    "Session",
    "SystemConfig",
    "__version__",
    "cortex_a57_reference",
    "jetson_nano_time_scaling",
    "pidram_no_time_scaling",
    "preset",
    "topology",
    "validation_reference",
    "validation_time_scaled",
]
