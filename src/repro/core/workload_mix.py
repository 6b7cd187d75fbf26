"""Multi-core workload mixes: the shared-memory scenario engine.

The paper's evaluation drives every artifact from a single in-order
core, so the memory system is never contended.  This module opens the
multi-core axis: a :class:`WorkloadMix` names one workload per core
(``"stream+pointer_chase"``, homogeneous ``"gemm*4"``), each core gets a
disjoint slice of the physical address space (private caches, no
coherence traffic to model), and :func:`run_mix` executes the mix on one
shared memory system — plus each workload *solo* on an identical
system, which is the baseline the per-core slowdown and the max/min
fairness metrics are defined against:

    slowdown_i  = cycles_i(mix) / cycles_i(solo)
    unfairness  = max_i slowdown_i / min_i slowdown_i

Workloads are block-native (:class:`~repro.cpu.blocks.BlockTrace`), and
because a mix run needs every trace at least twice (solo + shared), the
runner materializes each workload's blocks once and replays them
(:class:`~repro.cpu.blocks.MaterializedBlocks`).  PolyBench kernels
participate by name — their blocks are rebased into the issuing core's
region.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator

from repro.core.config import SystemConfig
from repro.core.stats import RunResult, fairness_of
from repro.core.system import EasyDRAMSystem
from repro.cpu.blocks import AccessBlock, BlockTrace, MaterializedBlocks
from repro.workloads import lmbench, microbench, polybench

__all__ = ["CORE_REGION_BYTES", "MixRun", "WorkloadMix", "mix_names",
           "run_mix"]

#: Disjoint physical-address slice owned by each core.  The default
#: geometry holds 512 MiB per channel, so even an 8-core mix stays well
#: inside a single channel's decode range.
CORE_REGION_BYTES = 8 * 1024 * 1024

#: A named workload: ``factory(base_addr, scale) -> BlockTrace``.
#: ``scale`` multiplies the CI-scale footprint/access count (paper-scale
#: sweeps pass a larger value); the trace must stay inside
#: ``[base_addr, base_addr + CORE_REGION_BYTES)``.
Factory = Callable[[int, int], BlockTrace]

WORKLOADS: dict[str, Factory] = {}

#: CI-scale sizing shared by the built-in workloads.
_STREAM_BYTES = 256 * 1024          # copy: 2 x 256 KiB footprint
_CHASE_WS_BYTES = 128 * 1024        # pointer chase working set
_CHASE_ACCESSES = 6_000


def _workload(name: str):
    """Register a named workload factory."""

    def wrap(fn: Factory) -> Factory:
        WORKLOADS[name] = fn
        return fn

    return wrap


@_workload("stream")
def _stream(base: int, scale: int) -> BlockTrace:
    """Bandwidth hog: streaming copy (load + store per line, row hits)."""
    size = _STREAM_BYTES * scale
    return microbench.cpu_copy_blocks(base, base + size, size)


@_workload("init")
def _init(base: int, scale: int) -> BlockTrace:
    """Store stream: fill a region line by line."""
    return microbench.cpu_init_blocks(base, 2 * _STREAM_BYTES * scale)


@_workload("touch")
def _touch(base: int, scale: int) -> BlockTrace:
    """Read stream: touch every line of a region once."""
    return microbench.touch_blocks(base, 2 * _STREAM_BYTES * scale)


@_workload("pointer_chase")
def _pointer_chase(base: int, scale: int) -> BlockTrace:
    """Latency victim: dependent loads, no memory-level parallelism."""
    return lmbench.pointer_chase_blocks(
        _CHASE_WS_BYTES, _CHASE_ACCESSES * scale, base_addr=base)


def _polybench_factory(kernel: str) -> Factory:
    """A PolyBench kernel as a mix workload (rebased per core).

    The kernel builders lay arrays out from a fixed bump-allocator base,
    so each block's addresses are shifted by the core's region base;
    footprints (tens of KiB at the mix's "small" dataset) sit far below
    the region size.
    """

    def make(base: int, scale: int) -> BlockTrace:
        size = "small" if scale > 1 else "mini"
        return BlockTrace(
            AccessBlock(block.addr + base, block.flags, block.gap)
            for block in polybench.trace_blocks(kernel, size))

    return make


def mix_names() -> list[str]:
    """Every workload name a mix may reference (built-ins + PolyBench)."""
    return sorted(WORKLOADS) + polybench.names()


def lookup(name: str) -> Factory:
    """Resolve a workload name to its factory."""
    try:
        return WORKLOADS[name]
    except KeyError:
        pass
    if name in polybench.KERNELS:
        return _polybench_factory(name)
    known = ", ".join(mix_names())
    raise ValueError(f"unknown mix workload {name!r}; known: {known}")


@dataclass(frozen=True)
class WorkloadMix:
    """One named workload per core."""

    names: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.names:
            raise ValueError("a workload mix needs at least one core")
        for name in self.names:
            lookup(name)  # fail fast on typos

    @classmethod
    def parse(cls, spec: str, cores: int | None = None) -> "WorkloadMix":
        """Build a mix from a spec string.

        ``"stream+pointer_chase"`` pairs two cores; ``"gemm*4"`` is a
        homogeneous quad; the forms compose (``"stream*2+gemm"``).
        With ``cores`` set, the parsed list is cycled to that core
        count — ``("stream", "pointer_chase")`` at 4 cores alternates
        the two workloads.
        """
        names: list[str] = []
        for part in spec.split("+"):
            part = part.strip()
            if not part:
                raise ValueError(f"empty workload in mix spec {spec!r}")
            name, _, count = part.partition("*")
            name = name.strip()
            repeat = int(count) if count else 1
            if repeat < 1:
                raise ValueError(f"bad repeat in mix spec part {part!r}")
            names.extend([name] * repeat)
        if cores is not None:
            if cores < 1:
                raise ValueError("cores must be >= 1")
            names = [names[i % len(names)] for i in range(cores)]
        return cls(tuple(names))

    @property
    def cores(self) -> int:
        return len(self.names)

    def label(self) -> str:
        return "+".join(self.names)

    def region_base(self, core: int) -> int:
        """Base physical address of one core's private region."""
        return core * CORE_REGION_BYTES

    def build(self, core: int, scale: int = 1) -> BlockTrace:
        """Instantiate core ``core``'s trace inside its region.

        The stream is bounds-checked block by block: a workload whose
        ``scale`` pushes it past ``CORE_REGION_BYTES`` would silently
        alias another core's "disjoint" footprint and invalidate every
        slowdown/fairness number, so escaping the region raises instead.
        """
        name = self.names[core]
        base = self.region_base(core)
        trace = lookup(name)(base, scale)

        def bounded() -> Iterator:
            hi = base + CORE_REGION_BYTES
            for block in trace:
                addr = block.addr
                if len(addr) and not (base <= int(addr.min())
                                      and int(addr.max()) < hi):
                    raise ValueError(
                        f"workload {name!r} on core {core} escaped its"
                        f" region [{base:#x}, {hi:#x}) — reduce scale or"
                        f" grow CORE_REGION_BYTES")
                yield block

        return BlockTrace(bounded())


@dataclass
class MixRun:
    """Everything one mix execution produced.

    ``result`` is the contended run's :class:`RunResult` (its
    ``per_core`` slices carry the same slowdowns when the mix has more
    than one core); the flat lists below also cover the degenerate
    1-core mix, whose solo baseline is the run itself.
    """

    mix: WorkloadMix
    result: RunResult
    core_cycles: list[int]
    solo_cycles: list[int] = field(default_factory=list)

    @property
    def slowdowns(self) -> list[float]:
        if not self.solo_cycles:
            return []
        return [shared / solo for shared, solo
                in zip(self.core_cycles, self.solo_cycles)]

    @property
    def avg_slowdown(self) -> float:
        s = self.slowdowns
        return sum(s) / len(s) if s else 0.0

    @property
    def max_slowdown(self) -> float:
        return max(self.slowdowns, default=0.0)

    @property
    def min_slowdown(self) -> float:
        return min(self.slowdowns, default=0.0)

    @property
    def unfairness(self) -> float:
        """Max/min slowdown (1.0 = perfectly fair)."""
        return fairness_of(self.slowdowns)


def run_mix(config: SystemConfig, mix: WorkloadMix, engine: str | None = None,
            scale: int = 1, solo: bool = True) -> MixRun:
    """Execute a workload mix under contention (plus its solo baselines).

    Builds one fresh :class:`EasyDRAMSystem` per run — each solo
    baseline and the shared run — so every run starts from identical
    cold state.  The shared run adds one session core per mix entry and
    drives them through the engine's round-robin arbitration
    (:meth:`Session.run_cores`).
    """
    traces: list[Callable[[], BlockTrace]] = [
        MaterializedBlocks(mix.build(core, scale)).trace
        for core in range(mix.cores)]

    solo_cycles: list[int] = []
    if solo:
        for core in range(mix.cores):
            system = EasyDRAMSystem(config, engine=engine)
            session = system.session(f"{mix.names[core]}-solo", engine=engine)
            session.run_cores([traces[core]()])
            solo_cycles.append(session.processor.cycles)

    system = EasyDRAMSystem(config, engine=engine)
    session = system.session(mix.label(), engine=engine)
    session.cores[0].workload_name = mix.names[0]
    for core in range(1, mix.cores):
        session.add_core(mix.names[core])
    if solo and mix.cores > 1:
        session.solo_cycles = dict(enumerate(solo_cycles))
    session.run_cores([make() for make in traces])
    core_cycles = [c.processor.cycles for c in session.cores]
    return MixRun(mix=mix, result=session.finish(),
                  core_cycles=core_cycles, solo_cycles=solo_cycles)
