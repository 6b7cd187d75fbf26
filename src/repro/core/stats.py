"""Run results and derived metrics."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cpu.cache import CacheStats
from repro.dram.timing import PS_PER_S


@dataclass
class Breakdown:
    """Where a run's emulated time went (Figure 2's categories)."""

    processing_ps: int = 0    # compute + cache-hit time on the processor
    scheduling_ps: int = 0    # software-memory-controller logic
    main_memory_ps: int = 0   # DRAM Bender execution
    stall_ps: int = 0         # processor clock-gated beyond overlap

    @property
    def total_ps(self) -> int:
        return self.processing_ps + self.stall_ps

    def as_fractions(self) -> dict[str, float]:
        total = max(1, self.total_ps)
        return {
            "processing": self.processing_ps / total,
            "scheduling": min(self.scheduling_ps, self.stall_ps) / total,
            "main_memory": min(self.main_memory_ps, self.stall_ps) / total,
            "stall": self.stall_ps / total,
        }


@dataclass
class CoreResult:
    """One core's slice of a (possibly multi-core) run.

    ``slowdown`` is the contention metric of the multi-core literature:
    this core's completion cycles under the shared memory system divided
    by its cycles running the same workload alone on an identical
    system.  It is 0.0 (unknown) unless the session was given the solo
    reference cycles (see ``Session.solo_cycles``).
    """

    core: int
    workload_name: str
    cycles: int
    accesses: int = 0
    loads: int = 0
    stores: int = 0
    stall_cycles: int = 0
    llc_miss_requests: int = 0
    writeback_requests: int = 0
    avg_request_latency_cycles: float = 0.0
    #: Controller-side attribution (what the shared SMC did for this
    #: core): serviced requests and row-buffer outcomes.
    serviced_reads: int = 0
    serviced_writes: int = 0
    row_hits: int = 0
    row_misses: int = 0
    row_conflicts: int = 0
    #: Cycles(shared) / cycles(solo); 0.0 when no solo reference known.
    slowdown: float = 0.0

    @property
    def row_hit_rate(self) -> float:
        total = self.row_hits + self.row_misses + self.row_conflicts
        return self.row_hits / total if total else 0.0


class CoreServiceTracker:
    """Controller-side per-core counters for multi-core sessions.

    One instance is shared by every channel's controller; ``note`` is
    called once per serviced request (after row-buffer classification,
    before the command issues), so single-core systems — which never
    install a tracker — pay nothing on the hot path.
    """

    __slots__ = ("reads", "writes", "row_hits", "row_misses",
                 "row_conflicts")

    def __init__(self, cores: int) -> None:
        self.reads = [0] * cores
        self.writes = [0] * cores
        self.row_hits = [0] * cores
        self.row_misses = [0] * cores
        self.row_conflicts = [0] * cores

    def grow(self, cores: int) -> None:
        """Widen the counter arrays to ``cores`` entries."""
        for name in self.__slots__:
            arr = getattr(self, name)
            if len(arr) < cores:
                arr.extend([0] * (cores - len(arr)))

    def note(self, core: int, case: int, is_write: bool) -> None:
        """Record one serviced request (``case``: 0 hit/1 miss/2 conflict)."""
        if is_write:
            self.writes[core] += 1
        else:
            self.reads[core] += 1
        if case == 0:
            self.row_hits[core] += 1
        elif case == 1:
            self.row_misses[core] += 1
        else:
            self.row_conflicts[core] += 1


def fairness_of(slowdowns: list[float]) -> float:
    """Max/min slowdown (>= 1.0; 1.0 is perfectly fair, higher is worse).

    The standard unfairness metric of the memory-scheduling literature:
    the most-slowed core's slowdown over the least-slowed core's.
    Returns 0.0 when no slowdowns are known.
    """
    known = [s for s in slowdowns if s > 0.0]
    if not known:
        return 0.0
    return max(known) / min(known)


@dataclass
class RunResult:
    """Everything a finished emulation reports."""

    config_name: str
    workload_name: str
    cycles: int                      # emulated processor cycles
    emulated_ps: int                 # emulated wall time
    accesses: int
    loads: int
    stores: int
    stall_cycles: int
    llc_miss_requests: int
    writeback_requests: int
    avg_request_latency_cycles: float
    l1: CacheStats = field(default_factory=CacheStats)
    l2: CacheStats = field(default_factory=CacheStats)
    row_hits: int = 0
    row_misses: int = 0
    row_conflicts: int = 0
    refreshes: int = 0
    technique_ops: int = 0
    dram_commands: int = 0
    breakdown: Breakdown = field(default_factory=Breakdown)
    wall_seconds: float = 0.0
    estimated_fpga_seconds: float = 0.0
    #: Requests serviced by each channel's controller, channel-major
    #: (``[total]`` on the paper's single-channel topology).
    requests_per_channel: list[int] = field(default_factory=list)
    #: Per-core slices of a multi-core run (empty on the paper's
    #: single-core sessions, so every existing artifact is untouched).
    per_core: list[CoreResult] = field(default_factory=list)

    @property
    def slowdowns(self) -> list[float]:
        """Per-core slowdowns vs solo runs (empty unless multi-core)."""
        return [c.slowdown for c in self.per_core]

    @property
    def unfairness(self) -> float:
        """Max/min slowdown across cores (see :func:`fairness_of`)."""
        return fairness_of(self.slowdowns)

    @property
    def emulated_seconds(self) -> float:
        return self.emulated_ps / PS_PER_S

    @property
    def sim_speed_hz(self) -> float:
        """Simulation speed: emulated processor cycles per wall second."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.cycles / self.wall_seconds

    @property
    def mpk_accesses(self) -> float:
        """LLC misses per kilo memory accesses (memory-intensity proxy)."""
        if self.accesses == 0:
            return 0.0
        return 1000.0 * self.llc_miss_requests / self.accesses

    @property
    def cycles_per_access(self) -> float:
        if self.accesses == 0:
            return 0.0
        return self.cycles / self.accesses

    def speedup_over(self, baseline: "RunResult") -> float:
        """Execution-time speedup of this run relative to ``baseline``."""
        if self.emulated_ps == 0:
            return 0.0
        return baseline.emulated_ps / self.emulated_ps

    def summary(self) -> str:
        return (
            f"{self.config_name}/{self.workload_name}:"
            f" {self.cycles} cycles ({self.emulated_seconds * 1e3:.3f} ms),"
            f" {self.accesses} accesses, {self.llc_miss_requests} LLC misses,"
            f" avg mem latency {self.avg_request_latency_cycles:.1f} cyc")
