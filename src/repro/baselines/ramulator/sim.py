"""Cycle loop of the baseline simulator.

Ticks the DRAM controller every memory-clock cycle and the core at the
CPU/memory clock ratio, exactly the structure of a conventional
cycle-level DRAM simulator.  The per-cycle stepping is what makes the
baseline slower than EasyDRAM's event-driven emulation — the property
Figure 14 measures.

Workloads arrive as :class:`~repro.cpu.blocks.BlockTrace` streams, the
same access blocks the emulator replays; ``max_accesses`` cuts the
stream (:func:`~repro.cpu.blocks.cut`) before the core reads it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterable

from repro.baselines.ramulator.controller import FrFcfsController, MemRequest
from repro.baselines.ramulator.dram_model import DramTimingModel
from repro.baselines.ramulator.frontend import CoreFrontend
from repro.cpu.blocks import AccessBlock, cut
from repro.cpu.cache import Cache, CacheHierarchy
from repro.dram.address import AddressMapper, Geometry
from repro.dram.timing import TimingParams, ddr4_1333


@dataclass
class RamulatorConfig:
    """Configuration of the baseline simulated system."""

    name: str = "Ramulator2.0-like"
    cpu_freq_hz: float = 1.43e9
    timing: TimingParams = field(default_factory=ddr4_1333)
    geometry: Geometry = field(default_factory=Geometry)
    mapping_scheme: str = "row-bank-col-skew"
    l1_size: int = 32 * 1024
    l1_assoc: int = 4
    l2_size: int = 512 * 1024
    l2_assoc: int = 8
    mlp: int = 8
    #: Simulate at most this many accesses (partial-workload simulation,
    #: the baseline's standard methodology per Section 8.3).  None = all.
    max_accesses: int | None = None

    @property
    def mem_freq_hz(self) -> float:
        # Command clock: half the data rate.
        return self.timing.data_rate_mts * 1e6 / 2


@dataclass
class BaselineResult:
    """What one baseline simulation reports."""

    config_name: str
    workload_name: str
    cpu_cycles: int
    mem_cycles: int
    accesses: int
    llc_misses: int
    stall_cycles: int
    reads: int
    writes: int
    refreshes: int
    avg_read_latency_mem_cycles: float
    wall_seconds: float

    @property
    def sim_speed_hz(self) -> float:
        """Simulated CPU cycles per wall second (Figure 14's metric)."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.cpu_cycles / self.wall_seconds


class RamulatorSim:
    """One baseline simulation instance."""

    def __init__(self, config: RamulatorConfig | None = None) -> None:
        self.config = config or RamulatorConfig()
        cfg = self.config
        self.model = DramTimingModel(cfg.timing, cfg.geometry)
        self.mapper = AddressMapper(cfg.geometry, cfg.mapping_scheme)
        self.controller = FrFcfsController(self.model, self.mapper)
        l1 = Cache("L1D", cfg.l1_size, cfg.l1_assoc, 64, 2)
        l2 = Cache("L2", cfg.l2_size, cfg.l2_assoc, 64, 12)
        self.hierarchy = CacheHierarchy(l1, l2)
        self._rid = 0
        self._mem_now = 0
        self._retry: list[MemRequest] = []

    # -- core -> controller ------------------------------------------------------

    def _issue_miss(self, addr: int, is_write: bool,
                    core: CoreFrontend | None):
        """Create (and enqueue, space permitting) one DRAM request.

        Requests that find a full queue park in a retry list and enter
        the queue as soon as space frees up.
        """
        self._rid += 1
        request = MemRequest(
            rid=self._rid,
            dram=self.mapper.to_dram(addr),
            is_write=is_write,
            arrive_cycle=self._mem_now,
        )
        if core is not None and not is_write:
            request.on_complete = core.notify_complete
        if self.controller.can_accept(is_write):
            self.controller.enqueue(request)
        else:
            self._retry.append(request)
        return request if not is_write else None

    # -- main loop ----------------------------------------------------------------

    def run(self, trace: Iterable[AccessBlock],
            workload_name: str = "workload") -> BaselineResult:
        """Simulate a block trace (a :class:`~repro.cpu.blocks.BlockTrace`
        or any iterable of blocks) to completion."""
        cfg = self.config
        if cfg.max_accesses is not None:
            trace = cut(trace, cfg.max_accesses)
        core = CoreFrontend(self.hierarchy, trace, self._issue_miss, mlp=cfg.mlp)
        ratio = cfg.cpu_freq_hz / cfg.mem_freq_hz
        wall_start = time.perf_counter()
        cpu_cycles = 0
        cpu_credit = 0.0
        guard = 0
        while not (core.done and not self.controller.busy):
            self._mem_now += 1
            self.controller.tick(self._mem_now)
            self._drain_retries()
            cpu_credit += ratio
            while cpu_credit >= 1.0:
                cpu_credit -= 1.0
                core.tick(cpu_cycles)
                cpu_cycles += 1
            guard += 1
            if guard > 2_000_000_000:  # pragma: no cover - safety valve
                raise RuntimeError("baseline simulation did not terminate")
        wall = time.perf_counter() - wall_start
        stats = self.controller.stats
        reads = max(1, stats.reads)
        return BaselineResult(
            config_name=cfg.name,
            workload_name=workload_name,
            cpu_cycles=cpu_cycles,
            mem_cycles=self._mem_now,
            accesses=core.stats.accesses,
            llc_misses=core.stats.llc_misses,
            stall_cycles=core.stats.stall_cycles,
            reads=stats.reads,
            writes=stats.writes,
            refreshes=stats.refreshes,
            avg_read_latency_mem_cycles=stats.total_read_latency / reads,
            wall_seconds=wall,
        )

    def _drain_retries(self) -> None:
        if not self._retry:
            return
        still = []
        for request in self._retry:
            if self.controller.can_accept(request.is_write):
                self.controller.enqueue(request)
            else:
                still.append(request)
        self._retry = still

    # -- idealized RowClone (Figures 10/11's Ramulator series) ----------------------

    def rowclone_rows_cycles(self, n_rows: int) -> int:
        """Memory cycles an idealized RowClone of ``n_rows`` takes.

        The baseline has no real-chip characterization: every pair
        clones successfully (Section 7.2), so the cost is just the
        ACT -> PRE -> ACT -> tRAS -> PRE sequence per row.
        """
        m = self.model
        per_row = 2 + m.c_ras + m.c_rp  # ACT,PRE,ACT back to back + settle
        return n_rows * per_row
