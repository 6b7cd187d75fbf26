"""EasyDRAMSystem: the end-to-end emulation engine.

Wires the processor model, the EasyTile (buffers + Bender + DRAM), the
software memory controller, and the time-scaling counters into the
execution flow of Figures 5 and 6:

1. the processor executes until it is blocked on an unserviced
   last-level-cache miss (clock gating);
2. the software memory controller enters critical mode and services
   every pending request, tagging each response with the processor cycle
   at which it may be consumed;
3. the processor resumes, consuming responses at their release cycles.

A :class:`Session` additionally supports the mixed CPU/technique flows
the case studies need: running trace segments, flushing cache lines
(CLFLUSH), and executing technique operations (RowClone, profiling
requests) as critical-mode episodes.

How the host walks that flow is delegated to an emulation engine
(:mod:`repro.core.engine`): the event engine's production serve path by
default, or the object reference via ``engine="cycle"``.  Engine choice
never changes results — only how fast the host produces them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence

from repro.bender.engine import ExecResult
from repro.core.channels import Channel, ChannelSet
from repro.core.config import SystemConfig
from repro.core.easyapi import CostModel, EasyAPI
from repro.core.engine import EmulationDeadlock, make_engine, resolve_engine_name
from repro.core.smc import TECHNIQUE_ISSUE_CYCLES, SoftwareMemoryController
from repro.core.stats import Breakdown, CoreResult, CoreServiceTracker, RunResult
from repro.core.tile import EasyTile
from repro.core.timescale import TimeScalingCounters
from repro.cpu.cache import Cache, CacheHierarchy, CacheStats
from repro.cpu.memtrace import Trace
from repro.cpu.processor import MemoryRequest, Processor, latency_sum
from repro.dram.address import AddressMapper
from repro.dram.timing import PS_PER_S, period_ps

__all__ = ["EasyDRAMSystem", "EmulationDeadlock", "Session", "SessionCore"]

#: Request id of a CLFLUSH range's first writeback (the rest count up).
_WRITEBACK_RID = 1 << 30


class EasyDRAMSystem:
    """One configured EasyDRAM instance (hardware + software controller).

    ``engine`` selects how the host executes the emulation — ``"event"``
    (resident replay and the batched serve ladder, default) or
    ``"cycle"`` (the object reference).  Both engines produce
    bit-identical results; see :mod:`repro.core.engine`.
    ``kernel=False`` keeps every controller of this system off the
    compiled kernel (:mod:`repro.dram.kernel`): its serve paths then run
    in Python, with the same results.  ``engine="cycle", kernel=False``
    is the object reference oracle.

    Topology follows ``config.geometry``: one tile + software memory
    controller pair per channel, all sharing one topology-wide address
    mapper and one set of time-scaling counters.  On the paper's
    single-channel system :attr:`smc` *is* the lone controller; with
    ``channels > 1`` it is a :class:`~repro.core.channels.ChannelSet`
    routing each request to its channel's controller.
    """

    def __init__(self, config: SystemConfig,
                 costs: CostModel | None = None,
                 engine: str | None = None,
                 kernel: bool = True) -> None:
        self.config = config
        self.engine_name = resolve_engine_name(engine)
        self.counters = TimeScalingCounters()
        mapper = AddressMapper(config.geometry, config.mapping_scheme)
        self.channels: list[Channel] = []
        for index in range(config.geometry.channels):
            tile = EasyTile(config, mapper=mapper, channel=index)
            api = EasyAPI(tile, costs=costs)
            smc = SoftwareMemoryController(config, tile, api, self.counters,
                                           kernel=kernel)
            self.channels.append(Channel(index, tile, api, smc))
        first = self.channels[0]
        self.tile = first.tile
        self.api = first.api
        self.smc = (first.smc if len(self.channels) == 1
                    else ChannelSet(self.channels))

    # -- topology ----------------------------------------------------------

    @property
    def num_channels(self) -> int:
        return len(self.channels)

    @property
    def tiles(self) -> list[EasyTile]:
        return [c.tile for c in self.channels]

    @property
    def smcs(self) -> list[SoftwareMemoryController]:
        return [c.smc for c in self.channels]

    def smc_for(self, channel: int) -> SoftwareMemoryController:
        """The software memory controller driving one channel."""
        return self.channels[channel].smc

    def device_for(self, channel: int):
        """One channel's DRAM device."""
        return self.channels[channel].tile.device

    # -- convenience -------------------------------------------------------

    def session(self, workload_name: str = "workload",
                engine: str | None = None) -> "Session":
        """Start a fresh execution session (resets processor-side state).

        ``engine`` overrides the system's engine for this session only —
        the equivalence tests use this to run the same system definition
        under both engines.
        """
        return Session(self, workload_name,
                       engine=engine if engine is not None else self.engine_name)

    def run(self, trace: Trace, workload_name: str = "workload") -> RunResult:
        """Run a single trace to completion and return its results."""
        session = self.session(workload_name)
        session.run_trace(trace)
        return session.finish()

    @property
    def mapper(self):
        return self.tile.mapper

    @property
    def device(self):
        return self.tile.device


@dataclass
class SessionCore:
    """One emulated core of a session: processor + private caches."""

    index: int
    workload_name: str
    processor: Processor
    hierarchy: CacheHierarchy


class Session:
    """A running emulation: processor state persists across trace segments.

    A session starts single-core — :attr:`processor` and
    :attr:`hierarchy` are core 0, and every paper artifact drives
    exactly that path.  :meth:`add_core` grows the session into a
    multi-core shared-memory scenario: each core gets private caches and
    its own MLP-gated request stream, all cores share the memory system
    (channels, controllers, DRAM), and :meth:`run_cores` drives them
    under round-robin issue arbitration at the SMC boundary.
    """

    def __init__(self, system: EasyDRAMSystem, workload_name: str,
                 engine: str | None = None) -> None:
        self.system = system
        self.workload_name = workload_name
        config = system.config
        self.cores: list[SessionCore] = []
        first = self._make_core(workload_name)
        self.hierarchy = first.hierarchy
        self.processor = first.processor
        self.engine = make_engine(engine if engine is not None
                                  else system.engine_name)
        self._pending: list[MemoryRequest] = []
        self._core_tracker: CoreServiceTracker | None = None
        #: Optional per-core solo reference cycles (``{core index:
        #: cycles}``) — when set before :meth:`finish`, per-core
        #: slowdowns (shared cycles / solo cycles) are reported.
        self.solo_cycles: dict[int, int] | None = None
        self._wall_start = time.perf_counter()
        self._proc_period = period_ps(config.processor.emulated_freq_hz)

    def _make_core(self, workload_name: str) -> SessionCore:
        config = self.system.config
        l1 = Cache("L1D", config.l1.size_bytes, config.l1.assoc,
                   config.l1.line_bytes, config.l1.hit_latency)
        l2 = Cache("L2", config.l2.size_bytes, config.l2.assoc,
                   config.l2.line_bytes, config.l2.hit_latency)
        hierarchy = CacheHierarchy(l1, l2, memory_fill_latency=2)
        processor = Processor(config.processor, hierarchy, trace=(),
                              core_id=len(self.cores))
        # Bulk-decode each block's DRAM-bound addresses into the
        # mapper's memo as soon as the cache filter produces them.
        processor.prime_hook = self.system.mapper.prime
        if self.system.num_channels > 1:
            # Tag every DRAM request with its decoded channel at issue
            # time; the ChannelSet routes on the tag without re-decoding.
            processor.channel_hook = self.system.mapper.channel_of
        core = SessionCore(len(self.cores), workload_name, processor,
                           hierarchy)
        self.cores.append(core)
        return core

    # -- core loop (Fig 5/6) -----------------------------------------------------

    def run_trace(self, trace: Trace) -> None:
        """Execute one trace segment to completion (delegates to the engine)."""
        self.engine.run_trace(self, trace)

    # -- multi-core scenarios ------------------------------------------------------

    def add_core(self, workload_name: str | None = None) -> SessionCore:
        """Add one emulated core (private caches, shared memory system).

        The first call flips the session into multi-core mode: a shared
        :class:`~repro.core.stats.CoreServiceTracker` is installed on
        every channel's controller so serviced requests and row-buffer
        outcomes are attributed per core.  Single-core sessions never
        install one, keeping the paper's hot paths untouched.
        """
        if workload_name is None:
            workload_name = f"core{len(self.cores)}"
        core = self._make_core(workload_name)
        if self._core_tracker is None:
            self._core_tracker = CoreServiceTracker(len(self.cores))
            self.system.smc.set_core_tracker(self._core_tracker)
        else:
            self._core_tracker.grow(len(self.cores))
        return core

    def run_cores(self, traces: Sequence[Trace]) -> None:
        """Run one trace per core to completion under shared contention.

        ``traces[i]`` feeds core ``i``; the engine interleaves the cores
        with round-robin issue arbitration and services every merged
        pending batch in one critical-mode episode on the shared
        controllers.  With one core this is :meth:`run_trace` exactly.
        """
        if len(traces) != len(self.cores):
            raise ValueError(
                f"got {len(traces)} traces for {len(self.cores)} cores")
        for core, trace in zip(self.cores, traces):
            core.processor.feed(trace)
        self.engine.run_cores(self, [c.processor for c in self.cores])

    # -- technique support --------------------------------------------------------

    def technique_op(self, stage, respect_timing: bool = False,
                     issue_cost_cycles: int = TECHNIQUE_ISSUE_CYCLES,
                     channel: int = 0) -> ExecResult:
        """Execute a technique operation synchronously (MMIO semantics).

        ``stage`` is a callable receiving the :class:`EasyAPI`; it stages
        the DRAM command sequence.  The processor blocks until the
        operation's release cycle.  ``channel`` selects which channel's
        controller (and therefore which channel's EasyAPI/device) runs
        the operation; the paper's single-channel system always uses 0.
        """
        proc = self.processor
        proc.cycles += issue_cost_cycles
        release, result = self.system.smc_for(channel).technique_episode(
            stage, issue_cycle=proc.cycles, respect_timing=respect_timing)
        if release > proc.cycles:
            proc.stats.stall_cycles += release - proc.cycles
            proc.cycles = release
        self.system.counters.advance_processor(proc.cycles)
        return result

    def rowclone_rows(self, rows, finished: list) -> bool:
        """Run a whole RowClone plan in one kernel call.

        ``rows`` is a sequence of ``(bank, src_row, dst_row, ranges,
        blocks)``: each row is :meth:`clflush_range` of its ``ranges``
        (up to two ``(start, size)`` pairs) followed by
        :meth:`technique_op` of ``RowCloneOp(bank, src_row, dst_row)`` on
        channel 0 when ``blocks`` is ``None``, else (a CPU-fallback row)
        by :meth:`run_trace` of ``blocks``, an iterable of
        :class:`~repro.cpu.blocks.AccessBlock` (a block trace).  Each row that counts
        appends the tuple of its ranges' dirty-line counts to
        ``finished`` -- a RowClone row once its op finished, a fallback
        row once its trace began -- also when an error stops the plan
        partway (the error is then raised).  Returns ``False`` with
        nothing done when the kernel declines (the reason is on the
        controller); the caller then runs the rows one call at a time.
        See :meth:`SoftwareMemoryController.rowclone_rows_kernel
        <repro.core.smc.SoftwareMemoryController.rowclone_rows_kernel>`.
        """
        system = self.system
        if system.num_channels != 1:
            for smc in system.smcs:
                smc.kernel_fallback_reason = "multi-channel topology"
            return False
        return system.smc.rowclone_rows_kernel(rows, self.processor,
                                               finished, self.engine)

    def clflush_range(self, start_addr: int, size_bytes: int) -> int:
        """Flush a range through the CLFLUSH register (Section 7.1).

        One CLFLUSH per line, in address order: each costs the
        processor ``flush_latency`` cycles, and a dirty line becomes a
        writeback request tagged with the cycle its own flush
        completed.  The writebacks are serviced by the controller: as
        arrays in one kernel episode when it can serve them, else as
        writeback requests on the batch ladder
        (:meth:`~repro.core.smc.SoftwareMemoryController.service_pending_batched`).
        Returns the number of dirty lines written back.
        """
        proc = self.processor
        line = proc.hierarchy.line_bytes
        first = start_addr - (start_addr % line)
        lines = max(0, -(-(start_addr + size_bytes - first) // line))
        latency = proc.config.flush_latency
        issued = proc.cycles
        dirty = proc.hierarchy.flush_range(first // line, lines)
        proc.cycles = issued + lines * latency
        if dirty.size:
            last = self._serve_writebacks(issued + (dirty + 1) * latency,
                                          first + dirty * line)
            # The flush instruction is ordered: the processor waits for
            # the last writeback to land in DRAM.
            if last > proc.cycles:
                proc.stats.stall_cycles += last - proc.cycles
                proc.cycles = last
        self.system.counters.advance_processor(proc.cycles)
        return int(dirty.size)

    def _serve_writebacks(self, tags, addrs) -> int:
        """Serve CLFLUSH writebacks (``int64`` tag and address arrays, in
        tag order); returns the last one's release cycle."""
        system = self.system
        if system.num_channels == 1:
            last = system.smc.service_writebacks_kernel(tags, addrs)
            if last is not None:
                return last
        channel_of = (system.mapper.channel_of
                      if system.num_channels > 1 else None)
        writebacks = [MemoryRequest(
            rid=_WRITEBACK_RID + k, addr=addr, is_write=True, tag=tag,
            is_writeback=True,
            channel=0 if channel_of is None else channel_of(addr))
            for k, (tag, addr) in enumerate(zip(tags.tolist(),
                                                addrs.tolist()))]
        system.smc.service_pending_batched(writebacks)
        return max(r.release or 0 for r in writebacks)

    # -- results ---------------------------------------------------------------

    def finish(self) -> RunResult:
        """Close the session and compute the run's results.

        Memory-side counters are summed over every channel's tile,
        controller, and device, and processor-side counters and both
        cache levels' statistics over every core; on the paper's
        single-core, single-channel system the sums are the lone core's
        and channel's counters verbatim.  The headline ``cycles`` is the
        *last* core's completion (a mix's makespan).  Multi-core
        sessions additionally report per-core slices (``per_core``):
        processor-side counters come from each core's own processor,
        controller-side attribution from the shared
        :class:`~repro.core.stats.CoreServiceTracker`, and — when
        :attr:`solo_cycles` was set — each core's slowdown vs its solo
        run.
        """
        wall = time.perf_counter() - self._wall_start
        system = self.system
        config = system.config
        tiles = system.tiles
        for smc in system.smcs:
            smc.stats.trcd_memo_capped = \
                smc.tile.device.cells.trcd_memo_capped
        scheduling_ps = sum(t.stats.scheduling_ps for t in tiles)
        dram_busy_ps = sum(t.stats.dram_busy_ps for t in tiles)
        total_sched_cycles = sum(s.stats.total_sched_cycles
                                 for s in system.smcs)
        multicore = len(self.cores) > 1
        procs = [c.processor for c in self.cores]
        cycles = max(p.cycles for p in procs)
        stall_cycles = sum(p.stats.stall_cycles for p in procs)
        accesses = sum(p.stats.accesses for p in procs)
        loads = sum(p.stats.loads for p in procs)
        stores = sum(p.stats.stores for p in procs)
        llc_misses = sum(p.stats.llc_miss_requests for p in procs)
        writebacks = sum(p.stats.writeback_requests for p in procs)
        n_lat = sum(len(p.stats.request_latencies) for p in procs)
        avg_latency = (sum(latency_sum(p.stats.request_latencies)
                           for p in procs) / n_lat if n_lat else 0.0)
        l1 = CacheStats()
        l2 = CacheStats()
        for core in self.cores:
            for total, level in ((l1, core.hierarchy.l1.stats),
                                 (l2, core.hierarchy.l2.stats)):
                total.hits += level.hits
                total.misses += level.misses
                total.writebacks += level.writebacks
                total.flushes += level.flushes
        # Total useful processing across cores; stall is summed too, so
        # on multi-core runs Breakdown.total_ps reads as core-cycles
        # (core-seconds).
        processing_ps = sum(p.cycles - p.stats.stall_cycles
                            for p in procs) * self._proc_period
        fpga_proc_cycles = sum(p.cycles for p in procs)
        emulated_ps = cycles * self._proc_period
        stall_ps = stall_cycles * self._proc_period
        breakdown = Breakdown(
            processing_ps=processing_ps,
            scheduling_ps=scheduling_ps,
            main_memory_ps=dram_busy_ps,
            stall_ps=stall_ps,
        )
        fpga_ps = (
            fpga_proc_cycles * config.processor_domain.fpga_period_ps
            + total_sched_cycles * config.controller_domain.fpga_period_ps
            + dram_busy_ps)
        return RunResult(
            config_name=config.name,
            workload_name=self.workload_name,
            cycles=cycles,
            emulated_ps=emulated_ps,
            accesses=accesses,
            loads=loads,
            stores=stores,
            stall_cycles=stall_cycles,
            llc_miss_requests=llc_misses,
            writeback_requests=writebacks,
            avg_request_latency_cycles=avg_latency,
            l1=l1,
            l2=l2,
            row_hits=sum(t.stats.row_hits for t in tiles),
            row_misses=sum(t.stats.row_misses for t in tiles),
            row_conflicts=sum(t.stats.row_conflicts for t in tiles),
            refreshes=sum(t.stats.refreshes_issued for t in tiles),
            technique_ops=sum(t.stats.technique_ops for t in tiles),
            dram_commands=sum(c.tile.device.stats.total_commands()
                              for c in system.channels),
            breakdown=breakdown,
            wall_seconds=wall,
            estimated_fpga_seconds=fpga_ps / PS_PER_S,
            requests_per_channel=[s.stats.serviced_reads
                                  + s.stats.serviced_writes
                                  for s in system.smcs],
            per_core=self._per_core_results() if multicore else [],
        )

    def _per_core_results(self) -> list[CoreResult]:
        """One :class:`CoreResult` per core (multi-core sessions only)."""
        tracker = self._core_tracker
        solo = self.solo_cycles or {}
        results = []
        for core in self.cores:
            stats = core.processor.stats
            index = core.index
            solo_ref = solo.get(index, 0)
            results.append(CoreResult(
                core=index,
                workload_name=core.workload_name,
                cycles=core.processor.cycles,
                accesses=stats.accesses,
                loads=stats.loads,
                stores=stats.stores,
                stall_cycles=stats.stall_cycles,
                llc_miss_requests=stats.llc_miss_requests,
                writeback_requests=stats.writeback_requests,
                avg_request_latency_cycles=stats.avg_request_latency,
                serviced_reads=tracker.reads[index] if tracker else 0,
                serviced_writes=tracker.writes[index] if tracker else 0,
                row_hits=tracker.row_hits[index] if tracker else 0,
                row_misses=tracker.row_misses[index] if tracker else 0,
                row_conflicts=tracker.row_conflicts[index] if tracker else 0,
                slowdown=(core.processor.cycles / solo_ref
                          if solo_ref else 0.0),
            ))
        return results
