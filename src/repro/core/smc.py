"""The software memory controller (SMC) framework.

:class:`SoftwareMemoryController` implements the service loop of
Figure 6: check for new requests, enter critical mode, transfer requests
into the software request table, make scheduling decisions, execute DRAM
command batches through Bender, tag responses with the processor-cycle
value at which they may be consumed, and advance the time-scaling
counters.

Timeline model
--------------

All bookkeeping runs on the *emulated* time axis (picoseconds of the
modeled system).  Two cursors track the controller:

``sched_cursor``
    when the controller front-end can start working on the next request;
``dram_cursor``
    when the DRAM interface is free (Bender programs execute back to
    back on a real chip, so device time is strictly monotonic).

A request's *latency* always includes the full software scheduling path;
its *occupancy* (how soon the next request can start) depends on the
configuration: pipelined controllers (the modeled hardware of a time-
scaled system) accept a new request every few cycles, while a bare
software controller ("No Time Scaling") serializes everything — the
pathology of Figure 2.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bender.engine import BenderEngine, ExecResult
from repro.bender.program import BenderProgram
from repro.core.config import SystemConfig
from repro.core.easyapi import EasyAPI, ProgramExecutor
from repro.core.schedulers import (
    Scheduler,
    TableEntry,
    make_scheduler,
)
from repro.core.tile import EasyTile
from repro.core.timescale import TimeScalingCounters
from repro.cpu.cache import CacheHierarchy
from repro.cpu.processor import MemoryRequest
from repro.dram.flat_timing import K_ACT, K_PRE, K_PREA, K_RD, K_REF, K_WR
from repro.dram.kernel.state import (
    FLAG_WRITEBACK, KERN_OK, KERR_DECODE_RANGE, KernelState, St,
)
from repro.dram.timing import period_ps


@dataclass
class SmcStats:
    """Controller-side counters."""

    serviced_reads: int = 0
    serviced_writes: int = 0
    refreshes: int = 0
    #: Refreshes beyond the nominal tREFI cadence, issued because an
    #: ``InterferenceConfig.refresh_storm_factor`` > 1 multiplied the
    #: refresh rate.  Always 0 at the paper's default.
    storm_refreshes: int = 0
    technique_ops: int = 0
    total_sched_cycles: int = 0
    batches_executed: int = 0
    #: Row-tRCD memo inserts the cell model skipped at its cap
    #: (:attr:`~repro.dram.cells.CellArrayModel.TRCD_CACHE_LIMIT`);
    #: synced from the device at session finish.  Always 0 on the
    #: experiment topologies — they fit under the cap outright.
    trcd_memo_capped: int = 0


#: Row-buffer outcome string -> the flat case index the plans use.
_ROW_CASE = {"hit": 0, "miss": 1, "conflict": 2}

#: Smallest batch the per-gate kernel entry is worth engaging for: the
#: FFI load/store pair is a fixed cost, and below this size the flat
#: closure wins (a singleton skips selection there).
#: Block traces never see this — their whole trace replays resident in
#: the kernel (:mod:`repro.dram.kernel.blockrun`) regardless of gate
#: size.  Every serve path stays bit-identical, so the cutover is pure
#: host-time tuning.
_KERNEL_MIN_BATCH = 4


#: Processor cycles to issue one technique operation (the MMIO writes
#: of :meth:`Session.technique_op <repro.core.system.Session.technique_op>`).
TECHNIQUE_ISSUE_CYCLES = 4


class SoftwareMemoryController(ProgramExecutor):
    """Conventional open-page controller; techniques subclass or hook it."""

    def __init__(self, config: SystemConfig, tile: EasyTile, api: EasyAPI,
                 counters: TimeScalingCounters,
                 scheduler: Scheduler | None = None,
                 kernel: bool = True) -> None:
        self.config = config
        self.tile = tile
        self.api = api
        self.api.executor = self
        self.counters = counters
        self.scheduler = scheduler or make_scheduler(
            config.controller.scheduler, config.controller.scheduler_age_cap)
        self.stats = SmcStats()
        self.table: list[TableEntry] = []
        self._arrival_counter = 0
        self.sched_cursor = 0          # emulated ps
        self.dram_cursor = 0           # emulated ps
        self._exec_anchor_ps = 0       # where the next flushed batch starts
        # Refresh cadence: nominal tREFI, divided by the interference
        # refresh-storm factor (1 at the paper's default — identical
        # deadlines).  Clamped to one interface cycle so a huge factor
        # cannot wedge the deadline loops.
        self._storm_factor = config.interference.refresh_storm_factor
        self._refresh_interval = max(
            config.timing.tCK, config.timing.tREFI // self._storm_factor)
        self._refresh_index = 0
        self._next_refresh_ps = self._refresh_interval
        self._proc_period = period_ps(config.processor.emulated_freq_hz)
        mcd = config.controller_domain
        self._mc_period = mcd.emulated_period_ps
        cc = config.controller
        self._occupancy_ps = cc.pipelined_occupancy_cycles * self._mc_period
        self._pipelined = cc.pipelined_occupancy_cycles > 0
        self._req_bus_ps = cc.request_bus_cycles * self._mc_period
        self._resp_bus_ps = cc.response_bus_cycles * self._mc_period
        self.serve_hook = None
        #: Per-core service tracker (multi-core sessions only; see
        #: :meth:`set_core_tracker`).  ``None`` on the paper's
        #: single-core system, which keeps every serve path unchanged.
        self._core_tracker = None
        # Stable tile internals, hoisted off the per-request path.
        self._tile_stats = tile.stats
        self._device = tile.device
        self._flat = tile.device.flat
        self._flat_earliest = tile.device.flat.earliest
        self._issue_plan = tile.device.issue_plan
        self._issue_col = tile.device.issue_col
        self._bender = tile.engine
        self._mapper = tile.mapper
        # Memoized conventional command plans and the flat serve
        # closures built over them (see service_pending_batched).
        self._build_plans()
        # Compiled batch kernel (repro.dram.kernel): resolved lazily on
        # the first eligible batch; see :meth:`service_pending_kernel`.
        # ``kernel=False`` keeps this controller off it (results are
        # bit-identical either way).
        self._kernel_enabled = kernel
        self._kernel_state = None
        self._kernel_backend = None
        self._kernel_resolved = False
        #: Why the kernel last disengaged (``repro profile`` reports it);
        #: ``None`` while the kernel is engaged or untried.
        self.kernel_fallback_reason = None

    @property
    def scheduler(self) -> Scheduler:
        """The request scheduler (reassignable, e.g. by the ablations)."""
        return self._scheduler

    @scheduler.setter
    def scheduler(self, value: Scheduler) -> None:
        self._scheduler = value
        # The flat episode closes over the scheduler (its select and
        # decision-cost hooks); swapping it rebuilds the closures.
        if hasattr(self, "_plans"):
            self._build_serve()
        # The kernel bakes the scheduler's policy and decision costs into
        # its config table: force re-resolution on the next batch.
        self._kernel_state = None
        self._kernel_resolved = False

    @property
    def serve_hook(self):
        """Technique hook: may replace the read/write staging per request.

        Called as ``hook(api, entry)`` on the object path.  The kernel
        serves the registry tRCD technique's hook itself (see
        :meth:`_kernel_technique`); any other hook forces the object
        path.
        """
        return self._serve_hook

    @serve_hook.setter
    def serve_hook(self, hook) -> None:
        self._serve_hook = hook
        # The kernel bakes the hook's technique (or its absence) into its
        # plan and config tables: force re-resolution on the next batch.
        self._kernel_state = None
        self._kernel_resolved = False

    def set_core_tracker(self, tracker) -> None:
        """Install (or clear) the shared per-core service tracker.

        The tracker attributes every serviced request's direction and
        row-buffer outcome to the issuing core
        (:class:`~repro.core.stats.CoreServiceTracker`).  The flat
        serve closures bind it at build time, so installing one rebuilds
        them — exactly like swapping the scheduler does.
        """
        self._core_tracker = tracker
        self._build_serve()
        self._kernel_state = None
        self._kernel_resolved = False

    def _build_plans(self) -> None:
        """Memoize the conventional open-page command plans.

        A plan depends only on the row-buffer case (0 = hit, 1 = closed
        bank, 2 = conflict) and the access direction, never on the
        concrete bank/row/column — those are patched in at issue time.
        Each entry is ``(kinds, offsets, total_cycles, stage_charge,
        measured_ps, post_flush_ps)`` with offsets in interface cycles,
        reproducing the Bender engine's walk of the program
        :meth:`EasyAPI.read_sequence` / ``write_sequence`` stage exactly:
        one interface cycle per DDR command plus each WAIT rounded up to
        the interface clock, minus the command's own cycle.
        """
        t = self.config.timing
        tck = t.tCK
        costs = self.api.costs
        bender_domain = self.config.bender_domain
        plans = {(case, is_write): self._plan(case, is_write, t.tRCD)
                 for case in (0, 1, 2) for is_write in (False, True)}
        self._plans = plans
        # Indexable view: plan of (case, is_write) at [2*case + is_write].
        self._plan_list = tuple(plans[(case, w)] for case in (0, 1, 2)
                                for w in (False, True))
        # A request's transfer into the table: receive and decode
        # (charged before the decode, which may raise), then the insert.
        self._receive_charge = costs.receive_request + costs.address_map
        self._insert_charge = costs.table_insert
        self._critical_toggle = costs.critical_toggle
        self._refresh_enabled = self.config.controller.refresh_enabled
        self._decode_cache = self._mapper._decode_cache
        self._tck = tck
        self._lat_rd_ps = t.tCL + t.tBL
        self._lat_wr_ps = t.tCWL + t.tBL
        # Refresh episode constants (precharge_all + WAIT(tRP) + refresh
        # + WAIT(tRFC), one interface cycle per command).
        self._ref_cycles = 2 + -(-t.tRP // tck) + -(-t.tRFC // tck)
        self._ref_offset_ps = (1 + -(-t.tRP // tck)) * tck
        self._ref_measured = bender_domain.measure_ps(self._ref_cycles * tck)
        # FPM RowClone episode constants for the kernel's RowClone rows:
        # the Bender walk of EasyAPI.rowclone's program, ACT(src) | WAIT 2
        # | PRE | ACT(dst) | WAIT(tRAS) | PRE | WAIT(tRP), one interface
        # cycle per command.  Its four commands issue ``_fpm_offsets`` ps
        # after the start.
        ras = -(-t.tRAS // tck) if t.tRAS > 0 else 0
        rp = -(-t.tRP // tck) if t.tRP > 0 else 0
        self._fpm_offsets = (0, 3 * tck, 4 * tck, (5 + ras) * tck)
        self._fpm_cycles = 6 + ras + rp
        self._fpm_measured = bender_domain.measure_ps(self._fpm_cycles * tck)
        # The kernel stands in for the stock API, executor and sequencer
        # only; a controller, API or engine that overrides them stages.
        self._fpm_plan = (
            type(self).execute_staged is SoftwareMemoryController.execute_staged
            and type(self.api) is EasyAPI
            and type(self.tile.engine) is BenderEngine)
        self._build_serve()

    def _build_serve(self) -> None:
        """(Re)build the flat serve closures over the current plans,
        scheduler and core tracker."""
        self._serve_flat_core = self._make_serve_flat()
        self._service_fast = self._make_service_fast()

    def _plan(self, case: int, is_write: bool, trcd_ps: int,
              act_charge: int = 0) -> tuple:
        """One open-page plan: the Bender walk of its staged program.

        ``trcd_ps`` is the ACT-to-column wait the staging programs and
        ``act_charge`` the extra controller cycles an activating request
        pays on top of the command inserts: the stock sequences use
        nominal tRCD and no extra charge; the tRCD technique's sequences
        (:class:`~repro.core.techniques.trcd.TrcdReductionTechnique`)
        use its per-row tRCD and its Bloom-filter lookup.
        """
        t = self.config.timing
        tck = t.tCK
        costs = self.api.costs
        ci = costs.command_insert
        kinds: list[int] = []
        offsets: list[int] = []
        offset = 0
        n_instr = 0
        charge = 0
        if case == 2:
            kinds.append(K_PRE)
            offsets.append(0)
            offset = 1
            n_instr = 1
            charge = ci
            gap = t.tRP - tck
            if gap > 0:
                offset += -(-gap // tck)
                n_instr += 1
        if case >= 1:
            kinds.append(K_ACT)
            offsets.append(offset)
            offset += 1
            n_instr += 1
            charge += ci + act_charge
            gap = trcd_ps - tck
            if gap > 0:
                offset += -(-gap // tck)
                n_instr += 1
        kinds.append(K_WR if is_write else K_RD)
        offsets.append(offset)
        offset += 1
        n_instr += 1
        charge += ci
        return (tuple(kinds), tuple(offsets), offset, charge,
                self.config.bender_domain.measure_ps(offset * tck),
                (costs.flush + costs.per_instruction_transfer * n_instr)
                * self._mc_period)

    # -- ProgramExecutor --------------------------------------------------------

    def execute_staged(self, program: BenderProgram,
                       respect_timing: bool) -> ExecResult:
        """Run a staged batch at the controller's current anchor time."""
        start = max(self._exec_anchor_ps, self.dram_cursor)
        if respect_timing:
            start = max(start, self._earliest_legal(program))
        result = self.tile.engine.execute(program, start_ps=start)
        measured = self.config.bender_domain.measure_ps(result.elapsed_ps)
        self.dram_cursor = start + measured
        self.tile.stats.dram_busy_ps += measured
        self.stats.batches_executed += 1
        return result

    def _earliest_legal(self, program: BenderProgram) -> int:
        """Earliest legal time of the batch's first DRAM command."""
        for ins in program.instructions:
            if ins.command is not None:
                device = self.tile.device
                earliest, _ = device.checker.earliest_issue(
                    ins.command, device.banks, device.checker_rank)
                return earliest
        return 0

    # -- request servicing (Fig 6 steps 4-10) --------------------------------------

    def service_pending(self, requests: list[MemoryRequest]) -> None:
        """Serve every pending request; sets each request's release."""
        if not requests:
            return
        if (len(requests) >= _KERNEL_MIN_BATCH
                and self.service_pending_kernel(requests)):
            return
        self._service_object(requests)

    def _service_object(self, requests: list[MemoryRequest]) -> None:
        """The object path: stage, walk and check every command of a
        non-empty batch (the kernel has declined or was not asked)."""
        self.counters.enter_critical()
        self.api.set_scheduling_state(True)
        arrivals = sorted(requests, key=lambda r: r.tag)
        now = max(self.sched_cursor,
                  arrivals[0].tag * self._proc_period + self._req_bus_ps)
        self.sched_cursor = now
        while arrivals or self.table:
            arrivals = self._transfer_arrivals(arrivals)
            if not self.table:
                # The remaining requests were issued later than the
                # controller's current emulation point: wait for them.
                next_arrival = (arrivals[0].tag * self._proc_period
                                + self._req_bus_ps)
                self.sched_cursor = max(self.sched_cursor, next_arrival)
                continue
            self._maybe_refresh()
            self.api.charge(self.scheduler.decision_cost(len(self.table)))
            entry = self.scheduler.select(self.table, self.tile.device.banks)
            self.table.remove(entry)
            self._serve(entry)
        self.api.set_scheduling_state(False)
        self._sync_mc_counter()
        self.counters.exit_critical()

    def _transfer_arrivals(self, arrivals: list[MemoryRequest]) -> list[MemoryRequest]:
        """Move requests visible at the current point into the table.

        Footnote 2: the controller observes every request the processors
        created up to its own emulation point before deciding.
        """
        remaining: list[MemoryRequest] = []
        for request in arrivals:
            arrival_ps = request.tag * self._proc_period + self._req_bus_ps
            if arrival_ps <= self.sched_cursor or not self.table:
                self.tile.push_request(request)
                received = self.api.get_request()
                dram = self.api.get_addr_mapping(received.addr)
                self.api.charge(self.api.costs.table_insert)
                self.table.append(TableEntry(
                    request=received, dram=dram,
                    arrival_order=self._arrival_counter))
                self._arrival_counter += 1
                self.sched_cursor = max(self.sched_cursor, arrival_ps)
            else:
                remaining.append(request)
        return remaining

    def _serve(self, entry: TableEntry) -> None:
        """Serve one request: stage, execute, tag the response."""
        request = entry.request
        sched_start = self.sched_cursor
        outcome = self.tile.classify_row_access(entry.dram.bank, entry.dram.row)
        # A store miss is a *line fill* — a DRAM read; the dirty data
        # returns to DRAM later as a writeback.  Only writebacks issue WR.
        is_dram_write = request.is_writeback
        if self._core_tracker is not None:
            self._core_tracker.note(request.core, _ROW_CASE[outcome],
                                    is_dram_write)
        if self._serve_hook is not None:
            self._serve_hook(self.api, entry)
        else:
            self.api.stage_conventional(entry.dram, is_dram_write)
        sched_cycles = self.api.take_charges()
        self.stats.total_sched_cycles += sched_cycles
        sched_ps = sched_cycles * self._mc_period
        self.tile.stats.scheduling_ps += sched_ps
        self._exec_anchor_ps = sched_start + sched_ps
        result = self.api.flush_commands()
        sched_ps += self.api.take_charges() * self._mc_period
        dram_end = self.dram_cursor
        release_ps = (dram_end + self.api.data_latency_ps(is_dram_write)
                      + self._resp_bus_ps)
        request.release = -(-release_ps // self._proc_period)
        request.service_ps = dram_end - sched_start
        if is_dram_write:
            self.stats.serviced_writes += 1
        else:
            self.stats.serviced_reads += 1
            # Drain the readback data the fill consumed.
            for _ in range(result.reads):
                self.api.rdback_cacheline()
        self.api.charge(self.api.costs.enqueue_response)
        self.api.take_charges()
        self.tile.stats.responses_sent += 1
        if self._pipelined:
            self.sched_cursor = max(sched_start + self._occupancy_ps,
                                    self.sched_cursor)
        else:
            self.sched_cursor = max(self.dram_cursor, sched_start + sched_ps)

    # -- bank-parallel critical-mode servicing (event-engine fast path) ------------

    def service_pending_batched(self, requests: list[MemoryRequest]) -> bool:
        """Serve every pending request on the production serve ladder.

        Semantically identical to :meth:`service_pending` — same emulated
        timeline, same statistics, same violation records.  Batches of
        :data:`_KERNEL_MIN_BATCH` or more try the compiled kernel first;
        every batch it declines runs the one flat episode closure
        (:meth:`_make_service_fast`, singletons included), where the host
        work per request collapses to integer arithmetic: the conventional
        open-page command sequences are *planned* (command kinds plus
        interface-cycle offsets) instead of staged through
        :class:`BenderProgram` objects and walked by the Bender engine,
        and every timing-legality question is answered on the device's
        flat timing state.

        Falls back to the reference path's object loop — and returns
        ``False`` — when a technique hook is installed or the tile holds
        state the planner cannot see (a non-empty request FIFO or a
        partially staged program).  That loop skips
        :meth:`service_pending`'s own kernel try: the kernel has already
        declined this batch, leaving all state untouched.
        """
        if not requests:
            return True
        if (len(requests) >= _KERNEL_MIN_BATCH
                and self.service_pending_kernel(requests)):
            return True
        if (self._serve_hook is not None or self.tile.has_requests
                or len(self.api.program)):
            self._service_object(requests)
            return False
        self._service_fast(requests)
        return True

    # -- compiled batch kernel (repro.dram.kernel) ---------------------------------

    def _kernel_structural_reason(self) -> str | None:
        """Why the kernel cannot serve this controller at all, or ``None``.

        These conditions are fixed for the controller's lifetime (modulo
        scheduler swaps, which re-resolve): the kernel reproduces the
        conventional open-page path under the registry schedulers only,
        so anything that adds per-command observable behavior it does
        not model forces the flat closures.
        """
        from repro.core.schedulers import SCHEDULERS
        scheduler = type(self._scheduler)
        if SCHEDULERS.get(scheduler.name) is not scheduler:
            return f"custom scheduler ({scheduler.__name__})"
        device = self._device
        if device.checker.strict:
            return "strict timing mode"
        if device.retention_modeling:
            return "retention modeling enabled"
        if device.row_activations is not None:
            return "row-activation tracking enabled"
        t = self.config.timing
        if not (t.tRRD_S <= t.tRRD_L <= t.tRC and t.tCCD_S <= t.tCCD_L):
            # The single-rank earliest-time formulas are two-term
            # aggregate reductions, exact only under these relations.
            return "non-uniform bank-group timing"
        if device._refresh_rank is not None:
            return "per-rank refresh"
        cells = device.cells.config
        if max(cells.strong_max_ps, cells.weak_max_ps) > self.config.timing.tRCD:
            # The kernel skips the per-RD reliability probe; that is
            # only unobservable when no in-margin row can exist.
            return "cell tRCD margins exceed tRCD"
        return None

    def _kernel_resolve(self):
        """Resolve (once) whether the kernel may serve, building its state."""
        from repro.dram.kernel import resolve_backend
        self._kernel_resolved = True
        self._kernel_state = None
        reason = (self._kernel_structural_reason() if self._kernel_enabled
                  else "disabled for this system (kernel=False)")
        if reason is None:
            backend, reason = resolve_backend()
            if backend is not None:
                self._kernel_backend = backend
                self._kernel_state = KernelState(self)
                self.kernel_fallback_reason = None
                return self._kernel_state
        self.kernel_fallback_reason = reason
        return None

    def _kernel_technique(self):
        """The installed serve hook's technique if the kernel serves it.

        Only the exact registry tRCD technique, hooked onto a controller
        of its own system, is kernel data (its plans, Bloom filter and
        counters cross the boundary; see
        :class:`~repro.dram.kernel.state.KernelState`); ``None`` for no
        hook and for every other hook — a lambda, a subclass, a
        re-bound ``_serve`` — which keeps the object path.
        """
        hook = self._serve_hook
        if hook is None:
            return None
        from repro.core.techniques.trcd import TrcdReductionTechnique
        technique = getattr(hook, "__self__", None)
        if (type(technique) is TrcdReductionTechnique
                and getattr(hook, "__func__", None)
                is TrcdReductionTechnique._serve
                and any(smc is self for smc in technique.system.smcs)):
            return technique
        return None

    def service_pending_kernel(self, requests: list[MemoryRequest]) -> bool:
        """Serve a whole drained batch inside the compiled kernel.

        The fourth serve path: bit-identical to :meth:`service_pending`
        (and therefore to both fast paths), but the entire episode —
        arrival transfer, scheduler arbitration (stateful ranking state
        included), plan issue, timing-legality resolution, refresh
        interleave, and stat attribution — runs as one compiled call
        over the struct-of-arrays tables in
        :mod:`repro.dram.kernel.state`, with the registry tRCD
        technique's per-activation plan choice included.  Returns
        ``False`` with all state untouched when the kernel is disengaged
        or another technique hook / staged tile state needs the object
        path; the caller then falls back to
        :meth:`service_pending_batched`.
        """
        if not requests:
            return True
        ks = self._kernel_ready()
        if ks is None:
            return False
        n = len(requests)
        if n > 1:
            requests = sorted(requests, key=lambda r: r.tag)
        ks.ensure_batch(n)
        # Whole-slice assignments: one list -> int64 conversion per array.
        ks.req_tag[:n] = [request.tag for request in requests]
        ks.req_addr[:n] = [request.addr for request in requests]
        ks.req_flags[:n] = [FLAG_WRITEBACK if request.is_writeback else 0
                            for request in requests]
        cores = [request.core for request in requests]
        ks.req_core[:n] = cores
        self._kernel_episode(ks, n, max(cores))
        for request, release, service in zip(
                requests, ks.req_release[:n].tolist(),
                ks.req_service[:n].tolist()):
            request.release = release
            request.service_ps = service
        return True

    def service_writebacks_kernel(self, tags, addrs) -> int | None:
        """Serve CLFLUSH writebacks, given as arrays, inside the kernel.

        ``tags`` and ``addrs`` are ``int64`` arrays in tag order: each
        dirty line's flush-completion cycle and byte address.  The
        episode is the one :meth:`service_pending` runs on the writeback
        requests built from them (all on core 0), without building
        them.  Returns the last writeback's release cycle, or ``None``
        with all state untouched when the kernel cannot serve (see
        :meth:`service_pending_kernel`).
        """
        ks = self._kernel_ready()
        if ks is None:
            return None
        n = len(tags)
        ks.ensure_batch(n)
        ks.req_tag[:n] = tags
        ks.req_addr[:n] = addrs
        ks.req_flags[:n] = FLAG_WRITEBACK
        ks.req_core[:n] = 0
        self._kernel_episode(ks, n, 0)
        return int(ks.req_release[:n].max())

    def rowclone_rows_kernel(self, rows, proc, finished: list,
                             engine) -> bool:
        """Run a whole RowClone plan in one kernel call.

        ``rows`` is a sequence of ``(bank, src_row, dst_row, ranges,
        blocks)`` plan rows, ``ranges`` up to two ``(start, size)``
        CLFLUSH ranges.  Each row is exactly :meth:`Session.clflush_range
        <repro.core.system.Session.clflush_range>` of its ranges, then
        either ``Session.technique_op`` of its
        :class:`~repro.core.easyapi.RowCloneOp` (``respect_timing=False``;
        ``blocks`` is ``None``) or, for a CPU-fallback row,
        ``Session.run_trace`` of its ``blocks`` (an iterable of
        :class:`~repro.cpu.blocks.AccessBlock`), on core 0's processor
        ``proc`` under its session's ``engine``: the writeback episodes,
        the FPM episode (:meth:`technique_episode` of the staged program)
        with the refreshes falling due, the device's in-DRAM copies, and
        the resident replay of :func:`~repro.dram.kernel.blockrun.
        run_gated_kernel` with its engine counts.  Each row that counts
        appends the tuple of its ranges' dirty-line counts to
        ``finished`` -- a RowClone row once its episode finished, a
        fallback row once its replay began -- also when an error stops
        the plan (then raised).  Returns ``False``, with all state
        untouched and the reason recorded, when the kernel cannot serve
        the whole plan: the caller then takes the per-row path.
        """
        ks = self._kernel_ready()
        if ks is None:
            return False
        from repro.dram.kernel import blockrun
        reason = self._rowclone_rows_reason(rows, proc, engine)
        if reason is None:
            table, blocks = blockrun.rowclone_table(rows)
            if blocks is not None and self._mapper.strict:
                addr = blocks[2]
                if not (0 <= int(addr.min())
                        and int(addr.max()) < self._mapper._total_bytes):
                    reason = "fallback trace beyond the address map"
        if reason is not None:
            self.kernel_fallback_reason = reason
            return False
        blockrun.run_rowclone_rows(engine, self, proc, table, blocks,
                                   finished)
        return True

    def _rowclone_rows_reason(self, rows, proc, engine) -> str | None:
        """Why :meth:`rowclone_rows_kernel` cannot take ``rows`` now."""
        device = self._device
        if device.checker.strict:
            # (Switched on after the kernel resolved: every FPM sequence
            # violates tRAS, which a strict checker raises on.)
            return "strict timing mode"
        if device.row_activations is not None:
            return "row-activation tracking enabled"
        if not self._fpm_plan:
            return "non-stock FPM plan"
        if self.api._lent is not None:
            return "staged tile state pending"
        geometry = self.config.geometry
        banks, rows_per_bank = geometry.total_banks, geometry.rows_per_bank
        flushing = replaying = False
        for bank, src_row, dst_row, ranges, blocks in rows:
            if blocks is not None:
                replaying = True
            elif not (0 <= bank < banks and 0 <= src_row < rows_per_bank
                      and 0 <= dst_row < rows_per_bank):
                return "RowClone coordinates out of range"
            if len(ranges) > 2 or any(start < 0 or size < 0
                                      for start, size in ranges):
                return "unsupported CLFLUSH ranges"
            flushing = flushing or bool(ranges)
        if ((flushing or replaying)
                and type(proc.hierarchy) is not CacheHierarchy):
            return "non-standard cache hierarchy"
        if replaying:
            # A fallback row replays resident exactly when run_trace
            # itself would take the kernel.
            from repro.core.engine import EventEngine
            from repro.dram.kernel.blockrun import _eligible
            if type(engine).run_trace is not EventEngine.run_trace:
                return "fallback rows off the event engine"
            return _eligible([proc], self)
        return None

    def _kernel_ready(self):
        """The kernel state if the kernel may serve a batch now, else
        ``None`` with the reason recorded."""
        ks = self._kernel_state if self._kernel_resolved \
            else self._kernel_resolve()
        if ks is None:
            return None
        if self._serve_hook is not None and ks.technique is None:
            self.kernel_fallback_reason = "technique episode (serve hook)"
            return None
        if self.tile.has_requests or len(self.api.program):
            self.kernel_fallback_reason = "staged tile state pending"
            return None
        return ks

    def _kernel_episode(self, ks, n: int, max_core: int) -> None:
        """One ``serve_batch`` call over the ``n`` requests staged in the
        ``req_*`` arrays; every side effect is written back, and a
        strict-map decode error raises the mapper's own ValueError."""
        if len(self._device._rows) != int(ks.st[St.NMAT]):
            ks.refresh_materialized()
        ks.load(max_core if ks.scheduler is not None else 0)
        ks.st[St.N_REQ] = n
        err = self._kernel_backend.serve_batch(ks.pointer_table())
        if err != KERN_OK and err != KERR_DECODE_RANGE:
            raise RuntimeError(f"batch kernel failed with error {err}")
        ks.store()
        ks.scatter_violations()
        ks.check_reduced_reads()
        ks.apply_wr_hits()
        if err == KERR_DECODE_RANGE:
            # Raise the mapper's own out-of-range ValueError, with all
            # partial state (stats, charges) already written back.
            self._mapper._check_range(int(ks.st[St.ERR_ADDR]))
            raise AssertionError("decode error did not reproduce")

    def _make_service_fast(self):
        """Build the batched flat-path service loop (constants closed over).

        Observable behavior matches the reference loop above exactly;
        host-side, arrivals are consumed through an index (requests sort
        by tag, so the transferable set is always a prefix — the
        reference's repeated full rescans cannot admit anything more),
        the scheduler runs its flat-array select, and requests are
        served by the flat serve function.  A one-entry table under a
        stateless policy skips the select call (it could only return
        that entry), which makes singleton batches — the dependent-load
        episode shape — cheap without a separate closure.
        """
        from operator import attrgetter

        api = self.api
        counters = self.counters
        toggle = self._critical_toggle
        pp = self._proc_period
        bus = self._req_bus_ps
        scheduler = self.scheduler
        select_flat = getattr(scheduler, "select_flat", None)
        stateful = scheduler.stateful
        decision_cost = scheduler.decision_cost
        open_row = self._flat.open_row
        banks = self._device.banks
        tile_stats = self._tile_stats
        receive_charge = self._receive_charge
        insert_charge = self._insert_charge
        decode = self._decode_cache
        to_dram = self._mapper.to_dram
        refresh_enabled = self._refresh_enabled
        serve = self._serve_flat_core
        refresh = self._maybe_refresh_flat
        by_tag = attrgetter("tag")

        make_entry = (lambda request, dram, order: (order, request, dram)) \
            if select_flat is not None else TableEntry

        def service_fast(requests: list[MemoryRequest]) -> None:
            counters.enter_critical()
            api.charged_cycles += toggle  # set_scheduling_state(True)
            api.critical = True
            arrivals = sorted(requests, key=by_tag) \
                if len(requests) > 1 else requests
            now = arrivals[0].tag * pp + bus
            if self.sched_cursor > now:
                now = self.sched_cursor
            self.sched_cursor = now
            table = self.table
            arrival_counter = self._arrival_counter
            pos = 0
            n = len(arrivals)
            while pos < n or table:
                cursor = self.sched_cursor
                while pos < n:
                    request = arrivals[pos]
                    arrival_ps = request.tag * pp + bus
                    if arrival_ps <= cursor or not table:
                        tile_stats.requests_received += 1
                        api.charged_cycles += receive_charge
                        addr = request.addr
                        dram = decode.get(addr)
                        if dram is None:
                            dram = to_dram(addr)
                        api.charged_cycles += insert_charge
                        table.append(make_entry(request, dram,
                                                arrival_counter))
                        arrival_counter += 1
                        if arrival_ps > cursor:
                            cursor = arrival_ps
                        pos += 1
                    else:
                        break
                self.sched_cursor = cursor
                if not table:
                    next_arrival = arrivals[pos].tag * pp + bus
                    if next_arrival > cursor:
                        self.sched_cursor = next_arrival
                    continue
                if refresh_enabled and self._next_refresh_ps <= self.sched_cursor:
                    refresh()
                count = len(table)
                api.charged_cycles += decision_cost(count)
                if select_flat is not None:
                    if count == 1 and not stateful:
                        _order, request, dram = table.pop()
                    else:
                        entry = select_flat(table, open_row)
                        table.remove(entry)
                        _order, request, dram = entry
                    serve(request, dram)
                else:
                    if count == 1 and not stateful:
                        entry = table.pop()
                    else:
                        entry = scheduler.select(table, banks)
                        table.remove(entry)
                    serve(entry.request, entry.dram)
            self._arrival_counter = arrival_counter
            api.charged_cycles += toggle  # set_scheduling_state(False)
            api.critical = False
            self._sync_mc_counter()
            counters.exit_critical()

        return service_fast

    # -- flat critical-mode servicing ---------------------------------------------

    def _make_serve_flat(self):
        """Build the flat-path serve function with constants closed over.

        Emulated-timeline arithmetic is identical to :meth:`_serve`;
        the host work per request drops to: one row-buffer classification on the flat ``open_row`` array, one
        memoized plan fetch, one flat earliest-time query for the
        leading command, and one fused device call for the plan — no
        ``Command`` construction and no per-bank object scans.  Every
        run-constant (plans, periods, latencies, stable subobjects)
        lives in a closure cell instead of an attribute lookup.
        """
        api = self.api
        plan_list = self._plan_list
        mc_period = self._mc_period
        tile_stats = self._tile_stats
        stats = self.stats
        flat = self._flat
        open_row_arr = flat.open_row
        flat_earliest = self._flat_earliest
        issue_plan = self._issue_plan
        issue_col = self._issue_col
        bender = self._bender
        tck = self._tck
        lat_rd = self._lat_rd_ps
        lat_wr = self._lat_wr_ps
        resp_bus = self._resp_bus_ps
        proc_period = self._proc_period
        pipelined = self._pipelined
        occupancy = self._occupancy_ps
        # Leading-command earliest-time formulas, inlined when the
        # two-term aggregate reductions are exact for this parameter set
        # (see FlatTimingState); otherwise the generic query runs.
        inline_earliest = flat._rrd_two_term and flat._ccd_two_term
        t = self.config.timing
        tRCD, tCCD_S, tCCD_L, tWTR = t.tRCD, t.tCCD_S, t.tCCD_L, t.tWTR
        tRC, tRP, tRRD_S, tRRD_L = t.tRC, t.tRP, t.tRRD_S, t.tRRD_L
        tRAS, tRTP, tWR, tFAW, tRFC = t.tRAS, t.tRTP, t.tWR, t.tFAW, t.tRFC
        last_act_arr = flat.last_act
        last_pre_arr = flat.last_pre
        last_read_arr = flat.last_read
        last_write_end_arr = flat.last_write_end
        gmax_cas_arr = flat.group_max_cas
        gmax_act_arr = flat.group_max_act
        group_of = flat.group_of
        tracker = self._core_tracker
        track = tracker.note if tracker is not None else None

        def serve(request: MemoryRequest, dram) -> None:
            bank = dram.bank
            row = dram.row
            sched_start = self.sched_cursor
            # classify_row_access, inlined on the flat open-row array.
            open_row = open_row_arr[bank]
            if open_row == row:
                tile_stats.row_hits += 1
                case = 0
            elif open_row < 0:
                tile_stats.row_misses += 1
                case = 1
            else:
                tile_stats.row_conflicts += 1
                case = 2
            is_dram_write = request.is_writeback
            if track is not None:
                track(request.core, case, is_dram_write)
            (kinds, offsets, total_cycles, stage_charge, measured,
             post_flush_ps) = plan_list[case + case + is_dram_write]
            sched_cycles = api.charged_cycles + stage_charge
            api.charged_cycles = 0
            stats.total_sched_cycles += sched_cycles
            sched_ps = sched_cycles * mc_period
            tile_stats.scheduling_ps += sched_ps
            start = self._exec_anchor_ps = sched_start + sched_ps
            dram_cursor = self.dram_cursor
            if dram_cursor > start:
                start = dram_cursor
            # Earliest legal time of the leading command (same value as
            # flat.earliest; negative bounds can never exceed start).
            if not inline_earliest:
                earliest = flat_earliest(kinds[0], bank)
                if earliest > start:
                    start = earliest
            elif case == 0:  # RD/WR on the open row
                e = last_act_arr[bank] + tRCD
                v = flat.max_cas_all + tCCD_S
                if v > e:
                    e = v
                v = gmax_cas_arr[group_of[bank]] + tCCD_L
                if v > e:
                    e = v
                if not is_dram_write:
                    v = flat.max_write_end + tWTR
                    if v > e:
                        e = v
                if e > start:
                    start = e
            elif case == 2:  # PRE (row conflict)
                e = last_act_arr[bank] + tRAS
                v = last_read_arr[bank] + tRTP
                if v > e:
                    e = v
                v = last_write_end_arr[bank] + tWR
                if v > e:
                    e = v
                if e > start:
                    start = e
            else:  # ACT (closed bank)
                e = last_act_arr[bank] + tRC
                v = last_pre_arr[bank] + tRP
                if v > e:
                    e = v
                v = flat.max_act_all + tRRD_S
                if v > e:
                    e = v
                v = gmax_act_arr[group_of[bank]] + tRRD_L
                if v > e:
                    e = v
                acts = flat.recent_acts
                n_acts = len(acts)
                if n_acts >= 4:
                    v = acts[n_acts - 4] + tFAW
                    if v > e:
                        e = v
                v = flat.last_ref + tRFC
                if v > e:
                    e = v
                if e > start:
                    start = e
            if case:
                issue_plan(kinds, offsets, bank, row, dram.col, start, tck)
            else:
                issue_col(kinds[0], bank, dram.col, start)
            bender.programs_run += 1
            bender.total_interface_cycles += total_cycles
            dram_end = self.dram_cursor = start + measured
            tile_stats.dram_busy_ps += measured
            stats.batches_executed += 1
            release_ps = (dram_end + (lat_wr if is_dram_write else lat_rd)
                          + resp_bus)
            request.release = -(-release_ps // proc_period)
            request.service_ps = dram_end - sched_start
            if is_dram_write:
                stats.serviced_writes += 1
            else:
                stats.serviced_reads += 1
            # Mirror the reference path's discarded rdback/enqueue charges.
            api.charged_cycles = 0
            tile_stats.responses_sent += 1
            if pipelined:
                occupied = sched_start + occupancy
                if occupied > self.sched_cursor:
                    self.sched_cursor = occupied
            else:
                cursor = sched_start + sched_ps + post_flush_ps
                if dram_end > cursor:
                    cursor = dram_end
                self.sched_cursor = cursor

        return serve

    def _maybe_refresh_flat(self) -> None:
        """:meth:`_maybe_refresh` on flat state (no staged program)."""
        if not self.config.controller.refresh_enabled:
            return
        if self._next_refresh_ps > self.sched_cursor:
            return
        api = self.api
        device = self.tile.device
        flat = device.flat
        bender = self.tile.engine
        issue = device.issue_fast
        total_cycles = self._ref_cycles
        measured = self._ref_measured
        while self._next_refresh_ps <= self.sched_cursor:
            api.charged_cycles = 0  # staging + accumulated charges discarded
            anchor = self.sched_cursor
            self._exec_anchor_ps = anchor
            start = anchor if anchor >= self.dram_cursor else self.dram_cursor
            earliest = flat.earliest(K_PREA, 0)
            if earliest > start:
                start = earliest
            issue(K_PREA, 0, 0, 0, start, True)
            issue(K_REF, 0, 0, 0, start + self._ref_offset_ps, False)
            bender.programs_run += 1
            bender.total_interface_cycles += total_cycles
            self.dram_cursor = start + measured
            self.tile.stats.dram_busy_ps += measured
            self.stats.batches_executed += 1
            api.charged_cycles = 0  # flush charges discarded
            self.stats.refreshes += 1
            self.tile.stats.refreshes_issued += 1
            if self._storm_factor > 1:
                self._refresh_index += 1
                if self._refresh_index % self._storm_factor:
                    self.stats.storm_refreshes += 1
            self._next_refresh_ps += self._refresh_interval
            if not self._pipelined:
                if self.dram_cursor > self.sched_cursor:
                    self.sched_cursor = self.dram_cursor

    # -- refresh -----------------------------------------------------------------

    def _maybe_refresh(self) -> None:
        """Issue any refreshes whose deadline passed (tREFI cadence)."""
        if not self.config.controller.refresh_enabled:
            return
        while self._next_refresh_ps <= self.sched_cursor:
            self.api.stage_refresh()
            self.api.take_charges()
            self._exec_anchor_ps = max(self.sched_cursor, self._next_refresh_ps)
            self.api.flush_commands()
            self.api.take_charges()
            self.stats.refreshes += 1
            self.tile.stats.refreshes_issued += 1
            if self._storm_factor > 1:
                self._refresh_index += 1
                if self._refresh_index % self._storm_factor:
                    self.stats.storm_refreshes += 1
            self._next_refresh_ps += self._refresh_interval
            if not self._pipelined:
                self.sched_cursor = max(self.sched_cursor, self.dram_cursor)

    # -- technique episodes ---------------------------------------------------------

    def technique_episode(self, stage, issue_cycle: int,
                          respect_timing: bool = False) -> tuple[int, ExecResult]:
        """Run a technique operation (e.g. one RowClone) as an episode.

        ``stage`` is a callable that stages commands through the API.
        ``issue_cycle`` is the processor cycle at which the processor
        issued the technique request (memory-mapped register write).
        Returns (release processor cycle, Bender result).

        The stage's commands are staged through EasyAPI and walked by
        the Bender engine.  The RowClone technique's reliable rows run
        this episode inside the kernel instead
        (:meth:`rowclone_rows_kernel`); this method is their per-row
        path, taken whenever that entry declines.
        """
        self.counters.enter_critical()
        # A strict TimingViolation must not leave critical mode set.
        try:
            start = max(self.sched_cursor,
                        issue_cycle * self._proc_period + self._req_bus_ps)
            self.sched_cursor = start
            self._maybe_refresh()
            start = self.sched_cursor
            api = self.api
            stage(api)
            sched_cycles = api.take_charges()
            self.stats.total_sched_cycles += sched_cycles
            sched_ps = sched_cycles * self._mc_period
            self.tile.stats.scheduling_ps += sched_ps
            self._exec_anchor_ps = start + sched_ps
            result = api.flush_commands(respect_timing=respect_timing)
            api.take_charges()
            release_ps = self.dram_cursor + self._resp_bus_ps
            release = -(-release_ps // self._proc_period)
            self.stats.technique_ops += 1
            self.tile.stats.technique_ops += 1
            if self._pipelined:
                self.sched_cursor = max(start + self._occupancy_ps,
                                        self.sched_cursor)
            else:
                self.sched_cursor = max(self.dram_cursor, start + sched_ps)
            self._sync_mc_counter()
        finally:
            self.counters.exit_critical()
        return release, result

    def _fpm_result(self) -> ExecResult:
        """The Bender result of one FPM RowClone program walk."""
        cycles = self._fpm_cycles
        return ExecResult(cycles * self._tck, cycles, 0, 4)

    # -- counters ---------------------------------------------------------------

    def _sync_mc_counter(self) -> None:
        point_ps = max(self.sched_cursor, self.dram_cursor)
        cycle = point_ps // self._proc_period
        if cycle > self.counters.memory_controller:
            self.counters.advance_memory_controller(cycle)
