"""Trace-driven processor model with bounded memory-level parallelism.

The model replaces the paper's BOOM RISC-V core.  It executes a memory
trace (compute gaps + loads/stores), filters accesses through the cache
hierarchy, and exposes the processor-side contract that EasyDRAM's time
scaling needs (Sections 4.3/4.4):

* every last-level-cache miss becomes a :class:`MemoryRequest` *tagged
  with the processor cycle counter at issue time*;
* the processor clock-gates (``execute_burst`` returns with
  ``blocked=True``) once it cannot proceed without a response;
* responses carry a *release* cycle set by the memory-controller side;
  consuming a response advances the processor counter to that release
  value, which is exactly the "response tagged with the cycle it may be
  consumed at" rule of Figure 5 (step 10).

Out-of-order behaviour is approximated by a miss-level-parallelism bound
(``mlp``) plus an instruction window past the oldest outstanding miss.
Dependent accesses (pointer chases) serialize on all earlier misses.
"""

from __future__ import annotations

import itertools
from array import array
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from repro.cpu.blocks import AccessBlock, BlockTrace
from repro.cpu.cache import BlockTraffic, CacheHierarchy
from repro.cpu.memtrace import FLAG_DEPENDENT, FLAG_WRITE, Access, Trace


@dataclass(slots=True, eq=False)
class MemoryRequest:
    """A DRAM-bound request emitted by the processor (or a writeback).

    Identity semantics (``eq=False``): a request is one in-flight object
    shared between processor and controller, never compared by value —
    and list removal then uses C-speed identity scans.
    """

    rid: int
    addr: int
    is_write: bool
    tag: int                   # processor cycle counter at issue (Fig 5, (b))
    is_writeback: bool = False
    release: int | None = None  # set by the SMC; consumption gate
    issue_index: int = 0        # instruction count at issue (window check)
    #: Filled in by the memory side for row-hit statistics.
    service_ps: int = 0
    #: Memory channel the address decodes to (always 0 on the paper's
    #: single-channel system); set at issue time so the channel router
    #: never re-decodes.
    channel: int = 0
    #: Core that issued the request (always 0 on the paper's single-core
    #: system).  Multi-core sessions tag it at issue time so the shared
    #: memory controller can attribute service and row-buffer outcomes
    #: per core without back-pointers.
    core: int = 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kind = ("WB" if self.is_writeback else
                "ST" if self.is_write else "LD")
        return f"<{kind}#{self.rid} {self.addr:#x} tag={self.tag} rel={self.release}>"


@dataclass(slots=True)
class BurstResult:
    """What one ``execute_burst`` call produced."""

    new_requests: list[MemoryRequest]
    blocked: bool
    done: bool


@dataclass
class ProcessorConfig:
    """Core parameters of the modeled processor."""

    name: str = "generic"
    emulated_freq_hz: float = 1.43e9   # Cortex A57 in the Jetson Nano
    fpga_freq_hz: float = 100e6        # BOOM's FPGA clock in EasyDRAM
    mlp: int = 4                       # max outstanding LLC-miss fills
    miss_window: int = 32              # accesses allowed past oldest miss
    flush_latency: int = 8             # CLFLUSH register write cost (cycles)

    def __post_init__(self) -> None:
        if self.mlp < 1:
            raise ValueError("mlp must be >= 1")
        if self.miss_window < 1:
            raise ValueError("miss_window must be >= 1")


@dataclass
class ProcessorStats:
    """Execution counters in emulated processor cycles.

    ``request_latencies`` logs every consumed request's latency, in
    order, as an ``int64`` array: the Python loops append one value per
    request and the resident replay appends its kernel buffer with one
    memory copy.  Averages divide its exact integer sum
    (:func:`latency_sum`), so they are the same Python floats as over a
    list of ints.
    """

    accesses: int = 0
    loads: int = 0
    stores: int = 0
    compute_cycles: int = 0
    stall_cycles: int = 0
    llc_miss_requests: int = 0
    writeback_requests: int = 0
    request_latencies: array = field(default_factory=lambda: array("q"))

    @property
    def avg_request_latency(self) -> float:
        lat = self.request_latencies
        return latency_sum(lat) / len(lat) if lat else 0.0


def latency_sum(latencies: array) -> int:
    """The sum of an ``int64`` latency log, as a Python int."""
    return int(np.frombuffer(latencies, np.int64).sum())


class Processor:
    """One emulated core executing a memory trace."""

    def __init__(self, config: ProcessorConfig, hierarchy: CacheHierarchy,
                 trace: Trace, core_id: int = 0) -> None:
        self.config = config
        self.hierarchy = hierarchy
        self._trace: Iterator[Access] = iter(trace)
        self.cycles = 0                      # processor cycle counter
        #: This core's index in a multi-core session (0 when solo);
        #: stamped into every request the core issues.
        self.core_id = core_id
        self.outstanding: list[MemoryRequest] = []
        self.stats = ProcessorStats()
        self._rid = itertools.count()
        self._pending: Access | None = None
        self._done = False
        #: Optional bulk address-decode hook (wired by the session to
        #: the tile's :meth:`AddressMapper.prime`): called with each
        #: block's DRAM-bound addresses right after the cache filter.
        self.prime_hook = None
        #: Optional address -> channel hook (wired by multi-channel
        #: sessions to :meth:`AddressMapper.channel_of`).  Every DRAM
        #: request — LLC-miss fill or writeback — is tagged with its
        #: channel at issue time, before it enters the MLP gating window,
        #: so the controller side routes without re-decoding.
        self.channel_hook = None
        # Block-mode state: the block stream, the current block's flags
        # and gaps (as lists) with its precomputed cache traffic, and
        # replay cursors into it.
        self._blocks: Iterator[AccessBlock] | None = None
        self._cur: tuple[list[int], list[int], BlockTraffic] | None = None
        self._pos = 0
        self._wb_ptr = 0

    # -- engine-facing API ------------------------------------------------------

    @property
    def done(self) -> bool:
        return self._done

    def feed(self, trace: Trace | BlockTrace) -> None:
        """Queue another trace segment (sessions mix traces and techniques).

        A :class:`~repro.cpu.blocks.BlockTrace` takes the array-native
        replay path (cache traffic precomputed one block at a time); any
        other trace replays access by access.  Both paths produce the
        same requests, cycles, and statistics.
        """
        self._pending = None
        self._done = False
        self._blocks = None
        self._cur = None
        self._pos = 0
        self._wb_ptr = 0
        if isinstance(trace, BlockTrace):
            self._trace = iter(())
            self._blocks = iter(trace)
        else:
            self._trace = iter(trace)

    def execute_burst(self) -> BurstResult:
        """Run until blocked on an unserviced miss or the trace ends."""
        if self._blocks is not None:
            return self._execute_burst_blocks()
        new_requests: list[MemoryRequest] = []
        while True:
            if self._pending is None:
                self._pending = next(self._trace, None)
            access = self._pending
            if access is None:
                if self._drain():
                    self._done = True
                    return BurstResult(new_requests, blocked=False, done=True)
                return BurstResult(new_requests, blocked=True, done=False)
            if not self._can_issue(access):
                if not self._consume_ready(access):
                    return BurstResult(new_requests, blocked=True, done=False)
                continue
            self._pending = None
            self._execute(access, new_requests)

    @property
    def in_block_mode(self) -> bool:
        """Whether the current trace segment replays as access blocks."""
        return self._blocks is not None

    def _execute_burst_blocks(self) -> BurstResult:
        """:meth:`execute_burst` over precomputed access blocks.

        The cache outcomes of a whole block are computed up front
        (:meth:`CacheHierarchy.access_block` — legal because cache state
        depends only on the access stream, never on request servicing)
        and replayed here under the same MLP/window/dependence gating as
        the per-access path, with the hot state in locals.
        """
        new_requests: list[MemoryRequest] = []
        out = self.outstanding
        config = self.config
        mlp = config.mlp
        window = config.miss_window
        stats = self.stats
        rid = self._rid
        channel_of = self.channel_hook
        core = self.core_id
        # Hot counters hoisted into locals for the replay loop; every
        # exit path below writes them back through _sync_block_counters.
        cycles = self.cycles
        accesses = stats.accesses
        loads = stats.loads
        stores = stats.stores
        compute = stats.compute_cycles
        stalls = stats.stall_cycles
        latencies = stats.request_latencies
        while True:
            cur = self._cur
            if cur is None:
                block = next(self._blocks, None)
                if block is None:
                    self._sync_block_counters(
                        cycles, accesses, loads, stores, compute, stalls)
                    if self._drain():
                        self._done = True
                        return BurstResult(new_requests, blocked=False,
                                           done=True)
                    return BurstResult(new_requests, blocked=True,
                                       done=False)
                # The loop below indexes Python lists: one bulk
                # conversion per block.
                flags = block.flags.tolist()
                traffic = self.hierarchy.access_block(block.addr, flags)
                hook = self.prime_hook
                if hook is not None and (traffic.n_fills or traffic.wb_addr):
                    hook(traffic.fill_addr, traffic.wb_addr)
                cur = self._cur = (flags, block.gap.tolist(), traffic)
                self._pos = 0
                self._wb_ptr = 0
            flags, gaps, traffic = cur
            lat = traffic.latency
            fills = traffic.fill_addr
            wb_idx = traffic.wb_index
            wb_addrs = traffic.wb_addr
            n = len(flags)
            n_wb = len(wb_idx)
            i = self._pos
            wb_ptr = self._wb_ptr
            while i < n:
                flag = flags[i]
                if out:
                    # _can_issue, inlined.
                    if (flag & FLAG_DEPENDENT or len(out) >= mlp
                            or accesses - out[0].issue_index >= window):
                        # _consume_ready / _consume, inlined.
                        if flag & FLAG_DEPENDENT:
                            blocked = False
                            for request in out:
                                if request.release is None:
                                    blocked = True
                                    break
                            if blocked:
                                self._pos = i
                                self._wb_ptr = wb_ptr
                                self._sync_block_counters(
                                    cycles, accesses, loads, stores, compute,
                                    stalls)
                                return BurstResult(new_requests,
                                                   blocked=True, done=False)
                            for request in out:
                                release = request.release
                                if release > cycles:
                                    stalls += release - cycles
                                    cycles = release
                                delta = release - request.tag
                                latencies.append(delta if delta > 0 else 0)
                            out.clear()
                        else:
                            oldest = out[0]
                            release = oldest.release
                            if release is None:
                                self._pos = i
                                self._wb_ptr = wb_ptr
                                self._sync_block_counters(
                                    cycles, accesses, loads, stores, compute,
                                    stalls)
                                return BurstResult(new_requests,
                                                   blocked=True, done=False)
                            if release > cycles:
                                stalls += release - cycles
                                cycles = release
                            delta = release - oldest.tag
                            latencies.append(delta if delta > 0 else 0)
                            out.pop(0)
                        continue
                # _execute, inlined.
                accesses += 1
                if flag & FLAG_WRITE:
                    stores += 1
                else:
                    loads += 1
                gap = gaps[i]
                if gap:
                    cycles += gap
                    compute += gap
                cycles += lat[i]
                while wb_ptr < n_wb and wb_idx[wb_ptr] == i:
                    stats.writeback_requests += 1
                    wb_addr = wb_addrs[wb_ptr]
                    new_requests.append(MemoryRequest(
                        rid=next(rid), addr=wb_addr, is_write=True,
                        tag=cycles, is_writeback=True, issue_index=accesses,
                        channel=0 if channel_of is None else channel_of(wb_addr),
                        core=core))
                    wb_ptr += 1
                fill = fills[i]
                if fill >= 0:
                    stats.llc_miss_requests += 1
                    request = MemoryRequest(
                        rid=next(rid), addr=fill,
                        is_write=bool(flag & FLAG_WRITE), tag=cycles,
                        issue_index=accesses,
                        channel=0 if channel_of is None else channel_of(fill),
                        core=core)
                    out.append(request)
                    new_requests.append(request)
                i += 1
            self._cur = None

    def _sync_block_counters(self, cycles: int, accesses: int, loads: int,
                             stores: int, compute: int, stalls: int) -> None:
        """Write the block-replay loop's hoisted counters back."""
        self.cycles = cycles
        stats = self.stats
        stats.accesses = accesses
        stats.loads = loads
        stats.stores = stores
        stats.compute_cycles = compute
        stats.stall_cycles = stalls

    def deliver(self, request: MemoryRequest) -> None:
        """The memory side finished ``request``; its release must be set."""
        if request.release is None:
            raise ValueError(f"delivered request without release: {request}")

    def next_release_cycle(self) -> int | None:
        """Release cycle of the oldest serviced outstanding fill, if any.

        This is the cycle the processor resumes at on the emulated
        timeline: after a critical-mode episode the core
        resumes by jumping directly to this cycle (Fig 5, step 10) —
        no emulated cycle before it can make the core runnable.  Exposed
        for engine instrumentation and the scheduler edge-case tests.
        """
        for request in self.outstanding:
            if request.release is not None:
                return request.release
        return None

    def clflush(self, addr: int) -> tuple[int | None, int]:
        """Flush one line (memory-mapped CLFLUSH register, Section 7.1).

        Returns (writeback address or None, cycles charged).
        """
        self.cycles += self.config.flush_latency
        return self.hierarchy.flush_line(addr), self.config.flush_latency

    # -- internals ------------------------------------------------------------

    def _can_issue(self, access: Access) -> bool:
        if not self.outstanding:
            return True
        if access.flags & FLAG_DEPENDENT:
            return False
        if len(self.outstanding) >= self.config.mlp:
            return False
        oldest = self.outstanding[0]
        return self.stats.accesses - oldest.issue_index < self.config.miss_window

    def _consume_ready(self, access: Access) -> bool:
        """Consume resolved responses that gate ``access``.

        Returns False when the gating response has not been serviced yet —
        i.e. the processor is clock-gated.
        """
        if access.flags & FLAG_DEPENDENT:
            if any(r.release is None for r in self.outstanding):
                return False
            for request in self.outstanding:
                self._consume(request)
            self.outstanding.clear()
            return True
        oldest = self.outstanding[0]
        if oldest.release is None:
            return False
        self._consume(oldest)
        self.outstanding.pop(0)
        return True

    def _consume(self, request: MemoryRequest) -> None:
        assert request.release is not None
        if request.release > self.cycles:
            self.stats.stall_cycles += request.release - self.cycles
            self.cycles = request.release
        self.stats.request_latencies.append(max(0, request.release - request.tag))

    def _drain(self) -> bool:
        """At end of trace: consume every outstanding fill if possible."""
        if any(r.release is None for r in self.outstanding):
            return False
        for request in self.outstanding:
            self._consume(request)
        self.outstanding.clear()
        return True

    def _execute(self, access: Access, new_requests: list[MemoryRequest]) -> None:
        stats = self.stats
        stats.accesses += 1
        is_write = bool(access.flags & FLAG_WRITE)
        if is_write:
            stats.stores += 1
        else:
            stats.loads += 1
        if access.gap:
            self.cycles += access.gap
            stats.compute_cycles += access.gap
        traffic = self.hierarchy.access(access.addr, is_write)
        self.cycles += traffic.latency
        channel_of = self.channel_hook
        for wb_addr in traffic.writebacks:
            stats.writeback_requests += 1
            new_requests.append(MemoryRequest(
                rid=next(self._rid), addr=wb_addr, is_write=True,
                tag=self.cycles, is_writeback=True,
                issue_index=stats.accesses,
                channel=0 if channel_of is None else channel_of(wb_addr),
                core=self.core_id))
        if traffic.fill_line is not None:
            stats.llc_miss_requests += 1
            request = MemoryRequest(
                rid=next(self._rid), addr=traffic.fill_line,
                is_write=is_write, tag=self.cycles,
                issue_index=stats.accesses,
                channel=0 if channel_of is None
                else channel_of(traffic.fill_line),
                core=self.core_id)
            self.outstanding.append(request)
            new_requests.append(request)
