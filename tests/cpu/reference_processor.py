"""Per-access reference of the processor's trace replay.

The production :class:`repro.cpu.processor.Processor` replays access
blocks: ``feed`` chunks any per-access trace with ``blockify``, a
block's cache traffic is computed up front, and ``execute_burst``
walks it with the MLP/window/dependence gating in locals.  This is the
replay as it was when it took one :class:`~repro.cpu.memtrace.Access`
at a time — the cache filter called per access as the access executes
— kept as the oracle the block replay is checked against
(``test_blockify_reference.py``, ``test_blocks.py``).

Drive it with the cycle engine (:func:`install` on a ``"cycle"``
session): the event engine's resident replay reads the production
processor's block state, which this class does not keep.
"""

from __future__ import annotations

from typing import Iterator

from repro.cpu.blocks import BlockTrace
from repro.cpu.memtrace import FLAG_DEPENDENT, FLAG_WRITE, Access, Trace
from repro.cpu.processor import BurstResult, MemoryRequest, Processor


class ReferenceProcessor(Processor):
    """A :class:`Processor` that replays its trace access by access."""

    def feed(self, trace: Trace | BlockTrace) -> None:
        if isinstance(trace, BlockTrace):
            trace = trace.accesses()
        self._trace: Iterator[Access] = iter(trace)
        self._pending: Access | None = None
        self._done = False

    def execute_burst(self) -> BurstResult:
        """Run until blocked on an unserviced miss or the trace ends."""
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


def install(session) -> ReferenceProcessor:
    """Swap a fresh session's core 0 for a :class:`ReferenceProcessor`
    (same config, caches and hooks)."""
    proc = session.processor
    reference = ReferenceProcessor(proc.config, proc.hierarchy, trace=(),
                                   core_id=proc.core_id)
    reference.prime_hook = proc.prime_hook
    reference.channel_hook = proc.channel_hook
    session.processor = session.cores[0].processor = reference
    return reference
