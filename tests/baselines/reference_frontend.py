"""Per-access reference of the cycle-level baseline's core frontend.

The production :class:`repro.baselines.ramulator.frontend.CoreFrontend`
reads access blocks through an index cursor.  This is the frontend as
it was when it read one :class:`~repro.cpu.memtrace.Access` at a time,
kept verbatim as the oracle the block frontend is checked against
(``test_frontend_oracle.py``).  Its original description follows.

Simple out-of-order core frontend for the cycle-level baseline.

The paper configures Ramulator 2.0 with "a simple out-of-order core and
a last-level cache" (footnote 5) and notes its processor model differs
significantly from EasyDRAM's real BOOM implementation — that difference
is part of what Figures 10/11/13 show.  This frontend executes at most
one memory access per CPU cycle, tracks a bounded number of outstanding
misses, and blocks when the oldest miss gates further progress.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

from repro.cpu.cache import CacheHierarchy
from repro.cpu.memtrace import FLAG_DEPENDENT, FLAG_WRITE, Access, Trace


@dataclass
class FrontendStats:
    accesses: int = 0
    loads: int = 0
    stores: int = 0
    stall_cycles: int = 0
    llc_misses: int = 0
    writebacks: int = 0


class CoreFrontend:
    """Trace-driven OoO core ticked at the CPU clock."""

    def __init__(self, hierarchy: CacheHierarchy, trace: Trace,
                 issue_miss: Callable[[int, bool, "CoreFrontend"], object],
                 mlp: int = 8) -> None:
        self.hierarchy = hierarchy
        self._trace: Iterator[Access] = iter(trace)
        self._issue_miss = issue_miss
        self.mlp = mlp
        self.stats = FrontendStats()
        self._gap_left = 0
        self._wait_cycles = 0
        self._pending: Access | None = None
        self._outstanding: list[object] = []   # requests, oldest first
        self._done = False
        self._stalled_on_queue = False

    @property
    def done(self) -> bool:
        return self._done and not self._outstanding

    def notify_complete(self, request: object) -> None:
        if request in self._outstanding:
            self._outstanding.remove(request)
        self._stalled_on_queue = False

    def tick(self, now: int) -> None:
        """Advance one CPU cycle."""
        if self.done:
            return
        if self._wait_cycles > 0:
            self._wait_cycles -= 1
            self.stats.stall_cycles += 1
            return
        if self._gap_left > 0:
            self._gap_left -= 1
            return
        if self._pending is None:
            self._pending = next(self._trace, None)
            if self._pending is None:
                self._done = True
                if self._outstanding:
                    self.stats.stall_cycles += 1
                return
            if self._pending.gap:
                self._gap_left = self._pending.gap
                return
        access = self._pending
        if (access.flags & FLAG_DEPENDENT) and self._outstanding:
            self.stats.stall_cycles += 1
            return
        if len(self._outstanding) >= self.mlp:
            self.stats.stall_cycles += 1
            return
        self._pending = None
        self._execute(access)

    def _execute(self, access: Access) -> None:
        stats = self.stats
        stats.accesses += 1
        is_write = bool(access.flags & FLAG_WRITE)
        if is_write:
            stats.stores += 1
        else:
            stats.loads += 1
        traffic = self.hierarchy.access(access.addr, is_write)
        # Hit-path latency consumes pipeline cycles.
        self._wait_cycles = max(0, traffic.latency - 1)
        for wb_addr in traffic.writebacks:
            stats.writebacks += 1
            self._issue_miss(wb_addr, True, self)
        if traffic.fill_line is not None:
            stats.llc_misses += 1
            request = self._issue_miss(traffic.fill_line, False, self)
            if request is not None:
                self._outstanding.append(request)
