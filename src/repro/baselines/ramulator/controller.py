"""Hardware FR-FCFS controller for the cycle-level baseline.

A conventional read-priority FR-FCFS controller ticked every memory
cycle: it holds read and write queues, walks the FSM of the selected
request (PRE -> ACT -> RD/WR), and completes fills when the data burst
ends.  Unlike EasyDRAM's software memory controller it has no software
cost model — it is "hardware", which is exactly the difference the
paper's comparison exercises.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.baselines.ramulator.dram_model import DramTimingModel
from repro.dram.address import AddressMapper, DramAddress


@dataclass
class MemRequest:
    """One DRAM-bound request inside the baseline simulator."""

    rid: int
    dram: DramAddress
    is_write: bool
    arrive_cycle: int
    complete_cycle: int | None = None
    on_complete: Callable[["MemRequest"], None] | None = None


@dataclass
class ControllerStats:
    reads: int = 0
    writes: int = 0
    refreshes: int = 0
    total_read_latency: int = 0


class FrFcfsController:
    """Read-priority FR-FCFS with write draining and refresh."""

    def __init__(self, model: DramTimingModel, mapper: AddressMapper,
                 read_queue_depth: int = 32, write_queue_depth: int = 32,
                 write_drain_threshold: int = 16,
                 trcd_cycles_for: Callable[[int, int], int] | None = None) -> None:
        self.model = model
        self.mapper = mapper
        self.read_q: list[MemRequest] = []
        self.write_q: list[MemRequest] = []
        self.read_queue_depth = read_queue_depth
        self.write_queue_depth = write_queue_depth
        self.write_drain_threshold = write_drain_threshold
        self.stats = ControllerStats()
        self._in_flight: list[tuple[int, MemRequest]] = []
        self._refreshing_until = 0
        #: Optional per-row tRCD override (the tRCD-reduction baseline).
        self.trcd_cycles_for = trcd_cycles_for

    # -- enqueue ---------------------------------------------------------------

    def can_accept(self, is_write: bool) -> bool:
        queue = self.write_q if is_write else self.read_q
        depth = self.write_queue_depth if is_write else self.read_queue_depth
        return len(queue) < depth

    def enqueue(self, request: MemRequest) -> None:
        if request.is_write:
            self.write_q.append(request)
        else:
            self.read_q.append(request)

    @property
    def busy(self) -> bool:
        return bool(self.read_q or self.write_q or self._in_flight)

    # -- per-cycle tick ------------------------------------------------------------

    def tick(self, now: int) -> None:
        self._complete_bursts(now)
        if now < self._refreshing_until:
            return
        if self.model.refresh_due(now):
            self._do_refresh(now)
            return
        request = self._select(now)
        if request is not None:
            self._advance(request, now)

    def _complete_bursts(self, now: int) -> None:
        if not self._in_flight:
            return
        still = []
        for done_cycle, request in self._in_flight:
            if done_cycle <= now:
                request.complete_cycle = done_cycle
                if request.on_complete is not None:
                    request.on_complete(request)
                if not request.is_write:
                    self.stats.total_read_latency += done_cycle - request.arrive_cycle
            else:
                still.append((done_cycle, request))
        self._in_flight = still

    def _do_refresh(self, now: int) -> None:
        model = self.model
        if not model.all_banks_closed():
            for bank in range(len(model.banks)):
                if model.can_precharge(bank, now):
                    model.precharge(bank, now)
            return
        self._refreshing_until = model.refresh(now)
        self.stats.refreshes += 1

    def _select(self, now: int) -> MemRequest | None:
        """Read priority with write draining above a threshold."""
        drain_writes = (len(self.write_q) >= self.write_drain_threshold
                        or not self.read_q)
        primary = self.write_q if (drain_writes and self.write_q) else self.read_q
        if not primary:
            return None
        # FR-FCFS: first row hit, else the oldest request.
        for request in primary:
            fsm = self.model.banks[request.dram.bank]
            if fsm.open_row == request.dram.row:
                return request
        return primary[0]

    def _advance(self, request: MemRequest, now: int) -> None:
        """Issue the next command the selected request needs (one/cycle)."""
        model = self.model
        bank, row = request.dram.bank, request.dram.row
        fsm = model.banks[bank]
        if fsm.open_row == row:
            if request.is_write and model.can_write(bank, row, now):
                done = model.write(bank, now)
                self.write_q.remove(request)
                self._in_flight.append((done, request))
                self.stats.writes += 1
                model.row_hits += 1
            elif not request.is_write and model.can_read(bank, row, now):
                done = model.read(bank, now)
                self.read_q.remove(request)
                self._in_flight.append((done, request))
                self.stats.reads += 1
                model.row_hits += 1
        elif fsm.open_row is None:
            if model.can_activate(bank, now):
                if self.trcd_cycles_for is not None:
                    model.activate_with_trcd_cycles(
                        bank, row, now, self.trcd_cycles_for(bank, row))
                else:
                    model.activate(bank, row, now)
                model.row_misses += 1
        else:
            if model.can_precharge(bank, now):
                model.precharge(bank, now)
                model.row_conflicts += 1
