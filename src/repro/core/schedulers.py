"""Request schedulers for the software memory controller.

The software library of EasyAPI (Table 2) ships FCFS and FR-FCFS
scheduler implementations.  Schedulers select the next request from the
software request table given the current bank states; their *decision
cost* in controller cycles is charged by the cost model so slower
algorithms genuinely slow the controller down.

Beyond the paper's pair, the multi-core scenario engine adds three
fairness-aware policies from the memory-scheduling literature:

* ``atlas`` — ATLAS-style least-attained-service ranking (Kim et al.,
  HPCA 2010): cores that have received the least DRAM service rank
  first, with periodic decay so the ranking tracks *recent* service.
* ``bliss`` — BLISS-style blacklisting (Subramanian et al., ICCD 2014):
  a core served too many times in a row is blacklisted (deprioritized)
  until the periodic blacklist clear, which throttles interference-heavy
  streams without per-core rank state in the hot loop.
* ``batch`` — PAR-BS-style request batching (Mutlu & Moscibroda, ISCA
  2008, simplified): the controller marks a bounded batch of the oldest
  requests per core and serves marked requests before unmarked ones, so
  no core's requests can be bypassed for longer than one batch drain.

Stateful schedulers (``stateful = True``) update their ranking state
inside :meth:`select`/:meth:`select_flat`; the controller guarantees the
select method is called exactly once per serviced request on every serve
path (the singleton shortcuts that skip selection are disabled for
them), so object-path and fast-path runs stay bit-identical.
"""

from __future__ import annotations

import difflib
from dataclasses import dataclass

from repro.cpu.processor import MemoryRequest
from repro.dram.address import DramAddress
from repro.dram.bank import BankState


@dataclass(slots=True, eq=False)
class TableEntry:
    """A request decoded and parked in the software request table.

    Identity semantics (``eq=False``): ``table.remove(entry)`` removes
    the selected object itself, so equality never needs field tuples.
    """

    request: MemoryRequest
    dram: DramAddress
    arrival_order: int

    @property
    def is_write(self) -> bool:
        return self.request.is_writeback


class Scheduler:
    """Interface: pick the next table entry to service."""

    name = "abstract"

    #: Stateful schedulers mutate ranking state inside select; the SMC
    #: disables its singleton-table shortcuts for them so selection runs
    #: exactly once per serve on the object path and the fast path alike.
    stateful = False

    def select(self, table: list[TableEntry],
               banks: list[BankState]) -> TableEntry:
        raise NotImplementedError

    def decision_cost(self, table_len: int) -> int:
        """Controller cycles the decision takes (charged by the cost model)."""
        raise NotImplementedError


class FCFS(Scheduler):
    """First come, first serve: strictly oldest request first."""

    name = "fcfs"

    def __init__(self, age_cap: int | None = None) -> None:
        # FCFS is starvation-free by construction; the cap is accepted
        # and ignored so configs can sweep schedulers uniformly.
        self.age_cap = None

    def select(self, table: list[TableEntry],
               banks: list[BankState]) -> TableEntry:
        if not table:
            raise ValueError("cannot schedule from an empty request table")
        return min(table, key=lambda e: e.arrival_order)

    def select_flat(self, table: list[tuple],
                    open_row: list[int]) -> tuple:
        """:meth:`select` on the fast path's flat request table.

        Fast-path table entries are ``(arrival_order, request, dram)``
        tuples, appended in arrival order; removals keep the list
        ordered, so the oldest entry is the first one.
        """
        return table[0]

    def decision_cost(self, table_len: int) -> int:
        return 3 + table_len


class FRFCFS(Scheduler):
    """First ready, first come, first serve (Rixner et al.).

    Row-buffer hits are prioritized over row misses; ties break by age.
    This maximizes row-buffer locality and is the paper's default.

    ``age_cap`` is the anti-starvation guard multi-core contention
    needs: plain FR-FCFS lets one core's row-hit stream bypass another
    core's row-miss request indefinitely.  With a cap, once the oldest
    table entry has watched ``age_cap`` newer requests arrive (its
    arrival-order distance to the newest entry reaches the cap), it is
    served next regardless of row-buffer state.  The default (``None``)
    disables the guard and reproduces the paper's single-core scheduler
    bit for bit.
    """

    name = "fr-fcfs"

    def __init__(self, age_cap: int | None = None) -> None:
        if age_cap is not None and age_cap < 1:
            raise ValueError("age_cap must be >= 1 (or None to disable)")
        self.age_cap = age_cap

    def select(self, table: list[TableEntry],
               banks: list[BankState]) -> TableEntry:
        if not table:
            raise ValueError("cannot schedule from an empty request table")
        cap = self.age_cap
        if cap is not None:
            oldest = min(table, key=lambda e: e.arrival_order)
            newest = max(table, key=lambda e: e.arrival_order)
            if newest.arrival_order - oldest.arrival_order >= cap:
                return oldest
        best: TableEntry | None = None
        best_key: tuple[int, int, int] | None = None
        for entry in table:
            bank = banks[entry.dram.bank]
            row_hit = bank.open_row == entry.dram.row
            # Reads (fills) are latency-critical; writebacks are posted,
            # so they drain behind reads (standard write deprioritization).
            key = (1 if entry.is_write else 0,
                   0 if row_hit else 1, entry.arrival_order)
            if best_key is None or key < best_key:
                best, best_key = entry, key
        assert best is not None
        return best

    def select_flat(self, table: list[tuple],
                    open_row: list[int]) -> tuple:
        """:meth:`select` on the fast path's flat request table.

        Entries are ``(arrival_order, request, dram)`` tuples.  The
        (write, row-miss, age) key is packed into one integer —
        ``arrival_order`` is far below 2**60, so the packed comparison
        is exactly the lexicographic tuple comparison.
        """
        cap = self.age_cap
        if cap is not None and table[-1][0] - table[0][0] >= cap:
            # Entries append in arrival order and removals keep the list
            # sorted, so first/last are the oldest/newest entries.
            return table[0]
        # The oldest entry has the smallest arrival order, so if it is a
        # read row-hit nothing can beat it — the common case on
        # streaming fills is O(1).
        order, request, dram = table[0]
        if not request.is_writeback and open_row[dram.bank] == dram.row:
            return table[0]
        best: tuple | None = None
        best_key = 1 << 63
        for entry in table:
            order, request, dram = entry
            key = order
            if request.is_writeback:
                key += 2 << 60
            if open_row[dram.bank] != dram.row:
                key += 1 << 60
            if key < best_key:
                best, best_key = entry, key
        assert best is not None
        return best

    def decision_cost(self, table_len: int) -> int:
        # Scanning the table for row hits costs a couple of cycles/entry.
        return 4 + 2 * table_len


class _RankedScheduler(Scheduler):
    """Shared machinery for the fairness-aware policies.

    Subclasses rank table entries into priority *groups* (smaller group
    first) and FR-FCFS order — reads before writebacks, row hits before
    misses, then age — breaks ties within a group.  Ranking state is
    updated via :meth:`_note_serve` inside select, which the controller
    calls exactly once per serviced request on every path.
    """

    stateful = True

    def __init__(self, age_cap: int | None = None) -> None:
        if age_cap is not None and age_cap < 1:
            raise ValueError("age_cap must be >= 1 (or None to disable)")
        self.age_cap = age_cap

    # -- subclass hooks --------------------------------------------------
    def _before_select(self, entries: list[tuple[int, int]]) -> None:
        """Observe the live ``(arrival_order, core)`` table before ranking."""

    def _group(self, arrival_order: int, core: int) -> int:
        raise NotImplementedError

    def _note_serve(self, arrival_order: int, core: int,
                    row_hit: bool) -> None:
        """Account the serviced request (selection already made)."""

    # -- Scheduler interface ---------------------------------------------
    def select(self, table: list[TableEntry],
               banks: list[BankState]) -> TableEntry:
        if not table:
            raise ValueError("cannot schedule from an empty request table")
        self._before_select(
            [(e.arrival_order, e.request.core) for e in table])
        chosen: TableEntry | None = None
        cap = self.age_cap
        if cap is not None:
            oldest = min(table, key=lambda e: e.arrival_order)
            newest = max(table, key=lambda e: e.arrival_order)
            if newest.arrival_order - oldest.arrival_order >= cap:
                chosen = oldest
        if chosen is None:
            best_key: tuple[int, int, int, int] | None = None
            for entry in table:
                row_hit = banks[entry.dram.bank].open_row == entry.dram.row
                key = (self._group(entry.arrival_order, entry.request.core),
                       1 if entry.is_write else 0,
                       0 if row_hit else 1, entry.arrival_order)
                if best_key is None or key < best_key:
                    chosen, best_key = entry, key
        assert chosen is not None
        hit = banks[chosen.dram.bank].open_row == chosen.dram.row
        self._note_serve(chosen.arrival_order, chosen.request.core, hit)
        return chosen

    def select_flat(self, table: list[tuple],
                    open_row: list[int]) -> tuple:
        """:meth:`select` on the fast path's flat request table."""
        self._before_select([(order, request.core)
                             for order, request, _ in table])
        chosen: tuple | None = None
        cap = self.age_cap
        if cap is not None and table[-1][0] - table[0][0] >= cap:
            chosen = table[0]
        if chosen is None:
            best_key: tuple[int, int, int, int] | None = None
            for entry in table:
                order, request, dram = entry
                key = (self._group(order, request.core),
                       1 if request.is_writeback else 0,
                       0 if open_row[dram.bank] == dram.row else 1, order)
                if best_key is None or key < best_key:
                    chosen, best_key = entry, key
        assert chosen is not None
        order, request, dram = chosen
        self._note_serve(order, request.core,
                         open_row[dram.bank] == dram.row)
        return chosen


class ATLAS(_RankedScheduler):
    """ATLAS-style least-attained-service ranking.

    Each core accumulates *attained service* as it is served (row hits
    charge 1, activations charge 2 — a row miss occupies the channel for
    longer); the core with the least attained service ranks first, so
    starved latency-critical cores overtake bandwidth hogs.  Every
    ``quantum`` serviced requests the counters halve, making the ranking
    a long-term but decaying history, per the original quantum design.
    """

    name = "atlas"

    def __init__(self, age_cap: int | None = None,
                 quantum: int = 2048) -> None:
        super().__init__(age_cap)
        if quantum < 1:
            raise ValueError("quantum must be >= 1")
        self.quantum = quantum
        self.attained: dict[int, int] = {}
        self._serves_in_quantum = 0

    def _group(self, arrival_order: int, core: int) -> int:
        return self.attained.get(core, 0)

    def _note_serve(self, arrival_order: int, core: int,
                    row_hit: bool) -> None:
        self.attained[core] = self.attained.get(core, 0) + (1 if row_hit
                                                            else 2)
        self._serves_in_quantum += 1
        if self._serves_in_quantum >= self.quantum:
            self._serves_in_quantum = 0
            self.attained = {c: v >> 1 for c, v in self.attained.items()}

    def decision_cost(self, table_len: int) -> int:
        # Rank lookup plus the row-hit scan per entry.
        return 6 + 3 * table_len


class BLISS(_RankedScheduler):
    """BLISS-style blacklisting scheduler.

    A core served ``threshold`` times in a row is *blacklisted*:
    its requests lose to every non-blacklisted request until the
    blacklist clears (every ``clear_interval`` serviced requests).
    Within each class the order is plain FR-FCFS, keeping the row-buffer
    locality of the paper's scheduler for well-behaved streams.
    """

    name = "bliss"

    def __init__(self, age_cap: int | None = None, threshold: int = 4,
                 clear_interval: int = 512) -> None:
        super().__init__(age_cap)
        if threshold < 1:
            raise ValueError("threshold must be >= 1")
        if clear_interval < 1:
            raise ValueError("clear_interval must be >= 1")
        self.threshold = threshold
        self.clear_interval = clear_interval
        self.blacklisted: set[int] = set()
        self._last_core: int | None = None
        self._streak = 0
        self._serves = 0

    def _group(self, arrival_order: int, core: int) -> int:
        return 1 if core in self.blacklisted else 0

    def _note_serve(self, arrival_order: int, core: int,
                    row_hit: bool) -> None:
        if core == self._last_core:
            self._streak += 1
        else:
            self._last_core = core
            self._streak = 1
        if self._streak >= self.threshold:
            self.blacklisted.add(core)
        self._serves += 1
        if self._serves >= self.clear_interval:
            self._serves = 0
            self.blacklisted.clear()

    def decision_cost(self, table_len: int) -> int:
        return 5 + 2 * table_len


class BatchScheduler(_RankedScheduler):
    """PAR-BS-style request batching (simplified).

    When no live table entry is marked, the scheduler forms a new batch:
    the oldest ``batch_cap`` requests of every core are marked.  Marked
    requests are served before unmarked ones (FR-FCFS order within each
    class), so a request waits at most one full batch drain regardless
    of the row-hit streams around it — batching *is* the anti-starvation
    mechanism.
    """

    name = "batch"

    def __init__(self, age_cap: int | None = None,
                 batch_cap: int = 4) -> None:
        super().__init__(age_cap)
        if batch_cap < 1:
            raise ValueError("batch_cap must be >= 1")
        self.batch_cap = batch_cap
        #: Arrival orders of the current batch's marked requests.
        self.marked: set[int] = set()

    def _before_select(self, entries: list[tuple[int, int]]) -> None:
        marked = self.marked
        if any(order in marked for order, _ in entries):
            return
        marked.clear()
        per_core: dict[int, int] = {}
        for order, core in sorted(entries):
            if per_core.get(core, 0) < self.batch_cap:
                per_core[core] = per_core.get(core, 0) + 1
                marked.add(order)

    def _group(self, arrival_order: int, core: int) -> int:
        return 0 if arrival_order in self.marked else 1

    def _note_serve(self, arrival_order: int, core: int,
                    row_hit: bool) -> None:
        self.marked.discard(arrival_order)

    def decision_cost(self, table_len: int) -> int:
        return 6 + 2 * table_len


#: Every scheduler the factory can build, keyed by config/CLI name.
SCHEDULERS: dict[str, type[Scheduler]] = {
    FCFS.name: FCFS,
    FRFCFS.name: FRFCFS,
    ATLAS.name: ATLAS,
    BLISS.name: BLISS,
    BatchScheduler.name: BatchScheduler,
}


def scheduler_names() -> tuple[str, ...]:
    """The registered scheduler names, sorted for stable messages."""
    return tuple(sorted(SCHEDULERS))


def make_scheduler(name: str, age_cap: int | None = None) -> Scheduler:
    """Factory used by the controller config.

    ``age_cap`` threads to every policy's anti-starvation guard (FCFS is
    starvation-free by construction and ignores it, so configs can sweep
    schedulers without special-casing).  Unknown names raise a
    ``ValueError`` listing the registry, with a did-you-mean suggestion
    when a close match exists.
    """
    cls = SCHEDULERS.get(name)
    if cls is None:
        known = scheduler_names()
        matches = difflib.get_close_matches(name, known, n=1, cutoff=0.5)
        hint = f" — did you mean {matches[0]!r}?" if matches else ""
        raise ValueError(f"unknown scheduler {name!r}{hint}"
                         f" (known: {', '.join(known)})")
    return cls(age_cap=age_cap)
