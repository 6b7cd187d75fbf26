"""Emulation engines: the cycle-stepped reference and the event-driven core.

Both engines drive the same execution flow of Figures 5 and 6 — run the
processor until it clock-gates on an unserviced last-level-cache miss,
service every pending request in critical mode, resume at the release
cycles — and both produce *bit-identical* run results: the emulated
timeline is fully determined by the trace and the configuration, so an
engine may only choose how the **host** spends its time, never when the
emulated system does.

:class:`CycleEngine`
    The reference implementation.  Every request is staged through
    :class:`~repro.core.easyapi.EasyAPI` into a
    :class:`~repro.bender.program.BenderProgram`, walked instruction by
    instruction by the Bender engine, and validated by the full
    candidate-enumerating timing checker.  Simple, observable, and the
    baseline the equivalence tests pin the event engine against.

:class:`EventEngine`
    The skip-ahead core.  The processor advances directly to its next
    scheduled event (the gate), the software memory controller services
    the batch on its production serve ladder (compiled kernel, then the
    flat closures: planned command offsets on flat timing state instead
    of staged programs), and every response release and tREFI deadline
    crossed along the way is tracked on an explicit
    :class:`~repro.core.events.EventQueue`.  Block traces replay resident
    in the compiled kernel when it is eligible.
    Technique episodes (RowClone, profiling, tRCD hooks) automatically
    fall back to the reference path, so DRAM techniques observe the
    exact machinery they manipulate.

Engines are selected per system via ``EasyDRAMSystem(config,
engine=...)`` or the ``REPRO_ENGINE`` environment variable (default:
``event``).

On multi-channel topologies both engines drive the same controller
surface through the :class:`~repro.core.channels.ChannelSet` façade
(``session.system.smc``): every gate's pending batch is routed by each
request's decoded channel to that channel's software memory controller,
which services its slice on the channel's own emulated timeline.  The
event queue stays shared — releases from every channel merge into one
skip-ahead schedule — so the engines themselves are topology-agnostic.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING

from repro.core.events import EngineStats, EventKind, EventQueue
from repro.cpu.memtrace import Trace

if TYPE_CHECKING:  # pragma: no cover - import cycle at runtime
    from repro.core.system import Session


class EmulationDeadlock(Exception):
    """The processor is blocked but no requests are pending."""


#: Raised by both engines (and the resident kernel replay) when no core
#: can make progress.
DEADLOCK_MESSAGE = "all cores blocked with no pending memory requests"

#: Engine names accepted by :func:`make_engine` and ``REPRO_ENGINE``.
ENGINE_NAMES = ("event", "cycle")

DEFAULT_ENGINE = "event"


def resolve_engine_name(name: str | None) -> str:
    """Pick the engine: explicit argument, then ``REPRO_ENGINE``, then default."""
    if name is None:
        name = os.environ.get("REPRO_ENGINE", "") or DEFAULT_ENGINE
    if name not in ENGINE_NAMES:
        known = ", ".join(ENGINE_NAMES)
        raise ValueError(f"unknown emulation engine {name!r}; known: {known}")
    return name


def make_engine(name: str | None = None):
    """Instantiate the engine selected by ``name`` (see :func:`resolve_engine_name`)."""
    resolved = resolve_engine_name(name)
    if resolved == "cycle":
        return CycleEngine()
    return EventEngine()


def _sweep_cores(active: list, counters, pending: list,
                 rotation: int) -> tuple[bool, bool]:
    """One round-robin arbitration sweep over every runnable core.

    Starting from ``rotation`` (so no core is permanently first at the
    SMC boundary), each core bursts to its next clock gate; its new
    requests join ``pending`` in sweep order — Python's stable sort in
    the controller then breaks equal-tag ties by this round-robin order.
    Returns ``(produced_requests, any_core_finished)``; finished cores
    are removed from ``active`` in place.
    """
    produced = False
    finished = False
    n = len(active)
    start = rotation % n
    for proc in active[start:] + active[:start]:
        burst = proc.execute_burst()
        counters.advance_processor(proc.cycles)
        if burst.new_requests:
            pending.extend(burst.new_requests)
            produced = True
        if burst.done:
            active.remove(proc)
            finished = True
    return produced, finished


class CycleEngine:
    """Reference engine: staged programs, instruction-walked execution."""

    name = "cycle"

    def __init__(self) -> None:
        self.stats = EngineStats()

    def run_trace(self, session: "Session", trace: Trace) -> None:
        """Execute one trace segment to completion (Fig 5/6 flow).

        The one-core case of :meth:`run_cores`: feed, then the burst
        loop over ``[processor]``.
        """
        session.processor.feed(trace)
        self.run_cores(session, [session.processor])

    def run_cores(self, session: "Session", procs: list) -> None:
        """Drive N already-fed cores to completion (multi-core contention).

        The single-core flow generalized: every runnable core bursts to
        its gate (round-robin, rotating the start core each sweep), the
        merged pending batch is serviced in one critical-mode episode,
        and the sweep repeats until every core's trace drains.
        """
        counters = session.system.counters
        smc = session.system.smc
        pending = session._pending
        active = [proc for proc in procs if not proc.done]
        sweep = 0
        while active:
            produced, finished = _sweep_cores(active, counters, pending, sweep)
            sweep += 1
            if pending:
                if active:
                    self.stats.gates += 1
                smc.service_pending(pending)
                self.stats.releases += len(pending)
                pending.clear()
            elif active and not (produced or finished):
                raise EmulationDeadlock(DEADLOCK_MESSAGE)


class EventEngine:
    """Skip-ahead engine: jump between events, service bank-parallel."""

    name = "event"

    def __init__(self) -> None:
        self.queue = EventQueue()
        self.stats = EngineStats()
        self._proc_period = 0  # set on first run

    def run_trace(self, session: "Session", trace: Trace) -> None:
        """Execute one trace segment, hopping event to event.

        The one-core case of :meth:`run_cores`: feed, then (for a block
        trace) the resident kernel replay, falling back to the burst
        loop over ``[processor]``.
        """
        proc = session.processor
        self._proc_period = session._proc_period
        proc.feed(trace)
        if proc.in_block_mode:
            from repro.dram.kernel import blockrun
            if blockrun.run_gated_kernel(self, session, proc,
                                         session.system.smc):
                return
        self._burst_loop(session, [proc])

    def run_cores(self, session: "Session", procs: list) -> None:
        """Drive N already-fed cores to completion (multi-core contention).

        Eligible block mixes replay resident in the compiled kernel
        (REPRO_KERNEL), with one load/store per call; the burst loop
        (:meth:`_burst_loop`) is the fallback.
        """
        self._proc_period = session._proc_period
        active = [proc for proc in procs if not proc.done]
        if active and all(proc.in_block_mode for proc in active):
            from repro.dram.kernel import blockrun
            if blockrun.run_cores_kernel(self, session, active,
                                         session.system.smc):
                return
        self._burst_loop(session, active)

    def _burst_loop(self, session: "Session", active: list) -> None:
        """The skip-ahead loop over N request streams.

        Cores burst to their gates round-robin (block traces replay on
        the array-native block path inside ``execute_burst``), the
        merged batch is serviced in one critical-mode episode, and the
        event queue drains to the slowest core's cycle — an event is
        only "passed" once every core's jump is beyond it.  Releases the
        jumps already passed and refresh deadlines that landed inside
        the skipped interval are absorbed without dedicated host work.
        """
        counters = session.system.counters
        smc = session.system.smc
        pending = session._pending
        queue = self.queue
        stats = self.stats
        sweep = 0
        while active:
            produced, finished = _sweep_cores(active, counters, pending, sweep)
            sweep += 1
            if pending:
                if active:
                    stats.gates += 1
                self._service(smc, pending)
                pending.clear()
                if active:
                    low = min(proc.cycles for proc in active)
                    stats.events_skipped += queue.drain_until(low)
            elif active and not (produced or finished):
                raise EmulationDeadlock(DEADLOCK_MESSAGE)

    # -- internals ------------------------------------------------------------

    def _service(self, smc, pending: list) -> None:
        """One critical-mode episode plus its event bookkeeping."""
        batched = smc.service_pending_batched(
            pending, refresh_sink=self._note_refresh)
        stats = self.stats
        if batched:
            stats.batched_episodes += 1
        else:
            stats.fallback_episodes += 1
        stats.releases += len(pending)
        push = self.queue.push
        for request in pending:
            if request.release is not None:
                push(request.release, EventKind.RELEASE, request.rid)

    def _note_refresh(self, deadline_ps: int) -> None:
        """Record a serviced tREFI deadline on the event queue."""
        self.stats.refreshes += 1
        if self._proc_period:
            self.queue.push(deadline_ps // self._proc_period,
                            EventKind.REFRESH)
