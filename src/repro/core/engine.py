"""Emulation engines: one burst loop, two ways to serve a gate.

Both engines drive the execution flow of Figures 5 and 6 with the same
burst loop — every runnable core bursts to its next clock gate on an
unserviced last-level-cache miss, the merged pending batch is serviced
in one critical-mode episode, and the cores resume at the release cycles
— and both produce *bit-identical* run results: the emulated timeline is
fully determined by the trace and the configuration, so an engine may
only choose how the **host** spends its time, never when the emulated
system does.  They differ only in how a gate's batch is served:

:class:`CycleEngine`
    The object reference (:meth:`SoftwareMemoryController.service_pending`).
    Every request is staged through :class:`~repro.core.easyapi.EasyAPI`
    into a :class:`~repro.bender.program.BenderProgram`, walked
    instruction by instruction by the Bender engine, and validated by
    the full candidate-enumerating timing checker.  Simple, observable,
    and the baseline the equivalence tests pin the production path
    against.

:class:`EventEngine`
    The production path.  Traces replay resident in the compiled
    kernel when it is eligible (the whole burst loop runs in C, see
    :mod:`repro.dram.kernel.blockrun`); otherwise each gate's batch is
    served by :meth:`SoftwareMemoryController.service_pending_batched`
    (compiled kernel, then the flat closures: planned command offsets on
    flat timing state instead of staged programs).  Technique episodes
    (RowClone, profiling, tRCD hooks) fall back to the reference path,
    so DRAM techniques observe the exact machinery they manipulate.

Engines are selected per system via ``EasyDRAMSystem(config,
engine=...)`` (default: ``event``).

On multi-channel topologies both engines drive the same controller
surface through the :class:`~repro.core.channels.ChannelSet` façade
(``session.system.smc``): every gate's pending batch is routed by each
request's decoded channel to that channel's software memory controller,
which services its slice on the channel's own emulated timeline, so the
engines themselves are topology-agnostic.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING

from repro.cpu.memtrace import Trace

if TYPE_CHECKING:  # pragma: no cover - import cycle at runtime
    from repro.core.system import Session


class EmulationDeadlock(Exception):
    """The processor is blocked but no requests are pending."""


#: Raised by both engines (and the resident kernel replay) when no core
#: can make progress.
DEADLOCK_MESSAGE = "all cores blocked with no pending memory requests"

#: Engine names accepted by :func:`make_engine` and ``EasyDRAMSystem``.
ENGINE_NAMES = ("event", "cycle")

DEFAULT_ENGINE = "event"


def resolve_engine_name(name: str | None) -> str:
    """Pick the engine: the explicit argument, else :data:`DEFAULT_ENGINE`."""
    if name is None:
        name = DEFAULT_ENGINE
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


@dataclass
class EngineStats:
    """What an emulation engine did with the host time it was given."""

    #: Clock-gating episodes (a core blocked on an unserviced miss).
    gates: int = 0
    #: Responses tagged with a release cycle.
    releases: int = 0
    #: Service episodes that took the production serve ladder.
    batched_episodes: int = 0
    #: Service episodes that fell back to the reference path (technique
    #: hooks installed, or hardware FIFO state the fast path cannot see).
    fallback_episodes: int = 0

    def as_dict(self) -> dict:
        """Plain-dict view for reports and benchmark logs."""
        return asdict(self)


class BurstEngine:
    """The burst loop both engines run; each picks how a gate is served."""

    def __init__(self) -> None:
        self.stats = EngineStats()

    def run_trace(self, session: "Session", trace: Trace) -> None:
        """Execute one trace segment to completion (Fig 5/6 flow).

        The one-core case of :meth:`run_cores`.
        """
        session.processor.feed(trace)
        self._burst_loop(session, [session.processor])

    def run_cores(self, session: "Session", procs: list) -> None:
        """Drive N already-fed cores to completion (multi-core contention)."""
        self._burst_loop(session, procs)

    def _burst_loop(self, session: "Session", procs: list) -> None:
        """The burst loop over N request streams.

        Every runnable core bursts to its gate round-robin, rotating the
        start core each sweep so no core is permanently first at the SMC
        boundary (each core replays its blocks inside
        ``execute_burst``); new requests join the pending batch
        in sweep order, and Python's stable sort in the controller then
        breaks equal-tag ties by that order.  The merged batch is served
        in one critical-mode episode, and the sweep repeats until every
        core's trace drains.
        """
        counters = session.system.counters
        serve = self._serve
        smc = session.system.smc
        pending = session._pending
        stats = self.stats
        active = [proc for proc in procs if not proc.done]
        sweep = 0
        while active:
            produced = finished = False
            start = sweep % len(active)
            sweep += 1
            for proc in active[start:] + active[:start]:
                burst = proc.execute_burst()
                counters.advance_processor(proc.cycles)
                if burst.new_requests:
                    pending.extend(burst.new_requests)
                    produced = True
                if burst.done:
                    active.remove(proc)
                    finished = True
            if pending:
                if active:
                    stats.gates += 1
                serve(smc, pending)
                stats.releases += len(pending)
                pending.clear()
            elif active and not (produced or finished):
                raise EmulationDeadlock(DEADLOCK_MESSAGE)

    def _serve(self, smc, pending: list) -> None:
        """One critical-mode episode over the merged pending batch."""
        raise NotImplementedError


class CycleEngine(BurstEngine):
    """Reference engine: staged programs, instruction-walked execution."""

    name = "cycle"

    def _serve(self, smc, pending: list) -> None:
        smc.service_pending(pending)


class EventEngine(BurstEngine):
    """Production engine: resident replay, then the batched serve ladder."""

    name = "event"

    def run_trace(self, session: "Session", trace: Trace) -> None:
        """Execute one trace segment to completion.

        The one-core case of :meth:`run_cores`: feed, then the resident
        kernel replay, falling back to the burst loop over
        ``[processor]``.
        """
        from repro.dram.kernel import blockrun

        proc = session.processor
        proc.feed(trace)
        if blockrun.run_gated_kernel(self, session, proc,
                                     session.system.smc):
            return
        self._burst_loop(session, [proc])

    def run_cores(self, session: "Session", procs: list) -> None:
        """Drive N already-fed cores to completion (multi-core contention).

        Eligible mixes replay resident in the compiled kernel
        (:mod:`repro.dram.kernel`), with one load/store per call; the
        burst loop is the fallback.
        """
        from repro.dram.kernel import blockrun

        active = [proc for proc in procs if not proc.done]
        if active and blockrun.run_cores_kernel(self, session, active,
                                                session.system.smc):
            return
        self._burst_loop(session, active)

    def _serve(self, smc, pending: list) -> None:
        """One critical-mode episode on the production serve ladder."""
        if smc.service_pending_batched(pending):
            self.stats.batched_episodes += 1
        else:
            self.stats.fallback_episodes += 1
