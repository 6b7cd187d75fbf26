"""Multi-channel memory-system façade.

The paper's evaluated system is one channel, so one
:class:`~repro.core.smc.SoftwareMemoryController` driving one
:class:`~repro.core.tile.EasyTile` is the default wiring and stays on
exactly the single-controller code path.  Config-driven topologies with
``Geometry.channels > 1`` instead instantiate one tile + controller pair
*per channel* and put this :class:`ChannelSet` façade in front of them:
it presents the controller interface the emulation engines drive
(``service_pending`` / ``service_pending_batched``) and routes each
request to the controller of the channel its address decoded to.
Technique episodes bypass the façade: ``Session.technique_op`` targets
the owning channel's controller directly via ``system.smc_for``.

Channels are independent command/data buses, so their controllers keep
independent scheduling and DRAM cursors — a critical-mode episode that
spans channels services each channel's slice of the batch on that
channel's own emulated timeline, which is exactly the channel-level
parallelism a real multi-channel system exposes.  Requests carry their
channel (:attr:`~repro.cpu.processor.MemoryRequest.channel`, tagged at
issue time by the processor's channel hook), so routing never re-decodes
an address.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.easyapi import EasyAPI
from repro.core.smc import SmcStats, SoftwareMemoryController
from repro.core.tile import EasyTile
from repro.cpu.processor import MemoryRequest

__all__ = ["Channel", "ChannelSet"]


@dataclass
class Channel:
    """One memory channel's hardware + controller stack."""

    index: int
    tile: EasyTile
    api: EasyAPI
    smc: SoftwareMemoryController


class ChannelSet:
    """Controller façade over one :class:`Channel` per memory channel.

    Implements the subset of the :class:`SoftwareMemoryController`
    surface that the emulation engines and sessions drive, fanning each
    call out per channel.  Single-channel systems never construct one.
    """

    def __init__(self, channels: list[Channel]) -> None:
        if len(channels) < 2:
            raise ValueError("ChannelSet requires at least two channels")
        self.channels = channels
        self.smcs = [c.smc for c in channels]
        #: Why the resident kernel replay last declined this topology
        #: (``repro profile`` reports it); each channel's controller
        #: keeps its own batch-kernel reason.
        self.kernel_fallback_reason = None

    # -- request servicing --------------------------------------------------

    def _route(self, requests: list[MemoryRequest]) -> list[list[MemoryRequest]]:
        """Split a batch by channel, preserving per-channel order."""
        groups: list[list[MemoryRequest]] = [[] for _ in self.channels]
        for request in requests:
            groups[request.channel].append(request)
        return groups

    def service_pending(self, requests: list[MemoryRequest]) -> None:
        """Serve a batch: each channel's controller serves its slice."""
        if not requests:
            return
        for group, smc in zip(self._route(requests), self.smcs):
            if group:
                smc.service_pending(group)

    def service_pending_batched(self, requests: list[MemoryRequest]) -> bool:
        """Batched bank-parallel servicing, channel by channel.

        Returns ``True`` only if *every* channel's slice took the
        batched path (the engine counts fallback episodes).
        """
        if not requests:
            return True
        all_batched = True
        for group, smc in zip(self._route(requests), self.smcs):
            if group and not smc.service_pending_batched(group):
                all_batched = False
        return all_batched

    # -- controller hooks and aggregate statistics --------------------------

    @property
    def serve_hook(self):
        """The per-request serve hook (shared by every channel)."""
        return self.smcs[0].serve_hook

    @serve_hook.setter
    def serve_hook(self, hook) -> None:
        for smc in self.smcs:
            smc.serve_hook = hook

    def set_core_tracker(self, tracker) -> None:
        """Install one shared per-core service tracker on every channel.

        Channels are independent buses but core attribution is global:
        requests from one core spread over every channel, so all
        controllers write into the same
        :class:`~repro.core.stats.CoreServiceTracker`.
        """
        for smc in self.smcs:
            smc.set_core_tracker(tracker)

    @property
    def scheduler(self):
        return self.smcs[0].scheduler

    @scheduler.setter
    def scheduler(self, value) -> None:
        for smc in self.smcs:
            smc.scheduler = value

    @property
    def stats(self) -> SmcStats:
        """Aggregated controller counters across every channel."""
        total = SmcStats()
        for smc in self.smcs:
            s = smc.stats
            total.serviced_reads += s.serviced_reads
            total.serviced_writes += s.serviced_writes
            total.refreshes += s.refreshes
            total.storm_refreshes += s.storm_refreshes
            total.technique_ops += s.technique_ops
            total.total_sched_cycles += s.total_sched_cycles
            total.batches_executed += s.batches_executed
        return total
