"""tRCD reduction: reduced-latency DRAM access (Section 8, after Solar-DRAM).

Two stages, exactly as the paper implements them:

1. **Characterization** (:mod:`repro.profiling.characterize`) finds each
   row's minimum reliable tRCD; rows reliable at <= 9.0 ns are *strong*.
2. **Scheduling**: weak rows are loaded into a Bloom filter
   (RAIDR-style; weak rows are the keys so false positives only cost
   performance, never correctness).  On every row activation the
   software memory controller checks the filter and uses the reduced
   tRCD for strong rows and the nominal tRCD otherwise.

The technique installs itself as the controller's serve hook, replacing
the stock read/write sequences with tRCD-aware ones.  :meth:`_serve` is
the reference; the compiled kernel serves this exact hook as data (the
filter, the per-row tRCD choice, :class:`TrcdStats`), bit-identically —
see ``SoftwareMemoryController._kernel_technique``.  Subclasses and
other hooks keep the object path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.easyapi import EasyAPI
from repro.core.schedulers import TableEntry
from repro.core.system import EasyDRAMSystem
from repro.profiling.bloom import BloomFilter
from repro.profiling.characterize import CharacterizationResult
from repro.dram.timing import ns


@dataclass
class TrcdStats:
    """Activation outcomes under the technique."""

    reduced_acts: int = 0
    nominal_acts: int = 0
    row_hits: int = 0

    @property
    def reduced_fraction(self) -> float:
        total = self.reduced_acts + self.nominal_acts
        return self.reduced_acts / total if total else 0.0


class TrcdReductionTechnique:
    """Reduced-tRCD request servicing on an :class:`EasyDRAMSystem`."""

    def __init__(self, system: EasyDRAMSystem,
                 characterization: CharacterizationResult,
                 reduced_trcd_ps: int = ns(9.0),
                 bloom_fp_rate: float = 0.01,
                 bloom_seed: int = 0xB100F) -> None:
        self.system = system
        self.reduced_trcd_ps = reduced_trcd_ps
        self.nominal_trcd_ps = system.config.timing.tRCD
        if reduced_trcd_ps >= self.nominal_trcd_ps:
            raise ValueError(
                "reduced tRCD must be below nominal"
                f" ({reduced_trcd_ps} >= {self.nominal_trcd_ps})")
        self.stats = TrcdStats()
        keys = characterization.weak_row_keys(threshold_ps=reduced_trcd_ps)
        # The filter is sized on the host and loaded into the controller
        # before emulation begins (Section 8.2).  Every channel's cell
        # model is built from the same configuration (and therefore the
        # same per-row draws), so one characterization covers them all —
        # keys carry the channel so distinct channels stay distinct in
        # the filter regardless.
        channels = system.config.geometry.channels
        self.bloom = BloomFilter.sized_for(
            max(1, len(keys) * channels), fp_rate=bloom_fp_rate,
            seed=bloom_seed)
        # _key over every (channel, weak row), vectorized.
        self.bloom.add_many([keys | np.uint64(channel << 48)
                             for channel in range(channels)])
        self._installed = False

    @staticmethod
    def _key(bank: int, row: int, channel: int = 0) -> int:
        return (channel << 48) | (bank << 32) | row

    # -- controller integration ---------------------------------------------------

    def install(self) -> None:
        """Hook the system's software memory controller."""
        self.system.smc.serve_hook = self._serve
        self._installed = True

    def uninstall(self) -> None:
        self.system.smc.serve_hook = None
        self._installed = False

    def trcd_for(self, bank: int, row: int, channel: int = 0) -> int:
        """tRCD the controller will use when activating (bank, row)."""
        if self._key(bank, row, channel) in self.bloom:
            return self.nominal_trcd_ps
        return self.reduced_trcd_ps

    def _serve(self, api: EasyAPI, entry: TableEntry) -> None:
        """tRCD-aware replacement for the stock request sequences."""
        t = self.system.config.timing
        dram = entry.dram
        state = api.tile.device.banks[dram.bank]
        if state.open_row != dram.row:
            api.charge(api.costs.bloom_check)
            trcd = self.trcd_for(dram.bank, dram.row, dram.channel)
            if trcd < self.nominal_trcd_ps:
                self.stats.reduced_acts += 1
            else:
                self.stats.nominal_acts += 1
            if state.open_row is not None:
                api.ddr_precharge(dram.bank)
                api.wait_after_command_ps(t.tRP)
            api.ddr_activate(dram.bank, dram.row)
            api.wait_after_command_ps(trcd)
        else:
            self.stats.row_hits += 1
        if entry.is_write:
            api.ddr_write(dram.bank, dram.col)
        else:
            api.ddr_read(dram.bank, dram.col)
