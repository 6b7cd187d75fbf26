"""EasyTile: the hardware module wrapping the programmable core.

Figure 7's EasyTile packs the programmable core, DRAM Bender, and the
helper hardware: the incoming/outgoing request FIFOs, the command and
readback buffers, the scratchpad, and the tile control logic that moves
requests and data between them.  In this reproduction the tile owns the
DRAM device, the Bender engine, and the buffer objects; the software
memory controller reaches all of them through :class:`EasyAPI`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.bender.buffers import CommandBuffer, ReadbackBuffer
from repro.bender.engine import BenderEngine
from repro.core.config import SystemConfig
from repro.cpu.processor import MemoryRequest
from repro.dram.address import AddressMapper
from repro.dram.cells import CellArrayModel
from repro.dram.device import DramDevice


@dataclass
class TileStats:
    """Tile-level counters (Figure 2's breakdown feeds on these)."""

    requests_received: int = 0
    responses_sent: int = 0
    refreshes_issued: int = 0
    technique_ops: int = 0
    scheduling_ps: int = 0      # emulated time spent in SMC logic
    dram_busy_ps: int = 0       # emulated time DRAM Bender was executing
    row_hits: int = 0
    row_misses: int = 0
    row_conflicts: int = 0


class EasyTile:
    """The EasyDRAM hardware tile: buffers, Bender, and the DRAM device."""

    def __init__(self, config: SystemConfig,
                 mapper: AddressMapper | None = None,
                 channel: int = 0) -> None:
        self.config = config
        self.channel = channel
        self.cells = CellArrayModel(config.geometry, config.cells)
        self.device = DramDevice(
            config.timing, config.geometry, cells=self.cells,
            strict_timing=False,
            track_row_activations=config.interference.track_row_activations,
            refresh_rank=config.interference.refresh_storm_rank)
        #: Multi-channel systems share one topology-wide mapper across
        #: every tile (the decode memo is then shared too).
        self.mapper = mapper if mapper is not None else AddressMapper(
            config.geometry, config.mapping_scheme)
        self.readback = ReadbackBuffer()
        self.command_buffer = CommandBuffer()
        self.engine = BenderEngine(self.device, readback=self.readback)
        #: Incoming request FIFO (hardware side of Figure 7, part 9).
        self.incoming: deque[MemoryRequest] = deque()
        self.stats = TileStats()

    # -- tile control logic -------------------------------------------------

    def push_request(self, request: MemoryRequest) -> None:
        """Memory-bus side: a processor request lands in the FIFO."""
        self.incoming.append(request)
        self.stats.requests_received += 1

    def pop_request(self) -> MemoryRequest:
        """Programmable-core side: move one request out of the FIFO."""
        if not self.incoming:
            raise IndexError("incoming request FIFO is empty")
        return self.incoming.popleft()

    @property
    def has_requests(self) -> bool:
        return bool(self.incoming)

    def classify_row_access(self, bank: int, row: int) -> str:
        """Row-buffer outcome for statistics: hit, miss, or conflict."""
        state = self.device.banks[bank]
        if state.open_row == row:
            self.stats.row_hits += 1
            return "hit"
        if state.open_row is None:
            self.stats.row_misses += 1
            return "miss"
        self.stats.row_conflicts += 1
        return "conflict"
