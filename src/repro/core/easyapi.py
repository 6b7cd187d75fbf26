"""EasyAPI: the high-level library for software memory controllers.

This is the Python analogue of the paper's C++ EasyAPI (Table 2).  A
controller program stages DRAM commands (``ddr_activate`` /
``ddr_precharge`` / ``ddr_read`` / ...), flushes them to DRAM Bender
(``flush_commands``), reads data back (``rdback_cacheline``), and moves
requests/responses between the hardware buffers and its software request
table.

Every call charges *controller core cycles* through the cost model —
this is how the evaluation captures that a software memory controller
executes hundreds of instructions per memory request (Section 4.1).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bender.engine import ExecResult
from repro.bender.program import BenderProgram
from repro.core.tile import EasyTile
from repro.cpu.processor import MemoryRequest
from repro.dram.address import DramAddress
from repro.dram.commands import Command


@dataclass(frozen=True)
class CostModel:
    """Controller-core cycle costs of EasyAPI operations.

    The defaults are calibrated so a conventional read-request service
    costs ~60-80 core cycles, matching the paper's description of a
    request taking "hundreds of instructions" end to end (including the
    polling loop and bookkeeping around the API calls).
    """

    poll: int = 2                 # req_empty() check
    receive_request: int = 12     # hardware FIFO -> scratchpad transfer
    enqueue_response: int = 12    # response finalize + buffer write
    address_map: int = 8          # physical -> DRAM translation
    table_insert: int = 6         # software request table insert
    command_insert: int = 3       # one DRAM command into the batch
    flush: int = 10               # kick off DRAM Bender
    per_instruction_transfer: int = 1   # command-buffer transfer per instr
    readback: int = 4             # read one line from the readback buffer
    critical_toggle: int = 4      # set_scheduling_state()
    rowclone_setup: int = 60      # compose + verify a RowClone sequence
    #: Weak-row Bloom filter lookup.  Only the non-overlapped cost is
    #: charged: the lookup runs while the precharge of the conflicting
    #: row is already in flight (a row hit never consults the filter).
    bloom_check: int = 2
    profile_op: int = 40          # one profiling-request iteration


@dataclass(frozen=True, slots=True)
class RowCloneOp:
    """One FPM RowClone as a technique-episode ``stage`` callable.

    Calling it stages :meth:`EasyAPI.rowclone`, like any other stage.
    :meth:`~repro.core.smc.SoftwareMemoryController.rowclone_rows_kernel`
    runs whole runs of them in the kernel instead; the outcome is
    identical.
    """

    bank: int
    src_row: int
    dst_row: int

    def __call__(self, api: "EasyAPI") -> None:
        api.rowclone(self.bank, self.src_row, self.dst_row)


class ProgramExecutor:
    """Interface the API uses to run a staged program.

    The software-memory-controller framework installs itself here so
    that ``flush_commands`` executes at the controller's current point
    on the emulated timeline (the API itself is timeline-agnostic).
    """

    def execute_staged(self, program: BenderProgram,
                       respect_timing: bool) -> ExecResult:
        raise NotImplementedError


class EasyAPI:
    """Hardware-abstraction + software library facade over the tile."""

    def __init__(self, tile: EasyTile, costs: CostModel | None = None) -> None:
        self.tile = tile
        self.costs = costs or CostModel()
        self.charged_cycles = 0
        self.program = BenderProgram(tile.config.timing)
        self.executor: ProgramExecutor | None = None
        self.last_exec: ExecResult | None = None
        self.critical = False
        # Conventional-sequence program pool: the open-page
        # read/write/refresh programs have a fixed shape per row-buffer
        # case, so the staged BenderProgram is built once and re-patched
        # with bank/row/column instead of reallocated.
        self._conv_pool: dict[object, tuple[BenderProgram, list[Command], int]] = {}
        self._lent: BenderProgram | None = None

    # -- cost accounting ----------------------------------------------------

    def charge(self, cycles: int) -> None:
        """Charge controller core cycles (the SMC drains this)."""
        self.charged_cycles += cycles

    def take_charges(self) -> int:
        """Return and reset the accumulated cycle charges."""
        cycles = self.charged_cycles
        self.charged_cycles = 0
        return cycles

    # -- hardware abstraction library (Table 2, top half) ---------------------

    def set_scheduling_state(self, state: bool) -> None:
        """Set/clear the critical-mode register."""
        self.charge(self.costs.critical_toggle)
        self.critical = state

    def req_empty(self) -> bool:
        """Poll the hardware request FIFO."""
        self.charge(self.costs.poll)
        return not self.tile.has_requests

    def get_request(self) -> MemoryRequest:
        """Move one request from the hardware buffer to the scratchpad."""
        self.charge(self.costs.receive_request)
        return self.tile.pop_request()

    def get_addr_mapping(self, phys_addr: int) -> DramAddress:
        """Translate a physical address to <bank, row, column>."""
        self.charge(self.costs.address_map)
        return self.tile.mapper.to_dram(phys_addr)

    def reverse_addr_mapping(self, dram: DramAddress) -> int:
        """Translate a DRAM coordinate back to a physical address."""
        self.charge(self.costs.address_map)
        return self.tile.mapper.to_physical(dram)

    # -- DRAM command staging (Table 2, ddr_*) ---------------------------------

    def ddr_activate(self, bank: int, row: int) -> None:
        self.charge(self.costs.command_insert)
        self.program.activate(bank, row)

    def ddr_precharge(self, bank: int) -> None:
        self.charge(self.costs.command_insert)
        self.program.precharge(bank)

    def ddr_precharge_all(self) -> None:
        self.charge(self.costs.command_insert)
        self.program.precharge_all()

    def ddr_read(self, bank: int, col: int) -> None:
        self.charge(self.costs.command_insert)
        self.program.read(bank, col)

    def ddr_write(self, bank: int, col: int, data: bytes | None = None) -> None:
        self.charge(self.costs.command_insert)
        self.program.write(bank, col, data)

    def ddr_refresh(self) -> None:
        self.charge(self.costs.command_insert)
        self.program.refresh()

    def ddr_wait_ps(self, duration_ps: int) -> None:
        """Stage an exact inter-command delay (no core cost: it is data)."""
        self.program.wait_ps(duration_ps)

    def flush_commands(self, respect_timing: bool = True) -> ExecResult:
        """Execute the staged command batch on DRAM Bender.

        ``respect_timing=False`` skips the leading legality wait so DRAM
        techniques can issue deliberately violating sequences.
        """
        n = len(self.program)
        self.charge(self.costs.flush + self.costs.per_instruction_transfer * n)
        if self.executor is None:
            raise RuntimeError("EasyAPI has no program executor installed")
        program = self.program
        lent = self._lent
        self._lent = None
        program.finish()
        try:
            result = self.executor.execute_staged(program, respect_timing)
        finally:
            if lent is program:
                # Restore the pooled template: strip the END that
                # finish() appended so the next lease sees the bare
                # command sequence again.
                program.instructions.pop()
            # A fresh staging buffer even when execution raised (a strict
            # TimingViolation): the next batch must not replay this one.
            self.program = BenderProgram(self.tile.config.timing)
        self.last_exec = result
        return result

    def rdback_cacheline(self) -> bytes:
        """Pop one line from the readback buffer."""
        self.charge(self.costs.readback)
        return self.tile.readback.pop_line()

    def rdback_cacheline_checked(self) -> tuple[bytes, bool]:
        """Pop one line plus its reliability flag (profiling uses this)."""
        self.charge(self.costs.readback)
        return self.tile.readback.pop()

    # -- software library (Table 2, bottom half) ---------------------------------

    def wait_after_command_ps(self, duration_ps: int) -> None:
        """Wait so the *next* command lands ``duration_ps`` after the last.

        A DDR command occupies one interface cycle, so the explicit WAIT
        is one cycle shorter; the next command then issues at exactly
        ``ceil(duration / tCK)`` interface cycles after its predecessor —
        the finest spacing the real sequencer can realize.
        """
        self.ddr_wait_ps(duration_ps - self.tile.config.timing.tCK)

    def read_sequence(self, dram: DramAddress) -> None:
        """Stage the command sequence that serves one read (open-page).

        Mirrors Listing 1's ``read_sequence``: precharge on conflict,
        activate on miss, then the column read.  The data-return time
        (tCL + tBL) is part of the *request latency* the controller adds
        when tagging the response, but it does not occupy the command
        bus — back-to-back column reads pipeline tCCD apart.
        """
        t = self.tile.config.timing
        state = self.tile.device.banks[dram.bank]
        if state.open_row != dram.row:
            if state.open_row is not None:
                self.ddr_precharge(dram.bank)
                self.wait_after_command_ps(t.tRP)
            self.ddr_activate(dram.bank, dram.row)
            self.wait_after_command_ps(t.tRCD)
        self.ddr_read(dram.bank, dram.col)

    def write_sequence(self, dram: DramAddress, data: bytes | None = None) -> None:
        """Stage the command sequence that serves one write (open-page)."""
        t = self.tile.config.timing
        state = self.tile.device.banks[dram.bank]
        if state.open_row != dram.row:
            if state.open_row is not None:
                self.ddr_precharge(dram.bank)
                self.wait_after_command_ps(t.tRP)
            self.ddr_activate(dram.bank, dram.row)
            self.wait_after_command_ps(t.tRCD)
        self.ddr_write(dram.bank, dram.col, data)

    def stage_conventional(self, dram: DramAddress, is_write: bool) -> None:
        """Stage a conventional open-page sequence via the program pool.

        Behaviorally identical to :meth:`read_sequence` /
        :meth:`write_sequence` (same staged instructions, same cycle
        charges): on a pool hit the memoized program's commands are
        patched with this request's bank/row/column and the program is
        *lent* as the staged batch — :meth:`flush_commands` returns it to
        the pool intact.  Falls back to the plain builders when a
        partially staged program exists.
        """
        if self.program.instructions:
            if is_write:
                self.write_sequence(dram)
            else:
                self.read_sequence(dram)
            return
        open_row = self.tile.device.banks[dram.bank].open_row
        if open_row == dram.row:
            case = 0
        elif open_row is None:
            case = 1
        else:
            case = 2
        key = (case, is_write)
        entry = self._conv_pool.get(key)
        if entry is None:
            if is_write:
                self.write_sequence(dram)
            else:
                self.read_sequence(dram)
            program = self.program
            commands = [ins.command for ins in program.instructions
                        if ins.command is not None]
            self._conv_pool[key] = (
                program, commands,
                len(commands) * self.costs.command_insert)
            self._lent = program
            return
        program, commands, charge = entry
        bank, row, col = dram.bank, dram.row, dram.col
        for command in commands:
            command.bank = bank
            command.row = row
            command.col = col
        self.charge(charge)
        self.program = program
        self._lent = program

    def stage_refresh(self) -> None:
        """Stage the refresh burst via the program pool (see above)."""
        if self.program.instructions:
            self.refresh_sequence()
            return
        entry = self._conv_pool.get("refresh")
        if entry is None:
            self.refresh_sequence()
            program = self.program
            self._conv_pool["refresh"] = (
                program, [], 2 * self.costs.command_insert)
            self._lent = program
            return
        program, _commands, charge = entry
        self.charge(charge)
        self.program = program
        self._lent = program

    def data_latency_ps(self, is_write: bool) -> int:
        """Data-return time of a column access (added to the release tag)."""
        t = self.tile.config.timing
        if is_write:
            return t.tCWL + t.tBL
        return t.tCL + t.tBL

    def refresh_sequence(self) -> None:
        """Stage a precharge-all + refresh burst."""
        t = self.tile.config.timing
        self.ddr_precharge_all()
        self.ddr_wait_ps(t.tRP)
        self.ddr_refresh()
        self.ddr_wait_ps(t.tRFC)

    def rowclone(self, bank: int, src_row: int, dst_row: int) -> None:
        """Stage a Fast Parallel Mode RowClone sequence (Section 7).

        ACT(src) -> premature PRE -> immediate ACT(dst): the interrupted
        precharge leaves the source row's data on the bitlines and the
        second activation latches it into the destination row.  The
        sequence deliberately violates tRAS and tRP.
        """
        t = self.tile.config.timing
        self.charge(self.costs.rowclone_setup)
        self.program.activate(bank, src_row)
        self.program.wait_cycles(2)           # well short of tRAS
        self.program.precharge(bank)
        # No wait: the next ACT interrupts the precharge (violates tRP).
        self.program.activate(bank, dst_row)
        self.program.wait_ps(t.tRAS)          # let the copy settle
        self.program.precharge(bank)
        self.program.wait_ps(t.tRP)

    def reduced_trcd_read(self, dram: DramAddress, trcd_ps: int) -> None:
        """Stage an activate + read using a (possibly reduced) tRCD."""
        t = self.tile.config.timing
        state = self.tile.device.banks[dram.bank]
        if state.open_row is not None:
            self.ddr_precharge(dram.bank)
            self.wait_after_command_ps(t.tRP)
        self.ddr_activate(dram.bank, dram.row)
        self.wait_after_command_ps(trcd_ps)
        self.ddr_read(dram.bank, dram.col)
        self.ddr_wait_ps(t.tCL + t.tBL)
