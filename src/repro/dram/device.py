"""Behavioural DDR4 device model.

:class:`DramDevice` is the stand-in for the real DRAM chips behind DRAM
Bender.  It executes the DDR4 command stream, keeps actual row data, and
— crucially for DRAM techniques — models what the silicon does when the
controller *violates* manufacturer timings:

* an ``ACT`` issued right after a premature ``PRE`` (the FPM RowClone
  sequence) copies the previously open row into the newly activated row,
  subject to the cell model's subarray and pair-reliability rules;
* a ``RD`` issued before the row's minimum reliable ``tRCD`` returns
  deterministically corrupted data;
* reads from rows whose refresh window lapsed can return corrupted data
  when retention modeling is enabled.

The device never decides policy; it only answers "what would the chip
do".  Timing legality is delegated to :class:`TimingChecker` running in
permissive mode by default (techniques intentionally violate timings).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.dram.address import Geometry
from repro.dram.bank import BankState, RankState
from repro.dram.cells import CellArrayModel
from repro.dram.commands import Command, CommandKind
from repro.dram.flat_timing import (
    K_ACT,
    K_PRE,
    K_PREA,
    K_RD,
    K_REF,
    K_WR,
    KIND_NAMES,
    FlatTimingState,
)
from repro.dram.timing import TimingParams
from repro.dram.timing_checker import (
    TimingChecker,
    TimingViolation,
    ViolationRecord,
)

#: Flat kind code -> CommandKind (for the rare fallback that needs a
#: real Command object, e.g. recording a timing violation).
_KIND_OF_CODE = (CommandKind.ACT, CommandKind.PRE, CommandKind.PREA,
                 CommandKind.RD, CommandKind.WR, CommandKind.REF)


@dataclass
class ReadResult:
    """Outcome of a RD command: one cache line and its integrity."""

    data: bytes
    reliable: bool
    bank: int
    row: int
    col: int


@dataclass
class DeviceStats:
    """Command counts and technique-relevant event counts."""

    commands: dict[str, int] = field(default_factory=dict)
    rowclone_attempts: int = 0
    rowclone_successes: int = 0
    unreliable_reads: int = 0
    retention_failures: int = 0

    def count(self, kind: CommandKind) -> None:
        """Record one issued command of ``kind``."""
        key = kind.value
        self.commands[key] = self.commands.get(key, 0) + 1

    def total_commands(self) -> int:
        """Total DDR commands issued across all kinds."""
        return sum(self.commands.values())


class DramDevice:
    """Single-channel, single-rank DDR4 device with real data contents."""

    #: An ACT arriving within this fraction of tRP after a PRE triggers
    #: the in-DRAM copy path (the PRE interrupted the previous row's
    #: precharge, so both wordlines share charge — FPM RowClone).
    ROWCLONE_PRE_TO_ACT_FRACTION = 0.6

    def __init__(self, timing: TimingParams, geometry: Geometry,
                 cells: CellArrayModel | None = None,
                 strict_timing: bool = False,
                 retention_modeling: bool = False,
                 track_row_activations: bool = False,
                 refresh_rank: int | None = None) -> None:
        self.timing = timing
        self.geometry = geometry
        if refresh_rank is not None and not (0 <= refresh_rank < geometry.ranks):
            raise ValueError(
                f"refresh_rank {refresh_rank} out of range for"
                f" {geometry.ranks} rank(s)")
        #: When set, REF commands reset the retention epoch of this rank
        #: only (a per-rank refresh storm starves the other ranks'
        #: retention bookkeeping).  ``last_ref`` stays channel-global on
        #: every rank — REF occupies the shared command bus, so timing
        #: legality is unchanged by the scoping.
        self._refresh_rank = refresh_rank
        #: Per-(bank, row) ACT counts for RowHammer-style pressure
        #: accounting; ``None`` (the default) keeps the ACT hot paths
        #: counter-free.
        self.row_activations: dict[tuple[int, int], int] | None = (
            {} if track_row_activations else None)
        self.cells = cells or CellArrayModel(geometry)
        # One channel's worth of state: ranks are flattened into the bank
        # dimension (rank r owns banks [r*num_banks, (r+1)*num_banks)).
        self.banks = [BankState(i) for i in range(geometry.total_banks)]
        self.ranks = [RankState() for _ in range(geometry.ranks)]
        #: Single-rank alias (rank 0); multi-rank callers index `ranks`.
        self.rank = self.ranks[0]
        self._rank_of = tuple(geometry.rank_of(b)
                              for b in range(geometry.total_banks))
        #: What the timing checker receives as rank state: the bare
        #: RankState on the paper's single-rank topology (bit-identical
        #: call shape), the per-rank list otherwise.
        self.checker_rank = self.rank if geometry.ranks == 1 else self.ranks
        #: Array-native twin of the bank/rank state, updated on every
        #: command; the fast issue path answers timing queries from it.
        self.flat = FlatTimingState(timing, geometry)
        # The cell model's per-row minimum-tRCD memo, hoisted so the
        # fast issue path can answer reliability checks with one dict get.
        self._trcd_cache = self.cells._row_trcd_cache
        self._rowclone_gap_ps = int(timing.tRP * self.ROWCLONE_PRE_TO_ACT_FRACTION)
        self._write_burst_ps = timing.tCWL + timing.tBL
        # Non-leading plan commands check their legality inline against
        # the flat aggregates when the two-term reductions are exact.
        self._inline_earliest = (self.flat._rrd_two_term
                                 and self.flat._ccd_two_term)
        self._tp = (timing.tRCD, timing.tCCD_S, timing.tCCD_L, timing.tWTR,
                    timing.tRC, timing.tRP, timing.tRRD_S, timing.tRRD_L,
                    timing.tFAW, timing.tRFC)
        self.checker = TimingChecker(timing, geometry, strict=strict_timing)
        self.retention_modeling = retention_modeling
        self.stats = DeviceStats()
        self._rows: dict[tuple[int, int], bytearray] = {}
        self._last_issue_ps = -1
        self._rowclone_attempt_counter = 0
        self._handlers = {
            CommandKind.ACT: self._do_act,
            CommandKind.PRE: self._do_pre,
            CommandKind.PREA: self._do_prea,
            CommandKind.RD: self._do_rd,
            CommandKind.WR: self._do_wr,
            CommandKind.REF: self._do_ref,
            CommandKind.NOP: self._do_nop,
        }

    # -- command execution -------------------------------------------------

    def issue(self, cmd: Command, time_ps: int) -> ReadResult | None:
        """Execute one command at ``time_ps`` (must be non-decreasing)."""
        if time_ps < self._last_issue_ps:
            raise ValueError(
                f"command stream went backwards: {time_ps} < {self._last_issue_ps}")
        self._last_issue_ps = time_ps
        self._validate(cmd)
        self.checker.check(cmd, time_ps, self.banks, self.checker_rank)
        self.stats.count(cmd.kind)
        return self._handlers[cmd.kind](cmd, time_ps)

    def issue_discard(self, cmd: Command, time_ps: int,
                      precleared: bool = False) -> None:
        """Execute one command whose read data (if any) would be discarded.

        The event engine's conventional read/write service path
        never consumes the captured cache line — the cycle engine pops it
        from the readback buffer and throws it away — so this variant
        skips materializing row contents while keeping every observable
        side effect of :meth:`issue` identical: the monotonicity check,
        the (batched) timing validation with its violation records, bank
        and rank state updates, command counts, RowClone detection, and
        the reliability/retention statistics.

        ``precleared=True`` skips the timing check: the caller already
        computed this command's earliest legal time against the *current*
        device state and chose ``time_ps`` at or after it, so the check
        could neither raise nor record anything.
        """
        if time_ps < self._last_issue_ps:
            raise ValueError(
                f"command stream went backwards: {time_ps} < {self._last_issue_ps}")
        self._last_issue_ps = time_ps
        if not precleared:
            self.checker.check_fast(cmd, time_ps, self.banks,
                                    self.checker_rank)
        self.stats.count(cmd.kind)
        kind = cmd.kind
        if kind is CommandKind.RD:
            bank = self.banks[cmd.bank]
            if bank.open_row is None:
                raise RuntimeError(
                    f"RD to bank {cmd.bank} with no open row at {time_ps} ps")
            row = bank.open_row
            bank.read(time_ps)
            self.flat.read(cmd.bank, time_ps)
            trcd_used = time_ps - bank.last_act
            if not self.cells.read_is_reliable(cmd.bank, row, trcd_used):
                self.stats.unreliable_reads += 1
            elif self.retention_modeling and self._retention_lapsed(time_ps):
                if self._row_is_leaky(cmd.bank, row):
                    self.stats.retention_failures += 1
            return None
        if kind is CommandKind.WR:
            bank = self.banks[cmd.bank]
            if bank.open_row is None:
                raise RuntimeError(
                    f"WR to bank {cmd.bank} with no open row at {time_ps} ps")
            row = bank.open_row
            data = cmd.data
            if data is not None:
                self._write_line(cmd.bank, row, cmd.col, data)
            elif (cmd.bank, row) in self._rows:
                # A conventional writeback stores the power-on filler
                # pattern (the caches are tag-only); that only changes
                # anything if a technique already materialized this row.
                self._write_line(cmd.bank, row, cmd.col,
                                 self.default_line(cmd.bank, row, cmd.col))
            data_end = time_ps + self.timing.tCWL + self.timing.tBL
            bank.write(time_ps, data_end)
            self.flat.write(cmd.bank, time_ps, data_end)
            return None
        self._handlers[kind](cmd, time_ps)
        return None

    def issue_fast(self, kind: int, bank_index: int, row: int, col: int,
                   time_ps: int, precleared: bool) -> None:
        """:meth:`issue_discard` for a flat-coded command (no objects).

        ``kind`` is a :mod:`repro.dram.flat_timing` code; timing
        legality is answered by :meth:`FlatTimingState.earliest` (which
        computes exactly what the object checker computes), and the rare
        violating command falls back to the object checker so the
        violation record / strict-mode exception is bit-identical.
        Every observable side effect matches :meth:`issue_discard`:
        monotonicity, statistics, bank+rank state (object and flat views
        both), RowClone detection, reliability and retention modeling.
        """
        if time_ps < self._last_issue_ps:
            raise ValueError(
                f"command stream went backwards: {time_ps} < {self._last_issue_ps}")
        self._last_issue_ps = time_ps
        flat = self.flat
        if not precleared and time_ps < flat.earliest(kind, bank_index):
            # Bit-identical violation handling (record or strict raise).
            ck = _KIND_OF_CODE[kind]
            self.checker.check(Command(ck, bank=bank_index, row=row, col=col),
                               time_ps, self.banks, self.checker_rank)
        commands = self.stats.commands
        name = KIND_NAMES[kind]
        commands[name] = commands.get(name, 0) + 1
        if kind == K_RD:
            open_row = flat.open_row[bank_index]
            if open_row < 0:
                raise RuntimeError(
                    f"RD to bank {bank_index} with no open row at {time_ps} ps")
            bank = self.banks[bank_index]
            trcd_used = time_ps - bank.last_act
            bank.read(time_ps)
            flat.read(bank_index, time_ps)
            min_trcd = self._trcd_cache.get((bank_index, open_row))
            if min_trcd is None:
                min_trcd = self.cells.row_min_trcd_ps(bank_index, open_row)
            if trcd_used < min_trcd:
                self.stats.unreliable_reads += 1
            elif self.retention_modeling and self._retention_lapsed(time_ps):
                if self._row_is_leaky(bank_index, open_row):
                    self.stats.retention_failures += 1
        elif kind == K_WR:
            open_row = flat.open_row[bank_index]
            if open_row < 0:
                raise RuntimeError(
                    f"WR to bank {bank_index} with no open row at {time_ps} ps")
            if (bank_index, open_row) in self._rows:
                self._write_line(bank_index, open_row, col,
                                 self.default_line(bank_index, open_row, col))
            data_end = time_ps + self.timing.tCWL + self.timing.tBL
            self.banks[bank_index].write(time_ps, data_end)
            flat.write(bank_index, time_ps, data_end)
        elif kind == K_ACT:
            bank = self.banks[bank_index]
            self._maybe_rowclone(bank, row, time_ps)
            bank.activate(row, time_ps)
            self.ranks[self._rank_of[bank_index]].record_act(
                time_ps, self.timing.tFAW)
            flat.act(bank_index, row, time_ps)
            acts_map = self.row_activations
            if acts_map is not None:
                key = (bank_index, row)
                acts_map[key] = acts_map.get(key, 0) + 1
        elif kind == K_PRE:
            self.banks[bank_index].precharge(time_ps)
            flat.pre(bank_index, time_ps)
        elif kind == K_PREA:
            for bank in self.banks:
                bank.precharge(time_ps)
            flat.prea(time_ps)
        elif kind == K_REF:
            self._apply_ref(time_ps)
            flat.ref(time_ps)
        else:
            raise ValueError(f"unknown flat command kind {kind}")

    def issue_col(self, kind: int, bank_index: int, col: int,
                  time_ps: int) -> None:
        """Issue one precleared column command (the row-hit plan body).

        :meth:`issue_plan` specialized for the single-command case —
        no loop, no offset math.  ``kind`` is :data:`K_RD` or
        :data:`K_WR`.
        """
        if time_ps < self._last_issue_ps:
            raise ValueError(
                f"command stream went backwards: {time_ps} <"
                f" {self._last_issue_ps}")
        self._last_issue_ps = time_ps
        flat = self.flat
        open_row = flat.open_row[bank_index]
        commands = self.stats.commands
        group = flat.group_of[bank_index]
        bank = self.banks[bank_index]
        if kind == K_RD:
            if open_row < 0:
                raise RuntimeError(
                    f"RD to bank {bank_index} with no open row at"
                    f" {time_ps} ps")
            commands["RD"] = commands.get("RD", 0) + 1
            trcd_used = time_ps - bank.last_act
            bank.last_read = time_ps
            flat.last_read[bank_index] = time_ps
            if time_ps > flat.group_max_cas[group]:
                flat.group_max_cas[group] = time_ps
            if time_ps > flat.max_cas_all:
                flat.max_cas_all = time_ps
            min_trcd = self._trcd_cache.get((bank_index, open_row))
            if min_trcd is None:
                min_trcd = self.cells.row_min_trcd_ps(bank_index, open_row)
            if trcd_used < min_trcd:
                self.stats.unreliable_reads += 1
            elif self.retention_modeling and self._retention_lapsed(time_ps):
                if self._row_is_leaky(bank_index, open_row):
                    self.stats.retention_failures += 1
        else:
            if open_row < 0:
                raise RuntimeError(
                    f"WR to bank {bank_index} with no open row at"
                    f" {time_ps} ps")
            commands["WR"] = commands.get("WR", 0) + 1
            if (bank_index, open_row) in self._rows:
                self._write_line(bank_index, open_row, col,
                                 self.default_line(bank_index, open_row, col))
            data_end = time_ps + self._write_burst_ps
            bank.last_write = time_ps
            bank.last_write_data_end = data_end
            flat.last_write[bank_index] = time_ps
            if time_ps > flat.group_max_cas[group]:
                flat.group_max_cas[group] = time_ps
            if time_ps > flat.max_cas_all:
                flat.max_cas_all = time_ps
            flat.last_write_end[bank_index] = data_end
            if data_end > flat.max_write_end:
                flat.max_write_end = data_end

    def issue_plan(self, kinds: tuple[int, ...], offsets: tuple[int, ...],
                   bank_index: int, row: int, col: int, start_ps: int,
                   tck: int) -> None:
        """Issue a memoized conventional plan in one fused pass.

        Equivalent to calling :meth:`issue_fast` per planned command —
        ``kinds[0]`` precleared at ``start_ps``, the rest at
        ``start_ps + offsets[i] * tck`` with flat timing checks — but
        with the per-command state updates inlined over local views of
        the flat arrays and the single target :class:`BankState`.
        Conventional plans only contain PRE/ACT/RD/WR.
        """
        if start_ps < self._last_issue_ps:
            raise ValueError(
                f"command stream went backwards: {start_ps} <"
                f" {self._last_issue_ps}")
        flat = self.flat
        bank = self.banks[bank_index]
        commands = self.stats.commands
        get = commands.get
        group = flat.group_of[bank_index]
        inline = self._inline_earliest
        (tRCD, tCCD_S, tCCD_L, tWTR, tRC, tRP,
         tRRD_S, tRRD_L, tFAW, tRFC) = self._tp
        t = start_ps
        first = True
        for i, kind in enumerate(kinds):
            t = start_ps + offsets[i] * tck
            if not first:
                # Legality of a non-leading command: the inline branch
                # computes exactly flat.earliest for RD/WR/ACT (the only
                # kinds that follow another command in a plan).
                if inline:
                    if kind == K_ACT:
                        e = flat.last_act[bank_index] + tRC
                        v = flat.last_pre[bank_index] + tRP
                        if v > e:
                            e = v
                        v = flat.max_act_all + tRRD_S
                        if v > e:
                            e = v
                        v = flat.group_max_act[group] + tRRD_L
                        if v > e:
                            e = v
                        acts = flat.recent_acts
                        n_acts = len(acts)
                        if n_acts >= 4:
                            v = acts[n_acts - 4] + tFAW
                            if v > e:
                                e = v
                        v = flat.last_ref + tRFC
                        if v > e:
                            e = v
                    else:  # K_RD / K_WR
                        e = flat.last_act[bank_index] + tRCD
                        v = flat.max_cas_all + tCCD_S
                        if v > e:
                            e = v
                        v = flat.group_max_cas[group] + tCCD_L
                        if v > e:
                            e = v
                        if kind == K_RD:
                            v = flat.max_write_end + tWTR
                            if v > e:
                                e = v
                else:
                    e = flat.earliest(kind, bank_index)
                if t < e:
                    ck = _KIND_OF_CODE[kind]
                    self.checker.check(
                        Command(ck, bank=bank_index, row=row, col=col),
                        t, self.banks, self.checker_rank)
            first = False
            name = KIND_NAMES[kind]
            commands[name] = get(name, 0) + 1
            if kind == K_RD:
                open_row = flat.open_row[bank_index]
                if open_row < 0:
                    raise RuntimeError(
                        f"RD to bank {bank_index} with no open row at {t} ps")
                trcd_used = t - bank.last_act
                bank.last_read = t                      # bank.read(t)
                flat.last_read[bank_index] = t          # flat.read(...)
                if t > flat.group_max_cas[group]:
                    flat.group_max_cas[group] = t
                if t > flat.max_cas_all:
                    flat.max_cas_all = t
                min_trcd = self._trcd_cache.get((bank_index, open_row))
                if min_trcd is None:
                    min_trcd = self.cells.row_min_trcd_ps(bank_index, open_row)
                if trcd_used < min_trcd:
                    self.stats.unreliable_reads += 1
                elif self.retention_modeling and self._retention_lapsed(t):
                    if self._row_is_leaky(bank_index, open_row):
                        self.stats.retention_failures += 1
            elif kind == K_ACT:
                prev = flat.prev_open_row[bank_index]
                if (prev >= 0 and prev != row
                        and t - flat.last_pre[bank_index]
                        < self._rowclone_gap_ps):
                    self._maybe_rowclone(bank, row, t)
                bank.open_row = row                     # bank.activate(row, t)
                bank.last_act = t
                bank.act_count += 1
                cutoff = t - self.timing.tFAW
                # rank.record_act, in place: timestamps are monotonic,
                # so the window filter is a drop-from-front (same list
                # contents as the reference's rebuild).
                rank = self._rank_of[bank_index]
                rank_acts = self.ranks[rank].recent_acts
                rank_acts.append(t)
                while rank_acts[0] <= cutoff:
                    rank_acts.pop(0)
                if flat.multi_rank:
                    rank_acts = flat.rank_recent_acts[rank]
                    rank_acts.append(t)
                    while rank_acts[0] <= cutoff:
                        rank_acts.popleft()
                flat.last_act[bank_index] = t           # flat.act(...)
                if t > flat.group_max_act[group]:
                    flat.group_max_act[group] = t
                if t > flat.max_act_all:
                    flat.max_act_all = t
                if flat.open_row[bank_index] < 0:
                    flat.open_count += 1
                flat.open_row[bank_index] = row
                acts = flat.recent_acts
                acts.append(t)
                while acts[0] <= cutoff:
                    acts.popleft()
                acts_map = self.row_activations
                if acts_map is not None:
                    key = (bank_index, row)
                    acts_map[key] = acts_map.get(key, 0) + 1
            elif kind == K_PRE:
                open_row = flat.open_row[bank_index]
                bank.previously_open_row = bank.open_row  # bank.precharge(t)
                bank.open_row = None
                bank.last_pre = t
                flat.prev_open_row[bank_index] = open_row  # flat.pre(...)
                if open_row >= 0:
                    flat.open_count -= 1
                    flat.open_row[bank_index] = -1
                flat.last_pre[bank_index] = t
                if t > flat.max_pre:
                    flat.max_pre = t
            else:  # K_WR
                open_row = flat.open_row[bank_index]
                if open_row < 0:
                    raise RuntimeError(
                        f"WR to bank {bank_index} with no open row at {t} ps")
                if (bank_index, open_row) in self._rows:
                    self._write_line(bank_index, open_row, col,
                                     self.default_line(bank_index, open_row,
                                                       col))
                data_end = t + self._write_burst_ps
                bank.last_write = t                 # bank.write(t, data_end)
                bank.last_write_data_end = data_end
                flat.last_write[bank_index] = t     # flat.write(...)
                if t > flat.group_max_cas[group]:
                    flat.group_max_cas[group] = t
                if t > flat.max_cas_all:
                    flat.max_cas_all = t
                flat.last_write_end[bank_index] = data_end
                if data_end > flat.max_write_end:
                    flat.max_write_end = data_end
        self._last_issue_ps = t

    def issue_rowclone(self, bank_index: int, src_row: int, dst_row: int,
                       times: tuple[int, int, int, int]) -> None:
        """Issue the FPM sequence ACT(src), PRE, ACT(dst), PRE in one pass.

        Equivalent to :meth:`issue` of the four commands at ``times`` (the
        Bender walk of :meth:`~repro.core.easyapi.EasyAPI.rowclone`'s
        program), with each command's legality answered by the flat
        timing state: a command issued before its earliest legal time is
        recorded (or, in strict mode, raises) with the binding constraint
        :meth:`FlatTimingState.binding` names -- the record the object
        checker makes on the staged path.  The second ACT performs the
        in-DRAM copy.  The caller range-checks the bank and rows.
        """
        if times[0] < self._last_issue_ps:
            raise ValueError(
                f"command stream went backwards: {times[0]} <"
                f" {self._last_issue_ps}")
        flat = self.flat
        bank = self.banks[bank_index]
        rank = self.ranks[self._rank_of[bank_index]]
        commands = self.stats.commands
        tfaw = self.timing.tFAW
        acts_map = self.row_activations
        for kind, row, t in ((K_ACT, src_row, times[0]), (K_PRE, 0, times[1]),
                             (K_ACT, dst_row, times[2]),
                             (K_PRE, 0, times[3])):
            self._last_issue_ps = t
            if t < flat.earliest(kind, bank_index):
                earliest, constraint = flat.binding(kind, bank_index)
                command = Command(_KIND_OF_CODE[kind], bank=bank_index,
                                  row=row)
                checker = self.checker
                if checker.strict:
                    raise TimingViolation(command, t, earliest, constraint)
                checker.violations.append(
                    ViolationRecord(command, t, earliest, constraint))
            name = KIND_NAMES[kind]
            commands[name] = commands.get(name, 0) + 1
            if kind == K_ACT:
                self._maybe_rowclone(bank, row, t)
                bank.activate(row, t)
                rank.record_act(t, tfaw)
                flat.act(bank_index, row, t)
                if acts_map is not None:
                    key = (bank_index, row)
                    acts_map[key] = acts_map.get(key, 0) + 1
            else:
                bank.precharge(t)
                flat.pre(bank_index, t)

    def _do_act(self, cmd: Command, t: int) -> None:
        """ACT: open a row (detecting the RowClone ACT-PRE-ACT pattern)."""
        bank = self.banks[cmd.bank]
        self._maybe_rowclone(bank, cmd.row, t)
        bank.activate(cmd.row, t)
        self.ranks[self._rank_of[cmd.bank]].record_act(t, self.timing.tFAW)
        self.flat.act(cmd.bank, cmd.row, t)
        acts_map = self.row_activations
        if acts_map is not None:
            key = (cmd.bank, cmd.row)
            acts_map[key] = acts_map.get(key, 0) + 1
        return None

    def _do_pre(self, cmd: Command, t: int) -> None:
        """PRE: close the addressed bank's open row."""
        self.banks[cmd.bank].precharge(t)
        self.flat.pre(cmd.bank, t)
        return None

    def _do_prea(self, cmd: Command, t: int) -> None:
        """PREA: close every bank's open row."""
        for bank in self.banks:
            bank.precharge(t)
        self.flat.prea(t)
        return None

    def _do_rd(self, cmd: Command, t: int) -> ReadResult:
        """RD: return one cache line, applying cell-model corruption."""
        bank = self.banks[cmd.bank]
        if bank.open_row is None:
            raise RuntimeError(
                f"RD to bank {cmd.bank} with no open row at {t} ps")
        row = bank.open_row
        bank.read(t)
        self.flat.read(cmd.bank, t)
        line = self._read_line(cmd.bank, row, cmd.col)
        reliable = True
        trcd_used = t - bank.last_act
        if not self.cells.read_is_reliable(cmd.bank, row, trcd_used):
            line = self.cells.corrupt(line, cmd.bank, row, salt=t & 0xFFFF)
            reliable = False
            self.stats.unreliable_reads += 1
        elif self.retention_modeling and self._retention_lapsed(t):
            if self._row_is_leaky(cmd.bank, row):
                line = self.cells.corrupt(line, cmd.bank, row, salt=0xDECA)
                reliable = False
                self.stats.retention_failures += 1
        return ReadResult(data=line, reliable=reliable,
                          bank=cmd.bank, row=row, col=cmd.col)

    def _do_wr(self, cmd: Command, t: int) -> None:
        """WR: store one cache line into the open row."""
        bank = self.banks[cmd.bank]
        if bank.open_row is None:
            raise RuntimeError(
                f"WR to bank {cmd.bank} with no open row at {t} ps")
        row = bank.open_row
        data = cmd.data
        if data is None:
            data = self.default_line(cmd.bank, row, cmd.col)
        self._write_line(cmd.bank, row, cmd.col, data)
        data_end = t + self.timing.tCWL + self.timing.tBL
        bank.write(t, data_end)
        self.flat.write(cmd.bank, t, data_end)
        return None

    def _do_ref(self, cmd: Command, t: int) -> None:
        """REF: refresh every rank, resetting the retention epoch."""
        self._apply_ref(t)
        self.flat.ref(t)
        return None

    def _apply_ref(self, t: int) -> None:
        """REF side effects on rank state (both issue paths).

        ``last_ref`` advances on every rank unconditionally — REF holds
        the shared command bus, so its timing shadow is channel-global
        and must stay identical whether or not the retention scoping
        knob is set (the flat timing state keeps one channel-wide
        ``last_ref`` too).  Only the *retention* epoch is scoped when a
        per-rank refresh storm targets one rank.
        """
        target = self._refresh_rank
        if target is None:
            for rank_state in self.ranks:
                rank_state.last_ref = t
                rank_state.refresh_epoch_ps = t
        else:
            for index, rank_state in enumerate(self.ranks):
                rank_state.last_ref = t
                if index == target:
                    rank_state.refresh_epoch_ps = t

    def _do_nop(self, cmd: Command, t: int) -> None:
        """NOP: consume one interface cycle."""
        return None

    # -- RowClone semantics ---------------------------------------------------

    def _maybe_rowclone(self, bank: BankState, dst_row: int, t: int) -> None:
        """Detect the ACT-PRE-ACT FPM sequence and perform the in-DRAM copy."""
        src_row = bank.previously_open_row
        if src_row is None or src_row == dst_row:
            return
        gap = t - bank.last_pre
        if gap >= int(self.timing.tRP * self.ROWCLONE_PRE_TO_ACT_FRACTION):
            return
        self.stats.rowclone_attempts += 1
        self._rowclone_attempt_counter += 1
        src_data = self._row(bank.index, src_row)
        ok = self.cells.rowclone_copy_succeeds(
            bank.index, src_row, dst_row, self._rowclone_attempt_counter)
        if ok:
            self._rows[(bank.index, dst_row)] = bytearray(src_data)
            self.stats.rowclone_successes += 1
        else:
            corrupted = self.cells.corrupt(
                bytes(src_data), bank.index, dst_row,
                salt=self._rowclone_attempt_counter)
            self._rows[(bank.index, dst_row)] = bytearray(corrupted)

    # -- data storage ---------------------------------------------------------

    def default_line(self, bank: int, row: int, col: int) -> bytes:
        """Deterministic power-on filler pattern for an untouched line."""
        tag = (bank * 0x1000003 + row * 0x10001 + col * 0x101) & 0xFFFFFFFF
        unit = tag.to_bytes(4, "little")
        return unit * (self.geometry.line_bytes // 4)

    def _row(self, bank: int, row: int) -> bytearray:
        """Materialize (lazily) and return a row's backing storage.

        The power-on filler is every column's :meth:`default_line`, built
        in one pass: the per-column tags as a little-endian ``uint32``
        vector, each repeated across its line.
        """
        key = (bank, row)
        data = self._rows.get(key)
        if data is None:
            g = self.geometry
            base = (bank * 0x1000003 + row * 0x10001) & 0xFFFFFFFF
            tags = (base + np.arange(g.columns_per_row, dtype=np.int64)
                    * 0x101) & 0xFFFFFFFF
            data = bytearray(np.repeat(tags.astype("<u4"),
                                       g.line_bytes // 4).tobytes())
            self._rows[key] = data
        return data

    def _read_line(self, bank: int, row: int, col: int) -> bytes:
        """Copy one cache line out of a row."""
        line = self.geometry.line_bytes
        data = self._row(bank, row)
        return bytes(data[col * line:(col + 1) * line])

    def _write_line(self, bank: int, row: int, col: int, payload: bytes) -> None:
        """Store one cache line into a row (validating its size)."""
        line = self.geometry.line_bytes
        if len(payload) != line:
            raise ValueError(
                f"WR payload must be {line} bytes, got {len(payload)}")
        data = self._row(bank, row)
        data[col * line:(col + 1) * line] = payload

    def row_data(self, bank: int, row: int) -> bytes:
        """Whole-row contents (inspection helper for tests and profiling)."""
        return bytes(self._row(bank, row))

    def preload_row(self, bank: int, row: int, data: bytes) -> None:
        """Host-side preload of a full row (e.g. test patterns)."""
        if len(data) != self.geometry.row_bytes:
            raise ValueError(
                f"row preload must be {self.geometry.row_bytes} bytes,"
                f" got {len(data)}")
        self._rows[(bank, row)] = bytearray(data)

    # -- activation pressure --------------------------------------------------

    def hammer_report(self, top: int = 8) -> list[dict[str, int]]:
        """Rank victim rows by neighbouring activation pressure.

        Requires ``track_row_activations``; returns up to ``top``
        entries ``{"bank", "row", "pressure", "own_acts"}`` where
        ``pressure`` is the summed ACT count of the row's physical
        neighbours (rows ``r-1`` and ``r+1`` in the same bank) — the
        RowHammer disturbance proxy — and ``own_acts`` is the victim's
        own ACT count.  Sorted by descending pressure, then (bank, row)
        for determinism.  No bit flips are modelled; this is
        observability only.
        """
        acts = self.row_activations
        if acts is None:
            raise RuntimeError(
                "hammer_report requires track_row_activations=True")
        victims: dict[tuple[int, int], int] = {}
        rows_per_bank = self.geometry.rows_per_bank
        for (bank, row), count in acts.items():
            for victim_row in (row - 1, row + 1):
                if 0 <= victim_row < rows_per_bank:
                    key = (bank, victim_row)
                    victims[key] = victims.get(key, 0) + count
        ranked = sorted(victims.items(), key=lambda kv: (-kv[1], kv[0]))
        return [{"bank": bank, "row": row, "pressure": pressure,
                 "own_acts": acts.get((bank, row), 0)}
                for (bank, row), pressure in ranked[:top]]

    # -- retention ------------------------------------------------------------

    def _retention_lapsed(self, t: int) -> bool:
        """Whether the rank has gone longer than tREFW without refresh."""
        return t - self.rank.refresh_epoch_ps > self.timing.tREFW

    def _row_is_leaky(self, bank: int, row: int) -> bool:
        """~1% of rows lose data first when the refresh window lapses."""
        mix = (bank * 2654435761 + row * 40503) & 0xFFFF
        return mix % 100 == 0

    # -- misc -------------------------------------------------------------------

    def _validate(self, cmd: Command) -> None:
        """Range-check the command's bank/row/column coordinates."""
        g = self.geometry
        if cmd.targets_bank and not (0 <= cmd.bank < g.total_banks):
            raise ValueError(f"bank {cmd.bank} out of range for {cmd.short()}")
        if cmd.kind is CommandKind.ACT and not (0 <= cmd.row < g.rows_per_bank):
            raise ValueError(f"row {cmd.row} out of range for {cmd.short()}")
        if cmd.kind in (CommandKind.RD, CommandKind.WR):
            if not (0 <= cmd.col < g.columns_per_row):
                raise ValueError(f"col {cmd.col} out of range for {cmd.short()}")

    def reset(self) -> None:
        """Power-cycle: bank state cleared, data retained (like a warm boot)."""
        for bank in self.banks:
            bank.reset()
        self.ranks = [RankState() for _ in self.ranks]
        self.rank = self.ranks[0]
        self.checker_rank = (self.rank if self.geometry.ranks == 1
                             else self.ranks)
        self.flat.reset()
        self._last_issue_ps = -1
        if self.row_activations is not None:
            self.row_activations = {}
