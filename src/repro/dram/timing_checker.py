"""JEDEC inter-command timing validation.

The checker computes, for a candidate command, the earliest legal issue
time given the bank/rank command history.  It is used in two modes:

* **strict** — raise :class:`TimingViolation` when a command is issued
  early.  This is how the conventional memory-controller path runs; it
  guarantees the software memory controller never silently corrupts data.
* **permissive** — report violations but let the command through.  DRAM
  techniques (RowClone's premature PRE/ACT, reduced-tRCD reads) work by
  deliberately violating timings; the *cell model* then decides what the
  real chip would do with the violating sequence.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.dram.address import Geometry
from repro.dram.bank import NEVER, BankState, RankState
from repro.dram.commands import Command, CommandKind
from repro.dram.timing import TimingParams


class TimingViolation(Exception):
    """A DRAM command was issued before its earliest legal time.

    Raised only when the owning :class:`TimingChecker` runs in **strict**
    mode (``strict=True``): the conventional memory-controller path uses
    strict checking as a correctness guard — a violating command means
    the software memory controller itself is buggy, so emulation stops
    rather than silently corrupting data.  In **permissive** mode
    (``strict=False``, the EasyTile default) the same condition is
    recorded as a :class:`ViolationRecord` and the command proceeds;
    the cell model then decides what the silicon would do with the
    violating sequence (DRAM techniques rely on this).
    """

    def __init__(self, command: Command, time_ps: int, earliest_ps: int,
                 constraint: str) -> None:
        self.command = command
        self.time_ps = time_ps
        self.earliest_ps = earliest_ps
        self.constraint = constraint
        short = command.short()
        super().__init__(
            f"{short} issued at {time_ps} ps, earliest legal {earliest_ps} ps"
            f" (violates {constraint}, short by {earliest_ps - time_ps} ps)")


@dataclass
class ViolationRecord:
    """A permissive-mode violation observation."""

    command: Command
    time_ps: int
    earliest_ps: int
    constraint: str

    @property
    def slack_ps(self) -> int:
        """How early the command was (positive = violation magnitude)."""
        return self.earliest_ps - self.time_ps


@dataclass
class _Constraint:
    """One candidate lower bound on a command's issue time."""

    earliest_ps: int
    name: str


@dataclass
class TimingChecker:
    """Stateless constraint evaluator over bank/rank state.

    The checker does not own the state; :class:`repro.dram.device.DramDevice`
    passes its bank and rank state in.  This keeps checker logic pure and
    lets the baseline simulator reuse it.
    """

    timing: TimingParams
    geometry: Geometry
    strict: bool = True
    violations: list[ViolationRecord] = field(default_factory=list)

    def __post_init__(self) -> None:
        # Precomputed bank -> bank-group / rank tables so the batched
        # query path never calls into the geometry per bank.
        n = self.geometry.total_banks
        self._group_of = tuple(
            self.geometry.bank_group_of(b) for b in range(n))
        self._rank_of = tuple(self.geometry.rank_of(b) for b in range(n))
        self._multi_rank = self.geometry.ranks > 1

    @staticmethod
    def _rank_states(rank) -> tuple[RankState, ...]:
        """Normalize the rank argument (one state or one per rank)."""
        if isinstance(rank, RankState):
            return (rank,)
        return tuple(rank)

    def earliest_issue(self, cmd: Command, banks: list[BankState],
                       rank: RankState) -> tuple[int, str]:
        """Earliest legal issue time for ``cmd`` and the binding constraint."""
        t = self.timing
        rank_states = self._rank_states(rank)
        candidates: list[_Constraint] = [_Constraint(0, "power-on")]
        if cmd.kind is CommandKind.ACT:
            bank = banks[cmd.bank]
            candidates.append(_Constraint(bank.last_act + t.tRC, "tRC"))
            candidates.append(_Constraint(bank.last_pre + t.tRP, "tRP"))
            candidates.extend(self._act_to_act(cmd, banks))
            own_rank = rank_states[min(self._rank_of[cmd.bank],
                                       len(rank_states) - 1)]
            candidates.append(self._faw(own_rank))
            candidates.append(_Constraint(
                self._last_ref(rank_states) + t.tRFC, "tRFC"))
        elif cmd.kind in (CommandKind.PRE, CommandKind.PREA):
            targets = banks if cmd.kind is CommandKind.PREA else [banks[cmd.bank]]
            for bank in targets:
                candidates.append(_Constraint(bank.last_act + t.tRAS, "tRAS"))
                candidates.append(_Constraint(bank.last_read + t.tRTP, "tRTP"))
                candidates.append(
                    _Constraint(bank.last_write_data_end + t.tWR, "tWR"))
        elif cmd.kind is CommandKind.RD:
            bank = banks[cmd.bank]
            candidates.append(_Constraint(bank.last_act + t.tRCD, "tRCD"))
            candidates.extend(self._cas_to_cas(cmd, banks))
            candidates.append(
                _Constraint(self._last_write_end(cmd.bank, banks, same_rank=True)
                            + t.tWTR, "tWTR"))
            if self._multi_rank:
                candidates.append(_Constraint(
                    self._last_write_end(cmd.bank, banks, same_rank=False)
                    + t.tCS, "tCS"))
        elif cmd.kind is CommandKind.WR:
            bank = banks[cmd.bank]
            candidates.append(_Constraint(bank.last_act + t.tRCD, "tRCD"))
            candidates.extend(self._cas_to_cas(cmd, banks))
        elif cmd.kind is CommandKind.REF:
            for bank in banks:
                candidates.append(_Constraint(bank.last_pre + t.tRP, "tRP"))
                if bank.is_open:
                    # All banks must be precharged before refresh.
                    candidates.append(_Constraint((1 << 62), "banks-open"))
            candidates.append(_Constraint(
                self._last_ref(rank_states) + t.tRFC, "tRFC"))
        binding = max(candidates, key=lambda c: c.earliest_ps)
        return binding.earliest_ps, binding.name

    def check(self, cmd: Command, time_ps: int, banks: list[BankState],
              rank: RankState) -> int:
        """Validate ``cmd`` at ``time_ps``; return the violation slack (ps).

        Returns 0 when the command is legal.  In strict mode an early
        command raises; in permissive mode it is recorded and the positive
        slack is returned so the device can model the consequences.
        """
        earliest, constraint = self.earliest_issue(cmd, banks, rank)
        if time_ps >= earliest:
            return 0
        if self.strict:
            raise TimingViolation(cmd, time_ps, earliest, constraint)
        # Snapshot the command: pooled conventional programs reuse and
        # re-patch their Command objects in place, and a record must
        # describe the command as it was at violation time.
        self.violations.append(ViolationRecord(
            Command(cmd.kind, cmd.bank, cmd.row, cmd.col, cmd.data),
            time_ps, earliest, constraint))
        return earliest - time_ps

    # -- helpers ----------------------------------------------------------

    def _act_to_act(self, cmd: Command, banks: list[BankState]) -> list[_Constraint]:
        """tRRD constraints of an ACT against same-rank banks' last ACTs.

        tRRD is a rank-internal constraint: ACTs to different ranks of a
        channel are only coupled through the shared command bus, which
        this model does not bottleneck on.
        """
        t = self.timing
        group = self._group_of[cmd.bank]
        rank_of = self._rank_of
        rank = rank_of[cmd.bank]
        out = []
        for other in banks:
            if other.index == cmd.bank or rank_of[other.index] != rank:
                continue
            same_group = self._group_of[other.index] == group
            gap = t.tRRD_L if same_group else t.tRRD_S
            name = "tRRD_L" if same_group else "tRRD_S"
            out.append(_Constraint(other.last_act + gap, name))
        return out

    def _cas_to_cas(self, cmd: Command, banks: list[BankState]) -> list[_Constraint]:
        """tCCD constraints of a column command against every bank's last CAS.

        Same-rank banks see tCCD_L/tCCD_S; banks of *other* ranks see the
        rank-to-rank bus turnaround tCS instead.
        """
        t = self.timing
        group = self._group_of[cmd.bank]
        rank_of = self._rank_of
        rank = rank_of[cmd.bank]
        out = []
        for other in banks:
            last_cas = max(other.last_read, other.last_write)
            if rank_of[other.index] == rank:
                same_group = self._group_of[other.index] == group
                gap = t.tCCD_L if same_group else t.tCCD_S
                name = "tCCD_L" if same_group else "tCCD_S"
            else:
                gap = t.tCS
                name = "tCS"
            out.append(_Constraint(last_cas + gap, name))
        return out

    def _faw(self, rank: RankState) -> _Constraint:
        """Four-activation-window bound (at most 4 ACTs per tFAW)."""
        t = self.timing
        if len(rank.recent_acts) < 4:
            return _Constraint(0, "tFAW")
        # The 4th-most-recent ACT pins the window.
        fourth = sorted(rank.recent_acts)[-4]
        return _Constraint(fourth + t.tFAW, "tFAW")

    def _last_write_end(self, bank_index: int, banks: list[BankState],
                        same_rank: bool) -> int:
        """End of the most recent write burst in (or outside) the rank."""
        rank_of = self._rank_of
        rank = rank_of[bank_index]
        best = NEVER
        for b in banks:
            if (rank_of[b.index] == rank) == same_rank:
                if b.last_write_data_end > best:
                    best = b.last_write_data_end
        return best

    @staticmethod
    def _last_ref(rank_states: tuple[RankState, ...]) -> int:
        """Most recent refresh across the channel's ranks."""
        best = rank_states[0].last_ref
        for state in rank_states[1:]:
            if state.last_ref > best:
                best = state.last_ref
        return best
