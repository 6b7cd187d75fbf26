"""Flat (array-native) DRAM timing state: the hot-path twin of BankState.

:class:`~repro.dram.timing_checker.TimingChecker` answers "when may this
command issue?" by scanning :class:`~repro.dram.bank.BankState` objects
— an attribute access per (bank, field) pair.  On the software memory
controller's batched service path that scan *is* the remaining host
work, so :class:`FlatTimingState` keeps the same information as
preallocated per-bank integer arrays plus incrementally maintained
rank-wide aggregates, and answers every query with integer arithmetic:
no ``_Constraint`` objects, no dataclass attribute walks, no ``sorted``
calls.

The device (:class:`~repro.dram.device.DramDevice`) updates the flat
state alongside the object state on every command, so both views are
always coherent; the object-based checker remains the oracle the
randomized cross-check tests compare against.

Aggregates and why they are exact:

* ``group_max_act[g]`` / ``group_max_cas[g]`` — per-bank-group maxima of
  the last ACT / last column command.  tCCD scans all banks (the bank
  itself included), so the group maximum is the scan's answer directly.
  tRRD excludes the bank itself, but including it is harmless whenever
  ``tRRD_{L,S} <= tRC``: the bank's own ``last_act + tRC`` bound always
  dominates its ``last_act + tRRD`` term.  Every real DDRx parameter set
  satisfies that (tRC = tRAS + tRP >> tRRD); the constructor checks it
  and falls back to a per-bank scan otherwise.
* ``max_write_end`` / ``max_pre`` — rank-wide maxima for tWTR and the
  refresh precondition.  Command timestamps are monotonic, so maxima
  only grow and never need recomputation.
* ``recent_acts`` — the tFAW window as a deque.  Issue times are
  non-decreasing, so the deque is sorted by construction: expiring old
  ACTs is ``popleft`` and the 4th-most-recent ACT is ``deque[len - 4]``,
  exactly ``sorted(acts)[-4]``.

Command kinds are small integers here (:data:`K_ACT` ...); the planner
in :mod:`repro.core.smc` and :meth:`DramDevice.issue_fast` speak them to
avoid constructing :class:`~repro.dram.commands.Command` objects on the
conventional service path.
"""

from __future__ import annotations

from collections import deque

from repro.dram.address import Geometry
from repro.dram.bank import NEVER
from repro.dram.timing import TimingParams

#: Integer command-kind codes used by the fast issue path.
K_ACT = 0
K_PRE = 1
K_PREA = 2
K_RD = 3
K_WR = 4
K_REF = 5

#: Flat-code -> CommandKind value string (device statistics keys).
KIND_NAMES = ("ACT", "PRE", "PREA", "RD", "WR", "REF")

_FAR_FUTURE = 1 << 62


class FlatTimingState:
    """Per-bank timestamps and rank aggregates as flat integer arrays."""

    def __init__(self, timing: TimingParams, geometry: Geometry) -> None:
        self.timing = timing
        self.geometry = geometry
        self.num_banks = geometry.total_banks
        self.num_groups = geometry.total_bank_groups
        self.group_of = tuple(geometry.bank_group_of(b)
                              for b in range(self.num_banks))
        # Rank topology: flat bank index rank-major, so rank r owns the
        # contiguous slice [r * banks_per_rank, (r + 1) * banks_per_rank).
        self.num_ranks = geometry.ranks
        self.multi_rank = geometry.ranks > 1
        self.rank_of = tuple(geometry.rank_of(b) for b in range(self.num_banks))
        self._banks_per_rank = geometry.num_banks
        #: Per-rank tFAW windows (multi-rank only; rank 0 aliases the
        #: channel-wide deque in the single-rank layout).
        self.rank_recent_acts: list[deque[int]] = [
            deque() for _ in range(self.num_ranks)]
        # The group-maximum tRRD shortcut is exact only while a bank's
        # own tRC bound dominates its tRRD bound (see module docstring).
        # Both aggregate shortcuts mix banks of every rank, so they are
        # only usable on single-rank topologies; multi-rank queries take
        # the explicit rank-aware scans below.
        self._rrd_by_group = (not self.multi_rank
                              and timing.tRRD_L <= timing.tRC
                              and timing.tRRD_S <= timing.tRC)
        # Two-term reduction of the per-group scans: with the short
        # (other-group) gap no larger than the long (same-group) gap,
        #   max_g(gmax[g] + gap(g)) == max(max_all + short,
        #                                  gmax[own] + long)
        # — the rank-wide maximum either sits in the own group (its
        # short term is then dominated by the long term, which the
        # right side keeps) or in another group (then it IS the scan's
        # short-gap answer, and every remaining short term is smaller).
        self._rrd_two_term = (self._rrd_by_group
                              and timing.tRRD_S <= timing.tRRD_L)
        self._ccd_two_term = (not self.multi_rank
                              and timing.tCCD_S <= timing.tCCD_L)
        n = self.num_banks
        g = self.num_groups
        self.last_act = [NEVER] * n
        self.last_pre = [NEVER] * n
        self.last_read = [NEVER] * n
        self.last_write = [NEVER] * n
        self.last_write_end = [NEVER] * n
        self.open_row = [-1] * n           # -1 = precharged
        self.prev_open_row = [-1] * n      # row open before the last PRE
        self.group_max_act = [NEVER] * g
        self.group_max_cas = [NEVER] * g
        self.recent_acts: deque[int] = deque()
        self.reset()

    def reset(self) -> None:
        """Power-on state (mirrors BankState.reset + a fresh RankState).

        In-place: consumers cache references to the per-bank arrays, so
        a reset must keep the list identities stable.
        """
        n = self.num_banks
        g = self.num_groups
        self.last_act[:] = [NEVER] * n
        self.last_pre[:] = [NEVER] * n
        self.last_read[:] = [NEVER] * n
        self.last_write[:] = [NEVER] * n
        self.last_write_end[:] = [NEVER] * n
        self.open_row[:] = [-1] * n
        self.prev_open_row[:] = [-1] * n
        self.group_max_act[:] = [NEVER] * g
        self.group_max_cas[:] = [NEVER] * g
        self.max_act_all = NEVER
        self.max_cas_all = NEVER
        self.max_write_end = NEVER
        self.max_pre = NEVER
        self.open_count = 0
        self.recent_acts.clear()
        for acts in self.rank_recent_acts:
            acts.clear()
        self.last_ref = NEVER

    # -- state updates (called by the device on every command) --------------

    def act(self, bank: int, row: int, t: int) -> None:
        self.last_act[bank] = t
        group = self.group_of[bank]
        if t > self.group_max_act[group]:
            self.group_max_act[group] = t
        if t > self.max_act_all:
            self.max_act_all = t
        if self.open_row[bank] < 0:
            self.open_count += 1
        self.open_row[bank] = row
        acts = self.recent_acts
        acts.append(t)
        cutoff = t - self.timing.tFAW
        while acts and acts[0] <= cutoff:
            acts.popleft()
        if self.multi_rank:
            racts = self.rank_recent_acts[self.rank_of[bank]]
            racts.append(t)
            while racts and racts[0] <= cutoff:
                racts.popleft()

    def pre(self, bank: int, t: int) -> None:
        row = self.open_row[bank]
        self.prev_open_row[bank] = row
        if row >= 0:
            self.open_count -= 1
            self.open_row[bank] = -1
        self.last_pre[bank] = t
        if t > self.max_pre:
            self.max_pre = t

    def prea(self, t: int) -> None:
        for bank in range(self.num_banks):
            self.pre(bank, t)

    def read(self, bank: int, t: int) -> None:
        self.last_read[bank] = t
        group = self.group_of[bank]
        if t > self.group_max_cas[group]:
            self.group_max_cas[group] = t
        if t > self.max_cas_all:
            self.max_cas_all = t

    def write(self, bank: int, t: int, data_end: int) -> None:
        self.last_write[bank] = t
        group = self.group_of[bank]
        if t > self.group_max_cas[group]:
            self.group_max_cas[group] = t
        if t > self.max_cas_all:
            self.max_cas_all = t
        self.last_write_end[bank] = data_end
        if data_end > self.max_write_end:
            self.max_write_end = data_end

    def ref(self, t: int) -> None:
        self.last_ref = t

    # -- queries (bit-identical to TimingChecker.earliest_issue) ------------

    def earliest(self, kind: int, bank: int) -> int:
        """Earliest legal issue time of a ``kind`` command on ``bank``.

        Computes the exact value of
        :meth:`repro.dram.timing_checker.TimingChecker.earliest_issue`
        for the corresponding command, using the flat arrays.
        """
        t = self.timing
        e = 0
        if self.multi_rank and kind in (K_ACT, K_RD, K_WR):
            return self._earliest_multi_rank(kind, bank)
        if kind == K_ACT:
            e = self.last_act[bank] + t.tRC
            v = self.last_pre[bank] + t.tRP
            if v > e:
                e = v
            grp = self.group_of[bank]
            if self._rrd_two_term:
                v = self.max_act_all + t.tRRD_S
                if v > e:
                    e = v
                v = self.group_max_act[grp] + t.tRRD_L
                if v > e:
                    e = v
            elif self._rrd_by_group:
                rrd_l, rrd_s = t.tRRD_L, t.tRRD_S
                for g, gmax in enumerate(self.group_max_act):
                    v = gmax + (rrd_l if g == grp else rrd_s)
                    if v > e:
                        e = v
            else:
                last_act = self.last_act
                group_of = self.group_of
                rrd_l, rrd_s = t.tRRD_L, t.tRRD_S
                for other in range(self.num_banks):
                    if other == bank:
                        continue
                    v = last_act[other] + (rrd_l if group_of[other] == grp
                                           else rrd_s)
                    if v > e:
                        e = v
            acts = self.recent_acts
            if len(acts) >= 4:
                v = acts[len(acts) - 4] + t.tFAW
                if v > e:
                    e = v
            v = self.last_ref + t.tRFC
            if v > e:
                e = v
        elif kind == K_RD or kind == K_WR:
            e = self.last_act[bank] + t.tRCD
            grp = self.group_of[bank]
            if self._ccd_two_term:
                v = self.max_cas_all + t.tCCD_S
                if v > e:
                    e = v
                v = self.group_max_cas[grp] + t.tCCD_L
                if v > e:
                    e = v
            else:
                ccd_l, ccd_s = t.tCCD_L, t.tCCD_S
                for g, gmax in enumerate(self.group_max_cas):
                    v = gmax + (ccd_l if g == grp else ccd_s)
                    if v > e:
                        e = v
            if kind == K_RD:
                v = self.max_write_end + t.tWTR
                if v > e:
                    e = v
        elif kind == K_PRE:
            e = self.last_act[bank] + t.tRAS
            v = self.last_read[bank] + t.tRTP
            if v > e:
                e = v
            v = self.last_write_end[bank] + t.tWR
            if v > e:
                e = v
        elif kind == K_PREA:
            tras, trtp, twr = t.tRAS, t.tRTP, t.tWR
            last_act, last_read = self.last_act, self.last_read
            last_write_end = self.last_write_end
            for b in range(self.num_banks):
                v = last_act[b] + tras
                if v > e:
                    e = v
                v = last_read[b] + trtp
                if v > e:
                    e = v
                v = last_write_end[b] + twr
                if v > e:
                    e = v
        elif kind == K_REF:
            e = self.max_pre + t.tRP
            v = self.last_ref + t.tRFC
            if v > e:
                e = v
            if self.open_count:
                e = _FAR_FUTURE
        return e if e > 0 else 0

    def _earliest_multi_rank(self, kind: int, bank: int) -> int:
        """Rank-aware earliest-time query (topologies with ranks > 1).

        tRRD/tFAW and tCCD/tWTR couple banks *within* a rank; commands
        to different ranks only see the rank-to-rank bus turnaround
        ``tCS`` after another rank's column access (and, for reads, the
        end of another rank's write burst).  REF refreshes all ranks of
        the channel at once, so tRFC still reads the channel-wide
        ``last_ref``.
        """
        t = self.timing
        rk = self.rank_of[bank]
        bpr = self._banks_per_rank
        lo = rk * bpr
        hi = lo + bpr
        last_act = self.last_act
        if kind == K_ACT:
            e = last_act[bank] + t.tRC
            v = self.last_pre[bank] + t.tRP
            if v > e:
                e = v
            grp = self.group_of[bank]
            group_of = self.group_of
            rrd_l, rrd_s = t.tRRD_L, t.tRRD_S
            for other in range(lo, hi):
                if other == bank:
                    continue
                v = last_act[other] + (rrd_l if group_of[other] == grp
                                       else rrd_s)
                if v > e:
                    e = v
            acts = self.rank_recent_acts[rk]
            if len(acts) >= 4:
                v = acts[len(acts) - 4] + t.tFAW
                if v > e:
                    e = v
            v = self.last_ref + t.tRFC
            if v > e:
                e = v
        else:  # K_RD / K_WR
            e = last_act[bank] + t.tRCD
            grp = self.group_of[bank]
            group_of = self.group_of
            last_read = self.last_read
            last_write = self.last_write
            last_write_end = self.last_write_end
            ccd_l, ccd_s, tcs = t.tCCD_L, t.tCCD_S, t.tCS
            is_read = kind == K_RD
            twtr = t.tWTR
            for other in range(self.num_banks):
                last_cas = last_read[other]
                w = last_write[other]
                if w > last_cas:
                    last_cas = w
                if lo <= other < hi:
                    gap = ccd_l if group_of[other] == grp else ccd_s
                    v = last_cas + gap
                    if v > e:
                        e = v
                    if is_read:
                        v = last_write_end[other] + twtr
                        if v > e:
                            e = v
                else:
                    v = last_cas + tcs
                    if v > e:
                        e = v
                    if is_read:
                        v = last_write_end[other] + tcs
                        if v > e:
                            e = v
        return e if e > 0 else 0
