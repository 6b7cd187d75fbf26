"""Flat timing-state cross-checks against the object-based oracle.

The flat path must compute *exactly* what the strict/object checker
computes — any divergence changes command start times and breaks the
bit-identical-artifact contract — and it must not allocate
``_Constraint`` objects on the hot path.
"""

from __future__ import annotations

import random

import pytest

from repro.core.config import jetson_nano_time_scaling
from repro.core.system import EasyDRAMSystem
from repro.dram import timing_checker
from repro.dram.address import Geometry
from repro.dram.cells import CellArrayModel, CellModelConfig
from repro.dram.commands import Command, CommandKind
from repro.dram.flat_timing import (
    K_ACT,
    K_PRE,
    K_PREA,
    K_RD,
    K_REF,
    K_WR,
    FlatTimingState,
)
from repro.dram.device import DramDevice
from repro.workloads import lmbench, microbench

KIND_PAIRS = (
    (K_ACT, CommandKind.ACT),
    (K_PRE, CommandKind.PRE),
    (K_PREA, CommandKind.PREA),
    (K_RD, CommandKind.RD),
    (K_WR, CommandKind.WR),
    (K_REF, CommandKind.REF),
)


def random_legal_stream(device, rng, steps):
    """Drive the device with a randomized, loosely-legal command stream."""
    geometry = device.geometry
    t = 0
    for _ in range(steps):
        t += rng.randrange(0, 40_000)
        bank = rng.randrange(geometry.num_banks)
        choice = rng.random()
        state = device.banks[bank]
        if choice < 0.10:
            if all(not b.is_open for b in device.banks):
                cmd = Command(CommandKind.REF)
            else:
                cmd = Command(CommandKind.PREA)
        elif state.open_row is None or choice < 0.35:
            if state.open_row is not None:
                cmd = Command(CommandKind.PRE, bank=bank)
            else:
                cmd = Command(CommandKind.ACT, bank=bank,
                              row=rng.randrange(geometry.rows_per_bank))
        elif choice < 0.75:
            cmd = Command(CommandKind.RD, bank=bank,
                          col=rng.randrange(geometry.columns_per_row))
        else:
            cmd = Command(CommandKind.WR, bank=bank,
                          col=rng.randrange(geometry.columns_per_row))
        # Issue at the earliest legal time or (sometimes) a bit late, so
        # state stays realistic; permissive mode tolerates the rest.
        earliest, _ = device.checker.earliest_issue(
            cmd, device.banks, device.rank)
        issue_at = max(t, earliest + rng.choice((0, 0, 137, 5_000)))
        if issue_at < device._last_issue_ps:
            issue_at = device._last_issue_ps
        device.issue(cmd, issue_at)
        t = issue_at
        yield


class TestFlatMatchesOracle:
    def test_earliest_matches_checker_on_random_streams(self, device):
        rng = random.Random(99)
        for _ in random_legal_stream(device, rng, 400):
            for code, kind in KIND_PAIRS:
                for bank in range(device.geometry.num_banks):
                    cmd = Command(kind, bank=bank, row=1, col=1)
                    want, _name = device.checker.earliest_issue(
                        cmd, device.banks, device.rank)
                    want = max(0, want)
                    got = device.flat.earliest(code, bank)
                    # The binding constraint and the batched query agree
                    # by PR 2's tests; the flat array path must too.
                    assert got == want, (kind, bank)

    @pytest.mark.parametrize("ranks", (1, 2))
    def test_binding_matches_checker_on_random_streams(self, timing, ranks):
        """binding() names the same (earliest, constraint) pair as the
        object checker's candidate walk, for ACT and PRE on every bank."""
        geometry = Geometry(bank_groups=4, banks_per_group=4,
                            rows_per_bank=256, columns_per_row=32,
                            subarray_rows=64, ranks=ranks)
        device = DramDevice(timing, geometry,
                            cells=CellArrayModel(geometry,
                                                 CellModelConfig(seed=1234)))
        rng = random.Random(5 + ranks)
        names = set()

        def activation_burst(steps):
            # Every bank in turn, each command at its earliest legal time:
            # ACTs pile up against tRRD and tFAW.
            for i in range(steps):
                bank = device.banks[i % geometry.total_banks]
                cmd = (Command(CommandKind.PRE, bank=bank.index)
                       if bank.is_open else
                       Command(CommandKind.ACT, bank=bank.index,
                               row=rng.randrange(geometry.rows_per_bank)))
                earliest, _ = device.checker.earliest_issue(
                    cmd, device.banks, device.checker_rank)
                device.issue(cmd, max(earliest, device._last_issue_ps))
                yield

        for stream in (random_legal_stream(device, rng, 400),
                       activation_burst(200)):
            for _ in stream:
                for code, kind in ((K_ACT, CommandKind.ACT),
                                   (K_PRE, CommandKind.PRE)):
                    for bank in range(geometry.total_banks):
                        want = device.checker.earliest_issue(
                            Command(kind, bank=bank, row=1), device.banks,
                            device.checker_rank)
                        assert device.flat.binding(code, bank) == want, \
                            (kind, bank)
                        names.add(want[1])
        assert {"tRC", "tRP", "tRRD_S", "tRRD_L", "tFAW", "tRFC", "tRAS",
                "tRTP", "tWR"} <= names

    def test_flat_mirrors_bank_state(self, device):
        rng = random.Random(7)
        for _ in random_legal_stream(device, rng, 300):
            flat = device.flat
            for i, bank in enumerate(device.banks):
                assert flat.last_act[i] == bank.last_act
                assert flat.last_pre[i] == bank.last_pre
                assert flat.last_read[i] == bank.last_read
                assert flat.last_write_end[i] == bank.last_write_data_end
                open_row = -1 if bank.open_row is None else bank.open_row
                assert flat.open_row[i] == open_row
            assert list(flat.recent_acts) == device.rank.recent_acts
            assert flat.last_ref == device.rank.last_ref

    def test_reset_keeps_array_identity(self, timing, geometry):
        flat = FlatTimingState(timing, geometry)
        arrays = (flat.last_act, flat.open_row, flat.group_max_cas,
                  flat.recent_acts)
        flat.act(0, 5, 1000)
        flat.reset()
        assert (flat.last_act, flat.open_row, flat.group_max_cas,
                flat.recent_acts) == arrays  # same objects
        assert flat.open_count == 0 and flat.max_act_all < 0


class TestIssueFastPaths:
    def test_issue_fast_matches_issue_discard(self, timing, geometry, cells):
        """Same stream through issue_discard and issue_fast: same state."""
        from repro.dram.device import DramDevice

        a = DramDevice(timing, geometry, cells=cells)
        b = DramDevice(timing, geometry, cells=cells)
        rng = random.Random(3)
        t = 0
        for _ in range(300):
            t += rng.randrange(1000, 60_000)
            bank = rng.randrange(geometry.num_banks)
            if a.banks[bank].open_row is None:
                code, kind = K_ACT, CommandKind.ACT
                row, col = rng.randrange(geometry.rows_per_bank), 0
            elif rng.random() < 0.3:
                code, kind = K_PRE, CommandKind.PRE
                row = col = 0
            elif rng.random() < 0.6:
                code, kind = K_RD, CommandKind.RD
                row, col = 0, rng.randrange(geometry.columns_per_row)
            else:
                code, kind = K_WR, CommandKind.WR
                row, col = 0, rng.randrange(geometry.columns_per_row)
            a.issue_discard(Command(kind, bank=bank, row=row, col=col), t)
            b.issue_fast(code, bank, row, col, t, False)
            assert a.stats.commands == b.stats.commands
            for i in range(geometry.num_banks):
                assert a.banks[i].last_act == b.banks[i].last_act
                assert a.banks[i].open_row == b.banks[i].open_row
            assert [(v.constraint, v.time_ps, v.earliest_ps)
                    for v in a.checker.violations] == \
                   [(v.constraint, v.time_ps, v.earliest_ps)
                    for v in b.checker.violations]

    def test_strict_mode_raises_through_fast_path(self, timing, geometry,
                                                  cells):
        from repro.dram.device import DramDevice
        from repro.dram.timing_checker import TimingViolation

        device = DramDevice(timing, geometry, cells=cells, strict_timing=True)
        device.issue_fast(K_ACT, 0, 10, 0, 100_000, False)
        with pytest.raises(TimingViolation):
            # PRE right after ACT violates tRAS.
            device.issue_fast(K_PRE, 0, 0, 0, 101_000, False)


class TestNoConstraintAllocation:
    def test_hot_loop_allocates_no_constraints(self, monkeypatch):
        """The conventional fast path never builds ``_Constraint``s.

        A workload with fills, writebacks, dependent loads, and periodic
        refreshes runs start to finish with ``_Constraint`` poisoned;
        only the object-based oracle (untouched here) may build them.
        """
        class Boom:
            def __init__(self, *a, **k):
                raise AssertionError(
                    "_Constraint allocated on the fast path")

        monkeypatch.setattr(timing_checker, "_Constraint", Boom)
        system = EasyDRAMSystem(jetson_nano_time_scaling(), engine="event")
        session = system.session("no-alloc")
        session.run_trace(microbench.cpu_copy_blocks(0, 1 << 26, 128 * 1024))
        session.run_trace(lmbench.pointer_chase_blocks(64 * 1024, 1500,
                                                       base_addr=0))
        result = session.finish()
        assert result.accesses > 0
        assert system.smc.stats.refreshes > 0  # refresh path exercised too
