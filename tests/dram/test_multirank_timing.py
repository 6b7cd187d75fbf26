"""Rank-aware timing: flat state vs the object-checker oracle.

Multi-rank topologies flatten ranks into the bank dimension; tRRD/tFAW
and tCCD/tWTR must then couple banks *within* a rank only, with the
rank-to-rank turnaround tCS across ranks.  The flat fast path and the
object checker must agree exactly on every earliest-time query — the
same randomized cross-check contract the single-rank suite pins.
"""

from __future__ import annotations

import random

import pytest

from repro.dram.address import Geometry
from repro.dram.cells import CellArrayModel, CellModelConfig
from repro.dram.commands import Command, CommandKind
from repro.dram.device import DramDevice
from repro.dram.flat_timing import K_ACT, K_PRE, K_PREA, K_RD, K_REF, K_WR
from repro.dram.timing import ddr4_1333

KIND_PAIRS = (
    (K_ACT, CommandKind.ACT),
    (K_PRE, CommandKind.PRE),
    (K_PREA, CommandKind.PREA),
    (K_RD, CommandKind.RD),
    (K_WR, CommandKind.WR),
    (K_REF, CommandKind.REF),
)

MULTI_RANK_GEOMETRIES = (
    Geometry(bank_groups=2, banks_per_group=2, rows_per_bank=128,
             columns_per_row=16, subarray_rows=32, ranks=2),
    Geometry(bank_groups=1, banks_per_group=3, rows_per_bank=96,
             columns_per_row=16, subarray_rows=32, ranks=3),
)


def make_device(geometry):
    return DramDevice(ddr4_1333(), geometry,
                      cells=CellArrayModel(geometry, CellModelConfig(seed=7)),
                      strict_timing=False)


def random_stream(device, rng, steps):
    """Drive the device across all ranks with a loosely-legal stream."""
    geometry = device.geometry
    t = 0
    for _ in range(steps):
        t += rng.randrange(0, 40_000)
        bank = rng.randrange(geometry.total_banks)
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
        earliest, _ = device.checker.earliest_issue(
            cmd, device.banks, device.checker_rank)
        issue_at = max(t, earliest + rng.choice((0, 0, 137, 5_000)))
        if issue_at < device._last_issue_ps:
            issue_at = device._last_issue_ps
        device.issue(cmd, issue_at)
        t = issue_at
        yield


@pytest.mark.parametrize("geometry", MULTI_RANK_GEOMETRIES,
                         ids=("2rk", "3rk-nonpow2"))
def test_flat_matches_oracle_multi_rank(geometry):
    """flat.earliest == checker.earliest_issue, all kinds."""
    device = make_device(geometry)
    rng = random.Random(1234)
    for _ in random_stream(device, rng, 250):
        for code, kind in KIND_PAIRS:
            bank = rng.randrange(geometry.total_banks)
            cmd = Command(kind, bank=bank, row=0, col=0)
            enumerated, _name = device.checker.earliest_issue(
                cmd, device.banks, device.checker_rank)
            assert device.flat.earliest(code, bank) == enumerated, \
                (kind, bank)


def test_cross_rank_cas_sees_tcs_not_tccd():
    """A CAS right after another rank's CAS waits tCS, not tCCD."""
    t = ddr4_1333()
    geometry = MULTI_RANK_GEOMETRIES[0]
    bpr = geometry.num_banks
    device = make_device(geometry)
    device.issue(Command(CommandKind.ACT, bank=0, row=1), 0)
    device.issue(Command(CommandKind.ACT, bank=bpr, row=1), t.tRRD_S * 4)
    rd_at = 1_000_000
    device.issue(Command(CommandKind.RD, bank=0, col=0), rd_at)
    # Same rank, other group: tCCD_S.  Other rank: tCS (shorter).
    assert t.tCS < t.tCCD_S
    same_rank = device.flat.earliest(K_RD, 2)
    other_rank = device.flat.earliest(K_RD, bpr)
    assert same_rank == rd_at + t.tCCD_S
    assert other_rank == rd_at + t.tCS
    assert other_rank < same_rank


def test_tfaw_windows_are_per_rank():
    """Four ACTs in rank 0 must not stall rank 1's next ACT via tFAW."""
    t = ddr4_1333()
    geometry = MULTI_RANK_GEOMETRIES[0]
    bpr = geometry.num_banks
    device = make_device(geometry)
    at = 0
    for bank in range(4):
        earliest = device.flat.earliest(K_ACT, bank)
        at = max(at + 1, earliest)
        device.issue(Command(CommandKind.ACT, bank=bank, row=0), at)
    assert len(device.ranks[0].recent_acts) == 4
    # Rank 0's fifth ACT is tFAW-bound; rank 1 is not.
    blocked = device.flat.earliest(K_ACT, 0)
    free = device.flat.earliest(K_ACT, bpr)
    assert blocked >= device.ranks[0].recent_acts[0] + t.tFAW
    assert free < blocked


def test_refresh_covers_every_rank():
    geometry = MULTI_RANK_GEOMETRIES[0]
    device = make_device(geometry)
    device.issue(Command(CommandKind.REF), 10_000)
    assert all(r.last_ref == 10_000 for r in device.ranks)


def test_single_rank_checker_accepts_legacy_rank_argument():
    """Old call shape (bare RankState) still works on 1-rank devices."""
    geometry = Geometry(bank_groups=2, banks_per_group=2, rows_per_bank=128,
                        columns_per_row=16, subarray_rows=32)
    device = make_device(geometry)
    device.issue(Command(CommandKind.ACT, bank=0, row=3), 0)
    cmd = Command(CommandKind.ACT, bank=1, row=5)
    via_state, _ = device.checker.earliest_issue(cmd, device.banks,
                                                 device.rank)
    via_list, _ = device.checker.earliest_issue(cmd, device.banks,
                                                device.ranks)
    assert via_state == via_list == device.flat.earliest(K_ACT, 1)
