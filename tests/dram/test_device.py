"""Tests for the behavioural DDR4 device model."""

import pytest

from repro.dram.cells import CellArrayModel, CellModelConfig
from repro.dram.commands import Command, CommandKind
from repro.dram.device import DramDevice
from repro.dram.timing import ns
from repro.dram.timing_checker import TimingViolation


def act(bank=0, row=0):
    return Command(CommandKind.ACT, bank=bank, row=row)


def pre(bank=0):
    return Command(CommandKind.PRE, bank=bank)


def rd(bank=0, col=0):
    return Command(CommandKind.RD, bank=bank, col=col)


def wr(bank=0, col=0, data=None):
    return Command(CommandKind.WR, bank=bank, col=col, data=data)


class TestBasicOperation:
    def test_act_opens_row(self, device):
        device.issue(act(0, 7), 0)
        assert device.banks[0].open_row == 7

    def test_pre_closes_row(self, device, timing):
        device.issue(act(0, 7), 0)
        device.issue(pre(0), timing.tRAS)
        assert device.banks[0].open_row is None

    def test_prea_closes_all(self, device, timing):
        device.issue(act(0, 1), 0)
        device.issue(act(1, 2), timing.tRRD_L)
        device.issue(Command(CommandKind.PREA), timing.tRAS + timing.tRRD_L)
        assert all(not b.is_open for b in device.banks)

    def test_read_returns_default_pattern(self, device, timing):
        device.issue(act(0, 3), 0)
        result = device.issue(rd(0, 2), timing.tRCD)
        assert result.data == device.default_line(0, 3, 2)
        assert result.reliable

    def test_write_then_read(self, device, timing):
        payload = bytes(range(64))
        device.issue(act(0, 3), 0)
        device.issue(wr(0, 5, payload), timing.tRCD)
        result = device.issue(rd(0, 5), timing.tRCD + timing.tCCD_L)
        assert result.data == payload

    def test_read_without_open_row_errors(self, device):
        with pytest.raises(RuntimeError, match="no open row"):
            device.issue(rd(0, 0), 0)

    def test_write_payload_size_checked(self, device, timing):
        device.issue(act(0, 0), 0)
        with pytest.raises(ValueError, match="payload must be"):
            device.issue(wr(0, 0, b"short"), timing.tRCD)

    def test_time_cannot_go_backwards(self, device, timing):
        device.issue(act(0, 0), 1000)
        with pytest.raises(ValueError, match="backwards"):
            device.issue(pre(0), 500)

    def test_out_of_range_addresses_rejected(self, device):
        with pytest.raises(ValueError):
            device.issue(act(99, 0), 0)
        with pytest.raises(ValueError):
            device.issue(act(0, 10**6), 0)

    def test_command_counting(self, device, timing):
        device.issue(act(0, 0), 0)
        device.issue(rd(0, 0), timing.tRCD)
        device.issue(pre(0), timing.tRAS)
        assert device.stats.commands == {"ACT": 1, "RD": 1, "PRE": 1}
        assert device.stats.total_commands() == 3


class TestStrictTiming:
    def test_strict_device_raises_on_early_read(self, strict_device):
        strict_device.issue(act(0, 0), 0)
        with pytest.raises(TimingViolation):
            strict_device.issue(rd(0, 0), 100)  # way before tRCD

    def test_permissive_device_records_violation(self, device):
        device.issue(act(0, 0), 0)
        device.issue(rd(0, 0), 100)
        assert len(device.checker.violations) == 1


class TestReducedTrcdSemantics:
    def test_read_at_nominal_is_reliable(self, device, timing):
        device.issue(act(0, 0), 0)
        result = device.issue(rd(0, 0), timing.tRCD)
        assert result.reliable

    def test_early_read_corrupts_weak_row(self, geometry, timing):
        cells = CellArrayModel(geometry, CellModelConfig(seed=42))
        device = DramDevice(timing, geometry, cells=cells)
        # Find a row whose minimum tRCD exceeds 9 ns, then read at 8.5 ns.
        weak = next(row for row in range(geometry.rows_per_bank)
                    if cells.row_min_trcd_ps(0, row) > ns(9.0))
        device.issue(act(0, weak), 0)
        result = device.issue(rd(0, 0), ns(8.5))
        assert not result.reliable
        assert result.data != device.default_line(0, weak, 0)
        assert device.stats.unreliable_reads == 1

    def test_read_above_row_min_is_reliable(self, geometry, timing):
        cells = CellArrayModel(geometry, CellModelConfig(seed=42))
        device = DramDevice(timing, geometry, cells=cells)
        strong = next(row for row in range(geometry.rows_per_bank)
                      if cells.row_min_trcd_ps(0, row) <= ns(9.0))
        device.issue(act(0, strong), 0)
        result = device.issue(rd(0, 0), ns(9.0))
        assert result.reliable


class TestRowCloneSemantics:
    def _find_pair(self, device, reliable=True):
        geometry = device.geometry
        sub = geometry.subarray_rows
        for src in range(sub):
            for dst in range(src + 1, sub):
                if device.cells.rowclone_pair_reliable(0, src, dst) == reliable:
                    return src, dst
        pytest.skip(f"no pair with reliable={reliable}")

    def _do_rowclone(self, device, src, dst, t0=0):
        t = device.timing
        device.issue(act(0, src), t0)
        device.issue(pre(0), t0 + 2 * t.tCK)           # violates tRAS
        device.issue(act(0, dst), t0 + 3 * t.tCK)      # violates tRP
        device.issue(pre(0), t0 + 3 * t.tCK + t.tRAS)
        return t0 + 3 * t.tCK + t.tRAS + t.tRP

    def test_reliable_pair_copies_data(self, device):
        src, dst = self._find_pair(device, reliable=True)
        pattern = bytes([0xAB]) * device.geometry.row_bytes
        device.preload_row(0, src, pattern)
        self._do_rowclone(device, src, dst)
        assert device.row_data(0, dst) == pattern
        assert device.stats.rowclone_successes == 1

    def test_normal_act_sequence_does_not_clone(self, device, timing):
        pattern = bytes([0xCD]) * device.geometry.row_bytes
        device.preload_row(0, 1, pattern)
        device.issue(act(0, 1), 0)
        device.issue(pre(0), timing.tRAS)
        device.issue(act(0, 2), timing.tRAS + timing.tRP)  # legal gap
        assert device.row_data(0, 2) != pattern
        assert device.stats.rowclone_attempts == 0

    def test_cross_subarray_rowclone_corrupts(self, device, timing):
        geometry = device.geometry
        src, dst = 0, geometry.subarray_rows  # different subarrays
        pattern = bytes([0x5A]) * geometry.row_bytes
        device.preload_row(0, src, pattern)
        self._do_rowclone(device, src, dst)
        assert device.row_data(0, dst) != pattern

    def test_repeated_clones_deterministic_for_reliable_pair(self, device):
        src, dst = self._find_pair(device, reliable=True)
        pattern = bytes([0x11]) * device.geometry.row_bytes
        device.preload_row(0, src, pattern)
        t = 0
        for _ in range(5):
            t = self._do_rowclone(device, src, dst, t0=t) + 1000
            assert device.row_data(0, dst) == pattern


class TestRetention:
    def test_retention_failure_after_window(self, geometry, timing):
        device = DramDevice(timing, geometry, retention_modeling=True)
        # Find a leaky row (the model marks ~1% of rows leaky).
        leaky = next(row for row in range(geometry.rows_per_bank)
                     if device._row_is_leaky(0, row))
        t = timing.tREFW + timing.tREFI  # long past the refresh window
        device.issue(act(0, leaky), t)
        result = device.issue(rd(0, 0), t + timing.tRCD)
        assert not result.reliable
        assert device.stats.retention_failures == 1

    def test_refresh_resets_retention_clock(self, geometry, timing):
        device = DramDevice(timing, geometry, retention_modeling=True)
        leaky = next(row for row in range(geometry.rows_per_bank)
                     if device._row_is_leaky(0, row))
        t = timing.tREFW + timing.tREFI
        device.issue(Command(CommandKind.REF), t)
        device.issue(act(0, leaky), t + timing.tRFC)
        result = device.issue(rd(0, 0), t + timing.tRFC + timing.tRCD)
        assert result.reliable


class TestDataStore:
    def test_preload_row_size_checked(self, device):
        with pytest.raises(ValueError):
            device.preload_row(0, 0, b"tiny")

    def test_default_pattern_is_position_dependent(self, device):
        assert device.default_line(0, 0, 0) != device.default_line(0, 0, 1)
        assert device.default_line(0, 1, 0) != device.default_line(1, 0, 0)

    def test_reset_clears_bank_state_keeps_data(self, device, timing):
        payload = bytes(range(64))
        device.issue(act(0, 3), 0)
        device.issue(wr(0, 5, payload), timing.tRCD)
        device.reset()
        assert device.banks[0].open_row is None
        assert device.row_data(0, 3)[5 * 64:6 * 64] == payload

    @pytest.mark.parametrize("columns", (None, 7, 200))
    def test_row_filler_matches_per_line_default(self, timing, columns):
        """A row's power-on filler is byte-identical to its per-column
        default_line concatenation, on the default geometry and on
        non-default row widths."""
        import random

        from repro.dram.address import Geometry

        geometry = (Geometry() if columns is None
                    else Geometry(columns_per_row=columns))
        device = DramDevice(timing, geometry)
        rng = random.Random(columns or 0)
        probes = [(0, 0), (geometry.total_banks - 1,
                           geometry.rows_per_bank - 1)]
        probes += [(rng.randrange(geometry.total_banks),
                    rng.randrange(geometry.rows_per_bank)) for _ in range(50)]
        for bank, row in probes:
            expected = b"".join(device.default_line(bank, row, col)
                                for col in range(geometry.columns_per_row))
            assert device.row_data(bank, row) == expected, (bank, row)
