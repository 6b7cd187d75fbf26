"""Tests for the JEDEC inter-command timing checker."""

import pytest

from repro.dram.bank import BankState, RankState
from repro.dram.commands import Command, CommandKind
from repro.dram.timing_checker import TimingChecker, TimingViolation


@pytest.fixture
def checker(timing, geometry):
    return TimingChecker(timing, geometry, strict=True)


@pytest.fixture
def banks(geometry):
    return [BankState(i) for i in range(geometry.num_banks)]


@pytest.fixture
def rank():
    return RankState()


def act(bank=0, row=0):
    return Command(CommandKind.ACT, bank=bank, row=row)


class TestActConstraints:
    def test_power_on_act_is_free(self, checker, banks, rank):
        earliest, name = checker.earliest_issue(act(), banks, rank)
        assert earliest == 0

    def test_trc_same_bank(self, checker, banks, rank, timing):
        banks[0].activate(5, 1000)
        earliest, name = checker.earliest_issue(act(0, 6), banks, rank)
        assert earliest == 1000 + timing.tRC
        assert name == "tRC"

    def test_trp_after_precharge(self, checker, banks, rank, timing):
        banks[0].activate(5, 0)
        banks[0].precharge(timing.tRAS)
        earliest, name = checker.earliest_issue(act(0, 6), banks, rank)
        assert earliest == timing.tRAS + timing.tRP

    def test_trrd_other_bank_same_group(self, checker, banks, rank, timing):
        banks[0].activate(5, 1000)
        earliest, name = checker.earliest_issue(act(1, 0), banks, rank)
        assert earliest == 1000 + timing.tRRD_L
        assert name == "tRRD_L"

    def test_trrd_other_group_is_shorter(self, checker, banks, rank, timing):
        banks[0].activate(5, 1000)
        earliest, _ = checker.earliest_issue(act(2, 0), banks, rank)
        assert earliest == 1000 + timing.tRRD_S

    def test_tfaw_binds_fifth_act(self, checker, banks, rank, timing):
        # Four ACTs in quick succession across banks.
        for i, t in enumerate((0, 8000, 16000, 24000)):
            rank.record_act(t, timing.tFAW)
        earliest, name = checker.earliest_issue(act(0, 0), banks, rank)
        assert earliest >= 0 + timing.tFAW
        assert name in ("tFAW", "tRC")

    def test_trfc_after_refresh(self, checker, banks, rank, timing):
        rank.last_ref = 500
        earliest, name = checker.earliest_issue(act(), banks, rank)
        assert earliest == 500 + timing.tRFC
        assert name == "tRFC"


class TestColumnConstraints:
    def test_trcd_before_read(self, checker, banks, rank, timing):
        banks[0].activate(5, 1000)
        cmd = Command(CommandKind.RD, bank=0, col=0)
        earliest, name = checker.earliest_issue(cmd, banks, rank)
        assert earliest == 1000 + timing.tRCD
        assert name == "tRCD"

    def test_tccd_between_reads(self, checker, banks, rank, timing):
        banks[0].activate(5, 0)
        banks[0].read(timing.tRCD)
        cmd = Command(CommandKind.RD, bank=0, col=1)
        earliest, name = checker.earliest_issue(cmd, banks, rank)
        assert earliest == timing.tRCD + timing.tCCD_L

    def test_twtr_write_to_read(self, checker, banks, rank, timing):
        banks[0].activate(5, 0)
        banks[0].write(timing.tRCD, timing.tRCD + timing.tCWL + timing.tBL)
        cmd = Command(CommandKind.RD, bank=1, col=0)
        earliest, name = checker.earliest_issue(cmd, banks, rank)
        assert earliest >= timing.tRCD + timing.tCWL + timing.tBL + timing.tWTR


class TestPrechargeConstraints:
    def test_tras_before_precharge(self, checker, banks, rank, timing):
        banks[0].activate(5, 1000)
        cmd = Command(CommandKind.PRE, bank=0)
        earliest, name = checker.earliest_issue(cmd, banks, rank)
        assert earliest == 1000 + timing.tRAS
        assert name == "tRAS"

    def test_twr_after_write(self, checker, banks, rank, timing):
        banks[0].activate(5, 0)
        data_end = timing.tRCD + timing.tCWL + timing.tBL
        banks[0].write(timing.tRCD, data_end)
        cmd = Command(CommandKind.PRE, bank=0)
        earliest, name = checker.earliest_issue(cmd, banks, rank)
        assert earliest == max(timing.tRAS, data_end + timing.tWR)

    def test_refresh_requires_closed_banks(self, checker, banks, rank):
        banks[0].activate(5, 0)
        cmd = Command(CommandKind.REF)
        earliest, name = checker.earliest_issue(cmd, banks, rank)
        assert name == "banks-open"


class TestModes:
    def test_strict_raises(self, checker, banks, rank):
        banks[0].activate(5, 1000)
        with pytest.raises(TimingViolation) as err:
            checker.check(act(0, 6), 1001, banks, rank)
        assert err.value.constraint == "tRC"
        assert err.value.earliest_ps > 1001

    def test_permissive_records(self, timing, geometry, banks, rank):
        checker = TimingChecker(timing, geometry, strict=False)
        banks[0].activate(5, 1000)
        slack = checker.check(act(0, 6), 1001, banks, rank)
        assert slack == 1000 + timing.tRC - 1001
        assert len(checker.violations) == 1
        assert checker.violations[0].slack_ps == slack

    def test_legal_command_returns_zero(self, checker, banks, rank, timing):
        banks[0].activate(5, 0)
        slack = checker.check(act(0, 6), timing.tRC + 1, banks, rank)
        assert slack == 0

    def test_violation_message_is_informative(self, checker, banks, rank):
        banks[0].activate(5, 1000)
        with pytest.raises(TimingViolation, match="violates tRC"):
            checker.check(act(0, 6), 1001, banks, rank)
