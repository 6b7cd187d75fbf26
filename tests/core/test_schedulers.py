"""Tests for FCFS and FR-FCFS schedulers (in isolation from the SMC)."""

import pytest

from repro.core.schedulers import (
    FCFS,
    FRFCFS,
    TableEntry,
    make_scheduler,
    scheduler_names,
)
from repro.cpu.processor import MemoryRequest
from repro.dram.address import DramAddress
from repro.dram.bank import BankState


def entry(order, bank=0, row=0, writeback=False):
    request = MemoryRequest(rid=order, addr=0, is_write=writeback, tag=order,
                            is_writeback=writeback)
    return TableEntry(request=request, dram=DramAddress(bank, row, 0),
                      arrival_order=order)


def flat_entry(order, bank=0, row=0, writeback=False):
    """A fast-path request-table entry: (arrival_order, request, dram)."""
    request = MemoryRequest(rid=order, addr=0, is_write=writeback, tag=order,
                            is_writeback=writeback)
    return (order, request, DramAddress(bank, row, 0))


@pytest.fixture
def banks():
    return [BankState(i) for i in range(4)]


class TestFCFS:
    def test_picks_oldest(self, banks):
        table = [entry(3), entry(1), entry(2)]
        assert FCFS().select(table, banks).arrival_order == 1

    def test_empty_table_rejected(self, banks):
        with pytest.raises(ValueError):
            FCFS().select([], banks)

    def test_decision_cost_grows_with_table(self):
        s = FCFS()
        assert s.decision_cost(10) > s.decision_cost(1)


class TestFRFCFS:
    def test_prefers_row_hit_over_older_miss(self, banks):
        banks[0].activate(7, 0)
        table = [entry(1, bank=0, row=3), entry(2, bank=0, row=7)]
        assert FRFCFS().select(table, banks).arrival_order == 2

    def test_falls_back_to_oldest_without_hits(self, banks):
        table = [entry(5, row=1), entry(2, row=2), entry(9, row=3)]
        assert FRFCFS().select(table, banks).arrival_order == 2

    def test_age_breaks_ties_between_hits(self, banks):
        banks[0].activate(7, 0)
        table = [entry(4, row=7), entry(2, row=7)]
        assert FRFCFS().select(table, banks).arrival_order == 2

    def test_reads_beat_writebacks_even_on_row_hits(self, banks):
        banks[0].activate(7, 0)
        table = [entry(1, row=7, writeback=True), entry(5, row=3)]
        chosen = FRFCFS().select(table, banks)
        assert chosen.arrival_order == 5  # the read, despite row miss

    def test_writeback_selected_when_alone(self, banks):
        table = [entry(1, writeback=True)]
        assert FRFCFS().select(table, banks).arrival_order == 1

    def test_decision_cost_scales(self):
        s = FRFCFS()
        assert s.decision_cost(8) == 4 + 16


class TestFlatSelect:
    """The fast path's tuple-table variants must mirror select."""

    def test_fcfs_flat_picks_head(self):
        table = [flat_entry(1), flat_entry(2), flat_entry(3)]
        assert FCFS().select_flat(table, [0, -1, -1, -1]) is table[0]

    def test_frfcfs_flat_prefers_row_hit(self):
        open_row = [7, -1, -1, -1]
        table = [flat_entry(1, bank=0, row=3), flat_entry(2, bank=0, row=7)]
        assert FRFCFS().select_flat(table, open_row) is table[1]

    def test_frfcfs_flat_fast_path_for_oldest_hit(self):
        open_row = [7, -1, -1, -1]
        table = [flat_entry(1, bank=0, row=7), flat_entry(2, bank=0, row=7)]
        assert FRFCFS().select_flat(table, open_row) is table[0]


class TestAgeCap:
    """The FR-FCFS anti-starvation guard (multi-core contention)."""

    def test_default_has_no_cap(self):
        assert FRFCFS().age_cap is None
        assert make_scheduler("fr-fcfs").age_cap is None

    def test_factory_threads_cap(self):
        assert make_scheduler("fr-fcfs", age_cap=16).age_cap == 16

    def test_factory_ignores_cap_for_fcfs(self):
        assert make_scheduler("fcfs", age_cap=16).name == "fcfs"

    def test_invalid_cap_rejected(self):
        with pytest.raises(ValueError):
            FRFCFS(age_cap=0)

    def test_starved_entry_served_despite_row_hits(self, banks):
        """Once bypassed by age_cap newer arrivals, the oldest wins."""
        banks[0].activate(7, 0)
        old_miss = entry(0, bank=0, row=3)
        table = [old_miss] + [entry(i, bank=0, row=7) for i in range(1, 5)]
        assert FRFCFS(age_cap=4).select(table, banks) is old_miss
        # One fewer bypass: the row hits still win.
        assert FRFCFS(age_cap=5).select(table, banks).arrival_order == 1

    def test_starvation_without_cap(self, banks):
        """Control: uncapped FR-FCFS keeps bypassing the old miss."""
        banks[0].activate(7, 0)
        table = [entry(0, bank=0, row=3)] + [
            entry(i, bank=0, row=7) for i in range(1, 100)]
        assert FRFCFS().select(table, banks).arrival_order == 1

    def test_flat_variant_applies_cap(self):
        open_row = [7, -1, -1, -1]
        old_miss = flat_entry(0, bank=0, row=3)
        table = [old_miss] + [flat_entry(i, bank=0, row=7)
                              for i in range(1, 5)]
        assert FRFCFS(age_cap=4).select_flat(table, open_row) is old_miss
        assert FRFCFS(age_cap=5).select_flat(table, open_row) is table[1]

    def test_capped_writeback_can_be_served(self, banks):
        """The guard is class-blind: even a writeback is un-starved."""
        banks[0].activate(7, 0)
        old_wb = entry(0, bank=0, row=3, writeback=True)
        table = [old_wb] + [entry(i, bank=0, row=7) for i in range(1, 9)]
        assert FRFCFS(age_cap=8).select(table, banks) is old_wb


class TestDecisionCostCharging:
    """Decision cost must be charged to the controller's cost model."""

    def _run(self, scheduler):
        from repro.core.config import jetson_nano_time_scaling
        from repro.core.system import EasyDRAMSystem
        from repro.workloads import microbench

        system = EasyDRAMSystem(jetson_nano_time_scaling())
        system.smc.scheduler = scheduler
        result = system.run(
            microbench.cpu_copy_blocks(0, 1 << 21, 64 * 1024), "charge")
        return system.smc.stats.total_sched_cycles, result

    def test_slower_scheduler_charges_more_cycles(self):
        class SlowFRFCFS(FRFCFS):
            def decision_cost(self, table_len: int) -> int:
                return 4000 + 2 * table_len

        base_cycles, base = self._run(FRFCFS())
        slow_cycles, slow = self._run(SlowFRFCFS())
        # The inflated decision cost lands in the controller's
        # scheduling counters and (on a time-scaled system) in the
        # emulated timeline's scheduling share.
        assert slow_cycles > base_cycles
        assert slow.breakdown.scheduling_ps > base.breakdown.scheduling_ps

    def test_charge_scales_with_table_length(self):
        assert FRFCFS().decision_cost(32) == 4 + 64
        assert FCFS().decision_cost(32) == 3 + 32


class TestFactory:
    def test_make_known(self):
        assert make_scheduler("fcfs").name == "fcfs"
        assert make_scheduler("fr-fcfs").name == "fr-fcfs"

    def test_make_unknown(self):
        with pytest.raises(ValueError):
            make_scheduler("random")

    def test_make_zoo_members(self):
        for name in ("atlas", "bliss", "batch"):
            assert make_scheduler(name).name == name
            assert make_scheduler(name).stateful is True

    def test_unknown_lists_registry_with_did_you_mean(self):
        with pytest.raises(ValueError) as excinfo:
            make_scheduler("fr-fcsf")
        message = str(excinfo.value)
        assert "did you mean 'fr-fcfs'?" in message
        for name in scheduler_names():
            assert name in message

    def test_unknown_far_from_everything_still_lists_registry(self):
        with pytest.raises(ValueError) as excinfo:
            make_scheduler("zzzzzz")
        message = str(excinfo.value)
        assert "did you mean" not in message
        assert "known: " + ", ".join(scheduler_names()) in message


class TestNoAmbientScheduler:
    """A point's result depends only on its stated scheduler.

    ``REPRO_SCHEDULER`` used to replace every controller's configured
    policy without entering the point cache key, so an ``fcfs`` run
    stored its results under the ``fr-fcfs`` point ids.  The variable is
    no longer read anywhere.
    """

    def test_fig16_point_ignores_the_environment(self, monkeypatch):
        from repro.experiments import fig16_core_contention as fig16

        monkeypatch.delenv("REPRO_SCHEDULER", raising=False)
        stated = fig16.sweep_point(cores=2, scheduler="fr-fcfs")
        monkeypatch.setenv("REPRO_SCHEDULER", "fcfs")
        assert fig16.sweep_point(cores=2, scheduler="fr-fcfs") == stated

    def test_fresh_system_runs_its_configured_scheduler(self, monkeypatch):
        from repro.core.config import jetson_nano_time_scaling
        from repro.core.system import EasyDRAMSystem

        monkeypatch.setenv("REPRO_SCHEDULER", "fcfs")
        system = EasyDRAMSystem(jetson_nano_time_scaling())
        assert system.smc.scheduler.name == "fr-fcfs"
