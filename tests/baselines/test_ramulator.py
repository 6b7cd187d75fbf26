"""Tests for the cycle-level baseline simulator."""

import pytest

from repro.baselines.ramulator import RamulatorConfig, RamulatorSim
from repro.baselines.ramulator.dram_model import DramTimingModel
from repro.cpu.blocks import blockify
from repro.cpu.memtrace import load, store
from repro.dram.address import Geometry
from repro.dram.timing import ddr4_1333


def stream(n, stride=64, gap=1):
    return blockify([load(i * stride, gap=gap) for i in range(n)])


class TestTimingModel:
    @pytest.fixture
    def model(self):
        return DramTimingModel(ddr4_1333(), Geometry())

    def test_activate_opens_row(self, model):
        assert model.can_activate(0, 10)
        model.activate(0, 5, 10)
        assert model.banks[0].open_row == 5
        assert not model.can_activate(0, 11)  # already open

    def test_trcd_gates_read(self, model):
        model.activate(0, 5, 0)
        assert not model.can_read(0, 5, model.c_rcd - 1)
        assert model.can_read(0, 5, model.c_rcd)

    def test_wrong_row_cannot_read(self, model):
        model.activate(0, 5, 0)
        assert not model.can_read(0, 6, model.c_rcd)

    def test_tras_gates_precharge(self, model):
        model.activate(0, 5, 0)
        assert not model.can_precharge(0, model.c_ras - 1)
        assert model.can_precharge(0, model.c_ras)

    def test_faw_limits_burst_of_activates(self, model):
        for i in range(4):
            model.recent_acts.append(i)
        assert not model.can_activate(0, 4)

    def test_write_to_read_turnaround(self, model):
        model.activate(0, 5, 0)
        end = model.write(0, model.c_rcd)
        assert not model.can_read(0, 5, end)
        assert model.can_read(0, 5, end + model.c_wtr)

    def test_refresh_requires_closed_banks(self, model):
        model.activate(0, 5, 0)
        assert not model.all_banks_closed()
        model.precharge(0, model.c_ras)
        assert model.all_banks_closed()

    def test_refresh_blocks_activates(self, model):
        done = model.refresh(0)
        assert done == model.c_rfc
        assert not model.can_activate(0, done - 1)
        assert model.can_activate(0, done)

    def test_reduced_trcd_activate(self, model):
        model.activate_with_trcd_cycles(0, 5, 0, trcd_cycles=6)
        assert model.can_read(0, 5, 6)


class TestSimulation:
    def test_stream_completes(self):
        result = RamulatorSim().run(stream(500), "stream")
        assert result.accesses == 500
        assert result.llc_misses == 500
        assert result.reads >= 500
        assert result.cpu_cycles > 0

    def test_deterministic(self):
        a = RamulatorSim().run(stream(300), "x")
        b = RamulatorSim().run(stream(300), "x")
        assert a.cpu_cycles == b.cpu_cycles

    def test_cache_filters_repeats(self):
        trace = ([load(i * 64, gap=1) for i in range(20)]
                 + [load(0, gap=1) for _ in range(500)])
        result = RamulatorSim().run(blockify(trace), "hits")
        assert result.llc_misses <= 21

    def test_read_latency_in_plausible_band(self):
        result = RamulatorSim().run(blockify(
            [load(i * 64, gap=40, dependent=True) for i in range(300)]),
            "chase")
        # A full row-miss access is ~tRCD+tCL+tBL ~= 21 mem cycles; with
        # queueing it stays well under 100.
        assert 10 < result.avg_read_latency_mem_cycles < 100

    def test_max_accesses_caps_simulation(self):
        config = RamulatorConfig(max_accesses=100)
        result = RamulatorSim(config).run(stream(10_000), "capped")
        assert result.accesses == 100

    def test_refresh_issued_on_long_runs(self):
        trace = [load(i * 64, gap=300) for i in range(2000)]
        result = RamulatorSim().run(blockify(trace), "long")
        assert result.refreshes > 0

    def test_writebacks_reach_dram(self):
        config = RamulatorConfig(l2_size=8 * 1024, l1_size=1024,
                                 l1_assoc=2)
        trace = [store(i * 64, gap=1) for i in range(1000)]
        result = RamulatorSim(config).run(blockify(trace), "wb")
        assert result.writes > 0

    def test_rowclone_cycles_scale_with_rows(self):
        sim = RamulatorSim()
        assert sim.rowclone_rows_cycles(10) == 10 * sim.rowclone_rows_cycles(1)

    def test_dependent_trace_serializes(self):
        dep = RamulatorSim().run(blockify(
            [load(i * 64, gap=1, dependent=True) for i in range(200)]), "dep")
        indep = RamulatorSim().run(blockify(
            [load(i * 64, gap=1) for i in range(200)]), "indep")
        assert dep.cpu_cycles > indep.cpu_cycles


class TestRelativePerformance:
    def test_cycle_level_is_slower_than_easydram(self):
        """Figure 14's premise: the event-driven emulator outpaces the
        per-cycle baseline on compute-heavy workloads."""
        from repro.core.config import jetson_nano_time_scaling
        from repro.core.system import EasyDRAMSystem

        def trace():
            return [load((i % 64) * 64, gap=60) for i in range(4000)]

        easy = EasyDRAMSystem(jetson_nano_time_scaling()).run(trace(), "w")
        ram = RamulatorSim().run(blockify(trace()), "w")
        assert easy.sim_speed_hz > ram.sim_speed_hz
