"""Cross-module integration tests: full flows through every layer."""

import pytest

from repro import EasyDRAMSystem, jetson_nano_time_scaling
from repro.core.config import pidram_no_time_scaling
from repro.core.stats import RunResult
from repro.core.techniques import RowCloneTechnique, TrcdReductionTechnique
from repro.cpu.memtrace import load, store
from repro.profiling.characterize import oracle_characterize
from repro.workloads import polybench
from repro.workloads.microbench import cpu_copy_blocks


class TestDataIntegrityEndToEnd:
    """Data written through the full CPU->SMC->Bender->device path must
    be recoverable, and technique operations must preserve it."""

    def test_writeback_data_lands_in_dram(self):
        system = EasyDRAMSystem(jetson_nano_time_scaling())
        session = system.session("wb")
        # Dirty 64 lines, flush them to DRAM, then check via Bender.
        session.run_trace([store(i * 64, gap=1) for i in range(64)])
        session.clflush_range(0, 64 * 64)
        assert system.smc.stats.serviced_writes >= 64
        assert system.device.stats.commands.get("WR", 0) >= 64

    def test_rowclone_after_cpu_writes_round_trip(self):
        """Write via CPU, flush, RowClone, verify at the device level —
        the coherence flow of Section 7.1 end to end."""
        system = EasyDRAMSystem(jetson_nano_time_scaling())
        session = system.session("roundtrip")
        technique = RowCloneTechnique(session)
        size = technique.geometry.row_bytes
        plan = technique.plan_copy(size)
        session.run_trace([store(plan.src_addr + i * 64, gap=1)
                           for i in range(size // 64)])
        technique.execute_copy(plan, clflush=True)
        assert technique.copy_is_correct(plan)

    def test_techniques_compose(self):
        """tRCD reduction and RowClone can be active simultaneously:
        RowClone operations go through technique episodes while regular
        requests take the reduced-tRCD serve hook."""
        system = EasyDRAMSystem(jetson_nano_time_scaling())
        g = system.config.geometry
        characterization = oracle_characterize(
            system.tile.cells, g, range(g.num_banks), range(256))
        trcd = TrcdReductionTechnique(system, characterization)
        trcd.install()
        session = system.session("composed")
        rowclone = RowCloneTechnique(session)
        plan = rowclone.plan_copy(g.row_bytes)
        session.run_trace([load(i * 64, gap=1) for i in range(200)])
        rowclone.execute_copy(plan)
        session.run_trace([load((1 << 22) + i * 64, gap=1)
                           for i in range(200)])
        result = session.finish()
        assert rowclone.copy_is_correct(plan)
        assert system.device.stats.unreliable_reads == 0
        assert result.technique_ops >= 1


class TestDeterminismAcrossLayers:
    def test_full_polybench_run_reproducible(self):
        results = []
        for _ in range(2):
            system = EasyDRAMSystem(jetson_nano_time_scaling())
            results.append(system.run(polybench.trace_blocks("mvt", "mini"),
                                      "mvt"))
        a, b = results
        assert a.cycles == b.cycles
        assert a.row_hits == b.row_hits
        assert a.dram_commands == b.dram_commands

    def test_result_fields_consistent(self):
        system = EasyDRAMSystem(jetson_nano_time_scaling())
        result = system.run(polybench.trace_blocks("trisolv", "mini"),
                            "trisolv")
        assert isinstance(result, RunResult)
        assert result.loads + result.stores == result.accesses
        assert result.l2.misses == result.llc_miss_requests
        assert result.emulated_seconds > 0
        assert result.wall_seconds > 0


class TestFailureInjection:
    def test_refresh_disabled_eventually_corrupts_reads(self):
        """Retention failure injection: without refresh, reads from
        leaky rows beyond tREFW return corrupted data."""
        from repro.dram.address import Geometry
        from repro.dram.commands import Command, CommandKind
        from repro.dram.device import DramDevice
        from repro.dram.timing import ddr4_1333

        geometry = Geometry(rows_per_bank=512)
        timing = ddr4_1333()
        device = DramDevice(timing, geometry, retention_modeling=True)
        t = timing.tREFW * 2
        failures = 0
        for row in range(0, 512, 7):
            device.issue(Command(CommandKind.ACT, bank=0, row=row), t)
            result = device.issue(
                Command(CommandKind.RD, bank=0, col=0), t + timing.tRCD)
            failures += 0 if result.reliable else 1
            device.issue(Command(CommandKind.PRE, bank=0), t + timing.tRAS)
            t += timing.tRC * 4
        assert failures > 0

    def test_deadlock_detection(self):
        """A blocked processor with nothing pending is a hard error,
        not a hang."""
        from repro.core.system import EmulationDeadlock

        system = EasyDRAMSystem(jetson_nano_time_scaling())
        session = system.session("deadlock")
        # Simulate the pathological state: an outstanding request that
        # was never handed to the engine.
        from repro.cpu.processor import MemoryRequest

        session.processor.outstanding.append(
            MemoryRequest(rid=0, addr=0, is_write=False, tag=0))
        with pytest.raises(EmulationDeadlock):
            session.run_trace([load(1 << 20, gap=1, dependent=True)])


class TestNoTimeScalingVsTimeScalingConsistency:
    def test_same_dram_command_stream_semantics(self):
        """Both configurations drive the same DRAM: command mix should
        be similar for the same workload (timing differs, legality not)."""
        def trace():
            return [load(i * 64, gap=3) for i in range(800)]

        ts = EasyDRAMSystem(jetson_nano_time_scaling())
        no_ts = EasyDRAMSystem(pidram_no_time_scaling())
        ts.run(trace(), "a")
        no_ts.run(trace(), "b")
        ts_rd = ts.device.stats.commands.get("RD", 0)
        no_ts_rd = no_ts.device.stats.commands.get("RD", 0)
        assert ts_rd > 0 and no_ts_rd > 0
        assert abs(ts_rd - no_ts_rd) / max(ts_rd, no_ts_rd) < 0.4

    def test_copy_skew_is_the_papers_conclusion(self):
        """The paper's bottom line, as an executable assertion: the
        non-faithful platform inflates RowClone's benefit severalfold."""
        size = 4 * 8192

        def speedup(config):
            cpu = EasyDRAMSystem(config).run(
                cpu_copy_blocks(0, 1 << 24, size), "cpu")
            session = EasyDRAMSystem(config).session("rc")
            technique = RowCloneTechnique(session)
            plan = technique.plan_copy(size)
            technique.execute_copy(plan)
            return cpu.emulated_ps / session.finish().emulated_ps

        skew = speedup(pidram_no_time_scaling()) / speedup(
            jetson_nano_time_scaling())
        assert skew > 5
