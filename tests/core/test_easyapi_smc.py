"""Tests for EasyAPI and the software memory controller."""

import pytest

from repro.core.config import jetson_nano_time_scaling, pidram_no_time_scaling
from repro.core.easyapi import EasyAPI, RowCloneOp
from repro.core.system import EasyDRAMSystem
from repro.cpu.memtrace import load, store
from repro.cpu.processor import MemoryRequest
from repro.dram.address import DramAddress
from repro.dram.commands import CommandKind
from repro.dram.timing_checker import TimingViolation


@pytest.fixture
def system():
    return EasyDRAMSystem(jetson_nano_time_scaling())


@pytest.fixture
def api(system):
    return system.api


class TestEasyApiCosts:
    def test_charges_accumulate_and_drain(self, api):
        api.set_scheduling_state(True)
        api.get_addr_mapping(0)
        charged = api.take_charges()
        assert charged == api.costs.critical_toggle + api.costs.address_map
        assert api.take_charges() == 0

    def test_req_empty_polls(self, api, system):
        assert api.req_empty()
        system.tile.push_request(MemoryRequest(0, 0, False, 0))
        assert not api.req_empty()

    def test_get_request_moves_from_fifo(self, api, system):
        request = MemoryRequest(1, 64, False, 10)
        system.tile.push_request(request)
        assert api.get_request() is request
        assert not system.tile.has_requests

    def test_addr_mapping_roundtrip(self, api):
        dram = api.get_addr_mapping(8192)
        assert api.reverse_addr_mapping(dram) == 8192


class TestSequences:
    def test_read_sequence_closed_bank(self, api):
        api.read_sequence(DramAddress(0, 5, 3))
        kinds = [i.command.kind for i in api.program.instructions
                 if i.command is not None]
        assert kinds == [CommandKind.ACT, CommandKind.RD]

    def test_read_sequence_row_hit(self, api, system):
        system.device.banks[0].activate(5, 0)
        api.read_sequence(DramAddress(0, 5, 3))
        kinds = [i.command.kind for i in api.program.instructions
                 if i.command is not None]
        assert kinds == [CommandKind.RD]

    def test_read_sequence_conflict(self, api, system):
        system.device.banks[0].activate(9, 0)
        api.read_sequence(DramAddress(0, 5, 3))
        kinds = [i.command.kind for i in api.program.instructions
                 if i.command is not None]
        assert kinds == [CommandKind.PRE, CommandKind.ACT, CommandKind.RD]

    def test_refresh_sequence(self, api):
        api.refresh_sequence()
        kinds = [i.command.kind for i in api.program.instructions
                 if i.command is not None]
        assert kinds == [CommandKind.PREA, CommandKind.REF]

    def test_rowclone_sequence_shape(self, api):
        api.rowclone(0, 1, 2)
        kinds = [i.command.kind for i in api.program.instructions
                 if i.command is not None]
        assert kinds == [CommandKind.ACT, CommandKind.PRE, CommandKind.ACT,
                         CommandKind.PRE]

    def test_flush_resets_program(self, system, api):
        api.read_sequence(DramAddress(0, 5, 3))
        result = api.flush_commands()
        assert result.commands_issued == 2
        assert len(api.program) == 0

    def test_strict_violation_drops_the_staged_program(self, system):
        """A strict TimingViolation escaping flush_commands must not
        leave its program staged: the next episode issues its own rows."""
        device = system.tile.device
        smc = system.smc
        device.checker.strict = True
        with pytest.raises(TimingViolation):
            smc.technique_episode(lambda api: api.rowclone(0, 1, 2),
                                  issue_cycle=0)
        device.checker.strict = False
        issued = []
        original = device.issue

        def recording(cmd, time_ps):
            issued.append((cmd.kind, cmd.row))
            return original(cmd, time_ps)

        device.issue = recording
        smc.technique_episode(lambda api: api.rowclone(0, 5, 6),
                              issue_cycle=1000)
        assert [row for kind, row in issued if kind is CommandKind.ACT] \
            == [5, 6]

    def test_strict_violation_leaves_critical_mode(self, system):
        """A strict TimingViolation escaping a technique episode (staged
        or memoized-plan) still exits critical mode, so the next episode
        enters it afresh."""
        smc = system.smc
        counters = smc.counters
        system.tile.device.checker.strict = True
        with pytest.raises(TimingViolation):
            smc.technique_episode(lambda api: api.rowclone(0, 1, 2),
                                  issue_cycle=0)
        assert not counters.critical_mode
        with pytest.raises(TimingViolation):
            smc.technique_episode(RowCloneOp(0, 3, 4), issue_cycle=1000)
        assert not counters.critical_mode
        assert counters.critical_entries == 2

    def test_flush_without_executor(self, system):
        system.api.executor = None
        system.api.ddr_activate(0, 0)
        with pytest.raises(RuntimeError, match="no program executor"):
            system.api.flush_commands()

    def test_data_latency(self, api, system):
        t = system.config.timing
        assert api.data_latency_ps(False) == t.tCL + t.tBL
        assert api.data_latency_ps(True) == t.tCWL + t.tBL


def _staged(api):
    """The staged program as the fields each instruction uses, plus the
    accumulated charge (drained)."""
    out = []
    for ins in api.program.instructions:
        cmd = ins.command
        if cmd is None:
            out.append((ins.opcode, ins.operand))
            continue
        out.append((cmd.kind, cmd.bank if cmd.targets_bank else None,
                    cmd.row if cmd.kind is CommandKind.ACT else None,
                    cmd.col if cmd.kind in (CommandKind.RD, CommandKind.WR)
                    else None, cmd.data))
    return out, api.take_charges()


class TestProgramPool:
    """A pool hit stages what the plain builders stage, at the same cost."""

    @pytest.mark.parametrize("open_row", (5, None, 9),
                             ids=("hit", "miss", "conflict"))
    @pytest.mark.parametrize("is_write", (False, True),
                             ids=("read", "write"))
    def test_conventional_pool_hit_matches_builders(self, system, api,
                                                    open_row, is_write):
        if open_row is not None:
            for bank in (0, 1):
                system.device.banks[bank].activate(open_row, 0)
        # Bank 0 fills the pool entry for this row case and direction;
        # bank 1, in the same row-buffer state, hits it at another
        # column (and, unless the case is a row hit, another row).
        api.stage_conventional(DramAddress(0, 5, 3), is_write)
        pooled = api.program
        api.flush_commands()
        api.take_charges()
        target = DramAddress(1, 5 if open_row == 5 else 7, 7)
        api.stage_conventional(target, is_write)
        assert api.program is pooled
        fresh = EasyAPI(system.tile, api.costs)
        if is_write:
            fresh.write_sequence(target)
        else:
            fresh.read_sequence(target)
        assert _staged(api) == _staged(fresh)

    def test_refresh_pool_hit_matches_builder(self, system, api):
        api.stage_refresh()
        pooled = api.program
        api.flush_commands()
        api.take_charges()
        api.stage_refresh()
        assert api.program is pooled
        fresh = EasyAPI(system.tile, api.costs)
        fresh.refresh_sequence()
        assert _staged(api) == _staged(fresh)


class TestServicePending:
    def test_sets_release_on_every_request(self, system):
        requests = [MemoryRequest(i, i * 64, False, tag=10 + i)
                    for i in range(4)]
        system.smc.service_pending(requests)
        assert all(r.release is not None for r in requests)
        assert all(r.release > r.tag for r in requests)

    def test_release_includes_latency_floor(self, system):
        request = MemoryRequest(0, 0, False, tag=100)
        system.smc.service_pending([request])
        # Latency must at least cover the DRAM read itself.
        t = system.config.timing
        period = 699  # 1.43 GHz
        min_cycles = (t.tRCD + t.tCL + t.tBL) // period
        assert request.release - request.tag >= min_cycles

    def test_empty_call_is_noop(self, system):
        system.smc.service_pending([])
        assert system.smc.stats.serviced_reads == 0

    def test_counts_reads_and_writes(self, system):
        requests = [
            MemoryRequest(0, 0, False, tag=1),
            MemoryRequest(1, 64, True, tag=2, is_writeback=True),
        ]
        system.smc.service_pending(requests)
        assert system.smc.stats.serviced_reads == 1
        assert system.smc.stats.serviced_writes == 1

    def test_row_hits_batched_by_frfcfs(self, system):
        # Two requests to one row, one to another row of the same bank:
        # FR-FCFS serves both row hits before the conflicting row.
        mapper = system.mapper
        base_a = mapper.row_base_physical(0, 10)
        base_b = mapper.row_base_physical(0, 20)
        requests = [
            MemoryRequest(0, base_a, False, tag=1),
            MemoryRequest(1, base_b, False, tag=2),
            MemoryRequest(2, base_a + 64, False, tag=3),
        ]
        system.smc.service_pending(requests)
        assert requests[2].release < requests[1].release

    def test_critical_mode_toggled(self, system):
        request = MemoryRequest(0, 0, False, tag=1)
        system.smc.service_pending([request])
        assert not system.counters.critical_mode
        assert system.counters.critical_entries == 1

    def test_mc_counter_advances(self, system):
        request = MemoryRequest(0, 0, False, tag=1)
        system.smc.service_pending([request])
        assert system.counters.memory_controller > 0


class TestRefreshCadence:
    def test_refreshes_track_trefi(self):
        system = EasyDRAMSystem(pidram_no_time_scaling())
        # A trace long enough to cross several tREFI intervals at 50 MHz.
        trace = [load(i * 64, gap=200) for i in range(3000)]
        result = system.run(trace, "refresh-test")
        expected = result.emulated_ps // system.config.timing.tREFI
        assert result.refreshes == pytest.approx(expected, abs=2)

    def test_refresh_can_be_disabled(self):
        from repro.core.config import ControllerConfig

        config = pidram_no_time_scaling(
            controller=ControllerConfig(pipelined_occupancy_cycles=0,
                                        refresh_enabled=False))
        system = EasyDRAMSystem(config)
        trace = [load(i * 64, gap=200) for i in range(2000)]
        result = system.run(trace, "no-refresh")
        assert result.refreshes == 0


class TestNoTimeScalingSerialization:
    def test_no_ts_requests_cost_more_cycles_end_to_end(self):
        """The software MC's full cost is exposed without time scaling:
        per-request wall latency (ns) is much higher."""
        trace = [load(i * 64, gap=1, dependent=True) for i in range(300)]
        ts = EasyDRAMSystem(jetson_nano_time_scaling()).run(list(trace), "a")
        no_ts = EasyDRAMSystem(pidram_no_time_scaling()).run(list(trace), "b")
        ts_ns = (ts.avg_request_latency_cycles / 1.43e9) * 1e9
        no_ts_ns = (no_ts.avg_request_latency_cycles / 50e6) * 1e9
        assert no_ts_ns > 3 * ts_ns
