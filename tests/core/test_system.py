"""End-to-end tests of the EasyDRAM emulation engine."""

import pytest

from repro.core.config import (
    jetson_nano_time_scaling,
    pidram_no_time_scaling,
    validation_reference,
    validation_time_scaled,
)
from repro.core.system import EasyDRAMSystem
from repro.cpu.memtrace import load, store
from repro.workloads.lmbench import pointer_chase


def stream(n, stride=64, gap=1, base=0):
    return [load(base + i * stride, gap=gap) for i in range(n)]


class TestRunBasics:
    def test_simple_run_completes(self):
        system = EasyDRAMSystem(jetson_nano_time_scaling())
        result = system.run(stream(500), "stream")
        assert result.accesses == 500
        assert result.cycles > 0
        assert result.llc_miss_requests == 500

    def test_deterministic_across_instances(self):
        a = EasyDRAMSystem(jetson_nano_time_scaling()).run(stream(400), "x")
        b = EasyDRAMSystem(jetson_nano_time_scaling()).run(stream(400), "x")
        assert a.cycles == b.cycles
        assert a.emulated_ps == b.emulated_ps

    def test_cache_hits_do_not_reach_dram(self):
        system = EasyDRAMSystem(jetson_nano_time_scaling())
        trace = stream(10) + stream(1000, stride=0)  # re-touch line 0
        result = system.run(trace, "hits")
        assert result.llc_miss_requests <= 11

    def test_emulated_time_consistency(self):
        system = EasyDRAMSystem(jetson_nano_time_scaling())
        result = system.run(stream(200), "t")
        period = 699  # 1.43 GHz in ps (truncated)
        assert result.emulated_ps == result.cycles * period

    def test_breakdown_sums_to_total(self):
        system = EasyDRAMSystem(jetson_nano_time_scaling())
        result = system.run(stream(300), "b")
        b = result.breakdown
        assert b.processing_ps + b.stall_ps == result.emulated_ps

    def test_row_statistics_tracked(self):
        system = EasyDRAMSystem(jetson_nano_time_scaling())
        result = system.run(stream(600), "rows")
        assert result.row_hits + result.row_misses + result.row_conflicts >= 600 - 10

    def test_run_result_summary_renders(self):
        system = EasyDRAMSystem(jetson_nano_time_scaling())
        result = system.run(stream(50), "sum")
        text = result.summary()
        assert "sum" in text and "cycles" in text


class TestSessionFlows:
    def test_session_mixes_traces(self):
        system = EasyDRAMSystem(jetson_nano_time_scaling())
        session = system.session("mixed")
        session.run_trace(stream(100))
        mid = session.processor.cycles
        session.run_trace(stream(100, base=1 << 20))
        result = session.finish()
        assert result.cycles > mid
        assert result.accesses == 200

    def test_technique_op_blocks_processor(self):
        system = EasyDRAMSystem(jetson_nano_time_scaling())
        session = system.session("tech")
        before = session.processor.cycles
        session.technique_op(lambda api: api.rowclone(0, 1, 2))
        assert session.processor.cycles > before
        assert system.smc.stats.technique_ops == 1

    def test_clflush_range_writes_back_dirty_lines(self):
        system = EasyDRAMSystem(jetson_nano_time_scaling())
        session = system.session("flush")
        session.run_trace([store(i * 64, gap=1) for i in range(32)])
        flushed = session.clflush_range(0, 32 * 64)
        assert flushed == 32
        assert system.smc.stats.serviced_writes >= 32

    def test_clflush_clean_lines_are_free(self):
        system = EasyDRAMSystem(jetson_nano_time_scaling())
        session = system.session("flush-clean")
        session.run_trace(stream(32))
        flushed = session.clflush_range(0, 32 * 64)
        assert flushed == 0


    @pytest.mark.parametrize("start, size", [
        (0, 32 * 64), (40, 700), (3 * 64, 1), (128, 0), (5000, 16 * 64)])
    def test_clflush_range_matches_per_line_flush(self, start, size):
        """One flush_range call == a CLFLUSH per line: flush latency per
        line, each writeback tagged at its own line's cycle."""
        import dataclasses

        from repro.cpu.processor import MemoryRequest

        def per_line(session):
            proc = session.processor
            writebacks = []
            line = proc.hierarchy.line_bytes
            addr = start - start % line
            while addr < start + size:
                wb_addr, _cost = proc.clflush(addr)
                if wb_addr is not None:
                    writebacks.append(MemoryRequest(
                        rid=(1 << 30) + len(writebacks), addr=wb_addr,
                        is_write=True, tag=proc.cycles, is_writeback=True))
                addr += line
            if writebacks:
                session.system.smc.service_pending(writebacks)
                last = max(r.release or 0 for r in writebacks)
                if last > proc.cycles:
                    proc.stats.stall_cycles += last - proc.cycles
                    proc.cycles = last
            session.system.counters.advance_processor(proc.cycles)
            return len(writebacks)

        outcomes = []
        for flush in (per_line, lambda s: s.clflush_range(start, size)):
            system = EasyDRAMSystem(jetson_nano_time_scaling())
            session = system.session("flush")
            session.run_trace([store(i * 64, gap=1 + i % 3)
                               for i in range(0, 160, 2)]
                              + [load(i * 64, gap=1) for i in range(160)])
            flushed = flush(session)
            session.run_trace(stream(16))
            result = dataclasses.asdict(session.finish())
            result.pop("wall_seconds")
            outcomes.append((flushed, result,
                             dataclasses.asdict(system.smc.stats),
                             [level._tags for level in
                              (session.hierarchy.l1, session.hierarchy.l2)]))
        assert outcomes[0] == outcomes[1]


class TestTimeScalingBehaviour:
    def test_memory_latency_matches_a57_ballpark(self):
        """The Jetson config's main-memory load latency must fall in the
        150-190 cycle band the paper's Figure 8 shows for the A57."""
        system = EasyDRAMSystem(jetson_nano_time_scaling())
        result = system.run(pointer_chase(4 * 1024 * 1024, 4000), "chase")
        assert 120 < result.cycles_per_access < 220

    def test_no_ts_memory_latency_is_deflated(self):
        """Without time scaling few processor cycles pass per access —
        the evaluation-skew pathology of Sections 3 and 6."""
        system = EasyDRAMSystem(pidram_no_time_scaling())
        result = system.run(pointer_chase(4 * 1024 * 1024, 4000), "chase")
        assert result.cycles_per_access < 60

    def test_validation_error_small_even_on_dense_stream(self):
        """A dense miss stream is the worst case for time scaling's
        measurement quantization (every request pays the grid error);
        even there the divergence stays within 2%.  The Section 6
        experiment checks the paper's <0.1% claim on real workloads."""
        def trace():
            return stream(1500, gap=2)

        ref = EasyDRAMSystem(validation_reference()).run(trace(), "v")
        ts = EasyDRAMSystem(validation_time_scaled()).run(trace(), "v")
        err = abs(ts.cycles - ref.cycles) / ref.cycles
        assert err < 0.02

    def test_validation_error_tiny_on_compute_heavy_workload(self):
        """Section 6's regime: PolyBench-like low memory intensity."""
        def trace():
            return stream(300, gap=50)

        ref = EasyDRAMSystem(validation_reference()).run(trace(), "v")
        ts = EasyDRAMSystem(validation_time_scaled()).run(trace(), "v")
        err = abs(ts.cycles - ref.cycles) / ref.cycles
        assert err < 0.002

    def test_counters_monotone_through_run(self):
        system = EasyDRAMSystem(jetson_nano_time_scaling())
        system.run(stream(300), "c")
        counters = system.counters
        assert counters.processor > 0
        assert counters.memory_controller > 0
        assert not counters.critical_mode
