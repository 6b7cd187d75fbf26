"""Tests for the trace-driven processor model."""

import pytest

from repro.cpu.cache import Cache, CacheHierarchy
from repro.cpu.memtrace import load, store
from repro.cpu.processor import Processor, ProcessorConfig


def make_processor(trace, mlp=4, miss_window=16):
    l1 = Cache("L1", 1024, 2, 64, 1)
    l2 = Cache("L2", 4096, 4, 64, 4)
    config = ProcessorConfig(mlp=mlp, miss_window=miss_window)
    return Processor(config, CacheHierarchy(l1, l2), trace)


def release_all(requests, latency=100):
    for request in requests:
        if request.release is None:
            request.release = request.tag + latency


class TestBasics:
    def test_empty_trace_finishes_immediately(self):
        proc = make_processor([])
        burst = proc.execute_burst()
        assert burst.done
        assert proc.done

    def test_hit_only_trace_never_blocks(self):
        trace = [load(0, gap=2)] + [load(0, gap=1) for _ in range(9)]
        proc = make_processor(trace)
        burst = proc.execute_burst()
        # The very first access misses; everything after hits.
        assert len(burst.new_requests) == 1
        release_all(burst.new_requests, latency=50)
        burst = proc.execute_burst()
        assert burst.done
        assert proc.stats.accesses == 10

    def test_compute_gaps_accumulate(self):
        trace = [load(0, gap=10), load(0, gap=5)]
        proc = make_processor(trace)
        burst = proc.execute_burst()
        release_all(burst.new_requests)
        proc.execute_burst()
        assert proc.stats.compute_cycles == 15

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ProcessorConfig(mlp=0)
        with pytest.raises(ValueError):
            ProcessorConfig(miss_window=0)


class TestBlockingAndMlp:
    def test_blocks_at_mlp_limit(self):
        # 8 distinct lines, all misses, mlp=2.
        trace = [load(i * 64, gap=1) for i in range(8)]
        proc = make_processor(trace, mlp=2)
        burst = proc.execute_burst()
        assert burst.blocked
        assert len(burst.new_requests) == 2
        assert len(proc.outstanding) == 2

    def test_resumes_after_release(self):
        trace = [load(i * 64, gap=1) for i in range(4)]
        proc = make_processor(trace, mlp=2)
        burst = proc.execute_burst()
        release_all(burst.new_requests, latency=100)
        burst = proc.execute_burst()
        release_all(burst.new_requests, latency=100)
        burst = proc.execute_burst()
        assert burst.done
        assert proc.stats.llc_miss_requests == 4

    def test_release_advances_cycles(self):
        trace = [load(0, gap=0)]
        proc = make_processor(trace, mlp=1)
        burst = proc.execute_burst()
        request = burst.new_requests[0]
        request.release = request.tag + 500
        proc.execute_burst()
        assert proc.cycles >= request.tag + 500
        assert proc.stats.stall_cycles >= 499

    def test_dependent_access_serializes(self):
        trace = [load(0, gap=0), load(64, gap=0, dependent=True)]
        proc = make_processor(trace, mlp=8)
        burst = proc.execute_burst()
        # The dependent load cannot issue while the first is outstanding.
        assert len(burst.new_requests) == 1
        assert burst.blocked

    def test_in_order_config_blocks_immediately(self):
        trace = [load(i * 64, gap=1) for i in range(4)]
        proc = make_processor(trace, mlp=1, miss_window=1)
        burst = proc.execute_burst()
        assert len(burst.new_requests) == 1

    def test_deliver_requires_release(self):
        trace = [load(0)]
        proc = make_processor(trace)
        burst = proc.execute_burst()
        with pytest.raises(ValueError):
            proc.deliver(burst.new_requests[0])


class TestWritebacks:
    def test_writebacks_are_posted_not_blocking(self):
        # Dirty a line, then evict it by filling its set.
        l1 = Cache("L1", 2 * 64, 2, 64, 1)
        l2 = Cache("L2", 4 * 64, 2, 64, 4)
        config = ProcessorConfig(mlp=8, miss_window=64)
        sets_l2 = l2.num_sets
        trace = [store(0, gap=0)] + [
            load(i * sets_l2 * 64, gap=0) for i in range(1, 6)]
        proc = Processor(config, CacheHierarchy(l1, l2), trace)
        seen_wb = []
        while not proc.done:
            burst = proc.execute_burst()
            seen_wb.extend(r for r in burst.new_requests if r.is_writeback)
            release_all(burst.new_requests)
        assert seen_wb, "expected a posted writeback"
        assert all(r.is_write for r in seen_wb)

    def test_writebacks_do_not_join_outstanding(self):
        trace = [store(0, gap=0)]
        proc = make_processor(trace)
        burst = proc.execute_burst()
        fills = [r for r in burst.new_requests if not r.is_writeback]
        assert len(proc.outstanding) == len(fills)


class TestFeedAndStats:
    def test_feed_resumes_after_done(self):
        proc = make_processor([load(0, gap=1)])
        burst = proc.execute_burst()
        release_all(burst.new_requests)
        assert proc.execute_burst().done
        proc.feed([load(64, gap=1)])
        assert not proc.done
        burst = proc.execute_burst()
        release_all(burst.new_requests)
        assert proc.execute_burst().done
        assert proc.stats.accesses == 2

    def test_clflush_charges_cycles(self):
        proc = make_processor([])
        before = proc.cycles
        wb, cost = proc.clflush(0)
        assert wb is None
        assert proc.cycles == before + proc.config.flush_latency

    def test_request_latency_recorded(self):
        proc = make_processor([load(0, gap=0)], mlp=1)
        burst = proc.execute_burst()
        burst.new_requests[0].release = burst.new_requests[0].tag + 77
        proc.execute_burst()
        assert proc.stats.request_latencies.typecode == "q"
        assert list(proc.stats.request_latencies) == [77]

    def test_loads_and_stores_counted(self):
        trace = [load(0), store(64), load(128)]
        proc = make_processor(trace, mlp=8)
        while not proc.done:
            burst = proc.execute_burst()
            release_all(burst.new_requests)
        assert proc.stats.loads == 2
        assert proc.stats.stores == 1
