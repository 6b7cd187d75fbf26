"""Block-trace frontend: builders, the per-access view, and processor
equivalence."""

from __future__ import annotations

import dataclasses

import pytest
from reference_processor import install

from repro.core.config import jetson_nano_time_scaling
from repro.core.system import EasyDRAMSystem
from repro.cpu.blocks import AccessBlock, blockify
from repro.cpu.memtrace import Access, load, store
from repro.workloads import lmbench, microbench, polybench


def as_list(trace):
    return list(trace)


class TestAccessBlock:
    def test_parallel_arrays_must_align(self):
        with pytest.raises(ValueError):
            AccessBlock([1, 2], [0], [0, 0])

    def test_accesses_view_matches_arrays(self):
        block = AccessBlock([64, 128], [0, 1], [3, 7])
        assert list(block.accesses()) == [Access(64, 0, 3), Access(128, 1, 7)]

    def test_blockify_roundtrip(self):
        accesses = [load(i * 64, gap=i % 3, dependent=(i % 5 == 0))
                    for i in range(1, 100)] + [store(4096, gap=2)]
        bt = blockify(iter(accesses), block=7)
        blocks = list(bt)
        assert all(isinstance(b, AccessBlock) for b in blocks)
        assert max(len(b) for b in blocks) <= 7
        rebuilt = [a for b in blocks for a in b.accesses()]
        assert rebuilt == accesses

    def test_blocktrace_is_single_use(self):
        bt = blockify([load(0)], block=4)
        assert len(list(bt)) == 1
        assert list(bt) == []


class TestWorkloadBuilders:
    """Builders emit the same access stream at every block size."""

    def test_cpu_copy(self):
        stream = as_list(microbench.cpu_copy_blocks(
            0, 1 << 20, 5 * 64).accesses())
        blocks = microbench.cpu_copy_blocks(0, 1 << 20, 5 * 64, block=4)
        assert [a for b in blocks for a in b.accesses()] == stream
        assert stream[0] == Access(0, 0, 7)          # load src
        assert stream[1] == Access(1 << 20, 1, 7)    # store dst

    def test_cpu_init(self):
        stream = as_list(microbench.cpu_init_blocks(1 << 16, 9 * 64).accesses())
        blocks = microbench.cpu_init_blocks(1 << 16, 9 * 64, block=4)
        assert [a for b in blocks for a in b.accesses()] == stream
        assert all(a.is_write for a in stream)

    def test_touch(self):
        for write in (False, True):
            stream = as_list(microbench.touch_blocks(
                128, 6 * 64, write=write).accesses())
            blocks = microbench.touch_blocks(128, 6 * 64, write=write, block=5)
            assert [a for b in blocks for a in b.accesses()] == stream
            assert all(a.is_write == write for a in stream)

    def test_pointer_chase(self):
        stream = as_list(lmbench.pointer_chase_blocks(
            4096, 150, seed=11).accesses())
        blocks = lmbench.pointer_chase_blocks(4096, 150, seed=11, block=16)
        assert [a for b in blocks for a in b.accesses()] == stream
        assert all(a.is_dependent for a in stream)

    def test_pointer_chase_too_small_raises(self):
        with pytest.raises(ValueError):
            lmbench.pointer_chase_blocks(32, 10)

    def test_polybench_blocks(self):
        stream = as_list(polybench.trace_blocks("gemm", "mini").accesses())
        for block in (64, 37):
            blocks = list(polybench.trace_blocks("gemm", "mini", block=block))
            assert [a for b in blocks for a in b.accesses()] == stream
            # The boundaries blockify gives the per-access stream.
            assert [len(b) for b in blocks] == [
                len(b) for b in blockify(iter(stream), block)]


class TestProcessorBlockMode:
    """Block replay == per-access execution == the object reference."""

    def _run(self, trace_factory, reference):
        """Event engine on the kernel, or the object reference (the
        per-access replay of ``reference_processor.py`` on the cycle
        engine, ``kernel=False``)."""
        engine = "cycle" if reference else "event"
        system = EasyDRAMSystem(jetson_nano_time_scaling(), engine=engine,
                                kernel=not reference)
        session = system.session("blocks")
        if reference:
            install(session)
        session.run_trace(trace_factory())
        result = dataclasses.asdict(session.finish())
        result.pop("wall_seconds")
        return result

    def test_block_trace_matches_access_trace(self, kernel_on):
        def blocks():
            return microbench.cpu_copy_blocks(0, 1 << 26, 96 * 1024, block=37)

        def accesses():
            return microbench.cpu_copy_blocks(0, 1 << 26, 96 * 1024).accesses()

        fast_blocks = self._run(blocks, False)
        fast_access = self._run(accesses, False)
        ref_blocks = self._run(blocks, True)
        assert fast_blocks == fast_access == ref_blocks

    def test_dependent_stream_matches(self, kernel_on):
        def blocks():
            return lmbench.pointer_chase_blocks(32 * 1024, 2000, block=11)

        def accesses():
            return lmbench.pointer_chase_blocks(32 * 1024, 2000).accesses()

        assert (self._run(blocks, False)
                == self._run(accesses, True))
