"""Tests for workload generators: PolyBench, lmbench, microbenchmarks."""

import numpy as np
import pytest

from repro.cpu.blocks import cut
from repro.cpu.memtrace import FLAG_DEPENDENT, FLAG_WRITE
from repro.workloads import lmbench, microbench, polybench


def columns(trace, limit=None):
    """A block trace's ``(addr, flags, gap)`` arrays, joined across its
    blocks (its first ``limit`` accesses when given)."""
    if limit is not None:
        trace = cut(trace, limit)
    blocks = list(trace)
    return tuple(np.concatenate([getattr(b, name) for b in blocks])
                 for name in ("addr", "flags", "gap"))


def footprint_bytes(addr, line_bytes=64):
    return len(np.unique(addr // line_bytes)) * line_bytes


class TestPolybench:
    def test_at_least_28_kernels(self):
        """The paper evaluates 28 PolyBench workloads."""
        assert len(polybench.names()) >= 28

    def test_fig13_kernels_all_registered(self):
        for name in polybench.FIG13_KERNELS:
            assert name in polybench.names()

    @pytest.mark.parametrize("name", polybench.names())
    def test_every_kernel_generates(self, name):
        addr, flags, _ = columns(polybench.trace_blocks(name, "mini"), 2000)
        assert len(addr) > 0
        assert (flags & FLAG_WRITE == 0).any()

    def test_unknown_kernel(self):
        with pytest.raises(KeyError, match="unknown PolyBench kernel"):
            polybench.trace_blocks("quicksort")

    def test_unknown_size(self):
        with pytest.raises(KeyError, match="unknown size class"):
            polybench.trace_blocks("gemm", "huge")

    def test_sizes_scale_access_counts(self):
        mini = len(columns(polybench.trace_blocks("gemm", "mini"))[0])
        small = len(columns(polybench.trace_blocks("gemm", "small"))[0])
        assert small > 2 * mini

    def test_kernels_are_deterministic(self):
        a = columns(polybench.trace_blocks("mvt", "mini"), 500)
        b = columns(polybench.trace_blocks("mvt", "mini"), 500)
        assert len(a[0]) == 500
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_gemm_access_count_matches_loop_nest(self):
        d = polybench.SIZES["mini"]
        addr, _, _ = columns(polybench.trace_blocks("gemm", "mini"))
        # Per (i, j): load C + m*(load A + load B) + store C.
        expected = d.n * d.n * (2 + 2 * d.m)
        assert len(addr) == expected

    def test_durbin_has_tiny_footprint(self):
        """durbin is the paper's least memory-intensive workload."""
        durbin = footprint_bytes(
            columns(polybench.trace_blocks("durbin", "mini"))[0])
        gemver = footprint_bytes(
            columns(polybench.trace_blocks("gemver", "mini"))[0])
        assert durbin < gemver / 10

    def test_writes_present_in_inplace_kernels(self):
        _, flags, _ = columns(polybench.trace_blocks("seidel-2d", "mini"),
                              5000)
        assert (flags & FLAG_WRITE).any()


class TestLmbench:
    def test_chase_is_fully_dependent(self):
        _, flags, _ = columns(lmbench.pointer_chase_blocks(4096, 100))
        assert (flags & FLAG_DEPENDENT).all()
        assert len(flags) == 100

    def test_chase_covers_working_set(self):
        size = 64 * 64
        addr, _, _ = columns(lmbench.pointer_chase_blocks(size, 64))
        assert len(set(addr.tolist())) == 64  # one hop per line, all distinct

    def test_chase_wraps_around(self):
        addr, _, _ = columns(lmbench.pointer_chase_blocks(64 * 8, 20))
        assert len(addr) == 20

    def test_chase_deterministic_per_seed(self):
        a = columns(lmbench.pointer_chase_blocks(4096, 50, seed=3))[0]
        b = columns(lmbench.pointer_chase_blocks(4096, 50, seed=3))[0]
        c = columns(lmbench.pointer_chase_blocks(4096, 50, seed=4))[0]
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_minimum_size_enforced(self):
        with pytest.raises(ValueError):
            lmbench.pointer_chase_blocks(32, 10)

    def test_accesses_for_two_passes(self):
        assert lmbench.accesses_for(64 * 10_000) == 20_000
        assert lmbench.accesses_for(64) == 4096  # floor
        assert lmbench.accesses_for(1 << 30) == 40_000  # cap


class TestMicrobench:
    def test_copy_trace_alternates_load_store(self):
        addr, flags, _ = columns(microbench.cpu_copy_blocks(0, 1 << 20, 4 * 64))
        assert len(addr) == 8
        assert not flags[0] & FLAG_WRITE and flags[1] & FLAG_WRITE
        assert addr[0] == 0 and addr[1] == 1 << 20

    def test_init_trace_is_stores_only(self):
        _, flags, _ = columns(microbench.cpu_init_blocks(0, 8 * 64))
        assert len(flags) == 8
        assert (flags & FLAG_WRITE).all()

    def test_touch_trace_read_and_write_modes(self):
        _, reads, _ = columns(microbench.touch_blocks(0, 4 * 64))
        _, writes, _ = columns(microbench.touch_blocks(0, 4 * 64, write=True))
        assert not (reads & FLAG_WRITE).any()
        assert (writes & FLAG_WRITE).all()

    def test_fig10_sizes_span_8k_to_16m(self):
        assert microbench.FIG10_SIZES[0] == 8 * 1024
        assert microbench.FIG10_SIZES[-1] == 16 * 1024 * 1024
        assert len(microbench.FIG10_SIZES) == 12
