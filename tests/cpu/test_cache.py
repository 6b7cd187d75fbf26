"""Tests for the cache hierarchy."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cpu.cache import Cache, CacheHierarchy


def make_hierarchy(l1_size=1024, l2_size=4096, line=64):
    l1 = Cache("L1", l1_size, 2, line, 2)
    l2 = Cache("L2", l2_size, 4, line, 12)
    return CacheHierarchy(l1, l2)


class TestCache:
    def test_size_divisibility_checked(self):
        with pytest.raises(ValueError):
            Cache("bad", 1000, 3, 64, 1)

    def test_miss_then_hit(self):
        cache = Cache("c", 1024, 2, 64, 1)
        assert not cache.lookup(5, False)
        cache.fill(5, dirty=False)
        assert cache.lookup(5, False)
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1

    def test_lru_eviction_order(self):
        cache = Cache("c", 2 * 64, 2, 64, 1)  # 1 set, 2 ways
        cache.fill(0, False)
        cache.fill(1, False)
        cache.lookup(0, False)          # 0 becomes MRU
        victim = cache.fill(2, False)   # evicts 1 (LRU), clean
        assert victim is None
        assert cache.contains(0)
        assert not cache.contains(1)

    def test_dirty_eviction_reports_victim(self):
        cache = Cache("c", 2 * 64, 2, 64, 1)
        cache.fill(0, dirty=True)
        cache.fill(1, False)
        victim = cache.fill(2, False)
        assert victim == 0

    def test_write_sets_dirty(self):
        cache = Cache("c", 2 * 64, 2, 64, 1)
        cache.fill(0, False)
        cache.lookup(0, True)   # write hit marks dirty
        _, dirty = cache.evict(0)
        assert dirty

    def test_evict_missing_line(self):
        cache = Cache("c", 1024, 2, 64, 1)
        assert cache.evict(42) == (False, False)

    def test_refill_merges_dirty(self):
        cache = Cache("c", 1024, 2, 64, 1)
        cache.fill(3, dirty=False)
        cache.fill(3, dirty=True)
        _, dirty = cache.evict(3)
        assert dirty
        assert cache.resident_lines() == 0


class TestHierarchy:
    def test_line_size_must_match(self):
        l1 = Cache("L1", 1024, 2, 64, 1)
        l2 = Cache("L2", 4096, 4, 128, 10)
        with pytest.raises(ValueError):
            CacheHierarchy(l1, l2)

    def test_first_access_misses_to_memory(self):
        h = make_hierarchy()
        traffic = h.access(0, False)
        assert traffic.is_llc_miss
        assert traffic.fill_line == 0

    def test_second_access_hits_l1(self):
        h = make_hierarchy()
        h.access(0, False)
        traffic = h.access(0, False)
        assert not traffic.is_llc_miss
        assert traffic.latency == h.l1.hit_latency

    def test_l1_victim_falls_to_l2(self):
        h = make_hierarchy(l1_size=2 * 64, l2_size=64 * 64)
        h.access(0, False)
        # Fill enough lines in the same L1 set to evict line 0 from L1.
        h.access(64, False)
        h.access(2 * 64, False)
        traffic = h.access(0, False)
        assert not traffic.is_llc_miss        # L2 still has it
        assert traffic.latency == h.l1.hit_latency + h.l2.hit_latency

    def test_dirty_l2_eviction_produces_writeback(self):
        h = make_hierarchy(l1_size=2 * 64, l2_size=4 * 64)
        sets = h.l2.num_sets
        # Write lines that all map to L2 set 0 until one dirty line spills.
        addrs = [i * sets * 64 for i in range(6)]
        writebacks = []
        for addr in addrs:
            traffic = h.access(addr, True)
            writebacks.extend(traffic.writebacks)
        assert writebacks, "expected at least one dirty writeback"

    def test_flush_line_dirty(self):
        h = make_hierarchy()
        h.access(0, True)
        wb = h.flush_line(0)
        assert wb == 0
        assert not h.l1.contains(0)
        assert not h.l2.contains(0)

    def test_flush_line_clean(self):
        h = make_hierarchy()
        h.access(0, False)
        assert h.flush_line(0) is None

    def test_flush_absent_line(self):
        h = make_hierarchy()
        assert h.flush_line(12345 * 64) is None

    def test_reset_stats(self):
        h = make_hierarchy()
        h.access(0, False)
        h.reset_stats()
        assert h.l1.stats.accesses == 0
        assert h.l2.stats.accesses == 0


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 255), st.booleans()),
                min_size=1, max_size=300))
def test_hierarchy_never_double_counts_property(ops):
    """Invariants over random access streams:

    * resident lines never exceed capacity at any level;
    * a flush of every touched line leaves both caches empty;
    * total L1 accesses equals the number of operations.
    """
    h = make_hierarchy(l1_size=512, l2_size=2048)
    touched = set()
    for line, is_write in ops:
        h.access(line * 64, is_write)
        touched.add(line)
    assert h.l1.resident_lines() <= 512 // 64
    assert h.l2.resident_lines() <= 2048 // 64
    assert h.l1.stats.accesses == len(ops)
    for line in touched:
        h.flush_line(line * 64)
    assert h.l1.resident_lines() == 0
    assert h.l2.resident_lines() == 0


def _cache_lists(hierarchy) -> list:
    return [(level._tags, level._dirty, level._stamps, level._mru,
             level._tick, level._changed, vars(level.stats))
            for level in (hierarchy.l1, hierarchy.l2)]


def _flush_lines(hierarchy, first_line: int, n: int) -> list:
    """The per-line oracle: ``n`` flush_line calls in address order; the
    offsets ``i`` of the lines ``first_line + i`` written back."""
    lb = hierarchy.line_bytes
    out = []
    for i in range(n):
        wb = hierarchy.flush_line((first_line + i) * lb)
        if wb is not None:
            assert wb == (first_line + i) * lb
            out.append(i)
    return out


@pytest.mark.parametrize("seed", range(40))
def test_flush_range_matches_per_line_flush(seed):
    """flush_range == the flush_line loop: same dirty lines (line order),
    evictions, MRU resets, per-level flush counts and recorded sets, on
    power-of-two and odd set counts alike."""
    import copy
    import random

    rng = random.Random(seed)
    line = 64
    sets1, sets2 = rng.choice((4, 5, 8, 12)), rng.choice((16, 24, 37, 64))
    hierarchy = CacheHierarchy(Cache("L1", sets1 * 2 * line, 2, line, 2),
                               Cache("L2", sets2 * 4 * line, 4, line, 12))
    span = rng.choice((64, 300, 2000))
    for _ in range(rng.randrange(50, 600)):
        hierarchy.access(rng.randrange(span) * line, rng.random() < 0.5)
    for level in (hierarchy.l1, hierarchy.l2):
        level._changed = set() if rng.random() < 0.7 else None
    oracle = copy.deepcopy(hierarchy)
    first, n = rng.randrange(span), rng.randrange(0, 3 * sets2)
    dirty = hierarchy.flush_range(first, n)
    assert dirty.dtype == np.int64
    assert dirty.tolist() == _flush_lines(oracle, first, n)
    assert _cache_lists(hierarchy) == _cache_lists(oracle)
