"""Differential tests: flat-array cache (per-access + block) vs the seed.

The seed model (:class:`ReferenceCache`/:class:`ReferenceCacheHierarchy`,
kept verbatim) is the oracle.  The randomized streams mix loads, stores,
and CLFLUSH of clean/dirty/absent lines, and the block path is driven
with random chunk boundaries so every replay-cursor edge case is hit.
"""

from __future__ import annotations

import random

from reference_cache import ReferenceCache, ReferenceCacheHierarchy

from repro.cpu.cache import Cache, CacheHierarchy

LINE = 64


def build_pair(l1_sets=4, l1_assoc=2, l2_sets=8, l2_assoc=4):
    l1 = Cache("L1", l1_sets * l1_assoc * LINE, l1_assoc, LINE, 2)
    l2 = Cache("L2", l2_sets * l2_assoc * LINE, l2_assoc, LINE, 10)
    new = CacheHierarchy(l1, l2, memory_fill_latency=3)
    r1 = ReferenceCache("L1", l1_sets * l1_assoc * LINE, l1_assoc, LINE, 2)
    r2 = ReferenceCache("L2", l2_sets * l2_assoc * LINE, l2_assoc, LINE, 10)
    ref = ReferenceCacheHierarchy(r1, r2, memory_fill_latency=3)
    return new, ref


def stats_tuple(h):
    return tuple((c.stats.hits, c.stats.misses, c.stats.writebacks,
                  c.stats.flushes) for c in (h.l1, h.l2))


def random_stream(rng, n, lines=64):
    """(op, addr) ops: 0=load, 1=store, 2=flush."""
    hot = [rng.randrange(lines) * LINE for _ in range(8)]
    ops = []
    for _ in range(n):
        r = rng.random()
        op = 1 if r < 0.35 else (2 if r < 0.45 else 0)
        addr = (rng.choice(hot) if rng.random() < 0.5
                else rng.randrange(lines) * LINE)
        addr += rng.randrange(LINE)  # sub-line offsets must not matter
        ops.append((op, addr))
    return ops


class TestPerAccessDifferential:
    def test_randomized_streams_match_reference(self):
        for seed in range(8):
            rng = random.Random(seed)
            new, ref = build_pair()
            for op, addr in random_stream(rng, 3000):
                if op == 2:
                    assert new.flush_line(addr) == ref.flush_line(addr)
                else:
                    got = new.access(addr, is_write=bool(op))
                    want = ref.access(addr, is_write=bool(op))
                    assert (got.latency, got.fill_line, got.writebacks) == \
                        (want.latency, want.fill_line, want.writebacks)
                assert stats_tuple(new) == stats_tuple(ref)
            assert new.l1.resident_lines() == ref.l1.resident_lines()
            assert new.l2.resident_lines() == ref.l2.resident_lines()

    def test_clflush_clean_dirty_absent(self):
        new, ref = build_pair()
        for h in (new, ref):
            h.access(0, is_write=False)      # clean resident line
            h.access(LINE, is_write=True)    # dirty resident line
        for addr in (0, LINE, 7 * LINE):     # clean, dirty, absent
            assert new.flush_line(addr) == ref.flush_line(addr)
        assert new.flush_line(LINE) == ref.flush_line(LINE)  # re-flush
        assert stats_tuple(new) == stats_tuple(ref)


class TestBlockDifferential:
    def _drive_block(self, hierarchy, ops, rng):
        """Apply ops through access_block in random chunks; return events."""
        events = []
        i = 0
        while i < len(ops):
            # CLFLUSH is not part of the block interface; split around it.
            if ops[i][0] == 2:
                events.append(("flush", hierarchy.flush_line(ops[i][1])))
                i += 1
                continue
            j = i
            limit = i + rng.randrange(1, 16)
            while j < len(ops) and j < limit and ops[j][0] != 2:
                j += 1
            addrs = [a for _, a in ops[i:j]]
            flags = [op for op, _ in ops[i:j]]
            traffic = hierarchy.access_block(addrs, flags)
            assert traffic.n_fills == sum(
                1 for f in traffic.fill_addr if f >= 0)
            wb_ptr = 0
            for k in range(len(addrs)):
                lat = traffic.latency[k]
                fills = traffic.fill_addr[k]
                wbs = []
                while (wb_ptr < len(traffic.wb_index)
                       and traffic.wb_index[wb_ptr] == k):
                    wbs.append(traffic.wb_addr[wb_ptr])
                    wb_ptr += 1
                events.append(("access", lat, fills, wbs))
            assert wb_ptr == len(traffic.wb_index)
            i = j
        return events

    def _drive_per_access(self, hierarchy, ops):
        events = []
        for op, addr in ops:
            if op == 2:
                events.append(("flush", hierarchy.flush_line(addr)))
            else:
                t = hierarchy.access(addr, is_write=bool(op))
                fill = -1 if t.fill_line is None else t.fill_line
                events.append(("access", t.latency, fill, t.writebacks))
        return events

    def test_block_path_matches_seed_reference(self):
        """Old per-access implementation vs new block path, randomized."""
        for seed in range(10):
            rng = random.Random(1000 + seed)
            new, ref = build_pair()
            ops = random_stream(rng, 2500)
            got = self._drive_block(new, ops, rng)
            want = self._drive_per_access(ref, ops)
            assert got == want
            assert stats_tuple(new) == stats_tuple(ref)

    def test_writeback_ordering_within_block(self):
        """An access evicting two dirty lines posts both, in seed order."""
        # L1 1 set x 1 way, L2 1 set x 1 way: every new line evicts.
        l1 = Cache("L1", LINE, 1, LINE, 1)
        l2 = Cache("L2", LINE, 1, LINE, 1)
        h = CacheHierarchy(l1, l2, memory_fill_latency=0)
        r = ReferenceCacheHierarchy(
            ReferenceCache("L1", LINE, 1, LINE, 1),
            ReferenceCache("L2", LINE, 1, LINE, 1), 0)
        ops = [(1, 0), (1, LINE), (1, 2 * LINE), (0, 3 * LINE), (1, 0)]
        got = self._drive_block(h, ops, random.Random(0))
        want = self._drive_per_access(r, ops)
        assert got == want

    def test_mixed_flush_interleave(self):
        for seed in range(5):
            rng = random.Random(7000 + seed)
            new, ref = build_pair(l1_sets=2, l1_assoc=1, l2_sets=2, l2_assoc=2)
            ops = random_stream(rng, 1200, lines=24)
            assert (self._drive_block(new, ops, rng)
                    == self._drive_per_access(ref, ops))


class TestNonPowerOfTwoSets:
    """Satellite regression: set indexing is stable for non-pow2 set counts."""

    def test_split_roundtrips(self):
        cache = Cache("odd", 3 * 2 * LINE, 2, LINE, 1)  # 3 sets
        assert cache.num_sets == 3
        for line in (0, 1, 2, 3, 7, 100, 12345):
            s, t = cache.split(line)
            assert t * cache.num_sets + s == line
            cache.fill(line, dirty=True)
            assert cache.contains(line)
        # Victim reconstruction uses the same split.
        cache2 = Cache("odd1", 3 * 1 * LINE, 1, LINE, 1)
        cache2.fill(5, dirty=True)     # set 2, tag 1
        victim = cache2.fill(8, dirty=False)  # set 2, tag 2 evicts line 5
        assert victim == 5

    def test_differential_with_non_pow2_hierarchy(self):
        l1 = Cache("L1", 3 * 2 * LINE, 2, LINE, 2)
        l2 = Cache("L2", 6 * 2 * LINE, 2, LINE, 9)
        new = CacheHierarchy(l1, l2, 1)
        ref = ReferenceCacheHierarchy(
            ReferenceCache("L1", 3 * 2 * LINE, 2, LINE, 2),
            ReferenceCache("L2", 6 * 2 * LINE, 2, LINE, 9), 1)
        rng = random.Random(42)
        ops = random_stream(rng, 2000, lines=48)
        driver = TestBlockDifferential()
        assert (driver._drive_block(new, ops, rng)
                == driver._drive_per_access(ref, ops))
        assert stats_tuple(new) == stats_tuple(ref)
