"""Reference (seed) cache implementation — the differential-test oracle.

The original MRU-ordered-list cache model, kept verbatim.  The
randomized tests in ``test_cache_blocked.py`` drive it in lockstep with
the flat-array :class:`~repro.cpu.cache.CacheHierarchy`.
"""

from __future__ import annotations

from repro.cpu.cache import CacheStats, MemoryTraffic


class ReferenceCache:
    """The original MRU-ordered-list cache level, kept verbatim.

    This is the seed model the paper artifacts were validated against;
    the randomized differential tests drive it in lockstep with the
    flat-array :class:`Cache`/:class:`CacheHierarchy` (per-access and
    block paths) and require identical stats, traffic, and residency.
    """

    def __init__(self, name: str, size_bytes: int, assoc: int,
                 line_bytes: int, hit_latency: int) -> None:
        if size_bytes % (assoc * line_bytes) != 0:
            raise ValueError(
                f"{name}: size {size_bytes} not divisible by"
                f" assoc*line ({assoc}x{line_bytes})")
        self.name = name
        self.size_bytes = size_bytes
        self.assoc = assoc
        self.line_bytes = line_bytes
        self.hit_latency = hit_latency
        self.num_sets = size_bytes // (assoc * line_bytes)
        # Per set: list of [tag, dirty] kept in MRU-first order.
        self._sets: list[list[list]] = [[] for _ in range(self.num_sets)]
        self.stats = CacheStats()

    def lookup(self, line_addr: int, is_write: bool) -> bool:
        ways = self._sets[line_addr % self.num_sets]
        tag = line_addr // self.num_sets
        if ways and ways[0][0] == tag:
            if is_write:
                ways[0][1] = True
            self.stats.hits += 1
            return True
        for i, entry in enumerate(ways):
            if entry[0] == tag:
                if i:
                    ways.insert(0, ways.pop(i))
                if is_write:
                    ways[0][1] = True
                self.stats.hits += 1
                return True
        self.stats.misses += 1
        return False

    def fill(self, line_addr: int, dirty: bool) -> int | None:
        set_index = line_addr % self.num_sets
        ways = self._sets[set_index]
        tag = line_addr // self.num_sets
        for i, entry in enumerate(ways):
            if entry[0] == tag:
                if i:
                    ways.insert(0, ways.pop(i))
                ways[0][1] = ways[0][1] or dirty
                return None
        victim_line = None
        if len(ways) >= self.assoc:
            victim = ways.pop()
            if victim[1]:
                victim_line = victim[0] * self.num_sets + set_index
                self.stats.writebacks += 1
        ways.insert(0, [tag, dirty])
        return victim_line

    def evict(self, line_addr: int) -> tuple[bool, bool]:
        ways = self._sets[line_addr % self.num_sets]
        tag = line_addr // self.num_sets
        for i, entry in enumerate(ways):
            if entry[0] == tag:
                ways.pop(i)
                return True, entry[1]
        return False, False

    def contains(self, line_addr: int) -> bool:
        ways = self._sets[line_addr % self.num_sets]
        tag = line_addr // self.num_sets
        return any(entry[0] == tag for entry in ways)

    def resident_lines(self) -> int:
        return sum(len(ways) for ways in self._sets)


class ReferenceCacheHierarchy:
    """The seed two-level hierarchy, kept verbatim as the oracle."""

    def __init__(self, l1: ReferenceCache, l2: ReferenceCache,
                 memory_fill_latency: int = 0) -> None:
        if l1.line_bytes != l2.line_bytes:
            raise ValueError("L1 and L2 must share a line size")
        self.l1 = l1
        self.l2 = l2
        self.line_bytes = l1.line_bytes
        self.memory_fill_latency = memory_fill_latency

    def access(self, addr: int, is_write: bool) -> MemoryTraffic:
        line = addr // self.line_bytes
        if self.l1.lookup(line, is_write):
            return MemoryTraffic(latency=self.l1.hit_latency)
        latency = self.l1.hit_latency + self.l2.hit_latency
        writebacks: list[int] = []
        if self.l2.lookup(line, False):
            self._install_l1(line, is_write, writebacks)
            return MemoryTraffic(latency=latency, writebacks=writebacks)
        l2_victim = self.l2.fill(line, dirty=False)
        if l2_victim is not None:
            writebacks.append(l2_victim * self.line_bytes)
        self._install_l1(line, is_write, writebacks)
        return MemoryTraffic(
            latency=self.l1.hit_latency + self.memory_fill_latency,
            fill_line=line * self.line_bytes,
            writebacks=writebacks,
        )

    def _install_l1(self, line: int, is_write: bool, writebacks: list[int]) -> None:
        victim = self.l1.fill(line, dirty=is_write)
        if victim is None:
            return
        if self.l2.lookup(victim, True):
            return
        l2_victim = self.l2.fill(victim, dirty=True)
        if l2_victim is not None:
            writebacks.append(l2_victim * self.line_bytes)

    def flush_line(self, addr: int) -> int | None:
        line = addr // self.line_bytes
        dirty = False
        for cache in (self.l1, self.l2):
            present, was_dirty = cache.evict(line)
            if present:
                cache.stats.flushes += 1
            dirty = dirty or was_dirty
        return line * self.line_bytes if dirty else None

    def llc_misses(self) -> int:
        return self.l2.stats.misses

    def reset_stats(self) -> None:
        self.l1.stats = CacheStats()
        self.l2.stats = CacheStats()
