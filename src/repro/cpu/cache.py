"""Set-associative cache hierarchy.

Tag-only, write-back, write-allocate caches with true LRU replacement.
The end-to-end evaluation needs the caches for *filtering* (which
accesses reach DRAM) and for the per-level latency profile of Figure 8;
data contents live in the DRAM device model only.

The hierarchy exposes a single :meth:`CacheHierarchy.access` that returns
the hit-path latency plus any memory traffic (a blocking line fill and/or
posted writebacks), a :meth:`CacheHierarchy.flush_line` implementing
the memory-mapped CLFLUSH register of Section 7.1, and the array-native
:meth:`CacheHierarchy.access_block` that filters a whole
:class:`~repro.cpu.blocks.AccessBlock` per call.

Storage layout: each set holds parallel ``tags``/``dirty``/``stamps``
arrays; recency is an integer LRU stamp (a global monotonically
increasing tick) instead of the seed model's MRU-ordered list, so a
probe is a C-speed ``list`` scan and eviction is an ``argmin`` over the
stamps.  The two layouts are behaviorally identical (stamp order *is*
recency order); the test suite keeps the original list-based
implementation verbatim as the oracle its randomized differential tests
compare against.  A level starts empty without any per-set list: the
way lists (``_tags``/``_dirty``/``_stamps``/``_mru``) are built on the
first Python read of any of them (:meth:`Cache.__getattr__`), so a level
that only the resident copy below ever touches never builds them.

Resident copies: the compiled kernel keeps a flat copy of a hierarchy's
way arrays between replays (:mod:`repro.dram.kernel.blockrun`).  Each
level tracks what Python changed since that copy was last synced in
``_changed``: a set of set indices (only :meth:`Cache.evict` and
:meth:`CacheHierarchy.flush_range` record there), or ``None`` when any
other mutator ran and the copy must be rebuilt whole.  Mutators mark a
level stale with one assignment per call, never per access.

After a replay the copy is authoritative: the level's way lists are
*lent* to it (``Cache._loan``) and leave the instance -- or, for a level
that never built them, the copy starts from empty sets and holds none.
The first Python read of any of them writes the copy's changed sets back
(:meth:`Cache.__getattr__`; a level that had none builds empty lists
first), so every Python-side path sees synced lists, while replays,
statistics and :meth:`CacheHierarchy.flush_range` (applied to the copy
itself) never rebuild them.  The loan works out the changed sets once,
at that write-back: every set with a way stamped at or past the tick at
which the loan began, plus every set a CLFLUSH on the copy changed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

#: Owner tokens for hierarchies and their resident copies (unique per
#: process, never reused -- unlike ``id()``).
_TOKENS = itertools.count(1)

#: A level's way lists, which a resident copy may hold (see above).
_WAY_LISTS = ("_tags", "_dirty", "_stamps", "_mru")


def empty_way_lists(num_sets: int) -> tuple:
    """An empty level's way lists, in ``_WAY_LISTS`` order.

    Per set: parallel ``tags``/``dirty``/``stamps`` lists (grown up to
    ``assoc`` entries), and the most-recently-touched slot (-1 =
    unknown), so repeated touches to the hottest line skip the way scan.
    """
    return ([[] for _ in range(num_sets)], [[] for _ in range(num_sets)],
            [[] for _ in range(num_sets)], [-1] * num_sets)


@dataclass
class CacheStats:
    """Per-level hit/miss/writeback counters."""

    hits: int = 0
    misses: int = 0
    writebacks: int = 0
    flushes: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def miss_rate(self) -> float:
        total = self.accesses
        return self.misses / total if total else 0.0


class Cache:
    """One cache level.  Addresses are *line* addresses (byte // line)."""

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
        # The way lists (``_WAY_LISTS``) are built on first use; see the
        # module docstring.
        self._tick = 0
        self.stats = CacheStats()
        #: Sets changed since the resident copy was synced (``None``:
        #: rebuild it whole; see the module docstring).
        self._changed: set[int] | None = None
        #: The resident copy holding this level's way lists, if lent.
        self._loan = None

    def __getattr__(self, name: str):
        # Only reached when normal lookup fails: the way lists are lent
        # to a resident copy, which writes its changes back on first use,
        # or were never built (the level is still empty).
        if name in _WAY_LISTS:
            state = self.__dict__
            loan = state.get("_loan")
            if loan is not None:
                loan.write_back(self)
            else:
                state.update(zip(_WAY_LISTS, empty_way_lists(self.num_sets)))
            return state[name]
        raise AttributeError(
            f"{type(self).__name__!r} object has no attribute {name!r}")

    # -- per-access API (set/tag split hoisted into the _st variants) -------

    def split(self, line_addr: int) -> tuple[int, int]:
        """(set index, tag) of a line address — computed once per access.

        The split is plain divmod so it is stable for non-power-of-two
        set counts too: ``tag * num_sets + set_index`` always round-trips
        to the original line address.
        """
        return line_addr % self.num_sets, line_addr // self.num_sets

    def lookup(self, line_addr: int, is_write: bool) -> bool:
        """Probe for a line; on hit, update LRU and dirty bit."""
        set_index, tag = self.split(line_addr)
        return self.lookup_st(set_index, tag, is_write)

    def lookup_st(self, set_index: int, tag: int, is_write: bool) -> bool:
        """:meth:`lookup` with the set/tag split already computed."""
        self._changed = None
        tags = self._tags[set_index]
        mru = self._mru[set_index]
        if mru >= 0 and mru < len(tags) and tags[mru] == tag:
            slot = mru
        elif tag in tags:
            slot = tags.index(tag)
            self._mru[set_index] = slot
        else:
            self.stats.misses += 1
            return False
        self._stamps[set_index][slot] = self._tick
        self._tick += 1
        if is_write:
            self._dirty[set_index][slot] = True
        self.stats.hits += 1
        return True

    def fill(self, line_addr: int, dirty: bool) -> int | None:
        """Install a line; return the evicted dirty line address, if any."""
        set_index, tag = self.split(line_addr)
        self._changed = None
        tags = self._tags[set_index]
        if tag in tags:  # already present (e.g. racing writeback)
            slot = tags.index(tag)
            self._stamps[set_index][slot] = self._tick
            self._tick += 1
            self._dirty[set_index][slot] = self._dirty[set_index][slot] or dirty
            self._mru[set_index] = slot
            return None
        return self.fill_absent_st(set_index, tag, dirty)

    def fill_absent_st(self, set_index: int, tag: int,
                       dirty: bool) -> int | None:
        """Install a line known to be absent (a probe just missed it)."""
        self._changed = None
        tags = self._tags[set_index]
        victim_line = None
        if len(tags) >= self.assoc:
            stamps = self._stamps[set_index]
            slot = stamps.index(min(stamps))
            if self._dirty[set_index][slot]:
                victim_line = tags[slot] * self.num_sets + set_index
                self.stats.writebacks += 1
            tags[slot] = tag
            self._dirty[set_index][slot] = dirty
            stamps[slot] = self._tick
        else:
            slot = len(tags)
            tags.append(tag)
            self._dirty[set_index].append(dirty)
            self._stamps[set_index].append(self._tick)
        self._tick += 1
        self._mru[set_index] = slot
        return victim_line

    def evict(self, line_addr: int) -> tuple[bool, bool]:
        """Remove a line if present; return (was_present, was_dirty)."""
        set_index, tag = self.split(line_addr)
        tags = self._tags[set_index]
        if tag not in tags:
            return False, False
        slot = tags.index(tag)
        tags.pop(slot)
        was_dirty = self._dirty[set_index].pop(slot)
        self._stamps[set_index].pop(slot)
        self._mru[set_index] = -1
        if self._changed is not None:
            self._changed.add(set_index)
        return True, was_dirty

    def contains(self, line_addr: int) -> bool:
        set_index, tag = self.split(line_addr)
        return tag in self._tags[set_index]

    def resident_lines(self) -> int:
        return sum(len(tags) for tags in self._tags)


@dataclass
class MemoryTraffic:
    """DRAM-bound traffic produced by one cache-hierarchy access."""

    latency: int                       # hit-path latency in core cycles
    fill_line: int | None = None       # blocking line fill (line address)
    writebacks: list[int] = field(default_factory=list)  # posted writes

    @property
    def is_llc_miss(self) -> bool:
        return self.fill_line is not None


class BlockTraffic:
    """DRAM-bound traffic of one :class:`~repro.cpu.blocks.AccessBlock`.

    Per-access results in compact parallel arrays: ``latency[i]`` is the
    hit-path latency of access ``i`` and ``fill_addr[i]`` its blocking
    line-fill byte address (-1 = served by the caches).  Posted
    writebacks are sparse, so they come as ordered ``(wb_index[k],
    wb_addr[k])`` pairs — ``wb_index`` is the access index the writeback
    was produced by, non-decreasing.
    """

    __slots__ = ("latency", "fill_addr", "wb_index", "wb_addr", "n_fills")

    def __init__(self, latency: list[int], fill_addr: list[int],
                 wb_index: list[int], wb_addr: list[int],
                 n_fills: int) -> None:
        self.latency = latency
        self.fill_addr = fill_addr
        self.wb_index = wb_index
        self.wb_addr = wb_addr
        #: Number of non-sentinel entries in ``fill_addr``.
        self.n_fills = n_fills


class CacheHierarchy:
    """Two-level (L1D + L2) hierarchy with non-inclusive write-back flow."""

    def __init__(self, l1: Cache, l2: Cache, memory_fill_latency: int = 0) -> None:
        if l1.line_bytes != l2.line_bytes:
            raise ValueError("L1 and L2 must share a line size")
        self.l1 = l1
        self.l2 = l2
        self.line_bytes = l1.line_bytes
        #: This hierarchy's owner token, and the token of the resident
        #: copy that last synced with it (0: none).
        self.token = next(_TOKENS)
        self.resident = 0
        #: Extra core cycles charged on an LLC miss for the fill path
        #: (bus/queue traversal); DRAM latency itself comes from the SMC.
        self.memory_fill_latency = memory_fill_latency

    def __setstate__(self, state: dict) -> None:
        # A deep copy or unpickled copy is a hierarchy of its own: no
        # resident copy may take it for the original it was copied from.
        self.__dict__.update(state)
        self.token = next(_TOKENS)
        self.resident = 0

    def access(self, addr: int, is_write: bool) -> MemoryTraffic:
        """Access a byte address; return latency and memory traffic."""
        line = addr // self.line_bytes
        l1 = self.l1
        s1, t1 = l1.split(line)
        if l1.lookup_st(s1, t1, is_write):
            return MemoryTraffic(latency=l1.hit_latency)
        l2 = self.l2
        latency = l1.hit_latency + l2.hit_latency
        writebacks: list[int] = []
        s2, t2 = l2.split(line)
        if l2.lookup_st(s2, t2, False):
            self._install_l1(s1, t1, line, is_write, writebacks)
            return MemoryTraffic(latency=latency, writebacks=writebacks)
        # LLC miss: fill L2 then L1 from memory.  Only the L1 probe cost
        # is charged inline: a non-blocking miss overlaps the rest of the
        # lookup with downstream work, and the end-to-end miss latency is
        # applied when the response's release cycle is consumed.
        l2_victim = l2.fill_absent_st(s2, t2, False)
        if l2_victim is not None:
            writebacks.append(l2_victim * self.line_bytes)
        self._install_l1(s1, t1, line, is_write, writebacks)
        return MemoryTraffic(
            latency=l1.hit_latency + self.memory_fill_latency,
            fill_line=line * self.line_bytes,
            writebacks=writebacks,
        )

    def _install_l1(self, s1: int, t1: int, line: int, is_write: bool,
                    writebacks: list[int]) -> None:
        victim = self.l1.fill_absent_st(s1, t1, is_write)
        if victim is None:
            return
        # Dirty L1 victim folds into L2 (write-allocate, no memory fetch).
        l2 = self.l2
        s2, t2 = l2.split(victim)
        if l2.lookup_st(s2, t2, True):
            return
        l2_victim = l2.fill_absent_st(s2, t2, True)
        if l2_victim is not None:
            writebacks.append(l2_victim * self.line_bytes)

    # -- array-native block path (the fast-path frontend) -------------------

    def access_block(self, addrs, flags: list[int]) -> BlockTraffic:
        """Filter a whole access block; behaviorally N x :meth:`access`.

        ``addrs`` is an int sequence or ``int64`` array (an
        :class:`~repro.cpu.blocks.AccessBlock`'s); ``flags`` is a list,
        indexed once per access.

        One fused loop over both levels with the set/tag splits hoisted
        (computed once per access, shared by the probe and the fill) and
        all per-level state in locals — no :class:`MemoryTraffic`
        allocation, no method dispatch per probe.  Statistics and
        eviction decisions are bit-identical to the per-access path.
        """
        l1, l2 = self.l1, self.l2
        l1._changed = l2._changed = None
        lb = self.line_bytes
        n1, n2 = l1.num_sets, l2.num_sets
        a1 = l1.assoc
        a2 = l2.assoc
        # The set/tag splits of the whole block, hoisted out of the scan
        # loop as four bulk array ops (the satellite fix for the seed's
        # per-probe ``line // num_sets`` recomputation).
        arr = np.asarray(addrs, dtype=np.int64)
        lines_np = arr // lb
        line_of = lines_np.tolist()
        s1_of = (lines_np % n1).tolist()
        t1_of = (lines_np // n1).tolist()
        s2_of = (lines_np % n2).tolist()
        t2_of = (lines_np // n2).tolist()
        tags1, dirty1, stamps1, mru1 = l1._tags, l1._dirty, l1._stamps, l1._mru
        tags2, dirty2, stamps2, mru2 = l2._tags, l2._dirty, l2._stamps, l2._mru
        tick1 = l1._tick
        tick2 = l2._tick
        hit1 = l1.hit_latency
        hit12 = hit1 + l2.hit_latency
        miss_lat = hit1 + self.memory_fill_latency
        h1 = m1 = w1 = 0      # L1 hits/misses/writebacks this block
        h2 = m2 = w2 = 0
        n_fills = 0
        latency: list[int] = []
        fill_addr: list[int] = []
        wb_index: list[int] = []
        wb_addr: list[int] = []
        lat_append = latency.append
        fill_append = fill_addr.append
        for i, line in enumerate(line_of):
            is_write = flags[i] & 1
            s1 = s1_of[i]
            t1 = t1_of[i]
            ts1 = tags1[s1]
            # -- L1 probe (MRU slot first) --------------------------------
            slot = mru1[s1]
            if 0 <= slot < len(ts1) and ts1[slot] == t1:
                pass
            elif t1 in ts1:
                slot = ts1.index(t1)
                mru1[s1] = slot
            else:
                slot = -1
            if slot >= 0:
                stamps1[s1][slot] = tick1
                tick1 += 1
                if is_write:
                    dirty1[s1][slot] = True
                h1 += 1
                lat_append(hit1)
                fill_append(-1)
                continue
            m1 += 1
            # -- L2 probe --------------------------------------------------
            s2 = s2_of[i]
            t2 = t2_of[i]
            ts2 = tags2[s2]
            slot = mru2[s2]
            if 0 <= slot < len(ts2) and ts2[slot] == t2:
                pass
            elif t2 in ts2:
                slot = ts2.index(t2)
                mru2[s2] = slot
            else:
                slot = -1
            if slot >= 0:
                stamps2[s2][slot] = tick2
                tick2 += 1
                h2 += 1
                lat_append(hit12)
                fill_append(-1)
            else:
                m2 += 1
                # l2.fill(line, dirty=False): the probe just missed, so
                # the line is known absent.
                if len(ts2) >= a2:
                    st2 = stamps2[s2]
                    vslot = st2.index(min(st2))
                    if dirty2[s2][vslot]:
                        w2 += 1
                        wb_index.append(i)
                        wb_addr.append((ts2[vslot] * n2 + s2) * lb)
                    ts2[vslot] = t2
                    dirty2[s2][vslot] = False
                    st2[vslot] = tick2
                else:
                    vslot = len(ts2)
                    ts2.append(t2)
                    dirty2[s2].append(False)
                    stamps2[s2].append(tick2)
                tick2 += 1
                mru2[s2] = vslot
                lat_append(miss_lat)
                fill_append(line * lb)
                n_fills += 1
            # -- install into L1 (line known absent) -----------------------
            if len(ts1) >= a1:
                st1 = stamps1[s1]
                vslot = st1.index(min(st1))
                if dirty1[s1][vslot]:
                    w1 += 1
                    victim = ts1[vslot] * n1 + s1
                    # Dirty L1 victim folds into L2.
                    sv = victim % n2
                    tv = victim // n2
                    tsv = tags2[sv]
                    vs = mru2[sv]
                    if 0 <= vs < len(tsv) and tsv[vs] == tv:
                        pass
                    elif tv in tsv:
                        vs = tsv.index(tv)
                        mru2[sv] = vs
                    else:
                        vs = -1
                    if vs >= 0:
                        stamps2[sv][vs] = tick2
                        tick2 += 1
                        dirty2[sv][vs] = True
                        h2 += 1
                    else:
                        m2 += 1
                        if len(tsv) >= a2:
                            stv = stamps2[sv]
                            v2 = stv.index(min(stv))
                            if dirty2[sv][v2]:
                                w2 += 1
                                wb_index.append(i)
                                wb_addr.append((tsv[v2] * n2 + sv) * lb)
                            tsv[v2] = tv
                            dirty2[sv][v2] = True
                            stv[v2] = tick2
                        else:
                            v2 = len(tsv)
                            tsv.append(tv)
                            dirty2[sv].append(True)
                            stamps2[sv].append(tick2)
                        tick2 += 1
                        mru2[sv] = v2
                ts1[vslot] = t1
                dirty1[s1][vslot] = bool(is_write)
                stamps1[s1][vslot] = tick1
            else:
                vslot = len(ts1)
                ts1.append(t1)
                dirty1[s1].append(bool(is_write))
                stamps1[s1].append(tick1)
            tick1 += 1
            mru1[s1] = vslot
        l1._tick = tick1
        l2._tick = tick2
        s = l1.stats
        s.hits += h1
        s.misses += m1
        s.writebacks += w1
        s = l2.stats
        s.hits += h2
        s.misses += m2
        s.writebacks += w2
        return BlockTraffic(latency, fill_addr, wb_index, wb_addr, n_fills)

    def flush_line(self, addr: int) -> int | None:
        """CLFLUSH: invalidate everywhere; return writeback address if dirty."""
        line = addr // self.line_bytes
        dirty = False
        for cache in (self.l1, self.l2):
            present, was_dirty = cache.evict(line)
            if present:
                cache.stats.flushes += 1
            dirty = dirty or was_dirty
        return line * self.line_bytes if dirty else None

    def flush_range(self, first_line: int, n: int) -> np.ndarray:
        """CLFLUSH of ``n`` consecutive lines from line ``first_line``.

        Exactly ``n`` :meth:`flush_line` calls in address order (same
        evictions, per-level ``flushes`` counts, MRU resets and recorded
        sets), in one pass per level.  A level lent to a resident copy is
        flushed in the copy, its lists untouched.  Returns the offsets
        ``i`` of the lines ``first_line + i`` that were dirty in either
        level, ascending, as an ``int64`` array.
        """
        dirty = np.zeros(n, dtype=np.int64)
        for cache in (self.l1, self.l2):
            loan = cache._loan
            if loan is not None and first_line >= 0:
                cache.stats.flushes += loan.flush_range(first_line, n, dirty)
                continue
            num_sets = cache.num_sets
            all_tags, all_dirty = cache._tags, cache._dirty
            all_stamps, mru = cache._stamps, cache._mru
            changed = cache._changed
            flushed = 0
            set_index, tag = first_line % num_sets, first_line // num_sets
            for i in range(n):
                tags = all_tags[set_index]
                if tag in tags:
                    slot = tags.index(tag)
                    tags.pop(slot)
                    if all_dirty[set_index].pop(slot):
                        dirty[i] = 1
                    all_stamps[set_index].pop(slot)
                    mru[set_index] = -1
                    if changed is not None:
                        changed.add(set_index)
                    flushed += 1
                set_index += 1
                if set_index == num_sets:
                    set_index = 0
                    tag += 1
            cache.stats.flushes += flushed
        return np.flatnonzero(dirty)

    def llc_misses(self) -> int:
        return self.l2.stats.misses

    def reset_stats(self) -> None:
        self.l1.stats = CacheStats()
        self.l2.stats = CacheStats()
