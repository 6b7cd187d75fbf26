"""Resident block replay inside the compiled kernel.

The batch entry point (:meth:`~repro.core.smc.SMC.service_pending_kernel`)
still marshals the controller state across the FFI boundary once per
gate; on dependent-load streams the gates are singleton batches and the
marshalling dominates.  This module removes it: for eligible block
traces the *entire* burst loop — the cores' ``execute_burst``
replays, the round-robin sweeps and gates, the critical-mode episodes
and refresh interleave — runs resident in C (``repro_run_cores``).
Python is re-entered once per :class:`~repro.cpu.blocks.AccessBlock`
per core, to hand that core its next block (running the Python cache
filter only for a non-standard hierarchy) and to flush logs; the
controller, scheduler and cache state is loaded and stored exactly once
per run.

Techniques replay many short traces (PolyBench segments, a RowClone
plan's source-row set-up), so a run's fixed Python cost is kept small:
the slot tables are
``int64`` arrays of buffer addresses, patched in place when a block
arrives; scalar records move as contiguous slices; core 0's first block
is handed over before the first call; and a cache copy that stays lent
to the slot costs O(1) per run (see :class:`_Loan`).

One loop serves both engine entry points: :func:`run_gated_kernel` is
``EventEngine.run_trace``'s single-core replay (the N = 1 case) and
:func:`run_cores_kernel` is ``EventEngine.run_cores``' multi-core one.

:func:`run_rowclone_rows` drives the third resident entry,
``repro_rowclone_rows``: a whole RowClone plan whose CLFLUSHes flush
the same lent cache copy (the hierarchy is lent to core slot 0 before
the call) and whose CPU-fallback rows replay on that slot in the same
loop, each block bound by the kernel from the plan's flat block arrays
(no Python re-entry per block), with the data side applied from the
kernel's logs afterwards.

Eligibility is the batch kernel's structural gate plus the replay
extras (compiled backend, one channel, no serve hook other than the
registry tRCD technique's, no staged tile state, clean MLP windows);
any miss records ``smc.kernel_fallback_reason`` and the caller falls
back to its Python loop — bit-identical either way.
"""

from __future__ import annotations

import functools
import itertools
import weakref

import numpy as np

from repro.cpu.cache import _WAY_LISTS, CacheHierarchy, empty_way_lists
from repro.dram.kernel import cbackend
from repro.dram.kernel.state import (
    KERN_NEED_BLOCK, KERN_NEED_ROOM, KERN_OK, KERR_DEADLOCK,
    KERR_DECODE_RANGE, RC_BANK, RC_BLK0, RC_BLK1, RC_DIRTY0, RC_DIRTY1,
    RC_DST, RC_F0_SIZE, RC_F0_START, RC_F1_SIZE, RC_F1_START,
    RC_LOG_STRIDE, RC_ROW_STRIDE, RC_SRC, RLOG_STRIDE, Cfg, Core, CorePtr,
    St, TBL_STRIDE, VIOL_STRIDE, WRHIT_STRIDE,
)

#: Free pend-buffer entries kept ahead of the open sweep's requests.
_PEND_ROOM = 512

#: The shared pending-request buffers (grown preserving: they carry the
#: open sweep's requests across a block hand-over).
_PEND_LIVE = ("pend_tag", "pend_addr", "pend_flags", "pend_rid",
              "pend_release", "pend_core", "pend_pos")


def _arr(n: int):
    return np.zeros(n, dtype=np.int64)


def _ints(values):
    return np.asarray(values, dtype=np.int64)


def _grow_keep(arr, need: int):
    """``arr`` grown to at least ``need`` slots, contents preserved.

    Regrowth doubles; a first allocation is exact: every system
    allocates its own, and technique ops replay short traces on many
    fresh systems, where doubled buffers would only raise peak memory.
    """
    if arr.shape[0] >= need:
        return arr
    new = _arr(max(64, 2 * need if arr.shape[0] else need))
    new[:arr.shape[0]] = arr
    return new


def _cache_geometry(hier) -> tuple:
    l1, l2 = hier.l1, hier.l2
    return (l1.num_sets, l1.assoc, l1.hit_latency, l2.num_sets, l2.assoc,
            l2.hit_latency, hier.memory_fill_latency, hier.line_bytes)


#: Per cache level: its hierarchy attribute and its way-array prefix
#: (``CoreSlots`` attributes / ``CORE_PTR_FIELDS``).
_LEVELS = (("l1", "c1"), ("l2", "c2"))

#: The core record's cache scalars: both levels' ticks, then each level's
#: hits, misses and writebacks.
_CACHE_SCALARS = slice(Core.C1_TICK, Core.C2_WB + 1)

#: A level's way arrays: ``[set * assoc]`` tags/dirty/stamps, then
#: ``[set]`` live-way count and MRU slot.
_WAY_ARRAYS = ("tags", "dirty", "stamps", "count", "mru")


def _load_sets(level, arrays, sets: list[int] | None) -> None:
    """Copy ``sets`` (``None``: every set) of one level's way lists into
    its way arrays (reading the lists: a level that never built them
    builds them, a lent one is written back).

    Padded ``[set * assoc]`` layout with a live-way count per set; slots
    past the count are never read by the kernel, so they stay stale.
    """
    tags, dirty, stamps, count, mru = arrays
    if sets is None:
        index = slice(None)
        base = np.arange(0, level.num_sets * level.assoc, level.assoc)
        set_tags, set_dirty = level._tags, level._dirty
        set_stamps, set_mru = level._stamps, level._mru
    else:
        index = sets
        base = np.asarray(sets, dtype=np.int64) * level.assoc
        set_tags = [level._tags[s] for s in sets]
        set_dirty = [level._dirty[s] for s in sets]
        set_stamps = [level._stamps[s] for s in sets]
        set_mru = [level._mru[s] for s in sets]
    counts = np.fromiter(map(len, set_tags), np.int64, len(set_tags))
    count[index] = counts
    mru[index] = set_mru
    live = int(counts.sum())
    if live:
        # Slot of each live way, in set order: way k of the j-th set sits
        # at base[j] + k, i.e. its live index shifted per set.
        where = np.arange(live) + np.repeat(base - np.cumsum(counts) + counts,
                                            counts)
        chain = itertools.chain.from_iterable
        tags[where] = np.fromiter(chain(set_tags), np.int64, live)
        dirty[where] = np.fromiter(chain(set_dirty), np.int64, live)
        stamps[where] = np.fromiter(chain(set_stamps), np.int64, live)


def _load_cache(ks, index: int, hier) -> None:
    """Bring core ``index``'s resident copy of ``hier`` up to date.

    The way arrays persist between replays as the hierarchy's resident
    copy.  When this slot synced ``hier`` last, each level reloads only
    the sets Python changed since (``Cache._changed``: CLFLUSH
    evictions; a level still lent to this copy changed nothing);
    otherwise, or after any other Python-side mutation, the level is
    flattened whole -- except a level that never built its way lists
    (nor lent them): it is empty, so only its live-way counts (0) and
    MRU slots (-1) are set, with no per-set work.  A hierarchy still
    lent to the slot is written back before the slot is overwritten.
    Ticks and stats are scalars, read every call.
    """
    slots = ks.cores[index]
    current = (slots.cache_owner == hier.token
               and hier.resident == slots.token)
    lender = slots.lender() if slots.lender is not None else None
    if lender is not None and not (lender is hier and current):
        _reclaim(lender)
    for attr, prefix in _LEVELS:
        level = getattr(hier, attr)
        changed = level._changed
        if current and changed is not None:
            if not changed:
                continue
            _load_sets(level, _way_arrays(slots, prefix), sorted(changed))
        else:
            arrays = _way_arrays(slots, prefix)
            sets, assoc = level.num_sets, level.assoc
            if arrays[0].shape[0] != sets * assoc:
                for i, name in enumerate(_WAY_ARRAYS):
                    arrays[i] = _arr(sets * assoc if i < 3 else sets)
                    field = getattr(CorePtr, f"{prefix}_{name}".upper())
                    ks.set_core_array(index, field, arrays[i])
            if level._loan is None and "_tags" not in level.__dict__:
                _, _, _, count, mru = arrays
                count.fill(0)
                mru.fill(-1)
            else:
                _load_sets(level, arrays, None)
        level._changed = set()
    l1, l2 = hier.l1, hier.l2
    s1, s2 = l1.stats, l2.stats
    slots.st[_CACHE_SCALARS] = (l1._tick, l2._tick, s1.hits, s1.misses,
                                s1.writebacks, s2.hits, s2.misses,
                                s2.writebacks)
    slots.cache_owner = hier.token
    hier.resident = slots.token


def _way_arrays(slots, prefix: str) -> list:
    """One level's way arrays in a core slot, in ``_WAY_ARRAYS`` order."""
    return [getattr(slots, f"{prefix}_{name}") for name in _WAY_ARRAYS]


class _Loan:
    """One cache level's way lists, lent to a core slot's resident copy.

    The copy's way arrays are authoritative while the level holds a loan
    (``Cache._loan``).  ``lists`` is the level's way lists, or ``None``
    for a level that never built them (the copy then started from empty
    sets).  ``since`` is the level's tick when the loan began: the kernel
    stamps every way it probes or fills with the level's running tick
    (and only moves a set's MRU slot when it stamps it), so the sets any
    replay changed under the loan are those with a stamp at or past
    ``since``; CLFLUSH on the copy marks the sets it changes in
    ``flushed`` (a flush can remove a set's only recent way).
    :meth:`write_back` works the touched sets out once, rebuilds just
    those (into empty lists built there, if the level had none) and
    returns the lists to the level -- on the first Python read of them,
    or before the slot is overwritten.  :meth:`flush_range` is
    ``CacheHierarchy.flush_range`` applied to the arrays.  A copy (deep
    copy or pickle) owns copies of the arrays.
    """

    #: What a copy takes: not the bound C entry, which holds raw
    #: addresses of these very arrays (a copy binds its own on first use).
    _STATE = ("sets", "assoc", "arrays", "lists", "since", "flushed")
    __slots__ = (*_STATE, "_flush")

    def __init__(self, level, arrays: list) -> None:
        # No reference back to the level: a cycle would leave freeing the
        # level and the arrays to the cyclic garbage collector.
        self.sets, self.assoc = level.num_sets, level.assoc
        self.arrays = arrays
        state = level.__dict__
        self.lists = (tuple(state.pop(name) for name in _WAY_LISTS)
                      if "_tags" in state else None)
        self.since = level._tick
        self.flushed = _arr(self.sets)
        self._flush = None
        level._loan = self

    def __getstate__(self) -> dict:
        return {name: getattr(self, name) for name in self._STATE}

    def __setstate__(self, state: dict) -> None:
        for name, value in state.items():
            setattr(self, name, value)
        self._flush = None

    def write_back(self, level) -> None:
        """Rebuild the touched sets' lists and return them to ``level``.

        (Slots past a set's live count only ever hold stamps from before
        the loan, or ways a flush on the copy removed from that very
        set; a spurious match would merely rebuild a set from arrays
        that equal its lists.)
        """
        sets, assoc = self.sets, self.assoc
        tags, dirty, stamps, count, mru = self.arrays
        if self.lists is None:
            self.lists = empty_way_lists(sets)
        set_tags, set_dirty, set_stamps, set_mru = self.lists
        size = sets * assoc
        touched = np.flatnonzero(
            (stamps[:size].reshape(sets, assoc).max(axis=1) >= self.since)
            | (self.flushed != 0))
        if touched.size:
            for s, c, m, row_tags, row_dirty, row_stamps in zip(
                    touched.tolist(), count[touched].tolist(),
                    mru[touched].tolist(),
                    tags[:size].reshape(sets, assoc)[touched].tolist(),
                    (dirty[:size].reshape(sets, assoc)[touched]
                     != 0).tolist(),
                    stamps[:size].reshape(sets, assoc)[touched].tolist()):
                if c < assoc:
                    row_tags = row_tags[:c]
                    row_dirty = row_dirty[:c]
                    row_stamps = row_stamps[:c]
                set_tags[s] = row_tags
                set_dirty[s] = row_dirty
                set_stamps[s] = row_stamps
                set_mru[s] = m
        level._loan = None
        for name, value in zip(_WAY_LISTS, self.lists):
            setattr(level, name, value)

    def flush_range(self, first_line: int, n: int, dirty) -> int:
        """CLFLUSH lines ``first_line ..+ n`` in the arrays: sets
        ``dirty[i]`` for each dirty line ``first_line + i`` and returns
        the number of lines flushed."""
        if self._flush is None:
            # The C entry takes raw addresses, bound once per loan.
            self._flush = functools.partial(
                cbackend.load()[0].flush_lines,
                *(a.ctypes.data for a in self.arrays),
                self.flushed.ctypes.data, self.sets, self.assoc)
        return self._flush(first_line, n, dirty.ctypes.data)


def _lend_cache(slots, hier) -> None:
    """After a replay: the way arrays become ``hier``'s authoritative copy.

    Each level's lists are lent to the slot, or stay lent: the loan
    works out which sets changed only when it is written back, so this
    is O(1) per replay.  Ticks and stats are written back now.
    """
    l1, l2 = hier.l1, hier.l2
    for attr, prefix in _LEVELS:
        level = getattr(hier, attr)
        if level._loan is None:
            _Loan(level, _way_arrays(slots, prefix))
        level._changed = set()
    s1, s2 = l1.stats, l2.stats
    (l1._tick, l2._tick, s1.hits, s1.misses, s1.writebacks, s2.hits,
     s2.misses, s2.writebacks) = slots.st[_CACHE_SCALARS].tolist()
    slots.lender = weakref.ref(hier)


def _reclaim(hier) -> None:
    """Return every lent way list of ``hier`` (writing the copy back)."""
    for level in (hier.l1, hier.l2):
        if level._loan is not None:
            level._loan.write_back(level)


class _Feed:
    """One core of the run: its processor, block stream and slot record."""

    def __init__(self, ks, index: int, proc, mapper,
                 cache_geometry: tuple | None) -> None:
        self.ks = ks
        self.index = index
        self.proc = proc
        slots = self.slots = ks.cores[index]
        rec = self.rec = slots.st
        stats = proc.stats
        self.latencies = stats.request_latencies
        # The consumed id becomes the first kernel-issued rid (NEXT_RID);
        # the counter is re-anchored from it after the run, so numbering
        # is seamless.
        rec[Core.DONE:Core.WB_REQ + 1] = (
            proc._done, proc.core_id, 0, next(proc._rid), proc.cycles,
            stats.accesses, stats.loads, stats.stores, stats.compute_cycles,
            stats.stall_cycles, stats.llc_miss_requests,
            stats.writeback_requests)
        mlp = int(ks.cfg[Cfg.MLP])
        self.mlp = mlp
        if slots.out_tag.shape[0] < mlp + 2:
            for field in (CorePtr.OUT_TAG, CorePtr.OUT_ISSUE,
                          CorePtr.OUT_RELEASE, CorePtr.OUT_RID):
                ks.set_core_array(index, field, _arr(mlp + 2))
        self._lat_room(mlp)

        # Resident cache filter: the standard two-level hierarchy runs
        # inside the kernel itself (no Python cache scan, no decode-memo
        # prime — the kernel decodes directly).  A subclassed or
        # differently shaped hierarchy keeps the Python filter per block
        # (see hand_over for strict maps).
        hier = proc.hierarchy
        self.has_cache = (type(hier) is CacheHierarchy
                          and _cache_geometry(hier) == cache_geometry)
        self.strict_total = mapper._total_bytes if mapper.strict else None
        self.blocks = iter(proc._blocks)
        if self.has_cache:
            _load_cache(ks, index, hier)

    def _lat_room(self, accesses: int) -> None:
        need = accesses + self.mlp + 8
        if self.slots.latencies.shape[0] < need:
            self.ks.set_core_array(self.index, CorePtr.LATENCIES,
                                   _arr(max(64, 2 * need)))
        self.rec[Core.LAT_CAP] = self.slots.latencies.shape[0]

    def _filter_room(self, n: int) -> None:
        """The resident filter's per-access scratch for ``n``-access
        blocks."""
        slots, index = self.slots, self.index
        set_array = self.ks.set_core_array
        if slots.blk_lat.shape[0] < n:
            set_array(index, CorePtr.BLK_LAT, _arr(n))
            set_array(index, CorePtr.BLK_FILL, _arr(n))
        # Worst case two writebacks per access (demand L2 eviction plus
        # the dirty-L1-victim fold's own eviction).
        if slots.blk_wbidx.shape[0] < 2 * n + 2:
            set_array(index, CorePtr.BLK_WBIDX, _arr(2 * n + 2))
            set_array(index, CorePtr.BLK_WBADDR, _arr(2 * n + 2))

    def bind_blocks(self, blocks) -> None:
        """Bind a RowClone plan's flat fallback block arrays
        (:func:`rowclone_table`) to the slot.

        ``repro_rowclone_rows`` binds each block as an offset into them
        (``BLK_BASE``) where :meth:`hand_over` would load it; the filter
        scratch and the latency log hold the longest block (the kernel
        asks for room before binding a block the log cannot take).
        """
        flags, gap, addr, starts = blocks
        set_array = self.ks.set_core_array
        set_array(self.index, CorePtr.BLK_FLAGS, flags)
        set_array(self.index, CorePtr.BLK_GAP, gap)
        set_array(self.index, CorePtr.BLK_ADDR, addr)
        longest = int(np.diff(starts).max())
        self._filter_room(longest)
        self._lat_room(longest)
        self.ks.set_array("rc_blocks", starts)

    def _load_block(self, block, traffic) -> None:
        """Install ``block`` (with its Python-filtered ``traffic``, or
        ``None`` for the resident filter) as the core's current block,
        cursor at its start."""
        index, rec = self.index, self.rec
        set_array = self.ks.set_core_array
        # The block's own int64 arrays, no copy: the kernel only reads
        # them (``const int64_t *``), so shared blocks stay unchanged.
        n = len(block)
        set_array(index, CorePtr.BLK_FLAGS, block.flags)
        set_array(index, CorePtr.BLK_GAP, block.gap)
        if traffic is None:
            set_array(index, CorePtr.BLK_ADDR, block.addr)
            self._filter_room(n)
            nwb, fresh = 0, 1    # the kernel's filter counts them
        else:
            set_array(index, CorePtr.BLK_LAT, _ints(traffic.latency))
            set_array(index, CorePtr.BLK_FILL, _ints(traffic.fill_addr))
            set_array(index, CorePtr.BLK_WBIDX, _ints(traffic.wb_index))
            set_array(index, CorePtr.BLK_WBADDR, _ints(traffic.wb_addr))
            nwb, fresh = len(traffic.wb_index), 0
        # BLK_N, BLK_NWB, POS, WB_PTR, HAS_BLOCK, EXHAUSTED, FRESH, BLK_BASE
        rec[Core.BLK_N:Core.BLK_BASE + 1] = (n, nwb, 0, 0, 1, 0, fresh, 0)
        self._lat_room(n)

    def hand_over(self) -> None:
        """Give the core its next block (the burst loop's block fetch)."""
        block = next(self.blocks, None)
        if block is None:
            self.rec[Core.EXHAUSTED] = 1
            return
        proc = self.proc
        total = self.strict_total
        addr = block.addr
        if (self.has_cache and total is not None and len(addr)
                and not 0 <= int(addr.min()) <= int(addr.max()) < total):
            # A strict address map whose trace goes out of range: the
            # Python path names the prime batch's worst offender, not
            # the first, so this block and the rest filter in Python,
            # from the synced cache state.  In-range blocks cannot
            # differ — a strict cache never holds an out-of-range line
            # (its fill would have raised at install time).
            _lend_cache(self.slots, proc.hierarchy)
            self.has_cache = False
        if self.has_cache:
            self._load_block(block, None)
            return
        traffic = proc.hierarchy.access_block(block.addr,
                                              block.flags.tolist())
        hook = proc.prime_hook
        if hook is not None and (traffic.n_fills or traffic.wb_addr):
            hook(traffic.fill_addr, traffic.wb_addr)
        self._load_block(block, traffic)

    def flush_latencies(self) -> None:
        """Append the kernel's request-latency buffer to the processor's
        ``int64`` log: one memory copy, no Python int per request."""
        count = int(self.rec[Core.LAT_COUNT])
        if count:
            self.latencies.frombytes(
                self.slots.latencies[:count].data.cast("B"))
            self.rec[Core.LAT_COUNT] = 0

    def store(self) -> None:
        """Write the core's processor and cache state back."""
        proc = self.proc
        stats = proc.stats
        v = self.rec.tolist()
        (proc.cycles, stats.accesses, stats.loads, stats.stores,
         stats.compute_cycles, stats.stall_cycles, stats.llc_miss_requests,
         stats.writeback_requests) = v[Core.CYCLES:Core.WB_REQ + 1]
        proc._rid = itertools.count(v[Core.NEXT_RID])
        proc._cur = None
        proc._pos = v[Core.POS]
        proc._wb_ptr = v[Core.WB_PTR]
        proc._blocks = self.blocks
        proc.outstanding.clear()
        proc._done = bool(v[Core.DONE])
        if self.has_cache:
            _lend_cache(self.slots, proc.hierarchy)


def _eligible(procs, smc) -> str | None:
    """Why these cores cannot replay in the kernel, or ``None``."""
    if not hasattr(smc, "_kernel_resolve"):
        return "multi-channel topology"
    ks = smc._kernel_state if smc._kernel_resolved else smc._kernel_resolve()
    if ks is None:
        return smc.kernel_fallback_reason
    if smc.serve_hook is not None and ks.technique is None:
        return "technique episode (serve hook)"
    if smc.tile.has_requests or len(smc.api.program):
        return "staged tile state pending"
    for proc in procs:
        if proc.channel_hook is not None:
            return "multi-channel request routing"
        if proc.outstanding:
            return "MLP window not drained at trace start"
        if proc._cur is not None:
            return "block replay already in progress"
    return None


def run_gated_kernel(engine, session, proc, smc) -> bool:
    """Replay ``proc``'s fed block trace to completion in the kernel.

    ``EventEngine.run_trace``'s entry: the single-core (N = 1) case of
    the resident replay.  Returns ``False`` (nothing touched, reason
    recorded) when ineligible; the caller then runs its Python burst
    loop.  On ``True`` the processor is done and every side effect of
    that loop — controller state, stats, request latencies — has been
    applied.
    """
    return _replay(engine, [proc], smc)


def run_cores_kernel(engine, session, procs, smc) -> bool:
    """Drive the fed, runnable ``procs`` to completion in the kernel.

    ``EventEngine.run_cores``' entry, with the same contract as
    :func:`run_gated_kernel`: ``False`` leaves everything untouched for
    the Python burst loop; ``True`` means every core is done and every
    side effect of that loop has been applied.
    """
    return _replay(engine, procs, smc)


def _replay(engine, procs, smc) -> bool:
    reason = _eligible(procs, smc)
    if reason is not None:
        smc.kernel_fallback_reason = reason
        return False
    ks = smc._kernel_state
    st = ks.st
    n = len(procs)
    if len(smc._device._rows) != int(st[St.NMAT]):
        ks.refresh_materialized()
    ks.load(max(proc.core_id for proc in procs))

    st[St.PEND_COUNT] = 0
    # ACTIVE_N, SWEEP, SWEEP_N, SWEEP_POS, SWEEP_FINISHED
    st[St.ACTIVE_N:St.SWEEP_FINISHED + 1] = (n, 0, 0, 0, 0)
    st[St.E_GATES:St.E_BATCHED + 1] = 0

    ks.bind_cores(n)
    ks.active[:n] = range(n)
    mapper = smc._mapper
    geometry = next((_cache_geometry(proc.hierarchy) for proc in procs
                     if type(proc.hierarchy) is CacheHierarchy), None)
    if geometry is not None:
        _set_cache_geometry(ks, geometry)
    feeds = [_Feed(ks, i, proc, mapper, geometry)
             for i, proc in enumerate(procs)]

    run_cores = smc._kernel_backend.run_cores
    err = KERN_OK
    try:
        _make_room(ks)
        # The first sweep starts at core 0, whose first act is to ask for
        # its first block: hand it over before the first call.
        feeds[0].hand_over()
        while True:
            err = run_cores(ks.pointer_table(), ks.core_pointer_table())
            for feed in feeds:
                feed.flush_latencies()
            if st[St.VIOL_COUNT]:
                ks.scatter_violations()
            if st[St.RLOG_COUNT]:
                ks.check_reduced_reads()
            if st[St.WRHIT_COUNT]:
                ks.apply_wr_hits()
            if err == KERN_NEED_BLOCK:
                feeds[st[St.NEED_CORE]].hand_over()
            elif err == KERN_NEED_ROOM:
                _make_room(ks)
            else:
                break
    finally:
        # Write everything back (best effort on an error, too).
        ks.store()
        for feed in feeds:
            feed.store()
        gates, releases, batched = st[St.E_GATES:St.E_BATCHED + 1].tolist()
        estats = engine.stats
        estats.gates += gates
        estats.releases += releases
        estats.batched_episodes += batched

    if err == KERR_DEADLOCK:
        from repro.core.engine import DEADLOCK_MESSAGE, EmulationDeadlock
        raise EmulationDeadlock(DEADLOCK_MESSAGE)
    if err == KERR_DECODE_RANGE:
        mapper._check_range(int(st[St.ERR_ADDR]))
        raise AssertionError("decode error did not reproduce")
    if err != KERN_OK:
        raise RuntimeError(f"resident replay kernel failed with error {err}")
    return True


def _set_cache_geometry(ks, geometry: tuple) -> None:
    """The resident cache filter's geometry and latencies in ``cfg``."""
    sets1, assoc1, hit1, sets2, assoc2, hit2, fill, line = geometry
    # C1_SETS, C1_ASSOC, C1_HIT, C2_SETS, C2_ASSOC, C2_HIT12,
    # C_MISS_LAT, C_LINE_BYTES
    ks.cfg[Cfg.C1_SETS:Cfg.C_LINE_BYTES + 1] = (
        sets1, assoc1, hit1, sets2, assoc2, hit1 + hit2, hit1 + fill, line)


def rowclone_table(rows) -> tuple:
    """The ``int64`` row table (``RC_ROW_STRIDE`` records, see
    :mod:`~repro.dram.kernel.state`) of ``(bank, src_row, dst_row,
    ranges, blocks)`` plan rows, ``ranges`` up to two ``(start, size)``
    CLFLUSH ranges and ``blocks`` ``None`` (a RowClone row) or a CPU
    fallback row's :class:`~repro.cpu.blocks.AccessBlock` iterable (read
    once).

    Returns ``(table, blocks)``: ``blocks`` is ``None`` when no row falls
    back, else the fallback blocks as flat ``(flags, gap, addr, starts)``
    arrays, block ``b`` at ``[starts[b], starts[b + 1])``, each row's
    blocks named by its ``RC_BLK0 .. RC_BLK1``.
    """
    records = []
    chunks: list = []
    for bank, src_row, dst_row, ranges, blocks in rows:
        record = [0] * RC_ROW_STRIDE
        record[RC_F0_SIZE] = record[RC_F1_SIZE] = -1   # no flush
        record[RC_BANK], record[RC_SRC], record[RC_DST] = (
            bank, src_row, dst_row)
        for (start, size), (at_start, at_size) in zip(
                ranges, ((RC_F0_START, RC_F0_SIZE),
                         (RC_F1_START, RC_F1_SIZE))):
            record[at_start], record[at_size] = start, size
        if blocks is None:
            record[RC_BLK0] = -1
        else:
            record[RC_BLK0] = len(chunks)
            chunks.extend(blocks)
            record[RC_BLK1] = len(chunks)
        records.append(record)
    table = np.array(records, dtype=np.int64).reshape(-1, RC_ROW_STRIDE)
    if not chunks:
        return table, None
    starts = _arr(len(chunks) + 1)
    np.cumsum([len(block) for block in chunks], out=starts[1:])
    flat = (np.concatenate([block.flags for block in chunks]),
            np.concatenate([block.gap for block in chunks]),
            np.concatenate([block.addr for block in chunks]))
    return table, (*flat, starts)


def run_rowclone_rows(engine, smc, proc, table, blocks,
                      finished: list) -> None:
    """Run a whole RowClone plan in one kernel call (entered again only
    when a log or buffer runs short, see ``repro_rowclone_rows``).

    ``SoftwareMemoryController.rowclone_rows_kernel``'s marshalling:
    ``table`` and ``blocks`` are :func:`rowclone_table`'s, ``proc`` core
    0's processor and ``engine`` its session's event engine.  When a row
    flushes or falls back, ``proc``'s hierarchy is lent to core slot 0
    before the call (the state a replay leaves), so
    ``repro_rowclone_rows`` flushes the resident copy as
    ``_Loan.flush_range`` does and replays each fallback row's blocks
    through it as :func:`run_gated_kernel` does, with the processor's
    record set up once for the plan (:class:`_Feed`) and the flat block
    arrays bound to the slot.  Request latencies and the logs are
    flushed on every return.  After the call everything is written back
    once: the controller state, the processor, the cache's ticks, stats
    and flush counts, the engine's gate counts, the violations, and the
    data side (WR hits and RowClone copies in issue order).  Each row
    that counted appends its ranges' dirty-line counts to ``finished``
    -- a RowClone row once its episode finished, a fallback row once
    its replay began (where ``RowCloneTechnique`` counts it) -- also
    when an error stops the run (then raised).
    """
    ks = smc._kernel_state
    st = ks.st
    n = table.shape[0]
    hier = proc.hierarchy
    line = hier.line_bytes
    sizes = table[:, (RC_F0_SIZE, RC_F1_SIZE)]
    flushing = sizes >= 0
    most = 0
    if flushing.any():
        starts = table[:, (RC_F0_START, RC_F1_START)]
        lines = np.where(flushing, -(-(starts % line + sizes) // line), 0)
        most = int(lines.sum(axis=1).max())
    feed = None
    core_table = 0
    if flushing.any() or blocks is not None:
        geometry = _cache_geometry(hier)
        _set_cache_geometry(ks, geometry)
        if blocks is not None:
            ks.bind_cores(1)
            feed = _Feed(ks, 0, proc, smc._mapper, geometry)
            feed.bind_blocks(blocks)
        else:
            if not ks._ncores:
                ks.bind_cores(1)
            _load_cache(ks, 0, hier)
        _lend_cache(ks.cores[0], hier)
        ks.set_array("rc_flushed1", hier.l1._loan.flushed)
        ks.set_array("rc_flushed2", hier.l2._loan.flushed)
        if ks.rc_dirty.shape[0] < most:
            ks.set_array("rc_dirty", _arr(max(64, most)))
        ks.ensure_requests(most)
        core_table = ks.core_pointer_table()
    ks.set_array("rc_rows", table)
    # The logs hold at least one row's worst case (see kernel.c); the
    # kernel asks for room at a row boundary when the rest runs short.
    ks.ensure_viol(3 * most + 68)
    ks.ensure_wrhit(most + 16)
    if ks.rc_log.shape[0] < RC_LOG_STRIDE * 2 * n:
        ks.set_array("rc_log", _arr(RC_LOG_STRIDE * max(64, 2 * n)))
    if len(smc._device._rows) != int(st[St.NMAT]):
        ks.refresh_materialized()
    ks.reserve_materialized(4 * n)
    if feed is not None:
        st[St.PEND_COUNT] = 0
        _make_room(ks)
        st[St.E_GATES:St.E_BATCHED + 1] = 0
    ks.load(0)
    stats = proc.stats
    st[St.RC_N:St.RC_BLOCK + 1] = (
        n, 0, 0, ks.rc_log.shape[0] // RC_LOG_STRIDE, ks.mat_buf.shape[0],
        proc.cycles, stats.stall_cycles, proc.config.flush_latency, line,
        0, 0, 0, 0)
    entry = smc._kernel_backend.rowclone_rows
    try:
        while True:
            err = entry(ks.pointer_table(), core_table)
            if feed is not None:
                feed.flush_latencies()
            ks.scatter_violations()
            ks.check_reduced_reads()
            ks.apply_rowclone_log()
            if err != KERN_NEED_ROOM:
                break
            if feed is not None:
                _make_room(ks)
    finally:
        # Write everything back (best effort on an error, too).
        ks.store()
        (done, replaying, cycles, stall, flushes1,
         flushes2) = st[[St.RC_DONE, St.RC_REPLAYING, St.RC_CYCLES,
                         St.RC_STALLS, St.RC_FLUSHES1,
                         St.RC_FLUSHES2]].tolist()
        counted = table[:done + replaying]
        if feed is not None:
            if (counted[:, RC_BLK0] >= 0).any():
                # A replay ran: the processor's stream is the last
                # fallback trace, drained.
                feed.blocks = iter(())
            feed.store()
            # The flat block arrays are this plan's: the slot (which
            # lives as long as the system) does not keep them.
            for field in (CorePtr.BLK_FLAGS, CorePtr.BLK_GAP,
                          CorePtr.BLK_ADDR):
                ks.set_core_array(0, field, _arr(0))
            gates, releases, batched = \
                st[St.E_GATES:St.E_BATCHED + 1].tolist()
            estats = engine.stats
            estats.gates += gates
            estats.releases += releases
            estats.batched_episodes += batched
        proc.cycles = cycles
        stats.stall_cycles = stall
        hier.l1.stats.flushes += flushes1
        hier.l2.stats.flushes += flushes2
        clones = int(np.count_nonzero(table[:done, RC_BLK0] < 0))
        smc.stats.technique_ops += clones
        smc._tile_stats.technique_ops += clones
        if clones:
            smc.api.last_exec = smc._fpm_result()
        finished.extend(
            (d0, d1)[:(s0 >= 0) + (s1 >= 0)]
            for s0, s1, d0, d1 in counted[
                :, (RC_F0_SIZE, RC_F1_SIZE, RC_DIRTY0, RC_DIRTY1)].tolist())
    if err == KERR_DEADLOCK:
        from repro.core.engine import DEADLOCK_MESSAGE, EmulationDeadlock
        raise EmulationDeadlock(DEADLOCK_MESSAGE)
    if err == KERR_DECODE_RANGE:
        smc._mapper._check_range(int(st[St.ERR_ADDR]))
        raise AssertionError("decode error did not reproduce")
    if err != KERN_OK:
        raise RuntimeError(f"RowClone rows kernel failed with error {err}")


def _make_room(ks) -> None:
    """Size the shared buffers (before the first call, and whenever the
    kernel returns ``KERN_NEED_ROOM``).

    The pend buffer stays ``_PEND_ROOM`` entries ahead of the open
    sweep's requests; it carries live state, so it grows preservingly.
    The logs were flushed after the call, so they are sized for a gate
    over a full pend buffer — overflow inside the kernel stays a hard
    error, never a silent drop.
    """
    st = ks.st
    need = int(st[St.PEND_COUNT]) + _PEND_ROOM
    if ks.pend_tag.shape[0] < need:
        for name in _PEND_LIVE:
            setattr(ks, name, _grow_keep(getattr(ks, name), need))
        cap = ks.pend_tag.shape[0]
        ks.pend_order = _arr(cap)
        ks.pend_scratch = _arr(cap)
        ks._ptr_table = None
    cap = ks.pend_tag.shape[0]
    ks.ensure_requests(cap)
    ks.ensure_table(cap)
    ks.ensure_viol(3 * cap + 256)
    ks.ensure_wrhit(cap + 64)
    ks.ensure_rlog(cap + 64)
    st[St.PEND_CAP] = cap
    st[St.TBL_CAP] = ks.tbl.shape[0] // TBL_STRIDE
    st[St.VIOL_CAP] = ks.viol.shape[0] // VIOL_STRIDE
    st[St.WRHIT_CAP] = ks.wrhit.shape[0] // WRHIT_STRIDE
    st[St.RLOG_CAP] = ks.rlog.shape[0] // RLOG_STRIDE
