"""Whole-trace block replay inside the compiled kernel.

The batch entry point (:meth:`~repro.core.smc.SMC.service_pending_kernel`)
still marshals the controller state across the FFI boundary once per
gate; on dependent-load streams the gates are singleton batches and the
marshalling dominates.  This driver removes it: for an eligible
single-core block trace the *entire* replay — the
``Processor._execute_burst_blocks`` loop, the engine's gate closure, the
critical-mode episodes, refresh interleave, and the event-queue
bookkeeping — runs resident in C.  Python is re-entered once per
:class:`~repro.cpu.blocks.AccessBlock` (thousands of accesses) only to
run the cache model and to flush logs, and the controller objects are
loaded/stored exactly once per trace.

Eligibility is the batch kernel's structural gate plus the block-replay
extras (compiled backend, no prefetcher/channel hook, clean MLP window);
any miss records ``smc.kernel_fallback_reason`` and the caller falls
back to the Python gate closure — bit-identical either way.
"""

from __future__ import annotations

import itertools

import numpy as np

from repro.core.events import EventKind
from repro.dram.kernel.state import (
    KERN_OK, KERR_DEADLOCK, KERR_DECODE_RANGE, Cfg, St,
    TBL_STRIDE, VIOL_STRIDE, WRHIT_STRIDE,
)

#: Event-heap headroom (entries) per block on top of the worst-case
#: release pushes: covers every refresh deadline a block could span.
_HEAP_SLACK = 4096


def _arr(n: int):
    return np.zeros(n, dtype=np.int64)


def _grow_keep(arr, need: int):
    """``arr`` grown to at least ``need`` slots, contents preserved."""
    if arr.shape[0] >= need:
        return arr
    new = _arr(max(64, 2 * need))
    new[:arr.shape[0]] = arr
    return new


def _load_cache(ks, hier) -> None:
    """Flatten the two cache levels into the kernel's way arrays.

    Padded ``[set * assoc]`` layout with a live-way count per set; slots
    past the count are never read by the kernel, so they stay stale.
    """
    cfg = ks.cfg
    st = ks.st
    l1, l2 = hier.l1, hier.l2
    cfg[Cfg.C1_SETS] = l1.num_sets
    cfg[Cfg.C1_ASSOC] = l1.assoc
    cfg[Cfg.C1_HIT] = l1.hit_latency
    cfg[Cfg.C2_SETS] = l2.num_sets
    cfg[Cfg.C2_ASSOC] = l2.assoc
    cfg[Cfg.C2_HIT12] = l1.hit_latency + l2.hit_latency
    cfg[Cfg.C_MISS_LAT] = l1.hit_latency + hier.memory_fill_latency
    cfg[Cfg.C_LINE_BYTES] = hier.line_bytes
    for prefix, level, tick_slot in (("c1", l1, St.C1_TICK),
                                     ("c2", l2, St.C2_TICK)):
        sets, assoc = level.num_sets, level.assoc
        if getattr(ks, prefix + "_tags").shape[0] != sets * assoc:
            setattr(ks, prefix + "_tags", _arr(sets * assoc))
            setattr(ks, prefix + "_dirty", _arr(sets * assoc))
            setattr(ks, prefix + "_stamps", _arr(sets * assoc))
            setattr(ks, prefix + "_count", _arr(sets))
            setattr(ks, prefix + "_mru", _arr(sets))
        tags = getattr(ks, prefix + "_tags")
        dirty = getattr(ks, prefix + "_dirty")
        stamps = getattr(ks, prefix + "_stamps")
        count = getattr(ks, prefix + "_count")
        mru = getattr(ks, prefix + "_mru")
        for s, ways in enumerate(level._tags):
            c = len(ways)
            if c:
                base = s * assoc
                tags[base:base + c] = ways
                dirty[base:base + c] = level._dirty[s]
                stamps[base:base + c] = level._stamps[s]
            count[s] = c
        mru[:] = level._mru
        st[tick_slot] = level._tick
    st[St.C1_HITS] = l1.stats.hits
    st[St.C1_MISSES] = l1.stats.misses
    st[St.C1_WB] = l1.stats.writebacks
    st[St.C2_HITS] = l2.stats.hits
    st[St.C2_MISSES] = l2.stats.misses
    st[St.C2_WB] = l2.stats.writebacks
    ks._ptr_table = None


def _store_cache(ks, hier) -> None:
    """Write the kernel's way arrays back into the cache-level lists."""
    st = ks.st
    l1, l2 = hier.l1, hier.l2
    for prefix, level, tick_slot in (("c1", l1, St.C1_TICK),
                                     ("c2", l2, St.C2_TICK)):
        assoc = level.assoc
        tags = getattr(ks, prefix + "_tags").tolist()
        dirty = getattr(ks, prefix + "_dirty").tolist()
        stamps = getattr(ks, prefix + "_stamps").tolist()
        count = getattr(ks, prefix + "_count").tolist()
        mru = getattr(ks, prefix + "_mru").tolist()
        for s in range(level.num_sets):
            c = count[s]
            base = s * assoc
            level._tags[s] = tags[base:base + c]
            level._dirty[s] = [bool(d) for d in dirty[base:base + c]]
            level._stamps[s] = stamps[base:base + c]
        level._mru[:] = mru
        level._tick = int(st[tick_slot])
    l1.stats.hits = int(st[St.C1_HITS])
    l1.stats.misses = int(st[St.C1_MISSES])
    l1.stats.writebacks = int(st[St.C1_WB])
    l2.stats.hits = int(st[St.C2_HITS])
    l2.stats.misses = int(st[St.C2_MISSES])
    l2.stats.writebacks = int(st[St.C2_WB])


def _eligible(proc, smc) -> str | None:
    """Why this trace cannot replay in the kernel, or ``None``."""
    if not hasattr(smc, "_kernel_resolve"):
        return "multi-channel topology"
    ks = smc._kernel_state if smc._kernel_resolved else smc._kernel_resolve()
    if ks is None:
        return smc.kernel_fallback_reason
    if smc.serve_hook is not None:
        return "technique episode (serve hook)"
    if smc.tile.has_requests or len(smc.api.program):
        return "staged tile state pending"
    if proc.prefetcher is not None:
        return "stream prefetcher installed"
    if proc.channel_hook is not None:
        return "multi-channel request routing"
    if proc.outstanding:
        return "MLP window not drained at trace start"
    return None


def run_gated_kernel(engine, session, proc, smc) -> bool:
    """Replay ``proc``'s fed block trace to completion in the kernel.

    Returns ``False`` (nothing touched, reason recorded) when
    ineligible; the caller then runs the Python gate closure.  On
    ``True`` the processor is done and every side effect of the Python
    path — controller state, stats, event queue, request latencies —
    has been applied.
    """
    reason = _eligible(proc, smc)
    if reason is not None:
        if hasattr(smc, "kernel_fallback_reason"):
            smc.kernel_fallback_reason = reason
        return False
    ks = smc._kernel_state
    backend = smc._kernel_backend
    st = ks.st
    cfg = ks.cfg
    mlp = int(cfg[Cfg.MLP])

    if len(smc._device._rows) != int(st[St.NMAT]):
        ks.refresh_materialized()
    ks.load()

    # -- trace-level slots the marshaller does not own -----------------------
    if ks.out_tag.shape[0] < mlp + 2:
        for name in ("out_tag", "out_issue", "out_release", "out_rid"):
            setattr(ks, name, _arr(mlp + 2))
        ks._ptr_table = None
    queue = engine.queue
    heap_len = len(queue._heap)
    if ks.heap.shape[0] < 4 * (heap_len + _HEAP_SLACK):
        ks.heap = _arr(4 * (heap_len + 2 * _HEAP_SLACK))
        ks._ptr_table = None
    heap = ks.heap
    for i, (time, seq, kind, payload) in enumerate(queue._heap):
        base = 4 * i
        heap[base] = time
        heap[base + 1] = seq
        heap[base + 2] = int(kind)
        heap[base + 3] = payload
    st[St.HEAP_LEN] = heap_len
    st[St.QSEQ] = queue._seq
    st[St.PEND_COUNT] = 0
    st[St.OUT_COUNT] = 0
    st[St.LAT_COUNT] = 0
    st[St.DONE] = 0
    st[St.POS] = 0
    st[St.WB_PTR] = 0
    for slot in (St.E_GATES, St.E_RELEASES, St.E_REFRESHES, St.E_BATCHED,
                 St.E_SKIPPED):
        st[slot] = 0
    # The consumed id becomes the first kernel-issued rid; the counter is
    # re-anchored from NEXT_RID after the run, so numbering is seamless.
    st[St.NEXT_RID] = next(proc._rid)
    stats = proc.stats
    st[St.P_CYCLES] = proc.cycles
    st[St.P_ACCESSES] = stats.accesses
    st[St.P_LOADS] = stats.loads
    st[St.P_STORES] = stats.stores
    st[St.P_COMPUTE] = stats.compute_cycles
    st[St.P_STALLS] = stats.stall_cycles
    st[St.P_LLC_MISS] = stats.llc_miss_requests
    st[St.P_WB_REQ] = stats.writeback_requests

    # Resident cache filter: the standard two-level hierarchy runs
    # inside run_block itself (no Python cache scan, no decode-memo
    # prime — the kernel decodes directly).  A subclassed hierarchy
    # keeps the Python filter per block, as does a strict address map
    # whose trace actually goes out of range: the Python path names
    # the prime batch's worst offender, not the first, so the error
    # case must replay through it.  In-range traces cannot differ —
    # a strict cache never holds an out-of-range line (its fill would
    # have raised at install time) — so one max/min scan settles it.
    from repro.cpu.cache import CacheHierarchy
    has_cache = type(proc.hierarchy) is CacheHierarchy
    blocks = proc._blocks
    if has_cache and smc._mapper.strict:
        if not isinstance(blocks, (list, tuple)):
            blocks = list(blocks)   # the feed hands over a generator
            proc._blocks = blocks
        total = smc._mapper._total_bytes
        for block in blocks:
            if block.addr and not 0 <= min(block.addr) <= max(
                    block.addr) < total:
                has_cache = False
                break
    st[St.HAS_CACHE] = 1 if has_cache else 0
    if has_cache:
        _load_cache(ks, proc.hierarchy)

    run_block = backend.run_block
    finish_trace = backend.finish_trace
    access_block = proc.hierarchy.access_block
    latencies = stats.request_latencies

    def flush_logs() -> None:
        count = int(st[St.LAT_COUNT])
        if count:
            latencies.extend(ks.latencies[:count].tolist())
            st[St.LAT_COUNT] = 0
        if int(st[St.VIOL_COUNT]):
            ks.scatter_violations()
        if int(st[St.WRHIT_COUNT]):
            ks.apply_wr_hits()

    err = KERN_OK
    for block in blocks:
        ks.blk_flags = np.asarray(block.flags, dtype=np.int64)
        ks.blk_gap = np.asarray(block.gap, dtype=np.int64)
        n = ks.blk_flags.shape[0]
        if has_cache:
            ks.blk_addr = np.asarray(block.addr, dtype=np.int64)
            if ks.blk_lat.shape[0] < n:
                ks.blk_lat = _arr(n)
                ks.blk_fill = _arr(n)
            # Worst case two writebacks per access (demand L2 eviction
            # plus the dirty-L1-victim fold's own eviction).
            if ks.blk_wbidx.shape[0] < 2 * n + 2:
                ks.blk_wbidx = _arr(2 * n + 2)
                ks.blk_wbaddr = _arr(2 * n + 2)
            nwb = 2 * n + 2
        else:
            traffic = access_block(block.addr, block.flags)
            hook = proc.prime_hook
            if hook is not None and (traffic.n_fills or traffic.wb_addr):
                hook(traffic.fill_addr, traffic.wb_addr)
            ks.blk_lat = np.asarray(traffic.latency, dtype=np.int64)
            ks.blk_fill = np.asarray(traffic.fill_addr, dtype=np.int64)
            ks.blk_wbidx = np.asarray(traffic.wb_index, dtype=np.int64)
            ks.blk_wbaddr = np.asarray(traffic.wb_addr, dtype=np.int64)
            nwb = ks.blk_wbidx.shape[0]
        ks._ptr_table = None
        # Worst-case capacity for this block (overflow inside the kernel
        # is a hard error, never a silent drop).  Logs were flushed after
        # the previous call, so the ensure_* replacements are safe; the
        # pend buffer and heap carry live state and grow preservingly.
        carried = int(st[St.PEND_COUNT])
        created = carried + n + nwb
        if ks.pend_tag.shape[0] < created + 8:
            for name in ("pend_tag", "pend_addr", "pend_flags", "pend_rid",
                         "pend_release"):
                setattr(ks, name, _grow_keep(getattr(ks, name), created + 8))
            ks._ptr_table = None
        pend_cap = ks.pend_tag.shape[0]
        ks.ensure_table(pend_cap)
        ks.ensure_viol(3 * (created + mlp) + 256)
        ks.ensure_wrhit(created + mlp + 64)
        if ks.latencies.shape[0] < n + mlp + 8:
            ks.latencies = _arr(2 * (n + mlp + 8))
            ks._ptr_table = None
        heap_need = 4 * (int(st[St.HEAP_LEN]) + created + _HEAP_SLACK)
        if ks.heap.shape[0] < heap_need:
            ks.heap = _grow_keep(ks.heap, heap_need)
            ks._ptr_table = None
        st[St.PEND_CAP] = pend_cap
        st[St.TBL_CAP] = ks.tbl.shape[0] // TBL_STRIDE
        st[St.VIOL_CAP] = ks.viol.shape[0] // VIOL_STRIDE
        st[St.WRHIT_CAP] = ks.wrhit.shape[0] // WRHIT_STRIDE
        st[St.LAT_CAP] = ks.latencies.shape[0]
        st[St.HEAP_CAP] = ks.heap.shape[0] // 4
        st[St.BLK_N] = n
        st[St.BLK_NWB] = nwb
        st[St.POS] = 0
        st[St.WB_PTR] = 0
        err = int(run_block(ks.pointer_table()))
        flush_logs()
        if err != KERN_OK:
            break
    if err == KERN_OK:
        err = int(finish_trace(ks.pointer_table()))
        flush_logs()

    # -- write everything back (best effort even on error) -------------------
    ks.store()
    if has_cache:
        _store_cache(ks, proc.hierarchy)
    estats = engine.stats
    estats.gates += int(st[St.E_GATES])
    estats.releases += int(st[St.E_RELEASES])
    estats.refreshes += int(st[St.E_REFRESHES])
    estats.batched_episodes += int(st[St.E_BATCHED])
    estats.events_skipped += int(st[St.E_SKIPPED])
    heap_len = int(st[St.HEAP_LEN])
    heap = ks.heap
    queue._heap = [
        (int(heap[4 * i]), int(heap[4 * i + 1]),
         EventKind(int(heap[4 * i + 2])), int(heap[4 * i + 3]))
        for i in range(heap_len)
    ]
    queue._seq = int(st[St.QSEQ])
    proc.cycles = int(st[St.P_CYCLES])
    stats.accesses = int(st[St.P_ACCESSES])
    stats.loads = int(st[St.P_LOADS])
    stats.stores = int(st[St.P_STORES])
    stats.compute_cycles = int(st[St.P_COMPUTE])
    stats.stall_cycles = int(st[St.P_STALLS])
    stats.llc_miss_requests = int(st[St.P_LLC_MISS])
    stats.writeback_requests = int(st[St.P_WB_REQ])
    proc._rid = itertools.count(int(st[St.NEXT_RID]))
    proc._cur = None
    proc._pos = int(st[St.POS])
    proc._wb_ptr = int(st[St.WB_PTR])
    proc.outstanding.clear()

    if err == KERR_DEADLOCK:
        from repro.core.engine import EmulationDeadlock
        raise EmulationDeadlock(
            "processor blocked with no pending memory requests")
    if err == KERR_DECODE_RANGE:
        smc._mapper._check_range(int(st[St.ERR_ADDR]))
        raise AssertionError("decode error did not reproduce")
    if err != KERN_OK:
        raise RuntimeError(f"block kernel failed with error {err}")
    proc._done = True
    return True
