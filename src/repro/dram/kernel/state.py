"""Struct-of-arrays export of the SMC serve state for the batch kernel.

The kernel executes whole critical-mode episodes outside Python, so every
piece of state the serve loop reads or writes must cross the boundary as
flat ``int64`` storage.  This module is the single source of truth for
that layout:

* :data:`CFG_FIELDS` — run-constant scalars (timing parameters, cost
  model charges, decode geometry, rank topology, scheduler kind and
  parameters).  Compiled into the C backend as ``#define`` constants
  and into the :class:`Cfg` / :class:`St` / :class:`Ptr` index
  namespaces the Python marshalling uses, so the two sides can never
  disagree about the layout.
* :data:`ST_FIELDS` — mutable scalars (cursors, counters, statistics,
  scheduler counters).  Loaded from the live objects before a kernel
  call and stored back after; the object state remains authoritative
  between calls.
* :data:`PTR_FIELDS` — the array slot table.  A kernel entry point
  receives one ``int64*[]`` indexed by these names, covering the
  per-bank timing arrays, the per-rank tFAW windows, the per-core
  scheduler table, the memoized plans, the request batch, the
  violation logs and the resident replay's per-core records, active
  list and pending-request buffers.
* :data:`CORE_FIELDS` / :data:`CORE_PTR_FIELDS` — the resident replay's
  per-core slots: one scalar record per core (block cursor, processor
  counters, cache-filter ticks and stats) and a second ``int64*[]``
  table with each core's block buffers, MLP window, latency log and
  L1/L2 way arrays.
* the RowClone-rows entry's table and logs (``RC_*``): one record per
  plan row (CLFLUSH ranges and the FPM op, :data:`RC_ROW_STRIDE`), the
  attempt log whose records carry the WR-hit log's fill so the driver
  can apply both in issue order (:meth:`KernelState.apply_rowclone_log`),
  and the materialized-row keys kept with spare capacity
  (``mat_buf``) so the kernel can insert the rows a call materializes.

:class:`KernelState` owns the arrays and the load/store marshalling; it
is deliberately dumb — every formula lives in ``kernel.c``, this file
only moves values.
"""

from __future__ import annotations

import itertools

import numpy as np

from repro.dram.bank import NEVER
from repro.dram.commands import Command, CommandKind
from repro.dram.flat_timing import KIND_NAMES
from repro.dram.timing_checker import ViolationRecord

#: Run-constant scalar slots (``cfg[]``).
CFG_FIELDS = (
    # timing parameters (ps)
    "TCK", "TRCD", "TCCD_S", "TCCD_L", "TWTR", "TRC", "TRP",
    "TRRD_S", "TRRD_L", "TRAS", "TRTP", "TWR", "TFAW", "TRFC",
    "LAT_RD", "LAT_WR", "WRITE_BURST",
    # clock domains / bus charges (ps except the cycle counts)
    "PROC_PERIOD", "MC_PERIOD", "REQ_BUS", "RESP_BUS",
    "OCCUPANCY", "PIPELINED",
    # cost model (controller cycles)
    "RECEIVE_CHARGE", "INSERT_CHARGE", "TOGGLE", "DECISION_BASE",
    "DECISION_PER",
    # scheduler: SCHED_KIND is a SCHED_CODES value; AGE_CAP < 0 =
    # uncapped; QUANTUM (ATLAS), BL_THRESHOLD/BL_CLEAR (BLISS) and
    # BATCH_CAP (batch) are the stateful policies' parameters
    "SCHED_KIND", "AGE_CAP", "QUANTUM", "BL_THRESHOLD", "BL_CLEAR",
    "BATCH_CAP",
    # refresh cadence
    "REFRESH_ENABLED", "REFRESH_INTERVAL", "STORM_FACTOR",
    "REF_CYCLES", "REF_OFFSET", "REF_MEASURED",
    # topology (banks are rank-major: rank r owns BANKS_PER_RANK banks)
    "NBANKS", "NGROUPS", "FAW_CAP", "NRANKS", "BANKS_PER_RANK", "TCS",
    # per-core attribution
    "HAS_TRACKER", "NCORES",
    # address decode (mirrors AddressMapper)
    "STRICT_DECODE", "LINE_BYTES", "TOTAL_BYTES", "COLUMNS", "ROWS",
    "DEC_BANKS", "ROW_MAJOR", "SKEWED",
    "CHANNELS", "CH_MODE", "LINES_PER_CHANNEL", "CH_POW2",
    # processor replay (resident replay)
    "MLP", "WINDOW",
    # cache hierarchy (resident cache filter): geometry and latencies
    "C1_SETS", "C1_ASSOC", "C1_HIT", "C2_SETS", "C2_ASSOC", "C2_HIT12",
    "C_MISS_LAT", "C_LINE_BYTES",
    # tRCD technique (TrcdReductionTechnique as kernel data): engaged
    # flag, reduced tRCD (ps), the weak-row Bloom filter's geometry and
    # two hash seeds (as uint64 bit patterns), and the controller's
    # channel index (part of the filter key)
    "TRCD_TECH", "TRCD_REDUCED", "BLOOM_NBITS", "BLOOM_HASHES",
    "BLOOM_SEED1", "BLOOM_SEED2", "CHANNEL",
    # FPM RowClone episode (SoftwareMemoryController._build_plans): the
    # three later commands' offsets from the first (ps), the Bender walk's
    # interface cycles and measured time, the setup charge, the device's
    # ACT-after-PRE window that performs the in-DRAM copy, and the
    # processor cycles each op's issue costs
    "FPM_OFF1", "FPM_OFF2", "FPM_OFF3", "FPM_CYCLES", "FPM_MEASURED",
    "FPM_SETUP", "ROWCLONE_GAP", "FPM_ISSUE",
)

#: Channel-interleave codes for ``CFG.CH_MODE`` (see AddressMapper).
CH_SLAB, CH_LINE, CH_ROW, CH_XOR = 0, 1, 2, 3

#: Mutable scalar slots (``st[]``), loaded/stored around every call.
ST_FIELDS = (
    # call arguments and buffer cursors
    "N_REQ", "PEND_COUNT", "PEND_CAP",
    "VIOL_COUNT", "VIOL_CAP", "WRHIT_COUNT", "WRHIT_CAP", "NMAT",
    "FAW_HEAD", "FAW_LEN", "TBL_CAP",
    # resident replay (run_cores): live length of the ACTIVE list, sweep
    # counter, the open sweep's order length and cursor, whether a core
    # finished during it, and the core blockrun.py must serve next
    "ACTIVE_N", "SWEEP", "SWEEP_N", "SWEEP_POS", "SWEEP_FINISHED",
    "NEED_CORE",
    # controller cursors (SoftwareMemoryController)
    "SCHED_CURSOR", "DRAM_CURSOR", "EXEC_ANCHOR", "NEXT_REFRESH",
    "REFRESH_INDEX", "ARRIVAL_COUNTER", "CHARGED", "CRITICAL",
    # flat timing aggregates (FlatTimingState)
    "MAX_ACT_ALL", "MAX_CAS_ALL", "MAX_WRITE_END", "MAX_PRE",
    "LAST_REF", "OPEN_COUNT", "LAST_ISSUE",
    # scheduler state: live per-core table width, ATLAS quantum counter,
    # BLISS last core (-1 = none) / streak / serve counter
    "SCHED_NCORES", "ATLAS_SERVES", "BL_LAST", "BL_STREAK", "BL_SERVES",
    # time-scaling counters
    "CNT_PROC", "CNT_MC", "CNT_CRIT_ENTRIES", "CNT_CATCHUP",
    "CNT_LOCKED_AT", "CNT_CRITICAL",
    # SmcStats
    "S_READS", "S_WRITES", "S_REFRESHES", "S_STORM",
    "S_SCHED_CYCLES", "S_BATCHES",
    # TileStats
    "T_REQUESTS", "T_RESPONSES", "T_REFRESHES", "T_SCHED_PS",
    "T_DRAM_BUSY", "T_HITS", "T_MISSES", "T_CONFLICTS",
    # Bender engine accounting
    "B_PROGRAMS", "B_CYCLES",
    # tRCD technique counters (TrcdStats) and the reduced-read log fill
    "TR_REDUCED", "TR_NOMINAL", "TR_HITS", "RLOG_COUNT", "RLOG_CAP",
    # device command counts (indexed by flat kind code)
    "CMD_ACT", "CMD_PRE", "CMD_PREA", "CMD_RD", "CMD_WR", "CMD_REF",
    # EngineStats (resident replay)
    "E_GATES", "E_RELEASES", "E_BATCHED",
    # error reporting
    "ERR_ADDR",
    # RowClone rows (rowclone_rows): rows in the table and rows done, the
    # attempt-log fill and capacity, the materialized-key capacity, the
    # processor's cycles and stall cycles (in and out), CLFLUSH latency
    # and line size, the lines each cache level flushed, whether row
    # RC_DONE is a CPU-fallback row past its CLFLUSHes (its replay under
    # way), and that replay's next block
    "RC_N", "RC_DONE", "RC_LOG_COUNT", "RC_LOG_CAP", "RC_MAT_CAP",
    "RC_CYCLES", "RC_STALLS", "RC_FLUSH_LAT", "RC_LINE",
    "RC_FLUSHES1", "RC_FLUSHES2", "RC_REPLAYING", "RC_BLOCK",
)

#: Per-core scalar slots of the resident replay: one ``CORE_STRIDE``
#: record per core in the ``CORE_ST`` array.  Block cursor (length,
#: writeback count, replay position, writeback pointer), block-stream
#: state (a current block is loaded / the stream is exhausted / the
#: block still needs the resident cache filter), the block's offset in
#: its ``BLK_FLAGS``/``BLK_GAP``/``BLK_ADDR`` arrays, completion, MLP
#: window fill, the next request id, processor counters, latency-log
#: fill and capacity, and the resident cache filter's ticks and stats.
CORE_FIELDS = (
    "BLK_N", "BLK_NWB", "POS", "WB_PTR",
    "HAS_BLOCK", "EXHAUSTED", "FRESH", "BLK_BASE", "DONE", "CORE_ID",
    "OUT_COUNT", "NEXT_RID",
    "CYCLES", "ACCESSES", "LOADS", "STORES", "COMPUTE", "STALLS",
    "LLC_MISS", "WB_REQ",
    "LAT_COUNT", "LAT_CAP",
    "C1_TICK", "C2_TICK",
    "C1_HITS", "C1_MISSES", "C1_WB", "C2_HITS", "C2_MISSES", "C2_WB",
)

#: Per-core array slots: the second ``int64*[]`` table the resident
#: replay takes, ``CORE_PTR_FIELDS`` entries per core.  The current
#: block (flags, gaps, byte addresses) and its cache traffic (latency,
#: fill address, writeback index/address pairs), the MLP window of
#: outstanding fills, the request-latency log, and the two cache levels'
#: way state (tags/dirty/stamps ``[set * assoc]``, count/mru ``[set]``).
CORE_PTR_FIELDS = (
    "BLK_FLAGS", "BLK_GAP", "BLK_ADDR",
    "BLK_LAT", "BLK_FILL", "BLK_WBIDX", "BLK_WBADDR",
    "OUT_TAG", "OUT_ISSUE", "OUT_RELEASE", "OUT_RID",
    "LATENCIES",
    "C1_TAGS", "C1_DIRTY", "C1_STAMPS", "C1_COUNT", "C1_MRU",
    "C2_TAGS", "C2_DIRTY", "C2_STAMPS", "C2_COUNT", "C2_MRU",
)

#: Array slots handed to the kernel as one ``int64*[]``.
PTR_FIELDS = (
    "CFG", "ST",
    # per-bank timing state (FlatTimingState + BankState.act_count)
    "LAST_ACT", "LAST_PRE", "LAST_READ", "LAST_WRITE", "LAST_WRITE_END",
    "OPEN_ROW", "PREV_OPEN_ROW", "ACT_COUNT",
    "GROUP_OF", "GMAX_ACT", "GMAX_CAS", "FAW_RING",
    # multi-rank tFAW windows: ring r at [r * FAW_CAP], (head, len) pairs
    "RANK_FAW", "RANK_FAW_HL",
    # per-core scheduler table: ATLAS attained service (-1 = no entry),
    # BLISS blacklist flag, batch per-core mark count (scratch)
    "SCHED_CORE",
    # memoized plans (PLAN_COUNT entries, see KernelState)
    "PLAN_N", "PLAN_KINDS", "PLAN_OFFSETS", "PLAN_CYCLES",
    "PLAN_CHARGE", "PLAN_MEASURED", "PLAN_POSTFLUSH",
    # logs: violations (stride VIOL_STRIDE), materialized rows, WR hits,
    # reads issued under nominal tRCD (stride RLOG_STRIDE)
    "VIOL", "MAT_KEYS", "WRHIT", "RLOG",
    # the tRCD technique's Bloom filter bits (bytes packed into int64s)
    "BLOOM",
    # request batch (serve_batch entry, and the resident replay's
    # tag-sorted copy of a multi-core gate's pending requests)
    "REQ_TAG", "REQ_ADDR", "REQ_FLAGS", "REQ_CORE",
    "REQ_RELEASE", "REQ_SERVICE", "TRACKER",
    # request-table scratch (stride TBL_STRIDE)
    "TBL",
    # resident replay: per-core scalar records, the active core list and
    # the open sweep's order
    "CORE_ST", "ACTIVE", "SWEEP_ORDER",
    # pending requests created since the last gate, in sweep order (core
    # id, run position), plus the stable tag-sort's index scratch
    "PEND_TAG", "PEND_ADDR", "PEND_FLAGS", "PEND_RID", "PEND_RELEASE",
    "PEND_CORE", "PEND_POS", "PEND_ORDER", "PEND_SCRATCH",
    # RowClone rows: the row table (stride RC_ROW_STRIDE), the attempt log
    # (stride RC_LOG_STRIDE), the CLFLUSH dirty-line scratch, the two
    # cache levels' flushed-set marks (the loans' ``flushed`` arrays),
    # and the CPU-fallback blocks' offsets in core 0's block arrays
    # (block b is [RC_BLOCKS[b], RC_BLOCKS[b + 1]))
    "RC_ROWS", "RC_LOG", "RC_DIRTY", "RC_FLUSHED1", "RC_FLUSHED2",
    "RC_BLOCKS",
)

#: Violation log record: kind, bank, row, col, time_ps, earliest_ps, code.
VIOL_STRIDE = 7

#: Request-table scratch record: order, req_index, bank, row, col, is_wb,
#: batch mark.
TBL_STRIDE = 7

#: WR-hit log record: bank, row, col.
WRHIT_STRIDE = 3

#: Reduced-read log record: bank, row, tRCD used (ps) -- every RD issued
#: less than nominal tRCD after its row's ACT.
RLOG_STRIDE = 3

#: RowClone row record (built by ``blockrun.rowclone_table``): two
#: CLFLUSH ranges as (start address, size; size < 0 = no flush), the FPM
#: op's bank, source and destination rows, the dirty lines each range
#: wrote back (written by the kernel), then the row's CPU-fallback
#: blocks ``RC_BLK0 .. RC_BLK1`` of ``RC_BLOCKS`` -- ``RC_BLK0 < 0`` for a
#: RowClone row, whose FPM op runs instead.
RC_ROW_STRIDE = 11
RC_F0_START, RC_F0_SIZE, RC_F1_START, RC_F1_SIZE = 0, 1, 2, 3
RC_BANK, RC_SRC, RC_DST, RC_DIRTY0, RC_DIRTY1 = 4, 5, 6, 7, 8
RC_BLK0, RC_BLK1 = 9, 10

#: RowClone attempt record: bank, source row, destination row, and the
#: WR-hit log fill when the copying ACT issued (the two logs' common
#: sequence: WR hits before that position happened first).
RC_LOG_STRIDE = 4

#: Plan table size.  Entry ``2 * case + is_write`` (case 0 = row hit,
#: 1 = closed bank, 2 = conflict) is the stock plan -- or, with the tRCD
#: technique engaged, its nominal-tRCD plan for cases 1 and 2; entries
#: ``4 + 2 * case + is_write`` are the technique's reduced-tRCD plans.
PLAN_COUNT = 10

#: ``PLAN_KINDS`` / ``PLAN_OFFSETS`` stride: the longest plan (PRE, ACT,
#: RD/WR).
PLAN_STRIDE = 3

#: Constraint-code -> constraint-name table (TimingChecker vocabulary).
CONSTRAINT_NAMES = (
    "power-on", "tRC", "tRP", "tRRD_L", "tRRD_S", "tFAW", "tRFC",
    "tRCD", "tCCD_L", "tCCD_S", "tWTR", "banks-open", "tCS",
    "tRAS", "tRTP", "tWR",
)

#: Registry scheduler name -> ``CFG.SCHED_KIND`` code.  Only the exact
#: registry classes engage the kernel; the three stateful policies carry
#: their ranking state in ``SCHED_CORE`` and the ``ST`` scheduler slots.
SCHED_CODES = {"fcfs": 0, "fr-fcfs": 1, "atlas": 2, "bliss": 3, "batch": 4}
SCHED_ATLAS, SCHED_BLISS, SCHED_BATCH = 2, 3, 4

#: Request flag bits in REQ_FLAGS / PEND_FLAGS.
FLAG_WRITEBACK = 1

#: Kernel return codes.
KERN_OK = 0
KERN_NEED_BLOCK = 1         # run_cores: hand core NEED_CORE its next block
KERN_NEED_ROOM = 2          # run_cores: flush the logs, grow the buffers
KERR_FAW_OVERFLOW = -1      # tFAW ring exceeded FAW_CAP (unreachable)
KERR_VIOL_OVERFLOW = -2     # violation log full
KERR_PEND_OVERFLOW = -4     # pending-request buffer full
KERR_DECODE_RANGE = -5      # strict decode out of range (pre-scan)
KERR_DEADLOCK = -6          # gate with no pending requests
KERR_BAD_KIND = -7          # plan contained an unexpected command kind

#: tFAW ring capacity; far beyond the <= 4 live entries the window holds.
FAW_RING_CAP = 512


def _index_namespace(name: str, fields: tuple[str, ...]):
    return type(name, (), {f: i for i, f in enumerate(fields)})


Cfg = _index_namespace("Cfg", CFG_FIELDS)
St = _index_namespace("St", ST_FIELDS)
Ptr = _index_namespace("Ptr", PTR_FIELDS)
Core = _index_namespace("Core", CORE_FIELDS)
CorePtr = _index_namespace("CorePtr", CORE_PTR_FIELDS)


def render_defines() -> str:
    """The ``#define`` header the C backend compiles against."""
    lines = ["/* generated from repro.dram.kernel.state -- do not edit */"]
    for i, f in enumerate(CFG_FIELDS):
        lines.append(f"#define CFG_{f} {i}")
    for i, f in enumerate(ST_FIELDS):
        lines.append(f"#define ST_{f} {i}")
    for i, f in enumerate(PTR_FIELDS):
        lines.append(f"#define P_{f} {i}")
    for i, f in enumerate(CORE_FIELDS):
        lines.append(f"#define CS_{f} {i}")
    for i, f in enumerate(CORE_PTR_FIELDS):
        lines.append(f"#define CP_{f} {i}")
    lines += [
        f"#define VIOL_STRIDE {VIOL_STRIDE}",
        f"#define TBL_STRIDE {TBL_STRIDE}",
        f"#define WRHIT_STRIDE {WRHIT_STRIDE}",
        f"#define RLOG_STRIDE {RLOG_STRIDE}",
        f"#define PLAN_STRIDE {PLAN_STRIDE}",
        f"#define RC_ROW_STRIDE {RC_ROW_STRIDE}",
        *(f"#define {name} {globals()[name]}" for name in (
            "RC_F0_START", "RC_F0_SIZE", "RC_F1_START", "RC_F1_SIZE",
            "RC_BANK", "RC_SRC", "RC_DST", "RC_DIRTY0", "RC_DIRTY1",
            "RC_BLK0", "RC_BLK1")),
        f"#define RC_LOG_STRIDE {RC_LOG_STRIDE}",
        f"#define CORE_STRIDE {len(CORE_FIELDS)}",
        f"#define CP_COUNT {len(CORE_PTR_FIELDS)}",
        f"#define KERN_OK {KERN_OK}",
        f"#define KERN_NEED_BLOCK {KERN_NEED_BLOCK}",
        f"#define KERN_NEED_ROOM {KERN_NEED_ROOM}",
        f"#define KERR_FAW_OVERFLOW {KERR_FAW_OVERFLOW}",
        f"#define KERR_VIOL_OVERFLOW {KERR_VIOL_OVERFLOW}",
        f"#define KERR_PEND_OVERFLOW {KERR_PEND_OVERFLOW}",
        f"#define KERR_DECODE_RANGE {KERR_DECODE_RANGE}",
        f"#define KERR_DEADLOCK {KERR_DEADLOCK}",
        f"#define KERR_BAD_KIND {KERR_BAD_KIND}",
        f"#define SCHED_FRFCFS {SCHED_CODES['fr-fcfs']}",
        f"#define SCHED_ATLAS {SCHED_ATLAS}",
        f"#define SCHED_BLISS {SCHED_BLISS}",
        f"#define SCHED_BATCH {SCHED_BATCH}",
        f"#define NEVER_PS ({NEVER}LL)",
        "#define FAR_FUTURE (1LL << 62)",
        "",
    ]
    return "\n".join(lines)


def _arr(n: int) -> np.ndarray:
    return np.zeros(n, dtype=np.int64)


def _as_int64(value: int) -> int:
    """``value``'s low 64 bits as a signed int64 (the C side reads them
    back as ``uint64_t``)."""
    value &= (1 << 64) - 1
    return value - (1 << 64) if value >> 63 else value


def _ring_list(ring: np.ndarray, base: int, head: int,
               length: int) -> list[int]:
    """The ``length`` live entries of the tFAW ring at ``ring[base:]``."""
    cap = FAW_RING_CAP
    return [int(ring[base + (head + i) % cap]) for i in range(length)]


class KernelState:
    """Owns the kernel's arrays and marshals object state in and out.

    One instance is attached per :class:`SoftwareMemoryController` the
    first time its kernel path engages.  ``load``/``store`` cover the
    *controller-side* state (cursors, flat timing arrays, statistics);
    the resident replay (:mod:`~repro.dram.kernel.blockrun`)
    additionally syncs the per-core processor/cache records and the
    engine fields it owns.
    """

    def __init__(self, smc) -> None:
        from repro.core.smc import TECHNIQUE_ISSUE_CYCLES
        self.smc = smc
        config = smc.config
        t = config.timing
        cc = config.controller
        flat = smc._flat
        mapper = smc._mapper
        geo = mapper.geometry
        scheduler = smc.scheduler
        n = flat.num_banks
        self.nbanks = n

        cfg = _arr(len(CFG_FIELDS))
        cfg[Cfg.TCK] = t.tCK
        cfg[Cfg.TRCD] = t.tRCD
        cfg[Cfg.TCCD_S] = t.tCCD_S
        cfg[Cfg.TCCD_L] = t.tCCD_L
        cfg[Cfg.TWTR] = t.tWTR
        cfg[Cfg.TRC] = t.tRC
        cfg[Cfg.TRP] = t.tRP
        cfg[Cfg.TRRD_S] = t.tRRD_S
        cfg[Cfg.TRRD_L] = t.tRRD_L
        cfg[Cfg.TRAS] = t.tRAS
        cfg[Cfg.TRTP] = t.tRTP
        cfg[Cfg.TWR] = t.tWR
        cfg[Cfg.TFAW] = t.tFAW
        cfg[Cfg.TRFC] = t.tRFC
        cfg[Cfg.LAT_RD] = smc._lat_rd_ps
        cfg[Cfg.LAT_WR] = smc._lat_wr_ps
        cfg[Cfg.WRITE_BURST] = t.tCWL + t.tBL
        cfg[Cfg.PROC_PERIOD] = smc._proc_period
        cfg[Cfg.MC_PERIOD] = smc._mc_period
        cfg[Cfg.REQ_BUS] = smc._req_bus_ps
        cfg[Cfg.RESP_BUS] = smc._resp_bus_ps
        cfg[Cfg.OCCUPANCY] = smc._occupancy_ps
        cfg[Cfg.PIPELINED] = int(smc._pipelined)
        cfg[Cfg.RECEIVE_CHARGE] = smc._receive_charge
        cfg[Cfg.INSERT_CHARGE] = smc._insert_charge
        cfg[Cfg.TOGGLE] = smc._critical_toggle
        # Every registry policy's decision cost is base + per * n.
        kind = SCHED_CODES[scheduler.name]
        cfg[Cfg.SCHED_KIND] = kind
        base = scheduler.decision_cost(0)
        cfg[Cfg.DECISION_BASE] = base
        cfg[Cfg.DECISION_PER] = scheduler.decision_cost(1) - base
        age_cap = scheduler.age_cap
        cfg[Cfg.AGE_CAP] = -1 if age_cap is None else age_cap
        if kind == SCHED_ATLAS:
            cfg[Cfg.QUANTUM] = scheduler.quantum
        elif kind == SCHED_BLISS:
            cfg[Cfg.BL_THRESHOLD] = scheduler.threshold
            cfg[Cfg.BL_CLEAR] = scheduler.clear_interval
        elif kind == SCHED_BATCH:
            cfg[Cfg.BATCH_CAP] = scheduler.batch_cap
        #: The stateful scheduler whose state round-trips through
        #: ``SCHED_CORE`` on every call (``None`` for FCFS / FR-FCFS).
        self.scheduler = scheduler if kind >= SCHED_ATLAS else None
        cfg[Cfg.REFRESH_ENABLED] = int(cc.refresh_enabled)
        cfg[Cfg.REFRESH_INTERVAL] = smc._refresh_interval
        cfg[Cfg.STORM_FACTOR] = smc._storm_factor
        cfg[Cfg.REF_CYCLES] = smc._ref_cycles
        cfg[Cfg.REF_OFFSET] = smc._ref_offset_ps
        cfg[Cfg.REF_MEASURED] = smc._ref_measured
        cfg[Cfg.NBANKS] = n
        cfg[Cfg.NGROUPS] = flat.num_groups
        cfg[Cfg.FAW_CAP] = FAW_RING_CAP
        nranks = flat.num_ranks
        cfg[Cfg.NRANKS] = nranks
        cfg[Cfg.BANKS_PER_RANK] = n // nranks
        cfg[Cfg.TCS] = t.tCS
        tracker = smc._core_tracker
        cfg[Cfg.HAS_TRACKER] = int(tracker is not None)
        cfg[Cfg.NCORES] = len(tracker.reads) if tracker is not None else 0
        cfg[Cfg.STRICT_DECODE] = int(mapper.strict)
        cfg[Cfg.LINE_BYTES] = mapper._line_bytes
        cfg[Cfg.TOTAL_BYTES] = mapper._total_bytes
        cfg[Cfg.COLUMNS] = mapper._columns
        cfg[Cfg.ROWS] = mapper._rows
        cfg[Cfg.DEC_BANKS] = mapper._num_banks
        cfg[Cfg.ROW_MAJOR] = int(mapper._row_major)
        cfg[Cfg.SKEWED] = int(mapper._skewed)
        cfg[Cfg.CHANNELS] = mapper._channels
        cfg[Cfg.CH_MODE] = {None: CH_SLAB, "channel-line": CH_LINE,
                            "channel-row": CH_ROW,
                            "channel-xor": CH_XOR}[mapper._ch_mode]
        cfg[Cfg.LINES_PER_CHANNEL] = mapper._lines_per_channel
        cfg[Cfg.CH_POW2] = int(mapper._ch_pow2)
        cfg[Cfg.MLP] = config.processor.mlp
        cfg[Cfg.WINDOW] = config.processor.miss_window
        cfg[Cfg.FPM_OFF1:Cfg.FPM_OFF3 + 1] = smc._fpm_offsets[1:]
        cfg[Cfg.FPM_CYCLES] = smc._fpm_cycles
        cfg[Cfg.FPM_MEASURED] = smc._fpm_measured
        cfg[Cfg.FPM_SETUP] = smc.api.costs.rowclone_setup
        cfg[Cfg.ROWCLONE_GAP] = smc._device._rowclone_gap_ps
        cfg[Cfg.FPM_ISSUE] = TECHNIQUE_ISSUE_CYCLES
        self.cfg = cfg
        self.geometry = geo

        self.st = _arr(len(ST_FIELDS))
        # Per-bank arrays: the rows of one table, so store reads all
        # eight back in one conversion.
        self.bank_state = _arr(8 * n).reshape(8, n)
        (self.last_act, self.last_pre, self.last_read, self.last_write,
         self.last_write_end, self.open_row, self.prev_open_row,
         self.act_count) = self.bank_state
        self.group_of = np.asarray(flat.group_of, dtype=np.int64)
        self.gmax_act = _arr(flat.num_groups)
        self.gmax_cas = _arr(flat.num_groups)
        self.faw_ring = _arr(FAW_RING_CAP)
        self.multi_rank = nranks > 1
        self.rank_faw = _arr(FAW_RING_CAP * nranks if self.multi_rank else 0)
        self.rank_faw_hl = _arr(2 * nranks if self.multi_rank else 0)
        self.sched_core = _arr(0)
        #: The registry tRCD technique the kernel serves in place of the
        #: controller's serve hook (``None``: stock plans only).
        technique = self.technique = smc._kernel_technique()
        plans = list(smc._plan_list) + [None] * (PLAN_COUNT - 6)
        if technique is not None:
            # The technique's own staging: nominal or reduced tRCD after
            # the ACT, plus the Bloom lookup on every activation.
            bloom_check = smc.api.costs.bloom_check
            for case in (1, 2):
                for is_write in (False, True):
                    p = 2 * case + is_write
                    plans[p] = smc._plan(case, is_write,
                                         technique.nominal_trcd_ps,
                                         bloom_check)
                    plans[p + 4] = smc._plan(case, is_write,
                                             technique.reduced_trcd_ps,
                                             bloom_check)
            cfg[Cfg.TRCD_TECH] = 1
            cfg[Cfg.TRCD_REDUCED] = technique.reduced_trcd_ps
            cfg[Cfg.CHANNEL] = smc.tile.channel
        self.bloom = _arr(0)
        # Plans: flattened [PLAN_COUNT] tables.
        plan_n = _arr(PLAN_COUNT)
        plan_kinds = _arr(PLAN_COUNT * PLAN_STRIDE)
        plan_offsets = _arr(PLAN_COUNT * PLAN_STRIDE)
        plan_cycles = _arr(PLAN_COUNT)
        plan_charge = _arr(PLAN_COUNT)
        plan_measured = _arr(PLAN_COUNT)
        plan_postflush = _arr(PLAN_COUNT)
        for p, plan in enumerate(plans):
            if plan is None:
                continue
            (kinds, offsets, total_cycles, charge, measured,
             post_flush_ps) = plan
            plan_n[p] = len(kinds)
            for j, kind in enumerate(kinds):
                plan_kinds[PLAN_STRIDE * p + j] = kind
                plan_offsets[PLAN_STRIDE * p + j] = offsets[j]
            plan_cycles[p] = total_cycles
            plan_charge[p] = charge
            plan_measured[p] = measured
            plan_postflush[p] = post_flush_ps
        self.plan_n = plan_n
        self.plan_kinds = plan_kinds
        self.plan_offsets = plan_offsets
        self.plan_cycles = plan_cycles
        self.plan_charge = plan_charge
        self.plan_measured = plan_measured
        self.plan_postflush = plan_postflush
        # Logs (grown on demand between calls).
        self.viol = _arr(VIOL_STRIDE * 4096)
        self.wrhit = _arr(WRHIT_STRIDE * 256)
        self.rlog = _arr(RLOG_STRIDE * 256)
        #: Sorted materialized-row keys in ``mat_buf[:NMAT]``; the spare
        #: capacity takes the rows a RowClone-rows call materializes.
        self.mat_buf = _arr(0)
        self.tracker_out = _arr(5 * max(1, int(cfg[Cfg.NCORES])))
        # Batch request arrays (grown on demand).
        self._req_cap = 0
        self.req_tag = _arr(0)
        self.req_addr = _arr(0)
        self.req_flags = _arr(0)
        self.req_core = _arr(0)
        self.req_release = _arr(0)
        self.req_service = _arr(0)
        self.tbl = _arr(0)
        # Resident-replay buffers (sized by blockrun).
        self.core_st = _arr(0)
        self.active = _arr(0)
        self.sweep_order = _arr(0)
        self.pend_tag = _arr(0)
        self.pend_addr = _arr(0)
        self.pend_flags = _arr(0)
        self.pend_rid = _arr(0)
        self.pend_release = _arr(0)
        self.pend_core = _arr(0)
        self.pend_pos = _arr(0)
        self.pend_order = _arr(0)
        self.pend_scratch = _arr(0)
        # RowClone-rows buffers (set per call by blockrun).
        self.rc_rows = _arr(0)
        self.rc_log = _arr(0)
        self.rc_dirty = _arr(0)
        self.rc_flushed1 = _arr(0)
        self.rc_flushed2 = _arr(0)
        self.rc_blocks = _arr(0)
        #: Per-core slot sets of the resident replay (see bind_cores).
        self.cores: list[CoreSlots] = []
        self._ncores = 0
        self._core_table = None
        #: Memoized slot table (buffer addresses); any buffer swap clears
        #: it.
        self._ptr_table = None

    def __getstate__(self) -> dict:
        # The address tables point into this instance's buffers: a copy
        # builds its own.
        return {**self.__dict__, "_ptr_table": None, "_core_table": None,
                "_keepalive": None}

    # -- buffer management --------------------------------------------------

    def ensure_requests(self, n: int) -> None:
        """Grow the batch request arrays to hold ``n`` entries."""
        if n <= self._req_cap:
            return
        cap = max(64, 2 * n)
        for name in ("req_tag", "req_addr", "req_flags", "req_core",
                     "req_release", "req_service"):
            setattr(self, name, _arr(cap))
        self.tbl = _arr(TBL_STRIDE * cap)
        self._req_cap = cap
        self._ptr_table = None

    def ensure_batch(self, n: int) -> None:
        """Room for an ``n``-request ``serve_batch`` call: the request
        arrays and the logs an episode over them can fill."""
        self.ensure_requests(n)
        self.ensure_viol(3 * n + 64)
        self.ensure_wrhit(n + 16)
        self.ensure_rlog(n + 16)

    def ensure_table(self, entries: int) -> None:
        if self.tbl.shape[0] < TBL_STRIDE * entries:
            self.tbl = _arr(TBL_STRIDE * max(64, 2 * entries))
            self._ptr_table = None

    def ensure_viol(self, entries: int) -> None:
        if self.viol.shape[0] < VIOL_STRIDE * entries:
            self.viol = _arr(VIOL_STRIDE * max(4096, 2 * entries))
            self._ptr_table = None

    def ensure_wrhit(self, entries: int) -> None:
        if self.wrhit.shape[0] < WRHIT_STRIDE * entries:
            self.wrhit = _arr(WRHIT_STRIDE * max(256, 2 * entries))
            self._ptr_table = None

    def ensure_rlog(self, entries: int) -> None:
        if self.rlog.shape[0] < RLOG_STRIDE * entries:
            self.rlog = _arr(RLOG_STRIDE * max(256, 2 * entries))
            self._ptr_table = None

    @property
    def mat_keys(self) -> np.ndarray:
        """The sorted ``(bank << 32) | row`` keys of the device's
        materialized rows, as the kernel last saw them."""
        return self.mat_buf[:int(self.st[St.NMAT])]

    def reserve_materialized(self, room: int) -> None:
        """Spare key capacity for ``room`` rows materialized in-call."""
        nmat = int(self.st[St.NMAT])
        if self.mat_buf.shape[0] >= nmat + room:
            return
        buf = _arr(max(64, 2 * (nmat + room)))
        buf[:nmat] = self.mat_buf[:nmat]
        self.mat_buf = buf
        # Techniques materialize rows between short replays: patch the
        # one slot instead of rebuilding the table.
        if self._ptr_table is not None:
            self._ptr_table[Ptr.MAT_KEYS] = _pointer(buf)

    def refresh_materialized(self) -> None:
        """Bring the sorted search keys of the device's materialized rows
        up to date.

        A conventional WR to a materialized row resets that line to its
        deterministic filler pattern (see ``DramDevice.issue_plan``).
        The kernel binary-searches this table and logs the hits; the
        driver applies the actual writes afterwards, in order with the
        RowClone copies of the same call (see
        :meth:`apply_rowclone_log`).

        ``DramDevice._rows`` only grows, in insertion order, so the rows
        added since the last sync are the dict's tail: only they are
        keyed, and appended to the sorted table, whose stable sort (a
        timsort) then merges the two runs in one linear pass.
        """
        rows = self.smc._device._rows
        keys = self.mat_keys
        added = len(rows) - keys.shape[0]
        new = np.fromiter(
            ((b << 32) | r
             for b, r in itertools.islice(reversed(rows), added)),
            np.int64, added)
        keys = np.concatenate((keys, new))
        keys.sort(kind="stable")
        self.reserve_materialized(added)
        self.mat_buf[:keys.shape[0]] = keys
        self.st[St.NMAT] = keys.shape[0]

    # -- marshalling --------------------------------------------------------

    def _load_technique(self) -> None:
        """The tRCD technique's filter and counters, read live each call
        (as its hook would)."""
        technique = self.technique
        bloom = technique.bloom
        cfg = self.cfg
        cfg[Cfg.BLOOM_NBITS] = bloom.num_bits
        cfg[Cfg.BLOOM_HASHES] = bloom.num_hashes
        cfg[Cfg.BLOOM_SEED1] = _as_int64(bloom.seed)
        cfg[Cfg.BLOOM_SEED2] = _as_int64(bloom.seed ^ 0xDEADBEEF)
        bits = np.frombuffer(bloom._bits, dtype=np.uint8)
        words = -(-bits.shape[0] // 8)
        if self.bloom.shape[0] != words:
            self.bloom = _arr(words)
            self._ptr_table = None
        self.bloom.view(np.uint8)[:bits.shape[0]] = bits
        st = self.st
        stats = technique.stats
        st[St.TR_REDUCED] = stats.reduced_acts
        st[St.TR_NOMINAL] = stats.nominal_acts
        st[St.TR_HITS] = stats.row_hits

    def _sched_table(self, ncores: int) -> np.ndarray:
        if self.sched_core.shape[0] < ncores:
            self.sched_core = _arr(max(8, 2 * ncores))
            self._ptr_table = None
        return self.sched_core

    def _load_scheduler(self, max_core: int) -> None:
        """Flatten the stateful scheduler's ranking state into the tables.

        ``max_core`` is the largest core id the call can serve; the
        per-core table covers it and every core the state already names.
        """
        sched = self.scheduler
        kind = int(self.cfg[Cfg.SCHED_KIND])
        st = self.st
        if kind == SCHED_ATLAS:
            attained = sched.attained
            ncores = max(max_core, max(attained, default=-1)) + 1
            table = self._sched_table(ncores)
            table[:ncores] = -1
            for core, value in attained.items():
                table[core] = value
            st[St.ATLAS_SERVES] = sched._serves_in_quantum
        elif kind == SCHED_BLISS:
            blacklisted = sched.blacklisted
            ncores = max(max_core, max(blacklisted, default=-1)) + 1
            table = self._sched_table(ncores)
            table[:ncores] = 0
            for core in blacklisted:
                table[core] = 1
            last = sched._last_core
            st[St.BL_LAST] = -1 if last is None else last
            st[St.BL_STREAK] = sched._streak
            st[St.BL_SERVES] = sched._serves
        else:
            # Batch marks ride on the request-table entries: every marked
            # request is served (and unmarked) before its episode ends,
            # so the marked set is empty between calls and only the
            # per-core mark-count scratch needs sizing.
            ncores = max_core + 1
            self._sched_table(ncores)
        st[St.SCHED_NCORES] = ncores

    def _store_scheduler(self) -> None:
        sched = self.scheduler
        kind = int(self.cfg[Cfg.SCHED_KIND])
        st = self.st
        table = self.sched_core[:int(st[St.SCHED_NCORES])].tolist()
        if kind == SCHED_ATLAS:
            # Keys survive halving, so existing entries keep their order
            # and first-served cores follow.
            attained = {core: table[core] for core in sched.attained}
            for core, value in enumerate(table):
                if value >= 0 and core not in attained:
                    attained[core] = value
            sched.attained = attained
            sched._serves_in_quantum = int(st[St.ATLAS_SERVES])
        elif kind == SCHED_BLISS:
            blacklisted = sched.blacklisted
            blacklisted.clear()
            blacklisted.update(core for core, flag in enumerate(table)
                               if flag)
            last = int(st[St.BL_LAST])
            sched._last_core = None if last < 0 else last
            sched._streak = int(st[St.BL_STREAK])
            sched._serves = int(st[St.BL_SERVES])

    def load(self, max_core: int = 0) -> None:
        """Refresh the mutable controller-side state from the objects.

        ``max_core`` is the largest core id among the requests the call
        serves (stateful schedulers size their per-core table by it).
        Each object's scalars fill one contiguous run of ``st`` slots.
        """
        smc = self.smc
        st = self.st
        flat = smc._flat
        device = smc._device
        for row, values in zip(self.bank_state, (
                flat.last_act, flat.last_pre, flat.last_read,
                flat.last_write, flat.last_write_end, flat.open_row,
                flat.prev_open_row,
                [bank.act_count for bank in device.banks])):
            row[:] = values
        self.gmax_act[:] = flat.group_max_act
        self.gmax_cas[:] = flat.group_max_cas
        acts = list(flat.recent_acts)
        self.faw_ring[:len(acts)] = acts
        st[St.FAW_HEAD] = 0
        st[St.FAW_LEN] = len(acts)
        if self.multi_rank:
            hl = self.rank_faw_hl
            for r, rank_acts in enumerate(flat.rank_recent_acts):
                base = r * FAW_RING_CAP
                self.rank_faw[base:base + len(rank_acts)] = list(rank_acts)
                hl[2 * r] = 0
                hl[2 * r + 1] = len(rank_acts)
        if self.scheduler is not None:
            self._load_scheduler(max_core)
        if self.technique is not None:
            self._load_technique()
        st[St.SCHED_CURSOR:St.CRITICAL + 1] = (
            smc.sched_cursor, smc.dram_cursor, smc._exec_anchor_ps,
            smc._next_refresh_ps, smc._refresh_index, smc._arrival_counter,
            smc.api.charged_cycles, smc.api.critical)
        st[St.MAX_ACT_ALL:St.LAST_ISSUE + 1] = (
            flat.max_act_all, flat.max_cas_all, flat.max_write_end,
            flat.max_pre, flat.last_ref, flat.open_count,
            device._last_issue_ps)
        counters = smc.counters
        st[St.CNT_PROC:St.CNT_CRITICAL + 1] = (
            counters.processor, counters.memory_controller,
            counters.critical_entries, counters.catch_up_cycles,
            counters._locked_processor_at, counters.critical_mode)
        stats = smc.stats
        st[St.S_READS:St.S_BATCHES + 1] = (
            stats.serviced_reads, stats.serviced_writes, stats.refreshes,
            stats.storm_refreshes, stats.total_sched_cycles,
            stats.batches_executed)
        tstats = smc._tile_stats
        st[St.T_REQUESTS:St.T_CONFLICTS + 1] = (
            tstats.requests_received, tstats.responses_sent,
            tstats.refreshes_issued, tstats.scheduling_ps,
            tstats.dram_busy_ps, tstats.row_hits, tstats.row_misses,
            tstats.row_conflicts)
        bender = smc._bender
        st[St.B_PROGRAMS] = bender.programs_run
        st[St.B_CYCLES] = bender.total_interface_cycles
        get = device.stats.commands.get
        st[St.CMD_ACT:St.CMD_REF + 1] = [get(name, 0) for name in KIND_NAMES]
        st[St.VIOL_COUNT] = 0
        st[St.VIOL_CAP] = self.viol.shape[0] // VIOL_STRIDE
        st[St.WRHIT_COUNT] = 0
        st[St.WRHIT_CAP] = self.wrhit.shape[0] // WRHIT_STRIDE
        st[St.RLOG_COUNT] = 0
        st[St.RLOG_CAP] = self.rlog.shape[0] // RLOG_STRIDE
        st[St.TBL_CAP] = self.tbl.shape[0] // TBL_STRIDE
        if self.cfg[Cfg.HAS_TRACKER]:
            self.tracker_out[:] = 0

    def store(self) -> None:
        """Write the kernel's state back into the live objects."""
        smc = self.smc
        v = self.st.tolist()
        flat = smc._flat
        device = smc._device
        rows = self.bank_state.tolist()
        (flat.last_act[:], flat.last_pre[:], flat.last_read[:],
         flat.last_write[:], flat.last_write_end[:], flat.open_row[:],
         flat.prev_open_row[:]) = rows[:7]
        for bank, *state in zip(device.banks, *rows):
            (bank.last_act, bank.last_pre, bank.last_read, bank.last_write,
             bank.last_write_data_end, row, prev, bank.act_count) = state
            bank.open_row = row if row >= 0 else None
            bank.previously_open_row = prev if prev >= 0 else None
        flat.group_max_act[:] = self.gmax_act.tolist()
        flat.group_max_cas[:] = self.gmax_cas.tolist()
        acts = _ring_list(self.faw_ring, 0, v[St.FAW_HEAD], v[St.FAW_LEN])
        flat.recent_acts.clear()
        flat.recent_acts.extend(acts)
        if self.multi_rank:
            hl = self.rank_faw_hl.tolist()
            for r, rank_acts in enumerate(flat.rank_recent_acts):
                window = _ring_list(self.rank_faw, r * FAW_RING_CAP,
                                    hl[2 * r], hl[2 * r + 1])
                rank_acts.clear()
                rank_acts.extend(window)
                device.ranks[r].recent_acts = window
        else:
            # Single-rank topology: the device rank's tFAW list mirrors
            # the channel-wide window (flat.rank_recent_acts stays unused).
            device.ranks[0].recent_acts = list(acts)
        if self.scheduler is not None:
            self._store_scheduler()
        if self.technique is not None:
            stats = self.technique.stats
            (stats.reduced_acts, stats.nominal_acts,
             stats.row_hits) = v[St.TR_REDUCED:St.TR_HITS + 1]
        last_ref = v[St.LAST_REF]
        if last_ref != flat.last_ref:
            # REF issued during the call: _apply_ref semantics.
            for rank_state in device.ranks:
                rank_state.last_ref = last_ref
                rank_state.refresh_epoch_ps = last_ref
        (flat.max_act_all, flat.max_cas_all, flat.max_write_end,
         flat.max_pre, flat.last_ref, flat.open_count,
         device._last_issue_ps) = v[St.MAX_ACT_ALL:St.LAST_ISSUE + 1]
        api = smc.api
        (smc.sched_cursor, smc.dram_cursor, smc._exec_anchor_ps,
         smc._next_refresh_ps, smc._refresh_index, smc._arrival_counter,
         api.charged_cycles, critical) = v[St.SCHED_CURSOR:St.CRITICAL + 1]
        api.critical = bool(critical)
        counters = smc.counters
        (counters.processor, counters.memory_controller,
         counters.critical_entries, counters.catch_up_cycles,
         counters._locked_processor_at,
         critical) = v[St.CNT_PROC:St.CNT_CRITICAL + 1]
        counters.critical_mode = bool(critical)
        stats = smc.stats
        (stats.serviced_reads, stats.serviced_writes,
         stats.refreshes, stats.storm_refreshes,
         stats.total_sched_cycles,
         stats.batches_executed) = v[St.S_READS:St.S_BATCHES + 1]
        tstats = smc._tile_stats
        (tstats.requests_received, tstats.responses_sent,
         tstats.refreshes_issued, tstats.scheduling_ps, tstats.dram_busy_ps,
         tstats.row_hits, tstats.row_misses,
         tstats.row_conflicts) = v[St.T_REQUESTS:St.T_CONFLICTS + 1]
        bender = smc._bender
        bender.programs_run = v[St.B_PROGRAMS]
        bender.total_interface_cycles = v[St.B_CYCLES]
        commands = device.stats.commands
        for name, count in zip(KIND_NAMES, v[St.CMD_ACT:St.CMD_REF + 1]):
            if count or name in commands:
                if count != commands.get(name, 0):
                    commands[name] = count
        tracker = smc._core_tracker
        if tracker is not None and self.cfg[Cfg.HAS_TRACKER]:
            ncores = int(self.cfg[Cfg.NCORES])
            out = self.tracker_out.tolist()
            for c in range(ncores):
                base = 5 * c
                tracker.reads[c] += out[base]
                tracker.writes[c] += out[base + 1]
                tracker.row_hits[c] += out[base + 2]
                tracker.row_misses[c] += out[base + 3]
                tracker.row_conflicts[c] += out[base + 4]

    # -- log scatter ---------------------------------------------------------

    def scatter_violations(self) -> None:
        """Append the kernel's violation log as ViolationRecord objects."""
        count = int(self.st[St.VIOL_COUNT])
        if not count:
            return
        log = self.viol[:VIOL_STRIDE * count].tolist()
        self.smc._device.checker.violations.extend(
            ViolationRecord(Command(_KINDS[kind], bank=bank, row=row, col=col),
                            time_ps, earliest_ps, CONSTRAINT_NAMES[code])
            for kind, bank, row, col, time_ps, earliest_ps, code
            in zip(*[iter(log)] * VIOL_STRIDE))
        self.st[St.VIOL_COUNT] = 0

    def check_reduced_reads(self) -> None:
        """Run the RDs issued under nominal tRCD through the cell model.

        The kernel skips the device's per-RD reliability probe (it is
        only engaged when no read at nominal tRCD can fail); reads the
        tRCD technique issued early are logged instead, and each one
        that the row cannot sustain counts as unreliable, as
        ``DramDevice`` counts it on the object path.
        """
        count = int(self.st[St.RLOG_COUNT])
        if not count:
            return
        device = self.smc._device
        reliable = device.cells.read_is_reliable
        log = self.rlog[:RLOG_STRIDE * count].tolist()
        for i in range(0, RLOG_STRIDE * count, RLOG_STRIDE):
            if not reliable(log[i], log[i + 1], log[i + 2]):
                device.stats.unreliable_reads += 1
        self.st[St.RLOG_COUNT] = 0

    def apply_wr_hits(self) -> None:
        """Replay WRs that targeted materialized rows onto the row data."""
        count = int(self.st[St.WRHIT_COUNT])
        if not count:
            return
        device = self.smc._device
        log = self.wrhit[:WRHIT_STRIDE * count].tolist()
        for bank, row, col in zip(*[iter(log)] * WRHIT_STRIDE):
            device._write_line(bank, row, col,
                               device.default_line(bank, row, col))
        self.st[St.WRHIT_COUNT] = 0

    def apply_rowclone_log(self) -> None:
        """Apply a RowClone-rows call's data side: its WR hits and its
        RowClone copies, interleaved in issue order.

        Each attempt record names the WR-hit log fill at its ACT, so the
        WR hits before that position are written first: a copy reads its
        source row as the writebacks before it left it
        (:meth:`DramDevice.rowclone_copy
        <repro.dram.device.DramDevice.rowclone_copy>` then performs the
        copy or the corruption).
        """
        device = self.smc._device
        hits = self.wrhit[:WRHIT_STRIDE * int(self.st[St.WRHIT_COUNT])]
        hits = list(zip(*[iter(hits.tolist())] * WRHIT_STRIDE))
        log = self.rc_log[:RC_LOG_STRIDE * int(self.st[St.RC_LOG_COUNT])]
        done = 0
        for bank, src_row, dst_row, position in zip(
                *[iter(log.tolist())] * RC_LOG_STRIDE):
            for hit in hits[done:position]:
                device._write_line(*hit, device.default_line(*hit))
            done = position
            device.rowclone_copy(bank, src_row, dst_row)
        for hit in hits[done:]:
            device._write_line(*hit, device.default_line(*hit))
        self.st[St.WRHIT_COUNT] = 0
        self.st[St.RC_LOG_COUNT] = 0

    def pointer_table(self) -> int:
        """Address of the ``int64*[]`` slot table (an int64 array of
        buffer addresses), rebuilt when a buffer is swapped."""
        if self._ptr_table is not None:
            return self._ptr_address
        arrays = (
            self.cfg, self.st,
            self.last_act, self.last_pre, self.last_read, self.last_write,
            self.last_write_end, self.open_row, self.prev_open_row,
            self.act_count, self.group_of, self.gmax_act, self.gmax_cas,
            self.faw_ring, self.rank_faw, self.rank_faw_hl, self.sched_core,
            self.plan_n, self.plan_kinds, self.plan_offsets,
            self.plan_cycles, self.plan_charge, self.plan_measured,
            self.plan_postflush,
            self.viol, self.mat_buf, self.wrhit, self.rlog, self.bloom,
            self.req_tag, self.req_addr, self.req_flags, self.req_core,
            self.req_release, self.req_service, self.tracker_out,
            self.tbl,
            self.core_st, self.active, self.sweep_order,
            self.pend_tag, self.pend_addr, self.pend_flags, self.pend_rid,
            self.pend_release, self.pend_core, self.pend_pos,
            self.pend_order, self.pend_scratch,
            self.rc_rows, self.rc_log, self.rc_dirty, self.rc_flushed1,
            self.rc_flushed2, self.rc_blocks,
        )
        assert len(arrays) == len(PTR_FIELDS)
        self._keepalive = arrays
        self._ptr_table = np.array([_pointer(arr) for arr in arrays],
                                   dtype=np.int64)
        self._ptr_address = self._ptr_table.ctypes.data
        return self._ptr_address

    # -- resident replay: per-core slot tables -------------------------------

    def bind_cores(self, n: int) -> list[CoreSlots]:
        """Zeroed per-core records (and slot sets) for an ``n``-core run."""
        width = len(CORE_FIELDS)
        if self.core_st.shape[0] != n * width:
            self.core_st = _arr(n * width)
            self.active = _arr(n)
            self.sweep_order = _arr(n)
            self._ptr_table = None
        else:
            self.core_st[:] = 0
        while len(self.cores) < n:
            self.cores.append(CoreSlots())
        cores = self.cores[:n]
        for i, core in enumerate(cores):
            core.st = self.core_st[i * width:(i + 1) * width]
        if n != self._ncores:
            # (Same n: the same slot objects, whose swapped arrays
            # set_core_array already patched into the table.)
            self._ncores = n
            self._core_table = None
        return cores

    def core_pointer_table(self) -> int:
        """Address of the per-core ``int64*[]`` table (``CORE_PTR_FIELDS``
        addresses per core)."""
        if self._core_table is not None:
            return self._core_address
        self._core_table = np.array(
            [_pointer(getattr(core, name))
             for core in self.cores[:self._ncores] for name in _CORE_ATTRS],
            dtype=np.int64)
        self._core_address = self._core_table.ctypes.data
        return self._core_address

    def set_array(self, name: str, arr: np.ndarray) -> None:
        """Swap one slot-table buffer (lower-cased ``PTR_FIELDS`` name),
        patching the live table in place."""
        setattr(self, name, arr)
        if self._ptr_table is not None:
            self._ptr_table[getattr(Ptr, name.upper())] = _pointer(arr)

    def set_core_array(self, index: int, field: int, arr: np.ndarray) -> None:
        """Swap one per-core buffer, patching the live table in place."""
        setattr(self.cores[index], _CORE_ATTRS[field], arr)
        if self._core_table is not None:
            self._core_table[index * len(CORE_PTR_FIELDS) + field] = \
                _pointer(arr)


class CoreSlots:
    """One core's resident-replay buffers: the ``CORE_PTR_FIELDS`` arrays
    (lower-cased attribute names) plus ``st``, its ``CORE_FIELDS`` record
    (a view into :attr:`KernelState.core_st`).

    The cache way arrays outlive a replay as a *resident copy* of the
    hierarchy whose token is ``cache_owner`` (0: none); ``token`` names
    this copy, and ``lender`` weakly references the hierarchy whose way
    lists it holds (see ``blockrun._load_cache``/``_lend_cache``)."""

    def __init__(self) -> None:
        self.st = _arr(len(CORE_FIELDS))
        for name in _CORE_ATTRS:
            setattr(self, name, _arr(0))
        self.token = next(_SLOT_TOKENS)
        self.cache_owner = 0
        self.lender = None


_SLOT_TOKENS = itertools.count(1)


_CORE_ATTRS = tuple(name.lower() for name in CORE_PTR_FIELDS)

#: ``CommandKind`` by flat kind code (the violation log's first field).
_KINDS = tuple(CommandKind(name) for name in KIND_NAMES)


def _pointer(arr: np.ndarray) -> int:
    """``arr``'s buffer address (0, a null pointer, when empty)."""
    return arr.ctypes.data if arr.size else 0
