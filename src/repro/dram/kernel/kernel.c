/* Batch serve kernel for the software memory controller.
 *
 * Compiled by repro.dram.kernel.cbackend with the layout #defines
 * generated from repro.dram.kernel.state prepended, so the field
 * indices can never drift from the Python marshalling code.
 *
 * Two entry points, each taking the int64_t*[] slot table:
 *
 *   repro_serve_batch  -- one critical-mode episode over a sorted
 *                         request batch (mirrors _make_service_fast
 *                         byte for byte on the emulated timeline),
 *                         under any registry scheduler and on
 *                         single- or multi-rank channels, with the
 *                         stock open-page plans or the reduced-tRCD
 *                         technique's (trcd.py
 *                         TrcdReductionTechnique._serve).
 *   repro_run_cores    -- the resident replay: N fed block traces driven
 *                         to completion under round-robin arbitration
 *                         (mirrors the engines' burst loop around
 *                         Processor.execute_burst), with each
 *                         core's cache filter, MLP window and counters in
 *                         a second, per-core slot table.  Returns to
 *                         Python (blockrun.py) only to take a core's next
 *                         block.
 *
 *   repro_rowclone_rows -- a whole RowClone plan (rowclone.py
 *                         execute_copy / execute_init): per row, the
 *                         CLFLUSH ranges on core 0's resident cache copy
 *                         with their writeback episodes, then the FPM
 *                         RowClone technique episode
 *                         (Session.technique_op / smc.technique_episode)
 *                         or, for a CPU-fallback row, the resident replay
 *                         of its blocks on core 0 (Session.run_trace, the
 *                         repro_run_cores loop with one core).  The data
 *                         side (row copies, WR hits) is logged for the
 *                         driver.
 *
 * Two more entries take plain arrays: repro_flush_lines (CLFLUSH on a
 * resident cache copy) and repro_shuffle (random.Random.shuffle, the
 * lmbench pointer-chase permutation).
 *
 * Every formula below is a transcription of the Python fast path; the
 * comments name the source (smc.py / device.py / flat_timing.py /
 * timing_checker.py / processor.py / engine.py).  Divisions only ever
 * see non-negative operands, so C truncation == Python floor.
 */

#include <stdint.h>
#include <string.h>

#define C(f) ((int64_t)k->cfg[CFG_##f])
#define S(f) k->st[ST_##f]

/* Constraint codes, in CONSTRAINT_NAMES order (state.py). */
#define CODE_POWER_ON 0
#define CODE_TRC 1
#define CODE_TRP 2
#define CODE_TRRD_L 3
#define CODE_TRRD_S 4
#define CODE_TFAW 5
#define CODE_TRFC 6
#define CODE_TRCD 7
#define CODE_TCCD_L 8
#define CODE_TCCD_S 9
#define CODE_TWTR 10
#define CODE_BANKS_OPEN 11
#define CODE_TCS 12
#define CODE_TRAS 13
#define CODE_TRTP 14
#define CODE_TWR 15

/* Flat command-kind codes (flat_timing.py). */
#define K_ACT 0
#define K_PRE 1
#define K_PREA 2
#define K_RD 3
#define K_WR 4
#define K_REF 5

/* memtrace access flags / request flags (state.py). */
#define AF_WRITE 1
#define AF_DEPENDENT 2
#define RF_WRITEBACK 1

typedef struct {
    const int64_t *cfg;
    int64_t *st;
    int64_t *last_act, *last_pre, *last_read, *last_write, *last_write_end;
    int64_t *open_row, *prev_open_row, *act_count;
    const int64_t *group_of;
    int64_t *gmax_act, *gmax_cas, *faw_ring;
    int64_t *rank_faw, *rank_faw_hl, *sched_core;
    const int64_t *plan_n, *plan_kinds, *plan_offsets, *plan_cycles;
    const int64_t *plan_charge, *plan_measured, *plan_postflush;
    int64_t *viol;
    int64_t *mat_keys;
    int64_t *wrhit, *rlog;
    const int64_t *bloom;
    int64_t *req_tag, *req_addr, *req_flags, *req_core;
    int64_t *req_release, *req_service, *tracker;
    int64_t *tbl;
    int64_t *core_st, *active, *sweep_order;
    int64_t *pend_tag, *pend_addr, *pend_flags, *pend_rid, *pend_release;
    int64_t *pend_core, *pend_pos, *pend_order, *pend_scratch;
    int64_t *rc_rows, *rc_log, *rc_dirty, *rc_flushed1, *rc_flushed2;
    const int64_t *rc_blocks;
} K;

static void bind(K *k, int64_t **p)
{
    k->cfg = p[P_CFG];
    k->st = p[P_ST];
    k->last_act = p[P_LAST_ACT];
    k->last_pre = p[P_LAST_PRE];
    k->last_read = p[P_LAST_READ];
    k->last_write = p[P_LAST_WRITE];
    k->last_write_end = p[P_LAST_WRITE_END];
    k->open_row = p[P_OPEN_ROW];
    k->prev_open_row = p[P_PREV_OPEN_ROW];
    k->act_count = p[P_ACT_COUNT];
    k->group_of = p[P_GROUP_OF];
    k->gmax_act = p[P_GMAX_ACT];
    k->gmax_cas = p[P_GMAX_CAS];
    k->faw_ring = p[P_FAW_RING];
    k->rank_faw = p[P_RANK_FAW];
    k->rank_faw_hl = p[P_RANK_FAW_HL];
    k->sched_core = p[P_SCHED_CORE];
    k->plan_n = p[P_PLAN_N];
    k->plan_kinds = p[P_PLAN_KINDS];
    k->plan_offsets = p[P_PLAN_OFFSETS];
    k->plan_cycles = p[P_PLAN_CYCLES];
    k->plan_charge = p[P_PLAN_CHARGE];
    k->plan_measured = p[P_PLAN_MEASURED];
    k->plan_postflush = p[P_PLAN_POSTFLUSH];
    k->viol = p[P_VIOL];
    k->mat_keys = p[P_MAT_KEYS];
    k->wrhit = p[P_WRHIT];
    k->rlog = p[P_RLOG];
    k->bloom = p[P_BLOOM];
    k->req_tag = p[P_REQ_TAG];
    k->req_addr = p[P_REQ_ADDR];
    k->req_flags = p[P_REQ_FLAGS];
    k->req_core = p[P_REQ_CORE];
    k->req_release = p[P_REQ_RELEASE];
    k->req_service = p[P_REQ_SERVICE];
    k->tracker = p[P_TRACKER];
    k->tbl = p[P_TBL];
    k->core_st = p[P_CORE_ST];
    k->active = p[P_ACTIVE];
    k->sweep_order = p[P_SWEEP_ORDER];
    k->pend_tag = p[P_PEND_TAG];
    k->pend_addr = p[P_PEND_ADDR];
    k->pend_flags = p[P_PEND_FLAGS];
    k->pend_rid = p[P_PEND_RID];
    k->pend_release = p[P_PEND_RELEASE];
    k->pend_core = p[P_PEND_CORE];
    k->pend_pos = p[P_PEND_POS];
    k->pend_order = p[P_PEND_ORDER];
    k->pend_scratch = p[P_PEND_SCRATCH];
    k->rc_rows = p[P_RC_ROWS];
    k->rc_log = p[P_RC_LOG];
    k->rc_dirty = p[P_RC_DIRTY];
    k->rc_flushed1 = p[P_RC_FLUSHED1];
    k->rc_flushed2 = p[P_RC_FLUSHED2];
    k->rc_blocks = p[P_RC_BLOCKS];
}

/* One core's resident-replay view: its CORE_STRIDE scalar record and its
 * CP_COUNT arrays from the per-core slot table.  The current block starts
 * BLK_BASE entries into the block arrays (0 for a block handed over by
 * blockrun.py, which binds the block's own arrays). */
typedef struct {
    int64_t *s;
    const int64_t *blk_flags, *blk_gap, *blk_addr;
    int64_t *blk_lat, *blk_fill, *blk_wbidx, *blk_wbaddr;
    int64_t *out_tag, *out_issue, *out_release, *out_rid;
    int64_t *latencies;
    int64_t *c1_tags, *c1_dirty, *c1_stamps, *c1_count, *c1_mru;
    int64_t *c2_tags, *c2_dirty, *c2_stamps, *c2_count, *c2_mru;
} Core;

#define CS(f) q->s[CS_##f]

static void bind_core(K *k, int64_t **cp, int64_t pos, Core *q)
{
    int64_t **t = cp + pos * CP_COUNT;
    q->s = k->core_st + pos * CORE_STRIDE;
    int64_t base = q->s[CS_BLK_BASE];
    q->blk_flags = t[CP_BLK_FLAGS] + base;
    q->blk_gap = t[CP_BLK_GAP] + base;
    q->blk_addr = t[CP_BLK_ADDR] + base;
    q->blk_lat = t[CP_BLK_LAT];
    q->blk_fill = t[CP_BLK_FILL];
    q->blk_wbidx = t[CP_BLK_WBIDX];
    q->blk_wbaddr = t[CP_BLK_WBADDR];
    q->out_tag = t[CP_OUT_TAG];
    q->out_issue = t[CP_OUT_ISSUE];
    q->out_release = t[CP_OUT_RELEASE];
    q->out_rid = t[CP_OUT_RID];
    q->latencies = t[CP_LATENCIES];
    q->c1_tags = t[CP_C1_TAGS];
    q->c1_dirty = t[CP_C1_DIRTY];
    q->c1_stamps = t[CP_C1_STAMPS];
    q->c1_count = t[CP_C1_COUNT];
    q->c1_mru = t[CP_C1_MRU];
    q->c2_tags = t[CP_C2_TAGS];
    q->c2_dirty = t[CP_C2_DIRTY];
    q->c2_stamps = t[CP_C2_STAMPS];
    q->c2_count = t[CP_C2_COUNT];
    q->c2_mru = t[CP_C2_MRU];
}

/* -- address decode (AddressMapper.to_dram, address.py) ------------------- */

static int64_t decode_addr(K *k, int64_t addr, int64_t *bank_out,
                           int64_t *row_out, int64_t *col_out)
{
    int64_t total = C(TOTAL_BYTES);
    if (addr < 0) {            /* _check_range raises for any negative */
        S(ERR_ADDR) = addr;
        return KERR_DECODE_RANGE;
    }
    if (addr >= total) {
        if (C(STRICT_DECODE)) {
            S(ERR_ADDR) = addr;
            return KERR_DECODE_RANGE;
        }
        addr %= total;         /* permissive wrap */
    }
    int64_t line = addr / C(LINE_BYTES);
    int64_t channels = C(CHANNELS);
    if (channels > 1) {
        /* _split_channel: keep the within-channel line only. */
        int64_t mode = C(CH_MODE);
        if (mode == 0) {                       /* slab */
            line = line % C(LINES_PER_CHANNEL);
        } else if (mode == 1) {                /* channel-line */
            line = line / channels;
        } else if (mode == 2) {                /* channel-row */
            int64_t columns = C(COLUMNS);
            int64_t span = line / columns;
            int64_t col_part = line % columns;
            line = (span / channels) * columns + col_part;
        } else {                               /* channel-xor */
            line = line / channels;            /* base */
        }
    }
    int64_t bank, row, col;
    if (C(ROW_MAJOR)) {
        int64_t columns = C(COLUMNS), nb = C(DEC_BANKS);
        col = line % columns;
        int64_t block = line / columns;
        bank = block % nb;
        row = (block / nb) % C(ROWS);
        if (C(SKEWED)) {
            int64_t skew = row ^ (row >> 4) ^ (row >> 8);
            bank = (bank + skew) % nb;
        }
    } else {
        int64_t nb = C(DEC_BANKS), columns = C(COLUMNS);
        bank = line % nb;
        line /= nb;
        col = line % columns;
        row = (line / columns) % C(ROWS);
    }
    *bank_out = bank;
    *row_out = row;
    *col_out = col;
    return KERN_OK;
}

/* -- violation log -------------------------------------------------------- */

static int64_t viol_push(K *k, int64_t kind, int64_t bank, int64_t row,
                         int64_t col, int64_t t, int64_t earliest,
                         int64_t code)
{
    int64_t count = S(VIOL_COUNT);
    if (count >= S(VIOL_CAP))
        return KERR_VIOL_OVERFLOW;
    int64_t *rec = k->viol + VIOL_STRIDE * count;
    rec[0] = kind;
    rec[1] = bank;
    rec[2] = row;
    rec[3] = col;
    rec[4] = t;
    rec[5] = earliest;
    rec[6] = code;
    S(VIOL_COUNT) = count + 1;
    return KERN_OK;
}

/* -- checker candidate enumeration (timing_checker.py) --------------------
 *
 * Python resolves the binding constraint with max() over an ordered
 * candidate list; max keeps the FIRST maximal element, so the C loops
 * only replace the best on a strictly greater value.
 */

/* The 4th-most-recent ACT of rank ``rk``'s tFAW window, if it holds
 * four: the channel-wide ring on single-rank topologies, the rank's own
 * ring otherwise. */
static int faw_fourth(K *k, int64_t rk, int64_t *out)
{
    int64_t cap = C(FAW_CAP), head, len;
    const int64_t *ring;
    if (C(NRANKS) > 1) {
        ring = k->rank_faw + rk * cap;
        head = k->rank_faw_hl[2 * rk];
        len = k->rank_faw_hl[2 * rk + 1];
    } else {
        ring = k->faw_ring;
        head = S(FAW_HEAD);
        len = S(FAW_LEN);
    }
    if (len < 4)
        return 0;
    *out = ring[(head + len - 4) % cap];
    return 1;
}

#define CAND(v, c) do { int64_t _v = (v); \
        if (_v > best) { best = _v; code = (c); } } while (0)

static void enum_act(K *k, int64_t bank, int64_t *e_out, int64_t *code_out)
{
    int64_t best = 0, code = CODE_POWER_ON;
    CAND(k->last_act[bank] + C(TRC), CODE_TRC);
    CAND(k->last_pre[bank] + C(TRP), CODE_TRP);
    /* tRRD couples the banks of one rank only. */
    int64_t grp = k->group_of[bank], bpr = C(BANKS_PER_RANK);
    int64_t rk = bank / bpr;
    for (int64_t ob = rk * bpr; ob < (rk + 1) * bpr; ob++) {
        if (ob == bank)
            continue;
        if (k->group_of[ob] == grp)
            CAND(k->last_act[ob] + C(TRRD_L), CODE_TRRD_L);
        else
            CAND(k->last_act[ob] + C(TRRD_S), CODE_TRRD_S);
    }
    int64_t fourth;
    if (faw_fourth(k, rk, &fourth))
        CAND(fourth + C(TFAW), CODE_TFAW);
    else
        CAND((int64_t)0, CODE_TFAW);
    CAND(S(LAST_REF) + C(TRFC), CODE_TRFC);
    *e_out = best;
    *code_out = code;
}

static void enum_cas(K *k, int64_t bank, int is_write, int64_t *e_out,
                     int64_t *code_out)
{
    int64_t best = 0, code = CODE_POWER_ON;
    CAND(k->last_act[bank] + C(TRCD), CODE_TRCD);
    /* Same-rank banks see tCCD_L/S and tWTR, other ranks tCS. */
    int64_t grp = k->group_of[bank], nb = C(NBANKS), bpr = C(BANKS_PER_RANK);
    int64_t rk = bank / bpr;
    int64_t we = NEVER_PS, other_we = NEVER_PS;
    for (int64_t ob = 0; ob < nb; ob++) {
        int64_t cas = k->last_read[ob] > k->last_write[ob]
            ? k->last_read[ob] : k->last_write[ob];
        int64_t wend = k->last_write_end[ob];
        if (ob / bpr != rk) {
            CAND(cas + C(TCS), CODE_TCS);
            if (wend > other_we)
                other_we = wend;
            continue;
        }
        if (k->group_of[ob] == grp)
            CAND(cas + C(TCCD_L), CODE_TCCD_L);
        else
            CAND(cas + C(TCCD_S), CODE_TCCD_S);
        if (wend > we)
            we = wend;
    }
    if (!is_write) {
        CAND(we + C(TWTR), CODE_TWTR);
        if (C(NRANKS) > 1)
            CAND(other_we + C(TCS), CODE_TCS);
    }
    *e_out = best;
    *code_out = code;
}

/* TimingChecker.earliest_issue of a PRE: the first maximal of tRAS, tRTP,
 * tWR over the power-on floor. */
static void enum_pre(K *k, int64_t bank, int64_t *e_out, int64_t *code_out)
{
    int64_t best = 0, code = CODE_POWER_ON;
    CAND(k->last_act[bank] + C(TRAS), CODE_TRAS);
    CAND(k->last_read[bank] + C(TRTP), CODE_TRTP);
    CAND(k->last_write_end[bank] + C(TWR), CODE_TWR);
    *e_out = best;
    *code_out = code;
}

static void enum_ref(K *k, int64_t *e_out, int64_t *code_out)
{
    int64_t best = 0, code = CODE_POWER_ON;
    int64_t nb = C(NBANKS);
    for (int64_t b = 0; b < nb; b++) {
        CAND(k->last_pre[b] + C(TRP), CODE_TRP);
        if (k->open_row[b] >= 0)
            CAND(FAR_FUTURE, CODE_BANKS_OPEN);
    }
    CAND(S(LAST_REF) + C(TRFC), CODE_TRFC);
    *e_out = best;
    *code_out = code;
}

/* -- per-command state transitions (device.py issue_plan / flat_timing) --- */

static int64_t note_wr_hit(K *k, int64_t bank, int64_t row, int64_t col)
{
    /* A conventional WR to a materialized row resets the line to its
     * filler pattern; log the hit for the driver to apply. */
    int64_t n = S(NMAT);
    if (!n || row < 0)
        return KERN_OK;
    int64_t key = (bank << 32) | row;
    int64_t lo = 0, hi = n - 1;
    while (lo <= hi) {
        int64_t mid = (lo + hi) / 2;
        int64_t v = k->mat_keys[mid];
        if (v == key) {
            int64_t count = S(WRHIT_COUNT);
            if (count >= S(WRHIT_CAP))
                return KERR_VIOL_OVERFLOW;
            int64_t *rec = k->wrhit + WRHIT_STRIDE * count;
            rec[0] = bank;
            rec[1] = row;
            rec[2] = col;
            S(WRHIT_COUNT) = count + 1;
            return KERN_OK;
        }
        if (v < key)
            lo = mid + 1;
        else
            hi = mid - 1;
    }
    return KERN_OK;
}

/* tFAW sliding window: append, then expire entries <= t - tFAW. */
static int64_t faw_push(K *k, int64_t *ring, int64_t *head_p,
                        int64_t *len_p, int64_t t)
{
    int64_t cap = C(FAW_CAP), len = *len_p, head = *head_p;
    if (len >= cap)
        return KERR_FAW_OVERFLOW;
    ring[(head + len) % cap] = t;
    len += 1;
    int64_t cutoff = t - C(TFAW);
    while (len && ring[head] <= cutoff) {
        head = (head + 1) % cap;
        len -= 1;
    }
    *head_p = head;
    *len_p = len;
    return KERN_OK;
}

/* -- reduced tRCD (core/techniques/trcd.py, profiling/bloom.py) ---------- */

/* bloom._mix: splitmix64 with a seed, in wrapping uint64 arithmetic. */
static uint64_t bloom_mix(uint64_t x, uint64_t seed)
{
    x = x + seed + 0x9E3779B97F4A7C15ULL;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    return x ^ (x >> 31);
}

/* TrcdReductionTechnique.trcd_for: a weak-row filter hit (or a false
 * positive) keeps nominal tRCD; every other row gets the reduced one. */
static int trcd_reduced(K *k, int64_t bank, int64_t row)
{
    uint64_t key = ((uint64_t)C(CHANNEL) << 48) | ((uint64_t)bank << 32)
        | (uint64_t)row;
    uint64_t h1 = bloom_mix(key, (uint64_t)C(BLOOM_SEED1));
    uint64_t h2 = bloom_mix(key, (uint64_t)C(BLOOM_SEED2)) | 1;
    uint64_t nbits = (uint64_t)C(BLOOM_NBITS);
    const uint8_t *bits = (const uint8_t *)k->bloom;
    for (int64_t i = 0; i < C(BLOOM_HASHES); i++) {
        uint64_t pos = (h1 + (uint64_t)i * h2) % nbits;
        if (!(bits[pos >> 3] & (1u << (pos & 7))))
            return 1;
    }
    return 0;
}

static int64_t apply_act(K *k, int64_t bank, int64_t row, int64_t t)
{
    int64_t grp = k->group_of[bank];
    k->last_act[bank] = t;
    k->act_count[bank] += 1;
    if (k->open_row[bank] < 0)
        S(OPEN_COUNT) += 1;
    k->open_row[bank] = row;
    if (t > k->gmax_act[grp])
        k->gmax_act[grp] = t;
    if (t > S(MAX_ACT_ALL))
        S(MAX_ACT_ALL) = t;
    /* tFAW windows: the channel-wide one always, the rank's own too on
     * multi-rank topologies. */
    int64_t err = faw_push(k, k->faw_ring, &S(FAW_HEAD), &S(FAW_LEN), t);
    if (!err && C(NRANKS) > 1) {
        int64_t rk = bank / C(BANKS_PER_RANK);
        int64_t *hl = k->rank_faw_hl + 2 * rk;
        err = faw_push(k, k->rank_faw + rk * C(FAW_CAP), hl, hl + 1, t);
    }
    S(CMD_ACT) += 1;
    return err;
}

static void apply_pre(K *k, int64_t bank, int64_t t)
{
    k->prev_open_row[bank] = k->open_row[bank];
    if (k->open_row[bank] >= 0) {
        S(OPEN_COUNT) -= 1;
        k->open_row[bank] = -1;
    }
    k->last_pre[bank] = t;
    if (t > S(MAX_PRE))
        S(MAX_PRE) = t;
    S(CMD_PRE) += 1;
}

static int64_t apply_rd(K *k, int64_t bank, int64_t t)
{
    /* A read under nominal tRCD (only the tRCD technique issues one):
     * log it for the driver's cell-model reliability check. */
    int64_t trcd_used = t - k->last_act[bank];
    if (trcd_used < C(TRCD)) {
        int64_t count = S(RLOG_COUNT);
        if (count >= S(RLOG_CAP))
            return KERR_VIOL_OVERFLOW;
        int64_t *rec = k->rlog + RLOG_STRIDE * count;
        rec[0] = bank;
        rec[1] = k->open_row[bank];
        rec[2] = trcd_used;
        S(RLOG_COUNT) = count + 1;
    }
    int64_t grp = k->group_of[bank];
    k->last_read[bank] = t;
    if (t > k->gmax_cas[grp])
        k->gmax_cas[grp] = t;
    if (t > S(MAX_CAS_ALL))
        S(MAX_CAS_ALL) = t;
    S(CMD_RD) += 1;
    return KERN_OK;
}

static int64_t apply_wr(K *k, int64_t bank, int64_t col, int64_t t)
{
    int64_t err = note_wr_hit(k, bank, k->open_row[bank], col);
    if (err)
        return err;
    int64_t grp = k->group_of[bank];
    int64_t data_end = t + C(WRITE_BURST);
    k->last_write[bank] = t;
    k->last_write_end[bank] = data_end;
    if (t > k->gmax_cas[grp])
        k->gmax_cas[grp] = t;
    if (t > S(MAX_CAS_ALL))
        S(MAX_CAS_ALL) = t;
    if (data_end > S(MAX_WRITE_END))
        S(MAX_WRITE_END) = data_end;
    S(CMD_WR) += 1;
    return KERN_OK;
}

/* FlatTimingState._earliest_multi_rank: tRRD/tFAW and tCCD/tWTR couple
 * the banks of one rank; other ranks' column commands and write bursts
 * only impose tCS.  tRFC reads the channel-wide last REF. */
static int64_t earliest_multi_rank(K *k, int64_t kind, int64_t bank)
{
    int64_t e, v;
    int64_t grp = k->group_of[bank], bpr = C(BANKS_PER_RANK);
    int64_t lo = (bank / bpr) * bpr, hi = lo + bpr;
    if (kind == K_ACT) {
        e = k->last_act[bank] + C(TRC);
        v = k->last_pre[bank] + C(TRP);
        if (v > e)
            e = v;
        for (int64_t ob = lo; ob < hi; ob++) {
            if (ob == bank)
                continue;
            v = k->last_act[ob]
                + (k->group_of[ob] == grp ? C(TRRD_L) : C(TRRD_S));
            if (v > e)
                e = v;
        }
        if (faw_fourth(k, bank / bpr, &v)) {
            v += C(TFAW);
            if (v > e)
                e = v;
        }
        v = S(LAST_REF) + C(TRFC);
        if (v > e)
            e = v;
        return e;
    }
    e = k->last_act[bank] + C(TRCD);
    int is_read = kind == K_RD;
    int64_t nb = C(NBANKS);
    for (int64_t ob = 0; ob < nb; ob++) {
        int64_t cas = k->last_read[ob] > k->last_write[ob]
            ? k->last_read[ob] : k->last_write[ob];
        int64_t same = ob >= lo && ob < hi;
        v = cas + (!same ? C(TCS)
                   : k->group_of[ob] == grp ? C(TCCD_L) : C(TCCD_S));
        if (v > e)
            e = v;
        if (is_read) {
            v = k->last_write_end[ob] + (same ? C(TWTR) : C(TCS));
            if (v > e)
                e = v;
        }
    }
    return e;
}

/* Earliest legal time of an in-plan (non-leading) command: the two-term
 * aggregate form on single-rank channels (exact because the kernel only
 * engages when the bank-group timing relations hold), the rank-aware
 * scans otherwise. */
static int64_t flat_earliest(K *k, int64_t kind, int64_t bank)
{
    if (C(NRANKS) > 1)
        return earliest_multi_rank(k, kind, bank);
    int64_t e, v;
    int64_t grp = k->group_of[bank];
    if (kind == K_ACT) {
        e = k->last_act[bank] + C(TRC);
        v = k->last_pre[bank] + C(TRP);
        if (v > e)
            e = v;
        v = S(MAX_ACT_ALL) + C(TRRD_S);
        if (v > e)
            e = v;
        v = k->gmax_act[grp] + C(TRRD_L);
        if (v > e)
            e = v;
        if (faw_fourth(k, 0, &v)) {
            v += C(TFAW);
            if (v > e)
                e = v;
        }
        v = S(LAST_REF) + C(TRFC);
        if (v > e)
            e = v;
    } else {                                   /* K_RD / K_WR */
        e = k->last_act[bank] + C(TRCD);
        v = S(MAX_CAS_ALL) + C(TCCD_S);
        if (v > e)
            e = v;
        v = k->gmax_cas[grp] + C(TCCD_L);
        if (v > e)
            e = v;
        if (kind == K_RD) {
            v = S(MAX_WRITE_END) + C(TWTR);
            if (v > e)
                e = v;
        }
    }
    return e;
}

/* device.issue_plan: walk a memoized plan from the precleared start. */
static int64_t issue_plan_k(K *k, int64_t p, int64_t bank, int64_t row,
                            int64_t col, int64_t start)
{
    int64_t n = k->plan_n[p];
    int64_t tck = C(TCK);
    int64_t t = start;
    for (int64_t i = 0; i < n; i++) {
        int64_t kind = k->plan_kinds[PLAN_STRIDE * p + i];
        t = start + k->plan_offsets[PLAN_STRIDE * p + i] * tck;
        if (i) {
            int64_t e = flat_earliest(k, kind, bank);
            if (t < e) {
                int64_t ee, code;
                if (kind == K_ACT)
                    enum_act(k, bank, &ee, &code);
                else
                    enum_cas(k, bank, kind == K_WR ? 1 : 0, &ee, &code);
                int64_t err = viol_push(k, kind, bank, row, col, t, ee, code);
                if (err)
                    return err;
            }
        }
        int64_t err = KERN_OK;
        if (kind == K_ACT)
            err = apply_act(k, bank, row, t);
        else if (kind == K_PRE)
            apply_pre(k, bank, t);
        else if (kind == K_RD)
            err = apply_rd(k, bank, t);
        else if (kind == K_WR)
            err = apply_wr(k, bank, col, t);
        else
            err = KERR_BAD_KIND;
        if (err)
            return err;
    }
    S(LAST_ISSUE) = t;
    return KERN_OK;
}

/* device.issue_col: the single precleared RD/WR of a row hit. */
static int64_t issue_col_k(K *k, int64_t kind, int64_t bank, int64_t col,
                           int64_t t)
{
    int64_t err = KERN_OK;
    if (kind == K_RD)
        err = apply_rd(k, bank, t);
    else if (kind == K_WR)
        err = apply_wr(k, bank, col, t);
    else
        err = KERR_BAD_KIND;
    if (err)
        return err;
    S(LAST_ISSUE) = t;
    return KERN_OK;
}

/* -- refresh episode (smc._maybe_refresh_flat) ---------------------------- */

static int64_t refresh_episode(K *k)
{
    while (S(NEXT_REFRESH) <= S(SCHED_CURSOR)) {
        S(CHARGED) = 0;        /* staging + accumulated charges discarded */
        int64_t anchor = S(SCHED_CURSOR);
        S(EXEC_ANCHOR) = anchor;
        int64_t start = anchor >= S(DRAM_CURSOR) ? anchor : S(DRAM_CURSOR);
        /* flat.earliest(K_PREA): worst bank's precharge bound, >= 0. */
        int64_t e = 0, nb = C(NBANKS);
        for (int64_t b = 0; b < nb; b++) {
            int64_t v, code;
            enum_pre(k, b, &v, &code);
            if (v > e)
                e = v;
        }
        if (e > start)
            start = e;
        /* PREA, precleared: every bank precharges at start. */
        for (int64_t b = 0; b < nb; b++) {
            k->prev_open_row[b] = k->open_row[b];
            if (k->open_row[b] >= 0) {
                S(OPEN_COUNT) -= 1;
                k->open_row[b] = -1;
            }
            k->last_pre[b] = start;
        }
        if (start > S(MAX_PRE))
            S(MAX_PRE) = start;
        S(CMD_PREA) += 1;
        S(LAST_ISSUE) = start;
        /* REF at the fixed plan offset; legality checked (not precleared). */
        int64_t t2 = start + C(REF_OFFSET);
        int64_t er = S(MAX_PRE) + C(TRP);
        int64_t v = S(LAST_REF) + C(TRFC);
        if (v > er)
            er = v;
        if (S(OPEN_COUNT))
            er = FAR_FUTURE;   /* unreachable: PREA just closed every bank */
        if (er < 0)
            er = 0;
        if (t2 < er) {
            int64_t ee, code;
            enum_ref(k, &ee, &code);
            int64_t err = viol_push(k, K_REF, 0, 0, 0, t2, ee, code);
            if (err)
                return err;
        }
        S(LAST_REF) = t2;
        S(CMD_REF) += 1;
        S(LAST_ISSUE) = t2;
        S(B_PROGRAMS) += 1;
        S(B_CYCLES) += C(REF_CYCLES);
        S(DRAM_CURSOR) = start + C(REF_MEASURED);
        S(T_DRAM_BUSY) += C(REF_MEASURED);
        S(S_BATCHES) += 1;
        S(CHARGED) = 0;        /* flush charges discarded */
        S(S_REFRESHES) += 1;
        S(T_REFRESHES) += 1;
        if (C(STORM_FACTOR) > 1) {
            S(REFRESH_INDEX) += 1;
            if (S(REFRESH_INDEX) % C(STORM_FACTOR))
                S(S_STORM) += 1;
        }
        S(NEXT_REFRESH) += C(REFRESH_INTERVAL);
        if (!C(PIPELINED) && S(DRAM_CURSOR) > S(SCHED_CURSOR))
            S(SCHED_CURSOR) = S(DRAM_CURSOR);
    }
    return KERN_OK;
}

/* -- serve one request (smc._make_serve_flat) ----------------------------- */

static int64_t serve_one(K *k, int64_t bank, int64_t row, int64_t col,
                         int64_t is_wb, int64_t core,
                         int64_t *release_out, int64_t *service_out)
{
    int64_t sched_start = S(SCHED_CURSOR);
    int64_t open = k->open_row[bank];
    int64_t cse;
    if (open == row) {
        S(T_HITS) += 1;
        cse = 0;
    } else if (open < 0) {
        S(T_MISSES) += 1;
        cse = 1;
    } else {
        S(T_CONFLICTS) += 1;
        cse = 2;
    }
    if (C(HAS_TRACKER)) {
        int64_t *tr = k->tracker + 5 * core;
        if (is_wb)
            tr[1] += 1;        /* writes */
        else
            tr[0] += 1;        /* reads */
        tr[2 + cse] += 1;      /* row_hits / row_misses / row_conflicts */
    }
    int64_t p = 2 * cse + is_wb;
    if (C(TRCD_TECH)) {
        /* TrcdReductionTechnique._serve: a row hit is the stock plan; an
         * activation picks its tRCD per row from the Bloom filter. */
        if (!cse) {
            S(TR_HITS) += 1;
        } else if (trcd_reduced(k, bank, row)) {
            S(TR_REDUCED) += 1;
            p += 4;
        } else {
            S(TR_NOMINAL) += 1;
        }
    }
    int64_t sched_cycles = S(CHARGED) + k->plan_charge[p];
    S(CHARGED) = 0;
    S(S_SCHED_CYCLES) += sched_cycles;
    int64_t sched_ps = sched_cycles * C(MC_PERIOD);
    S(T_SCHED_PS) += sched_ps;
    int64_t start = sched_start + sched_ps;
    S(EXEC_ANCHOR) = start;
    if (S(DRAM_CURSOR) > start)
        start = S(DRAM_CURSOR);
    /* Earliest legal time of the leading command (inline two-term on
     * single-rank channels). */
    int64_t e, v;
    int64_t grp = k->group_of[bank];
    if (cse == 0 && C(NRANKS) > 1) {
        e = earliest_multi_rank(k, is_wb ? K_WR : K_RD, bank);
    } else if (cse == 0) {     /* RD/WR on the open row */
        e = k->last_act[bank] + C(TRCD);
        v = S(MAX_CAS_ALL) + C(TCCD_S);
        if (v > e)
            e = v;
        v = k->gmax_cas[grp] + C(TCCD_L);
        if (v > e)
            e = v;
        if (!is_wb) {
            v = S(MAX_WRITE_END) + C(TWTR);
            if (v > e)
                e = v;
        }
    } else if (cse == 2) {     /* PRE (row conflict) */
        e = k->last_act[bank] + C(TRAS);
        v = k->last_read[bank] + C(TRTP);
        if (v > e)
            e = v;
        v = k->last_write_end[bank] + C(TWR);
        if (v > e)
            e = v;
    } else {                   /* ACT (closed bank) */
        e = flat_earliest(k, K_ACT, bank);
    }
    if (e > start)
        start = e;
    int64_t err;
    if (cse)
        err = issue_plan_k(k, p, bank, row, col, start);
    else
        err = issue_col_k(k, k->plan_kinds[PLAN_STRIDE * p], bank, col,
                          start);
    if (err)
        return err;
    S(B_PROGRAMS) += 1;
    S(B_CYCLES) += k->plan_cycles[p];
    int64_t measured = k->plan_measured[p];
    int64_t dram_end = start + measured;
    S(DRAM_CURSOR) = dram_end;
    S(T_DRAM_BUSY) += measured;
    S(S_BATCHES) += 1;
    int64_t release_ps = dram_end + (is_wb ? C(LAT_WR) : C(LAT_RD))
        + C(RESP_BUS);
    int64_t pp = C(PROC_PERIOD);
    *release_out = (release_ps + pp - 1) / pp;   /* ceil, operands >= 0 */
    if (service_out)
        *service_out = dram_end - sched_start;
    if (is_wb)
        S(S_WRITES) += 1;
    else
        S(S_READS) += 1;
    S(CHARGED) = 0;            /* discarded rdback/enqueue charges */
    S(T_RESPONSES) += 1;
    if (C(PIPELINED)) {
        int64_t occupied = sched_start + C(OCCUPANCY);
        if (occupied > S(SCHED_CURSOR))
            S(SCHED_CURSOR) = occupied;
    } else {
        int64_t cursor = sched_start + sched_ps + k->plan_postflush[p];
        if (dram_end > cursor)
            cursor = dram_end;
        S(SCHED_CURSOR) = cursor;
    }
    return KERN_OK;
}

/* -- stateful scheduler select (schedulers.py _RankedScheduler) ----------- */

#define CORE_OF(ent) (core ? core[(ent)[1]] : 0)

/* _RankedScheduler.select_flat over the live table (arrival order):
 * _before_select, the age-cap override, the (group, write, row-miss,
 * arrival) minimum, then _note_serve -- on every serve, singletons
 * included.  Per-core state lives in sched_core (ATLAS attained service
 * with -1 = no entry, BLISS blacklist flags, batch mark counts). */
static int64_t select_ranked(K *k, int64_t *tbl, int64_t tcount,
                             const int64_t *core)
{
    int64_t kind = C(SCHED_KIND);
    int64_t *sc = k->sched_core;
    int64_t ncores = S(SCHED_NCORES);
    if (kind == SCHED_BATCH) {
        /* BatchScheduler._before_select: with no live entry marked, mark
         * the oldest BATCH_CAP entries of every core. */
        int marked = 0;
        for (int64_t j = 0; j < tcount && !marked; j++)
            marked = tbl[TBL_STRIDE * j + 6] != 0;
        if (!marked) {
            memset(sc, 0, (size_t)ncores * sizeof(int64_t));
            for (int64_t j = 0; j < tcount; j++) {
                int64_t *ent = tbl + TBL_STRIDE * j;
                int64_t c = CORE_OF(ent);
                if (sc[c] < C(BATCH_CAP)) {
                    sc[c] += 1;
                    ent[6] = 1;
                }
            }
        }
    }
    int64_t pick = 0;
    int64_t cap = C(AGE_CAP);
    if (cap < 0 || tbl[TBL_STRIDE * (tcount - 1)] - tbl[0] < cap) {
        int64_t best_group = INT64_MAX, best_key = INT64_MAX;
        for (int64_t j = 0; j < tcount; j++) {
            int64_t *ent = tbl + TBL_STRIDE * j;
            int64_t group;
            if (kind == SCHED_ATLAS)
                group = sc[CORE_OF(ent)] > 0 ? sc[CORE_OF(ent)] : 0;
            else if (kind == SCHED_BLISS)
                group = sc[CORE_OF(ent)];
            else
                group = ent[6] ? 0 : 1;
            /* (write, row-miss, arrival) packed as in FR-FCFS. */
            int64_t key = ent[0];
            if (ent[5])
                key += (int64_t)2 << 60;
            if (k->open_row[ent[2]] != ent[3])
                key += (int64_t)1 << 60;
            if (group < best_group
                    || (group == best_group && key < best_key)) {
                best_group = group;
                best_key = key;
                pick = j;
            }
        }
    }
    int64_t *ent = tbl + TBL_STRIDE * pick;
    int64_t c = CORE_OF(ent);
    int hit = k->open_row[ent[2]] == ent[3];
    if (kind == SCHED_ATLAS) {
        sc[c] = (sc[c] > 0 ? sc[c] : 0) + (hit ? 1 : 2);
        S(ATLAS_SERVES) += 1;
        if (S(ATLAS_SERVES) >= C(QUANTUM)) {
            S(ATLAS_SERVES) = 0;
            for (int64_t j = 0; j < ncores; j++)
                if (sc[j] > 0)
                    sc[j] >>= 1;
        }
    } else if (kind == SCHED_BLISS) {
        if (c == S(BL_LAST)) {
            S(BL_STREAK) += 1;
        } else {
            S(BL_LAST) = c;
            S(BL_STREAK) = 1;
        }
        if (S(BL_STREAK) >= C(BL_THRESHOLD))
            sc[c] = 1;
        S(BL_SERVES) += 1;
        if (S(BL_SERVES) >= C(BL_CLEAR)) {
            S(BL_SERVES) = 0;
            memset(sc, 0, (size_t)ncores * sizeof(int64_t));
        }
    }
    /* Batch: marked.discard() -- the mark leaves with the entry. */
    return pick;
}

#undef CORE_OF

/* -- one critical-mode episode (smc._make_service_fast) -------------------
 *
 * ``arrivals`` must be sorted by tag (stable).  Covers the n == 1 shape
 * exactly: the singleton specialization differs only in when charges
 * accumulate, which is unobservable because charged_cycles is read only
 * at serve time (and zeroed by refresh episodes) -- the sums at every
 * read point are identical.
 */

static int64_t episode(K *k, int64_t n, const int64_t *tag,
                       const int64_t *addr, const int64_t *flags,
                       const int64_t *core, int64_t *release,
                       int64_t *service)
{
    /* counters.enter_critical() */
    if (!S(CNT_CRITICAL)) {
        S(CNT_CRITICAL) = 1;
        S(CNT_CRIT_ENTRIES) += 1;
        S(CNT_LOCKED_AT) = S(CNT_PROC);
    }
    S(CHARGED) += C(TOGGLE);   /* set_scheduling_state(True) */
    S(CRITICAL) = 1;
    int64_t pp = C(PROC_PERIOD), bus = C(REQ_BUS);
    int64_t now = tag[0] * pp + bus;
    if (S(SCHED_CURSOR) > now)
        now = S(SCHED_CURSOR);
    S(SCHED_CURSOR) = now;
    int64_t pos = 0, tcount = 0;
    int64_t *tbl = k->tbl;
    int64_t sched = C(SCHED_KIND);
    while (pos < n || tcount) {
        int64_t cursor = S(SCHED_CURSOR);
        while (pos < n) {
            int64_t arrival = tag[pos] * pp + bus;
            if (arrival <= cursor || !tcount) {
                S(T_REQUESTS) += 1;
                /* get_request + get_addr_mapping; a strict-map decode
                 * error raises before the table insert is charged. */
                S(CHARGED) += C(RECEIVE_CHARGE);
                int64_t bank, row, col;
                int64_t err = decode_addr(k, addr[pos], &bank, &row, &col);
                if (err)
                    return err;
                S(CHARGED) += C(INSERT_CHARGE);
                int64_t *ent = tbl + TBL_STRIDE * tcount;
                ent[0] = S(ARRIVAL_COUNTER);
                S(ARRIVAL_COUNTER) += 1;
                ent[1] = pos;
                ent[2] = bank;
                ent[3] = row;
                ent[4] = col;
                ent[5] = flags[pos] & RF_WRITEBACK;
                ent[6] = 0;
                tcount += 1;
                if (arrival > cursor)
                    cursor = arrival;
                pos += 1;
            } else {
                break;
            }
        }
        S(SCHED_CURSOR) = cursor;
        if (!tcount) {
            int64_t next_arrival = tag[pos] * pp + bus;
            if (next_arrival > cursor)
                S(SCHED_CURSOR) = next_arrival;
            continue;
        }
        if (C(REFRESH_ENABLED) && S(NEXT_REFRESH) <= S(SCHED_CURSOR)) {
            int64_t err = refresh_episode(k);
            if (err)
                return err;
        }
        S(CHARGED) += C(DECISION_BASE) + C(DECISION_PER) * tcount;
        /* Scheduler select (schedulers.py select_flat; count == 1 pops
         * directly on the stateless policies -- same entry either way). */
        int64_t pick = 0;
        if (sched >= SCHED_ATLAS) {
            pick = select_ranked(k, tbl, tcount, core);
        } else if (tcount > 1 && sched == SCHED_FRFCFS) {
            int64_t *first = tbl;
            int64_t *last = tbl + TBL_STRIDE * (tcount - 1);
            int64_t age_cap = C(AGE_CAP);
            if (age_cap >= 0 && last[0] - first[0] >= age_cap) {
                pick = 0;
            } else if (!first[5] && k->open_row[first[2]] == first[3]) {
                pick = 0;      /* oldest is a row-hit read: take it */
            } else {
                int64_t best_key = INT64_MAX;
                for (int64_t j = 0; j < tcount; j++) {
                    int64_t *ent = tbl + TBL_STRIDE * j;
                    int64_t key = ent[0];
                    if (ent[5])
                        key += (int64_t)2 << 60;
                    if (k->open_row[ent[2]] != ent[3])
                        key += (int64_t)1 << 60;
                    if (key < best_key) {
                        best_key = key;
                        pick = j;
                    }
                }
            }
        }
        int64_t *ent = tbl + TBL_STRIDE * pick;
        int64_t idx = ent[1];
        int64_t rel, svc;
        int64_t err = serve_one(k, ent[2], ent[3], ent[4], ent[5],
                                core ? core[idx] : 0, &rel, &svc);
        if (err)
            return err;
        release[idx] = rel;
        if (service)
            service[idx] = svc;
        if (pick < tcount - 1)
            memmove(ent, ent + TBL_STRIDE,
                    (size_t)(tcount - 1 - pick) * TBL_STRIDE
                    * sizeof(int64_t));
        tcount -= 1;
    }
    S(CHARGED) += C(TOGGLE);   /* set_scheduling_state(False) */
    S(CRITICAL) = 0;
    /* _sync_mc_counter: advance-only (backwards would raise in Python). */
    int64_t point = S(SCHED_CURSOR) > S(DRAM_CURSOR)
        ? S(SCHED_CURSOR) : S(DRAM_CURSOR);
    int64_t cycle = point / pp;
    if (cycle > S(CNT_MC))
        S(CNT_MC) = cycle;
    /* counters.exit_critical() */
    S(CNT_CRITICAL) = 0;
    if (S(CNT_MC) > S(CNT_PROC)) {
        S(CNT_CATCHUP) += S(CNT_MC) - S(CNT_PROC);
        S(CNT_PROC) = S(CNT_MC);
    }
    return KERN_OK;
}

#undef CAND

/* -- resident replay: per-core request and latency logs ------------------ */

/* Burst outcomes, next to KERN_NEED_BLOCK / KERN_NEED_ROOM. */
#define R_BLOCKED 3
#define R_DONE 4

static int64_t pend_append(K *k, Core *q, int64_t pos, int64_t tag,
                           int64_t addr, int64_t flags)
{
    int64_t count = S(PEND_COUNT);
    if (count >= S(PEND_CAP))
        return KERR_PEND_OVERFLOW;
    k->pend_tag[count] = tag;
    k->pend_addr[count] = addr;
    k->pend_flags[count] = flags;
    k->pend_rid[count] = CS(NEXT_RID);
    CS(NEXT_RID) += 1;
    k->pend_release[count] = -1;
    k->pend_core[count] = CS(CORE_ID);
    k->pend_pos[count] = pos;
    S(PEND_COUNT) = count + 1;
    return KERN_OK;
}

static int64_t lat_append(Core *q, int64_t delta)
{
    int64_t count = CS(LAT_COUNT);
    if (count >= CS(LAT_CAP))
        return KERR_PEND_OVERFLOW;
    q->latencies[count] = delta > 0 ? delta : 0;
    CS(LAT_COUNT) = count + 1;
    return KERN_OK;
}

/* -- resident cache filter (CacheHierarchy.access_block, cpu/cache.py) ---- */

/* L2 probe with LRU/dirty touch; returns the hit slot or -1. */
static int64_t l2_touch(K *k, Core *q, int64_t s2, int64_t t2, int set_dirty)
{
    int64_t a2 = C(C2_ASSOC);
    int64_t *ts2 = q->c2_tags + s2 * a2;
    int64_t c2 = q->c2_count[s2];
    int64_t slot = q->c2_mru[s2];
    if (slot >= 0 && slot < c2 && ts2[slot] == t2) {
        ;
    } else {
        slot = -1;
        for (int64_t w = 0; w < c2; w++) {
            if (ts2[w] == t2) {
                slot = w;
                q->c2_mru[s2] = w;
                break;
            }
        }
    }
    if (slot < 0)
        return -1;
    q->c2_stamps[s2 * a2 + slot] = CS(C2_TICK);
    CS(C2_TICK) += 1;
    if (set_dirty)
        q->c2_dirty[s2 * a2 + slot] = 1;
    CS(C2_HITS) += 1;
    return slot;
}

/* L2 fill of a known-absent line; logs an access-i writeback on dirty
 * eviction.  The wbidx/wbaddr buffers are driver-sized for the worst
 * case (two writebacks per access), so no bounds check is needed. */
static void l2_fill(K *k, Core *q, int64_t s2, int64_t t2, int dirty,
                    int64_t i, int64_t *nwb)
{
    int64_t a2 = C(C2_ASSOC);
    int64_t base = s2 * a2;
    int64_t *ts2 = q->c2_tags + base;
    int64_t c2 = q->c2_count[s2];
    int64_t vslot;
    CS(C2_MISSES) += 1;
    if (c2 >= a2) {
        int64_t *st2 = q->c2_stamps + base;
        int64_t best = st2[0];
        vslot = 0;
        for (int64_t w = 1; w < a2; w++) {
            if (st2[w] < best) {   /* first-minimum, like list.index(min) */
                best = st2[w];
                vslot = w;
            }
        }
        if (q->c2_dirty[base + vslot]) {
            CS(C2_WB) += 1;
            q->blk_wbidx[*nwb] = i;
            q->blk_wbaddr[*nwb] = (ts2[vslot] * C(C2_SETS) + s2)
                * C(C_LINE_BYTES);
            *nwb += 1;
        }
        ts2[vslot] = t2;
        q->c2_dirty[base + vslot] = dirty;
        st2[vslot] = CS(C2_TICK);
    } else {
        vslot = c2;
        ts2[vslot] = t2;
        q->c2_dirty[base + vslot] = dirty;
        q->c2_stamps[base + vslot] = CS(C2_TICK);
        q->c2_count[s2] = c2 + 1;
    }
    CS(C2_TICK) += 1;
    q->c2_mru[s2] = vslot;
}

/* The fused two-level block filter over one core's private caches: fills
 * blk_lat/blk_fill per access and the blk_wbidx/blk_wbaddr pairs,
 * bit-identical to the Python access_block scan (same probe order, same
 * first-min LRU eviction). */
static void filter_block(K *k, Core *q)
{
    int64_t n = CS(BLK_N);
    int64_t lb = C(C_LINE_BYTES);
    int64_t n1 = C(C1_SETS), a1 = C(C1_ASSOC);
    int64_t n2 = C(C2_SETS);
    int64_t hit1 = C(C1_HIT), hit12 = C(C2_HIT12);
    int64_t miss_lat = C(C_MISS_LAT);
    int64_t nwb = 0;
    for (int64_t i = 0; i < n; i++) {
        int64_t line = q->blk_addr[i] / lb;
        int is_write = (int)(q->blk_flags[i] & AF_WRITE);
        int64_t s1 = line % n1, t1 = line / n1;
        int64_t base1 = s1 * a1;
        int64_t *ts1 = q->c1_tags + base1;
        int64_t c1 = q->c1_count[s1];
        /* -- L1 probe (MRU slot first) ---------------------------------- */
        int64_t slot = q->c1_mru[s1];
        if (slot >= 0 && slot < c1 && ts1[slot] == t1) {
            ;
        } else {
            slot = -1;
            for (int64_t w = 0; w < c1; w++) {
                if (ts1[w] == t1) {
                    slot = w;
                    q->c1_mru[s1] = w;
                    break;
                }
            }
        }
        if (slot >= 0) {
            q->c1_stamps[base1 + slot] = CS(C1_TICK);
            CS(C1_TICK) += 1;
            if (is_write)
                q->c1_dirty[base1 + slot] = 1;
            CS(C1_HITS) += 1;
            q->blk_lat[i] = hit1;
            q->blk_fill[i] = -1;
            continue;
        }
        CS(C1_MISSES) += 1;
        /* -- L2 probe --------------------------------------------------- */
        int64_t s2 = line % n2, t2 = line / n2;
        if (l2_touch(k, q, s2, t2, 0) >= 0) {
            q->blk_lat[i] = hit12;
            q->blk_fill[i] = -1;
        } else {
            l2_fill(k, q, s2, t2, 0, i, &nwb);
            q->blk_lat[i] = miss_lat;
            q->blk_fill[i] = line * lb;
        }
        /* -- install into L1 (line known absent) ------------------------ */
        int64_t vslot;
        if (c1 >= a1) {
            int64_t *st1 = q->c1_stamps + base1;
            int64_t best = st1[0];
            vslot = 0;
            for (int64_t w = 1; w < a1; w++) {
                if (st1[w] < best) {
                    best = st1[w];
                    vslot = w;
                }
            }
            if (q->c1_dirty[base1 + vslot]) {
                CS(C1_WB) += 1;
                int64_t victim = ts1[vslot] * n1 + s1;
                /* Dirty L1 victim folds into L2. */
                int64_t sv = victim % n2, tv = victim / n2;
                if (l2_touch(k, q, sv, tv, 1) < 0)
                    l2_fill(k, q, sv, tv, 1, i, &nwb);
            }
            ts1[vslot] = t1;
            q->c1_dirty[base1 + vslot] = is_write;
            q->c1_stamps[base1 + vslot] = CS(C1_TICK);
        } else {
            vslot = c1;
            ts1[vslot] = t1;
            q->c1_dirty[base1 + vslot] = is_write;
            q->c1_stamps[base1 + vslot] = CS(C1_TICK);
            q->c1_count[s1] = c1 + 1;
        }
        CS(C1_TICK) += 1;
        q->c1_mru[s1] = vslot;
    }
    CS(BLK_NWB) = nwb;
}

/* -- one core's burst (Processor.execute_burst) ------------------ */

/* Replay the core's current block from its cursor until the block ends
 * (KERN_OK) or the core clock-gates on an unreleased fill (R_BLOCKED);
 * the cursor and counters are saved either way. */
static int64_t replay_block(K *k, Core *q, int64_t pos)
{
    int64_t n = CS(BLK_N), nwb = CS(BLK_NWB);
    int64_t i = CS(POS), wb_ptr = CS(WB_PTR);
    int64_t cycles = CS(CYCLES);
    int64_t accesses = CS(ACCESSES), loads = CS(LOADS);
    int64_t stores = CS(STORES), compute = CS(COMPUTE);
    int64_t stalls = CS(STALLS);
    int64_t mlp = C(MLP), window = C(WINDOW);
    int64_t err = KERN_OK;
    while (i < n) {
        int64_t flag = q->blk_flags[i];
        int64_t oc = CS(OUT_COUNT);
        if (oc && ((flag & AF_DEPENDENT) || oc >= mlp
                   || accesses - q->out_issue[0] >= window)) {
            if (flag & AF_DEPENDENT) {
                /* A dependent access consumes *every* outstanding fill. */
                for (int64_t j = 0; j < oc && !err; j++)
                    if (q->out_release[j] < 0)
                        err = R_BLOCKED;
                if (err)
                    break;
                for (int64_t j = 0; j < oc; j++) {
                    int64_t rel = q->out_release[j];
                    if (rel > cycles) {
                        stalls += rel - cycles;
                        cycles = rel;
                    }
                    err = lat_append(q, rel - q->out_tag[j]);
                    if (err)
                        break;
                }
                if (err)
                    break;
                CS(OUT_COUNT) = 0;
            } else {
                int64_t rel = q->out_release[0];
                if (rel < 0) {
                    err = R_BLOCKED;
                    break;
                }
                if (rel > cycles) {
                    stalls += rel - cycles;
                    cycles = rel;
                }
                err = lat_append(q, rel - q->out_tag[0]);
                if (err)
                    break;
                memmove(q->out_tag, q->out_tag + 1,
                        (size_t)(oc - 1) * sizeof(int64_t));
                memmove(q->out_issue, q->out_issue + 1,
                        (size_t)(oc - 1) * sizeof(int64_t));
                memmove(q->out_release, q->out_release + 1,
                        (size_t)(oc - 1) * sizeof(int64_t));
                memmove(q->out_rid, q->out_rid + 1,
                        (size_t)(oc - 1) * sizeof(int64_t));
                CS(OUT_COUNT) = oc - 1;
            }
            continue;          /* re-check the same access */
        }
        /* Execute the access: up to two writebacks and a fill. */
        if (S(PEND_CAP) - S(PEND_COUNT) < 3) {
            err = KERN_NEED_ROOM;
            break;
        }
        accesses += 1;
        if (flag & AF_WRITE)
            stores += 1;
        else
            loads += 1;
        int64_t gap = q->blk_gap[i];
        if (gap) {
            cycles += gap;
            compute += gap;
        }
        cycles += q->blk_lat[i];
        while (wb_ptr < nwb && q->blk_wbidx[wb_ptr] == i) {
            CS(WB_REQ) += 1;
            err = pend_append(k, q, pos, cycles, q->blk_wbaddr[wb_ptr],
                              RF_WRITEBACK);
            if (err)
                break;
            wb_ptr += 1;
        }
        if (err)
            break;
        int64_t fill = q->blk_fill[i];
        if (fill >= 0) {
            CS(LLC_MISS) += 1;
            int64_t rid = CS(NEXT_RID);   /* pend_append advances it */
            err = pend_append(k, q, pos, cycles, fill, 0);
            if (err)
                break;
            int64_t c = CS(OUT_COUNT);    /* < mlp here, cap >= mlp + 1 */
            q->out_tag[c] = cycles;
            q->out_issue[c] = accesses;
            q->out_release[c] = -1;
            q->out_rid[c] = rid;
            CS(OUT_COUNT) = c + 1;
        }
        i += 1;
    }
    CS(POS) = i;
    CS(WB_PTR) = wb_ptr;
    CS(CYCLES) = cycles;
    CS(ACCESSES) = accesses;
    CS(LOADS) = loads;
    CS(STORES) = stores;
    CS(COMPUTE) = compute;
    CS(STALLS) = stalls;
    return err;
}

/* Run core ``pos`` until it clock-gates (R_BLOCKED), drains its last
 * block and its MLP window (R_DONE), or needs its next block from
 * blockrun.py (KERN_NEED_BLOCK).  Its requests join the shared pend
 * buffer. */
static int64_t burst(K *k, Core *q, int64_t pos)
{
    for (;;) {
        if (!CS(HAS_BLOCK)) {
            if (!CS(EXHAUSTED))
                return KERN_NEED_BLOCK;
            /* End of trace: _drain consumes the whole window once every
             * fill in it has a release. */
            int64_t oc = CS(OUT_COUNT);
            for (int64_t j = 0; j < oc; j++)
                if (q->out_release[j] < 0)
                    return R_BLOCKED;
            int64_t cycles = CS(CYCLES), stalls = CS(STALLS);
            for (int64_t j = 0; j < oc; j++) {
                int64_t rel = q->out_release[j];
                if (rel > cycles) {
                    stalls += rel - cycles;
                    cycles = rel;
                }
                int64_t err = lat_append(q, rel - q->out_tag[j]);
                if (err)
                    return err;
            }
            CS(OUT_COUNT) = 0;
            CS(CYCLES) = cycles;
            CS(STALLS) = stalls;
            CS(DONE) = 1;
            return R_DONE;
        }
        if (CS(FRESH)) {
            filter_block(k, q);   /* POS/WB_PTR are 0 on a fresh block */
            CS(FRESH) = 0;
        }
        int64_t err = replay_block(k, q, pos);
        if (err)
            return err;
        CS(HAS_BLOCK) = 0;
    }
}

/* -- the gate after a sweep (BurstEngine._burst_loop / EventEngine._serve) */

/* Stable argsort of the pend buffer by tag: bottom-up merge sort over the
 * per-core non-decreasing runs, ties kept in sweep order. */
static const int64_t *sort_pending(K *k, int64_t n)
{
    int64_t *a = k->pend_order, *b = k->pend_scratch;
    const int64_t *tag = k->pend_tag;
    for (int64_t i = 0; i < n; i++)
        a[i] = i;
    for (int64_t width = 1; width < n; width *= 2) {
        for (int64_t lo = 0; lo < n; lo += 2 * width) {
            int64_t mid = lo + width < n ? lo + width : n;
            int64_t hi = lo + 2 * width < n ? lo + 2 * width : n;
            int64_t x = lo, y = mid, o = lo;
            while (x < mid && y < hi)
                b[o++] = tag[a[y]] < tag[a[x]] ? a[y++] : a[x++];
            while (x < mid)
                b[o++] = a[x++];
            while (y < hi)
                b[o++] = a[y++];
        }
        int64_t *t = a;
        a = b;
        b = t;
    }
    return a;
}

/* One critical-mode episode over the sweep's pending batch. */
static int64_t serve_pending(K *k, int64_t **cp, int64_t np)
{
    int64_t err;
    int sorted = 1;
    for (int64_t j = 1; j < np && sorted; j++)
        sorted = k->pend_tag[j] >= k->pend_tag[j - 1];
    if (sorted) {
        /* One core's run (always, single-core): already in tag order. */
        err = episode(k, np, k->pend_tag, k->pend_addr, k->pend_flags,
                      k->pend_core, k->pend_release, (int64_t *)0);
    } else {
        const int64_t *order = sort_pending(k, np);
        for (int64_t i = 0; i < np; i++) {
            int64_t j = order[i];
            k->req_tag[i] = k->pend_tag[j];
            k->req_addr[i] = k->pend_addr[j];
            k->req_flags[i] = k->pend_flags[j];
            k->req_core[i] = k->pend_core[j];
        }
        err = episode(k, np, k->req_tag, k->req_addr, k->req_flags,
                      k->req_core, k->req_release, (int64_t *)0);
        for (int64_t i = 0; i < np; i++)
            k->pend_release[order[i]] = k->req_release[i];
    }
    if (err)
        return err;
    S(E_BATCHED) += 1;
    S(E_RELEASES) += np;
    /* In Python the MLP windows and the pending batch share request
     * objects, so the episode's releases are visible to the replay
     * loops; here the windows are separate arrays -- propagate by
     * (core, rid), since rids are per-core counters.  Unreleased window
     * entries can only be fills from this very batch (every earlier
     * gate released everything it held). */
    for (int64_t j = 0; j < np; j++) {
        if (k->pend_flags[j] & RF_WRITEBACK)
            continue;
        int64_t pos = k->pend_pos[j];
        int64_t **t = cp + pos * CP_COUNT;
        const int64_t *out_rid = t[CP_OUT_RID];
        int64_t *out_release = t[CP_OUT_RELEASE];
        int64_t oc = k->core_st[pos * CORE_STRIDE + CS_OUT_COUNT];
        for (int64_t m = 0; m < oc; m++) {
            if (out_release[m] < 0 && out_rid[m] == k->pend_rid[j]) {
                out_release[m] = k->pend_release[j];
                break;
            }
        }
    }
    S(PEND_COUNT) = 0;
    return KERN_OK;
}

static int64_t close_sweep(K *k, int64_t **cp)
{
    int64_t np = S(PEND_COUNT), na = S(ACTIVE_N);
    /* Room for the episode's worst case in the logs; otherwise return
     * before touching anything, so blockrun.py can flush and grow and
     * re-enter right here. */
    if (S(VIOL_CAP) - S(VIOL_COUNT) < 3 * np + 256
            || S(WRHIT_CAP) - S(WRHIT_COUNT) < np + 64
            || S(RLOG_CAP) - S(RLOG_COUNT) < np + 64)
        return KERN_NEED_ROOM;
    S(SWEEP) += 1;
    if (!np) {
        if (na && !S(SWEEP_FINISHED))
            return KERR_DEADLOCK;
        return KERN_OK;
    }
    if (na)
        S(E_GATES) += 1;
    return serve_pending(k, cp, np);
}

/* -- entry points --------------------------------------------------------- */

int64_t repro_abi_version(void)
{
    return 12;
}

/* CLFLUSH of n consecutive lines from first_line on one cache level's
 * resident way arrays (CacheHierarchy.flush_range, cpu/cache.py): a
 * present line leaves its set (the later ways shift down, as list.pop
 * does), the set's MRU slot resets and touched[set] is set; out[i] is
 * set when line first_line + i was dirty.  Returns the lines flushed. */
int64_t repro_flush_lines(int64_t *tags, int64_t *dirty, int64_t *stamps,
                          int64_t *count, int64_t *mru, int64_t *touched,
                          int64_t num_sets, int64_t assoc,
                          int64_t first_line, int64_t n, int64_t *out)
{
    int64_t flushed = 0;
    int64_t s = first_line % num_sets, tag = first_line / num_sets;
    for (int64_t i = 0; i < n; i++) {
        int64_t base = s * assoc, c = count[s];
        for (int64_t w = 0; w < c; w++) {
            if (tags[base + w] != tag)
                continue;
            if (dirty[base + w])
                out[i] = 1;
            for (int64_t v = base + w; v + 1 < base + c; v++) {
                tags[v] = tags[v + 1];
                dirty[v] = dirty[v + 1];
                stamps[v] = stamps[v + 1];
            }
            count[s] = c - 1;
            mru[s] = -1;
            touched[s] = 1;
            flushed++;
            break;
        }
        if (++s == num_sets) {
            s = 0;
            tag++;
        }
    }
    return flushed;
}

/* random.Random.shuffle (CPython Lib/random.py, Modules/_randommodule.c)
 * of x[0..n) in place: Fisher-Yates from n - 1 down to 1, each index
 * drawn by _randbelow(i + 1) = getrandbits(k) with k = (i + 1).bit_length()
 * and rejection of draws >= i + 1, where getrandbits(k <= 32) is the next
 * MT19937 word >> (32 - k).  mt holds the 624 state words and pos the
 * position of random.Random(seed).getstate()[1]; both are left unchanged.
 * n must stay below 2**32 (one word per draw).  Returns the position the
 * generator ended at. */
int64_t repro_shuffle(const int64_t *mt_state, int64_t pos, int64_t *x,
                      int64_t n)
{
    enum { MT_N = 624, MT_M = 397 };
    uint32_t mt[MT_N];
    for (int i = 0; i < MT_N; i++)
        mt[i] = (uint32_t)mt_state[i];
    int64_t index = pos;
    for (int64_t i = n - 1; i > 0; i--) {
        uint64_t bound = (uint64_t)i + 1;
        int k = 0;
        while (bound >> k)
            k++;
        uint64_t r;
        do {
            if (index >= MT_N) {
                /* genrand_uint32's block regeneration */
                uint32_t y;
                int kk;
                for (kk = 0; kk < MT_N - MT_M; kk++) {
                    y = (mt[kk] & 0x80000000U) | (mt[kk + 1] & 0x7fffffffU);
                    mt[kk] = mt[kk + MT_M] ^ (y >> 1)
                             ^ ((y & 1U) ? 0x9908b0dfU : 0U);
                }
                for (; kk < MT_N - 1; kk++) {
                    y = (mt[kk] & 0x80000000U) | (mt[kk + 1] & 0x7fffffffU);
                    mt[kk] = mt[kk + (MT_M - MT_N)] ^ (y >> 1)
                             ^ ((y & 1U) ? 0x9908b0dfU : 0U);
                }
                y = (mt[MT_N - 1] & 0x80000000U) | (mt[0] & 0x7fffffffU);
                mt[MT_N - 1] = mt[MT_M - 1] ^ (y >> 1)
                               ^ ((y & 1U) ? 0x9908b0dfU : 0U);
                index = 0;
            }
            uint32_t y = mt[index++];
            y ^= y >> 11;
            y ^= (y << 7) & 0x9d2c5680U;
            y ^= (y << 15) & 0xefc60000U;
            y ^= y >> 18;
            r = (uint64_t)(y >> (32 - k));
        } while (r >= bound);
        int64_t t = x[i];
        x[i] = x[r];
        x[r] = t;
    }
    return index;
}

int64_t repro_serve_batch(int64_t **p)
{
    K kk;
    K *k = &kk;
    bind(k, p);
    return episode(k, S(N_REQ), k->req_tag, k->req_addr, k->req_flags,
                   k->req_core, k->req_release, k->req_service);
}

/* Drive the ACTIVE_N fed cores to completion (BurstEngine._burst_loop):
 * round-robin sweeps starting at active[SWEEP % ACTIVE_N], each core
 * bursting to its gate, the merged batch served in one episode after
 * every sweep.  The whole state lives in the slot tables, so the loop is
 * resumable: it returns KERN_NEED_BLOCK (core NEED_CORE) whenever a core
 * needs its next block and KERN_NEED_ROOM when a shared buffer runs
 * short, and the caller re-enters after handing the block over or
 * growing the buffers.
 * A single-core trace (EventEngine.run_trace) is the ACTIVE_N == 1 case. */
static int64_t run_loop(K *k, int64_t **cp)
{
    for (;;) {
        if (S(SWEEP_POS) >= S(SWEEP_N)) {
            if (S(SWEEP_N)) {
                int64_t err = close_sweep(k, cp);
                if (err)
                    return err;
                S(SWEEP_N) = 0;
            }
            int64_t n = S(ACTIVE_N);
            if (!n)
                return KERN_OK;
            int64_t start = S(SWEEP) % n;
            for (int64_t j = 0; j < n; j++)
                k->sweep_order[j] = k->active[(start + j) % n];
            S(SWEEP_N) = n;
            S(SWEEP_POS) = 0;
            S(SWEEP_FINISHED) = 0;
        }
        int64_t pos = k->sweep_order[S(SWEEP_POS)];
        Core qq;
        Core *q = &qq;
        bind_core(k, cp, pos, q);
        int64_t r = burst(k, q, pos);
        if (r == KERN_NEED_BLOCK || r == KERN_NEED_ROOM) {
            S(NEED_CORE) = pos;
            return r;
        }
        if (r < 0)
            return r;
        /* counters.advance_processor(proc.cycles) */
        if (CS(CYCLES) > S(CNT_PROC))
            S(CNT_PROC) = CS(CYCLES);
        if (r == R_DONE) {
            /* active.remove(proc): the open sweep's order is a copy. */
            int64_t na = S(ACTIVE_N), w = 0;
            for (int64_t j = 0; j < na; j++)
                if (k->active[j] != pos)
                    k->active[w++] = k->active[j];
            S(ACTIVE_N) = w;
            S(SWEEP_FINISHED) = 1;
        }
        S(SWEEP_POS) += 1;
    }
}

/* The resident replay of blockrun.py (run_gated_kernel / run_cores_kernel),
 * which hands each block over on KERN_NEED_BLOCK. */
int64_t repro_run_cores(int64_t **p, int64_t **cp)
{
    K kk;
    K *k = &kk;
    bind(k, p);
    return run_loop(k, cp);
}

/* -- RowClone rows (core/techniques/rowclone.py) -------------------------- */

/* Keep the sorted materialized-row keys current as a row materializes
 * inside the call (DramDevice._row / _maybe_rowclone), so a later
 * writeback WR to it in the same call is logged by note_wr_hit. */
static int64_t mat_insert(K *k, int64_t bank, int64_t row)
{
    int64_t n = S(NMAT), key = (bank << 32) | row;
    int64_t lo = 0, hi = n;
    while (lo < hi) {
        int64_t mid = (lo + hi) / 2;
        if (k->mat_keys[mid] < key)
            lo = mid + 1;
        else
            hi = mid;
    }
    if (lo < n && k->mat_keys[lo] == key)
        return KERN_OK;
    if (n >= S(RC_MAT_CAP))
        return KERR_VIOL_OVERFLOW;
    memmove(k->mat_keys + lo + 1, k->mat_keys + lo,
            (size_t)(n - lo) * sizeof(int64_t));
    k->mat_keys[lo] = key;
    S(NMAT) = n + 1;
    return KERN_OK;
}

/* One ACT of the FPM sequence (DramDevice.issue): _maybe_rowclone's
 * detection -- an ACT to another row within ROWCLONE_GAP of the PRE that
 * closed the previous one copies that row -- is logged with the WR-hit
 * log's fill for the driver's data side; then the ACT itself. */
static int64_t fpm_act(K *k, int64_t bank, int64_t row, int64_t t)
{
    int64_t prev = k->prev_open_row[bank];
    if (prev >= 0 && prev != row
            && t - k->last_pre[bank] < C(ROWCLONE_GAP)) {
        int64_t count = S(RC_LOG_COUNT);
        if (count >= S(RC_LOG_CAP))
            return KERR_VIOL_OVERFLOW;
        int64_t *rec = k->rc_log + RC_LOG_STRIDE * count;
        rec[0] = bank;
        rec[1] = prev;
        rec[2] = row;
        rec[3] = S(WRHIT_COUNT);
        S(RC_LOG_COUNT) = count + 1;
        int64_t err = mat_insert(k, bank, prev);
        if (!err)
            err = mat_insert(k, bank, row);
        if (err)
            return err;
    }
    return apply_act(k, bank, row, t);
}

/* The Bender walk of EasyAPI.rowclone's program on the device: ACT(src),
 * PRE, ACT(dst), PRE at t0 + the walk's offsets, each checked against the
 * flat earliest time and logged with the constraint the object checker
 * names when early (PRE rows log as 0). */
static int64_t issue_fpm(K *k, int64_t bank, int64_t src, int64_t dst,
                         int64_t t0)
{
    const int64_t kinds[4] = {K_ACT, K_PRE, K_ACT, K_PRE};
    const int64_t rows[4] = {src, 0, dst, 0};
    const int64_t times[4] = {t0, t0 + C(FPM_OFF1), t0 + C(FPM_OFF2),
                              t0 + C(FPM_OFF3)};
    for (int i = 0; i < 4; i++) {
        int64_t kind = kinds[i], t = times[i], e, code, err = KERN_OK;
        S(LAST_ISSUE) = t;
        if (kind == K_ACT) {
            if (t < flat_earliest(k, K_ACT, bank)) {
                enum_act(k, bank, &e, &code);
                err = viol_push(k, K_ACT, bank, rows[i], 0, t, e, code);
            }
            if (!err)
                err = fpm_act(k, bank, rows[i], t);
        } else {
            enum_pre(k, bank, &e, &code);
            if (t < e)
                err = viol_push(k, K_PRE, bank, 0, 0, t, e, code);
            apply_pre(k, bank, t);
        }
        if (err)
            return err;
    }
    return KERN_OK;
}

/* Session.technique_op of one RowCloneOp (respect_timing=False): the
 * issue cost, SoftwareMemoryController.technique_episode of the staged
 * program (critical mode, the refreshes that fell due, the setup and
 * flush charges, the sequence, Bender and controller accounting, the
 * release) and the processor's stall until the release. */
static int64_t fpm_episode(K *k, int64_t bank, int64_t src, int64_t dst,
                           int64_t *cycles, int64_t *stalls)
{
    int64_t pp = C(PROC_PERIOD);
    *cycles += C(FPM_ISSUE);
    if (!S(CNT_CRITICAL)) {    /* counters.enter_critical() */
        S(CNT_CRITICAL) = 1;
        S(CNT_CRIT_ENTRIES) += 1;
        S(CNT_LOCKED_AT) = S(CNT_PROC);
    }
    int64_t start = *cycles * pp + C(REQ_BUS);
    if (S(SCHED_CURSOR) > start)
        start = S(SCHED_CURSOR);
    S(SCHED_CURSOR) = start;
    if (C(REFRESH_ENABLED) && S(NEXT_REFRESH) <= S(SCHED_CURSOR)) {
        int64_t err = refresh_episode(k);
        if (err)
            return err;
    }
    start = S(SCHED_CURSOR);
    int64_t sched_cycles = S(CHARGED) + C(FPM_SETUP);
    S(CHARGED) = 0;
    S(S_SCHED_CYCLES) += sched_cycles;
    int64_t sched_ps = sched_cycles * C(MC_PERIOD);
    S(T_SCHED_PS) += sched_ps;
    S(EXEC_ANCHOR) = start + sched_ps;
    int64_t t0 = S(EXEC_ANCHOR) > S(DRAM_CURSOR) ? S(EXEC_ANCHOR)
        : S(DRAM_CURSOR);
    int64_t err = issue_fpm(k, bank, src, dst, t0);
    if (err)
        return err;
    S(B_PROGRAMS) += 1;
    S(B_CYCLES) += C(FPM_CYCLES);
    S(DRAM_CURSOR) = t0 + C(FPM_MEASURED);
    S(T_DRAM_BUSY) += C(FPM_MEASURED);
    S(S_BATCHES) += 1;
    S(CHARGED) = 0;            /* the flush charge, discarded */
    int64_t release = (S(DRAM_CURSOR) + C(RESP_BUS) + pp - 1) / pp;
    if (C(PIPELINED)) {
        int64_t occupied = start + C(OCCUPANCY);
        if (occupied > S(SCHED_CURSOR))
            S(SCHED_CURSOR) = occupied;
    } else {
        int64_t cursor = start + sched_ps;
        S(SCHED_CURSOR) = S(DRAM_CURSOR) > cursor ? S(DRAM_CURSOR) : cursor;
    }
    int64_t point = S(SCHED_CURSOR) > S(DRAM_CURSOR)
        ? S(SCHED_CURSOR) : S(DRAM_CURSOR);
    if (point / pp > S(CNT_MC))  /* _sync_mc_counter */
        S(CNT_MC) = point / pp;
    S(CNT_CRITICAL) = 0;       /* counters.exit_critical() */
    if (S(CNT_MC) > S(CNT_PROC)) {
        S(CNT_CATCHUP) += S(CNT_MC) - S(CNT_PROC);
        S(CNT_PROC) = S(CNT_MC);
    }
    if (release > *cycles) {
        *stalls += release - *cycles;
        *cycles = release;
    }
    if (*cycles > S(CNT_PROC))  /* counters.advance_processor */
        S(CNT_PROC) = *cycles;
    return KERN_OK;
}

/* Session.clflush_range(start, size) on core 0's resident cache copy: the
 * lines flush from L1 then L2 (repro_flush_lines, marking the loans'
 * flushed sets), each costs RC_FLUSH_LAT cycles, and the dirty ones are
 * served as one writeback episode (service_writebacks_kernel) whose last
 * release the processor waits for.  *ndirty gets the dirty-line count. */
static int64_t range_lines(K *k, int64_t start, int64_t size)
{
    int64_t line = S(RC_LINE);
    return (start % line + size + line - 1) / line;
}

static int64_t clflush_range(K *k, Core *q, int64_t start, int64_t size,
                             int64_t *cycles, int64_t *stalls,
                             int64_t *ndirty)
{
    int64_t line = S(RC_LINE), lat = S(RC_FLUSH_LAT);
    int64_t first = start - start % line;
    int64_t lines = range_lines(k, start, size);
    int64_t issued = *cycles;
    int64_t *dirty = k->rc_dirty;
    memset(dirty, 0, (size_t)lines * sizeof(int64_t));
    S(RC_FLUSHES1) += repro_flush_lines(
        q->c1_tags, q->c1_dirty, q->c1_stamps, q->c1_count, q->c1_mru,
        k->rc_flushed1, C(C1_SETS), C(C1_ASSOC), first / line, lines, dirty);
    S(RC_FLUSHES2) += repro_flush_lines(
        q->c2_tags, q->c2_dirty, q->c2_stamps, q->c2_count, q->c2_mru,
        k->rc_flushed2, C(C2_SETS), C(C2_ASSOC), first / line, lines, dirty);
    *cycles = issued + lines * lat;
    int64_t n = 0;
    for (int64_t i = 0; i < lines; i++) {
        if (!dirty[i])
            continue;
        k->req_tag[n] = issued + (i + 1) * lat;
        k->req_addr[n] = first + i * line;
        k->req_flags[n] = RF_WRITEBACK;
        n++;
    }
    *ndirty = n;
    if (n) {
        int64_t err = episode(k, n, k->req_tag, k->req_addr, k->req_flags,
                              (const int64_t *)0, k->req_release,
                              (int64_t *)0);
        if (err)
            return err;
        int64_t last = k->req_release[0];
        for (int64_t i = 1; i < n; i++)
            if (k->req_release[i] > last)
                last = k->req_release[i];
        if (last > *cycles) {
            *stalls += last - *cycles;
            *cycles = last;
        }
    }
    if (*cycles > S(CNT_PROC))  /* counters.advance_processor */
        S(CNT_PROC) = *cycles;
    return KERN_OK;
}

/* A CPU-fallback row's replay on core slot 0: Session.run_trace of its
 * blocks as EventEngine.run_trace takes it (blockrun.run_gated_kernel),
 * the run_loop above with one core, except that each block is bound here
 * from the plan's flat block arrays (what blockrun._Feed._load_block does
 * on KERN_NEED_BLOCK) instead of handed over by blockrun.py.
 *
 * start_replay is _replay's and _Feed's set-up for one trace: an empty
 * pend buffer, a fresh sweep over the one active core, and the core
 * record's stream state reset, with the processor's cycles and stall
 * cycles in; the counters, the request ids and the latency-log fill run
 * on across the plan's rows as they do across run_trace calls. */
static void start_replay(K *k, const int64_t *row, int64_t cycles,
                         int64_t stalls)
{
    int64_t *s = k->core_st;
    S(PEND_COUNT) = 0;
    S(ACTIVE_N) = 1;
    S(SWEEP) = 0;
    S(SWEEP_N) = 0;
    S(SWEEP_POS) = 0;
    S(SWEEP_FINISHED) = 0;
    k->active[0] = 0;
    s[CS_HAS_BLOCK] = 0;
    s[CS_EXHAUSTED] = 0;
    s[CS_DONE] = 0;
    s[CS_CYCLES] = cycles;
    s[CS_STALLS] = stalls;
    S(RC_BLOCK) = row[RC_BLK0];
    S(RC_REPLAYING) = 1;
}

/* Run (or resume) the replay until the core is done (KERN_OK).  A block
 * is bound only when the latency log holds its worst case (one latency
 * per access, the MLP window's drain and a margin, as _Feed._lat_room
 * sizes it); otherwise KERN_NEED_ROOM, and blockrun.py flushes the log
 * and re-enters, which asks for the same block again. */
static int64_t replay_row(K *k, int64_t **cp, const int64_t *row)
{
    int64_t *s = k->core_st;
    for (;;) {
        int64_t err = run_loop(k, cp);
        if (err != KERN_NEED_BLOCK)
            return err;
        int64_t b = S(RC_BLOCK);
        if (b >= row[RC_BLK1]) {
            s[CS_EXHAUSTED] = 1;
            continue;
        }
        int64_t start = k->rc_blocks[b], n = k->rc_blocks[b + 1] - start;
        if (s[CS_LAT_CAP] - s[CS_LAT_COUNT] < n + C(MLP) + 8)
            return KERN_NEED_ROOM;
        s[CS_BLK_BASE] = start;
        s[CS_BLK_N] = n;
        s[CS_BLK_NWB] = 0;
        s[CS_POS] = 0;
        s[CS_WB_PTR] = 0;
        s[CS_HAS_BLOCK] = 1;
        s[CS_FRESH] = 1;
        S(RC_BLOCK) = b + 1;
    }
}

/* Run rows RC_DONE..RC_N of the row table: each row's CLFLUSH ranges (a
 * range with size < 0 is skipped), then its FPM RowClone episode, or for
 * a CPU-fallback row (RC_BLK0 >= 0) the replay of its blocks.  The
 * processor's cycles and stall cycles travel in RC_CYCLES / RC_STALLS
 * (core 0's record holds them while a replay runs); RC_DONE counts the
 * rows finished, also when an error stops the run, and RC_REPLAYING
 * marks a fallback row RC_DONE past its CLFLUSHes.
 * Before each row the logs must hold its worst case (three violations
 * per flushed line and one WR hit, four FPM violations, two attempts
 * and four materialized rows, plus the refresh margin episode() keeps);
 * otherwise the call returns KERN_NEED_ROOM at that row boundary.  A
 * replay asks for room as repro_run_cores does, and resumes where it
 * stopped.  Either way rowclone_rows in blockrun.py applies the logs,
 * grows the buffers and re-enters.
 * cp is the resident replay's per-core table (slot 0 holds the lent
 * cache copy and the fallback blocks); it may be null when no row
 * flushes or replays. */
int64_t repro_rowclone_rows(int64_t **p, int64_t **cp)
{
    K kk;
    K *k = &kk;
    bind(k, p);
    Core qq;
    Core *q = &qq;
    memset(q, 0, sizeof qq);
    if (cp)
        bind_core(k, cp, 0, q);
    int64_t cycles = S(RC_CYCLES), stalls = S(RC_STALLS);
    int64_t err = KERN_OK;
    for (int64_t i = S(RC_DONE); i < S(RC_N) && !err; i++) {
        int64_t *row = k->rc_rows + RC_ROW_STRIDE * i;
        int fallback = row[RC_BLK0] >= 0;
        if (!S(RC_REPLAYING)) {
            const int64_t starts[2] = {row[RC_F0_START], row[RC_F1_START]};
            const int64_t sizes[2] = {row[RC_F0_SIZE], row[RC_F1_SIZE]};
            int64_t *dirty[2] = {row + RC_DIRTY0, row + RC_DIRTY1};
            int64_t lines = 0;
            for (int r = 0; r < 2; r++)
                if (sizes[r] >= 0)
                    lines += range_lines(k, starts[r], sizes[r]);
            if (S(VIOL_CAP) - S(VIOL_COUNT) < 3 * lines + 68
                    || S(WRHIT_CAP) - S(WRHIT_COUNT) < lines + 16
                    || S(RC_LOG_CAP) - S(RC_LOG_COUNT) < 2
                    || S(RC_MAT_CAP) - S(NMAT) < 4) {
                err = KERN_NEED_ROOM;
                break;
            }
            for (int r = 0; r < 2 && !err; r++) {
                if (sizes[r] >= 0)
                    err = clflush_range(k, q, starts[r], sizes[r], &cycles,
                                        &stalls, dirty[r]);
            }
            if (!err && fallback)
                start_replay(k, row, cycles, stalls);
        }
        if (!err && fallback) {
            err = replay_row(k, cp, row);
            if (!err) {
                cycles = q->s[CS_CYCLES];
                stalls = q->s[CS_STALLS];
                S(RC_REPLAYING) = 0;
            }
        } else if (!err) {
            err = fpm_episode(k, row[RC_BANK], row[RC_SRC], row[RC_DST],
                              &cycles, &stalls);
        }
        if (!err)
            S(RC_DONE) = i + 1;
    }
    if (S(RC_REPLAYING)) {
        cycles = q->s[CS_CYCLES];
        stalls = q->s[CS_STALLS];
    }
    S(RC_CYCLES) = cycles;
    S(RC_STALLS) = stalls;
    return err;
}
