/* Lane-parallel group kernel: the stock SA/LRU timing state machine of
 * repro/cpu/timing.py (the fused kernel plus the controller's settle),
 * flattened to int arrays and run once per lane over the shared
 * decoded trace columns.
 *
 * The transcription is branch-for-branch: the MissQueue drain order
 * (stable completion sort on insertion order), the fill-queue
 * drop/merge rules, the MSHR-full stall, the MLP charge table with its
 * prune threshold, and the end-of-run settle loop all mirror the
 * Python model exactly, so results are bit-identical per lane.  Every
 * quantity fits int64 (lines < 2^32, cycles grow by at most a few
 * hundred per record) and every division runs on non-negative
 * operands, so C arithmetic matches Python's exactly.
 *
 * Compiled on demand by repro/cpu/lanes.py with the host toolchain and
 * loaded via ctypes; when no compiler is available the Python per-lane
 * kernel and warm replay in that module are the fallback.  The library
 * also carries the trace-synthesis parsers at the end of this file
 * (repro/workloads/bulk.py; the Python generators are their fallback).
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define RT_NORMAL 0
#define RT_NOFILL 1
#define RT_RANDOM_FILL 2

/* mirrors MissQueue.NEVER */
#define NEVER (((int64_t)1) << 62)

/* mirrors repro.cpu.timing.CHARGED_PRUNE_THRESHOLD */
#define PRUNE_AT 8192
/* open-addressing table: load factor <= 0.25 at the prune bound */
#define CH_CAP 32768
#define CH_MASK (CH_CAP - 1)

typedef struct {
    int64_t key[CH_CAP];        /* -1 = empty (lines are >= 0) */
    int64_t val[CH_CAP];
    int64_t count;
} ChargeMap;

static void ch_clear(ChargeMap *m)
{
    memset(m->key, 0xff, sizeof(m->key));
    m->count = 0;
}

static inline uint64_t ch_slot(int64_t key)
{
    return (((uint64_t)key) * 0x9E3779B97F4A7C15ULL >> 32) & CH_MASK;
}

/* returns 1 and *val on hit, 0 on miss */
static inline int ch_get(const ChargeMap *m, int64_t key, int64_t *val)
{
    uint64_t i = ch_slot(key);
    while (m->key[i] != -1) {
        if (m->key[i] == key) {
            *val = m->val[i];
            return 1;
        }
        i = (i + 1) & CH_MASK;
    }
    return 0;
}

static inline void ch_put(ChargeMap *m, int64_t key, int64_t val)
{
    uint64_t i = ch_slot(key);
    while (m->key[i] != -1) {
        if (m->key[i] == key) {
            m->val[i] = val;
            return;
        }
        i = (i + 1) & CH_MASK;
    }
    m->key[i] = key;
    m->val[i] = val;
    m->count++;
}

/* prune_charged: drop entries whose completion has passed */
static void ch_prune(ChargeMap *m, ChargeMap *scratch, int64_t now)
{
    int64_t i;
    ch_clear(scratch);
    for (i = 0; i < CH_CAP; i++) {
        if (m->key[i] != -1 && m->val[i] > now)
            ch_put(scratch, m->key[i], m->val[i]);
    }
    memcpy(m, scratch, sizeof(*m));
}

typedef struct {
    /* shared columns */
    const int64_t *lines;
    int64_t n_records;
    /* geometry / policy scalars */
    int64_t l1_set_mask, l1_assoc;
    int64_t l2_set_mask, l2_assoc;
    int64_t l2_hit_latency;
    int64_t mq_capacity, fill_cap, fill_queue_capacity;
    int64_t hit_cost, mlp, credit;
    int64_t dram_lines_per_row, dram_banks;
    int64_t dram_hit_latency, dram_miss_latency;
    int64_t dram_hit_busy, dram_miss_busy;
    /* per-lane state */
    int64_t *l1;                /* l1_num_sets * l1_assoc, MRU first */
    int64_t *l2;                /* l2_num_sets * l2_assoc, MRU first */
    int64_t *mq_line, *mq_complete, *mq_type;   /* insertion order */
    int64_t mq_n;
    int64_t *fq;                /* ring buffer */
    int64_t fq_head, fq_n, fq_cap;
    int64_t *open_row, *bank_free;
    ChargeMap *charged, *scratch;
    int64_t nc;
    int fills_blocked;
    /* counters */
    int64_t hits, demand_misses, l2_accesses, l2_misses;
    int64_t memory_lines, rf_issued;
} Lane;

static inline int64_t fq_at(const Lane *ln, int64_t i)
{
    return ln->fq[(ln->fq_head + i) % ln->fq_cap];
}

static inline void fq_push(Lane *ln, int64_t line)
{
    ln->fq[(ln->fq_head + ln->fq_n) % ln->fq_cap] = line;
    ln->fq_n++;
}

static inline void fq_pop(Lane *ln)
{
    ln->fq_head = (ln->fq_head + 1) % ln->fq_cap;
    ln->fq_n--;
}

/* MRU-first set scan; -1 marks empty ways */
static inline int set_hit(int64_t *ways, int64_t assoc, int64_t line)
{
    int64_t i;
    for (i = 0; i < assoc; i++) {
        if (ways[i] == line)
            return 1;
        if (ways[i] == -1)
            return 0;
    }
    return 0;
}

/* hit refresh: move to MRU (slot 0) */
static inline void set_touch(int64_t *ways, int64_t assoc, int64_t line)
{
    int64_t i;
    if (ways[0] == line)
        return;
    for (i = 1; i < assoc; i++) {
        if (ways[i] == line) {
            memmove(ways + 1, ways, i * sizeof(int64_t));
            ways[0] = line;
            return;
        }
    }
}

/* install at MRU, evicting the LRU tail when full */
static inline void set_install(int64_t *ways, int64_t assoc, int64_t line)
{
    int64_t n = assoc;
    while (n > 0 && ways[n - 1] == -1)
        n--;
    if (n >= assoc)
        n = assoc - 1;
    memmove(ways + 1, ways, n * sizeof(int64_t));
    ways[0] = line;
}

/* L2Cache.access with DramModel.access inlined */
static int64_t l2_access(Lane *ln, int64_t line, int64_t at)
{
    int64_t *ways = ln->l2 + (line & ln->l2_set_mask) * ln->l2_assoc;
    int64_t row, bank, start, done;
    ln->l2_accesses++;
    if (set_hit(ways, ln->l2_assoc, line)) {
        set_touch(ways, ln->l2_assoc, line);
        return at + ln->l2_hit_latency;
    }
    ln->l2_misses++;
    row = line / ln->dram_lines_per_row;
    bank = row % ln->dram_banks;
    start = ln->bank_free[bank];
    at += ln->l2_hit_latency;
    if (start < at)
        start = at;
    if (ln->open_row[bank] == row) {
        done = start + ln->dram_hit_latency;
        ln->bank_free[bank] = start + ln->dram_hit_busy;
    } else {
        ln->open_row[bank] = row;
        done = start + ln->dram_miss_latency;
        ln->bank_free[bank] = start + ln->dram_miss_busy;
    }
    ln->memory_lines++;
    set_install(ways, ln->l2_assoc, line);
    return done;
}

static inline int mq_find(const Lane *ln, int64_t line)
{
    int64_t i;
    for (i = 0; i < ln->mq_n; i++)
        if (ln->mq_line[i] == line)
            return (int)i;
    return -1;
}

static inline void mq_put(Lane *ln, int64_t line, int64_t complete_at,
                          int64_t type)
{
    ln->mq_line[ln->mq_n] = line;
    ln->mq_complete[ln->mq_n] = complete_at;
    ln->mq_type[ln->mq_n] = type;
    ln->mq_n++;
    if (complete_at < ln->nc)
        ln->nc = complete_at;
}

/* MissQueue.drain + L1 install: retire completed entries in stable
 * completion order (ties break on insertion order) — the install
 * order matters when two retiring lines share an L1 set. */
static int64_t drain(Lane *ln, int64_t at)
{
    int64_t done_line[64], done_at[64], done_type[64];
    int64_t n_done = 0, i, j, w = 0, nxt = NEVER;
    if (at < ln->nc)
        return 0;
    for (i = 0; i < ln->mq_n; i++) {
        if (ln->mq_complete[i] <= at) {
            /* stable insertion sort by completion */
            j = n_done;
            while (j > 0 && done_at[j - 1] > ln->mq_complete[i]) {
                done_at[j] = done_at[j - 1];
                done_line[j] = done_line[j - 1];
                done_type[j] = done_type[j - 1];
                j--;
            }
            done_at[j] = ln->mq_complete[i];
            done_line[j] = ln->mq_line[i];
            done_type[j] = ln->mq_type[i];
            n_done++;
        } else {
            ln->mq_line[w] = ln->mq_line[i];
            ln->mq_complete[w] = ln->mq_complete[i];
            ln->mq_type[w] = ln->mq_type[i];
            if (ln->mq_complete[i] < nxt)
                nxt = ln->mq_complete[i];
            w++;
        }
    }
    for (i = 0; i < n_done; i++) {
        if (done_type[i] != RT_NOFILL) {
            int64_t dline = done_line[i];
            int64_t *ways =
                ln->l1 + (dline & ln->l1_set_mask) * ln->l1_assoc;
            if (!set_hit(ways, ln->l1_assoc, dline))
                set_install(ways, ln->l1_assoc, dline);
        }
    }
    ln->mq_n = w;
    ln->nc = nxt;
    return n_done;
}

/* L1Controller._issue_random_fills */
static void issue_fills(Lane *ln, int64_t at)
{
    while (ln->fq_n > 0) {
        int64_t head = fq_at(ln, 0);
        int idx;
        if (set_hit(ln->l1 + (head & ln->l1_set_mask) * ln->l1_assoc,
                    ln->l1_assoc, head)) {
            fq_pop(ln);
            continue;
        }
        idx = mq_find(ln, head);
        if (idx >= 0) {
            fq_pop(ln);
            if (ln->mq_type[idx] == RT_NOFILL) {
                ln->mq_type[idx] = RT_RANDOM_FILL;
                ln->rf_issued++;
            }
            continue;
        }
        if (ln->mq_n >= ln->fill_cap)
            break;
        fq_pop(ln);
        ln->rf_issued++;
        mq_put(ln, head, l2_access(ln, head, at), RT_RANDOM_FILL);
    }
    ln->fills_blocked = ln->fq_n > 0;
}

/* one lane's full trace pass; returns 0 on success */
static int run_one_lane(Lane *ln, const int64_t *steps,
                        int64_t policy_kind, const int64_t *offsets,
                        int64_t *out)
{
    int64_t now = 0, off_i = 0, i;
    const int64_t *lines = ln->lines;
    for (i = 0; i < ln->n_records; i++) {
        int64_t line = lines[i];
        int64_t *ways;
        int64_t completion, stall, access_now, complete_at, remaining;
        int idx;
        now += steps[i];
        if (now >= ln->nc) {
            drain(ln, now);
            ln->fills_blocked = 0;
        }
        ways = ln->l1 + (line & ln->l1_set_mask) * ln->l1_assoc;
        if (set_hit(ways, ln->l1_assoc, line)) {
            ln->hits++;
            set_touch(ways, ln->l1_assoc, line);
            if (ln->fq_n > 0 && !ln->fills_blocked)
                issue_fills(ln, now);
            now += ln->hit_cost;
            continue;
        }
        idx = mq_find(ln, line);
        if (idx < 0 && ln->fq_n > 0 && !ln->fills_blocked) {
            /* queued random fills are older than this demand miss */
            issue_fills(ln, now);
            idx = mq_find(ln, line);
        }
        if (idx >= 0) {
            int64_t prior;
            completion = ln->mq_complete[idx];
            if (completion < now)
                completion = now;
            if (ch_get(ln->charged, line, &prior) && prior == completion) {
                now += ln->hit_cost;
            } else {
                ch_put(ln->charged, line, completion);
                now += ln->hit_cost;
                remaining = completion - now - ln->credit;
                if (remaining > 0)
                    now += (remaining + ln->mlp - 1) / ln->mlp;
            }
            if (ln->charged->count >= PRUNE_AT)
                ch_prune(ln->charged, ln->scratch, now);
            continue;
        }
        stall = 0;
        access_now = now;
        if (ln->mq_n >= ln->mq_capacity) {
            stall = ln->nc - now;
            if (stall < 0)
                stall = 0;
            access_now = now + stall;
            drain(ln, access_now);
            ln->fills_blocked = 0;
            if (set_hit(ways, ln->l1_assoc, line)) {
                /* the drained line was the one we wanted */
                ln->hits++;
                set_touch(ways, ln->l1_assoc, line);
                now += ln->hit_cost;
                continue;
            }
        }
        ln->demand_misses++;
        if (policy_kind == 2) {
            int64_t fill_line;
            complete_at = l2_access(ln, line, access_now);
            mq_put(ln, line, complete_at, RT_NOFILL);
            ln->fills_blocked = 0;
            fill_line = line + offsets[off_i];
            off_i++;
            if (ln->fq_n > 0) {
                /* parked requests are older; preserve FIFO order */
                if (fill_line >= 0 && ln->fq_n < ln->fill_queue_capacity)
                    fq_push(ln, fill_line);
                issue_fills(ln, access_now);
            } else if (fill_line < 0) {
                /* window underflow: dropped */
            } else if (set_hit(ln->l1
                               + (fill_line & ln->l1_set_mask)
                               * ln->l1_assoc,
                               ln->l1_assoc, fill_line)) {
                /* already resident: dropped */
            } else {
                idx = mq_find(ln, fill_line);
                if (idx >= 0) {
                    if (ln->mq_type[idx] == RT_NOFILL) {
                        ln->mq_type[idx] = RT_RANDOM_FILL;
                        ln->rf_issued++;
                    }
                } else if (ln->mq_n >= ln->fill_cap) {
                    fq_push(ln, fill_line);
                    ln->fills_blocked = 1;
                } else {
                    ln->rf_issued++;
                    mq_put(ln, fill_line,
                           l2_access(ln, fill_line, access_now),
                           RT_RANDOM_FILL);
                }
            }
        } else {
            complete_at = l2_access(ln, line, access_now);
            mq_put(ln, line, complete_at, RT_NORMAL);
            ln->fills_blocked = 0;
            if (ln->fq_n > 0)
                issue_fills(ln, access_now);
        }
        ch_put(ln->charged, line, complete_at);
        now += ln->hit_cost + stall;
        remaining = complete_at - now - ln->credit;
        if (remaining > 0)
            now += (remaining + ln->mlp - 1) / ln->mlp;
        if (ln->charged->count >= PRUNE_AT)
            ch_prune(ln->charged, ln->scratch, now);
    }

    /* end-of-run settle: issued fills and their L2/DRAM traffic count
     * toward this run's totals */
    while (ln->fq_n > 0 || ln->mq_n > 0) {
        int progressed = 0;
        if (ln->mq_n > 0) {
            int64_t horizon = ln->nc > 0 ? ln->nc : 0;
            progressed = drain(ln, horizon) > 0;
        }
        if (ln->fq_n > 0 && ln->mq_n < ln->mq_capacity) {
            int64_t before = ln->fq_n;
            issue_fills(ln, 0);
            progressed = progressed || ln->fq_n != before;
        }
        if (!progressed)
            break;                      /* defensive backstop */
    }

    out[0] = now;
    out[1] = ln->hits;
    out[2] = ln->demand_misses;
    out[3] = ln->l2_accesses;
    out[4] = ln->l2_misses;
    out[5] = ln->memory_lines;
    out[6] = ln->rf_issued;
    return 0;
}

/* Entry point: the warm-L2 replay.  Access-or-fill each footprint line
 * into the flat MRU-first image (hits move to MRU, fills evict the LRU
 * tail), matching SetAssociativeCache under LRU exactly.  l2_template
 * is l2_num_sets * l2_assoc ways, all -1 (empty) on entry. */
void warm_l2(int64_t n_lines, const int64_t *lines, int64_t *l2_template,
             int64_t l2_num_sets, int64_t l2_assoc)
{
    int64_t i;
    int64_t set_mask = l2_num_sets - 1;
    for (i = 0; i < n_lines; i++) {
        int64_t line = lines[i];
        int64_t *ways = l2_template + (line & set_mask) * l2_assoc;
        if (set_hit(ways, l2_assoc, line))
            set_touch(ways, l2_assoc, line);
        else
            set_install(ways, l2_assoc, line);
    }
}

/* Entry point: run every lane of a batch group over the shared trace.
 * offsets holds n_lanes rows of n_records pregenerated fill offsets
 * (row contents unused for demand-fetch lanes); l2_template is the
 * warmed L2 image (l2_num_sets * l2_assoc, MRU first, -1 = empty way)
 * copied per lane; out receives 7 values per lane: cycles, hits,
 * demand_misses, l2_accesses, l2_misses, memory_lines, rf_issued.
 * Returns 0 on success, -1 on allocation failure. */
int run_lanes(int64_t n_records, const int64_t *lines,
              const int64_t *steps,
              int64_t n_lanes, const int64_t *policy_kinds,
              const int64_t *offsets, const int64_t *l2_template,
              int64_t l1_num_sets, int64_t l1_assoc,
              int64_t l2_num_sets, int64_t l2_assoc,
              int64_t l2_hit_latency, int64_t mq_capacity,
              int64_t fill_reserve, int64_t fill_queue_capacity,
              int64_t hit_cost, int64_t mlp, int64_t credit,
              int64_t dram_lines_per_row, int64_t dram_banks,
              int64_t dram_hit_latency, int64_t dram_miss_latency,
              int64_t dram_hit_busy, int64_t dram_miss_busy,
              int64_t *out)
{
    int64_t lane;
    int rc = 0;
    Lane ln;
    int64_t fq_cap = fill_queue_capacity + 1;
    if (mq_capacity > 64)
        return -2;                      /* drain scratch bound */
    memset(&ln, 0, sizeof(ln));
    ln.lines = lines;
    ln.n_records = n_records;
    ln.l1_set_mask = l1_num_sets - 1;
    ln.l1_assoc = l1_assoc;
    ln.l2_set_mask = l2_num_sets - 1;
    ln.l2_assoc = l2_assoc;
    ln.l2_hit_latency = l2_hit_latency;
    ln.mq_capacity = mq_capacity;
    ln.fill_cap = mq_capacity - fill_reserve;
    ln.fill_queue_capacity = fill_queue_capacity;
    ln.hit_cost = hit_cost;
    ln.mlp = mlp;
    ln.credit = credit;
    ln.dram_lines_per_row = dram_lines_per_row;
    ln.dram_banks = dram_banks;
    ln.dram_hit_latency = dram_hit_latency;
    ln.dram_miss_latency = dram_miss_latency;
    ln.dram_hit_busy = dram_hit_busy;
    ln.dram_miss_busy = dram_miss_busy;
    ln.fq_cap = fq_cap;

    ln.l1 = malloc(l1_num_sets * l1_assoc * sizeof(int64_t));
    ln.l2 = malloc(l2_num_sets * l2_assoc * sizeof(int64_t));
    ln.mq_line = malloc(mq_capacity * sizeof(int64_t));
    ln.mq_complete = malloc(mq_capacity * sizeof(int64_t));
    ln.mq_type = malloc(mq_capacity * sizeof(int64_t));
    ln.fq = malloc(fq_cap * sizeof(int64_t));
    ln.open_row = malloc(dram_banks * sizeof(int64_t));
    ln.bank_free = malloc(dram_banks * sizeof(int64_t));
    ln.charged = malloc(sizeof(ChargeMap));
    ln.scratch = malloc(sizeof(ChargeMap));
    if (!ln.l1 || !ln.l2 || !ln.mq_line || !ln.mq_complete || !ln.mq_type
        || !ln.fq || !ln.open_row || !ln.bank_free || !ln.charged
        || !ln.scratch) {
        rc = -1;
        goto done;
    }

    for (lane = 0; lane < n_lanes; lane++) {
        memset(ln.l1, 0xff, l1_num_sets * l1_assoc * sizeof(int64_t));
        memcpy(ln.l2, l2_template,
               l2_num_sets * l2_assoc * sizeof(int64_t));
        memset(ln.open_row, 0xff, dram_banks * sizeof(int64_t));
        memset(ln.bank_free, 0, dram_banks * sizeof(int64_t));
        ch_clear(ln.charged);
        ln.mq_n = 0;
        ln.fq_head = 0;
        ln.fq_n = 0;
        ln.nc = NEVER;
        ln.fills_blocked = 0;
        ln.hits = 0;
        ln.demand_misses = 0;
        ln.l2_accesses = 0;
        ln.l2_misses = 0;
        ln.memory_lines = 0;
        ln.rf_issued = 0;
        rc = run_one_lane(&ln, steps, policy_kinds[lane],
                          offsets + lane * n_records, out + lane * 7);
        if (rc != 0)
            goto done;
    }

done:
    free(ln.l1);
    free(ln.l2);
    free(ln.mq_line);
    free(ln.mq_complete);
    free(ln.mq_type);
    free(ln.fq);
    free(ln.open_row);
    free(ln.bank_free);
    free(ln.charged);
    free(ln.scratch);
    return rc;
}

/* ---- trace synthesis ------------------------------------------------
 *
 * The SPEC stand-in generators of repro/workloads/synthetic.py, rebuilt
 * from the 32-bit word stream of their random.Random.  CPython builds
 * every call those generators make from these words: random() takes
 * two, ((a >> 5) * 2^26 + (b >> 6)) / 2^53, and randrange(n) (so
 * randint(a, b) = a + randrange(b - a + 1)) takes one word per try,
 * shifted right by 32 - bit_length(n), retrying while the value is
 * >= n.  Callers guarantee 1 <= n < 2^32.
 *
 * The words come from the generator's own state (its 624-word key and
 * position, as random.Random.getstate() returns them), advanced by
 * MT19937 exactly as CPython's _randommodule.c does; the stream is
 * generated as the parse consumes it, so no word buffer is kept. */

#define MT_N 624
#define MT_M 397

typedef struct {
    uint32_t key[MT_N];
    int64_t pos;
} Mt;

static void mt_twist(Mt *mt)
{
    static const uint32_t mag01[2] = {0U, 0x9908b0dfU};
    uint32_t *k = mt->key, y;
    int i;
    for (i = 0; i < MT_N - MT_M; i++) {
        y = (k[i] & 0x80000000U) | (k[i + 1] & 0x7fffffffU);
        k[i] = k[i + MT_M] ^ (y >> 1) ^ mag01[y & 1U];
    }
    for (; i < MT_N - 1; i++) {
        y = (k[i] & 0x80000000U) | (k[i + 1] & 0x7fffffffU);
        k[i] = k[i + (MT_M - MT_N)] ^ (y >> 1) ^ mag01[y & 1U];
    }
    y = (k[MT_N - 1] & 0x80000000U) | (k[0] & 0x7fffffffU);
    k[MT_N - 1] = k[MT_M - 1] ^ (y >> 1) ^ mag01[y & 1U];
    mt->pos = 0;
}

static inline uint32_t mt_word(Mt *mt)
{
    uint32_t y;
    if (mt->pos >= MT_N)
        mt_twist(mt);
    y = mt->key[mt->pos++];
    y ^= y >> 11;
    y ^= (y << 7) & 0x9d2c5680U;
    y ^= (y << 15) & 0xefc60000U;
    y ^= y >> 18;
    return y;
}

static inline double mt_random(Mt *mt)
{
    uint32_t a = mt_word(mt) >> 5;
    uint32_t b = mt_word(mt) >> 6;
    return (a * 67108864.0 + b) * (1.0 / 9007199254740992.0);
}

static inline int64_t mt_randbelow(Mt *mt, int64_t n)
{
    int shift = __builtin_clzll((unsigned long long)n) - 32;
    int64_t r;
    do {
        r = (int64_t)(mt_word(mt) >> shift);
    } while (r >= n);
    return r;
}

static void mt_load(Mt *mt, const uint32_t *key, int64_t pos)
{
    memcpy(mt->key, key, sizeof(mt->key));
    mt->pos = pos;
}

/* Entry point: locality_mixture after its hot-set sample, from the
 * generator state (key, pos).  p_near is p_hot + p_neighbor as Python
 * sums it.  Fills n_refs addresses and write flags. */
void synth_mixture(const uint32_t *key, int64_t pos, int64_t n_refs,
                   int64_t base, int64_t working_set_lines,
                   int64_t hot_lines, const int64_t *hot_set, double p_hot,
                   double p_near, int64_t neighbor_span,
                   int64_t refs_per_line, int64_t element_stride,
                   double write_ratio, int64_t *addr, int64_t *write)
{
    Mt mt;
    int64_t count = 0, prev_line = 0;
    mt_load(&mt, key, pos);
    while (count < n_refs) {
        double roll = mt_random(&mt);
        int64_t line, e;
        if (roll < p_hot) {
            line = hot_set[mt_randbelow(&mt, hot_lines)];
        } else if (roll < p_near) {
            line = (prev_line + mt_randbelow(&mt, 2 * neighbor_span + 1)
                    - neighbor_span) % working_set_lines;
            if (line < 0)
                line += working_set_lines;
        } else {
            line = mt_randbelow(&mt, working_set_lines);
        }
        prev_line = line;
        for (e = 0; e < refs_per_line && count < n_refs; e++, count++) {
            write[count] = mt_random(&mt) < write_ratio;
            addr[count] = base + line * 64 + e * element_stride;
        }
    }
}

/* Entry point: streaming, from the generator state (key, pos). */
void synth_streaming(const uint32_t *key, int64_t pos, int64_t n_refs,
                     int64_t base, int64_t array_lines,
                     int64_t stride_lines_max, double dense_prob,
                     int64_t refs_per_line, int64_t element_stride,
                     double write_ratio, int64_t *addr, int64_t *write)
{
    Mt mt;
    int64_t count = 0, line = 0;
    mt_load(&mt, key, pos);
    while (count < n_refs) {
        int64_t line_base = base + (line % array_lines) * 64, e;
        for (e = 0; e < refs_per_line && count < n_refs; e++, count++) {
            write[count] = mt_random(&mt) < write_ratio;
            addr[count] = line_base + e * element_stride;
        }
        if (stride_lines_max <= 1 || mt_random(&mt) < dense_prob)
            line += 1;
        else
            line += 2 + mt_randbelow(&mt, stride_lines_max - 1);
    }
}
