/* Monte Carlo rounds of megt.evolve, whole runs at a time, and the
 * communicability entries their scaling tables read (megt_comm_entries,
 * at the end of this file).
 *
 * megt_run loops rounds until the stop rule fires or its budget of
 * rounds runs out; one round is a run with a budget of one.  A round
 * does, with the same numbers in the same order and the same float
 * operations as the tests' oracle (reference_round in tests/oracles.py),
 * so both give the same bits:
 *
 *  1. payoffs: per slot, mass += w_e * s_j over its neighbour edges in
 *     CSR order (ascending j), then
 *     vs_coop * mass + vs_defect * (row_sum - mass), in slot_payoff.
 *     megt_run sums every slot before its first round, as Python may
 *     have replaced the strategies since the last call, and after that
 *     only the stale ones: the slots that adopted in the round before,
 *     and their layer neighbours.
 *     Neighbour lists are symmetric, so these are exactly the slots
 *     whose own or neighbours' strategies changed; every other payoff
 *     would be summed to the same bits again;
 *  2. draws, from numpy's bit generator through its bitgen_t interface
 *     (numpy/random/bitgen.h): N*M picks by numpy's bounded Lemire
 *     method over next_uint32, as Generator.integers(0, nm, size=nm)
 *     draws them, then N*M neighbour uniforms and N*M adoption uniforms
 *     from next_double, as Generator.random(nm) draws them;
 *  3. the N*M imitation steps; in step order, a pick on an isolated slot
 *     is redrawn, as Generator.integers(nm) would, until it has a
 *     neighbour.  A slot that adopts marks itself and its neighbours
 *     stale;
 *  4. each node's coop_count gains, layer by layer, its degree on every
 *     layer where it cooperates.
 *
 * With the Nash tracker's arrays set, megt_run also counts the run's
 * Nash pairs on the union graph of the layers after every round, and
 * megt_nash counts those of the current strategies alone: megt's only
 * Nash counter, which EquilibriumTracker.evaluate calls and the tests
 * hold to their per-edge oracle.  The engine holds each profile's
 * best-response flags and the running pair and weak counts.  After a
 * round, nash_move recomputes every flag and moves the counts only over
 * the union edges of the nodes whose flag changed.  A fresh count (in
 * megt_nash, and before a run's first round) is the same move, made from
 * all-zero flags and zero counts.
 *
 * That the draws equal numpy's is numpy's implementation, not its
 * contract; megt.kernel checks it against numpy before using this code.
 * The caller holds the bit generator's lock.  Slot counts stay below
 * 2^32, where numpy draws bounded integers from next_uint32.
 *
 * Build with -ffp-contract=off (no fused multiply-add) and -pthread
 * (megt_comm_entries sums its panels in threads), and link libm, whose
 * exp is the one math.exp calls.  Every index is a flat slot
 * alpha * N + i.  The struct below is mirrored field for field by
 * megt.kernel.Engine; its pointers are the engine's buffers, written
 * once per engine.  Nothing here allocates during a round or a run.
 */
#define _GNU_SOURCE /* CPU sets, sched_getcpu */
#include <math.h>
#include <pthread.h>
#include <sched.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

typedef struct bitgen {
    void *state;
    uint64_t (*next_uint64)(void *st);
    uint32_t (*next_uint32)(void *st);
    double (*next_double)(void *st);
    uint64_t (*next_raw)(void *st);
} bitgen_t;

enum { STOP_BUDGET, STOP_STEADY, STOP_ABSORBING };

/* equilibrium.PROJECTION_RULES, in its order */
enum { PROJECT_TIE_C, PROJECT_TIE_D, PROJECT_PER_LAYER };

struct megt_engine {
    /* the network's static tables, CSR arrays over the flat slots: each
       pointer is evolve.ScalingTable's array of the same name, except
       edge_weight and row_sum, which the table keeps per payoff mode */
    int64_t node_count, slot_count;
    const int64_t *neighbour_ptr, *neighbour_slot;
    const double *distance, *edge_weight, *row_sum;
    const int64_t *cross_ptr, *cross_slot;
    const double *cross_value, *denominator;
    /* the run's parameters */
    double reward, sucker, temptation, punishment;
    double kappa, span, clamp;
    int64_t window;
    double tolerance;
    /* state, read and written in place */
    int8_t *strategies;   /* slot_count */
    int64_t *coop_count;  /* node_count */
    /* scratch, slot_count each: payoff holds every slot's payoff from
       one round to the next; the stale slots are stale_slot[0 ..
       stale_total - 1], each listed once and flagged in stale */
    double *payoff;
    int64_t *picks;
    double *u_neighbour, *u_adopt;
    int8_t *stale;
    int64_t *stale_slot;
    int64_t stale_total;
    /* the run's densities and their running sums, budget + 2 each for
       the largest budget given to megt_run; rho[0], cumulative[0] and
       cumulative[1] are set by the caller */
    double *rho, *cumulative;
    /* Nash-pair counting in megt_nash, and in megt_run unless union_ptr
       is NULL: the union graph of the layers as a CSR over nodes
       (union_node ascending within a row, the homophily h_ij beside it
       in union_weight); the advantage of cooperating, nash_base +
       nash_slope * frequency; the projection rule; node_count scratch
       bytes in nash_play, the majority profile; slot_count bytes in
       nash_flag, the held flags, node_count per profile (profile alpha
       at alpha * node_count under per_layer, else one at 0); the
       running counts of all profiles, nash_pairs and nash_weak; and the
       counts per round, budget + 2 each (one for megt_nash) */
    const int64_t *union_ptr, *union_node;
    const double *union_weight;
    double nash_base, nash_slope;
    int64_t projection;
    int8_t *nash_play, *nash_flag;
    int64_t nash_pairs, nash_weak;
    int64_t *pair_count, *weak_count;
    /* results of the last call */
    int64_t coop_total, adoptions, stop;
};

/* numpy's buffered_bounded_lemire_uint32 for the range [0, excl) */
static int64_t bounded(bitgen_t *bitgen, uint32_t excl)
{
    uint64_t m = (uint64_t)bitgen->next_uint32(bitgen->state) * excl;
    uint32_t leftover = (uint32_t)m;
    if (leftover < excl) {
        uint32_t threshold = (UINT32_MAX - (excl - 1)) % excl;
        while (leftover < threshold) {
            m = (uint64_t)bitgen->next_uint32(bitgen->state) * excl;
            leftover = (uint32_t)m;
        }
    }
    return (int64_t)(m >> 32);
}

static void bulk_draws(bitgen_t *bitgen, int64_t count, uint32_t excl,
                       int64_t *picks, double *u_neighbour, double *u_adopt)
{
    for (int64_t t = 0; t < count; t++)
        picks[t] = bounded(bitgen, excl);
    for (int64_t t = 0; t < count; t++)
        u_neighbour[t] = bitgen->next_double(bitgen->state);
    for (int64_t t = 0; t < count; t++)
        u_adopt[t] = bitgen->next_double(bitgen->state);
}

/* The draws of a round of count steps, then redraws scalar picks: what
 * megt.kernel checks against numpy. */
void megt_draws(bitgen_t *bitgen, int64_t excl, int64_t count,
                int64_t *picks, double *u_neighbour, double *u_adopt,
                int64_t redraws, int64_t *redrawn)
{
    bulk_draws(bitgen, count, (uint32_t)excl, picks, u_neighbour, u_adopt);
    for (int64_t t = 0; t < redraws; t++)
        redrawn[t] = bounded(bitgen, (uint32_t)excl);
}

static void count_coop(struct megt_engine *e)
{
    int64_t total = 0;
    for (int64_t flat = 0; flat < e->slot_count; flat++)
        total += e->strategies[flat];
    e->coop_total = total;
}

/* The payoff of one slot: megt's one payoff sum. */
static void slot_payoff(struct megt_engine *e, int64_t flat)
{
    const int8_t *s = e->strategies;
    double mass = 0.0;
    for (int64_t k = e->neighbour_ptr[flat]; k < e->neighbour_ptr[flat + 1];
         k++)
        mass += e->edge_weight[k] * (double)s[e->neighbour_slot[k]];
    double vs_coop = s[flat] ? e->reward : e->temptation;
    double vs_defect = s[flat] ? e->sucker : e->punishment;
    e->payoff[flat] = vs_coop * mass + vs_defect * (e->row_sum[flat] - mass);
}

/* Every slot's payoff; no slot is stale after it. */
static void all_payoffs(struct megt_engine *e)
{
    for (int64_t flat = 0; flat < e->slot_count; flat++)
        slot_payoff(e, flat);
    memset(e->stale, 0, (size_t)e->slot_count);
    e->stale_total = 0;
}

/* The stale slots' payoffs; no slot is stale after it. */
static void stale_payoffs(struct megt_engine *e)
{
    for (int64_t k = 0; k < e->stale_total; k++) {
        const int64_t flat = e->stale_slot[k];
        e->stale[flat] = 0;
        slot_payoff(e, flat);
    }
    e->stale_total = 0;
}

static void mark_stale(struct megt_engine *e, int64_t flat)
{
    if (!e->stale[flat]) {
        e->stale[flat] = 1;
        e->stale_slot[e->stale_total++] = flat;
    }
}

/* Steps 2-4 of a round, on the payoffs in place. */
static void one_round(struct megt_engine *e, bitgen_t *bitgen)
{
    const int64_t *ptr = e->neighbour_ptr;
    int64_t nm = e->slot_count;
    int8_t *s = e->strategies;
    bulk_draws(bitgen, nm, (uint32_t)nm, e->picks, e->u_neighbour,
               e->u_adopt);
    for (int64_t t = 0; t < nm; t++) {
        int64_t flat = e->picks[t];
        while (ptr[flat + 1] == ptr[flat])
            flat = bounded(bitgen, (uint32_t)nm);
        int64_t first = ptr[flat];
        int64_t degree = ptr[flat + 1] - first;
        int64_t edge = first + (int64_t)(e->u_neighbour[t] * (double)degree);
        int64_t other_slot = e->neighbour_slot[edge];
        int own = s[flat];
        int other = s[other_slot];
        if (own == other)
            continue;
        double x = (e->payoff[flat] - e->payoff[other_slot])
                   / (e->distance[edge] * e->kappa);
        if (x > e->clamp)
            continue;
        double den = e->denominator[flat];
        double scaling = 1.0;
        if (den > 0.0) {
            double num = 0.0;
            for (int64_t k = e->cross_ptr[flat]; k < e->cross_ptr[flat + 1];
                 k++)
                if (s[e->cross_slot[k]] == own)
                    num += e->cross_value[k];
            scaling = 1.0 - e->span * (num / den);
        }
        double prob = x < -e->clamp ? scaling : scaling / (1.0 + exp(x));
        if (e->u_adopt[t] < prob) {
            s[flat] = (int8_t)other;
            e->coop_total += other - own;
            e->adoptions++;
            mark_stale(e, flat);
            for (int64_t k = first; k < first + degree; k++)
                mark_stale(e, e->neighbour_slot[k]);
        }
    }
    const int64_t n = e->node_count;
    for (int64_t base = 0; base < nm; base += n) {
        const int8_t *layer = s + base;
        const int64_t *row = ptr + base;
        for (int64_t i = 0; i < n; i++)
            e->coop_count[i] += layer[i] * (row[i + 1] - row[i]);
    }
}

/* The Nash pair and weak pair of a union edge whose ends hold the flags
 * a and b: bit 0 of a flag is a best response, bit 1 indifference. */
static inline int nash_pair(int a, int b)
{
    return a & b & 1;
}

static inline int weak_pair(int a, int b)
{
    return a & b & 1 & (a | b) >> 1;
}

/* Recomputes the flags of the node profile play (1 cooperates) into
 * flag, and at each node whose flag changed moves nash_pairs and
 * nash_weak over its union edges: a union edge is a Nash pair when both
 * of its ends play a best response, and a weak one when an end is also
 * indifferent.  A node's cooperator frequency is its weights on
 * cooperating neighbours, added left to right from 0.0, over its union
 * degree (0 for an isolated node); cooperating is a best response when
 * its advantage is >= 0, defecting when it is <= 0. */
static void nash_move(struct megt_engine *e, const int8_t *play,
                      int8_t *flag)
{
    const int64_t *ptr = e->union_ptr, *node = e->union_node;
    /* with a zero slope (any donation game) the advantage is nash_base
       plus a signed zero, which compares as nash_base does, so the
       sums are skipped */
    const int summed = e->nash_slope != 0.0;
    int64_t pairs = e->nash_pairs, weak = e->nash_weak;
    for (int64_t i = 0; i < e->node_count; i++) {
        double mass = 0.0;
        for (int64_t k = ptr[i]; summed && k < ptr[i + 1]; k++)
            mass += e->union_weight[k] * (double)play[node[k]];
        int64_t degree = ptr[i + 1] - ptr[i];
        double frequency = degree > 0 ? mass / (double)degree : 0.0;
        double advantage = e->nash_base + e->nash_slope * frequency;
        const int now = (play[i] ? advantage >= 0.0 : advantage <= 0.0)
                        | (advantage == 0.0) << 1;
        const int was = flag[i];
        if (now == was)
            continue;
        for (int64_t k = ptr[i]; k < ptr[i + 1]; k++) {
            const int other = flag[node[k]];
            pairs += nash_pair(now, other) - nash_pair(was, other);
            weak += weak_pair(now, other) - weak_pair(was, other);
        }
        flag[i] = (int8_t)now;
    }
    e->nash_pairs = pairs;
    e->nash_weak = weak;
}

/* Zero flags and zero counts, from which nash_record counts afresh. */
static void nash_clear(struct megt_engine *e)
{
    memset(e->nash_flag, 0, (size_t)(e->projection == PROJECT_PER_LAYER
                                     ? e->slot_count : e->node_count));
    e->nash_pairs = e->nash_weak = 0;
}

/* The Nash counts of the current strategies under the projection rule,
 * into pair_count[round] and weak_count[round]: per_layer adds up every
 * layer's profile; the majority rules count one profile, whose node
 * cooperates on at least (tie_c) or more than (tie_d) half its layers. */
static void nash_record(struct megt_engine *e, int64_t round)
{
    const int64_t n = e->node_count, m = e->slot_count / n;
    if (e->projection == PROJECT_PER_LAYER) {
        for (int64_t alpha = 0; alpha < m; alpha++)
            nash_move(e, e->strategies + alpha * n, e->nash_flag + alpha * n);
    } else {
        for (int64_t i = 0; i < n; i++) {
            int64_t votes = 0;
            for (int64_t alpha = 0; alpha < m; alpha++)
                votes += e->strategies[alpha * n + i];
            e->nash_play[i] = (int8_t)(e->projection == PROJECT_TIE_C
                                       ? 2 * votes >= m : 2 * votes > m);
        }
        nash_move(e, e->nash_play, e->nash_flag);
    }
    e->pair_count[round] = e->nash_pairs;
    e->weak_count[round] = e->nash_weak;
}

/* The Nash counts of the strategies, counted afresh, into pair_count[0]
 * and weak_count[0]; reads only the Nash fields, node_count, slot_count
 * and strategies. */
void megt_nash(struct megt_engine *e)
{
    nash_clear(e);
    nash_record(e, 0);
}

/* Rounds until the density is absorbing (0 or 1), the mean over the
 * last window differs from the mean over the window before by less than
 * the tolerance, or budget rounds have run: the stop rule of evolve.run,
 * with its double adds and divisions.  Fills rho[1..] and
 * cumulative[2..], and with the tracker's arrays set, pair_count[1..]
 * and weak_count[1..]; returns the rounds made, and leaves the stop code
 * and the run's coop_total and adoptions in the struct. */
int64_t megt_run(struct megt_engine *e, bitgen_t *bitgen, int64_t budget)
{
    int64_t w = e->window, rounds = 0;
    double *cum = e->cumulative;
    count_coop(e);
    e->adoptions = 0;
    e->stop = STOP_BUDGET;
    all_payoffs(e);
    if (e->union_ptr != NULL)
        nash_clear(e);
    while (rounds < budget) {
        stale_payoffs(e); /* none before the first round */
        one_round(e, bitgen);
        rounds++;
        if (e->union_ptr != NULL)
            nash_record(e, rounds);
        double value = (double)e->coop_total / (double)e->slot_count;
        e->rho[rounds] = value;
        cum[rounds + 1] = cum[rounds] + value;
        if (value == 0.0 || value == 1.0) {
            e->stop = STOP_ABSORBING;
            break;
        }
        if (rounds >= 2 * w) {
            double recent = (cum[rounds + 1] - cum[rounds + 1 - w]) / (double)w;
            double previous = (cum[rounds + 1 - w] - cum[rounds + 1 - 2 * w])
                              / (double)w;
            if (fabs(recent - previous) < e->tolerance) {
                e->stop = STOP_STEADY;
                break;
            }
        }
    }
    return rounds;
}

/* Communicability entries: out[q] = exp(A)[r, cross_slot[q]] for every
 * row r and q in cross_ptr[r] .. cross_ptr[r + 1] - 1, where A is the
 * nonnegative symmetric supra-matrix of the layers: layer alpha's edges,
 * the CSR (ptr, slot) over the flat slots with the homophily h_ij of
 * each edge in weight, on its diagonal block, and omega times the
 * identity on every off-diagonal block (none when omega is 0).
 *
 * A's spectrum lies in [-b, b], b the bound the caller computed, so
 * exp(A) e_c is the truncated Chebyshev series
 * sum_{k=0..terms} coefficient[k] T_k(A / b) e_c, with coefficient[0] =
 * I_0(b) and coefficient[k] = 2 I_k(b), summed for COMM_PANEL columns c
 * at a time.  With scale = 2 / b, T_0 = e_c, T_1 = (scale / 2) A T_0 and
 * T_k = scale A T_{k-1} - T_{k-2}; with T_{-1} = 0, every step is
 * next = (A term) * factor - prev, in which x - 0 is x, and then
 * sum += coefficient[k] * next.  next overwrites prev row by row, so a
 * panel needs three work arrays.  In (A term) each row's products are
 * added left to right in ascending column order.  In that order row
 * (alpha, i) holds omega * x(beta, i) for beta < alpha, then layer
 * alpha's edges, then omega * x(beta, i) for beta > alpha; so node i's
 * rows are summed together, each starting from the sum
 * 0 + omega * x(0, i) + ... of its prefix, which the row before it
 * extends by one term.  Every row gets the operations that the tests'
 * numpy series makes over the supra CSR, in the same order.  Every
 * column's arithmetic is independent of the others, so neither the
 * panel width nor the vector width changes a bit.
 *
 * Only the N * (M - 1) columns of layers 0 .. M - 2 are summed.  A row
 * r below N * (M - 1) reads entry (r, c) from its own column r, which
 * equals row r because A is symmetric.  A row r on the last layer reads
 * its slots c, all on other layers, as entry r of column c: each panel
 * scans the last layer's entries for the slots among its columns, a
 * pass over about nnz(A) entries against the panel's terms * nnz(A)
 * products.  A panel is stored row-major, COMM_PANEL doubles per row. */
#define COMM_PANEL 16

struct supra {
    int64_t nodes, layers;
    const int64_t *ptr, *slot;
    const double *weight;
    double omega;
};

/* next = (A term) * factor - next, then sum += coefficient * next, for
 * one panel: next holds T_{k-2} before and T_k after. */
static void panel_term(const struct supra *a, double factor,
                       double coefficient, const double *term, double *next,
                       double *sum)
{
    const int64_t n = a->nodes, m = a->layers;
    const double omega = a->omega;
    for (int64_t i = 0; i < n; i++) {
        double prefix[COMM_PANEL] = {0.0};
        for (int64_t alpha = 0; alpha < m; alpha++) {
            const int64_t row = alpha * n + i;
            double acc[COMM_PANEL];
            for (int c = 0; c < COMM_PANEL; c++)
                acc[c] = prefix[c];
            for (int64_t p = a->ptr[row]; p < a->ptr[row + 1]; p++) {
                const double v = a->weight[p];
                const double *src = term + a->slot[p] * COMM_PANEL;
                for (int c = 0; c < COMM_PANEL; c++)
                    acc[c] += v * src[c];
            }
            if (omega > 0.0) {
                for (int64_t beta = alpha + 1; beta < m; beta++) {
                    const double *src = term + (beta * n + i) * COMM_PANEL;
                    for (int c = 0; c < COMM_PANEL; c++)
                        acc[c] += omega * src[c];
                }
                const double *own = term + row * COMM_PANEL;
                for (int c = 0; c < COMM_PANEL; c++)
                    prefix[c] += omega * own[c];
            }
            double *dst = next + row * COMM_PANEL;
            double *total = sum + row * COMM_PANEL;
            for (int c = 0; c < COMM_PANEL; c++) {
                dst[c] = acc[c] * factor - dst[c];
                total[c] += coefficient * dst[c];
            }
        }
    }
}

#if defined(__x86_64__) && defined(__GNUC__)
/* panel_term in 4-wide AVX2 vectors, about twice as fast; the same
 * elementwise operations, so the same bits. */
typedef double quad __attribute__((vector_size(32)));
#define QUADS (COMM_PANEL / 4)

__attribute__((target("avx2")))
static inline void add_scaled(quad *acc, double v, const double *src)
{
#pragma GCC unroll 8
    for (int q = 0; q < QUADS; q++) {
        quad x;
        __builtin_memcpy(&x, src + 4 * q, sizeof x);
        acc[q] += v * x;
    }
}

__attribute__((target("avx2")))
static void panel_term_avx2(const struct supra *a, double factor,
                            double coefficient, const double *term,
                            double *next, double *sum)
{
    const int64_t n = a->nodes, m = a->layers;
    const double omega = a->omega;
    for (int64_t i = 0; i < n; i++) {
        quad prefix[QUADS] = {{0.0}};
        for (int64_t alpha = 0; alpha < m; alpha++) {
            const int64_t row = alpha * n + i;
            quad acc[QUADS];
#pragma GCC unroll 8
            for (int q = 0; q < QUADS; q++)
                acc[q] = prefix[q];
            for (int64_t p = a->ptr[row]; p < a->ptr[row + 1]; p++)
                add_scaled(acc, a->weight[p], term + a->slot[p] * COMM_PANEL);
            if (omega > 0.0) {
                for (int64_t beta = alpha + 1; beta < m; beta++)
                    add_scaled(acc, omega, term + (beta * n + i) * COMM_PANEL);
                add_scaled(prefix, omega, term + row * COMM_PANEL);
            }
            double *dst = next + row * COMM_PANEL;
            double *total = sum + row * COMM_PANEL;
#pragma GCC unroll 8
            for (int q = 0; q < QUADS; q++) {
                quad x, y;
                __builtin_memcpy(&y, dst + 4 * q, sizeof y);
                y = acc[q] * factor - y;
                __builtin_memcpy(dst + 4 * q, &y, sizeof y);
                __builtin_memcpy(&x, total + 4 * q, sizeof x);
                x += coefficient * y;
                __builtin_memcpy(total + 4 * q, &x, sizeof x);
            }
        }
    }
}
#endif

typedef void (*panel_step)(const struct supra *, double, double,
                           const double *, double *, double *);

/* What the threads of one megt_comm_entries call share.  Panels are
 * handed out by the atomic counter next_panel; each panel writes only
 * the entries of out that read its columns. */
struct comm_job {
    struct supra a;
    panel_step step;
    int64_t slot_count, columns, terms, panels;
    const double *coefficient;
    double scale;
    const int64_t *cross_ptr, *cross_slot;
    double *out;
    int64_t next_panel;
};

/* Sums panels until none is left, in its own three slot_count x
 * COMM_PANEL work arrays; takes none when they cannot be allocated. */
static void *comm_worker(void *arg)
{
    struct comm_job *job = arg;
    const int64_t size = job->slot_count * COMM_PANEL;
    double *scratch = malloc(3 * (size_t)size * sizeof(double));
    if (scratch == NULL)
        return NULL;
    double *sum = scratch, *term = scratch + size, *next = scratch + 2 * size;
    for (;;) {
        const int64_t first = COMM_PANEL * __atomic_fetch_add(
            &job->next_panel, 1, __ATOMIC_RELAXED);
        if (first >= job->columns)
            break;
        const int width = job->columns - first < COMM_PANEL
                          ? (int)(job->columns - first) : COMM_PANEL;
        memset(scratch, 0, 3 * (size_t)size * sizeof(double));
        for (int c = 0; c < width; c++) {
            sum[(first + c) * COMM_PANEL + c] = job->coefficient[0];
            term[(first + c) * COMM_PANEL + c] = 1.0;
        }
        for (int64_t k = 1; k <= job->terms; k++) {
            job->step(&job->a, k == 1 ? job->scale / 2.0 : job->scale,
                      job->coefficient[k], term, next, sum);
            double *swap = term;
            term = next;
            next = swap;
        }
        for (int c = 0; c < width; c++) {
            const int64_t r = first + c;
            for (int64_t q = job->cross_ptr[r]; q < job->cross_ptr[r + 1]; q++)
                job->out[q] = sum[job->cross_slot[q] * COMM_PANEL + c];
        }
        for (int64_t r = job->columns; r < job->slot_count; r++)
            for (int64_t q = job->cross_ptr[r]; q < job->cross_ptr[r + 1];
                 q++) {
                const int64_t c = job->cross_slot[q] - first;
                if (c >= 0 && c < width)
                    job->out[q] = sum[r * COMM_PANEL + c];
            }
    }
    free(scratch);
    return NULL;
}

/* Sets attr to start helper threads on the CPUs the caller may use other
 * than its own.  Left to the kernel, a new helper was seen to share the
 * caller's CPU for a whole call while another CPU stayed idle. */
static void place_helpers(pthread_attr_t *attr)
{
#ifdef __linux__
    cpu_set_t others;
    const int here = sched_getcpu();
    if (here >= 0 && pthread_getaffinity_np(pthread_self(), sizeof others,
                                            &others) == 0) {
        CPU_CLR(here, &others);
        if (CPU_COUNT(&others) > 0)
            pthread_attr_setaffinity_np(attr, sizeof others, &others);
    }
#else
    (void)attr;
#endif
}

/* With vector nonzero, panels are summed with AVX2 where the CPU has
 * it.  The panels are shared among up to `threads` threads, the calling
 * thread among them; a thread's panels give the same bits on any
 * thread, so the thread count changes no bit.  Every thread started is
 * joined before the call returns.  When a thread cannot be started, the
 * threads running take its panels.  Returns 0, or -1 when no thread
 * could allocate its work arrays, so some panels were not summed. */
int64_t megt_comm_entries(int64_t node_count, int64_t layer_count,
                          const int64_t *ptr, const int64_t *slot,
                          const double *weight, double omega, int64_t terms,
                          const double *coefficient, double scale,
                          const int64_t *cross_ptr, const int64_t *cross_slot,
                          double *out, int64_t vector, int64_t threads)
{
    const int64_t columns = node_count * (layer_count - 1);
    struct comm_job job = {{node_count, layer_count, ptr, slot, weight, omega},
                           panel_term, node_count * layer_count, columns,
                           terms, (columns + COMM_PANEL - 1) / COMM_PANEL,
                           coefficient, scale, cross_ptr, cross_slot, out,
                           0};
#if defined(__x86_64__) && defined(__GNUC__)
    if (vector && __builtin_cpu_supports("avx2"))
        job.step = panel_term_avx2;
#else
    (void)vector;
#endif
    if (threads > job.panels)
        threads = job.panels;
    pthread_t *helpers = NULL;
    int64_t started = 0;
    if (threads > 1)
        helpers = malloc((size_t)(threads - 1) * sizeof *helpers);
    if (helpers != NULL) {
        pthread_attr_t attr;
        pthread_attr_init(&attr);
        place_helpers(&attr);
        while (started < threads - 1
               && pthread_create(&helpers[started], &attr, comm_worker,
                                 &job) == 0)
            started++;
        pthread_attr_destroy(&attr);
    }
    comm_worker(&job);
    for (int64_t t = 0; t < started; t++)
        pthread_join(helpers[t], NULL);
    free(helpers);
    return job.next_panel < job.panels ? -1 : 0;
}
