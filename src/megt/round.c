/* Monte Carlo rounds of megt.evolve, whole runs at a time.
 *
 * megt_run loops rounds until the stop rule fires; megt_round makes one
 * round.  A round does, with the same numbers in the same order and the
 * same float operations as RoundEngine's Python fallback, so both give
 * the same bits:
 *
 *  1. payoffs: per slot, mass += w_e * s_j over its neighbour edges in
 *     CSR order (ascending j), then
 *     vs_coop * mass + vs_defect * (row_sum - mass);
 *  2. draws, from numpy's bit generator through its bitgen_t interface
 *     (numpy/random/bitgen.h): N*M picks by numpy's bounded Lemire
 *     method over next_uint32, as Generator.integers(0, nm, size=nm)
 *     draws them, then N*M neighbour uniforms and N*M adoption uniforms
 *     from next_double, as Generator.random(nm) draws them;
 *  3. the N*M imitation steps; in step order, a pick on an isolated slot
 *     is redrawn, as Generator.integers(nm) would, until it has a
 *     neighbour;
 *  4. each cooperating slot adds its degree to its node's coop_count.
 *
 * That the draws equal numpy's is numpy's implementation, not its
 * contract; megt.kernel checks it against numpy before using this code.
 * The caller holds the bit generator's lock.  Slot counts stay below
 * 2^32, where numpy draws bounded integers from next_uint32.
 *
 * Build with -ffp-contract=off (no fused multiply-add) and link libm,
 * whose exp is the one math.exp calls.  Every index is a flat slot
 * alpha * N + i.  The struct below is mirrored field for field by
 * megt.kernel.Engine; its pointers are the engine's buffers, written
 * once per engine.
 */
#include <math.h>
#include <stdint.h>

typedef struct bitgen {
    void *state;
    uint64_t (*next_uint64)(void *st);
    uint32_t (*next_uint32)(void *st);
    double (*next_double)(void *st);
    uint64_t (*next_raw)(void *st);
} bitgen_t;

enum { STOP_BUDGET, STOP_STEADY, STOP_ABSORBING };

struct megt_engine {
    /* the network's static tables (evolve.ScalingTable) */
    int64_t node_count, slot_count;
    const int64_t *neighbour_ptr, *neighbour_slot;
    const double *distance, *edge_weight, *row_sum;
    const int64_t *cross_ptr, *cross_slot;
    const double *cross_value, *denominator;
    /* the run's parameters */
    double reward, sucker, temptation, punishment;
    double kappa, span, clamp;
    int64_t max_rounds, window;
    double tolerance;
    /* state, read and written in place */
    int8_t *strategies;   /* slot_count */
    int64_t *coop_count;  /* node_count */
    /* scratch, slot_count each */
    double *payoff;
    int64_t *picks;
    double *u_neighbour, *u_adopt;
    /* the run's densities and their running sums, max_rounds + 2 each;
       rho[0], cumulative[0] and cumulative[1] are set by the caller */
    double *rho, *cumulative;
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

/* The draws of megt_round for count steps, then redraws scalar picks:
 * what megt.kernel checks against numpy. */
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

static void accumulate_payoffs(struct megt_engine *e)
{
    const int8_t *s = e->strategies;
    for (int64_t flat = 0; flat < e->slot_count; flat++) {
        double mass = 0.0;
        for (int64_t k = e->neighbour_ptr[flat]; k < e->neighbour_ptr[flat + 1];
             k++)
            mass += e->edge_weight[k] * (double)s[e->neighbour_slot[k]];
        double vs_coop = s[flat] ? e->reward : e->temptation;
        double vs_defect = s[flat] ? e->sucker : e->punishment;
        e->payoff[flat] = vs_coop * mass + vs_defect * (e->row_sum[flat] - mass);
    }
}

static void one_round(struct megt_engine *e, bitgen_t *bitgen)
{
    const int64_t *ptr = e->neighbour_ptr;
    int64_t nm = e->slot_count;
    int8_t *s = e->strategies;
    accumulate_payoffs(e);
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
        }
    }
    int64_t n = e->node_count;
    for (int64_t flat = 0; flat < nm; flat++)
        if (s[flat])
            e->coop_count[flat % n] += ptr[flat + 1] - ptr[flat];
}

/* One round; coop_total and adoptions are the round's. */
void megt_round(struct megt_engine *e, bitgen_t *bitgen)
{
    count_coop(e);
    e->adoptions = 0;
    one_round(e, bitgen);
}

/* Rounds until the density is absorbing (0 or 1), the mean over the
 * last window differs from the mean over the window before by less than
 * the tolerance, or max_rounds have run: the stop rule of evolve.run,
 * with its double adds and divisions.  Fills rho[1..] and
 * cumulative[2..]; returns the rounds made, and leaves the stop code
 * and the run's adoptions in the struct. */
int64_t megt_run(struct megt_engine *e, bitgen_t *bitgen)
{
    int64_t w = e->window, rounds = 0;
    double *cum = e->cumulative;
    count_coop(e);
    e->adoptions = 0;
    e->stop = STOP_BUDGET;
    while (rounds < e->max_rounds) {
        one_round(e, bitgen);
        rounds++;
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
