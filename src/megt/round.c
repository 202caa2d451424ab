/* The N*M imitation steps of one Monte Carlo round (megt.evolve).
 *
 * Performs RoundEngine's Python loop with the same float operations in
 * the same order, so both give the same bits: build with
 * -ffp-contract=off (no fused multiply-add) and link libm, whose exp is
 * the one math.exp calls.  Every index is a flat slot alpha * N + i.
 * picks[] holds the round's resolved picks, none of them an isolated
 * slot; strategies[] is updated in place.  Returns the change in the
 * number of cooperating slots.
 */
#include <math.h>
#include <stdint.h>

int64_t megt_round(int64_t slot_count, const int64_t *picks,
                   const double *u_neighbour, const double *u_adopt,
                   const double *payoff, int8_t *strategies,
                   const int64_t *neighbour_ptr, const int64_t *neighbour_slot,
                   const double *distance, const int64_t *cross_ptr,
                   const int64_t *cross_slot, const double *cross_value,
                   const double *denominator, double kappa, double span,
                   double clamp)
{
    int64_t change = 0;
    for (int64_t t = 0; t < slot_count; t++) {
        int64_t flat = picks[t];
        int64_t first = neighbour_ptr[flat];
        int64_t degree = neighbour_ptr[flat + 1] - first;
        int64_t edge = first + (int64_t)(u_neighbour[t] * (double)degree);
        int64_t other_slot = neighbour_slot[edge];
        int own = strategies[flat];
        int other = strategies[other_slot];
        if (own == other)
            continue;
        double x = (payoff[flat] - payoff[other_slot])
                   / (distance[edge] * kappa);
        if (x > clamp)
            continue;
        double den = denominator[flat];
        double scaling = 1.0;
        if (den > 0.0) {
            double num = 0.0;
            for (int64_t k = cross_ptr[flat]; k < cross_ptr[flat + 1]; k++)
                if (strategies[cross_slot[k]] == own)
                    num += cross_value[k];
            scaling = 1.0 - span * (num / den);
        }
        double prob = x < -clamp ? scaling : scaling / (1.0 + exp(x));
        if (u_adopt[t] < prob) {
            strategies[flat] = (int8_t)other;
            change += other - own;
        }
    }
    return change;
}
