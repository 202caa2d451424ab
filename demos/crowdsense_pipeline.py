"""End-to-end crowdsensing pipeline on a synthetic report corpus.

Generates a mixed population (honest / selfish / malicious devices),
scores every user under the three incentive mechanisms, and shows how
the mechanisms differ in how finely they separate contributors.
"""
from __future__ import annotations

import collections

from megt.crowdsense import (
    IncentiveConfig,
    SynthSpec,
    parse_reports,
    score_corpus,
    synth_corpus,
)

spec = SynthSpec(user_count=120, day_count=7, rng_seed=4)
rows = synth_corpus(spec)
kept, rejected = parse_reports(rows, first_row_number=2)
print(f"corpus: {len(rows)} rows -> {len(kept)} kept, {len(rejected)} rejected")

reasons = collections.Counter(r.reason for r in rejected)
for reason, count in sorted(reasons.items()):
    print(f"  rejected[{reason}] = {count}")

config = IncentiveConfig(budget=100.0, mechanism="C")
result = score_corpus(kept, config, mechanisms=("A", "B", "C"),
                      total_users=spec.user_count)

print(f"\nusers scored: {len(result.users)} of {result.total_users}")
print(f"corpus mean rating: {result.stats.mean_rating:.3f}")

for mech in ("A", "B", "C"):
    payouts = result.payouts[mech]
    distinct = len({round(v, 9) for v in payouts.values()})
    paid = sum(1 for v in payouts.values() if v > 0)
    top = max(payouts.values())
    print(f"mechanism {mech}: {distinct:3d} distinct payout levels, "
          f"{paid:3d} users paid, max payout {top:.3f}")

print("\nsample of publication decisions (first 5 windows):")
for row in result.decisions[:5]:
    print("  " + ", ".join(f"{part:.3f}" if isinstance(part, float)
                           else str(part) for part in row))
