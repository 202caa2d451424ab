"""End-to-end crowdsensing pipeline on a synthetic report corpus.

Generates a mixed population (honest / selfish / malicious devices),
scores every user under the three incentive mechanisms, and shows how
the mechanisms differ in how finely they separate contributors.
"""
from __future__ import annotations

import collections
import datetime
import tempfile
from pathlib import Path

from megt.crowdsense import (
    SEGMENTS_PER_DAY,
    IncentiveConfig,
    SynthSpec,
    read_reports_csv,
    score_corpus,
    synth_corpus,
    write_reports_csv,
)

spec = SynthSpec(user_count=120, day_count=7, rng_seed=4)
rows = synth_corpus(spec)
# the corpus goes through a file, as `megt synth` and `megt score` pass it
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "reports.csv"
    write_reports_csv(rows, path)
    kept, rejected = read_reports_csv(path)
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
    distinct = len({round(v, 9) for v in payouts.tolist()})
    paid = int((payouts > 0).sum())
    top = payouts.max()
    print(f"mechanism {mech}: {distinct:3d} distinct payout levels, "
          f"{paid:3d} users paid, max payout {top:.3f}")

print("\nsample of publication decisions (first 5 windows):")
decisions = result.decisions
for k in range(min(5, len(decisions.window))):
    day, segment = divmod(int(decisions.window[k]), SEGMENTS_PER_DAY)
    print(f"  {datetime.date.fromordinal(day)}, {segment}, "
          f"{decisions.streets[decisions.street[k]]}, "
          f"{decisions.kinds[decisions.kind[k]]}, "
          f"{decisions.confidence[k]:.3f}, "
          f"{'publish' if decisions.publish[k] else 'drop'}")
