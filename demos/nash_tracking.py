"""Track the Nash-pair fraction alpha while a simulation runs.

alpha(n) is the share of aggregated-graph edges whose projected strategy
pair is a mutual best response. In defection-dominant games it climbs in
phases rather than smoothly, pausing on metastable plateaus.
"""
from __future__ import annotations

import argparse
import dataclasses

from megt.equilibrium import EquilibriumTracker, nash_report
from megt.evolve import SimulationConfig, replica_network, run
from megt.games import from_ts
from megt.netgen import LayerTopology, MultiplexSpec


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--t", type=float, default=1.4)
    parser.add_argument("--s", type=float, default=-0.4)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--projection", default="majority_tie_c",
                        choices=("majority_tie_c", "majority_tie_d", "per_layer"))
    args = parser.parse_args()

    game = from_ts(args.t, args.s)
    config = SimulationConfig(
        game=game,
        spec=MultiplexSpec(
            node_count=200,
            layer_count=2,
            topologies=[LayerTopology.sf(2)] * 2,
            homophily_sigma=1.0,
            rng_seed=args.seed,
        ),
        max_rounds=3000,
        rng_seed=args.seed,
    )

    network = replica_network(config)
    config = dataclasses.replace(config, spec=None, network=network)
    tracker = EquilibriumTracker(network, game, args.projection)

    result = run(config, tracker=tracker)

    print(f"T={args.t} S={args.s} projection={args.projection}")
    for round_index, alpha, _weak in tracker.history[:: max(1, len(tracker.history) // 15)]:
        bar = "#" * int(50 * alpha)
        print(f"  round {round_index:4d}  alpha={alpha:.3f} {bar}")
    last_round, last_alpha, last_weak = tracker.history[-1]
    print(f"final: alpha={last_alpha:.3f} weak={last_weak:.3f} "
          f"after {result.trajectory.rounds} rounds")

    report = nash_report(result.state.strategies, result.network, game,
                         args.projection)
    print(f"standalone report agrees: alpha={report.alpha:.3f} "
          f"({report.edge_count} edges)")


if __name__ == "__main__":
    main()
