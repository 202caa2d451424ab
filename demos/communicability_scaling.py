"""Show how inter-layer communicability feeds the update scaling factor.

A node whose strategy agrees with its cross-layer surroundings gets its
imitation probability damped (factor near the lower bound); a node in
disagreement keeps the full rate (factor near 1).
"""
from __future__ import annotations

import numpy as np

from megt.comm import ScalingBounds, build_supra, matrix_exp
from megt.evolve import ScalingTable
from megt.games import COOPERATE, DEFECT
from megt.netgen import LayerTopology, MultiplexSpec, build_multiplex

net = build_multiplex(
    MultiplexSpec(
        node_count=30,
        layer_count=2,
        topologies=[LayerTopology.ws(4, 0.2)] * 2,
        homophily_sigma=1.0,
        rng_seed=11,
    )
)

n = net.node_count
for omega in (0.0, 0.25, 0.5, 1.0):
    supra = build_supra(net, omega)
    cross = matrix_exp(supra)[:n, n:]  # layer 0 to layer 1
    print(
        f"omega={omega:4.2f}: supra 1-norm={np.abs(supra).sum(axis=0).max():6.3f}  "
        f"mean cross-layer G entry={cross.mean():8.5f}"
    )

# the entries a run reads: node 0's counterpart and its neighbours on
# layer 1, and their sum
table = ScalingTable(net, 0.5)
bounds = ScalingBounds()
entries = slice(table.cross_ptr[0], table.cross_ptr[1])


def eta(strategies: np.ndarray) -> float:
    """Node 0's factor on layer 0: 1 - span * (share of its cross-layer
    communicability that agrees with its strategy)."""
    flat = strategies.reshape(-1)
    agree = flat[table.cross_slot[entries]] == flat[0]
    share = table.cross_value[entries][agree].sum() / table.denominator[0]
    return 1.0 - bounds.span * share


# Node 0 cooperating in layer 0 against three backgrounds.
agree = np.full((2, 30), COOPERATE)
oppose = np.full((2, 30), DEFECT)
oppose[0, 0] = COOPERATE
mixed = agree.copy()
mixed[1, :15] = DEFECT

print("\nscaling factor for node 0, layer 0 (cooperator):")
for label, field in (("all agree", agree), ("all oppose", oppose), ("half/half", mixed)):
    print(f"  {label:10s} -> eta = {eta(field):.4f}")
print(f"bounds: eta confined to [1 - span, 1] = [{1.0 - bounds.span}, 1.0]")
