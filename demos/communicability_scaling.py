"""Show how inter-layer communicability feeds the update scaling factor.

A node whose strategy agrees with its cross-layer surroundings gets its
imitation probability damped (factor near the lower bound); a node in
disagreement keeps the full rate (factor near 1).
"""
from __future__ import annotations

import numpy as np

from megt.comm import ScalingBounds, build_supra, communicability, scaling_factor
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

for omega in (0.0, 0.25, 0.5, 1.0):
    supra = build_supra(net, omega)
    comm = communicability(net, omega)
    n = net.node_count
    cross = comm.matrix[:n, n:]  # layer 0 to layer 1
    print(
        f"omega={omega:4.2f}: supra 1-norm={np.abs(supra).sum(axis=0).max():6.3f}  "
        f"mean cross-layer G entry={cross.mean():8.5f}"
    )

comm = communicability(net, 0.5)
bounds = ScalingBounds()

# Node 0 cooperating in layer 0 against three backgrounds.
agree = np.full((2, 30), COOPERATE)
oppose = np.full((2, 30), DEFECT)
oppose[0, 0] = COOPERATE
mixed = agree.copy()
mixed[1, :15] = DEFECT

print("\nscaling factor for node 0, layer 0 (cooperator):")
for label, field in (("all agree", agree), ("all oppose", oppose), ("half/half", mixed)):
    eta = scaling_factor(0, 0, comm, field, net, bounds)
    print(f"  {label:10s} -> eta = {eta:.4f}")
print(f"bounds: eta confined to ({bounds.minimum}, {bounds.maximum})")
