"""Construct a homophily-weighted multiplex and inspect its pieces.

Builds a three-layer network (scale-free, small-world, random), prints
per-layer summaries, then round-trips the whole object through the text
format to show that persistence is lossless.
"""
from __future__ import annotations

import argparse
import tempfile
from pathlib import Path

import numpy as np

from megt.netgen import (
    LayerTopology,
    MultiplexSpec,
    build_multiplex,
    eigenvector_centrality,
    homophily_from_delta,
    load_multiplex,
    save_multiplex,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--nodes", type=int, default=60)
    parser.add_argument("--sigma", type=float, default=1.0)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    spec = MultiplexSpec(
        node_count=args.nodes,
        layer_count=3,
        topologies=[
            LayerTopology.sf(2),
            LayerTopology.ws(4, 0.1),
            LayerTopology.er(0.08),
        ],
        homophily_sigma=args.sigma,
        rng_seed=args.seed,
    )
    net = build_multiplex(spec)

    print(f"multiplex: N={net.node_count} M={net.layer_count} sigma={args.sigma}")
    n = net.node_count
    degrees = net.layer_degrees()
    # layer alpha's edges are the CSR rows of the slots alpha * N + i
    owner = net.edge_owner()
    layer = owner // n
    for alpha, dense in enumerate(net.adjacency):  # dense only for the demo
        k = degrees[alpha]
        edges = int(k.sum()) // 2
        c = eigenvector_centrality(dense)
        print(
            f"  layer {alpha}: {edges} edges, <k>={k.mean():.2f}, "
            f"max k={int(k.max())}, centrality spread={c.max() / c.min():.1f}x"
        )

    # Homophily is shared across layers: one distance per node pair.
    tri = np.triu_indices(net.node_count, k=1)
    h = homophily_from_delta(net.delta)[tri]
    print(f"homophily h: min={h.min():.3f} median={np.median(h):.3f} max={h.max():.3f}")

    w = net.edge_weight[layer == 0]
    print(f"layer-0 link weights: min={w.min():.3f} mean={w.mean():.3f} max={w.max():.3f}")

    pairs = np.unique(owner % n * n + net.neighbour_slot % n)
    print(f"aggregated union graph: {pairs.size // 2} edges")

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "net.mplex"
        save_multiplex(net, path)
        again = load_multiplex(path)
        drift = abs(net.edge_weight - again.edge_weight).max()
        print(f"save/load round trip: max |w - w'| = {drift:.2e}, "
              f"max |delta - delta'| = {abs(net.delta - again.delta).max():.2e}")


if __name__ == "__main__":
    main()
