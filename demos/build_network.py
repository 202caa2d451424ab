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
    degrees = net.layer_degrees()
    for alpha in range(net.layer_count):
        k = degrees[alpha]
        edges = int(net.adjacency[alpha].sum()) // 2
        c = eigenvector_centrality(net.adjacency[alpha])
        print(
            f"  layer {alpha}: {edges} edges, <k>={k.mean():.2f}, "
            f"max k={int(k.max())}, centrality spread={c.max() / c.min():.1f}x"
        )

    # Homophily is shared across layers: one distance per node pair.
    tri = np.triu_indices(net.node_count, k=1)
    h = homophily_from_delta(net.delta)[tri]
    print(f"homophily h: min={h.min():.3f} median={np.median(h):.3f} max={h.max():.3f}")

    w = net.weights[0][net.adjacency[0] > 0]
    print(f"layer-0 link weights: min={w.min():.3f} mean={w.mean():.3f} max={w.max():.3f}")

    union = int(np.any(net.adjacency, axis=0).sum()) // 2
    print(f"aggregated union graph: {union} edges")

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "net.mplex"
        save_multiplex(net, path)
        again = load_multiplex(path)
        drift = max(
            abs(net.weights[a] - again.weights[a]).max()
            for a in range(net.layer_count)
        )
        print(f"save/load round trip: max |w - w'| = {drift:.2e}, "
              f"max |delta - delta'| = {abs(net.delta - again.delta).max():.2e}")


if __name__ == "__main__":
    main()
