"""Construction of homophily-weighted multiplex networks.

A multiplex here is M undirected, unweighted layers over the same N
nodes, plus a single pairwise homophily structure shared by all layers:
``delta[i, j]`` is a nonnegative social distance drawn once per
unordered pair, and ``homophily[i, j] = 1 / (1 + delta[i, j])``.

Each layer also carries link weights
``weights[i, j] = homophily[i, j] * (c_i + c_j) / 2`` where ``c`` is the
layer's eigenvector centrality, and a homophily-masked adjacency
``z = homophily * adjacency`` used by the inter-layer coupling and the
equilibrium analysis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "LayerTopology",
    "MultiplexSpec",
    "MultiplexNetwork",
    "generate_er",
    "generate_ws",
    "generate_sf",
    "sample_homophily",
    "homophily_from_delta",
    "eigenvector_centrality",
    "link_weights",
    "build_multiplex",
    "multiplex_from_arrays",
    "save_multiplex",
    "load_multiplex",
]


def _as_generator(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


# ---------------------------------------------------------------------------
# layer generators
# ---------------------------------------------------------------------------

def generate_er(node_count: int, edge_probability: float, seed=None) -> np.ndarray:
    """Erdos-Renyi G(n, p): every unordered pair is an edge with prob p.

    Returns a symmetric 0/1 ``int8`` adjacency matrix with zero diagonal.
    """
    if node_count < 1:
        raise ValueError(f"node_count must be >= 1, got {node_count}")
    if not 0.0 <= edge_probability <= 1.0:
        raise ValueError(
            f"edge_probability must lie in [0, 1], got {edge_probability}")
    rng = _as_generator(seed)
    n = node_count
    adj = np.zeros((n, n), dtype=np.int8)
    iu, ju = np.triu_indices(n, k=1)
    hit = rng.random(iu.size) < edge_probability
    adj[iu[hit], ju[hit]] = 1
    adj[ju[hit], iu[hit]] = 1
    return adj


def generate_ws(node_count: int, ring_degree: int,
                rewire_probability: float, seed=None) -> np.ndarray:
    """Watts-Strogatz small world: ring lattice of even degree k, then each
    ring edge is rewired with the given probability to a uniformly random
    non-duplicate, non-self target (edge count is preserved).
    """
    n, k = node_count, ring_degree
    if k % 2 != 0 or k < 0:
        raise ValueError(f"ring_degree must be even and >= 0, got {k}")
    if n < 1:
        raise ValueError(f"node_count must be >= 1, got {n}")
    if k >= n:
        raise ValueError(f"ring_degree must be < node_count, got k={k}, n={n}")
    if not 0.0 <= rewire_probability <= 1.0:
        raise ValueError(
            f"rewire_probability must lie in [0, 1], got {rewire_probability}")
    rng = _as_generator(seed)
    adj = np.zeros((n, n), dtype=np.int8)
    for offset in range(1, k // 2 + 1):
        for i in range(n):
            j = (i + offset) % n
            adj[i, j] = adj[j, i] = 1
    # rewire the clockwise edges lattice-order, one uniform draw per edge
    for offset in range(1, k // 2 + 1):
        for i in range(n):
            j = (i + offset) % n
            if adj[i, j] == 0:  # already rewired away by an earlier pass
                continue
            if rng.random() < rewire_probability:
                candidates = np.flatnonzero(adj[i] == 0)
                candidates = candidates[candidates != i]
                if candidates.size == 0:
                    continue
                target = int(candidates[rng.integers(candidates.size)])
                adj[i, j] = adj[j, i] = 0
                adj[i, target] = adj[target, i] = 1
    return adj


def generate_sf(node_count: int, attachment_count: int,
                seed_clique_size: int | None = None, seed=None) -> np.ndarray:
    """Scale-free layer by preferential attachment.

    Starts from a clique on ``seed_clique_size`` nodes (default
    ``attachment_count + 1``); every further node attaches to
    ``attachment_count`` distinct existing nodes chosen proportionally to
    their current degree.  Total edge count is therefore
    ``m0*(m0-1)/2 + m*(n-m0)``.
    """
    n, m = node_count, attachment_count
    m0 = seed_clique_size if seed_clique_size is not None else m + 1
    if m < 1:
        raise ValueError(f"attachment_count must be >= 1, got {m}")
    if m0 < m:
        raise ValueError(
            f"seed_clique_size must be >= attachment_count, got m0={m0}, m={m}")
    if m0 > n:
        raise ValueError(
            f"seed_clique_size must be <= node_count, got m0={m0}, n={n}")
    rng = _as_generator(seed)
    adj = np.zeros((n, n), dtype=np.int8)
    adj[:m0, :m0] = 1
    np.fill_diagonal(adj, 0)
    # each node id appears once per unit of degree; sampling an index
    # uniformly from this list is degree-proportional sampling
    stubs: list[int] = []
    for i in range(m0):
        stubs.extend([i] * (m0 - 1))
    for v in range(m0, n):
        chosen: set[int] = set()
        while len(chosen) < m:
            if stubs:
                pick = stubs[int(rng.integers(len(stubs)))]
            else:  # degenerate seed (m0 = 1): no degree mass yet
                pick = int(rng.integers(v))
            chosen.add(pick)
        for u in chosen:
            adj[v, u] = adj[u, v] = 1
            stubs.append(u)
            stubs.append(v)
    return adj


# ---------------------------------------------------------------------------
# homophily
# ---------------------------------------------------------------------------

def sample_homophily(node_count: int, sigma: float, seed=None):
    """Draw the pairwise social-distance matrix and its homophily weights.

    Each unordered pair receives an independent ``|Normal(0, sigma)|``
    distance; the diagonal is zero.  Returns ``(delta, homophily)`` with
    ``homophily = 1 / (1 + delta)``, so sigma = 0 gives homophily 1
    everywhere and larger sigma pushes weights toward 0.
    """
    if sigma < 0:
        raise ValueError(f"sigma must be >= 0, got {sigma}")
    rng = _as_generator(seed)
    n = node_count
    delta = np.zeros((n, n), dtype=float)
    iu, ju = np.triu_indices(n, k=1)
    draws = np.abs(rng.normal(0.0, sigma, size=iu.size)) if sigma > 0 \
        else np.zeros(iu.size)
    delta[iu, ju] = draws
    delta[ju, iu] = draws
    return delta, homophily_from_delta(delta)


def homophily_from_delta(delta: np.ndarray) -> np.ndarray:
    """Map social distances to connection weights, 1 / (1 + delta)."""
    if np.any(delta < 0):
        raise ValueError("social distances must be nonnegative")
    return 1.0 / (1.0 + delta)


# ---------------------------------------------------------------------------
# centrality and weights
# ---------------------------------------------------------------------------

def eigenvector_centrality(adjacency: np.ndarray,
                           rel_tolerance: float = 1e-10,
                           max_iterations: int = 10000) -> np.ndarray:
    """Leading-eigenvector centrality by power iteration, max-normalised.

    Iterates on ``A + I`` rather than ``A``: the shift leaves the
    eigenvectors untouched but makes the dominant eigenvalue strictly
    largest in magnitude, so the iteration also converges on bipartite
    layers (e.g. stars) where plain iteration oscillates with period 2.
    Convergence is relative max-norm change below ``rel_tolerance``.

    An edgeless layer has no meaningful centrality; the all-zeros vector
    is returned to signal that degenerate case.
    """
    n = adjacency.shape[0]
    if not adjacency.any():
        return np.zeros(n)
    a = adjacency.astype(float)
    vec = np.full(n, 1.0 / n)
    for _ in range(max_iterations):
        nxt = a @ vec + vec
        nxt /= nxt.max()
        if np.max(np.abs(nxt - vec)) <= rel_tolerance * np.max(np.abs(nxt)):
            return nxt
        vec = nxt
    raise RuntimeError(
        f"power iteration did not converge in {max_iterations} iterations")


def link_weights(adjacency: np.ndarray, homophily: np.ndarray,
                 centrality: np.ndarray) -> np.ndarray:
    """Per-edge interaction weights h_ij * (c_i + c_j) / 2 on one layer."""
    mean_centrality = 0.5 * (centrality[:, None] + centrality[None, :])
    return adjacency * homophily * mean_centrality


# ---------------------------------------------------------------------------
# multiplex assembly
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LayerTopology:
    """Recipe for one layer.  ``kind`` selects the generator:

    * ``"er"`` uses ``edge_probability``
    * ``"ws"`` uses ``ring_degree`` and ``rewire_probability``
    * ``"sf"`` uses ``attachment_count`` and ``seed_clique_size``
    """

    kind: str
    edge_probability: float = 0.05
    ring_degree: int = 4
    rewire_probability: float = 0.1
    attachment_count: int = 2
    seed_clique_size: int | None = None

    @staticmethod
    def er(edge_probability: float) -> "LayerTopology":
        return LayerTopology(kind="er", edge_probability=edge_probability)

    @staticmethod
    def ws(ring_degree: int, rewire_probability: float = 0.1) -> "LayerTopology":
        return LayerTopology(kind="ws", ring_degree=ring_degree,
                             rewire_probability=rewire_probability)

    @staticmethod
    def sf(attachment_count: int,
           seed_clique_size: int | None = None) -> "LayerTopology":
        return LayerTopology(kind="sf", attachment_count=attachment_count,
                             seed_clique_size=seed_clique_size)

    def realise(self, node_count: int, rng: np.random.Generator) -> np.ndarray:
        if self.kind == "er":
            return generate_er(node_count, self.edge_probability, rng)
        if self.kind == "ws":
            return generate_ws(node_count, self.ring_degree,
                               self.rewire_probability, rng)
        if self.kind == "sf":
            return generate_sf(node_count, self.attachment_count,
                               self.seed_clique_size, rng)
        raise ValueError(f"unknown layer kind {self.kind!r}")


@dataclass(frozen=True)
class MultiplexSpec:
    """Everything needed to build a multiplex reproducibly."""

    node_count: int
    layer_count: int
    topologies: tuple[LayerTopology, ...]
    homophily_sigma: float = 1.0
    rng_seed: int = 0

    def __post_init__(self):
        if self.node_count < 2:
            raise ValueError(f"node_count must be >= 2, got {self.node_count}")
        if self.layer_count < 1:
            raise ValueError(
                f"layer_count must be >= 1, got {self.layer_count}")
        if len(self.topologies) != self.layer_count:
            raise ValueError(
                f"expected {self.layer_count} topologies, "
                f"got {len(self.topologies)}")
        if not 0.0 <= self.homophily_sigma < math.inf:  # NaN fails too
            raise ValueError(f"homophily_sigma must be finite and >= 0, "
                             f"got {self.homophily_sigma}")


@dataclass
class MultiplexNetwork:
    """A realised multiplex: layer adjacencies plus shared homophily.

    ``adjacency[alpha]`` is the 0/1 matrix of layer alpha; ``delta`` and
    ``homophily`` are the shared pairwise distance/weight matrices;
    ``centrality[alpha]`` the per-layer eigenvector centralities;
    ``weights[alpha]`` the per-layer link weights;
    ``z_layers[alpha] = homophily * adjacency[alpha]``; ``aggregated``
    the 0/1 union of all layers.
    """

    adjacency: list[np.ndarray]
    delta: np.ndarray
    homophily: np.ndarray
    centrality: list[np.ndarray] = field(repr=False, default_factory=list)
    weights: list[np.ndarray] = field(repr=False, default_factory=list)
    z_layers: list[np.ndarray] = field(repr=False, default_factory=list)
    aggregated: np.ndarray = field(repr=False, default=None)

    @property
    def node_count(self) -> int:
        return self.delta.shape[0]

    @property
    def layer_count(self) -> int:
        return len(self.adjacency)

    def layer_degrees(self) -> np.ndarray:
        """(M, N) integer degree table."""
        return np.stack([a.sum(axis=1) for a in self.adjacency]).astype(int)

    def neighbour_lists(self) -> list[list[list[int]]]:
        """Per-layer adjacency lists (plain Python, for tight loops)."""
        return [[np.flatnonzero(a[i]).tolist() for i in range(a.shape[0])]
                for a in self.adjacency]


def _derive_fields(adjacency: list[np.ndarray], delta: np.ndarray,
                   weights: list[np.ndarray] | None = None) -> MultiplexNetwork:
    homophily = homophily_from_delta(delta)
    centrality = [eigenvector_centrality(a) for a in adjacency]
    if weights is None:
        weights = [link_weights(a, homophily, c)
                   for a, c in zip(adjacency, centrality)]
    z_layers = [homophily * a for a in adjacency]
    aggregated = (np.sum([a.astype(int) for a in adjacency], axis=0) > 0)
    aggregated = aggregated.astype(np.int8)
    np.fill_diagonal(aggregated, 0)
    return MultiplexNetwork(adjacency=adjacency, delta=delta,
                            homophily=homophily, centrality=centrality,
                            weights=weights, z_layers=z_layers,
                            aggregated=aggregated)


def build_multiplex(spec: MultiplexSpec) -> MultiplexNetwork:
    """Realise a spec deterministically.

    Randomness is split off a single root seed: the homophily draw and
    each layer get independent child streams, so the same spec always
    produces the identical network, bit for bit.
    """
    homophily_rng = np.random.default_rng(
        np.random.SeedSequence(spec.rng_seed, spawn_key=(0,)))
    delta, _ = sample_homophily(spec.node_count, spec.homophily_sigma,
                                homophily_rng)
    adjacency = []
    for alpha, topo in enumerate(spec.topologies):
        layer_rng = np.random.default_rng(
            np.random.SeedSequence(spec.rng_seed, spawn_key=(1 + alpha,)))
        adjacency.append(topo.realise(spec.node_count, layer_rng))
    return _derive_fields(adjacency, delta)


def multiplex_from_arrays(adjacency: list[np.ndarray], delta: np.ndarray,
                          weights: list[np.ndarray] | None = None
                          ) -> MultiplexNetwork:
    """Assemble a multiplex from explicit adjacency and distance matrices.

    Handy for tests and small worked examples; ``weights`` may be given
    explicitly to override the centrality-based defaults.
    """
    n = delta.shape[0]
    for a in adjacency:
        if a.shape != (n, n):
            raise ValueError("adjacency shape does not match delta")
        if not np.array_equal(a, a.T):
            raise ValueError("adjacency must be symmetric")
        if np.any(np.diag(a) != 0):
            raise ValueError("adjacency must have a zero diagonal")
    if not np.array_equal(delta, delta.T):
        raise ValueError("delta must be symmetric")
    adjacency = [a.astype(np.int8) for a in adjacency]
    return _derive_fields(adjacency, delta.astype(float), weights)


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

_FLOAT_FMT = "{:.15g}"


def save_multiplex(network: MultiplexNetwork, path) -> None:
    """Write the edge-list text format.

    Layout: a header ``multiplex v1 N M``; one ``alpha src dst weight``
    line per undirected edge (src < dst, weight is the layer's link
    weight at 15 significant digits); then one ``delta i j value`` line
    per unordered node pair (i < j).
    """
    n, m = network.node_count, network.layer_count
    lines = [f"multiplex v1 {n} {m}"]
    for alpha in range(m):
        adj, w = network.adjacency[alpha], network.weights[alpha]
        src, dst = np.nonzero(np.triu(adj, k=1))
        for i, j in zip(src.tolist(), dst.tolist()):
            lines.append(
                f"{alpha} {i} {j} {_FLOAT_FMT.format(w[i, j])}")
    iu, ju = np.triu_indices(n, k=1)
    for i, j in zip(iu.tolist(), ju.tolist()):
        lines.append(
            f"delta {i} {j} {_FLOAT_FMT.format(network.delta[i, j])}")
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines))
        fh.write("\n")


def load_multiplex(path) -> MultiplexNetwork:
    """Read the edge-list format back into a MultiplexNetwork.

    Homophily is reconstructed from the delta lines; centralities and
    the coupling matrices are recomputed from the adjacency (both are
    deterministic), while link weights are taken verbatim from the file.
    Raises ValueError naming the first offending line on malformed input,
    such as a repeated edge or distance, or a NaN, infinite or negative value.
    """
    with open(path, encoding="ascii") as fh:
        raw = fh.read().splitlines()
    if not raw:
        raise ValueError(f"{path}: empty file")
    header = raw[0].split()
    if len(header) != 4 or header[0] != "multiplex" or header[1] != "v1":
        raise ValueError(f"{path}: line 1: bad header {raw[0]!r}")
    try:
        n, m = int(header[2]), int(header[3])
    except ValueError:
        raise ValueError(f"{path}: line 1: bad header {raw[0]!r}") from None
    if n < 1 or m < 1:
        raise ValueError(f"{path}: line 1: bad dimensions N={n} M={m}")
    adjacency = [np.zeros((n, n), dtype=np.int8) for _ in range(m)]
    weights = [np.zeros((n, n)) for _ in range(m)]
    delta = np.zeros((n, n))
    seen_delta = np.zeros((n, n), dtype=bool)
    for lineno, line in enumerate(raw[1:], start=2):
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) != 4:
            raise ValueError(
                f"{path}: line {lineno}: expected 4 fields, got {len(parts)}")
        if parts[0] == "delta":
            try:
                i, j, value = int(parts[1]), int(parts[2]), float(parts[3])
            except ValueError:
                raise ValueError(
                    f"{path}: line {lineno}: malformed delta line") from None
            if not (0 <= i < n and 0 <= j < n and i != j):
                raise ValueError(
                    f"{path}: line {lineno}: node index out of range")
            if not math.isfinite(value):
                raise ValueError(
                    f"{path}: line {lineno}: non-finite distance")
            if value < 0:
                raise ValueError(
                    f"{path}: line {lineno}: negative distance")
            if seen_delta[i, j]:
                raise ValueError(f"{path}: line {lineno}: duplicate delta")
            delta[i, j] = delta[j, i] = value
            seen_delta[i, j] = seen_delta[j, i] = True
        else:
            try:
                alpha, i, j = int(parts[0]), int(parts[1]), int(parts[2])
                value = float(parts[3])
            except ValueError:
                raise ValueError(
                    f"{path}: line {lineno}: malformed edge line") from None
            if not 0 <= alpha < m:
                raise ValueError(
                    f"{path}: line {lineno}: layer index out of range")
            if not (0 <= i < n and 0 <= j < n and i != j):
                raise ValueError(
                    f"{path}: line {lineno}: node index out of range")
            if not math.isfinite(value):
                raise ValueError(
                    f"{path}: line {lineno}: non-finite edge weight")
            if value < 0:
                raise ValueError(
                    f"{path}: line {lineno}: negative edge weight")
            if adjacency[alpha][i, j]:
                raise ValueError(
                    f"{path}: line {lineno}: duplicate edge")
            adjacency[alpha][i, j] = adjacency[alpha][j, i] = 1
            weights[alpha][i, j] = weights[alpha][j, i] = value
    iu, ju = np.triu_indices(n, k=1)
    if not seen_delta[iu, ju].all():
        missing = np.argwhere(np.triu(~seen_delta, k=1))
        i, j = missing[0]
        raise ValueError(f"{path}: missing delta entry for pair ({i}, {j})")
    return _derive_fields(adjacency, delta, weights)
