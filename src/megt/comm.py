"""Supra-adjacency communicability and the inter-layer imitation scaling.

The M layers of a multiplex are stitched into one (N*M) x (N*M)
supra-matrix: homophily-masked layer adjacencies on the diagonal blocks
and ``interlayer_strength * I`` on every off-diagonal block (each node
is coupled to its own counterpart on every other layer).  The matrix
exponential of the supra-matrix is the communicability: entry
((alpha, i), (beta, j)) sums all walks from node i on layer alpha to
node j on layer beta, with 1/k! weighting for length-k walks (Estrada &
Hatano 2008; Estrada & Gomez-Gardenes 2014 for multiplexes).  The
supra-matrix is symmetric, so the exponential comes from one symmetric
eigendecomposition.

Row/column order is layer-major: flat index = alpha * N + i.

Communicability depends only on the network and the coupling strength,
never on strategies: it is per-network data, which ``evolve.ScalingTable``
holds once per network while each run owns only its strategies.
``scaling_factor`` is the reference the table and the round must match.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .netgen import MultiplexNetwork

__all__ = [
    "build_supra",
    "matrix_exp",
    "Communicability",
    "communicability",
    "ScalingBounds",
    "scaling_factor",
]


def build_supra(network: MultiplexNetwork,
                interlayer_strength: float) -> np.ndarray:
    """Assemble the supra-matrix from a multiplex.

    Diagonal blocks are the homophily-masked adjacencies ``z_layers``;
    every off-diagonal block is ``interlayer_strength`` times the
    identity.  The result is symmetric and nonnegative.
    """
    if interlayer_strength < 0:
        raise ValueError(
            f"interlayer_strength must be >= 0, got {interlayer_strength}")
    n, m = network.node_count, network.layer_count
    supra = np.zeros((n * m, n * m))
    eye = np.eye(n) * interlayer_strength
    for alpha in range(m):
        a0 = alpha * n
        supra[a0:a0 + n, a0:a0 + n] = network.z_layers[alpha]
        for beta in range(alpha + 1, m):
            b0 = beta * n
            supra[a0:a0 + n, b0:b0 + n] = eye
            supra[b0:b0 + n, a0:a0 + n] = eye
    return supra


def matrix_exp(matrix: np.ndarray) -> np.ndarray:
    """Exponential of a real symmetric matrix from its eigendecomposition.

    With ``A = U diag(lambda) U^T``, ``exp(A) = V V^T`` where
    ``V = U diag(exp(lambda / 2))``; the product is symmetric by
    construction.  One ``eigh`` plus one product costs about a quarter of
    a dense Taylor series with scaling and squaring, and agrees with it to
    rounding error.

    Raises ValueError for a non-square, non-symmetric or non-finite input,
    and when the result is not finite: an eigenvalue above about 709
    overflows float64.
    """
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("matrix has non-finite entries")
    if not np.array_equal(m, m.T):
        raise ValueError("expected a symmetric matrix")
    eigenvalues, vectors = np.linalg.eigh(m)
    with np.errstate(over="ignore", invalid="ignore"):
        vectors *= np.exp(eigenvalues / 2)
        result = vectors @ vectors.T
    if not np.isfinite(result).all():
        raise ValueError(
            f"matrix exponential overflows float64: largest eigenvalue "
            f"{eigenvalues[-1]:.6g} exceeds about 709")
    return result


@dataclass(frozen=True)
class Communicability:
    """exp of the supra-matrix.

    ``matrix`` is (N*M) x (N*M) in layer-major order.
    """

    matrix: np.ndarray
    node_count: int
    layer_count: int


def communicability(network: MultiplexNetwork,
                    interlayer_strength: float) -> Communicability:
    """Communicability of a multiplex at the given coupling strength."""
    supra = build_supra(network, interlayer_strength)
    return Communicability(matrix=matrix_exp(supra),
                           node_count=network.node_count,
                           layer_count=network.layer_count)


@dataclass(frozen=True)
class ScalingBounds:
    """Bounds whose difference ``span`` sets how far cross-layer
    agreement can damp imitation: the scaling factor lies in
    [1 - span, 1].  Defaults (0.5, 1.0)."""

    minimum: float = 0.5
    maximum: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.minimum <= self.maximum <= 1.0:
            raise ValueError(
                f"bounds must satisfy 0 < minimum <= maximum <= 1, "
                f"got ({self.minimum}, {self.maximum})")

    @property
    def span(self) -> float:
        return self.maximum - self.minimum


def _cross_neighbourhood(network: MultiplexNetwork, node: int, layer: int):
    """Flat supra indices of node's counterparts and their neighbours on
    every other layer."""
    n = network.node_count
    out: list[int] = []
    for beta in range(network.layer_count):
        if beta == layer:
            continue
        out.append(beta * n + node)
        out.extend(beta * n + j
                   for j in np.flatnonzero(network.adjacency[beta][node]))
    return out


def scaling_factor(node: int, layer: int, comm: Communicability,
                   strategies: np.ndarray, network: MultiplexNetwork,
                   bounds: ScalingBounds = ScalingBounds()) -> float:
    """Imitation scaling factor of (node, layer) given current strategies.

    Over every other layer beta, the communicability entries from
    (node, layer) to the node's counterpart on beta and that
    counterpart's neighbours are summed twice: once restricted to
    entries whose strategy on beta equals the node's strategy on
    ``layer`` (numerator), once unrestricted (denominator).  The factor
    is ``1 - bounds.span * numerator / denominator``: full cross-layer
    agreement pins it at ``1 - bounds.span``, no agreement leaves
    imitation unscaled at 1.  A zero denominator (single layer, or zero
    coupling) is neutral and returns 1.
    """
    strategies = np.asarray(strategies)
    own = strategies[layer, node]
    flat = strategies.reshape(-1)
    row = comm.matrix[layer * comm.node_count + node]
    numerator = 0.0
    denominator = 0.0
    for idx in _cross_neighbourhood(network, node, layer):
        g = row[idx]
        denominator += g
        if flat[idx] == own:
            numerator += g
    if denominator <= 0.0:
        return 1.0
    return 1.0 - bounds.span * (numerator / denominator)
