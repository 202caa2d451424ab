"""Supra-adjacency communicability and the inter-layer imitation scaling.

The M layers of a multiplex are stitched into one (N*M) x (N*M)
supra-matrix: homophily-masked layer adjacencies on the diagonal blocks
and ``interlayer_strength * I`` on every off-diagonal block (each node
is coupled to its own counterpart on every other layer).  The matrix
exponential of the supra-matrix is the communicability: entry
((alpha, i), (beta, j)) sums all walks from node i on layer alpha to
node j on layer beta, with 1/k! weighting for length-k walks (Estrada &
Hatano 2008; Estrada & Gomez-Gardenes 2014 for multiplexes).

A run reads only a few entries of the exponential per slot, and
``communicability_entries`` computes just those, by one of three paths:

- ``"series"``, on sparse layers: the truncated Chebyshev series
  ``exp(A) = I_0(b) I + 2 sum_k I_k(b) T_k(A / b)`` of the sparse
  supra-matrix, where b bounds A's spectrum, summed over panels of
  identity columns by ``round.c``.  No (N*M)^2 array is built.  Only the
  N*(M-1) columns of layers 0 .. M-2 are summed: a row on layer M-1 has
  all its cross-layer slots on the other layers, and exp(A) is
  symmetric, so its entry (r, c) is read as entry r of column c, which
  is summed already.  ``round.c`` reads the supra-matrix from the
  network's edge CSR and the coupling strength, and sums each node's M
  rows together, sharing the prefix of coupling products that row
  (alpha, i) has in common with row (alpha + 1, i); every row still
  gets the operations of a plain row-by-row product over
  ``_supra_csr``, in the same order, so the same bits (the tests hold
  it to such a product in numpy).  It shares the panels among threads,
  one per 256 summed columns up to the CPUs the process may use; each
  panel's arithmetic is the same on any thread, so the thread count
  changes no bit.
- ``"eigh"``, on dense layers, where the series would cost more than a
  dense eigendecomposition, and wherever the exponential may overflow:
  the entries are gathered from ``matrix_exp``, the exponential from one
  symmetric eigendecomposition of the dense ``build_supra``.
- ``"none"``, on one layer, which has no cross-layer entries to compute.

``matrix_exp`` of ``build_supra`` is also the oracle that the series is
tested against.

Row/column order is layer-major: flat index = alpha * N + i.

The communicability depends only on the network and the coupling strength,
never on strategies: it is per-network data, which ``evolve.ScalingTable``
holds once per network while each run owns only its strategies.  The
table keeps each slot's cross-layer slots, their entries and the
entries' sum as flat CSR arrays (``cross_ptr``, ``cross_slot``,
``cross_value``, ``denominator``) that the compiled round reads in place.
"""

from __future__ import annotations

import itertools
import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .netgen import MultiplexNetwork, homophily_from_delta

__all__ = [
    "build_supra",
    "matrix_exp",
    "communicability_entries",
    "ScalingBounds",
]

# the series runs while the bound on A's spectrum stays below the
# eigenvalue at which matrix_exp reports an overflow
_SERIES_MAX_BOUND = 700.0

# power steps behind the Collatz-Wielandt bound
_BOUND_STEPS = 12

# another thread of the compiled series is worth starting per
# _BLOCKS_PER_THREAD blocks of _THREAD_BLOCK summed columns, 256
# columns; the rule counts columns, not round.c's panels of 16
# (COMM_PANEL)
_THREAD_BLOCK = 8
_BLOCKS_PER_THREAD = 32

# per thread, ``one_cpu`` is True where the process already runs one
# worker per CPU: in evolve's run threads, which evolve sets.  The
# series takes one thread there.
_worker = threading.local()


def _usable_cpus() -> int:
    """The CPUs this process may run on: the size of its affinity mask
    where the OS reports one, else ``os.cpu_count()``; at least 1."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _series_threads(cpus: int, blocks: int) -> int:
    """Threads for the compiled series over ``blocks`` blocks of
    ``_THREAD_BLOCK`` of the columns it sums: one per
    ``_BLOCKS_PER_THREAD`` blocks, at most ``cpus``, at least 1."""
    return max(1, min(cpus, blocks // _BLOCKS_PER_THREAD))


def build_supra(network: MultiplexNetwork,
                interlayer_strength: float) -> np.ndarray:
    """Assemble the supra-matrix from a multiplex.

    Diagonal block alpha holds ``homophily_from_delta(delta)`` on layer
    alpha's edges and zeros elsewhere; every
    off-diagonal block is ``interlayer_strength`` times the identity.
    The result is symmetric and nonnegative: the dense form of
    ``_supra_csr``.
    """
    return _dense(*_supra_csr(network, interlayer_strength))


def _dense(ptr: np.ndarray, col: np.ndarray, val: np.ndarray) -> np.ndarray:
    """The square CSR matrix ``(ptr, col, val)`` as a dense array."""
    dense = np.zeros((ptr.size - 1, ptr.size - 1))
    dense[np.repeat(np.arange(ptr.size - 1), np.diff(ptr)), col] = val
    return dense


def matrix_exp(matrix: np.ndarray) -> np.ndarray:
    """Exponential of a real symmetric matrix from its eigendecomposition.

    With ``A = U diag(lambda) U^T``, ``exp(A) = V V^T`` where
    ``V = U diag(exp(lambda / 2))``; the product is symmetric by
    construction.  One ``eigh`` plus one product costs about a quarter of
    a dense Taylor series with scaling and squaring, and agrees with it to
    rounding error.  ``communicability_entries`` takes this path on dense
    layers and where the exponential may overflow; elsewhere it is the
    oracle of the sparse series.

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


def _supra_csr(network: MultiplexNetwork, interlayer_strength: float
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The supra-matrix as CSR ``(ptr, col, val)``, built from the
    network's edge CSR and each edge's homophily, with columns ascending
    within a row.  Zero couplings are left out."""
    if interlayer_strength < 0:
        raise ValueError(
            f"interlayer_strength must be >= 0, got {interlayer_strength}")
    n, m = network.node_count, network.layer_count
    rows, cols = [network.edge_owner()], [network.neighbour_slot]
    vals = [homophily_from_delta(network.edge_delta)]
    if interlayer_strength > 0:
        node = np.arange(n)
        for alpha, beta in itertools.permutations(range(m), 2):
            rows.append(alpha * n + node)
            cols.append(beta * n + node)
            vals.append(np.full(n, float(interlayer_strength)))
    row = np.concatenate(rows, dtype=np.int64)
    col = np.concatenate(cols, dtype=np.int64)
    order = np.argsort(row * (n * m) + col, kind="stable")
    ptr = np.zeros(n * m + 1, dtype=np.int64)
    np.cumsum(np.bincount(row, minlength=n * m), out=ptr[1:])
    return ptr, col[order], np.concatenate(vals, dtype=float)[order]


def _spectral_bound(ptr: np.ndarray, col: np.ndarray,
                    val: np.ndarray) -> float:
    """An upper bound on the largest eigenvalue of the nonnegative CSR
    matrix: the least Collatz-Wielandt bound ``max_i (A x)_i / x_i``
    over ``_BOUND_STEPS`` power steps ``x <- (A + I) x`` from ``x = 1``,
    each of which keeps x positive.  Entries near float64's range may
    overflow a step; the bound is then inf or that of an earlier step."""
    row = np.repeat(np.arange(ptr.size - 1), np.diff(ptr))
    x = np.ones(ptr.size - 1)
    bound = math.inf
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for _ in range(_BOUND_STEPS):
            y = np.bincount(row, weights=val * x[col], minlength=x.size)
            # a NaN step (x overflowed) leaves the bound as it was
            bound = min(bound, float((y / x).max(initial=0.0)))
            x += y
            x /= x.max()
    return bound


def _series_coefficients(bound: float) -> np.ndarray:
    """The coefficients ``c_0 = I_0(b)`` and ``c_k = 2 I_k(b)`` of the
    Chebyshev series ``exp(b x) = sum_k c_k T_k(x)`` on [-1, 1], for
    ``k = 0 .. K``, with ``b = bound`` and K the least for which the tail
    ``sum_{k>K} 2 I_k(b)`` is at most 2^-53.  As ``|T_k| <= 1`` there, it
    bounds the tail of every entry of exp(A) when ``bound`` bounds A's
    spectrum on both sides.  K > bound - 2.

    The modified Bessel values come from Miller's backward recurrence of
    the ratios ``I_k / I_(k-1) = 1 / (2k / b + I_(k+1) / I_k)``, started
    at ``2b + 50`` terms, past K; ``I_0`` from the normalisation
    ``I_0 + 2 sum_k I_k = e^b``, and each further coefficient from the
    one before, so none leaves float64's normal range for
    ``bound <= _SERIES_MAX_BOUND``.  The loops take about 2 * bound
    steps."""
    if bound <= 0.0:
        return np.ones(1)
    top = int(2.0 * bound) + 50
    ratio = [0.0] * (top + 2)
    for k in range(top, 0, -1):
        ratio[k] = 1.0 / (2.0 * k / bound + ratio[k + 1])
    # e^-b I_k / (e^-b I_0), which may underflow at the top, and their sum
    relative, parts = 1.0, [1.0]
    for k in range(1, top + 1):
        relative *= ratio[k]
        parts.append(2.0 * relative)
    coefficients = [math.exp(bound) / math.fsum(parts)]
    coefficients.append(2.0 * coefficients[0] * ratio[1])
    for k in range(2, top + 1):
        coefficients.append(coefficients[-1] * ratio[k])
    terms, tail = top, 0.0
    while terms > 0 and tail + coefficients[terms] <= 2.0 ** -53:
        tail += coefficients[terms]
        terms -= 1
    return np.array(coefficients[:terms + 1])


def _series_choice(ptr: np.ndarray, col: np.ndarray, val: np.ndarray
                   ) -> tuple[np.ndarray, float] | None:
    """The Chebyshev coefficients and ``2 / b`` of the series of the CSR
    supra-matrix, b its spectral bound, when the series costs less than
    a dense eigendecomposition, ``K * nnz(A) <= (N*M)^2``, and b is at
    most ``_SERIES_MAX_BOUND``; None when eigh should run.  The rule
    depends only on the network."""
    nm = ptr.size - 1
    # K > bound - 2 and bound >= sum(A) / (N*M), the Rayleigh quotient of
    # the ones vector, so dense layers go to eigh without the power steps
    with np.errstate(over="ignore"):
        quotient = val.sum() / max(nm, 1)
    if (quotient - 3) * col.size > nm * nm:
        return None
    bound = _spectral_bound(ptr, col, val)
    # checked first: the coefficients take about 2 * bound steps
    if not bound <= _SERIES_MAX_BOUND:
        return None
    coefficients = _series_coefficients(bound)
    if (coefficients.size - 1) * col.size > nm * nm:
        return None
    # 2 / b is used only past the first term, where b > 2^-53
    return coefficients, (2.0 / bound if bound > 0.0 else 0.0)


def _series_c(library, network: MultiplexNetwork,
              interlayer_strength: float, coefficients, scale, cross_ptr,
              cross_slot, *, threads: int, vector: bool = True
              ) -> np.ndarray:
    """The entries from ``round.c``'s ``megt_comm_entries`` over
    ``threads`` threads; ``vector`` lets it use AVX2 where the CPU has
    it.  Neither changes a bit.  The kernel sums the Chebyshev series
    with ``coefficients`` and ``scale = 2 / b`` over the columns of
    layers 0 .. M-2, and reads the last layer's rows, whose cross slots
    must lie below N*(M-1), from those columns.  It reads the
    supra-matrix from the network's edge CSR, the edges' homophily and
    the coupling strength, never from ``_supra_csr``, and gives the bits
    of a plain row-by-row series over ``_supra_csr``."""
    ptr, slot = (np.ascontiguousarray(array, dtype=np.int64) for array in
                 (network.neighbour_ptr, network.neighbour_slot))
    weight = homophily_from_delta(network.edge_delta)
    coefficients = np.ascontiguousarray(coefficients, dtype=float)
    out = np.empty(cross_slot.size)
    status = library.megt_comm_entries(
        network.node_count, network.layer_count, ptr.ctypes.data,
        slot.ctypes.data, weight.ctypes.data, float(interlayer_strength),
        coefficients.size - 1, coefficients.ctypes.data, float(scale),
        cross_ptr.ctypes.data, cross_slot.ctypes.data, out.ctypes.data,
        int(vector), threads)
    if status != 0:
        raise MemoryError("cannot allocate the communicability panels")
    return out


def communicability_entries(network: MultiplexNetwork,
                            interlayer_strength: float,
                            cross_ptr: np.ndarray, cross_slot: np.ndarray
                            ) -> tuple[np.ndarray, dict]:
    """The communicability entries ``exp(A)[r, cross_slot[q]]`` for every
    flat row r and ``q`` in ``cross_ptr[r] .. cross_ptr[r+1] - 1``, and
    how they were computed: ``{"method": "series", "terms": K,
    "threads": T}``, or ``"eigh"`` or ``"none"`` with ``"terms"`` and
    ``"threads"`` None.  The rows of the last layer, M-1, may read only
    slots of the other layers, below N*(M-1), as cross-layer
    neighbourhoods do; ValueError otherwise.

    One layer has no such slots, so the method is ``"none"``: nothing
    is summed.  Otherwise the series needs a Collatz-Wielandt bound b on
    A's largest eigenvalue of at most 700; as A is nonnegative, its
    spectrum lies in [-b, b], and K is the number of Chebyshev terms
    after which the tail ``sum_{k>K} 2 I_k(b)`` is at most 2^-53.  The
    method is ``"series"``, the truncated Chebyshev series of the sparse
    supra-matrix over panels of the identity columns of layers 0 .. M-2
    in ``round.c``, while it costs less than a dense eigendecomposition,
    ``K * nnz(A) <= (N*M)^2``; the last layer's rows read their entries
    from those columns, by symmetry.  Otherwise the method is
    ``"eigh"``: the dense ``matrix_exp`` of ``build_supra``, which raises
    ValueError when the exponential overflows.  The choice depends only
    on the network.  The series needs the compiled kernel, and
    ``kernel.load`` raises a ``KernelError`` when it cannot be had.

    T is the number of threads that summed the series: 1 in
    ``evolve``'s run threads, else ``_series_threads`` of the usable
    CPUs and the N*(M-1) columns summed.  It changes no bit.
    """
    nm = network.node_count * network.layer_count
    columns = nm - network.node_count
    cross_ptr = np.ascontiguousarray(cross_ptr, dtype=np.int64)
    cross_slot = np.ascontiguousarray(cross_slot, dtype=np.int64)
    # the compiled series reads through these indices unchecked
    if (cross_ptr.shape != (nm + 1,) or cross_ptr[0] != 0
            or cross_ptr[-1] != cross_slot.size
            or np.any(np.diff(cross_ptr) < 0)
            or np.any((cross_slot < 0) | (cross_slot >= nm))
            or np.any(cross_slot[cross_ptr[columns]:] >= columns)):
        raise ValueError(f"expected a CSR of flat slots below {nm}, those "
                         f"of the last layer's rows below {columns}")
    if network.layer_count == 1:
        return np.zeros(0), {"method": "none", "terms": None,
                             "threads": None}
    ptr, col, val = _supra_csr(network, interlayer_strength)
    choice = _series_choice(ptr, col, val)
    if choice is None:
        matrix = matrix_exp(_dense(ptr, col, val))
        owner = np.repeat(np.arange(nm), np.diff(cross_ptr))
        return matrix[owner, cross_slot], {"method": "eigh", "terms": None,
                                           "threads": None}
    from . import kernel  # ctypes stays off the import path
    coefficients, scale = choice
    cpus = 1 if getattr(_worker, "one_cpu", False) else _usable_cpus()
    threads = _series_threads(cpus, -(-columns // _THREAD_BLOCK))
    values = _series_c(kernel.load(), network, interlayer_strength,
                       coefficients, scale, cross_ptr, cross_slot,
                       threads=threads)
    return values, {"method": "series", "terms": coefficients.size - 1,
                    "threads": threads}


@dataclass(frozen=True)
class ScalingBounds:
    """Bounds whose difference ``span`` sets how far cross-layer
    agreement can damp imitation: a slot's scaling factor is
    ``1 - span * share``, with ``share`` the part of its cross-layer
    entries on slots that play its strategy, so it lies in [1 - span, 1]
    (1 where it has no entries).  Defaults (0.5, 1.0)."""

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

