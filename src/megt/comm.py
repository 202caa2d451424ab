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
``communicability_entries`` computes just those, by one of two paths:

- ``"series"``, on sparse layers: the truncated Taylor series of the
  sparse supra-matrix, summed over panels of identity columns by
  ``round.c``.  No (N*M)^2 array is built.  ``round.c`` reads the
  supra-matrix from the network's edge CSR and the coupling strength,
  and sums each node's M rows together, sharing the prefix of coupling
  products that row (alpha, i) has in common with row (alpha + 1, i);
  every row still gets the operations of a plain row-by-row product
  over ``_supra_csr``, in the same order, so the same bits (the tests
  hold it to such a product in numpy).  It shares the panels among
  threads, one per 256 columns up to the CPUs the process may use; each
  panel's arithmetic is the same on any thread, so the thread count
  changes no bit.
- ``"eigh"``, on dense layers, where the series would cost more than a
  dense eigendecomposition, and wherever the exponential may overflow:
  the entries are gathered from ``matrix_exp``, the exponential from one
  symmetric eigendecomposition of the dense ``build_supra``.

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
# _BLOCKS_PER_THREAD blocks of _THREAD_BLOCK columns, 256 columns; the
# rule counts columns, not round.c's panels of 16 (COMM_PANEL)
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
    ``_THREAD_BLOCK`` columns: one per ``_BLOCKS_PER_THREAD`` blocks, at
    most ``cpus``, at least 1."""
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


def _series_terms(bound: float) -> int:
    """The least K for which the Taylor tail ``sum_{k>K} bound^k / k!``
    is at most 2^-53; it bounds the tail of every entry of exp(A) when
    ``bound`` bounds A's spectrum.  The loop takes about e * bound
    steps, so callers keep ``bound`` at most ``_SERIES_MAX_BOUND``."""
    if bound <= 0.0:
        return 0
    log_bound, limit = math.log(bound), -53 * math.log(2.0)
    terms = 0
    while True:
        # the tail after K terms is at most t_{K+1} / (1 - bound / (K+2))
        if terms + 2 > bound and (
                (terms + 1) * log_bound - math.lgamma(terms + 2)
                - math.log1p(-bound / (terms + 2)) <= limit):
            return terms
        terms += 1


def _series_choice(ptr: np.ndarray, col: np.ndarray,
                   val: np.ndarray) -> int | None:
    """K when the series of the CSR supra-matrix costs less than a dense
    eigendecomposition, ``K * nnz(A) <= (N*M)^2``, and its spectral
    bound is at most ``_SERIES_MAX_BOUND``; None when eigh should run."""
    nm = ptr.size - 1
    # K > bound - 2 and bound >= sum(A) / (N*M), the Rayleigh quotient of
    # the ones vector, so dense layers go to eigh without the power steps
    with np.errstate(over="ignore"):
        quotient = val.sum() / max(nm, 1)
    if (quotient - 3) * col.size > nm * nm:
        return None
    bound = _spectral_bound(ptr, col, val)
    # checked first: K takes about e * bound steps to find
    if not bound <= _SERIES_MAX_BOUND:
        return None
    terms = _series_terms(bound)
    return terms if terms * col.size <= nm * nm else None


def _series_c(library, network: MultiplexNetwork,
              interlayer_strength: float, terms, cross_ptr, cross_slot, *,
              threads: int, vector: bool = True) -> np.ndarray:
    """The entries from ``round.c``'s ``megt_comm_entries`` over
    ``threads`` threads; ``vector`` lets it use AVX2 where the CPU has
    it.  Neither changes a bit.  The kernel reads the supra-matrix from
    the network's edge CSR, the edges' homophily and the coupling
    strength, never from ``_supra_csr``, and gives the bits of a plain
    row-by-row series over ``_supra_csr``."""
    ptr, slot = (np.ascontiguousarray(array, dtype=np.int64) for array in
                 (network.neighbour_ptr, network.neighbour_slot))
    weight = homophily_from_delta(network.edge_delta)
    out = np.empty(cross_slot.size)
    status = library.megt_comm_entries(
        network.node_count, network.layer_count, ptr.ctypes.data,
        slot.ctypes.data, weight.ctypes.data, float(interlayer_strength),
        terms, cross_ptr.ctypes.data, cross_slot.ctypes.data,
        out.ctypes.data, int(vector), threads)
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
    "threads": T}`` or ``{"method": "eigh", "terms": None,
    "threads": None}``.

    The series needs a Collatz-Wielandt bound on A's largest eigenvalue
    of at most 700; K is then the number of Taylor terms after which the
    tail is at most 2^-53.  The method is ``"series"``, the truncated
    Taylor series of the sparse supra-matrix over panels of identity
    columns in ``round.c``, while it costs less than a dense
    eigendecomposition, ``K * nnz(A) <= (N*M)^2``.  Otherwise it is
    ``"eigh"``: the dense ``matrix_exp`` of ``build_supra``, which raises
    ValueError when the exponential overflows.  The choice depends only
    on the network.  The series needs the compiled kernel, and
    ``kernel.load`` raises a ``KernelError`` when it cannot be had.

    T is the number of threads that summed the series: 1 in
    ``evolve``'s run threads, else ``_series_threads`` of the usable
    CPUs and the panel count.  It changes no bit.
    """
    ptr, col, val = _supra_csr(network, interlayer_strength)
    nm = ptr.size - 1
    cross_ptr = np.ascontiguousarray(cross_ptr, dtype=np.int64)
    cross_slot = np.ascontiguousarray(cross_slot, dtype=np.int64)
    # the compiled series reads through these indices unchecked
    if (cross_ptr.shape != (nm + 1,) or cross_ptr[0] != 0
            or cross_ptr[-1] != cross_slot.size
            or np.any(np.diff(cross_ptr) < 0)
            or np.any((cross_slot < 0) | (cross_slot >= nm))):
        raise ValueError(f"expected a CSR of flat slots below {nm}")
    terms = _series_choice(ptr, col, val)
    if terms is None:
        matrix = matrix_exp(_dense(ptr, col, val))
        owner = np.repeat(np.arange(nm), np.diff(cross_ptr))
        return matrix[owner, cross_slot], {"method": "eigh", "terms": None,
                                           "threads": None}
    from . import kernel  # ctypes stays off the import path
    cpus = 1 if getattr(_worker, "one_cpu", False) else _usable_cpus()
    threads = _series_threads(cpus, -(-nm // _THREAD_BLOCK))
    values = _series_c(kernel.load(), network, interlayer_strength, terms,
                       cross_ptr, cross_slot, threads=threads)
    return values, {"method": "series", "terms": terms, "threads": threads}


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

