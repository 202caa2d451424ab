"""Slow, plainly written references that the tests hold megt's fast paths
to, and the small-network builder the tests draw their fixtures from.

None of these is part of megt: a run reads its communicability entries
from ``communicability_entries`` through a ``ScalingTable``, its Fermi
probabilities inline in the round, its rounds and stop rule from the
compiled kernel, its networks from ``build_multiplex`` or
``load_multiplex``, and its report tables from ``read_reports_csv``.

- ``communicability`` is the dense (N*M)^2 exponential of the
  supra-matrix, and ``scaling_factor`` the per-slot imitation scaling
  read from it over ``cross_neighbourhood``;
- ``series_numpy`` sums the truncated Taylor series of the sparse
  supra-matrix in numpy, with the operations of ``round.c``'s
  ``megt_comm_entries`` in the same order, so the same bits;
- ``fermi_probability`` is the imitation probability;
- ``reference_round`` is one Monte Carlo round written plainly from
  ``scaling_factor`` and ``fermi_probability``, over the entries of a
  ``ScalingTable`` (``table_communicability``); ``reference_rounds``
  repeats it under the stop rule of ``evolve.run``, and
  ``reference_run`` makes a whole run from a config that way.  The
  compiled kernel must match them bit for bit;
- ``density`` is a state's cooperator fraction;
- ``project_strategies`` collapses a strategy table to one strategy per
  node by a majority rule, as ``round.c``'s Nash counter does;
- ``dense_nash_counts`` counts Nash pairs from the dense N x N coupling
  of the union graph, as ``EquilibriumTracker`` did with a BLAS
  matrix-vector product before it summed over edges;
- ``multiplex_from_arrays`` builds a network from dense layers, and
  ``dense_adjacency`` gives a network's dense layers;
- ``save_multiplex_lines`` writes the v1 file one formatted line at a
  time, as ``save_multiplex`` did before it formatted in bulk;
- ``table_of`` builds a ``ReportTable`` from ``ReportRecord`` rows, its
  object ids joined by ``_joined_ids``;
- ``parse_reports`` ingests raw rows as ``read_reports_csv`` ingests a
  file: it writes them under a header with ``csv.writer`` into memory
  and codes that buffer with the file reader's coder.
"""
from __future__ import annotations

import csv
import io
import math
import sys
from dataclasses import dataclass

import numpy as np

from megt.comm import ScalingBounds, build_supra, matrix_exp
from megt.crowdsense import (REPORT_COLUMNS, Rejection, ReportRecord,
                             ReportTable, _code_blocks, _file_blocks,
                             _first_codes, _parse_coded,
                             _offsets, _window_ids)
from megt.evolve import (_EXP_CLAMP, DISTANCE_FLOOR, RunResult, ScalingTable,
                         SimulationConfig, SimulationState, Trajectory,
                         _dynamics_rng, accumulate_payoffs, init_state,
                         replica_network)
from megt.games import COOPERATE, DEFECT, PayoffMatrix
from megt.netgen import (MultiplexNetwork, _from_edges, _layer_edges,
                         homophily_from_delta)


@dataclass(frozen=True)
class Communicability:
    """exp of the supra-matrix, dense, from ``matrix_exp``: (N*M) x (N*M)
    in layer-major order."""

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


def cross_neighbourhood(network: MultiplexNetwork, node: int, layer: int):
    """Flat supra indices of node's counterparts and their neighbours on
    every other layer."""
    n = network.node_count
    ptr, slot = network.neighbour_ptr, network.neighbour_slot
    out: list[int] = []
    for beta in range(network.layer_count):
        if beta == layer:
            continue
        counterpart = beta * n + node
        out.append(counterpart)
        out.extend(slot[ptr[counterpart]:ptr[counterpart + 1]].tolist())
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
    for idx in cross_neighbourhood(network, node, layer):
        g = row[idx]
        denominator += g
        if flat[idx] == own:
            numerator += g
    if denominator <= 0.0:
        return 1.0
    return 1.0 - bounds.span * (numerator / denominator)


def fermi_probability(payoff_self: float, payoff_other: float,
                      distance: float, selection_intensity: float,
                      scaling: float = 1.0) -> float:
    """Probability that a player adopts a neighbour's strategy.

    ``scaling / (1 + exp((payoff_self - payoff_other) / (d * kappa)))``
    with ``d = max(distance, DISTANCE_FLOOR)``.  Equal payoffs give
    exactly ``scaling / 2``; a socially closer pair (smaller distance)
    sharpens the comparison in both directions.
    """
    if not 0.0 < selection_intensity < math.inf:  # NaN fails too
        raise ValueError(f"selection_intensity must be finite and > 0, "
                         f"got {selection_intensity}")
    x = (payoff_self - payoff_other) / (
        max(distance, DISTANCE_FLOOR) * selection_intensity)
    if x > _EXP_CLAMP:
        return 0.0
    if x < -_EXP_CLAMP:
        return scaling
    return scaling / (1.0 + math.exp(x))


def table_communicability(table: ScalingTable,
                          network: MultiplexNetwork) -> Communicability:
    """A Communicability holding the table's entries, and zeros elsewhere:
    the oracles then read the very values the engine reads."""
    nm = network.node_count * network.layer_count
    matrix = np.zeros((nm, nm))
    owner = np.repeat(np.arange(nm), np.diff(table.cross_ptr))
    matrix[owner, table.cross_slot] = table.cross_value
    return Communicability(matrix=matrix, node_count=network.node_count,
                           layer_count=network.layer_count)


def neighbour_lists(network: MultiplexNetwork) -> list[list[list[int]]]:
    """Each layer's adjacency lists, scanned from its adjacency rows."""
    return [[np.flatnonzero(row).tolist() for row in a]
            for a in network.adjacency]


def density(state: SimulationState) -> float:
    """Fraction of (node, layer) slots currently cooperating."""
    return float((state.strategies == COOPERATE).mean())


def reference_round(state: SimulationState, network: MultiplexNetwork,
                    comm: Communicability, config: SimulationConfig
                    ) -> tuple[float, int]:
    """One Monte Carlo round written plainly from the oracles
    ``scaling_factor`` and ``fermi_probability``, drawing from the RNG in
    the same order as ``RoundEngine.round``; returns the density after
    the round and the number of steps that changed a strategy."""
    n = network.node_count
    nm = n * network.layer_count
    payoffs = accumulate_payoffs(state, network, config.game,
                                 config.payoff_weights)
    neighbours = neighbour_lists(network)
    rng = state.rng
    picks = rng.integers(0, nm, nm)
    u_neighbour = rng.random(nm)
    u_adopt = rng.random(nm)
    strategies = state.strategies
    adoptions = 0
    for t in range(nm):
        alpha, i = divmod(int(picks[t]), n)
        while not neighbours[alpha][i]:
            alpha, i = divmod(int(rng.integers(nm)), n)
        options = neighbours[alpha][i]
        j = options[int(u_neighbour[t] * len(options))]
        if strategies[alpha, i] == strategies[alpha, j]:
            continue
        scaling = scaling_factor(i, alpha, comm, strategies, network,
                                 config.scaling_bounds)
        prob = fermi_probability(payoffs[alpha, i], payoffs[alpha, j],
                                 network.delta[i, j],
                                 config.selection_intensity, scaling)
        if u_adopt[t] < prob:
            strategies[alpha, i] = strategies[alpha, j]
            adoptions += 1
    state.coop_count += (
        (strategies == COOPERATE) * network.layer_degrees()).sum(axis=0)
    state.round_index += 1
    return density(state), adoptions


def reference_rounds(state: SimulationState, network: MultiplexNetwork,
                     comm: Communicability, config: SimulationConfig,
                     tables: list | None = None
                     ) -> tuple[list[float], list[float], str, int]:
    """``RoundEngine.run`` written plainly: ``reference_round`` from
    ``state`` until the stop rule of ``evolve.run`` fires, at most
    ``max_rounds`` rounds.  Returns the densities, their running sums
    ``[0, rho[0], rho[0] + rho[1], ...]``, the stop reason and the
    adoptions; a copy of the strategy table of the given state and of
    every round is appended to ``tables``, if given."""
    window = config.steady_window
    rho = [density(state)]
    cumulative = [0.0, rho[0]]
    adoptions = 0
    if tables is not None:
        tables.append(state.strategies.copy())
    if not network.layer_degrees().any():
        return rho, cumulative, "edgeless", adoptions
    if rho[0] in (0.0, 1.0):
        return rho, cumulative, "absorbing", adoptions
    while len(rho) - 1 < config.max_rounds:
        value, adopted = reference_round(state, network, comm, config)
        rho.append(value)
        cumulative.append(cumulative[-1] + value)
        adoptions += adopted
        if tables is not None:
            tables.append(state.strategies.copy())
        if value in (0.0, 1.0):
            return rho, cumulative, "absorbing", adoptions
        if len(rho) - 1 >= 2 * window:
            recent = (cumulative[-1] - cumulative[-1 - window]) / window
            previous = (cumulative[-1 - window]
                        - cumulative[-1 - 2 * window]) / window
            if abs(recent - previous) < config.steady_tolerance:
                return rho, cumulative, "steady", adoptions
    return rho, cumulative, "budget", adoptions


def reference_run(config: SimulationConfig, replica_index: int = 0,
                  tables: list | None = None) -> RunResult:
    """``evolve.run(config, replica_index=...)`` with its rounds and stop
    rule from ``reference_rounds``: the same network, scaling table and
    initial state, and the same steady density."""
    network = replica_network(config, replica_index)
    table = ScalingTable(network, config.interlayer_strength)
    state = init_state(network, config.initial_coop_fraction,
                       _dynamics_rng(config, 0, replica_index))
    rho, cumulative, stop_reason, adoptions = reference_rounds(
        state, network, table_communicability(table, network), config,
        tables)
    if rho[-1] in (0.0, 1.0):
        steady = rho[-1]
    else:
        tail = min(config.steady_window, len(rho))
        steady = (cumulative[-1] - cumulative[-1 - tail]) / tail
    trajectory = Trajectory(rho=rho, steady_rho=steady,
                            converged=stop_reason != "budget",
                            stop_reason=stop_reason)
    return RunResult(trajectory=trajectory, state=state, network=network,
                     adoptions=adoptions)


# columns per panel of series_numpy; the fastest of 16 to 256 at
# N*M = 1400 and 2000
_NUMPY_PANEL = 32


def series_numpy(ptr, col, val, terms, cross_ptr, cross_slot
                 ) -> np.ndarray:
    """``round.c``'s ``megt_comm_entries`` in numpy, with the same
    operations in the same order, so the same bits.

    Each row's products are added left to right by taking the q-th
    stored entry of every row that has one, for q = 0, 1, ...  Panels
    store their rows by descending degree, so the rows with a q-th entry
    are a leading slice; the storage order and the panel width change
    no bit."""
    nm = ptr.size - 1
    degree = np.diff(ptr)
    order = np.argsort(-degree, kind="stable")
    rank = np.empty(nm, dtype=np.int64)
    rank[order] = np.arange(nm)
    steps = []
    for q in range(int(degree.max(initial=0))):
        rows = order[:np.count_nonzero(degree > q)]
        steps.append((rows.size, rank[col[ptr[rows] + q]],
                      val[ptr[rows] + q, None]))
    owner = np.repeat(np.arange(nm), np.diff(cross_ptr))
    out = np.empty(cross_slot.size)
    total, term, acc, products = (np.empty((nm, _NUMPY_PANEL))
                                  for _ in range(4))
    for first in range(0, nm, _NUMPY_PANEL):
        width = min(_NUMPY_PANEL, nm - first)
        t, a, b = total[:, :width], term[:, :width], acc[:, :width]
        t.fill(0.0)
        t[rank[first:first + width], np.arange(width)] = 1.0
        a[...] = t
        for k in range(1, terms + 1):
            b.fill(0.0)
            for count, cols, vals in steps:
                p = products[:count, :width]
                np.take(a, cols, axis=0, out=p, mode="clip")
                p *= vals
                b[:count] += p
            np.divide(b, k, out=a)
            t += a
        part = slice(cross_ptr[first], cross_ptr[first + width])
        out[part] = t[rank[cross_slot[part]], owner[part] - first]
    return out


def project_strategies(strategies: np.ndarray,
                       rule: str = "majority_tie_c") -> np.ndarray:
    """Collapse an (M, N) strategy table to one strategy per node.

    Majority vote across layers; ties go to cooperation under
    ``majority_tie_c`` (default) and to defection under
    ``majority_tie_d``.  A one-row table is returned unchanged.
    """
    strategies = np.atleast_2d(np.asarray(strategies))
    if rule not in ("majority_tie_c", "majority_tie_d"):
        raise ValueError(f"unknown projection rule {rule!r}")
    m = strategies.shape[0]
    coop_votes = (strategies == COOPERATE).sum(axis=0)
    if rule == "majority_tie_c":
        return np.where(2 * coop_votes >= m, COOPERATE, DEFECT).astype(np.int8)
    return np.where(2 * coop_votes > m, COOPERATE, DEFECT).astype(np.int8)


def dense_nash_counts(network: MultiplexNetwork, game: PayoffMatrix,
                      play: np.ndarray) -> tuple[int, int]:
    """(Nash pairs, weak Nash pairs) of one strategy per node on the
    union graph of the layers.  Each node's weighted cooperator
    frequency is a row of the dense homophily coupling times the
    cooperators, over its union degree; its advantage of cooperating is
    ``(S - P) + (R - T + P - S) * frequency``."""
    n = network.node_count
    union = np.zeros((n, n), dtype=bool)
    union[network.edge_owner() % n, network.neighbour_slot % n] = True
    coupling = homophily_from_delta(network.delta) * union
    degree = union.sum(axis=1)
    coop = (play == COOPERATE).astype(float)
    freq = np.where(degree > 0, (coupling @ coop) / np.maximum(degree, 1),
                    0.0)
    advantage = (game.sucker - game.punishment) + (
        game.reward - game.temptation + game.punishment - game.sucker) * freq
    node_ok = np.where(play == COOPERATE, advantage >= 0.0,
                       advantage <= 0.0)
    i, j = np.nonzero(np.triu(union, 1))
    pair_ok = node_ok[i] & node_ok[j]
    weak = pair_ok & ((advantage[i] == 0.0) | (advantage[j] == 0.0))
    return int(pair_ok.sum()), int(weak.sum())


def multiplex_from_arrays(adjacency: list[np.ndarray], delta: np.ndarray,
                          weights: list[np.ndarray] | None = None
                          ) -> MultiplexNetwork:
    """A multiplex from explicit adjacency and distance matrices.

    Without ``weights``, each layer's link weights come from its
    eigenvector centrality as in ``build_multiplex``.  The rules are
    those of ``load_multiplex``: symmetric 0/1 layers with a zero
    diagonal, and N x N distance and weight matrices that are symmetric,
    finite and nonnegative, one weight matrix per layer that is zero off
    the layer's edges.  A violation raises ValueError naming it.
    """
    n = delta.shape[0]
    for a in adjacency:
        if a.shape != (n, n):
            raise ValueError("adjacency shape does not match delta")
        if not np.array_equal(a, a.T):
            raise ValueError("adjacency must be symmetric")
        if np.any(np.diag(a) != 0):
            raise ValueError("adjacency must have a zero diagonal")
    adjacency = [a.astype(np.int8) for a in adjacency]
    delta = _checked_matrix("delta", delta, n)
    if weights is None:
        return _from_edges(delta, len(adjacency), [
            _layer_edges(alpha, a, delta)
            for alpha, a in enumerate(adjacency)])
    if len(weights) != len(adjacency):
        raise ValueError(f"expected {len(adjacency)} weight matrices, "
                         f"got {len(weights)}")
    weights = [_checked_matrix("weights", w, n) for w in weights]
    if any(np.any(w[a == 0]) for a, w in zip(adjacency, weights)):
        raise ValueError("weights must be zero off the layer's edges")
    edges = []
    for alpha, (a, w) in enumerate(zip(adjacency, weights)):
        i, j = np.nonzero(np.triu(a))
        edges.append((np.full(i.size, alpha), i, j, w[i, j]))
    return _from_edges(delta, len(adjacency), edges)


def dense_adjacency(network: MultiplexNetwork) -> list[np.ndarray]:
    """Each layer's 0/1 ``int8`` N x N matrix.  ``network.adjacency``
    rebuilds every layer on each read, so an oracle that looks at the
    layers once per node pair takes these, built once per network."""
    return network.adjacency


def _checked_matrix(name: str, matrix, n: int) -> np.ndarray:
    matrix = np.array(matrix, dtype=float)
    if matrix.shape != (n, n):
        raise ValueError(f"{name} must be {n}x{n}, got shape {matrix.shape}")
    if not np.isfinite(matrix).all():
        raise ValueError(f"{name} has non-finite entries")
    if np.any(matrix < 0):
        raise ValueError(f"{name} has negative entries")
    if not np.array_equal(matrix, matrix.T):
        raise ValueError(f"{name} must be symmetric")
    return matrix


def save_multiplex_lines(network: MultiplexNetwork, path) -> None:
    """``save_multiplex``'s v1 file, one f-string per line."""
    n, m = network.node_count, network.layer_count
    lines = [f"multiplex v1 {n} {m}"]
    alpha, i = np.divmod(network.edge_owner(), n)
    j = network.neighbour_slot % n
    upper = i < j
    for a, i, j, w in zip(alpha[upper].tolist(), i[upper].tolist(),
                          j[upper].tolist(),
                          network.edge_weight[upper].tolist()):
        lines.append(f"{a} {i} {j} {w:.15g}")
    iu, ju = np.triu_indices(n, k=1)
    for i, j in zip(iu.tolist(), ju.tolist()):
        lines.append(f"delta {i} {j} {network.delta[i, j]:.15g}")
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines))
        fh.write("\n")


def _joined_ids(texts: list[str]) -> tuple[bytes, np.ndarray]:
    """Object ids as one UTF-8 ``bytes`` and the offsets that cut it."""
    joined = "".join(texts)
    if not joined.isascii():  # byte lengths differ from str lengths
        texts = [text.encode("utf-8", "surrogatepass") for text in texts]
    return (joined.encode("utf-8", "surrogatepass"),
            _offsets(np.fromiter(map(len, texts), np.intp, len(texts))))


def table_of(records=()) -> ReportTable:
    """The ReportTable of rows in ReportRecord field order, each column
    factorised in order of first appearance."""
    object_ids, *columns, ratings = (
        tuple(zip(*records)) or ((),) * len(ReportRecord._fields))
    dates, times, *coded = map(_first_codes, columns)
    return ReportTable(_joined_ids(object_ids), dates, times, *coded,
                       np.array(ratings, dtype=float),
                       np.unique(_window_ids(dates, times),
                                 return_inverse=True))


def parse_reports(rows, first_row_number: int = 1
                  ) -> tuple[ReportTable, list[Rejection]]:
    """The kept reports' table and the rejection log of raw rows, in row
    order, the first row being row ``first_row_number``: the rows are
    written by ``csv.writer`` under a header into an in-memory buffer,
    whose blocks are split and coded as ``read_reports_csv`` codes a
    file's, with no field size limit."""
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(REPORT_COLUMNS)
    writer.writerows(rows)
    blocks = _file_blocks(io.BytesIO(text.getvalue().encode()))
    return _parse_coded(*_code_blocks(blocks, sys.maxsize), first_row_number)
