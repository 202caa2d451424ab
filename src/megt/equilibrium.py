"""Nash-pair analysis of strategy profiles on the aggregated network.

A node's neighbourhood cooperation is summarised by its homophily-
weighted local cooperator frequency on the aggregated (union) graph,
``sum_j h_ij [s_j cooperates] / k_i`` (0 for an isolated node); the
sign of the resulting payoff advantage of cooperating decides its best
response.  An edge is a Nash pair when both endpoints currently
play a best response; the Nash-pair density alpha is the fraction of
aggregated edges that are Nash pairs.  Tracking alpha round by round
exposes metastable plateaus before the terminal regime of a run.
The pairs are counted in ``round.c`` alone, so scoring a profile needs
the compiled kernel, as simulating does (else ``kernel.KernelError``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .games import COOPERATE, PayoffMatrix
from .netgen import MultiplexNetwork, homophily_from_delta

__all__ = [
    "PROJECTION_RULES",
    "NashReport",
    "nash_report",
    "EquilibriumTracker",
    "write_alpha_csv",
]

PROJECTION_RULES = ("majority_tie_c", "majority_tie_d", "per_layer")


@dataclass(frozen=True)
class NashReport:
    alpha: float
    weak_fraction: float
    pair_count: int
    weak_count: int
    edge_count: int


class EquilibriumTracker:
    """Nash-pair evaluation on the union graph, reusable across rounds.

    The union graph of the layers is built once per tracker from the
    network's edge CSR, with no N x N array: a CSR over nodes,
    ``union_ptr``, each node's neighbours ascending in ``union_node``
    and, beside each, the homophily h_ij in ``union_weight``.
    ``edge_count`` is the number of unordered union pairs.  A node's
    advantage of cooperating is ``base + slope * frequency``.  The
    counting is ``round.c``'s, the only Nash counter in megt:
    ``evaluate`` calls its ``megt_nash`` on one table, which counts
    afresh, and a run given this tracker (``evolve.run``) counts every
    round inside ``megt_run``, which keeps each profile's best-response
    flags and its counts from round to round and moves the counts only
    at the nodes whose flag changed; ``bind`` points either at the union
    graph.

    ``history`` holds ``(round, alpha, weak_fraction)`` rows, appended by
    ``evolve.run``: the initial state's from ``evaluate``, the rounds'
    through ``record``.
    """

    def __init__(self, network: MultiplexNetwork, game: PayoffMatrix,
                 projection: str = "majority_tie_c"):
        if projection not in PROJECTION_RULES:
            raise ValueError(f"unknown projection rule {projection!r}")
        self.network = network
        self.projection = projection
        n = network.node_count
        # every layer's edges as node pairs i * N + j, sorted, each once
        # at its first CSR entry (np.unique would import numpy.ma, 10 ms)
        pair = network.edge_owner() % n * n + network.neighbour_slot % n
        order = np.argsort(pair, kind="stable")
        first = order[np.diff(pair[order], prepend=-1) != 0]
        owner, self.union_node = np.divmod(pair[first], n)
        self.union_ptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(owner, minlength=n), out=self.union_ptr[1:])
        self.union_weight = homophily_from_delta(network.edge_delta[first])
        self.edge_count = int(np.count_nonzero(self.union_node > owner))
        if self.edge_count == 0:
            raise ValueError("aggregated network has no edges")
        # the expected payoff gain of cooperating is linear in the
        # neighbourhood's weighted cooperator frequency
        self.base = game.sucker - game.punishment
        self.slope = (game.reward - game.temptation
                      + game.punishment - game.sucker)
        self.history: list[tuple[int, float, float]] = []

    def bind(self, engine) -> None:
        """Point a ``kernel.Engine``'s Nash fields at the union graph and
        the game; the engine must not outlive this tracker."""
        engine.union_ptr, engine.union_node, engine.union_weight = (
            array.ctypes.data for array in (
                self.union_ptr, self.union_node, self.union_weight))
        engine.nash_base, engine.nash_slope = self.base, self.slope
        engine.projection = PROJECTION_RULES.index(self.projection)

    def evaluate(self, strategies: np.ndarray) -> NashReport:
        """The Nash pairs of an (M, N) strategy table under the
        projection rule, counted by ``round.c``'s ``megt_nash``.
        ``per_layer`` scores every layer's profile on the aggregated
        graph, over M copies of its edges."""
        from . import kernel  # ctypes stays off the import path
        play = np.atleast_2d(np.asarray(strategies) == COOPERATE
                             ).astype(np.int8, order="C")
        m, n = play.shape
        if n != self.network.node_count:
            raise ValueError(f"the strategy table has node count {n}, the "
                             f"tracker's network {self.network.node_count}")
        # the majority profile, and the flags of every profile
        scratch = np.zeros(n + play.size, np.int8)
        counts = np.zeros((2, 1), np.int64)
        engine = kernel.Engine(
            node_count=n, slot_count=play.size, strategies=play.ctypes.data,
            nash_play=scratch.ctypes.data,
            nash_flag=scratch[n:].ctypes.data,
            pair_count=counts[0].ctypes.data, weak_count=counts[1].ctypes.data)
        self.bind(engine)
        kernel.load().megt_nash(engine)
        pairs, weak_count = counts[:, 0].tolist()
        edges = self.edge_count * (m if self.projection == "per_layer"
                                   else 1)
        return NashReport(alpha=pairs / edges,
                          weak_fraction=weak_count / edges,
                          pair_count=pairs, weak_count=weak_count,
                          edge_count=edges)

    def record(self, first_round: int, pair_counts: np.ndarray,
               weak_counts: np.ndarray) -> None:
        """Appends the rows of consecutive rounds from ``first_round``
        whose Nash counts were made elsewhere (by ``round.c``); the
        divisions are those of ``evaluate``."""
        edges = self.edge_count * (self.network.layer_count
                                   if self.projection == "per_layer" else 1)
        self.history.extend(zip(
            range(first_round, first_round + len(pair_counts)),
            (np.asarray(pair_counts) / edges).tolist(),
            (np.asarray(weak_counts) / edges).tolist()))


def nash_report(strategies: np.ndarray, network: MultiplexNetwork,
                game: PayoffMatrix,
                projection: str = "majority_tie_c") -> NashReport:
    """Nash-pair density of one strategy profile (see EquilibriumTracker)."""
    return EquilibriumTracker(network, game, projection).evaluate(strategies)


def write_alpha_csv(history, path) -> None:
    """``round,alpha,weak_fraction`` rows from tracker history."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write("round,alpha,weak_fraction\n")
        for round_index, alpha, weak_fraction in history:
            fh.write(f"{round_index},{alpha!r},{weak_fraction!r}\n")
