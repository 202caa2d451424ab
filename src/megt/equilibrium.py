"""Nash-pair analysis of strategy profiles on the aggregated network.

A node's neighbourhood cooperation is summarised by its homophily-
weighted local cooperator frequency on the aggregated (union) graph,
``sum_j h_ij [s_j cooperates] / k_i`` (0 for an isolated node); the
sign of the resulting payoff advantage of cooperating decides its best
response.  An edge is a Nash pair when both endpoints currently
play a best response; the Nash-pair density alpha is the fraction of
aggregated edges that are Nash pairs.  Tracking alpha round by round
exposes metastable plateaus before the terminal regime of a run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .games import COOPERATE, DEFECT, PayoffMatrix
from .netgen import MultiplexNetwork, homophily_from_delta

__all__ = [
    "PROJECTION_RULES",
    "NashReport",
    "project_strategies",
    "nash_report",
    "EquilibriumTracker",
    "write_alpha_csv",
]

PROJECTION_RULES = ("majority_tie_c", "majority_tie_d", "per_layer")


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
    ``edge_i`` and ``edge_j`` hold each unordered pair once, ``i < j``,
    in row-major order.  A node's weighted cooperator frequency is its
    weights on cooperating neighbours, added left to right from 0.0 by
    ``np.bincount``, over its union degree; its advantage of cooperating
    is ``base + slope * frequency``.  ``round.c`` makes the same sums,
    so a run given this tracker (``evolve.run``) counts its Nash pairs
    inside the compiled kernel with the bits of ``evaluate``.

    ``history`` holds ``(round, alpha, weak_fraction)`` rows, appended by
    ``evolve.run``: the initial state's from ``evaluate``, the rounds'
    through ``record``.
    """

    def __init__(self, network: MultiplexNetwork, game: PayoffMatrix,
                 projection: str = "majority_tie_c"):
        if projection not in PROJECTION_RULES:
            raise ValueError(f"unknown projection rule {projection!r}")
        self.network = network
        self.game = game
        self.projection = projection
        n = network.node_count
        # every layer's edges as node pairs i * N + j, sorted, each once
        # (np.unique would import numpy.ma, about 10 ms)
        pair = np.sort(network.edge_owner() % n * n
                       + network.neighbour_slot % n)
        pair = pair[np.diff(pair, prepend=-1) != 0]
        self._owner, self.union_node = np.divmod(pair, n)
        self.union_ptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(self._owner, minlength=n),
                  out=self.union_ptr[1:])
        self.union_weight = homophily_from_delta(
            network.delta[self._owner, self.union_node])
        self.degree = np.diff(self.union_ptr).astype(float)
        upper = self.union_node > self._owner
        self.edge_i, self.edge_j = self._owner[upper], self.union_node[upper]
        if self.edge_i.size == 0:
            raise ValueError("aggregated network has no edges")
        # the expected payoff gain of cooperating is linear in the
        # neighbourhood's weighted cooperator frequency
        self.base = game.sucker - game.punishment
        self.slope = (game.reward - game.temptation
                      + game.punishment - game.sucker)
        self.history: list[tuple[int, float, float]] = []

    def _counts(self, play: np.ndarray) -> tuple[int, int]:
        """(Nash pairs, weak Nash pairs) of one strategy per node."""
        coop = (play == COOPERATE).astype(float)
        mass = np.bincount(self._owner,
                           weights=self.union_weight * coop[self.union_node],
                           minlength=play.size)
        freq = np.where(self.degree > 0,
                        mass / np.where(self.degree > 0, self.degree, 1.0),
                        0.0)
        adv = self.base + self.slope * freq
        indifferent = adv == 0.0
        node_ok = np.where(play == COOPERATE, adv >= 0.0, adv <= 0.0)
        pair_ok = node_ok[self.edge_i] & node_ok[self.edge_j]
        weak = pair_ok & (indifferent[self.edge_i]
                          | indifferent[self.edge_j])
        return int(pair_ok.sum()), int(weak.sum())

    def evaluate(self, strategies: np.ndarray) -> NashReport:
        """The Nash pairs of an (M, N) strategy table under the
        projection rule.  ``per_layer`` scores every layer's profile on
        the aggregated graph, over M copies of its edges."""
        strategies = np.atleast_2d(np.asarray(strategies))
        if self.projection == "per_layer":
            profiles = list(strategies)
        else:
            profiles = [project_strategies(strategies, self.projection)]
        counts = [self._counts(play) for play in profiles]
        pairs = sum(pair for pair, _ in counts)
        weak_count = sum(weak for _, weak in counts)
        edges = self.edge_i.size * len(profiles)
        return NashReport(alpha=pairs / edges,
                          weak_fraction=weak_count / edges,
                          pair_count=pairs, weak_count=weak_count,
                          edge_count=edges)

    def record(self, first_round: int, pair_counts: np.ndarray,
               weak_counts: np.ndarray) -> None:
        """Appends the rows of consecutive rounds from ``first_round``
        whose Nash counts were made elsewhere (by ``round.c``); the
        divisions are those of ``evaluate``."""
        edges = self.edge_i.size * (self.network.layer_count
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
