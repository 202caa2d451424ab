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


def _advantage(game: PayoffMatrix, frequency) -> float:
    """Expected payoff gain of cooperating against a neighbourhood with
    the given weighted cooperator frequency; linear in the frequency."""
    base = game.sucker - game.punishment
    slope = (game.reward - game.temptation
             + game.punishment - game.sucker)
    return base + slope * frequency


@dataclass(frozen=True)
class NashReport:
    alpha: float
    weak_fraction: float
    pair_count: int
    weak_count: int
    edge_count: int


class EquilibriumTracker:
    """Vectorised Nash-pair evaluation, reusable across rounds.

    The union graph of the layers, its homophily coupling, the degrees
    and the edge list are built once per tracker from the network's
    edges; each evaluation is a matrix-vector product.
    """

    def __init__(self, network: MultiplexNetwork, game: PayoffMatrix,
                 projection: str = "majority_tie_c"):
        if projection not in PROJECTION_RULES:
            raise ValueError(f"unknown projection rule {projection!r}")
        self.network = network
        self.game = game
        self.projection = projection
        n = network.node_count
        union = np.zeros((n, n), dtype=bool)
        union[network.edge_owner() % n, network.neighbour_slot % n] = True
        self.coupling = homophily_from_delta(network.delta) * union
        self.degree = union.sum(axis=1).astype(float)
        self.edge_i, self.edge_j = np.nonzero(np.triu(union, k=1))
        if self.edge_i.size == 0:
            raise ValueError("aggregated network has no edges")
        self.history: list[tuple[int, float, float]] = []

    def _evaluate_projected(self, strategies_1d: np.ndarray) -> NashReport:
        coop = (strategies_1d == COOPERATE).astype(float)
        with np.errstate(invalid="ignore"):
            freq = np.where(self.degree > 0,
                            (self.coupling @ coop)
                            / np.where(self.degree > 0, self.degree, 1.0),
                            0.0)
        adv = _advantage(self.game, freq)
        indifferent = adv == 0.0
        node_ok = np.where(strategies_1d == COOPERATE,
                           adv >= 0.0, adv <= 0.0)
        pair_ok = node_ok[self.edge_i] & node_ok[self.edge_j]
        weak = pair_ok & (indifferent[self.edge_i]
                          | indifferent[self.edge_j])
        edges = self.edge_i.size
        pairs = int(pair_ok.sum())
        weak_count = int(weak.sum())
        return NashReport(alpha=pairs / edges,
                          weak_fraction=weak_count / edges,
                          pair_count=pairs, weak_count=weak_count,
                          edge_count=edges)

    def evaluate(self, strategies: np.ndarray) -> NashReport:
        strategies = np.atleast_2d(np.asarray(strategies))
        if self.projection == "per_layer":
            # every layer's profile is scored on the aggregated graph and
            # the edge population is the union over layers
            reports = [self._evaluate_projected(layer_row)
                       for layer_row in strategies]
            edges = reports[0].edge_count * len(reports)
            pairs = sum(r.pair_count for r in reports)
            weak_count = sum(r.weak_count for r in reports)
            return NashReport(alpha=pairs / edges,
                              weak_fraction=weak_count / edges,
                              pair_count=pairs, weak_count=weak_count,
                              edge_count=edges)
        projected = project_strategies(strategies, self.projection)
        return self._evaluate_projected(projected)

    def observer(self):
        """An ``on_round(round_index, state)`` callback recording
        (round, alpha, weak_fraction) into ``self.history``."""

        def on_round(round_index: int, state) -> None:
            report = self.evaluate(state.strategies)
            self.history.append(
                (round_index, report.alpha, report.weak_fraction))

        return on_round


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
