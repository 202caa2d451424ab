"""Behavioural honesty and reputation estimators from simulation runs.

Over a run, every (node, layer) slot that ends a round cooperating is
credited with its layer degree (one "cooperative interaction" per
neighbour).  A node's social honesty is that credit normalised by the
maximum attainable, ``rounds * total_degree``, so it lands in [0, 1];
the population mean is the quality-of-information, and per-node
reputation is honesty relative to that mean.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .netgen import MultiplexNetwork

__all__ = [
    "social_honesty",
    "qoi",
    "behavioural_reputation",
    "BehaviourStats",
    "behaviour_stats",
    "write_metrics_csv",
]


def social_honesty(coop_count: np.ndarray, layer_degrees: np.ndarray,
                   rounds: int) -> np.ndarray:
    """Per-node cooperative credit normalised to [0, 1].

    ``coop_count[i] / (rounds * sum_alpha degree_alpha(i))``.  Nodes
    isolated on every layer have no interactions to be honest in; they
    get NaN (missing) rather than a fake zero.
    """
    if rounds < 1:
        raise ValueError(f"rounds must be >= 1, got {rounds}")
    coop_count = np.asarray(coop_count, dtype=float)
    total_degree = np.asarray(layer_degrees).sum(axis=0).astype(float)
    out = np.full(coop_count.shape, np.nan)
    active = total_degree > 0
    out[active] = coop_count[active] / (rounds * total_degree[active])
    return out


def qoi(honesty: np.ndarray) -> float:
    """Quality of information: mean honesty over non-missing nodes."""
    honesty = np.asarray(honesty, dtype=float)
    if np.all(np.isnan(honesty)):
        raise ValueError("no node has any interaction; QoI undefined")
    return float(np.nanmean(honesty))


def behavioural_reputation(honesty: np.ndarray,
                           quality: float | None = None) -> np.ndarray:
    """Honesty relative to the population mean, ``gamma_i / QoI``.

    Non-missing entries average to 1 by construction.  A quality of 0
    (nobody ever cooperated) makes relative standing meaningless; the
    degenerate all-zeros vector is returned in that case.
    """
    honesty = np.asarray(honesty, dtype=float)
    if quality is None:
        quality = qoi(honesty)
    if quality == 0.0:
        return np.zeros_like(honesty)
    return honesty / quality


@dataclass(frozen=True)
class BehaviourStats:
    honesty: np.ndarray
    quality: float
    reputation: np.ndarray


def behaviour_stats(state, network: MultiplexNetwork) -> BehaviourStats:
    """Honesty/QoI/reputation bundle for a finished simulation state.

    A run that made no rounds (it started absorbing), or in which no node
    has any interaction, measured nothing: every node's honesty and
    reputation, and the quality, are missing (NaN).
    """
    if state.round_index == 0:
        honesty = np.full(network.node_count, np.nan)
    else:
        honesty = social_honesty(state.coop_count, network.layer_degrees(),
                                 state.round_index)
    if np.isnan(honesty).all():
        return BehaviourStats(honesty=honesty, quality=float("nan"),
                              reputation=honesty.copy())
    quality = qoi(honesty)
    return BehaviourStats(honesty=honesty, quality=quality,
                          reputation=behavioural_reputation(honesty, quality))


def _field(value: float) -> str:
    return "" if np.isnan(value) else repr(float(value))


def write_metrics_csv(stats: BehaviourStats, path) -> None:
    """``node,gamma,reputation`` rows, then a final ``qoi=<value>`` summary
    line; missing values are written as empty fields."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write("node,gamma,reputation\n")
        for node in range(len(stats.honesty)):
            fh.write(f"{node},{_field(stats.honesty[node])},"
                     f"{_field(stats.reputation[node])}\n")
        fh.write(f"qoi={_field(stats.quality)}\n")
