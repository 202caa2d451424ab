"""Two-player symmetric game payoffs and social-dilemma classification.

A game is a 2x2 payoff matrix for the row player:

              opponent C      opponent D
    self C    reward          sucker
    self D    temptation      punishment

Strategies are encoded as integers throughout the package: 1 for
cooperate, 0 for defect.  The T-S plane convention fixes reward = 1 and
punishment = 0 so a game is a point (temptation, sucker) in the plane.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

COOPERATE = 1
DEFECT = 0


class DilemmaKind(enum.Enum):
    """Strict-inequality social dilemma classes plus a catch-all."""

    PRISONERS_DILEMMA = "pd"
    SNOWDRIFT = "sd"
    STAG_HUNT = "sh"
    HARMONY = "hg"
    OTHER = "other"


@dataclass(frozen=True)
class PayoffMatrix:
    """Row-player payoffs of a symmetric 2x2 game.

    Fields follow the usual dilemma nomenclature: ``reward`` for mutual
    cooperation, ``sucker`` for cooperating against a defector,
    ``temptation`` for defecting against a cooperator, ``punishment``
    for mutual defection.
    """

    reward: float
    sucker: float
    temptation: float
    punishment: float


def from_ts(temptation: float, sucker: float) -> PayoffMatrix:
    """Game at a point of the T-S plane (reward = 1, punishment = 0)."""
    return PayoffMatrix(reward=1.0, sucker=float(sucker),
                        temptation=float(temptation), punishment=0.0)


def pd_from_bc(benefit: float, cost: float) -> PayoffMatrix:
    """Donation-game parametrisation of the prisoner's dilemma.

    A cooperator pays ``cost`` to hand the opponent ``benefit``; with
    benefit > cost > 0 this sits in the PD class
    (reward = benefit - cost, sucker = -cost, temptation = benefit,
    punishment = 0).
    """
    if not benefit > cost > 0:
        raise ValueError(
            f"donation game requires benefit > cost > 0, got "
            f"benefit={benefit}, cost={cost}"
        )
    return PayoffMatrix(reward=benefit - cost, sucker=-cost,
                        temptation=benefit, punishment=0.0)


def classify(game: PayoffMatrix) -> DilemmaKind:
    """Classify a payoff matrix into its strict-order dilemma class.

    The orderings are the classical ones:

    * prisoner's dilemma:  temptation > reward > punishment > sucker
    * snowdrift:           temptation > reward > sucker > punishment
    * stag hunt:           reward > temptation > punishment > sucker
    * harmony:             reward > sucker > punishment and
                           reward > temptation > punishment

    Boundary cases (any tie in the relevant comparisons) fall through to
    ``OTHER``.  Classification is invariant under adding a constant to
    all four entries, since only payoff differences enter the orderings.
    """
    r, s = game.reward, game.sucker
    t, p = game.temptation, game.punishment
    if t > r > p > s:
        return DilemmaKind.PRISONERS_DILEMMA
    if t > r > s > p:
        return DilemmaKind.SNOWDRIFT
    if r > t > p > s:
        return DilemmaKind.STAG_HUNT
    if r > s > p and r > t > p:
        return DilemmaKind.HARMONY
    return DilemmaKind.OTHER


# interior T-S points standing in for each dilemma class when a config
# names the class rather than explicit payoffs
REPRESENTATIVE_POINTS: dict[str, tuple[float, float]] = {
    "pd": (1.5, -0.5),
    "sd": (1.5, 0.5),
    "sh": (0.5, -0.5),
    "hg": (0.5, 0.5),
}


def representative(kind: str) -> PayoffMatrix:
    """Canonical interior game of a dilemma class (by short code)."""
    if kind not in REPRESENTATIVE_POINTS:
        raise ValueError(
            f"kind must be one of {sorted(REPRESENTATIVE_POINTS)}, "
            f"got {kind!r}")
    return from_ts(*REPRESENTATIVE_POINTS[kind])
