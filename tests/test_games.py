import dataclasses

import numpy as np
import pytest

from megt.games import (DilemmaKind, PayoffMatrix, classify, from_ts,
                        pd_from_bc, representative)


def shifted(game, offset):
    """The game with ``offset`` added to every entry."""
    return PayoffMatrix(*(value + offset
                          for value in dataclasses.astuple(game)))


def test_classify_canonical_orderings():
    assert classify(PayoffMatrix(1.0, -0.5, 1.5, 0.0)) \
        is DilemmaKind.PRISONERS_DILEMMA
    assert classify(PayoffMatrix(1.0, 0.5, 1.5, 0.0)) is DilemmaKind.SNOWDRIFT
    assert classify(PayoffMatrix(1.0, -0.5, 0.5, 0.0)) is DilemmaKind.STAG_HUNT
    assert classify(PayoffMatrix(1.0, 0.5, 0.5, 0.0)) is DilemmaKind.HARMONY


def test_classify_boundary_ties_are_other():
    # reward == temptation kills the strict PD/SD orderings
    assert classify(PayoffMatrix(1.0, -0.5, 1.0, 0.0)) is DilemmaKind.OTHER
    assert classify(PayoffMatrix(1.0, 0.0, 1.5, 0.0)) is DilemmaKind.OTHER


def test_classify_invariant_under_constant_shift():
    rng = np.random.default_rng(42)
    for _ in range(200):
        game = PayoffMatrix(*rng.uniform(-2, 2, size=4))
        offset = float(rng.uniform(-10, 10))
        assert classify(shifted(game, offset)) is classify(game)


def test_from_ts_fixes_reward_and_punishment():
    game = from_ts(1.3, -0.4)
    assert game.reward == 1.0
    assert game.punishment == 0.0
    assert game.temptation == 1.3
    assert game.sucker == -0.4


def test_from_ts_quadrants():
    # interior points of each quadrant of the T-S plane classify to the
    # matching dilemma
    for t in np.linspace(1.05, 1.95, 7):
        for s in np.linspace(-0.95, -0.05, 7):
            assert classify(from_ts(t, s)) is DilemmaKind.PRISONERS_DILEMMA
    for t in np.linspace(1.05, 1.95, 7):
        for s in np.linspace(0.05, 0.95, 7):
            assert classify(from_ts(t, s)) is DilemmaKind.SNOWDRIFT
    for t in np.linspace(0.05, 0.95, 7):
        for s in np.linspace(-0.95, -0.05, 7):
            assert classify(from_ts(t, s)) is DilemmaKind.STAG_HUNT
    for t in np.linspace(0.05, 0.95, 7):
        for s in np.linspace(0.05, 0.95, 7):
            assert classify(from_ts(t, s)) is DilemmaKind.HARMONY


def test_pd_from_bc_donation_game():
    game = pd_from_bc(1.2, 0.2)
    assert game.reward == pytest.approx(1.0)
    assert game.sucker == pytest.approx(-0.2)
    assert game.temptation == pytest.approx(1.2)
    assert game.punishment == 0.0
    assert classify(game) is DilemmaKind.PRISONERS_DILEMMA


def test_pd_from_bc_rejects_bad_parameters():
    with pytest.raises(ValueError):
        pd_from_bc(0.2, 1.2)
    with pytest.raises(ValueError):
        pd_from_bc(1.0, 0.0)


def test_representative_points_classify_to_their_class():
    expected = {"pd": DilemmaKind.PRISONERS_DILEMMA,
                "sd": DilemmaKind.SNOWDRIFT,
                "sh": DilemmaKind.STAG_HUNT,
                "hg": DilemmaKind.HARMONY}
    for kind, dilemma in expected.items():
        assert classify(representative(kind)) is dilemma
    with pytest.raises(ValueError):
        representative("ts")
