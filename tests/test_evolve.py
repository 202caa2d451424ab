import ast
import copy
import ctypes
import dataclasses
import gc
import itertools
import math
import os
import subprocess
import sys
import threading
import time
import weakref

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import megt.evolve
import megt.kernel
from megt.comm import ScalingBounds
from megt.evolve import (DISTANCE_FLOOR, RoundEngine, ScalingTable,
                         SimulationConfig, accumulate_payoffs, init_state,
                         run, run_replicas, sweep_ts, write_grid_csv,
                         write_state_text, write_trajectory_csv)
from megt.evolve import _map, _usable_cpus, run_threads
from megt.games import (COOPERATE, PayoffMatrix, from_ts, pd_from_bc,
                        representative)
from megt.netgen import LayerTopology, MultiplexSpec, build_multiplex

from conftest import (assert_edge_csr, dense_weights, megt_env,
                      random_multiplex)
from oracles import (density, fermi_probability, multiplex_from_arrays,
                     neighbour_lists, reference_round, reference_rounds,
                     reference_run, table_communicability)


def line_graph(n, layers=1, weights=None):
    adj = np.zeros((n, n), dtype=np.int8)
    for i in range(n - 1):
        adj[i, i + 1] = adj[i + 1, i] = 1
    w = None if weights is None else [weights.copy() for _ in range(layers)]
    return multiplex_from_arrays([adj.copy() for _ in range(layers)],
                                 np.zeros((n, n)), weights=w)


def small_spec(seed=0, n=30, sigma=1.0):
    return MultiplexSpec(node_count=n, layer_count=2,
                         topologies=(LayerTopology.er(0.2),
                                     LayerTopology.er(0.2)),
                         homophily_sigma=sigma, rng_seed=seed)


# ---------------------------------------------------------------------------
# fermi rule
# ---------------------------------------------------------------------------

def test_equal_payoffs_give_exactly_half_the_scaling():
    for scaling in (1.0, 0.8, 0.5):
        assert fermi_probability(2.0, 2.0, 1.0, 0.1, scaling) == scaling / 2


def test_known_value_for_unit_distance():
    prob = fermi_probability(0.0, 1.0, 1.0, 0.1)
    assert prob == pytest.approx(0.9999546021312976, abs=1e-15)
    assert prob == pytest.approx(1.0 / (1.0 + math.exp(-10.0)))


def test_probability_is_monotone_in_payoff_gap():
    gaps = np.linspace(-5.0, 5.0, 100)
    probs = [fermi_probability(0.0, gap, 2.0, 0.1) for gap in gaps]
    assert all(a < b for a, b in zip(probs, probs[1:]))
    assert all(0.0 <= p <= 1.0 for p in probs)


def test_smaller_distance_sharpens_the_rule():
    # neighbour is better: closer pairs imitate more readily
    assert (fermi_probability(0.0, 1.0, 0.5, 0.1)
            > fermi_probability(0.0, 1.0, 4.0, 0.1))
    # neighbour is worse: closer pairs resist more firmly
    assert (fermi_probability(1.0, 0.0, 0.5, 0.1)
            < fermi_probability(1.0, 0.0, 4.0, 0.1))


def test_distance_floor_prevents_blowup():
    exact = fermi_probability(0.0, 1.0, 0.0, 0.1)
    floored = fermi_probability(0.0, 1.0, DISTANCE_FLOOR, 0.1)
    assert exact == floored
    assert exact == 1.0  # saturated adoption of the better strategy


def test_extreme_gaps_saturate_cleanly():
    assert fermi_probability(1e9, 0.0, 1.0, 0.1) == 0.0
    assert fermi_probability(0.0, 1e9, 1.0, 0.1, scaling=0.7) == 0.7


def test_selection_intensity_must_be_positive():
    for kappa in (0.0, -0.1, math.nan, math.inf):
        with pytest.raises(ValueError, match="selection_intensity"):
            fermi_probability(1.0, 0.0, 1.0, kappa)


# ---------------------------------------------------------------------------
# initial state
# ---------------------------------------------------------------------------

def test_init_forced_fractions():
    net = build_multiplex(small_spec())
    rng = np.random.default_rng(0)
    assert density(init_state(net, 1.0, rng)) == 1.0
    assert density(init_state(net, 0.0, rng)) == 0.0


def test_init_half_fraction_concentrates():
    spec = MultiplexSpec(node_count=200, layer_count=2,
                         topologies=(LayerTopology.er(0.05),
                                     LayerTopology.er(0.05)),
                         homophily_sigma=1.0, rng_seed=1)
    net = build_multiplex(spec)
    for seed in range(5):
        state = init_state(net, 0.5, np.random.default_rng(seed))
        assert 0.4 <= density(state) <= 0.6


def test_init_is_deterministic_per_seed():
    net = build_multiplex(small_spec())
    a = init_state(net, 0.5, np.random.default_rng(42))
    b = init_state(net, 0.5, np.random.default_rng(42))
    assert np.array_equal(a.strategies, b.strategies)


# ---------------------------------------------------------------------------
# payoff accumulation
# ---------------------------------------------------------------------------

def test_isolated_node_earns_nothing():
    adj = np.zeros((3, 3), dtype=np.int8)
    adj[0, 1] = adj[1, 0] = 1
    net = multiplex_from_arrays([adj], np.zeros((3, 3)),
                                weights=[adj.astype(float)])
    state = init_state(net, 1.0, np.random.default_rng(0))
    payoffs = accumulate_payoffs(state, net, PayoffMatrix(1, -0.5, 1.5, 0))
    assert payoffs[0, 2] == 0.0


def test_mutual_cooperation_on_unit_edge():
    net = line_graph(2, weights=np.array([[0.0, 1.0], [1.0, 0.0]]))
    state = init_state(net, 1.0, np.random.default_rng(0))
    payoffs = accumulate_payoffs(state, net, PayoffMatrix(1, -0.5, 1.5, 0))
    assert payoffs[0, 0] == 1.0 and payoffs[0, 1] == 1.0


def test_defector_centre_of_a_path_collects_double_temptation():
    weights = np.zeros((3, 3))
    weights[0, 1] = weights[1, 0] = weights[1, 2] = weights[2, 1] = 1.0
    net = line_graph(3, weights=weights)
    state = init_state(net, 1.0, np.random.default_rng(0))
    state.strategies[0, 1] = 0
    payoffs = accumulate_payoffs(state, net, PayoffMatrix(1, -0.5, 1.5, 0))
    assert payoffs[0, 1] == pytest.approx(3.0)
    # each leaf faces a defector and takes the sucker payoff
    assert payoffs[0, 0] == pytest.approx(-0.5)
    assert payoffs[0, 2] == pytest.approx(-0.5)


def test_weighted_mode_scales_with_link_weight():
    net = line_graph(2, weights=np.array([[0.0, 0.25], [0.25, 0.0]]))
    state = init_state(net, 1.0, np.random.default_rng(0))
    game = PayoffMatrix(1, -0.5, 1.5, 0)
    assert accumulate_payoffs(state, net, game)[0, 0] == pytest.approx(0.25)
    assert accumulate_payoffs(state, net, game,
                              payoff_weights="binary")[0, 0] == 1.0


# games whose payoff is the cooperating mass sum_j w_ij s_j itself, and
# the defecting mass sum_j w_ij (1 - s_j)
MASS = PayoffMatrix(reward=1.0, sucker=0.0, temptation=1.0, punishment=0.0)
DEFECTOR_MASS = PayoffMatrix(reward=0.0, sucker=1.0, temptation=0.0,
                             punishment=1.0)


@settings(max_examples=40, deadline=None)
@given(draw_seed=st.integers(0, 2**16), n=st.integers(2, 30),
       layers=st.integers(1, 4), edge_probability=st.floats(0.0, 0.6),
       sigma=st.floats(0.0, 2.0), edgeless_layer=st.booleans(),
       initial=st.floats(0.0, 1.0), dynamics_seed=st.integers(0, 2**16))
def test_payoffs_sum_edges_in_one_order(draw_seed, n, layers,
                                        edge_probability, sigma,
                                        edgeless_layer, initial,
                                        dynamics_seed):
    net = random_multiplex(draw_seed, n, layers, edge_probability, sigma,
                           edgeless_layer)
    table = ScalingTable(net, 0.5)
    # the row sums are the kernel's: the table's, added in the same order
    defecting = init_state(net, 0.0, np.random.default_rng(dynamics_seed))
    assert np.array_equal(accumulate_payoffs(defecting, net, DEFECTOR_MASS),
                          table.weight_sums)
    assert np.array_equal(
        accumulate_payoffs(defecting, net, DEFECTOR_MASS, "binary"),
        table.degrees)
    # so a slot whose neighbours all cooperate has exactly no defector mass
    cooperating = init_state(net, 1.0, np.random.default_rng(dynamics_seed))
    for mode in ("weighted", "binary"):
        assert not accumulate_payoffs(cooperating, net, DEFECTOR_MASS,
                                      mode).any()
    state = init_state(net, initial, np.random.default_rng(dynamics_seed))
    coop = (state.strategies == COOPERATE).astype(float)
    binary = np.stack([a @ x for a, x in zip(net.adjacency, coop)])
    assert np.array_equal(accumulate_payoffs(state, net, MASS, "binary"),
                          binary)
    weighted = np.stack([w @ x for w, x in zip(dense_weights(net), coop)])
    np.testing.assert_allclose(accumulate_payoffs(state, net, MASS),
                               weighted, rtol=1e-12, atol=0.0)


game_entry = st.integers(-5, 5).map(float)
integer_game = st.builds(PayoffMatrix, game_entry, game_entry, game_entry,
                         game_entry)


@settings(max_examples=40, deadline=None)
@given(draw_seed=st.integers(0, 2**16), n=st.integers(2, 30),
       layers=st.integers(1, 4), edge_probability=st.floats(0.0, 0.4),
       sigma=st.floats(0.0, 2.0), edgeless_layer=st.booleans(),
       initial=st.floats(0.0, 1.0), dynamics_seed=st.integers(0, 2**16),
       first=integer_game, second=integer_game,
       a=st.integers(-3, 3), b=st.integers(-3, 3))
def test_payoffs_are_linear_in_the_game(draw_seed, n, layers,
                                        edge_probability, sigma,
                                        edgeless_layer, initial,
                                        dynamics_seed, first, second, a, b):
    # payoff(a G + b H) = a payoff(G) + b payoff(H): exact in binary mode,
    # where every product and sum is a small integer, and within rounding
    # of the link weights in weighted mode
    net = random_multiplex(draw_seed, n, layers, edge_probability, sigma,
                           edgeless_layer)
    state = init_state(net, initial, np.random.default_rng(dynamics_seed))
    mixed = PayoffMatrix(*(a * x + b * y for x, y in zip(
        dataclasses.astuple(first), dataclasses.astuple(second))))
    for mode in ("binary", "weighted"):
        left = accumulate_payoffs(state, net, mixed, mode)
        parts = [c * accumulate_payoffs(state, net, game, mode)
                 for c, game in ((a, first), (b, second))]
        if mode == "binary":
            assert np.array_equal(left, parts[0] + parts[1])
        else:
            scale = np.abs(parts[0]) + np.abs(parts[1])
            assert np.all(np.abs(left - (parts[0] + parts[1]))
                          <= 1e-12 * scale)


# ---------------------------------------------------------------------------
# round engine
# ---------------------------------------------------------------------------

def engine_for(net, game, config):
    return RoundEngine(net, game,
                       ScalingTable(net, config.interlayer_strength), config)


def kernel_table_fields():
    """The pointer fields of the table section of ``kernel.Engine``, the
    mirror of ``round.c``'s ``struct megt_engine``: those before the
    run's parameters."""
    head = itertools.takewhile(lambda field: field[0] != "reward",
                               megt.kernel.Engine._fields_)
    return [name for name, kind in head if kind is ctypes.c_void_p]


@pytest.mark.parametrize("net", [
    line_graph(6, layers=1),
    random_multiplex(5, 12, 3, 0.2, 1.0, edgeless_layer=True),
    build_multiplex(MultiplexSpec(node_count=25, layer_count=3,
                                  topologies=(LayerTopology.er(0.04),) * 3,
                                  homophily_sigma=1.0, rng_seed=2)),
], ids=["one-layer", "edgeless-layer", "isolated-slots"])
def test_table_arrays_fit_the_kernel_struct(net):
    # round.c reads these arrays through raw pointers, unchecked
    table = ScalingTable(net, 0.5)
    nm = net.node_count * net.layer_count
    fields = kernel_table_fields()
    assert "denominator" in fields
    # edge_weight and row_sum depend on the payoff mode; the addresses
    # are taken once per table and mode
    for mode, weights, sums in (
            ("weighted", table.edge_weight, table.weight_sums),
            ("binary", np.ones(table.edge_weight.size), table.degrees)):
        addresses = table.engine_fields(mode)
        assert sorted(addresses) == sorted(fields)
        arrays = table._engine_arrays[mode]
        for name in fields:
            array = arrays[name]
            if name not in ("edge_weight", "row_sum"):
                assert array is getattr(table, name), name
            assert addresses[name] == array.ctypes.data, name
            assert isinstance(array, np.ndarray), name
            assert array.flags.c_contiguous, name
            integer = name.endswith(("_ptr", "_slot"))
            assert array.dtype == (np.int64 if integer else np.float64), name
        assert np.array_equal(arrays["edge_weight"], weights)
        assert np.array_equal(arrays["row_sum"], sums.reshape(nm))
    for ptr, aligned in (("neighbour_ptr", ("neighbour_slot", "distance",
                                            "edge_weight")),
                         ("cross_ptr", ("cross_slot", "cross_value"))):
        offsets = getattr(table, ptr)
        assert offsets.shape == (nm + 1,)
        for name in aligned:
            assert offsets[-1] == getattr(table, name).size, name
    assert table.denominator.shape == (nm,)
    # an isolated slot is an empty neighbour row
    assert np.array_equal(np.diff(table.neighbour_ptr) == 0,
                          table.degrees.reshape(-1) == 0)
    # the edge arrays are the network's own, which are a CSR
    for name in ("neighbour_ptr", "neighbour_slot", "edge_weight"):
        assert getattr(table, name) is getattr(net, name), name
    assert_edge_csr(net)


def test_uniform_strategy_state_is_absorbing():
    net = build_multiplex(small_spec(seed=2))
    config = SimulationConfig(game=representative("pd"), network=net,
                              rng_seed=0)
    engine = engine_for(net, config.game, config)
    state = init_state(net, 1.0, np.random.default_rng(3))
    for _ in range(3):
        assert engine.round(state) == 1.0
    assert density(state) == 1.0
    state = init_state(net, 0.0, np.random.default_rng(3))
    assert engine.round(state) == 0.0


def test_round_updates_cooperation_counters_by_degree():
    net = build_multiplex(small_spec(seed=4))
    config = SimulationConfig(game=representative("hg"), network=net,
                              rng_seed=0)
    engine = engine_for(net, config.game, config)
    state = init_state(net, 1.0, np.random.default_rng(0))
    engine.round(state)
    total_degree = sum(net.layer_degrees())
    assert np.array_equal(state.coop_count, total_degree)
    engine.round(state)
    assert np.array_equal(state.coop_count, 2 * total_degree)
    assert state.round_index == 2


def test_isolated_node_never_changes_strategy():
    adj = np.zeros((5, 5), dtype=np.int8)
    for i, j in ((0, 1), (1, 2), (2, 3)):
        adj[i, j] = adj[j, i] = 1
    net = multiplex_from_arrays([adj, adj.copy()], np.zeros((5, 5)))
    config = SimulationConfig(game=representative("sd"), network=net,
                              rng_seed=0)
    engine = engine_for(net, config.game, config)
    state = init_state(net, 0.5, np.random.default_rng(8))
    before = state.strategies[:, 4].copy()
    for _ in range(20):
        engine.round(state)
    assert np.array_equal(state.strategies[:, 4], before)


# (seed, edge probability, game, scaling bounds, selection intensity,
# payoff weights); p = 0.04 leaves isolated slots
REFERENCE_CASES = [
    (0, 0.15, "sd", ScalingBounds(), 0.1, "weighted"),
    (1, 0.15, "pd", ScalingBounds(0.2, 0.9), 0.1, "weighted"),
    (2, 0.04, "sd", ScalingBounds(0.3, 0.8), 0.5, "weighted"),
    (3, 0.04, "sh", ScalingBounds(), 0.1, "binary"),
    (4, 0.3, "sd", ScalingBounds(0.6, 0.6), 1.0, "weighted"),
    (5, 0.1, "sd", ScalingBounds(0.1, 1.0), 0.05, "binary"),
]


@pytest.mark.parametrize(
    "seed, p, game, bounds, kappa, weights", REFERENCE_CASES,
    ids=[f"seed{case[0]}" for case in REFERENCE_CASES])
def test_round_engine_matches_reference_round(seed, p, game, bounds, kappa,
                                              weights):
    spec = MultiplexSpec(node_count=25, layer_count=3,
                         topologies=(LayerTopology.er(p),) * 3,
                         homophily_sigma=1.0, rng_seed=seed)
    net = build_multiplex(spec)
    if p < 0.05:
        assert any(not nbrs for layer in neighbour_lists(net)
                   for nbrs in layer)
    config = SimulationConfig(game=representative(game), network=net,
                              scaling_bounds=bounds,
                              selection_intensity=kappa,
                              payoff_weights=weights)
    table = ScalingTable(net, config.interlayer_strength)
    comm = table_communicability(table, net)
    engine = RoundEngine(net, config.game, table, config)
    fast = init_state(net, 0.5, np.random.default_rng(seed))
    slow = init_state(net, 0.5, np.random.default_rng(seed))
    adoptions = 0
    for _ in range(30):
        value, adopted = reference_round(slow, net, comm, config)
        adoptions += adopted
        assert engine.round(fast) == value
        assert np.array_equal(fast.strategies, slow.strategies)
    assert np.array_equal(fast.coop_count, slow.coop_count)
    assert engine.adoptions == adoptions


@settings(max_examples=60, deadline=None)
@given(draw_seed=st.integers(0, 2**16), n=st.integers(2, 30),
       layers=st.integers(1, 4), edge_probability=st.floats(0.0, 0.4),
       sigma=st.floats(0.0, 2.0), edgeless_layer=st.booleans(),
       temptation=st.floats(0.0, 2.0), sucker=st.floats(-1.0, 1.0),
       kappa=st.floats(1e-4, 2.0), minimum=st.floats(0.01, 1.0),
       width=st.floats(0.0, 1.0), omega=st.floats(0.0, 2.0),
       weights=st.sampled_from(["weighted", "binary"]),
       dynamics_seed=st.integers(0, 2**16))
def test_compiled_round_matches_python_round(
        draw_seed, n, layers, edge_probability, sigma, edgeless_layer,
        temptation, sucker, kappa, minimum, width, omega, weights,
        dynamics_seed):
    net = random_multiplex(draw_seed, n, layers, edge_probability, sigma,
                           edgeless_layer)
    bounds = ScalingBounds(minimum, minimum + (1.0 - minimum) * width)
    config = SimulationConfig(game=from_ts(temptation, sucker), network=net,
                              selection_intensity=kappa,
                              scaling_bounds=bounds,
                              interlayer_strength=omega,
                              payoff_weights=weights)
    table = ScalingTable(net, omega)
    compiled = RoundEngine(net, config.game, table, config)
    comm = table_communicability(table, net)
    fast = init_state(net, 0.5, np.random.default_rng(dynamics_seed))
    slow = init_state(net, 0.5, np.random.default_rng(dynamics_seed))
    adoptions = 0
    for _ in range(5):
        value, adopted = reference_round(slow, net, comm, config)
        adoptions += adopted
        assert compiled.round(fast) == value
    assert np.array_equal(fast.strategies, slow.strategies)
    assert np.array_equal(fast.coop_count, slow.coop_count)
    assert fast.rng.bit_generator.state == slow.rng.bit_generator.state
    assert compiled.adoptions == adoptions


def run_both_ways(config):
    """``run(config)`` on the compiled kernel, then the same run from the
    plain Python oracle ``reference_run``."""
    return run(config), reference_run(config)


def assert_same_run(a, b):
    assert a.trajectory == b.trajectory
    assert np.array_equal(a.state.strategies, b.state.strategies)
    assert np.array_equal(a.state.coop_count, b.state.coop_count)
    assert a.state.round_index == b.state.round_index == a.trajectory.rounds
    assert a.state.rng.bit_generator.state == b.state.rng.bit_generator.state
    assert a.adoptions == b.adoptions


@settings(max_examples=60, deadline=None)
@given(draw_seed=st.integers(0, 2**16), n=st.integers(2, 30),
       layers=st.integers(1, 4), edge_probability=st.floats(0.0, 0.4),
       sigma=st.floats(0.0, 2.0), edgeless_layer=st.booleans(),
       temptation=st.floats(0.0, 2.0), sucker=st.floats(-1.0, 1.0),
       kappa=st.floats(1e-4, 2.0), omega=st.floats(0.0, 2.0),
       weights=st.sampled_from(["weighted", "binary"]),
       initial=st.floats(0.0, 1.0), window=st.integers(1, 6),
       extra_rounds=st.integers(0, 40),
       tolerance=st.floats(1e-4, 0.2), dynamics_seed=st.integers(0, 2**16))
def test_compiled_run_matches_python_run(
        draw_seed, n, layers, edge_probability, sigma, edgeless_layer,
        temptation, sucker, kappa, omega, weights, initial, window,
        extra_rounds, tolerance, dynamics_seed):
    net = random_multiplex(draw_seed, n, layers, edge_probability, sigma,
                           edgeless_layer)
    config = SimulationConfig(game=from_ts(temptation, sucker), network=net,
                              selection_intensity=kappa,
                              interlayer_strength=omega,
                              payoff_weights=weights,
                              initial_coop_fraction=initial,
                              max_rounds=window + extra_rounds,
                              steady_window=window,
                              steady_tolerance=tolerance,
                              rng_seed=dynamics_seed)
    compiled, oracle = run_both_ways(config)
    assert_same_run(compiled, oracle)
    event(compiled.trajectory.stop_reason)


@pytest.mark.parametrize("reason, game, seed, initial, window, rounds", [
    ("steady", "hg", 0, 0.5, 5, 60),
    ("absorbing", "hg", 2, 0.3, 5, 60),
    ("budget", "sd", 3, 0.5, 30, 30),
])
def test_every_stop_of_the_compiled_run_matches_python(
        reason, game, seed, initial, window, rounds):
    # the property above draws these too, but not surely each time
    config = SimulationConfig(game=representative(game),
                              spec=small_spec(seed, 12),
                              initial_coop_fraction=initial,
                              max_rounds=rounds, steady_window=window,
                              rng_seed=seed)
    compiled, oracle = run_both_ways(config)
    assert compiled.trajectory.stop_reason == reason
    assert 0 < compiled.trajectory.rounds <= rounds
    assert_same_run(compiled, oracle)


def test_round_runs_past_max_rounds():
    # each round is a one-round run, however many are made: it must
    # never write past the run's buffers
    net = build_multiplex(small_spec(seed=2))
    config = SimulationConfig(game=representative("sd"), network=net,
                              max_rounds=2, steady_window=1)
    compiled = engine_for(net, config.game, config)
    comm = table_communicability(compiled.table, net)
    fast = init_state(net, 0.5, np.random.default_rng(4))
    slow = init_state(net, 0.5, np.random.default_rng(4))
    adoptions = 0
    for _ in range(5 * config.max_rounds + 3):
        value, adopted = reference_round(slow, net, comm, config)
        adoptions += adopted
        assert compiled.round(fast) == value
    assert fast.round_index == slow.round_index == 13
    assert np.array_equal(fast.strategies, slow.strategies)
    assert np.array_equal(fast.coop_count, slow.coop_count)
    assert compiled.adoptions == adoptions
    # and a whole run after them, on the same engine
    rho, cumulative, reason, adopted = reference_rounds(slow, net, comm,
                                                        config)
    assert compiled.run(fast) == (rho, cumulative, reason)
    assert compiled.adoptions == adoptions + adopted
    assert np.array_equal(fast.strategies, slow.strategies)
    assert fast.rng.bit_generator.state == slow.rng.bit_generator.state


@pytest.mark.parametrize("payoff_weights", ["weighted", "binary"])
@pytest.mark.parametrize("spec", [
    MultiplexSpec(node_count=200, layer_count=2,
                  topologies=(LayerTopology.ws(4),) * 2,
                  homophily_sigma=1.0, rng_seed=5),
    MultiplexSpec(node_count=200, layer_count=7,
                  topologies=(LayerTopology.er(4 / 199),) * 7,
                  homophily_sigma=1.0, rng_seed=3),
], ids=["small-world", "er-seven-layers"])
def test_a_run_equals_its_rounds_one_by_one_at_scale(spec, payoff_weights):
    # a run re-sums only the payoffs its last round made stale, a round
    # every payoff; a window as long as the budget keeps the stop rule
    # from firing, and the snowdrift game does not absorb
    net = build_multiplex(spec)
    if spec.layer_count == 7:
        assert (net.layer_degrees() == 0).any()
    rounds = 300
    config = SimulationConfig(game=representative("sd"), network=net,
                              payoff_weights=payoff_weights,
                              max_rounds=rounds, steady_window=rounds)
    table = ScalingTable(net, config.interlayer_strength)
    whole = RoundEngine(net, config.game, table, config)
    one_by_one = RoundEngine(net, config.game, table, config)
    a = init_state(net, 0.5, np.random.default_rng(7))
    b = init_state(net, 0.5, np.random.default_rng(7))
    rho, _, reason = whole.run(a)
    assert reason == "budget" and len(rho) == rounds + 1
    assert rho == [density(b)] + [one_by_one.round(b)
                                  for _ in range(rounds)]
    assert a.round_index == b.round_index == rounds
    assert np.array_equal(a.strategies, b.strategies)
    assert np.array_equal(a.coop_count, b.coop_count)
    assert whole.adoptions == one_by_one.adoptions > rounds
    assert a.rng.bit_generator.state == b.rng.bit_generator.state


def test_round_refuses_an_edgeless_multiplex():
    net = multiplex_from_arrays([np.zeros((4, 4), dtype=np.int8)] * 2,
                                np.zeros((4, 4)))
    config = SimulationConfig(game=representative("sd"), network=net)
    state = init_state(net, 0.5, np.random.default_rng(0))
    with pytest.raises(ValueError, match="no slot has a neighbour"):
        engine_for(net, config.game, config).round(state)


def test_round_replaces_the_strategy_array():
    # callers may keep the previous array
    net = build_multiplex(small_spec(seed=2))
    config = SimulationConfig(game=representative("sd"), network=net)
    engine = engine_for(net, config.game, config)
    state = init_state(net, 0.5, np.random.default_rng(1))
    before = state.strategies
    kept = before.copy()
    engine.round(state)
    assert state.strategies is not before
    assert np.array_equal(before, kept)


# ---------------------------------------------------------------------------
# full runs
# ---------------------------------------------------------------------------

def test_run_is_bit_for_bit_deterministic():
    config = SimulationConfig(game=pd_from_bc(1.5, 0.5),
                              spec=small_spec(seed=7, n=60),
                              max_rounds=300, steady_window=50,
                              rng_seed=123)
    first = run(config)
    second = run(config)
    assert first.trajectory.rho == second.trajectory.rho
    assert first.trajectory.steady_rho == second.trajectory.steady_rho
    assert np.array_equal(first.state.strategies, second.state.strategies)
    assert np.array_equal(first.state.coop_count, second.state.coop_count)


def test_replica_index_changes_the_draw():
    config = SimulationConfig(game=representative("sd"),
                              spec=small_spec(seed=7, n=40),
                              max_rounds=100, steady_window=20, rng_seed=5)
    a = run(config, replica_index=0)
    b = run(config, replica_index=1)
    assert a.trajectory.rho != b.trajectory.rho


def test_harmony_relaxes_to_cooperation():
    config = SimulationConfig(game=representative("hg"),
                              spec=small_spec(seed=3, n=40),
                              max_rounds=500, steady_window=100, rng_seed=11)
    result = run(config)
    assert result.trajectory.converged
    assert result.trajectory.steady_rho >= 0.95
    assert all(0.0 <= value <= 1.0 for value in result.trajectory.rho)


def test_absorbing_start_exits_immediately():
    config = SimulationConfig(game=representative("pd"),
                              spec=small_spec(seed=1),
                              initial_coop_fraction=0.0,
                              max_rounds=500, steady_window=100, rng_seed=2)
    result = run(config)
    assert result.trajectory.rho == [0.0]
    assert result.trajectory.steady_rho == 0.0
    assert result.trajectory.converged
    assert result.trajectory.stop_reason == "absorbing"


@pytest.mark.parametrize("reason, window, tolerance, rounds", [
    ("steady", 5, 1.0, 10),
    ("budget", 10, 1e-3, 10),
])
def test_stop_reason_names_the_exit(reason, window, tolerance, rounds):
    # a tolerance of 1 stops at the first window comparison; with
    # max_rounds = steady_window there is never one
    config = SimulationConfig(game=representative("sd"),
                              spec=small_spec(seed=3), max_rounds=10,
                              steady_window=window,
                              steady_tolerance=tolerance, rng_seed=6)
    trajectory = run(config).trajectory
    assert trajectory.stop_reason == reason
    assert trajectory.rounds == rounds
    assert trajectory.converged == (reason != "budget")


EDGELESS_RUN = """
from megt.evolve import SimulationConfig, run
from megt.games import representative
from megt.netgen import LayerTopology, MultiplexSpec
spec = MultiplexSpec(node_count=10, layer_count=2,
                     topologies=(LayerTopology.er(0.0),) * 2,
                     homophily_sigma=1.0, rng_seed=3)
t = run(SimulationConfig(game=representative("sd"), spec=spec,
                         max_rounds=50, steady_window=10)).trajectory
print(repr((t.rho, t.steady_rho, t.converged, t.stop_reason)))
"""


def test_edgeless_multiplex_is_absorbing():
    # no slot has a neighbour to imitate; run in a child with a timeout so
    # that a hang fails the test instead of stalling the suite
    proc = subprocess.run([sys.executable, "-c", EDGELESS_RUN],
                          capture_output=True, text=True, env=megt_env(),
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    rho, steady, converged, reason = ast.literal_eval(proc.stdout.strip())
    assert len(rho) == 1
    assert steady == rho[0]
    assert converged is True
    assert reason == "edgeless"


def test_replicas_are_order_independent():
    config = SimulationConfig(game=representative("sd"),
                              spec=small_spec(seed=7, n=30),
                              max_rounds=80, steady_window=20,
                              replicas=3, rng_seed=9)
    batch = run_replicas(config)
    solo = run(config, replica_index=2)
    assert batch[2].trajectory.rho == solo.trajectory.rho


def test_parallel_replicas_match_sequential():
    config = SimulationConfig(game=representative("sd"),
                              spec=small_spec(seed=7, n=30),
                              max_rounds=80, steady_window=20,
                              replicas=4, rng_seed=9)
    sequential = run_replicas(config, jobs=1)
    parallel = run_replicas(config, jobs=2)
    for a, b in zip(sequential, parallel):
        assert a.trajectory.rho == b.trajectory.rho


def test_fixed_network_mode_reuses_the_same_graph():
    net = build_multiplex(small_spec(seed=6))
    config = SimulationConfig(game=representative("sd"), network=net,
                              max_rounds=60, steady_window=20,
                              replicas=2, rng_seed=4)
    results = run_replicas(config)
    assert results[0].network is net and results[1].network is net
    assert results[0].trajectory.rho != results[1].trajectory.rho


def test_a_shared_network_cannot_be_edited_under_its_table():
    # runs on one network object share one table, matched by identity,
    # so an in-place edit must fail rather than run on stale entries
    net = build_multiplex(small_spec(seed=6))
    config = SimulationConfig(game=representative("sd"), network=net,
                              max_rounds=60, steady_window=20, rng_seed=4)
    first = run(config)
    for name in ("neighbour_ptr", "neighbour_slot", "edge_weight", "delta"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(net, name)[0] = 0
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(net, name, getattr(net, name).copy())
    assert run(config).trajectory.rho == first.trajectory.rho


def test_config_validation():
    game = representative("pd")
    with pytest.raises(ValueError):
        SimulationConfig(game=game)  # neither spec nor network
    with pytest.raises(ValueError):
        SimulationConfig(game=game, spec=small_spec(),
                         network=build_multiplex(small_spec()))
    with pytest.raises(ValueError):
        SimulationConfig(game=game, spec=small_spec(),
                         initial_coop_fraction=1.5)
    with pytest.raises(ValueError):
        SimulationConfig(game=game, spec=small_spec(), payoff_weights="mixed")
    with pytest.raises(ValueError):
        SimulationConfig(game=game, spec=small_spec(),
                         max_rounds=50, steady_window=100)
    with pytest.raises(ValueError):
        SimulationConfig(game=game, spec=small_spec(), selection_intensity=0)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["selection_intensity",
                                  "interlayer_strength",
                                  "initial_coop_fraction",
                                  "steady_tolerance"])
def test_config_rejects_non_finite_values(name, value):
    with pytest.raises(ValueError, match=name):
        SimulationConfig(game=representative("pd"), spec=small_spec(),
                         **{name: value})


def test_interlayer_strength_resolution():
    game = representative("pd")
    assert SimulationConfig(game=game,
                            spec=small_spec()).interlayer_strength == 0.5
    override = SimulationConfig(game=game, spec=small_spec(),
                                interlayer_strength=0.2)
    assert override.interlayer_strength == 0.2
    with pytest.raises(ValueError, match="interlayer_strength"):
        SimulationConfig(game=game, spec=small_spec(),
                         interlayer_strength=-0.1)


def test_scaling_bounds_feed_through():
    # a degenerate span of zero disables the cross-layer damping
    config = SimulationConfig(game=representative("sd"),
                              spec=small_spec(seed=7, n=30),
                              scaling_bounds=ScalingBounds(1.0, 1.0),
                              max_rounds=60, steady_window=20, rng_seed=4)
    default = SimulationConfig(game=representative("sd"),
                               spec=small_spec(seed=7, n=30),
                               max_rounds=60, steady_window=20, rng_seed=4)
    assert run(config).trajectory.rho != run(default).trajectory.rho


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------

def grid_config(replicas=2):
    return SimulationConfig(game=representative("pd"),
                            spec=small_spec(seed=5, n=20),
                            max_rounds=60, steady_window=20,
                            replicas=replicas, rng_seed=77)


def test_sweep_shapes_and_ranges():
    grid = sweep_ts(grid_config(), [0.5, 1.5], [-0.5, 0.5])
    assert grid.rho_mean.shape == (2, 2)
    assert np.all(grid.rho_mean >= 0.0) and np.all(grid.rho_mean <= 1.0)
    assert np.all(grid.rho_std >= 0.0)
    rows = list(grid.rows())
    assert [row[:2] for row in rows] == [(0.5, -0.5), (0.5, 0.5),
                                         (1.5, -0.5), (1.5, 0.5)]


def test_sweep_is_deterministic():
    a = sweep_ts(grid_config(), [0.6, 1.4], [-0.4, 0.4])
    b = sweep_ts(grid_config(), [0.6, 1.4], [-0.4, 0.4])
    assert np.array_equal(a.rho_mean, b.rho_mean)
    assert np.array_equal(a.rho_std, b.rho_std)


def test_parallel_sweep_matches_sequential():
    sequential = sweep_ts(grid_config(), [0.6, 1.4], [-0.4, 0.4], jobs=1)
    parallel = sweep_ts(grid_config(), [0.6, 1.4], [-0.4, 0.4], jobs=2)
    assert np.array_equal(sequential.rho_mean, parallel.rho_mean)
    assert np.array_equal(sequential.rho_std, parallel.rho_std)


def test_a_grid_too_large_for_memory_is_refused_before_its_cells(
        monkeypatch):
    def cell(*args, **kwargs):
        raise AssertionError("a cell ran")

    # 10^4 cells need over 1 MB for their run list and results alone
    monkeypatch.setattr(megt.evolve, "_memory_bytes", lambda: 10**6)
    monkeypatch.setattr(megt.evolve, "run", cell)
    with pytest.raises(MemoryError, match="10000 cells"):
        sweep_ts(grid_config(), np.zeros(100), np.zeros(100))
    with pytest.raises(AssertionError, match="a cell ran"):
        sweep_ts(grid_config(), np.zeros(10), np.zeros(10))


@pytest.mark.parametrize("missing", ["resource", "sysconf"])
def test_memory_unknown_where_it_cannot_be_read(monkeypatch, missing):
    # Windows has no resource module and no os.sysconf
    if missing == "resource":
        monkeypatch.setitem(sys.modules, "resource", None)
    else:
        resource = pytest.importorskip("resource")
        monkeypatch.setattr(resource, "getrlimit",
                            lambda which: (resource.RLIM_INFINITY,) * 2)
        monkeypatch.delattr(os, "sysconf")
    assert megt.evolve._memory_bytes() == math.inf
    result = sweep_ts(grid_config(), [1.0], [0.0])
    assert result.rho_mean.shape == (1, 1)


def test_grid_cells_are_position_seeded():
    # a cell's result must not depend on what other cells are in the grid
    full = sweep_ts(grid_config(), [0.6, 1.4], [-0.4, 0.4])
    single = sweep_ts(grid_config(), [0.6], [-0.4])
    assert single.rho_mean[0, 0] == full.rho_mean[0, 0]


def test_sweep_on_a_prebuilt_network_computes_communicability_once(
        monkeypatch):
    calls = []
    tables = []
    engines = []

    def counting_entries(network, *args):
        calls.append(network)
        return original_entries(network, *args)

    def recording_table(table, *args):
        original_table(table, *args)
        tables.append(table)

    def recording_init(engine, *args):
        original_init(engine, *args)
        engines.append(engine)

    original_entries = megt.evolve.communicability_entries
    original_table = ScalingTable.__init__
    original_init = RoundEngine.__init__
    monkeypatch.setattr(megt.evolve, "communicability_entries",
                        counting_entries)
    monkeypatch.setattr(ScalingTable, "__init__", recording_table)
    monkeypatch.setattr(RoundEngine, "__init__", recording_init)
    net = build_multiplex(small_spec(seed=9, n=20))
    config = dataclasses.replace(grid_config(), spec=None, network=net)
    t_values = [0.0, 0.5, 1.0, 1.5, 2.0]
    s_values = [-1.0, -0.5, 0.0, 0.5, 1.0]
    grid = sweep_ts(config, t_values, s_values)
    assert len(calls) == 1
    assert len(tables) == 1
    # the per-network tables live in the shared ScalingTable, as arrays:
    # no engine holds an N-long list of N-long lists, and the table no
    # Python list at all
    assert len(engines) == 25 * config.replicas
    for engine in engines:
        assert engine.table is tables[0]
        for value in vars(engine).values():
            assert not (isinstance(value, list) and len(value) == 20
                        and all(isinstance(row, list) and len(row) == 20
                                for row in value))
    for value in vars(tables[0]).values():
        assert not isinstance(value, list)

    # the same grid with every cell on its own copy, which the memo
    # cannot recognise
    mean = np.zeros((5, 5))
    std = np.zeros((5, 5))
    for it, t in enumerate(t_values):
        for js, s in enumerate(s_values):
            cell_config = dataclasses.replace(
                config, game=from_ts(t, s), network=copy.deepcopy(net))
            steadies = [r.trajectory.steady_rho for r in
                        run_replicas(cell_config, cell_index=it * 5 + js)]
            mean[it, js] = np.mean(steadies)
            std[it, js] = np.std(steadies)
    assert len(calls) == 1 + 25
    assert len(tables) == 1 + 25
    assert np.array_equal(grid.rho_mean, mean)
    assert np.array_equal(grid.rho_std, std)


def test_a_spec_built_sweep_builds_one_network_and_table_per_replica(
        monkeypatch):
    seeds, tables = [], []
    original_build = megt.evolve.build_multiplex
    original_table = ScalingTable.__init__

    def counting_build(spec):
        seeds.append(spec.rng_seed)
        return original_build(spec)

    def counting_table(table, *args):
        tables.append(table)
        original_table(table, *args)

    monkeypatch.setattr(megt.evolve, "build_multiplex", counting_build)
    monkeypatch.setattr(ScalingTable, "__init__", counting_table)
    grid = sweep_ts(grid_config(replicas=3), [0.6, 1.0, 1.4], [-0.4, 0.4])
    # six cells, three replicas: a network per replica, not per run
    assert len(seeds) == len(set(seeds)) == 3
    assert len(tables) == 3
    assert len(grid.rounds) == 18
    assert grid.phase_s["network"] > 0.0
    assert grid.phase_s["communicability"] > 0.0


def test_a_spec_built_cell_is_its_runs_at_its_cell_and_replica():
    config = grid_config(replicas=3)
    t_values, s_values = [0.6, 1.4], [-0.4, 0.4]
    grid = sweep_ts(config, t_values, s_values)
    for it, t in enumerate(t_values):
        for js, s in enumerate(s_values):
            steadies = [run(dataclasses.replace(config, game=from_ts(t, s)),
                            cell_index=it * 2 + js,
                            replica_index=r).trajectory.steady_rho
                        for r in range(3)]
            assert grid.rho_mean[it, js] == float(np.mean(steadies))
            assert grid.rho_std[it, js] == float(np.std(steadies))


def test_a_prebuilt_table_lives_as_long_as_its_network():
    gc.collect()
    held = len(megt.evolve._tables)
    # a spec-built sweep's networks and tables go with the sweep
    sweep_ts(grid_config(replicas=2), [0.6], [-0.4, 0.4])
    gc.collect()
    assert len(megt.evolve._tables) == held
    net = build_multiplex(small_spec(seed=9, n=20))
    config = dataclasses.replace(grid_config(), spec=None, network=net)
    run(config)
    table = megt.evolve._tables[net]
    run(config)
    assert megt.evolve._tables[net] is table
    # a new coupling strength replaces the network's table
    run(dataclasses.replace(config, interlayer_strength=0.25))
    assert megt.evolve._tables[net] is not table
    network = weakref.ref(net)
    del net, config, table
    gc.collect()
    assert network() is None
    assert len(megt.evolve._tables) == held


def _runs_and_sweep(config, jobs=None):
    """Every bit of a sweep and of a replica set that a thread or job
    count could move; no thread may outlive either call."""
    before = threading.active_count()
    grid = sweep_ts(config, [0.6, 1.4], [-0.4, 0.4], jobs=jobs)
    assert threading.active_count() == before
    results = run_replicas(config, cell_index=3, jobs=jobs)
    assert threading.active_count() == before
    return (grid.rho_mean.tolist(), grid.rho_std.tolist(), grid.adoptions,
            grid.communicability, grid.stop_reasons, grid.budget_cells,
            grid.rounds,
            [(r.trajectory.rho, r.trajectory.steady_rho,
              r.trajectory.stop_reason, r.adoptions, r.communicability,
              r.state.strategies.tolist(), r.state.coop_count.tolist())
             for r in results])


@pytest.mark.parametrize("prebuilt", [False, True])
def test_thread_and_job_counts_change_no_bit(monkeypatch, prebuilt):
    config = grid_config(replicas=3)
    if prebuilt:
        config = dataclasses.replace(
            config, spec=None, network=build_multiplex(small_spec(seed=9,
                                                                  n=20)))
    outputs = []
    for cpus in (1, 2, 3):
        monkeypatch.setattr(megt.evolve, "_usable_cpus", lambda: cpus)
        assert run_threads(None, 12) == cpus
        outputs.append(_runs_and_sweep(config))
    assert outputs[0] == outputs[1] == outputs[2]
    # a cap below the CPUs, and at them
    for jobs in (1, 3):
        assert run_threads(jobs, 12) == jobs
        assert _runs_and_sweep(config, jobs=jobs) == outputs[0]


def test_run_threads_never_outnumber_the_cpus(monkeypatch):
    busy, most, threads = [0], [0], set()
    lock = threading.Lock()
    original = megt.evolve.run

    def counting(*args, **kwargs):
        # a series summed here takes one thread
        assert megt.comm._worker.one_cpu is True
        with lock:
            busy[0] += 1
            most[0] = max(most[0], busy[0])
            threads.add(threading.get_ident())
        try:
            time.sleep(0.002)
            return original(*args, **kwargs)
        finally:
            with lock:
                busy[0] -= 1

    monkeypatch.setattr(megt.evolve, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(megt.evolve, "run", counting)
    sweep_ts(grid_config(replicas=3), [0.6, 1.4], [-0.4, 0.4])
    assert most[0] == len(threads) == 2
    # the calling thread is a worker no longer
    assert not megt.comm._worker.one_cpu


def test_threads_take_every_item_once(monkeypatch):
    # more threads than CPUs, switching as often as the interpreter can
    seen = []

    def square(item):
        seen.append(item)
        return item * item

    monkeypatch.setattr(megt.evolve, "_usable_cpus", lambda: 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        squares = _map(square, list(range(2000)), jobs=None)
    finally:
        sys.setswitchinterval(interval)
    assert squares == [item * item for item in range(2000)]
    assert sorted(seen) == list(range(2000))


def test_the_first_failure_is_the_one_a_sequential_sweep_raises(
        monkeypatch):
    # task 2 * cell + replica; task 2 raises first, while tasks 0 and 1
    # still run, and task 1, the lowest that fails, raises after it
    raised = threading.Event()
    started = []
    original = megt.evolve.run

    def failing(config, *, cell_index, replica_index):
        task = 2 * cell_index + replica_index
        started.append(task)
        if task == 2:
            raised.set()
            raise ValueError("task 2")
        assert raised.wait(timeout=30)
        time.sleep(0.05)  # task 2's failure is recorded meanwhile
        if task == 1:
            raise RuntimeError("task 1")
        return original(config, cell_index=cell_index,
                        replica_index=replica_index)

    monkeypatch.setattr(megt.evolve, "_usable_cpus", lambda: 3)
    monkeypatch.setattr(megt.evolve, "run", failing)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="task 1"):
        sweep_ts(grid_config(), [0.6, 1.4], [-0.4, 0.4])
    # no thread took a task after task 2 raised, and none is left
    assert sorted(started) == [0, 1, 2]
    assert threading.active_count() == before


@pytest.mark.parametrize("jobs, tasks, cpus, expected", [
    (1000, 25, 4, 4),
    (3, 25, 4, 3),
    (8, 2, 4, 2),
    (0, 5, 4, 1),
    (-2, 5, 4, 1),
    (8, 5, 1, 1),
    (None, 25, 4, 4),
    (None, 2, 4, 2),
])
def test_worker_count_is_clamped(monkeypatch, jobs, tasks, cpus, expected):
    # the run threads: no more than the CPUs, the tasks or the cap, and
    # at least one
    monkeypatch.setattr(megt.evolve, "_usable_cpus", lambda: cpus)
    assert run_threads(jobs, tasks) == expected


def test_usable_cpus_follow_the_affinity_mask(monkeypatch):
    if hasattr(os, "sched_getaffinity"):
        assert _usable_cpus() == len(os.sched_getaffinity(0))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5})
        assert _usable_cpus() == 3
        monkeypatch.delattr(os, "sched_getaffinity")
    for count, usable in ((6, 6), (None, 1)):
        monkeypatch.setattr(os, "cpu_count", lambda: count)
        assert _usable_cpus() == usable


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_trajectory_csv_round_trip(tmp_path):
    config = SimulationConfig(game=representative("hg"),
                              spec=small_spec(seed=3, n=20),
                              max_rounds=50, steady_window=10, rng_seed=1)
    result = run(config)
    path = tmp_path / "rho.csv"
    write_trajectory_csv(result.trajectory, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "round,rho"
    values = [float(line.split(",")[1]) for line in lines[1:]]
    assert values == result.trajectory.rho


def test_grid_csv_format(tmp_path):
    grid = sweep_ts(grid_config(), [0.5], [0.5])
    path = tmp_path / "grid.csv"
    write_grid_csv(grid, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "T,S,rho_mean,rho_std,replicas"
    t, s, mu, sd, reps = lines[1].split(",")
    assert (float(t), float(s)) == (0.5, 0.5)
    assert float(mu) == grid.rho_mean[0, 0]
    assert int(reps) == 2


def test_state_text_round_trip(tmp_path):
    config = SimulationConfig(game=representative("sd"),
                              spec=small_spec(seed=3, n=20),
                              max_rounds=50, steady_window=10, rng_seed=6)
    result = run(config)
    path = tmp_path / "state.txt"
    write_state_text(result.state, path)
    header, *layers, coop = path.read_text(encoding="ascii").splitlines()
    m, n = result.state.strategies.shape
    assert header.split() == ["state", "v1", str(n), str(m),
                              str(result.state.round_index)]
    strategies = np.array([[1 if ch == "C" else 0 for ch in line.split()[2]]
                           for line in layers], dtype=np.int8)
    assert [line.split()[:2] for line in layers] == [
        ["layer", str(alpha)] for alpha in range(m)]
    assert np.array_equal(strategies, result.state.strategies)
    assert coop.split()[0] == "coop"
    assert np.array_equal(np.array(coop.split()[1:], dtype=np.int64),
                          result.state.coop_count)
