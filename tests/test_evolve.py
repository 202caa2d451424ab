import ast
import copy
import dataclasses
import math
import subprocess
import sys

import numpy as np
import pytest

import megt.comm
import megt.evolve
from megt.comm import ScalingBounds, communicability, scaling_factor
from megt.evolve import (DISTANCE_FLOOR, RoundEngine, ScalingTable,
                         SimulationConfig, accumulate_payoffs, density,
                         fermi_probability, init_state, read_state_text, run,
                         run_replicas, sweep_ts, write_grid_csv,
                         write_state_text, write_trajectory_csv)
from megt.evolve import _worker_count
from megt.games import (COOPERATE, PayoffMatrix, from_ts, pd_from_bc,
                        representative)
from megt.netgen import (LayerTopology, MultiplexNetwork, MultiplexSpec,
                         build_multiplex, multiplex_from_arrays)

from conftest import megt_env


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
    with pytest.raises(ValueError):
        fermi_probability(0.0, 1.0, 1.0, 0.0)


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


def test_payoffs_written_back_into_state():
    net = line_graph(4)
    state = init_state(net, 1.0, np.random.default_rng(0))
    out = accumulate_payoffs(state, net, PayoffMatrix(1, 0, 1, 0))
    assert out is state.payoffs


# ---------------------------------------------------------------------------
# round engine
# ---------------------------------------------------------------------------

def engine_for(net, game, config):
    comm = communicability(net, config.interlayer_strength)
    return RoundEngine(net, game, ScalingTable(net, comm), config)


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


def reference_round(state, net, comm, config):
    """One Monte Carlo round written plainly from the oracles
    ``scaling_factor`` and ``fermi_probability``, drawing from the RNG in
    the same order as ``RoundEngine.round``."""
    n = net.node_count
    nm = n * net.layer_count
    payoffs = accumulate_payoffs(state, net, config.game,
                                 config.payoff_weights)
    neighbours = net.neighbour_lists()
    rng = state.rng
    picks = rng.integers(0, nm, nm)
    u_neighbour = rng.random(nm)
    u_adopt = rng.random(nm)
    strategies = state.strategies
    for t in range(nm):
        alpha, i = divmod(int(picks[t]), n)
        while not neighbours[alpha][i]:
            alpha, i = divmod(int(rng.integers(nm)), n)
        options = neighbours[alpha][i]
        j = options[int(u_neighbour[t] * len(options))]
        if strategies[alpha, i] == strategies[alpha, j]:
            continue
        scaling = scaling_factor(i, alpha, comm, strategies, net,
                                 config.scaling_bounds)
        prob = fermi_probability(payoffs[alpha, i], payoffs[alpha, j],
                                 net.delta[i, j],
                                 config.selection_intensity, scaling)
        if u_adopt[t] < prob:
            strategies[alpha, i] = strategies[alpha, j]
    state.coop_count += (
        (strategies == COOPERATE) * net.layer_degrees()).sum(axis=0)
    state.round_index += 1
    return density(state)


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


@pytest.mark.parametrize("seed, p, game, bounds, kappa, weights",
                         REFERENCE_CASES,
                         ids=[f"seed{case[0]}" for case in REFERENCE_CASES])
def test_round_engine_matches_reference_round(seed, p, game, bounds, kappa,
                                              weights):
    spec = MultiplexSpec(node_count=25, layer_count=3,
                         topologies=(LayerTopology.er(p),) * 3,
                         homophily_sigma=1.0, rng_seed=seed)
    net = build_multiplex(spec)
    if p < 0.05:
        assert any(not nbrs for layer in net.neighbour_lists()
                   for nbrs in layer)
    config = SimulationConfig(game=representative(game), network=net,
                              scaling_bounds=bounds,
                              selection_intensity=kappa,
                              payoff_weights=weights)
    comm = communicability(net, config.interlayer_strength)
    engine = RoundEngine(net, config.game, ScalingTable(net, comm), config)
    fast = init_state(net, 0.5, np.random.default_rng(seed))
    slow = init_state(net, 0.5, np.random.default_rng(seed))
    for _ in range(30):
        assert engine.round(fast) == reference_round(slow, net, comm, config)
        assert np.array_equal(fast.strategies, slow.strategies)
    assert np.array_equal(fast.coop_count, slow.coop_count)


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


EDGELESS_RUN = """
from megt.evolve import SimulationConfig, run
from megt.games import representative
from megt.netgen import LayerTopology, MultiplexSpec
spec = MultiplexSpec(node_count=10, layer_count=2,
                     topologies=(LayerTopology.er(0.0),) * 2,
                     homophily_sigma=1.0, rng_seed=3)
t = run(SimulationConfig(game=representative("sd"), spec=spec,
                         max_rounds=50, steady_window=10)).trajectory
print(repr((t.rho, t.steady_rho, t.converged)))
"""


def test_edgeless_multiplex_is_absorbing():
    # no slot has a neighbour to imitate; run in a child with a timeout so
    # that a hang fails the test instead of stalling the suite
    proc = subprocess.run([sys.executable, "-c", EDGELESS_RUN],
                          capture_output=True, text=True, env=megt_env(),
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    rho, steady, converged = ast.literal_eval(proc.stdout.strip())
    assert len(rho) == 1
    assert steady == rho[0]
    assert converged is True


def test_on_round_hook_sees_every_round():
    seen = []
    config = SimulationConfig(game=representative("hg"),
                              spec=small_spec(seed=3, n=20),
                              max_rounds=50, steady_window=10, rng_seed=1)
    run(config, on_round=lambda k, state: seen.append(k))
    assert seen[0] == 0
    assert seen == list(range(len(seen)))


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
    sequential = run_replicas(config)
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
    sequential = sweep_ts(grid_config(), [0.6, 1.4], [-0.4, 0.4])
    parallel = sweep_ts(grid_config(), [0.6, 1.4], [-0.4, 0.4], jobs=2)
    assert np.array_equal(sequential.rho_mean, parallel.rho_mean)
    assert np.array_equal(sequential.rho_std, parallel.rho_std)


def test_grid_cells_are_position_seeded():
    # a cell's result must not depend on what other cells are in the grid
    full = sweep_ts(grid_config(), [0.6, 1.4], [-0.4, 0.4])
    single = sweep_ts(grid_config(), [0.6], [-0.4])
    assert single.rho_mean[0, 0] == full.rho_mean[0, 0]


def test_sweep_on_a_prebuilt_network_computes_communicability_once(
        monkeypatch):
    calls = []
    list_calls = []
    engines = []

    def counting_exp(matrix):
        calls.append(matrix.shape)
        return original_exp(matrix)

    def counting_lists(network):
        list_calls.append(network)
        return original_lists(network)

    def recording_init(engine, *args):
        original_init(engine, *args)
        engines.append(engine)

    original_exp = megt.comm.matrix_exp
    original_lists = MultiplexNetwork.neighbour_lists
    original_init = RoundEngine.__init__
    monkeypatch.setattr(megt.comm, "matrix_exp", counting_exp)
    monkeypatch.setattr(MultiplexNetwork, "neighbour_lists", counting_lists)
    monkeypatch.setattr(RoundEngine, "__init__", recording_init)
    net = build_multiplex(small_spec(seed=9, n=20))
    config = dataclasses.replace(grid_config(), spec=None, network=net)
    t_values = [0.0, 0.5, 1.0, 1.5, 2.0]
    s_values = [-1.0, -0.5, 0.0, 0.5, 1.0]
    grid = sweep_ts(config, t_values, s_values)
    assert len(calls) == 1
    assert len(list_calls) == 1
    # the per-network tables live in the shared ScalingTable: no engine
    # holds an N-long list of N-long lists
    assert len(engines) == 25 * config.replicas
    for engine in engines:
        for value in vars(engine).values():
            assert not (isinstance(value, list) and len(value) == 20
                        and all(isinstance(row, list) and len(row) == 20
                                for row in value))

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
    assert len(list_calls) == 1 + 25
    assert np.array_equal(grid.rho_mean, mean)
    assert np.array_equal(grid.rho_std, std)


@pytest.mark.parametrize("jobs, tasks, cpus, expected", [
    (1000, 25, 4, 4),
    (3, 25, 4, 3),
    (8, 2, 4, 2),
    (0, 5, 4, 1),
    (-2, 5, 4, 1),
    (8, 5, None, 1),
])
def test_worker_count_is_clamped(monkeypatch, jobs, tasks, cpus, expected):
    monkeypatch.setattr(megt.evolve.os, "cpu_count", lambda: cpus)
    assert _worker_count(jobs, tasks) == expected


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
    back = read_state_text(path)
    assert np.array_equal(back.strategies, result.state.strategies)
    assert np.array_equal(back.coop_count, result.state.coop_count)
    assert back.round_index == result.state.round_index


def test_state_text_rejects_garbage(tmp_path):
    path = tmp_path / "state.txt"
    path.write_text("nonsense\n")
    with pytest.raises(ValueError):
        read_state_text(path)
