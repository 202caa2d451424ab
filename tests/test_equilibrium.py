import dataclasses
import tracemalloc
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from megt.equilibrium import (PROJECTION_RULES, EquilibriumTracker,
                              nash_report, write_alpha_csv)
from megt.evolve import (RoundEngine, ScalingTable, SimulationConfig,
                         _dynamics_rng, init_state, run)
from megt.games import COOPERATE, DEFECT, PayoffMatrix, from_ts, representative
from megt.kernel import KernelError
from megt.netgen import LayerTopology, MultiplexSpec, build_multiplex

from oracles import (dense_adjacency, dense_nash_counts,
                     multiplex_from_arrays, project_strategies,
                     reference_round, reference_run, table_communicability)

PD = PayoffMatrix(reward=1.0, sucker=-0.5, temptation=1.5, punishment=0.0)
HG = PayoffMatrix(reward=1.0, sucker=0.5, temptation=0.5, punishment=0.0)
# from_ts(1, 0) leaves every node indifferent, so every Nash pair is
# weak; under from_ts(1.5, 0) only nodes without a cooperating neighbour are
GAMES = [representative(kind) for kind in ("pd", "sd", "sh", "hg")]
GAMES += [from_ts(1.0, 0.0), from_ts(1.5, 0.0)]


# ---------------------------------------------------------------------------
# per-edge oracle, written from the definitions; round.c's counter,
# which EquilibriumTracker.evaluate calls, is the compiled form of
# nash_counts.  The oracle reads a network's distances and its dense
# layers, built once per network by ``dense``.
# ---------------------------------------------------------------------------

class Dense(NamedTuple):
    delta: np.ndarray
    layers: list


def dense(network):
    return Dense(network.delta, dense_adjacency(network))


def union_neighbours(node, net):
    return [j for j in range(net.delta.shape[0])
            if any(a[node, j] for a in net.layers)]


def union_edges(net):
    return [(i, j) for i in range(net.delta.shape[0])
            for j in union_neighbours(i, net) if i < j]


def local_frequency(node, strategies_1d, net):
    """``sum_j h_ij [s_j cooperates] / k_i`` over the node's neighbours
    on the union of the layers, with ``h_ij = 1 / (1 + delta_ij)``; 0 for
    an isolated node."""
    neighbours = union_neighbours(node, net)
    if not neighbours:
        return 0.0
    mass = sum(1.0 / (1.0 + net.delta[node, j]) for j in neighbours
               if strategies_1d[j] == COOPERATE)
    return mass / len(neighbours)


class Response(NamedTuple):
    coop_frequency: float
    advantage: float
    best: frozenset

    @property
    def indifferent(self):
        return len(self.best) == 2


def best_response(node, strategies_1d, net, game):
    """Payoff gain of cooperating over defecting against the node's
    cooperator frequency f, and the strategies that do best."""
    f = local_frequency(node, strategies_1d, net)
    advantage = (f * (game.reward - game.temptation)
                 + (1 - f) * (game.sucker - game.punishment))
    if advantage > 0:
        best = frozenset({COOPERATE})
    elif advantage < 0:
        best = frozenset({DEFECT})
    else:
        best = frozenset({COOPERATE, DEFECT})
    return Response(f, advantage, best)


def is_nash_pair(i, j, strategies_1d, net, game):
    """(both endpoints play a best response, and one is indifferent)."""
    if j not in union_neighbours(i, net):
        raise ValueError(f"({i}, {j}) is not a union edge")
    lhs = best_response(i, strategies_1d, net, game)
    rhs = best_response(j, strategies_1d, net, game)
    ok = strategies_1d[i] in lhs.best and strategies_1d[j] in rhs.best
    return ok, ok and (lhs.indifferent or rhs.indifferent)


def nash_counts(projected, net, game):
    """(Nash pairs, weak Nash pairs, union edges) of a projected profile."""
    edges = union_edges(net)
    flags = [is_nash_pair(i, j, projected, net, game) for i, j in edges]
    return (sum(ok for ok, _ in flags), sum(weak for _, weak in flags),
            len(edges))


def graph(n, edges, delta=None):
    adj = np.zeros((n, n), dtype=np.int8)
    for i, j in edges:
        adj[i, j] = adj[j, i] = 1
    if delta is None:
        delta = np.zeros((n, n))
    return multiplex_from_arrays([adj], delta)


def clique(n):
    return graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


# ---------------------------------------------------------------------------
# projection
# ---------------------------------------------------------------------------

def test_projection_majority_and_tie_rules():
    strategies = np.array([[1, 0, 1, 0],
                           [1, 0, 0, 1]], dtype=np.int8)
    assert project_strategies(strategies, "majority_tie_c").tolist() == \
        [1, 0, 1, 1]
    assert project_strategies(strategies, "majority_tie_d").tolist() == \
        [1, 0, 0, 0]


def test_projection_single_layer_is_identity():
    strategies = np.array([[1, 0, 1]], dtype=np.int8)
    assert project_strategies(strategies).tolist() == [1, 0, 1]


def test_projection_rejects_unknown_rule():
    with pytest.raises(ValueError):
        project_strategies(np.zeros((2, 3)), "mean")


# ---------------------------------------------------------------------------
# local frequency
# ---------------------------------------------------------------------------

def test_all_cooperating_neighbours_full_homophily():
    net = graph(3, [(0, 1), (0, 2)])
    assert local_frequency(0, np.array([0, 1, 1]), dense(net)) == 1.0


def test_no_cooperating_neighbours():
    net = graph(3, [(0, 1), (0, 2)])
    assert local_frequency(0, np.array([1, 0, 0]), dense(net)) == 0.0


def test_weighted_frequency_quarter():
    # one cooperating neighbour at homophily 0.5 out of two neighbours
    delta = np.zeros((3, 3))
    delta[0, 1] = delta[1, 0] = 1.0  # h = 1/(1+1) = 0.5
    net = dense(graph(3, [(0, 1), (0, 2)], delta))
    assert local_frequency(0, np.array([0, 1, 0]), net) == pytest.approx(0.25)


def test_frequency_stays_in_unit_interval():
    rng = np.random.default_rng(5)
    spec = MultiplexSpec(node_count=25, layer_count=2,
                         topologies=(LayerTopology.er(0.2),
                                     LayerTopology.er(0.2)),
                         homophily_sigma=2.0, rng_seed=1)
    net = dense(build_multiplex(spec))
    strategies = rng.integers(0, 2, size=25)
    for node in range(25):
        assert 0.0 <= local_frequency(node, strategies, net) <= 1.0


def test_isolated_node_frequency_is_zero():
    net = graph(3, [(0, 1)])
    assert local_frequency(2, np.array([1, 1, 1]), dense(net)) == 0.0


# ---------------------------------------------------------------------------
# best response
# ---------------------------------------------------------------------------

def test_harmony_prefers_cooperation_in_cooperative_surroundings():
    net = graph(2, [(0, 1)])
    response = best_response(0, np.array([1, 1]), dense(net), HG)
    assert response.coop_frequency == 1.0
    assert response.advantage == pytest.approx(0.5)  # reward - temptation
    assert response.best == frozenset({1})


def test_dilemma_prefers_defection_against_defectors():
    net = graph(2, [(0, 1)])
    response = best_response(0, np.array([0, 0]), dense(net), PD)
    assert response.coop_frequency == 0.0
    assert response.advantage == pytest.approx(-0.5)  # sucker - punishment
    assert response.best == frozenset({0})
    assert not response.indifferent


def test_zero_advantage_accepts_both():
    # sucker == punishment makes a defecting neighbourhood indifferent
    game = PayoffMatrix(reward=1.0, sucker=0.0, temptation=1.5,
                        punishment=0.0)
    net = graph(2, [(0, 1)])
    response = best_response(0, np.array([0, 0]), dense(net), game)
    assert response.advantage == 0.0
    assert response.best == frozenset({0, 1})
    assert response.indifferent


# ---------------------------------------------------------------------------
# nash pairs
# ---------------------------------------------------------------------------

def test_mutual_defection_is_nash_in_dilemma():
    net = graph(2, [(0, 1)])
    ok, weak = is_nash_pair(0, 1, np.array([0, 0]), dense(net), PD)
    assert ok and not weak


def test_harmony_clique_of_cooperators_is_all_nash():
    net = dense(clique(4))
    strategies = np.ones(4, dtype=np.int8)
    for i in range(4):
        for j in range(i + 1, 4):
            ok, weak = is_nash_pair(i, j, strategies, net, HG)
            assert ok and not weak


def test_cooperating_pair_in_dilemma_is_not_nash():
    net = graph(2, [(0, 1)])
    ok, _ = is_nash_pair(0, 1, np.array([1, 1]), dense(net), PD)
    assert not ok


def test_weak_pair_flagged_on_indifference():
    game = PayoffMatrix(reward=1.0, sucker=0.0, temptation=1.5,
                        punishment=0.0)
    net = graph(2, [(0, 1)])
    ok, weak = is_nash_pair(0, 1, np.array([0, 0]), dense(net), game)
    assert ok and weak


def test_non_edges_are_rejected():
    net = graph(3, [(0, 1)])
    with pytest.raises(ValueError):
        is_nash_pair(0, 2, np.array([0, 0, 0]), dense(net), PD)


# ---------------------------------------------------------------------------
# density reports
# ---------------------------------------------------------------------------

def test_all_cooperators_harmony_alpha_one():
    net = clique(5)
    report = nash_report(np.ones((1, 5), dtype=np.int8), net, HG)
    assert report.alpha == 1.0
    assert report.edge_count == 10
    assert report.weak_fraction == 0.0


def test_all_cooperators_dilemma_alpha_zero():
    net = clique(5)
    report = nash_report(np.ones((1, 5), dtype=np.int8), net, PD)
    assert report.alpha == 0.0


def test_half_the_edges_nash():
    # two disjoint pairs: a defecting pair (Nash in a dilemma) and a
    # cooperating pair (not Nash)
    net = graph(4, [(0, 1), (2, 3)])
    report = nash_report(np.array([[0, 0, 1, 1]], dtype=np.int8), net, PD)
    assert report.alpha == 0.5
    assert report.pair_count == 1
    assert report.edge_count == 2


def test_alpha_invariant_under_positive_payoff_scaling():
    spec = MultiplexSpec(node_count=30, layer_count=2,
                         topologies=(LayerTopology.sf(2),
                                     LayerTopology.er(0.15)),
                         homophily_sigma=1.0, rng_seed=3)
    net = build_multiplex(spec)
    rng = np.random.default_rng(0)
    for _ in range(5):
        strategies = rng.integers(0, 2, size=(2, 30)).astype(np.int8)
        base = nash_report(strategies, net, PD)
        scaled = nash_report(strategies, net, PayoffMatrix(
            *(3.7 * value for value in dataclasses.astuple(PD))))
        assert scaled.alpha == base.alpha
        assert scaled.weak_fraction == base.weak_fraction


@pytest.mark.parametrize("layer_count", [2, 3])
def test_tracker_counts_match_per_node_nash_pairs(layer_count):
    rng = np.random.default_rng(layer_count)
    for seed in range(3):
        spec = MultiplexSpec(node_count=30, layer_count=layer_count,
                             topologies=(LayerTopology.er(0.15),)
                             * layer_count,
                             homophily_sigma=1.0, rng_seed=seed)
        net = build_multiplex(spec)
        layers = dense(net)
        edges = union_edges(layers)
        for _ in range(2):
            strategies = rng.integers(
                0, 2, size=(layer_count, 30)).astype(np.int8)
            for projection in ("majority_tie_c", "majority_tie_d"):
                projected = project_strategies(strategies, projection)
                for game in GAMES:
                    pairs = weak = 0
                    for i, j in edges:
                        ok, is_weak = is_nash_pair(i, j, projected, layers,
                                                   game)
                        pairs += ok
                        weak += is_weak
                    report = EquilibriumTracker(
                        net, game, projection).evaluate(strategies)
                    assert report.pair_count == pairs
                    assert report.weak_count == weak
                    assert report.edge_count == len(edges)


@st.composite
def small_multiplexes(draw):
    """2-3 layers on 3-7 nodes that are not all the same, so some union
    edges lie on one layer only; isolated nodes are allowed.  Distances
    give the dyadic homophilies 1, 1/2, 1/4 and 1/8, so every frequency
    is exact in any summation order and ties compare exactly."""
    n = draw(st.integers(3, 7))
    m = draw(st.integers(2, 3))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    present = [draw(st.lists(st.booleans(), min_size=len(pairs),
                             max_size=len(pairs))) for _ in range(m)]
    assume(any(map(any, present)))
    assume(any(layer != present[0] for layer in present))
    distances = draw(st.lists(st.sampled_from([0.0, 1.0, 3.0, 7.0]),
                              min_size=len(pairs), max_size=len(pairs)))
    adjacency = [np.zeros((n, n), dtype=np.int8) for _ in range(m)]
    delta = np.zeros((n, n))
    for k, (i, j) in enumerate(pairs):
        delta[i, j] = delta[j, i] = distances[k]
        for layer, adj in zip(present, adjacency):
            adj[i, j] = adj[j, i] = layer[k]
    strategies = draw(st.lists(st.integers(0, 1), min_size=m * n,
                               max_size=m * n))
    return (multiplex_from_arrays(adjacency, delta),
            np.array(strategies, dtype=np.int8).reshape(m, n))


@settings(max_examples=60, deadline=None)
@given(small_multiplexes())
def test_tracker_matches_oracle_on_small_multiplexes(case):
    net, strategies = case
    oracle = dense(net)
    for projection in ("majority_tie_c", "majority_tie_d"):
        projected = project_strategies(strategies, projection)
        for game in GAMES:
            report = EquilibriumTracker(net, game,
                                        projection).evaluate(strategies)
            assert (report.pair_count, report.weak_count,
                    report.edge_count) == nash_counts(projected, oracle,
                                                      game)
            # the dyadic homophilies sum exactly in any order
            assert (report.pair_count, report.weak_count) == \
                dense_nash_counts(net, game, projected)


def test_edgeless_network_is_an_error():
    net = graph(3, [])
    with pytest.raises(ValueError):
        nash_report(np.zeros((1, 3), dtype=np.int8), net, PD)


def test_per_layer_projection_averages_layer_profiles():
    net = clique(4)
    # a defecting layer (every edge Nash in a dilemma) over a
    # cooperating layer (no edge Nash)
    strategies = np.array([[0, 0, 0, 0], [1, 1, 1, 1]], dtype=np.int8)
    report = nash_report(strategies, net, PD, projection="per_layer")
    assert report.alpha == 0.5
    assert report.edge_count == 12  # six aggregated edges on each layer


def test_tie_rule_changes_the_projected_profile():
    net = graph(2, [(0, 1)])
    strategies = np.array([[1, 1], [0, 0]], dtype=np.int8)
    coop_view = nash_report(strategies, net, PD, "majority_tie_c")
    defect_view = nash_report(strategies, net, PD, "majority_tie_d")
    assert coop_view.alpha == 0.0
    assert defect_view.alpha == 1.0


def test_evaluate_reads_a_table_of_any_memory_layout():
    # the kernel reads a C-ordered table, whatever the caller passes
    net = build_multiplex(MultiplexSpec(
        node_count=30, layer_count=3, topologies=(LayerTopology.er(0.2),) * 3,
        homophily_sigma=1.0, rng_seed=1))
    columns = np.random.default_rng(0).integers(0, 2, (30, 3)).astype(np.int8)
    for projection in PROJECTION_RULES:
        tracker = EquilibriumTracker(net, representative("sd"), projection)
        assert tracker.evaluate(columns.T) == tracker.evaluate(
            np.ascontiguousarray(columns.T))


def test_scoring_a_profile_needs_the_kernel(without_cc):
    # megt's one Nash counter is round.c's
    with pytest.raises(KernelError, match="no C compiler"):
        nash_report(np.ones((1, 5), dtype=np.int8), clique(5), HG)


def test_tracker_rejects_unknown_projection():
    with pytest.raises(ValueError):
        EquilibriumTracker(clique(3), PD, projection="average")


# ---------------------------------------------------------------------------
# round-by-round tracking
# ---------------------------------------------------------------------------

def test_observer_records_every_round():
    spec = MultiplexSpec(node_count=20, layer_count=2,
                         topologies=(LayerTopology.er(0.2),
                                     LayerTopology.er(0.2)),
                         homophily_sigma=1.0, rng_seed=2)
    net = build_multiplex(spec)
    tracker = EquilibriumTracker(net, representative("sd"))
    config = SimulationConfig(game=representative("sd"), network=net,
                              max_rounds=40, steady_window=10, rng_seed=3)
    result = run(config, tracker=tracker)
    rounds = [entry[0] for entry in tracker.history]
    assert rounds == list(range(result.trajectory.rounds + 1))
    assert all(0.0 <= alpha <= 1.0 for _, alpha, _ in tracker.history)
    assert all(weak <= alpha for _, alpha, weak in tracker.history)


def test_a_tracked_run_evaluates_only_its_initial_state(monkeypatch):
    # every later round's Nash pairs are counted inside the kernel's call
    net = build_multiplex(MultiplexSpec(
        node_count=20, layer_count=2, topologies=(LayerTopology.er(0.2),) * 2,
        homophily_sigma=1.0, rng_seed=2))
    tracker = EquilibriumTracker(net, representative("sd"))
    evaluated = []
    evaluate = EquilibriumTracker.evaluate
    monkeypatch.setattr(EquilibriumTracker, "evaluate",
                        lambda self, strategies: evaluated.append(1)
                        or evaluate(self, strategies))
    config = SimulationConfig(game=representative("sd"), network=net,
                              max_rounds=40, steady_window=10, rng_seed=3)
    result = run(config, tracker=tracker)
    assert result.trajectory.rounds > 0
    assert len(evaluated) == 1
    assert len(tracker.history) == result.trajectory.rounds + 1


def test_tracked_run_counts_match_the_per_edge_oracle():
    # each round's strategies come from the Python run oracle, which
    # gives the same trajectory as a run in the compiled kernel; an even
    # layer count lets the majority rules tie
    net = build_multiplex(MultiplexSpec(
        node_count=16, layer_count=4, topologies=(LayerTopology.er(0.2),) * 4,
        homophily_sigma=1.0, rng_seed=4))
    oracle = dense(net)
    for game in GAMES:
        config = SimulationConfig(game=game, network=net, max_rounds=6,
                                  steady_window=3, rng_seed=1)
        seen = []
        reference_run(config, tables=seen)
        for projection in PROJECTION_RULES:
            expected = []
            for k, strategies in enumerate(seen):
                profiles = (strategies if projection == "per_layer"
                            else [project_strategies(strategies, projection)])
                counts = [nash_counts(play, oracle, game)
                          for play in profiles]
                edges = sum(c[2] for c in counts)
                expected.append((k, sum(c[0] for c in counts) / edges,
                                 sum(c[1] for c in counts) / edges))
            tracker = EquilibriumTracker(net, game, projection)
            run(config, tracker=tracker)
            assert tracker.history == expected, (game, projection)


def dyadic_multiplex(n, m, seed):
    """ER layers of edge probability 0.08, whose isolated slots never
    change strategy, over distances whose homophilies 1, 1/2, 1/4 and
    1/8 make every frequency exact in any summation order, so that ties
    compare exactly."""
    rng = np.random.default_rng(seed)
    adjacency = []
    for _ in range(m):
        upper = np.triu(rng.random((n, n)) < 0.08, 1)
        adjacency.append((upper | upper.T).astype(np.int8))
    delta = np.triu(rng.choice([0.0, 1.0, 3.0, 7.0], (n, n)), 1)
    return multiplex_from_arrays(adjacency, delta + delta.T)


@pytest.mark.parametrize("layer_count, seed", [(3, 4), (4, 7)])
def test_long_tracked_runs_count_as_the_per_edge_oracle(layer_count, seed):
    # a run keeps its flags and counts and moves them where a flag
    # changed, for rounds on end; each round's table comes from
    # RoundEngine.round, which makes the run's rounds one by one.
    # Isolated slots of both strategies keep every run from absorbing;
    # at these seeds the snowdrift run's counts still move after round 140
    net = dyadic_multiplex(30, layer_count, seed)
    edge_count = EquilibriumTracker(net, PD).edge_count
    rounds = 150
    late_moves = 0
    for game in GAMES:
        config = SimulationConfig(game=game, network=net, max_rounds=rounds,
                                  steady_window=rounds, rng_seed=2)
        engine = RoundEngine(net, game, ScalingTable(net, 0.5), config)
        state = init_state(net, config.initial_coop_fraction,
                           _dynamics_rng(config, 0, 0))
        tables = [state.strategies]
        for _ in range(rounds):
            engine.round(state)
            tables.append(state.strategies)
        for projection in PROJECTION_RULES:
            expected = []
            for k, strategies in enumerate(tables):
                profiles = (strategies if projection == "per_layer"
                            else [project_strategies(strategies, projection)])
                pairs, weak = np.sum([dense_nash_counts(net, game, play)
                                      for play in profiles], axis=0)
                edges = edge_count * len(profiles)
                expected.append((k, pairs / edges, weak / edges))
            tracker = EquilibriumTracker(net, game, projection)
            result = run(config, tracker=tracker)
            assert result.trajectory.stop_reason == "budget"
            assert tracker.history == expected, (game, projection)
            late_moves += len({row[1:] for row in tracker.history[-11:]}) > 1
    assert late_moves > 0


def test_a_second_tracked_run_on_an_engine_counts_afresh():
    # the engine's held flags and counts are the first run's until the
    # second run clears them
    net = dyadic_multiplex(30, 3, 3)
    game = representative("sd")
    config = SimulationConfig(game=game, network=net, max_rounds=40,
                              steady_window=40, rng_seed=2)
    engine = RoundEngine(net, game, ScalingTable(net, 0.5), config)
    for projection in PROJECTION_RULES:
        engine.run(init_state(net, 0.5, np.random.default_rng(1)),
                   EquilibriumTracker(net, game, projection))
        again, fresh = (EquilibriumTracker(net, game, projection)
                        for _ in range(2))
        engine.run(init_state(net, 0.5, np.random.default_rng(2)), again)
        RoundEngine(net, game, engine.table, config).run(
            init_state(net, 0.5, np.random.default_rng(2)), fresh)
        assert again.history == fresh.history


@pytest.mark.parametrize("projection", PROJECTION_RULES)
def test_rounds_after_a_tracked_run_count_nothing(projection):
    # a round is a one-round megt_run on the engine that the run bound
    # to the tracker; it must neither count into the run's Nash rows nor
    # move its draws or steps off the plain round's
    net = dyadic_multiplex(30, 3, 3)
    game = representative("sd")
    config = SimulationConfig(game=game, network=net, max_rounds=40,
                              steady_window=40, rng_seed=2)
    engine = RoundEngine(net, game, ScalingTable(net, 0.5), config)
    tracker = EquilibriumTracker(net, game, projection)
    state = init_state(net, 0.5, np.random.default_rng(1))
    assert engine.run(state, tracker)[2] == "budget"
    history = list(tracker.history)
    counts = [engine._buffers[name].copy()
              for name in ("pair_count", "weak_count")]
    slow = dataclasses.replace(state, strategies=state.strategies.copy(),
                               coop_count=state.coop_count.copy(),
                               rng=np.random.default_rng(0))
    slow.rng.bit_generator.state = state.rng.bit_generator.state
    comm = table_communicability(engine.table, net)
    adoptions = engine.adoptions
    for _ in range(5):
        value, adopted = reference_round(slow, net, comm, config)
        adoptions += adopted
        assert engine.round(state) == value
    assert tracker.history == history
    assert all(np.array_equal(engine._buffers[name], held) for name, held
               in zip(("pair_count", "weak_count"), counts))
    assert np.array_equal(state.strategies, slow.strategies)
    assert np.array_equal(state.coop_count, slow.coop_count)
    assert state.round_index == slow.round_index == 45
    assert engine.adoptions == adoptions
    assert state.rng.bit_generator.state == slow.rng.bit_generator.state


def test_tracker_of_another_network_size_is_refused():
    net = build_multiplex(MultiplexSpec(
        node_count=20, layer_count=2, topologies=(LayerTopology.er(0.2),) * 2,
        homophily_sigma=1.0, rng_seed=2))
    tracker = EquilibriumTracker(clique(5), PD)
    config = SimulationConfig(game=PD, network=net, max_rounds=5,
                              steady_window=2, rng_seed=3)
    with pytest.raises(ValueError, match="node count"):
        run(config, tracker=tracker)


def test_tracker_holds_no_dense_square():
    n = 2000
    net = build_multiplex(MultiplexSpec(
        node_count=n, layer_count=2, topologies=(LayerTopology.sf(2),) * 2,
        homophily_sigma=1.0, rng_seed=1))
    tracemalloc.start()
    try:
        tracker = EquilibriumTracker(net, PD)
        tracker.evaluate(np.ones((2, n), dtype=np.int8))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * n


def test_alpha_csv_format(tmp_path):
    path = tmp_path / "alpha.csv"
    write_alpha_csv([(0, 0.5, 0.0), (1, 0.75, 0.25)], path)
    lines = path.read_text().splitlines()
    assert lines[0] == "round,alpha,weak_fraction"
    assert lines[1] == "0,0.5,0.0"
    assert lines[2] == "1,0.75,0.25"
