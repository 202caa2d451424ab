import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from megt.comm import (Communicability, ScalingBounds, _cross_neighbourhood,
                       build_supra, communicability, matrix_exp,
                       scaling_factor)
from megt.evolve import DISTANCE_FLOOR, ScalingTable
from megt.netgen import (LayerTopology, MultiplexSpec, build_multiplex,
                         multiplex_from_arrays)

COSH_1 = 1.5430806348152437
SINH_1 = 1.1752011936438014


def pair_layers(n, edges_per_layer):
    """Multiplex from explicit per-layer edge lists, all distances zero."""
    adjacency = []
    for edges in edges_per_layer:
        adj = np.zeros((n, n), dtype=np.int8)
        for i, j in edges:
            adj[i, j] = adj[j, i] = 1
        adjacency.append(adj)
    return multiplex_from_arrays(adjacency, np.zeros((n, n)))


def random_multiplex(seed, n=5):
    spec = MultiplexSpec(node_count=n, layer_count=2,
                         topologies=(LayerTopology.er(0.5),
                                     LayerTopology.er(0.5)),
                         homophily_sigma=1.5, rng_seed=seed)
    return build_multiplex(spec)


# ---------------------------------------------------------------------------
# supra-matrix assembly
# ---------------------------------------------------------------------------

def test_supra_pure_interlayer_coupling():
    net = pair_layers(2, [[], []])
    supra = build_supra(net, 1.0)
    expected = np.array([[0, 0, 1, 0],
                         [0, 0, 0, 1],
                         [1, 0, 0, 0],
                         [0, 1, 0, 0]], dtype=float)
    assert np.array_equal(supra, expected)


def test_supra_zero_coupling_is_block_diagonal():
    net = pair_layers(3, [[(0, 1)], [(1, 2)]])
    supra = build_supra(net, 0.0)
    assert supra[:3, 3:].sum() == 0.0
    assert np.array_equal(supra[:3, :3], net.z_layers[0])
    assert np.array_equal(supra[3:, 3:], net.z_layers[1])


def test_supra_row_sums_one_unit_edge_per_layer():
    net = pair_layers(2, [[(0, 1)], [(0, 1)]])
    supra = build_supra(net, 1.0)
    assert np.all(supra.sum(axis=1) == 2.0)
    assert np.array_equal(supra, supra.T)


def test_supra_rejects_negative_coupling():
    with pytest.raises(ValueError):
        build_supra(pair_layers(2, [[], []]), -0.1)


# ---------------------------------------------------------------------------
# matrix exponential
# ---------------------------------------------------------------------------

def test_exp_of_zero_is_identity():
    assert np.array_equal(matrix_exp(np.zeros((4, 4))), np.eye(4))


def test_exp_of_diagonal():
    result = matrix_exp(np.diag([1.0, -2.0, 0.5]))
    np.testing.assert_allclose(
        result, np.diag(np.exp([1.0, -2.0, 0.5])), rtol=1e-12)
    assert result[0, 1] == 0.0


def test_exp_swap_matrix_closed_form():
    result = matrix_exp(np.array([[0.0, 1.0], [1.0, 0.0]]))
    np.testing.assert_allclose(result, [[COSH_1, SINH_1], [SINH_1, COSH_1]],
                               rtol=1e-12)


def test_exp_matches_reference_implementation():
    rng = np.random.default_rng(7)
    for _ in range(20):
        size = int(rng.integers(2, 9))
        m = rng.normal(0.0, 1.0, size=(size, size))
        m = (m + m.T) / 2
        np.testing.assert_allclose(matrix_exp(m), scipy.linalg.expm(m),
                                   rtol=0, atol=1e-10)


def test_exp_matches_truncated_series_when_series_is_sharp():
    rng = np.random.default_rng(12)
    for _ in range(10):
        m = rng.uniform(-0.3, 0.3, size=(5, 5))
        m = (m + m.T) / 2
        norm = np.linalg.norm(m, 1)
        # remainder bound of the degree-20 partial sum; only sharp
        # instances are meaningful oracles
        bound = norm ** 21 / math.factorial(21) / (1 - norm / 22)
        assert bound < 1e-12
        series = np.zeros_like(m)
        term = np.eye(5)
        for k in range(21):
            series += term
            term = term @ m / (k + 1)
        np.testing.assert_allclose(matrix_exp(m), series, rtol=0, atol=1e-10)


def test_exp_rejects_nonsquare():
    with pytest.raises(ValueError):
        matrix_exp(np.zeros((2, 3)))


def test_exp_rejects_nonsymmetric():
    with pytest.raises(ValueError, match="symmetric"):
        matrix_exp(np.array([[0.0, 1.0], [0.5, 0.0]]))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_exp_rejects_nonfinite_input(bad):
    with pytest.raises(ValueError, match="non-finite"):
        matrix_exp(np.array([[0.0, bad], [bad, 0.0]]))


def test_exp_rejects_an_overflowing_result():
    # e**800 is beyond float64; the error must name the eigenvalue
    with pytest.raises(ValueError, match="800"):
        matrix_exp(np.diag([800.0, 0.0]))


def test_exp_of_symmetric_input_is_exactly_symmetric():
    rng = np.random.default_rng(3)
    m = rng.normal(size=(30, 30))
    result = matrix_exp(m + m.T)
    assert np.array_equal(result, result.T)


# ---------------------------------------------------------------------------
# communicability of a multiplex
# ---------------------------------------------------------------------------

def test_communicability_symmetry_and_positivity():
    net = random_multiplex(seed=4)
    comm = communicability(net, 0.5)
    g = comm.matrix
    np.testing.assert_allclose(g, g.T, rtol=0, atol=1e-12)
    # coupled supra-graph is connected, so every walk count is positive
    assert g.min() > 0.0
    assert np.diag(g).min() >= 1.0


def test_coupling_strength_raises_cross_layer_entries():
    net = random_multiplex(seed=2)
    weak = communicability(net, 0.2).matrix[:5, 5:]
    strong = communicability(net, 0.8).matrix[:5, 5:]
    assert np.all(strong >= weak - 1e-12)
    assert strong.mean() > weak.mean()


# ---------------------------------------------------------------------------
# scaling factor
# ---------------------------------------------------------------------------

def test_single_layer_has_no_cross_neighbours():
    net = multiplex_from_arrays(
        [np.array([[0, 1], [1, 0]], dtype=np.int8)], np.zeros((2, 2)))
    comm = communicability(net, 0.5)
    strategies = np.array([[1, 0]])
    assert scaling_factor(0, 0, comm, strategies, net) == 1.0


def test_full_agreement_hits_lower_bound():
    net = pair_layers(3, [[(0, 1)], [(0, 1), (0, 2)]])
    comm = communicability(net, 0.5)
    strategies = np.ones((2, 3), dtype=np.int8)
    assert scaling_factor(0, 0, comm, strategies, net) == pytest.approx(0.5)


def test_no_agreement_leaves_imitation_unscaled():
    net = pair_layers(3, [[(0, 1)], [(0, 1), (0, 2)]])
    comm = communicability(net, 0.5)
    strategies = np.ones((2, 3), dtype=np.int8)
    strategies[0, 0] = 0  # disagrees with everything on the other layer
    assert scaling_factor(0, 0, comm, strategies, net) == pytest.approx(1.0)


def test_half_weighted_fraction_interpolates():
    # craft equal communicability to both cross-layer contacts; exactly
    # one shares the focal strategy, so the weighted fraction is 1/2
    net = pair_layers(2, [[], [(0, 1)]])
    comm = Communicability(matrix=np.ones((4, 4)), node_count=2,
                           layer_count=2)
    strategies = np.array([[1, 0], [1, 0]], dtype=np.int8)
    assert scaling_factor(0, 0, comm, strategies, net) == pytest.approx(0.75)


def test_zero_coupling_is_neutral():
    net = pair_layers(3, [[(0, 1)], [(0, 1), (0, 2)]])
    comm = communicability(net, 0.0)
    # cross-layer entries of exp are exactly zero, denominator collapses
    strategies = np.ones((2, 3), dtype=np.int8)
    assert scaling_factor(0, 0, comm, strategies, net) == 1.0


def test_factor_decreases_as_agreement_spreads():
    net = pair_layers(4, [[(0, 1)], [(0, 1), (0, 2), (0, 3)]])
    comm = communicability(net, 0.5)
    strategies = np.zeros((2, 4), dtype=np.int8)
    strategies[0, 0] = 1
    previous = scaling_factor(0, 0, comm, strategies, net)
    assert previous == pytest.approx(1.0)
    for node in (0, 1, 2, 3):
        strategies[1, node] = 1
        current = scaling_factor(0, 0, comm, strategies, net)
        assert current < previous
        previous = current
    assert previous == pytest.approx(0.5)


def test_custom_bounds_change_the_span():
    net = pair_layers(3, [[(0, 1)], [(0, 1), (0, 2)]])
    comm = communicability(net, 0.5)
    strategies = np.ones((2, 3), dtype=np.int8)
    bounds = ScalingBounds(minimum=0.8, maximum=0.9)
    value = scaling_factor(0, 0, comm, strategies, net, bounds)
    assert value == pytest.approx(1.0 - bounds.span)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**16), n=st.integers(2, 6),
       layers=st.integers(1, 3), edge_probability=st.floats(0.0, 1.0),
       omega=st.floats(0.05, 2.0), minimum=st.floats(0.01, 1.0),
       width=st.floats(0.0, 1.0), coop_fraction=st.floats(0.0, 1.0))
def test_factor_lies_between_one_minus_span_and_one(
        seed, n, layers, edge_probability, omega, minimum, width,
        coop_fraction):
    # the factor is 1 - span * ratio with ratio in [0, 1]: it never
    # reaches below 1 - span, and scaling_max < 1 does not cap it
    bounds = ScalingBounds(minimum,
                           min(minimum + width * (1.0 - minimum), 1.0))
    spec = MultiplexSpec(node_count=n, layer_count=layers,
                         topologies=(LayerTopology.er(edge_probability),)
                         * layers, homophily_sigma=1.0, rng_seed=seed)
    net = build_multiplex(spec)
    comm = communicability(net, omega)
    rng = np.random.default_rng(seed)
    strategies = (rng.random((layers, n)) < coop_fraction).astype(np.int8)
    for layer in range(layers):
        for node in range(n):
            value = scaling_factor(node, layer, comm, strategies, net,
                                   bounds)
            assert 1.0 - bounds.span <= value <= 1.0


def test_bounds_validation():
    with pytest.raises(ValueError):
        ScalingBounds(minimum=0.0, maximum=0.5)
    with pytest.raises(ValueError):
        ScalingBounds(minimum=0.9, maximum=0.4)
    with pytest.raises(ValueError):
        ScalingBounds(minimum=0.5, maximum=1.2)


def test_table_denominators_add_left_to_right():
    # builtin sum compensates on Python 3.12+; scaling_factor and the
    # engine's numerator add left to right, so the table must too
    spec = MultiplexSpec(node_count=12, layer_count=3,
                         topologies=(LayerTopology.er(0.4),) * 3,
                         homophily_sigma=1.0, rng_seed=21)
    net = build_multiplex(spec)
    table = ScalingTable(net, communicability(net, 0.7))
    assert len(table.denominator) == 36
    for values, denominator in zip(table.cross_value, table.denominator):
        total = 0.0
        for value in values:
            total += value
        assert denominator == total


def test_table_matches_the_oracle_neighbourhoods():
    # the table derives its cross-layer lists from the neighbour lists;
    # _cross_neighbourhood scans the adjacency rows, and must agree
    spec = MultiplexSpec(node_count=15, layer_count=3,
                         topologies=(LayerTopology.er(0.1),) * 3,
                         homophily_sigma=1.0, rng_seed=4)
    net = build_multiplex(spec)
    comm = communicability(net, 0.4)
    table = ScalingTable(net, comm)
    for flat in range(45):
        layer, node = divmod(flat, 15)
        idx = _cross_neighbourhood(net, node, layer)
        assert table.cross_index[flat] == idx
        assert table.cross_value[flat] == [comm.matrix[flat, k] for k in idx]
        nbrs = np.flatnonzero(net.adjacency[layer][node]).tolist()
        assert table.neighbours[flat] == nbrs
        assert table.distance[flat] == [max(net.delta[node, j], DISTANCE_FLOOR)
                                        for j in nbrs]
    assert table.has_isolated and not table.edgeless
    assert np.array_equal(table.degrees, net.layer_degrees())
