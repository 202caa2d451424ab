import math
import os
import shutil
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import megt.comm
import megt.evolve
import megt.kernel
from megt.comm import (ScalingBounds, _series_c, _series_choice,
                       _series_terms, _series_threads, _spectral_bound,
                       _supra_csr, build_supra, communicability_entries,
                       matrix_exp)
from megt.evolve import DISTANCE_FLOOR, ScalingTable, _map
from megt.netgen import (LayerTopology, MultiplexSpec, build_multiplex,
                         homophily_from_delta)

import conftest
from oracles import (Communicability, communicability, cross_neighbourhood,
                     multiplex_from_arrays, scaling_factor, series_numpy)

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
    layers = pair_layers(3, [[(0, 1)], [(1, 2)]]).adjacency
    delta = np.array([[0.0, 1.0, 0.3], [1.0, 0.0, 3.0], [0.3, 3.0, 0.0]])
    net = multiplex_from_arrays(layers, delta)
    supra = build_supra(net, 0.0)
    assert supra[:3, 3:].sum() == 0.0
    homophily = homophily_from_delta(delta)
    assert np.array_equal(supra[:3, :3], homophily * layers[0])
    assert np.array_equal(supra[3:, 3:], homophily * layers[1])


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
    table = ScalingTable(net, 0.7)
    assert len(table.denominator) == 36
    for flat, denominator in enumerate(table.denominator):
        total = 0.0
        for value in table.cross_value[table.cross_ptr[flat]:
                                       table.cross_ptr[flat + 1]]:
            total += value
        assert denominator == total


def test_table_matches_the_oracle_neighbourhoods():
    # the table derives its cross-layer slots in bulk from the edge
    # arrays; cross_neighbourhood walks them slot by slot, and must agree
    spec = MultiplexSpec(node_count=15, layer_count=3,
                         topologies=(LayerTopology.er(0.1),) * 3,
                         homophily_sigma=1.0, rng_seed=4)
    net = build_multiplex(spec)
    comm = communicability(net, 0.4)
    table = ScalingTable(net, 0.4)
    # a network this small takes the eigh path, whose entries it gathers
    assert table.communicability["method"] == "eigh"
    for flat in range(45):
        layer, node = divmod(flat, 15)
        cross = slice(table.cross_ptr[flat], table.cross_ptr[flat + 1])
        idx = cross_neighbourhood(net, node, layer)
        assert table.cross_slot[cross].tolist() == idx
        assert table.cross_value[cross].tolist() == [comm.matrix[flat, k]
                                                     for k in idx]
        edges = slice(table.neighbour_ptr[flat], table.neighbour_ptr[flat + 1])
        nbrs = np.flatnonzero(net.adjacency[layer][node]).tolist()
        assert table.neighbour_slot[edges].tolist() == [layer * 15 + j
                                                        for j in nbrs]
        assert table.distance[edges].tolist() == [
            max(net.delta[node, j], DISTANCE_FLOOR) for j in nbrs]
    assert (np.diff(table.neighbour_ptr) == 0).any() and not table.edgeless
    assert np.array_equal(table.degrees, net.layer_degrees())


def test_table_gives_the_oracle_scaling_factor():
    # the round's factor from the table's arrays, numerator added left
    # to right, is scaling_factor's on the dense exponential, bit for bit
    spec = MultiplexSpec(node_count=15, layer_count=3,
                         topologies=(LayerTopology.er(0.2),) * 3,
                         homophily_sigma=1.0, rng_seed=6)
    net = build_multiplex(spec)
    comm = communicability(net, 0.4)
    table = ScalingTable(net, 0.4)
    assert table.communicability["method"] == "eigh"
    bounds = ScalingBounds(0.3, 0.9)
    strategies = (np.random.default_rng(6).random((3, 15)) < 0.5
                  ).astype(np.int8)
    flat = strategies.reshape(-1)
    for slot in range(45):
        numerator = 0.0
        for q in range(table.cross_ptr[slot], table.cross_ptr[slot + 1]):
            if flat[table.cross_slot[q]] == flat[slot]:
                numerator += table.cross_value[q]
        denominator = table.denominator[slot]
        factor = (1.0 - bounds.span * (numerator / denominator)
                  if denominator > 0.0 else 1.0)
        layer, node = divmod(slot, 15)
        assert factor == scaling_factor(node, layer, comm, strategies, net,
                                        bounds)


# ---------------------------------------------------------------------------
# communicability entries: the sparse series and its eigh oracle
# ---------------------------------------------------------------------------

def cross_csr(net):
    """The table's cross-layer neighbourhoods as CSR, from the oracle
    ``cross_neighbourhood``."""
    n, m = net.node_count, net.layer_count
    rows = [cross_neighbourhood(net, flat % n, flat // n)
            for flat in range(n * m)]
    ptr = np.zeros(n * m + 1, dtype=np.int64)
    np.cumsum([len(row) for row in rows], out=ptr[1:])
    slots = np.array([k for row in rows for k in row], dtype=np.int64)
    return ptr, slots


def nash_layers_network(edge_probability=4 / 199, layers=7, seed=3):
    """The benchmark's ``nash_layers`` shape: N=200 ER layers."""
    return build_multiplex(MultiplexSpec(
        node_count=200, layer_count=layers,
        topologies=(LayerTopology.er(edge_probability),) * layers,
        homophily_sigma=1.0, rng_seed=seed))


def test_sparse_supra_matrix_stores_its_nonzeros_in_column_order():
    net = pair_layers(4, [[(0, 1), (1, 3)], [(0, 2)], []])
    for omega, nonzeros in ((0.0, 6), (0.5, 6 + 24)):
        ptr, col, val = _supra_csr(net, omega)
        assert ptr[-1] == col.size == nonzeros and np.all(val > 0)
        assert all(np.all(np.diff(col[lo:hi]) > 0)
                   for lo, hi in zip(ptr[:-1], ptr[1:]))


def test_spectral_bound_and_term_count():
    net = nash_layers_network(layers=2)
    ptr, col, val = _supra_csr(net, 0.5)
    largest = np.linalg.eigvalsh(build_supra(net, 0.5))[-1]
    bound = _spectral_bound(ptr, col, val)
    assert largest <= bound <= 1.05 * largest
    terms = _series_terms(bound)

    def tail(after):
        return math.fsum(math.exp(k * math.log(bound) - math.lgamma(k + 1))
                         for k in range(after + 1, after + 100))

    # K is enough; the bound on the tail costs at most one extra term
    assert tail(terms) <= 2.0 ** -53 < tail(terms - 2)
    assert _series_terms(0.0) == 0


@settings(max_examples=40, deadline=None)
@given(draw_seed=st.integers(0, 2**16), n=st.integers(2, 40),
       layers=st.integers(1, 4), edge_probability=st.floats(0.0, 0.4),
       sigma=st.sampled_from([0.0, 0.3, 1.0, 3.0]),
       edgeless_layer=st.booleans(),
       omega=st.sampled_from([0.0, 0.05, 0.5, 2.0]))
def test_series_entries_match_eigh_and_c_matches_numpy(
        draw_seed, n, layers, edge_probability, sigma, edgeless_layer,
        omega):
    net = conftest.random_multiplex(draw_seed, n, layers, edge_probability,
                                    sigma, edgeless_layer)
    cross_ptr, cross_slot = cross_csr(net)
    ptr, col, val = _supra_csr(net, omega)
    terms = _series_terms(_spectral_bound(ptr, col, val))
    series = series_numpy(ptr, col, val, terms, cross_ptr, cross_slot)
    owner = np.repeat(np.arange(n * layers), np.diff(cross_ptr))
    oracle = matrix_exp(build_supra(net, omega))[owner, cross_slot]
    # at omega = 0 both give exact zeros across layers
    assert np.all(np.abs(series - oracle) <= 1e-12 * np.abs(oracle))
    library = megt.kernel.load()
    for vector in (True, False):
        assert np.array_equal(
            _series_c(library, net, omega, terms, cross_ptr, cross_slot,
                      threads=1, vector=vector), series)


def test_series_choice_is_the_cost_rule():
    # the shortcut that skips the power steps on dense layers must not
    # change which path runs; the grid straddles the crossover
    chosen = set()
    for n, layers in ((200, 2), (100, 3), (40, 4)):
        for p in (0.0, 0.01, 0.02, 0.04, 0.06, 0.08, 0.1, 0.15, 0.3, 1.0):
            for omega in (0.0, 0.5, 5.0, 300.0):
                net = conftest.random_multiplex(int(1000 * p) + n, n, layers,
                                                p, 1.0, False)
                ptr, col, val = _supra_csr(net, omega)
                bound = _spectral_bound(ptr, col, val)
                terms = _series_terms(bound) if bound <= 700 else None
                if terms is not None and terms * col.size > (n * layers) ** 2:
                    terms = None
                assert _series_choice(ptr, col, val) == terms
                chosen.add(terms is None)
    assert chosen == {True, False}


def test_entries_reject_indices_outside_the_supra_matrix():
    net = pair_layers(3, [[(0, 1)], [(1, 2)]])
    good = np.array([0, 1, 1, 1, 1, 1, 1], dtype=np.int64)
    assert communicability_entries(net, 0.5, good, [3])[0].shape == (1,)
    for ptr, slots in ((good, [6]), (good, [-1]), (good[:-1], [3]),
                       (good, [3, 4]), (good[::-1], [3])):
        with pytest.raises(ValueError, match="CSR"):
            communicability_entries(net, 0.5, ptr, slots)


def test_dense_layers_take_eigh():
    net = nash_layers_network(edge_probability=0.5, layers=2)
    _, info = communicability_entries(net, 0.5, np.zeros(401, np.int64),
                                      np.zeros(0, np.int64))
    assert info["method"] == "eigh"


@pytest.mark.parametrize("edge_probability, method",
                         [(0.5, "eigh"), (4 / 199, "series")])
def test_entries_are_the_dense_communicability(edge_probability, method):
    net = nash_layers_network(edge_probability, layers=2)
    cross_ptr, cross_slot = cross_csr(net)
    values, info = communicability_entries(net, 0.5, cross_ptr, cross_slot)
    assert info["method"] == method
    owner = np.repeat(np.arange(400), np.diff(cross_ptr))
    dense = communicability(net, 0.5).matrix[owner, cross_slot]
    if method == "eigh":  # gathered from the very same exponential
        assert np.array_equal(values, dense)
    else:
        assert np.all(np.abs(values - dense) <= 1e-12 * dense)


def test_sparse_layers_take_the_series_without_dense_matrices(monkeypatch):
    def refuse(*args):
        raise AssertionError("the series path built a dense matrix")

    net = nash_layers_network()
    cross_ptr, cross_slot = cross_csr(net)
    monkeypatch.setattr(megt.comm, "build_supra", refuse)
    monkeypatch.setattr(megt.comm, "matrix_exp", refuse)
    values, info = communicability_entries(net, 0.5, cross_ptr, cross_slot)
    monkeypatch.undo()
    assert info["method"] == "series"
    assert info["terms"] == _series_terms(
        _spectral_bound(*_supra_csr(net, 0.5)))
    owner = np.repeat(np.arange(1400), np.diff(cross_ptr))
    oracle = matrix_exp(build_supra(net, 0.5))[owner, cross_slot]
    assert np.all(np.abs(values - oracle) <= 1e-12 * oracle)


# ---------------------------------------------------------------------------
# the compiled series in threads
# ---------------------------------------------------------------------------

requires_cc = pytest.mark.skipif(shutil.which("cc") is None,
                                 reason="no C compiler")


@requires_cc
def test_series_entries_do_not_depend_on_the_thread_count():
    # N*M = 183: 12 panels of 16 columns, the last one partial
    net = conftest.random_multiplex(5, 61, 3, 0.06, 1.0, False)
    cross_ptr, cross_slot = cross_csr(net)
    ptr, col, val = _supra_csr(net, 0.5)
    terms = _series_terms(_spectral_bound(ptr, col, val))
    library = megt.kernel.load()

    def entries(threads):
        return _series_c(library, net, 0.5, terms, cross_ptr, cross_slot,
                         threads=threads)

    single = entries(1)
    assert np.array_equal(single, series_numpy(ptr, col, val, terms,
                                                cross_ptr, cross_slot))
    # more threads than panels take the panels there are
    for threads in (2, 3, 23, 50):
        assert np.array_equal(entries(threads), single), threads


@requires_cc
@pytest.mark.parametrize("layers", [1, 2, 3, 7])
@pytest.mark.parametrize("omega", [0.0, 0.5, 2.0])
def test_node_by_node_series_equals_the_supra_csr_series(layers, omega):
    # round.c sums each node's rows together from the network's edges;
    # the numpy loop sums the supra-matrix's CSR row by row.  Layer 0 is
    # edgeless and the layers sparse, so many slots are isolated.  Every
    # entry of exp(A) is read.
    net = conftest.random_multiplex(layers, 40, layers, 0.08, 1.0, True)
    nm = net.node_count * layers
    cross_ptr = np.arange(0, nm * nm + 1, nm)
    cross_slot = np.tile(np.arange(nm), nm)
    ptr, col, val = _supra_csr(net, omega)
    terms = _series_terms(_spectral_bound(ptr, col, val))
    series = series_numpy(ptr, col, val, terms, cross_ptr, cross_slot)
    oracle = matrix_exp(build_supra(net, omega)).reshape(-1)
    # eigh's error is relative to the largest entry, not to each one
    assert np.all(np.abs(series - oracle) <= 1e-12 * oracle.max())
    library = megt.kernel.load()
    for vector in (False, True):
        for threads in (1, 3):
            assert np.array_equal(
                _series_c(library, net, omega, terms, cross_ptr, cross_slot,
                          threads=threads, vector=vector),
                series), (vector, threads)


@pytest.mark.parametrize("cpus, panels, threads", [
    (1, 1000, 1), (2, 0, 1), (2, 63, 1), (2, 64, 2), (2, 175, 2),
    (4, 50, 1), (8, 175, 5), (10**6, 175, 5), (10**6, 10**9, 10**6),
    (10**6, 31, 1),
])
def test_series_thread_count_is_set_by_cpus_and_panels(cpus, panels,
                                                       threads):
    # a pure function: this starts no thread
    assert _series_threads(cpus, panels) == threads
    assert 1 <= threads <= cpus


def _series_threads_of(_):
    net = nash_layers_network(layers=3)
    ptr = np.arange(601, dtype=np.int64)
    return communicability_entries(net, 0.5, ptr, ptr[:-1])[1]["threads"]


@requires_cc
def test_series_takes_one_thread_in_a_run_thread(monkeypatch):
    monkeypatch.setattr(megt.comm, "_usable_cpus", lambda: 4)
    # one run thread: the calling thread sums on two
    monkeypatch.setattr(megt.evolve, "_usable_cpus", lambda: 1)
    assert _map(_series_threads_of, [0, 1], jobs=None) == [2, 2]
    monkeypatch.setattr(megt.evolve, "_usable_cpus", lambda: 2)
    assert _map(_series_threads_of, [0, 1], jobs=None) == [1, 1]
    # a cap of one run thread leaves the series its two
    assert _map(_series_threads_of, [0, 1], jobs=1) == [2, 2]
    assert not getattr(megt.comm._worker, "one_cpu", False)


@requires_cc
@pytest.mark.skipif(not Path("/proc/self/task").is_dir(),
                    reason="no per-thread entries in /proc")
def test_series_threads_end_with_the_table_build(monkeypatch):
    monkeypatch.setattr(megt.comm, "_usable_cpus", lambda: 4)
    net = nash_layers_network()
    # threads of other tests may end meanwhile: only a thread that the
    # build started and left running fails here
    before = set(os.listdir("/proc/self/task"))
    table = ScalingTable(net, 0.5)
    assert table.communicability["threads"] == 4
    assert set(os.listdir("/proc/self/task")) <= before
