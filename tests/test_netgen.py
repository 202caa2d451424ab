import dataclasses
import math

import numpy as np
import pytest

from megt.netgen import (LayerTopology, MultiplexNetwork, MultiplexSpec,
                         build_multiplex, eigenvector_centrality, generate_er,
                         generate_sf, generate_ws, homophily_from_delta,
                         link_weights, load_multiplex, multiplex_from_arrays,
                         sample_homophily, save_multiplex)


def edge_count(adj):
    return int(adj.sum()) // 2


def assert_simple_graph(adj):
    assert np.array_equal(adj, adj.T)
    assert not np.diag(adj).any()
    assert set(np.unique(adj)).issubset({0, 1})


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def test_er_extremes():
    assert edge_count(generate_er(3, 0.0, seed=0)) == 0
    assert edge_count(generate_er(3, 1.0, seed=0)) == 3


def test_er_edge_count_tracks_binomial():
    # mean p*C(200,2) = 995, sd ~30.7; each fixed seed should land
    # within 3 sigma of the mean
    for seed in range(5):
        adj = generate_er(200, 0.05, seed=seed)
        assert_simple_graph(adj)
        assert abs(edge_count(adj) - 995) <= 92


def test_er_rejects_bad_probability():
    with pytest.raises(ValueError):
        generate_er(10, -0.1)
    with pytest.raises(ValueError):
        generate_er(10, 1.5)


def test_ws_unrewired_ring():
    adj = generate_ws(10, 4, 0.0, seed=0)
    assert_simple_graph(adj)
    assert np.all(adj.sum(axis=1) == 4)
    assert edge_count(adj) == 20


def test_ws_rewiring_preserves_edge_count():
    for seed in range(4):
        adj = generate_ws(200, 4, 0.1, seed=seed)
        assert_simple_graph(adj)
        assert edge_count(adj) == 400


def test_ws_rejects_odd_degree():
    with pytest.raises(ValueError):
        generate_ws(10, 3, 0.1)


def test_sf_edge_count_formula():
    # m0-clique plus m edges per subsequent node
    adj = generate_sf(200, 2, 3, seed=0)
    assert_simple_graph(adj)
    assert edge_count(adj) == 3 + 2 * 197


def test_sf_degenerate_seed_grows_a_tree():
    adj = generate_sf(5, 1, 1, seed=0)
    assert edge_count(adj) == 4
    # connected with n-1 edges == tree: breadth-first reach check
    reached = {0}
    frontier = [0]
    while frontier:
        node = frontier.pop()
        for other in np.flatnonzero(adj[node]):
            if other not in reached:
                reached.add(int(other))
                frontier.append(int(other))
    assert reached == set(range(5))


def test_sf_grows_hubs():
    for seed in range(10):
        adj = generate_sf(200, 2, 3, seed=seed)
        degrees = adj.sum(axis=1)
        assert degrees.max() >= 3 * degrees.mean()


def test_sf_heavier_tail_than_ws():
    # same mean degree, very different maxima
    for seed in range(5):
        sf_max = generate_sf(200, 2, seed=seed).sum(axis=1).max()
        ws_max = generate_ws(200, 4, 0.1, seed=seed).sum(axis=1).max()
        assert sf_max > ws_max


def test_sf_rejects_bad_parameters():
    with pytest.raises(ValueError):
        generate_sf(10, 0)
    with pytest.raises(ValueError):
        generate_sf(10, 3, 2)
    with pytest.raises(ValueError):
        generate_sf(4, 2, 5)


# ---------------------------------------------------------------------------
# homophily
# ---------------------------------------------------------------------------

def test_sigma_zero_means_full_homophily():
    delta = sample_homophily(6, 0.0, seed=0)
    hom = homophily_from_delta(delta)
    assert np.all(delta == 0.0)
    assert np.all(hom == 1.0)


def test_homophily_from_delta_formula():
    delta = np.array([[0.0, 1.0], [1.0, 0.0]])
    hom = homophily_from_delta(delta)
    assert hom[0, 1] == pytest.approx(0.5)
    assert hom[0, 0] == 1.0
    with pytest.raises(ValueError):
        homophily_from_delta(np.array([[0.0, -1.0], [-1.0, 0.0]]))


@pytest.mark.parametrize("sigma", [math.nan, math.inf, -1.0])
def test_sample_homophily_rejects_bad_sigma(sigma):
    with pytest.raises(ValueError, match="sigma"):
        sample_homophily(5, sigma, seed=0)


def test_homophily_from_delta_rejects_nan_distances():
    with pytest.raises(ValueError, match="nonnegative"):
        homophily_from_delta(np.array([[0.0, math.nan], [math.nan, 0.0]]))


def test_homophily_matrices_are_symmetric_with_unit_diagonal():
    delta = sample_homophily(30, 2.0, seed=3)
    hom = homophily_from_delta(delta)
    assert np.array_equal(delta, delta.T)
    assert np.all(np.diag(delta) == 0.0)
    assert np.all(np.diag(hom) == 1.0)
    assert np.all(delta[np.triu_indices(30, 1)] >= 0.0)


def test_wider_sigma_lowers_mean_homophily():
    for seed in range(10):
        tight = homophily_from_delta(sample_homophily(100, 1.0, seed=seed))
        wide = homophily_from_delta(
            sample_homophily(100, 8.0, seed=seed + 1000))
        iu = np.triu_indices(100, 1)
        assert tight[iu].mean() > wide[iu].mean()


def test_sample_homophily_rejects_negative_sigma():
    with pytest.raises(ValueError):
        sample_homophily(5, -1.0)


# ---------------------------------------------------------------------------
# centrality and weights
# ---------------------------------------------------------------------------

def test_centrality_triangle_is_uniform():
    adj = np.ones((3, 3), dtype=np.int8)
    np.fill_diagonal(adj, 0)
    vec = eigenvector_centrality(adj)
    assert vec == pytest.approx([1.0, 1.0, 1.0], abs=1e-9)


def test_centrality_star_converges_despite_bipartite_structure():
    adj = np.zeros((5, 5), dtype=np.int8)
    adj[0, 1:] = 1
    adj[1:, 0] = 1
    vec = eigenvector_centrality(adj)
    assert vec[0] == pytest.approx(1.0, abs=1e-9)
    assert vec[1:] == pytest.approx([0.5] * 4, abs=1e-9)


def test_centrality_equal_components_get_equal_values():
    adj = np.zeros((6, 6), dtype=np.int8)
    for block in (slice(0, 3), slice(3, 6)):
        adj[block, block] = 1
    np.fill_diagonal(adj, 0)
    vec = eigenvector_centrality(adj)
    assert vec == pytest.approx([1.0] * 6, abs=1e-8)


def test_centrality_empty_graph_is_degenerate_zero():
    assert np.array_equal(eigenvector_centrality(np.zeros((4, 4))),
                          np.zeros(4))


def test_link_weights_combine_homophily_and_centrality():
    adj = np.array([[0, 1], [1, 0]], dtype=np.int8)
    hom = np.array([[1.0, 0.5], [0.5, 1.0]])
    centrality = np.array([1.0, 0.6])
    w = link_weights(adj, hom, centrality)
    assert w[0, 1] == pytest.approx(0.5 * 0.8)
    assert w[0, 0] == 0.0


# ---------------------------------------------------------------------------
# multiplex assembly
# ---------------------------------------------------------------------------

def two_layer_spec(seed=0, sigma=1.0):
    return MultiplexSpec(node_count=40, layer_count=2,
                         topologies=(LayerTopology.sf(2),
                                     LayerTopology.er(0.1)),
                         homophily_sigma=sigma, rng_seed=seed)


def test_build_multiplex_fields_are_consistent():
    net = build_multiplex(two_layer_spec())
    # a network is its defining arrays; everything else is derived
    assert [f.name for f in dataclasses.fields(MultiplexNetwork)] == \
        ["adjacency", "delta", "weights"]
    assert net.node_count == 40
    assert net.layer_count == 2
    for alpha in range(2):
        assert_simple_graph(net.adjacency[alpha])
        assert np.array_equal(net.weights[alpha], net.weights[alpha].T)
        assert net.weights[alpha][net.adjacency[alpha] == 0].sum() == 0.0


def test_build_multiplex_weight_formula():
    net = build_multiplex(two_layer_spec(seed=5))
    homophily = homophily_from_delta(net.delta)
    for alpha in range(2):
        c = eigenvector_centrality(net.adjacency[alpha])
        assert np.array_equal(
            net.weights[alpha],
            link_weights(net.adjacency[alpha], homophily, c))
        i, j = map(int, np.argwhere(np.triu(net.adjacency[alpha], 1))[0])
        expected = homophily[i, j] * (c[i] + c[j]) / 2
        assert net.weights[alpha][i, j] == pytest.approx(expected, rel=1e-12)


def test_build_multiplex_full_graph_sigma_zero_unit_weights():
    spec = MultiplexSpec(node_count=2, layer_count=1,
                         topologies=(LayerTopology.er(1.0),),
                         homophily_sigma=0.0, rng_seed=0)
    net = build_multiplex(spec)
    assert net.weights[0][0, 1] == pytest.approx(1.0)


def test_build_multiplex_is_deterministic():
    a = build_multiplex(two_layer_spec(seed=9))
    b = build_multiplex(two_layer_spec(seed=9))
    for alpha in range(2):
        assert np.array_equal(a.adjacency[alpha], b.adjacency[alpha])
        assert np.array_equal(a.weights[alpha], b.weights[alpha])
    assert np.array_equal(a.delta, b.delta)


def test_spec_validation():
    with pytest.raises(ValueError):
        MultiplexSpec(node_count=1, layer_count=1,
                      topologies=(LayerTopology.er(0.1),))
    with pytest.raises(ValueError):
        MultiplexSpec(node_count=10, layer_count=2,
                      topologies=(LayerTopology.er(0.1),))
    with pytest.raises(ValueError):
        MultiplexSpec(node_count=10, layer_count=1,
                      topologies=(LayerTopology.er(0.1),),
                      homophily_sigma=-2.0)


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_spec_rejects_non_finite_sigma(value):
    with pytest.raises(ValueError, match="homophily_sigma"):
        MultiplexSpec(node_count=10, layer_count=1,
                      topologies=(LayerTopology.er(0.1),),
                      homophily_sigma=value)


def test_multiplex_from_arrays_accepts_explicit_weights():
    adj = np.array([[0, 1], [1, 0]], dtype=np.int8)
    delta = np.zeros((2, 2))
    net = multiplex_from_arrays([adj], delta,
                                weights=[np.array([[0.0, 2.0], [2.0, 0.0]])])
    assert net.weights[0][0, 1] == 2.0
    with pytest.raises(ValueError):
        multiplex_from_arrays([np.array([[0, 1], [0, 0]], dtype=np.int8)],
                              delta)


def _clique_weights(n=4, value=1.0):
    w = np.full((n, n), value)
    np.fill_diagonal(w, 0.0)
    return w


def _asymmetric_weights():
    w = _clique_weights()
    w[0, 1] = 2.0
    return w


@pytest.mark.parametrize("delta, weights, message", [
    (None, [_clique_weights(value=np.nan)] * 2, "weights has non-finite"),
    (None, [_clique_weights(value=np.inf)] * 2, "weights has non-finite"),
    (None, [_clique_weights(value=-1.0)] * 2, "weights has negative"),
    (None, [_clique_weights(n=3)] * 2, "weights must be 4x4"),
    (None, [_asymmetric_weights()] * 2, "weights must be symmetric"),
    (None, [_clique_weights()], "expected 2 weight matrices"),
    (None, [np.ones((4, 4))] * 2, "zero off the layer's edges"),
    (-_clique_weights(), [_clique_weights()] * 2, "delta has negative"),
    (_clique_weights(value=np.nan), [_clique_weights()] * 2,
     "delta has non-finite"),
    (-_clique_weights(), None, "delta has negative"),
])
def test_multiplex_from_arrays_rejects_bad_numbers(delta, weights, message):
    adj = _clique_weights().astype(np.int8)
    if delta is None:
        delta = np.zeros((4, 4))
    with pytest.raises(ValueError, match=message):
        multiplex_from_arrays([adj, adj], delta, weights=weights)


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

def test_save_load_round_trip(tmp_path):
    net = build_multiplex(two_layer_spec(seed=11))
    path = tmp_path / "net.mplex"
    save_multiplex(net, path)
    loaded = load_multiplex(path)
    assert loaded.node_count == net.node_count
    assert loaded.layer_count == net.layer_count
    for alpha in range(2):
        assert np.array_equal(loaded.adjacency[alpha], net.adjacency[alpha])
        np.testing.assert_allclose(loaded.weights[alpha],
                                   net.weights[alpha], rtol=1e-14, atol=0)
    np.testing.assert_allclose(loaded.delta, net.delta, rtol=1e-14, atol=0)


def test_save_is_deterministic(tmp_path):
    net = build_multiplex(two_layer_spec(seed=3))
    first, second = tmp_path / "a.mplex", tmp_path / "b.mplex"
    save_multiplex(net, first)
    save_multiplex(net, second)
    assert first.read_bytes() == second.read_bytes()


def test_load_rejects_malformed_files(tmp_path):
    path = tmp_path / "bad.mplex"
    path.write_text("not a header\n")
    with pytest.raises(ValueError, match="line 1"):
        load_multiplex(path)

    path.write_text("multiplex v1 4 1\n0 0 9 1.0\n")
    with pytest.raises(ValueError, match="line 2"):
        load_multiplex(path)

    # valid edges but an incomplete distance table
    path.write_text("multiplex v1 2 1\n0 0 1 1.0\n")
    with pytest.raises(ValueError, match="missing delta"):
        load_multiplex(path)

    path.write_text("multiplex v1 2 1\n5 0 1 1.0\ndelta 0 1 0.0\n")
    with pytest.raises(ValueError, match="layer index"):
        load_multiplex(path)

    # a distance given twice, in either order, is a repeat like an edge
    path.write_text("multiplex v1 2 1\n0 0 1 1.0\ndelta 0 1 0.5\n"
                    "delta 1 0 0.25\n")
    with pytest.raises(ValueError, match="line 4: duplicate delta"):
        load_multiplex(path)


@pytest.mark.parametrize("edge, delta, message", [
    ("1.0", "nan", "line 3: non-finite distance"),
    ("1.0", "inf", "line 3: non-finite distance"),
    ("nan", "0.5", "line 2: non-finite edge weight"),
    ("inf", "0.5", "line 2: non-finite edge weight"),
    ("-1.0", "0.5", "line 2: negative edge weight"),
])
def test_load_rejects_bad_numbers(tmp_path, edge, delta, message):
    path = tmp_path / "bad.mplex"
    path.write_text(f"multiplex v1 2 1\n0 0 1 {edge}\ndelta 0 1 {delta}\n")
    with pytest.raises(ValueError, match=message):
        load_multiplex(path)
