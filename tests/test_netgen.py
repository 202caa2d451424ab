import dataclasses
import importlib.util
import math
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from megt.netgen import (LayerTopology, MultiplexNetwork, MultiplexSpec,
                         build_multiplex, eigenvector_centrality, generate_er,
                         generate_sf, generate_ws, homophily_from_delta,
                         load_multiplex, sample_homophily, save_multiplex)
from megt.netgen import _from_edges

from conftest import assert_edge_csr, dense_weights
from oracles import multiplex_from_arrays, save_multiplex_lines


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


def test_sample_homophily_refuses_draws_that_overflow():
    # about 7% of |Normal(0, 1e308)| draws exceed the largest float
    with pytest.raises(ValueError, match=r"sigma 1e\+308 is too large"):
        sample_homophily(200, 1e308, seed=0)
    assert np.isfinite(sample_homophily(200, 1e307, seed=0)).all()


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
    # a network is its edge arrays and the distances; the rest is derived
    assert [f.name for f in dataclasses.fields(MultiplexNetwork)] == \
        ["neighbour_ptr", "neighbour_slot", "edge_weight", "edge_delta",
         "delta"]
    # each edge's distance, beside it, is the dense one of its endpoints
    n = net.node_count
    gathered = net.delta[net.edge_owner() % n, net.neighbour_slot % n]
    assert net.edge_delta.tobytes() == gathered.tobytes()
    assert not net.edge_delta.flags.writeable
    assert net.node_count == 40
    assert net.layer_count == 2
    assert_edge_csr(net)
    for adjacency, degrees in zip(net.adjacency, net.layer_degrees()):
        assert_simple_graph(adjacency)
        assert np.array_equal(adjacency.sum(axis=1), degrees)


def test_build_multiplex_weight_formula():
    net = build_multiplex(two_layer_spec(seed=5))
    homophily = homophily_from_delta(net.delta)
    for adjacency, weights in zip(net.adjacency, dense_weights(net)):
        c = eigenvector_centrality(adjacency)
        # the dense product the per-edge weights replace, bit for bit
        mean_centrality = 0.5 * (c[:, None] + c[None, :])
        assert np.array_equal(weights,
                              adjacency * homophily * mean_centrality)
        i, j = map(int, np.argwhere(np.triu(adjacency, 1))[0])
        expected = homophily[i, j] * (c[i] + c[j]) / 2
        assert weights[i, j] == pytest.approx(expected, rel=1e-12)


def test_build_multiplex_full_graph_sigma_zero_unit_weights():
    spec = MultiplexSpec(node_count=2, layer_count=1,
                         topologies=(LayerTopology.er(1.0),),
                         homophily_sigma=0.0, rng_seed=0)
    net = build_multiplex(spec)
    assert net.edge_weight.tolist() == [1.0, 1.0]


def test_build_multiplex_is_deterministic():
    a = build_multiplex(two_layer_spec(seed=9))
    b = build_multiplex(two_layer_spec(seed=9))
    for name in ("neighbour_ptr", "neighbour_slot", "edge_weight", "delta"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


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
    assert dense_weights(net)[0][0, 1] == 2.0
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

def _arrays(net):
    return (net.neighbour_ptr, net.neighbour_slot, net.edge_weight,
            net.delta)


def test_save_load_round_trip(tmp_path):
    net = build_multiplex(two_layer_spec(seed=11))
    path = tmp_path / "net.mplex"
    save_multiplex(net, path)
    loaded = load_multiplex(path)
    assert loaded.node_count == net.node_count
    assert loaded.layer_count == net.layer_count
    assert_edge_csr(loaded)
    assert np.array_equal(loaded.neighbour_ptr, net.neighbour_ptr)
    assert np.array_equal(loaded.neighbour_slot, net.neighbour_slot)
    # the format keeps 15 significant digits
    np.testing.assert_allclose(loaded.edge_weight, net.edge_weight,
                               rtol=1e-14, atol=0)
    np.testing.assert_allclose(loaded.delta, net.delta, rtol=1e-14, atol=0)
    # values the format holds exactly come back equal: an edgeless
    # last layer, and a single node
    path_graph = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=np.int8)
    exact = [multiplex_from_arrays(
                 [path_graph, np.zeros((3, 3), dtype=np.int8)],
                 np.array([[0, 0.5, 2], [0.5, 0, 0.25], [2, 0.25, 0]]),
                 weights=[path_graph * 1.5, np.zeros((3, 3))]),
             multiplex_from_arrays([np.zeros((1, 1), dtype=np.int8)] * 2,
                                   np.zeros((1, 1))),
             loaded]
    for original in exact:
        save_multiplex(original, path)
        again = load_multiplex(path)
        assert_edge_csr(again)
        for got, want in zip(_arrays(again), _arrays(original)):
            assert got.dtype == want.dtype and np.array_equal(got, want)


def test_save_is_deterministic(tmp_path):
    net = build_multiplex(two_layer_spec(seed=3))
    first, second = tmp_path / "a.mplex", tmp_path / "b.mplex"
    save_multiplex(net, first)
    save_multiplex(net, second)
    assert first.read_bytes() == second.read_bytes()


@pytest.mark.parametrize("spec", [
    two_layer_spec(seed=3),
    MultiplexSpec(node_count=150, layer_count=3,
                  topologies=(LayerTopology.er(0.05), LayerTopology.ws(4),
                              LayerTopology.sf(2)),
                  homophily_sigma=0.3, rng_seed=8),
], ids=["two-layer", "three-topologies"])
def test_save_formats_like_the_line_writer(tmp_path, spec):
    net = build_multiplex(spec)
    save_multiplex(net, tmp_path / "bulk.mplex")
    save_multiplex_lines(net, tmp_path / "lines.mplex")
    assert (tmp_path / "bulk.mplex").read_bytes() == \
        (tmp_path / "lines.mplex").read_bytes()


# doubles the format meets: tiny, subnormal, powers of ten, 15 digits
_SAVED_VALUES = st.one_of(
    st.floats(0.0, 1e300, allow_nan=False, allow_infinity=False),
    st.floats(0.0, 2.2250738585072014e-308),
    st.sampled_from([1e-05, 1e-04, 1e15, 1e16, 5e-324, 0.1, 1 / 3]),
    st.integers(10**14, 10**15 - 1).map(lambda k: k * 1e-15),
    st.integers(10**14, 10**15 - 1).map(lambda k: k / 1e10))


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 7), data=st.data())
def test_save_formats_any_double_like_the_line_writer(n, data):
    # a complete layer and an edgeless one, with drawn weights and
    # distances; save_multiplex reads them as they are
    upper = n * (n - 1) // 2
    weight = np.array(data.draw(st.lists(_SAVED_VALUES, min_size=upper,
                                         max_size=upper)))
    delta = np.zeros((n, n))
    iu, ju = np.triu_indices(n, k=1)
    delta[iu, ju] = delta[ju, iu] = data.draw(
        st.lists(_SAVED_VALUES, min_size=upper, max_size=upper))
    # edges (layer 0, i, j) once each, as _from_edges takes them
    net = _from_edges(delta, 2, [(np.zeros(upper, np.int64), iu, ju,
                                  weight)])
    with tempfile.TemporaryDirectory() as tmp:
        bulk, lines = Path(tmp) / "bulk.mplex", Path(tmp) / "lines.mplex"
        save_multiplex(net, bulk)
        save_multiplex_lines(net, lines)
        assert bulk.read_bytes() == lines.read_bytes()


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


# ---------------------------------------------------------------------------
# the per-line loader, kept as the oracle of the bulk load_multiplex
# ---------------------------------------------------------------------------

def _load_reference(path):
    """The v1 loader as it was before the body was parsed in bulk: one
    split, int() and float() per line, checked line by line.  Returns
    the dense adjacency and weight matrices of every layer, and delta."""
    with open(path, encoding="ascii") as fh:
        raw = fh.read().splitlines()
    if not raw:
        raise ValueError(f"{path}: empty file")
    header = raw[0].split()
    if len(header) != 4 or header[0] != "multiplex" or header[1] != "v1":
        raise ValueError(f"{path}: line 1: bad header {raw[0]!r}")
    try:
        n, m = int(header[2]), int(header[3])
    except ValueError:
        raise ValueError(f"{path}: line 1: bad header {raw[0]!r}") from None
    if n < 1 or m < 1:
        raise ValueError(f"{path}: line 1: bad dimensions N={n} M={m}")
    adjacency = [np.zeros((n, n), dtype=np.int8) for _ in range(m)]
    weights = [np.zeros((n, n)) for _ in range(m)]
    delta = np.zeros((n, n))
    seen_delta = np.zeros((n, n), dtype=bool)
    for lineno, line in enumerate(raw[1:], start=2):
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) != 4:
            raise ValueError(
                f"{path}: line {lineno}: expected 4 fields, got {len(parts)}")
        if parts[0] == "delta":
            try:
                i, j, value = int(parts[1]), int(parts[2]), float(parts[3])
            except ValueError:
                raise ValueError(
                    f"{path}: line {lineno}: malformed delta line") from None
            if not (0 <= i < n and 0 <= j < n and i != j):
                raise ValueError(
                    f"{path}: line {lineno}: node index out of range")
            if not math.isfinite(value):
                raise ValueError(
                    f"{path}: line {lineno}: non-finite distance")
            if value < 0:
                raise ValueError(
                    f"{path}: line {lineno}: negative distance")
            if seen_delta[i, j]:
                raise ValueError(f"{path}: line {lineno}: duplicate delta")
            delta[i, j] = delta[j, i] = value
            seen_delta[i, j] = seen_delta[j, i] = True
        else:
            try:
                alpha, i, j = int(parts[0]), int(parts[1]), int(parts[2])
                value = float(parts[3])
            except ValueError:
                raise ValueError(
                    f"{path}: line {lineno}: malformed edge line") from None
            if not 0 <= alpha < m:
                raise ValueError(
                    f"{path}: line {lineno}: layer index out of range")
            if not (0 <= i < n and 0 <= j < n and i != j):
                raise ValueError(
                    f"{path}: line {lineno}: node index out of range")
            if not math.isfinite(value):
                raise ValueError(
                    f"{path}: line {lineno}: non-finite edge weight")
            if value < 0:
                raise ValueError(
                    f"{path}: line {lineno}: negative edge weight")
            if adjacency[alpha][i, j]:
                raise ValueError(
                    f"{path}: line {lineno}: duplicate edge")
            adjacency[alpha][i, j] = adjacency[alpha][j, i] = 1
            weights[alpha][i, j] = weights[alpha][j, i] = value
    iu, ju = np.triu_indices(n, k=1)
    if not seen_delta[iu, ju].all():
        missing = np.argwhere(np.triu(~seen_delta, k=1))
        i, j = missing[0]
        raise ValueError(f"{path}: missing delta entry for pair ({i}, {j})")
    return adjacency, delta, weights


def assert_loads_like_reference(path):
    """load_multiplex returns the reference's dense arrays, bit for bit
    and in the same dtypes, as edge arrays, or raises its ValueError
    with the same text."""
    try:
        expected = _load_reference(path)
    except ValueError as exc:
        with pytest.raises(ValueError) as raised:
            load_multiplex(path)
        assert str(raised.value) == str(exc)
        return
    loaded = load_multiplex(path)
    assert_edge_csr(loaded)
    adjacency, delta, weights = expected
    assert loaded.layer_count == len(adjacency)
    pairs = list(zip(loaded.adjacency + dense_weights(loaded) + [loaded.delta],
                     adjacency + weights + [delta]))
    for got, want in pairs:
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
        assert got.tobytes() == want.tobytes()  # -0.0 stays -0.0


_INTEGER_TEXT = st.sampled_from(["{}", "+{}", "0{}"])
_FLOAT_TEXT = st.sampled_from(["{!r}", "{:.15g}", "{:e}", "+{}", "{:.3f}"])
_BAD_KINDS = ["x", "Delta", "deltaXXXX", "-1", "7", "000000001",
              "0000000000", "1_0", "+0", "99999999999999999999", "delta\0"]
_BAD_INDICES = ["-1", "6", "99999999999999999999", "-99999999999999999999",
                "1.0", "1e0", "x", ""]
_BAD_VALUES = ["nan", "NaN", "inf", "-inf", "-1.5", "-0.0", "1e999", "x",
               "0.5.5", "0.5\0"]


@st.composite
def v1_files(draw):
    """The text of a v1 file over a random small multiplex, in random
    line order and layout, with up to four random faults."""
    n, m = draw(st.integers(1, 6)), draw(st.integers(1, 3))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]

    def pair_text(i, j):
        if draw(st.booleans()):
            i, j = j, i
        return [draw(_INTEGER_TEXT).format(i), draw(_INTEGER_TEXT).format(j)]

    def value_text():
        value = draw(st.floats(0, 1e6, allow_nan=False))
        return draw(_FLOAT_TEXT).format(value)

    rows = [[str(alpha), *pair_text(i, j), value_text()]
            for alpha in range(m) for i, j in pairs if draw(st.booleans())]
    rows += [["delta", *pair_text(i, j), value_text()] for i, j in pairs]
    rows = draw(st.permutations(rows))
    for _ in range(draw(st.integers(0, 4))):
        fault = draw(st.sampled_from(["fields", "kind", "index", "repeat",
                                      "value", "drop", "break"]))
        if not rows:
            break
        at = draw(st.integers(0, len(rows) - 1))
        row = list(rows[at])
        if len(row) != 4:  # already lost or gained a field
            continue
        if fault == "fields":
            row = row[:draw(st.integers(0, 3))] if draw(st.booleans()) \
                else row + ["1"] * draw(st.integers(1, 2))
        elif fault == "kind":
            row[0] = draw(st.sampled_from(_BAD_KINDS))
        elif fault == "index":
            k = draw(st.sampled_from([1, 2]))
            row[k] = draw(st.sampled_from(_BAD_INDICES + [row[3 - k]]))
        elif fault == "value":
            row[3] = draw(st.sampled_from(_BAD_VALUES))
        elif fault == "break":  # str.splitlines() ends a line at \f too
            k = draw(st.integers(0, 2))
            row[k:k + 2] = [row[k] + "\f" + row[k + 1]]
        elif fault == "repeat":
            copy = [row[0], row[2], row[1], value_text()] \
                if draw(st.booleans()) else list(row)
            rows.insert(draw(st.integers(0, len(rows))), copy)
        if fault == "drop":
            del rows[at]
        else:
            rows[at] = row
    separators = st.sampled_from([" ", "\t", "  ", " \t ", "\x1f"])
    lines = []
    for row in rows:
        for _ in range(draw(st.integers(0, 1))):
            lines.append(draw(st.sampled_from(["", "   ", "\t"])))
        lead, trail = draw(st.sampled_from(["", " ", "\t"])), \
            draw(st.sampled_from(["", " ", "\t"]))
        lines.append(lead + draw(separators).join(row) + trail)
    end = draw(st.sampled_from(["\n", "\r\n", "\r", "\v"]))
    text = end.join([f"multiplex v1 {n} {m}"] + lines)
    return text + end if draw(st.booleans()) else text


@settings(max_examples=400, deadline=None)
@given(text=v1_files())
def test_load_matches_per_line_reference(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "net.mplex"
        path.write_bytes(text.encode("ascii"))
        assert_loads_like_reference(path)


def _bench_gen():
    path = Path(__file__).resolve().parents[1] / "megtbench" / "gen.py"
    spec = importlib.util.spec_from_file_location("megtbench_gen", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look themselves up
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("seed, node_count", [(1, 6), (2, 17), (3, 30)])
def test_load_matches_reference_on_benchmark_files(tmp_path, seed,
                                                    node_count):
    path = tmp_path / "net.mplex"
    _bench_gen().write_network(path, seed, node_count)
    assert_loads_like_reference(path)


@pytest.mark.parametrize("n, layers", [(1, 1), (2, 4), (12, 3), (30, 2)])
def test_load_matches_reference_on_saved_files(tmp_path, n, layers):
    adjacency = [generate_er(n, 0.3, seed=alpha) for alpha in range(layers)]
    adjacency[-1] = np.zeros((n, n), dtype=np.int8)  # an edgeless layer
    net = multiplex_from_arrays(adjacency, sample_homophily(n, 1.0, seed=5))
    path = tmp_path / "net.mplex"
    save_multiplex(net, path)
    assert_loads_like_reference(path)
    loaded = load_multiplex(path)
    assert not loaded.layer_degrees()[-1].any()


def _reference_error(path) -> str:
    try:
        _load_reference(path)
    except ValueError as exc:
        return str(exc)
    return ""


@pytest.mark.parametrize("line, problem", [
    ("delta 1_0 1 0.5", "line 3: malformed delta line"),
    ("delta 0 1 0_5", "line 3: malformed delta line"),
    ("0 0 1_0 0.5", "line 3: malformed edge line"),
])
def test_load_rejects_digit_group_underscores(tmp_path, line, problem):
    # int() and float() accept "1_0", the bulk reader does not: a
    # declared narrowing of the number syntax
    path = tmp_path / "net.mplex"
    path.write_text(f"multiplex v1 11 1\n0 0 1 1.0\n{line}\n")
    assert "line 3" not in _reference_error(path)
    with pytest.raises(ValueError, match=problem):
        load_multiplex(path)


@pytest.mark.parametrize("kind", ["1_0", "+10", "0000000010"])
def test_load_reads_a_layer_index_like_int(tmp_path, kind):
    # the kind is read with int(), as the header is, also when it is
    # wider than the reader's fixed-width field
    path = tmp_path / "net.mplex"
    path.write_text(f"multiplex v1 2 11\n{kind} 0 1 2.0\ndelta 0 1 0.5\n")
    assert dense_weights(load_multiplex(path))[10][0, 1] == 2.0
    assert_loads_like_reference(path)


@pytest.mark.parametrize("line, problem", [
    ("delta 99999999999999999999 1 0.5", "node index out of range"),
    ("0 -99999999999999999999 1 0.5", "node index out of range"),
    ("9 99999999999999999999 1 0.5", "layer index out of range"),
    ("00000000001 0 1 0.5", "duplicate edge"),
    ("delta 1 0 0.5", "duplicate delta"),
])
def test_load_names_the_first_bad_line_like_the_reference(tmp_path, line,
                                                          problem):
    path = tmp_path / "net.mplex"
    path.write_text("multiplex v1 2 2\n\n1 0 1 1.0\ndelta 0 1 0.5\n"
                    f"{line}\n0 0 1 x\n")
    with pytest.raises(ValueError, match=f"line 5: {problem}"):
        load_multiplex(path)
    assert_loads_like_reference(path)


@pytest.mark.parametrize("kind", ["deltaXXXX", "delta\0", "0\0"],
                         ids=["cut", "nul-delta", "nul-layer"])
def test_load_reads_no_kind_as_another(tmp_path, kind):
    # neither a kind cut short by the reader's fixed-width field nor one
    # whose trailing NUL that field drops may read as "delta" or a layer
    path = tmp_path / "net.mplex"
    path.write_text(f"multiplex v1 2 1\n0 0 1 1.0\n{kind} 1 0 0.5\n")
    with pytest.raises(ValueError, match="line 3: malformed edge line"):
        load_multiplex(path)
    assert_loads_like_reference(path)


def test_inflated_header_fails_before_allocating(tmp_path):
    # N(N-1)/2 distances are checked for before any N x N array exists:
    # at N = 3,000,000 one dense layer would take 72 TB
    path = tmp_path / "net.mplex"
    path.write_text("multiplex v1 3000000 2\n0 0 1 0.5\ndelta 0 2 0.5\n")
    with pytest.raises(ValueError, match=r"missing delta entry for pair "
                                         r"\(0, 1\)"):
        load_multiplex(path)
    path.write_text("multiplex v1 4 1\ndelta 0 1 0.5\ndelta 0 2 0.5\n"
                    "delta 0 3 0.5\ndelta 2 1 0.5\n")
    with pytest.raises(ValueError, match=r"pair \(1, 3\)"):
        load_multiplex(path)
    assert_loads_like_reference(path)


def test_load_rejects_dimensions_past_the_pair_keys(tmp_path):
    path = tmp_path / "net.mplex"
    path.write_text("multiplex v1 3037000500 1\n")
    with pytest.raises(ValueError, match="line 1: bad dimensions"):
        load_multiplex(path)


def test_load_reads_every_line_end_and_blank_line(tmp_path):
    path = tmp_path / "net.mplex"
    for end in ("\n", "\r\n", "\r"):
        path.write_bytes(end.join(["multiplex v1 2 1", "", " \t ",
                                   "0\t0  1 2.5 ", "delta 1 0 .5"])
                         .encode("ascii"))
        loaded = load_multiplex(path)
        assert loaded.edge_weight.tolist() == [2.5, 2.5]
        assert loaded.delta[0, 1] == 0.5
    path.write_text("multiplex v1 1 3\n\n  \n")
    assert load_multiplex(path).layer_count == 3
