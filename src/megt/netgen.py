"""Construction of homophily-weighted multiplex networks.

A multiplex here is M undirected, unweighted layers over the same N
nodes, plus a single pairwise distance structure shared by all layers:
``delta[i, j]`` is a nonnegative social distance drawn once per
unordered pair, with homophily ``h[i, j] = 1 / (1 + delta[i, j])``.

A network stores the shared ``delta`` and one CSR of every layer's edges
with their distances and link weights ``w_ij = h_ij * (c_i + c_j) / 2``,
where ``c`` is the layer's eigenvector centrality; nothing N x N per
layer.  A generator's dense layer lives only while its centrality is taken.
Homophily, degrees and the union graph are computed where they are used.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .manifest import write_lines

__all__ = [
    "LayerTopology",
    "MultiplexSpec",
    "MultiplexNetwork",
    "generate_er",
    "generate_ws",
    "generate_sf",
    "sample_homophily",
    "homophily_from_delta",
    "eigenvector_centrality",
    "build_multiplex",
    "save_multiplex",
    "load_multiplex",
]


def _as_generator(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


# ---------------------------------------------------------------------------
# layer generators
# ---------------------------------------------------------------------------

def generate_er(node_count: int, edge_probability: float, seed=None) -> np.ndarray:
    """Erdos-Renyi G(n, p): every unordered pair is an edge with prob p.

    Returns a symmetric 0/1 ``int8`` adjacency matrix with zero diagonal.
    """
    if node_count < 1:
        raise ValueError(f"node_count must be >= 1, got {node_count}")
    if not 0.0 <= edge_probability <= 1.0:
        raise ValueError(
            f"edge_probability must lie in [0, 1], got {edge_probability}")
    rng = _as_generator(seed)
    n = node_count
    adj = np.zeros((n, n), dtype=np.int8)
    iu, ju = np.triu_indices(n, k=1)
    hit = rng.random(iu.size) < edge_probability
    adj[iu[hit], ju[hit]] = 1
    adj[ju[hit], iu[hit]] = 1
    return adj


def generate_ws(node_count: int, ring_degree: int,
                rewire_probability: float, seed=None) -> np.ndarray:
    """Watts-Strogatz small world: ring lattice of even degree k, then each
    ring edge is rewired with the given probability to a uniformly random
    non-duplicate, non-self target (edge count is preserved).
    """
    n, k = node_count, ring_degree
    if k % 2 != 0 or k < 0:
        raise ValueError(f"ring_degree must be even and >= 0, got {k}")
    if n < 1:
        raise ValueError(f"node_count must be >= 1, got {n}")
    if k >= n:
        raise ValueError(f"ring_degree must be < node_count, got k={k}, n={n}")
    if not 0.0 <= rewire_probability <= 1.0:
        raise ValueError(
            f"rewire_probability must lie in [0, 1], got {rewire_probability}")
    rng = _as_generator(seed)
    adj = np.zeros((n, n), dtype=np.int8)
    for offset in range(1, k // 2 + 1):
        for i in range(n):
            j = (i + offset) % n
            adj[i, j] = adj[j, i] = 1
    # rewire the clockwise edges lattice-order, one uniform draw per edge
    for offset in range(1, k // 2 + 1):
        for i in range(n):
            j = (i + offset) % n
            if adj[i, j] == 0:  # already rewired away by an earlier pass
                continue
            if rng.random() < rewire_probability:
                candidates = np.flatnonzero(adj[i] == 0)
                candidates = candidates[candidates != i]
                if candidates.size == 0:
                    continue
                target = int(candidates[rng.integers(candidates.size)])
                adj[i, j] = adj[j, i] = 0
                adj[i, target] = adj[target, i] = 1
    return adj


def generate_sf(node_count: int, attachment_count: int,
                seed_clique_size: int | None = None, seed=None) -> np.ndarray:
    """Scale-free layer by preferential attachment.

    Starts from a clique on ``seed_clique_size`` nodes (default
    ``attachment_count + 1``); every further node attaches to
    ``attachment_count`` distinct existing nodes chosen proportionally to
    their current degree.  Total edge count is therefore
    ``m0*(m0-1)/2 + m*(n-m0)``.
    """
    n, m = node_count, attachment_count
    m0 = seed_clique_size if seed_clique_size is not None else m + 1
    if m < 1:
        raise ValueError(f"attachment_count must be >= 1, got {m}")
    if m0 < m:
        raise ValueError(
            f"seed_clique_size must be >= attachment_count, got m0={m0}, m={m}")
    if m0 > n and seed_clique_size is None:
        raise ValueError(
            f"node_count must exceed attachment_count, whose default seed "
            f"clique has attachment_count + 1 nodes; got node_count={n}, "
            f"attachment_count={m}")
    if m0 > n:
        raise ValueError(
            f"seed_clique_size must be <= node_count, got m0={m0}, n={n}")
    rng = _as_generator(seed)
    adj = np.zeros((n, n), dtype=np.int8)
    adj[:m0, :m0] = 1
    np.fill_diagonal(adj, 0)
    # each node id appears once per unit of degree; sampling an index
    # uniformly from this list is degree-proportional sampling
    stubs: list[int] = []
    for i in range(m0):
        stubs.extend([i] * (m0 - 1))
    for v in range(m0, n):
        chosen: set[int] = set()
        while len(chosen) < m:
            if stubs:
                pick = stubs[int(rng.integers(len(stubs)))]
            else:  # degenerate seed (m0 = 1): no degree mass yet
                pick = int(rng.integers(v))
            chosen.add(pick)
        for u in chosen:
            adj[v, u] = adj[u, v] = 1
            stubs.append(u)
            stubs.append(v)
    return adj


# ---------------------------------------------------------------------------
# homophily
# ---------------------------------------------------------------------------

def sample_homophily(node_count: int, sigma: float, seed=None) -> np.ndarray:
    """Draw the pairwise social-distance matrix ``delta``.

    Each unordered pair receives an independent ``|Normal(0, sigma)|``
    distance; the diagonal is zero.  sigma = 0 gives homophily 1
    everywhere (see ``homophily_from_delta``) and larger sigma pushes
    it toward 0.  A sigma so large that a distance overflows to inf is a
    ValueError.
    """
    if not 0.0 <= sigma < math.inf:  # NaN fails too
        raise ValueError(f"sigma must be finite and >= 0, got {sigma}")
    rng = _as_generator(seed)
    n = node_count
    delta = np.zeros((n, n), dtype=float)
    iu, ju = np.triu_indices(n, k=1)
    draws = np.abs(rng.normal(0.0, sigma, size=iu.size)) if sigma > 0 \
        else np.zeros(iu.size)
    if not np.isfinite(draws).all():  # a normal draw times sigma overflows
        raise ValueError(f"homophily sigma {sigma} is too large: some "
                         f"distances overflow to inf")
    delta[iu, ju] = draws
    delta[ju, iu] = draws
    return delta


def homophily_from_delta(delta: np.ndarray) -> np.ndarray:
    """Map social distances to connection weights, 1 / (1 + delta)."""
    if not np.all(delta >= 0):  # NaN fails too
        raise ValueError("social distances must be nonnegative numbers")
    return 1.0 / (1.0 + delta)


# ---------------------------------------------------------------------------
# centrality
# ---------------------------------------------------------------------------

# power iteration stops at this relative max-norm change, or fails
# after this many steps
_CENTRALITY_TOLERANCE = 1e-10
_CENTRALITY_ITERATIONS = 10000


def eigenvector_centrality(adjacency: np.ndarray) -> np.ndarray:
    """Leading-eigenvector centrality by power iteration, max-normalised.

    Iterates on ``A + I`` rather than ``A``: the shift leaves the
    eigenvectors untouched but makes the dominant eigenvalue strictly
    largest in magnitude, so the iteration also converges on bipartite
    layers (e.g. stars) where plain iteration oscillates with period 2.
    It stops at a relative max-norm change below
    ``_CENTRALITY_TOLERANCE``.

    An edgeless layer has no meaningful centrality; the all-zeros vector
    is returned to signal that degenerate case.  Raises ValueError when
    the iteration does not settle within ``_CENTRALITY_ITERATIONS``
    steps, as on a layer whose components have nearly equal leading
    eigenvalues.
    """
    n = adjacency.shape[0]
    if not adjacency.any():
        return np.zeros(n)
    a = adjacency.astype(float)
    vec = np.full(n, 1.0 / n)
    nxt, change = np.empty(n), np.empty(n)
    for _ in range(_CENTRALITY_ITERATIONS):
        np.matmul(a, vec, out=nxt)
        nxt += vec
        nxt /= nxt.max()
        np.subtract(nxt, vec, out=change)
        np.abs(change, out=change)
        # nxt is nonnegative and its largest entry is exactly 1.0, so
        # this is the change relative to max|nxt|
        if change.max() <= _CENTRALITY_TOLERANCE:
            return nxt
        vec, nxt = nxt, vec
    raise ValueError(f"eigenvector centrality: power iteration did not "
                     f"converge in {_CENTRALITY_ITERATIONS} iterations")


# ---------------------------------------------------------------------------
# multiplex assembly
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LayerTopology:
    """Recipe for one layer.  ``kind`` selects the generator:

    * ``"er"`` uses ``edge_probability``
    * ``"ws"`` uses ``ring_degree`` and ``rewire_probability``
    * ``"sf"`` uses ``attachment_count`` and ``seed_clique_size``
    """

    kind: str
    edge_probability: float = 0.05
    ring_degree: int = 4
    rewire_probability: float = 0.1
    attachment_count: int = 2
    seed_clique_size: int | None = None

    @staticmethod
    def er(edge_probability: float) -> "LayerTopology":
        return LayerTopology(kind="er", edge_probability=edge_probability)

    @staticmethod
    def ws(ring_degree: int, rewire_probability: float = 0.1) -> "LayerTopology":
        return LayerTopology(kind="ws", ring_degree=ring_degree,
                             rewire_probability=rewire_probability)

    @staticmethod
    def sf(attachment_count: int,
           seed_clique_size: int | None = None) -> "LayerTopology":
        return LayerTopology(kind="sf", attachment_count=attachment_count,
                             seed_clique_size=seed_clique_size)

    def realise(self, node_count: int, rng: np.random.Generator) -> np.ndarray:
        if self.kind == "er":
            return generate_er(node_count, self.edge_probability, rng)
        if self.kind == "ws":
            return generate_ws(node_count, self.ring_degree,
                               self.rewire_probability, rng)
        if self.kind == "sf":
            return generate_sf(node_count, self.attachment_count,
                               self.seed_clique_size, rng)
        raise ValueError(f"unknown layer kind {self.kind!r}")


@dataclass(frozen=True)
class MultiplexSpec:
    """Everything needed to build a multiplex reproducibly."""

    node_count: int
    layer_count: int
    topologies: tuple[LayerTopology, ...]
    homophily_sigma: float = 1.0
    rng_seed: int = 0

    def __post_init__(self):
        if self.node_count < 2:
            raise ValueError(f"node_count must be >= 2, got {self.node_count}")
        if self.layer_count < 1:
            raise ValueError(
                f"layer_count must be >= 1, got {self.layer_count}")
        if len(self.topologies) != self.layer_count:
            raise ValueError(
                f"expected {self.layer_count} topologies, "
                f"got {len(self.topologies)}")
        if not 0.0 <= self.homophily_sigma < math.inf:  # NaN fails too
            raise ValueError(f"homophily_sigma must be finite and >= 0, "
                             f"got {self.homophily_sigma}")


@dataclass(frozen=True, eq=False)
class MultiplexNetwork:
    """A realised multiplex: its weighted edges, one CSR over the flat
    slots ``alpha * N + i`` (slot s's neighbours, ascending, are
    ``neighbour_slot[neighbour_ptr[s]:neighbour_ptr[s + 1]]``, each beside
    its link weight in ``edge_weight`` and its ``delta_ij`` in
    ``edge_delta``; an edge sits in both endpoints' rows), and the shared
    N x N distances ``delta``, read only to build, save and load.  The
    arrays are read-only: runs on one network object share one scaling
    table, which an edit would leave stale.
    """

    neighbour_ptr: np.ndarray
    neighbour_slot: np.ndarray = field(repr=False)
    edge_weight: np.ndarray = field(repr=False)
    edge_delta: np.ndarray = field(repr=False)
    delta: np.ndarray = field(repr=False)

    def __post_init__(self):
        for array in (self.neighbour_ptr, self.neighbour_slot,
                      self.edge_weight, self.edge_delta, self.delta):
            array.flags.writeable = False

    @property
    def node_count(self) -> int:
        return self.delta.shape[0]

    @property
    def layer_count(self) -> int:
        return (self.neighbour_ptr.size - 1) // self.node_count

    @property
    def adjacency(self) -> list[np.ndarray]:
        """Each layer's 0/1 ``int8`` N x N matrix, built on every access
        for readers that want dense layers; megt itself never builds it."""
        n, m = self.node_count, self.layer_count
        dense = np.zeros((m * n, n), dtype=np.int8)
        dense[self.edge_owner(), self.neighbour_slot % n] = 1
        return list(dense.reshape(m, n, n))

    def edge_owner(self) -> np.ndarray:
        """The slot whose row holds each edge, beside ``neighbour_slot``."""
        return np.repeat(np.arange(self.neighbour_ptr.size - 1),
                         np.diff(self.neighbour_ptr))

    def layer_degrees(self) -> np.ndarray:
        """(M, N) integer degree table."""
        return np.diff(self.neighbour_ptr).reshape(self.layer_count,
                                                   self.node_count)

    def weight_sums(self) -> np.ndarray:
        """(M, N): each slot's link weights added left to right in CSR
        order (bincount gives int64 when there is no edge at all)."""
        return np.bincount(self.edge_owner(), weights=self.edge_weight,
                           minlength=self.neighbour_ptr.size - 1
                           ).astype(float).reshape(self.layer_count, -1)


def _from_edges(delta: np.ndarray, m: int, edges: list) -> MultiplexNetwork:
    """The multiplex of M layers over ``delta`` whose undirected edges
    are the rows of ``edges``, a list of ``(layer, i, j, weight)``
    column arrays that give each edge once, in either node order."""
    n = delta.shape[0]
    layer, i, j, weight = (np.concatenate(c) for c in zip(*edges))
    owner = np.concatenate((layer * n + i, layer * n + j))
    other = np.concatenate((j, i))
    # keys below (M + 1) * N^2, which the loader keeps inside int64
    order = np.argsort(owner * n + other)
    ptr = np.zeros(m * n + 1, dtype=np.int64)
    np.cumsum(np.bincount(owner, minlength=m * n), out=ptr[1:])
    owner, other = owner[order], other[order]
    return MultiplexNetwork(ptr, owner - owner % n + other,
                            np.concatenate((weight, weight))[order],
                            delta[owner % n, other], delta)


def _layer_edges(alpha: int, adjacency: np.ndarray, delta: np.ndarray):
    """Dense layer alpha's edges ``(alpha, i, j, w_ij)``, i < j, weighted
    ``h_ij * (c_i + c_j) / 2`` from the layer's eigenvector centrality c
    and ``h = 1 / (1 + delta)``."""
    i, j = np.nonzero(adjacency)
    i, j = i[i < j], j[i < j]
    try:
        c = eigenvector_centrality(adjacency)
    except ValueError as exc:
        raise ValueError(f"layer {alpha}: {exc}") from None
    weight = homophily_from_delta(delta[i, j]) * (0.5 * (c[i] + c[j]))
    return np.full(i.size, alpha), i, j, weight


def build_multiplex(spec: MultiplexSpec) -> MultiplexNetwork:
    """Realise a spec deterministically.

    Randomness is split off a single root seed: the homophily draw and
    each layer get independent child streams, so the same spec always
    produces the identical network, bit for bit.  Each layer's dense
    matrix lives only while its centrality and edges are taken from it.
    """
    homophily_rng = np.random.default_rng(
        np.random.SeedSequence(spec.rng_seed, spawn_key=(0,)))
    delta = sample_homophily(spec.node_count, spec.homophily_sigma,
                             homophily_rng)
    edges = []
    for alpha, topo in enumerate(spec.topologies):
        layer_rng = np.random.default_rng(
            np.random.SeedSequence(spec.rng_seed, spawn_key=(1 + alpha,)))
        edges.append(_layer_edges(
            alpha, topo.realise(spec.node_count, layer_rng), delta))
    return _from_edges(delta, spec.layer_count, edges)


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

def save_multiplex(network: MultiplexNetwork, path) -> None:
    """Write the edge-list text format.

    Layout: a header ``multiplex v1 N M``; one ``alpha src dst weight``
    line per undirected edge (src < dst, weight is the layer's link
    weight at 15 significant digits, ``%.15g``); then one
    ``delta i j value`` line per unordered node pair (i < j).
    """
    n, m = network.node_count, network.layer_count
    alpha, i = np.divmod(network.edge_owner(), n)
    j = network.neighbour_slot % n
    upper = i < j
    iu, ju = np.triu_indices(n, k=1)
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"multiplex v1 {n} {m}\n")
        write_lines(fh, "%d %d %d %.15g\n", (alpha[upper], i[upper],
                                              j[upper],
                                              network.edge_weight[upper]))
        write_lines(fh, "delta %d %d %.15g\n",
                    (iu, ju, network.delta[iu, ju]))


# One body line as the bulk reader parses it.  The kind stays text, so
# that a layer index is read by int() exactly like the header; a kind as
# wide as the field may have been cut short and is read again from its line.
_ROW = np.dtype([("kind", "S8"), ("i", np.int64), ("j", np.int64),
                 ("value", np.float64)])
_CHUNK_LINES = 4096  # lines per reader call when looking for a bad line
# per-row layer codes for a kind that names no layer
_DELTA, _OUT_OF_RANGE, _NOT_AN_INDEX = -1, -2, -3
_INT64 = 2 ** 63


def load_multiplex(path) -> MultiplexNetwork:
    """Read the edge-list format back into a MultiplexNetwork.

    The file is ASCII.  Line 1 is the header ``multiplex v1 N M``; every
    further line is blank, an edge ``alpha i j weight`` or a distance
    ``delta i j value``, with fields separated by spaces or tabs and
    lines ended by LF, CRLF or CR.  Indices are decimal integers with
    an optional sign and values decimal floats; node indices and values
    take no digit-group underscores.  Layer indices lie in [0, M), node
    indices in [0, N) with i != j, and values are finite and
    nonnegative.  No edge of a layer and no distance may appear
    twice, in either node order, and every unordered node pair needs
    its distance.  Edges, distances and link weights are taken verbatim
    from the file; nothing is recomputed.

    The body is parsed in bulk and checked column by column before any
    N x N array is allocated.  Raises ValueError naming the first
    offending line, or the first pair without a distance.
    """
    n, m, layer, i, j, value = _read_checked(path)
    is_delta = layer == _DELTA
    delta = np.zeros((n, n))
    di, dj = i[is_delta], j[is_delta]
    delta[di, dj] = delta[dj, di] = value[is_delta]
    edge = ~is_delta
    return _from_edges(delta, m, [(layer[edge], i[edge], j[edge],
                                   value[edge])])


def _read_checked(path):
    """Parse and check a v1 file: N, M and the row columns (layer code,
    i, j, value) of a file that passes every check.

    numpy's reader parses the file itself, so no Python string is made
    per line.  The lines are those of ``str.splitlines()``; a file that
    holds a character the reader would take differently, or a line the
    reader rejects, is split into lines and parsed as a list of them.
    """
    with open(path, encoding="ascii") as fh:
        text = fh.read()  # universal newlines: each line end is now "\n"
    if not text:
        raise ValueError(f"{path}: empty file")
    # str.splitlines() also ends a line at \v, \f and \x1c-\x1e, where
    # the reader sees whitespace; and a NUL at the end of the kind would
    # drop off the reader's fixed-width text field
    plain = not any(c in text for c in "\0\v\f\x1c\x1d\x1e")
    first = text.split("\n", 1)[0]
    del text
    header_line = first.splitlines()[0] if first else ""
    header = header_line.split()
    if len(header) != 4 or header[0] != "multiplex" or header[1] != "v1":
        raise ValueError(f"{path}: line 1: bad header {header_line!r}")
    try:
        n, m = int(header[2]), int(header[3])
    except ValueError:
        raise ValueError(
            f"{path}: line 1: bad header {header_line!r}") from None
    # the pair keys below are int64; no file this large fits in memory
    if n < 1 or m < 1 or (m + 1) * n * n >= _INT64:
        raise ValueError(f"{path}: line 1: bad dimensions N={n} M={m}")
    rows = _parse(path, skip=1) if plain else None
    rejected = None
    if rows is None:
        body = _lines(path)[1:]
        rows, rejected = _read_rows(body)
    layer = _layer_codes(rows["kind"], m, path)
    i, j, value = rows["i"], rows["j"], rows["value"]
    if rejected is not None:
        problem, row = _reread(body[rejected], m)
        if row is not None:
            layer, i, j, value = (np.append(column, x) for column, x
                                  in zip((layer, i, j, value), row))
    error = _first_error(layer, i, j, value, n)
    if error is None and rejected is not None:
        error = (rows.size, problem)
    if error is not None:
        row, problem = error
        lineno = _numbered_rows(path)[row][0]
        raise ValueError(f"{path}: line {lineno}: {problem}")
    is_delta = layer == _DELTA
    if np.count_nonzero(is_delta) != n * (n - 1) // 2:
        di, dj = i[is_delta], j[is_delta]
        keys = np.minimum(di, dj) * n + np.maximum(di, dj)
        pair = _first_missing(np.sort(keys), n)
        raise ValueError(f"{path}: missing delta entry for pair {pair}")
    return n, m, layer, i, j, value


def _lines(path) -> list[str]:
    with open(path, encoding="ascii") as fh:
        return fh.read().splitlines()


def _numbered_rows(path) -> list[tuple[int, str]]:
    """(line number, text) of each non-blank line after the header:
    entry r is the line of parsed row r."""
    return [(k, line) for k, line in enumerate(_lines(path)[1:], start=2)
            if line.strip()]


def _parse(source, skip: int = 0) -> np.ndarray | None:
    """The rows numpy's reader parses from ``source``, a path or a list
    of lines, or None when it rejects a line."""
    with warnings.catch_warnings():
        # a body of blank lines is the valid file of one node and no edge
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        try:
            return np.loadtxt(source, dtype=_ROW, comments=None, ndmin=1,
                              skiprows=skip, encoding="ascii")
        except ValueError:
            return None


def _read_rows(body: list[str]) -> tuple[np.ndarray, int | None]:
    """Parse the body lines with numpy's reader.

    Returns the rows of the non-blank lines before the first line the
    reader rejects, and that line's index in ``body`` (None when every
    line is read).  A line holding a NUL counts as rejected.
    """
    stop = next((k for k, line in enumerate(body) if "\0" in line),
                len(body))
    rows = _parse(body[:stop])
    if rows is None:
        stop = _first_rejected(body[:stop])
        rows = _parse(body[:stop])
    return rows, (stop if stop < len(body) else None)


def _first_rejected(lines: list[str]) -> int:
    """Index of the first line the reader rejects: the first rejected
    chunk, then its lines one at a time."""
    for start in range(0, len(lines), _CHUNK_LINES):
        chunk = lines[start:start + _CHUNK_LINES]
        if _parse(chunk) is None:
            return start + next(k for k, line in enumerate(chunk)
                                if _parse([line]) is None)
    return len(lines)


def _layer_code(kind, m: int) -> int:
    try:
        alpha = int(kind)
    except ValueError:
        return _NOT_AN_INDEX
    return alpha if 0 <= alpha < m else _OUT_OF_RANGE


def _layer_codes(kind: np.ndarray, m: int, path) -> np.ndarray:
    """Per row: the layer index, or ``_DELTA``, ``_OUT_OF_RANGE`` or
    ``_NOT_AN_INDEX``.  int() runs once per distinct kind."""
    layer = np.full(kind.size, _DELTA, dtype=np.int64)
    edge = np.flatnonzero(kind != b"delta")
    if edge.size == 0:
        return layer
    names = np.sort(kind[edge])
    names = names[np.concatenate(([True], names[1:] != names[:-1]))]
    codes = np.array([_layer_code(name, m) for name in names.tolist()],
                     dtype=np.int64)
    layer[edge] = codes[np.searchsorted(names, kind[edge])]
    cut = [name for name in names.tolist()
           if len(name) == _ROW["kind"].itemsize]
    if cut:
        lines = _numbered_rows(path)
        for name in cut:
            for row in np.flatnonzero(kind == name).tolist():
                layer[row] = _layer_code(lines[row][1].split(None, 1)[0], m)
    return layer


def _reread(line: str, m: int):
    """Read a line the bulk reader rejected field by field, with int()
    and float().  Returns the error to report for it and, when every
    field converts, its row (an index past int64 becomes the nearest
    int64, out of range like the index itself), so that a range check
    still comes first."""
    parts = line.split()
    if len(parts) != 4:
        return f"expected 4 fields, got {len(parts)}", None
    kind = "delta" if parts[0] == "delta" else "edge"
    problem = f"malformed {kind} line"
    layer = _DELTA if kind == "delta" else _layer_code(parts[0], m)
    try:
        i, j, value = int(parts[1]), int(parts[2]), float(parts[3])
    except ValueError:
        return problem, None
    if layer == _NOT_AN_INDEX:
        return problem, None
    i, j = (max(min(x, _INT64 - 1), -_INT64) for x in (i, j))
    return problem, (layer, i, j, value)


def _first_error(layer, i, j, value, n: int):
    """The first row failing a check, with the failure, or None.

    Checks in the order of the per-line format: kind, node range,
    finite, nonnegative, then a repeat of an earlier row's pair in the
    same layer (or among the distances), in either node order.
    """
    nodes_ok = (i >= 0) & (i < n) & (j >= 0) & (j < n) & (i != j)
    keyed = nodes_ok & (layer >= _DELTA)
    # distances take slot 0 of the key, layer alpha slot alpha + 1
    key = ((layer + 1) * n + np.minimum(i, j)) * n + np.maximum(i, j)
    key = np.where(keyed, key, -1 - np.arange(key.size))
    bad = (layer < _DELTA) | ~nodes_ok | ~np.isfinite(value) | (value < 0)
    ordered = np.sort(key)
    if (ordered[1:] == ordered[:-1]).any():
        order = np.argsort(key, kind="stable")
        repeat = np.zeros(key.size, dtype=bool)
        repeat[order[1:][key[order[1:]] == key[order[:-1]]]] = True
        bad |= repeat
    rows = np.flatnonzero(bad)
    if rows.size == 0:
        return None
    row = int(rows[0])
    what = "distance" if layer[row] == _DELTA else "edge weight"
    if layer[row] == _NOT_AN_INDEX:
        return row, "malformed edge line"
    if layer[row] == _OUT_OF_RANGE:
        return row, "layer index out of range"
    if not nodes_ok[row]:
        return row, "node index out of range"
    if not math.isfinite(value[row]):
        return row, f"non-finite {what}"
    if value[row] < 0:
        return row, f"negative {what}"
    return row, "duplicate delta" if layer[row] == _DELTA else "duplicate edge"


def _first_missing(keys: np.ndarray, n: int) -> tuple[int, int]:
    """The first pair (i, j), i < j, in row-major order whose key
    ``i * n + j`` is not among ``keys`` (sorted, distinct, valid)."""
    lo, hi = keys // n, keys % n
    successor = np.where(hi + 1 < n, keys + 1, (lo + 1) * n + lo + 2)
    expected = np.concatenate(([1], successor[:-1]))
    gaps = np.flatnonzero(keys != expected)
    if gaps.size:
        key = int(expected[gaps[0]])
    else:
        key = int(successor[-1]) if keys.size else 1
    return divmod(key, n)
