"""Asynchronous Monte Carlo strategy evolution on a multiplex.

One round consists of (a) accumulating every player's payoff on every
layer from its current strategies and link weights, (b) N*M elementary
imitation steps, each picking a random (node, layer), a random neighbour
on that layer, and adopting the neighbour's strategy with a homophily-
and coupling-scaled Fermi probability, and (c) crediting each
still-cooperating (node, layer) slot with its degree for the
behavioural-honesty bookkeeping.  Payoffs are frozen at the start of the
round; strategies update immediately within the round.  The imitation
steps run in a small C function (``round.c``, built on first use by
``megt.kernel``) when a C compiler is available, and otherwise in a
Python loop that gives the same bits.

A run iterates rounds until the sliding-window mean of the cooperator
density stops moving, an absorbing state (density exactly 0 or 1) is
reached, or a round budget is exhausted; ``Trajectory.stop_reason``
says which.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
import operator
import os
from dataclasses import dataclass, field

import numpy as np

from .comm import Communicability, ScalingBounds, communicability
from .games import COOPERATE, PayoffMatrix, from_ts
from .netgen import MultiplexNetwork, MultiplexSpec, build_multiplex

__all__ = [
    "DISTANCE_FLOOR",
    "SimulationConfig",
    "SimulationState",
    "Trajectory",
    "RunResult",
    "GridResult",
    "init_state",
    "accumulate_payoffs",
    "fermi_probability",
    "ScalingTable",
    "RoundEngine",
    "replica_network",
    "run",
    "run_replicas",
    "sweep_ts",
    "density",
    "write_trajectory_csv",
    "write_grid_csv",
    "write_state_text",
    "read_state_text",
]

# social distances below this floor behave like the floor in the Fermi
# denominator, so indistinguishable pairs give near-deterministic
# imitation instead of a division blow-up
DISTANCE_FLOOR = 1e-6

# math.exp overflows just above 709; beyond this the probability has
# saturated to 0 or to the scaling factor anyway
_EXP_CLAMP = 700.0


def fermi_probability(payoff_self: float, payoff_other: float,
                      distance: float, selection_intensity: float,
                      scaling: float = 1.0) -> float:
    """Probability that a player adopts a neighbour's strategy.

    ``scaling / (1 + exp((payoff_self - payoff_other) / (d * kappa)))``
    with ``d = max(distance, DISTANCE_FLOOR)``.  Equal payoffs give
    exactly ``scaling / 2``; a socially closer pair (smaller distance)
    sharpens the comparison in both directions.
    """
    if not 0.0 < selection_intensity < math.inf:  # NaN fails too
        raise ValueError(f"selection_intensity must be finite and > 0, "
                         f"got {selection_intensity}")
    x = (payoff_self - payoff_other) / (
        max(distance, DISTANCE_FLOOR) * selection_intensity)
    if x > _EXP_CLAMP:
        return 0.0
    if x < -_EXP_CLAMP:
        return scaling
    return scaling / (1.0 + math.exp(x))


@dataclass
class SimulationConfig:
    """Inputs of one evolutionary run (or replica set).

    Exactly one of ``spec`` / ``network`` must be given.  With a spec,
    every replica realises its own network from a spawned seed, so
    replica averages also average over topology and homophily draws;
    with a prebuilt network all replicas share it and only the dynamics
    seed varies.  A prebuilt network is treated as immutable: runs that
    share the object reuse one communicability table.
    """

    game: PayoffMatrix
    spec: MultiplexSpec | None = None
    network: MultiplexNetwork | None = None
    selection_intensity: float = 0.1
    scaling_bounds: ScalingBounds = field(default_factory=ScalingBounds)
    interlayer_strength: float = 0.5
    initial_coop_fraction: float = 0.5
    payoff_weights: str = "weighted"
    max_rounds: int = 5000
    steady_window: int = 200
    steady_tolerance: float = 1e-3
    replicas: int = 1
    rng_seed: int = 0

    def __post_init__(self):
        if (self.spec is None) == (self.network is None):
            raise ValueError("exactly one of spec/network must be provided")
        # written so that NaN fails every check
        if not 0.0 <= self.initial_coop_fraction <= 1.0:
            raise ValueError(
                f"initial_coop_fraction must lie in [0, 1], "
                f"got {self.initial_coop_fraction}")
        if not 0.0 < self.selection_intensity < math.inf:
            raise ValueError(
                f"selection_intensity must be finite and > 0, "
                f"got {self.selection_intensity}")
        if not 0.0 <= self.interlayer_strength < math.inf:
            raise ValueError(
                f"interlayer_strength must be finite and >= 0, "
                f"got {self.interlayer_strength}")
        if self.payoff_weights not in ("weighted", "binary"):
            raise ValueError(
                f"payoff_weights must be 'weighted' or 'binary', "
                f"got {self.payoff_weights!r}")
        if self.max_rounds < 1:
            raise ValueError(f"max_rounds must be >= 1, got {self.max_rounds}")
        if self.steady_window < 1:
            raise ValueError(
                f"steady_window must be >= 1, got {self.steady_window}")
        if self.max_rounds < self.steady_window:
            raise ValueError(
                f"max_rounds ({self.max_rounds}) must be >= steady_window "
                f"({self.steady_window})")
        if not 0.0 < self.steady_tolerance < math.inf:
            raise ValueError(
                f"steady_tolerance must be finite and > 0, "
                f"got {self.steady_tolerance}")
        if self.replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {self.replicas}")


@dataclass
class SimulationState:
    """Mutable per-run state: the (M, N) strategy table, the
    completed-round counter, the cumulative cooperative-interaction
    counter per node, and the dynamics RNG."""

    strategies: np.ndarray
    round_index: int
    coop_count: np.ndarray
    rng: np.random.Generator


@dataclass
class Trajectory:
    """Cooperator density per round; ``rho[0]`` is the initial state and
    ``rho[k]`` the density after round k.

    ``stop_reason`` says why the run ended: ``steady`` (the windowed
    density stopped moving), ``absorbing`` (density exactly 0 or 1),
    ``budget`` (``max_rounds`` ran out) or ``edgeless`` (no slot has a
    neighbour, so no round ran).  ``converged`` is false only for
    ``budget``.  A trajectory no single run produced, such as a replica
    mean, has no stop reason.
    """

    rho: list[float]
    steady_rho: float
    converged: bool
    stop_reason: str | None = None

    @property
    def rounds(self) -> int:
        return len(self.rho) - 1


@dataclass
class RunResult:
    trajectory: Trajectory
    state: SimulationState
    network: MultiplexNetwork


def init_state(network: MultiplexNetwork, initial_coop_fraction: float,
               rng: np.random.Generator) -> SimulationState:
    """Fresh state: each (node, layer) cooperates independently with the
    given probability; counters start at zero."""
    m, n = network.layer_count, network.node_count
    strategies = (rng.random((m, n)) < initial_coop_fraction).astype(np.int8)
    return SimulationState(strategies=strategies,
                           round_index=0,
                           coop_count=np.zeros(n, dtype=np.int64),
                           rng=rng)


def accumulate_payoffs(state: SimulationState, network: MultiplexNetwork,
                       game: PayoffMatrix, payoff_weights: str = "weighted",
                       table: ScalingTable | None = None) -> np.ndarray:
    """Per-(layer, node) payoff sums against all layer neighbours.

    Each edge contributes ``w_ij * payoff(s_i, s_j)``; the ``binary``
    mode replaces the link weights by the bare adjacency.  Isolated
    slots get 0.  Passing the network's ``table`` reuses its coupling
    row sums instead of recomputing them; the result is the same bits.
    """
    weighted = payoff_weights == "weighted"
    if table is not None:
        row_sums = table.weight_sums if weighted else table.degrees
    elif weighted:
        row_sums = np.stack([w.sum(axis=1) for w in network.weights])
    else:
        row_sums = network.layer_degrees()
    couplings = network.weights if weighted else network.adjacency
    is_coop = state.strategies == COOPERATE
    coop = is_coop.astype(float)
    # one matrix-vector product per layer; the binary sums are exact
    coop_mass = np.stack([w @ x for w, x in zip(couplings, coop)])
    vs_coop = np.where(is_coop, game.reward, game.temptation)
    vs_defect = np.where(is_coop, game.sucker, game.punishment)
    return vs_coop * coop_mass + vs_defect * (row_sums - coop_mass)


class ScalingTable:
    """The static data a round reads, built once per network.

    Per flat slot ``alpha * N + i`` (the supra-matrix's layer-major
    order): ``neighbours`` on layer alpha; ``distance``, the floored
    social distance ``max(delta_ij, DISTANCE_FLOOR)`` to each of them in
    neighbour order; ``cross_index`` and ``cross_value``, the slot's
    cross-layer neighbourhood in ``comm._cross_neighbourhood``'s order
    and its communicability entries; ``denominator``, their sum.
    ``degrees`` is the (M, N) degree table and ``weight_sums`` the (M, N)
    row sums of the link weights; ``isolated`` marks the slots without a
    neighbour, and ``has_isolated`` and ``edgeless`` say whether some or
    all slots lack one.  None of it depends on strategies, the game or
    the selection intensity.

    The compiled round reads the same data flattened, ``kernel_arrays``,
    through the addresses in ``kernel_pointers``.
    """

    def __init__(self, network: MultiplexNetwork, comm: Communicability):
        n, m = network.node_count, network.layer_count
        layers = network.neighbour_lists()
        self.neighbours = [nbrs for layer in layers for nbrs in layer]
        floored = np.maximum(network.delta, DISTANCE_FLOOR)
        self.distance = [floored[i, nbrs].tolist()
                         for layer in layers for i, nbrs in enumerate(layer)]
        # node i's counterpart on layer beta, then its neighbours there
        blocks = [[[beta * n + i] + [beta * n + j for j in nbrs]
                   for i, nbrs in enumerate(layer)]
                  for beta, layer in enumerate(layers)]
        self.cross_index = [[k for beta in range(m) if beta != alpha
                             for k in blocks[beta][i]]
                            for alpha in range(m) for i in range(n)]
        self.cross_value = [row[idx].tolist() for row, idx
                            in zip(comm.matrix, self.cross_index)]
        # left to right like scaling_factor; builtin sum compensates on 3.12+
        self.denominator = [functools.reduce(operator.add, values, 0.0)
                            for values in self.cross_value]
        self.degrees = network.layer_degrees()
        self.weight_sums = np.stack([w.sum(axis=1) for w in network.weights])
        degree = self.degrees.reshape(-1)
        self.isolated = degree == 0
        self.has_isolated = bool(self.isolated.any())
        self.edgeless = bool(self.isolated.all())
        # the same lists as CSR arrays (row offsets, then entries), in the
        # argument order of round.c; neighbours are flat slots there
        layer_base = np.repeat(np.arange(m, dtype=np.int64) * n, n)
        self.kernel_arrays = (
            _row_offsets(degree),
            (_flatten(self.neighbours, np.int64)
             + np.repeat(layer_base, degree)),
            _flatten(self.distance, float),
            _row_offsets([len(idx) for idx in self.cross_index]),
            _flatten(self.cross_index, np.int64),
            _flatten(self.cross_value, float),
            np.array(self.denominator, dtype=float))
        self.kernel_pointers = tuple(array.ctypes.data
                                     for array in self.kernel_arrays)


def _row_offsets(lengths) -> np.ndarray:
    """CSR row pointers: 0 followed by the running sum of ``lengths``."""
    offsets = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    return offsets


def _flatten(rows: list[list], dtype) -> np.ndarray:
    """The rows of a list of lists, concatenated into one array."""
    return np.fromiter(itertools.chain.from_iterable(rows), dtype=dtype,
                       count=sum(map(len, rows)))


class RoundEngine:
    """One run's Monte Carlo rounds over a shared ScalingTable.

    The engine adds the per-run inputs (game, selection intensity,
    scaling bounds, payoff mode) and holds no per-slot data.  A round
    makes three bulk RNG draws in numpy and runs its N*M imitation steps
    in one call of the compiled kernel from ``megt.kernel``, or, when
    that cannot be built, in ``_python_steps``, which gives the same
    bits.  ``round_kernel`` records which: ``"c"`` or
    ``"python: <reason>"``.
    """

    def __init__(self, network: MultiplexNetwork, game: PayoffMatrix,
                 table: ScalingTable, config: SimulationConfig):
        from . import kernel  # ctypes stays off the import path
        self.network = network
        self.game = game
        self.config = config
        self.table = table
        self.node_count = network.node_count
        self.layer_count = network.layer_count
        self.slot_count = self.node_count * self.layer_count
        self._kernel, self.round_kernel = kernel.load()

    def round(self, state: SimulationState) -> float:
        """Advance one full Monte Carlo round; returns the cooperator
        density after the round.  ``state.strategies`` is replaced by a
        new array, so a caller may keep the old one.
        """
        nm, table = self.slot_count, self.table
        payoffs = accumulate_payoffs(state, self.network, self.game,
                                     self.config.payoff_weights, table)
        rng = state.rng
        picks = rng.integers(0, nm, size=nm)
        u_neighbour = rng.random(nm)
        u_adopt = rng.random(nm)
        if table.has_isolated:
            # a pick on an isolated slot is redrawn until it has a
            # neighbour; the steps draw nothing else, so redrawing before
            # them keeps the RNG stream of redrawing at the step
            isolated = table.isolated
            for t in np.flatnonzero(isolated[picks]).tolist():
                flat = int(picks[t])
                while isolated[flat]:
                    flat = int(rng.integers(nm))
                picks[t] = flat
        strategies = np.array(state.strategies, dtype=np.int8).reshape(nm)
        coop_total = int(strategies.sum())
        if self._kernel is None:
            coop_total += self._python_steps(payoffs, picks, u_neighbour,
                                             u_adopt, strategies)
        else:
            payoffs = np.ascontiguousarray(payoffs, dtype=float).reshape(nm)
            coop_total += self._kernel(
                nm, picks.ctypes.data, u_neighbour.ctypes.data,
                u_adopt.ctypes.data, payoffs.ctypes.data,
                strategies.ctypes.data, *table.kernel_pointers,
                self.config.selection_intensity,
                self.config.scaling_bounds.span, _EXP_CLAMP)
        state.strategies = strategies.reshape(self.layer_count,
                                              self.node_count)
        state.coop_count += (
            (state.strategies == COOPERATE) * table.degrees).sum(axis=0)
        state.round_index += 1
        return coop_total / nm

    def _python_steps(self, payoffs: np.ndarray, picks: np.ndarray,
                      u_neighbour: np.ndarray, u_adopt: np.ndarray,
                      strategies: np.ndarray) -> int:
        """The round's imitation steps in Python: the fallback for the
        compiled kernel and the oracle it is tested against.  Updates
        the flat ``strategies`` in place and returns the change in the
        cooperator count.

        The loop inlines ``comm.scaling_factor``, read from the table,
        and ``fermi_probability``, with their float operations; a round
        built from those two is the oracle this one must match bit for
        bit.
        """
        n = self.node_count
        pay: list[list[float]] = payoffs.tolist()
        u_neighbour, u_adopt = u_neighbour.tolist(), u_adopt.tolist()
        current: list[int] = strategies.tolist()
        table = self.table
        neighbours, dist = table.neighbours, table.distance
        cross_index, cross_value = table.cross_index, table.cross_value
        denominator = table.denominator
        kappa = self.config.selection_intensity
        span = self.config.scaling_bounds.span
        exp = math.exp
        change = 0
        for t, flat in enumerate(picks.tolist()):
            options = neighbours[flat]
            pick = int(u_neighbour[t] * len(options))
            alpha, i = divmod(flat, n)
            j = options[pick]
            own = current[flat]
            other = current[alpha * n + j]
            if own == other:
                continue  # adoption would be a no-op
            x = (pay[alpha][i] - pay[alpha][j]) / (dist[flat][pick] * kappa)
            if x > _EXP_CLAMP:
                continue  # saturated at probability 0
            den = denominator[flat]
            scaling = 1.0
            if den > 0.0:
                num = 0.0
                for k, g in zip(cross_index[flat], cross_value[flat]):
                    if current[k] == own:
                        num += g
                scaling = 1.0 - span * (num / den)
            prob = scaling if x < -_EXP_CLAMP else scaling / (1.0 + exp(x))
            if u_adopt[t] < prob:
                current[flat] = other
                change += other - own
        strategies[:] = current
        return change


def _dynamics_rng(config: SimulationConfig, cell_index: int,
                  replica_index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(
        config.rng_seed, spawn_key=(cell_index, replica_index, 1)))


def replica_network(config: SimulationConfig, cell_index: int = 0,
                    replica_index: int = 0) -> MultiplexNetwork:
    """The network that ``run`` uses for (cell_index, replica_index).

    A prebuilt network is shared by every run; a spec is realised from a
    seed spawned from the pair, so each replica gets its own network.
    """
    if config.network is not None:
        return config.network
    seed_seq = np.random.SeedSequence(
        config.rng_seed, spawn_key=(cell_index, replica_index, 0))
    child_seed = int(seed_seq.generate_state(1, np.uint64)[0])
    spec = dataclasses.replace(config.spec, rng_seed=child_seed)
    return build_multiplex(spec)


# the scaling table of the last prebuilt network: (network, omega, table)
_table_memo: tuple[MultiplexNetwork, float, ScalingTable] | None = None


def _scaling_table(config: SimulationConfig,
                   network: MultiplexNetwork) -> ScalingTable:
    """The run's ScalingTable, reused while the prebuilt network is.

    The table is per-network data: it depends only on the network and
    the coupling strength, so replicas and sweep cells that share a
    prebuilt network share one table and add only their per-run state.
    The one-slot memo holds the network object itself and matches it
    with ``is``; a prebuilt network must therefore not be mutated
    between runs.  Spec-built networks are fresh for every replica and
    are never memoised.
    """
    global _table_memo
    omega = config.interlayer_strength
    memo = _table_memo
    if memo is not None and memo[0] is network and memo[1] == omega:
        return memo[2]
    table = ScalingTable(network, communicability(network, omega))
    if config.network is network:
        _table_memo = (network, omega, table)
    return table


def run(config: SimulationConfig, *, cell_index: int = 0,
        replica_index: int = 0, on_round=None) -> RunResult:
    """Execute one simulation to steady state.

    Stops when the mean density over the last ``steady_window`` rounds
    differs from the mean over the window before it by less than
    ``steady_tolerance``, when the state is absorbing (density exactly
    0 or 1 cannot change under imitation, so waiting out the window
    would be pure waste), or after ``max_rounds`` rounds, whichever
    comes first.  ``steady_rho`` is the mean over the final window (the
    exact density, for absorbing exits).  A multiplex without edges is
    absorbing from the start: the run returns ``rho[0]`` after no rounds.

    ``on_round(round_index, state)``, if given, is called on the initial
    state and after every round; the equilibrium tracker hooks in here.
    The same (config, cell_index, replica_index) triple reproduces the
    trajectory bit for bit.
    """
    network = replica_network(config, cell_index, replica_index)
    engine = RoundEngine(network, config.game,
                         _scaling_table(config, network), config)
    rng = _dynamics_rng(config, cell_index, replica_index)
    state = init_state(network, config.initial_coop_fraction, rng)
    nm = engine.slot_count
    rho = [float((state.strategies == COOPERATE).sum() / nm)]
    cumulative = [0.0, rho[0]]
    if on_round is not None:
        on_round(0, state)
    window = config.steady_window
    stop_reason = None
    if engine.table.edgeless:
        stop_reason = "edgeless"
    elif rho[0] in (0.0, 1.0):
        stop_reason = "absorbing"
    while stop_reason is None and state.round_index < config.max_rounds:
        value = engine.round(state)
        rho.append(value)
        cumulative.append(cumulative[-1] + value)
        if on_round is not None:
            on_round(state.round_index, state)
        if value == 0.0 or value == 1.0:
            stop_reason = "absorbing"
            break
        rounds = len(rho) - 1
        if rounds >= 2 * window:
            recent = (cumulative[-1] - cumulative[-1 - window]) / window
            previous = (cumulative[-1 - window]
                        - cumulative[-1 - 2 * window]) / window
            if abs(recent - previous) < config.steady_tolerance:
                stop_reason = "steady"
    if stop_reason is None:
        stop_reason = "budget"
    if rho[-1] in (0.0, 1.0):
        steady = rho[-1]
    else:
        tail = min(window, len(rho))
        steady = (cumulative[-1] - cumulative[-1 - tail]) / tail
    trajectory = Trajectory(rho=rho, steady_rho=steady,
                            converged=stop_reason != "budget",
                            stop_reason=stop_reason)
    return RunResult(trajectory=trajectory, state=state, network=network)


def _worker_count(jobs: int, tasks: int) -> int:
    """Pool size for ``jobs`` requested over ``tasks`` independent tasks:
    never more than the tasks or the machine's CPUs, and at least 1."""
    return max(1, min(jobs, tasks, os.cpu_count() or 1))


# the function a pool worker maps, installed once per worker process
_worker_function = None


def _install_worker_function(function) -> None:
    global _worker_function
    _worker_function = function


def _call_worker_function(item):
    return _worker_function(item)


def _map(function, items: list, jobs: int) -> list:
    """``[function(item) for item in items]``, computed in a process pool
    when ``_worker_count`` allows more than one worker.  Results keep
    the order of ``items``, so the job count never changes them.

    ``function`` (a partial carrying the config, and with it any
    prebuilt network) is sent to each worker once, not with every item,
    so a worker's tasks share one network object and ``_scaling_table``
    computes its communicability once per worker.
    """
    workers = _worker_count(jobs, len(items))
    if workers == 1:
        return [function(item) for item in items]
    import concurrent.futures  # only a parallel run pays for the import
    with concurrent.futures.ProcessPoolExecutor(
            max_workers=workers, initializer=_install_worker_function,
            initargs=(function,)) as pool:
        return list(pool.map(_call_worker_function, items))


def _replica(config: SimulationConfig, cell_index: int,
             replica_index: int) -> RunResult:
    return run(config, cell_index=cell_index, replica_index=replica_index)


def run_replicas(config: SimulationConfig, *, cell_index: int = 0,
                 jobs: int = 1) -> list[RunResult]:
    """All replicas of a config, in replica order.

    ``jobs`` asks for that many worker processes, capped at the replica
    count and the CPUs.  Each replica's seeds derive from (cell_index,
    replica_index) alone, so results are independent of execution order
    and of the job count.
    """
    return _map(functools.partial(_replica, config, cell_index),
                list(range(config.replicas)), jobs)


def density(state: SimulationState) -> float:
    """Fraction of (node, layer) slots currently cooperating."""
    return float((state.strategies == COOPERATE).mean())


@dataclass
class GridResult:
    """Replica-averaged steady densities over a T-S grid (row-major:
    temptation outer, sucker inner)."""

    t_values: list[float]
    s_values: list[float]
    rho_mean: np.ndarray
    rho_std: np.ndarray
    replicas: int

    def rows(self):
        for it, t in enumerate(self.t_values):
            for js, s in enumerate(self.s_values):
                yield t, s, self.rho_mean[it, js], self.rho_std[it, js]


def _cell(config: SimulationConfig,
          cell: tuple[int, float, float]) -> tuple[float, float]:
    """Mean and population std of the steady densities of one grid cell's
    replicas."""
    cell_index, temptation, sucker = cell
    cell_config = dataclasses.replace(config, game=from_ts(temptation, sucker))
    steadies = [r.trajectory.steady_rho
                for r in run_replicas(cell_config, cell_index=cell_index)]
    return float(np.mean(steadies)), float(np.std(steadies))


def sweep_ts(config: SimulationConfig, t_values, s_values, *,
             jobs: int = 1) -> GridResult:
    """Replica-averaged steady density across a grid of T-S games.

    ``jobs`` asks for that many worker processes over cells, capped at
    the cell count and the CPUs.  The cell at (t_index, s_index) uses
    cell seeds spawned from its row-major index, so any execution order,
    job count or resumed sweep yields identical numbers.  Standard
    deviation is the population std over replicas.
    """
    t_values = [float(t) for t in t_values]
    s_values = [float(s) for s in s_values]
    cells = [(it * len(s_values) + js, t, s)
             for it, t in enumerate(t_values)
             for js, s in enumerate(s_values)]
    stats = np.array(_map(functools.partial(_cell, config), cells, jobs),
                     dtype=float).reshape(len(t_values), len(s_values), 2)
    return GridResult(t_values=t_values, s_values=s_values,
                      rho_mean=stats[..., 0], rho_std=stats[..., 1],
                      replicas=config.replicas)


def write_state_text(state: SimulationState, path) -> None:
    """Readable final-state snapshot.

    Line 1: ``state v1 N M round``.  Then one ``layer <alpha> <CD...>``
    line per layer (node-indexed strategy string), and a final
    ``coop <n0> <n1> ...`` line with the cumulative per-node
    cooperative-interaction counters.
    """
    m, n = state.strategies.shape
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"state v1 {n} {m} {state.round_index}\n")
        for alpha in range(m):
            symbols = "".join("C" if s == COOPERATE else "D"
                              for s in state.strategies[alpha])
            fh.write(f"layer {alpha} {symbols}\n")
        fh.write("coop " + " ".join(str(int(v)) for v in state.coop_count)
                 + "\n")


def read_state_text(path) -> SimulationState:
    """Parse a snapshot back (RNG unset)."""
    with open(path, encoding="ascii") as fh:
        lines = fh.read().splitlines()
    header = lines[0].split()
    if len(header) != 5 or header[0] != "state" or header[1] != "v1":
        raise ValueError(f"{path}: bad state header {lines[0]!r}")
    n, m, round_index = int(header[2]), int(header[3]), int(header[4])
    strategies = np.zeros((m, n), dtype=np.int8)
    coop = np.zeros(n, dtype=np.int64)
    for line in lines[1:]:
        parts = line.split()
        if not parts:
            continue
        if parts[0] == "layer":
            alpha, symbols = int(parts[1]), parts[2]
            if len(symbols) != n:
                raise ValueError(f"{path}: layer {alpha} has "
                                 f"{len(symbols)} strategies, expected {n}")
            strategies[alpha] = [1 if ch == "C" else 0 for ch in symbols]
        elif parts[0] == "coop":
            coop = np.array([int(v) for v in parts[1:]], dtype=np.int64)
        else:
            raise ValueError(f"{path}: unexpected line {line!r}")
    return SimulationState(strategies=strategies, round_index=round_index,
                           coop_count=coop, rng=None)


def write_trajectory_csv(trajectory: Trajectory, path) -> None:
    """``round,rho`` rows; round 0 is the initial density."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write("round,rho\n")
        for k, value in enumerate(trajectory.rho):
            fh.write(f"{k},{value!r}\n")


def write_grid_csv(grid: GridResult, path) -> None:
    """``T,S,rho_mean,rho_std,replicas`` rows in row-major grid order."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write("T,S,rho_mean,rho_std,replicas\n")
        for t, s, mu, sd in grid.rows():
            fh.write(f"{t!r},{s!r},{float(mu)!r},{float(sd)!r},"
                     f"{grid.replicas}\n")
