"""Asynchronous Monte Carlo strategy evolution on a multiplex.

One round consists of (a) accumulating every player's payoff on every
layer from its current strategies and link weights, (b) N*M elementary
imitation steps, each picking a random (node, layer), a random neighbour
on that layer, and adopting the neighbour's strategy with a homophily-
and coupling-scaled Fermi probability, and (c) crediting each
still-cooperating (node, layer) slot with its degree for the
behavioural-honesty bookkeeping.  Payoffs are frozen at the start of the
round; strategies update immediately within the round.

A run iterates rounds until the sliding-window mean of the cooperator
density stops moving, an absorbing state (density exactly 0 or 1) is
reached, or a round budget is exhausted; ``Trajectory.stop_reason``
says which.

``round.c``, built on first use by ``megt.kernel``, runs a whole run in
one call: payoffs, the draws, which it takes from numpy's bit generator
in numpy's order, the steps and the stop rule, and the Nash-pair counts
of an equilibrium tracker (its ``evaluate``'s counter).  It reads one
``ScalingTable`` of CSR arrays.
A host that cannot build the kernel cannot simulate: ``kernel.load``
raises a ``KernelError`` naming the cause.
"""

from __future__ import annotations

import collections
import dataclasses
import functools
import math
import os
import time
import weakref
from dataclasses import dataclass, field

import numpy as np

from . import comm
from .comm import ScalingBounds, _usable_cpus, communicability_entries
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
    "ScalingTable",
    "RoundEngine",
    "replica_network",
    "run",
    "run_replicas",
    "run_threads",
    "sweep_ts",
    "write_trajectory_csv",
    "write_grid_csv",
    "write_state_text",
]

# social distances below this floor behave like the floor in the Fermi
# denominator, so indistinguishable pairs give near-deterministic
# imitation instead of a division blow-up
DISTANCE_FLOOR = 1e-6

# math.exp overflows just above 709; beyond this the probability has
# saturated to 0 or to the scaling factor anyway
_EXP_CLAMP = 700.0

# the ScalingTable arrays that are table fields of round.c's engine struct,
# beside edge_weight and row_sum, which depend on the payoff mode
_TABLE_ARRAYS = ("neighbour_ptr", "neighbour_slot", "distance", "cross_ptr",
                 "cross_slot", "cross_value", "denominator")


@dataclass
class SimulationConfig:
    """Inputs of one evolutionary run (or replica set).

    Exactly one of ``spec`` / ``network`` must be given.  With a spec,
    every replica realises its own network from a spawned seed, so
    replica averages also average over topology and homophily draws; a
    sweep's cells share replica r's network.  With a prebuilt network
    all replicas share it and only the dynamics seed varies.  A prebuilt
    network is treated as immutable: runs that share the object reuse
    one communicability table.
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
    """One run's trajectory, final state and network.

    ``adoptions`` counts the imitation steps that changed a strategy.
    ``phase_s`` splits the run's wall time, in seconds: ``network``
    (realising or reusing it), ``communicability`` (with the scaling
    table), ``setup`` (engine and initial state) and ``rounds``.
    ``communicability`` says how the table's
    entries were computed, as ``comm.communicability_entries`` reports
    it: the method, the term count K and the series' thread count T.
    """

    trajectory: Trajectory
    state: SimulationState
    network: MultiplexNetwork
    adoptions: int = 0
    phase_s: dict[str, float] = field(default_factory=dict)
    communicability: dict = field(default_factory=dict)


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
                       game: PayoffMatrix,
                       payoff_weights: str = "weighted") -> np.ndarray:
    """Per-(layer, node) payoff sums against all layer neighbours.

    Each edge contributes ``w_ij * payoff(s_i, s_j)``; the ``binary``
    mode replaces the link weights by the bare adjacency.  Isolated
    slots get 0.  A slot's cooperating mass ``sum_j w_ij s_j`` and its
    weight sum are each added left to right over its edges in the
    network's CSR order, the order of ``round.c``, which reads the same
    sums from ``ScalingTable``; the tests' round oracle sums its payoffs
    here.
    """
    weighted = payoff_weights == "weighted"
    is_coop = state.strategies == COOPERATE
    coop = is_coop.astype(float).reshape(-1)[network.neighbour_slot]
    if weighted:
        coop *= network.edge_weight
    row_sums = network.weight_sums() if weighted else network.layer_degrees()
    # bincount adds each bin's terms in input order; binary sums are exact
    coop_mass = np.bincount(network.edge_owner(), weights=coop,
                            minlength=is_coop.size).reshape(is_coop.shape)
    vs_coop = np.where(is_coop, game.reward, game.temptation)
    vs_defect = np.where(is_coop, game.sucker, game.punishment)
    return vs_coop * coop_mass + vs_defect * (row_sums - coop_mass)


class ScalingTable:
    """The static data a round reads, built once per network.

    Per-slot data are flat arrays over the slots ``alpha * N + i`` (the
    supra-matrix's layer-major order), in CSR form where a slot has many
    entries, and named as the table fields of ``round.c``'s engine
    struct, which reads them in place.  ``neighbour_ptr``,
    ``neighbour_slot`` and ``edge_weight`` are the network's own edge
    arrays: slot s's neighbours are
    ``neighbour_slot[neighbour_ptr[s]:neighbour_ptr[s + 1]]``, in
    ascending order, and beside each, ``distance`` holds the floored
    social distance ``max(delta_ij, DISTANCE_FLOOR)``.  Its cross-layer
    neighbourhood (on each other layer in turn, the node's counterpart,
    then the counterpart's neighbours) is ``cross_slot`` over
    ``cross_ptr``; beside it, ``cross_value`` holds the communicability
    entries, the only ones computed (see
    ``comm.communicability_entries``), and ``denominator[s]`` is their
    left-to-right sum.  ``communicability`` records how the entries were
    computed.  ``degrees`` is the (M, N) degree table and
    ``weight_sums`` the (M, N) sums of each slot's link weights, added
    left to right as ``accumulate_payoffs`` adds them; ``edgeless`` says
    whether every slot lacks a neighbour.  None of it depends on
    strategies, the game or the selection intensity.  ``engine_fields``
    gives the addresses that a ``RoundEngine`` points its kernel struct
    at, taken once per table for each payoff mode, so a run on a shared
    table adds only its own buffers.
    """

    def __init__(self, network: MultiplexNetwork,
                 interlayer_strength: float):
        n, m = network.node_count, network.layer_count
        nm = n * m
        self.interlayer_strength = interlayer_strength
        self.neighbour_ptr = network.neighbour_ptr
        self.neighbour_slot = network.neighbour_slot
        self.edge_weight = network.edge_weight
        self.degrees = network.layer_degrees()
        self.weight_sums = network.weight_sums()
        degree = self.degrees.reshape(-1)
        self.edgeless = not degree.any()
        self.distance = np.maximum(network.edge_delta, DISTANCE_FLOOR)
        # slot s's block is s, then its neighbours; slot (alpha, i)'s
        # cross-layer slots are node i's blocks on the other layers
        block = np.insert(self.neighbour_slot, self.neighbour_ptr[:-1],
                          np.arange(nm))
        block_slot = np.repeat(np.arange(nm), degree + 1)
        # node by node, and layer by layer within a node
        order = np.argsort(block_slot % n * m + block_slot // n,
                           kind="stable")
        block, layer = block[order], block_slot[order] // n
        self.cross_slot = np.concatenate([block[layer != alpha]
                                          for alpha in range(m)])
        self.cross_ptr = np.concatenate(([0], np.cumsum(
            self.degrees.sum(axis=0) + m - 1 - self.degrees)))
        self.cross_value, self.communicability = communicability_entries(
            network, interlayer_strength, self.cross_ptr, self.cross_slot)
        owner = np.repeat(np.arange(nm), np.diff(self.cross_ptr))
        # bincount adds each bin left to right from 0.0, like the
        # round's numerator; with no entries at all (M = 1) it returns int64
        self.denominator = np.bincount(owner, weights=self.cross_value,
                                       minlength=nm).astype(float)
        # the arrays behind the engine struct's table fields, and their
        # addresses, per payoff mode
        self._engine_arrays, self._engine_fields = {}, {}
        for mode, weights, sums in (
                ("weighted", self.edge_weight, self.weight_sums),
                ("binary", np.ones(self.edge_weight.size), self.degrees)):
            arrays = {name: getattr(self, name) for name in _TABLE_ARRAYS}
            arrays.update(edge_weight=weights,
                          row_sum=np.array(sums, dtype=float).reshape(nm))
            self._engine_arrays[mode] = arrays
            self._engine_fields[mode] = {name: array.ctypes.data
                                         for name, array in arrays.items()}

    def engine_fields(self, payoff_weights: str) -> dict[str, int]:
        """The addresses of the table fields of ``round.c``'s engine
        struct, by field name, for a payoff mode: ``edge_weight`` and
        ``row_sum`` are the link weights and ``weight_sums`` when
        ``weighted``, and ones and ``degrees`` when ``binary``.  The
        arrays behind them live as long as the table."""
        return self._engine_fields[payoff_weights]

    @property
    def cross_index(self) -> list[np.ndarray]:
        """Each slot's ``cross_slot`` entries, as views split on read; its
        only reader is the benchmark's table counter (megtbench)."""
        return np.split(self.cross_slot, self.cross_ptr[1:-1])


class RoundEngine:
    """One run's Monte Carlo rounds over a shared ScalingTable.

    The engine adds the per-run inputs (game, selection intensity,
    scaling bounds, payoff mode and stop rule) to the table.  ``run``
    makes a whole run in one call of the compiled kernel's ``megt_run``
    (``megt.kernel``) with a budget of ``max_rounds``, and ``round`` one
    round in one call with a budget of 1.  The kernel reads its inputs
    and writes its results through one ``kernel.Engine`` struct, built
    here, that points at the table's arrays (``ScalingTable.engine_fields``)
    and at buffers this engine owns, and takes its draws from the state's
    bit generator.  Each call sums every payoff, as the caller may have
    replaced the strategies; after that it re-sums only the slots whose
    own or neighbours' strategies changed, and keeps a tracker's
    best-response flags and Nash counts, moving them where a flag changed.

    ``adoptions`` counts the steps, over all calls, that changed a
    strategy.  The kernel's buffers are the engine's, so one engine must
    not be used from two threads at once.
    """

    def __init__(self, network: MultiplexNetwork, game: PayoffMatrix,
                 table: ScalingTable, config: SimulationConfig):
        from . import kernel  # ctypes stays off the import path
        self.config = config
        self.table = table
        self.node_count = n = network.node_count
        self.layer_count = network.layer_count
        self.slot_count = nm = n * self.layer_count
        self.adoptions = 0
        self._kernel = kernel.load()
        self._stop_reasons = kernel.STOP_REASONS
        # the buffers live as long as the engine
        # a run fills at most max_rounds + 1 densities and one more sum
        history = config.max_rounds + 2
        self._buffers = dict(
            strategies=np.zeros(nm, dtype=np.int8),
            coop_count=np.zeros(n, dtype=np.int64),
            payoff=np.zeros(nm), picks=np.zeros(nm, dtype=np.int64),
            u_neighbour=np.zeros(nm), u_adopt=np.zeros(nm),
            stale=np.zeros(nm, dtype=np.int8),
            stale_slot=np.zeros(nm, dtype=np.int64),
            rho=np.zeros(history), cumulative=np.zeros(history))
        self._engine = kernel.Engine(
            node_count=n, slot_count=nm, reward=game.reward,
            sucker=game.sucker, temptation=game.temptation,
            punishment=game.punishment,
            kappa=config.selection_intensity,
            span=config.scaling_bounds.span, clamp=_EXP_CLAMP,
            window=config.steady_window,
            tolerance=config.steady_tolerance,
            **table.engine_fields(config.payoff_weights),
            **{name: array.ctypes.data
               for name, array in self._buffers.items()})

    def round(self, state: SimulationState) -> float:
        """Advance one full Monte Carlo round, an untracked one-round
        run; returns the cooperator density after the round.
        ``state.strategies`` is replaced by a new array, so a caller may
        keep the old one.
        """
        if self.table.edgeless:
            raise ValueError("no slot has a neighbour, so no round can run")
        self._track(None)
        self._call(state, 1)
        state.round_index += 1
        return self._engine.coop_total / self.slot_count

    def run(self, state: SimulationState, tracker=None
            ) -> tuple[list[float], list[float], str]:
        """Rounds from ``state`` until ``evolve.run``'s stop rule fires,
        at most ``max_rounds`` of them, in one call of the kernel.

        Returns the densities (``rho[0]`` is the given state's), their
        running sums ``[0, rho[0], rho[0] + rho[1], ...]`` and the stop
        reason.  ``tracker``, an ``EquilibriumTracker``, if given, gets
        the Nash-pair row of the given state and of every round in its
        history: the given state's from one ``tracker.evaluate`` call,
        which refuses a tracker of another node count before the kernel
        reads its arrays, and each round's from inside the kernel's call.
        """
        rho0 = float((state.strategies == COOPERATE).sum() / self.slot_count)
        if tracker is not None:
            report = tracker.evaluate(state.strategies)
            tracker.history.append((state.round_index, report.alpha,
                                    report.weak_fraction))
        if self.table.edgeless:
            return [rho0], [0.0, rho0], "edgeless"
        if rho0 in (0.0, 1.0):
            return [rho0], [0.0, rho0], "absorbing"
        buffers = self._buffers
        buffers["rho"][0] = rho0
        buffers["cumulative"][:2] = (0.0, rho0)
        self._track(tracker)
        rounds = self._call(state, self.config.max_rounds)
        if tracker is not None:
            tracker.record(state.round_index + 1,
                           buffers["pair_count"][1:rounds + 1],
                           buffers["weak_count"][1:rounds + 1])
        state.round_index += rounds
        return (buffers["rho"][:rounds + 1].tolist(),
                buffers["cumulative"][:rounds + 2].tolist(),
                self._stop_reasons[self._engine.stop])

    def _track(self, tracker) -> None:
        """Point the kernel's Nash-pair fields at the tracker's union
        graph and at count buffers of the engine's, or turn the counting
        off when ``tracker`` is None."""
        engine = self._engine
        self._tracker = tracker  # its arrays stay alive through the run
        if tracker is None:
            engine.union_ptr = None
            return
        history = self.config.max_rounds + 2
        self._buffers.update(
            nash_play=np.zeros(self.node_count, dtype=np.int8),
            nash_flag=np.zeros(self.slot_count, dtype=np.int8),
            pair_count=np.zeros(history, dtype=np.int64),
            weak_count=np.zeros(history, dtype=np.int64))
        tracker.bind(engine)
        for name in ("nash_play", "nash_flag", "pair_count", "weak_count"):
            setattr(engine, name, self._buffers[name].ctypes.data)

    def _call(self, state: SimulationState, budget: int) -> int:
        """``megt_run`` on ``state`` for at most ``budget`` rounds, which
        it returns: the strategies and counters go into the engine's
        buffers and come back out, and the state's bit generator is
        locked while C draws from it."""
        buffers, rng = self._buffers, state.rng
        np.copyto(buffers["strategies"], state.strategies.reshape(-1))
        np.copyto(buffers["coop_count"], state.coop_count)
        with rng.bit_generator.lock:
            rounds = self._kernel.megt_run(
                self._engine, rng.bit_generator.ctypes.bit_generator, budget)
        state.strategies = buffers["strategies"].reshape(
            self.layer_count, self.node_count).copy()
        state.coop_count[...] = buffers["coop_count"]
        self.adoptions += self._engine.adoptions
        return rounds


def _dynamics_rng(config: SimulationConfig, cell_index: int,
                  replica_index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(
        config.rng_seed, spawn_key=(cell_index, replica_index, 1)))


def replica_network(config: SimulationConfig,
                    replica_index: int = 0) -> MultiplexNetwork:
    """The network that ``run`` uses for replica_index, in every cell.

    A prebuilt network is shared by every run; a spec is realised from a
    seed spawned from (0, replica_index, 0), so each replica gets its own
    network, and the cells of a sweep share it: common random numbers.
    """
    if config.network is not None:
        return config.network
    seed_seq = np.random.SeedSequence(
        config.rng_seed, spawn_key=(0, replica_index, 0))
    child_seed = int(seed_seq.generate_state(1, np.uint64)[0])
    spec = dataclasses.replace(config.spec, rng_seed=child_seed)
    return build_multiplex(spec)


def _scaling_table(config: SimulationConfig,
                   network: MultiplexNetwork) -> ScalingTable:
    """The run's ScalingTable, reused while the prebuilt network is.

    The table is per-network data: it depends only on the network and
    the coupling strength, so replicas and sweep cells that share a
    prebuilt network share one table and add only their per-run state.
    The memo is keyed weakly on the network object itself
    (``MultiplexNetwork`` hashes by identity), so a table lives as long
    as its network and no longer; a prebuilt network must therefore not
    be mutated between runs.  A network that ``run`` realises from a
    spec never enters the memo, so none outlives its run.
    """
    if config.network is network:
        return _prebuilt_table(network, config.interlayer_strength)
    return ScalingTable(network, config.interlayer_strength)


# each prebuilt network's table at the coupling strength it last ran at
_tables: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _prebuilt_table(network: MultiplexNetwork,
                    interlayer_strength: float) -> ScalingTable:
    table = _tables.get(network)
    if table is None or table.interlayer_strength != interlayer_strength:
        table = _tables[network] = ScalingTable(network, interlayer_strength)
    return table


def run(config: SimulationConfig, *, cell_index: int = 0,
        replica_index: int = 0, tracker=None) -> RunResult:
    """Execute one simulation to steady state.

    Stops when the mean density over the last ``steady_window`` rounds
    differs from the mean over the window before it by less than
    ``steady_tolerance``, when the state is absorbing (density exactly
    0 or 1 cannot change under imitation, so waiting out the window
    would be pure waste), or after ``max_rounds`` rounds, whichever
    comes first.  ``steady_rho`` is the mean over the final window (the
    exact density, for absorbing exits).  A multiplex without edges is
    absorbing from the start: the run returns ``rho[0]`` after no rounds.

    ``tracker``, an ``EquilibriumTracker`` of the run's network, gets the
    Nash-pair row of the initial state and of every round appended to
    its ``history``.  The compiled kernel makes the whole run in one
    call, counting the Nash pairs too.
    The network is ``replica_network(config, replica_index)`` and the
    dynamics draw from seeds spawned from (cell_index, replica_index), so
    the same (config, cell_index, replica_index) triple reproduces the
    trajectory bit for bit.
    """
    clock = time.perf_counter
    start = clock()
    network = replica_network(config, replica_index)
    built = clock()
    table = _scaling_table(config, network)
    tabled = clock()
    engine = RoundEngine(network, config.game, table, config)
    rng = _dynamics_rng(config, cell_index, replica_index)
    state = init_state(network, config.initial_coop_fraction, rng)
    ready = clock()
    rho, cumulative, stop_reason = engine.run(state, tracker)
    if rho[-1] in (0.0, 1.0):
        steady = rho[-1]
    else:
        tail = min(config.steady_window, len(rho))
        steady = (cumulative[-1] - cumulative[-1 - tail]) / tail
    trajectory = Trajectory(rho=rho, steady_rho=steady,
                            converged=stop_reason != "budget",
                            stop_reason=stop_reason)
    phase_s = {"network": built - start, "communicability": tabled - built,
               "setup": ready - tabled, "rounds": clock() - ready}
    return RunResult(trajectory=trajectory, state=state, network=network,
                     adoptions=engine.adoptions, phase_s=phase_s,
                     communicability=table.communicability)


def run_threads(jobs: int | None, tasks: int) -> int:
    """The threads that ``_map`` runs ``tasks`` tasks on: up to the
    usable CPUs and the tasks, and at most ``jobs`` unless it is None;
    at least 1, and 1 in a run thread already."""
    if getattr(comm._worker, "one_cpu", False):
        return 1
    return max(1, min(_usable_cpus(), tasks,
                      tasks if jobs is None else jobs))


def _map(function, items: list, jobs: int | None) -> list:
    """``[function(item) for item in items]`` on ``run_threads(jobs,
    len(items))`` threads, the calling thread one of them.  Results keep
    the order of ``items``, so the thread count changes none of them.

    ``function`` gains from a second thread only where it releases the
    GIL, as the kernel's ``megt_run`` does.  With more than one thread,
    each is a worker of ``comm._worker``, so a series summed inside
    takes one thread.  The threads take the items in index order, and
    all of them are joined before this returns.  After an item raises,
    no thread takes a new one, and the lowest-index exception among the
    items taken is raised: the one a sequential loop would raise.
    """
    import threading  # loaded already, by numpy
    one_cpu = getattr(comm._worker, "one_cpu", False)
    threads = run_threads(jobs, len(items))
    results, failures = [None] * len(items), {}
    pending = iter(range(len(items)))
    lock = threading.Lock()

    def work():
        nonlocal pending
        comm._worker.one_cpu = one_cpu or threads > 1
        while True:
            with lock:
                index = next(pending, None)
            if index is None:
                return
            try:
                results[index] = function(items[index])
            except BaseException as exc:  # raised by the calling thread
                with lock:
                    failures[index] = exc
                    pending = iter(())

    helpers = [threading.Thread(target=work) for _ in range(threads - 1)]
    for helper in helpers:
        helper.start()
    try:
        work()
    finally:
        comm._worker.one_cpu = one_cpu
        with lock:  # an interrupt outside an item stops the helpers too
            pending = iter(())
        for helper in helpers:
            helper.join()
    if failures:
        raise failures[min(failures)]
    return results


def _warm(configs: list[SimulationConfig]) -> float:
    """Load the kernel, and build each prebuilt network's table, in the
    calling thread before ``_map`` starts threads, which would otherwise
    each miss the memo at once; returns the seconds that took, 0.0
    without a prebuilt network."""
    from . import kernel  # ctypes stays off the import path
    kernel.load()
    seconds = 0.0
    for config in configs:
        if config.network is not None:
            start = time.perf_counter()
            _prebuilt_table(config.network, config.interlayer_strength)
            seconds += time.perf_counter() - start
    return seconds


def _replica(config: SimulationConfig, cell_index: int,
             replica_index: int) -> RunResult:
    return run(config, cell_index=cell_index, replica_index=replica_index)


def run_replicas(config: SimulationConfig, *, cell_index: int = 0,
                 jobs: int | None = None) -> list[RunResult]:
    """All replicas of a config, in replica order.

    The replicas run on threads, up to the usable CPUs and at most
    ``jobs`` of them (``_map``); with a spec, each thread builds its
    replicas' networks.  Each replica's seeds derive from (cell_index,
    replica_index) alone, so results are independent of execution order
    and of the thread count.  A prebuilt network's table is built once,
    before the replicas start, and its time is the first replica's
    ``communicability`` phase.
    """
    table_s = _warm([config])
    results = _map(functools.partial(_replica, config, cell_index),
                   list(range(config.replicas)), jobs)
    results[0].phase_s["communicability"] += table_s
    return results


@dataclass
class GridResult:
    """Replica-averaged steady densities over a T-S grid (row-major:
    temptation outer, sucker inner).

    Over all the grid's runs, ``adoptions`` is the total adoption count
    and ``phase_s`` the total time of each ``RunResult.phase_s`` phase,
    the replicas' networks and tables, built once each, included; runs
    on threads overlap, so the phases can sum to more than the sweep's
    wall time.
    ``communicability`` lists each distinct method, term count and
    thread count with the number of runs that used it.  ``stop_reasons``
    counts the runs by ``Trajectory.stop_reason``, ``budget_cells``
    lists, row-major, the (T, S) cells in which any replica ran out of
    rounds, and ``rounds`` holds each run's round count, cell by cell
    and replica by replica.
    """

    t_values: list[float]
    s_values: list[float]
    rho_mean: np.ndarray
    rho_std: np.ndarray
    replicas: int
    adoptions: int = 0
    phase_s: dict[str, float] = field(default_factory=dict)
    communicability: list[dict] = field(default_factory=list)
    stop_reasons: dict[str, int] = field(default_factory=dict)
    budget_cells: list[tuple[float, float]] = field(default_factory=list)
    rounds: list[int] = field(default_factory=list)

    def rows(self):
        for it, t in enumerate(self.t_values):
            for js, s in enumerate(self.s_values):
                yield t, s, self.rho_mean[it, js], self.rho_std[it, js]


def _total_phases(phases) -> dict[str, float]:
    """Each phase's seconds summed over the given ``phase_s`` dicts."""
    total: dict[str, float] = {}
    for phase_s in phases:
        for name, seconds in phase_s.items():
            total[name] = total.get(name, 0.0) + seconds
    return total


def _sweep_run(configs: list[SimulationConfig],
               task: tuple[int, float, float, int]) -> tuple:
    """One run of a sweep's cell (cell_index, temptation, sucker) at
    replica_index, on that replica's config: its steady density,
    adoptions, phase times, communicability record, stop reason and
    round count, and not its network or state, which a sweep does not
    keep."""
    cell_index, temptation, sucker, replica_index = task
    result = run(dataclasses.replace(configs[replica_index],
                                     game=from_ts(temptation, sucker)),
                 cell_index=cell_index, replica_index=replica_index)
    trajectory = result.trajectory
    return (trajectory.steady_rho, result.adoptions, result.phase_s,
            result.communicability, trajectory.stop_reason,
            trajectory.rounds)


# a run's least share of a sweep's memory, in bytes: its task in the run
# list (a list slot, a 4-tuple and two ints) and its result (a list slot
# and a 6-tuple); a cell adds its two float64 results
_RUN_BYTES = 8 + 72 + 2 * 32 + 8 + 88
_CELL_BYTES = 2 * 8


def _memory_bytes() -> float:
    """The bytes this process may map: its RLIMIT_AS, or without one the
    machine's physical memory; infinite where neither can be read (on
    Windows, say), which leaves a huge grid to the MemoryError of its
    run list."""
    try:
        import resource  # Unix only, and only a sweep asks
        limit = resource.getrlimit(resource.RLIMIT_AS)[0]
        if limit != resource.RLIM_INFINITY:
            return limit
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (ImportError, AttributeError, ValueError, OSError):
        return math.inf


def sweep_ts(config: SimulationConfig, t_values, s_values, *,
             jobs: int | None = None) -> GridResult:
    """Replica-averaged steady density across a grid of T-S games.

    Replica r's network is built once, from a spec by ``replica_network``
    or as the prebuilt one, and every cell's replica r runs on it, so
    the cells share their network draws (common random numbers).  Each
    network's table is built next, before any run, in the calling
    thread; their seconds go to the grid's ``network`` and
    ``communicability`` phases.  Every (cell, replica) pair is then one
    run, and ``_map`` runs them in index order on threads, up to the
    usable CPUs and at most ``jobs`` of them.  The cell at (t_index,
    s_index) draws its dynamics from seeds spawned from its row-major
    index, so any execution order, thread count or resumed sweep yields
    identical numbers, and a cell's replica r is ``run`` of the config
    with the cell's game at that cell and replica.  Standard deviation
    is the population std over replicas.  A grid whose run list and
    results alone would not fit in memory is a MemoryError before any
    network is built.
    """
    t_values = [float(t) for t in t_values]
    s_values = [float(s) for s in s_values]
    cell_count = len(t_values) * len(s_values)
    replicas = config.replicas
    if cell_count * (_CELL_BYTES + replicas * _RUN_BYTES) > _memory_bytes():
        raise MemoryError(f"a grid of {cell_count} cells and "
                          f"{cell_count * replicas} runs does not fit in "
                          f"memory")
    cells = [(t, s) for t in t_values for s in s_values]
    tasks = [(cell_index, t, s, replica_index)
             for cell_index, (t, s) in enumerate(cells)
             for replica_index in range(replicas)]
    start = time.perf_counter()
    configs = [config if config.network is not None else
               dataclasses.replace(config, spec=None,
                                   network=replica_network(config, r))
               for r in range(replicas)]
    network_s = time.perf_counter() - start
    table_s = _warm(configs)
    steadies, adoptions, phases, infos, reasons, rounds = zip(
        *_map(functools.partial(_sweep_run, configs), tasks, jobs))
    shape = (len(t_values), len(s_values))
    by_cell = range(0, len(tasks), replicas)
    phase_s = _total_phases(phases)
    phase_s["network"] += network_s
    phase_s["communicability"] += table_s
    methods = collections.Counter(
        (info["method"], info["terms"], info["threads"]) for info in infos)
    return GridResult(
        t_values=t_values, s_values=s_values,
        rho_mean=np.array([float(np.mean(steadies[k:k + replicas]))
                           for k in by_cell]).reshape(shape),
        rho_std=np.array([float(np.std(steadies[k:k + replicas]))
                          for k in by_cell]).reshape(shape),
        replicas=replicas, adoptions=sum(adoptions), phase_s=phase_s,
        communicability=[{"method": method, "terms": terms,
                          "threads": threads, "runs": runs}
                         for (method, terms, threads), runs
                         in sorted(methods.items())],
        stop_reasons=dict(sorted(collections.Counter(reasons).items())),
        budget_cells=[cells[k // replicas] for k in by_cell
                      if "budget" in reasons[k:k + replicas]],
        rounds=list(rounds))


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
