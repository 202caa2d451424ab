"""Command-line entry point.

Subcommands: ``generate`` (write a multiplex file), ``evolve`` (run
replicas to steady state), ``sweep`` (T-S grid), ``nash`` (track the
Nash-pair density of a run), ``score`` (crowdsensing ledger, decisions
and incentives), ``synth`` (synthetic report corpus), and ``replay``
(re-execute a manifest and verify outputs byte for byte).

Every command is deterministic given (config, seed) and writes a
``manifest.json`` describing its inputs and outputs.  Exit codes:
0 success, 2 configuration error (the message names the key or file,
or, for the simulating commands ``evolve``, ``sweep`` and ``nash``, why
the compiled kernel cannot be had), 3 data error (the message names the
first offending row/line/file).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .comm import ScalingBounds
from .config import ConfigError, format_defaults, load_config, resolve
from .crowdsense import (IncentiveConfig, MECHANISMS, SynthSpec,
                         read_reports_csv, score_corpus, synth_corpus,
                         write_decisions_csv, write_ledger_csv,
                         write_reports_csv)
from .equilibrium import (PROJECTION_RULES, EquilibriumTracker,
                          write_alpha_csv)
from .evolve import (SimulationConfig, Trajectory, replica_network, run,
                     run_replicas, run_threads, sweep_ts, write_grid_csv,
                     write_state_text, write_trajectory_csv)
from .games import from_ts, pd_from_bc, representative
from .manifest import RunManifest, load_manifest, sha256_file, write_manifest
from .metrics import behaviour_stats, write_metrics_csv
from .netgen import (LayerTopology, MultiplexSpec, build_multiplex,
                     load_multiplex, save_multiplex)


class DataError(Exception):
    """Bad input data; str(exc) names the first offending row or file."""


# ---------------------------------------------------------------------------
# config -> domain objects
# ---------------------------------------------------------------------------

def _resolve_seed(cfg: dict, args) -> int:
    """The run's seed: ``--seed``, else ``MEGT_SEED``, else config key
    ``seed``; a negative one is a config error naming its source."""
    seed, source = cfg["seed"], "config key 'seed'"
    env = os.environ.get("MEGT_SEED")
    if env is not None:
        try:
            seed = int(env)
        except ValueError:
            raise ConfigError(f"MEGT_SEED must be an integer, got {env!r}")
        source = "MEGT_SEED"
    if getattr(args, "seed", None) is not None:
        seed, source = args.seed, "--seed"
    if seed < 0:
        raise ConfigError(f"{source} must be non-negative, got {seed}")
    return seed


def _topologies(cfg: dict) -> tuple[LayerTopology, ...]:
    kinds = [k.strip() for k in str(cfg["topology"]).split(",")]
    if len(kinds) == 1:
        kinds = kinds * cfg["layers"]
    if len(kinds) != cfg["layers"]:
        raise ConfigError(
            f"config key 'topology' lists {len(kinds)} kinds for "
            f"{cfg['layers']} layers")
    out = []
    for kind in kinds:
        if kind == "er":
            out.append(LayerTopology.er(cfg["edge_probability"]))
        elif kind == "ws":
            out.append(LayerTopology.ws(cfg["ring_degree"],
                                        cfg["rewire_probability"]))
        elif kind == "sf":
            clique = cfg["seed_clique_size"]
            out.append(LayerTopology.sf(
                cfg["attachment_count"],
                None if clique < 0 else clique))
        else:
            raise ConfigError(
                f"config key 'topology' must name er/ws/sf, got {kind!r}")
    return tuple(out)


def _network_spec(cfg: dict, seed: int) -> MultiplexSpec:
    try:
        return MultiplexSpec(node_count=cfg["node_count"],
                             layer_count=cfg["layers"],
                             topologies=_topologies(cfg),
                             homophily_sigma=cfg["homophily_sigma"],
                             rng_seed=seed)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _game(cfg: dict):
    kind = cfg["game"]
    try:
        if kind == "pd":
            return pd_from_bc(cfg["b"], cfg["c"])
        if kind == "ts":
            return from_ts(cfg["T"], cfg["S"])
        return representative(kind)
    except ValueError as exc:
        raise ConfigError(f"config key 'game': {exc}") from None


def _simulation_config(cfg: dict,
                       seed: int) -> tuple[SimulationConfig, float | None]:
    """The run's configuration, and the seconds spent reading and
    checking ``network_file`` (None when the network comes from a spec)."""
    import time  # the load clock, off the import path
    spec = None
    network = None
    load_s = None
    if cfg["network_file"]:
        start = time.perf_counter()
        try:
            network = load_multiplex(cfg["network_file"])
        except OSError as exc:
            raise DataError(f"cannot read network file: {exc}") from None
        except ValueError as exc:
            raise DataError(str(exc)) from None
        except MemoryError:
            raise _out_of_memory(cfg, cfg["network_file"]) from None
        load_s = time.perf_counter() - start
    else:
        spec = _network_spec(cfg, seed)
    try:
        return SimulationConfig(
            game=_game(cfg), spec=spec, network=network,
            selection_intensity=cfg["selection_intensity"],
            scaling_bounds=ScalingBounds(cfg["scaling_min"],
                                         cfg["scaling_max"]),
            interlayer_strength=cfg["interlayer_strength"],
            initial_coop_fraction=cfg["initial_coop_fraction"],
            payoff_weights=cfg["payoff_weights"],
            max_rounds=cfg["max_rounds"],
            steady_window=cfg["steady_window"],
            steady_tolerance=cfg["steady_tolerance"],
            replicas=cfg["replicas"],
            rng_seed=seed), load_s
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _out_of_memory(cfg: dict, network_file: str = "",
                   work: tuple[str, ...] = ()) -> Exception:
    """The error for a network, or the work on it, too large for memory.
    It names the network file or the network's size keys, then the keys
    in ``work``, which size the work."""
    keys = work if network_file else ("node_count", "layers", *work)
    sizes = ", ".join(f"{key!r} = {cfg[key]}" for key in keys)
    if network_file:
        return DataError(f"{network_file}: not enough memory"
                         + (f" for config keys {sizes}" if sizes else ""))
    return ConfigError(f"not enough memory for config keys {sizes}")


@contextlib.contextmanager
def _dynamics_errors(cfg: dict, work: tuple[str, ...] = ("max_rounds",)):
    """Report a ValueError from the dynamics, such as a communicability
    that overflows float64, or a MemoryError, as a data error when the
    network came from ``network_file`` and as a config error otherwise.
    ``work`` names the keys besides the network's that size the run."""
    try:
        yield
    except ValueError as exc:
        if cfg["network_file"]:
            raise DataError(f"{cfg['network_file']}: {exc}") from None
        raise ConfigError(str(exc)) from None
    except MemoryError:
        raise _out_of_memory(cfg, cfg["network_file"], work) from None


def _incentive_config(cfg: dict) -> IncentiveConfig:
    mechanism = cfg["mechanism"]
    try:
        return IncentiveConfig(
            budget=cfg["budget"],
            preference_factor=cfg["preference_factor"],
            publish_threshold=cfg["publish_threshold"],
            mechanism="C" if mechanism == "all" else mechanism,
            epsilon=cfg["epsilon"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _outdir(args) -> Path:
    out = Path(args.outdir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _record_network_input(manifest: RunManifest, cfg: dict,
                          load_s: float | None) -> None:
    if cfg["network_file"]:
        manifest.inputs[str(cfg["network_file"])] = sha256_file(
            cfg["network_file"])
        manifest.extra["network_file_s"] = load_s


def _finish(manifest: RunManifest, outdir: Path, produced: list[Path]) -> int:
    for path in produced:
        manifest.record_output(path, outdir)
    write_manifest(manifest, outdir / "manifest.json")
    return 0


def _require_kernel(command: str) -> None:
    """Build, load and check the compiled kernel that ``command``
    simulates with, before any network is built; its absence is a
    config error naming the cause."""
    from . import kernel  # ctypes stays off the import path
    try:
        kernel.load()
    except kernel.KernelError as exc:
        raise ConfigError(f"{command} needs the compiled kernel: "
                          f"{exc}") from None


def _mean_trajectory(trajectories: list[Trajectory]) -> Trajectory:
    """Round-wise mean density; shorter runs hold their final value."""
    length = max(len(t.rho) for t in trajectories)
    padded = np.array([t.rho + [t.rho[-1]] * (length - len(t.rho))
                       for t in trajectories])
    mean = padded.mean(axis=0)
    return Trajectory(rho=mean.tolist(),
                      steady_rho=float(np.mean([t.steady_rho
                                                for t in trajectories])),
                      converged=all(t.converged for t in trajectories))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_generate(args) -> int:
    cfg = load_config(args.config)
    seed = _resolve_seed(cfg, args)
    spec = _network_spec(cfg, seed)
    try:
        network = build_multiplex(spec)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    except MemoryError:
        raise _out_of_memory(cfg) from None
    outdir = _outdir(args)
    target = outdir / "net.mplex"
    save_multiplex(network, target)
    manifest = RunManifest(command="generate", version=__version__,
                           seed=seed, config=cfg)
    return _finish(manifest, outdir, [target])


def cmd_evolve(args) -> int:
    _require_kernel("evolve")
    cfg = load_config(args.config)
    seed = _resolve_seed(cfg, args)
    sim, load_s = _simulation_config(cfg, seed)
    with _dynamics_errors(cfg):
        results = run_replicas(sim, jobs=args.jobs)
    outdir = _outdir(args)
    produced = []
    if sim.replicas == 1:
        names = [("rho.csv", "state.txt", "metrics.csv")]
    else:
        names = [(f"rho_rep{r:02d}.csv", f"state_rep{r:02d}.txt",
                  f"metrics_rep{r:02d}.csv") for r in range(sim.replicas)]
    for result, (rho_name, state_name, metrics_name) in zip(results, names):
        rho_path, state_path, metrics_path = (outdir / rho_name,
                                              outdir / state_name,
                                              outdir / metrics_name)
        write_trajectory_csv(result.trajectory, rho_path)
        write_state_text(result.state, state_path)
        write_metrics_csv(behaviour_stats(result.state, result.network),
                          metrics_path)
        produced += [rho_path, state_path, metrics_path]
    if sim.replicas > 1:
        aggregate = outdir / "rho.csv"
        write_trajectory_csv(
            _mean_trajectory([r.trajectory for r in results]), aggregate)
        produced.append(aggregate)
    manifest = RunManifest(command="evolve", version=__version__,
                           seed=seed, config=cfg)
    _record_network_input(manifest, cfg, load_s)
    manifest.extra["converged"] = all(r.trajectory.converged
                                      for r in results)
    manifest.extra["steady_rho"] = [r.trajectory.steady_rho
                                    for r in results]
    manifest.extra["stop_reason"] = [r.trajectory.stop_reason
                                     for r in results]
    manifest.extra["adoptions"] = [r.adoptions for r in results]
    manifest.extra["phase_s"] = [r.phase_s for r in results]
    manifest.extra["communicability"] = [r.communicability for r in results]
    manifest.extra["run_threads"] = run_threads(args.jobs, sim.replicas)
    return _finish(manifest, outdir, produced)


def _quartiles(values) -> list[float]:
    """The 25th, 50th and 75th percentiles of ``values`` by numpy's
    default linear rule, interpolating as its ``_lerp`` does, so they
    equal ``np.percentile(values, (25, 50, 75)).tolist()`` bit for bit.
    ``np.percentile`` would import ``numpy.ma`` through ``np.unique``,
    13-15 ms of a small sweep."""
    ordered = sorted(values)
    last = len(ordered) - 1
    quartiles = []
    for q in (0.25, 0.5, 0.75):
        position = q * last
        below = int(position)
        t = position - below
        a, b = ordered[below], ordered[min(below + 1, last)]
        quartiles.append(a + (b - a) * t if t < 0.5
                         else b - (b - a) * (1 - t))
    return quartiles


def cmd_sweep(args) -> int:
    _require_kernel("sweep")
    cfg = load_config(args.config)
    seed = _resolve_seed(cfg, args)
    sim, load_s = _simulation_config(cfg, seed)
    for name in ("t_steps", "s_steps"):
        if cfg[name] < 1:
            raise ConfigError(f"config key {name!r} must be >= 1")
    t_values = np.linspace(cfg["t_min"], cfg["t_max"], cfg["t_steps"])
    s_values = np.linspace(cfg["s_min"], cfg["s_max"], cfg["s_steps"])
    with _dynamics_errors(cfg, ("max_rounds", "t_steps", "s_steps")):
        grid = sweep_ts(sim, t_values, s_values, jobs=args.jobs)
    outdir = _outdir(args)
    target = outdir / "grid.csv"
    write_grid_csv(grid, target)
    manifest = RunManifest(command="sweep", version=__version__,
                           seed=seed, config=cfg)
    _record_network_input(manifest, cfg, load_s)
    manifest.extra["adoptions"] = grid.adoptions
    manifest.extra["phase_s"] = grid.phase_s
    manifest.extra["communicability"] = grid.communicability
    manifest.extra["run_threads"] = run_threads(args.jobs, len(grid.rounds))
    manifest.extra["stop_reasons"] = grid.stop_reasons
    manifest.extra["budget_cells"] = grid.budget_cells
    manifest.extra["rounds_quartiles"] = _quartiles(grid.rounds)
    budget = grid.stop_reasons.get("budget", 0)
    if budget:
        cells = ", ".join(f"({t!r}, {s!r})" for t, s in grid.budget_cells[:3])
        more = len(grid.budget_cells) - 3
        print(f"sweep: {budget} of {len(grid.rounds)} runs used all "
              f"{sim.max_rounds} rounds without reaching a steady state, "
              f"in cells (T, S) {cells}"
              + (f" and {more} more" if more > 0 else ""), file=sys.stderr)
    return _finish(manifest, outdir, [target])


def cmd_nash(args) -> int:
    _require_kernel("nash")
    cfg = load_config(args.config)
    seed = _resolve_seed(cfg, args)
    sim, load_s = _simulation_config(cfg, seed)
    if cfg["projection"] not in PROJECTION_RULES:
        raise ConfigError(
            f"config key 'projection': unknown rule {cfg['projection']!r}")
    # the tracker needs the realised network before the run starts, so
    # build replica 0's network here and pass it to run() prebuilt
    with _dynamics_errors(cfg):
        network = replica_network(sim)
        sim = dataclasses.replace(sim, spec=None, network=network)
        tracker = EquilibriumTracker(network, sim.game,
                                     projection=cfg["projection"])
        result = run(sim, tracker=tracker)
    outdir = _outdir(args)
    target = outdir / "alpha.csv"
    write_alpha_csv(tracker.history, target)
    rho_path = outdir / "rho.csv"
    write_trajectory_csv(result.trajectory, rho_path)
    manifest = RunManifest(command="nash", version=__version__,
                           seed=seed, config=cfg)
    _record_network_input(manifest, cfg, load_s)
    manifest.extra["converged"] = result.trajectory.converged
    manifest.extra["stop_reason"] = result.trajectory.stop_reason
    manifest.extra["adoptions"] = result.adoptions
    manifest.extra["phase_s"] = result.phase_s
    manifest.extra["communicability"] = result.communicability
    return _finish(manifest, outdir, [target, rho_path])


def cmd_score(args) -> int:
    import time  # the phase clock, off the import path

    cfg = load_config(args.config)
    seed = _resolve_seed(cfg, args)
    if args.mechanism != "all":
        cfg = dict(cfg, mechanism=args.mechanism)
    incentive_cfg = _incentive_config(cfg)
    reports_path = Path(args.reports)
    if not reports_path.is_file():
        raise DataError(f"reports file not found: {reports_path}")
    start = time.perf_counter()
    try:
        kept, rejections = read_reports_csv(reports_path)
    except ValueError as exc:
        raise DataError(str(exc)) from None
    ingest_s = time.perf_counter() - start
    malformed = [r for r in rejections if r.reason == "malformed"]
    if malformed:
        first = malformed[0]
        raise DataError(
            f"{reports_path}: row {first.row_number}: {first.detail}")
    if not kept:
        raise DataError(f"{reports_path}: no usable reports after filtering")
    mechanisms = (MECHANISMS if cfg["mechanism"] == "all"
                  else (cfg["mechanism"],))
    result = score_corpus(kept, incentive_cfg, mechanisms=mechanisms)
    outdir = _outdir(args)
    ledger_path = outdir / "ledger.csv"
    decisions_path = outdir / "decisions.csv"
    write_ledger_csv(result, ledger_path)
    write_decisions_csv(result, decisions_path)
    manifest = RunManifest(command="score", version=__version__,
                           seed=seed, config=cfg)
    manifest.inputs[str(reports_path)] = sha256_file(reports_path)
    manifest.extra["mechanisms"] = list(mechanisms)
    manifest.extra["rejections"] = {
        reason: sum(1 for r in rejections if r.reason == reason)
        for reason in ("zero_rating", "duplicate", "malformed")}
    manifest.extra["positive_users"] = {
        mech: int(np.count_nonzero(result.profiles[mech].rs_norm
                                   >= incentive_cfg.positive_rs_threshold))
        for mech in mechanisms}
    manifest.extra["phase_s"] = {"ingest": ingest_s, **result.phase_s}
    return _finish(manifest, outdir, [ledger_path, decisions_path])


def cmd_synth(args) -> int:
    cfg = load_config(args.config)
    seed = _resolve_seed(cfg, args)
    try:
        spec = SynthSpec(user_count=cfg["users"], day_count=cfg["days"],
                         honest_fraction=cfg["honest_fraction"],
                         selfish_fraction=cfg["selfish_fraction"],
                         start_date=cfg["start_date"], rng_seed=seed)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    rows = synth_corpus(spec)
    outdir = _outdir(args)
    target = outdir / "reports.csv"
    write_reports_csv(rows, target)
    manifest = RunManifest(command="synth", version=__version__,
                           seed=seed, config=cfg)
    manifest.extra["rows"] = len(rows)
    return _finish(manifest, outdir, [target])


_COMMANDS = {
    "generate": cmd_generate,
    "evolve": cmd_evolve,
    "sweep": cmd_sweep,
    "nash": cmd_nash,
    "score": cmd_score,
    "synth": cmd_synth,
}


def cmd_replay(args) -> int:
    """Re-execute a manifest into --outdir and verify output checksums."""
    manifest_path = Path(args.manifest)
    if not manifest_path.is_file():
        raise DataError(f"manifest not found: {manifest_path}")
    try:
        manifest = load_manifest(manifest_path)
    except (ValueError, OSError) as exc:
        raise DataError(str(exc)) from None
    if manifest.command not in _COMMANDS:
        raise DataError(f"manifest names unknown command "
                        f"{manifest.command!r}")
    for path, digest in manifest.inputs.items():
        if not Path(path).is_file():
            raise DataError(f"replay input missing: {path}")
        if sha256_file(path) != digest:
            raise DataError(f"replay input changed since the original "
                            f"run: {path}")
    cfg = resolve(manifest.config)
    outdir = _outdir(args)
    # write the resolved config where the command can read it back
    cfg_path = outdir / "replay.cfg"
    with open(cfg_path, "w", encoding="utf-8") as fh:
        for key, value in sorted(cfg.items()):
            text = value.isoformat() if hasattr(value, "isoformat") else value
            fh.write(f"{key} = {text}\n")
    replay_args = argparse.Namespace(
        config=str(cfg_path), outdir=str(outdir), seed=manifest.seed,
        jobs=args.jobs, mechanism="all")
    if manifest.command == "score":
        mechanisms = manifest.extra.get("mechanisms", list(MECHANISMS))
        if not (manifest.inputs and isinstance(mechanisms, list)
                and mechanisms):
            raise DataError(f"{manifest_path}: score manifest names no "
                            f"reports file in 'inputs' or no mechanism "
                            f"in 'extra.mechanisms'")
        replay_args.mechanism = ("all" if len(mechanisms) > 1
                                 else mechanisms[0])
        replay_args.reports = next(iter(manifest.inputs))
    status = _COMMANDS[manifest.command](replay_args)
    if status != 0:
        return status
    mismatched = [name for name, digest in sorted(manifest.outputs.items())
                  if sha256_file(outdir / name) != digest]
    if mismatched:
        raise DataError("replay outputs differ from manifest: "
                        + ", ".join(mismatched))
    print(f"replay ok: {len(manifest.outputs)} outputs byte-identical")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

_JOBS_HELP = ("run at most JOBS runs at once, on as many threads; without it "
              "the runs share every usable CPU")


def _jobs(text: str) -> int:
    """``--jobs``: a cap of at least one run thread."""
    try:
        jobs = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {text!r}") from None
    if jobs < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {jobs}")
    return jobs


def _common(p):
    p.add_argument("--config", required=True, help="config file path")
    p.add_argument("--outdir", default=".", help="output directory")
    p.add_argument("--seed", type=int, default=None,
                   help="override config/MEGT_SEED seed")


def _run_options(p):
    _common(p)
    p.add_argument("--jobs", type=_jobs, help=_JOBS_HELP)


def _score_options(p):
    p.add_argument("--reports", required=True,
                   help="Waze-schema CSV to ingest")
    _common(p)
    p.add_argument("--mechanism", default="all",
                   choices=("A", "B", "C", "all"),
                   help="cooperativeness mechanism (default: all three)")


def _replay_options(p):
    p.add_argument("manifest", help="manifest.json of a previous run")
    p.add_argument("--outdir", default=".", help="output directory")
    p.add_argument("--jobs", type=_jobs, help=_JOBS_HELP)


#: Each subcommand's one-line help and the function that adds its
#: arguments, in the order ``megt --help`` lists them.
_SUBCOMMANDS = {
    "generate": ("write a multiplex network file", _common),
    "evolve": ("run replicas to steady state", _run_options),
    "sweep": ("replica-averaged T-S grid", _run_options),
    "nash": ("track Nash-pair density of a run", _common),
    "score": ("score a report corpus", _score_options),
    "synth": ("generate a synthetic corpus", _common),
    "replay": ("re-run a manifest and verify outputs", _replay_options),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The ``megt`` parser, with every subcommand's parser, or with only
    ``command``'s: each subparser costs its ``argparse`` set-up.  The
    usage line names every subcommand either way, so a parse error that
    prints it reads alike."""
    parser = argparse.ArgumentParser(
        prog="megt",
        description="evolutionary games on homophily-weighted multiplexes "
                    "and crowdsensing incentive pipelines")
    parser.add_argument("--version", action="version",
                        version=f"megt {__version__}")
    parser.add_argument("--print-defaults", action="store_true",
                        help="list every config key with default and "
                             "meaning, then exit")
    # with one subparser the metavar keeps every name in the usage line;
    # the full parser sets none, as one would rename the argument in its
    # invalid-choice message
    names = "{" + ",".join(_SUBCOMMANDS) + "}"
    sub = parser.add_subparsers(dest="subcommand",
                                metavar=None if command is None else names)
    for name, (text, add_arguments) in _SUBCOMMANDS.items():
        if command in (None, name):
            add_arguments(sub.add_parser(name, help=text))
    parser.set_defaults(jobs=1, mechanism="all")
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # the top-level options take no value, so a first argument that names
    # a subcommand is that subcommand
    parser = build_parser(argv[0] if argv and argv[0] in _SUBCOMMANDS
                          else None)
    args = parser.parse_args(argv)
    if args.print_defaults:
        print(format_defaults())
        return 0
    if args.subcommand is None:
        parser.print_help()
        return 2
    handler = (cmd_replay if args.subcommand == "replay"
               else _COMMANDS[args.subcommand])
    try:
        return handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
