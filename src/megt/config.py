"""Flat key-value run configuration.

Config files are plain text: one ``key = value`` per line, ``#``
comments, blank lines ignored.  A line ``include = other.cfg`` splices
another file (path relative to the including file) at that point;
later assignments override earlier ones.  Unknown keys are errors that
name the key, so typos fail loudly.
"""

from __future__ import annotations

import datetime as dt
import math
from dataclasses import dataclass
from pathlib import Path

__all__ = ["ConfigError", "ConfigKey", "SCHEMA", "defaults",
           "parse_value", "load_config", "resolve", "format_defaults"]


class ConfigError(Exception):
    """A configuration problem; str(exc) names the offending key/file."""


@dataclass(frozen=True)
class ConfigKey:
    name: str
    kind: str  # int | float | str | date
    default: object
    help: str


_KEYS = [
    # randomness
    ConfigKey("seed", "int", 0,
              "master RNG seed (MEGT_SEED env and --seed override it)"),
    # network construction
    ConfigKey("node_count", "int", 200, "nodes per layer"),
    ConfigKey("layers", "int", 2, "number of layers"),
    ConfigKey("topology", "str", "sf",
              "layer kinds: one of er/ws/sf, or a comma list per layer"),
    ConfigKey("edge_probability", "float", 0.05, "er: edge probability"),
    ConfigKey("ring_degree", "int", 4, "ws: even ring-lattice degree"),
    ConfigKey("rewire_probability", "float", 0.1, "ws: rewiring probability"),
    ConfigKey("attachment_count", "int", 2, "sf: edges per new node"),
    ConfigKey("seed_clique_size", "int", -1,
              "sf: seed clique size (-1 = attachment_count + 1)"),
    ConfigKey("homophily_sigma", "float", 1.0,
              "half-normal scale of social distances"),
    ConfigKey("interlayer_strength", "float", 0.5,
              "coupling strength between layer counterparts"),
    ConfigKey("network_file", "str", "",
              "load this multiplex file instead of generating one"),
    # game selection
    ConfigKey("game", "str", "pd",
              "pd (donation b,c), ts (explicit T,S), or sd/sh/hg "
              "representative points"),
    ConfigKey("b", "float", 1.2, "donation-game benefit (game = pd)"),
    ConfigKey("c", "float", 0.2, "donation-game cost (game = pd)"),
    ConfigKey("T", "float", 1.2, "temptation payoff (game = ts)"),
    ConfigKey("S", "float", -0.2, "sucker payoff (game = ts)"),
    # evolution
    ConfigKey("selection_intensity", "float", 0.1,
              "Fermi selection intensity"),
    ConfigKey("scaling_min", "float", 0.5,
              "with scaling_max, sets the imitation scaling factor's span"),
    ConfigKey("scaling_max", "float", 1.0,
              "scaling_min + span; the factor lies in [1 - span, 1]"),
    ConfigKey("initial_coop_fraction", "float", 0.5,
              "probability each (node, layer) starts cooperating"),
    ConfigKey("payoff_weights", "str", "weighted",
              "edge payoff coupling: weighted or binary"),
    ConfigKey("max_rounds", "int", 5000, "round budget per run"),
    ConfigKey("steady_window", "int", 200,
              "sliding-window length for steady-state detection"),
    ConfigKey("steady_tolerance", "float", 1e-3,
              "window-mean change declaring steady state"),
    ConfigKey("replicas", "int", 1, "independent runs per setting"),
    # T-S sweep grid
    ConfigKey("t_min", "float", 0.0, "sweep: smallest T"),
    ConfigKey("t_max", "float", 2.0, "sweep: largest T"),
    ConfigKey("t_steps", "int", 21, "sweep: grid points along T"),
    ConfigKey("s_min", "float", -1.0, "sweep: smallest S"),
    ConfigKey("s_max", "float", 1.0, "sweep: largest S"),
    ConfigKey("s_steps", "int", 21, "sweep: grid points along S"),
    # equilibrium tracking
    ConfigKey("projection", "str", "majority_tie_c",
              "multi-layer strategy projection: majority_tie_c, "
              "majority_tie_d, or per_layer"),
    # crowdsensing
    ConfigKey("budget", "float", 100.0, "incentive budget"),
    ConfigKey("preference_factor", "float", 0.5,
              "confidence weight of quantity vs quality"),
    ConfigKey("publish_threshold", "float", 0.5,
              "minimum confidence to publish an event"),
    ConfigKey("epsilon", "float", 0.01,
              "truthfulness clamp / density floor"),
    ConfigKey("mechanism", "str", "all",
              "cooperativeness mechanism: A, B, C, or all"),
    # synthetic corpora
    ConfigKey("users", "int", 300, "synth: device count"),
    ConfigKey("days", "int", 7, "synth: campaign length in days"),
    ConfigKey("honest_fraction", "float", 0.5, "synth: honest share"),
    ConfigKey("selfish_fraction", "float", 0.3, "synth: selfish share"),
    ConfigKey("start_date", "date", dt.date(2019, 10, 7),
              "synth: first campaign day (ISO date)"),
]

SCHEMA: dict[str, ConfigKey] = {key.name: key for key in _KEYS}


def defaults() -> dict[str, object]:
    return {key.name: key.default for key in _KEYS}


def _finite(name: str, value: object) -> object:
    """``value`` itself, unless it is a NaN or infinite float."""
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"config key {name!r} must be finite, got {value}")
    return value


def parse_value(name: str, text: str) -> object:
    if name not in SCHEMA:
        raise ConfigError(f"unknown config key {name!r}")
    kind = SCHEMA[name].kind
    text = text.strip()
    try:
        if kind == "int":
            return int(text)
        if kind == "float":
            return _finite(name, float(text))
        if kind == "date":
            return dt.date.fromisoformat(text)
        return text
    except ValueError:
        raise ConfigError(
            f"bad value for config key {name!r}: {text!r} "
            f"(expected {kind})") from None


def _read_assignments(path: Path, seen: set[Path], out: dict) -> None:
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(
                f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        name, _, text = line.partition("=")
        name = name.strip()
        if name == "include":
            target = (path.parent / text.strip()).resolve()
            if target in seen:
                raise ConfigError(f"{path}:{lineno}: circular include of "
                                  f"{target}")
            seen.add(target)
            _read_assignments(target, seen, out)
            continue
        out[name] = parse_value(name, text)


def load_config(path) -> dict[str, object]:
    """Defaults overlaid with the file's assignments (includes expanded)."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    values = defaults()
    _read_assignments(path.resolve(), {path.resolve()}, values)
    return values


def resolve(values: dict[str, object]) -> dict[str, object]:
    """Validate a raw mapping (e.g. from a manifest) against the schema."""
    out = defaults()
    for name, value in values.items():
        if name not in SCHEMA:
            raise ConfigError(f"unknown config key {name!r}")
        out[name] = (parse_value(name, value) if isinstance(value, str)
                     else _finite(name, value))
    return out


def format_defaults() -> str:
    width = max(len(key.name) for key in _KEYS)
    lines = [f"{key.name.ljust(width)}  {_fmt(key.default).ljust(14)}  "
             f"{key.help}" for key in _KEYS]
    return "\n".join(lines)


def _fmt(value) -> str:
    if isinstance(value, dt.date):
        return value.isoformat()
    return repr(value) if isinstance(value, str) else str(value)
