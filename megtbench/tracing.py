"""Spans around megt's module boundaries, installed from the outside.

``Hooks.install`` replaces public functions and methods where their
callers look them up (``communicability`` work is reached through
``megt.comm``'s globals, ``run`` through both ``megt.cli`` and
``megt.evolve``) with wrappers that record a span: name, parent, start,
end.  Spans stay in memory until the run ends.  A hook whose target no
longer exists is recorded as absent, never silently as zero.

Only the traced half of a ``--trace 1`` run installs hooks, each traced
unit in a process of its own; untraced units run megt's functions
unwrapped.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import math
import os
import time
from collections import defaultdict

# (span name, module the caller looks the target up in, attribute or
# Class.method)
HOOKS = (
    ("netgen.build", "megt.evolve", "build_multiplex"),
    ("netgen.load", "megt.cli", "load_multiplex"),
    ("netgen.centrality", "megt.netgen", "eigenvector_centrality"),
    ("comm.supra", "megt.comm", "build_supra"),
    ("comm.expm", "megt.comm", "matrix_exp"),
    ("comm.table", "megt.evolve", "ScalingTable.__init__"),
    ("evolve.run", "megt.evolve", "run"),
    ("evolve.run", "megt.cli", "run"),
    ("evolve.setup", "megt.evolve", "RoundEngine.__init__"),
    ("evolve.setup", "megt.evolve", "init_state"),
    ("evolve.round", "megt.evolve", "RoundEngine.round"),
    ("evolve.payoff", "megt.evolve", "accumulate_payoffs"),
    ("equilibrium.setup", "megt.cli", "EquilibriumTracker.__init__"),
    ("equilibrium.eval", "megt.cli", "EquilibriumTracker.evaluate"),
    ("crowdsense.ingest", "megt.cli", "read_reports_csv"),
    ("crowdsense.stats", "megt.crowdsense", "compute_corpus_stats"),
    ("crowdsense.profiles", "megt.crowdsense", "build_profiles"),
    ("crowdsense.decisions", "megt.crowdsense", "decision_rows"),
    ("crowdsense.incentives", "megt.crowdsense", "incentives"),
    ("cli.write", "megt.cli", "write_trajectory_csv"),
    ("cli.write", "megt.cli", "write_grid_csv"),
    ("cli.write", "megt.cli", "write_alpha_csv"),
    ("cli.write", "megt.cli", "write_state_text"),
    ("cli.write", "megt.cli", "write_metrics_csv"),
    ("cli.write", "megt.cli", "write_ledger_csv"),
    ("cli.write", "megt.cli", "write_decisions_csv"),
    ("cli.write", "megt.cli", "write_manifest"),
    ("manifest.hash", "megt.cli", "sha256_file"),
    ("manifest.hash", "megt.manifest", "sha256_file"),
)

ROOT = "unit"  # one span per benchmark unit: command plus checks
CHECK = "bench.check"
BOOKKEEPING = "trace.bookkeeping"

# self time of a span name -> per-layer metric; others map to "<name>_s"
SELF_METRIC = {
    ROOT: "cli.other_s",
    "evolve.run": "evolve.control_s",
    "evolve.round": "evolve.imitation_s",
}


# metric -> the spans whose hooks it is counted in
DERIVED = {
    "netgen.edges": ("netgen.build", "netgen.load"),
    "comm.expm_calls": ("comm.expm",),
    "comm.expm_gflop": ("comm.expm",),
    "comm.expm_unique_ratio": ("comm.expm",),
    "comm.table_entries": ("comm.table",),
    "evolve.runs": ("evolve.run",),
    "evolve.run_p50_s": ("evolve.run",),
    "evolve.rounds": ("evolve.round",),
    "evolve.steps": ("evolve.round",),
    "evolve.imitation_ns_per_step": ("evolve.round",),
    "equilibrium.evals": ("equilibrium.eval",),
    "crowdsense.rows": ("crowdsense.ingest",),
    "crowdsense.kept_ratio": ("crowdsense.ingest",),
    "manifest.bytes_hashed": ("manifest.hash",),
}


def self_metric(span: str) -> str:
    return SELF_METRIC.get(span, f"{span}_s")


class Tracer:
    """In-memory span recorder with per-unit counters."""

    def __init__(self):
        self.spans: list[list] = []  # [name, parent index, start, end]
        self._stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.expm_inputs: set[bytes] = set()

    def begin_unit(self) -> int:
        """Reset the per-unit counters; returns the unit's first span."""
        self.counts.clear()
        self.expm_inputs.clear()
        return len(self.spans)

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, time.perf_counter(), 0.0])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][3] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, after=None):
        """``fn`` inside a span; ``after(tracer, result, *args)`` then
        records its counters inside a bookkeeping span of its own."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if after is not None:
                index = self.open(BOOKKEEPING)
                try:
                    after(self, result, *args)
                finally:
                    self.close(index)
            return result

        return traced


# -- counters recorded after a call ----------------------------------------

def _count_edges(tracer, network, *args):
    tracer.counts["netgen.edges"] += sum(int(a.sum())
                                         for a in network.adjacency) // 2


def _count_expm(tracer, result, matrix, *args):
    import numpy as np
    matrix = np.ascontiguousarray(matrix, dtype=float)
    tracer.expm_inputs.add(hashlib.blake2b(matrix.tobytes(),
                                           digest_size=16).digest())
    # Horner's 20 products plus the squarings matrix_exp chooses
    norm = float(np.linalg.norm(matrix, 1))
    squarings = 0 if norm <= 0.5 else math.ceil(math.log2(norm / 0.5))
    tracer.counts["comm.expm_gflop"] += (
        2.0 * matrix.shape[0] ** 3 * (20 + squarings) / 1e9)


def _count_table(tracer, result, table, *args):
    tracer.counts["comm.table_entries"] += sum(len(idx)
                                               for idx in table.cross_index)


def _count_ingest(tracer, result, *args):
    kept, rejections = result
    tracer.counts["crowdsense.rows"] += len(kept) + len(rejections)
    tracer.counts["crowdsense.kept"] += len(kept)


def _count_hashed(tracer, result, path, *args):
    tracer.counts["manifest.bytes_hashed"] += os.path.getsize(path)


AFTER = {
    ("megt.evolve", "build_multiplex"): _count_edges,
    ("megt.cli", "load_multiplex"): _count_edges,
    ("megt.comm", "matrix_exp"): _count_expm,
    ("megt.evolve", "ScalingTable.__init__"): _count_table,
    ("megt.cli", "read_reports_csv"): _count_ingest,
    ("megt.cli", "sha256_file"): _count_hashed,
    ("megt.manifest", "sha256_file"): _count_hashed,
}


def _step_counter(tracer, fn):
    """RoundEngine.round runs thousands of times per unit, so its step
    count is added inline rather than in a bookkeeping span."""

    @functools.wraps(fn)
    def counted(engine, *args, **kwargs):
        tracer.counts["evolve.steps"] += engine.slot_count
        return fn(engine, *args, **kwargs)

    return counted


class Hooks:
    """Installs and removes the wrappers for one tracer."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.absent: list[str] = []
        self._targets = []
        self._saved: list[tuple[object, str, object]] = []
        for span, module_name, attr in HOOKS:
            owner, name = importlib.import_module(module_name), attr
            if "." in attr:
                class_name, name = attr.split(".")
                owner = getattr(owner, class_name, None)
            if not callable(getattr(owner, name, None)):
                self.absent.append(f"{module_name}.{attr}")
                continue
            self._targets.append((span, owner, name,
                                  AFTER.get((module_name, attr))))

    def install(self) -> None:
        for span, owner, name, after in self._targets:
            original = getattr(owner, name)
            self._saved.append((owner, name, original))
            wrapped = self.tracer.wrap(span, original, after)
            if span == "evolve.round":
                wrapped = _step_counter(self.tracer, wrapped)
            setattr(owner, name, wrapped)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        self._saved.clear()

    def absent_metrics(self) -> set[str]:
        """Per-layer metrics none of whose hooks could be installed."""
        present = {span for span, *_ in self._targets}
        absent = {span for span, *_ in HOOKS} - present
        return ({self_metric(span) for span in absent}
                | {metric for metric, sources in DERIVED.items()
                   if not present & set(sources)})


# -- aggregation -----------------------------------------------------------

def unit_profile(tracer: Tracer, first: int) -> dict[str, float]:
    """Per-layer numbers for the traced unit that just ended, whose root
    span is at index ``first``; every later span belongs to it.

    Self time is a span's duration minus its children's; summed over all
    spans of the unit, self times add up to the root's duration.
    """
    spans = tracer.spans[first:]
    child_time = defaultdict(float)
    for name, parent, start, end in spans:
        if parent >= first:
            child_time[parent] += end - start
    out: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for offset, (name, parent, start, end) in enumerate(spans):
        out[self_metric(name)] += end - start - child_time[first + offset]
        calls[name] += 1
    counts = tracer.counts
    out["trace.wall_s"] = tracer.spans[first][3] - tracer.spans[first][2]
    out["netgen.edges"] = counts["netgen.edges"]
    out["comm.expm_calls"] = calls["comm.expm"]
    out["comm.expm_gflop"] = counts["comm.expm_gflop"]
    out["comm.expm_unique_ratio"] = (len(tracer.expm_inputs)
                                     / calls["comm.expm"]
                                     if calls["comm.expm"] else 0.0)
    out["comm.table_entries"] = counts["comm.table_entries"]
    out["evolve.runs"] = calls["evolve.run"]
    out["evolve.rounds"] = calls["evolve.round"]
    out["evolve.steps"] = counts["evolve.steps"]
    out["evolve.imitation_ns_per_step"] = (
        out["evolve.imitation_s"] / counts["evolve.steps"] * 1e9
        if counts["evolve.steps"] else 0.0)
    out["equilibrium.evals"] = calls["equilibrium.eval"]
    out["crowdsense.rows"] = counts["crowdsense.rows"]
    out["crowdsense.kept_ratio"] = (counts["crowdsense.kept"]
                                    / counts["crowdsense.rows"]
                                    if counts["crowdsense.rows"] else 0.0)
    out["manifest.bytes_hashed"] = counts["manifest.bytes_hashed"]
    return dict(out)


def run_durations(tracer: Tracer) -> list[float]:
    return [end - start for name, _, start, end in tracer.spans
            if name == "evolve.run"]
