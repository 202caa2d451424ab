"""The benchmark's workloads: inputs, megt commands and their checks.

A workload prepares its inputs once per benchmark run from the seed, then
issues one megt command per unit, writing into the unit's ``outdir``.
Units with the same ``key`` have identical inputs, so their output digests
must match.  ``check`` returns the unit's output digests and a dict of
notes about its outputs that the run records.  The reason for each
workload is given in ``BENCHMARK.json``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

import checks
import gen


@dataclass(frozen=True)
class Unit:
    argv: list[str]
    outdir: Path
    key: str
    items: int


def derived_seed(seed: int, *parts) -> int:
    """A 32-bit seed for megt, derived from the workload seed."""
    text = ":".join(str(p) for p in (seed, *parts))
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:4], "big")


def _write_config(path: Path, values: dict) -> None:
    path.write_text("".join(f"{k} = {v!r}\n" if isinstance(v, float)
                            else f"{k} = {v}\n" for k, v in values.items()),
                    encoding="ascii")


class NashLayers:
    """Seven sparse ER layers; every unit builds its own network."""

    name = "nash_layers"
    max_rounds = 2500

    def prepare(self, workdir: Path, seed: int) -> dict:
        _write_config(workdir / "nash.cfg", {
            "node_count": 200, "layers": 7, "topology": "er",
            "edge_probability": 4 / 199, "game": "pd", "b": 1.2, "c": 0.2,
            "max_rounds": self.max_rounds})
        return {}

    def unit(self, workdir: Path, seed: int, index: int, plan: dict,
             outdir: Path) -> Unit:
        run_seed = derived_seed(seed, self.name, index)
        return Unit(argv=["nash", "--config", str(workdir / "nash.cfg"),
                          "--outdir", str(outdir), "--seed", str(run_seed)],
                    outdir=outdir, key=f"seed{run_seed}", items=1)

    def check(self, unit: Unit, plan: dict) -> tuple[dict, dict]:
        digests = checks.check_manifest(unit.outdir)
        rho = checks.check_density_csv(unit.outdir / "rho.csv", ("rho",),
                                       self.max_rounds)
        alpha = checks.check_density_csv(unit.outdir / "alpha.csv",
                                         ("alpha", "weak_fraction"),
                                         self.max_rounds)
        if alpha != rho:
            raise checks.CheckFailed(f"alpha.csv has {alpha} rounds, "
                                     f"rho.csv {rho}")
        return digests, {}


class SweepFixed:
    """A T-S sweep on a generated network file.  Units cycle over a few
    network files and each draws its own dynamics seed: rounds to steady
    state vary by a fifth between single sweeps, so a run averages over
    several of them."""

    name = "sweep_fixed"
    t_values = [0.0, 0.5, 1.0, 1.5, 2.0]
    s_values = [-1.0, -0.5, 0.0, 0.5, 1.0]
    replicas = 2
    networks = 4

    def prepare(self, workdir: Path, seed: int) -> dict:
        edges = 0
        for k in range(self.networks):
            network = workdir / f"net{k}.mplex"
            edges += gen.write_network(network, seed * self.networks + k)[
                "edges"]
            _write_config(workdir / f"sweep{k}.cfg", {
                "network_file": network, "t_min": self.t_values[0],
                "t_max": self.t_values[-1], "t_steps": len(self.t_values),
                "s_min": self.s_values[0], "s_max": self.s_values[-1],
                "s_steps": len(self.s_values), "replicas": self.replicas})
        return {"edges": edges}

    def unit(self, workdir: Path, seed: int, index: int, plan: dict,
             outdir: Path) -> Unit:
        run_seed = derived_seed(seed, self.name, index)
        config = workdir / f"sweep{index % self.networks}.cfg"
        return Unit(argv=["sweep", "--config", str(config),
                          "--outdir", str(outdir), "--seed", str(run_seed)],
                    outdir=outdir, key=f"seed{run_seed}",
                    items=len(self.t_values) * len(self.s_values)
                    * self.replicas)

    def check(self, unit: Unit, plan: dict) -> tuple[dict, dict]:
        digests = checks.check_manifest(unit.outdir)
        checks.check_grid_csv(unit.outdir / "grid.csv", self.t_values,
                              self.s_values, self.replicas)
        return digests, {}


class ScoreCorpus:
    """All three mechanisms over one generated corpus, once per unit."""

    name = "score_corpus"
    budget = 100.0

    def prepare(self, workdir: Path, seed: int) -> dict:
        corpus = gen.write_corpus(workdir / "reports.csv", seed)
        _write_config(workdir / "score.cfg", {"budget": self.budget})
        return {"rows": corpus.rows, "zero_rating": corpus.zero_rating,
                "duplicate": corpus.duplicate,
                "kept_devices": list(corpus.kept_devices)}

    def unit(self, workdir: Path, seed: int, index: int, plan: dict,
             outdir: Path) -> Unit:
        return Unit(argv=["score", "--config", str(workdir / "score.cfg"),
                          "--reports", str(workdir / "reports.csv"),
                          "--outdir", str(outdir)],
                    outdir=outdir, key="corpus", items=plan["rows"])

    def check(self, unit: Unit, plan: dict) -> tuple[dict, dict]:
        digests = checks.check_manifest(unit.outdir)
        saturated = checks.check_score(unit.outdir, plan["zero_rating"],
                                       plan["duplicate"],
                                       plan["kept_devices"], self.budget)
        return digests, {"saturated_rows": saturated}


WORKLOADS = {w.name: w for w in (NashLayers(), SweepFixed(), ScoreCorpus())}
