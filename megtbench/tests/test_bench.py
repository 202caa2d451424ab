"""Tests of the benchmark itself: python3 -m pytest megtbench/tests -q"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
from workloads import NashLayers, ScoreCorpus  # noqa: E402

import megt.cli  # noqa: E402
from megt.crowdsense import read_reports_csv  # noqa: E402
from megt.netgen import load_multiplex  # noqa: E402

SMALL_CORPUS = dict(rows=2000, device_count=100, day_count=7,
                    zero_rating=40, duplicate=60)
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
SMALL_NASH = {"node_count": 20, "layers": 3, "topology": "er",
              "edge_probability": 0.2, "max_rounds": 60,
              "steady_window": 20}


# -- generators --------------------------------------------------------------

def test_generators_are_deterministic(tmp_path):
    for name, write in (("net", lambda p, s: gen.write_network(p, s, 40)),
                        ("csv", lambda p, s: gen.write_corpus(
                            p, s, **SMALL_CORPUS))):
        first, again, other = (tmp_path / f"{name}{k}" for k in range(3))
        assert write(first, 5) == write(again, 5)
        write(other, 6)
        assert first.read_bytes() == again.read_bytes()
        assert first.read_bytes() != other.read_bytes()


def test_corpus_plants_known_rejections(tmp_path):
    plan = gen.write_corpus(tmp_path / "r.csv", 3, **SMALL_CORPUS)
    kept, rejections = read_reports_csv(tmp_path / "r.csv")
    reasons = [r.reason for r in rejections]
    assert reasons.count("zero_rating") == plan.zero_rating
    assert reasons.count("duplicate") == plan.duplicate
    assert len(kept) == plan.kept_rows
    assert sorted({r.uuid for r in kept}) == list(plan.kept_devices)


def test_network_file_loads_in_megt(tmp_path):
    shape = gen.write_network(tmp_path / "n.mplex", 2, node_count=50)
    network = load_multiplex(tmp_path / "n.mplex")
    assert network.node_count == 50 and network.layer_count == 2
    assert sum(int(a.sum()) for a in network.adjacency) // 2 == shape["edges"]


# -- per-unit checks ---------------------------------------------------------

def _score_unit(tmp_path):
    corpus = gen.write_corpus(tmp_path / "reports.csv", 1, **SMALL_CORPUS)
    (tmp_path / "score.cfg").write_text("budget = 100.0\n")
    plan = {"rows": corpus.rows, "zero_rating": corpus.zero_rating,
            "duplicate": corpus.duplicate,
            "kept_devices": list(corpus.kept_devices)}
    workload = ScoreCorpus()
    return workload, workload.unit(tmp_path, 1, 0, plan, tmp_path / "o"), plan


def _nash_unit(tmp_path):
    (tmp_path / "nash.cfg").write_text(
        "".join(f"{k} = {v}\n" for k, v in SMALL_NASH.items()))
    workload = NashLayers()
    return workload, workload.unit(tmp_path, 1, 0, {}, tmp_path / "o"), {}


def _resign(outdir: Path, name: str) -> None:
    """Record a tampered output's new digest, so only value checks catch
    the tampering."""
    manifest = json.loads((outdir / "manifest.json").read_text())
    manifest["outputs"][name] = checks._sha256(outdir / name)
    (outdir / "manifest.json").write_text(json.dumps(manifest))


def _tampering_main(name: str, edit, resign: bool):
    def main(argv):
        status = megt.cli.main(argv)
        outdir = Path(argv[argv.index("--outdir") + 1])
        lines = (outdir / name).read_text().splitlines()
        (outdir / name).write_text("\n".join(edit(lines)) + "\n")
        if resign:
            _resign(outdir, name)
        return status
    return main


def _set_field(row: int, column: int, value: str):
    def edit(lines):
        cells = lines[row].split(",")
        cells[column] = value
        lines[row] = ",".join(cells)
        return lines
    return edit


@pytest.mark.parametrize("make_unit", [_score_unit, _nash_unit])
def test_clean_unit_passes(tmp_path, make_unit):
    workload, unit, plan = make_unit(tmp_path)
    outcome = worker.run_unit(megt.cli.main, workload, unit, plan)
    assert outcome["error"] is None
    assert outcome["digests"]
    if isinstance(workload, ScoreCorpus):
        assert outcome["notes"]["saturated_rows"] >= 0


@pytest.mark.parametrize("name, edit, resign", [
    ("ledger.csv", _set_field(1, 2, "1.5"), True),        # rs_norm > 1
    ("ledger.csv", _set_field(1, 4, "-1.0"), True),       # negative payout
    ("ledger.csv", lambda lines: lines[:-1], True),       # a device missing
    ("ledger.csv", _set_field(1, 1, "0.25"), False),      # digest mismatch
])
def test_corrupted_ledger_counts_as_failed(tmp_path, name, edit, resign):
    workload, unit, plan = _score_unit(tmp_path)
    outcome = worker.run_unit(_tampering_main(name, edit, resign), workload,
                              unit, plan)
    assert outcome["error"] and "CheckFailed" in outcome["error"]


@pytest.mark.parametrize("name, edit, resign", [
    ("rho.csv", _set_field(2, 1, "1.5"), True),           # density > 1
    ("rho.csv", _set_field(2, 1, "nan"), True),           # not finite
    ("rho.csv", lambda lines: lines + [f"{k},0.5" for k in range(
        len(lines) - 1, 2600)], True),                    # > max_rounds + 1
    ("alpha.csv", _set_field(2, 1, "-0.1"), True),        # alpha < 0
    ("rho.csv", _set_field(2, 1, "0.25"), False),         # digest mismatch
])
def test_corrupted_rho_or_alpha_counts_as_failed(tmp_path, name, edit,
                                                 resign):
    workload, unit, plan = _nash_unit(tmp_path)
    outcome = worker.run_unit(_tampering_main(name, edit, resign), workload,
                              unit, plan)
    assert outcome["error"] and "CheckFailed" in outcome["error"]


def test_differing_digests_are_nondeterminism(tmp_path):
    units = [{"key": "k", "digests": {"a": "1"}, "error": None},
             {"key": "k", "digests": {"a": "2"}, "error": None},
             {"key": "j", "digests": {"a": "3"}, "error": None}]
    store = tmp_path / "store.json"
    run.check_determinism(units, store, "p")
    assert [u["error"] is None for u in units] == [True, False, True]
    later = [{"key": "j", "digests": {"a": "4"}, "error": None}]
    run.check_determinism(later, store, "p")
    assert "nondeterministic" in later[0]["error"]


# -- tracing -----------------------------------------------------------------

def test_self_times_partition_the_traced_wall(tmp_path):
    workload, unit, plan = _nash_unit(tmp_path)
    tracer = tracing.Tracer()
    hooks = tracing.Hooks(tracer)
    assert hooks.absent == []
    first = tracer.begin_unit()
    hooks.install()
    try:
        outcome = worker.run_unit(megt.cli.main, workload, unit, plan, tracer)
    finally:
        hooks.uninstall()
    assert outcome["error"] is None
    profile = tracing.unit_profile(tracer, first)
    per_layer = {m["name"] for m in CONTRACT["per_layer"]}
    self_times = {tracing.self_metric(span) for span in
                  {tracing.ROOT, tracing.CHECK, tracing.BOOKKEEPING}
                  | {span for span, *_ in tracing.HOOKS}}
    assert set(profile) <= per_layer and self_times <= per_layer
    assert sum(profile.get(name, 0.0) for name in self_times) == \
        pytest.approx(profile["trace.wall_s"], rel=1e-9)
    assert profile["comm.expm_calls"] == 1
    assert profile["comm.expm_unique_ratio"] == 1.0
    assert profile["equilibrium.evals"] == profile["evolve.rounds"] + 1
    assert profile["evolve.steps"] == 60 * profile["evolve.rounds"]
    # uninstalling restores the originals
    assert megt.cli.run is megt.evolve.run
    assert not hasattr(megt.comm.matrix_exp, "__wrapped__")


def test_missing_hook_target_is_absent_not_zero(monkeypatch):
    monkeypatch.setattr(tracing, "HOOKS", tracing.HOOKS + (
        ("comm.gone", "megt.comm", "no_such_function"),
        ("comm.expm", "megt.comm", "NoSuchClass.method")))
    hooks = tracing.Hooks(tracing.Tracer())
    assert hooks.absent == ["megt.comm.no_such_function",
                            "megt.comm.NoSuchClass.method"]
    assert hooks.absent_metrics() == {"comm.gone_s"}


# -- the contract ------------------------------------------------------------

def test_contract_names_every_workload():
    assert [w["name"] for w in CONTRACT["workloads"]] == list(
        run.WORKLOADS)
    assert CONTRACT["command"] == ["python3", "megtbench/run.py"]


def test_printed_metric_names_match_benchmark_json(capsys):
    units = [{"key": "k", "items": 10, "wall_s": w, "traced": t,
              "digests": {}, "notes": {}, "error": None, "peak_rss_mb": 50.0,
              "profile": {"comm.expm_s": 1.0}, "run_durations": [0.5]}
             for w, t in ((2.0, False), (2.5, True), (2.0, True),
                          (2.5, False))]
    metric_units = {m["name"]: m["unit"] for m in CONTRACT["end_to_end"]}
    final = run.report(units, run.end_to_end(units, 0.2), metric_units, [])
    assert final["correct"] and final["attempted"] == 4
    assert {name: m["unit"] for name, m in final["metrics"].items()} == \
        metric_units
    assert final["metrics"]["wall_s"]["value"] == 2.25
    assert final["metrics"]["peak_rss_mb"]["value"] == 50.0
    names = [m["name"] for m in CONTRACT["per_layer"]]
    layer = run.per_layer(units, names)
    assert set(layer) == set(names)
    assert layer["trace.overhead_s"] == 0.0
    assert layer["comm.expm_s"] == 1.0


def test_run_without_sources_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "megtbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "megtbench/run.py", "--workload", "nash_layers",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
