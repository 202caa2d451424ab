"""megt benchmark: one seeded workload through the public CLI.

    python3 megtbench/run.py --workload nash_layers --seed 1 --seconds 40 --trace 0

Run from the repository root.  The run measures set-up time (a fresh
interpreter importing ``megt.cli``, several times) and generates the
workload's inputs from the seed.  It then issues megt commands, one per
unit and each in a fresh interpreter (``worker.py``) with BLAS pinned to
one thread, until ``--seconds`` are used up, and checks every output.

It prints each metric with its unit and, as the last line, one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones of ``BENCHMARK.json``;
with ``--trace 1`` the per-layer ones, from a traced run.  Metric names,
units and workloads are read from ``BENCHMARK.json``.  Scratch files,
the traced spans and a digest store that flags nondeterministic outputs
live under ``.megtbench_work/``.  Without megt's sources next to it the
script exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

MAX_UNITS = 500
# set-up samples taken before and again after the units, so their median
# spans the run rather than one moment of the host's load
SETUP_SAMPLES = 4
DEADLINE_S = 170.0  # the whole run, units included
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}


def contract() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text("ascii"))


def pinned_env() -> dict:
    return dict(os.environ, **PINNED_ENV)


def measure_setup(samples: int = SETUP_SAMPLES) -> list[float]:
    """Times for a fresh interpreter to start and import megt.cli, the
    point at which a first command could be issued."""
    code = (f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); "
            "import megt.cli")
    times = []
    for _ in range(samples):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=pinned_env(),
                       check=True, timeout=60)
        times.append(time.perf_counter() - start)
    return times


def source_digest() -> str:
    """Digest of megt's sources: runs of the same code share it."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "megt").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def run_worker(workload, seed: int, index: int, traced: bool,
               workdir: Path, deadline: float) -> dict:
    """Run one unit in a fresh interpreter and return its result.  A
    worker that exits non-zero is recorded as a failed unit."""
    name = f"u{index:03d}{'t' if traced else ''}"
    result_path = workdir / f"{name}.json"
    command = [sys.executable, str(HERE / "worker.py"),
               "--workload", workload.name, "--seed", str(seed),
               "--index", str(index), "--workdir", str(workdir),
               "--outdir", str(workdir / "out" / name),
               "--traced", str(int(traced)), "--result", str(result_path)]
    start = time.perf_counter()
    status = subprocess.run(command, env=pinned_env(), stdout=sys.stderr,
                            timeout=deadline - start).returncode
    if status == 0:
        return json.loads(result_path.read_text("ascii"))
    return {"key": name, "items": 0, "wall_s": time.perf_counter() - start,
            "traced": traced, "digests": {}, "notes": {},
            "error": f"worker exited with status {status}",
            "peak_rss_mb": 0.0}


def check_determinism(units: list[dict], store_path: Path, prefix: str):
    """Fail every unit whose digests differ from an earlier unit with
    identical inputs, in this run or in an earlier run of the same code
    (kept in ``store_path``)."""
    try:
        store = json.loads(store_path.read_text("ascii"))
    except (OSError, ValueError):
        store = {}
    for unit in units:
        if unit["error"]:
            continue
        key = f"{prefix}:{unit['key']}"
        if store.setdefault(key, unit["digests"]) != unit["digests"]:
            unit["error"] = ("nondeterministic: output digests differ from "
                             "an earlier run on identical inputs")
    tmp = store_path.with_suffix(".tmp")
    tmp.write_text(json.dumps(store, indent=1, sort_keys=True), "ascii")
    os.replace(tmp, store_path)


def end_to_end(units: list[dict], setup_s: float) -> dict[str, float]:
    plain = [u for u in units if not u["traced"]]
    ok = [u for u in plain if not u["error"]] or plain
    return {"wall_s": statistics.median(u["wall_s"] for u in ok),
            "setup_s": setup_s,
            "items_per_s": statistics.median(u["items"] / u["wall_s"]
                                             for u in ok),
            "peak_rss_mb": statistics.median(u["peak_rss_mb"] for u in ok)}


def per_layer(units: list[dict], names) -> dict[str, float]:
    """Means over the traced units; the overhead is the mean traced unit
    time minus the mean plain one."""
    traced = [u for u in units if u["traced"]]
    out = {name: statistics.fmean(u.get("profile", {}).get(name, 0.0)
                                  for u in traced) for name in names}
    durations = [d for u in traced for d in u.get("run_durations", ())]
    out["evolve.run_p50_s"] = (statistics.median(durations) if durations
                               else 0.0)
    out["trace.overhead_s"] = (
        statistics.fmean(u["wall_s"] for u in traced)
        - statistics.fmean(u["wall_s"] for u in units if not u["traced"]))
    return out


def report(units: list[dict], metrics: dict[str, float],
           metric_units: dict[str, str], absent: list[str]) -> dict:
    """Print the human-readable lines; return the final JSON object."""
    failed = [u for u in units if u["error"]]
    env = next((u["env"] for u in units if "env" in u), {})
    print(f"environment: {json.dumps(env, sort_keys=True)}")
    print(f"units: {len(units)} attempted, {len(failed)} failed, "
          f"fail_ratio {len(failed) / len(units):g}")
    for unit in failed[:5]:
        print(f"  failed unit {unit['key']}: {unit['error']}")
    for notes in sorted({json.dumps(u["notes"], sort_keys=True)
                         for u in units if u["notes"]}):
        print(f"notes: {notes}")
    for name, value in metrics.items():
        print(f"{name:32s} {value:.6g} {metric_units[name]}")
    for name in absent:
        print(f"{name:32s} absent (its hook's target no longer exists)")
    return {"correct": not failed, "attempted": len(units),
            "failed": len(failed),
            "metrics": {name: {"value": value, "unit": metric_units[name]}
                        for name, value in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + DEADLINE_S
    if not (ROOT / "src" / "megt" / "cli.py").is_file():
        print(f"error: megt sources not found under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    bench = contract()

    workload = WORKLOADS[args.workload]
    scratch = ROOT / ".megtbench_work"
    workdir = scratch / f"{workload.name}-{args.seed}-{os.getpid()}"
    results = scratch / "results"
    results.mkdir(parents=True, exist_ok=True)
    workdir.mkdir(parents=True)
    label = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    units = []
    try:
        setup = [] if args.trace else measure_setup()
        plan = workload.prepare(workdir, args.seed)
        (workdir / "plan.json").write_text(json.dumps(plan), "ascii")
        start = time.perf_counter()
        for index in range(MAX_UNITS):
            # a traced run runs each unit plain and traced, alternating
            # which goes first
            order = ([False] if not args.trace else
                     [False, True] if index % 2 == 0 else [True, False])
            for traced in order:
                units.append(run_worker(workload, args.seed, index, traced,
                                        workdir, deadline))
            elapsed = time.perf_counter() - start
            if elapsed * (index + 2) / (index + 1) > args.seconds:
                break
        setup += [] if args.trace else measure_setup()
    except subprocess.TimeoutExpired as exc:
        print(f"error: {exc.cmd[1]} exceeded the {DEADLINE_S:.0f} s "
              "deadline", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    check_determinism(units, scratch / "digests.json",
                      f"{source_digest()}:{workload.name}:{args.seed}")

    if args.trace:
        absent = next((u["absent_metrics"] for u in units
                       if "absent_metrics" in u), [])
        metric_units = {m["name"]: m["unit"] for m in bench["per_layer"]}
        metrics = {name: value for name, value in
                   per_layer(units, metric_units).items()
                   if name not in absent}
        (results / f"{label}-spans.json").write_text(json.dumps(
            {"fields": ["name", "parent", "start", "end"],
             "units": [{"key": u["key"], "spans": u.pop("spans")}
                       for u in units if "spans" in u]}), "ascii")
    else:
        absent = []
        metric_units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
        metrics = end_to_end(units, statistics.median(setup))
    (results / f"{label}.json").write_text(
        json.dumps({"units": units, "metrics": metrics}, indent=1), "ascii")
    final = report(units, metrics, metric_units, absent)
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
