"""One benchmark unit in a fresh interpreter.

``run.py`` starts this once per unit, with BLAS and OpenMP pinned to one
thread, so every megt command runs in a process of its own, as it does
from the command line, and nothing one unit leaves in memory can speed up
the next.  The process imports megt from the repository's ``src`` by
absolute path before the clock starts, issues the unit's command through
the public entry point ``megt.cli.main``, checks the outputs and writes a
JSON result.  With ``--traced 1`` the span hooks are installed around the
command.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
from checks import CheckFailed  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

PINNED = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def environment(seed: int) -> dict:
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_text = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas_text = "unknown"
    return {"seed": seed,
            "threads": {name: os.environ.get(name) for name in PINNED},
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "blas": blas_text}


def run_unit(main, workload, unit, plan, tracer=None) -> dict:
    """Issue one megt command and check its outputs.  A command that
    raises, exits non-zero or fails a check is recorded as failed."""
    start = time.perf_counter()
    root = tracer.open(tracing.ROOT) if tracer else None
    digests, notes, error, trace = {}, {}, None, None
    try:
        status = main(unit.argv)
        if status != 0:
            raise CheckFailed(f"megt exited with status {status}")
        check = tracer.open(tracing.CHECK) if tracer else None
        try:
            digests, notes = workload.check(unit, plan)
        finally:
            if tracer:
                tracer.close(check)
    except Exception as exc:  # the unit is counted failed; the run goes on
        error = f"{type(exc).__name__}: {exc}"
        trace = traceback.format_exc()
    finally:
        if tracer:
            tracer.close(root)
    return {"key": unit.key, "items": unit.items,
            "wall_s": time.perf_counter() - start, "traced": bool(tracer),
            "digests": digests, "notes": notes, "error": error,
            "traceback": trace}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--index", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--outdir", required=True)
    parser.add_argument("--traced", type=int, choices=(0, 1), required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    import megt.cli

    workload = WORKLOADS[args.workload]
    workdir = Path(args.workdir)
    plan = json.loads((workdir / "plan.json").read_text("ascii"))
    unit = workload.unit(workdir, args.seed, args.index, plan,
                         Path(args.outdir))
    if args.traced:
        tracer = tracing.Tracer()
        hooks = tracing.Hooks(tracer)
        first = tracer.begin_unit()
        hooks.install()
        try:
            result = run_unit(megt.cli.main, workload, unit, plan, tracer)
        finally:
            hooks.uninstall()
        result.update(profile=tracing.unit_profile(tracer, first),
                      run_durations=tracing.run_durations(tracer),
                      spans=tracer.spans, absent_hooks=hooks.absent,
                      absent_metrics=sorted(hooks.absent_metrics()))
    else:
        result = run_unit(megt.cli.main, workload, unit, plan)
    result["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["env"] = environment(args.seed)
    Path(args.result).write_text(json.dumps(result), "ascii")
    return 0


if __name__ == "__main__":
    sys.exit(main())
