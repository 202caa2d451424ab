"""Building, caching, checking and loading the compiled round kernel.

The tests that compare the compiled rounds and runs with the Python ones
live in ``test_evolve.py`` and ``test_golden.py``; these check the build
and the loader's draw check.
"""
from __future__ import annotations

import collections
import shutil
import subprocess
import sys

import numpy as np
import pytest

import megt.comm
import megt.kernel
from megt.cli import main
from megt.comm import communicability_entries
from megt.evolve import SimulationConfig, run
from megt.games import representative
from megt.netgen import LayerTopology, MultiplexSpec, build_multiplex
from megt.manifest import load_manifest

from conftest import megt_env, reset_kernel

requires_cc = pytest.mark.skipif(shutil.which("cc") is None,
                                 reason="no C compiler (cc) on PATH")

LOAD = "from megt import kernel; print(kernel.load()[1])"

IMPORT_CLI = """
import sys
import megt.cli
print("megt.kernel" in sys.modules)
"""

WARM_LOAD = """
import sys
from megt import kernel
print(kernel.load()[1], "subprocess" in sys.modules)
"""


def run_child(code, env):
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


@requires_cc
def test_cold_build_lands_in_the_cache_and_is_reused_without_cc(tmp_path):
    env = dict(megt_env(), XDG_CACHE_HOME=str(tmp_path / "cache"))
    assert run_child(LOAD, env) == "c"
    cache = tmp_path / "cache" / "megt"
    built = sorted(cache.iterdir())
    # one library under its keyed name, and no temporary file left over
    assert [path.name for path in built] == [built[0].name]
    assert built[0].name.startswith("round-")
    assert built[0].suffix == ".so"
    stamp = built[0].stat().st_mtime_ns
    empty = tmp_path / "no-compiler"
    empty.mkdir()
    env["PATH"] = str(empty)
    assert run_child(LOAD, env) == "c"
    assert sorted(cache.iterdir()) == built
    assert built[0].stat().st_mtime_ns == stamp


def test_importing_the_cli_builds_nothing(tmp_path):
    env = dict(megt_env(), XDG_CACHE_HOME=str(tmp_path / "cache"))
    assert run_child(IMPORT_CLI, env) == "False"
    assert not (tmp_path / "cache").exists()


@requires_cc
def test_a_warm_cache_loads_without_importing_subprocess():
    # only a build runs the compiler; the cache the child reads is warm
    assert megt.kernel._build().is_file()
    assert run_child(WARM_LOAD, megt_env()) == "c False"


def test_missing_compiler_is_named(without_cc):
    function, path = megt.kernel.load()
    assert function is None
    assert path == "python: no C compiler (cc) on PATH"


def test_unwritable_cache_falls_back(tmp_path, monkeypatch):
    blocker = tmp_path / "not-a-directory"
    blocker.write_text("")
    monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
    reset_kernel()
    try:
        function, path = megt.kernel.load()
    finally:
        reset_kernel()
    assert function is None
    assert path.startswith("python: ")


@requires_cc
def test_manifest_records_the_compiled_round(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("node_count = 20\nmax_rounds = 40\n"
                      "steady_window = 10\nseed = 3\n")
    assert main(["evolve", "--config", str(config),
                 "--outdir", str(tmp_path / "out")]) == 0
    extra = load_manifest(tmp_path / "out" / "manifest.json").extra
    assert extra["round_kernel"] == "c"
    assert extra["stop_reason"][0] in ("steady", "absorbing", "budget")


@requires_cc
def test_kernel_source_compiles_without_warnings(tmp_path):
    proc = subprocess.run(
        ["cc", *megt.kernel.CC_FLAGS, "-Wall", "-Wextra", "-Werror",
         "-o", str(tmp_path / "round.so"), str(megt.kernel.SOURCE), "-lm"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_kernel_draws_equal_numpy_draws():
    library, path = megt.kernel.load()
    if library is None:
        pytest.skip(path)
    for bound in (2, 400, 2**31 + 1):
        ours, theirs = np.random.default_rng(9), np.random.default_rng(9)
        for a, b in zip(megt.kernel._kernel_draws(library, ours, bound),
                        megt.kernel._numpy_draws(theirs, bound)):
            assert np.array_equal(a, b)
        assert ours.bit_generator.state == theirs.bit_generator.state


@requires_cc
def test_rng_mismatch_falls_back_to_python(monkeypatch):
    # a numpy whose bounded draws consumed one more double than round.c
    # assumes: the loader must notice and refuse the kernel
    numpy_draws = megt.kernel._numpy_draws

    def shifted(rng, bound):
        rng.random()
        return numpy_draws(rng, bound)

    config = SimulationConfig(
        game=representative("sd"), max_rounds=60, steady_window=10,
        spec=MultiplexSpec(node_count=15, layer_count=2,
                           topologies=(LayerTopology.er(0.2),) * 2,
                           homophily_sigma=1.0, rng_seed=4), rng_seed=4)
    reset_kernel()
    compiled = run(config)
    monkeypatch.setattr(megt.kernel, "_numpy_draws", shifted)
    reset_kernel()
    try:
        assert megt.kernel.load() == (None, "python: rng mismatch")
        fallback = run(config)
    finally:
        reset_kernel()
    assert fallback.trajectory == compiled.trajectory
    assert np.array_equal(fallback.state.strategies, compiled.state.strategies)


@requires_cc
def test_nash_run_is_one_kernel_call(tmp_path, monkeypatch):
    library, path = megt.kernel.load()
    assert path == "c"
    calls = collections.Counter()

    class Counting:
        def __getattr__(self, name):
            function = getattr(library, name)

            def counted(*args):
                calls[name] += 1
                return function(*args)

            return counted

    monkeypatch.setattr(megt.kernel, "load", lambda: (Counting(), "c"))
    config = tmp_path / "nash.cfg"
    config.write_text("node_count = 30\nlayers = 3\ngame = sd\n"
                      "max_rounds = 60\nsteady_window = 10\nseed = 3\n")
    assert main(["nash", "--config", str(config),
                 "--outdir", str(tmp_path / "out")]) == 0
    assert calls == {"megt_run": 1}
    alpha = (tmp_path / "out" / "alpha.csv").read_text().splitlines()
    rho = (tmp_path / "out" / "rho.csv").read_text().splitlines()
    assert len(alpha) == len(rho) > 3


@requires_cc
def test_rng_mismatch_keeps_the_compiled_series(monkeypatch):
    # the series draws no random numbers, so a failed draw check must not
    # send it to the numpy loop
    def refuse(*args):
        raise AssertionError("the series fell back to numpy")

    numpy_draws = megt.kernel._numpy_draws

    def shifted(rng, bound):
        rng.random()
        return numpy_draws(rng, bound)

    net = build_multiplex(MultiplexSpec(
        node_count=200, layer_count=2,
        topologies=(LayerTopology.ws(4, 0.1),) * 2, homophily_sigma=1.0,
        rng_seed=2))
    ptr = np.arange(401, dtype=np.int64)
    monkeypatch.setattr(megt.kernel, "_numpy_draws", shifted)
    monkeypatch.setattr(megt.comm, "_series_numpy", refuse)
    reset_kernel()
    try:
        assert megt.kernel.load()[0] is None
        _, info = communicability_entries(net, 0.5, ptr, ptr[:-1] % 200)
    finally:
        reset_kernel()
    assert info["method"] == "series"
