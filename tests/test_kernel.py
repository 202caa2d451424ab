"""Building, caching, checking and loading the compiled round kernel.

The tests that compare the compiled rounds and runs with their Python
oracles live in ``test_evolve.py`` and ``test_golden.py``; these check
the build, the loader's named errors and its draw check.
"""
from __future__ import annotations

import collections
import shutil
import subprocess
import sys

import numpy as np
import pytest

import megt.kernel
from megt.cli import main
from megt.manifest import load_manifest

from conftest import megt_env, reset_kernel

requires_cc = pytest.mark.skipif(shutil.which("cc") is None,
                                 reason="no C compiler (cc) on PATH")

LOAD = "from megt import kernel; kernel.load(); print('loaded')"

IMPORT_CLI = """
import sys
import megt.cli
print("megt.kernel" in sys.modules)
"""

WARM_LOAD = """
import sys
from megt import kernel
kernel.load()
print("subprocess" in sys.modules)
"""


def run_child(code, env):
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


@requires_cc
def test_cold_build_lands_in_the_cache_and_is_reused_without_cc(tmp_path):
    env = dict(megt_env(), XDG_CACHE_HOME=str(tmp_path / "cache"))
    assert run_child(LOAD, env) == "loaded"
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
    assert run_child(LOAD, env) == "loaded"
    assert sorted(cache.iterdir()) == built
    assert built[0].stat().st_mtime_ns == stamp


def test_importing_the_cli_builds_nothing(tmp_path):
    env = dict(megt_env(), XDG_CACHE_HOME=str(tmp_path / "cache"))
    assert run_child(IMPORT_CLI, env) == "False"
    assert not (tmp_path / "cache").exists()


@requires_cc
def test_a_warm_cache_loads_without_importing_subprocess():
    # only a build runs the compiler; the cache the child reads is warm
    reset_kernel()
    megt.kernel.load()
    assert run_child(WARM_LOAD, megt_env()) == "False"


def test_missing_compiler_is_named(without_cc):
    with pytest.raises(megt.kernel.KernelError,
                       match=r"^no C compiler \(cc\) on PATH$"):
        megt.kernel.load()


@requires_cc
def test_unwritable_cache_falls_back(unwritable_cache):
    # the kernel is built in a private temporary directory, loaded from
    # there, and the directory removed
    assert megt.kernel.load().megt_run is not None
    assert list(unwritable_cache.iterdir()) == []


@requires_cc
def test_a_failed_build_names_the_compiler_error(tmp_path, monkeypatch):
    broken = tmp_path / "round.c"
    broken.write_text("this is not C\n")
    monkeypatch.setattr(megt.kernel, "SOURCE", broken)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    reset_kernel()
    try:
        with pytest.raises(megt.kernel.KernelError,
                           match=r"^cc failed to build round\.c \(status "
                                 r"\d+\): .*round\.c"):
            megt.kernel.load()
    finally:
        reset_kernel()
    # the failed build leaves no partial library in the cache
    assert list((tmp_path / "cache" / "megt").iterdir()) == []


@requires_cc
def test_manifest_records_the_compiled_round(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("node_count = 20\nmax_rounds = 40\n"
                      "steady_window = 10\nseed = 3\n")
    assert main(["evolve", "--config", str(config),
                 "--outdir", str(tmp_path / "out")]) == 0
    extra = load_manifest(tmp_path / "out" / "manifest.json").extra
    # there is one round path, so the manifest does not name it
    assert "round_kernel" not in extra
    assert extra["stop_reason"][0] in ("steady", "absorbing", "budget")


@requires_cc
def test_kernel_source_compiles_without_warnings(tmp_path):
    proc = subprocess.run(
        ["cc", *megt.kernel.CC_FLAGS, "-Wall", "-Wextra", "-Werror",
         "-o", str(tmp_path / "round.so"), str(megt.kernel.SOURCE), "-lm"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_kernel_draws_equal_numpy_draws():
    library = megt.kernel.load()
    for bound in (2, 400, 2**31 + 1):
        ours, theirs = np.random.default_rng(9), np.random.default_rng(9)
        for a, b in zip(megt.kernel._kernel_draws(library, ours, bound),
                        megt.kernel._numpy_draws(theirs, bound)):
            assert np.array_equal(a, b)
        assert ours.bit_generator.state == theirs.bit_generator.state


@requires_cc
def test_rng_mismatch_is_a_named_error(tmp_path, monkeypatch, capsys):
    # a numpy whose bounded draws consumed one more double than round.c
    # assumes: the loader must notice, and megt must refuse to simulate
    numpy_draws = megt.kernel._numpy_draws

    def shifted(rng, bound):
        rng.random()
        return numpy_draws(rng, bound)

    config = tmp_path / "run.cfg"
    config.write_text("node_count = 15\nmax_rounds = 60\n"
                      "steady_window = 10\nseed = 4\n")
    monkeypatch.setattr(megt.kernel, "_numpy_draws", shifted)
    reset_kernel()
    try:
        status = main(["evolve", "--config", str(config),
                       "--outdir", str(tmp_path / "out")])
    finally:
        reset_kernel()
    assert status == 2
    assert "the draw check failed" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@requires_cc
def test_nash_run_is_two_kernel_calls(tmp_path, monkeypatch):
    # the initial state's Nash pairs, then the whole run with its rounds'
    # Nash pairs
    library = megt.kernel.load()
    calls = collections.Counter()

    class Counting:
        def __getattr__(self, name):
            function = getattr(library, name)

            def counted(*args):
                calls[name] += 1
                return function(*args)

            return counted

    monkeypatch.setattr(megt.kernel, "load", lambda: Counting())
    config = tmp_path / "nash.cfg"
    config.write_text("node_count = 30\nlayers = 3\ngame = sd\n"
                      "max_rounds = 60\nsteady_window = 10\nseed = 3\n")
    assert main(["nash", "--config", str(config),
                 "--outdir", str(tmp_path / "out")]) == 0
    assert calls == {"megt_nash": 1, "megt_run": 1}
    alpha = (tmp_path / "out" / "alpha.csv").read_text().splitlines()
    rho = (tmp_path / "out" / "rho.csv").read_text().splitlines()
    assert len(alpha) == len(rho) > 3
