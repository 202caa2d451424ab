"""Building, caching and loading the compiled round kernel.

The tests that compare the compiled round with the Python one live in
``test_evolve.py`` and ``test_golden.py``; these check the build itself.
"""
from __future__ import annotations

import shutil
import subprocess
import sys

import pytest

import megt.kernel
from megt.cli import main
from megt.manifest import load_manifest

from conftest import megt_env

requires_cc = pytest.mark.skipif(shutil.which("cc") is None,
                                 reason="no C compiler (cc) on PATH")

LOAD = "from megt import kernel; print(kernel.load()[1])"

IMPORT_CLI = """
import sys
import megt.cli
print("megt.kernel" in sys.modules)
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


def test_missing_compiler_is_named(without_cc):
    function, path = megt.kernel.load()
    assert function is None
    assert path == "python: no C compiler (cc) on PATH"


def test_unwritable_cache_falls_back(tmp_path, monkeypatch):
    blocker = tmp_path / "not-a-directory"
    blocker.write_text("")
    monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
    megt.kernel.load.cache_clear()
    try:
        function, path = megt.kernel.load()
    finally:
        megt.kernel.load.cache_clear()
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
