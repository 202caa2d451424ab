"""Shared helpers for the tests that run megt in a child process, and for
the tests that run both imitation loops.

A child ``python -m megt.cli`` must run the same ``megt`` that this pytest
process imported, whatever its working directory and whether ``PYTHONPATH``
was given as a relative path (``PYTHONPATH=src``) or megt is installed.
"""
from __future__ import annotations

import os
from pathlib import Path

import pytest

import megt
import megt.kernel

#: Directory that holds the ``megt`` package imported by the suite
#: (``src`` in a checkout, or wherever an installed megt lives).
MEGT_PARENT = Path(megt.__file__).resolve().parents[1]


def megt_env() -> dict[str, str]:
    """Environment for a child process that must import the suite's megt.

    ``PYTHONPATH`` begins with the absolute :data:`MEGT_PARENT`; existing
    entries follow it. ``MEGT_SEED`` is dropped so that a seed set in the
    caller's shell cannot reach the child.
    """
    env = {k: v for k, v in os.environ.items() if k != "MEGT_SEED"}
    rest = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (str(MEGT_PARENT) if not rest
                         else str(MEGT_PARENT) + os.pathsep + rest)
    return env


def force_python_round(monkeypatch) -> None:
    """Make every RoundEngine built from here on run its Python loop, as
    it does when the compiled kernel cannot be built."""
    monkeypatch.setattr(megt.kernel, "load",
                        lambda: (None, "python: forced by the test"))


@pytest.fixture
def without_cc(tmp_path, monkeypatch):
    """No ``cc`` on PATH and an empty kernel cache, so that the kernel
    loader really fails; its per-process outcome is reset around the
    test."""
    empty = tmp_path / "no-compiler"
    empty.mkdir()
    monkeypatch.setenv("PATH", str(empty))
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    megt.kernel.load.cache_clear()
    yield
    megt.kernel.load.cache_clear()
