"""Every demo script runs to completion against the current API.

Each demo runs in a child process with its default arguments, from an
empty working directory, so a renamed or deleted public name fails here
rather than when someone next tries the demo.
"""
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import megt_env

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("script", DEMOS, ids=[path.stem for path in DEMOS])
def test_demo_runs(tmp_path, script):
    proc = subprocess.run([sys.executable, str(script)], cwd=tmp_path,
                          env=megt_env(), capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
