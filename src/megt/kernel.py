"""The compiled imitation loop of a Monte Carlo round, built on first use.

``round.c`` ships beside this module.  ``load`` compiles it once per
user with the system C compiler into ``$XDG_CACHE_HOME/megt`` (or
``~/.cache/megt``), under a name keyed by a hash of the source and the
flags, and loads it with ctypes.  The compiler writes to a temporary
name that is then renamed into place, so processes racing on a cold
cache each see either no library or a whole one.  Importing this module
compiles nothing; ``megt.evolve`` imports it only when an engine is
built.

When the compiler is missing, the build fails or the cache cannot be
written, ``load`` says why and ``RoundEngine`` runs its Python loop,
which gives the same bits.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import subprocess
import tempfile
from pathlib import Path

__all__ = ["load"]

SOURCE = Path(__file__).with_name("round.c")

# no fused multiply-add: the loop must round like the Python one
CC_FLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")

_ARGTYPES = (ctypes.c_int64, ctypes.c_void_p, ctypes.c_void_p,
             ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p,
             ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p,
             ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p,
             ctypes.c_void_p, ctypes.c_double, ctypes.c_double,
             ctypes.c_double)


def _cache_dir() -> Path:
    """Where built kernels live: ``$XDG_CACHE_HOME/megt``, or
    ``~/.cache/megt`` when the variable is unset or empty."""
    base = os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache"
    return Path(base) / "megt"


def _build() -> Path:
    """The cached library for the current source and flags, compiled
    first if it is not there; raises OSError on any failure."""
    source = SOURCE.read_bytes()
    key = hashlib.sha256(source + " ".join(CC_FLAGS).encode()).hexdigest()
    target = _cache_dir() / f"round-{key[:16]}.so"
    if target.is_file():
        return target
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, partial = tempfile.mkstemp(prefix=".round-", suffix=".so",
                                   dir=target.parent)
    os.close(fd)
    try:
        proc = subprocess.run(["cc", *CC_FLAGS, "-o", partial, str(SOURCE),
                               "-lm"], capture_output=True, text=True)
        if proc.returncode != 0:
            first = (proc.stderr.strip().splitlines() or ["no message"])[0]
            raise OSError(f"cc exited with status {proc.returncode}: {first}")
        os.replace(partial, target)
    finally:
        if os.path.exists(partial):
            os.unlink(partial)
    return target


@functools.cache
def load():
    """``(function, "c")`` for the compiled round, or
    ``(None, "python: <reason>")`` when it cannot be built or loaded.

    The outcome is decided once per process.  The function takes the
    arguments of ``megt_round`` in ``round.c``: the slot count, twelve
    array addresses and three doubles.
    """
    try:
        function = ctypes.CDLL(str(_build())).megt_round
    except FileNotFoundError as exc:
        if exc.filename == "cc":
            return None, "python: no C compiler (cc) on PATH"
        return None, f"python: {exc}"
    except (OSError, AttributeError, RuntimeError) as exc:
        return None, f"python: {exc}"
    function.argtypes = _ARGTYPES
    function.restype = ctypes.c_int64
    return function, "c"
