"""The compiled Monte Carlo rounds, Nash counts and communicability
series, built and checked on first use.

``round.c`` ships beside this module.  ``load`` compiles it once per
user with the system C compiler into ``$XDG_CACHE_HOME/megt`` (or
``~/.cache/megt``), under a name keyed by a hash of the source and the
flags, and loads it with ctypes.  The flags (``CC_FLAGS``) turn off
fused multiply-adds, so the C rounds round like the tests' Python
oracle, and include ``-pthread``: ``megt_comm_entries`` sums the series'
panels in threads, all of them joined before it returns, so no thread
outlives a call.  The compiler writes to a temporary name that is then
renamed into place, so processes racing on a cold cache each see either
no library or a whole one.  Where the cache cannot be written, the library is compiled into a
private temporary directory, loaded from there, and the directory is
removed.  Importing this module compiles nothing; ``megt.evolve`` and
``megt.comm`` import it only when an engine is built or a series is
summed, and the CLI only for the commands that simulate.

The kernel takes its random numbers from numpy's bit generator through
numpy's ``bitgen_t`` interface and reproduces how ``Generator.integers``
and ``Generator.random`` turn them into draws.  That is numpy's
implementation, not its contract, so ``load`` first checks a few hundred
draws, and the bit generator's state after them, against numpy.

Simulation has no other path: when the compiler is missing, the build
fails or the draws differ from numpy's, ``load`` raises a
``KernelError`` that names the cause.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import tempfile
from pathlib import Path

import numpy as np

__all__ = ["KernelError", "load", "Engine", "STOP_REASONS"]

SOURCE = Path(__file__).with_name("round.c")

# no fused multiply-add: the loop must round like the tests' oracle;
# -pthread for the series' panel threads
CC_FLAGS = ("-O2", "-ffp-contract=off", "-pthread", "-fPIC", "-shared")

_I64, _F64, _PTR = ctypes.c_int64, ctypes.c_double, ctypes.c_void_p


class Engine(ctypes.Structure):
    """``struct megt_engine`` of ``round.c``, field for field; the
    pointers are addresses of arrays the engine keeps alive."""

    _fields_ = [(name, kind) for names, kind in (
        ("node_count slot_count", _I64),
        ("neighbour_ptr neighbour_slot distance edge_weight row_sum "
         "cross_ptr cross_slot cross_value denominator", _PTR),
        ("reward sucker temptation punishment kappa span clamp", _F64),
        ("window", _I64),
        ("tolerance", _F64),
        ("strategies coop_count payoff picks u_neighbour u_adopt stale "
         "stale_slot", _PTR),
        ("stale_total", _I64),
        ("rho cumulative union_ptr union_node union_weight", _PTR),
        ("nash_base nash_slope", _F64),
        ("projection", _I64),
        ("nash_play nash_flag", _PTR),
        ("nash_pairs nash_weak", _I64),
        ("pair_count weak_count", _PTR),
        ("coop_total adoptions stop", _I64),
    ) for name in names.split()]


# Engine.stop codes, in round.c's order
STOP_REASONS = ("budget", "steady", "absorbing")

# bounds for the draw check: the smallest, an odd one, the slot counts
# of N=200 at M=2 and one past M=7, a large one, and one at which
# Lemire's method rejects about half of its draws
_CHECK_BOUNDS = (2, 3, 400, 1401, 2**20 + 7, 2**31 + 1)
_CHECK_COUNT = 64
_CHECK_REDRAWS = 8


def _cache_dir() -> Path:
    """Where built kernels live: ``$XDG_CACHE_HOME/megt``, or
    ``~/.cache/megt`` when the variable is unset or empty."""
    base = os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache"
    return Path(base) / "megt"


class KernelError(Exception):
    """The compiled kernel cannot be built or loaded; ``str(exc)`` names
    the cause."""


def _compile(target: Path) -> Path:
    """``round.c`` compiled to ``target``; raises KernelError when there
    is no ``cc`` or the build fails."""
    import subprocess  # only a cold cache compiles; a warm one skips it
    try:
        proc = subprocess.run(["cc", *CC_FLAGS, "-o", str(target),
                               str(SOURCE), "-lm"],
                              capture_output=True, text=True)
    except FileNotFoundError:
        raise KernelError("no C compiler (cc) on PATH") from None
    if proc.returncode != 0:
        first = (proc.stderr.strip().splitlines() or ["no message"])[0]
        raise KernelError(f"cc failed to build round.c (status "
                          f"{proc.returncode}): {first}")
    return target


def _library() -> ctypes.CDLL:
    """The library for the current source and flags: the cached one,
    compiled into the cache first if it is not there, or, where the
    cache cannot be written, compiled into a private directory that is
    removed once the library is loaded."""
    source = SOURCE.read_bytes()
    key = hashlib.sha256(source + " ".join(CC_FLAGS).encode()).hexdigest()
    target = _cache_dir() / f"round-{key[:16]}.so"
    if target.is_file():
        return _open(target)
    try:
        target.parent.mkdir(parents=True, exist_ok=True)
        fd, partial = tempfile.mkstemp(prefix=".round-", suffix=".so",
                                       dir=target.parent)
    except OSError:
        with tempfile.TemporaryDirectory(prefix="megt-") as private:
            return _open(_compile(Path(private) / target.name))
    os.close(fd)
    try:
        os.replace(_compile(Path(partial)), target)
    finally:
        if os.path.exists(partial):
            os.unlink(partial)
    return _open(target)


def _open(path: Path) -> ctypes.CDLL:
    """The library at ``path``, loaded, with its functions' signatures."""
    library = ctypes.CDLL(str(path))
    library.megt_draws.argtypes = (_PTR, _I64, _I64, _PTR, _PTR, _PTR,
                                   _I64, _PTR)
    library.megt_draws.restype = None
    library.megt_run.argtypes = (ctypes.POINTER(Engine), _PTR, _I64)
    library.megt_run.restype = _I64
    library.megt_nash.argtypes = (ctypes.POINTER(Engine),)
    library.megt_nash.restype = None
    library.megt_comm_entries.argtypes = (_I64, _I64, _PTR, _PTR, _PTR,
                                          _F64, _I64, _PTR, _PTR, _PTR,
                                          _I64, _I64)
    library.megt_comm_entries.restype = _I64
    return library


def _numpy_draws(rng: np.random.Generator, bound: int) -> list[np.ndarray]:
    """A round's draws as numpy makes them: bulk picks, neighbour and
    adoption uniforms, then scalar redraws."""
    return [rng.integers(0, bound, size=_CHECK_COUNT),
            rng.random(_CHECK_COUNT), rng.random(_CHECK_COUNT),
            np.array([rng.integers(bound) for _ in range(_CHECK_REDRAWS)])]


def _kernel_draws(library, rng: np.random.Generator,
                  bound: int) -> list[np.ndarray]:
    """The same draws made by ``megt_draws`` in ``round.c``."""
    out = [np.empty(_CHECK_COUNT, np.int64), np.empty(_CHECK_COUNT),
           np.empty(_CHECK_COUNT), np.empty(_CHECK_REDRAWS, np.int64)]
    with rng.bit_generator.lock:
        library.megt_draws(rng.bit_generator.ctypes.bit_generator, bound,
                           _CHECK_COUNT, out[0].ctypes.data,
                           out[1].ctypes.data, out[2].ctypes.data,
                           _CHECK_REDRAWS, out[3].ctypes.data)
    return out


def _draws_match(library) -> bool:
    """Whether the kernel's draws, and the bit generator state they
    leave, equal numpy's at every checked bound."""
    for seed, bound in enumerate(_CHECK_BOUNDS):
        ours = np.random.default_rng(seed)
        theirs = np.random.default_rng(seed)
        if not all(np.array_equal(a, b) for a, b in
                   zip(_kernel_draws(library, ours, bound),
                       _numpy_draws(theirs, bound))):
            return False
        if ours.bit_generator.state != theirs.bit_generator.state:
            return False
    return True


@functools.cache
def load() -> ctypes.CDLL:
    """The built, loaded and checked ``round.c``; raises KernelError
    naming the cause when there is no ``cc``, the build fails or the
    library cannot be loaded, or the draws differ from numpy's.

    A success is kept for the process.  ``library.megt_run`` takes a
    pointer to an ``Engine``, the address of numpy's ``bitgen_t``
    (``bit_generator.ctypes.bit_generator``) and a budget of rounds, and
    returns the rounds it made; ``library.megt_nash`` takes the
    ``Engine`` alone.
    """
    try:
        library = _library()
    except (OSError, AttributeError, RuntimeError) as exc:
        raise KernelError(f"cannot build or load round.c: {exc}") from None
    if not _draws_match(library):
        raise KernelError(f"the draw check failed: round.c's random draws "
                          f"differ from those of numpy {np.__version__}")
    return library
