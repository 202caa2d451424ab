"""Shared helpers for the tests that run megt in a child process, for
the tests that take the compiled kernel away, and for the property tests
that draw small random multiplexes.

A child ``python -m megt.cli`` must run the same ``megt`` that this pytest
process imported, whatever its working directory and whether ``PYTHONPATH``
was given as a relative path (``PYTHONPATH=src``) or megt is installed.
"""
from __future__ import annotations

import os
import tempfile
from pathlib import Path

import numpy as np
import pytest

import megt
import megt.kernel

from oracles import multiplex_from_arrays

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


def random_multiplex(draw_seed, n, layers, edge_probability, sigma,
                     edgeless_layer):
    """A small multiplex with sparse random layers (so some slots are
    isolated), layer 0 optionally edgeless, and at least one edge."""
    rng = np.random.default_rng(draw_seed)
    adjacency = []
    for alpha in range(layers):
        upper = np.triu(rng.random((n, n)) < edge_probability, 1)
        if alpha == 0 and edgeless_layer:
            upper[:] = False
        adjacency.append((upper | upper.T).astype(np.int8))
    if not any(a.any() for a in adjacency):
        adjacency[-1][0, 1] = adjacency[-1][1, 0] = 1
    delta = np.triu(np.abs(rng.normal(0.0, sigma, (n, n))), 1)
    return multiplex_from_arrays(adjacency, delta + delta.T)


def dense_weights(network) -> list[np.ndarray]:
    """Each layer's N x N link-weight matrix, zero off its edges,
    scattered from the network's edge arrays."""
    n, m = network.node_count, network.layer_count
    dense = np.zeros((m, n, n))
    dense.reshape(m * n, n)[network.edge_owner(),
                            network.neighbour_slot % n] = network.edge_weight
    return list(dense)


def assert_edge_csr(network) -> None:
    """The network's edges are a CSR over the flat slots alpha * N + i:
    int64/float64 C-contiguous arrays, each row's neighbours ascending
    on the row's own layer with no self-loop, and every edge stored in
    both directions with the same weight."""
    n, m = network.node_count, network.layer_count
    ptr, slot, weight = (network.neighbour_ptr, network.neighbour_slot,
                         network.edge_weight)
    for array, dtype in ((ptr, np.int64), (slot, np.int64),
                         (weight, np.float64), (network.delta, np.float64)):
        assert array.dtype == dtype and array.flags.c_contiguous
    assert ptr.shape == (n * m + 1,) and ptr[0] == 0
    assert ptr[-1] == slot.size == weight.size
    assert np.all(np.diff(ptr) >= 0)
    owner = network.edge_owner()
    assert np.all(owner // n == slot // n) and not np.any(owner == slot)
    key = owner * n + slot % n
    assert np.all(np.diff(key) > 0)  # ascending within each row
    mirror = slot * n + owner % n
    order = np.argsort(mirror)
    assert np.array_equal(mirror[order], key)
    assert weight[order].tobytes() == weight.tobytes()


def reset_kernel() -> None:
    """Forget the kernel loader's per-process outcome, so that the next
    ``megt.kernel.load`` builds and checks afresh."""
    megt.kernel.load.cache_clear()


@pytest.fixture
def without_cc(tmp_path, monkeypatch):
    """No ``cc`` on PATH and an empty kernel cache, so that the kernel
    loader really fails; its per-process outcome is reset around the
    test."""
    empty = tmp_path / "no-compiler"
    empty.mkdir()
    monkeypatch.setenv("PATH", str(empty))
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    reset_kernel()
    yield
    reset_kernel()


@pytest.fixture
def unwritable_cache(tmp_path, monkeypatch):
    """A kernel cache path that is a file, so that the loader must build
    in a private temporary directory under the returned one; its
    per-process outcome is reset around the test."""
    blocker = tmp_path / "not-a-directory"
    blocker.write_text("")
    private = tmp_path / "tmp"
    private.mkdir()
    monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
    monkeypatch.setattr(tempfile, "tempdir", str(private))
    reset_kernel()
    yield private
    reset_kernel()
