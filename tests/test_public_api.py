"""The public surface names only what exists.

A function deleted from a module but left in its ``__all__`` fails here
rather than in a user's ``import *``.  So does a public name that only
tests read: test oracles and helpers belong in ``tests/oracles.py``.
"""
import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import megt

MODULES = sorted(f"megt.{info.name}"
                 for info in pkgutil.iter_modules(megt.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_exists(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ())
               if not hasattr(module, attr)]
    assert missing == [], f"{name}.__all__ names missing attributes"


ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path(megt.__file__).resolve().parent
#: where a public name's readers live: the package's modules, its demos
#: and the benchmark harness; tests do not count, so test-only API fails
#: here, and neither does a re-export in ``__init__``, which reads nothing
READERS = (sorted(set(PACKAGE.glob("*.py")) - {PACKAGE / "__init__.py"})
           + sorted((ROOT / "demos").glob("*.py"))
           + sorted((ROOT / "megtbench").glob("*.py")))


def _own_loads(tree) -> set[str]:
    """Names a module loads outside the ``def`` or ``class`` of the same
    name."""
    found: set[str] = set()

    def visit(node, inside: frozenset):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            inside = inside | {node.name}
        if (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                and node.id not in inside):
            found.add(node.id)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(tree, frozenset())
    return found


def _hooked_names(tree) -> set[str]:
    """The megt attributes that the benchmark's ``HOOKS`` wrap."""
    hooks = next(node.value for node in tree.body
                 if isinstance(node, ast.Assign)
                 and [target.id for target in node.targets] == ["HOOKS"])
    return {target.split(".")[0]
            for _, _, target in ast.literal_eval(hooks)}


def test_every_public_name_has_a_reader():
    # a name is read where it is imported or read as an attribute, where
    # its own module loads it outside its own def, or where a benchmark
    # hook wraps it
    read: set[str] = set()
    own: dict[str, set[str]] = {}
    for path in READERS:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
        if path.parent == PACKAGE:
            own[f"megt.{path.stem}"] = _own_loads(tree)
        if path == ROOT / "megtbench" / "tracing.py":
            read |= _hooked_names(tree)
    unread = [f"{name}.{attr}" for name in MODULES
              for attr in getattr(importlib.import_module(name), "__all__",
                                  ())
              if attr not in read and attr not in own[name]]
    assert unread == [], "public names that only tests read"


def test_the_package_imports_nothing():
    # its namespace is its docstring and __version__; a re-export would
    # be a second public name for one object
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    assert not any(isinstance(node, (ast.Import, ast.ImportFrom))
                   for node in ast.walk(tree))


def test_only_netgen_reads_the_dense_distances():
    # the N x N distances are built, saved and loaded by netgen; every
    # other module reads each edge's distance from ``edge_delta``
    readers = [path.name for path in sorted(PACKAGE.glob("*.py"))
               if path.name != "netgen.py"
               and any(isinstance(node, ast.Attribute)
                       and node.attr == "delta"
                       for node in ast.walk(ast.parse(
                           path.read_text(encoding="utf-8"))))]
    assert readers == []


def test_no_module_starts_a_process_pool():
    # runs share the CPUs on threads; a pool would be a second parallel
    # path for the same runs
    def imported(tree):
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                yield from (alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module:
                yield node.module

    importers = [path.name for path in sorted(PACKAGE.glob("*.py"))
                 if any(name.split(".")[0] in ("concurrent",
                                               "multiprocessing")
                        for name in imported(ast.parse(
                            path.read_text(encoding="utf-8"))))]
    assert importers == []
