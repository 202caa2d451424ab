"""The public surface names only what exists.

A function deleted from a module but left in its ``__all__`` or in the
package's re-exports fails here rather than in a user's ``import *``.
So does a re-export that only tests read: test oracles and helpers
belong in ``tests/oracles.py``.
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


def test_package_imports_only_existing_names():
    tree = ast.parse(Path(megt.__file__).read_text(encoding="utf-8"))
    imports = [node for node in tree.body
               if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert imports
    missing = []
    for node in imports:
        module = importlib.import_module(f"megt.{node.module}")
        missing += [f"{node.module}.{alias.name}" for alias in node.names
                    if not hasattr(module, alias.name)]
    assert missing == []


ROOT = Path(__file__).resolve().parents[1]
#: where a public name's readers live: the package, its demos and the
#: benchmark harness; tests do not count, so test-only API fails here
READERS = (sorted(Path(megt.__file__).resolve().parent.glob("*.py"))
           + sorted((ROOT / "demos").glob("*.py"))
           + sorted((ROOT / "megtbench").glob("*.py")))


def _referenced_names(tree) -> set[str]:
    """Names read as ``Name`` or ``Attribute`` nodes, except inside the
    ``def`` or ``class`` of the same name."""
    found: set[str] = set()

    def visit(node, inside: frozenset):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            inside = inside | {node.name}
        name = (node.id if isinstance(node, ast.Name)
                else node.attr if isinstance(node, ast.Attribute) else None)
        if name is not None and name not in inside:
            found.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(tree, frozenset())
    return found


def test_every_package_export_has_a_reader():
    tree = ast.parse(Path(megt.__file__).read_text(encoding="utf-8"))
    exported = [alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) and node.level == 1
                for alias in node.names]
    assert exported
    referenced = set().union(*(
        _referenced_names(ast.parse(path.read_text(encoding="utf-8")))
        for path in READERS))
    unread = sorted(set(exported) - referenced)
    assert unread == [], "re-exported names that only tests read"
