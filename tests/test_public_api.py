"""The public surface names only what exists.

A function deleted from a module but left in its ``__all__`` or in the
package's re-exports fails here rather than in a user's ``import *``.
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
