"""Every exported name resolves.

Each ``rca`` module's ``__all__`` and each name ``rca/__init__.py`` imports
must name something that exists, so deleting a function without its
export fails here by name. Modules are found without importing the
package, so a broken package import fails these tests rather than their
collection.
"""

import ast
import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

SPEC = importlib.util.find_spec("rca")
MODULES = sorted(info.name for info in pkgutil.iter_modules(SPEC.submodule_search_locations))


def test_modules_are_found():
    assert {"core", "gradients", "losses", "trainer"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"rca.{name}")
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), "duplicate __all__ entry"
    assert [n for n in exported if not hasattr(module, n)] == []


def test_package_imports_resolve():
    tree = ast.parse(Path(SPEC.origin).read_text(encoding="utf-8"))
    imports = [(node.module, alias.name) for node in tree.body
               if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert imports
    rca = importlib.import_module("rca")
    for module, name in imports:
        assert hasattr(importlib.import_module(f"rca.{module}"), name), (module, name)
        assert hasattr(rca, name), name
