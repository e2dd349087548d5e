"""Every exported name resolves, and every private name is used.

Each ``rca`` module's ``__all__`` and each name ``rca/__init__.py`` imports
must name something that exists, so deleting a function without its
export fails here by name; a private module-level name must be read
somewhere in the package, so a helper left behind fails too, and no
module imports another module's private name. Modules are
found without importing the package, so a broken package import fails
these tests rather than their collection.
"""

import ast
import collections
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


def _private_names(statement) -> set[str]:
    """The private, non-dunder module-level names a top-level statement defines."""
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = {statement.name}
    elif isinstance(statement, (ast.Assign, ast.AnnAssign)):
        targets = statement.targets if isinstance(statement, ast.Assign) else [statement.target]
        names = {node.id for target in targets for node in ast.walk(target)
                 if isinstance(node, ast.Name)}
    else:
        names = set()
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


def _used_names(statement) -> set[str]:
    """The names a statement reads, as a name, an attribute or an import."""
    used = set()
    for node in ast.walk(statement):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
    return used


def test_every_private_name_is_used():
    """A private module-level name in ``rca`` is read by some other top-level statement.

    Its own definition does not count, so a helper left behind by a
    refactor, or one only calling itself, fails here by name.
    """
    statements = [statement for path in sorted(Path(SPEC.origin).parent.glob("*.py"))
                  for statement in ast.parse(path.read_text(encoding="utf-8")).body]
    used = [_used_names(statement) for statement in statements]
    readers = collections.Counter(name for names in used for name in names)
    unused = [name for statement, names in zip(statements, used)
              for name in sorted(_private_names(statement)) if readers[name] == (name in names)]
    assert unused == []


# core's column folds are shared by the kernels in losses and uasr
SHARED_PRIVATE = {("core", "_fold_sum"), ("core", "_max_last"), ("core", "_sum_last")}


def test_no_module_imports_another_modules_private_name():
    """An ``rca`` module imports from another only names without a leading underscore.

    A helper that another module needs is part of its module's surface, so
    it loses its underscore; the core column folds are the one exception.
    """
    imported = []
    for path in sorted(Path(SPEC.origin).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                imported += [(node.module, alias.name, path.stem) for alias in node.names
                             if alias.name.startswith("_")]
    assert {(module, name) for module, name, _ in imported} <= SHARED_PRIVATE, imported
