"""Every third-party module that ``rca`` imports is a declared runtime dependency.

The imports are read from src/rca/*.py with ``ast`` rather than by importing
the package, so an import that works only because the module happens to be
installed still fails here unless ``[project] dependencies`` in
pyproject.toml lists it.
"""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # Python 3.11+

ROOT = Path(__file__).resolve().parents[1]


def _top_level_imports(path: Path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from (alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]


def _declared() -> set[str]:
    with open(ROOT / "pyproject.toml", "rb") as fh:
        requirements = tomllib.load(fh)["project"]["dependencies"]
    return {re.match(r"[A-Za-z0-9._-]+", req).group().lower().replace("-", "_")
            for req in requirements}


def test_third_party_imports_are_declared_dependencies():
    imported = {name for path in sorted((ROOT / "src" / "rca").glob("*.py"))
                for name in _top_level_imports(path)}
    third_party = imported - set(sys.stdlib_module_names) - {"rca"}
    assert "numpy" in third_party  # the scan sees the imports at all
    assert third_party <= _declared(), f"undeclared: {sorted(third_party - _declared())}"
