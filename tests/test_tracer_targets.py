"""The benchmark tracer's targets must exist in the library.

``perfbench/tracer.py`` wraps the functions named in its ``TARGETS`` list
when a benchmark runs with ``--trace 1``. A refactor that deletes or
renames one of them would only show up there, as a crash; this test
catches it in the regular suite instead.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TARGETS


@pytest.mark.parametrize("module, function", _targets())
def test_target_resolves_to_a_callable(module, function):
    assert module.split(".")[0] == "rca"
    assert callable(getattr(importlib.import_module(module), function, None))
