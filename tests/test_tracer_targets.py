"""The benchmark tracer's targets and counter hooks must fit the library.

``perfbench/tracer.py`` wraps the functions named in its ``TARGETS`` list
when a benchmark runs with ``--trace 1``, and its ``_after_apply_uasr``
hook reads the selection counters off each :func:`rca.uasr.apply_uasr`
result. A refactor that deletes or renames a target, or changes what a
selection result holds, would only show up there, as a crash or a wrong
count; these tests catch it in the regular suite instead.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from rca.core import ContrastiveInstance
from rca.uasr import apply_uasr

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


tracer = _tracer()


@pytest.mark.parametrize("module, function", tracer.TARGETS)
def test_target_resolves_to_a_callable(module, function):
    assert module.split(".")[0] == "rca"
    assert callable(getattr(importlib.import_module(module), function, None))


# each region votes for the pool slot it equals (K = 2: slots 0, 1 positives, 2, 3 negatives)
POOL = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0],
                 [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]])


@pytest.mark.parametrize("voted", [[0, 2], [2], [0, 2, 3], [1]],
                         ids=["drops-one", "positive-fallback", "negative-fallback", "plain"])
def test_selection_counters_read_the_retrieved_mask(voted):
    instance = ContrastiveInstance(
        regions=POOL[voted], positives=POOL[:2], negatives=POOL[2:],
        caption_nouns=[], global_scores=np.array([0.9, 0.5]),
    )
    result = apply_uasr(instance)
    t = tracer.Tracer()
    t._after_apply_uasr((instance,), {}, result)
    k = 2
    assert t.counts["uasr.apply_uasr.neg_dropped"] == int(result.retrieved[k:].sum())
    assert t.counts["uasr.apply_uasr.pos_fallbacks"] == int(result.positive_fallback)
    assert t.counts["uasr.apply_uasr.neg_fallbacks"] == int(result.negative_fallback)
    assert t.counts["uasr.apply_uasr.neg_dropped"] == sum(v >= k for v in voted)
    assert (bool(result.positive_fallback), bool(result.negative_fallback)) == (
        voted == [2], voted == [0, 2, 3])
