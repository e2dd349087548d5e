"""The trainer's and the generator's draws against numpy's own per-image calls.

``trainer._draw_subsets`` makes a whole step's bounded draws in one
``Generator.integers`` call and reproduces what ``Generator.choice(k, m,
replace=False)`` would pick, image by image; the synthetic generator makes
each image's two ``choice`` calls' draws the same way. Both go through
``trainer._choice_picks``. That depends on ``choice`` running Floyd's
algorithm and then a shuffle, or past a pool of 10,000 with more than
pool // 50 picks a shuffle of the pool's tail, one bounded draw per bound,
and on ``integers`` making one bounded draw per entry of its bounds, in
order. That the shuffles' draws are bounded, not masked, was checked on
numpy 2.4.6 only. If numpy changes either call, these tests fail loudly;
the benchmark's datasets, checked field by field against the per-image
generator, and its pinned training totals fail with them. The benchmark's
pinned CLI stdout digests are replayed here too, so a byte change in
``rank``, ``uasr``, ``loss`` or ``gradcheck`` shows in the regular suite.
"""

import importlib.util
import math
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loop_reference import differing_fields, generate_synthetic_loop
from rca import trainer
from rca.tags import subsample


def _load_workloads():
    """``perfbench/workloads.py``, read-only, for its training shapes and pins."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # for its dataclass
    with warnings.catch_warnings():  # keep the module's warning filter out of this process
        spec.loader.exec_module(module)
    return module


workloads = _load_workloads()

# PCG64 steps its 128-bit state by this LCG multiplier before each output.
PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


def _loop(rng, count, k, fraction):
    """The per-image stream: one ``subsample`` (two ``choice`` calls) per image."""
    rows = np.arange(k)
    return np.array([subsample(rows, rows, fraction, rng) for _ in range(count)],
                    dtype=np.int64).reshape(count, 2, math.ceil(fraction * k))


def _twin_generators(seed, pending, bit_generator=np.random.PCG64):
    """Two generators in one state; with ``pending`` one 32-bit word is drawn first.

    A bit generator that buffers 32-bit halves then holds one buffered.
    """
    pair = [np.random.Generator(bit_generator(seed)) for _ in range(2)]
    if pending:
        for rng in pair:
            rng.integers(0, 5, dtype=np.uint32)
            if "has_uint32" in rng.bit_generator.state:
                assert rng.bit_generator.state["has_uint32"] == 1
    return pair


def _generator_before(output, seed=0, ahead=0):
    """A PCG64 generator whose 64-bit output after ``ahead`` others is ``output``.

    The output of state S is (hi ^ lo) rotated right by hi's top 6 bits, so
    a state whose top 6 bits are 0 and whose low half is ``hi ^ output``
    emits ``output``; the ``ahead + 1`` LCG steps into it are inverted
    modulo 2^128.
    """
    rng = np.random.default_rng(seed)
    state = rng.bit_generator.state
    hi = 0x0123456789ABCDEF >> 6
    target = (hi << 64) | (hi ^ output)
    inc = state["state"]["inc"]
    for _ in range(ahead + 1):
        target = ((target - inc) * pow(PCG64_MULTIPLIER, -1, 1 << 128)) % (1 << 128)
    state["state"]["state"] = target
    rng.bit_generator.state = state
    return rng


@settings(max_examples=200, deadline=None, database=None)
@given(
    k=st.integers(1, 30),
    fraction=st.floats(0.0, 1.0, exclude_min=True),
    count=st.integers(0, 300),
    seed=st.integers(0, 2**32 - 1),
    pending=st.booleans(),
)
def test_draws_equal_the_per_image_choice_stream(k, fraction, count, seed, pending):
    bulk, loop = _twin_generators(seed, pending)
    got = trainer._draw_subsets(bulk, count, k, fraction)
    want = _loop(loop, count, k, fraction)
    assert got.shape == (count, 2, math.ceil(fraction * k))
    assert np.array_equal(got, want)
    assert bulk.bit_generator.state == loop.bit_generator.state
    # the stream carries on identically afterwards
    assert bulk.integers(2**62) == loop.integers(2**62)


@pytest.mark.parametrize("bit_generator", [
    np.random.PCG64, np.random.Philox, np.random.SFC64, np.random.MT19937])
@pytest.mark.parametrize("pending", [False, True])
def test_draws_equal_the_choice_stream_of_any_bit_generator(bit_generator, pending):
    bulk, loop = _twin_generators(7, pending, bit_generator)
    got = trainer._draw_subsets(bulk, 200, 4, 0.5)
    assert np.array_equal(got, _loop(loop, 200, 4, 0.5))
    # Philox and SFC64 states hold arrays, so compare what each draws next
    assert bulk.integers(2**62) == loop.integers(2**62)


@pytest.mark.parametrize("ahead, k, fraction", [
    # a zero low word makes Floyd's first draw on [0, 2] a Lemire rejection
    (0, 4, 0.5),
    # at k = m = 3 the third 32-bit word is the shuffle's draw on [0, 2]; a
    # draw on [0, 1] would take the zero word
    (1, 3, 1.0),
], ids=["floyd", "shuffle"])
def test_a_lemire_rejection_stays_on_the_one_call_path(ahead, k, fraction):
    bulk, loop = (_generator_before(0xDEADBEEF00000000, ahead=ahead) for _ in range(2))
    got = trainer._draw_subsets(bulk, 200, k, fraction)
    assert np.array_equal(got, _loop(loop, 200, k, fraction))
    # 400 calls read an even count of words; the redrawn word leaves a half buffered
    assert loop.bit_generator.state["has_uint32"] == 1
    assert bulk.bit_generator.state == loop.bit_generator.state


@pytest.mark.parametrize("k, fraction", [
    # m = 3: 400 shuffle draws on [0, 2], where a masked draw would reject
    # one word in four and a bounded one rejects almost none, pin that the
    # shuffle's draws are bounded
    (4, 0.75),
    # past a pool of 10,000 numpy's choice still runs Floyd's algorithm for m <= k // 50
    (10_001, 1e-4),
])
def test_bounded_shuffle_and_large_pool_equal_the_choice_stream(k, fraction):
    bulk, loop = np.random.default_rng(0), np.random.default_rng(0)
    got = trainer._draw_subsets(bulk, 200, k, fraction)
    assert np.array_equal(got, _loop(loop, 200, k, fraction))
    assert bulk.bit_generator.state == loop.bit_generator.state


def test_a_tail_shuffled_pool_equals_the_choice_stream():
    """Past 10,000 with m > k // 50, ``choice`` shuffles the pool's tail, and so do these rows."""
    k, fraction = 10_001, 0.5
    first, again, loop = (np.random.default_rng(0) for _ in range(3))
    got = trainer._draw_subsets(first, 2, k, fraction)
    assert got.shape == (2, 2, 5001)
    assert np.array_equal(got, trainer._draw_subsets(again, 2, k, fraction))
    assert (np.diff(got, axis=-1) > 0).all()  # sorted and distinct
    assert got.min() >= 0 and got.max() < k
    assert np.array_equal(got, _loop(loop, 2, k, fraction))
    assert first.bit_generator.state == loop.bit_generator.state


@pytest.mark.parametrize("pop, size", [
    (10_001, 200),  # the last Floyd size past a pool of 10,000
    (10_001, 201), (10_001, 5_001), (10_001, 10_001), (12_345, 300), (20_000, 10_000),
])
def test_choice_picks_equal_choice_in_both_regimes(pop, size):
    bulk, loop = np.random.default_rng(3), np.random.default_rng(3)
    bounds = trainer._choice_bounds(pop, size)
    draws = bulk.integers(0, bounds, size=(3, len(bounds)), endpoint=True)
    want = [loop.choice(pop, size, replace=False) for _ in range(3)]
    assert np.array_equal(trainer._choice_picks(draws, pop, size), want)
    assert bulk.bit_generator.state == loop.bit_generator.state


@pytest.mark.parametrize("name", workloads.TRAIN_SHAPES)
@pytest.mark.parametrize("seed", [0, 31, 63])
def test_benchmark_dataset_equals_the_per_image_generator(name, seed):
    """The benchmark's own datasets, field by field, against the per-image generator."""
    config = workloads.TrainWorkload(name, seed).synthetic
    assert differing_fields(trainer.generate_synthetic(config),
                            generate_synthetic_loop(config)) == []


@pytest.mark.parametrize("name", workloads.TRAIN_SHAPES)
@pytest.mark.parametrize("seed", [0, 31, 63])
def test_benchmark_training_matches_its_pin(name, seed):
    """A drift in the draw stream shows here, not only in the benchmark."""
    workload = workloads.TrainWorkload(name, seed)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        workload.setup()
        result = workload.run_unit()
    assert result.failures == []
    pin = workloads.load_pins()[name][str(seed)]
    assert workload.check_pinned(result.outputs, pin) == []


@pytest.mark.parametrize("seed", [0, 31, 63])
def test_benchmark_cli_corpus_matches_its_pin(seed, tmp_path):
    """The benchmark's CLI calls print the pinned stdout, and ``rank --out`` rewrites byte for byte."""
    workload = workloads.CliWorkload("cli-corpus", seed)
    workload.prepare(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        result = workload.run_unit()
    assert result.failures == []
    assert workload.check_files() == []
    pin = workloads.load_pins()["cli-corpus"][str(seed)]
    assert workload.check_pinned(result.outputs, pin) == []
