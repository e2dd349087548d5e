import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from loop_reference import finite_diff_grad_loop
from rca import gradients, losses
from rca.core import ContrastiveInstance
from rca.errors import ConfigError, InvalidWeightError
from rca.gradients import (
    _elementwise_error,
    finite_diff_grad,
    gradient_check,
    loss_and_grad,
)
from rca.losses import GradientBundle, total_loss
from rca.uasr import UasrResult, apply_uasr


def rand_instance(rng, r=3, k=4, p=2, d=8):
    return ContrastiveInstance(
        regions=rng.standard_normal((r, d)),
        positives=rng.standard_normal((k, d)),
        negatives=rng.standard_normal((k, d)),
        caption_nouns=rng.standard_normal((p, d)) if p else [],
        global_scores=np.sort(rng.uniform(0.05, 1.0, k))[::-1],
    )


class TestLossParity:
    def test_breakdown_identical_to_loss_module(self):
        rng = np.random.default_rng(0)
        for _ in range(15):
            inst = rand_instance(rng)
            for sel in (None, apply_uasr(inst)):
                for lc, li in ((1.0, 1.0), (2.0, 0.0), (0.0, 0.7)):
                    a = total_loss(inst, sel, lc, li)
                    b, _ = loss_and_grad(inst, sel, lc, li)
                    assert a.cross == b.cross
                    assert a.inner == b.inner
                    assert a.total == b.total

    def test_negative_lambda_rejected(self):
        inst = rand_instance(np.random.default_rng(1))
        with pytest.raises(InvalidWeightError):
            loss_and_grad(inst, lambda_inner=-0.1)
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(InvalidWeightError):
                loss_and_grad(inst, lambda_cross=bad)
            with pytest.raises(InvalidWeightError):
                gradient_check(inst, lambda_inner=bad)


class TestAgainstFiniteDifferences:
    def test_plain_instance(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            inst = rand_instance(rng)
            rep = gradient_check(inst)
            assert rep.passed, rep.errors

    def test_with_selection_and_oversampling(self):
        rng = np.random.default_rng(3)
        hit_oversample = False
        for _ in range(10):
            inst = rand_instance(rng, r=2, k=5)
            sel = apply_uasr(inst)
            counts = np.bincount(sel.positive_indices)
            hit_oversample |= counts.max() > 1
            rep = gradient_check(inst, sel)
            assert rep.passed, rep.errors
        assert hit_oversample, "no duplicated row exercised the scatter-add"

    def test_single_everything(self):
        rng = np.random.default_rng(4)
        inst = rand_instance(rng, r=1, k=1, p=1, d=2)
        assert gradient_check(inst).passed

    def test_no_captions(self):
        rng = np.random.default_rng(5)
        inst = rand_instance(rng, p=0)
        _, g = loss_and_grad(inst)
        assert g.d_caption_nouns.shape == (0, 8)
        assert gradient_check(inst).passed

    def test_lambda_scaling_of_gradients(self):
        rng = np.random.default_rng(6)
        inst = rand_instance(rng)
        _, g1 = loss_and_grad(inst, lambda_cross=1.0, lambda_inner=0.0)
        _, g3 = loss_and_grad(inst, lambda_cross=3.0, lambda_inner=0.0)
        assert np.allclose(3.0 * g1.d_regions, g3.d_regions, rtol=1e-12)
        assert np.allclose(3.0 * g1.d_positives, g3.d_positives, rtol=1e-12)

    def test_frozen_weights_are_constants(self):
        # weights enter linearly: scaling q by c scales the loss terms by c
        rng = np.random.default_rng(7)
        inst = rand_instance(rng)
        sel = apply_uasr(inst)
        doubled = dataclasses.replace(sel, weights=2.0 * sel.weights)
        assert gradient_check(inst, doubled).passed


class TestWorstEntry:
    def test_worst_entry_is_the_largest_elementwise_error(self):
        rng = np.random.default_rng(9)
        inst = rand_instance(rng)
        sel = apply_uasr(inst)
        rep = gradient_check(inst, sel)
        assert rep.worst_error == rep.max_error == rep.errors[rep.worst_table]
        _, analytic = loss_and_grad(inst, sel)
        numeric = finite_diff_grad(inst, sel)
        a = analytic.as_dict()[rep.worst_table][tuple(rep.worst_index)]
        f = numeric.as_dict()[rep.worst_table][tuple(rep.worst_index)]
        assert float(_elementwise_error(np.array([a]), np.array([f]))[0]) == rep.worst_error

    def test_ties_go_to_the_later_table(self):
        # zero lambdas: every error is 0, so the last non-empty table wins
        rng = np.random.default_rng(10)
        rep = gradient_check(rand_instance(rng), lambda_cross=0.0, lambda_inner=0.0)
        assert (rep.worst_table, rep.worst_index, rep.worst_error) == ("caption_nouns", [0, 0], 0.0)
        rep = gradient_check(rand_instance(rng, p=0), lambda_cross=0.0, lambda_inner=0.0)
        assert (rep.worst_table, rep.worst_index, rep.worst_error) == ("negatives", [0, 0], 0.0)


def drawn_selection(rng, k):
    """A selection over K rows whose last positive repeats the first (oversampled when K > 1)."""
    positive_indices = rng.integers(0, k, k)
    positive_indices[-1] = positive_indices[0]
    return UasrResult(
        positive_indices=positive_indices,
        negative_indices=rng.integers(0, k, k),
        weights=rng.uniform(0.1, 2.0, k),
        retrieved=np.zeros(2 * k, dtype=bool),
    )


@settings(max_examples=50, deadline=None, database=None)
@given(
    d=st.integers(1, 16),
    r=st.integers(1, 8),
    k=st.integers(1, 25),
    p=st.integers(0, 4),
    selected=st.booleans(),
    lambdas=st.sampled_from([(1.0, 1.0), (2.0, 0.0), (0.0, 0.7), (0.0, 0.0)]),
    h=st.sampled_from([1e-7, 1e-5, 1e-3]),
    seed=st.integers(0, 2**32 - 1),
)
# regions 8 x 16: 256 copies, four full blocks; tags 25 x 16: 800 copies, 12.5 blocks
@example(d=16, r=8, k=25, p=3, selected=True, lambdas=(1.0, 1.0), h=1e-4, seed=0)
# one term at a time: a nudge of the other term's context moves nothing
@example(d=16, r=8, k=25, p=3, selected=True, lambdas=(2.0, 0.0), h=1e-4, seed=3)
@example(d=16, r=8, k=25, p=3, selected=False, lambdas=(0.0, 0.7), h=1e-4, seed=4)
# tags 4 x 8: 64 copies, exactly one block
@example(d=8, r=3, k=4, p=2, selected=True, lambdas=(1.0, 1.0), h=1e-5, seed=1)
@example(d=8, r=3, k=4, p=0, selected=False, lambdas=(1.0, 1.0), h=1e-3, seed=2)
def test_oracle_equals_the_per_entry_loop_bitwise(d, r, k, p, selected, lambdas, h, seed):
    rng = np.random.default_rng(seed)
    inst = rand_instance(rng, r=r, k=k, p=p, d=d)
    sel = drawn_selection(rng, k) if selected else None
    got = finite_diff_grad(inst, sel, *lambdas, h=h).as_dict()
    want = finite_diff_grad_loop(inst, sel, *lambdas, h=h).as_dict()
    for name in want:
        assert got[name].shape == want[name].shape
        assert np.array_equal(got[name], want[name]), name


class TestNumericOracle:
    def test_leaves_the_instance_unchanged(self):
        inst = rand_instance(np.random.default_rng(12), r=4, k=6, p=2, d=8)
        arrays = dict(vars(inst))
        before = {name: a.tobytes() for name, a in arrays.items()}
        finite_diff_grad(inst, apply_uasr(inst), h=1e-3)
        assert all(getattr(inst, name) is a for name, a in arrays.items())
        assert {name: a.tobytes() for name, a in arrays.items()} == before

    def test_copies_run_in_blocks_of_64(self, monkeypatch):
        # the instance once, then tag, caption and region tables of 64, 0 and 40 entries:
        # 128, no and 80 copies
        sizes = []
        corpus_losses = gradients.corpus_losses

        def record(corpus, tables, images, *args, **kwargs):
            sizes.append(len(images))
            return corpus_losses(corpus, tables, images, *args, **kwargs)

        monkeypatch.setattr(gradients, "corpus_losses", record)
        finite_diff_grad(rand_instance(np.random.default_rng(13), r=5, k=4, p=0, d=8))
        assert sizes == [1, 64, 64, 64, 16]

    def test_a_nudge_runs_only_the_terms_it_can_move(self, monkeypatch):
        # 3 regions and 2 caption nouns: each context pass records how many contexts
        # it scored, so 3 marks a cross pass and 2 an inner one
        passes = []
        pair_block = losses._pair_block

        def record(contexts, *args):
            passes.append(contexts.shape[-2])
            return pair_block(contexts, *args)

        monkeypatch.setattr(losses, "_pair_block", record)
        inst = rand_instance(np.random.default_rng(15), r=3, k=4, p=2, d=8)
        sizes = []
        corpus_losses = gradients.corpus_losses

        def blocks(corpus, tables, images, *args, **kwargs):
            sizes.append((len(images), len(passes)))
            return corpus_losses(corpus, tables, images, *args, **kwargs)

        monkeypatch.setattr(gradients, "corpus_losses", blocks)
        finite_diff_grad(inst)
        starts = [start for _, start in sizes] + [len(passes)]
        per_call = [passes[a:b] for a, b in zip(starts, starts[1:])]
        # the instance, 128 tag copies, 32 caption copies, 48 region copies
        assert [size for size, _ in sizes] == [1, 64, 64, 32, 48]
        assert per_call == [[3, 2], [3, 2], [3, 2], [2], [3]]

    @pytest.mark.parametrize("selected", [False, True])
    def test_selection_is_checked_once_per_call(self, selected, monkeypatch):
        # the oracle runs 7 blocks of nudged copies and checks the selection once
        checks = []
        check_selection = losses.check_selection

        def record(uasr, k):
            checks.append(k)
            return check_selection(uasr, k)

        monkeypatch.setattr(losses, "check_selection", record)
        inst = rand_instance(np.random.default_rng(14), r=4, k=2, p=6, d=16)
        sel = apply_uasr(inst) if selected else None
        gradient_check(inst, sel)
        total_loss(inst, sel)
        assert checks == ([2, 2, 2] if selected else [])
    def test_step_size_bounds(self):
        inst = rand_instance(np.random.default_rng(8))
        for h in (1e-8, 1e-2, 0.0):
            with pytest.raises(ConfigError):
                finite_diff_grad(inst, h=h)

    def test_relative_error_metric(self):
        a = np.array([[1.0, 0.0]])
        b = np.array([[1.0 + 1e-5, 0.0]])
        assert _elementwise_error(a, b).max() == pytest.approx(1e-5 / (1 + 1e-5), rel=1e-6)
        # an empty table (no caption nouns) reports error 0
        rep = gradient_check(rand_instance(np.random.default_rng(11), p=0))
        assert rep.errors["caption_nouns"] == 0.0
        # the 1e-6 floor keeps near-zero entries from exploding the ratio
        tiny = _elementwise_error(np.array([[0.0]]), np.array([[1e-9]]))
        assert tiny.max() == pytest.approx(1e-3)


class TestBundle:
    def test_as_dict_keys(self):
        g = GradientBundle(
            d_regions=np.zeros((1, 2)),
            d_positives=np.zeros((1, 2)),
            d_negatives=np.zeros((1, 2)),
            d_caption_nouns=np.zeros((0, 2)),
        )
        assert set(g.as_dict()) == {"regions", "positives", "negatives", "caption_nouns"}
