import numpy as np
import pytest

from rca.core import ContrastiveInstance
from rca.errors import ConfigError, InvalidWeightError
from rca.gradients import (
    central_difference,
    finite_diff_grad,
    gradient_check,
    loss_and_grad,
    relative_error,
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
        doubled = UasrResult(
            weights=2.0 * sel.weights,
            retrieved_set=sel.retrieved_set,
            positive_indices=sel.positive_indices,
            negative_indices=sel.negative_indices,
            positive_fallback=sel.positive_fallback,
            negative_fallback=sel.negative_fallback,
        )
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
        assert relative_error(np.array([a]), np.array([f])) == rep.worst_error

    def test_ties_go_to_the_later_table(self):
        # zero lambdas: every error is 0, so the last non-empty table wins
        rng = np.random.default_rng(10)
        rep = gradient_check(rand_instance(rng), lambda_cross=0.0, lambda_inner=0.0)
        assert (rep.worst_table, rep.worst_index, rep.worst_error) == ("caption_nouns", [0, 0], 0.0)
        rep = gradient_check(rand_instance(rng, p=0), lambda_cross=0.0, lambda_inner=0.0)
        assert (rep.worst_table, rep.worst_index, rep.worst_error) == ("negatives", [0, 0], 0.0)


class TestNumericOracle:
    def test_central_difference_on_quadratic(self):
        x = np.array([[1.0, -2.0], [0.5, 3.0]])
        grad = central_difference(lambda: float((x**2).sum()), x, h=1e-5)
        assert np.allclose(grad, 2.0 * x, atol=1e-9)

    def test_restores_input(self):
        x = np.array([1.0, 2.0, 3.0])
        before = x.copy()
        central_difference(lambda: float(x.sum()), x.reshape(1, 3), h=1e-4)
        assert np.array_equal(x, before)

    def test_step_size_bounds(self):
        inst = rand_instance(np.random.default_rng(8))
        for h in (1e-8, 1e-2, 0.0):
            with pytest.raises(ConfigError):
                finite_diff_grad(inst, h=h)

    def test_relative_error_metric(self):
        a = np.array([[1.0, 0.0]])
        b = np.array([[1.0 + 1e-5, 0.0]])
        assert relative_error(a, b) == pytest.approx(1e-5 / (1 + 1e-5), rel=1e-6)
        assert relative_error(np.zeros((0, 3)), np.zeros((0, 3))) == 0.0
        # the 1e-6 floor keeps near-zero entries from exploding the ratio
        tiny = relative_error(np.array([[0.0]]), np.array([[1e-9]]))
        assert tiny == pytest.approx(1e-3)


class TestBundle:
    def test_as_dict_keys(self):
        g = GradientBundle(
            d_regions=np.zeros((1, 2)),
            d_positives=np.zeros((1, 2)),
            d_negatives=np.zeros((1, 2)),
            d_caption_nouns=np.zeros((0, 2)),
        )
        assert set(g.as_dict()) == {"regions", "positives", "negatives", "caption_nouns"}
