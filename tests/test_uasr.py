import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from rca.core import ContrastiveInstance
from rca.errors import DegenerateEmbeddingError, ValidationError
from rca.gradients import finite_diff_grad, gradient_check, loss_and_grad
from rca.losses import batch_loss, total_loss
from rca.uasr import UasrResult, apply_uasr, pool_cosines, select_batch

from naive_reference import naive_select_reweight


def rand_instance(rng, r=3, k=4, p=2, d=8):
    return ContrastiveInstance(
        regions=rng.standard_normal((r, d)),
        positives=rng.standard_normal((k, d)),
        negatives=rng.standard_normal((k, d)),
        caption_nouns=rng.standard_normal((p, d)) if p else [],
        global_scores=np.sort(rng.uniform(0.05, 1.0, k))[::-1],
    )


def instance_of(regions, positives, negatives, scores=None):
    positives = np.asarray(positives, dtype=np.float64)
    if scores is None:
        scores = np.linspace(0.9, 0.5, positives.shape[0])
    return ContrastiveInstance(regions=regions, positives=positives, negatives=negatives,
                               caption_nouns=[], global_scores=scores)


def select_voted(k, voted):
    """Selection for one image whose regions each vote for one pool slot in ``voted``."""
    cosines = np.zeros((1, len(voted), 2 * k))
    cosines[0, np.arange(len(voted)), voted] = 1.0
    sel = select_batch(cosines, np.full((1, k), 0.5))
    return (sel.positive_indices[0].tolist(), (sel.negative_indices[0] + k).tolist(),
            bool(sel.positive_fallback[0]), bool(sel.negative_fallback[0]))


# cosines and scores from a coarse grid tie and clamp often; the rest fall anywhere
COSINES = st.one_of(st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0]), st.floats(-1.0, 1.0))
SCORES = st.one_of(st.sampled_from([-0.25, 0.0, 1e-7, 0.5]), st.floats(-1.0, 1.0))


@st.composite
def selection_stacks(draw):
    """A (B, R, 2K) cosine stack and its (B, K) global scores."""
    b, r, k = draw(st.integers(1, 6)), draw(st.integers(1, 5)), draw(st.integers(1, 4))
    return (draw(hnp.arrays(np.float64, (b, r, 2 * k), elements=COSINES)),
            draw(hnp.arrays(np.float64, (b, k), elements=SCORES)))


# image 0 votes both negatives, so both sides fall back; image 1's regions tie
# and its scores clamp; image 2 is plain
EVERY_CASE = (
    np.array([[[0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]],
              [[0.5, 0.5, 0.5, 0.5], [1.0, 0.0, 0.0, 1.0]],
              [[0.1, 0.9, -0.2, 0.3], [0.4, 0.2, 0.8, -1.0]]]),
    np.array([[0.9, 0.5], [0.0, -0.3], [0.7, 0.2]]),
)


class TestLocalUncertainty:
    """Region-by-pool cosines."""

    def test_cosine_values(self):
        cos = pool_cosines(np.array([[1.0, 0.0]]), np.array([[2.0, 0.0], [0.0, 3.0]]),
                           np.array([[-5.0, 0.0], [1.0, 1.0]]))
        assert cos.shape == (1, 4)
        assert cos[0, :3] == pytest.approx([1.0, 0.0, -1.0])

    def test_zero_norm_rejected(self):
        with pytest.raises(DegenerateEmbeddingError):
            pool_cosines(np.array([[0.0, 0.0]]), np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]]))
        inst = instance_of([[0.0, 0.0]], [[1.0, 0.0]], [[0.0, 1.0]])
        with pytest.raises(DegenerateEmbeddingError):
            apply_uasr(inst)

    def test_overflowing_norm_rejected(self):
        big, unit = np.array([[1e200, 0.0]]), np.array([[1.0, 0.0]])
        for regions, positives, row in ((big, unit, "region 0"), (unit, big, "positive 0")):
            with pytest.raises(DegenerateEmbeddingError,
                               match=f"^{row} has an overflowing norm$"):
                pool_cosines(regions, positives, np.array([[0.0, 1.0]]))

    def test_first_bad_row_is_named_regions_then_positives_then_negatives(self):
        regions = np.array([[1.0, 0.0], [0.0, 1.0]])
        positives = np.array([[1.0, 0.0], [0.0, 1.0]])
        negatives = np.array([[1.0, 1.0], [0.0, 0.0]])

        def error():
            with pytest.raises(DegenerateEmbeddingError) as info:
                pool_cosines(regions, positives, negatives, image="img-a")
            return str(info.value)

        assert error() == "image 'img-a': negative 1 has zero norm"
        positives[1, 0] = 1e200  # an earlier overflow wins over a later zero
        assert error() == "image 'img-a': positive 1 has an overflowing norm"
        regions[1] = 0.0
        assert error() == "image 'img-a': region 1 has zero norm"
        # in a batch, every image's regions come before any pool row
        batch = np.stack([np.ones((2, 2)), np.array([[1.0, 1.0], [1e200, 0.0]])])
        pool = np.stack([np.eye(2), np.array([[0.0, 0.0], [1.0, 0.0]])])
        with pytest.raises(DegenerateEmbeddingError, match="^region 1 has an overflowing norm$"):
            pool_cosines(batch, pool, pool)


class TestRetrieve:
    """Each region votes for its highest-cosine pool slot."""

    def test_each_region_votes_once(self):
        regions = np.array([[1.0, 0.0], [0.0, 1.0]])
        inst = instance_of(regions, [[2.0, 0.1], [0.1, 2.0]], [[-1.0, -1.0], [-1.0, -0.9]])
        assert apply_uasr(inst).retrieved_set.tolist() == [0, 1]

    def test_duplicate_votes_collapse(self):
        regions = np.array([[1.0, 0.0], [0.9, 0.1]])
        inst = instance_of(regions, [[1.0, 0.05]], [[-1.0, 0.0]])
        assert apply_uasr(inst).retrieved_set.tolist() == [0]

    def test_tie_goes_to_lowest_index(self):
        regions = np.array([[1.0, 0.0]])
        inst = instance_of(regions, [[2.0, 0.0]], [[3.0, 0.0]])  # equal cosines
        assert apply_uasr(inst).retrieved_set.tolist() == [0]
        tied = np.full((1, 1, 4), 0.5)
        assert select_batch(tied, np.full((1, 2), 0.5)).retrieved[0].tolist() == [
            True, False, False, False]


class TestSelect:
    """Filtering against the voted slots and cyclic oversampling back to K."""

    def test_plain_filtering(self):
        pos, neg, pf, nf = select_voted(3, [0, 2, 4])
        assert pos == [0, 2, 0] and neg == [3, 5, 3]
        assert not pf and not nf

    def test_positive_fallback_keeps_originals(self):
        pos, neg, pf, nf = select_voted(2, [2])
        assert pos == [0, 1] and pf
        assert neg == [3, 3] and not nf

    def test_negative_fallback_keeps_last(self):
        pos, neg, pf, nf = select_voted(2, [0, 2, 3])
        assert neg == [3, 3] and nf
        assert pos == [0, 0] and not pf

    def test_cyclic_oversampling_order(self):
        pos, _, _, _ = select_voted(5, [1, 3])
        assert pos == [1, 3, 1, 3, 1]

    def test_every_case_stack_covers_fallbacks_ties_and_clamps(self):
        sel = select_batch(*EVERY_CASE)
        assert sel.positive_fallback.tolist() == [True, False, False]
        assert sel.negative_fallback.tolist() == [True, False, False]
        assert sel.retrieved[1].tolist() == [True, False, False, False]  # ties go low
        assert sel.clamped.tolist() == [0, 2, 0]

    @settings(max_examples=200, deadline=None)
    @given(stack=selection_stacks(), normalize=st.booleans())
    @example(stack=EVERY_CASE, normalize=True)
    @example(stack=EVERY_CASE, normalize=False)
    def test_each_image_selects_alone_bit_for_bit(self, stack, normalize):
        cosines, scores = stack
        together = select_batch(cosines, scores, normalize)
        for i in range(len(cosines)):
            alone = select_batch(cosines[[i]], scores[[i]], normalize)
            for f in dataclasses.fields(UasrResult):
                got, want = getattr(together, f.name)[i], getattr(alone, f.name)[0]
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), f.name


class TestReweight:
    """q = exp(best region cosine) * max(score, 1e-6), mean-normalized by default."""

    def test_known_values(self):
        regions = np.array([[1.0, 0.0], [0.0, 1.0]])
        inst = instance_of(regions, [[2.0, 0.0], [1.0, 1.0]], [[-1.0, -0.1], [-0.1, -1.0]],
                           scores=np.array([0.5, 0.25]))
        res = apply_uasr(inst, normalize=False)
        assert res.positive_indices.tolist() == [0, 1]
        q = res.weights
        assert q[0] == pytest.approx(math.exp(1.0) * 0.5)
        assert q[1] == pytest.approx(math.exp(1.0 / math.sqrt(2.0)) * 0.25)

    def test_normalized_mean_is_one(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            q = apply_uasr(rand_instance(rng, r=3, k=4, d=6)).weights
            assert q.mean() == pytest.approx(1.0, abs=1e-12)
            assert np.all(q > 0)

    def test_nonpositive_scores_clamped_with_warning(self):
        regions = np.array([[1.0, 0.0]])
        inst = instance_of(regions, [[1.0, 0.0], [0.0, 1.0]], [[-1.0, 0.0], [0.0, -1.0]],
                           scores=np.array([-0.3, 0.5]))
        with pytest.warns(UserWarning, match="clamped"):
            res = apply_uasr(inst, normalize=False)
        assert res.positive_indices.tolist() == [0, 0]
        assert res.weights[0] == pytest.approx(math.exp(1.0) * 1e-6)


class TestApplyUasr:
    def test_matches_naive_route(self):
        rng = np.random.default_rng(1)
        for _ in range(60):
            inst = rand_instance(
                rng,
                r=int(rng.integers(1, 5)),
                k=int(rng.integers(1, 5)),
                d=int(rng.integers(2, 8)),
            )
            got = apply_uasr(inst)
            pos, neg, q, retrieved, pf, nf = naive_select_reweight(
                inst.regions.tolist(),
                inst.positives.tolist(),
                inst.negatives.tolist(),
                inst.global_scores.tolist(),
            )
            assert got.positive_indices.tolist() == pos
            assert got.negative_indices.tolist() == neg
            assert set(got.retrieved_set.tolist()) == retrieved
            assert np.allclose(got.weights, q, rtol=1e-12)
            assert (got.positive_fallback, got.negative_fallback) == (pf, nf)

    def test_filtered_sets_have_k_rows(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            inst = rand_instance(rng, r=2, k=4)
            res = apply_uasr(inst)
            assert inst.positives[res.positive_indices].shape == inst.positives.shape
            assert inst.negatives[res.negative_indices].shape == inst.negatives.shape
            assert res.weights.shape == (4,)

    def test_kept_negatives_disjoint_from_retrieved(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            inst = rand_instance(rng, r=2, k=5)
            res = apply_uasr(inst)
            if not res.negative_fallback:
                pool_ids = {5 + int(i) for i in res.negative_indices}
                assert not pool_ids & set(res.retrieved_set.tolist())

    def test_planted_false_negative_removed(self):
        rng = np.random.default_rng(4)
        inst = rand_instance(rng, r=2, k=4, d=6)
        negatives = inst.negatives.copy()
        negatives[2] = inst.regions[0] * 1.7  # cosine 1 with region 0
        planted = ContrastiveInstance(
            regions=inst.regions,
            positives=inst.positives,
            negatives=negatives,
            caption_nouns=inst.caption_nouns,
            global_scores=inst.global_scores,
        )
        res = apply_uasr(planted)
        assert 2 not in res.negative_indices.tolist()

    def test_weights_flow_into_loss(self):
        rng = np.random.default_rng(5)
        inst = rand_instance(rng)
        res = apply_uasr(inst)
        bd = total_loss(inst, res)
        wp = inst.positives[res.positive_indices]
        wn = inst.negatives[res.negative_indices]
        cross, inner, _ = batch_loss(
            inst.regions[None], np.stack([wp, wn])[:, None], inst.caption_nouns[None],
            res.weights[None], with_grad=False,
        )
        assert (bd.cross, bd.inner) == (cross[0], inner[0])

    def test_result_validates_weights(self):
        # a selection is built unchecked; the loss rejects it against the instance
        inst = rand_instance(np.random.default_rng(6), k=2)
        sel = apply_uasr(inst)
        for bad in ([1.0, -1.0], [1.0, 0.0], [1.0, np.nan], [np.inf, 1.0]):
            with pytest.raises(ValidationError, match="weights must be positive and finite"):
                total_loss(inst, dataclasses.replace(sel, weights=np.array(bad)))

    def test_result_validates_lengths(self):
        inst = rand_instance(np.random.default_rng(6), k=2)
        ragged = UasrResult(
            positive_indices=np.array([0, 1]),
            negative_indices=np.array([0]),
            weights=np.array([1.0, 1.0]),
            retrieved=np.zeros(4, dtype=bool),
        )
        unmasked = dataclasses.replace(ragged, negative_indices=np.array([0, 1]),
                                       retrieved=np.array([0]))
        for sel in (ragged, unmasked):
            with pytest.raises(ValidationError, match="K=2"):
                total_loss(inst, sel)


def _bad_selection(case):
    """A K = 3 instance and a hand-built selection that does not fit it, by what is wrong."""
    inst = rand_instance(np.random.default_rng(13), k=3)  # selection without fallbacks
    sel = apply_uasr(inst)
    retrieved = sel.retrieved.copy()
    retrieved[3 + sel.negative_indices[0]] = True
    return inst, {
        "index-out-of-range": dataclasses.replace(sel, positive_indices=np.array([5, 0, 1])),
        "negative-index": dataclasses.replace(sel, negative_indices=np.array([-1, 0, 1])),
        "k-mismatch": apply_uasr(rand_instance(np.random.default_rng(11), k=2)),
        "non-positive-weight": dataclasses.replace(sel, weights=np.array([1.0, 0.0, 1.0])),
        "retrieved-kept-negative": dataclasses.replace(sel, retrieved=retrieved),
    }[case]


class TestSelectionBoundary:
    """Every one-image loss checks a selection against the instance it meets."""

    @pytest.mark.parametrize("front_door", [total_loss, loss_and_grad, finite_diff_grad,
                                            gradient_check], ids=lambda f: f.__name__)
    @pytest.mark.parametrize("case", ["index-out-of-range", "negative-index", "k-mismatch",
                                      "non-positive-weight", "retrieved-kept-negative"])
    def test_bad_selection_raises(self, front_door, case):
        inst, sel = _bad_selection(case)
        with pytest.raises(ValidationError):
            front_door(inst, sel)

    def test_retrieved_kept_negative_allowed_under_fallback(self):
        inst = rand_instance(np.random.default_rng(13), k=3)
        sel = apply_uasr(inst)
        retrieved = np.ones(6, dtype=bool)
        fallback = dataclasses.replace(sel, retrieved=retrieved, negative_fallback=True)
        assert total_loss(inst, fallback) == total_loss(inst, sel)
