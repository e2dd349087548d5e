import numpy as np
import pytest

from rca.core import (
    ContrastiveInstance,
    as_matrix,
    as_vector,
    attention_weights,
    compatibility,
    contextualize,
    empty_matrix,
    pairwise_scores,
)
from rca.errors import DimensionError, EmptyInputError, ValidationError

from naive_reference import naive_compatibility


def rand_instance(rng, r=3, k=4, p=2, d=8):
    return ContrastiveInstance(
        regions=rng.standard_normal((r, d)),
        positives=rng.standard_normal((k, d)),
        negatives=rng.standard_normal((k, d)),
        caption_nouns=rng.standard_normal((p, d)),
        global_scores=np.sort(rng.uniform(0.05, 1.0, k))[::-1],
    )


class TestCoercions:
    def test_as_matrix_accepts_lists(self):
        m = as_matrix([[1, 2], [3, 4]])
        assert m.dtype == np.float64 and m.shape == (2, 2)

    def test_as_matrix_rejects_wrong_rank(self):
        with pytest.raises(DimensionError):
            as_matrix(np.zeros(3))
        with pytest.raises(DimensionError):
            as_matrix(np.zeros((2, 2, 2)))

    def test_as_matrix_rejects_empty(self):
        with pytest.raises(EmptyInputError):
            as_matrix(np.zeros((0, 4)))
        assert as_matrix(np.zeros((0, 4)), allow_empty=True).shape == (0, 4)
        with pytest.raises(EmptyInputError):
            as_matrix(np.zeros((3, 0)))

    def test_as_matrix_rejects_nonfinite(self):
        with pytest.raises(ValidationError):
            as_matrix([[1.0, np.nan]])
        with pytest.raises(ValidationError):
            as_matrix([[np.inf, 1.0]])

    def test_as_vector(self):
        assert as_vector([1.0, 2.0]).shape == (2,)
        with pytest.raises(DimensionError):
            as_vector([[1.0]])
        with pytest.raises(ValidationError):
            as_vector([np.nan])

    def test_empty_matrix(self):
        assert empty_matrix(5).shape == (0, 5)


class TestInstance:
    def test_shapes_exposed(self):
        inst = rand_instance(np.random.default_rng(0))
        assert (inst.num_regions, inst.num_positives, inst.num_caption_nouns, inst.dim) == (3, 4, 2, 8)

    def test_empty_caption_reshaped(self):
        rng = np.random.default_rng(1)
        inst = ContrastiveInstance(
            regions=rng.standard_normal((2, 4)),
            positives=rng.standard_normal((2, 4)),
            negatives=rng.standard_normal((2, 4)),
            caption_nouns=[],
            global_scores=[0.5, 0.25],
        )
        assert inst.caption_nouns.shape == (0, 4)

    def test_mismatched_sides_rejected(self):
        rng = np.random.default_rng(2)
        with pytest.raises(DimensionError):
            ContrastiveInstance(
                regions=rng.standard_normal((2, 4)),
                positives=rng.standard_normal((2, 4)),
                negatives=rng.standard_normal((3, 4)),
                caption_nouns=[],
                global_scores=[0.5, 0.25],
            )

    def test_scores_must_be_cosines(self):
        rng = np.random.default_rng(3)
        with pytest.raises(ValidationError):
            ContrastiveInstance(
                regions=rng.standard_normal((2, 4)),
                positives=rng.standard_normal((2, 4)),
                negatives=rng.standard_normal((2, 4)),
                caption_nouns=[],
                global_scores=[1.5, 0.25],
            )

    def test_score_count_matches_positives(self):
        rng = np.random.default_rng(4)
        with pytest.raises(DimensionError):
            ContrastiveInstance(
                regions=rng.standard_normal((2, 4)),
                positives=rng.standard_normal((2, 4)),
                negatives=rng.standard_normal((2, 4)),
                caption_nouns=[],
                global_scores=[0.5],
            )


class TestAttention:
    def test_pairwise_scores_scaling(self):
        tags = np.array([[2.0, 0.0], [0.0, 2.0]])
        ctx = np.array([[1.0, 0.0]])
        s = pairwise_scores(tags, ctx)
        assert np.allclose(s, [[2.0 / np.sqrt(2)], [0.0]])

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(5)
        for scale in (1.0, 1e2, 1e4):
            alpha = attention_weights(rng.standard_normal((6, 9)) * scale)
            assert np.all(np.abs(alpha.sum(axis=1) - 1.0) <= 1e-12)
            assert np.all(alpha >= 0.0)

    def test_single_context_is_certain(self):
        alpha = attention_weights(np.array([[3.7], [-100.0]]))
        assert np.array_equal(alpha, np.ones((2, 1)))

    def test_contextualize_validates_rows(self):
        with pytest.raises(ValidationError):
            contextualize(np.array([[0.7, 0.7]]), np.eye(2))

    def test_compatibility_matches_naive(self):
        rng = np.random.default_rng(6)
        for _ in range(25):
            j, r, d = rng.integers(1, 6), rng.integers(1, 6), rng.integers(2, 10)
            tags = rng.standard_normal((j, d))
            ctx = rng.standard_normal((r, d))
            got = compatibility(tags, ctx)
            want = naive_compatibility(tags.tolist(), ctx.tolist())
            assert np.allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_context_permutation_invariance(self):
        rng = np.random.default_rng(7)
        tags = rng.standard_normal((4, 6))
        ctx = rng.standard_normal((5, 6))
        perm = rng.permutation(5)
        assert np.allclose(
            compatibility(tags, ctx), compatibility(tags, ctx[perm]), rtol=0, atol=1e-12
        )

    def test_dim_mismatch(self):
        with pytest.raises(DimensionError):
            pairwise_scores(np.zeros((1, 3)), np.zeros((1, 4)))
