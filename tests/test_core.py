import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rca import core, losses
from rca.core import (
    ContrastiveInstance,
    _max_last,
    _sum_last,
    as_matrix,
    as_vector,
    check_addressable,
    check_norms,
    compat_forward,
    compatibility,
    scatter_add,
)
from rca.errors import (ConfigError, DegenerateEmbeddingError, DimensionError, EmptyInputError,
                        ValidationError)

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

    def test_check_addressable_stops_where_numpy_refuses(self):
        most = np.iinfo(np.intp).max // 8
        check_addressable(most, "tables")
        with pytest.raises(ConfigError, match="^tables: "):
            check_addressable(most + 1, "tables")
        # numpy refuses one entry more before allocating anything
        with pytest.raises(ValueError, match="too big"):
            np.empty(most + 1)

    def test_check_norms_names_the_first_bad_row(self):
        name = "row {}".format
        check_norms(np.array([[1.0, 2.0], [3.0, 4.0]]), name)
        check_norms(np.float64(2.0), name)
        # rows are read in C order, and the last-axis index names the row
        norms = np.array([[1.0, 2.0, 3.0], [4.0, np.inf, 0.0]])
        with pytest.raises(DegenerateEmbeddingError, match="^row 1 has an overflowing norm$"):
            check_norms(norms, name)
        norms[1, 1] = 5.0
        with pytest.raises(DegenerateEmbeddingError, match="^row 2 has zero norm$"):
            check_norms(norms, name)
        # NaN, which an overflow can produce on the way to a norm, has no cosine either
        with pytest.raises(DegenerateEmbeddingError, match="^row 0 has an overflowing norm$"):
            check_norms(np.array([np.nan, 0.0]), name)
        with pytest.raises(DegenerateEmbeddingError, match="^row 0 has zero norm$"):
            check_norms(np.float64(0.0), name)


class TestInstance:
    def test_shapes_exposed(self):
        inst = rand_instance(np.random.default_rng(0))
        shapes = (inst.regions.shape, inst.positives.shape, inst.negatives.shape,
                  inst.caption_nouns.shape, inst.global_scores.shape)
        assert shapes == ((3, 8), (4, 8), (4, 8), (2, 8), (4,))

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
        with pytest.raises(DimensionError, match="^caption_nouns dim 3 != regions dim 4$"):
            ContrastiveInstance(
                regions=rng.standard_normal((2, 4)),
                positives=rng.standard_normal((2, 4)),
                negatives=rng.standard_normal((2, 4)),
                caption_nouns=rng.standard_normal((1, 3)),
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
        with pytest.raises(ValidationError, match="^global_scores contain non-finite entries$"):
            ContrastiveInstance(
                regions=rng.standard_normal((2, 4)),
                positives=rng.standard_normal((2, 4)),
                negatives=rng.standard_normal((2, 4)),
                caption_nouns=[],
                global_scores=[np.nan, 0.25],
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


def attention(tags, contexts):
    """The attention rows alpha that the compatibility kernel caches."""
    _, (_, alpha, _) = compat_forward(tags, contexts)
    return alpha


class TestAttention:
    def test_scores_are_scaled_by_sqrt_d(self):
        tags = np.array([[2.0, 0.0], [0.0, 2.0]])
        ctx = np.array([[1.0, 0.0], [0.0, 0.0]])
        scores = np.array([[2.0 / np.sqrt(2), 0.0], [0.0, 0.0]])
        want = np.exp(scores) / np.exp(scores).sum(axis=1, keepdims=True)
        assert np.allclose(attention(tags, ctx), want)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(5)
        for scale in (1.0, 1e2, 1e4):
            alpha = attention(rng.standard_normal((6, 4)) * scale, rng.standard_normal((9, 4)))
            assert np.all(np.abs(alpha.sum(axis=1) - 1.0) <= 1e-12)
            assert np.all(alpha >= 0.0)

    def test_single_context_is_certain(self):
        tags = np.array([[3.7, 0.0], [-100.0, 1.0]])
        alpha = attention(tags, np.array([[1.0, 0.0]]))
        assert np.array_equal(alpha, np.ones((2, 1)))

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
            compatibility(np.zeros((1, 3)), np.zeros((1, 4)))

    def test_front_door_validates(self):
        with pytest.raises(EmptyInputError):
            compatibility(np.zeros((0, 3)), np.ones((2, 3)))
        with pytest.raises(ValidationError):
            compatibility(np.ones((1, 3)), [[1.0, np.nan, 0.0]])

    def test_front_door_is_the_kernel(self):
        rng = np.random.default_rng(8)
        tags, ctx = rng.standard_normal((3, 5)), rng.standard_normal((4, 5))
        assert np.array_equal(compatibility(tags.tolist(), ctx), compat_forward(tags, ctx)[0])


# signed zeros, values whose sums round differently in another order,
# and magnitudes from 1e-300 to 1e300, either sign
SCATTER_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.floats(-4.0, 4.0),
    st.builds(lambda sign, mantissa, exponent: sign * mantissa * 10.0 ** exponent,
              st.sampled_from([-1.0, 1.0]), st.floats(1.0, 9.99), st.integers(-300, 299)),
)


@st.composite
def scatter_blocks(draw):
    """A table height and blocks of (index, values) sharing all axes but the first.

    Index arrays have 1 to 3 axes and draw from at most 5 rows, so rows repeat.
    """
    rows, d = draw(st.integers(1, 5)), draw(st.integers(1, 3))
    tail = tuple(draw(st.lists(st.integers(1, 3), max_size=2)))
    blocks = []
    for size in draw(st.lists(st.integers(0, 4), min_size=1, max_size=3)):
        shape = (size,) + tail
        count = math.prod(shape)
        index = draw(st.lists(st.integers(0, rows - 1), min_size=count, max_size=count))
        values = draw(st.lists(SCATTER_VALUES, min_size=count * d, max_size=count * d))
        blocks.append((np.array(index, dtype=np.int64).reshape(shape),
                       np.array(values, dtype=np.float64).reshape(shape + (d,))))
    return rows, blocks


class TestScatterAdd:
    """scatter_add against ``np.add.at`` on a zero table, compared as bytes so signed zeros count."""

    @settings(max_examples=200, deadline=None, database=None)
    @given(scatter_blocks())
    def test_equals_add_at_on_zeros(self, drawn):
        rows, blocks = drawn
        for index, values in blocks:
            expected = np.zeros((rows, values.shape[-1]))
            np.add.at(expected, index, values)
            assert scatter_add(index, values, rows).tobytes() == expected.tobytes()

    @settings(max_examples=200, deadline=None, database=None)
    @given(scatter_blocks())
    def test_concatenated_blocks_equal_add_at_block_by_block(self, drawn):
        rows, blocks = drawn
        expected = np.zeros((rows, blocks[0][1].shape[-1]))
        for index, values in blocks:
            np.add.at(expected, index, values)
        index, values = (np.concatenate(part) for part in zip(*blocks))
        assert scatter_add(index, values, rows).tobytes() == expected.tobytes()

    def test_a_lone_negative_zero_reads_positive_zero(self):
        table = scatter_add(np.array([1, 1]), np.array([[-0.0], [-0.0]]), 3)
        assert table.shape == (3, 1)
        assert not np.signbit(table).any()


FOLD_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 1e308, -1e308, 5e-324, 1.0]),
    st.floats(-1e6, 1e6),
)


@st.composite
def short_axis_views(draw):
    """An (..., n) float array, n in 1..12, as a contiguous, strided, reversed,
    column-major or broadcast view; the leading axes may be empty."""
    n = draw(st.integers(1, 12))
    lead = draw(st.sampled_from([(), (0,), (1,), (3,), (2, 3), (0, 2)]))
    layout = draw(st.sampled_from(["contiguous", "strided", "reversed", "column-major",
                                   "broadcast"]))
    base_shape = {"strided": lead + (2 * n,), "broadcast": (n,)}.get(layout, lead + (n,))
    count = math.prod(base_shape)
    base = np.array(draw(st.lists(FOLD_VALUES, min_size=count, max_size=count)),
                    dtype=np.float64).reshape(base_shape)
    return {
        "contiguous": lambda: base,
        "strided": lambda: base[..., ::2],
        "reversed": lambda: base[..., ::-1],
        "column-major": lambda: np.asfortranarray(base),
        "broadcast": lambda: np.broadcast_to(base, lead + (n,)),
    }[layout]()


def assert_same_bits(got, want):
    """Equal shape, dtype and bytes; NaN compared by position, whatever its payload."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    nan = np.isnan(want)
    assert (np.isnan(got) == nan).all()
    assert np.where(nan, 0.0, got).tobytes() == np.where(nan, 0.0, want).tobytes()


class TestShortAxisFolds:
    """The column folds equal numpy's own reductions bit for bit, on both sides of n = 8.

    Below 8 entries numpy's add-reduce adds left to right from +0.0; a numpy
    that changed that order would fail here, not silently move the loss bits.
    """

    @settings(max_examples=300, deadline=None, database=None)
    @given(short_axis_views())
    @example(np.array([[-0.0, 0.0], [0.0, -0.0], [-0.0, -0.0]]))
    def test_max_sum_and_mean_equal_numpy(self, x):
        with np.errstate(over="ignore", invalid="ignore"):
            assert_same_bits(_max_last(x), x.max(axis=-1))
            assert_same_bits(_sum_last(x), x.sum(axis=-1))
            assert_same_bits(_sum_last(x) / x.shape[-1], x.mean(axis=-1))


SUM_VALUES = np.array([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 1e308, -1e308])
SUM_LAYOUTS = ["contiguous", "strided", "reversed", "column-major", "broadcast"]


def sum_inputs(n, layout, seed):
    """A (2, 8n, n) array, 16 n^2 entries, as a contiguous, strided, reversed, column-major
    or broadcast view.

    Each row holds normals of mixed magnitude with none, a tenth or half of
    its entries drawn from the special values; a row in five holds only
    zeros of either sign. The contiguous layout is the one :func:`_sum_last`
    folds from 8 entries on; the others go to numpy's sum.
    """
    rng = np.random.default_rng([n, seed, SUM_LAYOUTS.index(layout)])
    shape = {"strided": (2, 8 * n, 2 * n), "broadcast": (8 * n, n)}.get(layout, (2, 8 * n, n))
    rate = rng.choice([0.0, 0.1, 0.5], shape[:-1] + (1,))
    normals = rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 4, shape)
    base = np.where(rng.random(shape) < rate, rng.choice(SUM_VALUES, shape), normals)
    base[..., ::5, :] = rng.choice([0.0, -0.0], base[..., ::5, :].shape)
    return {
        "contiguous": lambda: base,
        "strided": lambda: base[..., ::2],
        "reversed": lambda: base[..., ::-1],
        "column-major": lambda: np.asfortranarray(base),
        "broadcast": lambda: np.broadcast_to(base, (2, 8 * n, n)),
    }[layout]()


def record_folds(monkeypatch):
    """The shapes :func:`_sum_last` hands to its pairwise fold, as a list that fills up."""
    shapes = []
    fold = core._pairwise_fold

    def record(x):
        shapes.append(x.shape)
        return fold(x)

    monkeypatch.setattr(core, "_pairwise_fold", record)
    return shapes


class TestWideSumFold:
    """From 8 entries on, the sum folds a C-contiguous axis as numpy's pairwise sum adds a row."""

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("layout", SUM_LAYOUTS)
    @pytest.mark.parametrize("n", range(8, 17))
    def test_equals_numpy_bit_for_bit(self, n, layout, seed, monkeypatch):
        x = sum_inputs(n, layout, seed)
        folds = record_folds(monkeypatch)
        with np.errstate(over="ignore", invalid="ignore"):
            assert_same_bits(_sum_last(x), x.sum(axis=-1))
            assert_same_bits(_sum_last(x) / n, x.mean(axis=-1))
        assert folds == ([x.shape] * 2 if layout == "contiguous" else [])

    def test_the_fold_starts_at_16_rows_per_entry(self, monkeypatch):
        folds = record_folds(monkeypatch)
        x = sum_inputs(8, "contiguous", 0).reshape(-1, 8)
        with np.errstate(over="ignore", invalid="ignore"):
            assert_same_bits(_sum_last(x[:127]), x[:127].sum(axis=-1))  # one row short
            assert_same_bits(_sum_last(x), x.sum(axis=-1))
        assert folds == [(128, 8)]

    def test_the_softmax_denominator_folds_at_the_gradcheck_block(self, monkeypatch):
        rng = np.random.default_rng(3)
        tags, contexts = rng.standard_normal((2, 64, 25, 16)), rng.standard_normal((64, 8, 16))
        folds = record_folds(monkeypatch)
        got = compat_forward(tags, contexts)
        assert folds == [(2, 64, 25, 8)]
        monkeypatch.setattr(core, "_sum_last", lambda x: x.sum(axis=-1))
        want = compat_forward(tags, contexts)
        assert [a.tobytes() for a in (got[0], *got[1])] == [a.tobytes() for a in (want[0], *want[1])]


MAX_VALUES = np.array([0.0, -0.0, math.inf, -math.inf, 1.0, -1.0, 5e-324, -1e308])


def max_inputs(n, layout, seed):
    """An (..., n) array of special values and normals, C-contiguous, strided or few-rowed.

    The first two layouts have 64 rows per entry, so :func:`_max_last` folds
    them at every width up to 16; a row in four holds only zeros of either
    sign. The few-rowed layout is a single row, which numpy reduces from 8
    entries on.
    """
    rng = np.random.default_rng([n, seed])
    shape = {"contiguous": (4, 16 * n, n), "strided": (4, 16 * n, 2 * n), "few rows": (n,)}[layout]
    base = np.where(rng.random(shape) < 0.5, rng.choice(MAX_VALUES, shape),
                    rng.standard_normal(shape))
    if base.ndim > 1:
        base[:, ::4] = rng.choice([0.0, -0.0], base[:, ::4].shape)
    return base[..., ::2] if layout == "strided" else base


def flipped_zero_max(x):
    """numpy's max over the last axis with the sign of each zero result flipped."""
    out = x.max(axis=-1)
    return np.where(out == 0.0, -out, out)


class TestMaxFold:
    """The max fold is numpy's max at every width 1 to 16, up to the sign of a zero."""

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("layout", ["contiguous", "strided", "few rows"])
    @pytest.mark.parametrize("n", range(1, 17))
    def test_equals_numpy_up_to_the_sign_of_a_zero(self, n, layout, seed):
        x = max_inputs(n, layout, seed)
        got, want = _max_last(x), x.max(axis=-1)
        zero = want == 0.0
        assert (got[zero] == 0.0).all()
        assert_same_bits(np.where(zero, 0.0, got), np.where(zero, 0.0, want))
        if n < 8 or layout == "few rows":  # no fold, or the fold numpy's own order keeps
            assert_same_bits(got, want)

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("r", [3, 8])
    def test_compat_forward_cannot_see_the_sign(self, r, seed):
        rng = np.random.default_rng(seed)
        values = [0.0, -0.0, 1.0, -1.0, -2.0, 0.5]
        tags = rng.choice(values, (64, 25, 2))
        contexts = rng.choice(values, (64, r, 2))
        outcomes = []
        for max_last in (_max_last, lambda x: x.max(axis=-1), flipped_zero_max):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(core, "_max_last", max_last)
                phi, cache = compat_forward(tags, contexts)
            outcomes.append([a.tobytes() for a in (phi, *cache)])
        scaled = tags @ contexts.swapaxes(-1, -2) / np.sqrt(2)
        assert (scaled.max(axis=-1) == 0.0).any()
        assert outcomes[0] == outcomes[1] == outcomes[2]

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("k", [3, 12])
    def test_nll_terms_cannot_see_the_sign(self, k, seed):
        rng = np.random.default_rng(seed)
        values = [0.0, -0.0, -1.0, -3.0, 0.5]
        phi_pos, phi_neg = rng.choice(values, (512, k)), rng.choice(values, (512, k))
        outcomes = []
        for max_last in (_max_last, lambda x: x.max(axis=-1), flipped_zero_max):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(losses, "_max_last", max_last)
                outcomes.append(losses.nll_terms(phi_pos, phi_neg).tobytes())
        assert (phi_neg.max(axis=-1) == 0.0).any()
        assert outcomes[0] == outcomes[1] == outcomes[2]
