import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rca.errors import (ConfigError, DegenerateEmbeddingError, DimensionError,
                        InsufficientVocabularyError)
from rca import tags
from rca.tags import TagRef, rank_corpus, rank_tags, subsample


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


class TestRankTags:
    def test_orthogonal_antipodal_ordering(self):
        vocab = [("a", [1.0, 0.0]), ("b", [0.0, 1.0]), ("c", [-1.0, 0.0])]
        ranked = rank_tags([1.0, 0.0], vocab, M=2)
        assert [t.tag_id for t in ranked] == ["a", "b"]
        assert ranked[0].score == pytest.approx(1.0)
        assert ranked[1].score == pytest.approx(0.0)
        assert len(ranked) == 2

    def test_scores_are_cosines_not_dots(self):
        vocab = [("big", [100.0, 0.0]), ("small", [0.9, 0.1])]
        ranked = rank_tags([1.0, 0.0], vocab, M=2)
        # the longer vector must not win by magnitude alone
        assert ranked[0].tag_id == "big"
        assert abs(ranked[0].score - 1.0) < 1e-12

    def test_ties_break_by_tag_id(self):
        vocab = [("z", [1.0, 0.0]), ("a", [2.0, 0.0]), ("m", [3.0, 0.0])]
        ranked = rank_tags([1.0, 0.0], vocab, M=2)
        assert [t.tag_id for t in ranked] == ["a", "m"]

    def test_vocabulary_too_small(self):
        with pytest.raises(InsufficientVocabularyError):
            rank_tags([1.0, 0.0], [("a", [1.0, 0.0])], M=2)

    def test_m_must_be_even_positive(self):
        vocab = [(str(i), [1.0, float(i)]) for i in range(6)]
        with pytest.raises(ConfigError):
            rank_tags([1.0, 0.0], vocab, M=3)
        with pytest.raises(ConfigError):
            rank_tags([1.0, 0.0], vocab, M=0)

    def test_zero_norm_rejected(self):
        with pytest.raises(DegenerateEmbeddingError, match="^image embedding has zero norm$"):
            rank_tags([0.0, 0.0], [("a", [1.0, 0.0]), ("b", [0.0, 1.0])], M=2)
        with pytest.raises(DegenerateEmbeddingError, match="^vocabulary tag 'a' has zero norm$"):
            rank_tags([1.0, 0.0], [("a", [0.0, 0.0]), ("b", [0.0, 1.0])], M=2)

    def test_overflowing_norm_rejected(self):
        # a's norm overflows to inf, which would read its 0.89 cosine as 0
        vocab = [("a", [1e200, 0.0]), ("b", [0.0, 1.0]), ("c", [1.0, 1.0]), ("d", [-1.0, 0.0])]
        with pytest.raises(DegenerateEmbeddingError,
                           match="^vocabulary tag 'a' has an overflowing norm$"):
            rank_tags([1.0, 0.5], vocab, M=2)
        with pytest.raises(DegenerateEmbeddingError,
                           match="^image embedding has an overflowing norm$"):
            rank_tags([1e200, 0.5], vocab[1:], M=2)

    def test_first_bad_vocabulary_row_wins(self):
        # a zero norm no longer beats an earlier overflowing one
        vocab = [("a", [1.0, 0.0]), ("b", [1e200, 0.0]), ("c", [0.0, 0.0])]
        with pytest.raises(DegenerateEmbeddingError,
                           match="^vocabulary tag 'b' has an overflowing norm$"):
            rank_tags([1.0, 0.5], vocab, M=2)

    def test_ragged_vocabulary_rejected(self):
        vocab = [("a", [1.0, 0.0]), ("b", [1.0, 0.0, 0.0])]
        with pytest.raises(DimensionError, match=r"^vocabulary tag 'b' has embedding shape "
                                                 r"\(3,\), but the first image has dim 2$"):
            rank_tags([1.0, 0.0], vocab, M=2)
        with pytest.raises(DimensionError, match=r"^vocabulary tag 'a' has embedding shape "
                                                 r"\(2,\), but the first image has dim 3$"):
            rank_tags([1.0, 0.0, 0.0], [("a", [1.0, 0.0]), ("b", [0.0, 1.0])], M=2)

    def test_corpus_ranking_is_the_one_image_ranking(self):
        rng = np.random.default_rng(5)
        vocab = [(f"t{i:02d}", rng.standard_normal(6)) for i in range(30)]
        images = rng.standard_normal((4, 6))
        ranked = rank_corpus(((f"img-{i}", im) for i, im in enumerate(images)), vocab, 8)
        assert list(ranked) == [rank_tags(im, vocab, 8) for im in images]

    def test_corpus_ranking_checks_each_image_when_drawn(self):
        vocab = [("a", [1.0, 0.0]), ("b", [0.0, 1.0])]
        ranked = rank_corpus([("img-a", [1.0, 0.0]), ("img-b", [0.0, 0.0])], vocab, 2)
        assert next(ranked)[0].tag_id == "a"
        with pytest.raises(DegenerateEmbeddingError,
                           match="^image 'img-b': embedding has zero norm$"):
            next(ranked)
        ranked = rank_corpus([("img-a", [1.0, 0.0]), ("img-b", [1.0, 0.0, 0.0])], vocab, 2)
        assert next(ranked)[0].tag_id == "a"
        with pytest.raises(DimensionError,
                           match="^image 'img-b': embedding has dim 3, but the vocabulary has dim 2$"):
            next(ranked)

    def test_excluded_entries_score_no_higher(self):
        rng = np.random.default_rng(11)
        image = rng.standard_normal(6)
        vocab = [(f"t{i:03d}", rng.standard_normal(6)) for i in range(40)]
        ranked = rank_tags(image, vocab, M=10)
        scores = [t.score for t in ranked]
        assert all(s1 >= s2 - 1e-12 for s1, s2 in zip(scores, scores[1:]))
        included = {t.tag_id for t in ranked}
        floor = scores[-1]
        for tag_id, emb in vocab:
            if tag_id not in included:
                cos = float(np.dot(unit(image), unit(emb)))
                assert cos <= floor + 1e-12

    def test_default_width_split(self):
        rng = np.random.default_rng(12)
        image = rng.standard_normal(16)
        vocab = [(f"t{i:03d}", rng.standard_normal(16)) for i in range(100)]
        ranked = rank_tags(image, vocab, M=50)
        pos, neg = ranked[:25], ranked[25:]
        assert len(pos) == 25 and len(neg) == 25
        assert min(t.score for t in pos) >= max(t.score for t in neg) - 1e-12

    @settings(max_examples=100, deadline=None, database=None)
    @given(seed=st.integers(0, 2**32 - 1), n_unique=st.integers(2, 12),
           n_copies=st.integers(1, 6), half_m=st.integers(1, 6), data=st.data())
    def test_result_does_not_depend_on_vocabulary_order(self, seed, n_unique, n_copies,
                                                        half_m, data):
        rng = np.random.default_rng(seed)
        unique = rng.standard_normal((n_unique, 3))
        # planted duplicates: the same embedding under several ids, so scores tie exactly
        rows = list(unique) + [unique[i] for i in rng.integers(0, n_unique, size=n_copies)]
        ids = [f"t{i:02d}" for i in rng.permutation(len(rows))]
        vocab = list(zip(ids, rows))
        m = 2 * min(half_m, len(vocab) // 2)
        image = rng.standard_normal(3)
        ranked = rank_tags(image, vocab, m)
        shuffled = data.draw(st.permutations(vocab))
        assert rank_tags(image, shuffled, m) == ranked
        assert all(isinstance(t, TagRef) for t in ranked)
        for a, b in zip(ranked, ranked[1:]):
            assert a.score > b.score or (a.score == b.score and a.tag_id < b.tag_id)


def full_lexsort_ranking(images, vocabulary, M, nan_rows=0):
    """Per image, the first M of a ``lexsort`` of the whole vocabulary, as :class:`TagRef` lists.

    The first ``nan_rows`` tags score NaN.
    """
    ids = [tag_id for tag_id, _ in vocabulary]
    emb = np.array([np.asarray(e, dtype=np.float64) for _, e in vocabulary])
    norms = np.linalg.norm(emb, axis=1)
    norms[:nan_rows] = np.nan
    id_rank = np.argsort(np.argsort(np.array(ids)))
    out = []
    for image in images:
        img = np.asarray(image, dtype=np.float64)
        scores = (emb @ img) / (norms * np.linalg.norm(img))
        order = np.lexsort((id_rank, -scores))[:M]
        out.append([TagRef(ids[i], s) for i, s in zip(order.tolist(), scores[order].tolist())])
    return out


def assert_same_ranking(got, want):
    """Equal ids, and scores equal bit for bit (a NaN matches a NaN)."""
    assert [[t.tag_id for t in ranked] for ranked in got] == \
        [[t.tag_id for t in ranked] for ranked in want]
    got_scores = np.array([[t.score for t in ranked] for ranked in got])
    want_scores = np.array([[t.score for t in ranked] for ranked in want])
    assert np.isnan(got_scores).tolist() == np.isnan(want_scores).tolist()
    nan = np.isnan(want_scores)
    assert np.where(nan, 0.0, got_scores).tobytes() == np.where(nan, 0.0, want_scores).tobytes()


class TestPartitionedTopM:
    """The top M by partition equal the first M of a full ``lexsort``."""

    def rank(self, images, vocab, m):
        return list(rank_corpus(((f"img-{i}", im) for i, im in enumerate(images)), vocab, m))

    @pytest.mark.parametrize("seed", range(5))
    def test_ties_straddling_the_mth_place(self, seed):
        rng = np.random.default_rng(seed)
        image = rng.standard_normal(4)
        rows = list(rng.standard_normal((20, 4)))
        ranked = full_lexsort_ranking([image], [(f"t{i:02d}", r) for i, r in enumerate(rows)], 20)
        mth = int(ranked[0][5].tag_id[1:])  # the 6th best, planted 4 more times: places 5-10
        rows += [rows[mth].copy() for _ in range(4)]
        vocab = [(f"t{i:02d}", r) for i, r in enumerate(rows)]
        vocab = [vocab[i] for i in rng.permutation(len(vocab))]
        for m in (6, 8, 10, 12):
            got = self.rank([image], vocab, m)
            assert_same_ranking(got, full_lexsort_ranking([image], vocab, m))
            tied = [t for t in got[0] if t.score == got[0][5].score]
            assert len(tied) == min(5, m - 5)

    def test_all_scores_equal(self):
        vocab = [(f"t{i:02d}", [2.0, 1.0]) for i in rng_order(30)]
        got = self.rank([[1.0, 3.0]], vocab, 8)
        assert [t.tag_id for t in got[0]] == [f"t{i:02d}" for i in range(8)]
        assert_same_ranking(got, full_lexsort_ranking([[1.0, 3.0]], vocab, 8))

    @pytest.mark.parametrize("extra", [0, 1])
    def test_m_equal_to_the_vocabulary_and_one_short(self, extra):
        rng = np.random.default_rng(7 + extra)
        vocab = [(f"t{i:02d}", rng.standard_normal(3)) for i in rng_order(10 + extra)]
        images = rng.standard_normal((3, 3))
        assert_same_ranking(self.rank(images, vocab, 10), full_lexsort_ranking(images, vocab, 10))

    @pytest.mark.parametrize("n_nan", [1, 4, 9])
    def test_a_nan_key_never_shortens_a_list(self, n_nan, monkeypatch):
        # no finite embedding with a checked norm scores NaN, so the first tags' norms are made NaN
        table = tags._vocabulary_table

        def nan_norms(*args):
            emb, norms, id_rank = table(*args)
            norms[:n_nan] = np.nan
            return emb, norms, id_rank

        monkeypatch.setattr(tags, "_vocabulary_table", nan_norms)
        rng = np.random.default_rng(n_nan)
        vocab = [(f"t{i:02d}", rng.standard_normal(3)) for i in rng_order(10)]
        images = rng.standard_normal((2, 3))
        got = self.rank(images, vocab, 6)
        assert all(len(ranked) == 6 for ranked in got)
        assert any(math.isnan(t.score) for ranked in got for t in ranked) == (n_nan > 4)
        assert_same_ranking(got, full_lexsort_ranking(images, vocab, 6, nan_rows=n_nan))

    def test_the_cli_corpus_shape(self):
        # 1,000 tags of d = 64 and 50 images at M = 50, as the benchmark's corpus
        rng = np.random.default_rng(2024)
        vocab = [(f"tag{i:04d}", rng.standard_normal(64)) for i in range(1000)]
        images = rng.standard_normal((50, 8, 64)).mean(axis=1) + 0.1 * rng.standard_normal((50, 64))
        assert_same_ranking(self.rank(images, vocab, 50), full_lexsort_ranking(images, vocab, 50))


def rng_order(n):
    """0..n-1 in a fixed shuffled order, so the vocabulary is not listed by id."""
    return np.random.default_rng(n).permutation(n).tolist()


class TestSubsample:
    def test_sizes_are_ceil(self):
        pos = list(range(5))
        neg = list(range(7))
        sp, sn = subsample(pos, neg, fraction=0.5, seed=0)
        assert len(sp) == 3 and len(sn) == 4

    def test_fraction_one_is_identity(self):
        pos = np.arange(6)
        sp, sn = subsample(pos, pos.copy(), fraction=1.0, seed=5)
        assert np.array_equal(sp, pos) and np.array_equal(sn, pos)

    def test_bad_fraction(self):
        for f in (0.0, -0.5, 1.5):
            with pytest.raises(ConfigError):
                subsample([1], [2], fraction=f, seed=0)

    def test_deterministic_and_order_preserving(self):
        pos = list("abcdefgh")
        neg = list(range(8))
        a = subsample(pos, neg, fraction=0.4, seed=42)
        b = subsample(pos, neg, fraction=0.4, seed=42)
        assert a == b
        order = {c: i for i, c in enumerate(pos)}
        picked = a[0]
        assert picked == sorted(picked, key=order.get)

    def test_type_preserved(self):
        sp, sn = subsample(np.arange(4), [0, 1, 2, 3], fraction=0.5, seed=1)
        assert isinstance(sp, np.ndarray) and isinstance(sn, list)

    def test_generator_can_replace_seed(self):
        rng = np.random.default_rng(9)
        sp1, _ = subsample(list(range(10)), list(range(10)), 0.3, np.random.default_rng(9))
        sp2, _ = subsample(list(range(10)), list(range(10)), 0.3, rng)
        assert sp1 == sp2
