import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rca.errors import (ConfigError, DegenerateEmbeddingError, DimensionError,
                        InsufficientVocabularyError)
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
