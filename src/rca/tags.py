"""Ranked contrastive tag lists: top-M retrieval and subsampling.

Tags are ranked by global (image-level) cosine similarity. The top half of
the ranked list is treated as relatively relevant (positives), the bottom
half as relatively irrelevant (negatives); rank, not absolute similarity,
decides the side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .core import as_vector
from .errors import ConfigError, DegenerateEmbeddingError, InsufficientVocabularyError

__all__ = ["TagRef", "rank_corpus", "rank_tags", "subsample"]


@dataclass
class TagRef:
    """One ranked tag: its vocabulary id and its image-level cosine score."""

    tag_id: str
    score: float


_DIM_MISMATCH = "vocabulary embeddings must all match the image embedding dimension"


def _vocabulary_table(vocabulary: Sequence[tuple], ids: list[str], dim: int):
    """The (V, dim) embedding matrix, its row norms, and each id's rank in ascending id order."""
    rows = [np.asarray(e, dtype=np.float64) for _, e in vocabulary]
    if any(row.shape != (dim,) for row in rows):
        raise DegenerateEmbeddingError(_DIM_MISMATCH)
    emb = np.array(rows)
    with np.errstate(over="ignore"):  # an overflowing norm is rejected below
        norms = np.linalg.norm(emb, axis=1)
    if (norms == 0.0).any():
        bad = ids[int(np.argmin(norms))]
        raise DegenerateEmbeddingError(f"vocabulary tag {bad!r} has zero-norm embedding")
    if not np.isfinite(norms).all():
        bad = ids[int(np.argmin(np.isfinite(norms)))]
        raise DegenerateEmbeddingError(f"vocabulary tag {bad!r} has an overflowing embedding norm")
    id_rank = np.empty(len(ids), dtype=np.intp)
    id_rank[sorted(range(len(ids)), key=ids.__getitem__)] = np.arange(len(ids))
    return emb, norms, id_rank


def rank_corpus(
    image_embeddings: Iterable, vocabulary: Sequence[tuple], M: int
) -> Iterator[list[TagRef]]:
    """Per image, the M vocabulary tags most cosine-similar to it, best first.

    ``vocabulary`` is a sequence of (tag_id, embedding) pairs. Ties are
    broken by ascending tag_id so the result is deterministic regardless
    of vocabulary order. The first M / 2 tags are the positives, the rest
    the negatives. A generator: the vocabulary matrix, its norms and the
    tag-id order are built once, at the first image, and each image then
    costs one matrix-vector product and one ``lexsort``. Each image is
    checked when its list is drawn, so a caller drawing lists between its
    own per-record checks sees every error in record order.
    """
    if M < 2 or M % 2 != 0:
        raise ConfigError(f"M must be a positive even integer, got {M}")
    if len(vocabulary) < M:
        raise InsufficientVocabularyError(
            f"vocabulary has {len(vocabulary)} entries, need at least {M}"
        )
    ids = [tag_id for tag_id, _ in vocabulary]
    emb = None
    for image in image_embeddings:
        img = as_vector(image, "image_embedding")
        with np.errstate(over="ignore"):
            img_norm = np.linalg.norm(img)
        if img_norm == 0.0:
            raise DegenerateEmbeddingError("image embedding has zero norm")
        if img_norm == np.inf:
            raise DegenerateEmbeddingError("image embedding has an overflowing norm")
        if emb is None:
            emb, norms, id_rank = _vocabulary_table(vocabulary, ids, img.shape[0])
        elif emb.shape[1] != img.shape[0]:
            raise DegenerateEmbeddingError(_DIM_MISMATCH)
        scores = (emb @ img) / (norms * img_norm)
        order = np.lexsort((id_rank, -scores))[:M]
        yield [TagRef(ids[i], s) for i, s in zip(order.tolist(), scores[order].tolist())]


def rank_tags(image_embedding, vocabulary: Sequence[tuple], M: int) -> list[TagRef]:
    """The M vocabulary tags most cosine-similar to the image, best first.

    The one-image case of :func:`rank_corpus`.
    """
    return next(rank_corpus([image_embedding], vocabulary, M))


def _take(seq, indices):
    if isinstance(seq, np.ndarray):
        return seq[np.asarray(indices, dtype=int)]
    return [seq[i] for i in indices]


def subsample(positives, negatives, fraction: float, seed):
    """Draw ceil(fraction * len) items from each side, without replacement.

    Both sides are sampled independently from one seeded generator, so the
    same seed reproduces the same subsets. Relative order is preserved.
    ``seed`` may also be an existing ``numpy.random.Generator`` when the
    caller manages its own stream.
    """
    if not 0.0 < fraction <= 1.0:
        raise ConfigError(f"fraction must be in (0, 1], got {fraction}")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    out = []
    for side in (positives, negatives):
        n = len(side)
        m = math.ceil(fraction * n)
        idx = np.sort(rng.choice(n, size=m, replace=False))
        out.append(_take(side, idx))
    return out[0], out[1]
