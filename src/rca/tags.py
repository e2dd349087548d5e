"""Ranked contrastive tag lists: top-M retrieval and subsampling.

Tags are ranked by global (image-level) cosine similarity. The top half of
the ranked list is treated as relatively relevant (positives), the bottom
half as relatively irrelevant (negatives); rank, not absolute similarity,
decides the side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import as_vector
from .errors import ConfigError, DegenerateEmbeddingError, InsufficientVocabularyError

__all__ = ["TagRef", "rank_tags", "subsample"]


@dataclass
class TagRef:
    """One ranked tag: its vocabulary id and its image-level cosine score."""

    tag_id: str
    score: float


def rank_tags(image_embedding, vocabulary: Sequence[tuple], M: int) -> list[TagRef]:
    """The M vocabulary tags most cosine-similar to the image, best first.

    ``vocabulary`` is a sequence of (tag_id, embedding) pairs. Ties are
    broken by ascending tag_id so the result is deterministic regardless
    of vocabulary order. The first M / 2 tags are the positives, the rest
    the negatives.
    """
    if M < 2 or M % 2 != 0:
        raise ConfigError(f"M must be a positive even integer, got {M}")
    if len(vocabulary) < M:
        raise InsufficientVocabularyError(
            f"vocabulary has {len(vocabulary)} entries, need at least {M}"
        )
    img = as_vector(image_embedding, "image_embedding")
    img_norm = np.linalg.norm(img)
    if img_norm == 0.0:
        raise DegenerateEmbeddingError("image embedding has zero norm")

    ids = [tag_id for tag_id, _ in vocabulary]
    emb = np.asarray([np.asarray(e, dtype=np.float64) for _, e in vocabulary])
    if emb.ndim != 2 or emb.shape[1] != img.shape[0]:
        raise DegenerateEmbeddingError(
            "vocabulary embeddings must all match the image embedding dimension"
        )
    norms = np.linalg.norm(emb, axis=1)
    if (norms == 0.0).any():
        bad = ids[int(np.argmin(norms))]
        raise DegenerateEmbeddingError(f"vocabulary tag {bad!r} has zero-norm embedding")

    scores = (emb @ img) / (norms * img_norm)
    order = sorted(range(len(ids)), key=lambda i: (-scores[i], ids[i]))
    return [TagRef(ids[i], float(scores[i])) for i in order[:M]]


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
