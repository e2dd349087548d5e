"""Attention-based tag/context compatibility and the shared instance types.

The compatibility pipeline, for a block of J tag embeddings against R
context embeddings (image regions or noun caption words, both d-dim):

    scores[j, k] = tags[j] . contexts[k] / sqrt(d)
    alpha[j, :]  = softmax over k of scores[j, :]
    ctx[j]       = sum_k alpha[j, k] * contexts[k]
    phi[j]       = tags[j] . ctx[j]

phi measures how compatible a tag is with the context it attends to: an
irrelevant tag cannot collect a context average it is similar to. All
functions are pure and operate on float64 numpy arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, EmptyInputError, ValidationError

__all__ = [
    "ContrastiveInstance",
    "as_matrix",
    "as_vector",
    "empty_matrix",
    "pairwise_scores",
    "attention_weights",
    "contextualize",
    "compatibility",
]


def as_matrix(x, name: str = "matrix", allow_empty: bool = False) -> np.ndarray:
    """Coerce to a finite float64 2-D array, validating the row contract."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 2:
        raise DimensionError(f"{name} must be 2-D, got shape {arr.shape}")
    if arr.shape[0] == 0:
        if not allow_empty:
            raise EmptyInputError(f"{name} has no rows")
    elif arr.shape[1] == 0:
        raise EmptyInputError(f"{name} rows have zero length")
    if arr.size and not np.isfinite(arr).all():
        raise ValidationError(f"{name} contains non-finite entries")
    return arr


def as_vector(x, name: str = "vector") -> np.ndarray:
    """Coerce to a finite float64 1-D array with at least one entry."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 1 or arr.shape[0] < 1:
        raise DimensionError(f"{name} must be a non-empty 1-D vector, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValidationError(f"{name} contains non-finite entries")
    return arr


def empty_matrix(d: int) -> np.ndarray:
    """A (0, d) placeholder, e.g. for instances without caption nouns."""
    return np.zeros((0, d), dtype=np.float64)


@dataclass
class ContrastiveInstance:
    """One image's contrastive bundle.

    ``positives``/``negatives`` are the top-K and next-K ranked tags for the
    image, each row ordered by descending global (image-level) score.
    ``global_scores`` carries the positives' image-tag cosines and stays
    aligned row-wise with ``positives``. ``caption_nouns`` may be empty;
    the inner-modality loss is skipped in that case.
    """

    regions: np.ndarray        # (R, d)
    positives: np.ndarray      # (K, d)
    negatives: np.ndarray      # (K, d)
    caption_nouns: np.ndarray  # (P, d); P may be 0
    global_scores: np.ndarray  # (K,)

    def __post_init__(self):
        self.regions = as_matrix(self.regions, "regions")
        self.positives = as_matrix(self.positives, "positives")
        self.negatives = as_matrix(self.negatives, "negatives")
        caption = np.asarray(self.caption_nouns, dtype=np.float64)
        if caption.size == 0:
            caption = empty_matrix(self.regions.shape[1])
        self.caption_nouns = as_matrix(caption, "caption_nouns", allow_empty=True)
        if self.positives.shape != self.negatives.shape:
            raise DimensionError(
                f"positives {self.positives.shape} and negatives "
                f"{self.negatives.shape} must have identical shape"
            )
        d = self.regions.shape[1]
        for name, mat in (("positives", self.positives), ("caption_nouns", self.caption_nouns)):
            if mat.shape[1] != d:
                raise DimensionError(f"{name} dim {mat.shape[1]} != regions dim {d}")
        scores = np.asarray(self.global_scores, dtype=np.float64)
        if scores.shape != (self.positives.shape[0],):
            raise DimensionError(
                f"global_scores shape {scores.shape} must be ({self.positives.shape[0]},)"
            )
        if not np.isfinite(scores).all():
            raise ValidationError("global_scores contain non-finite entries")
        if np.abs(scores).max() > 1.0 + 1e-9:
            raise ValidationError("global_scores must be cosines in [-1, 1]")
        self.global_scores = scores

    @property
    def num_regions(self) -> int:
        return self.regions.shape[0]

    @property
    def num_positives(self) -> int:
        return self.positives.shape[0]

    @property
    def num_caption_nouns(self) -> int:
        return self.caption_nouns.shape[0]

    @property
    def dim(self) -> int:
        return self.regions.shape[1]


def pairwise_scores(tags, contexts) -> np.ndarray:
    """Scaled dot products: out[j, k] = tags[j] . contexts[k] / sqrt(d)."""
    tags = as_matrix(tags, "tags")
    contexts = as_matrix(contexts, "contexts")
    if tags.shape[1] != contexts.shape[1]:
        raise DimensionError(
            f"tags dim {tags.shape[1]} != contexts dim {contexts.shape[1]}"
        )
    return (tags @ contexts.T) / np.sqrt(tags.shape[1])


def attention_weights(scores) -> np.ndarray:
    """Row-wise softmax over the context axis.

    Max-subtraction keeps the exponentials finite for large-magnitude
    scores; each output row sums to 1.
    """
    s = as_matrix(scores, "scores")
    shifted = s - s.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def contextualize(alpha, contexts) -> np.ndarray:
    """Attention-weighted average of context rows, one output row per query."""
    alpha = as_matrix(alpha, "alpha")
    contexts = as_matrix(contexts, "contexts")
    if alpha.shape[1] != contexts.shape[0]:
        raise DimensionError(
            f"alpha has {alpha.shape[1]} columns but contexts has "
            f"{contexts.shape[0]} rows"
        )
    row_sums = alpha.sum(axis=1)
    if np.abs(row_sums - 1.0).max() > 1e-6:
        raise ValidationError("alpha rows must sum to 1")
    return alpha @ contexts


def compatibility(tags, contexts) -> np.ndarray:
    """phi[j]: dot product of tags[j] with its contextualized representation."""
    tags = as_matrix(tags, "tags")
    alpha = attention_weights(pairwise_scores(tags, contexts))
    ctx = contextualize(alpha, contexts)
    return np.einsum("jd,jd->j", tags, ctx)
