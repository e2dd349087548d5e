"""Uncertainty-aware selection and re-weighting of noisy contrastive tags.

Ranked tag lists are noisy: a relevant tag can land on the negative side
(false negative) and an irrelevant one on the positive side (false
positive). Each region votes for its most cosine-correlated tag; the set H
of winners corroborates tags that some region actually depicts. Positives
survive only if corroborated (Wp & H), negatives are dropped when
corroborated (Wn - H), and each side is cyclically oversampled back to K.
Surviving positives are weighted by q = exp(best region cosine) * p(t),
combining local (region-tag) and global (image-tag) evidence.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .core import ContrastiveInstance, as_matrix, as_vector
from .errors import DegenerateEmbeddingError, ValidationError

__all__ = [
    "UasrResult",
    "local_uncertainty",
    "retrieve_top_tags",
    "select",
    "reweight",
    "warn_clamped",
    "BatchSelection",
    "pool_cosines",
    "select_batch",
    "apply_uasr",
]

SCORE_FLOOR = 1e-6  # non-positive global cosines are clamped here


@dataclass
class UasrResult:
    """Filtered tag sets, per-positive weights, and the retrieval bookkeeping.

    Index fields refer to rows of the source instance; ``retrieved_set``
    holds indices into the concatenated positives+negatives pool, so a
    negative with source index i occupies pool slot K + i. Fallback flags
    record the degenerate cases where a side had no survivors (positives
    revert to the originals; negatives keep only the lowest-ranked entry).
    """

    positives_filtered: np.ndarray  # (K, d)
    negatives_filtered: np.ndarray  # (K, d)
    weights: np.ndarray             # (K,)
    retrieved_set: np.ndarray       # pool indices, sorted ascending
    positive_indices: np.ndarray    # (K,) rows into instance.positives
    negative_indices: np.ndarray    # (K,) rows into instance.negatives
    positive_fallback: bool = False
    negative_fallback: bool = False

    def __post_init__(self):
        k = self.positives_filtered.shape[0]
        if self.negatives_filtered.shape[0] != k or self.weights.shape != (k,):
            raise ValidationError("filtered sets and weights must all have K entries")
        if not np.isfinite(self.weights).all() or (self.weights <= 0.0).any():
            raise ValidationError("weights must be positive and finite")
        if not self.negative_fallback:
            pool = set((self.negative_indices + k).tolist())
            if pool & set(self.retrieved_set.tolist()):
                raise ValidationError("kept negatives must not appear in the retrieved set")


def local_uncertainty(v, w) -> float:
    """Cosine similarity between a region and a tag embedding."""
    v = as_vector(v, "region")
    w = as_vector(w, "tag")
    nv, nw = np.linalg.norm(v), np.linalg.norm(w)
    if nv == 0.0 or nw == 0.0:
        raise DegenerateEmbeddingError("cosine undefined for zero-norm vectors")
    return float(v @ w / (nv * nw))


def _cosine_matrix(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Cosines of every row against every column vector, over any leading batch axes."""
    rn = np.linalg.norm(rows, axis=-1)
    cn = np.linalg.norm(cols, axis=-1)
    if (rn == 0.0).any() or (cn == 0.0).any():
        raise DegenerateEmbeddingError("cosine undefined for zero-norm rows")
    return (rows @ cols.swapaxes(-1, -2)) / (rn[..., :, None] * cn[..., None, :])


def pool_cosines(regions, positives, negatives) -> np.ndarray:
    """Region-by-pool cosines, shape (..., R, 2K): pool slots are the positives, then the negatives."""
    return _cosine_matrix(regions, np.concatenate([positives, negatives], axis=-2))


def retrieve_top_tags(regions, all_tags) -> np.ndarray:
    """Indices of each region's most-correlated tag, de-duplicated and sorted.

    Ties go to the lowest tag index.
    """
    regions = as_matrix(regions, "regions")
    all_tags = as_matrix(all_tags, "all_tags")
    winners = np.argmax(_cosine_matrix(regions, all_tags), axis=1)
    return np.unique(winners)


def _cycle_to(picked: list, k: int) -> list:
    return [picked[i % len(picked)] for i in range(k)]


def select(positive_indices, negative_indices, retrieved) -> tuple[list, list, bool, bool]:
    """Filter both sides against the retrieved set and oversample back to K.

    Positives keep members present in ``retrieved``; negatives drop theirs.
    Values may be any hashables (pool indices, tag ids). Survivors are
    cycled in their original order until each side regains its input
    length. Empty-survivor fallbacks: positives revert to the original
    side, negatives keep only the last (lowest-ranked, assuming the usual
    descending-score order) entry.

    Returns (positives_kept, negatives_kept, positive_fallback, negative_fallback).
    """
    retrieved = set(retrieved)
    pos = list(positive_indices)
    neg = list(negative_indices)

    pos_kept = [i for i in pos if i in retrieved]
    pos_fallback = not pos_kept
    if pos_fallback:
        pos_kept = pos

    neg_kept = [i for i in neg if i not in retrieved]
    neg_fallback = not neg_kept
    if neg_fallback:
        neg_kept = [neg[-1]]

    return _cycle_to(pos_kept, len(pos)), _cycle_to(neg_kept, len(neg)), pos_fallback, neg_fallback


def _weights_from(best_cosine: np.ndarray, scores: np.ndarray, normalize: bool):
    """Weights q = exp(best_cosine) * max(score, floor) along the last axis, and the clamp count."""
    clamped = int((scores <= 0.0).sum())
    q = np.exp(best_cosine) * np.maximum(scores, SCORE_FLOOR)
    if normalize:
        q = q / q.mean(axis=-1, keepdims=True)
    return q, clamped


def warn_clamped(count: int) -> None:
    """One ``UserWarning`` for ``count`` clamped global scores; silent when there are none.

    The warning points at the code that called this function's caller.
    """
    if count:
        warnings.warn(
            f"{count} non-positive global score(s) clamped to {SCORE_FLOOR}",
            stacklevel=3,
        )


def reweight(positives_filtered, regions, global_scores, normalize: bool = True) -> np.ndarray:
    """Per-positive confidence weights q = exp(best region cosine) * p(t).

    ``global_scores`` must be row-aligned with ``positives_filtered`` (the
    caller carries them through selection and oversampling). Non-positive
    global scores are clamped to a small epsilon with a warning, since a
    non-positive weight would flip the loss sign. With ``normalize`` the
    weights are rescaled to mean 1 so the weighted loss magnitude stays
    comparable to the unweighted one.
    """
    wp = as_matrix(positives_filtered, "positives_filtered")
    regions = as_matrix(regions, "regions")
    scores = np.asarray(global_scores, dtype=np.float64)
    if scores.shape != (wp.shape[0],):
        raise ValidationError("global_scores must align with positives_filtered rows")
    best = _cosine_matrix(regions, wp).max(axis=0)
    q, clamped = _weights_from(best, scores, normalize)
    warn_clamped(clamped)
    return q


@dataclass
class BatchSelection:
    """Selection for B images that share the side length K.

    Index arrays hold rows of each image's own positive or negative side;
    ``retrieved`` marks the pool slots (positives, then negatives) some
    region voted for. ``clamped`` counts the non-positive global scores,
    with oversampling multiplicity, that the weights clamped to
    ``SCORE_FLOOR``; the caller decides when to warn about them.
    """

    positive_indices: np.ndarray   # (B, K)
    negative_indices: np.ndarray   # (B, K)
    weights: np.ndarray            # (B, K)
    retrieved: np.ndarray          # (B, 2K) bool
    positive_fallback: np.ndarray  # (B,) bool
    negative_fallback: np.ndarray  # (B,) bool
    clamped: int


def _cycle_kept(keep: np.ndarray) -> np.ndarray:
    """Per row, the kept column indices in ascending order, repeated cyclically to fill the row."""
    b, k = keep.shape
    cols = np.arange(k)
    kept_first = np.sort(cols + k * ~keep, axis=-1)
    slots = cols % keep.sum(axis=-1, keepdims=True)
    return kept_first[np.arange(b)[:, None], slots]


def select_batch(cosines: np.ndarray, global_scores: np.ndarray, normalize: bool = True) -> BatchSelection:
    """Retrieval, selection and re-weighting for a batch of images at once.

    ``cosines`` is the (B, R, 2K) region-by-pool block of
    :func:`pool_cosines` (or a column subset of one, positives first) and
    ``global_scores`` the (B, K) positive scores. Each region votes for its
    highest-cosine pool slot, ties going to the lowest slot. Per image,
    positives keep the voted ones and negatives drop them, each side cycled
    back to K rows in its original order; a side with no survivors falls
    back to every positive, or to the last (lowest-ranked) negative.
    """
    b, _, pool = cosines.shape
    k = pool // 2
    rows = np.arange(b)[:, None]
    retrieved = np.zeros((b, pool), dtype=bool)
    retrieved[rows, cosines.argmax(axis=-1)] = True

    pos_keep = retrieved[:, :k]
    pos_fallback = ~pos_keep.any(axis=-1)
    pos_keep = pos_keep | pos_fallback[:, None]
    neg_keep = ~retrieved[:, k:]
    neg_fallback = ~neg_keep.any(axis=-1)
    neg_keep[neg_fallback, -1] = True

    positive_indices = _cycle_kept(pos_keep)
    best = cosines[:, :, :k].max(axis=1)[rows, positive_indices]
    weights, clamped = _weights_from(best, global_scores[rows, positive_indices], normalize)
    return BatchSelection(
        positive_indices=positive_indices,
        negative_indices=_cycle_kept(neg_keep),
        weights=weights,
        retrieved=retrieved,
        positive_fallback=pos_fallback,
        negative_fallback=neg_fallback,
        clamped=clamped,
    )


def apply_uasr(instance: ContrastiveInstance, normalize: bool = True) -> UasrResult:
    """Run retrieval, selection, and re-weighting on one instance.

    The single-image case of :func:`select_batch`; warns once if any
    global score was clamped.
    """
    cos = pool_cosines(instance.regions, instance.positives, instance.negatives)
    sel = select_batch(cos[None], instance.global_scores[None], normalize)
    warn_clamped(sel.clamped)
    positive_indices = sel.positive_indices[0]
    negative_indices = sel.negative_indices[0]
    return UasrResult(
        positives_filtered=instance.positives[positive_indices],
        negatives_filtered=instance.negatives[negative_indices],
        weights=sel.weights[0],
        retrieved_set=np.flatnonzero(sel.retrieved[0]),
        positive_indices=positive_indices,
        negative_indices=negative_indices,
        positive_fallback=bool(sel.positive_fallback[0]),
        negative_fallback=bool(sel.negative_fallback[0]),
    )
