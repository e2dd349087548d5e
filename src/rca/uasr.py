"""Uncertainty-aware selection and re-weighting of noisy contrastive tags.

Ranked tag lists are noisy: a relevant tag can land on the negative side
(false negative) and an irrelevant one on the positive side (false
positive). Each region votes for its most cosine-correlated tag; the set H
of winners corroborates tags that some region actually depicts. Positives
survive only if corroborated (Wp & H), negatives are dropped when
corroborated (Wn - H), and each side is cyclically oversampled back to K.
Surviving positives are weighted by q = exp(best region cosine) * p(t),
combining local (region-tag) and global (image-tag) evidence.

:func:`select_batch` is the one implementation of this rule, over a
stacked block of region-by-pool cosines (:func:`pool_cosines`); the
trainer selects a whole block per call, and :func:`apply_uasr` is the
one-image case. A :class:`UasrResult` holds the selected rows by index;
the loss gathers the embeddings it sees from them.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .core import ContrastiveInstance
from .errors import DegenerateEmbeddingError, ValidationError

__all__ = [
    "UasrResult",
    "warn_clamped",
    "BatchSelection",
    "pool_cosines",
    "select_batch",
    "apply_uasr",
]

SCORE_FLOOR = 1e-6  # non-positive global cosines are clamped here


@dataclass
class UasrResult:
    """Selected rows, per-positive weights, and the retrieval bookkeeping.

    Index fields refer to rows of the source instance; ``retrieved_set``
    holds indices into the concatenated positives+negatives pool, so a
    negative with source index i occupies pool slot K + i. Fallback flags
    record the degenerate cases where a side had no survivors (positives
    revert to the originals; negatives keep only the lowest-ranked entry).
    """

    weights: np.ndarray             # (K,)
    retrieved_set: np.ndarray       # pool indices, sorted ascending
    positive_indices: np.ndarray    # (K,) rows into instance.positives
    negative_indices: np.ndarray    # (K,) rows into instance.negatives
    positive_fallback: bool = False
    negative_fallback: bool = False

    def __post_init__(self):
        k = self.positive_indices.shape[0]
        if self.negative_indices.shape != (k,) or self.weights.shape != (k,):
            raise ValidationError("index arrays and weights must all have K entries")
        if not np.isfinite(self.weights).all() or (self.weights <= 0.0).any():
            raise ValidationError("weights must be positive and finite")
        if not self.negative_fallback:
            pool = set((self.negative_indices + k).tolist())
            if pool & set(self.retrieved_set.tolist()):
                raise ValidationError("kept negatives must not appear in the retrieved set")


def _check_norms(*norms: np.ndarray, image: str | None = None) -> None:
    """Raise :class:`DegenerateEmbeddingError` unless every row norm is positive and finite.

    ``image`` names the record in the message.
    """
    prefix = "" if image is None else f"image {image!r}: "
    if any((n == 0.0).any() for n in norms):
        raise DegenerateEmbeddingError(f"{prefix}cosine undefined for zero-norm rows")
    if not all(np.isfinite(n).all() for n in norms):
        raise DegenerateEmbeddingError(
            f"{prefix}cosine undefined for rows whose norm overflows"
        )


def pool_cosines(regions, positives, negatives) -> np.ndarray:
    """Region-by-pool cosines, shape (..., R, 2K): pool slots are the positives, then the negatives.

    Leading axes are batch axes. A row whose norm is zero or overflows has
    no cosine and raises :class:`DegenerateEmbeddingError`.
    """
    pool = np.concatenate([positives, negatives], axis=-2)
    rn = np.linalg.norm(regions, axis=-1)
    pn = np.linalg.norm(pool, axis=-1)
    _check_norms(rn, pn)
    return (regions @ pool.swapaxes(-1, -2)) / (rn[..., :, None] * pn[..., None, :])


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
    return UasrResult(
        weights=sel.weights[0],
        retrieved_set=np.flatnonzero(sel.retrieved[0]),
        positive_indices=sel.positive_indices[0],
        negative_indices=sel.negative_indices[0],
        positive_fallback=bool(sel.positive_fallback[0]),
        negative_fallback=bool(sel.negative_fallback[0]),
    )
