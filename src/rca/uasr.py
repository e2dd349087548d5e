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
stacked block of region-by-pool cosines (:func:`pool_cosines`), and
:func:`apply_uasr` is the one-image case. Training and the corpus CLI
both select many images per call, through the trainer's corpus type.
Both functions return a :class:`UasrResult`, which holds the selected
rows by index with the batch axes kept; its :meth:`~UasrResult.row` is
one image's selection. The losses gather the embeddings they see from
those indices, after :func:`check_selection` has compared the selection
with the instance. :func:`pool_cosines` rejects a region or pool row
with no cosine through :func:`rca.core.check_norms`, the one such rule
that ranking shares, naming the record and the row.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, fields

import numpy as np

from .core import ContrastiveInstance, _sum_last, check_norms
from .errors import ValidationError

__all__ = [
    "UasrResult",
    "check_selection",
    "warn_clamped",
    "pool_cosines",
    "select_batch",
    "apply_uasr",
]

SCORE_FLOOR = 1e-6  # non-positive global cosines are clamped here


@dataclass
class UasrResult:
    """Selected rows, per-positive weights, and the retrieval bookkeeping.

    Leading axes are batch axes (B images from :func:`select_batch`);
    :meth:`row` is one image's selection. Indices are rows of each image's
    own positive or negative side; ``retrieved`` marks the voted pool
    slots, positives then negatives, so negative i is slot K + i. A
    fallback flag marks a side with no survivors (positives revert to the
    originals; negatives keep only the lowest-ranked entry). ``clamped``
    counts, with oversampling multiplicity, the global scores the weights
    clamped to ``SCORE_FLOOR``. Unchecked: see :func:`check_selection`.
    """

    positive_indices: np.ndarray    # (..., K) rows into the positives
    negative_indices: np.ndarray    # (..., K) rows into the negatives
    weights: np.ndarray             # (..., K)
    retrieved: np.ndarray           # (..., 2K) bool
    positive_fallback: np.ndarray | bool = False  # (...)
    negative_fallback: np.ndarray | bool = False  # (...)
    clamped: np.ndarray | int = 0                 # (...)

    @property
    def retrieved_set(self) -> np.ndarray:
        """One image's retrieved pool slots, ascending."""
        return np.flatnonzero(self.retrieved)

    def row(self, b: int) -> "UasrResult":
        """Image ``b``'s selection, its batch axis dropped."""
        return UasrResult(*(getattr(self, f.name)[b] for f in fields(self)))


def check_selection(uasr: UasrResult, k: int) -> None:
    """Raise :class:`ValidationError` unless ``uasr`` fits one image with K rows per side.

    Every index must be an integer in [0, K), every weight positive and
    finite, and no kept negative retrieved unless the negatives fell back.
    The losses check each selection they are given with this.
    """
    pos, neg = np.asarray(uasr.positive_indices), np.asarray(uasr.negative_indices)
    weights, retrieved = np.asarray(uasr.weights), np.asarray(uasr.retrieved)
    if ({pos.shape, neg.shape, weights.shape} != {(k,)} or retrieved.shape != (2 * k,)
            or retrieved.dtype != bool):
        raise ValidationError(
            f"selection must have K={k} indices and weights per side and a "
            f"{2 * k}-slot boolean retrieved mask, as the instance has"
        )
    for idx in (pos, neg):
        if not np.issubdtype(idx.dtype, np.integer) or ((idx < 0) | (idx >= k)).any():
            raise ValidationError(f"selection indices must be integers in [0, {k})")
    if not np.isfinite(weights).all() or (weights <= 0.0).any():
        raise ValidationError("weights must be positive and finite")
    if not uasr.negative_fallback and retrieved[k + neg].any():
        raise ValidationError("kept negatives must not appear in the retrieved set")


def pool_cosines(regions, positives, negatives, image: str | None = None) -> np.ndarray:
    """Region-by-pool cosines, shape (..., R, 2K): pool slots are the positives, then the negatives.

    Leading axes are batch axes. A row whose norm is zero or overflows has
    no cosine: :func:`~rca.core.check_norms` rejects the first such row,
    regions before pool rows, and names it by its place in its image, as
    ``region 0`` or ``negative 1``; ``image`` names the record.
    """
    pool = np.concatenate([positives, negatives], axis=-2)
    with np.errstate(over="ignore"):  # an overflowing norm reads inf, rejected below
        rn, pn = np.linalg.norm(regions, axis=-1), np.linalg.norm(pool, axis=-1)
    prefix = "" if image is None else f"image {image!r}: "
    k = positives.shape[-2]
    check_norms(rn, lambda i: f"{prefix}region {i}")
    check_norms(pn, lambda i: f"{prefix}positive {i}" if i < k else f"{prefix}negative {i - k}")
    return (regions @ pool.swapaxes(-1, -2)) / (rn[..., :, None] * pn[..., None, :])


def _weights_from(best_cosine: np.ndarray, scores: np.ndarray, normalize: bool):
    """Weights q = exp(best_cosine) * max(score, floor) along the last axis, and the clamp counts."""
    clamped = (scores <= 0.0).sum(axis=-1)
    q = np.exp(best_cosine) * np.maximum(scores, SCORE_FLOOR)
    if normalize:
        q = q / (_sum_last(q) / q.shape[-1])[..., None]
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


def _cycle_kept(keep: np.ndarray) -> np.ndarray:
    """Per row, the kept column indices in ascending order, repeated cyclically to fill the row."""
    b, k = keep.shape
    cols = np.arange(k)
    kept_first = np.sort(cols + k * ~keep, axis=-1)
    slots = cols % keep.sum(axis=-1, keepdims=True)
    return kept_first[np.arange(b)[:, None], slots]


def select_batch(cosines: np.ndarray, global_scores: np.ndarray, normalize: bool = True) -> UasrResult:
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
    return UasrResult(positive_indices, _cycle_kept(neg_keep), weights, retrieved,
                      pos_fallback, neg_fallback, clamped)


def apply_uasr(instance: ContrastiveInstance, normalize: bool = True) -> UasrResult:
    """Run retrieval, selection, and re-weighting on one instance.

    The single-image case of :func:`select_batch`; warns once if any
    global score was clamped.
    """
    cos = pool_cosines(instance.regions, instance.positives, instance.negatives)
    sel = select_batch(cos[None], instance.global_scores[None], normalize).row(0)
    warn_clamped(int(sel.clamped))
    return sel
