"""Relative contrastive objectives over region and caption contexts.

Each positive (top-ranked) tag is contrasted against the full set of
negative (lower-ranked) tags through the attention compatibility score;
positives never contrast against each other. The cross-modality loss uses
image regions as the context, the inner-modality loss uses noun caption
words. The weighted variants scale each positive's term by a confidence
weight q > 0.

All losses are computed through log-sum-exp so large compatibility values
cannot overflow.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .core import ContrastiveInstance, as_matrix, compatibility
from .errors import DimensionError, EmptyContextError, InvalidWeightError

if TYPE_CHECKING:
    from .uasr import UasrResult

__all__ = [
    "LossBreakdown",
    "cross_modality_loss",
    "inner_modality_loss",
    "weighted_cross_loss",
    "weighted_inner_loss",
    "total_loss",
]


def nll_terms(phi_pos: np.ndarray, phi_neg: np.ndarray) -> np.ndarray:
    """Per-positive -log softmax terms, one per positive tag.

    term[n] = -log( exp(phi_pos[n]) / (exp(phi_pos[n]) + sum_l exp(phi_neg[l])) )
    evaluated as logsumexp([phi_pos[n], phi_neg...]) - phi_pos[n]. Leading
    axes, shared by both arguments, are batch axes.
    """
    wide = phi_pos.shape + phi_neg.shape[-1:]
    stacked = np.concatenate(
        [phi_pos[..., None], np.broadcast_to(phi_neg[..., None, :], wide)], axis=-1
    )
    m = stacked.max(axis=-1, keepdims=True)
    lse = m[..., 0] + np.log(np.exp(stacked - m).sum(axis=-1))
    return lse - phi_pos


def _check_pair_shapes(contexts, positives, negatives, context_name: str):
    contexts = as_matrix(contexts, context_name)
    positives = as_matrix(positives, "positives")
    negatives = as_matrix(negatives, "negatives")
    if positives.shape != negatives.shape:
        raise DimensionError(
            f"positives {positives.shape} and negatives {negatives.shape} differ"
        )
    if positives.shape[1] != contexts.shape[1]:
        raise DimensionError(
            f"tag dim {positives.shape[1]} != {context_name} dim {contexts.shape[1]}"
        )
    return contexts, positives, negatives


def cross_modality_loss(regions, positives, negatives) -> float:
    """Mean -log p(positive beats all negatives) with regions as context."""
    regions, positives, negatives = _check_pair_shapes(
        regions, positives, negatives, "regions"
    )
    phi_p = compatibility(positives, regions)
    phi_n = compatibility(negatives, regions)
    return float(nll_terms(phi_p, phi_n).mean())


def inner_modality_loss(caption_nouns, positives, negatives) -> float:
    """Same contrastive form with noun caption words as the context."""
    caption = np.asarray(caption_nouns, dtype=np.float64)
    if caption.size == 0:
        raise EmptyContextError("inner loss requires at least one caption noun")
    return cross_modality_loss(caption, positives, negatives)


def _check_weights(q, k: int) -> np.ndarray:
    q = np.asarray(q, dtype=np.float64)
    if q.shape != (k,):
        raise DimensionError(f"weights shape {q.shape} must be ({k},)")
    if not np.isfinite(q).all() or (q <= 0.0).any():
        raise InvalidWeightError("weights must be finite and strictly positive")
    return q


def weighted_cross_loss(regions, positives, negatives, weights) -> float:
    """Confidence-weighted negative log-likelihood; q = 1 recovers the unweighted loss."""
    regions, positives, negatives = _check_pair_shapes(
        regions, positives, negatives, "regions"
    )
    q = _check_weights(weights, positives.shape[0])
    phi_p = compatibility(positives, regions)
    phi_n = compatibility(negatives, regions)
    return float((q * nll_terms(phi_p, phi_n)).mean())


def weighted_inner_loss(caption_nouns, positives, negatives, weights) -> float:
    """Weighted inner-modality loss with caption nouns as context."""
    caption = np.asarray(caption_nouns, dtype=np.float64)
    if caption.size == 0:
        raise EmptyContextError("inner loss requires at least one caption noun")
    return weighted_cross_loss(caption, positives, negatives, weights)


@dataclass
class LossBreakdown:
    """Cross/inner contrastive losses and their weighted combination."""

    cross: float
    inner: float
    total: float
    lambda_cross: float
    lambda_inner: float


def gather_filtered(instance: ContrastiveInstance, uasr: "UasrResult | None"):
    """Resolve the (positives, negatives, weights) triple a loss should see.

    With a selection result, rows are re-gathered from the instance by the
    stored source indices so the loss always reflects the instance's
    current embeddings; weights stay the frozen selection-time values.
    """
    if uasr is None:
        return instance.positives, instance.negatives, None
    wp = instance.positives[uasr.positive_indices]
    wn = instance.negatives[uasr.negative_indices]
    return wp, wn, uasr.weights


def total_loss(
    instance: ContrastiveInstance,
    uasr: "UasrResult | None" = None,
    lambda_cross: float = 1.0,
    lambda_inner: float = 1.0,
) -> LossBreakdown:
    """Combined objective lambda_cross * cross + lambda_inner * inner.

    A zero lambda skips (and reports 0 for) its term; the inner term is
    also skipped when the instance has no caption nouns.
    """
    if lambda_cross < 0.0 or lambda_inner < 0.0:
        raise InvalidWeightError("lambda weights must be non-negative")
    wp, wn, q = gather_filtered(instance, uasr)

    cross = 0.0
    if lambda_cross > 0.0:
        if q is None:
            cross = cross_modality_loss(instance.regions, wp, wn)
        else:
            cross = weighted_cross_loss(instance.regions, wp, wn, q)

    inner = 0.0
    if lambda_inner > 0.0 and instance.num_caption_nouns > 0:
        if q is None:
            inner = inner_modality_loss(instance.caption_nouns, wp, wn)
        else:
            inner = weighted_inner_loss(instance.caption_nouns, wp, wn, q)

    total = lambda_cross * cross + lambda_inner * inner
    return LossBreakdown(
        cross=cross,
        inner=inner,
        total=total,
        lambda_cross=lambda_cross,
        lambda_inner=lambda_inner,
    )
