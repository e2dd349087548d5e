"""Relative contrastive objectives over region and caption contexts.

Each positive (top-ranked) tag is contrasted against the full set of
negative (lower-ranked) tags through the attention compatibility score;
positives never contrast against each other. The cross-modality loss uses
image regions as the context, the inner-modality loss uses noun caption
words; :func:`pair_loss` is either one, optionally scaling each
positive's term by a confidence weight q > 0.

One kernel computes every loss: :func:`batch_loss` over a leading batch
axis, with its gradients. :func:`pair_loss` and :func:`total_loss` are
validated one-image front doors over it. All losses are computed through
log-sum-exp so large compatibility values cannot overflow.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .core import ContrastiveInstance, as_matrix, compat_backward, compat_forward
from .errors import DimensionError, EmptyContextError, InvalidWeightError

if TYPE_CHECKING:
    from .uasr import UasrResult

__all__ = [
    "GradientBundle",
    "LossBreakdown",
    "pair_loss",
    "batch_loss",
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


def _check_weights(q, k: int) -> np.ndarray:
    q = np.asarray(q, dtype=np.float64)
    if q.shape != (k,):
        raise DimensionError(f"weights shape {q.shape} must be ({k},)")
    if not np.isfinite(q).all() or (q <= 0.0).any():
        raise InvalidWeightError("weights must be finite and strictly positive")
    return q


@dataclass
class GradientBundle:
    """Gradients of the total loss w.r.t. each embedding table of an instance.

    :func:`batch_loss` fills it with a leading batch axis on every table.
    """

    d_regions: np.ndarray        # (R, d)
    d_positives: np.ndarray      # (K, d)
    d_negatives: np.ndarray      # (K, d)
    d_caption_nouns: np.ndarray  # (P, d)

    def as_dict(self) -> dict[str, np.ndarray]:
        return {
            "regions": self.d_regions,
            "positives": self.d_positives,
            "negatives": self.d_negatives,
            "caption_nouns": self.d_caption_nouns,
        }


def _pair_block(contexts, positives, negatives, weights, scale, with_grad):
    """Per-image mean of q_n * ell_n over one context block, and the gradients of scale times its sum."""
    phi_p, cache_p = compat_forward(positives, contexts)
    phi_n, cache_n = compat_forward(negatives, contexts)
    terms = nll_terms(phi_p, phi_n)
    loss = (terms if weights is None else weights * terms).mean(axis=-1)
    if not with_grad:
        return loss, None

    # z is within an ulp of the true log-partition; plenty for gradients
    z = phi_p + terms
    p = np.exp(-terms)
    r = np.exp(phi_n[..., None, :] - z[..., :, None])

    q = np.ones_like(phi_p) if weights is None else weights
    g_pos = scale * q * (p - 1.0)
    g_neg = scale * (q[..., None, :] @ r)[..., 0, :]

    d_pos, d_ctx_p = compat_backward(g_pos, positives, contexts, phi_p, cache_p)
    d_neg, d_ctx_n = compat_backward(g_neg, negatives, contexts, phi_n, cache_n)
    return loss, (d_pos, d_neg, d_ctx_p + d_ctx_n)


def pair_loss(contexts, positives, negatives, weights=None) -> float:
    """Mean -log p(positive beats all negatives) over one context.

    The context is the image regions for the cross-modality loss, or the
    noun caption words for the inner-modality loss. With ``weights``,
    each positive's term is scaled by its confidence q > 0; all-ones
    weights give the unweighted loss.
    """
    contexts = np.asarray(contexts, dtype=np.float64)
    if contexts.size == 0:
        raise EmptyContextError("contrastive loss requires at least one context row")
    contexts = as_matrix(contexts, "contexts")
    positives = as_matrix(positives, "positives")
    negatives = as_matrix(negatives, "negatives")
    if positives.shape != negatives.shape:
        raise DimensionError(
            f"positives {positives.shape} and negatives {negatives.shape} differ"
        )
    if positives.shape[1] != contexts.shape[1]:
        raise DimensionError(
            f"tag dim {positives.shape[1]} != contexts dim {contexts.shape[1]}"
        )
    if weights is not None:
        weights = _check_weights(weights, positives.shape[0])[None]
    loss, _ = _pair_block(
        contexts[None], positives[None], negatives[None], weights, 1.0, with_grad=False
    )
    return float(loss[0])


def batch_loss(
    regions: np.ndarray,
    positives: np.ndarray,
    negatives: np.ndarray,
    caption_nouns: np.ndarray,
    weights: np.ndarray | None = None,
    lambda_cross: float = 1.0,
    lambda_inner: float = 1.0,
    with_grad: bool = True,
):
    """Per-image cross and inner losses of a batch, and their gradients.

    Arrays carry a leading batch axis B: regions (B, R, d), positives and
    negatives (B, K, d), caption_nouns (B, P, d) with P possibly 0, weights
    (B, K) or None. A zero lambda or P = 0 skips its term, which then
    reads 0. Returns ``(cross, inner, grads)``: (B,) loss arrays and a
    :class:`GradientBundle` of each image's gradients of its total loss,
    or ``None`` without ``with_grad``. Each image's results are bitwise
    equal to those of a batch holding that image alone, provided each
    image's rows are C-contiguous (a broadcast batch axis is fine; on
    strided rows matmul sums in another order). Arrays are not validated;
    :func:`total_loss` and :func:`pair_loss` are the validated front doors.
    """
    if lambda_cross < 0.0 or lambda_inner < 0.0:
        raise InvalidWeightError("lambda weights must be non-negative")
    k = positives.shape[-2]
    cross = inner = np.zeros(positives.shape[0])
    grads = None
    if with_grad:
        grads = GradientBundle(
            d_regions=np.zeros_like(regions),
            d_positives=np.zeros_like(positives),
            d_negatives=np.zeros_like(negatives),
            d_caption_nouns=np.zeros_like(caption_nouns),
        )
    if lambda_cross > 0.0:
        cross, g = _pair_block(
            regions, positives, negatives, weights, lambda_cross / k, with_grad
        )
        if grads is not None:
            grads.d_positives += g[0]
            grads.d_negatives += g[1]
            grads.d_regions += g[2]
    if lambda_inner > 0.0 and caption_nouns.shape[-2] > 0:
        inner, g = _pair_block(
            caption_nouns, positives, negatives, weights, lambda_inner / k, with_grad
        )
        if grads is not None:
            grads.d_positives += g[0]
            grads.d_negatives += g[1]
            grads.d_caption_nouns += g[2]
    return cross, inner, grads


@dataclass
class LossBreakdown:
    """Cross/inner contrastive losses and their weighted combination."""

    cross: float
    inner: float
    total: float
    lambda_cross: float
    lambda_inner: float


def gather_filtered(positives: np.ndarray, negatives: np.ndarray, uasr: "UasrResult | None"):
    """Resolve the (positives, negatives, weights) triple a loss should see.

    With a selection result, rows are re-gathered from the tag tables
    (K, d), or (..., K, d) with leading batch axes, by the stored source
    indices so the loss always reflects the current embeddings; weights
    stay the frozen selection-time values.
    """
    if uasr is None:
        return positives, negatives, None
    # take keeps each image's rows C-contiguous, as batch_loss's bitwise
    # property needs; a fancy index behind a slice can lay the batch axis
    # innermost
    wp = np.take(positives, uasr.positive_indices, axis=-2)
    wn = np.take(negatives, uasr.negative_indices, axis=-2)
    return wp, wn, uasr.weights


def _stacked_loss(regions, positives, negatives, caption_nouns, uasr,
                  lambda_cross, lambda_inner, with_grad):
    """Variants of one instance, stacked on a leading batch axis, through :func:`batch_loss`.

    Every variant sees the same selection: its rows gathered by
    :func:`gather_filtered` and its frozen weights. Returns ``(total,
    cross, inner, grads)``: (B,) arrays with total = lambda_cross * cross
    + lambda_inner * inner, and the gradients of the rows the loss saw.
    """
    wp, wn, q = gather_filtered(positives, negatives, uasr)
    if q is not None:
        q = np.broadcast_to(q, wp.shape[:-1])
    cross, inner, grads = batch_loss(
        regions, wp, wn, caption_nouns, q, lambda_cross, lambda_inner, with_grad
    )
    return lambda_cross * cross + lambda_inner * inner, cross, inner, grads


def _instance_loss(instance, uasr, lambda_cross, lambda_inner, with_grad):
    """One instance through :func:`batch_loss` as a batch of one.

    Returns the :class:`LossBreakdown` and, with ``with_grad``, the
    gradients of the rows the loss saw (still with the batch axis).
    """
    total, cross, inner, grads = _stacked_loss(
        instance.regions[None], instance.positives[None], instance.negatives[None],
        instance.caption_nouns[None], uasr, lambda_cross, lambda_inner, with_grad,
    )
    breakdown = LossBreakdown(
        cross=float(cross[0]),
        inner=float(inner[0]),
        total=float(total[0]),
        lambda_cross=lambda_cross,
        lambda_inner=lambda_inner,
    )
    return breakdown, grads


def total_loss(
    instance: ContrastiveInstance,
    uasr: "UasrResult | None" = None,
    lambda_cross: float = 1.0,
    lambda_inner: float = 1.0,
) -> LossBreakdown:
    """Combined objective lambda_cross * cross + lambda_inner * inner.

    A zero lambda skips (and reports 0 for) its term; the inner term is
    also skipped when the instance has no caption nouns. The instance and
    the selection result are validated when they are built, so this is
    the one-image case of :func:`batch_loss`, the path
    :func:`rca.gradients.loss_and_grad` takes too.
    """
    return _instance_loss(instance, uasr, lambda_cross, lambda_inner, with_grad=False)[0]
