"""Relative contrastive objectives over region and caption contexts.

Each positive (top-ranked) tag is contrasted against the full set of
negative (lower-ranked) tags through the attention compatibility score;
positives never contrast against each other. The cross-modality loss uses
image regions as the context, the inner-modality loss uses noun caption
words; either one may scale each positive's term by a confidence weight
q > 0.

One kernel computes every loss: :func:`batch_loss` over a leading batch
axis, with its gradients. :func:`total_loss` is its one-image case, a
batch of one. All losses are computed through log-sum-exp so large
compatibility values cannot overflow.

Short reductions fold column by column, with numpy's results (see
:mod:`rca.core`). The log-sum-exp takes its maximum as the positive's
against its negatives' maximum, exact in any order, and adds its exp
terms left to right from +0.0, the positive first, then each negative,
at every K. From K + 1 = 8 on that is not numpy's pairwise sum of a
contiguous row; it is the order the pinned losses and goldens hold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    ContrastiveInstance,
    _fold_sum,
    _max_last,
    _sum_last,
    compat_backward,
    compat_forward,
)
from .errors import InvalidWeightError
from .uasr import UasrResult, check_selection

__all__ = [
    "GradientBundle",
    "LossBreakdown",
    "batch_loss",
    "total_loss",
]


def nll_terms(phi_pos: np.ndarray, phi_neg: np.ndarray) -> np.ndarray:
    """Per-positive -log softmax terms, one per positive tag.

    term[n] = -log( exp(phi_pos[n]) / (exp(phi_pos[n]) + sum_l exp(phi_neg[l])) )
    evaluated as logsumexp([phi_pos[n], phi_neg...]) - phi_pos[n]. Leading
    axes, shared by both arguments, are batch axes.
    """
    m = np.maximum(phi_pos, _max_last(phi_neg)[..., None])
    e_neg = np.exp(phi_neg[..., None, :] - m[..., None])
    e = [np.exp(phi_pos - m)] + [e_neg[..., l] for l in range(e_neg.shape[-1])]
    lse = m + np.log(_fold_sum(e))
    return lse - phi_pos


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
    loss = _sum_last(terms if weights is None else weights * terms) / terms.shape[-1]
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


def _from_zero(terms, like):
    """``terms`` added one by one onto a zero table shaped like ``like``.

    Built as ``0.0 + terms[0] + terms[1]``, so a -0.0 reads +0.0 just as
    on the zero table; without terms, the zero table itself.
    """
    return _fold_sum(terms) if terms else np.zeros_like(like)


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
    :class:`ContrastiveInstance` and :func:`rca.uasr.check_selection`
    check them at the boundary.
    """
    if not (0.0 <= lambda_cross < math.inf and 0.0 <= lambda_inner < math.inf):
        raise InvalidWeightError("lambda weights must be finite and non-negative")
    k = positives.shape[-2]
    cross = inner = np.zeros(positives.shape[0])
    g_cross = g_inner = None
    if lambda_cross > 0.0:
        cross, g_cross = _pair_block(
            regions, positives, negatives, weights, lambda_cross / k, with_grad
        )
    if lambda_inner > 0.0 and caption_nouns.shape[-2] > 0:
        inner, g_inner = _pair_block(
            caption_nouns, positives, negatives, weights, lambda_inner / k, with_grad
        )
    if not with_grad:
        return cross, inner, None
    ran = [g for g in (g_cross, g_inner) if g is not None]
    return cross, inner, GradientBundle(
        d_regions=_from_zero([] if g_cross is None else [g_cross[2]], regions),
        d_positives=_from_zero([g[0] for g in ran], positives),
        d_negatives=_from_zero([g[1] for g in ran], negatives),
        d_caption_nouns=_from_zero([] if g_inner is None else [g_inner[2]], caption_nouns),
    )


@dataclass
class LossBreakdown:
    """Cross/inner contrastive losses and their weighted combination."""

    cross: float
    inner: float
    total: float


def _selected_loss(regions, positives, negatives, caption_nouns, uasr,
                   lambda_cross, lambda_inner, with_grad):
    """Tables with a leading batch axis through :func:`batch_loss`, under one selection.

    With a selection result, every row of the batch sees the same
    selection: its tag rows re-gathered by the stored source indices, so
    the loss always reflects the current embeddings, and its frozen
    selection-time weights. The selection is checked against the tables'
    K first (:func:`rca.uasr.check_selection`). Returns ``(total, cross,
    inner, grads)``: (B,) arrays with total = lambda_cross * cross +
    lambda_inner * inner, and the gradients of the rows the loss saw.
    """
    q = None
    if uasr is not None:
        check_selection(uasr, positives.shape[-2])
        # take keeps each image's rows C-contiguous, as batch_loss's bitwise
        # property needs; a fancy index behind a slice can lay the batch axis
        # innermost
        positives = np.take(positives, uasr.positive_indices, axis=-2)
        negatives = np.take(negatives, uasr.negative_indices, axis=-2)
        q = np.broadcast_to(uasr.weights, positives.shape[:-1])
    cross, inner, grads = batch_loss(
        regions, positives, negatives, caption_nouns, q, lambda_cross, lambda_inner, with_grad
    )
    return lambda_cross * cross + lambda_inner * inner, cross, inner, grads


def total_loss(
    instance: ContrastiveInstance,
    uasr: UasrResult | None = None,
    lambda_cross: float = 1.0,
    lambda_inner: float = 1.0,
) -> LossBreakdown:
    """Combined objective lambda_cross * cross + lambda_inner * inner.

    A zero lambda skips (and reports 0 for) its term; the inner term is
    also skipped when the instance has no caption nouns. The instance is
    validated when it is built and the selection result against it here;
    then this is :func:`batch_loss` on a batch of one, the path
    :func:`rca.gradients.loss_and_grad` takes too.
    """
    total, cross, inner, _ = _selected_loss(
        instance.regions[None], instance.positives[None], instance.negatives[None],
        instance.caption_nouns[None], uasr, lambda_cross, lambda_inner, with_grad=False,
    )
    return LossBreakdown(float(cross[0]), float(inner[0]), float(total[0]))
