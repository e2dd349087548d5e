"""Relative contrastive objectives over region and caption contexts.

Each positive (top-ranked) tag is contrasted against the full set of
negative (lower-ranked) tags through the attention compatibility score;
positives never contrast against each other. The cross-modality loss uses
image regions as the context, the inner-modality loss uses noun caption
words; either one may scale each positive's term by a confidence weight
q > 0.

One kernel computes every loss: :func:`batch_loss` over a leading batch
axis, with its gradients. It takes the positives and negatives stacked
as one ``tags`` array, so each context (regions, caption nouns) takes one
compatibility pass, forward and backward, for both sides. One pass calls
it, :func:`corpus_losses`, over images of a :class:`Corpus` under the tag
rows :func:`corpus_selection` picks, gathering a block's tag rows once:
training and ``rca loss`` over their corpora, :func:`total_loss` and the
gradient functions over a one-image corpus. All losses are
computed through log-sum-exp so large compatibility values cannot
overflow.

Short reductions fold column by column, with numpy's results (see
:mod:`rca.core`). The log-sum-exp takes its maximum as the positive's
against its negatives' maximum, exact in any order, and adds its exp
terms left to right from +0.0, the positive first, then each negative,
at every K. From K + 1 = 8 on that is not numpy's pairwise sum of a
contiguous row; it is the order the pinned losses and goldens hold.
"""

from __future__ import annotations

import math
import typing
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
from .uasr import UasrResult, check_selection, select_corpus

__all__ = [
    "Corpus",
    "GradientBundle",
    "LossBreakdown",
    "batch_loss",
    "corpus_losses",
    "corpus_selection",
    "total_loss",
]

BLOCK = 256  # images per loss pass in corpus_losses


def nll_terms(phi_pos: np.ndarray, phi_neg: np.ndarray) -> np.ndarray:
    """Per-positive -log softmax terms, one per positive tag.

    term[n] = -log( exp(phi_pos[n]) / (exp(phi_pos[n]) + sum_l exp(phi_neg[l])) )
    evaluated as logsumexp([phi_pos[n], phi_neg...]) - phi_pos[n]. Leading
    axes, shared by both arguments, are batch axes.
    """
    m = np.maximum(phi_pos, _max_last(phi_neg)[..., None])
    e_neg = phi_neg[..., None, :] - m[..., None]
    np.exp(e_neg, out=e_neg)
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


def _pair_block(contexts, tags, weights, scale, with_grad):
    """Per-image mean of q_n * ell_n over one context block, and the gradients of scale times its sum.

    ``tags`` (2, B, K, d) holds the positives, then the negatives; one
    compatibility pass scores both against the shared contexts.
    """
    phi, cache = compat_forward(tags, contexts)
    phi_p, phi_n = phi
    terms = nll_terms(phi_p, phi_n)
    loss = _sum_last(terms if weights is None else weights * terms) / terms.shape[-1]
    if not with_grad:
        return loss, None

    # z is within an ulp of the true log-partition; plenty for gradients
    z = phi_p + terms
    p = np.exp(-terms)
    r = phi_n[..., None, :] - z[..., :, None]
    np.exp(r, out=r)

    q = np.ones_like(phi_p) if weights is None else weights
    g = np.empty_like(phi)
    g[0] = scale * q * (p - 1.0)
    g[1] = scale * (q[..., None, :] @ r)[..., 0, :]

    d_tags, b = compat_backward(g, tags, contexts, phi, cache)
    d_contexts = b[0].swapaxes(-1, -2) @ tags[0]
    d_contexts += b[1].swapaxes(-1, -2) @ tags[1]
    return loss, (d_tags, d_contexts)


def _from_zero(terms, like):
    """``terms`` added one by one onto a zero table shaped like ``like``.

    Built as ``0.0 + terms[0] + terms[1]``, so a -0.0 reads +0.0 just as
    on the zero table; without terms, the zero table itself.
    """
    return _fold_sum(terms) if terms else np.zeros_like(like)


def batch_loss(
    regions: np.ndarray,
    tags: np.ndarray,
    caption_nouns: np.ndarray,
    weights: np.ndarray | None = None,
    lambda_cross: float = 1.0,
    lambda_inner: float = 1.0,
    with_grad: bool = True,
):
    """Per-image cross and inner losses of a batch, and their gradients.

    Arrays carry a batch axis B: regions (B, R, d), tags (2, B, K, d), the
    positives stacked on the negatives, caption_nouns (B, P, d) with P
    possibly 0, weights (B, K) or None. Each context (regions, then
    caption nouns) takes one compatibility pass over both sides of
    ``tags``, and each side's results are bitwise those of a pass over it
    alone; the two sides' context gradients add side 0's then side 1's. A
    zero lambda or P = 0 skips its term, which then reads 0. Returns
    ``(cross, inner, grads)``: (B,) loss arrays and a
    :class:`GradientBundle` of each image's gradients of its total loss,
    or ``None`` without ``with_grad``; its ``d_positives`` and
    ``d_negatives`` are the two sides of one stacked array. Each image's
    results are bitwise equal to those of a batch holding that image
    alone, provided each image's rows are C-contiguous (a broadcast batch
    axis is fine; on strided rows matmul sums in another order). Arrays
    are not validated; :class:`ContrastiveInstance` and
    :func:`rca.uasr.check_selection` check them at the boundary, and the
    corpus CLI checks its records.
    """
    if not (0.0 <= lambda_cross < math.inf and 0.0 <= lambda_inner < math.inf):
        raise InvalidWeightError("lambda weights must be finite and non-negative")
    k = tags.shape[-2]
    cross = inner = np.zeros(tags.shape[1])
    g_cross = g_inner = None
    if lambda_cross > 0.0:
        cross, g_cross = _pair_block(regions, tags, weights, lambda_cross / k, with_grad)
    if lambda_inner > 0.0 and caption_nouns.shape[-2] > 0:
        inner, g_inner = _pair_block(caption_nouns, tags, weights, lambda_inner / k, with_grad)
    if not with_grad:
        return cross, inner, None
    d_pos, d_neg = _from_zero([g[0] for g in (g_cross, g_inner) if g is not None], tags)
    return cross, inner, GradientBundle(
        d_regions=_from_zero([] if g_cross is None else [g_cross[1]], regions),
        d_positives=d_pos,
        d_negatives=d_neg,
        d_caption_nouns=_from_zero([] if g_inner is None else [g_inner[1]], caption_nouns),
    )


@dataclass
class LossBreakdown:
    """Cross/inner contrastive losses and their weighted combination."""

    cross: float
    inner: float
    total: float


@dataclass
class Corpus:
    """Images on the leading axis, as rows of a tag, a caption and a region table.

    Each image contrasts K positive tags (by descending global score) with
    K negatives, in the context of its R regions and of its P caption
    nouns: rows of the tag, region and caption tables. ``cosines`` are the
    frozen region-by-pool cosines (positives, then negatives) selection
    reads; None where no selection runs.
    """

    positive_concepts: np.ndarray  # (n, K)
    negative_concepts: np.ndarray  # (n, K)
    caption_concepts: np.ndarray   # (n, P)
    region_rows: np.ndarray        # (n, R)
    global_scores: np.ndarray      # (n, K) the positives' global scores
    cosines: np.ndarray | None     # (n, R, 2K)

    def __len__(self) -> int:
        return self.positive_concepts.shape[0]


class _Selection(typing.NamedTuple):
    """The tag concepts some images contrast, with their weights and clamp counts."""

    positive_concepts: np.ndarray  # (b, K)
    negative_concepts: np.ndarray  # (b, K)
    weights: np.ndarray | None     # (b, K), None without selection
    clamped: np.ndarray            # (b,) global scores clamped, with multiplicity

    def take(self, part: slice) -> "_Selection":
        """The rows in the slice ``part``."""
        return _Selection(*(None if f is None else f[part] for f in self))


def corpus_selection(corpus, images, enable, normalize, subsets=None) -> _Selection:
    """The tag-table rows ``images`` contrast, selected if ``enable``.

    Selection and ``subsets`` as in :func:`rca.uasr.select_corpus`.
    """
    rows = np.arange(len(images))[:, None]
    pos_concepts = corpus.positive_concepts[images]
    neg_concepts = corpus.negative_concepts[images]
    if subsets is not None:
        pos_concepts = pos_concepts[rows, subsets[:, 0]]
        neg_concepts = neg_concepts[rows, subsets[:, 1]]
    if not enable:
        return _Selection(pos_concepts, neg_concepts, None, np.zeros(len(images), dtype=np.int64))
    sel = select_corpus(corpus, images, normalize, subsets)
    return _Selection(pos_concepts[rows, sel.positive_indices],
                      neg_concepts[rows, sel.negative_indices], sel.weights, sel.clamped)


def corpus_losses(corpus, tables, images, sel, lambdas, with_grad=False):
    """Per-image loss table of ``images`` under ``sel``, ``BLOCK`` images per pass.

    ``tables`` are the (tag, caption, region) tables the corpus rows
    index; ``lambdas`` is ``(lambda_cross, lambda_inner)``. Returns ``(table, grads)``: ``table`` (b, 3) holds each
    image's cross, inner and total ``lambda_cross * cross + lambda_inner *
    inner`` losses; being C-ordered, its ``sum(axis=0)`` adds them row by
    row, in image order. With ``with_grad``, ``grads`` holds the gradient
    rows in image order: tag (b, 2K, d) for ``sel.positive_concepts`` then
    ``sel.negative_concepts``, caption (b, P, d) for
    ``corpus.caption_concepts[images]`` and region (b, R, d) for
    ``corpus.region_rows[images]``. Else it is None.
    """
    tag_table, caption_table, region_table = tables
    table = np.empty((len(images), 3))
    grads = []
    for start in range(0, len(images), BLOCK):
        part = slice(start, start + BLOCK)
        block, block_sel = images[part], sel.take(part)
        table[part, 0], table[part, 1], g = batch_loss(
            region_table[corpus.region_rows[block]],
            tag_table[np.stack([block_sel.positive_concepts, block_sel.negative_concepts])],
            caption_table[corpus.caption_concepts[block]],
            block_sel.weights,
            *lambdas,
            with_grad=with_grad,
        )
        if with_grad:
            grads.append((np.concatenate([g.d_positives, g.d_negatives], axis=1),
                          g.d_caption_nouns, g.d_regions))
    table[:, 2] = lambdas[0] * table[:, 0] + lambdas[1] * table[:, 1]
    return table, tuple(np.concatenate(r) for r in zip(*grads)) if with_grad else None


def one_image_corpus(instance: ContrastiveInstance, uasr: UasrResult | None):
    """An instance as ``(corpus, sel, tables)`` of one image, for :func:`corpus_losses`.

    The tag table is the positives, then the negatives; the caption and
    region tables are the instance's own. A selection result, checked
    against the instance by :func:`rca.uasr.check_selection`, becomes the
    tag rows it picks and its frozen weights.
    """
    k = instance.positives.shape[0]
    pos, neg = np.arange(k)[None], k + np.arange(k)[None]
    corpus = Corpus(pos, neg, np.arange(len(instance.caption_nouns))[None],
                    np.arange(len(instance.regions))[None], instance.global_scores[None], None)
    sel = _Selection(pos, neg, None, np.zeros(1, dtype=np.int64))
    if uasr is not None:
        check_selection(uasr, k)
        sel = _Selection(pos[:, uasr.positive_indices], neg[:, uasr.negative_indices],
                         np.asarray(uasr.weights)[None], sel.clamped)
    tag_table = np.concatenate([instance.positives, instance.negatives])
    return corpus, sel, (tag_table, instance.caption_nouns, instance.regions)


def total_loss(
    instance: ContrastiveInstance,
    uasr: UasrResult | None = None,
    lambda_cross: float = 1.0,
    lambda_inner: float = 1.0,
) -> LossBreakdown:
    """Combined objective lambda_cross * cross + lambda_inner * inner.

    A zero lambda skips (and reports 0 for) its term; the inner term is
    also skipped when the instance has no caption nouns. The instance is
    validated when it is built and the selection result against it here,
    by :func:`one_image_corpus`, the path :func:`rca.gradients.loss_and_grad`
    takes too.
    """
    corpus, sel, tables = one_image_corpus(instance, uasr)
    table, _ = corpus_losses(corpus, tables, np.arange(1), sel, (lambda_cross, lambda_inner))
    return LossBreakdown(*table[0].tolist())
