"""Per-image reference for the batched trainer, used as a test oracle.

This is the trainer as it ran before batching: one image at a time, a 2-D
compatibility forward/backward per contrastive block, selection through
:func:`rca.uasr.apply_uasr` on a view of the image's frozen evidence that
holds only the subsampled rows, and four scatter-adds per image. Keep it
slow and literal, so the library's stacked code is checked against an
independent route.
"""

import math

import numpy as np

from rca.core import ContrastiveInstance
from rca.errors import DivergenceError
from rca.losses import nll_terms
from rca.tags import subsample
from rca.trainer import HistoryRecord, initial_state
from rca.uasr import apply_uasr


def compat_forward_2d(tags, contexts):
    t_raw = tags @ contexts.T
    scaled = t_raw / np.sqrt(tags.shape[1])
    shifted = scaled - scaled.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    alpha = e / e.sum(axis=1, keepdims=True)
    ctx = alpha @ contexts
    phi = np.einsum("jd,jd->j", tags, ctx)
    return phi, (t_raw, alpha, ctx)


def compat_backward_2d(g, tags, contexts, phi, cache):
    t_raw, alpha, ctx = cache
    sd = np.sqrt(tags.shape[1])
    m = (alpha * t_raw) @ contexts
    d_tags = g[:, None] * (ctx + (m - phi[:, None] * ctx) / sd)
    b = g[:, None] * alpha * (1.0 + (t_raw - phi[:, None]) / sd)
    return d_tags, b.T @ tags


def pair_block_2d(contexts, positives, negatives, weights, scale):
    phi_p, cache_p = compat_forward_2d(positives, contexts)
    phi_n, cache_n = compat_forward_2d(negatives, contexts)
    terms = nll_terms(phi_p, phi_n)
    loss = float(terms.mean() if weights is None else (weights * terms).mean())
    z = phi_p + terms
    p = np.exp(-terms)
    r = np.exp(phi_n[None, :] - z[:, None])
    q = np.ones_like(phi_p) if weights is None else weights
    g_pos = scale * q * (p - 1.0)
    g_neg = scale * (q @ r)
    d_pos, d_ctx_p = compat_backward_2d(g_pos, positives, contexts, phi_p, cache_p)
    d_neg, d_ctx_n = compat_backward_2d(g_neg, negatives, contexts, phi_n, cache_n)
    return loss, d_pos, d_neg, d_ctx_p + d_ctx_n


def loss_and_grad_2d(regions, positives, negatives, caption_nouns, weights,
                     lambda_cross, lambda_inner):
    """(cross, inner, d_positives, d_negatives, d_regions, d_caption) for one image."""
    k = positives.shape[0]
    d_regions = np.zeros_like(regions)
    d_caption = np.zeros_like(caption_nouns)
    d_pos = np.zeros_like(positives)
    d_neg = np.zeros_like(negatives)
    cross = inner = 0.0
    if lambda_cross > 0.0:
        cross, dp, dn, dc = pair_block_2d(regions, positives, negatives, weights,
                                          lambda_cross / k)
        d_pos += dp
        d_neg += dn
        d_regions += dc
    if lambda_inner > 0.0 and caption_nouns.shape[0] > 0:
        inner, dp, dn, dc = pair_block_2d(caption_nouns, positives, negatives, weights,
                                          lambda_inner / k)
        d_pos += dp
        d_neg += dn
        d_caption += dc
    return cross, inner, d_pos, d_neg, d_regions, d_caption


def evidence_view(dataset, image, pos_idx=None, neg_idx=None) -> ContrastiveInstance:
    """Frozen-embedding instance of one image for selection, optionally row-subset."""
    pos, neg = dataset.positive_embeddings[image], dataset.negative_embeddings[image]
    scores = dataset.global_scores[image]
    if pos_idx is not None:
        pos, scores = pos[pos_idx], scores[pos_idx]
    if neg_idx is not None:
        neg = neg[neg_idx]
    return ContrastiveInstance(
        regions=dataset.region_embeddings[image],
        positives=pos,
        negatives=neg,
        caption_nouns=[],
        global_scores=scores,
    )


def _row_ids(dataset, image):
    k = dataset.config.regions_per_image
    return np.arange(image * k, (image + 1) * k)


def _image(state, dataset, image, config, pos_idx=None, neg_idx=None):
    """Losses and source-row gradients of one image, with its kept tag concepts."""
    pos_concepts = dataset.positive_concepts[image]
    neg_concepts = dataset.negative_concepts[image]
    if pos_idx is not None:
        pos_concepts, neg_concepts = pos_concepts[pos_idx], neg_concepts[neg_idx]
    regions = state.region_table[_row_ids(dataset, image)]
    positives = state.tag_table[pos_concepts]
    negatives = state.tag_table[neg_concepts]
    caption = state.caption_table[dataset.caption_concepts[image]]
    wp, wn, q = positives, negatives, None
    sel = None
    if config.enable_uasr:
        sel = apply_uasr(evidence_view(dataset, image, pos_idx, neg_idx))
        wp, wn, q = positives[sel.positive_indices], negatives[sel.negative_indices], sel.weights
    cross, inner, d_wp, d_wn, d_reg, d_cap = loss_and_grad_2d(
        regions, wp, wn, caption, q, config.lambda_cross, config.effective_lambda_inner
    )
    d_pos = np.zeros_like(positives)
    d_neg = np.zeros_like(negatives)
    if sel is None:
        d_pos += d_wp
        d_neg += d_wn
    else:
        np.add.at(d_pos, sel.positive_indices, d_wp)
        np.add.at(d_neg, sel.negative_indices, d_wn)
    return cross, inner, (d_pos, d_neg, d_reg, d_cap), pos_concepts, neg_concepts


def snapshot_loss_loop(dataset, state, config) -> HistoryRecord:
    cross = inner = total = 0.0
    for image in range(len(dataset)):
        c, i, *_ = _image(state, dataset, image, config)
        cross += c
        inner += i
        total += config.lambda_cross * c + config.effective_lambda_inner * i
    n = len(dataset)
    return HistoryRecord(step=state.step, cross=cross / n, inner=inner / n, total=total / n)


def train_alignment_loop(dataset, config, state=None):
    if state is None:
        state = initial_state(dataset, seed=config.seed)
    rng = np.random.default_rng(config.seed)
    n = len(dataset)
    k = dataset.config.regions_per_image

    def record(history):
        rec = snapshot_loss_loop(dataset, state, config)
        if not math.isfinite(rec.total):
            raise DivergenceError(state.step, "snapshot loss is not finite")
        history.append(rec)

    history = []
    record(history)
    for _ in range(config.steps):
        if config.batch_size >= n:
            batch = np.arange(n)
        else:
            batch = rng.choice(n, size=config.batch_size, replace=False)
        g_tag = np.zeros_like(state.tag_table)
        g_cap = np.zeros_like(state.caption_table)
        g_reg = np.zeros_like(state.region_table)
        for idx in batch:
            pos_idx = neg_idx = None
            if config.enable_subsample:
                pos_idx, neg_idx = subsample(np.arange(k), np.arange(k),
                                             config.subsample_fraction, rng)
            _, _, grads, pos_concepts, neg_concepts = _image(state, dataset, idx, config,
                                                             pos_idx, neg_idx)
            d_pos, d_neg, d_reg, d_cap = grads
            np.add.at(g_reg, _row_ids(dataset, idx), d_reg)
            np.add.at(g_tag, pos_concepts, d_pos)
            np.add.at(g_tag, neg_concepts, d_neg)
            np.add.at(g_cap, dataset.caption_concepts[idx], d_cap)
        lr = config.learning_rate / len(batch)
        if not config.freeze_tags:
            state.tag_table -= lr * g_tag
        if not config.freeze_caption:
            state.caption_table -= lr * g_cap
        if not config.freeze_regions:
            state.region_table -= lr * g_reg
        state.step += 1
        if state.step % 10 == 0:
            record(history)
    if history[-1].step != state.step:
        record(history)
    return state, history
