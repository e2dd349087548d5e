"""Loop references for the library's batched code, used as test oracles.

The trainer as it ran before batching: one image at a time, a 2-D
compatibility forward/backward per contrastive block, selection through
:func:`rca.uasr.apply_uasr` on a view of the image's frozen evidence that
holds only the subsampled rows, and four scatter-adds per image. The
synthetic generator as it ran before its arithmetic was blocked: each
image's draws, noise, flip, cosines and sort in turn, with the absent
concepts from ``np.setdiff1d``. And the finite-difference oracle as it ran
before its nudged copies were stacked: one entry nudged in place at a
time, one :func:`rca.losses.total_loss` call per nudge. The corpus file
readers as they ran before their numbers were checked a window at a time:
each embedding row and tag score checked as it is met. And the report-line
encoder as it ran before it formatted a value from one template: each float
formatted on its own. Keep them slow and
literal, so the library's stacked code is checked against an independent
route.
"""

import dataclasses
import math
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _quote

import numpy as np

from rca.core import ContrastiveInstance
from rca.errors import DivergenceError, ParseError, ValidationError
from rca.io import (
    INSTANCE_FORMAT,
    VOCAB_FORMAT,
    CaptionToken,
    InstanceRecord,
    _expect,
    _lines,
    _numbers,
    _parse_line,
    _read_header,
)
from rca.losses import GradientBundle, nll_terms, total_loss
from rca.tags import TagRef, subsample
from rca.trainer import HistoryRecord, SyntheticDataset, initial_state
from rca.uasr import apply_uasr, pool_cosines


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


def _cosine_rows(image, rows):
    num = rows @ image
    den = np.linalg.norm(rows, axis=1) * np.linalg.norm(image)
    return num / np.maximum(den, 1e-12)


@dataclass
class LoopDataset(SyntheticDataset):
    """A generated corpus with the tag embeddings its scores and cosines come from.

    The library's generator keeps those embeddings only while it generates;
    this reference keeps them, as evidence for the per-image selection.
    """

    positive_embeddings: np.ndarray  # (n, K, d) sorted as positive_concepts
    negative_embeddings: np.ndarray  # (n, K, d) sorted as negative_concepts


def generate_synthetic_loop(config) -> LoopDataset:
    """The synthetic corpus built one image at a time, cosines too."""
    rng = np.random.default_rng(config.seed)
    protos = rng.standard_normal((config.n_concepts, config.d))
    protos /= np.linalg.norm(protos, axis=1, keepdims=True)

    n, k = config.n_images, config.regions_per_image
    region_concepts, positive_concepts, negative_concepts = (
        np.empty((n, k), dtype=np.int64) for _ in range(3))
    region_embs, positive_embs, negative_embs = (
        np.empty((n, k, config.d)) for _ in range(3))
    global_scores = np.empty((n, k))
    flipped = np.zeros(n, dtype=bool)
    cosines = np.empty((n, k, 2 * k))
    for image in range(n):
        present = rng.choice(config.n_concepts, size=k, replace=False)
        absent = np.setdiff1d(np.arange(config.n_concepts), present)
        negatives = rng.choice(absent, size=k, replace=False)

        def noisy(concepts):
            base = protos[concepts]
            if config.noise_sigma == 0.0:
                return base.copy()
            return base + config.noise_sigma * rng.standard_normal(base.shape)

        region_emb = noisy(present)
        pos_emb = noisy(present)
        neg_emb = noisy(negatives)
        pos_concepts = present.copy()
        neg_concepts = negatives.copy()

        if config.flip_rate > 0.0 and rng.random() < config.flip_rate:
            i = int(rng.integers(k))
            j = int(rng.integers(k))
            pos_concepts[i], neg_concepts[j] = neg_concepts[j], pos_concepts[i]
            pos_emb[[i]], neg_emb[[j]] = neg_emb[[j]].copy(), pos_emb[[i]].copy()
            flipped[image] = True

        image_emb = region_emb.mean(axis=0)
        pos_scores = _cosine_rows(image_emb, pos_emb)
        pos_order = np.argsort(-pos_scores, kind="stable")
        neg_order = np.argsort(-_cosine_rows(image_emb, neg_emb), kind="stable")

        region_concepts[image] = present
        positive_concepts[image] = pos_concepts[pos_order]
        negative_concepts[image] = neg_concepts[neg_order]
        global_scores[image] = pos_scores[pos_order]
        region_embs[image] = region_emb
        positive_embs[image] = pos_emb[pos_order]
        negative_embs[image] = neg_emb[neg_order]
        cosines[image] = pool_cosines(region_emb, positive_embs[image], negative_embs[image])

    return LoopDataset(
        config=config,
        prototypes=protos,
        region_concepts=region_concepts,
        positive_concepts=positive_concepts,
        negative_concepts=negative_concepts,
        caption_concepts=region_concepts,
        region_rows=np.arange(n * k).reshape(n, k),
        global_scores=global_scores,
        region_embeddings=region_embs,
        positive_embeddings=positive_embs,
        negative_embeddings=negative_embs,
        flipped=flipped,
        cosines=cosines,
    )


def differing_fields(got: SyntheticDataset, want: SyntheticDataset) -> list[str]:
    """The fields of ``got``, the config aside, whose dtype, shape or bytes differ in ``want``."""
    def key(a):
        return a.dtype, a.shape, a.tobytes()
    return [f.name for f in dataclasses.fields(got) if f.name != "config"
            and key(getattr(got, f.name)) != key(getattr(want, f.name))]


def evidence_view(dataset: LoopDataset, image, pos_idx=None, neg_idx=None) -> ContrastiveInstance:
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
        regions, wp, wn, caption, q, *config.lambdas
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
        total += config.lambdas[0] * c + config.lambdas[1] * i
    n = len(dataset)
    return HistoryRecord(step=state.step, cross=cross / n, inner=inner / n, total=total / n)


def train_alignment_loop(dataset: LoopDataset, config, state=None):
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
            if config.subsample_fraction < 1.0:
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


def central_difference(f, x, h):
    """Central finite differences of f w.r.t. x, perturbing x in place.

    ``f`` must read the live array so each nudge is visible to it; x is
    restored to its original values on exit.
    """
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        f_plus = f()
        flat[i] = orig - h
        f_minus = f()
        flat[i] = orig
        gflat[i] = (f_plus - f_minus) / (2.0 * h)
    return grad


def finite_diff_grad_loop(instance, uasr, lambda_cross, lambda_inner, h):
    """Per-entry oracle: nudge a private copy's entries, one total_loss per nudge."""
    # the instance keeps these float64 copies by identity, so each in-place
    # nudge is what the next loss evaluation sees
    live = ContrastiveInstance(
        regions=instance.regions.copy(),
        positives=instance.positives.copy(),
        negatives=instance.negatives.copy(),
        caption_nouns=instance.caption_nouns.copy(),
        global_scores=instance.global_scores,
    )

    def evaluate():
        return total_loss(live, uasr, lambda_cross, lambda_inner).total

    return GradientBundle(*(
        central_difference(evaluate, arr, h)
        for arr in (live.regions, live.positives, live.negatives, live.caption_nouns)
    ))


def to_json_loop(value) -> str:
    """JSON with each float formatted on its own at 17 significant digits."""
    if isinstance(value, str):
        return _quote(value)
    if isinstance(value, (float, np.floating)):
        f = float(value)
        if not math.isfinite(f):
            raise ValidationError("cannot serialize non-finite number")
        text = format(f, ".17g")
        return "-0.0" if text == "-0" else text  # "-0" reads back as the integer 0
    if isinstance(value, dict):
        return "{" + ", ".join(f"{_quote(str(k))}: {to_json_loop(v)}" for k, v in value.items()) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(to_json_loop(v) for v in value) + "]"
    if isinstance(value, np.ndarray):
        return to_json_loop(value.tolist())
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if value is None:
        return "null"
    raise ValidationError(f"cannot serialize {type(value).__name__}")


def read_vocab_loop(path):
    (header_line, header), *lines = _lines(path)
    dim = _read_header(header, header_line, VOCAB_FORMAT)["dim"]
    vocab, seen = [], set()
    for lineno, line in lines:
        obj = _parse_line(line, lineno)
        tag_id = _expect(obj, "tag_id", lineno)
        if not isinstance(tag_id, str):
            raise ParseError("tag_id must be a string", line=lineno)
        if tag_id in seen:
            raise ParseError(f"duplicate tag_id {tag_id!r}", line=lineno)
        seen.add(tag_id)
        vocab.append((tag_id, _numbers(_expect(obj, "embedding", lineno), dim, lineno)))
    return vocab, dim


def read_instances_loop(path):
    (header_line, header), *lines = _lines(path)
    dim = _read_header(header, header_line, INSTANCE_FORMAT)["dim"]
    records = []
    for lineno, line in lines:
        obj = _parse_line(line, lineno)
        image_id = _expect(obj, "image_id", lineno)
        if not isinstance(image_id, str):
            raise ParseError("image_id must be a string", line=lineno)
        image_emb = _numbers(_expect(obj, "image_embedding", lineno), dim, lineno)
        regions_raw = _expect(obj, "regions", lineno)
        if not isinstance(regions_raw, list) or not regions_raw:
            raise ParseError("regions must be a non-empty list", line=lineno)
        regions = np.vstack([_numbers(r, dim, lineno, what="region") for r in regions_raw])
        tokens = []
        tokens_raw = _expect(obj, "caption_tokens", lineno)
        if not isinstance(tokens_raw, list):
            raise ParseError("caption_tokens must be a list", line=lineno)
        for tok in tokens_raw:
            if not isinstance(tok, dict):
                raise ParseError("caption token must be an object", line=lineno)
            text = _expect(tok, "text", lineno)
            if not isinstance(text, str):
                raise ParseError("caption token text must be a string", line=lineno)
            is_noun = _expect(tok, "is_noun", lineno)
            if not isinstance(is_noun, bool):
                raise ParseError("is_noun must be a boolean", line=lineno)
            emb = _numbers(_expect(tok, "embedding", lineno), dim, lineno, what="token embedding")
            tokens.append(CaptionToken(text=text, is_noun=is_noun, embedding=emb))
        tags = None
        if "tags" in obj and obj["tags"] is not None:
            if not isinstance(obj["tags"], list):
                raise ParseError("tags must be a list or null", line=lineno)
            tags = []
            for t in obj["tags"]:
                if not isinstance(t, dict):
                    raise ParseError("tag entry must be an object", line=lineno)
                tid = _expect(t, "tag_id", lineno)
                if not isinstance(tid, str):
                    raise ParseError("tag_id must be a string", line=lineno)
                # one score at a time, as a list of one
                (score,) = _numbers([_expect(t, "score", lineno)], None, lineno, "tag scores").tolist()
                tags.append(TagRef(tag_id=tid, score=score))
        records.append(InstanceRecord(image_id=image_id, image_embedding=image_emb,
                                      regions=regions, caption_tokens=tokens, tags=tags))
    return records, dim

