"""Direct-formula reference implementations used as test oracles.

Everything here is written with explicit Python loops, raw exp/log (no
log-sum-exp tricks), and plain lists, so the library's vectorized and
stabilized code can be checked against an independent route. Keep these
slow and obvious.
"""

import math


def dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def cosine(a, b):
    return dot(a, b) / (math.sqrt(dot(a, a)) * math.sqrt(dot(b, b)))


def naive_compatibility(tags, contexts):
    """phi_j for each tag row, via unshifted softmax attention."""
    d = len(tags[0])
    out = []
    for w in tags:
        scores = [dot(w, x) / math.sqrt(d) for x in contexts]
        exps = [math.exp(s) for s in scores]
        z = sum(exps)
        alpha = [e / z for e in exps]
        ctx = [sum(alpha[k] * contexts[k][t] for k in range(len(contexts))) for t in range(d)]
        out.append(dot(w, ctx))
    return out


def naive_context_loss(contexts, positives, negatives, weights=None):
    """Mean (optionally weighted) -log softmax loss, computed the direct way."""
    phi_p = naive_compatibility(positives, contexts)
    phi_n = naive_compatibility(negatives, contexts)
    k = len(phi_p)
    total = 0.0
    for n in range(k):
        denom = math.exp(phi_p[n]) + sum(math.exp(p) for p in phi_n)
        term = -math.log(math.exp(phi_p[n]) / denom)
        total += term if weights is None else weights[n] * term
    return total / k


def naive_total_loss(
    regions,
    positives,
    negatives,
    caption_nouns,
    weights=None,
    lambda_cross=1.0,
    lambda_inner=1.0,
):
    cross = 0.0
    if lambda_cross > 0.0:
        cross = naive_context_loss(regions, positives, negatives, weights)
    inner = 0.0
    if lambda_inner > 0.0 and len(caption_nouns) > 0:
        inner = naive_context_loss(caption_nouns, positives, negatives, weights)
    return cross, inner, lambda_cross * cross + lambda_inner * inner


def naive_select_reweight(regions, positives, negatives, scores, normalize=True):
    """Loop/set route through retrieval, selection, and re-weighting.

    Returns (pos_indices, neg_indices, weights, retrieved, pos_fallback,
    neg_fallback) with indices into the respective original sides.
    """
    k = len(positives)
    pool = list(positives) + list(negatives)

    retrieved = set()
    for v in regions:
        best, best_c = None, -float("inf")
        for idx, w in enumerate(pool):
            c = cosine(v, w)
            if c > best_c:  # strict: ties keep the lowest index
                best, best_c = idx, c
        retrieved.add(best)

    pos_kept = [i for i in range(k) if i in retrieved]
    pos_fallback = not pos_kept
    if pos_fallback:
        pos_kept = list(range(k))
    neg_kept = [i for i in range(k) if (k + i) not in retrieved]
    neg_fallback = not neg_kept
    if neg_fallback:
        neg_kept = [k - 1]

    pos_idx = [pos_kept[i % len(pos_kept)] for i in range(k)]
    neg_idx = [neg_kept[i % len(neg_kept)] for i in range(k)]

    weights = []
    for i in pos_idx:
        best = max(cosine(v, positives[i]) for v in regions)
        q2 = scores[i] if scores[i] > 1e-6 else 1e-6
        weights.append(math.exp(best) * q2)
    if normalize:
        mean = sum(weights) / len(weights)
        weights = [w / mean for w in weights]
    return pos_idx, neg_idx, weights, retrieved, pos_fallback, neg_fallback
