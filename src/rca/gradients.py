"""Closed-form gradients of the contrastive objective, plus a numeric oracle.

The compatibility score phi_j = w_j . sum_k softmax_k(w_j . x_k / sqrt(d)) x_k
couples tags and contexts through the attention weights, so its backward
pass carries a softmax Jacobian term. With t_jk = w_j . x_k, A the row
softmax of t / sqrt(d), ctx = A @ X and M = (A * t) @ X:

    dphi_j / dw_j = ctx_j + (M_j - phi_j ctx_j) / sqrt(d)
    dphi_j / dx_k = A_jk (1 + (t_jk - phi_j) / sqrt(d)) w_j

For the loss, each positive n contributes ell_n = Z_n - phi^P_n with
Z_n = log(exp(phi^P_n) + sum_l exp(phi^N_l)), so with p_n = exp(phi^P_n - Z_n)
and r_nl = exp(phi^N_l - Z_n):

    dL/dphi^P_n = (lam q_n / K)(p_n - 1)
    dL/dphi^N_l = (lam / K) sum_n q_n r_nl

Selection indices and confidence weights are treated as constants
(straight-through), which the finite-difference oracle mirrors by keeping
the selection result fixed while perturbing embeddings.

The kernels that evaluate these (:func:`rca.core.compat_forward` and
:func:`rca.core.compat_backward` for phi, :func:`rca.losses.batch_loss`
for the loss) take leading batch axes. The positives and negatives of a
block are stacked on one more axis, so each context takes one forward and
one backward pass for both; ``compat_backward`` returns the per-row
context weights A_jk (1 + (t_jk - phi_j) / sqrt(d)) g_j, and the loss
contracts each side with its tags and adds the positives' product to the
negatives'. One corpus pass,
:func:`rca.losses.corpus_losses`, calls them for training and for
:func:`loss_and_grad` on a one-image corpus; :func:`finite_diff_grad`
calls ``batch_loss`` on blocks of an instance's nudged caption and region
copies, the instance's tag rows broadcast against them. A copy whose
caption nouns are nudged runs only the inner
term, and one whose regions are nudged only the cross term; the term a
nudge cannot move is the instance's own, from one pass over the
instance. A tag nudge moves only the phi of the positions its row sits
at, so the oracle packs the tag table's nudges, one slice of the
instance's (2, K, d) tag rows per entry and sign, into forward passes of
:func:`rca.core.compat_forward` and scores each nudged row once, at its
own position; the loss of each nudged copy follows from the instance's
phi with those positions replaced.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .core import ContrastiveInstance, compat_forward, scatter_add
from .errors import ConfigError
from .losses import (
    GradientBundle,
    LossBreakdown,
    batch_loss,
    corpus_losses,
    nll_terms,
    one_image_corpus,
    weighted_mean,
)

if TYPE_CHECKING:
    from .uasr import UasrResult

__all__ = [
    "GradCheckReport",
    "loss_and_grad",
    "finite_diff_grad",
    "gradient_check",
]

# nudged copies per corpus_losses call, tag slices per compat_forward call and negative
# copies per nll_terms call in finite_diff_grad
_BLOCK = 64


def loss_and_grad(
    instance: ContrastiveInstance,
    uasr: "UasrResult | None" = None,
    lambda_cross: float = 1.0,
    lambda_inner: float = 1.0,
) -> tuple[LossBreakdown, GradientBundle]:
    """Total loss together with its gradients w.r.t. all four tables.

    The one-image corpus pass of :func:`rca.losses.total_loss`, with
    gradients, so the breakdowns are equal. The tag gradient rows fold onto the
    positives-then-negatives table with one :func:`rca.core.scatter_add`,
    as a training step folds them, so a row picked twice sums both.
    """
    corpus, sel, tables = one_image_corpus(instance, uasr)
    table, (d_tags, d_caption, d_regions) = corpus_losses(
        corpus, tables, np.arange(1), sel, (lambda_cross, lambda_inner), with_grad=True
    )
    k = instance.positives.shape[0]
    tag_rows = np.concatenate([sel.positive_concepts, sel.negative_concepts], axis=1)
    d_tag_table = scatter_add(tag_rows, d_tags, 2 * k)
    return LossBreakdown(*table[0].tolist()), GradientBundle(
        d_regions[0], d_tag_table[:k], d_tag_table[k:], d_caption[0]
    )


def _tag_differences(corpus, sel, tables, lambdas, h):
    """Central differences of a one-image corpus's loss over its tag table, (2K, d).

    A table row sits at the positions (side, n) where ``sel`` placed it;
    a nudge of its entry e moves only the phi at those positions. So
    entry e and a sign pack one slice shaped like the image's (2, K, d)
    tag rows, each row with its entry e nudged, and one
    :func:`rca.core.compat_forward` per context scores up to ``_BLOCK``
    slices: each nudged phi sits at its own position in a slice of the
    image's shape, which keeps it bitwise the phi of a nudged copy. A
    row's copy is the image's phi with the row's positions taken from a
    slice. On the positive side only the terms at those positions move;
    on the negative side every term does, and up to ``_BLOCK`` copies
    run through one :func:`rca.losses.nll_terms` call. Each copy's terms
    are averaged by :func:`rca.losses.weighted_mean` and its total is
    ``lambda_cross * cross + lambda_inner * inner``, a skipped term
    reading 0, as :func:`rca.losses.corpus_losses` forms them. A row
    that selection dropped reads 0.
    """
    tag_table, caption_table, region_table = tables
    rows = np.stack([sel.positive_concepts[0], sel.negative_concepts[0]])
    weights = None if sel.weights is None else sel.weights[0]
    tags = tag_table[rows]
    contexts = {}
    if lambdas[0] > 0.0:
        contexts[0] = region_table[corpus.region_rows[0]]
    if lambdas[1] > 0.0 and corpus.caption_concepts.shape[1] > 0:
        contexts[1] = caption_table[corpus.caption_concepts[0]]
    image_phi = {c: compat_forward(tags, context)[0] for c, context in contexts.items()}
    image_terms = {c: nll_terms(*phi) for c, phi in image_phi.items()}
    kept = np.unique(rows)
    sits = rows == kept[:, None, None]  # the positions of each kept row
    on_neg = np.flatnonzero(sits[:, 1].any(axis=1))
    k, d = rows.shape[1], tag_table.shape[1]
    terms = np.zeros((2, len(kept), 2 * d))  # cross and inner, per kept row and nudge
    for start in range(0, d, _BLOCK // 2):
        # slice 2i nudges entry start + i of every row by +h, slice 2i + 1 by -h
        cols = np.repeat(np.arange(start, min(start + _BLOCK // 2, d)), 2)
        slab = np.repeat(tags[None], len(cols), axis=0)
        slab[np.arange(len(cols)), ..., cols] += np.tile([h, -h], len(cols) // 2)[:, None, None]
        part = slice(2 * start, 2 * start + len(cols))
        for c, context in contexts.items():
            phi = compat_forward(slab, context)[0]
            pos, neg = image_phi[c]
            # a row on the positive side moves only the terms at its positions
            copies = np.where(sits[:, 0, None], nll_terms(phi[:, 0], neg), image_terms[c])
            # a row on the negative side moves every term
            copy_pos = np.where(sits[on_neg, 0, None], phi[:, 0], pos).reshape(-1, k)
            copy_neg = np.where(sits[on_neg, 1, None], phi[:, 1], neg).reshape(-1, k)
            moved = np.empty_like(copy_neg)
            for b in range(0, len(moved), _BLOCK):
                moved[b:b + _BLOCK] = nll_terms(copy_pos[b:b + _BLOCK], copy_neg[b:b + _BLOCK])
            copies[on_neg] = moved.reshape(len(on_neg), len(cols), k)
            terms[c, :, part] = weighted_mean(copies, weights)
    totals = lambdas[0] * terms[0] + lambdas[1] * terms[1]
    numeric = np.zeros_like(tag_table)
    numeric[kept] = (totals[:, 0::2] - totals[:, 1::2]) / (2.0 * h)
    return numeric


def finite_diff_grad(
    instance: ContrastiveInstance,
    uasr: "UasrResult | None" = None,
    lambda_cross: float = 1.0,
    lambda_inner: float = 1.0,
    h: float = 1e-5,
) -> GradientBundle:
    """Numeric gradient oracle built only on the scalar loss.

    Evaluates the same objective as :func:`loss_and_grad` (selection held
    fixed) with central differences (f(x + h e_i) - f(x - h e_i)) / 2h.
    The one-image corpus's tag, caption and region tables are nudged in
    turn. A tag nudge is scored once, at the positions of its row
    (:func:`_tag_differences`). Up to ``_BLOCK`` nudged caption or region
    copies are the batch of one forward-only :func:`rca.losses.batch_loss`
    call, the instance's (2, 1, K, d) tag rows and its other context
    broadcast against them; each copy's loss is bitwise that of its copy
    evaluated alone. The instance is evaluated once, and
    a pass over caption copies skips the cross term, one over region
    copies the inner term: each total is then ``lambda_cross * cross +
    lambda_inner * inner`` with the instance's term in place of the
    skipped one, as :func:`rca.losses.corpus_losses` forms it. The
    instance is not modified.
    """
    if not 1e-7 <= h <= 1e-3:
        raise ConfigError(f"step size h={h} outside [1e-7, 1e-3]")

    corpus, sel, tables = one_image_corpus(instance, uasr)
    lambdas = (lambda_cross, lambda_inner)
    instance_terms = corpus_losses(corpus, tables, np.arange(1), sel, lambdas)[0][0, :2]
    numeric = [_tag_differences(corpus, sel, tables, lambdas, h)]
    tags = tables[0][np.stack([sel.positive_concepts, sel.negative_concepts])]
    for which in (1, 2):
        table = tables[which]
        # a caption nudge cannot move the cross term, a region nudge the inner one:
        # the copies skip it, and each total takes the instance's own
        unmoved = which - 1
        block_lambdas = tuple(0.0 if t == unmoved else lam for t, lam in enumerate(lambdas))
        flat = table.reshape(-1)
        # copy 2i nudges entry i by +h, copy 2i + 1 by -h
        entries = np.repeat(np.arange(flat.size), 2)
        nudged = flat[entries] + np.tile([h, -h], flat.size)
        # copy j of a block is row j of a stack of the instance's caption or region rows
        stack = np.tile(flat, min(_BLOCK, entries.size))
        contexts = [instance.caption_nouns[None], instance.regions[None]]
        terms = np.empty((entries.size, 2))
        for start in range(0, entries.size, _BLOCK):
            rows = np.arange(start, min(start + _BLOCK, entries.size))
            at = (rows - start) * flat.size + entries[rows]
            stack[at] = nudged[rows]
            contexts[which - 1] = stack[:len(rows) * flat.size].reshape(-1, *table.shape)
            cross, inner, _ = batch_loss(contexts[1], tags, contexts[0], sel.weights,
                                         *block_lambdas, with_grad=False)
            terms[rows, 0], terms[rows, 1] = cross, inner
            stack[at] = flat[entries[rows]]
        terms[:, unmoved] = instance_terms[unmoved]
        totals = lambda_cross * terms[:, 0] + lambda_inner * terms[:, 1]
        numeric.append(((totals[0::2] - totals[1::2]) / (2.0 * h)).reshape(table.shape))
    k = instance.positives.shape[0]
    return GradientBundle(numeric[2], numeric[0][:k], numeric[0][k:], numeric[1])


def _elementwise_error(analytic: np.ndarray, numeric: np.ndarray) -> np.ndarray:
    """Elementwise |a - f| / max(|a|, |f|, 1e-6)."""
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-6)
    return np.abs(analytic - numeric) / denom


@dataclass
class GradCheckReport:
    """Per-table and overall agreement between analytic and numeric gradients.

    The worst entry is the table, index and error of the largest
    elementwise relative error, scanning the tables in
    :meth:`GradientBundle.as_dict` order; on a tie the later table wins.
    """

    errors: dict[str, float]
    max_error: float
    h: float
    tolerance: float
    worst_table: str | None = None
    worst_index: list[int] | None = None
    worst_error: float = 0.0

    @property
    def passed(self) -> bool:
        return self.max_error <= self.tolerance


def gradient_check(
    instance: ContrastiveInstance,
    uasr: "UasrResult | None" = None,
    lambda_cross: float = 1.0,
    lambda_inner: float = 1.0,
    h: float = 1e-5,
    tolerance: float = 1e-4,
) -> GradCheckReport:
    """Compare the closed-form gradients against the finite-difference oracle."""
    _, analytic = loss_and_grad(instance, uasr, lambda_cross, lambda_inner)
    numeric = finite_diff_grad(instance, uasr, lambda_cross, lambda_inner, h)
    numeric = numeric.as_dict()
    errors, worst = {}, (None, None, 0.0)
    for name, a in analytic.as_dict().items():
        per = _elementwise_error(a, numeric[name])
        if per.size == 0:
            errors[name] = 0.0
            continue
        idx = np.unravel_index(int(np.argmax(per)), per.shape)
        errors[name] = float(per[idx])
        if per[idx] >= worst[2]:
            worst = (name, [int(i) for i in idx], float(per[idx]))
    return GradCheckReport(errors, max(errors.values()), h, tolerance, *worst)
