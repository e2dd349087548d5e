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
:func:`rca.losses.corpus_losses`, calls them for training, for
:func:`loss_and_grad` on a one-image corpus, and for
:func:`finite_diff_grad` on corpora of an instance's nudged copies. A
copy whose caption nouns are nudged runs only the inner term, and one
whose regions are nudged only the cross term; the term a nudge cannot
move is the instance's own, from one pass over the instance.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .core import ContrastiveInstance, scatter_add
from .errors import ConfigError
from .losses import GradientBundle, LossBreakdown, corpus_losses, one_image_corpus

if TYPE_CHECKING:
    from .uasr import UasrResult

__all__ = [
    "GradCheckReport",
    "loss_and_grad",
    "finite_diff_grad",
    "gradient_check",
]

_BLOCK = 64  # nudged copies per corpus_losses call in finite_diff_grad


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
    turn. Up to ``_BLOCK`` nudged copies are the images of one forward-only
    :func:`rca.losses.corpus_losses` pass; each image's loss is bitwise
    that of its copy evaluated alone. The instance is evaluated once, and
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
    numeric = []
    for which, table in enumerate(tables):
        # a caption nudge cannot move the cross term, a region nudge the inner one:
        # the copies skip it, and each total takes the instance's own
        unmoved = {1: 0, 2: 1}.get(which)
        block_lambdas = tuple(0.0 if t == unmoved else lam for t, lam in enumerate(lambdas))
        flat = table.reshape(-1)
        # copy 2i nudges entry i by +h, copy 2i + 1 by -h
        entries = np.repeat(np.arange(flat.size), 2)
        nudged = flat[entries] + np.tile([h, -h], flat.size)
        # image j's rows of the nudged table index copy j in a stack of copies;
        # its other rows index the shared tables
        b = min(_BLOCK, entries.size)
        shift = [np.arange(b)[:, None] * (len(table) if t == which else 0) for t in range(3)]
        copies = dataclasses.replace(corpus, caption_concepts=corpus.caption_concepts + shift[1],
                                     region_rows=corpus.region_rows + shift[2])
        copies_sel = sel._replace(
            positive_concepts=sel.positive_concepts + shift[0],
            negative_concepts=sel.negative_concepts + shift[0],
            weights=None if sel.weights is None else np.repeat(sel.weights, b, axis=0))
        stack = np.tile(flat, b)
        copies_tables = list(tables)
        copies_tables[which] = stack.reshape(-1, table.shape[1])
        terms = np.empty((entries.size, 2))
        for start in range(0, entries.size, _BLOCK):
            rows = np.arange(start, min(start + _BLOCK, entries.size))
            at = (rows - start) * flat.size + entries[rows]
            stack[at] = nudged[rows]
            losses, _ = corpus_losses(copies, copies_tables, rows - start,
                                      copies_sel.take(slice(len(rows))), block_lambdas)
            terms[rows] = losses[:, :2]
            stack[at] = flat[entries[rows]]
        if unmoved is not None:
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
