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

The kernels take leading batch axes, so the trainer evaluates a whole
block of images per call; :func:`loss_and_grad` is the one-image case.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

from .core import ContrastiveInstance
from .errors import ConfigError, InvalidWeightError
from .losses import LossBreakdown, gather_filtered, nll_terms, total_loss

if TYPE_CHECKING:
    from .uasr import UasrResult

__all__ = [
    "GradientBundle",
    "GradCheckReport",
    "compat_forward",
    "compat_backward",
    "batch_loss",
    "loss_and_grad",
    "central_difference",
    "finite_diff_grad",
    "relative_error",
    "gradient_check",
]


@dataclass
class GradientBundle:
    """Gradients of the total loss w.r.t. each embedding table of an instance."""

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


def compat_forward(tags: np.ndarray, contexts: np.ndarray):
    """Compatibility phi (..., J) of tags (..., J, d) against contexts (..., R, d).

    Leading axes are batch axes. Every step works slice by slice in the
    same order as :func:`rca.core.compatibility`, so each slice's phi is
    bitwise equal to the single-image pipeline's. Stacked matmul keeps
    that equality; phi's row dot product keeps the core module's einsum.
    """
    t_raw = tags @ contexts.swapaxes(-1, -2)
    scaled = t_raw / np.sqrt(tags.shape[-1])
    shifted = scaled - scaled.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    alpha = e / e.sum(axis=-1, keepdims=True)
    ctx = alpha @ contexts
    phi = np.einsum("...jd,...jd->...j", tags, ctx)
    return phi, (t_raw, alpha, ctx)


def compat_backward(g: np.ndarray, tags: np.ndarray, contexts: np.ndarray, phi, cache):
    """Pull the upstream gradient g (..., J) of phi back onto tags and contexts."""
    t_raw, alpha, ctx = cache
    sd = np.sqrt(tags.shape[-1])
    m = (alpha * t_raw) @ contexts
    d_tags = g[..., None] * (ctx + (m - phi[..., None] * ctx) / sd)
    b = g[..., None] * alpha * (1.0 + (t_raw - phi[..., None]) / sd)
    d_contexts = b.swapaxes(-1, -2) @ tags
    return d_tags, d_contexts


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
    equal to those of a batch holding that image alone.
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


def loss_and_grad(
    instance: ContrastiveInstance,
    uasr: "UasrResult | None" = None,
    lambda_cross: float = 1.0,
    lambda_inner: float = 1.0,
) -> tuple[LossBreakdown, GradientBundle]:
    """Total loss together with its gradients w.r.t. all four tables.

    The single-image case of :func:`batch_loss`. When a selection result
    is supplied, the per-filtered-row gradients are scatter-added back
    onto the source rows (a row picked twice by oversampling accumulates
    both contributions).

    The returned breakdown is bitwise equal to :func:`rca.losses.total_loss`
    on the same arguments.
    """
    wp, wn, q = gather_filtered(instance, uasr)
    cross, inner, grads = batch_loss(
        instance.regions[None], wp[None], wn[None], instance.caption_nouns[None],
        None if q is None else q[None], lambda_cross, lambda_inner,
    )
    cross, inner = float(cross[0]), float(inner[0])
    breakdown = LossBreakdown(
        cross=cross,
        inner=inner,
        total=lambda_cross * cross + lambda_inner * inner,
        lambda_cross=lambda_cross,
        lambda_inner=lambda_inner,
    )

    d_wp, d_wn = grads.d_positives[0], grads.d_negatives[0]
    if uasr is None:
        d_positives, d_negatives = d_wp, d_wn
    else:
        d_positives = np.zeros_like(instance.positives)
        d_negatives = np.zeros_like(instance.negatives)
        np.add.at(d_positives, uasr.positive_indices, d_wp)
        np.add.at(d_negatives, uasr.negative_indices, d_wn)

    return breakdown, GradientBundle(
        d_regions=grads.d_regions[0],
        d_positives=d_positives,
        d_negatives=d_negatives,
        d_caption_nouns=grads.d_caption_nouns[0],
    )


def central_difference(f: Callable[[], float], x: np.ndarray, h: float) -> np.ndarray:
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


def finite_diff_grad(
    instance: ContrastiveInstance,
    uasr: "UasrResult | None" = None,
    lambda_cross: float = 1.0,
    lambda_inner: float = 1.0,
    h: float = 1e-5,
) -> GradientBundle:
    """Numeric gradient oracle built only on the scalar loss.

    Evaluates the same objective as :func:`loss_and_grad` (selection held
    fixed) with central differences. Cost is two loss evaluations per
    parameter, so keep instances small.
    """
    if not 1e-7 <= h <= 1e-3:
        raise ConfigError(f"step size h={h} outside [1e-7, 1e-3]")

    arrays = {
        "regions": instance.regions.copy(),
        "positives": instance.positives.copy(),
        "negatives": instance.negatives.copy(),
        "caption_nouns": instance.caption_nouns.copy(),
    }

    def evaluate() -> float:
        inst = ContrastiveInstance(
            regions=arrays["regions"],
            positives=arrays["positives"],
            negatives=arrays["negatives"],
            caption_nouns=arrays["caption_nouns"],
            global_scores=instance.global_scores,
        )
        return total_loss(inst, uasr, lambda_cross, lambda_inner).total

    grads = {
        name: central_difference(evaluate, arr, h) for name, arr in arrays.items()
    }
    return GradientBundle(
        d_regions=grads["regions"],
        d_positives=grads["positives"],
        d_negatives=grads["negatives"],
        d_caption_nouns=grads["caption_nouns"],
    )


def relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Largest elementwise |a - f| / max(|a|, |f|, 1e-6) over two arrays."""
    if analytic.size == 0:
        return 0.0
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-6)
    return float((np.abs(analytic - numeric) / denom).max())


@dataclass
class GradCheckReport:
    """Per-table and overall agreement between analytic and numeric gradients."""

    errors: dict[str, float]
    max_error: float
    h: float
    tolerance: float

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
    errors = {
        name: relative_error(analytic.as_dict()[name], numeric.as_dict()[name])
        for name in analytic.as_dict()
    }
    return GradCheckReport(
        errors=errors,
        max_error=max(errors.values()),
        h=h,
        tolerance=tolerance,
    )
