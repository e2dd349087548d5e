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
for the loss) take leading batch axes, so the trainer evaluates a whole
block of images per call; :func:`loss_and_grad` is the one-image case.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

from .core import ContrastiveInstance
from .errors import ConfigError
from .losses import GradientBundle, LossBreakdown, _instance_loss, total_loss

if TYPE_CHECKING:
    from .uasr import UasrResult

__all__ = [
    "GradCheckReport",
    "loss_and_grad",
    "central_difference",
    "finite_diff_grad",
    "gradient_check",
]


def loss_and_grad(
    instance: ContrastiveInstance,
    uasr: "UasrResult | None" = None,
    lambda_cross: float = 1.0,
    lambda_inner: float = 1.0,
) -> tuple[LossBreakdown, GradientBundle]:
    """Total loss together with its gradients w.r.t. all four tables.

    The single-image case of :func:`rca.losses.batch_loss`, through the
    same path as :func:`rca.losses.total_loss`, so the breakdowns are
    equal. When a selection result is supplied, the per-filtered-row
    gradients are scatter-added back onto the source rows (a row picked
    twice by oversampling accumulates both contributions).
    """
    breakdown, grads = _instance_loss(
        instance, uasr, lambda_cross, lambda_inner, with_grad=True
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

    # validated once; the instance keeps these float64 copies by identity,
    # so each in-place nudge is what the next loss evaluation sees
    live = ContrastiveInstance(
        regions=instance.regions.copy(),
        positives=instance.positives.copy(),
        negatives=instance.negatives.copy(),
        caption_nouns=instance.caption_nouns.copy(),
        global_scores=instance.global_scores,
    )

    def evaluate() -> float:
        return total_loss(live, uasr, lambda_cross, lambda_inner).total

    return GradientBundle(
        *(
            central_difference(evaluate, arr, h)
            for arr in (live.regions, live.positives, live.negatives, live.caption_nouns)
        )
    )


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
