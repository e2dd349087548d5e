"""Attention-based tag/context compatibility and the shared instance types.

The compatibility pipeline, for a block of J tag embeddings against R
context embeddings (image regions or noun caption words, both d-dim):

    scores[j, k] = tags[j] . contexts[k] / sqrt(d)
    alpha[j, :]  = softmax over k of scores[j, :]
    ctx[j]       = sum_k alpha[j, k] * contexts[k]
    phi[j]       = tags[j] . ctx[j]

phi measures how compatible a tag is with the context it attends to: an
irrelevant tag cannot collect a context average it is similar to.
:func:`compat_forward` and :func:`compat_backward` are the one kernel for
this pipeline and its gradient; they take leading batch axes, so a block
of images is one call and a single image is the B=1 case. The contexts
broadcast against the tags, so a block's positives and negatives, stacked
on one more leading axis, share one pass over the block's contexts. Their
elementwise chains run in place on buffers they allocate, in the order of
the formulas above.
:func:`compatibility` is its validated 2-D front door. :func:`scatter_add`
folds per-row gradients back onto the table rows they were gathered from.
All functions are pure and operate on float64 numpy arrays.

Short trailing axes are reduced by column folds. numpy reduces a trailing
axis one row at a time, which costs far more than the arithmetic when the
axis holds a handful of entries, as the context and tag axes here do.
:func:`_sum_last` folds an axis of 1 <= n < 8 entries column by column,
left to right from ``0.0 + x[..., 0]`` (:func:`_fold_sum`), which is the
order numpy's add-reduce uses below 8 entries (from 8 on it sums a
contiguous row pairwise with 8 accumulators); longer axes go to numpy's
own sum, so every sum is bitwise numpy's. The mean is the sum over n, as
in numpy. :func:`_max_last` folds with ``np.maximum`` every axis of
1 <= n < 8 entries, and an axis of 8 to 16 entries when it has at least
16 rows per entry, as the CLI's 8-wide region axis has in a corpus group
or a gradcheck block; an axis with few rows, such as a 25-wide negatives
axis, goes to numpy's max. A max is exact in any order, so the value is
numpy's; only which zero a row of +0.0 and -0.0 entries returns may
differ from 8 entries on, and no caller can see which: each subtracts
the max from its row and exponentiates, and ``x - 0.0`` and ``x - (-0.0)``
differ only in the sign of a zero, which ``exp`` maps to 1.0 either way.
The log-sum-exp also adds the max back to the log of a sum of at least
1.0, which is +0.0 or more, and ``-0.0 + y`` is ``0.0 + y`` for such y.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (ConfigError, DegenerateEmbeddingError, DimensionError, EmptyInputError,
                     ValidationError)

__all__ = [
    "ContrastiveInstance",
    "as_matrix",
    "as_vector",
    "check_addressable",
    "check_cosines",
    "check_norms",
    "compat_forward",
    "compat_backward",
    "compatibility",
    "scatter_add",
]

_FOLD_BELOW = 8  # numpy's add-reduce sums pairwise from this many entries on
# from 8 entries on, a max folds only an axis this narrow with this many rows per
# entry, where the fold's n ufunc calls cost less than numpy's row-by-row reduce
_MAX_FOLD_WIDTH = 16
_MAX_FOLD_ROWS_PER_COLUMN = 16


def as_matrix(x, name: str = "matrix", allow_empty: bool = False) -> np.ndarray:
    """Coerce to a finite float64 2-D array, validating the row contract."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 2:
        raise DimensionError(f"{name} must be 2-D, got shape {arr.shape}")
    if arr.shape[0] == 0:
        if not allow_empty:
            raise EmptyInputError(f"{name} has no rows")
    elif arr.shape[1] == 0:
        raise EmptyInputError(f"{name} rows have zero length")
    if arr.size and not np.isfinite(arr).all():
        raise ValidationError(f"{name} contains non-finite entries")
    return arr


def as_vector(x, name: str = "vector") -> np.ndarray:
    """Coerce to a finite float64 1-D array with at least one entry."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 1 or arr.shape[0] < 1:
        raise DimensionError(f"{name} must be a non-empty 1-D vector, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValidationError(f"{name} contains non-finite entries")
    return arr


def check_addressable(entries: int, what: str) -> None:
    """Raise :class:`ConfigError` if ``entries`` float64s are more bytes than numpy can address.

    numpy refuses such an array with a ``ValueError`` before allocating
    anything; ``entries`` bounds each array the sizes ``what`` declare.
    """
    if entries * 8 > np.iinfo(np.intp).max:
        # str() refuses an int past 4,300 digits; log10 takes any int
        count = entries if entries < 10**100 else f"about 10**{math.floor(math.log10(entries))}"
        raise ConfigError(f"{what}: {count} float64 entries are more bytes than numpy can address")


def check_cosines(scores, image: str | None = None) -> None:
    """Raise :class:`ValidationError` unless each global score is a cosine, up to rounding.

    ``image`` names the record in the message.
    """
    if np.abs(scores).max() > 1.0 + 1e-9:
        prefix = "" if image is None else f"image {image!r}: "
        raise ValidationError(f"{prefix}global_scores must be cosines in [-1, 1]")


def check_norms(norms, name) -> None:
    """Raise :class:`DegenerateEmbeddingError` for the first row whose norm is zero or not finite.

    Such a row has no cosine. ``norms`` are row norms the caller has taken,
    of any shape, read in C order; the caller's arithmetic stays its own.
    ``name(i)`` names the row at index ``i`` along the last axis (0 for a
    single norm), as in ``image 'img-b': region 0``.
    """
    bad = (norms == 0.0) | ~np.isfinite(norms)
    if bad.any():
        first = int(np.argmax(bad))
        row = first % np.shape(norms)[-1] if np.ndim(norms) else 0
        what = "zero norm" if np.ravel(norms)[first] == 0.0 else "an overflowing norm"
        raise DegenerateEmbeddingError(f"{name(row)} has {what}")


@dataclass
class ContrastiveInstance:
    """One image's contrastive bundle.

    ``positives``/``negatives`` are the top-K and next-K ranked tags for the
    image, each row ordered by descending global (image-level) score.
    ``global_scores`` carries the positives' image-tag cosines and stays
    aligned row-wise with ``positives``. ``caption_nouns`` may be empty;
    the inner-modality loss is skipped in that case.
    """

    regions: np.ndarray        # (R, d)
    positives: np.ndarray      # (K, d)
    negatives: np.ndarray      # (K, d)
    caption_nouns: np.ndarray  # (P, d); P may be 0
    global_scores: np.ndarray  # (K,)

    def __post_init__(self):
        self.regions = as_matrix(self.regions, "regions")
        self.positives = as_matrix(self.positives, "positives")
        self.negatives = as_matrix(self.negatives, "negatives")
        caption = np.asarray(self.caption_nouns, dtype=np.float64)
        if caption.size == 0:
            caption = np.zeros((0, self.regions.shape[1]))
        self.caption_nouns = as_matrix(caption, "caption_nouns", allow_empty=True)
        if self.positives.shape != self.negatives.shape:
            raise DimensionError(
                f"positives {self.positives.shape} and negatives "
                f"{self.negatives.shape} must have identical shape"
            )
        d = self.regions.shape[1]
        for name, mat in (("positives", self.positives), ("caption_nouns", self.caption_nouns)):
            if mat.shape[1] != d:
                raise DimensionError(f"{name} dim {mat.shape[1]} != regions dim {d}")
        scores = np.asarray(self.global_scores, dtype=np.float64)
        if scores.shape != (self.positives.shape[0],):
            raise DimensionError(
                f"global_scores shape {scores.shape} must be ({self.positives.shape[0]},)"
            )
        if not np.isfinite(scores).all():
            raise ValidationError("global_scores contain non-finite entries")
        check_cosines(scores)
        self.global_scores = scores


def _max_last(x: np.ndarray) -> np.ndarray:
    """``x.max(axis=-1)``, folded over columns on a short axis; a max of zeros may differ in sign."""
    n = x.shape[-1]
    if not (1 <= n < _FOLD_BELOW
            or n <= _MAX_FOLD_WIDTH and x.size >= _MAX_FOLD_ROWS_PER_COLUMN * n * n):
        return x.max(axis=-1)
    out = x[..., 0].copy()
    for j in range(1, n):
        np.maximum(out, x[..., j], out=out)
    return out


def _fold_sum(terms) -> np.ndarray:
    """``0.0 + terms[0] + terms[1] + ...``, added left to right, in that order."""
    out = 0.0 + terms[0]
    for term in terms[1:]:
        out += term
    return out


def _sum_last(x: np.ndarray) -> np.ndarray:
    """``x.sum(axis=-1)``, bit for bit, folded over columns on a short axis."""
    n = x.shape[-1]
    if not 1 <= n < _FOLD_BELOW:
        return x.sum(axis=-1)
    return _fold_sum([x[..., j] for j in range(n)])


def compat_forward(tags: np.ndarray, contexts: np.ndarray):
    """Compatibility phi (..., J) of tags (..., J, d) against contexts (..., R, d).

    Leading axes are batch axes, and each slice's result is bitwise equal
    to a call on that slice alone: stacked matmul works slice by slice,
    and phi's row dot product is an einsum. The contexts broadcast against
    the tags, so tags stacked on an extra leading axis, such as a block's
    positives and negatives (2, B, J, d) against its contexts (B, R, d),
    take one pass with the same (J x d) @ (d x R) product per slice. The
    softmax chain runs in place on one buffer, in the order of
    ``exp(t / sqrt(d) - max) / sum``. Returns ``phi`` and the cache
    ``(t_raw, alpha, ctx)`` that :func:`compat_backward` reads, where
    ``t_raw`` holds the unscaled dot products and ``alpha`` the attention
    rows. Inputs are not validated; :func:`compatibility` is the validated
    front door.
    """
    t_raw = tags @ contexts.swapaxes(-1, -2)
    alpha = t_raw / np.sqrt(tags.shape[-1])
    alpha -= _max_last(alpha)[..., None]
    np.exp(alpha, out=alpha)
    alpha /= _sum_last(alpha)[..., None]
    ctx = alpha @ contexts
    phi = np.einsum("...jd,...jd->...j", tags, ctx)
    return phi, (t_raw, alpha, ctx)


def compat_backward(g: np.ndarray, tags: np.ndarray, contexts: np.ndarray, phi, cache):
    """Pull the upstream gradient g (..., J) of phi back onto tags and contexts.

    The closed form is derived in :mod:`rca.gradients`. Returns the tags'
    gradient (..., J, d) and the context weights ``b`` (..., J, R); the
    contexts' gradient is ``b.swapaxes(-1, -2) @ tags``, which the caller
    forms, one product per slice of an axis the contexts were broadcast
    over, and adds in its own order. Each chain runs in place on a fresh
    buffer, in the order of ``g * (ctx + (m - phi * ctx) / sqrt(d))`` and
    ``g * alpha * (1 + (t - phi) / sqrt(d))``, the two operands of a ``+``
    or ``*`` swapped where the buffer holds the right-hand one, which
    leaves every bit as it is; the cache is not written.
    """
    t_raw, alpha, ctx = cache
    sd = np.sqrt(tags.shape[-1])
    g = g[..., None]
    b = alpha * t_raw
    d_tags = b @ contexts  # m
    d_tags -= phi[..., None] * ctx
    d_tags /= sd
    d_tags += ctx
    d_tags *= g
    np.multiply(g, alpha, out=b)
    c = t_raw - phi[..., None]
    c /= sd
    c += 1.0
    b *= c
    return d_tags, b


def compatibility(tags, contexts) -> np.ndarray:
    """phi[j]: dot product of tags[j] with its attention-weighted context.

    Validates both matrices, then evaluates :func:`compat_forward`.
    """
    tags = as_matrix(tags, "tags")
    contexts = as_matrix(contexts, "contexts")
    if tags.shape[1] != contexts.shape[1]:
        raise DimensionError(
            f"tags dim {tags.shape[1]} != contexts dim {contexts.shape[1]}"
        )
    return compat_forward(tags, contexts)[0]


def scatter_add(index: np.ndarray, values: np.ndarray, rows: int) -> np.ndarray:
    """A (rows, d) zero table with each row of ``values`` added at its ``index``.

    ``index`` holds row numbers of any shape S, ``values`` has shape
    S + (d,). Equal bit for bit to scattering ``values`` onto
    ``np.zeros((rows, d))`` with ``numpy.ufunc.at`` of ``np.add``:
    ``np.bincount`` adds its weights one by one, in index order, onto 0.0,
    so a repeated row sums in the same order, and a row whose only term
    is -0.0 reads +0.0, as 0.0 + -0.0 does.
    """
    d = values.shape[-1]
    flat = (index[..., None] * d + np.arange(d)).ravel()
    return np.bincount(flat, weights=values.ravel(), minlength=rows * d).reshape(rows, d)
