"""Desk-scale trainer that aligns tag, caption, and region tables by gradient descent.

The synthetic world has ``n_concepts`` unit-norm prototype directions. Each
image shows ``regions_per_image`` distinct concepts; its positive tags and
caption nouns name exactly those concepts and its negative tags name absent
ones. Global tag scores are cosines against the mean region embedding,
frozen at generation time. An optional flip swaps one positive/negative
pair to emulate ranking noise. The generator reads the stream the
per-image ``Generator.choice``, noise and flip calls would read, in their
order: one ``Generator.integers`` call per image makes both its ``choice``
calls' draws (one per block where no noise or flip comes between), and
the picks and the arithmetic on them (noise scaling, flips, means,
cosines, sorts) run per ``BLOCK`` of images. Draws and tag embeddings
live in buffers reused per block; the dataset keeps the tags' scores and
cosines.

Tag and caption embeddings live in per-concept tables shared across the
whole dataset, so the contrastive objective can triangulate each concept
from its co-occurrences; region embeddings get a row per (image, slot).
Training runs plain gradient descent on the mean per-image loss, with
candidate subsampling (none at a fraction of 1), optional uncertainty-aware
selection, and a caption term (none at ``lambda_inner = 0``). Selection
and its weights are computed on the frozen generation-time embeddings (the
stand-in for pretrained encoder features) and applied straight-through to
the trainable tables, so filter quality is a property of the data, not of
the training trajectory. Loss history records are full-dataset snapshots
(no subsampling), so a zero learning rate yields a perfectly flat history.

A corpus holds, images on the leading axis, the table rows each image
contrasts and the frozen region-by-pool cosines selection reads. The
generated dataset is one, its cosines computed once, and ``rca uasr`` and
``rca loss`` build one per shape group of a file and run the same
selection and loss helpers. Selection reads only those cosines and treats
each image alone, so no step's selection depends on the tables it trains.
A run makes one selection call for all its snapshots (the plan: each
image's selected concepts, weights and clamp counts). It splits its steps
into stretches that end at the next history record, at most ten steps,
and fewer where a stretch's batches would pass ``STRETCH_IMAGES`` images
(one step at the least). A stretch makes all its random draws first, in
the order the steps would make them, then one selection call over all
its batches; each step takes its own rows. The losses run ``BLOCK``
(256) images per forward (and, in a step, backward) pass, so the pass
temporaries do not grow with the dataset. A history record is the mean of
the per-image loss table, added in image order, so it does not depend on
``BLOCK`` and equals what a per-image loop computes. A step keeps its
gradient rows in image order and folds them onto each concept table with
one :func:`rca.core.scatter_add`. A batch holds each image once, so each
region row gets at most one gradient row, and the step subtracts it from
that row alone.

A subsampled step selects over the column subset of its kept rows,
exactly as if the pool held only those rows. It draws those rows with
one ``Generator.integers`` call, from the stream numpy's per-image
``Generator.choice`` calls would read. :func:`_choice_picks` is the one
replica of ``choice`` both callers share: ``choice`` runs Floyd's
algorithm and a shuffle (past a pool of 10,000, for more than pool // 50
picks, a shuffle of the pool's tail instead), one bounded draw per bound;
an array of those bounds makes the same draws, so the picks, the state
after them and every generated field and trained table are the same
(checked on numpy 2.4.6).
"""

from __future__ import annotations

import math
import typing
from dataclasses import dataclass

import numpy as np

from .core import ContrastiveInstance, check_addressable, scatter_add
from .errors import ConfigError, DegenerateEmbeddingError, DivergenceError
from .losses import batch_loss
from .uasr import pool_cosines, select_batch, warn_clamped

__all__ = [
    "SyntheticConfig",
    "TrainerConfig",
    "field_kinds",
    "SyntheticDataset",
    "TrainState",
    "HistoryRecord",
    "generate_synthetic",
    "initial_state",
    "aligned_state",
    "gather_instance",
    "snapshot_loss",
    "train_alignment",
    "evaluate_retrieval",
]

BLOCK = 256  # images per loss pass, and per generation block
# Most images one selection call takes for a stretch of training steps (a
# stretch always holds one step's batch), so that a full-batch run on a large
# dataset does not hold ten steps' selection temporaries at once. The largest
# are (images, K, 2K) floats: 1 MB at K = 4.
STRETCH_IMAGES = 16 * BLOCK


def field_kinds(config_class) -> dict[str, type]:
    """Each field of a config dataclass and its type: ``int``, ``float`` or ``bool``."""
    return typing.get_type_hints(config_class)


def _check_types(config) -> None:
    """Raise :class:`ConfigError` unless each field holds its type.

    A float field also takes an int; an int field does not take a bool.
    """
    accepted = {bool: (bool,), int: (int,), float: (int, float)}
    for name, kind in field_kinds(type(config)).items():
        value = getattr(config, name)
        if not isinstance(value, accepted[kind]) or (kind is not bool and isinstance(value, bool)):
            raise ConfigError(f"{name} must be {kind.__name__}, got {value!r}")


def _check_seed(seed: int) -> None:
    """Raise :class:`ConfigError` unless 0 <= seed < 2**64.

    A state file holds its configs' seeds as JSON integers, and an integer
    past 64 bits reads back as a float, so a larger seed would make a state
    that ``read_state`` refuses.
    """
    if seed < 0:
        raise ConfigError("seed must be non-negative")
    if seed >= 2**64:
        raise ConfigError(f"seed must be below 2**64, got {seed}")


@dataclass
class SyntheticConfig:
    """Shape and noise knobs for the generated dataset."""

    n_concepts: int = 10
    d: int = 16
    n_images: int = 200
    regions_per_image: int = 4
    noise_sigma: float = 0.0
    flip_rate: float = 0.0
    seed: int = 0

    def __post_init__(self):
        _check_types(self)
        if self.n_concepts < 2:
            raise ConfigError("need at least 2 concepts")
        if self.d < 1:
            raise ConfigError("embedding dimension must be positive")
        if self.n_images < 1:
            raise ConfigError("need at least 1 image")
        if not 1 <= self.regions_per_image < self.n_concepts:
            raise ConfigError(
                "regions_per_image must be in [1, n_concepts) so negatives exist"
            )
        if self.noise_sigma < 0.0 or not math.isfinite(self.noise_sigma):
            raise ConfigError("noise_sigma must be finite and non-negative")
        if not 0.0 <= self.flip_rate <= 1.0:
            raise ConfigError("flip_rate must lie in [0, 1]")
        _check_seed(self.seed)
        c, n, k = self.n_concepts, self.n_images, self.regions_per_image
        # prototypes and concept tables, region embeddings and cosines per (image,
        # slot), and a generation block's absent-concept mask or shuffled pool,
        # choice draws, region noise and tag embeddings
        entries = (c * self.d + n * k * (self.d + 2 * k)
                   + min(n, BLOCK) * (c + 4 * k + 3 * k * self.d))
        check_addressable(entries, "synthetic dataset")


@dataclass
class TrainerConfig:
    """Optimization settings. Freeze flags pin individual tables."""

    steps: int = 500
    learning_rate: float = 1e-4
    batch_size: int = 512
    lambda_cross: float = 1.0
    lambda_inner: float = 1.0
    enable_uasr: bool = True
    subsample_fraction: float = 0.5
    seed: int = 0
    freeze_tags: bool = False
    freeze_regions: bool = False
    freeze_caption: bool = False

    def __post_init__(self):
        _check_types(self)
        if self.steps < 0:
            raise ConfigError("steps must be non-negative")
        if self.learning_rate < 0.0 or not math.isfinite(self.learning_rate):
            raise ConfigError("learning_rate must be finite and non-negative")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be positive")
        for name in ("lambda_cross", "lambda_inner"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0.0):
                raise ConfigError(f"{name} must be finite and non-negative")
        if not 0.0 < self.subsample_fraction <= 1.0:
            raise ConfigError("subsample_fraction must lie in (0, 1]")
        _check_seed(self.seed)

    @property
    def lambdas(self) -> tuple[float, float]:
        """The losses' (lambda_cross, lambda_inner)."""
        return self.lambda_cross, self.lambda_inner


@dataclass
class _Corpus:
    """Images on the leading axis, as rows of a :class:`TrainState`'s tables.

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


@dataclass
class SyntheticDataset(_Corpus):
    """A generated corpus and the planted world it was drawn from.

    The region embeddings and the tag embeddings drawn with them (kept only
    in per-block buffers) are the frozen "pretrained encoder" view of each
    image; ``global_scores`` and ``cosines`` are theirs, so the filter
    quality does not depend on how far training has gotten. Each caption
    names exactly the concepts its regions show; image i's regions are
    region-table rows i*K to i*K+K-1.
    """

    config: SyntheticConfig
    prototypes: np.ndarray           # (n_concepts, d) unit rows
    region_concepts: np.ndarray      # (n, K) one concept per region
    region_embeddings: np.ndarray    # (n, K, d) as generated, used for table init
    flipped: np.ndarray              # (n,) bool


def generate_synthetic(config: SyntheticConfig) -> SyntheticDataset:
    """Sample a dataset of images with ranked positive and negative tags.

    Each image's draws run in stream order, image by image: one
    ``Generator.integers`` call makes the draws of its two
    ``Generator.choice`` calls (see :func:`_choice_picks`), one
    ``standard_normal`` call its region, positive and negative noise, then
    its flip draws. Where no noise or flip comes between them, a block's
    choice draws are one call. The picks and the arithmetic on them run
    per ``BLOCK`` of images.
    """
    rng = np.random.default_rng(config.seed)
    protos = rng.standard_normal((config.n_concepts, config.d))
    protos /= np.linalg.norm(protos, axis=1, keepdims=True)

    c, n, k = config.n_concepts, config.n_images, config.regions_per_image
    sigma, flip_rate = config.noise_sigma, config.flip_rate
    pos_bounds = _choice_bounds(c, k)
    # choosing k of fewer than k absent concepts draws with replacement
    neg_bounds = np.full(k, c - k - 1) if c - k < k else _choice_bounds(c - k, k)
    bounds = np.concatenate([pos_bounds, neg_bounds])
    draw_buf = np.empty((min(n, BLOCK), len(bounds)), dtype=np.int64)
    # per image: region noise (where there is noise), positive and negative tag embeddings
    emb_buf = np.empty((min(n, BLOCK), 2 + (sigma != 0.0), k, config.d))
    region_concepts, positive_concepts, negative_concepts = (
        np.empty((n, k), dtype=np.int64) for _ in range(3))
    region_embs = np.empty((n, k, config.d))
    global_scores = np.empty((n, k))
    flipped = np.zeros(n, dtype=bool)
    swaps = np.zeros((n, 2), dtype=np.int64)  # flipped (positive, negative) slots
    cosines = np.empty((n, k, 2 * k))
    for start in range(0, n, BLOCK):
        part = slice(start, start + BLOCK)
        block = range(start, min(start + BLOCK, n))
        draws, block_embs = draw_buf[:len(block)], emb_buf[:len(block)]
        if sigma == 0.0 and flip_rate == 0.0:
            draws[:] = rng.integers(0, bounds, size=draws.shape, endpoint=True)
        else:
            for row, image in enumerate(block):
                draws[row] = rng.integers(0, bounds, endpoint=True)
                if sigma != 0.0:
                    rng.standard_normal(out=block_embs[row])
                if flip_rate > 0.0 and rng.random() < flip_rate:
                    flipped[image] = True
                    swaps[image] = rng.integers(k), rng.integers(k)

        present = region_concepts[part] = _choice_picks(draws[:, :len(pos_bounds)], c, k)
        absent_picks = draws[:, len(pos_bounds):]  # indices into the sorted absent concepts
        if c - k >= k:
            absent_picks = _choice_picks(absent_picks, c - k, k)
        absent = np.ones((len(present), c), dtype=bool)
        np.put_along_axis(absent, present, False, axis=1)
        absent = np.nonzero(absent)[1].reshape(len(present), c - k)
        negatives = np.take_along_axis(absent, absent_picks, axis=1)
        positives = present.copy()
        pos_embs, neg_embs = block_embs[:, -2], block_embs[:, -1]
        # a norm that overflows reads inf or nan here; pool_cosines rejects the first such
        # row, named by its place in its image (the generator has no record ids)
        with np.errstate(over="ignore", invalid="ignore"):
            if sigma != 0.0:
                region_embs[part] = block_embs[:, 0]
            for out, concepts in ((region_embs[part], present), (pos_embs, present),
                                  (neg_embs, negatives)):
                if sigma == 0.0:
                    np.take(protos, concepts, axis=0, out=out)
                else:
                    out *= sigma
                    out += protos[concepts]
            flips = np.flatnonzero(flipped[part])
            i, j = swaps[part][flips].T
            positives[flips, i], negatives[flips, j] = negatives[flips, j], positives[flips, i]
            pos_embs[flips, i], neg_embs[flips, j] = neg_embs[flips, j], pos_embs[flips, i]

            # each dot product and norm sums in the order the per-image calls did:
            # stacked mat-vecs, the row norms, and stacked (1, d) @ (d, 1) products,
            # the ddot np.linalg.norm runs on a vector
            images = region_embs[part].mean(axis=1)
            image_norms = np.sqrt((images[:, None, :] @ images[:, :, None])[:, 0, 0])
            pos_scores, neg_scores = (
                (embs @ images[:, :, None])[:, :, 0]
                / np.maximum(np.linalg.norm(embs, axis=-1) * image_norms[:, None], 1e-12)
                for embs in (pos_embs, neg_embs))
        pos_order = np.argsort(-pos_scores, axis=1, kind="stable")
        neg_order = np.argsort(-neg_scores, axis=1, kind="stable")
        positive_concepts[part] = np.take_along_axis(positives, pos_order, axis=1)
        negative_concepts[part] = np.take_along_axis(negatives, neg_order, axis=1)
        global_scores[part] = np.take_along_axis(pos_scores, pos_order, axis=1)
        cosines[part] = pool_cosines(region_embs[part],
                                     np.take_along_axis(pos_embs, pos_order[:, :, None], axis=1),
                                     np.take_along_axis(neg_embs, neg_order[:, :, None], axis=1))
    return SyntheticDataset(
        config=config,
        prototypes=protos,
        region_concepts=region_concepts,
        positive_concepts=positive_concepts,
        negative_concepts=negative_concepts,
        caption_concepts=region_concepts,
        region_rows=np.arange(n * k).reshape(n, k),
        global_scores=global_scores,
        region_embeddings=region_embs,
        flipped=flipped,
        cosines=cosines,
    )


@dataclass
class TrainState:
    tag_table: np.ndarray      # (n_concepts, d)
    caption_table: np.ndarray  # (n_concepts, d)
    region_table: np.ndarray   # (n_images * K, d)
    step: int = 0


def initial_state(
    dataset: SyntheticDataset, seed: int = 0, region_init: str = "data"
) -> TrainState:
    """Random concept tables; region rows copied from the data or random too.

    The RNG stream is keyed away from the generator's so that reusing one
    seed for data and init cannot hand the tables the true prototypes.
    """
    cfg = dataset.config
    rng = np.random.default_rng([seed, 0x1217])
    scale = 1.0 / np.sqrt(cfg.d)
    tag = rng.standard_normal((cfg.n_concepts, cfg.d)) * scale
    cap = rng.standard_normal((cfg.n_concepts, cfg.d)) * scale
    if region_init == "data":
        regions = dataset.region_embeddings.reshape(-1, cfg.d)
    elif region_init == "random":
        regions = rng.standard_normal((dataset.region_rows.size, cfg.d)) * scale
    else:
        raise ConfigError(f"unknown region_init {region_init!r}")
    return TrainState(tag_table=tag, caption_table=cap, region_table=regions.copy())


def aligned_state(dataset: SyntheticDataset) -> TrainState:
    """Oracle state: concept tables equal the true prototypes."""
    return TrainState(
        tag_table=dataset.prototypes.copy(),
        caption_table=dataset.prototypes.copy(),
        region_table=dataset.region_embeddings.reshape(-1, dataset.config.d).copy(),
    )


def gather_instance(
    dataset: SyntheticDataset, state: TrainState, index: int
) -> ContrastiveInstance:
    """Materialize one image's validated contrastive arrays from the current tables."""
    return ContrastiveInstance(
        regions=state.region_table[dataset.region_rows[index]],
        positives=state.tag_table[dataset.positive_concepts[index]],
        negatives=state.tag_table[dataset.negative_concepts[index]],
        caption_nouns=state.caption_table[dataset.caption_concepts[index]],
        global_scores=dataset.global_scores[index],
    )


@dataclass
class HistoryRecord:
    step: int
    cross: float
    inner: float
    total: float


def _select(corpus, images, normalize, subsets=None):
    """Selection for ``images`` over the corpus's frozen cosines, in one call.

    With ``subsets`` (b, 2, m), the sorted positive and negative rows a
    subsampled step keeps per image, the argmax runs over those pool
    columns only. Indices refer to the kept rows.
    """
    cosines = corpus.cosines[images]
    scores = corpus.global_scores[images]
    if subsets is not None:
        rows = np.arange(len(images))[:, None]
        k = scores.shape[1]
        cols = np.concatenate([subsets[:, 0], k + subsets[:, 1]], axis=1)
        cosines = cosines[rows[:, :, None], np.arange(cosines.shape[1])[:, None],
                          cols[:, None, :]]
        scores = scores[rows, subsets[:, 0]]
    return select_batch(cosines, scores, normalize)


class _Selection(typing.NamedTuple):
    """The tag concepts some images contrast, with their weights and clamp counts."""

    positive_concepts: np.ndarray  # (b, K)
    negative_concepts: np.ndarray  # (b, K)
    weights: np.ndarray | None     # (b, K), None without selection
    clamped: np.ndarray            # (b,) global scores clamped, with multiplicity

    def take(self, part: slice) -> "_Selection":
        """The rows in the slice ``part``."""
        return _Selection(*(None if f is None else f[part] for f in self))


def _selection(corpus, images, enable, normalize, subsets=None) -> _Selection:
    """The tag-table rows ``images`` contrast, selected by :func:`_select` if ``enable``.

    ``subsets`` as there. Training and ``rca loss`` both select through here.
    """
    rows = np.arange(len(images))[:, None]
    pos_concepts = corpus.positive_concepts[images]
    neg_concepts = corpus.negative_concepts[images]
    if subsets is not None:
        pos_concepts = pos_concepts[rows, subsets[:, 0]]
        neg_concepts = neg_concepts[rows, subsets[:, 1]]
    if not enable:
        return _Selection(pos_concepts, neg_concepts, None, np.zeros(len(images), dtype=np.int64))
    sel = _select(corpus, images, normalize, subsets)
    return _Selection(pos_concepts[rows, sel.positive_indices],
                      neg_concepts[rows, sel.negative_indices], sel.weights, sel.clamped)


def _losses(corpus, state, images, sel, lambdas, with_grad=False):
    """Per-image loss table of ``images`` under selection ``sel``.

    ``state`` holds the tables the corpus rows index; ``lambdas`` is
    ``(lambda_cross, lambda_inner)``. Training and ``rca loss`` both run
    ``BLOCK`` images per pass through here. Returns ``(table, grads)``:
    ``table`` (b, 3) holds each image's cross, inner and total
    ``lambda_cross * cross + lambda_inner * inner`` losses; being C-ordered,
    its ``sum(axis=0)`` adds them row by row, in image order. With
    ``with_grad``, ``grads`` holds the gradient rows in image order: tag
    (b, 2K, d) for ``sel.positive_concepts`` then ``sel.negative_concepts``,
    caption (b, P, d) for ``corpus.caption_concepts[images]`` and region
    (b, R, d) for ``corpus.region_rows[images]``. Else it is None.
    """
    table = np.empty((len(images), 3))
    grads = []
    for start in range(0, len(images), BLOCK):
        part = slice(start, start + BLOCK)
        block, block_sel = images[part], sel.take(part)
        table[part, 0], table[part, 1], g = batch_loss(
            state.region_table[corpus.region_rows[block]],
            state.tag_table[block_sel.positive_concepts],
            state.tag_table[block_sel.negative_concepts],
            state.caption_table[corpus.caption_concepts[block]],
            block_sel.weights,
            *lambdas,
            with_grad=with_grad,
        )
        if with_grad:
            grads.append((np.concatenate([g.d_positives, g.d_negatives], axis=1),
                          g.d_caption_nouns, g.d_regions))
    table[:, 2] = lambdas[0] * table[:, 0] + lambdas[1] * table[:, 1]
    return table, tuple(np.concatenate(r) for r in zip(*grads)) if with_grad else None


def _snapshot(dataset, state, plan, lambdas) -> HistoryRecord:
    """Mean full-dataset loss record under the selection ``plan``.

    Its means add the per-image losses in image order, so they equal what
    the per-image reference computes, whatever ``BLOCK`` is. Raises
    :class:`DivergenceError` if the total is not finite.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is rejected below
        table, _ = _losses(dataset, state, np.arange(len(dataset)), plan, lambdas)
        record = HistoryRecord(state.step, *(table.sum(axis=0) / len(table)).tolist())
    if not math.isfinite(record.total):
        raise DivergenceError(state.step, "snapshot loss is not finite")
    return record


def snapshot_loss(
    dataset: SyntheticDataset, state: TrainState, config: TrainerConfig
) -> HistoryRecord:
    """Mean full-dataset loss with the configured selection, no subsampling.

    Raises :class:`DivergenceError` if it is not finite. Warns at most
    once, with the total count, if selection clamped non-positive global
    scores.
    """
    plan = _selection(dataset, np.arange(len(dataset)), config.enable_uasr, True)
    record = _snapshot(dataset, state, plan, config.lambdas)
    warn_clamped(int(plan.clamped.sum()))
    return record


def _tail_shuffled(pop: int, size: int) -> bool:
    """Whether ``Generator.choice`` of ``size`` of ``pop`` without replacement shuffles a tail.

    It then shuffles the tail of the whole pool ``arange(pop)``; else it
    runs Floyd's algorithm and then shuffles its picks.
    """
    return pop > 10_000 and size > pop // 50


def _choice_bounds(pop: int, size: int) -> np.ndarray:
    """The bounds b of the draws on [0, b] that ``choice`` of ``size`` of ``pop`` makes, in order.

    Floyd's algorithm draws on [0, j] for each j in pop-size..pop-1 (a
    bound of 0 reads no word), then the shuffle on [0, i] for each i in
    size-1..1. A tail shuffle draws on [0, i] for each i in pop-1 down to
    max(pop-size, 1).
    """
    if _tail_shuffled(pop, size):
        return np.arange(pop - 1, max(pop - size, 1) - 1, -1)
    return np.concatenate([np.arange(pop - size, pop), np.arange(size - 1, 0, -1)])


def _choice_picks(draws: np.ndarray, pop: int, size: int) -> np.ndarray:
    """The picks of ``choice`` of ``size`` of ``pop``, in its order, per row of its draws.

    ``draws`` holds one row of :func:`_choice_bounds` draws per call.
    ``Generator.integers`` makes one bounded (Lemire) draw per entry of an
    array of bounds, in order, as ``choice`` does per bound, so one
    ``integers`` call over rows of those bounds reads the stream of that
    many ``choice`` calls and leaves the generator where they would. Floyd's
    picks take each draw, or j where the draw was already picked; the
    shuffle then swaps position i with its draw, for i from the top down.
    A tail shuffle makes those swaps on the whole pool ``arange(pop)`` and
    keeps its last ``size`` entries. That ``choice`` draws this way was
    checked on numpy 2.4.6.
    """
    if _tail_shuffled(pop, size):
        picks, swaps = np.tile(np.arange(pop), (len(draws), 1)), draws
    else:
        picks, swaps = draws[:, :size].copy(), draws[:, size:]
        for t in range(1, size):
            repeat = (picks[:, :t] == picks[:, t, None]).any(axis=1)
            picks[:, t] = np.where(repeat, pop - size + t, picks[:, t])
    rows = np.arange(len(draws))
    for col, j in enumerate(swaps.T):
        i = picks.shape[1] - 1 - col
        top = picks[:, i].copy()
        picks[:, i] = picks[rows, j]
        picks[rows, j] = top
    return picks[:, picks.shape[1] - size:]


def _draw_subsets(rng, count: int, k: int, fraction: float) -> np.ndarray:
    """Sorted kept rows (count, 2, m) per image, positives then negatives.

    Keeps m = ceil(fraction * k) of k rows without replacement, twice per
    image: the rows the per-image ``Generator.choice`` calls of
    :func:`rca.tags.subsample` pick, from the stream they read, drawn in one
    ``Generator.integers`` call (see :func:`_choice_picks`), and leaves
    ``rng`` where they would.
    """
    m = math.ceil(fraction * k)
    bounds = _choice_bounds(k, m)
    draws = rng.integers(0, bounds, size=(2 * count, len(bounds)), endpoint=True)
    return np.sort(_choice_picks(draws, k, m).reshape(count, 2, m), axis=-1)


def _step(dataset, state, config, batch, sel) -> None:
    """One gradient step on ``batch`` under its selection ``sel``, in place.

    Raises :class:`DivergenceError` if a table stops being finite.
    """
    _, (d_tags, d_caption, d_regions) = _losses(dataset, state, batch, sel, config.lambdas,
                                                with_grad=True)
    lr = config.learning_rate / len(batch)
    if not config.freeze_tags:
        tag_concepts = np.concatenate([sel.positive_concepts, sel.negative_concepts], axis=1)
        state.tag_table -= lr * scatter_add(tag_concepts, d_tags, len(state.tag_table))
    if not config.freeze_caption:
        state.caption_table -= lr * scatter_add(dataset.caption_concepts[batch],
                                                d_caption, len(state.caption_table))
    if not config.freeze_regions:
        # 0.0 + d is what a scatter onto zeros would hold: -0.0 reads +0.0
        state.region_table[dataset.region_rows[batch]] -= lr * (0.0 + d_regions)
    state.step += 1
    for table in (state.tag_table, state.caption_table, state.region_table):
        if not np.isfinite(table).all():
            raise DivergenceError(state.step, "table values are not finite")


def train_alignment(
    dataset: SyntheticDataset,
    config: TrainerConfig,
    state: TrainState | None = None,
) -> tuple[TrainState, list[HistoryRecord]]:
    """Gradient descent over the tables; returns the final state and history.

    History holds snapshots before the first step, after every tenth step,
    and after the last one. Raises :class:`DivergenceError` as soon as a
    table or a snapshot stops being finite. Warns at most once, with the
    total count, if selection clamped non-positive global scores.
    """
    if state is None:
        state = initial_state(dataset, seed=config.seed)
    rng = np.random.default_rng(config.seed)
    n, k = dataset.positive_concepts.shape
    plan = _selection(dataset, np.arange(n), config.enable_uasr, True)
    clamped = 0  # by the steps; each snapshot adds the plan's
    history: list[HistoryRecord] = []

    def record():
        history.append(_snapshot(dataset, state, plan, config.lambdas))

    b = min(config.batch_size, n)  # images per step
    per_stretch = max(1, STRETCH_IMAGES // b)
    left = config.steps
    # A diverging run overflows on its way to a non-finite table or
    # snapshot; the checks in _step and _snapshot report that as a DivergenceError.
    with np.errstate(over="ignore", invalid="ignore"):
        record()
        while left:
            # a stretch ends at the next record: its draws first, in stream
            # order, then one selection over all its batches, then its steps
            count = min(10 - state.step % 10, left, per_stretch)
            left -= count
            batches, subsets = [], []
            for _ in range(count):
                batches.append(np.arange(n) if b == n else rng.choice(n, size=b, replace=False))
                if config.subsample_fraction < 1.0:
                    subsets.append(_draw_subsets(rng, b, k, config.subsample_fraction))
            stretch_sel = _selection(dataset, np.concatenate(batches), config.enable_uasr, True,
                                     np.concatenate(subsets) if subsets else None)
            clamped += int(stretch_sel.clamped.sum())
            for i, batch in enumerate(batches):
                _step(dataset, state, config, batch, stretch_sel.take(slice(i * b, (i + 1) * b)))
                if state.step % 10 == 0:
                    record()

        if history[-1].step != state.step:
            record()
    warn_clamped(clamped + len(history) * int(plan.clamped.sum()))
    return state, history


def evaluate_retrieval(dataset: SyntheticDataset, state: TrainState) -> float:
    """Fraction of positive tags whose best-matching region shows their concept.

    Each positive tag retrieves the region of its own image with the
    highest cosine against the current tables. Exactly one region depicts
    each true positive concept, so random tables score about 1/K; a
    flipped-in positive names an absent concept and always misses. A
    cosine whose norms or dot product overflow raises
    :class:`DegenerateEmbeddingError`; a zero norm is clamped to 1e-12.
    """
    regions = state.region_table.reshape(*dataset.region_concepts.shape, -1)
    tags = state.tag_table[dataset.positive_concepts]
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is rejected below
        rnorm = np.maximum(np.linalg.norm(regions, axis=-1), 1e-12)
        tnorm = np.maximum(np.linalg.norm(tags, axis=-1), 1e-12)
        num = tags @ regions.swapaxes(-1, -2)
        den = rnorm[:, None, :] * tnorm[:, :, None]
    if not (np.isfinite(num).all() and np.isfinite(den).all()):
        raise DegenerateEmbeddingError("retrieval cosine has an overflowing norm or dot product")
    cos = num / den
    winners = np.take_along_axis(dataset.region_concepts, cos.argmax(axis=-1), axis=1)
    hits = winners == dataset.positive_concepts
    return int(hits.sum()) / hits.size
