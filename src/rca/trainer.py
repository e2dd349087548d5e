"""Desk-scale trainer that aligns tag, caption, and region tables by gradient descent.

The synthetic world has ``n_concepts`` unit-norm prototype directions. Each
image shows ``regions_per_image`` distinct concepts; its positive tags and
caption nouns name exactly those concepts and its negative tags name absent
ones. Global tag scores are cosines against the mean region embedding,
frozen at generation time. An optional flip swaps one positive/negative
pair to emulate ranking noise.

Tag and caption embeddings live in per-concept tables shared across the
whole dataset, so the contrastive objective can triangulate each concept
from its co-occurrences; region embeddings get a row per (image, slot).
Training runs plain gradient descent on the mean per-image loss, with
optional candidate subsampling and uncertainty-aware selection. Selection
and its weights are computed on the frozen generation-time embeddings (the
stand-in for pretrained encoder features) and applied straight-through to
the trainable tables, so filter quality is a property of the data, not of
the training trajectory. Loss history records are full-dataset snapshots
(no subsampling), so a zero learning rate yields a perfectly flat history.

The dataset holds one stacked array per field, images on the leading
axis, and computes the region-by-pool cosines of its frozen evidence once,
when it is generated. Selection reads only that evidence, so the
snapshots of a training run select once: before the first one, the run
builds a plan holding each image's selected positive and negative
concepts, their weights and its clamp counts. The plan holds (n, K)
arrays, as ``cosines`` holds an (n, K, 2K) one; every snapshot reads it.
Steps select per block, over the images of their batch. Steps and
snapshots compute whole blocks of at most ``BLOCK`` (256) images: one
forward/backward and one scatter-add per table for each block, so the
block temporaries do not grow with the dataset. A snapshot adds its
per-image losses in ``SUM_GROUP`` (64) image groups, in image order, so
its floats do not depend on ``BLOCK``.

A subsampled step selects per block, over the column subset of its kept
rows, exactly as if the pool held only those rows. It draws those rows
from the stream numpy's per-image ``Generator.choice`` calls would read,
in one bulk read of that same stream; a step whose draws would hit one of
``choice``'s rejections replays the calls one by one, so the stream, the
state after it, and every trained table are the same either way.
"""

from __future__ import annotations

import math
import typing
from dataclasses import dataclass

import numpy as np

from .core import ContrastiveInstance
from .errors import ConfigError, DivergenceError
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

BLOCK = 256  # images per stacked block in selection, steps and snapshots
SUM_GROUP = 64  # images per partial sum of a snapshot's losses, as the pinned histories were summed


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
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")


@dataclass
class TrainerConfig:
    """Optimization settings. Freeze flags pin individual tables."""

    steps: int = 500
    learning_rate: float = 1e-4
    batch_size: int = 512
    lambda_cross: float = 1.0
    lambda_inner: float = 1.0
    enable_uasr: bool = True
    enable_inner: bool = True
    enable_subsample: bool = True
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
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")

    @property
    def effective_lambda_inner(self) -> float:
        return self.lambda_inner if self.enable_inner else 0.0


@dataclass
class SyntheticDataset:
    """A generated corpus: one stacked array per field, images on the leading axis.

    The embedding fields are the frozen "pretrained encoder" view of each
    image, and ``cosines`` holds their region-by-pool cosines (positives,
    then negatives), computed once at generation. Selection and
    re-weighting run on these, never on the trainable tables, so the filter
    quality does not depend on how far training has gotten.
    """

    config: SyntheticConfig
    prototypes: np.ndarray           # (n_concepts, d) unit rows
    region_concepts: np.ndarray      # (n, K) one concept per region
    positive_concepts: np.ndarray    # (n, K) sorted by descending global score
    negative_concepts: np.ndarray    # (n, K) sorted by descending global score
    global_scores: np.ndarray        # (n, K) cosine of positive tag vs mean region
    region_embeddings: np.ndarray    # (n, K, d) as generated, used for table init
    positive_embeddings: np.ndarray  # (n, K, d) as generated, evidence for selection
    negative_embeddings: np.ndarray  # (n, K, d)
    flipped: np.ndarray              # (n,) bool
    cosines: np.ndarray              # (n, K, 2K)

    def __len__(self) -> int:
        return self.region_concepts.shape[0]

    @property
    def caption_concepts(self) -> np.ndarray:
        """(n, K): each caption names exactly the concepts its regions show."""
        return self.region_concepts

    @property
    def n_region_rows(self) -> int:
        return self.region_concepts.size

    def region_rows(self, images) -> np.ndarray:
        """Rows of the region table that hold each image's regions, shape (..., K)."""
        k = self.config.regions_per_image
        return np.asarray(images)[..., None] * k + np.arange(k)


def _cosine_rows(image: np.ndarray, rows: np.ndarray) -> np.ndarray:
    num = rows @ image
    den = np.linalg.norm(rows, axis=1) * np.linalg.norm(image)
    return num / np.maximum(den, 1e-12)


def generate_synthetic(config: SyntheticConfig) -> SyntheticDataset:
    """Sample a dataset of images with ranked positive and negative tags."""
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
    for image in range(n):
        present = rng.choice(config.n_concepts, size=k, replace=False)
        absent = np.setdiff1d(np.arange(config.n_concepts), present)
        negatives = rng.choice(absent, size=k, replace=len(absent) < k)

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

    cosines = np.empty((n, k, 2 * k))
    for start in range(0, n, BLOCK):
        part = slice(start, start + BLOCK)
        cosines[part] = pool_cosines(region_embs[part], positive_embs[part],
                                     negative_embs[part])
    return SyntheticDataset(
        config=config,
        prototypes=protos,
        region_concepts=region_concepts,
        positive_concepts=positive_concepts,
        negative_concepts=negative_concepts,
        global_scores=global_scores,
        region_embeddings=region_embs,
        positive_embeddings=positive_embs,
        negative_embeddings=negative_embs,
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
        regions = rng.standard_normal((dataset.n_region_rows, cfg.d)) * scale
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
        regions=state.region_table[dataset.region_rows(index)],
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


def _select_block(dataset, images, subsets=None):
    """Selection for one block of images over their frozen evidence.

    With ``subsets`` (b, 2, m), the sorted positive and negative rows a
    subsampled step keeps per image, the argmax runs over those pool
    columns only. Indices refer to the kept rows.
    """
    cosines = dataset.cosines[images]
    scores = dataset.global_scores[images]
    if subsets is not None:
        rows = np.arange(len(images))[:, None]
        k = scores.shape[1]
        cols = np.concatenate([subsets[:, 0], k + subsets[:, 1]], axis=1)
        cosines = cosines[rows[:, :, None], np.arange(cosines.shape[1])[:, None],
                          cols[:, None, :]]
        scores = scores[rows, subsets[:, 0]]
    return select_batch(cosines, scores)


class _Selection(typing.NamedTuple):
    """The tag concepts a block of images contrasts, with their weights and clamp counts."""

    positive_concepts: np.ndarray  # (b, K)
    negative_concepts: np.ndarray  # (b, K)
    weights: np.ndarray | None     # (b, K), None without selection
    clamped: np.ndarray            # (b,) global scores clamped, with multiplicity

    def take(self, images) -> "_Selection":
        """The rows of ``images`` (an index array or a slice)."""
        return _Selection(*(None if f is None else f[images] for f in self))


def _selection(dataset, config, images, subsets=None) -> _Selection:
    """Selection for one block of images, as tag concepts; ``subsets`` as for :func:`_select_block`."""
    rows = np.arange(len(images))[:, None]
    pos_concepts = dataset.positive_concepts[images]
    neg_concepts = dataset.negative_concepts[images]
    if subsets is not None:
        pos_concepts = pos_concepts[rows, subsets[:, 0]]
        neg_concepts = neg_concepts[rows, subsets[:, 1]]
    if not config.enable_uasr:
        return _Selection(pos_concepts, neg_concepts, None, np.zeros(len(images), dtype=np.int64))
    sel = _select_block(dataset, images, subsets)
    return _Selection(pos_concepts[rows, sel.positive_indices],
                      neg_concepts[rows, sel.negative_indices], sel.weights, sel.clamped)


def _plan(dataset, config) -> _Selection:
    """Every image's selection over its full pool, selected ``BLOCK`` images at a time.

    Selection reads only the frozen evidence, so one plan serves every
    snapshot of a run.
    """
    images = np.arange(len(dataset))
    blocks = [_selection(dataset, config, images[start:start + BLOCK])
              for start in range(0, len(images), BLOCK)]
    return _Selection(*(None if f[0] is None else np.concatenate(f) for f in zip(*blocks)))


def _block_loss(dataset, state, config, images, sel, grads=None):
    """Per-image cross and inner losses of one block of images under selection ``sel``.

    With ``grads`` (tag, caption and region gradient tables), the block's
    gradients are scatter-added onto them.
    """
    region_rows = dataset.region_rows(images)
    caption_concepts = dataset.caption_concepts[images]
    cross, inner, g = batch_loss(
        state.region_table[region_rows],
        state.tag_table[sel.positive_concepts],
        state.tag_table[sel.negative_concepts],
        state.caption_table[caption_concepts],
        sel.weights,
        config.lambda_cross,
        config.effective_lambda_inner,
        with_grad=grads is not None,
    )
    if grads is not None:
        g_tag, g_cap, g_reg = grads
        np.add.at(g_tag, np.concatenate([sel.positive_concepts, sel.negative_concepts], axis=1),
                  np.concatenate([g.d_positives, g.d_negatives], axis=1))
        np.add.at(g_cap, caption_concepts, g.d_caption_nouns)
        np.add.at(g_reg, region_rows, g.d_regions)
    return cross, inner


def _snapshot(dataset, state, config, plan) -> HistoryRecord:
    """Mean full-dataset loss record under the selection ``plan``.

    The losses run ``BLOCK`` images at a time; their sums are added up in
    ``SUM_GROUP``-image groups, in image order, whatever ``BLOCK`` is.
    """
    n = len(dataset)
    images = np.arange(n)
    cross, inner = np.empty(n), np.empty(n)
    for start in range(0, n, BLOCK):
        block = slice(start, start + BLOCK)
        cross[block], inner[block] = _block_loss(dataset, state, config, images[block],
                                                 plan.take(block))
    total = config.lambda_cross * cross + config.effective_lambda_inner * inner
    sums = [0.0, 0.0, 0.0]
    for start in range(0, n, SUM_GROUP):
        group = slice(start, start + SUM_GROUP)
        for j, losses in enumerate((cross, inner, total)):
            sums[j] += float(losses[group].sum())
    return HistoryRecord(state.step, *(s / n for s in sums))


def snapshot_loss(
    dataset: SyntheticDataset, state: TrainState, config: TrainerConfig
) -> HistoryRecord:
    """Mean full-dataset loss with the configured selection, no subsampling.

    Warns at most once, with the total count, if selection clamped
    non-positive global scores.
    """
    plan = _plan(dataset, config)
    record = _snapshot(dataset, state, config, plan)
    warn_clamped(int(plan.clamped.sum()))
    return record


def _bulk_picks(rng, count: int, k: int, m: int) -> np.ndarray | None:
    """The picks of ``2 * count`` calls of ``rng.choice(k, m, replace=False)``, read in bulk.

    Returns a (count, 2, m) array holding each call's picks in no
    particular order, and leaves ``rng`` where the calls would. Up to k =
    10,000, numpy's ``choice`` runs Floyd's algorithm: one Lemire draw on
    [0, j] for each j in k-m..k-1 (none for j = 0), where a value already
    picked becomes j. It then shuffles the picks with one masked draw on
    [0, i] for each i in m-1..1. Each draw reads one 32-bit word; PCG64
    hands them out low half first and buffers the high half between
    calls. Without a rejection the word count is fixed, so one
    ``random_raw`` call reads them all. For m <= 2 the only masked draw
    is on [0, 1] with mask 1, which never rejects. From m = 3 the masked
    draw on [0, 2] rejects a quarter of the time, so such shapes return
    None at once, as do pools past k = 10,000, where ``choice`` may
    shuffle the whole pool instead. If a Lemire draw would reject (about
    once in 2^32/k), the state is restored and None returned.
    """
    if k > 10_000 or m >= 3:
        return None
    floyd = np.arange(max(k - m, 1), k, dtype=np.uint64)  # the bounds j that read a word
    need = 2 * count * (len(floyd) + m - 1)
    if need == 0:
        return np.broadcast_to(np.arange(k - m, k), (count, 2, m))
    bitgen = rng.bit_generator
    saved = bitgen.state
    pending = saved["has_uint32"]
    raw = bitgen.random_raw((need - pending + 1) // 2)
    words = np.empty(pending + 2 * len(raw), dtype=np.uint64)
    words[:pending] = saved["uinteger"]
    words[pending::2] = raw & 0xFFFFFFFF
    words[pending + 1::2] = raw >> 32
    words = words[:need].reshape(2 * count, -1)

    scaled = words[:, :len(floyd)] * (floyd + 1)
    if ((scaled & 0xFFFFFFFF) < (1 << 32) % (floyd + 1)).any():
        bitgen.state = saved
        return None
    # The word count is even, so the buffered-half flag ends as it began,
    # and the buffer holds the last word's high half, read or not.
    state = bitgen.state
    state["uinteger"] = int(raw[-1] >> 32)
    bitgen.state = state

    picks = np.zeros((2 * count, m), dtype=np.int64)  # a draw on [0, 0] picks 0
    first = m - len(floyd)
    values = (scaled >> 32).astype(np.int64)
    for t in range(first, m):
        value = values[:, t - first]
        repeat = (picks[:, :t] == value[:, None]).any(axis=1)
        picks[:, t] = np.where(repeat, k - m + t, value)
    return picks.reshape(count, 2, m)


def _draw_subsets(rng, count: int, k: int, fraction: float) -> np.ndarray:
    """Sorted kept rows (count, 2, m) per image, positives then negatives.

    Draws the stream :func:`rca.tags.subsample` would draw image by image,
    ceil(fraction * k) rows without replacement, positives first, and
    leaves ``rng`` in the same state. :func:`_bulk_picks` reads the whole
    step's words at once; when it declines (m >= 3, a pool past 10,000 or
    a rejecting draw), numpy's calls are replayed one by one instead.
    """
    m = math.ceil(fraction * k)
    picks = _bulk_picks(rng, count, k, m)
    if picks is None:
        picks = [rng.choice(k, size=m, replace=False) for _ in range(2 * count)]
    return np.sort(np.reshape(picks, (count, 2, m)), axis=-1)


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
    n = len(dataset)
    k = dataset.config.regions_per_image
    plan = _plan(dataset, config)
    clamped = 0

    def record(history):
        nonlocal clamped
        rec = _snapshot(dataset, state, config, plan)
        clamped += int(plan.clamped.sum())
        if not math.isfinite(rec.total):
            raise DivergenceError(state.step, "snapshot loss is not finite")
        history.append(rec)

    history: list[HistoryRecord] = []
    record(history)

    for _ in range(config.steps):
        if config.batch_size >= n:
            batch = np.arange(n)
        else:
            batch = rng.choice(n, size=config.batch_size, replace=False)
        subsets = None
        if config.enable_subsample:
            subsets = _draw_subsets(rng, len(batch), k, config.subsample_fraction)

        grads = tuple(
            np.zeros_like(t)
            for t in (state.tag_table, state.caption_table, state.region_table)
        )
        for start in range(0, len(batch), BLOCK):
            block = slice(start, start + BLOCK)
            sel = _selection(dataset, config, batch[block],
                             None if subsets is None else subsets[block])
            _block_loss(dataset, state, config, batch[block], sel, grads)
            clamped += int(sel.clamped.sum())
        g_tag, g_cap, g_reg = grads

        lr = config.learning_rate / len(batch)
        if not config.freeze_tags:
            state.tag_table -= lr * g_tag
        if not config.freeze_caption:
            state.caption_table -= lr * g_cap
        if not config.freeze_regions:
            state.region_table -= lr * g_reg
        state.step += 1

        for table in (state.tag_table, state.caption_table, state.region_table):
            if not np.isfinite(table).all():
                raise DivergenceError(state.step, "table values are not finite")

        if state.step % 10 == 0:
            record(history)

    if not history or history[-1].step != state.step:
        record(history)
    warn_clamped(clamped)
    return state, history


def evaluate_retrieval(dataset: SyntheticDataset, state: TrainState) -> float:
    """Fraction of positive tags whose best-matching region shows their concept.

    Each positive tag retrieves the region of its own image with the
    highest cosine against the current tables. Exactly one region depicts
    each true positive concept, so random tables score about 1/K; a
    flipped-in positive names an absent concept and always misses.
    """
    regions = state.region_table.reshape(*dataset.region_concepts.shape, -1)
    tags = state.tag_table[dataset.positive_concepts]
    rnorm = np.maximum(np.linalg.norm(regions, axis=-1), 1e-12)
    tnorm = np.maximum(np.linalg.norm(tags, axis=-1), 1e-12)
    cos = (tags @ regions.swapaxes(-1, -2)) / (rnorm[:, None, :] * tnorm[:, :, None])
    winners = np.take_along_axis(dataset.region_concepts, cos.argmax(axis=-1), axis=1)
    hits = winners == dataset.positive_concepts
    return int(hits.sum()) / hits.size
