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

Steps and snapshots work on whole blocks of at most ``BLOCK`` images with
stacked arrays: one selection, one forward/backward and one scatter-add
per table for each block, so memory does not grow with the dataset. Each
call stacks the dataset's frozen evidence once and computes its
region-by-pool cosines once; a subsampled step selects over the column
subset of its kept rows, exactly as if the pool held only those rows.
Nothing stacked outlives the call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import ContrastiveInstance
from .errors import ConfigError, DivergenceError
from .losses import batch_loss
from .uasr import pool_cosines, select_batch, warn_clamped

__all__ = [
    "SyntheticConfig",
    "TrainerConfig",
    "SyntheticInstance",
    "SyntheticDataset",
    "TrainState",
    "HistoryRecord",
    "StackedEvidence",
    "generate_synthetic",
    "initial_state",
    "aligned_state",
    "gather_instance",
    "snapshot_loss",
    "train_alignment",
    "evaluate_retrieval",
]

BLOCK = 64  # images per stacked block in steps and snapshots


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
        if self.steps < 0:
            raise ConfigError("steps must be non-negative")
        if self.learning_rate < 0.0 or not math.isfinite(self.learning_rate):
            raise ConfigError("learning_rate must be finite and non-negative")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be positive")
        if self.lambda_cross < 0.0 or self.lambda_inner < 0.0:
            raise ConfigError("lambda weights must be non-negative")
        if not 0.0 < self.subsample_fraction <= 1.0:
            raise ConfigError("subsample_fraction must lie in (0, 1]")

    @property
    def effective_lambda_inner(self) -> float:
        return self.lambda_inner if self.enable_inner else 0.0


@dataclass
class SyntheticInstance:
    """Concept assignments and frozen generation-time evidence for one image.

    The embedding fields are the "pretrained encoder" view of the image:
    selection and re-weighting run on them, never on the trainable tables,
    so the filter quality does not depend on how far training has gotten.
    """

    image_id: int
    row_ids: np.ndarray            # (K,) rows of the region table
    region_concepts: np.ndarray    # (K,)
    positive_concepts: np.ndarray  # (K,) sorted by descending global score
    negative_concepts: np.ndarray  # (K,) sorted by descending global score
    caption_concepts: np.ndarray   # (P,)
    global_scores: np.ndarray      # (K,) cosine of positive tag vs mean region
    region_embeddings: np.ndarray  # (K, d) as generated, used for table init
    positive_embeddings: np.ndarray  # (K, d) as generated, evidence for selection
    negative_embeddings: np.ndarray  # (K, d)
    flipped: bool = False


@dataclass
class SyntheticDataset:
    config: SyntheticConfig
    prototypes: np.ndarray  # (n_concepts, d) unit rows
    instances: list[SyntheticInstance] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.instances)

    @property
    def n_region_rows(self) -> int:
        return len(self.instances) * self.config.regions_per_image


def _cosine_rows(image: np.ndarray, rows: np.ndarray) -> np.ndarray:
    num = rows @ image
    den = np.linalg.norm(rows, axis=1) * np.linalg.norm(image)
    return num / np.maximum(den, 1e-12)


def generate_synthetic(config: SyntheticConfig) -> SyntheticDataset:
    """Sample a dataset of images with ranked positive and negative tags."""
    rng = np.random.default_rng(config.seed)
    protos = rng.standard_normal((config.n_concepts, config.d))
    protos /= np.linalg.norm(protos, axis=1, keepdims=True)

    k = config.regions_per_image
    instances = []
    for image_id in range(config.n_images):
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

        flipped = False
        if config.flip_rate > 0.0 and rng.random() < config.flip_rate:
            i = int(rng.integers(k))
            j = int(rng.integers(k))
            pos_concepts[i], neg_concepts[j] = neg_concepts[j], pos_concepts[i]
            pos_emb[[i]], neg_emb[[j]] = neg_emb[[j]].copy(), pos_emb[[i]].copy()
            flipped = True

        image_emb = region_emb.mean(axis=0)
        pos_scores = _cosine_rows(image_emb, pos_emb)
        pos_order = np.argsort(-pos_scores, kind="stable")
        pos_concepts = pos_concepts[pos_order]
        pos_scores = pos_scores[pos_order]
        pos_emb = pos_emb[pos_order]
        neg_order = np.argsort(-_cosine_rows(image_emb, neg_emb), kind="stable")
        neg_concepts = neg_concepts[neg_order]
        neg_emb = neg_emb[neg_order]

        instances.append(
            SyntheticInstance(
                image_id=image_id,
                row_ids=np.arange(image_id * k, (image_id + 1) * k),
                region_concepts=present,
                positive_concepts=pos_concepts,
                negative_concepts=neg_concepts,
                caption_concepts=present.copy(),
                global_scores=pos_scores,
                region_embeddings=region_emb,
                positive_embeddings=pos_emb,
                negative_embeddings=neg_emb,
                flipped=flipped,
            )
        )
    return SyntheticDataset(config=config, prototypes=protos, instances=instances)


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
        regions = np.vstack([inst.region_embeddings for inst in dataset.instances])
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
        region_table=np.vstack([i.region_embeddings for i in dataset.instances]),
    )


def gather_instance(
    dataset: SyntheticDataset, state: TrainState, index: int
) -> ContrastiveInstance:
    """Materialize one image's validated contrastive arrays from the current tables."""
    inst = dataset.instances[index]
    return ContrastiveInstance(
        regions=state.region_table[inst.row_ids],
        positives=state.tag_table[inst.positive_concepts],
        negatives=state.tag_table[inst.negative_concepts],
        caption_nouns=state.caption_table[inst.caption_concepts],
        global_scores=inst.global_scores,
    )


@dataclass
class HistoryRecord:
    step: int
    cross: float
    inner: float
    total: float


@dataclass
class StackedEvidence:
    """A dataset's per-image index rows and frozen selection evidence, stacked for one call.

    Row i describes image i. ``cosines`` holds each image's region-by-pool
    cosines of the frozen embeddings (positives, then negatives), or is
    ``None`` when selection is off. ``clamped`` counts the global scores
    selection has clamped so far, so the call can warn once.
    """

    row_ids: np.ndarray            # (n, R)
    positive_concepts: np.ndarray  # (n, K)
    negative_concepts: np.ndarray  # (n, K)
    caption_concepts: np.ndarray   # (n, P)
    global_scores: np.ndarray      # (n, K)
    cosines: np.ndarray | None     # (n, R, 2K)
    clamped: int = 0

    @classmethod
    def of(cls, dataset: SyntheticDataset, with_cosines: bool) -> "StackedEvidence":
        insts = dataset.instances

        def stacked(name, part=insts):
            return np.stack([getattr(inst, name) for inst in part])

        cosines = None
        if with_cosines:
            first = insts[0]
            cosines = np.empty((len(insts), first.region_embeddings.shape[0],
                                2 * first.positive_embeddings.shape[0]))
            for start in range(0, len(insts), BLOCK):
                part = insts[start:start + BLOCK]
                cosines[start:start + BLOCK] = pool_cosines(
                    stacked("region_embeddings", part),
                    stacked("positive_embeddings", part),
                    stacked("negative_embeddings", part),
                )
        return cls(
            row_ids=stacked("row_ids"),
            positive_concepts=stacked("positive_concepts"),
            negative_concepts=stacked("negative_concepts"),
            caption_concepts=stacked("caption_concepts"),
            global_scores=stacked("global_scores"),
            cosines=cosines,
        )


def _select_block(evidence, images, subsets=None):
    """Selection for one block of images over their frozen evidence.

    With ``subsets`` (b, 2, m), the sorted positive and negative rows a
    subsampled step keeps per image, the argmax runs over those pool
    columns only. Indices refer to the kept rows.
    """
    cosines = evidence.cosines[images]
    scores = evidence.global_scores[images]
    if subsets is not None:
        rows = np.arange(len(images))[:, None]
        k = scores.shape[1]
        cols = np.concatenate([subsets[:, 0], k + subsets[:, 1]], axis=1)
        cosines = cosines[rows[:, :, None], np.arange(cosines.shape[1])[:, None],
                          cols[:, None, :]]
        scores = scores[rows, subsets[:, 0]]
    sel = select_batch(cosines, scores)
    evidence.clamped += sel.clamped
    return sel


def _block_loss(evidence, state, config, images, subsets=None, grads=None):
    """Per-image cross and inner losses of one block of images.

    ``subsets`` is as for :func:`_select_block`. With ``grads`` (tag,
    caption and region gradient tables), the block's gradients are
    scatter-added onto them.
    """
    rows = np.arange(len(images))[:, None]
    pos_concepts = evidence.positive_concepts[images]
    neg_concepts = evidence.negative_concepts[images]
    if subsets is not None:
        pos_concepts = pos_concepts[rows, subsets[:, 0]]
        neg_concepts = neg_concepts[rows, subsets[:, 1]]
    weights = None
    if config.enable_uasr:
        sel = _select_block(evidence, images, subsets)
        pos_concepts = pos_concepts[rows, sel.positive_indices]
        neg_concepts = neg_concepts[rows, sel.negative_indices]
        weights = sel.weights

    region_rows = evidence.row_ids[images]
    caption_concepts = evidence.caption_concepts[images]
    cross, inner, g = batch_loss(
        state.region_table[region_rows],
        state.tag_table[pos_concepts],
        state.tag_table[neg_concepts],
        state.caption_table[caption_concepts],
        weights,
        config.lambda_cross,
        config.effective_lambda_inner,
        with_grad=grads is not None,
    )
    if grads is not None:
        g_tag, g_cap, g_reg = grads
        np.add.at(g_tag, np.concatenate([pos_concepts, neg_concepts], axis=1),
                  np.concatenate([g.d_positives, g.d_negatives], axis=1))
        np.add.at(g_cap, caption_concepts, g.d_caption_nouns)
        np.add.at(g_reg, region_rows, g.d_regions)
    return cross, inner


def snapshot_loss(
    dataset: SyntheticDataset,
    state: TrainState,
    config: TrainerConfig,
    evidence: StackedEvidence | None = None,
) -> HistoryRecord:
    """Mean full-dataset loss with the configured selection, no subsampling.

    ``evidence`` lets a caller share one call's :class:`StackedEvidence`
    across snapshots; the caller then owns the clamp warning. Without it,
    this call stacks its own and warns at most once.
    """
    own = evidence is None
    if own:
        evidence = StackedEvidence.of(dataset, config.enable_uasr)
    n = len(dataset)
    cross = inner = total = 0.0
    for start in range(0, n, BLOCK):
        c, i = _block_loss(evidence, state, config, np.arange(start, min(start + BLOCK, n)))
        cross += float(c.sum())
        inner += float(i.sum())
        total += float((config.lambda_cross * c + config.effective_lambda_inner * i).sum())
    if own:
        warn_clamped(evidence.clamped)
    return HistoryRecord(
        step=state.step, cross=cross / n, inner=inner / n, total=total / n
    )


def _draw_subsets(rng, count: int, k: int, fraction: float) -> np.ndarray:
    """Sorted kept rows (count, 2, m) per image, positives then negatives.

    Draws the stream :func:`rca.tags.subsample` would draw image by image:
    ceil(fraction * k) rows without replacement, positives first.
    """
    m = math.ceil(fraction * k)
    draws = [rng.choice(k, size=m, replace=False) for _ in range(2 * count)]
    return np.sort(np.reshape(draws, (count, 2, m)), axis=-1)


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
    evidence = StackedEvidence.of(dataset, config.enable_uasr)
    k = evidence.positive_concepts.shape[1]

    def record(history):
        rec = snapshot_loss(dataset, state, config, evidence)
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
            _block_loss(evidence, state, config, batch[block],
                        None if subsets is None else subsets[block], grads)
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
    warn_clamped(evidence.clamped)
    return state, history


def evaluate_retrieval(dataset: SyntheticDataset, state: TrainState) -> float:
    """Fraction of positive tags whose best-matching region shows their concept.

    Each positive tag retrieves the region of its own image with the
    highest cosine against the current tables. Exactly one region depicts
    each true positive concept, so random tables score about 1/K; a
    flipped-in positive names an absent concept and always misses.
    """
    correct = 0
    seen = 0
    for inst in dataset.instances:
        regions = state.region_table[inst.row_ids]
        rnorm = np.maximum(np.linalg.norm(regions, axis=1), 1e-12)
        for concept in inst.positive_concepts:
            w = state.tag_table[concept]
            cos = (regions @ w) / (rnorm * max(np.linalg.norm(w), 1e-12))
            winner = int(np.argmax(cos))
            correct += int(inst.region_concepts[winner] == concept)
            seen += 1
    return correct / seen
