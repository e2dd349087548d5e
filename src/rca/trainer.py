"""Desk-scale trainer that aligns tag, caption, and region tables by gradient descent.

The synthetic world has ``n_concepts`` unit-norm prototype directions. Each
image shows ``regions_per_image`` distinct concepts; its positive tags and
caption nouns name exactly those concepts and its negative tags name as
many distinct absent ones (so ``n_concepts >= 2 * regions_per_image``).
Global tag scores are cosines against the mean region embedding, frozen
at generation time. An optional flip swaps one positive/negative
pair to emulate ranking noise. The generator reads the stream the
per-image ``Generator.choice``, noise and flip calls would read, in their
order: one ``Generator.integers`` call per image makes both its ``choice``
calls' draws (one per block where no noise or flip comes between), and
the picks and the arithmetic on them (noise scaling, flips, means,
cosines, sorts) run per ``GENERATE_BLOCK`` of images. Draws and tag
embeddings live in buffers reused per block; the dataset keeps the tags'
scores and cosines.

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

The generated dataset is a :class:`rca.losses.Corpus`, its cosines
computed once. Training selects through :func:`rca.losses.corpus_selection`
and takes its losses through :func:`rca.losses.corpus_losses`, the passes
``rca loss`` runs on its corpora too. Selection reads only those cosines
and treats each image alone, so no step's selection depends on the
tables it trains.
A run makes one selection call for all its snapshots (the plan: each
image's selected concepts, weights and clamp counts). It splits its steps
into stretches that end at the next history record, at most ten steps,
and fewer where a stretch's batches would pass ``STRETCH_IMAGES`` images
(one step at the least). A stretch makes all its random draws first, in
the order the steps would make them, then one selection call over all
its batches; each step takes its own rows. The losses run
``rca.losses.BLOCK`` (256) images per forward (and, in a step, backward)
pass, so the pass temporaries do not grow with the dataset. A history record is the mean of
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
from .losses import Corpus, corpus_losses, corpus_selection
from .uasr import pool_cosines, warn_clamped

__all__ = [
    "SyntheticConfig",
    "TrainerConfig",
    "field_kinds",
    "SyntheticDataset",
    "TrainState",
    "HistoryRecord",
    "generate_synthetic",
    "initial_state",
    "gather_instance",
    "snapshot_loss",
    "train_alignment",
    "evaluate_retrieval",
]

GENERATE_BLOCK = 256  # images per generation block
# Most images one selection call takes for a stretch of training steps (a
# stretch always holds one step's batch), so that a full-batch run on a large
# dataset does not hold ten steps' selection temporaries at once. The largest
# are (images, K, 2K) floats: 1 MB at K = 4. It is 16 loss passes of
# rca.losses.BLOCK images.
STRETCH_IMAGES = 4096


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


def _check_uint64(config, *names) -> None:
    """Raise :class:`ConfigError` unless each named int field is in [0, 2**64).

    A state file holds its configs' ints as JSON integers, which it writes
    only up to 64 bits, so a larger value would fail to write after training
    (and an integer past 64 bits would read back as a float).
    """
    for name in names:
        value = getattr(config, name)
        if value < 0:
            raise ConfigError(f"{name} must be non-negative")
        if value >= 2**64:
            raise ConfigError(f"{name} must be below 2**64, got {value}")


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
        if not 1 <= self.regions_per_image <= self.n_concepts // 2:
            raise ConfigError(
                "regions_per_image must be in [1, n_concepts // 2] so that each image's "
                "negatives are concepts it does not show, none named twice"
            )
        if self.noise_sigma < 0.0 or not math.isfinite(self.noise_sigma):
            raise ConfigError("noise_sigma must be finite and non-negative")
        if not 0.0 <= self.flip_rate <= 1.0:
            raise ConfigError("flip_rate must lie in [0, 1]")
        _check_uint64(self, "seed")
        c, n, k = self.n_concepts, self.n_images, self.regions_per_image
        # prototypes and concept tables, region embeddings and cosines per (image,
        # slot), and a generation block's absent-concept mask or shuffled pool,
        # choice draws, region noise and tag embeddings
        entries = (c * self.d + n * k * (self.d + 2 * k)
                   + min(n, GENERATE_BLOCK) * (c + 4 * k + 3 * k * self.d))
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
        _check_uint64(self, "steps")
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
        _check_uint64(self, "batch_size", "seed")

    @property
    def lambdas(self) -> tuple[float, float]:
        """The losses' (lambda_cross, lambda_inner)."""
        return self.lambda_cross, self.lambda_inner


@dataclass
class SyntheticDataset(Corpus):
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
    per ``GENERATE_BLOCK`` of images.
    """
    rng = np.random.default_rng(config.seed)
    protos = rng.standard_normal((config.n_concepts, config.d))
    protos /= np.linalg.norm(protos, axis=1, keepdims=True)

    c, n, k = config.n_concepts, config.n_images, config.regions_per_image
    sigma, flip_rate = config.noise_sigma, config.flip_rate
    pos_bounds = _choice_bounds(c, k)
    bounds = np.concatenate([pos_bounds, _choice_bounds(c - k, k)])
    draw_buf = np.empty((min(n, GENERATE_BLOCK), len(bounds)), dtype=np.int64)
    # per image: region noise (where there is noise), positive and negative tag embeddings
    emb_buf = np.empty((min(n, GENERATE_BLOCK), 2 + (sigma != 0.0), k, config.d))
    region_concepts, positive_concepts, negative_concepts = (
        np.empty((n, k), dtype=np.int64) for _ in range(3))
    region_embs = np.empty((n, k, config.d))
    global_scores = np.empty((n, k))
    flipped = np.zeros(n, dtype=bool)
    swaps = np.zeros((n, 2), dtype=np.int64)  # flipped (positive, negative) slots
    cosines = np.empty((n, k, 2 * k))
    for start in range(0, n, GENERATE_BLOCK):
        part = slice(start, start + GENERATE_BLOCK)
        block = range(start, min(start + GENERATE_BLOCK, n))
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
        # indices into the sorted absent concepts
        absent_picks = _choice_picks(draws[:, len(pos_bounds):], c - k, k)
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

    @property
    def tables(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The (tag, caption, region) tables, as :func:`rca.losses.corpus_losses` takes them."""
        return self.tag_table, self.caption_table, self.region_table


def initial_state(dataset: SyntheticDataset, seed: int = 0, init: str = "data") -> TrainState:
    """A run's first tables, by ``init``: ``"data"``, ``"random"`` or ``"aligned"``.

    ``"data"`` draws random concept tables and copies the region rows from
    the generated region embeddings; ``"random"`` draws the region rows too;
    ``"aligned"`` is the oracle, both concept tables equal to the true
    prototypes and the region rows from the data. The RNG stream is keyed
    away from the generator's so that reusing one seed for data and init
    cannot hand the tables the true prototypes.
    """
    if init not in ("data", "random", "aligned"):
        raise ConfigError(f"unknown init {init!r}")
    cfg = dataset.config
    regions = dataset.region_embeddings.reshape(-1, cfg.d)
    if init == "aligned":
        return TrainState(dataset.prototypes.copy(), dataset.prototypes.copy(), regions.copy())
    rng = np.random.default_rng([seed, 0x1217])
    scale = 1.0 / np.sqrt(cfg.d)
    tag = rng.standard_normal((cfg.n_concepts, cfg.d)) * scale
    cap = rng.standard_normal((cfg.n_concepts, cfg.d)) * scale
    if init == "random":
        regions = rng.standard_normal(regions.shape) * scale
    return TrainState(tag_table=tag, caption_table=cap, region_table=regions.copy())


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


def _snapshot(dataset, state, plan, lambdas) -> HistoryRecord:
    """Mean full-dataset loss record under the selection ``plan``.

    Its means add the per-image losses in image order, so they equal what
    the per-image reference computes, whatever ``BLOCK`` is. Raises
    :class:`DivergenceError` if the total is not finite.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is rejected below
        table, _ = corpus_losses(dataset, state.tables, np.arange(len(dataset)), plan, lambdas)
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
    plan = corpus_selection(dataset, np.arange(len(dataset)), config.enable_uasr, True)
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


def _floyd_picks(draws: np.ndarray, pop: int, size: int) -> np.ndarray:
    """Floyd's picks of ``size`` of ``pop`` per row: each its draw, or j if that was picked."""
    picks = draws[:, :size].copy()
    for t in range(1, size):
        repeat = (picks[:, :t] == picks[:, t, None]).any(axis=1)
        picks[:, t] = np.where(repeat, pop - size + t, picks[:, t])
    return picks


def _choice_picks(draws: np.ndarray, pop: int, size: int) -> np.ndarray:
    """The picks of ``choice`` of ``size`` of ``pop``, in its order, per row of its draws.

    ``draws`` holds one row of :func:`_choice_bounds` draws per call.
    ``Generator.integers`` makes one bounded (Lemire) draw per entry of an
    array of bounds, in order, as ``choice`` does per bound, so one
    ``integers`` call over rows of those bounds reads the stream of that
    many ``choice`` calls and leaves the generator where they would. After
    :func:`_floyd_picks`, the shuffle swaps position i with its draw, for i
    from the top down.
    A tail shuffle makes those swaps on the whole pool ``arange(pop)`` and
    keeps its last ``size`` entries. That ``choice`` draws this way was
    checked on numpy 2.4.6.
    """
    if _tail_shuffled(pop, size):
        picks, swaps = np.tile(np.arange(pop), (len(draws), 1)), draws
    else:
        picks, swaps = _floyd_picks(draws, pop, size), draws[:, size:]
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
    ``rng`` where they would. The sort drops the shuffle's order, so Floyd's picks skip it.
    """
    m = math.ceil(fraction * k)
    bounds = _choice_bounds(k, m)
    draws = rng.integers(0, bounds, size=(2 * count, len(bounds)), endpoint=True)
    pick = _choice_picks if _tail_shuffled(k, m) else _floyd_picks  # a tail shuffle picks
    return np.sort(pick(draws, k, m).reshape(count, 2, m), axis=-1)


def _step(dataset, state, config, batch, sel, first: bool) -> None:
    """One gradient step on ``batch`` under its selection ``sel``, in place.

    Raises :class:`DivergenceError` if a table stops being finite. It
    checks both concept tables and the region rows it wrote, and the
    whole region table on a run's ``first`` step: a row no later step
    wrote still holds what that check saw. (The run's step-0 snapshot
    reads every region row, but not at ``lambda_cross = 0``.) Its arrays are the loss
    pass's, the scatter tables and the written rows, which it updates in place with its
    gradient rows. At train-c6 they stay under the 1 MiB heap trim threshold that freeing
    the stretch's 512 KiB cosines gather sets in glibc, so no step re-faults the heap top.
    """
    _, (d_tags, d_caption, d_regions) = corpus_losses(dataset, state.tables, batch, sel,
                                                      config.lambdas, with_grad=True)
    lr = config.learning_rate / len(batch)
    if not config.freeze_tags:
        tag_concepts = np.concatenate([sel.positive_concepts, sel.negative_concepts], axis=1)
        state.tag_table -= lr * scatter_add(tag_concepts, d_tags, len(state.tag_table))
    if not config.freeze_caption:
        state.caption_table -= lr * scatter_add(dataset.caption_concepts[batch],
                                                d_caption, len(state.caption_table))
    checked = [state.tag_table, state.caption_table]
    if not config.freeze_regions:
        # what `table[rows] -= ...` does, keeping the written rows to check;
        # d + 0.0 is what a scatter onto zeros would hold: -0.0 reads +0.0
        rows = dataset.region_rows[batch]
        written = state.region_table[rows]
        d_regions += 0.0
        d_regions *= lr
        written -= d_regions
        state.region_table[rows] = written
        checked.append(written)
    if first:
        checked.append(state.region_table)
    state.step += 1
    for table in checked:
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
    plan = corpus_selection(dataset, np.arange(n), config.enable_uasr, True)
    clamped = 0  # by the steps; each snapshot adds the plan's
    start = state.step
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
            stretch_sel = corpus_selection(dataset, np.concatenate(batches), config.enable_uasr,
                                           True, np.concatenate(subsets) if subsets else None)
            clamped += int(stretch_sel.clamped.sum())
            for i, batch in enumerate(batches):
                _step(dataset, state, config, batch, stretch_sel.take(slice(i * b, (i + 1) * b)),
                      first=state.step == start)
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
