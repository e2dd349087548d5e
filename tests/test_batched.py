"""The stacked trainer, kernel, selection and generator against their per-image references.

``loop_reference.py`` keeps the trainer's per-image loop, its 2-D
compatibility kernel and the per-image synthetic generator. The generator's
blocked arithmetic must give every field the loop's dtype, shape and
bytes. The kernel's batched results must equal the 2-D results bit for
bit, image by image. The trainer folds a step's gradient
rows onto the tables in the loop's order, but it adds a tag that
selection picked twice straight onto its concept row, where the loop
first sums both picks onto the pool row, and a subsampled step weighs its
picks from columns of the full-pool cosines. So its history and tables
must match the loop within a relative 1e-12. A snapshot of given tables
adds its per-image losses in the loop's order, so it must equal the
loop's bit for bit.
"""

import itertools
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from loop_reference import (
    differing_fields,
    evidence_view,
    generate_synthetic_loop,
    loss_and_grad_2d,
    snapshot_loss_loop,
    train_alignment_loop,
)
from naive_reference import naive_total_loss
from rca import losses, trainer, uasr
from rca.core import ContrastiveInstance, compat_forward
from rca.errors import DivergenceError
from rca.gradients import loss_and_grad
from rca.losses import batch_loss
from rca.trainer import (
    SyntheticConfig,
    TrainerConfig,
    generate_synthetic,
    initial_state,
    snapshot_loss,
    train_alignment,
)
from rca.uasr import apply_uasr, select_batch

# 70 images: one partial compute block at the default BLOCK. Noise and flips
# make the subsampled steps hit both selection fallbacks and clamp some scores.
NOISY = SyntheticConfig(n_concepts=6, d=8, n_images=70, regions_per_image=3,
                        noise_sigma=0.3, flip_rate=0.2, seed=5)
# Tests against the loop reference patch the loss passes' rca.losses.BLOCK to
# this, so that their runs cross block boundaries: three blocks, the last one partial.
SMALL_BLOCK = 32
assert 2 * SMALL_BLOCK < NOISY.n_images < 3 * SMALL_BLOCK
BASE = dict(steps=12, learning_rate=0.5, seed=2)
# the loop reference's own NOISY dataset, which keeps the tag embeddings
# selection reads
NOISY_LOOP = generate_synthetic_loop(NOISY)


def _clamp_counts(records):
    return [int(str(w.message).split()[0]) for w in records if "clamped" in str(w.message)]


@settings(max_examples=150, deadline=None, database=None)
@given(
    b=st.integers(1, 5),
    k=st.integers(1, 6),
    r=st.integers(1, 6),
    p=st.integers(0, 4),
    d=st.integers(1, 24),
    # at 1e2-1e3 the compatibilities (1e4 and up) are far past exp's range
    scale=st.one_of(st.floats(0.1, 4.0), st.floats(1e2, 1e3)),
    weighted=st.booleans(),
    lambdas=st.sampled_from([(1.0, 1.0), (2.0, 0.0), (0.0, 0.7), (0.3, 1.5)]),
    seed=st.integers(0, 2**32 - 1),
)
def test_batched_kernel_equals_per_image_2d_bitwise(b, k, r, p, d, scale, weighted, lambdas, seed):
    rng = np.random.default_rng(seed)
    regions = scale * rng.standard_normal((b, r, d))
    positives = scale * rng.standard_normal((b, k, d))
    negatives = scale * rng.standard_normal((b, k, d))
    caption = scale * rng.standard_normal((b, p, d))
    weights = rng.uniform(0.1, 2.0, (b, k)) if weighted else None
    lc, li = lambdas

    tags = np.stack([positives, negatives])
    cross, inner, g = batch_loss(regions, tags, caption, weights, lc, li)
    for out in (cross, inner, g.d_positives, g.d_negatives, g.d_regions, g.d_caption_nouns):
        assert np.isfinite(out).all()
    phi, _ = compat_forward(positives, regions)
    for i in range(b):
        try:
            naive = naive_total_loss(regions[i].tolist(), positives[i].tolist(),
                                    negatives[i].tolist(), caption[i].tolist(),
                                    None if weights is None else weights[i].tolist(), lc, li)
        except (OverflowError, ValueError, ZeroDivisionError):
            pass  # the direct formula overflows, or underflows to log(0)
        else:
            for got, expected in zip((cross[i], inner[i]), naive):
                assert math.isclose(got, expected, rel_tol=1e-10, abs_tol=1e-12)
        want = loss_and_grad_2d(regions[i], positives[i], negatives[i], caption[i],
                                None if weights is None else weights[i], lc, li)
        assert (cross[i], inner[i]) == want[:2]
        for got, expected in zip((g.d_positives[i], g.d_negatives[i], g.d_regions[i],
                                  g.d_caption_nouns[i]), want[2:]):
            assert np.array_equal(got, expected)
        one, _ = compat_forward(positives[i:i + 1], regions[i:i + 1])
        assert np.array_equal(phi[i], one[0])

    c2, i2, none = batch_loss(regions, tags, caption, weights, lc, li, with_grad=False)
    assert none is None
    assert np.array_equal(c2, cross) and np.array_equal(i2, inner)

    # loss_and_grad is the one-image batch, with selection scattered back
    inst = ContrastiveInstance(regions[0], positives[0], negatives[0], caption[0],
                               np.sort(rng.uniform(0.05, 1.0, k))[::-1])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sel = apply_uasr(inst)
    bd, grads = loss_and_grad(inst, sel, lc, li)
    cross0, inner0, d_wp, d_wn, d_reg, d_cap = loss_and_grad_2d(
        inst.regions, inst.positives[sel.positive_indices],
        inst.negatives[sel.negative_indices], inst.caption_nouns, sel.weights, lc, li)
    d_pos = np.zeros_like(inst.positives)
    d_neg = np.zeros_like(inst.negatives)
    np.add.at(d_pos, sel.positive_indices, d_wp)
    np.add.at(d_neg, sel.negative_indices, d_wn)
    assert (bd.cross, bd.inner) == (cross0, inner0)
    for got, expected in zip((grads.d_positives, grads.d_negatives, grads.d_regions,
                              grads.d_caption_nouns), (d_pos, d_neg, d_reg, d_cap)):
        assert np.array_equal(got, expected)


@pytest.mark.parametrize("weighted", [False, True], ids=["plain", "weighted"])
@pytest.mark.parametrize("r, p, d", list(itertools.product([8, 3], [3, 0], [16, 64])))
def test_stacked_kernel_equals_separate_passes_at_cli_shapes(r, p, d, weighted):
    """One stacked pass gives each image the bits of the loop's separate 2-D passes.

    At K = 25 (M = 50) and the region, noun and embedding sizes of ``rca
    loss`` and ``rca gradcheck``, for batches of 1 to 64 images: losses
    with and without gradients, and each gradient table.
    """
    k = 25
    rng = np.random.default_rng([r, p, d, weighted])
    for b in (1, 2, 7, 33, 64):
        regions, positives, negatives, caption = (
            rng.standard_normal((b, n, d)) / math.sqrt(d) for n in (r, k, k, p))
        weights = rng.uniform(0.05, 1.0, (b, k)) if weighted else None
        tags = np.stack([positives, negatives])
        cross, inner, g = batch_loss(regions, tags, caption, weights)
        cross_only, inner_only, _ = batch_loss(regions, tags, caption, weights, with_grad=False)
        assert cross_only.tobytes() == cross.tobytes() and inner_only.tobytes() == inner.tobytes()
        for i in range(b):
            want = loss_and_grad_2d(regions[i], positives[i], negatives[i], caption[i],
                                    None if weights is None else weights[i], 1.0, 1.0)
            assert (cross[i], inner[i]) == want[:2]
            for got, expected in zip((g.d_positives[i], g.d_negatives[i], g.d_regions[i],
                                      g.d_caption_nouns[i]), want[2:]):
                assert got.tobytes() == expected.tobytes()


@settings(max_examples=100, deadline=None, database=None)
@given(
    b=st.integers(1, 4),
    k=st.integers(1, 5),
    r=st.integers(2, 6),
    p=st.integers(0, 3),
    d=st.integers(1, 12),
    weighted=st.booleans(),
    lambdas=st.sampled_from([(1.0, 1.0), (2.0, 0.0), (0.3, 1.5)]),
    seed=st.integers(0, 2**32 - 1),
)
def test_batch_loss_invariant_under_region_permutation(b, k, r, p, d, weighted, lambdas, seed):
    rng = np.random.default_rng(seed)
    regions = rng.standard_normal((b, r, d))
    positives = rng.standard_normal((b, k, d))
    negatives = rng.standard_normal((b, k, d))
    caption = rng.standard_normal((b, p, d))
    weights = rng.uniform(0.1, 2.0, (b, k)) if weighted else None
    perm = np.stack([rng.permutation(r) for _ in range(b)])  # one permutation per image
    shuffled = np.take_along_axis(regions, perm[:, :, None], axis=1)

    tags = np.stack([positives, negatives])
    cross, inner, g = batch_loss(regions, tags, caption, weights, *lambdas)
    cross_s, inner_s, g_s = batch_loss(shuffled, tags, caption, weights, *lambdas)
    close = dict(rtol=1e-12, atol=1e-15)
    np.testing.assert_allclose(cross_s, cross, **close)
    np.testing.assert_allclose(inner_s, inner, **close)
    np.testing.assert_allclose(g_s.d_positives, g.d_positives, **close)
    np.testing.assert_allclose(g_s.d_negatives, g.d_negatives, **close)
    np.testing.assert_allclose(g_s.d_caption_nouns, g.d_caption_nouns, **close)
    np.testing.assert_allclose(g_s.d_regions,
                               np.take_along_axis(g.d_regions, perm[:, :, None], axis=1),
                               **close)


def _row_subsets(k):
    """Every (positive rows, negative rows) pair of equal size, sorted."""
    out = []
    for m in range(1, k + 1):
        sides = [np.array(c) for c in itertools.combinations(range(k), m)]
        out += [(pos, neg) for pos in sides for neg in sides]
    return out


def test_block_selection_equals_apply_uasr_for_every_image_and_subset():
    ds = generate_synthetic(NOISY)
    n, k = len(ds), NOISY.regions_per_image
    images = np.arange(n)
    combos = _row_subsets(k)
    fallbacks = np.zeros(2, dtype=int)
    clamped = 0

    def check(sel, i, res, exact):
        row = sel.row(i)
        assert row.positive_indices.tolist() == res.positive_indices.tolist()
        assert row.negative_indices.tolist() == res.negative_indices.tolist()
        assert row.retrieved.tolist() == res.retrieved.tolist()
        assert (row.positive_fallback, row.negative_fallback, row.clamped) == (
            res.positive_fallback, res.negative_fallback, res.clamped)
        if exact:
            assert np.array_equal(row.weights, res.weights)
        else:  # column subsets of the full-pool cosines, not cosines of the subset pool
            np.testing.assert_allclose(row.weights, res.weights, rtol=1e-13, atol=0.0)

    with warnings.catch_warnings(record=True) as per_image:
        warnings.simplefilter("always")
        sel = uasr.select_corpus(ds, images, True)
        for i in images:
            check(sel, i, apply_uasr(evidence_view(NOISY_LOOP, i)), exact=True)
        fallbacks += [sel.positive_fallback.sum(), sel.negative_fallback.sum()]
        clamped += int(sel.clamped.sum())
        # every image meets every subset, and one block mixes many subsets
        for shift in range(len(combos)):
            picked = [combos[(shift + i) % len(combos)] for i in images]
            for m in range(1, k + 1):
                rows = [i for i in images if len(picked[i][0]) == m]
                subsets = np.array([picked[i] for i in rows])
                sel = uasr.select_corpus(ds, np.array(rows), True, subsets)
                for j, i in enumerate(rows):
                    pos, neg = picked[i]
                    check(sel, j, apply_uasr(evidence_view(NOISY_LOOP, i, pos, neg)),
                          exact=False)
                fallbacks += [sel.positive_fallback.sum(), sel.negative_fallback.sum()]
                clamped += int(sel.clamped.sum())
    assert clamped == sum(_clamp_counts(per_image)) > 0
    assert (fallbacks > 0).all()  # both fallbacks are exercised


VARIANTS = {
    "default": {},
    "no-selection": {"enable_uasr": False},
    "no-subsample": {"subsample_fraction": 1.0},
    "no-inner": {"lambda_inner": 0.0},
    "plain": {"enable_uasr": False, "subsample_fraction": 1.0, "lambda_inner": 0.0},
    "freeze-tags": {"freeze_tags": True},
    "freeze-regions": {"freeze_regions": True},
    "freeze-caption": {"freeze_caption": True},
    "minibatch": {"batch_size": 24},
    "minibatch-plain": {"batch_size": 24, "enable_uasr": False, "subsample_fraction": 1.0},
}


@pytest.mark.parametrize("overrides", VARIANTS.values(), ids=VARIANTS.keys())
def test_train_alignment_matches_per_image_loop(overrides, monkeypatch):
    monkeypatch.setattr(losses, "BLOCK", SMALL_BLOCK)
    ds = generate_synthetic(NOISY)
    cfg = TrainerConfig(**{**BASE, **overrides})
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message=".*clamped")
        got_state, got = train_alignment(ds, cfg, initial_state(ds, seed=cfg.seed))
        want_state, want = train_alignment_loop(NOISY_LOOP, cfg,
                                                initial_state(NOISY_LOOP, seed=cfg.seed))
    assert [h.step for h in got] == [h.step for h in want] == [0, 10, 12]
    for a, b in zip(got, want):
        np.testing.assert_allclose([a.cross, a.inner, a.total], [b.cross, b.inner, b.total],
                                   rtol=1e-12, atol=0.0)
    for name in ("tag_table", "caption_table", "region_table"):
        np.testing.assert_allclose(getattr(got_state, name), getattr(want_state, name),
                                   rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("variant", ["default", "no-selection", "no-inner"])
def test_snapshot_equals_per_image_loop_bitwise(variant, monkeypatch):
    monkeypatch.setattr(losses, "BLOCK", SMALL_BLOCK)
    ds = generate_synthetic(NOISY)
    cfg = TrainerConfig(**{**BASE, "steps": 3, **VARIANTS[variant]})
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message=".*clamped")
        state, _ = train_alignment(ds, cfg, initial_state(ds, seed=cfg.seed))
        assert snapshot_loss(ds, state, cfg) == snapshot_loss_loop(NOISY_LOOP, state, cfg)


# the generator's blocks are 7 images, so blocks and flips cross their boundaries
@settings(max_examples=200, deadline=None, database=None)
@given(
    c=st.integers(2, 12),
    k_frac=st.floats(0.0, 1.0),
    d=st.integers(1, 6),
    n=st.integers(1, 30),
    sigma=st.one_of(st.sampled_from([0.0, 1]), st.floats(1e-3, 5.0)),
    flip_rate=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
    seed=st.integers(0, 2**32 - 1),
)
@example(c=2, k_frac=0.0, d=1, n=1, sigma=0.0, flip_rate=0.0, seed=0)  # k = 1, d = 1
@example(c=9, k_frac=1.0, d=4, n=23, sigma=0.4, flip_rate=1.0, seed=2)  # with noise
@example(c=6, k_frac=0.0, d=1, n=29, sigma=2.0, flip_rate=0.5, seed=3)  # k = 1, d = 1, noise
# k = 4 = c - k: the negatives' first Floyd draw, on [0, 0], reads no word; the
# first draws a block at a time, the second image by image
@example(c=8, k_frac=1.0, d=2, n=20, sigma=0.0, flip_rate=0.0, seed=4)
@example(c=8, k_frac=1.0, d=2, n=20, sigma=0.5, flip_rate=0.5, seed=5)
def test_generator_equals_per_image_loop_bitwise(c, k_frac, d, n, sigma, flip_rate, seed):
    k = 1 + int(k_frac * (c // 2 - 1))
    cfg = SyntheticConfig(n_concepts=c, d=d, n_images=n, regions_per_image=k,
                          noise_sigma=sigma, flip_rate=flip_rate, seed=seed)
    with mock.patch.object(trainer, "GENERATE_BLOCK", 7):
        got = generate_synthetic(cfg)
    assert differing_fields(got, generate_synthetic_loop(cfg)) == []
    # no image names a concept twice among its tags
    tags = np.sort(np.concatenate([got.positive_concepts, got.negative_concepts], axis=1))
    assert (np.diff(tags, axis=1) > 0).all()


def test_generator_equals_per_image_loop_past_a_pool_of_10000():
    """201 of 10,001 concepts: ``choice`` shuffles the pool's tail for the present ones."""
    cfg = SyntheticConfig(n_concepts=10_001, d=1, n_images=2, regions_per_image=201)
    assert differing_fields(generate_synthetic(cfg), generate_synthetic_loop(cfg)) == []


FULL_BATCH = generate_synthetic(NOISY)


@settings(max_examples=40, deadline=None, database=None)
@given(
    extra=st.one_of(st.integers(0, 3 * NOISY.n_images), st.integers(10**3, 10**9)),
    variant=st.sampled_from(["default", "no-selection", "no-subsample", "plain"]),
)
def test_training_is_identical_for_every_batch_covering_the_dataset(extra, variant):
    n = NOISY.n_images
    runs = []
    for batch_size in (n, n + extra):
        cfg = TrainerConfig(**{**BASE, "steps": 6, **VARIANTS[variant],
                               "batch_size": batch_size})
        with warnings.catch_warnings(), mock.patch.object(losses, "BLOCK", SMALL_BLOCK):
            warnings.filterwarnings("ignore", message=".*clamped")
            runs.append(train_alignment(FULL_BATCH, cfg,
                                        initial_state(FULL_BATCH, seed=cfg.seed)))
    (state_a, hist_a), (state_b, hist_b) = runs
    assert hist_a == hist_b  # HistoryRecord fields compare exactly
    for name in ("tag_table", "caption_table", "region_table"):
        assert np.array_equal(getattr(state_a, name), getattr(state_b, name))
    assert state_a.step == state_b.step == 6


def test_clamp_warning_counted_once_per_call(monkeypatch):
    monkeypatch.setattr(losses, "BLOCK", SMALL_BLOCK)
    ds = generate_synthetic(NOISY)
    # snapshots read the run's selection plan; each stretch of steps selects once
    for variant in ("default", "no-subsample", "minibatch"):
        cfg = TrainerConfig(**{**BASE, **VARIANTS[variant]})
        with warnings.catch_warnings(record=True) as batched:
            warnings.simplefilter("always")
            train_alignment(ds, cfg, initial_state(ds, seed=cfg.seed))
        with warnings.catch_warnings(record=True) as looped:
            warnings.simplefilter("always")
            train_alignment_loop(NOISY_LOOP, cfg, initial_state(NOISY_LOOP, seed=cfg.seed))
        per_image = _clamp_counts(looped)
        assert len(per_image) > 1
        assert _clamp_counts(batched) == [sum(per_image)]

        state = initial_state(ds, seed=cfg.seed)
        with warnings.catch_warnings(record=True) as snap:
            warnings.simplefilter("always")
            snapshot_loss(ds, state, cfg)
        assert len(_clamp_counts(snap)) == 1


def _run(ds, cfg, start=0):
    """History, final tables and clamp-warning total of one training run from step ``start``."""
    state = initial_state(ds, seed=cfg.seed)
    state.step = start
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        state, history = train_alignment(ds, cfg, state)
    tables = [state.tag_table, state.caption_table, state.region_table]
    return history, tables, sum(_clamp_counts(caught))


@pytest.mark.parametrize("overrides", VARIANTS.values(), ids=VARIANTS.keys())
def test_compute_block_does_not_change_results(overrides, monkeypatch):
    ds = generate_synthetic(NOISY)
    cfg = TrainerConfig(**{**BASE, **overrides})
    runs = []
    for block in (16, 64, losses.BLOCK):
        monkeypatch.setattr(losses, "BLOCK", block)
        runs.append(_run(ds, cfg))
    (history, tables, clamped), *others = runs
    for other_history, other_tables, other_clamped in others:
        assert other_history == history  # HistoryRecord fields compare exactly
        for got, want in zip(other_tables, tables):
            assert np.array_equal(got, want)
        assert other_clamped == clamped


# a run from step 7 makes stretches of 3, 10, 10 and 2 steps
STRETCH_RUNS = {name: (0, VARIANTS[name]) for name in
                ("minibatch", "no-subsample", "no-selection", "freeze-tags", "freeze-regions")}
STRETCH_RUNS["from-step-7"] = (7, {"steps": 25})


@pytest.mark.parametrize("run", STRETCH_RUNS.values(), ids=STRETCH_RUNS.keys())
def test_stretch_cap_does_not_change_results(run, monkeypatch):
    start, overrides = run
    ds = generate_synthetic(NOISY)
    cfg = TrainerConfig(**{**BASE, **overrides})
    runs = []
    # one step per stretch (a selection per step), stretches cut short of
    # the next record, and the default
    for images in (1, 3 * NOISY.n_images, trainer.STRETCH_IMAGES):
        monkeypatch.setattr(trainer, "STRETCH_IMAGES", images)
        runs.append(_run(ds, cfg, start))
    (history, tables, clamped), *others = runs
    assert history[-1].step == start + cfg.steps
    for other_history, other_tables, other_clamped in others:
        assert other_history == history  # HistoryRecord fields compare exactly
        for got, want in zip(other_tables, tables):
            assert np.array_equal(got, want)
        assert other_clamped == clamped


@pytest.mark.parametrize("overrides", [{"learning_rate": 1e300},
                                       {"learning_rate": 1e5, "batch_size": 24}])
def test_stretch_cap_does_not_change_the_diverging_step(overrides, monkeypatch):
    ds = generate_synthetic(NOISY)
    cfg = TrainerConfig(**{**BASE, **overrides})
    errors = []
    for images in (1, trainer.STRETCH_IMAGES):
        monkeypatch.setattr(trainer, "STRETCH_IMAGES", images)
        with warnings.catch_warnings(), pytest.raises(DivergenceError) as caught:
            warnings.filterwarnings("ignore", message=".*clamped")
            train_alignment(ds, cfg, initial_state(ds, seed=cfg.seed))
        errors.append((caught.value.step, str(caught.value)))
    assert errors[0] == errors[1]
    assert 1 < errors[0][0] < 10  # in the middle of the first stretch


@pytest.mark.parametrize("block", [16, losses.BLOCK])
@pytest.mark.parametrize("variant", ["default", "no-subsample", "minibatch",
                                     "minibatch-plain", "no-selection"])
def test_snapshots_select_once_per_run(variant, block, monkeypatch):
    ds = generate_synthetic(NOISY)
    cfg = TrainerConfig(**{**BASE, **VARIANTS[variant]})
    calls = []

    def counted(*args, **kwargs):
        calls.append(len(args[0]))
        return select_batch(*args, **kwargs)

    monkeypatch.setattr(losses, "BLOCK", block)
    monkeypatch.setattr(uasr, "select_batch", counted)
    _run(ds, cfg)
    n = len(ds)
    batch = min(cfg.batch_size, n)
    # the plan, then one selection per stretch of steps, whatever the block: a
    # stretch ends at the next record (every tenth step) or at the image cap
    per_stretch = max(1, trainer.STRETCH_IMAGES // batch)
    step, stretches = 0, 0  # _run starts from step 0
    while step < cfg.steps:
        step += min(10 - step % 10, cfg.steps - step, per_stretch)
        stretches += 1
    assert len(calls) == (1 + stretches if cfg.enable_uasr else 0)
    if cfg.enable_uasr:
        assert sum(calls) == n + cfg.steps * batch  # snapshots select each image once

    calls.clear()
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message=".*clamped")
        snapshot_loss(ds, initial_state(ds, seed=cfg.seed), cfg)
    assert len(calls) == (1 if cfg.enable_uasr else 0)


def test_the_block_patch_reaches_every_loss_pass(monkeypatch):
    """The loss passes read ``rca.losses.BLOCK``: at 16, a 70-image snapshot takes 5 passes."""
    passes = []
    batch_loss = losses.batch_loss

    def counted(regions, *args, **kwargs):
        passes.append(len(regions))
        return batch_loss(regions, *args, **kwargs)

    monkeypatch.setattr(losses, "BLOCK", 16)
    monkeypatch.setattr(losses, "batch_loss", counted)
    ds = generate_synthetic(NOISY)
    cfg = TrainerConfig(**BASE)
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message=".*clamped")
        snapshot_loss(ds, initial_state(ds, seed=cfg.seed), cfg)
    assert passes == [16, 16, 16, 16, 6]


def test_gradient_rows_own_their_memory(monkeypatch):
    """A step writes into the gradient rows ``corpus_losses`` returns, so none may alias.

    At the default ``BLOCK`` the 70 images are one block, whose rows come back
    as ``batch_loss`` made them; at 16 they are concatenated from five blocks.
    Both give the same bits.
    """
    ds = generate_synthetic(NOISY)
    tables = initial_state(ds, seed=BASE["seed"]).tables
    images = np.arange(len(ds))
    sel = losses.corpus_selection(ds, images, True, True)
    inputs = [*tables, images, *(field for field in sel if field is not None),
              ds.positive_concepts, ds.negative_concepts, ds.caption_concepts, ds.region_rows,
              ds.global_scores, ds.cosines]
    before = [a.tobytes() for a in inputs]
    runs = []
    for block in (losses.BLOCK, 16):
        monkeypatch.setattr(losses, "BLOCK", block)
        _, grads = losses.corpus_losses(ds, tables, images, sel, (1.0, 1.0), with_grad=True)
        assert not any(np.shares_memory(g, a) for g in grads for a in inputs)
        assert not any(np.shares_memory(g, h) for g, h in itertools.combinations(grads, 2))
        rows = [g.tobytes() for g in grads]
        for g in grads:
            g.fill(np.nan)
        assert [a.tobytes() for a in inputs] == before
        _, again = losses.corpus_losses(ds, tables, images, sel, (1.0, 1.0), with_grad=True)
        assert [g.tobytes() for g in again] == rows
        assert not any(np.shares_memory(g, h) for g in grads for h in again)
        runs.append(rows)
    assert runs[0] == runs[1]
