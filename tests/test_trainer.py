import dataclasses
import hashlib
import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from loop_reference import generate_synthetic_loop
from rca.core import compatibility
from rca import trainer
from rca.errors import ConfigError, DegenerateEmbeddingError, DivergenceError
from rca.trainer import (
    SyntheticConfig,
    TrainerConfig,
    evaluate_retrieval,
    gather_instance,
    generate_synthetic,
    initial_state,
    snapshot_loss,
    train_alignment,
)
from rca.uasr import pool_cosines

SMALL = SyntheticConfig(n_concepts=6, d=8, n_images=20, regions_per_image=3, seed=0)
FAST = dict(steps=5, learning_rate=0.5)

GOLDEN = json.loads((Path(__file__).parent / "fixtures" / "expected_synthetic.json").read_text())


def _digest(arr: np.ndarray) -> str:
    """SHA-256 of an array's dtype, shape and bytes."""
    arr = np.ascontiguousarray(arr)
    h = hashlib.sha256(f"{arr.dtype.str}{arr.shape}".encode())
    h.update(arr.tobytes())
    return h.hexdigest()


class TestGeneration:
    def test_shapes_and_concept_sets(self):
        ds = generate_synthetic(SMALL)
        n, k, d = 20, SMALL.regions_per_image, SMALL.d
        assert len(ds) == n
        assert ds.prototypes.shape == (6, d)
        assert np.allclose(np.linalg.norm(ds.prototypes, axis=1), 1.0)
        for name in ("region_concepts", "positive_concepts", "negative_concepts",
                     "caption_concepts", "global_scores"):
            assert getattr(ds, name).shape == (n, k)
        assert ds.region_embeddings.shape == (n, k, d)
        assert ds.flipped.shape == (n,)
        assert ds.cosines.shape == (n, k, 2 * k)
        for i in range(n):
            present = set(ds.region_concepts[i].tolist())
            assert len(present) == k
            assert set(ds.caption_concepts[i].tolist()) == present
        assert np.all(np.diff(ds.global_scores, axis=1) <= 1e-12)

    def test_noiseless_embeddings_are_prototypes(self):
        ds = generate_synthetic(SMALL)
        assert np.array_equal(ds.region_embeddings, ds.prototypes[ds.region_concepts])
        # the selection evidence is the prototypes of the tag concepts too
        for i in range(len(ds)):
            want = pool_cosines(*(ds.prototypes[concepts[i]] for concepts in (
                ds.region_concepts, ds.positive_concepts, ds.negative_concepts)))
            assert np.array_equal(ds.cosines[i], want)

    def test_cosines_are_each_images_region_by_pool_cosines(self):
        # 70 images span two blocks; each row must hold its own image's pool,
        # whose tag embeddings only the loop reference keeps
        cfg = SyntheticConfig(n_concepts=6, d=8, n_images=70, regions_per_image=3,
                              noise_sigma=0.3, flip_rate=0.2, seed=5)
        ds, loop = generate_synthetic(cfg), generate_synthetic_loop(cfg)
        for i in range(len(ds)):
            want = pool_cosines(ds.region_embeddings[i], loop.positive_embeddings[i],
                                loop.negative_embeddings[i])
            np.testing.assert_allclose(ds.cosines[i], want, rtol=1e-13, atol=1e-15)

    def test_without_flips_sides_partition_concepts(self):
        ds = generate_synthetic(SMALL)
        for i in range(len(ds)):
            present = set(ds.region_concepts[i].tolist())
            assert set(ds.positive_concepts[i].tolist()) == present
            assert not set(ds.negative_concepts[i].tolist()) & present

    def test_flips_move_one_pair_across_sides(self):
        cfg = SyntheticConfig(n_concepts=6, d=8, n_images=30, regions_per_image=3,
                              flip_rate=1.0, seed=1)
        ds = generate_synthetic(cfg)
        assert ds.flipped.all()
        for i in range(len(ds)):
            present = set(ds.region_concepts[i].tolist())
            pos = set(ds.positive_concepts[i].tolist())
            neg = set(ds.negative_concepts[i].tolist())
            assert len(pos - present) == 1    # one absent concept slipped in
            assert len(neg & present) == 1    # one true concept pushed out

    def test_flip_rate_zero_never_flips(self):
        ds = generate_synthetic(SMALL)
        assert not ds.flipped.any()

    def test_noise_spreads_embeddings(self):
        noisy = generate_synthetic(
            SyntheticConfig(n_concepts=6, d=8, n_images=10, regions_per_image=3,
                            noise_sigma=0.3, seed=2)
        )
        for i in range(len(noisy)):
            assert not np.allclose(noisy.region_embeddings[i],
                                   noisy.prototypes[noisy.region_concepts[i]])

    def test_deterministic_by_seed(self):
        a = generate_synthetic(SMALL)
        b = generate_synthetic(SMALL)
        assert np.array_equal(a.prototypes, b.prototypes)
        assert np.array_equal(a.positive_concepts, b.positive_concepts)
        assert np.array_equal(a.global_scores, b.global_scores)

    @pytest.mark.parametrize("name", GOLDEN)
    def test_matches_golden_bytes(self, name):
        """Every generated field, byte for byte, and retrieval on three states."""
        golden = GOLDEN[name]
        cfg = SyntheticConfig(**golden["config"])
        ds = generate_synthetic(cfg)
        assert {field: _digest(getattr(ds, field)) for field in golden["digests"]} == (
            golden["digests"])
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", message=".*clamped")
            trained, _ = train_alignment(
                ds, TrainerConfig(steps=25, learning_rate=0.5, seed=cfg.seed),
                initial_state(ds, seed=cfg.seed))
        assert {
            "initial": evaluate_retrieval(ds, initial_state(ds, seed=cfg.seed)),
            "aligned": evaluate_retrieval(ds, initial_state(ds, init="aligned")),
            "trained": evaluate_retrieval(ds, trained),
        } == golden["retrieval"]

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            SyntheticConfig(n_concepts=4, regions_per_image=4)
        # 3 negatives drawn from 2 absent concepts would name one twice
        with pytest.raises(ConfigError, match=r"^regions_per_image must be in \[1, n_concepts // 2\]"):
            SyntheticConfig(n_concepts=5, d=6, n_images=40, regions_per_image=3,
                            noise_sigma=0.1, flip_rate=0.5, seed=7)
        with pytest.raises(ConfigError):
            SyntheticConfig(flip_rate=1.5)
        with pytest.raises(ConfigError):
            SyntheticConfig(noise_sigma=-0.1)
        with pytest.raises(ConfigError):
            TrainerConfig(subsample_fraction=0.0)
        with pytest.raises(ConfigError):
            TrainerConfig(learning_rate=-1.0)
        with pytest.raises(ConfigError, match="^need at least 2 concepts$"):
            SyntheticConfig(n_concepts=1)
        with pytest.raises(ConfigError, match="^embedding dimension must be positive$"):
            SyntheticConfig(d=0)
        with pytest.raises(ConfigError, match="^need at least 1 image$"):
            SyntheticConfig(n_images=0)
        with pytest.raises(ConfigError, match="^batch_size must be positive$"):
            TrainerConfig(batch_size=0)

    @pytest.mark.parametrize("config_class, field, value", [
        (SyntheticConfig, "n_concepts", 10.5),
        (SyntheticConfig, "n_images", "200"),
        (SyntheticConfig, "d", True),
        (SyntheticConfig, "noise_sigma", "0.1"),
        (TrainerConfig, "steps", "5"),
        (TrainerConfig, "enable_uasr", "no"),
        (TrainerConfig, "freeze_tags", 1),
        (TrainerConfig, "learning_rate", False),
        (TrainerConfig, "seed", None),
    ])
    def test_config_type_validation(self, config_class, field, value):
        with pytest.raises(ConfigError, match=field):
            config_class(**{field: value})

    def test_float_fields_take_integers(self):
        assert TrainerConfig(learning_rate=1).learning_rate == 1
        assert SyntheticConfig(flip_rate=0).flip_rate == 0


class TestStates:
    def test_initial_state_decorrelated_from_data(self):
        ds = generate_synthetic(SMALL)
        state = initial_state(ds, seed=SMALL.seed)
        cos = np.abs(np.sum(state.tag_table * ds.prototypes, axis=1)
                     / np.linalg.norm(state.tag_table, axis=1))
        assert cos.max() < 0.99

    def test_init_modes(self):
        ds = generate_synthetic(SMALL)
        data = initial_state(ds, seed=0, init="data")
        rand = initial_state(ds, seed=0, init="random")
        aligned = initial_state(ds, seed=0, init="aligned")
        stacked = ds.region_embeddings.reshape(-1, SMALL.d)
        assert np.array_equal(data.region_table, stacked)
        assert np.array_equal(aligned.region_table, stacked)
        assert not np.allclose(rand.region_table, stacked)
        # the random modes draw the same concept tables; the oracle's are the prototypes
        for name in ("tag_table", "caption_table"):
            assert np.array_equal(getattr(data, name), getattr(rand, name))
            assert np.array_equal(getattr(aligned, name), ds.prototypes)
        with pytest.raises(ConfigError, match="^unknown init 'zeros'$"):
            initial_state(ds, init="zeros")

    def test_states_own_their_region_tables(self):
        ds = generate_synthetic(SMALL)
        before = ds.region_embeddings.copy()
        for init in ("data", "aligned"):
            state = initial_state(ds, seed=0, init=init)
            state.region_table += 1.0
            state.tag_table += 1.0
        assert np.array_equal(ds.region_embeddings, before)
        assert np.array_equal(ds.prototypes, generate_synthetic(SMALL).prototypes)

    def test_aligned_state_is_perfect_noiseless(self):
        ds = generate_synthetic(SMALL)
        assert evaluate_retrieval(ds, initial_state(ds, init="aligned")) == 1.0

    def test_overflowing_norm_rejected_zero_norm_clamped(self):
        ds = generate_synthetic(SMALL)
        state = initial_state(ds, init="aligned")
        concept = ds.positive_concepts[0, 0]
        state.tag_table[concept] = 0.0
        assert 0.0 < evaluate_retrieval(ds, state) < 1.0
        state.tag_table[concept, 0] = 1e200
        with pytest.raises(DegenerateEmbeddingError,
                           match="^retrieval cosine has an overflowing norm or dot product$"):
            evaluate_retrieval(ds, state)

    def test_random_tables_score_near_chance(self):
        accs = []
        for seed in range(12):
            ds = generate_synthetic(
                SyntheticConfig(n_concepts=10, d=16, n_images=50,
                                regions_per_image=4, seed=seed)
            )
            accs.append(evaluate_retrieval(ds, initial_state(ds, seed=seed)))
        assert 0.15 <= float(np.mean(accs)) <= 0.35


class TestTraining:
    def test_zero_learning_rate_history_is_flat(self):
        ds = generate_synthetic(SMALL)
        state, history = train_alignment(
            ds, TrainerConfig(steps=25, learning_rate=0.0), initial_state(ds, seed=0)
        )
        assert [h.step for h in history] == [0, 10, 20, 25]
        assert len({h.total for h in history}) == 1
        assert len({h.cross for h in history}) == 1

    def test_history_schedule_includes_final_partial_step(self):
        ds = generate_synthetic(SMALL)
        _, history = train_alignment(ds, TrainerConfig(steps=13, **{"learning_rate": 0.1}))
        assert [h.step for h in history] == [0, 10, 13]
        _, history = train_alignment(ds, TrainerConfig(steps=20, learning_rate=0.1))
        assert [h.step for h in history] == [0, 10, 20]
        _, history = train_alignment(ds, TrainerConfig(steps=0, learning_rate=0.1))
        assert [h.step for h in history] == [0]

    def test_loss_decreases_on_noiseless_data(self):
        ds = generate_synthetic(SMALL)
        _, history = train_alignment(
            ds, TrainerConfig(steps=40, learning_rate=0.5), initial_state(ds, seed=0)
        )
        assert history[-1].total < history[0].total

    def test_deterministic_given_seed(self):
        ds = generate_synthetic(SMALL)
        cfg = TrainerConfig(steps=8, learning_rate=0.5, seed=3)
        s1, h1 = train_alignment(ds, cfg, initial_state(ds, seed=3))
        s2, h2 = train_alignment(ds, cfg, initial_state(ds, seed=3))
        assert np.array_equal(s1.tag_table, s2.tag_table)
        assert [h.total for h in h1] == [h.total for h in h2]

    def test_freeze_flags_pin_tables(self):
        ds = generate_synthetic(SMALL)
        start = initial_state(ds, seed=0)
        frozen_tags = start.tag_table.copy()
        frozen_regions = start.region_table.copy()
        state, _ = train_alignment(
            ds,
            TrainerConfig(steps=4, learning_rate=0.5, freeze_tags=True, freeze_regions=True),
            start,
        )
        assert np.array_equal(state.tag_table, frozen_tags)
        assert np.array_equal(state.region_table, frozen_regions)
        assert state.step == 4

    @pytest.mark.parametrize("fraction", [0.5, 1.0])
    def test_minibatch_steps_leave_other_region_rows_as_they_were(self, fraction):
        ds = generate_synthetic(SyntheticConfig(n_concepts=6, d=8, n_images=60,
                                                regions_per_image=3, noise_sigma=0.3, seed=4))
        cfg = TrainerConfig(steps=3, learning_rate=0.5, batch_size=8, seed=5,
                            subsample_fraction=fraction)
        subsample = fraction < 1.0
        rng = np.random.default_rng(cfg.seed)  # the trainer's stream: batch, then its draws
        batched = set()
        for _ in range(cfg.steps):
            batch = rng.choice(len(ds), size=cfg.batch_size, replace=False)
            if subsample:
                trainer._draw_subsets(rng, cfg.batch_size, ds.config.regions_per_image,
                                      cfg.subsample_fraction)
            batched.update(batch.tolist())
        outside = np.array(sorted(set(range(len(ds))) - batched))
        rows, inside = ds.region_rows[outside].ravel(), ds.region_rows[sorted(batched)].ravel()
        for frozen in (False, True):
            start = initial_state(ds, seed=0)
            start.region_table[rows[0]] = -0.0
            before = start.region_table.copy()
            state, _ = train_alignment(ds, dataclasses.replace(cfg, freeze_regions=frozen),
                                       start)
            if frozen:
                assert state.region_table.tobytes() == before.tobytes()
            else:
                assert state.region_table[rows].tobytes() == before[rows].tobytes()
                assert (state.region_table[inside] != before[inside]).any(axis=1).all()

    def test_divergence_detected(self):
        ds = generate_synthetic(SMALL)
        with pytest.raises(DivergenceError) as exc:
            train_alignment(ds, TrainerConfig(steps=10, learning_rate=1e90), initial_state(ds, seed=0))
        assert exc.value.step >= 1
        # finite tables whose compatibility scores overflow: both snapshot routes raise at step 0
        ds = generate_synthetic(dataclasses.replace(SMALL, seed=1))
        state = initial_state(ds, seed=1)
        state.tag_table *= 1e160
        state.region_table *= 1e160
        for snapshot in (lambda: snapshot_loss(ds, state, TrainerConfig()),
                         lambda: train_alignment(ds, TrainerConfig(steps=5, learning_rate=0.0), state)):
            with pytest.raises(DivergenceError, match="^snapshot loss is not finite$") as exc:
                snapshot()
            assert exc.value.step == 0

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("frozen", [False, True], ids=["trained", "frozen"])
    def test_a_non_finite_region_row_fails_the_first_step(self, frozen, bad):
        """A step checks the region rows it writes, and a run's first step the whole table.

        At lambda_cross = 0 the step-0 snapshot does not read the regions,
        so only that first check finds a bad row the first batch misses.
        """
        ds = generate_synthetic(SMALL)
        for step in (0, 7):
            state = initial_state(ds, seed=0)
            state.step = step
            state.region_table[-1, 0] = bad
            cfg = TrainerConfig(steps=5, learning_rate=0.1, batch_size=1, lambda_cross=0.0,
                                freeze_regions=frozen)
            with pytest.raises(DivergenceError, match="^table values are not finite$") as exc:
                train_alignment(ds, cfg, state)
            assert exc.value.step == step + 1

    def test_subsample_does_not_touch_snapshots(self):
        ds = generate_synthetic(SMALL)
        state = initial_state(ds, seed=0)
        for fraction in (0.5, 1.0):
            cfg = TrainerConfig(steps=0, learning_rate=0.5, subsample_fraction=fraction)
            assert snapshot_loss(ds, state, cfg).total == snapshot_loss(ds, state, cfg).total
        a = snapshot_loss(ds, state, TrainerConfig(subsample_fraction=0.5))
        b = snapshot_loss(ds, state, TrainerConfig(subsample_fraction=1.0))
        assert a.total == b.total

    def test_inner_toggle_changes_loss(self):
        ds = generate_synthetic(SMALL)
        state = initial_state(ds, seed=0)
        with_inner = snapshot_loss(ds, state, TrainerConfig(lambda_inner=1.0))
        without = snapshot_loss(ds, state, TrainerConfig(lambda_inner=0.0))
        assert without.inner == 0.0
        assert with_inner.total != without.total

    def test_training_improves_retrieval_and_separation(self):
        ds = generate_synthetic(SMALL)
        start = initial_state(ds, seed=0)
        before = evaluate_retrieval(ds, start)
        state, _ = train_alignment(ds, TrainerConfig(steps=120, learning_rate=1.0), start)
        after = evaluate_retrieval(ds, state)
        assert after > before
        gaps = []
        for i in range(len(ds)):
            ci = gather_instance(ds, state, i)
            gaps.append(
                compatibility(ci.positives, ci.regions).mean()
                - compatibility(ci.negatives, ci.regions).mean()
            )
        assert float(np.mean(gaps)) > 0.0
