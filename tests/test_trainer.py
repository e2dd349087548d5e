import hashlib
import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from rca.core import compatibility
from rca.errors import ConfigError, DivergenceError
from rca.trainer import (
    SyntheticConfig,
    TrainerConfig,
    aligned_state,
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


EMBEDDINGS = ("region_embeddings", "positive_embeddings", "negative_embeddings")
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
        for name in EMBEDDINGS:
            assert getattr(ds, name).shape == (n, k, d)
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
        assert np.array_equal(ds.positive_embeddings, ds.prototypes[ds.positive_concepts])
        assert np.array_equal(ds.negative_embeddings, ds.prototypes[ds.negative_concepts])

    def test_cosines_are_each_images_region_by_pool_cosines(self):
        # 70 images span two blocks; each row must hold its own image's pool
        ds = generate_synthetic(SyntheticConfig(n_concepts=6, d=8, n_images=70,
                                                regions_per_image=3, noise_sigma=0.3,
                                                flip_rate=0.2, seed=5))
        for i in range(len(ds)):
            want = pool_cosines(*(getattr(ds, name)[i] for name in EMBEDDINGS))
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
            "aligned": evaluate_retrieval(ds, aligned_state(ds)),
            "trained": evaluate_retrieval(ds, trained),
        } == golden["retrieval"]

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            SyntheticConfig(n_concepts=4, regions_per_image=4)
        with pytest.raises(ConfigError):
            SyntheticConfig(flip_rate=1.5)
        with pytest.raises(ConfigError):
            SyntheticConfig(noise_sigma=-0.1)
        with pytest.raises(ConfigError):
            TrainerConfig(subsample_fraction=0.0)
        with pytest.raises(ConfigError):
            TrainerConfig(learning_rate=-1.0)

    @pytest.mark.parametrize("config_class, field, value", [
        (SyntheticConfig, "n_concepts", 10.5),
        (SyntheticConfig, "n_images", "200"),
        (SyntheticConfig, "d", True),
        (SyntheticConfig, "noise_sigma", "0.1"),
        (TrainerConfig, "steps", "5"),
        (TrainerConfig, "enable_uasr", "no"),
        (TrainerConfig, "enable_inner", 1),
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

    def test_region_init_modes(self):
        ds = generate_synthetic(SMALL)
        data = initial_state(ds, seed=0, region_init="data")
        rand = initial_state(ds, seed=0, region_init="random")
        stacked = ds.region_embeddings.reshape(-1, SMALL.d)
        assert np.array_equal(data.region_table, stacked)
        assert not np.allclose(rand.region_table, stacked)
        with pytest.raises(ConfigError):
            initial_state(ds, region_init="zeros")

    def test_states_own_their_region_tables(self):
        ds = generate_synthetic(SMALL)
        before = ds.region_embeddings.copy()
        for state in (initial_state(ds, seed=0), aligned_state(ds)):
            state.region_table += 1.0
        assert np.array_equal(ds.region_embeddings, before)

    def test_aligned_state_is_perfect_noiseless(self):
        ds = generate_synthetic(SMALL)
        assert evaluate_retrieval(ds, aligned_state(ds)) == 1.0

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

    def test_divergence_detected(self):
        ds = generate_synthetic(SMALL)
        with pytest.raises(DivergenceError) as exc:
            with warnings.catch_warnings(), np.errstate(all="ignore"):
                warnings.simplefilter("ignore", RuntimeWarning)
                train_alignment(
                    ds,
                    TrainerConfig(steps=10, learning_rate=1e90),
                    initial_state(ds, seed=0),
                )
        assert exc.value.step >= 1

    def test_subsample_does_not_touch_snapshots(self):
        ds = generate_synthetic(SMALL)
        state = initial_state(ds, seed=0)
        for enable in (True, False):
            cfg = TrainerConfig(steps=0, learning_rate=0.5, enable_subsample=enable)
            assert snapshot_loss(ds, state, cfg).total == snapshot_loss(ds, state, cfg).total
        a = snapshot_loss(ds, state, TrainerConfig(enable_subsample=True))
        b = snapshot_loss(ds, state, TrainerConfig(enable_subsample=False))
        assert a.total == b.total

    def test_inner_toggle_changes_loss(self):
        ds = generate_synthetic(SMALL)
        state = initial_state(ds, seed=0)
        with_inner = snapshot_loss(ds, state, TrainerConfig(enable_inner=True))
        without = snapshot_loss(ds, state, TrainerConfig(enable_inner=False))
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
