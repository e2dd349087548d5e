"""Acceptance gate: eight end-to-end checks at pinned tolerances.

Each criterion is one test, run in order, and each prints a single
``[criterion N] name: PASS/FAIL (detail)`` line to the real stdout so the
summary is visible in the test log even under pytest's capture. Budgets
are wall-clock assertions measured around the heavy section of each test.

Independent routes: gradients are checked against central finite
differences, losses against the direct-formula evaluator in
naive_reference.py, and selection against its loop/set reimplementation.
"""

import json
import math
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from naive_reference import naive_select_reweight, naive_total_loss

from rca.core import ContrastiveInstance, compat_forward, compatibility
from rca.gradients import gradient_check
from rca.losses import batch_loss, nll_terms, total_loss
from rca.trainer import (
    SyntheticConfig,
    TrainerConfig,
    evaluate_retrieval,
    gather_instance,
    generate_synthetic,
    initial_state,
    train_alignment,
)
from rca.uasr import apply_uasr

FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures")
VOCAB = os.path.join(FIXTURES, "vocab.jsonl")
INSTANCES = os.path.join(FIXTURES, "instances.jsonl")
MALFORMED = os.path.join(FIXTURES, "malformed.jsonl")
WRONGDIM = os.path.join(FIXTURES, "wrongdim.jsonl")
RUN_CFG = os.path.join(FIXTURES, "run.cfg")


def report(capsys, number: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"\n[criterion {number}] {name}: {status} ({detail})", flush=True)


def random_instance(rng, d=None, n_regions=None, k=None, n_nouns=None,
                    tag_scale=1.0):
    d = int(rng.choice([4, 8, 16])) if d is None else d
    r = int(rng.integers(1, 7)) if n_regions is None else n_regions
    k = int(rng.integers(1, 6)) if k is None else k
    p = int(rng.integers(0, 5)) if n_nouns is None else n_nouns
    return ContrastiveInstance(
        regions=rng.standard_normal((r, d)),
        positives=rng.standard_normal((k, d)) * tag_scale,
        negatives=rng.standard_normal((k, d)) * tag_scale,
        caption_nouns=rng.standard_normal((p, d)),
        global_scores=np.sort(rng.uniform(0.05, 1.0, size=k))[::-1],
    )


def test_criterion_1_gradients_match_finite_differences(capsys):
    """Analytic gradients within 1e-4 relative error of central differences.

    Four objective variants over 100 random instances each, h = 1e-5,
    dimensions d in {4, 8, 16}, 1..6 regions, K in 1..5, 0..4 caption nouns.
    """
    budget = 30.0
    variants = (
        ("cross", 1.0, 0.0, False),
        ("inner", 0.0, 1.0, False),
        ("cross+selection", 1.0, 0.0, True),
        ("combined+selection", 1.0, 1.0, True),
    )
    rng = np.random.default_rng(11)
    worst = 0.0
    start = time.perf_counter()
    for _ in range(100):
        instance = random_instance(rng)
        for _, lam_c, lam_i, use_sel in variants:
            sel = apply_uasr(instance) if use_sel else None
            rep = gradient_check(instance, sel, lam_c, lam_i, h=1e-5, tolerance=1e-4)
            worst = max(worst, rep.max_error)
    elapsed = time.perf_counter() - start

    ok = worst < 1e-4 and elapsed < budget
    report(capsys, 1, "analytic vs finite-difference gradients", ok,
           f"400 checks, max rel err {worst:.2e}, {elapsed:.1f}s")
    assert worst < 1e-4
    assert elapsed < budget


def test_criterion_2_log_sum_exp_stability(capsys):
    """Stable loss matches the direct formula to 1e-10 relative error on
    1000 instances with compatibilities bounded by 20, and stays finite
    where the direct route overflows."""
    budget = 10.0
    rng = np.random.default_rng(22)
    start = time.perf_counter()
    checked = 0
    for _ in range(1000):
        instance = random_instance(rng, tag_scale=float(rng.uniform(0.3, 3.0)))
        phis = [compatibility(instance.positives, instance.regions),
                compatibility(instance.negatives, instance.regions)]
        if instance.caption_nouns.shape[0]:
            phis += [compatibility(instance.positives, instance.caption_nouns),
                     compatibility(instance.negatives, instance.caption_nouns)]
        peak = max(float(np.abs(p).max()) for p in phis)
        if peak > 20.0:
            shrink = 19.9 / peak
            instance = ContrastiveInstance(
                regions=instance.regions,
                positives=instance.positives * shrink,
                negatives=instance.negatives * shrink,
                caption_nouns=instance.caption_nouns,
                global_scores=instance.global_scores,
            )
        bd = total_loss(instance)
        cross, inner, total = naive_total_loss(
            instance.regions.tolist(),
            instance.positives.tolist(),
            instance.negatives.tolist(),
            instance.caption_nouns.tolist(),
        )
        for got, want in ((bd.cross, cross), (bd.inner, inner), (bd.total, total)):
            assert math.isclose(got, want, rel_tol=1e-10, abs_tol=1e-12)
        checked += 1
    elapsed = time.perf_counter() - start

    # same instance pushed far outside the safe range: the direct formula
    # overflows, the log-sum-exp route does not
    big = ContrastiveInstance(
        regions=np.eye(4) * 40.0,
        positives=np.full((2, 4), 40.0),
        negatives=np.full((2, 4), -40.0),
        caption_nouns=np.zeros((0, 4)),
        global_scores=np.array([0.9, 0.8]),
    )
    stable_total = total_loss(big).total
    overflowed = False
    try:
        naive_total_loss(big.regions.tolist(), big.positives.tolist(),
                         big.negatives.tolist(), [])
    except OverflowError:
        overflowed = True

    ok = checked == 1000 and math.isfinite(stable_total) and overflowed and elapsed < budget
    report(capsys, 2, "log-sum-exp agrees with direct formula at 1e-10", ok,
           f"{checked} instances, naive overflow guarded, {elapsed:.1f}s")
    assert math.isfinite(stable_total)
    assert overflowed
    assert elapsed < budget


def test_criterion_3_closed_form_anchors(capsys):
    """ln 2 for a tied positive/negative pair, ln(1+K) for K tied
    negatives, and all-ones weights reproducing the unweighted loss,
    each within 1e-12."""
    rng = np.random.default_rng(33)
    failures = []

    regions = rng.standard_normal((3, 8))
    row = rng.standard_normal((1, 8))
    tied = ContrastiveInstance(
        regions=regions, positives=row, negatives=row.copy(),
        caption_nouns=rng.standard_normal((2, 8)), global_scores=np.array([0.5]),
    )
    bd = total_loss(tied)
    if abs(bd.cross - math.log(2.0)) > 1e-12:
        failures.append(f"cross ln2 off by {abs(bd.cross - math.log(2.0)):.2e}")
    if abs(bd.inner - math.log(2.0)) > 1e-12:
        failures.append(f"inner ln2 off by {abs(bd.inner - math.log(2.0)):.2e}")

    for k in (1, 2, 3, 5, 8):
        phi = float(rng.standard_normal())
        term = nll_terms(np.array([phi]), np.full(k, phi))[0]
        if abs(term - math.log(1.0 + k)) > 1e-12:
            failures.append(f"ln(1+{k}) off by {abs(term - math.log(1.0 + k)):.2e}")
        stacked = ContrastiveInstance(
            regions=regions,
            positives=np.tile(row, (k, 1)),
            negatives=np.tile(row, (k, 1)),
            caption_nouns=np.zeros((0, 8)),
            global_scores=np.full(k, 0.5),
        )
        drift = abs(total_loss(stacked).cross - math.log(1.0 + k))
        if drift > 1e-12:
            failures.append(f"instance ln(1+{k}) off by {drift:.2e}")

    for _ in range(20):
        inst = random_instance(rng, n_nouns=int(rng.integers(1, 4)))
        tables = (inst.regions[None], np.stack([inst.positives, inst.negatives])[:, None],
                  inst.caption_nouns[None])
        ones = np.ones((1, inst.positives.shape[0]))
        weighted = batch_loss(*tables, ones, with_grad=False)
        plain = batch_loss(*tables, with_grad=False)
        dc = abs(weighted[0][0] - plain[0][0])
        di = abs(weighted[1][0] - plain[1][0])
        if dc > 1e-12 or di > 1e-12:
            failures.append(f"unit weights drift cross {dc:.2e} inner {di:.2e}")

    ok = not failures
    report(capsys, 3, "ln 2 / ln(1+K) / unit-weight anchors at 1e-12", ok,
           "; ".join(failures) if failures else "all anchors exact")
    assert not failures, failures


def test_criterion_4_attention_rows_and_permutation(capsys):
    """Attention rows sum to one within 1e-12 at input scales up to 1e4,
    and compatibilities are invariant to region ordering within 1e-12."""
    rng = np.random.default_rng(44)
    worst_rowsum = 0.0
    worst_perm = 0.0
    for _ in range(200):
        d = int(rng.choice([4, 8, 16]))
        j, r = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        tags = rng.standard_normal((j, d))
        contexts = rng.standard_normal((r, d))
        for scale in (1.0, 1e2, 1e4):
            _, (_, alpha, _) = compat_forward(tags * scale, contexts)
            worst_rowsum = max(worst_rowsum,
                               float(np.abs(alpha.sum(axis=1) - 1.0).max()))
            assert np.isfinite(alpha).all()
        perm = rng.permutation(r)
        drift = np.abs(compatibility(tags, contexts)
                       - compatibility(tags, contexts[perm]))
        worst_perm = max(worst_perm, float(drift.max()))

    ok = worst_rowsum <= 1e-12 and worst_perm <= 1e-12
    report(capsys, 4, "attention normalization and region-order invariance", ok,
           f"row-sum err {worst_rowsum:.2e}, permutation err {worst_perm:.2e}")
    assert worst_rowsum <= 1e-12
    assert worst_perm <= 1e-12


def test_criterion_5_selection_invariants(capsys):
    """On 1000 random instances (R=3 < K=5): both filtered sides keep K
    rows, kept negatives never intersect the retrieved set, and a planted
    false negative (cosine 1.0 with a region) is always removed."""
    budget = 5.0
    rng = np.random.default_rng(55)
    r, k, d = 3, 5, 8
    start = time.perf_counter()
    for _ in range(1000):
        regions = rng.standard_normal((r, d))
        positives = rng.standard_normal((k, d))
        negatives = rng.standard_normal((k, d))
        plant_region = int(rng.integers(r))
        plant_neg = int(rng.integers(k))
        negatives[plant_neg] = regions[plant_region] * float(rng.uniform(1.2, 2.0))
        scores = np.sort(rng.uniform(0.05, 1.0, size=k))[::-1]
        instance = ContrastiveInstance(
            regions=regions, positives=positives, negatives=negatives,
            caption_nouns=np.zeros((0, d)), global_scores=scores,
        )
        sel = apply_uasr(instance)

        assert len(sel.positive_indices) == k
        assert len(sel.negative_indices) == k
        assert instance.positives[sel.positive_indices].shape == (k, d)
        assert instance.negatives[sel.negative_indices].shape == (k, d)
        assert not sel.negative_fallback  # impossible with R < K
        assert (k + plant_neg) in sel.retrieved_set
        assert plant_neg not in sel.negative_indices
        kept_pool_ids = set((np.asarray(sel.negative_indices) + k).tolist())
        assert not kept_pool_ids & set(sel.retrieved_set.tolist())

        pos_idx, neg_idx, weights, retrieved, pos_fb, neg_fb = naive_select_reweight(
            regions.tolist(), positives.tolist(), negatives.tolist(), scores.tolist()
        )
        assert list(sel.positive_indices) == pos_idx
        assert list(sel.negative_indices) == neg_idx
        assert sorted(sel.retrieved_set.tolist()) == sorted(retrieved)
        assert sel.positive_fallback == pos_fb and sel.negative_fallback == neg_fb
        np.testing.assert_allclose(sel.weights, weights, rtol=1e-12, atol=0.0)
    elapsed = time.perf_counter() - start

    ok = elapsed < budget
    report(capsys, 5, "selection keeps K rows and drops planted false negatives", ok,
           f"1000 instances vs loop/set route, {elapsed:.1f}s")
    assert elapsed < budget


def test_criterion_6_synthetic_training_aligns(capsys):
    """From a random tag table, 500 full-batch steps on 200 synthetic
    images (10 concepts, d=16) lift retrieval from chance (~0.25 with 4
    regions) to at least 0.9 and produce a positive compatibility gap."""
    budget = 60.0
    syn = SyntheticConfig(n_concepts=10, d=16, n_images=200,
                          regions_per_image=4, seed=0)
    cfg = TrainerConfig(steps=500, learning_rate=1.0, seed=0)
    dataset = generate_synthetic(syn)
    state = initial_state(dataset, seed=0)
    acc_before = evaluate_retrieval(dataset, state)

    start = time.perf_counter()
    state, history = train_alignment(dataset, cfg, state)
    elapsed = time.perf_counter() - start
    acc_after = evaluate_retrieval(dataset, state)

    gaps = []
    for i in range(len(dataset)):
        ci = gather_instance(dataset, state, i)
        gaps.append(float(compatibility(ci.positives, ci.regions).mean()
                          - compatibility(ci.negatives, ci.regions).mean()))
    gap = float(np.mean(gaps))

    ok = (0.05 <= acc_before <= 0.5 and acc_after >= 0.9 and gap > 0.0
          and history[-1].total < history[0].total and elapsed < budget)
    report(capsys, 6, "synthetic training reaches 0.9 retrieval", ok,
           f"accuracy {acc_before:.3f} -> {acc_after:.3f}, "
           f"phi gap {gap:.3f}, {elapsed:.1f}s")
    assert 0.05 <= acc_before <= 0.5
    assert acc_after >= 0.9
    assert gap > 0.0
    assert history[-1].total < history[0].total
    assert elapsed < budget


def test_criterion_7_selection_ablation_under_noise(capsys):
    """With 20% of instances corrupted by a positive/negative swap, median
    retrieval over 10 paired seeds with selection on is at least the
    median with selection off (same data, init, and batch order)."""
    budget = 300.0
    on, off = [], []
    start = time.perf_counter()
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message=".*clamped to 1e-06")
        for seed in range(10):
            pair = {}
            for enabled in (True, False):
                syn = SyntheticConfig(n_concepts=10, d=16, n_images=40,
                                      regions_per_image=4, flip_rate=0.2, seed=seed)
                dataset = generate_synthetic(syn)
                cfg = TrainerConfig(steps=200, learning_rate=1.0,
                                    enable_uasr=enabled, seed=seed)
                state = initial_state(dataset, seed=seed)
                state, _ = train_alignment(dataset, cfg, state)
                pair[enabled] = evaluate_retrieval(dataset, state)
            on.append(pair[True])
            off.append(pair[False])
    elapsed = time.perf_counter() - start

    median_on = float(np.median(on))
    median_off = float(np.median(off))
    wins = sum(a > b for a, b in zip(on, off))
    losses = sum(a < b for a, b in zip(on, off))

    ok = median_on >= median_off and elapsed < budget
    report(capsys, 7, "selection ablation under 20% corruption", ok,
           f"median on {median_on:.4f} vs off {median_off:.4f}, "
           f"{wins} wins / {losses} losses over 10 seeds, {elapsed:.0f}s")
    assert median_on >= median_off
    assert elapsed < budget


def run(args, **kwargs):
    return subprocess.run([sys.executable, "-m", "rca", *args],
                          capture_output=True, text=True, **kwargs)


def test_criterion_8_cli_contract(tmp_path, capsys):
    """Byte-identical output across repeated runs, lossless file round
    trips, and the 0/1/2/3 exit-code contract."""
    failures = []

    for args in (["loss", VOCAB, INSTANCES],
                 ["uasr", VOCAB, INSTANCES],
                 ["rank", VOCAB, INSTANCES, "--M", "4"]):
        first, second = run(args), run(args)
        if first.returncode != 0 or second.returncode != 0:
            failures.append(f"{args[0]} exited {first.returncode}/{second.returncode}")
        if first.stdout != second.stdout:
            failures.append(f"{args[0]} output differs between runs")

    states = []
    for name in ("a", "b"):
        out = tmp_path / f"{name}.jsonl"
        proc = run(["train", "--config", RUN_CFG, "--state_out", str(out)])
        if proc.returncode != 0:
            failures.append(f"train exited {proc.returncode}")
        states.append((proc.stdout, out.read_bytes()))
    if states[0] != states[1]:
        failures.append("train output or state differs between runs")

    eval_proc = run(["eval", str(tmp_path / "a.jsonl")])
    if eval_proc.returncode != 0:
        failures.append(f"eval exited {eval_proc.returncode}")
    else:
        acc = json.loads(eval_proc.stdout)["retrieval_accuracy"]
        if not 0.0 <= acc <= 1.0:
            failures.append(f"eval accuracy out of range: {acc}")

    # round trips through the library writers reproduce the files byte for byte
    from rca.io import read_instances, read_vocab, write_instances, write_vocab

    vocab, dim = read_vocab(VOCAB)
    write_vocab(tmp_path / "v.jsonl", vocab, dim)
    if (tmp_path / "v.jsonl").read_bytes() != Path(VOCAB).read_bytes():
        failures.append("vocabulary round trip not byte-identical")
    records, dim = read_instances(INSTANCES)
    write_instances(tmp_path / "i.jsonl", records, dim)
    if (tmp_path / "i.jsonl").read_bytes() != Path(INSTANCES).read_bytes():
        failures.append("instance round trip not byte-identical")

    expectations = (
        (["loss", VOCAB, INSTANCES], 0, None),
        (["gradcheck", "--seed", "3", "--tolerance", "1e-18"], 1, None),
        (["loss", VOCAB, MALFORMED], 2, "line 5"),
        (["loss", VOCAB, WRONGDIM], 3, "dim"),
    )
    for args, want_code, stderr_needle in expectations:
        proc = run(args)
        if proc.returncode != want_code:
            failures.append(f"{' '.join(args[:2])}: exit {proc.returncode}, wanted {want_code}")
        elif stderr_needle and stderr_needle not in proc.stderr:
            failures.append(f"{' '.join(args[:2])}: stderr missing {stderr_needle!r}")

    ok = not failures
    report(capsys, 8, "command line determinism, round trips, exit codes", ok,
           "; ".join(failures) if failures else "all contract points hold")
    assert not failures, failures
