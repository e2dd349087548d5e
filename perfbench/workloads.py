"""Seeded inputs, repeatable work units and output checks for the rca benchmark.

Each workload is built once per run from its seed and then executed as
repeated, identical *units*: one ``train_alignment`` call of
``TRAIN_STEPS`` steps from the same initial state, or one four-call CLI
session over the same corpus. Because every unit does the same work on
the same inputs, each one is checked against the same expected outputs
and per-unit counts repeat exactly.

Program entry points are always reached through module attributes
(``trainer.train_alignment``, ``cli.main``) so the tracer's wrappers see
the calls. ``run_unit`` holds the timed work only; ``check_files`` runs
after the unit's spans are closed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io as stdio
import json
import math
import time
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from rca import cli, trainer
from rca.errors import DivergenceError
from rca.io import CaptionToken, InstanceRecord, read_instances, write_instances, write_vocab
from rca.trainer import SyntheticConfig, TrainerConfig, TrainState, generate_synthetic, initial_state

# Non-positive global scores are clamped with a UserWarning on every
# affected image and step; the count is not what this benchmark measures.
warnings.filterwarnings("ignore", message=r".*non-positive global score", category=UserWarning)

HERE = Path(__file__).resolve().parent
PINS_PATH = HERE / "pins.json"

TRAIN_STEPS = 20  # per unit: 20 steps and 3 history snapshots (steps 0, 10, 20)
# Batching reorders float reductions (relative changes near 1e-15 per op, a
# little amplified by 20 steps at learning rate 1); a changed selection moves
# the final loss by far more than this.
FINAL_TOTAL_RTOL = 1e-9

TRAIN_SHAPES = {
    "train-c6": (
        dict(n_concepts=10, d=16, n_images=200, regions_per_image=4),
        dict(learning_rate=1.0),
    ),
    "train-minibatch": (
        dict(n_concepts=10, d=16, n_images=2000, regions_per_image=4,
             noise_sigma=0.3, flip_rate=0.2),
        dict(learning_rate=1.0, batch_size=32),
    ),
}

CORPUS_IMAGES = 50
VOCAB_SIZE = 1000
CORPUS_DIM = 64
CORPUS_REGIONS = 8
CAPTION_TOKENS = 6
CAPTION_NOUNS = 3
# At K=25 the default step h=1e-5 is rounding-dominated: the worst relative
# error of correct gradients reaches 1.0-1.3e-4 on some seeds, over the 1e-4
# tolerance, and falls to about 1e-5 at h=1e-4. The step does not change the
# work (two loss evaluations per parameter either way).
GRADCHECK_ARGS = ["--d", "16", "--k", "25", "--n_regions", "8", "--n_nouns", "3", "--h", "1e-4"]
WORDS = ["a", "the", "red", "small", "dog", "cat", "ball", "lamp", "sofa", "tree",
         "near", "under", "with", "car", "road", "sky"]

WORKLOADS = ("train-c6", "train-minibatch", "cli-corpus")
# pins.json holds expected outputs for input seeds 0..PINNED_SEEDS-1. A run's
# --seed is folded into that range, so every run is checked against a pin.
PINNED_SEEDS = 64


def input_seed(seed: int) -> int:
    return seed % PINNED_SEEDS


def load_pins() -> dict:
    with open(PINS_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass
class UnitResult:
    """One unit's timed wall seconds, per-operation failures and outputs.

    ``segments`` are the unit's timed parts (the one training call, or each
    CLI call); ``probes`` holds the result of the ``between`` callback run
    after each segment, outside its timing.
    """

    ops: int
    failures: list[str]
    outputs: dict
    segments: list[float]
    probes: list

    @property
    def seconds(self) -> float:
        return sum(self.segments)


class TrainWorkload:
    """Full-table gradient descent on a generated synthetic corpus."""

    unit_items = TRAIN_STEPS

    def __init__(self, name: str, seed: int):
        syn, tr = TRAIN_SHAPES[name]
        self.name = name
        self.seed = seed
        self.synthetic = SyntheticConfig(seed=seed, **syn)
        self.config = TrainerConfig(steps=TRAIN_STEPS, seed=seed, **tr)
        self.dataset = None
        self.state0 = None

    def prepare(self, workdir: Path) -> None:
        """Benchmark-side inputs: none beyond the configs, which the seed fixes."""

    def setup(self) -> None:
        """Program set-up, timed as ``setup_s``: dataset and initial tables."""
        self.dataset = generate_synthetic(self.synthetic)
        self.state0 = initial_state(self.dataset, seed=self.seed)

    def run_unit(self, between=None) -> UnitResult:
        s0 = self.state0
        state = TrainState(s0.tag_table.copy(), s0.caption_table.copy(),
                           s0.region_table.copy(), s0.step)
        start = time.perf_counter()
        try:
            _, history = trainer.train_alignment(self.dataset, self.config, state)
        except DivergenceError as exc:
            seconds = time.perf_counter() - start
            return UnitResult(1, [f"diverged: {exc}"], {}, [seconds],
                              [between()] if between else [])
        seconds = time.perf_counter() - start
        probes = [between()] if between else []
        totals = [rec.total for rec in history]
        failures = []
        if not all(math.isfinite(t) for t in totals):
            failures.append("history is not finite")
        elif not totals[-1] < totals[0]:
            failures.append(f"final total {totals[-1]!r} is not below first {totals[0]!r}")
        return UnitResult(1, failures,
                          {"first_total": totals[0], "final_total": totals[-1]},
                          [seconds], probes)

    def check_files(self) -> list[str]:
        return []

    def check_pinned(self, outputs: dict, pin: dict) -> list[str]:
        want, got = pin["final_total"], outputs["final_total"]
        if abs(got - want) > FINAL_TOTAL_RTOL * abs(want):
            return [f"final total {got!r} differs from pinned {want!r}"]
        return []

    def pin_of(self, outputs: dict) -> dict:
        return {"final_total": outputs["final_total"]}


def write_corpus(seed: int, vocab_path: Path, instances_path: Path) -> None:
    """Random vocabulary and untagged instances, all drawn from ``seed``."""
    rng = np.random.default_rng([seed, 0xC0])
    vocab = [(f"tag{i:04d}", rng.standard_normal(CORPUS_DIM)) for i in range(VOCAB_SIZE)]
    write_vocab(vocab_path, vocab, CORPUS_DIM)
    records = []
    for i in range(CORPUS_IMAGES):
        regions = rng.standard_normal((CORPUS_REGIONS, CORPUS_DIM))
        nouns = set(rng.choice(CAPTION_TOKENS, size=CAPTION_NOUNS, replace=False).tolist())
        tokens = [
            CaptionToken(text=str(rng.choice(WORDS)), is_noun=j in nouns,
                         embedding=rng.standard_normal(CORPUS_DIM))
            for j in range(CAPTION_TOKENS)
        ]
        image = regions.mean(axis=0) + 0.1 * rng.standard_normal(CORPUS_DIM)
        records.append(InstanceRecord(image_id=f"img{i:04d}", image_embedding=image,
                                      regions=regions, caption_tokens=tokens))
    write_instances(instances_path, records, CORPUS_DIM)


class CliWorkload:
    """The CLI over a generated corpus: rank, uasr, loss, then gradcheck."""

    unit_items = CORPUS_IMAGES
    calls = ("rank", "uasr", "loss", "gradcheck")

    def __init__(self, name: str, seed: int):
        self.name = name
        self.seed = seed
        self.vocab = self.instances = self.ranked = None

    def prepare(self, workdir: Path) -> None:
        """Write the corpus files; benchmark set-up, never timed."""
        self.use_files(workdir)
        write_corpus(self.seed, self.vocab, self.instances)

    def use_files(self, workdir: Path) -> None:
        self.workdir = workdir
        self.vocab = workdir / "vocab.jsonl"
        self.instances = workdir / "instances.jsonl"
        self.ranked = workdir / "ranked.jsonl"

    def setup(self) -> None:
        """Nothing in-process: ``setup_s`` is a fresh interpreter importing rca.cli."""

    def argv(self, call: str) -> list[str]:
        v, r = str(self.vocab), str(self.ranked)
        return {
            "rank": ["rank", v, str(self.instances), "--out", r],
            "uasr": ["uasr", v, r],
            "loss": ["loss", v, r, "--enable_uasr"],
            "gradcheck": ["gradcheck", *GRADCHECK_ARGS, "--seed", str(self.seed)],
        }[call]

    def run_unit(self, between=None) -> UnitResult:
        outputs, times, failures, probes = {}, {}, [], []
        for call in self.calls:
            buf = stdio.StringIO()
            start = time.perf_counter()
            with contextlib.redirect_stdout(buf):
                code = cli.main(self.argv(call))
            times[call] = time.perf_counter() - start
            if between:
                probes.append(between())
            text = buf.getvalue()
            outputs[call] = digest(text)
            if code != 0:
                failures.append(f"{call} exited {code}")
            if call == "gradcheck" and not text.rstrip().endswith('"passed": true}'):
                failures.append("gradcheck did not pass")
        return UnitResult(len(self.calls), failures, outputs,
                          list(times.values()), probes)

    def check_files(self) -> list[str]:
        """The ``rank --out`` file reads back and rewrites byte-identically."""
        again = self.workdir / "ranked.rewrite.jsonl"
        records, dim = read_instances(self.ranked)
        write_instances(again, records, dim)
        if self.ranked.read_bytes() != again.read_bytes():
            return ["rank --out file does not rewrite byte-identically"]
        return []

    def check_pinned(self, outputs: dict, pin: dict) -> list[str]:
        return [f"{call} stdout digest differs from pinned"
                for call in self.calls if outputs[call] != pin[call]]

    def pin_of(self, outputs: dict) -> dict:
        return {call: outputs[call] for call in self.calls}


def make(name: str, seed: int):
    if name in TRAIN_SHAPES:
        return TrainWorkload(name, seed)
    if name == "cli-corpus":
        return CliWorkload(name, seed)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")

