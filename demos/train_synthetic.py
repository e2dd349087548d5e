"""Train tag/region/caption tables on synthetic images and watch retrieval.

With flip_rate > 0 a fraction of instances get one positive swapped with
one negative, which is the situation the selection stage exists for.
Compare:
    python3 demos/train_synthetic.py --flip_rate 0.2
    python3 demos/train_synthetic.py --flip_rate 0.2 --no-enable_uasr
"""

import argparse
import time
import warnings

import numpy as np

from rca.trainer import (
    SyntheticConfig,
    TrainerConfig,
    evaluate_retrieval,
    generate_synthetic,
    initial_state,
    train_alignment,
)

parser = argparse.ArgumentParser()
parser.add_argument("--n_concepts", type=int, default=10)
parser.add_argument("--d", type=int, default=16)
parser.add_argument("--n_images", type=int, default=40)
parser.add_argument("--regions_per_image", type=int, default=4)
parser.add_argument("--flip_rate", type=float, default=0.0)
parser.add_argument("--noise_sigma", type=float, default=0.0)
parser.add_argument("--steps", type=int, default=200)
parser.add_argument("--learning_rate", type=float, default=1.0)
parser.add_argument("--enable_uasr", action=argparse.BooleanOptionalAction, default=True)
parser.add_argument("--lambda_inner", type=float, default=1.0)  # 0 drops the caption term
parser.add_argument("--seed", type=int, default=0)
args = parser.parse_args()

syn = SyntheticConfig(
    n_concepts=args.n_concepts,
    d=args.d,
    n_images=args.n_images,
    regions_per_image=args.regions_per_image,
    noise_sigma=args.noise_sigma,
    flip_rate=args.flip_rate,
    seed=args.seed,
)
cfg = TrainerConfig(
    steps=args.steps,
    learning_rate=args.learning_rate,
    enable_uasr=args.enable_uasr,
    lambda_inner=args.lambda_inner,
    seed=args.seed,
)

dataset = generate_synthetic(syn)
n_flipped = int(dataset.flipped.sum())
print(f"{len(dataset)} images, {n_flipped} with a corrupted positive/negative pair")

state = initial_state(dataset, seed=args.seed)
print(f"retrieval before training: {evaluate_retrieval(dataset, state):.4f} "
      f"(chance is ~{1.0 / args.regions_per_image:.2f})")

start = time.time()
with warnings.catch_warnings():
    warnings.filterwarnings("ignore", message=".*clamped to 1e-06")
    state, history = train_alignment(dataset, cfg, state)
print(f"trained {cfg.steps} steps in {time.time() - start:.1f}s")

print("\nstep   cross    inner    total")
for rec in history:
    print(f"{rec.step:4d}   {rec.cross:.4f}   {rec.inner:.4f}   {rec.total:.4f}")

acc = evaluate_retrieval(dataset, state)
print(f"\nretrieval after training: {acc:.4f} "
      f"(selection {'on' if args.enable_uasr else 'off'}, flip_rate {args.flip_rate})")
