"""Rank a tag vocabulary against an image embedding and split P/N.

The top half of the 2K ranked list becomes positives, the bottom half
negatives, exactly as the trainer consumes them.
"""

import argparse

import numpy as np

from rca.tags import rank_tags, subsample

parser = argparse.ArgumentParser()
parser.add_argument("--vocab_size", type=int, default=40)
parser.add_argument("--d", type=int, default=16)
parser.add_argument("--M", type=int, default=10, help="ranked list width (2K)")
parser.add_argument("--seed", type=int, default=0)
args = parser.parse_args()

rng = np.random.default_rng(args.seed)
vocabulary = [(f"tag{i:03d}", rng.standard_normal(args.d)) for i in range(args.vocab_size)]
image = rng.standard_normal(args.d)

ranked = rank_tags(image, vocabulary, args.M)
K = args.M // 2
positives, negatives = ranked[:K], ranked[K:]

print(f"vocabulary of {args.vocab_size} tags, keeping top M={args.M} (K={K})")
print("\n  side  rank  tag      cosine")
for side, group in (("P", positives), ("N", negatives)):
    for rank, tag in enumerate(group):
        print(f"  {side}     {rank}     {tag.tag_id}   {tag.score:+.4f}")

# scores are cosines, so rescaling the image embedding changes nothing
ranked_scaled = rank_tags(image * 250.0, vocabulary, args.M)
same = [t.tag_id for t in ranked] == [t.tag_id for t in ranked_scaled]
print("\nsame ranking after scaling the image by 250:", same)

pos_small, neg_small = subsample(positives, negatives, 0.5, seed=args.seed)
print(f"subsample(0.5) keeps the top ceil(K/2): "
      f"{[t.tag_id for t in pos_small]} / {[t.tag_id for t in neg_small]}")
