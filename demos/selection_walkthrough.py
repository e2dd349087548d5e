"""Uncertainty-aware selection on an instance with a planted false negative.

negatives[1] is set to a scaled copy of regions[0], i.e. a tag that is
textually low-ranked but visually present in the image. Retrieval finds
it, selection drops it, and the kept list is cycled back up to K rows.
"""

import numpy as np

from rca.core import ContrastiveInstance
from rca.uasr import apply_uasr, pool_cosines

np.set_printoptions(precision=4, suppress=True)
rng = np.random.default_rng(12)

d, r, k = 8, 3, 4
regions = rng.standard_normal((r, d))
positives = rng.standard_normal((k, d))
negatives = rng.standard_normal((k, d))
negatives[1] = regions[0] * 1.5          # the false negative

instance = ContrastiveInstance(
    regions=regions,
    positives=positives,
    negatives=negatives,
    caption_nouns=np.zeros((0, d)),
    global_scores=np.sort(rng.uniform(0.1, 1.0, size=k))[::-1],
)

print("pool ids 0..3 are positives, 4..7 negatives; id 5 is the plant\n")
cosines = pool_cosines(regions, positives, negatives)
for i in range(r):
    print(f"region {i}: best pool id {int(cosines[i].argmax())}  cosines {cosines[i]}")

sel = apply_uasr(instance)
print("\nretrieved set (one vote per region, deduplicated):", sel.retrieved_set)
print("kept positive rows:", sel.positive_indices,
      "(fallback:", sel.positive_fallback, ")")
print("kept negative rows:", sel.negative_indices,
      "(fallback:", sel.negative_fallback, ")")
assert 1 not in sel.negative_indices, "the planted false negative must be gone"
print("row 1 removed from the negatives, survivors cycled up to K =", k)

print("\nper-positive weights (exp(best cosine) * score, mean-normalized):")
print(sel.weights, " mean =", sel.weights.mean())

raw = apply_uasr(instance, normalize=False)
print("unnormalized weights:", raw.weights)
