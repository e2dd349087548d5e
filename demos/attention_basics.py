"""Walk through the attention stage: scores, weights, contexts, phi.

Run from the repository root:  python3 demos/attention_basics.py
"""

import numpy as np

from rca.core import compat_forward, compatibility

np.set_printoptions(precision=4, suppress=True)

rng = np.random.default_rng(7)
d = 8
tags = rng.standard_normal((3, d))      # 3 candidate tags
regions = rng.standard_normal((5, d))   # 5 image regions

# the kernel returns phi and the intermediates its backward pass reuses
phi, (t_raw, alpha, contexts) = compat_forward(tags, regions)

print("scaled scores (tag x region):")
print(t_raw / np.sqrt(d))
print("\nattention rows (each sums to 1):")
print(alpha)
print("row sums:", alpha.sum(axis=1))
print("\nper-tag compatibility phi:", phi)
print("same through the validated front door:", compatibility(tags, regions))

# the softmax is shift-invariant, so scaling inputs by 1e4 stays finite
_, (_, big, _) = compat_forward(tags * 1e4, regions)
print("\nafter scaling tags by 1e4 the rows still sum to", big.sum(axis=1))
print("(the biggest weight saturates toward 1):", big.max(axis=1))

# phi does not care about the order regions are listed in
perm = rng.permutation(regions.shape[0])
drift = np.abs(phi - compatibility(tags, regions[perm])).max()
print("\nmax |phi drift| after permuting regions:", drift)

# a tag pointing at one region attends to it almost exclusively
pointed = regions[2] * 3.0
_, (_, alpha_pointed, _) = compat_forward(pointed[None, :], regions)
print("\ntag aligned with region 2 -> attention row:")
print(alpha_pointed[0])
