"""A multi-branch dense layer is a convex combination of B ordinary layers.

This walk-through builds a 2-branch layer, mixes it with different weights,
and checks the two equivalent evaluation orders: collapse the branches into
one weight matrix first, or run every branch and mix the outputs.
"""

import numpy as np

from pfedmb import AlphaParams, MultiBranchDense, Network, combine_branches, forward

rng = np.random.default_rng(0)

layer = MultiBranchDense(rng.normal(size=(2, 3, 4)), rng.normal(size=(2, 3)))
net = Network([layer])
x = rng.normal(size=(5, 4))

print("mixing weights -> combined layer")
for mix in ([1.0, 0.0], [0.5, 0.5], [0.25, 0.75]):
    w, b = combine_branches(layer, mix)
    print(f"  alpha={mix}:  |W| frobenius = {np.linalg.norm(w):.4f}")

# At a vertex the layer IS that branch.
w, b = combine_branches(layer, [1.0, 0.0])
assert np.array_equal(w, layer.weights[0])
print("alpha = (1, 0) returns branch 0 exactly")

# Mixing the outputs of the branches gives the same logits as mixing first.
alpha = AlphaParams(rng.normal(size=(1, 2)), num_layers=1)
mixed_first = forward(net, alpha, x)
a = alpha.values()[0]
mixed_after = sum(
    a[b] * (x @ layer.weights[b].T + layer.biases[b]) for b in range(2)
)
print(f"max |combine-first - mix-after| = {np.abs(mixed_first - mixed_after).max():.2e}")

# The simplex never has to be managed by hand: mixing weights are softmax of
# free logits, so they stay nonnegative and sum to one under any update.
steps = AlphaParams(rng.normal(scale=10, size=(1, 2)), num_layers=1)
v = steps.values()
print(f"extreme logits still give a simplex row: {v[0]} (sum={v.sum():.12f})")
