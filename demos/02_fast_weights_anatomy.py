"""Anatomy of the fast-weight head on a toy instance.

Shows the three pieces fitting together: per-position gradients from one
vectorized backward pass, the rank-one identity that turns weight-matrix
updates into linear attention, and the parallel fast pass agreeing with a
naive sequential walk that materializes every intermediate parameter copy.
"""

import numpy as np

from fastweight import head as hd
from fastweight import oracle
from fastweight.numerics import finite_diff_grad

rng = np.random.default_rng(3)
T, d, m, vocab = 12, 8, 10, 9

head = hd.init_head(d, m, vocab, seed=1)
H = rng.normal(size=(T, d))
targets = rng.integers(0, vocab, size=T)

# Slow pass: ordinary forward, one loss per position.
tape, slow_losses = hd.slow_forward(head, H, targets)
print("slow losses:", np.round(slow_losses, 3))

# One backward pass yields every position's own gradient because position t's
# loss touches nothing but h_t.
grads = hd.per_position_grads(head, tape)
print("gradient row shapes:", {"g_z": grads.g_z.shape, "g_o": grads.g_o.shape,
                               "g_logits": grads.g_logits.shape})

# Rank-one identity: the full matrix gradient of position t's loss w.r.t. the
# projection W is the outer product of its input v_t and upstream row g_o_t.
t = 4
outer = np.outer(tape.v[t], grads.g_o[t])


def loss_of_W(flat):
    trial = head.copy()
    trial.W = flat.reshape(head.W.shape)
    _, losses = hd.slow_forward(trial, H, targets)
    return float(losses[t])


fd = finite_diff_grad(loss_of_W, head.W.reshape(-1).copy()).reshape(head.W.shape)
print(f"rank-one vs finite difference, max rel err: "
      f"{np.max(np.abs(outer - fd) / (np.abs(fd) + 1e-8)):.2e}")

# Fast pass: each parameter tensor at position t is offset by the summed
# gradients of earlier positions; matrix terms run as causal linear attention.
steps = dict.fromkeys(hd.MASK_ALL, 0.05)
fast = hd.fast_forward(head, steps, tape, grads)
print("fast losses:", np.round(fast.losses, 3))
print("first position untouched (empty prefix):",
      abs(fast.losses[0] - slow_losses[0]) == 0.0)

# The sequential oracle materializes theta'_t at every step. Agreement is the
# defining cross-check: the two paths share no kernel code.
ref = oracle.sequential_fast_forward(head, steps, H, targets)
print(f"parallel vs sequential oracle, max abs err: "
      f"{np.abs(fast.losses - ref).max():.2e}")

# Larger step sizes adapt harder to the (random) past and the losses move;
# alpha = 0 is an exact identity.
zero = hd.fast_forward(head, dict.fromkeys(hd.MASK_ALL, 0.0), tape, grads)
print("alpha=0 reproduces slow losses exactly:",
      bool(np.all(zero.losses == slow_losses)))
