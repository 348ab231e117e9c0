"""Naive sequential reference for the fast-weight pass.

Walks the sequence one position at a time, materializing a full copy of the
evolving parameters at every step and full gradient matrices for the update.
Deliberately shares nothing with the linear-attention formulation: agreement
with the parallel path is evidence, not tautology.
"""

import numpy as np

from .head import HeadParams, StepSizes
from .numerics import LN_EPS, ShapeError, as_f64


def _forward(params: dict, h: np.ndarray, target: int):
    """One-position head forward under an arbitrary parameter dict."""
    z = h @ params["U"] + params["a"]
    r = np.maximum(z, 0.0)
    v = r * r
    p = v @ params["W"] + params["b"]
    mu = p.mean()
    c = p - mu
    var = (c * c).mean()
    istd = 1.0 / np.sqrt(var + LN_EPS)
    xhat = c * istd
    u = params["ln_gain"] * xhat + params["ln_bias"]
    logits = u @ params["E"] + params["c"]
    m = logits.max()
    e = np.exp(logits - m)
    probs = e / e.sum()
    loss = -np.log(probs[target])
    return loss, probs


def _full_grads(params: dict, h: np.ndarray, target: int) -> dict:
    """Exact full-matrix gradients of the one-position loss, by backprop."""
    z = h @ params["U"] + params["a"]
    r = np.maximum(z, 0.0)
    v = r * r
    p = v @ params["W"] + params["b"]
    mu = p.mean()
    cd = p - mu
    var = (cd * cd).mean()
    istd = 1.0 / np.sqrt(var + LN_EPS)
    xhat = cd * istd
    u = params["ln_gain"] * xhat + params["ln_bias"]
    logits = u @ params["E"] + params["c"]
    m = logits.max()
    e = np.exp(logits - m)
    probs = e / e.sum()

    d_logits = probs.copy()
    d_logits[target] -= 1.0
    d_E = np.outer(u, d_logits)
    d_u = params["E"] @ d_logits
    d_gain = d_u * xhat
    d_bias = d_u.copy()
    d_xhat = d_u * params["ln_gain"]
    d_p = istd * (d_xhat - d_xhat.mean() - xhat * (d_xhat * xhat).mean())
    d_W = np.outer(v, d_p)
    d_b = d_p.copy()
    d_v = params["W"] @ d_p
    d_z = d_v * 2.0 * r
    d_U = np.outer(h, d_z)
    d_a = d_z.copy()
    return {
        "U": d_U, "a": d_a, "W": d_W, "b": d_b,
        "ln_gain": d_gain, "ln_bias": d_bias, "E": d_E, "c": d_logits,
    }


def sequential_fast_forward(head: HeadParams, steps: StepSizes, H, targets) -> np.ndarray:
    """Per-position fast losses, materializing the evolving parameters.

    At each t the current fast copy scores position t; afterwards the exact
    gradient of L_t under the *slow* weights is subtracted (scaled by the step
    sizes) from the masked tensors. O(T) full parameter copies by design.
    """
    H = as_f64(H)
    targets = np.asarray(targets, dtype=np.int64)
    if H.ndim != 2 or targets.shape != (H.shape[0],):
        raise ShapeError(f"H {H.shape} and targets {targets.shape} are inconsistent")
    slow = {name: t.copy() for name, t in head.named()}
    fast = {name: t.copy() for name, t in slow.items()}
    losses = np.empty(H.shape[0])
    for t in range(H.shape[0]):
        losses[t], _ = _forward(fast, H[t], int(targets[t]))
        grads = _full_grads(slow, H[t], int(targets[t]))
        for name, alpha in steps.items():
            fast[name] = fast[name] - alpha * grads[name]
    return losses
