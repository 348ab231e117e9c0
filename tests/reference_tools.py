"""Tools only the tests use: the one-row cross entropy that the library's
row form (`numerics.softmax_xent_rows`) is checked against, the directional
finite-difference check of the training objective's gradient, and a
functional Adam step that the in-place optimizer is checked against."""

import numpy as np

from fastweight import training as tr
from fastweight.numerics import softmax


def softmax_xent(logits: np.ndarray, target: int) -> tuple[float, np.ndarray]:
    """loss = -log softmax(logits)[target]; dlogits = softmax - onehot.

    Computed as logsumexp(logits) - logits[target] so the loss stays finite
    even when the target probability underflows.
    """
    logits = np.asarray(logits, dtype=np.float64)
    if not 0 <= target < logits.shape[-1]:
        raise IndexError(f"target {target} out of range for {logits.shape[-1]} logits")
    m = logits.max()
    lse = m + np.log(np.exp(logits - m).sum())
    loss = lse - logits[target]
    d = softmax(logits)
    d[target] -= 1.0
    return float(loss), d


def directional_derivative_check(model: tr.Model, batch, config: tr.TrainConfig,
                                 n_directions: int = 4, eps: float = 1e-5,
                                 seed: int = 0,
                                 carries: list[tr.StreamCarry] | None = None) -> float:
    """Max relative error between analytic directional derivatives of the
    objective and central finite differences, over random directions in the
    full trainable-parameter space. Stream carries are held constant."""
    rng = np.random.default_rng(seed)
    loss0, grads, _ = tr.batch_loss_and_grads(model, batch, config, carries)
    params = dict(model.named_params())
    saved = {k: np.array(v) for k, v in params.items()}
    keys = list(saved)
    worst = 0.0
    for _ in range(n_directions):
        direction = {k: rng.normal(size=np.shape(saved[k])) for k in keys}
        scale = np.sqrt(sum(float((d ** 2).sum()) for d in direction.values()))
        direction = {k: d / scale for k, d in direction.items()}
        analytic = sum(float((np.asarray(grads.get(k, 0.0)) * direction[k]).sum())
                       for k in keys)

        def value(sign):
            for k in keys:
                params[k][...] = saved[k] + sign * eps * direction[k]
            loss, _, _ = tr.batch_loss_and_grads(model, batch, config, carries)
            return loss

        hi, lo = value(+1.0), value(-1.0)
        for k in keys:
            params[k][...] = saved[k]
        fd = (hi - lo) / (2 * eps)
        denom = max(abs(fd), abs(analytic), 1e-10)
        worst = max(worst, abs(analytic - fd) / denom)
    return worst


def reference_adam(params: dict, grads: dict, m: dict, v: dict, t: int,
                   config: tr.TrainConfig, lr_scale: float):
    """One Adam step (Kingma & Ba 2015) as new arrays, its inputs untouched:
    the gradients clipped to global norm config.clip_norm, L2 weight decay on
    the bb./head. matrices, bias correction at step t (counted from 1). Only
    the keys in grads step. Returns (params, m, v, pre-clip norm)."""
    norm = float(np.sqrt(sum(float((np.asarray(g) ** 2).sum()) for g in grads.values())))
    scale = config.clip_norm / norm if norm > config.clip_norm else 1.0
    params, m, v = dict(params), dict(m), dict(v)
    for k, g in grads.items():
        g = np.asarray(g) * scale
        if config.weight_decay and k.startswith(("bb.", "head.")) and params[k].ndim >= 2:
            g = g + config.weight_decay * params[k]
        m[k] = config.beta1 * m[k] + (1 - config.beta1) * g
        v[k] = config.beta2 * v[k] + (1 - config.beta2) * g * g
        mhat = m[k] / (1 - config.beta1 ** t)
        vhat = v[k] / (1 - config.beta2 ** t)
        params[k] = params[k] - config.learning_rate * lr_scale * mhat / (np.sqrt(vhat) + config.eps)
    return params, m, v, norm
