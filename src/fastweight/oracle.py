"""Naive sequential reference for the fast-weight pass, and verify, the one
checker of the parallel paths that `fwl verify` and the tests run.

The reference walks the sequence one position at a time, materializing a full
copy of the evolving parameters at every step and full gradient matrices for
the update. Deliberately shares nothing with the linear-attention formulation:
agreement with the parallel path is evidence, not tautology.
"""

from dataclasses import dataclass

import numpy as np

from . import backbone as bb
from . import harness
from . import head as hd
from . import linear_attention as la
from . import training as tr
from .checkpoint import CheckpointData
from .corpus import Corpus, TokenizerSpec
from .head import HeadParams, StepSizes
from .numerics import LN_EPS, ConfigError, ShapeError, as_f64


def _forward(params: dict, h: np.ndarray, target: int):
    """One-position head forward under an arbitrary parameter dict. Returns
    the loss and the activations that _full_grads reads."""
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
    return loss, (r, v, istd, xhat, u, probs)


def _full_grads(params: dict, h: np.ndarray, target: int) -> dict:
    """Exact full-matrix gradients of the one-position loss, by backprop."""
    _, (r, v, istd, xhat, u, probs) = _forward(params, h, target)
    d_logits = probs.copy()
    d_logits[target] -= 1.0
    d_u = params["E"] @ d_logits
    d_xhat = d_u * params["ln_gain"]
    d_p = istd * (d_xhat - d_xhat.mean() - xhat * (d_xhat * xhat).mean())
    d_z = params["W"] @ d_p * 2.0 * r
    return {"U": np.outer(h, d_z), "a": d_z, "W": np.outer(v, d_p), "b": d_p,
            "ln_gain": d_u * xhat, "ln_bias": d_u, "E": np.outer(u, d_logits), "c": d_logits}


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


@dataclass
class Check:
    """One equivalence: its largest error over its cases, and its bound."""

    name: str
    err: float
    bound: float

    @property
    def ok(self) -> bool:
        return self.err < self.bound  # a NaN error fails


def _worst(pairs) -> float:
    """The largest |got - want| over (got, want) pairs; a NaN stays NaN."""
    return float(np.max([np.abs(np.subtract(got, want)).max() for got, want in pairs]))


def _oracle_pairs(rng, instances: int):
    """Instance i takes (T, d, vocab) in turn from {1, 2, 17, 33, 64} x
    {4, 16, 32} x {3, 17}, so 30 reach every one, and runs all four masks at
    chunk sizes 8 and 16, with step sizes of both signs."""
    for i in range(instances):
        T, d, vocab = (1, 2, 17, 33, 64)[i % 5], (4, 16, 32)[i // 5 % 3], (3, 17)[i // 15 % 2]
        params = hd.init_head(d, d, vocab, seed=int(rng.integers(1 << 30)))
        H, targets = rng.normal(size=(T, d)), rng.integers(0, vocab, size=T)
        alphas = 0.05 * rng.uniform(-1, 1, len(hd.TENSOR_NAMES))
        tape, _ = hd.slow_forward(params, H, targets)
        grads = hd.per_position_grads(params, tape)
        for mask in (hd.MASK_BIAS_ONLY, hd.MASK_VECTORS, hd.MASK_MATRICES, hd.MASK_ALL):
            steps = {n: float(a) for n, a in zip(hd.TENSOR_NAMES, alphas) if n in mask}
            ref = sequential_fast_forward(params, steps, H, targets)
            for chunk in (8, 16):
                yield hd.fast_forward(params, steps, tape, grads, chunk_size=chunk).losses, ref


def _qkv(rng, T, dk, dv):
    return rng.normal(size=(T, dk)), rng.normal(size=(T, dk)), rng.normal(size=(T, dv))


def _kernel_pairs(rng):
    """Outputs and final states, with and without an initial state."""
    for T in (1, 2, 16, 17, 127, 256, 257, 512):
        for dk, dv in ((6, 4), (8, 5)):
            q, k, v = _qkv(rng, T, dk, dv)
            for init in (None, la.KVState(rng.normal(size=(dk, dv)))):
                ref, ref_state = la.causal_linear_attention(q, k, v, init)
                for chunk in (1, 7, 64, T):
                    out, state = la.chunked_causal_linear_attention(q, k, v, chunk, init)
                    yield out, ref
                    yield state.accumulator, ref_state.accumulator


def _additivity_pairs(rng):
    """The second part of a split run from the first part's state gives the
    whole's outputs and state; the parts' states from zero sum to it."""
    for T, split, dk, dv in ((40, 17, 6, 6), (64, 20, 5, 3)):
        q, k, v = _qkv(rng, T, dk, dv)
        whole, whole_state = la.causal_linear_attention(q, k, v)
        first, mid = la.causal_linear_attention(q[:split], k[:split], v[:split])
        second, end = la.causal_linear_attention(q[split:], k[split:], v[split:], mid)
        _, rest = la.causal_linear_attention(q[split:], k[split:], v[split:])
        yield np.vstack([first, second]), whole
        yield end.accumulator, whole_state.accumulator
        yield mid.accumulator + rest.accumulator, whole_state.accumulator


def _generation_pairs(rng, seed: int):
    """Each sampled token's fast loss against score's NLL of it in the same
    text, fwl and baseline, for four tiny random models: one with segment
    memory sampled across three segments, one sampled at temperature 0.7
    with step sizes of both signs, and two whose prompt spans two whole
    segments, without memory and with it (baseline generation encodes only
    the sampled row of the prefix after them). Per model: vocab,
    d_model, d_hidden, max_seq_len, memory_len, chunk, prompt and sampled
    tokens, temperature, step-size range."""
    for V, d, m, L, M, C, P, N, temp, lo, hi in ((7, 8, 8, 8, 3, 4, 5, 20, 1.0, 0.1, 0.5),
                                                 (9, 10, 8, 24, 0, 8, 1, 24, 0.7, -0.04, 0.04),
                                                 (7, 8, 8, 6, 0, 4, 15, 10, 1.0, 0.1, 0.5),
                                                 (7, 8, 8, 6, 2, 4, 15, 10, 1.0, 0.1, 0.5)):
        tok = TokenizerSpec("word", [f"w{i}" for i in range(V)])
        model = tr.init_model(tr.ModelConfig(
            bb.BackboneConfig(vocab_size=V, d_model=d, n_layers=2, n_heads=2, d_ff=2 * d,
                              max_seq_len=L, memory_len=M, seed=seed), d_hidden=m, chunk_size=C))
        for n in hd.TENSOR_NAMES:
            model.alpha[n][...] = rng.uniform(lo, hi)
            model.gamma_raw[n][...] = rng.normal()
        prompt = rng.integers(0, V, size=P)
        for variant in ("fwl", "baseline"):
            gen = harness.generate_ids(model, prompt, N, temp, seed, variant)
            scored = harness.score(CheckpointData(model, None, tok, None, 0),
                                   Corpus([np.array(gen.ids)], tok), variant)
            yield scored.nll_docs[0][P - 1:], gen.fast_losses


def verify(seed: int, instances: int) -> list[Check]:
    """Each equivalence as a Check, every case drawn from one generator
    seeded by seed: the fast pass against sequential_fast_forward over
    `instances` instances, the chunked kernel against the quadratic one,
    kv-state additivity over a split, and sampled text against its score."""
    if instances < 1:
        raise ConfigError(f"instances must be >= 1, got {instances}")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    return [Check(f"oracle equivalence over {instances} instances",
                  _worst(_oracle_pairs(rng, instances)), 1e-9),
            Check("chunked attention exactness", _worst(_kernel_pairs(rng)), 1e-10),
            Check("kv-state additivity", _worst(_additivity_pairs(rng)), 1e-10),
            Check("generation/scoring consistency", _worst(_generation_pairs(rng, seed)), 1e-9)]
