"""Joint optimization of backbone, head, step sizes and decays.

The training objective is the mean fast-pass loss. Its gradient is assembled
by hand in three sweeps, mirroring how the loss was built:

  1. fast-pass reverse: direct parameter/step-size paths, plus upstream
     gradients into the per-position gradient rows and the slow activations
     they attend over;
  2. reverse through the slow backward itself (the second-order part: the
     gradient rows are functions of the parameters, so their consumers
     contribute curvature terms);
  3. slow-forward and backbone reverse for everything that accumulated on the
     slow activations.

Stream accumulators carried across segments are constants (stop-gradient);
their decay factors are applied inside the step, which is the one place the
decays touch the loss.

The module also holds the one document segmenter (`doc_segments`) and the
one scoring loop (`score_streams`), shared by `fit`'s dev NLL and
`harness.score`.
"""

import time
from dataclasses import dataclass

import numpy as np

from . import backbone as bb
from . import head as hd
from .corpus import Corpus
from .linear_attention import KVState, causal_linear_attention_vjp
from .numerics import (ConfigError, NumericalError, layernorm_bwd,
                       reverse_exclusive_cumsum_rows)

MODES = ("full", "slow-only", "fwl-finetune")


def sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


@dataclass
class ModelConfig:
    backbone: bb.BackboneConfig
    d_hidden: int = 64
    mask: tuple[str, ...] = hd.MASK_ALL
    chunk_size: int = 64
    alpha_init: float = 0.01
    gamma_init: float = 0.9

    def validate(self):
        self.backbone.validate()
        if self.d_hidden <= 0:
            raise ConfigError(f"d_hidden must be positive, got {self.d_hidden}")
        if self.chunk_size < 1:
            raise ConfigError(f"chunk_size must be >= 1, got {self.chunk_size}")
        bad = [n for n in self.mask if n not in hd.TENSOR_NAMES]
        if bad:
            raise ConfigError(f"unknown tensors in mask: {bad}")
        return self


@dataclass
class Model:
    config: ModelConfig
    backbone: bb.BackboneParams
    head: hd.HeadParams
    alpha: dict[str, np.ndarray]      # 0-d arrays, one per head tensor
    gamma_raw: dict[str, np.ndarray]  # 0-d arrays; decay = sigmoid(gamma_raw)

    @property
    def mask(self) -> tuple[str, ...]:
        return self.config.mask

    def step_sizes(self) -> hd.StepSizes:
        return hd.StepSizes({n: float(a) for n, a in self.alpha.items()}, self.mask)

    def gammas(self) -> dict[str, float]:
        return {n: float(sigmoid(g)) for n, g in self.gamma_raw.items()}

    def named_params(self):
        for k, v in self.backbone.named():
            yield f"bb.{k}", v
        for k, v in self.head.named():
            yield f"head.{k}", v
        for n in self.mask:
            yield f"alpha.{n}", self.alpha[n]
        for n in self.mask:
            yield f"gamma.{n}", self.gamma_raw[n]

    def get(self, key: str) -> np.ndarray:
        kind, _, rest = key.partition(".")
        if kind == "bb":
            return self.backbone.get(rest)
        if kind == "head":
            return self.head.tensor(rest)
        if kind == "alpha":
            return self.alpha[rest]
        if kind == "gamma":
            return self.gamma_raw[rest]
        raise KeyError(key)

    def set(self, key: str, value: np.ndarray) -> None:
        kind, _, rest = key.partition(".")
        if kind == "bb":
            self.backbone.set(rest, value)
        elif kind == "head":
            setattr(self.head, rest, value)
        elif kind == "alpha":
            self.alpha[rest] = np.asarray(value, dtype=np.float64)
        elif kind == "gamma":
            self.gamma_raw[rest] = np.asarray(value, dtype=np.float64)
        else:
            raise KeyError(key)

    def copy(self) -> "Model":
        return Model(self.config, self.backbone.copy(), self.head.copy(),
                     {k: np.array(v) for k, v in self.alpha.items()},
                     {k: np.array(v) for k, v in self.gamma_raw.items()})


def init_model(config: ModelConfig) -> Model:
    config.validate()
    bcfg = config.backbone
    backbone = bb.init_backbone(bcfg)
    head = hd.init_head(bcfg.d_model, config.d_hidden, bcfg.vocab_size,
                        seed=bcfg.seed + 1)
    gamma_raw_init = float(np.log(config.gamma_init / (1 - config.gamma_init)))
    alpha = {n: np.float64(config.alpha_init) for n in hd.TENSOR_NAMES}
    gamma_raw = {n: np.float64(gamma_raw_init) for n in hd.TENSOR_NAMES}
    return Model(config, backbone, head, alpha, gamma_raw)


@dataclass
class StreamCarry:
    """Constants threaded between consecutive segments of one text stream."""

    memory: bb.SegmentMemory | None
    delta_prev: dict[str, np.ndarray]
    pending: dict[str, np.ndarray]

    @staticmethod
    def fresh(model: Model) -> "StreamCarry":
        mem = (bb.SegmentMemory.empty(model.config.backbone)
               if model.config.backbone.memory_len else None)
        zeros = {n: np.zeros(model.head.tensor(n).shape) for n in model.mask}
        return StreamCarry(mem, zeros, {k: v.copy() for k, v in zeros.items()})


def _zero_head_grads(head: hd.HeadParams) -> dict[str, np.ndarray]:
    return {n: np.zeros_like(t) for n, t in head.named()}


def head_fast_vjp(head: hd.HeadParams, steps: hd.StepSizes, H, tape, grads,
                  fast: hd.FastResult, state: hd.StreamState | None,
                  chunk_size: int, w: float, first_order: bool = False):
    """Gradient of w * sum_t L'_t w.r.t. head tensors, step sizes, H and the
    stream accumulators. Returns (dhead, dalpha, ddelta, dH)."""
    cache = fast.cache
    mask = set(steps.mask)
    alpha = steps.alpha
    T, d = H.shape
    targets = tape.targets

    dhead = _zero_head_grads(head)
    dalpha = {}
    ddelta = {}
    # gradients on the per-position gradient rows (by PositionGrads field)
    # and on the slow activations a matrix attends over (by PositionTape
    # field); the first-order ablation freezes both, so it adds nothing to them
    drows = {f: np.zeros_like(getattr(grads, f)) for f in dict.fromkeys(hd.ROWS.values())}
    dkeys = {}

    def vec_vjp(name, d_x):
        """Reverse of x - alpha * Cum (exclusive cumsum of the rows, from the
        stream accumulator on), given d_x = dL/dx."""
        if name not in mask:
            return
        dalpha[name] = -float((d_x * cache.cum[name]).sum())
        dcum = -alpha[name] * d_x
        if not first_order:
            drows[hd.ROWS[name]] += reverse_exclusive_cumsum_rows(dcum)
        ddelta[name] = dcum.sum(axis=0)

    def mat_vjp(name, q, d_x, d_q):
        """Reverse of x - alpha * Att (causal linear attention of queries q
        over the slow keys and rows), given d_x = dL/dx; adds into d_q."""
        if name not in mask:
            return
        dalpha[name] = -float((d_x * cache.att[name]).sum())
        init = KVState(state.acc[name]) if state is not None else None
        dq, dk, dv, ddelta[name] = causal_linear_attention_vjp(
            q, getattr(tape, hd.KEYS[name]), grads.rows(name), -alpha[name] * d_x,
            init, chunk_size)
        d_q += dq
        if not first_order:
            dkeys[hd.KEYS[name]] = dk
            drows[hd.ROWS[name]] += dv

    # ---- seed: d(w * sum CE) / d fast logits
    dLG_f = cache.probs.copy()
    dLG_f[np.arange(T), targets] -= 1.0
    dLG_f *= w

    # ---- output layer: logits' = u' E + c - a_E * Att_E - a_c * Cum_c
    dhead["c"] += dLG_f.sum(axis=0)
    dhead["E"] += cache.u.T @ dLG_f
    du_f = dLG_f @ head.E.T
    mat_vjp("E", cache.u, dLG_f, du_f)
    vec_vjp("c", dLG_f)

    # ---- LayerNorm with per-position gains: u' = gain' * xhat' + bias'
    dP_f, dgain, dbias = layernorm_bwd((cache.xhat, cache.istd, cache.gain_rows), du_f)
    dhead["ln_gain"] += dgain
    dhead["ln_bias"] += dbias
    vec_vjp("ln_gain", du_f * cache.xhat)
    vec_vjp("ln_bias", du_f)

    # ---- bias stage: p' = o' + b - a_b * Cum_b
    dhead["b"] += dP_f.sum(axis=0)
    vec_vjp("b", dP_f)

    # ---- projection: o' = v' W - a_W * Att_W
    dhead["W"] += cache.v.T @ dP_f
    dV_f = dP_f @ head.W.T
    mat_vjp("W", cache.v, dP_f, dV_f)

    # ---- activation + first layer: z' = H U + a - a_U * Att_U - a_a * Cum_a
    dZ_f = dV_f * cache.relu_mask
    dhead["U"] += H.T @ dZ_f
    dhead["a"] += dZ_f.sum(axis=0)
    dH = dZ_f @ head.U.T
    mat_vjp("U", H, dZ_f, dH)
    vec_vjp("a", dZ_f)
    if "h" in dkeys:
        dH += dkeys["h"]  # U's keys are the same context vectors

    # ---- reverse through the slow backward (second-order terms) ----
    dXH = np.zeros_like(tape.xhat)
    dISTD = np.zeros((T, 1))
    dZ_slow = np.zeros_like(tape.z)
    dLG_s = np.zeros_like(tape.logits)
    if not first_order:
        dGl, dGu, dGo, dGz, dGg = (drows[f] for f in
                                   ("g_logits", "g_u", "g_o", "g_z", "g_ln_gain"))
        # g_z = (g_o W^T) * relu_mask
        g_v = grads.g_o @ head.W.T
        dGv = dGz * tape.relu_mask
        dRM = dGz * g_v
        dZ_slow += dRM * 2.0 * (tape.z > 0)
        dGo += dGv @ head.W
        dhead["W"] += dGv.T @ grads.g_o

        # g_ln_gain = g_u * xhat
        dGu += dGg * tape.xhat
        dXH += dGg * grads.g_u

        # g_o = istd * (dxh - mean(dxh) - xhat * mean(dxh*xhat)), dxh = g_u * gain
        dxh_s = grads.g_u * head.ln_gain
        m1s = dxh_s.mean(axis=1, keepdims=True)
        m2s = (dxh_s * tape.xhat).mean(axis=1, keepdims=True)
        inner = dxh_s - m1s - tape.xhat * m2s
        dISTD += (dGo * inner).sum(axis=1, keepdims=True)
        dinner = dGo * tape.istd
        ddxh = dinner.copy()
        dm1 = -dinner.sum(axis=1, keepdims=True)
        dm2 = -(dinner * tape.xhat).sum(axis=1, keepdims=True)
        dXH += -dinner * m2s
        ddxh += (dm2 / d) * tape.xhat
        dXH += (dm2 / d) * dxh_s
        ddxh += dm1 / d
        dGu += ddxh * head.ln_gain
        dhead["ln_gain"] += (ddxh * grads.g_u).sum(axis=0)

        # g_u = g_logits E^T
        dGl += dGu @ head.E
        dhead["E"] += dGu.T @ grads.g_logits

        # g_logits = softmax(logits) - onehot
        p = tape.probs
        dLG_s = p * dGl - p * (p * dGl).sum(axis=1, keepdims=True)

    dH += _slow_forward_vjp(head, tape, dhead, dLG_s, dkeys.get("u", 0.0), dXH, dISTD,
                            dkeys.get("v", 0.0), dZ_slow)
    return dhead, dalpha, ddelta, dH


def _slow_forward_vjp(head: hd.HeadParams, tape, dhead, dLG, dUo, dXH, dISTD, dVs, dZ):
    """Reverse of hd.slow_forward for gradients that landed on its activations:
    the logits (dLG), LayerNorm output (dUo), normalised rows (dXH), inverse
    std (dISTD), squared-ReLU output (dVs) and pre-activation (dZ). Any but
    dLG may be 0.0. Adds into dhead and returns the gradient w.r.t. the
    context vectors."""
    dhead["c"] += dLG.sum(axis=0)
    dhead["E"] += tape.u.T @ dLG
    dUo = dUo + dLG @ head.E.T
    dhead["ln_gain"] += (dUo * tape.xhat).sum(axis=0)
    dhead["ln_bias"] += dUo.sum(axis=0)
    # xhat's path (which also runs through istd) by the LayerNorm backward,
    # then istd's direct path: d istd / d pre_ln = -istd^2 * xhat / d
    dPp, _, _ = layernorm_bwd((tape.xhat, tape.istd, 1.0), dXH + dUo * head.ln_gain)
    dPp -= tape.xhat * (tape.istd ** 2 * dISTD / tape.xhat.shape[1])
    dhead["b"] += dPp.sum(axis=0)
    dhead["W"] += tape.v.T @ dPp
    dZ = dZ + (dVs + dPp @ head.W.T) * tape.relu_mask
    dhead["U"] += tape.h.T @ dZ
    dhead["a"] += dZ.sum(axis=0)
    return dZ @ head.U.T


def head_slow_vjp(head: hd.HeadParams, tape, w):
    """Gradient of sum_t w_t L_t (slow losses only). Returns (dhead, dH).

    w may be a scalar or a (T,) vector of per-position loss weights.
    """
    T = tape.h.shape[0]
    dhead = _zero_head_grads(head)
    dLG = tape.probs.copy()
    dLG[np.arange(T), tape.targets] -= 1.0
    if np.ndim(w) == 0:
        dLG *= w
    else:
        dLG *= np.asarray(w)[:, None]
    return dhead, _slow_forward_vjp(head, tape, dhead, dLG, 0.0, 0.0, 0.0, 0.0, 0.0)


@dataclass
class SequenceResult:
    losses: np.ndarray
    grads: dict[str, np.ndarray]
    carry: StreamCarry | None = None


def sequence_loss_and_grads(model: Model, tokens, targets, mode: str,
                            carry: StreamCarry | None = None, w: float = 1.0,
                            first_order: bool = False) -> SequenceResult:
    """Loss and exact gradients of one sequence (one segment when carry is set).

    `w` scales the objective contribution: the caller passes 1/total_tokens to
    average over a batch. The returned grads dict is keyed like named_params
    and holds only what the mode trains: no alpha./gamma. keys in slow-only,
    no bb. keys in fwl-finetune.
    """
    if mode not in MODES:
        raise ConfigError(f"mode must be one of {MODES}, got {mode!r}")
    tokens = np.asarray(tokens, dtype=np.int64)
    targets = np.asarray(targets, dtype=np.int64)
    memory = carry.memory if carry is not None else None
    H, bcache, new_mem = bb.encode_with_cache(model.backbone, tokens, memory)
    tape, slow_losses = hd.slow_forward(model.head, H, targets)
    grads_out: dict[str, np.ndarray] = {}

    if mode == "slow-only":
        dhead, dH = head_slow_vjp(model.head, tape, w)
        losses = slow_losses
        new_carry = None
        if carry is not None:
            new_carry = StreamCarry(new_mem, carry.delta_prev, carry.pending)
    else:
        steps = model.step_sizes()
        pos_grads = hd.per_position_grads(model.head, tape)
        state = None
        gammas = model.gammas()
        if carry is not None:
            state = hd.StreamState({
                n: gammas[n] * carry.delta_prev[n] + carry.pending[n]
                for n in model.mask})
        fast = hd.fast_forward(model.head, steps, H, tape, pos_grads,
                               state=state, chunk_size=model.config.chunk_size)
        losses = fast.losses
        dhead, dalpha, ddelta, dH = head_fast_vjp(
            model.head, steps, H, tape, pos_grads, fast, state,
            model.config.chunk_size, w, first_order)
        for n in model.mask:
            grads_out[f"alpha.{n}"] = np.float64(dalpha.get(n, 0.0))
            if carry is not None and n in ddelta:
                g = gammas[n]
                dgamma = float((ddelta[n] * carry.delta_prev[n]).sum())
                grads_out[f"gamma.{n}"] = np.float64(dgamma * g * (1.0 - g))
            else:
                grads_out[f"gamma.{n}"] = np.float64(0.0)
        new_carry = None
        if carry is not None:
            sums = hd.segment_grad_sums(tape, pos_grads, model.mask)
            new_carry = StreamCarry(new_mem,
                                    {n: state.acc[n].copy() for n in model.mask},
                                    sums)

    for name, g in dhead.items():
        grads_out[f"head.{name}"] = g
    if mode != "fwl-finetune":
        for key, g in bb.encode_backward(model.backbone, bcache, dH).items():
            grads_out[f"bb.{key}"] = g
    return SequenceResult(losses, grads_out, new_carry)


@dataclass
class TrainConfig:
    learning_rate: float = 3e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.0
    batch_size: int = 8
    seq_len: int = 96
    total_steps: int = 400
    warmup_steps: int = 100
    clip_norm: float = 1.0
    mode: str = "full"
    streaming: bool = False
    first_order: bool = False
    alpha_lr: float | None = None   # override learning rate for step sizes/decays
    eval_every: int = 100
    seed: int = 0

    def validate(self):
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        for name in ("learning_rate", "batch_size", "seq_len", "total_steps"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        if self.warmup_steps < 0 or self.clip_norm <= 0:
            raise ConfigError("warmup_steps must be >= 0 and clip_norm positive")
        return self


def zero_opt_state(model: Model) -> dict:
    return {
        "m": {k: np.zeros_like(v) for k, v in model.named_params()},
        "v": {k: np.zeros_like(v) for k, v in model.named_params()},
        "t": 0,
    }


def global_grad_norm(grads: dict[str, np.ndarray]) -> float:
    total = 0.0
    for g in grads.values():
        total += float((np.asarray(g) ** 2).sum())
    return float(np.sqrt(total))


def adam_update(params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
                opt_state: dict, config: TrainConfig, lr_scale: float = 1.0):
    """Standard Adam with bias correction; global-norm clipping is applied to
    the incoming gradients. Only the keys in grads are updated: new_params
    holds those, and every other parameter keeps its value and its moments.
    Returns (new_params, new_state). Pure."""
    norm = global_grad_norm(grads)
    scale = 1.0
    if norm > config.clip_norm:
        scale = config.clip_norm / norm
    t = opt_state["t"] + 1
    new_m, new_v, new_p = dict(opt_state["m"]), dict(opt_state["v"]), {}
    for k in grads:
        p = params[k]
        g = np.asarray(grads[k]) * scale
        if config.weight_decay and k.startswith(("bb.", "head.")) and p.ndim >= 2:
            g = g + config.weight_decay * p
        m = config.beta1 * opt_state["m"][k] + (1 - config.beta1) * g
        v = config.beta2 * opt_state["v"][k] + (1 - config.beta2) * g * g
        mhat = m / (1 - config.beta1 ** t)
        vhat = v / (1 - config.beta2 ** t)
        lr = config.learning_rate * lr_scale
        if config.alpha_lr is not None and k.startswith(("alpha.", "gamma.")):
            lr = config.alpha_lr * lr_scale
        new_p[k] = p - lr * mhat / (np.sqrt(vhat) + config.eps)
        new_m[k] = m
        new_v[k] = v
    return new_p, {"m": new_m, "v": new_v, "t": t}


def warmup_scale(step: int, config: TrainConfig) -> float:
    if config.warmup_steps == 0:
        return 1.0
    return min(1.0, (step + 1) / config.warmup_steps)


@dataclass
class StepMetrics:
    loss: float
    grad_norm: float
    alphas: dict[str, float]
    n_tokens: int


def batch_loss_and_grads(model: Model, batch, config: TrainConfig,
                         carries: list[StreamCarry] | None = None):
    """Mean per-token loss over a batch plus summed (pre-clip) gradients."""
    total_tokens = sum(len(t) for t, _ in batch)
    w = 1.0 / total_tokens
    acc: dict[str, np.ndarray] = {}
    loss_sum = 0.0
    new_carries = []
    for i, (tokens, targets) in enumerate(batch):
        carry = carries[i] if carries is not None else None
        res = sequence_loss_and_grads(model, tokens, targets, config.mode,
                                      carry=carry, w=w,
                                      first_order=config.first_order)
        loss_sum += float(res.losses.sum())
        new_carries.append(res.carry)
        for k, g in res.grads.items():
            if k in acc:
                acc[k] = acc[k] + g
            else:
                acc[k] = np.array(g)
    return loss_sum / total_tokens, acc, new_carries


def train_step(model: Model, batch, config: TrainConfig, opt_state: dict | None = None,
               carries: list[StreamCarry] | None = None):
    """One optimizer step over a batch of (tokens, targets) pairs.

    Updates the model parameters in place; the optimizer state is threaded
    functionally. Returns (metrics, opt_state, new_carries). In streaming mode
    `carries` holds one StreamCarry per batch lane.
    """
    if opt_state is None:
        opt_state = zero_opt_state(model)
    loss, acc, new_carries = batch_loss_and_grads(model, batch, config, carries)
    if not np.isfinite(loss):
        raise NumericalError(
            f"non-finite loss {loss} at optimizer step {opt_state['t'] + 1} "
            f"(batch of {len(batch)} sequences)")
    params = dict(model.named_params())
    norm = global_grad_norm(acc)
    new_params, opt_state = adam_update(params, acc, opt_state, config,
                                        lr_scale=warmup_scale(opt_state["t"], config))
    for k, vnew in new_params.items():
        model.set(k, vnew)
    metrics = StepMetrics(loss, norm, {n: float(model.alpha[n]) for n in model.mask},
                          sum(len(t) for t, _ in batch))
    return metrics, opt_state, new_carries


def directional_derivative_check(model: Model, batch, config: TrainConfig,
                                 n_directions: int = 4, eps: float = 1e-5,
                                 seed: int = 0,
                                 carries: list[StreamCarry] | None = None) -> float:
    """Max relative error between analytic directional derivatives of the
    objective and central finite differences, over random directions in the
    full trainable-parameter space. Stream carries are held constant."""
    rng = np.random.default_rng(seed)
    loss0, grads, _ = batch_loss_and_grads(model, batch, config, carries)
    keys = [k for k, _ in model.named_params()]
    worst = 0.0
    for _ in range(n_directions):
        direction = {k: rng.normal(size=np.shape(model.get(k))) for k in keys}
        scale = np.sqrt(sum(float((d ** 2).sum()) for d in direction.values()))
        direction = {k: d / scale for k, d in direction.items()}
        analytic = sum(float((np.asarray(grads.get(k, 0.0)) * direction[k]).sum())
                       for k in keys)

        saved = {k: np.array(model.get(k)) for k in keys}

        def value(sign):
            for k in keys:
                model.set(k, saved[k] + sign * eps * direction[k])
            loss, _, _ = batch_loss_and_grads(model, batch, config, carries)
            return loss

        hi, lo = value(+1.0), value(-1.0)
        for k in keys:
            model.set(k, saved[k])
        fd = (hi - lo) / (2 * eps)
        denom = max(abs(fd), abs(analytic), 1e-10)
        worst = max(worst, abs(analytic - fd) / denom)
    return worst


def doc_segments(doc: np.ndarray, seq_len: int):
    """(tokens, targets) segments of at most seq_len positions covering the
    predictions 1..len(doc)-1 of one document, in order."""
    i = 0
    while i < len(doc) - 1:
        n = min(seq_len, len(doc) - 1 - i)
        yield doc[i:i + n], doc[i + 1:i + n + 1]
        i += n


def make_windows(documents: list[np.ndarray], seq_len: int):
    """Every document's segments, as one list of (tokens, targets) pairs."""
    return [seg for doc in documents for seg in doc_segments(doc, seq_len)]


def score_streams(model: Model, streams, steps: hd.StepSizes | None) -> list[np.ndarray]:
    """Per-token NLL of each stream, a list of (tokens, targets) segments.

    Fast state and backbone memory carry across the segments of a stream and
    reset between streams. With steps None these are the slow losses, else
    the fast-pass losses under those step sizes.
    """
    gammas = model.gammas()
    nll_streams = []
    for stream in streams:
        nlls = []
        memory = None
        state = hd.StreamState.zeros(model.head, steps.mask) if steps is not None else None
        for i, (tokens, targets) in enumerate(stream):
            H, _, memory = bb.encode_with_cache(model.backbone, tokens, memory)
            tape, slow_losses = hd.slow_forward(model.head, H, targets)
            if steps is None:
                nlls.append(slow_losses)
                continue
            grads = hd.per_position_grads(model.head, tape)
            fast = hd.fast_forward(model.head, steps, H, tape, grads, state=state,
                                   chunk_size=model.config.chunk_size)
            nlls.append(fast.losses)
            if i + 1 < len(stream):  # the state after a stream's last segment has no reader
                state = hd.update_stream_state(state, grads, tape, gammas)
        nll_streams.append(np.concatenate(nlls) if nlls else np.zeros(0))
    return nll_streams


def _epoch_order(n: int, seed: int, epoch: int) -> np.ndarray:
    return np.random.default_rng([seed, epoch]).permutation(n)


@dataclass
class FitResult:
    model: Model
    opt_state: dict
    step: int
    best_dev_nll: float
    metrics_path: str | None = None
    best_path: str | None = None
    final_path: str | None = None


def fit(corpus: Corpus, config: TrainConfig, model_config: ModelConfig,
        dev_corpus: Corpus | None = None, out_dir=None,
        resume_from=None, quiet: bool = True) -> FitResult:
    """Train on shuffled fixed-length windows; saves best/final checkpoints
    and JSONL metrics when out_dir is given.

    Resume restores parameters, optimizer state and the data order; stream
    carries restart at the resume point in streaming mode.
    """
    import json
    import os

    from .checkpoint import load_checkpoint, save_checkpoint

    config.validate()
    if dev_corpus is None:
        n_dev = max(1, len(corpus.documents) // 20)
        dev_docs = corpus.documents[-n_dev:]
        train_docs = corpus.documents[:-n_dev] or corpus.documents
    else:
        dev_docs = dev_corpus.documents
        train_docs = corpus.documents

    start_step = 0
    opt_state = None
    if resume_from is not None:
        snap = load_checkpoint(resume_from)
        model = snap.model
        opt_state = snap.opt_state
        start_step = snap.step
    else:
        model = init_model(model_config)
    if opt_state is None:
        opt_state = zero_opt_state(model)

    windows = make_windows(train_docs, config.seq_len)
    if not windows:
        raise ConfigError("corpus produced no training windows")
    dev_streams = [[w] for w in make_windows(dev_docs, config.seq_len)]
    batches_per_epoch = max(1, -(-len(windows) // config.batch_size))

    metrics_f = None
    metrics_path = best_path = final_path = None
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        metrics_path = os.path.join(out_dir, "metrics.jsonl")
        best_path = os.path.join(out_dir, "best.ckpt")
        final_path = os.path.join(out_dir, "final.ckpt")
        try:
            metrics_f = open(metrics_path, "a" if resume_from else "w")
        except OSError as e:
            raise OSError(f"cannot open metrics file {metrics_path}: {e}") from e

    best_dev = float("inf")
    carries = None
    lane_queues = None
    if config.streaming:
        lane_queues = [[] for _ in range(config.batch_size)]
        carries = [None] * config.batch_size

    def next_streaming_batch(step):
        # deterministic document round-robin; fresh carry per document
        batch = []
        for lane in range(config.batch_size):
            if not lane_queues[lane]:
                order = _epoch_order(len(train_docs), config.seed,
                                     7919 + lane * 104729 + step)
                lane_queues[lane] = make_windows([train_docs[order[0]]], config.seq_len)
                carries[lane] = StreamCarry.fresh(model)
            batch.append(lane_queues[lane].pop(0))
        return batch

    try:
        for step in range(start_step, config.total_steps):
            if config.streaming:
                batch = next_streaming_batch(step)
            else:
                epoch = step // batches_per_epoch
                i = step % batches_per_epoch
                order = _epoch_order(len(windows), config.seed, epoch)
                idx = order[i * config.batch_size:(i + 1) * config.batch_size]
                batch = [windows[j] for j in idx]
            t0 = time.perf_counter()
            metrics, opt_state, new_carries = train_step(model, batch, config,
                                                         opt_state, carries)
            if config.streaming:
                carries = new_carries
            wall_ms = (time.perf_counter() - t0) * 1e3

            record = {
                "step": step + 1,
                "loss": metrics.loss,
                "ppl": float(np.exp(min(metrics.loss, 700.0))),
                "grad_norm": metrics.grad_norm,
                "alphas": metrics.alphas,
                "wall_ms": round(wall_ms, 3),
            }
            if (step + 1) % config.eval_every == 0 or step + 1 == config.total_steps:
                # every dev window is scored as its own stream
                steps = None if config.mode == "slow-only" else model.step_sizes()
                nlls = score_streams(model, dev_streams, steps)
                dev_nll = sum(float(n.sum()) for n in nlls) / max(sum(n.size for n in nlls), 1)
                record["dev_nll"] = dev_nll
                record["dev_ppl"] = float(np.exp(min(dev_nll, 700.0)))
                if dev_nll < best_dev:
                    best_dev = dev_nll
                    if best_path is not None:
                        save_checkpoint(best_path, model, config, opt_state,
                                        step + 1, corpus.tokenizer)
            if metrics_f is not None:
                metrics_f.write(json.dumps(record) + "\n")
            if not quiet:
                print(json.dumps(record))
        if final_path is not None:
            save_checkpoint(final_path, model, config, opt_state,
                            config.total_steps, corpus.tokenizer)
            if best_path is not None and not os.path.exists(best_path):
                save_checkpoint(best_path, model, config, opt_state,
                                config.total_steps, corpus.tokenizer)
    finally:
        if metrics_f is not None:
            metrics_f.close()
    return FitResult(model, opt_state, config.total_steps, best_dev,
                     metrics_path, best_path, final_path)
