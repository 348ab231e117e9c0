"""Joint optimization of backbone, head, step sizes and decays.

The training objective is the mean fast-pass loss. Its gradient is assembled
by hand in three sweeps, mirroring how the loss was built:

  1. fast-pass reverse (`_head_reverse` on the fast tape): direct
     parameter/step-size paths, plus upstream gradients into the
     per-position gradient rows and the slow activations they attend over;
  2. reverse through the slow backward itself (the second-order part: the
     gradient rows are functions of the parameters, so their consumers
     contribute curvature terms);
  3. the same `_head_reverse` on the slow tape, then the backbone reverse,
     for everything that accumulated on the slow activations.

Stream accumulators carried across segments are constants (stop-gradient).
A StreamCarry holds them lazily, as the state the previous segment read plus
that segment's summed gradients, so that the decay is applied inside the
step: the one place the decays touch the loss. StreamCarry() starts a stream.

Also here: the one read of a stream's segment (`read_segment`), the one
document segmenter (`doc_segments`) and the one scoring loop
(`score_streams`), shared by `fit`'s dev NLL and `harness.score`.
"""

import copy
import dataclasses
import time
from dataclasses import dataclass

import numpy as np

from . import backbone as bb
from . import head as hd
from .corpus import Corpus
from .linear_attention import KVState, causal_linear_attention_vjp
from .numerics import (ConfigError, NumericalError, check_field_types, layernorm_dx,
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
        check_field_types(self)
        self.backbone.validate()
        if self.d_hidden <= 0:
            raise ConfigError(f"d_hidden must be positive, got {self.d_hidden}")
        if self.chunk_size < 1:
            raise ConfigError(f"chunk_size must be >= 1, got {self.chunk_size}")
        if not 0.0 < self.gamma_init < 1.0:
            raise ConfigError(f"gamma_init must lie in (0, 1), got {self.gamma_init}")
        if not set(self.mask) <= set(hd.TENSOR_NAMES) or len(set(self.mask)) < len(self.mask):
            raise ConfigError(f"mask must name distinct tensors of {hd.TENSOR_NAMES}, "
                              f"got {list(self.mask)}")
        return self


@dataclass
class Model:
    config: ModelConfig
    backbone: bb.BackboneParams
    head: hd.HeadParams
    alpha: dict[str, np.ndarray]      # 0-d arrays, one per fast tensor (in mask)
    gamma_raw: dict[str, np.ndarray]  # 0-d arrays, the same keys; decay = sigmoid(gamma_raw)

    @property
    def mask(self) -> tuple[str, ...]:
        return self.config.mask

    def step_sizes(self) -> hd.StepSizes:
        return {n: float(self.alpha[n]) for n in self.mask}

    def gammas(self) -> dict[str, float]:
        return {n: float(sigmoid(self.gamma_raw[n])) for n in self.mask}

    def named_params(self):
        for k, v in self.backbone.named():
            yield f"bb.{k}", v
        for k, v in self.head.named():
            yield f"head.{k}", v
        for n in self.mask:
            yield f"alpha.{n}", self.alpha[n]
        for n in self.mask:
            yield f"gamma.{n}", self.gamma_raw[n]

    def copy(self) -> "Model":
        return copy.deepcopy(self)


def init_model(config: ModelConfig) -> Model:
    config.validate()
    bcfg = config.backbone
    backbone = bb.init_backbone(bcfg)
    head = hd.init_head(bcfg.d_model, config.d_hidden, bcfg.vocab_size,
                        seed=bcfg.seed + 1)
    gamma_raw_init = float(np.log(config.gamma_init / (1 - config.gamma_init)))
    alpha = {n: np.array(config.alpha_init) for n in config.mask}
    gamma_raw = {n: np.array(gamma_raw_init) for n in config.mask}
    return Model(config, backbone, head, alpha, gamma_raw)


@dataclass
class StreamCarry:
    """Constants threaded between consecutive segments of one text stream:
    the backbone memory, the fast state the previous segment read and that
    segment's summed gradients, not yet decayed in. Each is None where there
    is none, as in StreamCarry(), which starts a stream. The decay stays
    lazy because gamma is trained and d gamma reads delta_prev."""

    memory: bb.SegmentMemory | None = None
    delta_prev: dict[str, np.ndarray] | None = None
    pending: dict[str, np.ndarray] | None = None

    @staticmethod
    def after(memory, tape, grads, state, steps: hd.StepSizes) -> "StreamCarry":
        """The carry a segment hands on, from what read_segment returned: its
        memory, the state it read and its summed gradients."""
        return StreamCarry(memory, state,
                           None if grads is None else hd.segment_grad_sums(tape, grads, steps))

    def state(self, gammas: dict[str, float]) -> dict[str, np.ndarray] | None:
        """The fast state the next segment reads; None when there is none."""
        return (self.pending if self.delta_prev is None
                else hd.update_stream_state(self.delta_prev, self.pending, gammas))


def read_segment(model: Model, tokens, targets, carry: StreamCarry | None,
                 steps: hd.StepSizes, gammas: dict[str, float], backward: bool = False):
    """One segment of a stream, read as training, scoring and generation all
    read it: encoded after the carry's memory, its slow pass if there are
    targets and, with step sizes, its gradient rows and the state it reads.
    Returns (tape, grads, state, cache, memory), grads and state None without steps."""
    H, cache, memory = bb.encode_with_cache(model.backbone, tokens,
                                            carry.memory if carry is not None else None,
                                            backward=backward)
    tape = None if targets is None else hd.slow_forward(model.head, H, targets)[0]
    if not steps:
        return tape, None, None, cache, memory
    state = carry.state(gammas) if carry is not None else None
    return tape, hd.per_position_grads(model.head, tape), state, cache, memory


def head_fast_vjp(head: hd.HeadParams, steps: hd.StepSizes, tape, grads,
                  fast: hd.PositionTape, state: dict[str, np.ndarray] | None,
                  chunk_size: int, w: float):
    """Gradient of w * sum_t L'_t w.r.t. head tensors, step sizes, the slow
    tape's inputs H (tape.h) and the stream accumulators, given the slow tape
    and the fast pass's tape `fast`. Returns (dhead, dalpha, ddelta, dH)."""
    d = tape.h.shape[1]
    dalpha = {}
    ddelta = {}
    # gradients on the per-position gradient rows (by PositionGrads field)
    # and on the slow activations a matrix attends over (by PositionTape field)
    drows = {f: np.zeros_like(getattr(grads, f)) for f in dict.fromkeys(hd.ROWS.values())}
    dkeys = {}

    def fast_term(name, d_x, q=None, d_q=None):
        """Reverse of x - alpha * term for a masked tensor, given d_x = dL/dx.
        A vector's term is the exclusive cumsum of its rows (from the stream
        accumulator on); a matrix's is causal linear attention of queries q
        over its slow keys and rows, whose query gradient adds into d_q."""
        if name not in steps:
            return
        d_term = -steps[name] * d_x
        if name in hd.KEYS:
            dalpha[name] = -float((d_x * fast.att[name]).sum())
            init = KVState(state[name]) if state is not None else None
            dq, dkeys[hd.KEYS[name]], dv, ddelta[name] = causal_linear_attention_vjp(
                q, getattr(tape, hd.KEYS[name]), grads.rows(name), d_term, init, chunk_size)
            d_q += dq
        else:
            dalpha[name] = -float((d_x * fast.cum[name]).sum())
            dv = reverse_exclusive_cumsum_rows(d_term)
            ddelta[name] = d_term.sum(axis=0)
        drows[hd.ROWS[name]] += dv

    # ---- fast pass: seed d(w * sum CE) / d fast logits, reverse its layers
    dhead, dH = _head_reverse(head, fast, hd.output_grads(fast, w), tap=fast_term)
    if "h" in dkeys:
        dH += dkeys["h"]  # U's keys are the same context vectors

    # ---- reverse through the slow backward (second-order terms) ----
    dGl, dGu, dGo, dGz, dGg = (drows[f] for f in
                               ("g_logits", "g_u", "g_o", "g_z", "g_ln_gain"))
    # g_z = g_v * relu_mask with g_v = g_o W^T
    dGv = dGz * tape.relu_mask
    dRM = dGz * grads.g_v
    dZ_slow = dRM * 2.0 * (tape.z > 0)
    dGo += dGv @ head.W
    dhead["W"] += dGv.T @ grads.g_o

    # g_ln_gain = g_u * xhat, and g_o = layernorm_dx((xhat, istd, gain), g_u):
    # reverse g_o's linear map of dxh = g_u * gain, its istd factor and its
    # two xhat terms, then carry istd's and xhat's gradients to pre-LN rows
    dxh_s = grads.g_u * head.ln_gain
    ddxh = layernorm_dx((tape.xhat, tape.istd, 1.0), dGo)
    dISTD = (dGo * grads.g_o).sum(axis=1, keepdims=True) / tape.istd
    dinner = dGo * tape.istd
    dXH = (dGg * grads.g_u - dinner * (dxh_s * tape.xhat).mean(axis=1, keepdims=True)
           - dxh_s * (dinner * tape.xhat).mean(axis=1, keepdims=True))
    dP = (layernorm_dx((tape.xhat, tape.istd, 1.0), dXH)
          - tape.xhat * (tape.istd ** 2 * dISTD / d))
    dGu += dGg * tape.xhat + ddxh * head.ln_gain
    dhead["ln_gain"] += (ddxh * grads.g_u).sum(axis=0)

    # g_u = g_logits E^T
    dGl += dGu @ head.E
    dhead["E"] += dGu.T @ grads.g_logits

    # g_logits = softmax(logits) - onehot
    p = tape.probs
    dLG_s = p * dGl - p * (p * dGl).sum(axis=1, keepdims=True)

    dZ_slow += dkeys.get("v", 0.0) * tape.relu_mask
    dhead_slow, dH_slow = _head_reverse(head, tape, dLG_s, dkeys.get("u"), dP, dZ_slow)
    for name, g in dhead_slow.items():
        dhead[name] += g
    dH += dH_slow
    return dhead, dalpha, ddelta, dH


def _head_reverse(head: hd.HeadParams, acts: hd.PositionTape, d_logits, d_u=None,
                  d_o=None, d_z=None, tap=None):
    """Reverse of the head's layers over the pass whose tape is `acts` (slow
    or fast): hd.head_backward's rows, summed into each tensor's gradient,
    then the U/a reverse and its taps. Returns (dhead, dH), dH the gradient
    w.r.t. h."""
    rows = hd.head_backward(head, acts, d_logits, d_u, d_o, d_z, tap)
    dH = rows.g_z @ head.U.T
    if tap is not None:
        tap("U", rows.g_z, acts.h, dH)
        tap("a", rows.g_z)
    return hd.segment_grad_sums(acts, rows, hd.TENSOR_NAMES), dH


def head_slow_vjp(head: hd.HeadParams, tape, w: float):
    """Gradient of w * sum_t L_t (slow losses only). Returns (dhead, dH)."""
    return _head_reverse(head, tape, hd.output_grads(tape, w))


@dataclass
class SequenceResult:
    losses: np.ndarray
    grads: dict[str, np.ndarray]
    carry: StreamCarry | None = None


def sequence_loss_and_grads(model: Model, tokens, targets, mode: str,
                            carry: StreamCarry | None = None,
                            w: float = 1.0) -> SequenceResult:
    """Loss and exact gradients of one sequence (one segment when carry is set).

    `w` scales the objective contribution: the caller passes 1/total_tokens to
    average over a batch. The returned grads dict is keyed like named_params
    and holds only what the mode trains: no alpha./gamma. keys in slow-only,
    no bb. keys in fwl-finetune.
    """
    if mode not in MODES:
        raise ConfigError(f"mode must be one of {MODES}, got {mode!r}")
    steps = model.step_sizes() if mode != "slow-only" else {}
    gammas = model.gammas() if steps else {}
    tape, pos_grads, state, bcache, memory = read_segment(model, tokens, targets, carry,
                                                          steps, gammas, backward=True)
    grads_out: dict[str, np.ndarray] = {}
    if not steps:
        dhead, dH = head_slow_vjp(model.head, tape, w)
        losses = tape.losses
    else:
        fast = hd.fast_forward(model.head, steps, tape, pos_grads, state=state,
                               chunk_size=model.config.chunk_size)
        losses = fast.losses
        dhead, dalpha, ddelta, dH = head_fast_vjp(
            model.head, steps, tape, pos_grads, fast, state, model.config.chunk_size, w)
        prev = carry.delta_prev if carry is not None else None
        for n in model.mask:
            g = gammas[n]  # d state / d gamma is the state the previous segment read
            dgamma = 0.0 if prev is None else float((ddelta[n] * prev[n]).sum()) * g * (1.0 - g)
            grads_out[f"alpha.{n}"] = np.float64(dalpha[n])
            grads_out[f"gamma.{n}"] = np.float64(dgamma)
    for name, g in dhead.items():
        grads_out[f"head.{name}"] = g
    if mode != "fwl-finetune":
        for key, g in bb.encode_backward(model.backbone, bcache, dH).items():
            grads_out[f"bb.{key}"] = g
    if carry is not None:  # the carry this segment hands on
        carry = StreamCarry.after(memory, tape, pos_grads, state, steps)
    return SequenceResult(losses, grads_out, carry)


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
    eval_every: int = 100
    seed: int = 0

    def validate(self):
        check_field_types(self)
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        for name in ("learning_rate", "batch_size", "seq_len", "total_steps", "eval_every",
                     "clip_norm", "eps"):
            if not getattr(self, name) > 0:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
        for name in ("warmup_steps", "weight_decay", "seed"):
            if not getattr(self, name) >= 0:
                raise ConfigError(f"{name} must be >= 0, got {getattr(self, name)}")
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise ConfigError(f"beta1 and beta2 must lie in [0, 1), got "
                              f"{self.beta1} and {self.beta2}")
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
                opt_state: dict, config: TrainConfig, lr_scale: float = 1.0) -> float:
    """Standard Adam with bias correction; global-norm clipping is applied to
    the incoming gradients. Only the keys in grads are updated: each step is
    written in place into those arrays of params and into opt_state's moments,
    and every other parameter keeps its value and its moments. Advances
    opt_state's step count and returns the pre-clip gradient norm."""
    norm = global_grad_norm(grads)
    scale = 1.0
    if norm > config.clip_norm:
        scale = config.clip_norm / norm
    t = opt_state["t"] = opt_state["t"] + 1
    for k in grads:
        p, m, v = params[k], opt_state["m"][k], opt_state["v"][k]
        g = np.asarray(grads[k]) * scale
        if config.weight_decay and k.startswith(("bb.", "head.")) and p.ndim >= 2:
            g = g + config.weight_decay * p
        m *= config.beta1
        m += (1 - config.beta1) * g
        v *= config.beta2
        v += (1 - config.beta2) * g * g
        mhat = m / (1 - config.beta1 ** t)
        vhat = v / (1 - config.beta2 ** t)
        p -= config.learning_rate * lr_scale * mhat / (np.sqrt(vhat) + config.eps)
    return norm


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
                                      carry=carry, w=w)
        loss_sum += float(res.losses.sum())
        new_carries.append(res.carry)
        for k, g in res.grads.items():
            if k in acc:
                acc[k] += g
            else:
                acc[k] = np.array(g)
    return loss_sum / total_tokens, acc, new_carries


def train_step(model: Model, batch, config: TrainConfig, opt_state: dict | None = None,
               carries: list[StreamCarry] | None = None):
    """One optimizer step over a batch of (tokens, targets) pairs.

    Writes the step in place into the model's arrays and into opt_state (a
    fresh one when None). Returns (metrics, opt_state, new_carries). In
    streaming mode `carries` holds one StreamCarry per batch lane.
    """
    if opt_state is None:
        opt_state = zero_opt_state(model)
    loss, acc, new_carries = batch_loss_and_grads(model, batch, config, carries)
    if not np.isfinite(loss):
        raise NumericalError(
            f"non-finite loss {loss} at optimizer step {opt_state['t'] + 1} "
            f"(batch of {len(batch)} sequences)")
    norm = adam_update(dict(model.named_params()), acc, opt_state, config,
                       lr_scale=warmup_scale(opt_state["t"], config))
    metrics = StepMetrics(loss, norm, model.step_sizes(), sum(len(t) for t, _ in batch))
    return metrics, opt_state, new_carries


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


def score_streams(model: Model, streams, steps: hd.StepSizes):
    """Per-token NLL of each stream, a list of (tokens, targets) segments.

    Each segment is read as streaming training reads it (read_segment), with
    a StreamCarry threading backbone memory and fast state across the
    segments of a stream; each stream starts with no fast state.
    Returns (NLLs, slow NLLs), one array per stream in each: the fast-pass
    losses under those step sizes, and the slow losses the same pass read,
    which are the NLLs under empty steps.
    """
    gammas = model.gammas()
    nll_streams, slow_streams = [], []
    for stream in streams:
        nlls, slow = [], []
        carry = StreamCarry()
        for i, (tokens, targets) in enumerate(stream):
            tape, grads, state, _, memory = read_segment(model, tokens, targets, carry,
                                                         steps, gammas)
            slow.append(tape.losses)
            nlls.append(hd.fast_forward(model.head, steps, tape, grads, state=state,
                                        chunk_size=model.config.chunk_size).losses
                        if steps else tape.losses)
            if i + 1 < len(stream):  # the last segment's carry has no reader
                carry = StreamCarry.after(memory, tape, grads, state, steps)
        nll_streams.append(np.concatenate(nlls) if nlls else np.zeros(0))
        slow_streams.append(np.concatenate(slow) if slow else np.zeros(0))
    return nll_streams, slow_streams


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
    carries restart at the resume point in streaming mode. model_config must
    match the checkpoint's.
    """
    import json
    import os

    from .checkpoint import load_checkpoint, save_checkpoint

    config.validate()
    if config.seq_len > model_config.backbone.max_seq_len:
        raise ConfigError(f"seq_len {config.seq_len} exceeds max_seq_len "
                          f"{model_config.backbone.max_seq_len}")
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
        old, new = (dict(dataclasses.asdict(c), **dataclasses.asdict(c.backbone))
                    for c in (snap.model.config, model_config))
        diff = sorted(k for k in old if k != "backbone" and old[k] != new[k])
        if diff:
            raise ConfigError(f"model settings {diff} differ from those of {resume_from}")
        if snap.tokenizer and snap.tokenizer.vocab != corpus.tokenizer.vocab:
            raise ConfigError(f"the training text's vocabulary differs from that of {resume_from}")
        model = snap.model
        opt_state = snap.opt_state
        start_step = snap.step
        if config.total_steps < start_step:
            raise ConfigError(f"total_steps {config.total_steps} is below step {start_step} "
                              f"of {resume_from}")
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
                carries[lane] = StreamCarry()
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
                "gammas": model.gammas(),
                "wall_ms": round(wall_ms, 3),
            }
            if (step + 1) % config.eval_every == 0 or step + 1 == config.total_steps:
                # every dev window is scored as its own stream
                steps = {} if config.mode == "slow-only" else model.step_sizes()
                nlls, _ = score_streams(model, dev_streams, steps)
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
