"""The fast-weight head: slow pass, per-position gradients, parallel fast pass.

The head is an MLP (hidden layer with squared ReLU, projection, LayerNorm)
feeding an output softmax. In the fast pass every selected parameter tensor at
position t is the slow tensor minus learned step sizes times the sum of the
t-1 previous per-position gradients. Matrix terms are evaluated without ever
materializing gradient matrices: the per-position gradient of a weight matrix
is the outer product of its input and the upstream gradient row, so the update
term collapses to causal linear attention (queries = fast-pass inputs, keys =
slow-pass inputs, values = upstream gradient rows). Vector terms are exclusive
cumulative sums of gradient rows.
"""

from dataclasses import dataclass

import numpy as np

from . import linear_attention as la
from .numerics import (
    ShapeError,
    StateError,
    as_f64,
    exclusive_cumsum_rows,
    layernorm_bwd,
    layernorm_fwd,
    relu2,
    softmax,
    softmax_xent_rows,
)

TENSOR_NAMES = ("U", "a", "W", "b", "ln_gain", "ln_bias", "E", "c")

# The one table of each fast tensor's gradient: ROWS names its per-position
# upstream rows (a PositionGrads field), KEYS a matrix's slow-pass inputs (a
# PositionTape field). A vector's gradient at t is rows_t, so its fast update
# is an exclusive cumsum; a matrix's is keys_t^T rows_t, so its fast update is
# causal linear attention over the keys.
ROWS = {"U": "g_z", "a": "g_z", "W": "g_o", "b": "g_o",
        "ln_gain": "g_ln_gain", "ln_bias": "g_u", "E": "g_logits", "c": "g_logits"}
KEYS = {"U": "h", "W": "v", "E": "u"}

MASK_ALL = TENSOR_NAMES
MASK_BIAS_ONLY = ("c",)
MASK_VECTORS = tuple(n for n in TENSOR_NAMES if n not in KEYS)
MASK_MATRICES = tuple(KEYS)


@dataclass
class HeadParams:
    """Slow weights of the head and output softmax.

    Shapes: U (d_model, d_hidden), a (d_hidden,), W (d_hidden, d_model),
    b (d_model,), ln_gain/ln_bias (d_model,), E (d_model, vocab), c (vocab,).
    """

    U: np.ndarray
    a: np.ndarray
    W: np.ndarray
    b: np.ndarray
    ln_gain: np.ndarray
    ln_bias: np.ndarray
    E: np.ndarray
    c: np.ndarray

    @property
    def d_model(self) -> int:
        return self.U.shape[0]

    @property
    def d_hidden(self) -> int:
        return self.U.shape[1]

    @property
    def vocab(self) -> int:
        return self.c.shape[0]

    def tensor(self, name: str) -> np.ndarray:
        return getattr(self, name)

    def named(self):
        for name in TENSOR_NAMES:
            yield name, getattr(self, name)

    def copy(self) -> "HeadParams":
        return HeadParams(**{k: v.copy() for k, v in self.named()})


def init_head(d_model: int, d_hidden: int, vocab: int, seed: int = 0) -> HeadParams:
    rng = np.random.default_rng(seed)
    return HeadParams(
        U=rng.normal(0.0, 1.0 / np.sqrt(d_model), (d_model, d_hidden)),
        a=np.zeros(d_hidden),
        W=rng.normal(0.0, 1.0 / np.sqrt(d_hidden), (d_hidden, d_model)),
        b=np.zeros(d_model),
        ln_gain=np.ones(d_model),
        ln_bias=np.zeros(d_model),
        E=rng.normal(0.0, 1.0 / np.sqrt(d_model), (d_model, vocab)),
        c=np.zeros(vocab),
    )


@dataclass
class StepSizes:
    """One learned step size per head tensor plus the fast-weight mask."""

    alpha: dict[str, float]
    mask: tuple[str, ...] = MASK_ALL

    def __post_init__(self):
        bad = [n for n in self.mask if n not in TENSOR_NAMES]
        if bad:
            raise ShapeError(f"unknown tensors in fast-weight mask: {bad}")
        missing = [n for n in self.mask if n not in self.alpha]
        if missing:
            raise ShapeError(f"step sizes missing for masked tensors: {missing}")

    @staticmethod
    def uniform(value: float, mask: tuple[str, ...] = MASK_ALL) -> "StepSizes":
        return StepSizes({n: float(value) for n in TENSOR_NAMES}, tuple(mask))


@dataclass
class PositionTape:
    """Slow-pass activations, one row per position."""

    h: np.ndarray          # (T, d)
    targets: np.ndarray    # (T,) int
    z: np.ndarray          # (T, m) pre-activation
    v: np.ndarray          # (T, m) squared-relu output
    relu_mask: np.ndarray  # (T, m) derivative 2*max(z, 0)
    o: np.ndarray          # (T, d) projection before bias
    xhat: np.ndarray       # (T, d) normalized o + b
    istd: np.ndarray       # (T, 1)
    u: np.ndarray          # (T, d) LayerNorm output
    logits: np.ndarray     # (T, V)
    probs: np.ndarray      # (T, V)
    losses: np.ndarray     # (T,)


@dataclass
class PositionGrads:
    """Per-position gradients of each position's own loss (upstream rows).

    Full matrix gradients are rank one: dU_t = h_t^T g_z_t, dW_t = v_t^T g_o_t,
    dE_t = u_t^T g_logits_t. Vector gradients are stored directly; a bias's
    rows are its upstream rows (`rows` maps each tensor to its own, by ROWS).
    """

    g_logits: np.ndarray   # (T, V)
    g_u: np.ndarray        # (T, d)
    g_o: np.ndarray        # (T, d)
    g_z: np.ndarray        # (T, m)
    g_ln_gain: np.ndarray  # (T, d)

    def rows(self, name: str) -> np.ndarray:
        return getattr(self, ROWS[name])


@dataclass
class StreamState:
    """Accumulated fast-weight deltas carried across segments.

    Matrix entries hold the key-value accumulator sum(key_i^T value_i), which
    has the tensor's own shape; vector entries hold summed gradient rows.
    Treated as constant under differentiation.
    """

    acc: dict[str, np.ndarray]

    @staticmethod
    def zeros(head: HeadParams, mask: tuple[str, ...]) -> "StreamState":
        return StreamState({n: np.zeros(head.tensor(n).shape) for n in mask})


def _check_state(state: StreamState, head: HeadParams, mask) -> None:
    for name in mask:
        if name not in state.acc:
            raise StateError(f"stream state missing accumulator for {name!r}")
        want = head.tensor(name).shape
        got = state.acc[name].shape
        if got != want:
            raise StateError(f"stream accumulator {name!r} has shape {got}, expected {want}")


def slow_forward(head: HeadParams, H: np.ndarray, targets) -> tuple[PositionTape, np.ndarray]:
    """First pass with slow weights; targets[t] is the token predicted at t."""
    H = as_f64(H)
    targets = np.asarray(targets, dtype=np.int64)
    if H.ndim != 2 or H.shape[1] != head.d_model:
        raise ShapeError(f"H {H.shape} does not match head d_model {head.d_model}")
    if targets.shape != (H.shape[0],):
        raise ShapeError(f"targets {targets.shape} do not match {H.shape[0]} positions")
    z = H @ head.U + head.a
    v, relu_mask = relu2(z)
    o = v @ head.W
    u, (xhat, istd, _) = layernorm_fwd(o + head.b, head.ln_gain, head.ln_bias)
    logits = u @ head.E + head.c
    losses, probs = softmax_xent_rows(logits, targets)
    tape = PositionTape(H, targets, z, v, relu_mask, o, xhat, istd,
                        u, logits, probs, losses)
    return tape, losses


def per_position_grads(head: HeadParams, tape: PositionTape,
                       targets=None) -> PositionGrads:
    """Gradient of each L_t alone w.r.t. the head tensors, as upstream rows.

    All T rows come out of one vectorized backward because L_t depends only
    on h_t; there is no cross-position mixing.
    """
    if targets is None:
        targets = tape.targets
    targets = np.asarray(targets, dtype=np.int64)
    T = tape.h.shape[0]
    g_logits = tape.probs.copy()
    g_logits[np.arange(T), targets] -= 1.0
    g_u = g_logits @ head.E.T
    g_o, _, _ = layernorm_bwd((tape.xhat, tape.istd, head.ln_gain), g_u)
    g_ln_gain = g_u * tape.xhat
    g_v = g_o @ head.W.T
    g_z = g_v * tape.relu_mask
    return PositionGrads(g_logits, g_u, g_o, g_z, g_ln_gain)


@dataclass
class FastCache:
    """Fast-pass intermediates read by the training backward (references,
    not copies)."""

    att: dict[str, np.ndarray]      # linear-attention terms, incl. stream init
    cum: dict[str, np.ndarray]      # cumulative vector terms, incl. stream acc
    relu_mask: np.ndarray
    v: np.ndarray
    xhat: np.ndarray
    istd: np.ndarray
    gain_rows: np.ndarray           # (T, d) per-position gain; may be a broadcast view
    u: np.ndarray
    probs: np.ndarray


@dataclass
class FastResult:
    losses: np.ndarray
    logits: np.ndarray
    cache: FastCache


def fast_forward(head: HeadParams, steps: StepSizes, H: np.ndarray,
                 tape: PositionTape, grads: PositionGrads,
                 state: StreamState | None = None, chunk_size: int = 64) -> FastResult:
    """Second pass with evolving fast weights, computed in parallel.

    Layers are recomposed in order (U/a, squared ReLU, W/b, LayerNorm, E/c) so
    each matrix term's queries come from fast activations while keys and
    values come from the slow pass. With an empty mask this returns the slow
    losses unchanged; with all step sizes zero it matches them exactly.
    """
    H = as_f64(H)
    mask = set(steps.mask)
    if state is not None:
        _check_state(state, head, mask)
    att: dict[str, np.ndarray] = {}
    cum: dict[str, np.ndarray] = {}

    def minus_fast(x, q, *names):
        """x minus alpha * (summed earlier gradients, from the stream
        accumulator on) for each masked tensor in names: linear attention with
        queries q for a matrix, an exclusive cumsum for a vector."""
        for name in names:
            if name not in mask:
                continue
            init = state.acc[name] if state is not None else None
            rows = grads.rows(name)
            if name in KEYS:
                term, _ = la.chunked_causal_linear_attention(
                    q, getattr(tape, KEYS[name]), rows, chunk_size,
                    la.KVState(init) if init is not None else None)
                att[name] = term
            else:
                term = exclusive_cumsum_rows(rows)
                if init is not None:
                    term = term + init
                cum[name] = term
            x = x - steps.alpha[name] * term
        return x

    # a layer is recomputed only if a tensor at or below it is fast
    if mask & {"U", "a"}:
        v, relu_mask = relu2(minus_fast(tape.z, H, "U", "a"))
    else:
        v, relu_mask = tape.v, tape.relu_mask
    T, d = tape.u.shape
    gain_rows = minus_fast(np.broadcast_to(head.ln_gain, (T, d)), None, "ln_gain")
    if mask - {"E", "c"}:
        o = minus_fast(v @ head.W, v, "W") if mask & {"U", "a", "W"} else tape.o
        bias_rows = minus_fast(np.broadcast_to(head.ln_bias, (T, d)), None, "ln_bias")
        u, (xhat, istd, _) = layernorm_fwd(minus_fast(o + head.b, None, "b"),
                                           gain_rows, bias_rows)
    else:
        xhat, istd, u = tape.xhat, tape.istd, tape.u
    if mask:
        logits = minus_fast(u @ head.E + head.c, u, "E", "c")
        losses, probs = softmax_xent_rows(logits, tape.targets)
    else:
        logits, probs, losses = tape.logits, tape.probs, tape.losses

    return FastResult(losses, logits,
                      FastCache(att, cum, relu_mask, v, xhat, istd, gain_rows, u, probs))


def segment_grad_sums(tape: PositionTape, grads: PositionGrads,
                      mask: tuple[str, ...]) -> dict[str, np.ndarray]:
    """Summed per-position gradients of one segment, per masked tensor."""
    sums = {}
    for name in mask:
        rows = grads.rows(name)
        if name in KEYS:
            # np.dot, not @: at T=1 matmul takes the (d, 1) transposed view
            # off BLAS and is ~4x slower; the results are equal
            sums[name] = np.dot(getattr(tape, KEYS[name]).T, rows)
        else:
            sums[name] = rows.sum(axis=0)
    return sums


def update_stream_state(state: StreamState, grads: PositionGrads,
                        tape: PositionTape, gammas: dict[str, float]) -> StreamState:
    """Decay each accumulator by its gamma, then add the segment's summed
    gradients. The result is a plain value: constant under differentiation."""
    mask = tuple(state.acc.keys())
    sums = segment_grad_sums(tape, grads, mask)
    new = {}
    for name in mask:
        g = float(gammas.get(name, 1.0))
        new[name] = g * state.acc[name] + sums[name]
    return StreamState(new)


def head_grads_single(head: HeadParams, h: np.ndarray, target: int) -> dict[str, np.ndarray]:
    """Full gradients of one position's slow loss, keyed by tensor name."""
    tape, _ = slow_forward(head, as_f64(h)[None, :], [target])
    return segment_grad_sums(tape, per_position_grads(head, tape), TENSOR_NAMES)


def sample_token(logits: np.ndarray, temperature: float, rng) -> int:
    """Temperature 0 is argmax with ties to the lowest id."""
    if temperature == 0.0:
        return int(np.argmax(logits))
    p = softmax(logits / temperature)
    return int(rng.choice(p.shape[0], p=p))


@dataclass
class GenStep:
    token: int
    offsets: StreamState
    fast_loss: float


def generate_step(head: HeadParams, steps: StepSizes, offsets: StreamState,
                  h: np.ndarray, temperature: float, rng) -> GenStep:
    """One sequential generation step.

    Samples from the fast-weight distribution (slow tensors offset by the
    accumulated gradients), then folds the gradient of predicting the sampled
    token -- computed against the slow weights -- into the offsets.
    """
    _check_state(offsets, head, steps.mask)
    fast = HeadParams(**{n: t - steps.alpha[n] * offsets.acc[n] if n in steps.mask else t
                         for n, t in head.named()})
    # the target is not sampled yet; the tape's probabilities do not depend on it
    tape, _ = slow_forward(fast, as_f64(h)[None, :], [0])
    logits = tape.logits[0]
    token = sample_token(logits, temperature, rng)
    fast_loss = float(-np.log(tape.probs[0, token]))
    new_acc = dict(offsets.acc)
    if steps.mask:
        grads = head_grads_single(head, h, token)
        for name in steps.mask:
            new_acc[name] = offsets.acc[name] + grads[name]
    return GenStep(token, StreamState(new_acc), fast_loss)
