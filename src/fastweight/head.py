"""The fast-weight head: slow pass, its one backward (per-position gradients),
parallel fast pass.

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

from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from . import linear_attention as la
from .numerics import (
    ShapeError,
    StateError,
    as_f64,
    exclusive_cumsum_rows,
    layernorm_dx,
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

    def named(self):
        for name in TENSOR_NAMES:
            yield name, getattr(self, name)


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


# Step sizes: each fast tensor's name and its learned alpha. The keys are the
# fast-weight mask, so {} means no fast weights.
StepSizes = dict[str, float]


@dataclass
class PositionTape:
    """One pass of the head's layers, one row per position. A fast pass's tape
    holds the slow tape's own arrays for the layers it reused."""

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
    gain: np.ndarray       # (d,) LayerNorm gain, or (T, d) rows when ln_gain is fast
    terms: dict[str, np.ndarray]  # each fast tensor's term, its summed earlier gradients


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
    g_v: np.ndarray        # (T, m), on the squared ReLU's output
    g_z: np.ndarray        # (T, m)
    g_ln_gain: np.ndarray  # (T, d)

    def rows(self, name: str) -> np.ndarray:
        return getattr(self, ROWS[name])


def _check_state(state: dict[str, np.ndarray], head: HeadParams, mask) -> None:
    for name in mask:
        if name not in state:
            raise StateError(f"stream state missing accumulator for {name!r}")
        want = getattr(head, name).shape
        got = state[name].shape
        if got != want:
            raise StateError(f"stream accumulator {name!r} has shape {got}, expected {want}")


def _layers(head: HeadParams, H: np.ndarray, targets: np.ndarray, slow=None,
            steps=None, term=None) -> PositionTape:
    """The head's layers in order: U/a, squared ReLU, W/b, LayerNorm, E/c.

    Without `slow` this is the slow pass. With it, a fast pass over the slow
    tape `slow`: each tensor in steps is its slow value minus its step
    size times term(name, q), its summed earlier gradients (q: a matrix's
    queries), kept in the tape's terms; a layer is recomputed only if a
    tensor at or below it is in the mask.
    """
    new = slow is None
    mask = set() if new else set(steps)
    terms = {}

    def minus(x, q, *names):
        """x minus alpha * term for each masked tensor in names. Only the
        first subtraction allocates; x itself is never written."""
        x_in = x
        for name in names:
            if name in mask:
                terms[name] = t = term(name, q)
                x = np.subtract(x, steps[name] * t, out=None if x is x_in else x)
        return x

    if new or mask & {"U", "a"}:
        z = minus(H @ head.U + head.a if new else slow.z, H, "U", "a")
        v, relu_mask = relu2(z)
    else:
        z, v, relu_mask = slow.z, slow.v, slow.relu_mask
    gain = minus(head.ln_gain, None, "ln_gain")
    if new or mask - {"E", "c"}:
        o = minus(v @ head.W, v, "W") if new or mask & {"U", "a", "W"} else slow.o
        u, (xhat, istd, _) = layernorm_fwd(minus(o + head.b, None, "b"), gain,
                                           minus(head.ln_bias, None, "ln_bias"))
    else:
        o, xhat, istd, u = slow.o, slow.xhat, slow.istd, slow.u
    if new or mask:
        logits = minus(u @ head.E + head.c, u, "E", "c")
        losses, probs = softmax_xent_rows(logits, targets)
    else:
        logits, probs, losses = slow.logits, slow.probs, slow.losses
    return PositionTape(H, targets, z, v, relu_mask, o, xhat, istd, u, logits, probs,
                        losses, gain, terms)


def slow_forward(head: HeadParams, H: np.ndarray, targets) -> tuple[PositionTape, np.ndarray]:
    """First pass with slow weights; targets[t] is the token predicted at t."""
    H = as_f64(H)
    targets = np.asarray(targets, dtype=np.int64)
    if H.ndim != 2 or H.shape[1] != head.d_model:
        raise ShapeError(f"H {H.shape} does not match head d_model {head.d_model}")
    if targets.shape != (H.shape[0],):
        raise ShapeError(f"targets {targets.shape} do not match {H.shape[0]} positions")
    tape = _layers(head, H, targets)
    return tape, tape.losses


def output_grads(tape: PositionTape, w: float = 1.0) -> np.ndarray:
    """Gradient of w * sum_t L_t w.r.t. the tape's logits: w * (probs - onehot)."""
    g = tape.probs.copy()
    g[np.arange(g.shape[0]), tape.targets] -= 1.0
    if w != 1.0:  # multiplying by 1 is exact
        g *= w
    return g


def head_backward(head: HeadParams, tape: PositionTape, d_logits: np.ndarray,
                  d_u=None, d_o=None, d_z=None, tap=None) -> PositionGrads:
    """The one reverse of the head's layers E/c, LayerNorm, b, W and squared
    ReLU over a slow or fast tape, down to the pre-activation.

    The gradients on logits (d_logits) and, beside the logits' paths, on the
    LayerNorm output (d_u), LayerNorm input (d_o) and pre-activation (d_z)
    come back as upstream rows, row t being position t's own: each tensor's
    gradient is segment_grad_sums of them. tap(name, d_x) sees d_x, the
    gradient on each tensor's output as it is reached; a matrix adds q, its
    input, and d_q, q's gradient, which tap may add into. Since L_t depends
    only on h_t, all T rows come out of one vectorized pass.
    """
    g_u = d_logits @ head.E.T
    if d_u is not None:
        g_u = d_u + g_u
    if tap is not None:
        tap("E", d_logits, tape.u, g_u)
        tap("c", d_logits)
    g_ln_gain = g_u * tape.xhat
    g_o = layernorm_dx((tape.xhat, tape.istd, tape.gain), g_u)
    if d_o is not None:
        g_o = d_o + g_o
    g_v = g_o @ head.W.T
    if tap is not None:
        tap("ln_gain", g_ln_gain)
        tap("ln_bias", g_u)
        tap("b", g_o)
        tap("W", g_o, tape.v, g_v)
    g_z = g_v * tape.relu_mask
    if d_z is not None:
        g_z = d_z + g_z
    return PositionGrads(d_logits, g_u, g_o, g_v, g_z, g_ln_gain)


def per_position_grads(head: HeadParams, tape: PositionTape) -> PositionGrads:
    """Gradient of each L_t alone w.r.t. the head tensors, as upstream rows."""
    return head_backward(head, tape, output_grads(tape))


def fast_forward(head: HeadParams, steps: StepSizes, tape: PositionTape,
                 grads: PositionGrads, state: dict[str, np.ndarray] | None = None,
                 chunk_size: int = 64) -> PositionTape:
    """Second pass with evolving fast weights, computed in parallel: the slow
    pass's layers (_layers) over the slow tape's inputs tape.h, with each
    matrix term's queries taken from fast activations while keys and values
    come from the slow tape `tape`. Returns the fast pass's tape. With an
    empty mask its losses are the slow losses; with all step sizes zero it
    matches them exactly.
    `state` is the fast state carried in from earlier segments (see
    update_stream_state), a constant under differentiation.
    """
    if state is not None:
        _check_state(state, head, steps)

    def term(name, q):
        """The summed earlier gradients of tensor name, from the stream
        accumulator on: linear attention with queries q for a matrix, an
        exclusive cumsum for a vector."""
        init = state[name] if state is not None else None
        rows = grads.rows(name)
        if name in KEYS:
            return la.chunked_causal_linear_attention(
                q, getattr(tape, KEYS[name]), rows, chunk_size,
                la.KVState(init) if init is not None else None)[0]
        cum = exclusive_cumsum_rows(rows)
        return cum if init is None else cum + init

    return _layers(head, tape.h, tape.targets, tape, steps, term)


def segment_grad_sums(tape: PositionTape, grads: PositionGrads,
                      mask: Iterable[str]) -> dict[str, np.ndarray]:
    """Summed per-position gradients of one segment, per masked tensor."""
    sums = {}
    for name in mask:
        rows = grads.rows(name)
        if name in KEYS:
            # np.dot, not @: at T=1 matmul takes the (d, 1) transposed view
            # off BLAS and is ~4x slower; the results are equal
            sums[name] = np.dot(getattr(tape, KEYS[name]).T, rows)
        else:
            sums[name] = np.add.reduce(rows, axis=0)
    return sums


def update_stream_state(prev: dict[str, np.ndarray], pending: dict[str, np.ndarray],
                        gammas: dict[str, float]) -> dict[str, np.ndarray]:
    """The fast state a segment reads: the state the previous segment read,
    decayed by each tensor's gamma, plus that segment's summed gradients
    (`pending`, from segment_grad_sums). Per tensor, a matrix's state is the
    key-value accumulator sum(key_i^T value_i), of the tensor's own shape; a
    vector's is its summed gradient rows. The one place a decay meets the
    state."""
    return {name: gammas[name] * prev[name] + pending[name] for name in prev}


def head_grads_single(head: HeadParams, tape: PositionTape, target: int,
                      mask: Iterable[str]) -> dict[str, np.ndarray]:
    """Full gradients of a one-position slow tape's loss at `target`, for the
    tensors in mask: output_grads at `target` in place of the tape's own."""
    d_logits = tape.probs.copy()
    d_logits[0, target] -= 1.0
    return segment_grad_sums(tape, head_backward(head, tape, d_logits), mask)


def sample_token(logits: np.ndarray, temperature: float, rng) -> int:
    """Temperature 0 is argmax with ties to the lowest id. A tiny temperature
    samples among the argmax ties: the others overflow to -inf, not NaN."""
    if temperature == 0.0:
        return int(np.argmax(logits))
    with np.errstate(over="ignore"):
        p = softmax((logits - logits.max()) / temperature)
    return int(rng.choice(p.shape[0], p=p))


@dataclass
class GenStep:
    token: int
    fast_loss: float


def generate_step(head: HeadParams, steps: StepSizes, offsets: dict[str, np.ndarray],
                  h: np.ndarray, temperature: float, rng) -> GenStep:
    """One sequential generation step.

    Samples from the fast-weight distribution: one slow pass at the position,
    then the head's layers over its tape with each masked tensor offset by
    its accumulated gradients (q @ offsets for a matrix). Then adds the
    gradient of predicting the sampled token -- from the same slow tape --
    into `offsets` in place, so the caller must own those arrays.
    """
    _check_state(offsets, head, steps)
    # the target is not sampled yet; the tapes' probabilities do not depend on it
    slow, _ = slow_forward(head, as_f64(h)[None, :], [0])
    fast = _layers(head, slow.h, slow.targets, slow, steps,
                   lambda n, q: q @ offsets[n] if n in KEYS else offsets[n])
    # at temperature 1 the fast probs, exp(l - max) / sum, are sample_token's p bit for bit
    token = (int(rng.choice(fast.probs.shape[1], p=fast.probs[0])) if temperature == 1.0
             else sample_token(fast.logits[0], temperature, rng))
    if steps:
        grads = head_grads_single(head, slow, token, steps)
        for n in steps:
            offsets[n] += grads[n]
    return GenStep(token, float(-np.log(fast.probs[0, token])))
