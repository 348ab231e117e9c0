"""Small causal transformer producing context vectors h_1..h_T.

Pre-norm residual blocks, learned absolute positional embeddings, GELU
feed-forward, final LayerNorm. Optional segment recurrence: keys and values
additionally cover cached activations of the previous segment, which are
treated as constants (no gradient flows into them).

Forward passes keep full caches so the backward is an exact hand-written VJP;
`encode_backward` returns gradients for every parameter plus the embedded
inputs.
"""

from dataclasses import dataclass

import numpy as np

from .numerics import (ConfigError, InputError, ShapeError, StateError, check_field_types,
                       layernorm_bwd, layernorm_fwd)

_GELU_C = np.sqrt(2.0 / np.pi)


def gelu(x):
    """tanh-approximate GELU. Returns (y, t), t the tanh that gelu_grad reads."""
    # Plain products, not float `**` (numpy calls pow() per element), and
    # in-place updates: each (T, d_ff) temporary is a fresh allocation.
    t = x * x
    t *= 0.044715
    t += 1.0
    t *= _GELU_C * x
    np.tanh(t, out=t)
    y = 1.0 + t
    y *= 0.5 * x
    return y, t


def gelu_grad(x, t):
    """The derivative of gelu at x, given gelu's tanh t:
    0.5 (1 + t) + 0.5 x (1 - t^2) C (1 + 3 * 0.044715 x^2)."""
    dy = t * t
    np.subtract(1.0, dy, out=dy)
    x2 = x * x
    x2 *= 3 * 0.044715 * _GELU_C
    x2 += _GELU_C
    x2 *= x
    dy *= x2
    dy += 1.0
    dy += t
    dy *= 0.5
    return dy


@dataclass
class BackboneConfig:
    vocab_size: int
    d_model: int = 64
    n_layers: int = 2
    n_heads: int = 4
    d_ff: int = 256
    max_seq_len: int = 128
    memory_len: int = 0
    seed: int = 0

    def validate(self):
        check_field_types(self)
        for name in ("vocab_size", "d_model", "n_layers", "n_heads", "d_ff", "max_seq_len"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
        for name in ("memory_len", "seed"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.d_model % self.n_heads != 0:
            raise ConfigError(
                f"d_model {self.d_model} not divisible by n_heads {self.n_heads}")
        return self


@dataclass
class LayerParams:
    ln1_g: np.ndarray
    ln1_b: np.ndarray
    wq: np.ndarray
    wk: np.ndarray
    wv: np.ndarray
    wo: np.ndarray
    bq: np.ndarray
    bv: np.ndarray
    bo: np.ndarray
    ln2_g: np.ndarray
    ln2_b: np.ndarray
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray


@dataclass
class BackboneParams:
    cfg: BackboneConfig
    tok_emb: np.ndarray
    pos_emb: np.ndarray
    layers: list[LayerParams]
    lnf_g: np.ndarray
    lnf_b: np.ndarray

    def named(self):
        yield "tok_emb", self.tok_emb
        yield "pos_emb", self.pos_emb
        for i, lp in enumerate(self.layers):
            for f in lp.__dataclass_fields__:
                yield f"layers.{i}.{f}", getattr(lp, f)
        yield "lnf_g", self.lnf_g
        yield "lnf_b", self.lnf_b


def init_backbone(config: BackboneConfig) -> BackboneParams:
    """Deterministic init: embeddings N(0, 0.02), weights N(0, 1/fan_in)."""
    config.validate()
    rng = np.random.default_rng(config.seed)
    d, dff = config.d_model, config.d_ff
    layers = []
    for _ in range(config.n_layers):
        layers.append(LayerParams(
            ln1_g=np.ones(d), ln1_b=np.zeros(d),
            wq=rng.normal(0, 1 / np.sqrt(d), (d, d)),
            wk=rng.normal(0, 1 / np.sqrt(d), (d, d)),
            wv=rng.normal(0, 1 / np.sqrt(d), (d, d)),
            wo=rng.normal(0, 1 / np.sqrt(d), (d, d)),
            bq=np.zeros(d), bv=np.zeros(d), bo=np.zeros(d),
            ln2_g=np.ones(d), ln2_b=np.zeros(d),
            w1=rng.normal(0, 1 / np.sqrt(d), (d, dff)), b1=np.zeros(dff),
            w2=rng.normal(0, 1 / np.sqrt(dff), (dff, d)), b2=np.zeros(d),
        ))
    return BackboneParams(
        cfg=config,
        tok_emb=rng.normal(0, 0.02, (config.vocab_size, d)),
        pos_emb=rng.normal(0, 0.02, (config.max_seq_len, d)),
        layers=layers,
        lnf_g=np.ones(d), lnf_b=np.zeros(d),
    )


@dataclass
class SegmentMemory:
    """Per-layer cached activations of the previous segment (constants)."""

    activations: list[np.ndarray]  # n_layers entries, each (M, d_model)


def _split_heads(x, n_heads):
    """(T, d) -> head-major (n_heads, T, d // n_heads) view, for batched matmul."""
    T, d = x.shape
    return x.reshape(T, n_heads, d // n_heads).transpose(1, 0, 2)


def _merge_heads(xh):
    """(n_heads, T, hd) -> (T, n_heads * hd)."""
    h, T, hd = xh.shape
    return xh.transpose(1, 0, 2).reshape(T, h * hd)


_BLOCK = 32  # query rows per attention block
_FUTURE = np.triu(np.ones((_BLOCK, _BLOCK), dtype=bool), 1)  # a block's keys after its query


def _attention(lp: LayerParams, x, mem, cfg, kv=None, rows=None):
    """Pre-norm causal attention over [mem; x]. Returns (out, cache).

    kv, the head-major (keys, values) of an earlier call on the same segment,
    stands in for mem: x's rows attend to its rows and then to their own.
    rows, if set, is how many of x's last rows query: out holds only theirs,
    while keys and values still cover every row.

    Queries run in blocks of _BLOCK rows; a block whose rows end at i1 is
    scored against keys [:M + i1] only, so the masked half of the (h, T, M+T)
    scores is neither computed nor held. Only each block's diagonal corner
    needs the mask, and each block's softmax sees all of its keys.
    """
    T = x.shape[0] if rows is None else rows
    xm = np.vstack([mem, x]) if kv is None and mem.shape[0] else x
    y, ln_cache = layernorm_fwd(xm, lp.ln1_g, lp.ln1_b)
    hd = cfg.d_model // cfg.n_heads
    q = y[-T:] @ lp.wq + lp.bq
    q /= np.sqrt(hd)  # scale the (T, d) queries, not the scores
    k = y @ lp.wk
    v = y @ lp.wv + lp.bv
    qh, kh, vh = (_split_heads(t, cfg.n_heads) for t in (q, k, v))
    if kv is not None:
        kh, vh = (np.concatenate([old, new], axis=1) for old, new in zip(kv, (kh, vh)))
    M = kh.shape[1] - T
    ctx = np.empty((T, cfg.d_model))
    ctxh, ws = _split_heads(ctx, cfg.n_heads), []
    for i0 in range(0, T, _BLOCK):
        i1 = min(i0 + _BLOCK, T)
        n, e = i1 - i0, M + i1
        w = qh[:, i0:i1] @ kh[:, :e].transpose(0, 2, 1)
        if n > 1:  # a one-row block has no later key
            np.copyto(w[:, :, e - n:], -np.inf, where=_FUTURE[:n, :n])
        w -= np.maximum.reduce(w, axis=2, keepdims=True)
        np.exp(w, out=w)
        w /= np.add.reduce(w, axis=2, keepdims=True)
        np.matmul(w, vh[:, :e], out=ctxh[:, i0:i1])
        ws.append(w)
    out = ctx @ lp.wo + lp.bo
    cache = (y, ln_cache, qh, kh, vh, ws, ctx, M)
    return out, cache


def _attention_bwd(lp: LayerParams, cfg, cache, dout):
    """Gradients of _attention; the memory rows receive none.

    Walks the query blocks last-first: the last block sees every key, so its
    products assign dk and dv, and each earlier block adds into their prefix.
    """
    y, ln_cache, qh, kh, vh, ws, ctx, M = cache
    hd = cfg.d_model // cfg.n_heads
    grads = {}
    grads["wo"] = ctx.T @ dout
    grads["bo"] = dout.sum(axis=0)
    dctxh = _split_heads(dout @ lp.wo.T, cfg.n_heads)
    dq = np.empty_like(ctx)
    dqh = _split_heads(dq, cfg.n_heads)
    for b in range(len(ws) - 1, -1, -1):
        w, i0 = ws[b], b * _BLOCK
        i1, e = i0 + w.shape[1], w.shape[2]  # e = M + i1 keys
        dc = dctxh[:, i0:i1]
        ds = dc @ vh[:, :e].transpose(0, 2, 1)  # gradient of w, then through the softmax
        ds -= (w * ds).sum(axis=2, keepdims=True)
        ds *= w
        np.matmul(ds, kh[:, :e], out=dqh[:, i0:i1])
        dvb = w.transpose(0, 2, 1) @ dc
        dkb = ds.transpose(0, 2, 1) @ qh[:, i0:i1]
        if b == len(ws) - 1:
            dvh, dkh = dvb, dkb
        else:
            dvh[:, :e] += dvb
            dkh[:, :e] += dkb
    dq /= np.sqrt(hd)
    dk = _merge_heads(dkh)
    dv = _merge_heads(dvh)
    grads["wq"] = y[M:].T @ dq
    grads["bq"] = dq.sum(axis=0)
    grads["wk"] = y.T @ dk
    grads["wv"] = y.T @ dv
    grads["bv"] = dv.sum(axis=0)
    dy = dk @ lp.wk.T + dv @ lp.wv.T
    dy[M:] += dq @ lp.wq.T
    dxm, dg, db = layernorm_bwd(ln_cache, dy)
    grads["ln1_g"] = dg
    grads["ln1_b"] = db
    return dxm[M:], grads  # memory rows dropped: stop-gradient


def _ff(lp: LayerParams, x):
    y, ln_cache = layernorm_fwd(x, lp.ln2_g, lp.ln2_b)
    h1 = y @ lp.w1
    h1 += lp.b1
    act, t = gelu(h1)
    out = act @ lp.w2 + lp.b2
    return out, (y, ln_cache, h1, t, act)


def _ff_bwd(lp: LayerParams, cache, dout):
    y, ln_cache, h1, t, act = cache
    grads = {}
    grads["w2"] = act.T @ dout
    grads["b2"] = dout.sum(axis=0)
    dh1 = dout @ lp.w2.T
    dh1 *= gelu_grad(h1, t)
    grads["w1"] = y.T @ dh1
    grads["b1"] = dh1.sum(axis=0)
    dy = dh1 @ lp.w1.T
    dx, dg, db = layernorm_bwd(ln_cache, dy)
    grads["ln2_g"] = dg
    grads["ln2_b"] = db
    return dx, grads


def _check_tokens(params: BackboneParams, tokens: np.ndarray, start: int):
    cfg = params.cfg
    if tokens.ndim != 1 or tokens.shape[0] == 0:
        raise InputError(f"expected a non-empty 1-d token sequence, got shape {tokens.shape}")
    if start + tokens.shape[0] > cfg.max_seq_len:
        raise InputError(
            f"sequence length {start + tokens.shape[0]} exceeds max_seq_len {cfg.max_seq_len}")
    if np.minimum.reduce(tokens) < 0 or np.maximum.reduce(tokens) >= cfg.vocab_size:
        raise InputError(f"token id out of vocabulary (size {cfg.vocab_size})")


def encode_with_cache(params: BackboneParams, tokens,
                      memory: SegmentMemory | None = None, backward: bool = True,
                      prefix=None, rows: int | None = None):
    """Returns (H (T, d_model), cache, new SegmentMemory or None).

    With backward False no encode_backward reads this pass: cache is None,
    and each layer's caches are dropped as soon as the layer has used them.

    prefix, the cache of an earlier call on the same segment, continues it:
    tokens take the next positions and attend to its keys and values too, and
    memory is the memory that call returned. Such a cache is forward-only
    (encode_backward cannot read it); it serves as the next call's prefix.

    rows, if set (1..T), keeps only the last `rows` positions of H: the top
    layer runs its queries, attention output, feed-forward and the final
    LayerNorm on those rows alone. Every layer's keys, values and memory
    cover all T positions, so the cache still serves as a prefix; like a
    continued one, it is forward-only.
    """
    tokens = np.asarray(tokens, dtype=np.int64)
    start = prefix[3] if prefix is not None else 0
    _check_tokens(params, tokens, start)
    cfg = params.cfg
    T = tokens.shape[0]
    if rows is not None and not 1 <= rows <= T:
        raise InputError(f"rows must lie in 1..{T}, got {rows}")
    x = params.tok_emb[tokens] + params.pos_emb[start:start + T]
    mems = memory.activations if memory is not None else [
        np.zeros((0, cfg.d_model))] * cfg.n_layers
    if memory is not None and len(mems) != cfg.n_layers:
        raise ShapeError(f"memory has {len(mems)} layers, config wants {cfg.n_layers}")
    kvs = [a[3:5] for a, _ in prefix[1]] if prefix is not None else [None] * cfg.n_layers
    layer_caches = []
    new_mem = []
    for li, lp in enumerate(params.layers):
        if cfg.memory_len:
            new_mem.append(np.vstack([mems[li], x])[-cfg.memory_len:].copy())
        attn, a_cache = _attention(lp, x, mems[li], cfg, kvs[li],
                                   rows if li == cfg.n_layers - 1 else None)
        if not backward:
            a_cache = None  # free the attention weights before the FF allocates
        x = x[-len(attn):] + attn  # the top layer goes on with its query rows
        ff, f_cache = _ff(lp, x)
        x += ff
        if backward:
            layer_caches.append((a_cache, f_cache))
        del f_cache  # held by layer_caches, or freed before the next layer
    H, lnf_cache = layernorm_fwd(x, params.lnf_g, params.lnf_b)
    cache = (tokens, layer_caches, lnf_cache, start + T) if backward else None
    out_mem = SegmentMemory(new_mem) if cfg.memory_len else None
    return H, cache, out_mem


def encode(params: BackboneParams, tokens) -> np.ndarray:
    """Context vectors; h_t depends only on tokens at positions <= t."""
    H, _, _ = encode_with_cache(params, tokens, backward=False)
    return H


def encode_backward(params: BackboneParams, cache, dH):
    """VJP of encode_with_cache. Returns dict key -> gradient array."""
    tokens, layer_caches, lnf_cache, end = cache
    if end != len(tokens) or len(lnf_cache[0]) != end:  # started after 0, or H cut
        raise StateError("encode_backward cannot read a continued segment's cache (prefix=) "
                         "or a cut one (rows=)")
    cfg = params.cfg
    grads = {}
    dx, grads["lnf_g"], grads["lnf_b"] = layernorm_bwd(lnf_cache, dH)
    for li in range(cfg.n_layers - 1, -1, -1):
        a_cache, f_cache = layer_caches[li]
        dff_in, fgrads = _ff_bwd(params.layers[li], f_cache, dx)
        dx1 = dx + dff_in
        dattn_in, agrads = _attention_bwd(params.layers[li], cfg, a_cache, dx1)
        dx = dx1 + dattn_in
        for name, g in {**fgrads, **agrads}.items():
            grads[f"layers.{li}.{name}"] = g
    grads["tok_emb"] = np.zeros_like(params.tok_emb)
    np.add.at(grads["tok_emb"], tokens, dx)
    grads["pos_emb"] = np.zeros_like(params.pos_emb)
    grads["pos_emb"][:tokens.shape[0]] = dx
    return {k: grads[k] for k, _ in params.named()}  # in named() order
