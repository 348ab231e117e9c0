import copy

import numpy as np
import pytest

from fastweight import backbone as bb
from fastweight.numerics import LN_EPS, ConfigError, InputError, StateError


def tiny_config(**kw):
    base = dict(vocab_size=11, d_model=16, n_layers=2, n_heads=4, d_ff=24,
                max_seq_len=32, memory_len=0, seed=5)
    base.update(kw)
    return bb.BackboneConfig(**base)


def test_init_same_seed_bit_identical():
    a = bb.init_backbone(tiny_config())
    b = bb.init_backbone(tiny_config())
    for (ka, va), (kb, vb) in zip(a.named(), b.named()):
        assert ka == kb
        np.testing.assert_array_equal(va, vb)


def test_init_divisibility_error():
    with pytest.raises(ConfigError, match="n_heads"):
        bb.init_backbone(tiny_config(d_model=8, n_heads=3))


def test_init_invalid_count_error():
    with pytest.raises(ConfigError, match="d_ff"):
        bb.init_backbone(tiny_config(d_ff=0))


def test_param_count_matches_hand_count():
    cfg = tiny_config(n_layers=1, vocab_size=7, d_model=4, n_heads=2, d_ff=6,
                      max_seq_len=5)
    params = bb.init_backbone(cfg)
    total = sum(v.size for _, v in params.named())
    # hand count: emb 7*4 + pos 5*4 + [ln1 8, qkv/o weights 4*16 and q/v/o
    # biases 3*4 (no key bias), ln2 8, ff 4*6+6 + 6*4+4] + final ln 8
    hand = 28 + 20 + (8 + 76 + 8 + 30 + 28) + 8
    assert total == hand


def _gelu_closed_form(x):
    return 0.5 * x * (1.0 + np.tanh(np.sqrt(2.0 / np.pi) * (x + 0.044715 * x ** 3)))


def test_gelu_matches_closed_form_and_central_differences():
    x = np.linspace(-10.0, 10.0, 4001)
    y, t = bb.gelu(x)
    np.testing.assert_allclose(y, _gelu_closed_form(x), rtol=1e-13, atol=1e-15)
    dy = bb.gelu_grad(x, t)  # the derivative, from the forward's tanh
    eps = 1e-6
    fd = (_gelu_closed_form(x + eps) - _gelu_closed_form(x - eps)) / (2 * eps)
    np.testing.assert_allclose(dy, fd, rtol=0, atol=1e-8)


def _ln_ref(x, g, b):
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + LN_EPS) * g + b


def _encode_loop_reference(params, tokens, mems):
    """Transformer forward with one explicit softmax per (head, query)."""
    cfg = params.cfg
    hd = cfg.d_model // cfg.n_heads
    T = len(tokens)
    x = params.tok_emb[tokens] + params.pos_emb[:T]
    for lp, mem in zip(params.layers, mems):
        M = mem.shape[0]
        y = _ln_ref(np.vstack([mem, x]), lp.ln1_g, lp.ln1_b)
        q = y[M:] @ lp.wq + lp.bq
        k = y @ lp.wk
        v = y @ lp.wv + lp.bv
        ctx = np.zeros((T, cfg.d_model))
        for h in range(cfg.n_heads):
            cols = slice(h * hd, (h + 1) * hd)
            for t in range(T):
                visible = M + t + 1  # memory plus current positions <= t
                scores = np.array([q[t, cols] @ k[s, cols] for s in range(visible)])
                scores /= np.sqrt(hd)
                p = np.exp(scores - scores.max())
                p /= p.sum()
                ctx[t, cols] = sum(p[s] * v[s, cols] for s in range(visible))
        x = x + ctx @ lp.wo + lp.bo
        y = _ln_ref(x, lp.ln2_g, lp.ln2_b)
        x = x + _gelu_closed_form(y @ lp.w1 + lp.b1) @ lp.w2 + lp.b2
    return _ln_ref(x, params.lnf_g, params.lnf_b)


@pytest.mark.parametrize("memory_len,max_seq_len,sizes", [
    pytest.param(0, 32, (7, 9), id="0"), pytest.param(5, 32, (7, 9), id="5"),
    # T 70 is three 32-row query blocks, the last one partial; memory 45 is
    # not a multiple of the block size either
    pytest.param(0, 96, (96, 70), id="multi-block-0"),
    pytest.param(45, 96, (96, 70), id="multi-block-45")])
def test_encode_matches_per_head_loop_reference(memory_len, max_seq_len, sizes):
    params = bb.init_backbone(tiny_config(memory_len=memory_len, max_seq_len=max_seq_len))
    rng = np.random.default_rng(7)
    seg1 = rng.integers(0, 11, size=sizes[0])
    seg2 = rng.integers(0, 11, size=sizes[1])
    if memory_len:
        _, _, memory = bb.encode_with_cache(params, seg1, None)
        assert all(m.shape[0] == memory_len for m in memory.activations)
        mems = memory.activations
    else:
        memory = None
        mems = [np.zeros((0, params.cfg.d_model))] * params.cfg.n_layers
    H, _, _ = bb.encode_with_cache(params, seg2, memory)
    want = _encode_loop_reference(params, seg2, mems)
    assert np.max(np.abs(H - want)) <= 1e-12


def _memory_of(params, rng):
    """A full SegmentMemory of the config's memory_len, or None without one."""
    cfg = params.cfg
    if not cfg.memory_len:
        return None
    tokens = rng.integers(0, cfg.vocab_size, size=cfg.max_seq_len)
    _, _, memory = bb.encode_with_cache(params, tokens)
    assert all(m.shape[0] == cfg.memory_len for m in memory.activations)
    return memory


@pytest.mark.parametrize("memory_len", [0, 45])
def test_attention_cache_holds_only_the_causal_blocks(memory_len):
    params = bb.init_backbone(tiny_config(memory_len=memory_len, max_seq_len=96))
    rng = np.random.default_rng(9)
    memory = _memory_of(params, rng)
    T, M, h = 70, memory_len, params.cfg.n_heads
    _, cache, _ = bb.encode_with_cache(params, rng.integers(0, 11, size=T), memory)
    # each 32-row query block holds weights over the keys up to its last row
    want = sum(h * (min(i0 + 32, T) - i0) * (M + min(i0 + 32, T)) for i0 in range(0, T, 32))
    assert want < h * T * (M + T)
    for a_cache, _ in cache[1]:
        assert sum(w.size for w in a_cache[5]) == want


def test_multi_block_gradients_match_directional_finite_difference():
    params = bb.init_backbone(tiny_config(memory_len=45, max_seq_len=96))
    rng = np.random.default_rng(10)
    memory = _memory_of(params, rng)
    tokens = rng.integers(0, 11, size=70)
    R = rng.normal(size=(70, 16))
    _, cache, _ = bb.encode_with_cache(params, tokens, memory)
    grads = bb.encode_backward(params, cache, R)

    named = dict(params.named())
    keys = list(named)
    direction = {k: rng.normal(size=named[k].shape) for k in keys}
    analytic = sum(float((grads[k] * direction[k]).sum()) for k in keys)
    eps = 1e-6

    def value(sign):
        trial = copy.deepcopy(params)
        for k, p in trial.named():
            p[...] = named[k] + sign * eps * direction[k]
        return float((bb.encode_with_cache(trial, tokens, memory)[0] * R).sum())

    fd = (value(+1) - value(-1)) / (2 * eps)
    assert abs(analytic - fd) / (abs(fd) + 1e-12) < 1e-4


@pytest.mark.parametrize("memory_len", [0, 3])
def test_forward_only_encode_is_bit_equal_to_the_cached_walk(memory_len):
    params = bb.init_backbone(tiny_config(memory_len=memory_len))
    rng = np.random.default_rng(5)
    memory = None
    for size in (7, 9):  # the second segment reads the first one's memory
        tokens = rng.integers(0, 11, size=size)
        H, cache, want_memory = bb.encode_with_cache(params, tokens, memory)
        H_fwd, no_cache, memory = bb.encode_with_cache(params, tokens, memory,
                                                       backward=False)
        assert cache is not None and no_cache is None
        assert H_fwd.tobytes() == H.tobytes()
        if memory_len:
            for got, want in zip(memory.activations, want_memory.activations):
                assert got.tobytes() == want.tobytes()
        else:
            assert memory is None and want_memory is None


@pytest.mark.parametrize("memory_len,max_seq_len,prefix,step", [
    pytest.param(0, 12, 3, 1, id="0"), pytest.param(5, 12, 3, 1, id="5"),
    # a two-block prefix, stepped on across the third block's start
    pytest.param(0, 96, 40, 1, id="multi-block-0"),
    pytest.param(45, 96, 40, 1, id="multi-block-45"),
    # 30 positions in one call after a 40-position prefix, across the 64-row
    # block boundary, then the last 26 in another
    pytest.param(0, 96, 40, 30, id="several-0"), pytest.param(45, 96, 40, 30, id="several-45")])
def test_encode_next_matches_encode_with_cache_rows(memory_len, max_seq_len, prefix, step):
    # a segment encoded as a prefix and then continued `step` positions at a
    # time (prefix=cache) gives the rows of one call on the whole segment,
    # and its memory
    params = bb.init_backbone(tiny_config(memory_len=memory_len, max_seq_len=max_seq_len))
    rng = np.random.default_rng(3)
    _, _, memory = bb.encode_with_cache(params, rng.integers(0, 11, size=max_seq_len))
    seg = rng.integers(0, 11, size=max_seq_len)
    H, _, want_memory = bb.encode_with_cache(params, seg, memory)
    rows, cache, memory = bb.encode_with_cache(params, seg[:prefix], memory)
    rows = list(rows)
    for pos in range(prefix, max_seq_len, step):
        h, cache, memory = bb.encode_with_cache(params, seg[pos:pos + step], memory,
                                                prefix=cache)
        rows.extend(h)
    assert np.max(np.abs(np.array(rows) - H)) <= 1e-12
    if memory_len:
        for got, want in zip(memory.activations, want_memory.activations):
            assert got.shape == want.shape and np.max(np.abs(got - want)) <= 1e-12
    else:
        assert memory is None
    with pytest.raises(InputError):
        bb.encode_with_cache(params, [0], memory, prefix=cache)  # past max_seq_len


@pytest.mark.parametrize("memory_len", [0, 5])
def test_encode_backward_rejects_a_continued_cache(memory_len):
    # a cache built with prefix= holds only its own positions' layers, so its
    # VJP is a StateError, not a shape error deep inside numpy
    params = bb.init_backbone(tiny_config(memory_len=memory_len))
    seg = np.random.default_rng(7).integers(0, 11, size=6)
    H, cache, memory = bb.encode_with_cache(params, seg[:4])
    assert bb.encode_backward(params, cache, np.ones_like(H))["tok_emb"].any()
    H, cache, _ = bb.encode_with_cache(params, seg[4:], memory, prefix=cache)
    with pytest.raises(StateError, match="continued segment"):
        bb.encode_backward(params, cache, np.ones_like(H))


@pytest.mark.parametrize("rows", [1, 40])
@pytest.mark.parametrize("memory_len", [0, 45])
def test_cut_encode_keeps_the_last_rows_and_continues(memory_len, rows):
    # rows= keeps H's last rows of a 70-position prefix (three query blocks
    # in every layer but the top one), and its cache continues the segment
    # as the whole call does: every layer's keys, values and memory are whole
    params = bb.init_backbone(tiny_config(memory_len=memory_len, max_seq_len=96))
    rng = np.random.default_rng(11)
    memory = _memory_of(params, rng)
    seg = rng.integers(0, 11, size=96)
    H, _, want_memory = bb.encode_with_cache(params, seg, memory)
    cut, cache, memory = bb.encode_with_cache(params, seg[:70], memory, rows=rows)
    assert cut.shape == (rows, 16) and np.max(np.abs(cut - H[70 - rows:70])) <= 1e-12
    for pos in range(70, 96):
        h, cache, memory = bb.encode_with_cache(params, seg[pos:pos + 1], memory,
                                                prefix=cache)
        assert np.max(np.abs(h - H[pos:pos + 1])) <= 1e-12
    if memory_len:
        for got, want in zip(memory.activations, want_memory.activations):
            assert got.shape == want.shape and np.max(np.abs(got - want)) <= 1e-12


def test_encode_with_every_row_is_the_whole_call():
    params = bb.init_backbone(tiny_config())
    tokens = np.random.default_rng(13).integers(0, 11, size=9)
    H, cache, _ = bb.encode_with_cache(params, tokens)
    H_all, cache_all, _ = bb.encode_with_cache(params, tokens, rows=9)
    assert H_all.tobytes() == H.tobytes()
    dH = np.ones_like(H)
    for key, g in bb.encode_backward(params, cache_all, dH).items():
        assert g.tobytes() == bb.encode_backward(params, cache, dH)[key].tobytes(), key


@pytest.mark.parametrize("rows", [0, 10])
def test_encode_rejects_rows_outside_the_segment(rows):
    params = bb.init_backbone(tiny_config())
    with pytest.raises(InputError, match="rows"):
        bb.encode_with_cache(params, np.arange(9) % 11, rows=rows)


@pytest.mark.parametrize("memory_len", [0, 5])
def test_encode_backward_rejects_a_cut_cache(memory_len):
    # a cut cache holds the top layer's rows it kept, not the segment's
    params = bb.init_backbone(tiny_config(memory_len=memory_len))
    H, cache, _ = bb.encode_with_cache(params, np.arange(6) % 11, rows=2)
    with pytest.raises(StateError, match="cut"):
        bb.encode_backward(params, cache, np.ones_like(H))


def test_encode_causality_bit_exact():
    params = bb.init_backbone(tiny_config())
    rng = np.random.default_rng(0)
    tokens = rng.integers(0, 11, size=12)
    H = bb.encode(params, tokens)
    changed = tokens.copy()
    changed[8] = (changed[8] + 3) % 11
    H2 = bb.encode(params, changed)
    np.testing.assert_array_equal(H[:8], H2[:8])
    assert not np.array_equal(H[8:], H2[8:])


def test_encode_single_token():
    params = bb.init_backbone(tiny_config())
    H = bb.encode(params, np.array([3]))
    assert H.shape == (1, 16)


def test_encode_finite_on_random_input():
    params = bb.init_backbone(tiny_config(max_seq_len=64))
    tokens = np.random.default_rng(1).integers(0, 11, size=64)
    assert np.all(np.isfinite(bb.encode(params, tokens)))


def test_encode_rejects_overlong_and_oov():
    params = bb.init_backbone(tiny_config(max_seq_len=4))
    with pytest.raises(InputError):
        bb.encode(params, np.zeros(5, dtype=int))
    with pytest.raises(InputError):
        bb.encode(params, np.array([0, 11]))


@pytest.mark.parametrize("token", [-1, 11])
def test_continued_encode_rejects_a_token_outside_the_vocabulary(token):
    # the one-token continuation that generation runs checks its token too
    params = bb.init_backbone(tiny_config())
    _, cache, _ = bb.encode_with_cache(params, [1, 2, 3])
    with pytest.raises(InputError, match="vocabulary"):
        bb.encode_with_cache(params, [token], prefix=cache)


def test_gradients_match_directional_finite_difference():
    params = bb.init_backbone(tiny_config())
    rng = np.random.default_rng(2)
    tokens = rng.integers(0, 11, size=9)
    R = rng.normal(size=(9, 16))

    H, cache, _ = bb.encode_with_cache(params, tokens)
    grads = bb.encode_backward(params, cache, R)

    named = dict(params.named())
    keys = list(named)
    direction = {k: rng.normal(size=named[k].shape) for k in keys}
    analytic = sum(float((grads[k] * direction[k]).sum()) for k in keys)

    eps = 1e-6
    def value(sign):
        trial = copy.deepcopy(params)
        for k, p in trial.named():
            p[...] = named[k] + sign * eps * direction[k]
        return float((bb.encode(trial, tokens) * R).sum())

    fd = (value(+1) - value(-1)) / (2 * eps)
    assert abs(analytic - fd) / (abs(fd) + 1e-12) < 1e-4


def test_gradients_per_tensor_finite_difference():
    params = bb.init_backbone(tiny_config(n_layers=1, d_model=8, n_heads=2, d_ff=12))
    rng = np.random.default_rng(3)
    tokens = rng.integers(0, 11, size=6)
    R = rng.normal(size=(6, 8))
    H, cache, _ = bb.encode_with_cache(params, tokens)
    grads = bb.encode_backward(params, cache, R)
    eps = 1e-6
    named = dict(params.named())
    for key in ("layers.0.wq", "layers.0.w2", "layers.0.ln1_g", "lnf_b", "pos_emb"):
        base = named[key]
        fd = np.zeros_like(base)
        flat_fd = fd.reshape(-1)
        flat = base.reshape(-1)
        idx = rng.choice(flat.size, size=min(12, flat.size), replace=False)
        for i in idx:
            orig = flat[i]
            flat[i] = orig + eps
            hi = float((bb.encode(params, tokens) * R).sum())
            flat[i] = orig - eps
            lo = float((bb.encode(params, tokens) * R).sum())
            flat[i] = orig
            flat_fd[i] = (hi - lo) / (2 * eps)
        got = grads[key].reshape(-1)[idx]
        want = flat_fd.reshape(-1)[idx]
        np.testing.assert_allclose(got, want, rtol=1e-4, atol=1e-8, err_msg=key)


def test_segment_memory_changes_output():
    params = bb.init_backbone(tiny_config(memory_len=8))
    rng = np.random.default_rng(5)
    seg1 = rng.integers(0, 11, size=8)
    seg2 = rng.integers(0, 11, size=8)
    _, _, mem = bb.encode_with_cache(params, seg1, None)
    H_with, _, _ = bb.encode_with_cache(params, seg2, mem)
    H_without = bb.encode(params, seg2)
    assert not np.allclose(H_with, H_without)


def test_segment_memory_stop_gradient():
    # analytic gradient with memory held constant == finite difference with
    # memory held constant; and the memory itself receives no gradient
    params = bb.init_backbone(tiny_config(memory_len=6))
    rng = np.random.default_rng(6)
    seg1 = rng.integers(0, 11, size=6)
    seg2 = rng.integers(0, 11, size=7)
    _, _, mem = bb.encode_with_cache(params, seg1, None)
    R = rng.normal(size=(7, 16))

    H, cache, _ = bb.encode_with_cache(params, seg2, mem)
    grads = bb.encode_backward(params, cache, R)

    named = dict(params.named())
    keys = list(named)
    direction = {k: rng.normal(size=named[k].shape) for k in keys}
    analytic = sum(float((grads[k] * direction[k]).sum()) for k in keys)
    eps = 1e-6

    def value(sign):
        trial = copy.deepcopy(params)
        for k, p in trial.named():
            p[...] = named[k] + sign * eps * direction[k]
        H2, _, _ = bb.encode_with_cache(trial, seg2, mem)  # mem fixed
        return float((H2 * R).sum())

    fd = (value(+1) - value(-1)) / (2 * eps)
    assert abs(analytic - fd) / (abs(fd) + 1e-12) < 1e-4
