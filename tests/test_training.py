import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fastweight import backbone as bb
from fastweight import harness as hn
from fastweight import head as hd
from fastweight import linear_attention as la
from fastweight import numerics as nm
from fastweight import oracle
from fastweight import training as tr
from fastweight.checkpoint import CheckpointData, load_checkpoint, save_checkpoint
from fastweight.corpus import Corpus, corpus_from_text, make_entity_corpus
from reference_tools import directional_derivative_check


def tiny_model(mask=hd.MASK_ALL, seed=0, vocab=5, d_model=8, n_layers=2,
               memory_len=0, d_hidden=6):
    cfg = tr.ModelConfig(
        backbone=bb.BackboneConfig(vocab_size=vocab, d_model=d_model,
                                   n_layers=n_layers, n_heads=2, d_ff=12,
                                   max_seq_len=16, memory_len=memory_len,
                                   seed=seed),
        d_hidden=d_hidden, mask=mask, chunk_size=4)
    model = tr.init_model(cfg)
    # move step sizes off their tiny init so every path carries signal
    rng = np.random.default_rng(seed + 77)
    for n in hd.TENSOR_NAMES:
        model.alpha[n] = np.float64(rng.uniform(0.01, 0.05) * rng.choice([-1.0, 1.0]))
    return model


def tiny_batch(model, T=8, n_seqs=2, seed=1):
    rng = np.random.default_rng(seed)
    vocab = model.config.backbone.vocab_size
    batch = []
    for _ in range(n_seqs):
        toks = rng.integers(0, vocab, size=T + 1)
        batch.append((toks[:-1], toks[1:]))
    return batch


def test_slow_only_reduces_to_plain_lm():
    model = tiny_model()
    batch = tiny_batch(model, T=2, n_seqs=1)
    cfg = tr.TrainConfig(mode="slow-only")
    loss, grads, _ = tr.batch_loss_and_grads(model, batch, cfg)
    tokens, targets = batch[0]
    H = bb.encode(model.backbone, tokens)
    _, losses = hd.slow_forward(model.head, H, targets)
    assert loss == pytest.approx(float(losses.mean()))
    # slow-only trains no step size or decay, so it returns no gradient for one
    assert not [k for k in grads if k.startswith(("alpha.", "gamma."))]


def test_slow_only_gradients_match_finite_difference():
    model = tiny_model()
    batch = tiny_batch(model, T=6)
    cfg = tr.TrainConfig(mode="slow-only")
    err = directional_derivative_check(model, batch, cfg, n_directions=3, seed=3)
    assert err < 1e-5


def test_full_mode_second_order_gradients_match_finite_difference():
    model = tiny_model()
    batch = tiny_batch(model, T=8)
    cfg = tr.TrainConfig(mode="full")
    err = directional_derivative_check(model, batch, cfg, n_directions=4, seed=4)
    assert err < 1e-4


def test_full_mode_runs_one_kernel_and_one_vjp_per_matrix(monkeypatch):
    # the fast pass runs the chunked kernel once per fast matrix (U, W, E) and
    # the head's fast VJP one walk per matrix, which calls no kernel
    model = tiny_model()
    (tokens, targets), = tiny_batch(model, T=9, n_seqs=1)
    calls = []
    for mod, name in ((la, "chunked_causal_linear_attention"),
                      (tr, "causal_linear_attention_vjp")):
        fn = getattr(mod, name)
        monkeypatch.setattr(mod, name,
                            lambda *a, fn=fn, name=name, **k: calls.append(name) or fn(*a, **k))
    tr.sequence_loss_and_grads(model, tokens, targets, "full")
    assert sorted(calls) == (["causal_linear_attention_vjp"] * 3
                             + ["chunked_causal_linear_attention"] * 3)


@pytest.mark.parametrize("mask", [hd.MASK_BIAS_ONLY, hd.MASK_VECTORS,
                                  hd.MASK_MATRICES, ("U", "c"), ("E",)])
def test_full_mode_gradients_every_mask(mask):
    model = tiny_model(mask=mask, seed=11)
    batch = tiny_batch(model, T=7, n_seqs=1, seed=12)
    cfg = tr.TrainConfig(mode="full")
    err = directional_derivative_check(model, batch, cfg, n_directions=3, seed=5)
    assert err < 1e-4


def test_streaming_gradients_match_finite_difference_with_gamma():
    model = tiny_model(memory_len=6, seed=2)
    cfg = tr.TrainConfig(mode="full", streaming=True)
    rng = np.random.default_rng(9)
    vocab = model.config.backbone.vocab_size

    # build a carry by running two segments first, so that both the state the
    # last one read (which gamma decays) and its pending sums are nonzero
    toks0 = rng.integers(0, vocab, size=9)
    carry = tr.StreamCarry.fresh(model)
    for _ in range(2):
        carry = tr.sequence_loss_and_grads(model, toks0[:-1], toks0[1:], "full",
                                           carry=carry).carry
    assert carry is not None
    assert any(np.abs(v).sum() > 0 for v in carry.pending.values())
    assert any(np.abs(v).sum() > 0 for v in carry.delta_prev.values())

    batch = tiny_batch(model, T=8, n_seqs=1, seed=13)
    err = directional_derivative_check(model, batch, cfg, n_directions=4, seed=6,
                                       carries=[carry])
    assert err < 1e-4


def test_streaming_gamma_gradient_is_nonzero():
    model = tiny_model(memory_len=6, seed=21)
    rng = np.random.default_rng(31)
    vocab = model.config.backbone.vocab_size
    toks0 = rng.integers(0, vocab, size=9)
    res = tr.sequence_loss_and_grads(model, toks0[:-1], toks0[1:], "full",
                                     carry=tr.StreamCarry.fresh(model))
    carry = res.carry
    # second segment: delta_prev is now nonzero so gamma has a live path
    carry2 = tr.sequence_loss_and_grads(model, toks0[:-1], toks0[1:], "full",
                                        carry=carry).carry
    toks = rng.integers(0, vocab, size=8)
    res2 = tr.sequence_loss_and_grads(model, toks[:-1], toks[1:], "full",
                                      carry=carry2)
    gnorm = sum(abs(float(res2.grads[f"gamma.{n}"])) for n in model.mask)
    assert gnorm > 0


@pytest.mark.parametrize("T, d, m, vocab, w", [(1, 4, 3, 5, 1.0), (7, 8, 6, 11, 0.25),
                                               (33, 16, 12, 9, 1 / 33)])
def test_empty_mask_fast_vjp_is_the_slow_vjp(T, d, m, vocab, w):
    # with no fast tensors the fast pass is the slow one, and so is its reverse
    rng = np.random.default_rng(T)
    head = hd.init_head(d, m, vocab, seed=T)
    for _, t in head.named():
        t += 0.3 * rng.normal(size=t.shape)
    H = rng.normal(size=(T, d))
    tape, _ = hd.slow_forward(head, H, rng.integers(0, vocab, size=T))
    steps = {}
    grads = hd.per_position_grads(head, tape)
    fast = hd.fast_forward(head, steps, H, tape, grads, chunk_size=4)
    dhead, dalpha, ddelta, dH = tr.head_fast_vjp(head, steps, H, tape, grads, fast,
                                                 None, 4, w)
    dhead_slow, dH_slow = tr.head_slow_vjp(head, tape, w)
    assert dalpha == {} and ddelta == {}
    for name in hd.TENSOR_NAMES:
        assert np.array_equal(dhead[name], dhead_slow[name]), name
    assert np.array_equal(dH, dH_slow)
    # at w = 1 the slow VJP is the per-position rows, summed
    dhead_one, dH_one = tr.head_slow_vjp(head, tape, 1.0)
    sums = hd.segment_grad_sums(tape, grads, hd.TENSOR_NAMES)
    for name in hd.TENSOR_NAMES:
        assert np.array_equal(dhead_one[name], sums[name]), name
    assert np.array_equal(dH_one, grads.g_z @ head.U.T)


def test_fast_vjp_matches_central_differences():
    # every tensor fast, a carried stream state, a LayerNorm gain away from 1
    # and w != 1, so each path of the second-order tail carries signal
    rng = np.random.default_rng(5)
    T, d, m, vocab, w = 9, 5, 6, 7, 0.3
    head = hd.init_head(d, m, vocab, seed=5)
    for _, t in head.named():
        t += 0.3 * rng.normal(size=t.shape)
    H = rng.normal(size=(T, d))
    targets = rng.integers(0, vocab, size=T)
    steps = {n: float(a) for n, a in zip(hd.TENSOR_NAMES, rng.uniform(-0.3, 0.3, 8))}
    state = {n: 0.3 * rng.normal(size=t.shape) for n, t in head.named()}

    def passes():
        tape, _ = hd.slow_forward(head, H, targets)
        grads = hd.per_position_grads(head, tape)
        return tape, grads, hd.fast_forward(head, steps, H, tape, grads, state, chunk_size=4)

    def objective(_):  # finite_diff_grad perturbs the array in place
        return w * float(passes()[2].losses.sum())

    def step_objective(name):
        def f(x):
            steps[name] = float(x[0])
            return objective(x)
        return f

    dhead, dalpha, ddelta, dH = tr.head_fast_vjp(head, steps, H, *passes(), state, 4, w)
    checks = [(f"head.{n}", dhead[n], nm.finite_diff_grad(objective, t)) for n, t in head.named()]
    checks.append(("H", dH, nm.finite_diff_grad(objective, H)))
    for n in hd.TENSOR_NAMES:
        checks.append((f"delta.{n}", ddelta[n], nm.finite_diff_grad(objective, state[n])))
        alpha = steps[n]
        checks.append((f"alpha.{n}", dalpha[n],
                       nm.finite_diff_grad(step_objective(n), np.array([alpha]))[0]))
        steps[n] = alpha
    for name, analytic, fd in checks:
        err = np.abs(analytic - fd).max() / np.abs(fd).max()
        assert err < 1e-6, (name, err)


def test_alpha_gradient_present_only_for_masked_tensors():
    model = tiny_model(mask=("W",), seed=14)
    batch = tiny_batch(model, T=8, seed=15)
    cfg = tr.TrainConfig(mode="full")
    _, grads, _ = tr.batch_loss_and_grads(model, batch, cfg)
    assert abs(float(grads["alpha.W"])) > 0
    assert "alpha.U" not in grads


def test_adam_zero_gradient_keeps_params():
    model = tiny_model()
    params = dict(model.named_params())
    grads = {k: np.zeros_like(v) for k, v in params.items()}
    cfg = tr.TrainConfig()
    new_params, state = tr.adam_update(params, grads, tr.zero_opt_state(model), cfg)
    for k in params:
        np.testing.assert_array_equal(new_params[k], params[k])
    assert state["t"] == 1


def test_adam_first_step_size():
    cfg = tr.TrainConfig(learning_rate=0.01, clip_norm=1e9)
    params = {"w": np.array([1.0, 2.0])}
    grads = {"w": np.array([1.0, 1.0])}
    state = {"m": {"w": np.zeros(2)}, "v": {"w": np.zeros(2)}, "t": 0}
    new_params, _ = tr.adam_update(params, grads, state, cfg)
    np.testing.assert_allclose(new_params["w"], params["w"] - 0.01, rtol=1e-6)


def test_train_step_determinism():
    runs = []
    for _ in range(2):
        model = tiny_model(seed=5)
        batch = tiny_batch(model, T=8, seed=6)
        cfg = tr.TrainConfig(mode="full", learning_rate=1e-2)
        opt = None
        losses = []
        for _ in range(3):
            m, opt, _ = tr.train_step(model, batch, cfg, opt)
            losses.append(m.loss)
        runs.append(losses)
    assert runs[0] == runs[1]


def _full_mode_opt_state(model, seed):
    """Adam state after one full-mode step on a copy: nonzero moments for
    every parameter, as when a fwl-finetune or slow-only run resumes from a
    full-mode checkpoint."""
    warm = model.copy()
    _, opt, _ = tr.train_step(warm, tiny_batch(warm, T=8, seed=seed),
                              tr.TrainConfig(mode="full", learning_rate=1e-2))
    return opt


@pytest.mark.parametrize("case", ["fresh", "weight_decay", "resumed_full_state"])
def test_fwl_finetune_freezes_backbone(case):
    model = tiny_model(seed=16)
    opt = _full_mode_opt_state(model, 18) if case == "resumed_full_state" else None
    before = {k: np.array(v) for k, v in model.backbone.named()}
    batch = tiny_batch(model, T=8, seed=17)
    cfg = tr.TrainConfig(mode="fwl-finetune", learning_rate=1e-2,
                         weight_decay=0.1 if case == "weight_decay" else 0.0)
    _, new_opt, _ = tr.train_step(model, batch, cfg, opt)
    for k, v in model.backbone.named():
        np.testing.assert_array_equal(before[k], v)
        if opt is not None:  # frozen moments are carried, not decayed
            np.testing.assert_array_equal(new_opt["m"][f"bb.{k}"], opt["m"][f"bb.{k}"])
            np.testing.assert_array_equal(new_opt["v"][f"bb.{k}"], opt["v"][f"bb.{k}"])
    # head did move
    assert not np.array_equal(model.head.c, np.zeros_like(model.head.c))


@pytest.mark.parametrize("case", ["fresh", "resumed_full_state"])
def test_slow_only_freezes_step_sizes_and_decays(case):
    model = tiny_model(seed=22)
    opt = _full_mode_opt_state(model, 23) if case == "resumed_full_state" else None
    keys = [k for k, _ in model.named_params() if k.startswith(("alpha.", "gamma."))]
    before = {k: np.array(model.get(k)) for k in keys}
    cfg = tr.TrainConfig(mode="slow-only", learning_rate=1e-2)
    tr.train_step(model, tiny_batch(model, T=8, seed=24), cfg, opt)
    for k in keys:
        np.testing.assert_array_equal(before[k], model.get(k))


def test_full_batch_loss_monotone_under_exact_gradient_descent():
    # plain full-batch descent: the exact gradient must decrease the loss at
    # every one of >= 50 steps. The surface is sharp (LayerNorm over 0.02-scale
    # embeddings), so the step has to be genuinely small.
    from fastweight.corpus import corpus_from_text, make_entity_corpus
    corpus = corpus_from_text(make_entity_corpus(6, seed=40, sentences_per_doc=6),
                              "word")
    mcfg = tr.ModelConfig(
        backbone=bb.BackboneConfig(vocab_size=corpus.vocab_size, d_model=8,
                                   n_layers=2, n_heads=2, d_ff=12,
                                   max_seq_len=24, seed=18),
        d_hidden=6, chunk_size=8)
    model = tr.init_model(mcfg)
    batch = tr.make_windows(corpus.documents, 20)[:3]
    cfg = tr.TrainConfig(mode="full")
    lr = 2e-5
    losses = []
    for _ in range(55):
        loss, grads, _ = tr.batch_loss_and_grads(model, batch, cfg)
        losses.append(loss)
        for k, _ in model.named_params():
            model.set(k, model.get(k) - lr * np.asarray(grads[k]))
    assert all(b < a for a, b in zip(losses, losses[1:]))
    assert losses[-1] < losses[0]


def test_adam_training_reduces_loss():
    model = tiny_model(seed=28, vocab=7)
    batch = tiny_batch(model, T=10, n_seqs=2, seed=29)
    cfg = tr.TrainConfig(mode="full", learning_rate=5e-3, warmup_steps=0,
                         clip_norm=1e9)
    opt = None
    losses = []
    for _ in range(30):
        m, opt, _ = tr.train_step(model, batch, cfg, opt)
        losses.append(m.loss)
    assert losses[-1] < losses[0]


def test_checkpoint_round_trip_bit_exact(tmp_path):
    model = tiny_model(seed=20)
    batch = tiny_batch(model, T=8, seed=21)
    cfg = tr.TrainConfig(mode="full", learning_rate=1e-2)
    _, opt, _ = tr.train_step(model, batch, cfg)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model, cfg, opt, 1, None)
    snap = load_checkpoint(path)
    for (ka, va), (kb, vb) in zip(model.named_params(), snap.model.named_params()):
        assert ka == kb
        np.testing.assert_array_equal(va, vb)
    assert snap.step == 1
    for k, v in opt["m"].items():
        np.testing.assert_array_equal(snap.opt_state["m"][k], v)


def test_fit_reduces_loss_and_resumes_exactly(tmp_path):
    text = make_entity_corpus(30, seed=0)
    corpus = corpus_from_text(text, "word")
    mc = tr.ModelConfig(
        backbone=bb.BackboneConfig(vocab_size=corpus.vocab_size, d_model=16,
                                   n_layers=1, n_heads=2, d_ff=32,
                                   max_seq_len=32, seed=1),
        d_hidden=16, chunk_size=16)
    cfg = tr.TrainConfig(mode="full", total_steps=12, batch_size=2, seq_len=24,
                         learning_rate=3e-3, warmup_steps=2, eval_every=6, seed=4)
    out_a = tmp_path / "a"
    res = tr.fit(corpus, cfg, mc, out_dir=out_a)
    with open(res.metrics_path) as fh:
        lines = fh.readlines()
    assert len(lines) == 12
    import json
    first, last = json.loads(lines[0]), json.loads(lines[-1])
    assert last["loss"] < first["loss"]

    # resume from halfway reproduces the final metrics
    cfg_half = tr.TrainConfig(**{**cfg.__dict__, "total_steps": 6})
    out_b = tmp_path / "b"
    tr.fit(corpus, cfg_half, mc, out_dir=out_b)
    out_c = tmp_path / "c"
    res_c = tr.fit(corpus, cfg, mc, out_dir=out_c,
                   resume_from=str(out_b / "final.ckpt"))
    import itertools
    with open(res_c.metrics_path) as fh:
        lines_c = [json.loads(l) for l in fh]
    full = [json.loads(l) for l in lines]
    assert lines_c[-1]["step"] == full[-1]["step"]
    assert abs(lines_c[-1]["loss"] - full[-1]["loss"]) < 1e-10
    for (ka, va), (kb, vb) in zip(res.model.named_params(), res_c.model.named_params()):
        np.testing.assert_allclose(va, vb, atol=1e-10, err_msg=ka)


def test_fit_records_the_decays(tmp_path):
    # streaming trains gamma, so the decays each metrics record holds move
    corpus = corpus_from_text(make_entity_corpus(8, seed=2), "word")
    mc = tr.ModelConfig(
        backbone=bb.BackboneConfig(vocab_size=corpus.vocab_size, d_model=8,
                                   n_layers=1, n_heads=2, d_ff=16,
                                   max_seq_len=16, seed=2),
        d_hidden=8, chunk_size=8)
    cfg = tr.TrainConfig(mode="full", streaming=True, total_steps=4, batch_size=2,
                         seq_len=16, warmup_steps=0, eval_every=4, seed=2)
    res = tr.fit(corpus, cfg, mc, out_dir=tmp_path)
    import json
    with open(res.metrics_path) as fh:
        records = [json.loads(line) for line in fh]
    snap = load_checkpoint(res.final_path)
    final = {n: float(tr.sigmoid(g)) for n, g in snap.model.gamma_raw.items()}
    assert records[-1]["gammas"] == final
    assert records[-1]["gammas"] != records[0]["gammas"]


@settings(max_examples=200, deadline=None)
@given(n=st.integers(0, 80), seq_len=st.integers(1, 24))
def test_doc_segments_cover_each_prediction_once(n, seq_len):
    doc = np.arange(n) + 100  # distinct tokens: a token names its position
    segments = tr.make_windows([doc], seq_len)
    predicted = [int(t) - 100 for _, targets in segments for t in targets]
    assert predicted == list(range(1, n))
    for tokens, targets in segments:
        assert 1 <= len(tokens) == len(targets) <= seq_len
        np.testing.assert_array_equal(tokens + 1, targets)


@pytest.mark.parametrize("mode", ["slow-only", "full"])
def test_fit_dev_nll_scores_each_window_as_its_own_stream(mode):
    # the dev NLL resets fast state and backbone memory at every seq_len
    # window, so it matches the oracle window by window and differs from
    # scoring the same document as one threaded stream
    corpus = corpus_from_text(make_entity_corpus(10, seed=8), "word")
    tok = corpus.tokenizer
    seq_len = 16
    dev_doc = np.concatenate(corpus.documents[-3:])
    assert len(dev_doc) - 1 > 2 * seq_len
    mc = tr.ModelConfig(
        backbone=bb.BackboneConfig(vocab_size=corpus.vocab_size, d_model=8,
                                   n_layers=1, n_heads=2, d_ff=16, max_seq_len=16,
                                   memory_len=8, seed=2),
        d_hidden=8, chunk_size=4)
    cfg = tr.TrainConfig(mode=mode, total_steps=1, batch_size=2, seq_len=seq_len,
                         eval_every=1, seed=3)
    res = tr.fit(Corpus(corpus.documents[:-3], tok), cfg, mc,
                 dev_corpus=Corpus([dev_doc], tok))
    model = res.model
    steps = model.step_sizes() if mode == "full" else {}
    ref = []
    for s in range(0, len(dev_doc) - 1, seq_len):
        window = dev_doc[s:s + seq_len + 1]
        H = bb.encode(model.backbone, window[:-1])
        ref.append(oracle.sequential_fast_forward(model.head, steps, H, window[1:]))
    ref_nll = float(np.concatenate(ref).mean())
    assert abs(res.best_dev_nll - ref_nll) <= 1e-9
    threaded = hn.score(CheckpointData(model, None, tok, None, 0), Corpus([dev_doc], tok),
                        "baseline" if mode == "slow-only" else "fwl", seq_len=seq_len)
    assert abs(float(threaded.nll_docs[0].mean()) - ref_nll) > 1e-6


def test_failed_checkpoint_overwrite_keeps_the_old_file(tmp_path, monkeypatch):
    import fastweight.checkpoint as ck
    model = tiny_model(seed=30)
    path = tmp_path / "best.ckpt"
    save_checkpoint(path, model, None, None, 1, None)
    old_bytes = path.read_bytes()
    saved = {k: np.array(v) for k, v in model.named_params()}

    written = []

    def failing_write(f, name, arr):
        if len(written) == 5:
            raise OSError("disk full")
        written.append(name)
        real_write(f, name, arr)

    real_write = ck._write_tensor
    monkeypatch.setattr(ck, "_write_tensor", failing_write)
    model.head.c = model.head.c + 1.0
    with pytest.raises(OSError, match="cannot write checkpoint"):
        save_checkpoint(path, model, None, None, 2, None)
    monkeypatch.undo()

    assert path.read_bytes() == old_bytes
    assert sorted(p.name for p in tmp_path.iterdir()) == ["best.ckpt"]
    snap = load_checkpoint(path)
    assert snap.step == 1
    for k, v in snap.model.named_params():
        assert v.tobytes() == saved[k].tobytes()
