import dataclasses

import numpy as np
import pytest

from fastweight import backbone as bb
from fastweight import harness as hn
from fastweight import head as hd
from fastweight import oracle
from fastweight import training as tr
from fastweight.checkpoint import CheckpointData
from fastweight.corpus import Corpus, TokenizerSpec, corpus_from_text, make_entity_corpus
from fastweight.numerics import ConfigError, NumericalError


@pytest.fixture(scope="module")
def small_ckpt():
    text = make_entity_corpus(12, seed=1)
    corpus = corpus_from_text(text, "word")
    mcfg = tr.ModelConfig(
        backbone=bb.BackboneConfig(vocab_size=corpus.vocab_size, d_model=16,
                                   n_layers=1, n_heads=2, d_ff=24,
                                   max_seq_len=24, seed=3),
        d_hidden=12, chunk_size=8)
    model = tr.init_model(mcfg)
    return CheckpointData(model, None, corpus.tokenizer, None, 0), corpus


def test_score_zero_alpha_equals_baseline(small_ckpt):
    ckpt, corpus = small_ckpt
    model = ckpt.model.copy()
    for n in hd.TENSOR_NAMES:
        model.alpha[n][...] = 0.0
    zero_ckpt = CheckpointData(model, None, ckpt.tokenizer, None, 0)
    base = hn.score(zero_ckpt, corpus, "baseline")
    fwl = hn.score(zero_ckpt, corpus, "fwl")
    assert abs(base.perplexity - fwl.perplexity) < 1e-12
    for a, b in zip(base.nll_docs, fwl.nll_docs):
        np.testing.assert_allclose(a, b, atol=1e-15)


def test_score_uniform_random_corpus_near_vocab_size():
    # a head whose output layer is zero predicts the uniform distribution, the
    # optimum for uniform random tokens: every variant lands at ppl ~ vocab
    rng = np.random.default_rng(0)
    vocab = 7
    docs = [rng.integers(0, vocab, size=400) for _ in range(3)]
    from fastweight.corpus import TokenizerSpec
    tok = TokenizerSpec("word", [f"w{i}" for i in range(vocab)])
    corpus = Corpus(docs, tok)
    mcfg = tr.ModelConfig(
        backbone=bb.BackboneConfig(vocab_size=vocab, d_model=8, n_layers=1,
                                   n_heads=2, d_ff=16, max_seq_len=32, seed=0),
        d_hidden=8, chunk_size=8)
    model = tr.init_model(mcfg)
    model.head.E[...] = 0.0
    model.head.c[...] = 0.0
    ckpt = CheckpointData(model, None, tok, None, 0)
    assert hn.score(ckpt, corpus, "baseline").perplexity == pytest.approx(vocab, rel=1e-9)
    assert hn.score(ckpt, corpus, "fwl").perplexity == pytest.approx(vocab, rel=0.05)
    assert hn.score(ckpt, corpus, "test-time-only",
                    global_step=0.01).perplexity == pytest.approx(vocab, rel=0.05)


def test_score_document_order_independence(small_ckpt):
    ckpt, corpus = small_ckpt
    res = hn.score(ckpt, corpus, "fwl")
    permuted = Corpus(list(reversed(corpus.documents)), corpus.tokenizer)
    res_p = hn.score(ckpt, permuted, "fwl")
    for a, b in zip(res.nll_docs, reversed(res_p.nll_docs)):
        np.testing.assert_array_equal(a, b)


def test_score_long_document_streams_segments(small_ckpt):
    ckpt, corpus = small_ckpt
    long_doc = np.concatenate(corpus.documents[:3])
    assert len(long_doc) > ckpt.model.config.backbone.max_seq_len
    one = Corpus([long_doc], corpus.tokenizer)
    res = hn.score(ckpt, one, "fwl")
    assert res.nll_docs[0].shape == (len(long_doc) - 1,)
    assert np.all(np.isfinite(res.nll_docs[0]))


def test_score_threads_fast_state_across_segments(small_ckpt):
    # with every decay exactly 1, a document scored in segments is one
    # sequential fast pass over its segments' context vectors
    ckpt, corpus = small_ckpt
    model = ckpt.model.copy()
    for n in model.mask:
        model.gamma_raw[n][...] = 40.0  # the sigmoid rounds to 1.0
    assert all(g == 1.0 for g in model.gammas().values())
    doc = np.concatenate(corpus.documents[:3])
    seq_len = model.config.backbone.max_seq_len
    assert len(doc) - 1 > 2 * seq_len
    res = hn.score(CheckpointData(model, None, ckpt.tokenizer, None, 0),
                   Corpus([doc], corpus.tokenizer), "fwl")
    H = np.vstack([bb.encode(model.backbone, doc[s:min(s + seq_len, len(doc) - 1)])
                   for s in range(0, len(doc) - 1, seq_len)])
    ref = oracle.sequential_fast_forward(model.head, model.step_sizes(), H, doc[1:])
    np.testing.assert_allclose(res.nll_docs[0], ref, rtol=0, atol=1e-9)


@pytest.mark.parametrize("memory_len", [0, 3])
def test_score_decays_the_carried_state_between_segments(memory_len):
    # a segment reads the earlier segments' summed full gradients, the one
    # from j segments back decayed by gamma^(j-1): a sequential walk on the
    # oracle's per-position gradients
    ckpt = _generation_ckpt(memory_len)
    model = ckpt.model
    doc = np.random.default_rng(memory_len).integers(0, 9, size=30)
    res = hn.score(ckpt, Corpus([doc], ckpt.tokenizer), "fwl")
    slow, gammas, alpha = dict(model.head.named()), model.gammas(), model.alpha
    acc = {n: np.zeros_like(slow[n]) for n in model.mask}
    memory, ref = None, []
    for tokens, targets in tr.doc_segments(doc, model.config.backbone.max_seq_len):
        H, _, memory = bb.encode_with_cache(model.backbone, tokens, memory)
        seg = {n: np.zeros_like(slow[n]) for n in model.mask}
        for h, target in zip(H, targets):
            fast = {n: t - alpha[n] * (acc[n] + seg[n]) if n in acc else t
                    for n, t in slow.items()}
            ref.append(oracle._forward(fast, h, int(target))[0])
            for n, g in oracle._full_grads(slow, h, int(target)).items():
                if n in seg:
                    seg[n] = seg[n] + g
        acc = {n: gammas[n] * acc[n] + seg[n] for n in acc}
    np.testing.assert_allclose(res.nll_docs[0], ref, rtol=0, atol=1e-9)


@pytest.mark.parametrize("memory_len", [0, 3])
def test_scoring_keeps_no_backward_cache(monkeypatch, memory_len):
    # nothing reads a backward in score or in dyneval at step 0, so no
    # encode there may build one
    ckpt = _generation_ckpt(memory_len)
    caches = []
    with_cache = bb.encode_with_cache

    def recording(*args, **kwargs):
        out = with_cache(*args, **kwargs)
        caches.append(out[1])
        return out

    monkeypatch.setattr(bb, "encode_with_cache", recording)
    corpus = Corpus([np.arange(30) % 9, np.arange(5) % 9], ckpt.tokenizer)
    for variant in hn.VARIANTS:
        hn.score(ckpt, corpus, variant, global_step=0.01)
    hn.dynamic_evaluate(ckpt, corpus, 0.0, chunk_len=4)
    assert len(caches) == 4 * 5 + 9 and all(c is None for c in caches)


def test_score_tokenizer_mismatch_raises(small_ckpt):
    ckpt, _ = small_ckpt
    other = corpus_from_text("completely different words", "word")
    with pytest.raises(ConfigError):
        hn.score(ckpt, other, "baseline")


def test_tune_global_step_zero_grid(small_ckpt):
    ckpt, corpus = small_ckpt
    step, ppl = hn.tune_global_step(ckpt, corpus, [0.0])
    assert step == 0.0
    assert ppl == pytest.approx(hn.score(ckpt, corpus, "baseline").perplexity)


def test_tune_global_step_dominates_baseline(small_ckpt):
    ckpt, corpus = small_ckpt
    base = hn.score(ckpt, corpus, "baseline").perplexity
    _, best = hn.tune_global_step(ckpt, corpus, [0.0, 0.01, 0.1])
    assert best <= base + 1e-12


def test_tune_global_step_empty_grid(small_ckpt):
    ckpt, corpus = small_ckpt
    with pytest.raises(ConfigError):
        hn.tune_global_step(ckpt, corpus, [])


def test_ablate_checks_every_checkpoint_before_scoring(small_ckpt, monkeypatch):
    # a missing checkpoint fails at once, not after the rows before its own
    ckpt, corpus = small_ckpt
    calls = []
    score = hn.score
    monkeypatch.setattr(hn, "score", lambda *a, **k: calls.append(a) or score(*a, **k))
    with pytest.raises(ConfigError):
        hn.ablate({"slow": ckpt, "fwl": ckpt}, corpus)
    assert calls == []


def test_dynamic_evaluate_step_zero_is_baseline(small_ckpt):
    ckpt, corpus = small_ckpt
    for chunk in (8, 24):
        base = hn.score(ckpt, corpus, "baseline", seq_len=chunk)
        dyn = hn.dynamic_evaluate(ckpt, corpus, 0.0, chunk_len=chunk)
        assert dyn.perplexity == pytest.approx(base.perplexity, abs=1e-12)


def test_dynamic_evaluate_leaves_checkpoint_untouched(small_ckpt):
    ckpt, corpus = small_ckpt
    before = {k: np.array(v) for k, v in ckpt.model.named_params()}
    hn.dynamic_evaluate(ckpt, corpus, 0.05, chunk_len=8)
    for k, v in ckpt.model.named_params():
        np.testing.assert_array_equal(before[k], v)


def test_dynamic_evaluate_steps_its_private_copy_in_place(small_ckpt, monkeypatch):
    # every chunk's step writes into the arrays the document's copy was made
    # with; the checkpoint's own arrays are never written
    ckpt, corpus = small_ckpt
    before = {k: np.array(v) for k, v in ckpt.model.named_params()}
    copies = []
    copy = tr.Model.copy

    def spy(self):
        model = copy(self)
        copies.append((model, dict(model.named_params())))
        return model

    monkeypatch.setattr(tr.Model, "copy", spy)
    hn.dynamic_evaluate(ckpt, corpus, 0.05, chunk_len=8)
    assert len(copies) == len(corpus.documents)
    for model, arrays in copies:
        for k, v in model.named_params():
            assert v is arrays[k], k
            if k.startswith(("bb.", "head.")):
                assert not np.array_equal(v, before[k]), k
    for k, v in ckpt.model.named_params():
        np.testing.assert_array_equal(before[k], v)


@pytest.mark.parametrize("chunk_len", [5, 8])
def test_dynamic_evaluate_matches_a_reference_walk_with_memory(chunk_len):
    # one SGD step per chunk on its mean slow loss, with segment memory
    # threaded from chunk to chunk, and a fresh copy of the weights per document
    ckpt = _generation_ckpt(5)
    rng = np.random.default_rng(chunk_len)
    corpus = Corpus([rng.integers(0, 9, size=n) for n in (30, 17)], ckpt.tokenizer)
    step = 0.05
    got = hn.dynamic_evaluate(ckpt, corpus, step, chunk_len=chunk_len).nll_docs
    static = hn.score(ckpt, corpus, "baseline", seq_len=chunk_len).nll_docs
    for doc, nll, base in zip(corpus.documents, got, static):
        # an explicit walk, not the training step: backbone, slow head and
        # their backward by hand, with the memory threaded in a local
        model = ckpt.model.copy()
        memory = None
        want = []
        for tokens, targets in tr.doc_segments(doc, chunk_len):
            H, bcache, memory = bb.encode_with_cache(model.backbone, tokens, memory)
            tape, losses = hd.slow_forward(model.head, H, targets)
            want.append(losses)
            dhead, dH = tr.head_slow_vjp(model.head, tape, 1.0 / len(targets))
            bgrads = bb.encode_backward(model.backbone, bcache, dH)
            for name, g in dhead.items():
                arr = getattr(model.head, name)
                arr[...] = arr - step * g
            named = dict(model.backbone.named())
            for key, g in bgrads.items():
                named[key][...] = named[key] - step * g
        np.testing.assert_array_equal(nll, np.concatenate(want))
        assert np.abs(nll - base).max() > 1e-6  # the steps change the scores


def test_analyze_identical_streams_zero_buckets(small_ckpt):
    ckpt, corpus = small_ckpt
    res = hn.score(ckpt, corpus, "baseline")
    report = hn.analyze(res.nll_docs, res.nll_docs, corpus)
    for fam in (report.position_deciles, report.frequency_bins,
                report.occurrence_buckets):
        for b in fam:
            assert b["improvement"] == 0.0
    total_pred = sum(len(d) - 1 for d in corpus.documents)
    for fam in (report.position_deciles, report.frequency_bins,
                report.occurrence_buckets):
        assert sum(b["count"] for b in fam) == total_pred
    assert report.n_tokens == total_pred
    assert 0.0 <= report.repeat_fraction <= 1.0


def test_analyze_misaligned_streams_raise(small_ckpt):
    ckpt, corpus = small_ckpt
    res = hn.score(ckpt, corpus, "baseline")
    broken = [a[:-1] for a in res.nll_docs]
    with pytest.raises(ConfigError):
        hn.analyze(broken, res.nll_docs, corpus)


def test_analyze_buckets_a_hand_built_corpus():
    tok = TokenizerSpec("word", ["a", "b", "c", "d"])
    # "a" occurs five times in the first document, so its last two targets
    # reach repeat_3plus; "b d" makes one prediction and "c" none.
    # Corpus counts: a 5, b 2, c 2, d 1, so log2 bins 2, 1, 1, 0.
    corpus = Corpus([tok.encode(t) for t in ("a b a a c a a", "b d", "c")], tok)
    # targets:  b     a     a     c     a     a     | d
    base = [2.0, 1.5, 1.0, 3.0, 0.5, 0.25, 4.0]
    fwl = [1.5, 1.0, 0.5, 2.0, 0.25, 0.25, 2.5]
    report = hn.analyze([np.array(base[:6]), np.array(base[6:]), np.array([])],
                        [np.array(fwl[:6]), np.array(fwl[6:]), np.array([])], corpus)

    def rows(family):
        return [(b["bucket"], type(b["bucket"]), b["count"], b["nll_baseline"],
                 b["nll_fwl"], b["improvement"]) for b in family]

    # deciles of 6 predictions: 10 * p // 6 for p = 0..5; of 1 prediction: 0
    assert rows(report.position_deciles) == [
        (0, int, 2, 3.0, 2.0, 1.0), (1, int, 1, 1.5, 1.0, 0.5),
        (3, int, 1, 1.0, 0.5, 0.5), (5, int, 1, 3.0, 2.0, 1.0),
        (6, int, 1, 0.5, 0.25, 0.25), (8, int, 1, 0.25, 0.25, 0.0)]
    assert rows(report.frequency_bins) == [
        (0, int, 1, 4.0, 2.5, 1.5), (1, int, 2, 2.5, 1.75, 0.75),
        (2, int, 4, 0.8125, 0.5, 0.3125)]
    assert rows(report.occurrence_buckets) == [
        ("first", str, 3, 3.0, 2.0, 1.0), ("repeat_1", str, 1, 1.5, 1.0, 0.5),
        ("repeat_2", str, 1, 1.0, 0.5, 0.5), ("repeat_3plus", str, 2, 0.375, 0.25, 0.125)]
    assert all(type(b["count"]) is int for fam in (report.position_deciles,
               report.frequency_bins, report.occurrence_buckets) for b in fam)
    assert report.repeat_fraction == 4 / 7
    assert report.n_tokens == 7

    empty = hn.analyze([], [], Corpus([], tok))
    assert (empty.position_deciles, empty.frequency_bins, empty.occurrence_buckets,
            empty.repeat_fraction, empty.n_tokens) == ([], [], [], 0.0, 0)


def test_step_sizes_and_decays_follow_the_mask(small_ckpt):
    ckpt, corpus = small_ckpt
    model = tr.init_model(dataclasses.replace(ckpt.model.config, mask=("c",)))
    masked = CheckpointData(model, None, ckpt.tokenizer, None, 0)
    want = hn.score(masked, corpus, "fwl").nll_docs
    model.alpha["W"] = np.array(0.05)  # a tensor outside the mask
    model.gamma_raw["W"] = np.array(0.0)
    assert list(model.step_sizes()) == ["c"]
    assert list(model.gammas()) == ["c"]
    for a, b in zip(want, hn.score(masked, corpus, "fwl").nll_docs):
        np.testing.assert_array_equal(a, b)


def test_flop_ratio_approaches_one_with_depth(small_ckpt):
    ckpt, _ = small_ckpt
    ratios = []
    for n_layers in (1, 2, 8, 32, 128):
        cfg = tr.ModelConfig(
            backbone=bb.BackboneConfig(vocab_size=100, d_model=64, n_layers=n_layers,
                                       n_heads=4, d_ff=256, max_seq_len=64, seed=0),
            d_hidden=64, chunk_size=32)
        model = tr.init_model(cfg)
        ratios.append(hn.flop_report(model)["fwl_overhead_ratio"])
    assert all(a > b for a, b in zip(ratios, ratios[1:]))
    assert ratios[-1] < 1.05


def test_flop_report_hand_count():
    # d=2, m=2, vocab=3, 1 layer d_ff=4, context=8, chunk=4, mask=(c,)
    cfg = tr.ModelConfig(
        backbone=bb.BackboneConfig(vocab_size=3, d_model=2, n_layers=1,
                                   n_heads=1, d_ff=4, max_seq_len=8, seed=0),
        d_hidden=2, mask=("c",), chunk_size=4)
    model = tr.init_model(cfg)
    rep = hn.flop_report(model, context=8)
    # backbone per layer: qkv+out 4*2*2*2=32, attn 2*2*8*2=64,
    # ff two matmuls 2*(2*2*4)=32, two LNs 2*16=32 -> 160;
    # plus final LN 16 and embedding add 2*2=4
    assert rep["backbone"] == 160 + 16 + 4
    # head slow: 2dm + 2m + 2md + 8d = 8+4+8+16 = 36
    assert rep["head_slow"] == 36
    # softmax: 2*2*3 + 5*3 = 27
    assert rep["output_softmax"] == 27
    # backward: 2*3 + 2*3*2 + 10*2 + 2*2*2 + 2*2 = 6+12+20+8+4 = 50
    assert rep["head_backward"] == 50
    # fast pass: recompose 36 + vector c: 2*3 = 6 -> 42
    assert rep["fast_pass"] == 42
    assert rep["baseline_total"] == rep["backbone"] + 36 + 27
    assert rep["fwl_total"] == rep["baseline_total"] + 50 + 42 + 27


def test_bench_measures_all_variants(small_ckpt):
    ckpt, corpus = small_ckpt
    rep = hn.bench(ckpt, corpus, max_docs=3)
    for key in ("baseline_tokens_per_sec", "fwl_tokens_per_sec",
                "dyneval_tokens_per_sec", "dyneval_cost_ratio"):
        assert rep.measured[key] > 0
    assert rep.flops["fwl_total"] > rep.flops["baseline_total"]


def test_generate_deterministic(small_ckpt):
    ckpt, corpus = small_ckpt
    prompt = corpus.tokenizer.decode(corpus.documents[0][:6])
    a = hn.generate(ckpt, prompt, 12, temperature=0.9, seed=11)
    b = hn.generate(ckpt, prompt, 12, temperature=0.9, seed=11)
    assert a == b


def test_generate_zero_alpha_greedy_matches_baseline(small_ckpt):
    ckpt, corpus = small_ckpt
    model = ckpt.model.copy()
    for n in hd.TENSOR_NAMES:
        model.alpha[n][...] = 0.0
    zero_ckpt = CheckpointData(model, None, ckpt.tokenizer, None, 0)
    prompt = corpus.tokenizer.decode(corpus.documents[0][:6])
    fwl = hn.generate(zero_ckpt, prompt, 10, temperature=0.0, seed=0, variant="fwl")
    base = hn.generate(zero_ckpt, prompt, 10, temperature=0.0, seed=0, variant="baseline")
    assert fwl == base


def test_generate_prompt_offsets_match_oracle(small_ckpt, monkeypatch):
    # the batched prompt pass must carry the sum of each prompt position's own
    # full slow gradients, computed here by the independent oracle
    ckpt, corpus = small_ckpt
    model = ckpt.model
    prompt = corpus.tokenizer.decode(corpus.documents[0][:20])
    seen = []
    step = hd.generate_step

    def first_offsets(head, steps, offsets, *args):
        seen.append(offsets)  # a value: generate_step returns new offsets
        return step(head, steps, offsets, *args)

    monkeypatch.setattr(hd, "generate_step", first_offsets)
    hn.generate(ckpt, prompt, 1, temperature=0.0)
    window = ckpt.tokenizer.encode(prompt)[-model.config.backbone.max_seq_len:]
    H = bb.encode(model.backbone, np.array(window))
    slow = dict(model.head.named())
    for name in model.mask:
        want = sum(oracle._full_grads(slow, H[t], int(window[t + 1]))[name]
                   for t in range(len(window) - 1))
        np.testing.assert_allclose(seen[0][name], want, rtol=0, atol=1e-10)


def _generation_ckpt(memory_len):
    """A tiny random model with 8-position segments, large step sizes and
    distinct decays, so that a lost or undecayed fast state shows in its NLLs."""
    vocab = 9
    model = tr.init_model(tr.ModelConfig(
        backbone=bb.BackboneConfig(vocab_size=vocab, d_model=8, n_layers=2, n_heads=2,
                                   d_ff=16, max_seq_len=8, memory_len=memory_len, seed=4),
        d_hidden=8, chunk_size=4))
    rng = np.random.default_rng(memory_len)
    for n in hd.TENSOR_NAMES:
        model.alpha[n][...] = rng.uniform(0.1, 0.5)
        model.gamma_raw[n][...] = rng.normal()
    tok = TokenizerSpec("word", [f"w{i}" for i in range(vocab)])
    return CheckpointData(model, None, tok, None, 0)


@pytest.mark.parametrize("prompt_len", [5, 8, 19])  # shorter than, equal to, longer than a segment
@pytest.mark.parametrize("variant", ["fwl", "baseline"])
@pytest.mark.parametrize("memory_len", [0, 3])
def test_generate_fast_nll_equals_score(memory_len, variant, prompt_len):
    # every sampled token's fast loss is score's NLL of it in the generated
    # text; the 12 samples cross one or two segment boundaries
    ckpt = _generation_ckpt(memory_len)
    prompt = np.random.default_rng(prompt_len).integers(0, 9, size=prompt_len)
    gen = hn.generate_ids(ckpt.model, prompt, 12, seed=prompt_len, variant=variant)
    assert gen.ids[:prompt_len] == list(prompt) and len(gen.ids) == prompt_len + 12
    scored = hn.score(ckpt, Corpus([np.array(gen.ids)], ckpt.tokenizer), variant)
    assert np.max(np.abs(scored.nll_docs[0][prompt_len - 1:] - gen.fast_losses)) <= 1e-9
    text = hn.generate(ckpt, ckpt.tokenizer.decode(prompt), 12, seed=prompt_len,
                       variant=variant)
    assert text == ckpt.tokenizer.decode(gen.ids)


@pytest.mark.parametrize("prompt_len, n", [(1, 1), (5, 12), (8, 9), (19, 6), (5, 0)])
def test_generate_encodes_one_position_per_sample(monkeypatch, prompt_len, n):
    # the prompt once, then one position per sampled token but the last
    ckpt = _generation_ckpt(0)
    positions = []
    with_cache, next_one = bb.encode_with_cache, bb.encode_next

    def counted_with_cache(params, tokens, memory=None, **kwargs):
        positions.append(len(tokens))
        return with_cache(params, tokens, memory, **kwargs)

    def counted_next(*args):
        positions.append(1)
        return next_one(*args)

    monkeypatch.setattr(bb, "encode_with_cache", counted_with_cache)
    monkeypatch.setattr(bb, "encode_next", counted_next)
    hn.generate_ids(ckpt.model, np.zeros(prompt_len, dtype=int), n)
    assert sum(positions) == (prompt_len + n - 1 if n else 0)


@pytest.mark.parametrize("variant", ["test-time-only", "bias-only"])
def test_generate_rejects_variants_without_a_sampler(small_ckpt, variant):
    ckpt, corpus = small_ckpt
    with pytest.raises(ConfigError, match="generate supports baseline or fwl"):
        hn.generate_ids(ckpt.model, corpus.documents[0][:4], 3, variant=variant)
    with pytest.raises(ConfigError, match="generate supports baseline or fwl"):
        hn.generate(ckpt, corpus.tokenizer.decode(corpus.documents[0][:4]), 3,
                    variant=variant)


def test_generate_warns_on_out_of_vocabulary_prompt(small_ckpt):
    ckpt, corpus = small_ckpt
    prompt = "qqzx " + corpus.tokenizer.decode(corpus.documents[0][:4])
    with pytest.warns(UserWarning, match="1 prompt token"):
        text = hn.generate(ckpt, prompt, 2, seed=1)
    assert text.startswith("<unk> ")


@pytest.mark.parametrize("ids, n, want", [
    pytest.param([1, 2, 3, 1, 2, 3, 1, 2, 3], 3, 4 / 7, id="periodic"),  # 3 of 7 distinct
    pytest.param(list(range(20)), 4, 0.0, id="distinct"),
    pytest.param([], 2, 0.0, id="empty"),
    pytest.param([1, 2], 3, 0.0, id="shorter-than-n"),
    pytest.param([1, 2, 3], 3, 0.0, id="len-n"),
    pytest.param([1, 2, 3, 4], 3, 0.0, id="len-n-plus-1"),
    pytest.param([2, 2, 2, 2], 3, 1 / 2, id="len-n-plus-1-repeat"),
    pytest.param([1, 2, 1, 3, 2, 1], 1, 1 / 2, id="unigrams"),      # 3 of 6 distinct
    pytest.param([9, 9, 9, 9, 9, 9], 2, 4 / 5, id="all-equal"),     # 1 of 5 distinct
    pytest.param([1, 2, 3, 4, 5, 1, 2], 2, 1 / 6, id="repeat-at-end"),
])
def test_repeated_ngram_fraction(ids, n, want):
    assert hn.repeated_ngram_fraction(ids, n=n) == want


def test_test_time_only_zero_step_equals_baseline(small_ckpt):
    ckpt, corpus = small_ckpt
    base = hn.score(ckpt, corpus, "baseline")
    tto = hn.score(ckpt, corpus, "test-time-only", global_step=0.0)
    assert tto.perplexity == pytest.approx(base.perplexity, abs=1e-12)


def test_grid_search_ties_go_to_the_smaller_step_in_any_grid_order():
    assert hn._grid_search([0.3, 0.1, 0.2], {0.3: 1.0, 0.1: 2.0, 0.2: 1.0}.get) == (0.2, 1.0)
    with pytest.raises(NumericalError):  # no step to pick
        hn._grid_search([0.1, 0.2], {0.1: np.inf, 0.2: np.nan}.get)
