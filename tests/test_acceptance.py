"""Acceptance suite.

One test per criterion, each printing a PASS line with the measured numbers;
criteria 1, 2 and 6 read one run of the checker that `fwl verify` runs.
Criteria 7 and 8 (the headline claim and where its gain comes from) have no
test yet. Run with `pytest tests/test_acceptance.py -v -s`.
"""

import copy
import functools
import time
from pathlib import Path

import numpy as np

from fastweight import backbone as bb
from fastweight import harness as hn
from fastweight import head as hd
from fastweight import oracle
from fastweight import training as tr
from fastweight.checkpoint import CheckpointData, load_checkpoint, save_checkpoint
from fastweight.corpus import corpus_from_text, make_entity_corpus
from reference_tools import directional_derivative_check


def report(name, detail):
    print(f"\n[acceptance] PASS {name}: {detail}")


# -- 1, 2, 6 ----------------------------------------------------------------
# One run of the checker that `fwl verify` runs; each criterion asserts its
# own checks against this file's bounds.

@functools.cache
def verification_suite():
    t0 = time.perf_counter()
    checks = {c.name.split(" over ")[0]: c for c in oracle.verify(seed=2024, instances=50)}
    wall = time.perf_counter() - t0
    assert wall < 60.0
    return checks, wall


def assert_checks(criterion, bounds):
    checks, wall = verification_suite()
    for name, bound in bounds.items():
        assert checks[name].err < bound, checks[name]
    report(criterion, ", ".join(f"{n} {checks[n].err:.2e}" for n in bounds)
           + f" (whole suite {wall:.1f}s)")


def test_criterion_1_oracle_equivalence():
    assert_checks("criterion 1 (oracle equivalence, 50 instances)",
                  {"oracle equivalence": 1e-9})


def test_criterion_2_chunked_attention_exactness():
    assert_checks("criterion 2 (chunked exactness)",
                  {"chunked attention exactness": 1e-10, "kv-state additivity": 1e-10})


def test_criterion_6_scoring_generation_consistency():
    assert_checks("criterion 6 (scoring/generation consistency)",
                  {"generation/scoring consistency": 1e-9})


# -- 3 ----------------------------------------------------------------------

def test_criterion_3_rank_one_identity():
    from fastweight.numerics import finite_diff_grad
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    worst = 0.0
    for seed in range(3):
        d, m, vocab = 8, 8, 6
        head = hd.init_head(d, m, vocab, seed=seed)
        T = 4
        H = rng.normal(size=(T, d))
        targets = rng.integers(0, vocab, size=T)
        tape, _ = hd.slow_forward(head, H, targets)
        grads = hd.per_position_grads(head, tape)
        t = int(rng.integers(T))
        for name, inp in (("U", tape.h), ("W", tape.v), ("E", tape.u)):
            analytic = np.outer(inp[t], grads.rows(name)[t])

            def loss_of(flat, name=name, t=t):
                trial = copy.deepcopy(head)
                getattr(trial, name)[...] = flat.reshape(getattr(head, name).shape)
                _, losses = hd.slow_forward(trial, H, targets)
                return float(losses[t])

            fd = finite_diff_grad(loss_of, getattr(head, name).reshape(-1).copy())
            rel = np.abs(analytic.reshape(-1) - fd) / (np.abs(fd) + 1e-8)
            worst = max(worst, float(rel.max()))
    wall = time.perf_counter() - t0
    assert worst < 1e-5
    assert wall < 60.0
    report("criterion 3 (rank-one identity)",
           f"U/W/E outer products vs finite differences, "
           f"max rel err {worst:.2e}, {wall:.1f}s")


# -- 4 ----------------------------------------------------------------------

def test_criterion_4_second_order_gradient_check():
    t0 = time.perf_counter()
    mcfg = tr.ModelConfig(
        backbone=bb.BackboneConfig(vocab_size=5, d_model=8, n_layers=2,
                                   n_heads=2, d_ff=16, max_seq_len=16,
                                   memory_len=8, seed=0),
        d_hidden=8, chunk_size=4)
    model = tr.init_model(mcfg)
    rng = np.random.default_rng(1)
    for n in hd.TENSOR_NAMES:
        model.alpha[n][...] = rng.uniform(0.01, 0.05) * rng.choice([-1, 1])
    toks = rng.integers(0, 5, size=9)
    batch = [(toks[:-1], toks[1:])]
    cfg = tr.TrainConfig(mode="full")

    err_plain = directional_derivative_check(model, batch, cfg, n_directions=4, seed=2)

    # streaming: a carry warmed over two segments and held constant, so that
    # the state gamma decays is nonzero and every gamma has a live gradient
    carry = tr.StreamCarry()
    for _ in range(2):
        carry = tr.sequence_loss_and_grads(model, toks[:-1], toks[1:], "full",
                                           carry=carry).carry
    assert any(np.abs(v).sum() > 0 for v in carry.pending.values())
    assert all(np.abs(v).sum() > 0 for v in carry.delta_prev.values())
    res = tr.sequence_loss_and_grads(model, toks[:-1], toks[1:], "full", carry=carry)
    assert all(float(res.grads[f"gamma.{n}"]) != 0.0 for n in model.mask)
    err_stream = directional_derivative_check(model, batch, cfg, n_directions=4,
                                              seed=3, carries=[carry])
    wall = time.perf_counter() - t0
    assert err_plain < 1e-4
    assert err_stream < 1e-4
    assert wall < 120.0
    report("criterion 4 (second-order gradients)",
           f"directional FD rel err: plain {err_plain:.2e}, streaming "
           f"{err_stream:.2e} (incl alpha/gamma), {wall:.1f}s")


# -- 5 ----------------------------------------------------------------------

def test_criterion_5_identity_reductions():
    corpus = corpus_from_text(make_entity_corpus(10, seed=9, sentences_per_doc=8),
                              "word")
    mcfg = tr.ModelConfig(
        backbone=bb.BackboneConfig(vocab_size=corpus.vocab_size, d_model=16,
                                   n_layers=1, n_heads=2, d_ff=24,
                                   max_seq_len=32, seed=9),
        d_hidden=12, chunk_size=8)
    model = tr.init_model(mcfg)
    for n in hd.TENSOR_NAMES:
        model.alpha[n][...] = 0.0
    ckpt = CheckpointData(model, None, corpus.tokenizer, None, 0)
    base = hn.score(ckpt, corpus, "baseline")
    fwl = hn.score(ckpt, corpus, "fwl")
    diff_ppl = abs(base.perplexity - fwl.perplexity)
    assert diff_ppl < 1e-12

    # empty mask is bit-for-bit the slow path
    model2 = tr.init_model(mcfg)
    rng = np.random.default_rng(0)
    H = rng.normal(size=(12, 16))
    targets = rng.integers(0, corpus.vocab_size, size=12)
    tape, slow_losses = hd.slow_forward(model2.head, H, targets)
    grads = hd.per_position_grads(model2.head, tape)
    empty = hd.fast_forward(model2.head, {}, tape, grads)
    assert np.array_equal(empty.losses, slow_losses)
    assert np.array_equal(empty.logits, tape.logits)

    dyn = hn.dynamic_evaluate(ckpt, corpus, 0.0, chunk_len=32)
    base32 = hn.score(ckpt, corpus, "baseline", seq_len=32)
    assert abs(dyn.perplexity - base32.perplexity) < 1e-12
    report("criterion 5 (identity reductions)",
           f"alpha=0 ppl gap {diff_ppl:.1e}, empty mask bit-exact, "
           f"dyneval step 0 == baseline")


# -- 9 ----------------------------------------------------------------------

def test_criterion_9_cost_accounting():
    corpus = corpus_from_text(make_entity_corpus(30, seed=13, sentences_per_doc=10),
                              "word")
    mcfg = tr.ModelConfig(
        backbone=bb.BackboneConfig(vocab_size=corpus.vocab_size, d_model=48,
                                   n_layers=2, n_heads=4, d_ff=192,
                                   max_seq_len=64, seed=13),
        d_hidden=48, chunk_size=32)
    ckpt = CheckpointData(tr.init_model(mcfg), None, corpus.tokenizer, None, 0)
    rep = hn.bench(ckpt, corpus, dyneval_step=0.01)
    ratio = rep.measured["dyneval_cost_ratio"]
    assert ratio > 2.0
    flops = rep.flops
    # the overhead is confined to head backward + fast pass + extra softmax
    overhead = flops["fwl_total"] - flops["baseline_total"]
    assert overhead == (flops["head_backward"] + flops["fast_pass"]
                        + flops["fast_softmax"])
    assert flops["fwl_overhead_ratio"] > 1.0
    report("criterion 9 (cost accounting)",
           f"dyneval wall-clock {ratio:.1f}x baseline (>2x); fwl flops overhead "
           f"{100 * (flops['fwl_overhead_ratio'] - 1):.0f}% confined to "
           f"backward+fast+softmax; fwl measured "
           f"{rep.measured['fwl_cost_ratio']:.2f}x")


# -- 10 ---------------------------------------------------------------------

def test_criterion_10_determinism(tmp_path):
    corpus = corpus_from_text(make_entity_corpus(16, seed=17, sentences_per_doc=8),
                              "word")
    mcfg = tr.ModelConfig(
        backbone=bb.BackboneConfig(vocab_size=corpus.vocab_size, d_model=16,
                                   n_layers=1, n_heads=2, d_ff=32,
                                   max_seq_len=32, seed=17),
        d_hidden=16, chunk_size=16)
    cfg = tr.TrainConfig(mode="full", total_steps=6, batch_size=2, seq_len=24,
                         eval_every=3, seed=17)
    metrics = []
    models = []
    for run in range(2):
        res = tr.fit(corpus, cfg, mcfg, out_dir=tmp_path / f"run{run}")
        metrics.append(Path(res.metrics_path).read_text())
        models.append(res.model)
    assert metrics[0].splitlines()[-1] != ""
    a = [__import__("json").loads(l) for l in metrics[0].splitlines()]
    b = [__import__("json").loads(l) for l in metrics[1].splitlines()]
    for ra, rb in zip(a, b):
        ra.pop("wall_ms")
        rb.pop("wall_ms")
        assert ra == rb
    for (ka, va), (kb, vb) in zip(models[0].named_params(), models[1].named_params()):
        np.testing.assert_array_equal(va, vb, err_msg=ka)

    # checkpoint round trip is bit-exact
    path = tmp_path / "rt.ckpt"
    save_checkpoint(path, models[0], cfg, None, 6, corpus.tokenizer)
    snap = load_checkpoint(path)
    for (ka, va), (kb, vb) in zip(models[0].named_params(), snap.model.named_params()):
        np.testing.assert_array_equal(va, vb, err_msg=ka)

    # scoring twice is bit-identical
    ckpt = CheckpointData(models[0], cfg, corpus.tokenizer, None, 6)
    s1 = hn.score(ckpt, corpus, "fwl")
    s2 = hn.score(ckpt, corpus, "fwl")
    assert s1.perplexity == s2.perplexity
    report("criterion 10 (determinism)",
           "same-seed training metrics and parameters bit-identical; "
           "checkpoint round trip bit-exact")
