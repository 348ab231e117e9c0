"""The names the benchmark in perfbench/ relies on still exist in the library.

perfbench/ traces the library by replacing module attributes and reads some
of its outputs; a rename or deletion here would break `--trace 1` or the
benchmark's self-test without failing any other test.
"""

import importlib
import importlib.util
import json
import math
import os
import subprocess
import sys

import numpy as np

from fastweight import backbone as bb
from fastweight import harness as hn
from fastweight import head as hd
from fastweight import linear_attention as la
from fastweight import training as tr
from fastweight.checkpoint import CheckpointData
from fastweight.corpus import Corpus, corpus_from_text, make_entity_corpus

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPANS_PATH = os.path.join(ROOT, "perfbench", "spans.py")


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_wrapped_attribute_resolves():
    missing = []
    for module, attr, _ in _spans().WRAPPED:
        mod = importlib.import_module(f"fastweight.{module}")
        if not callable(getattr(mod, attr, None)):
            missing.append(f"{module}.{attr}")
    assert not missing, f"perfbench wraps names the library lacks: {missing}"


def _tiny_config(vocab_size=11):
    return tr.ModelConfig(backbone=bb.BackboneConfig(vocab_size=vocab_size, d_model=8,
                                                     n_layers=1, n_heads=2, d_ff=16,
                                                     max_seq_len=16),
                          d_hidden=8, chunk_size=4)


def test_flop_report_keeps_attention_kernel():
    assert "attention_kernel" in hn.flop_report(tr.init_model(_tiny_config()))


def test_outputs_perfbench_reads():
    corpus = corpus_from_text(make_entity_corpus(4, seed=0), "word")
    windows = tr.make_windows(corpus.documents, 96)
    assert windows and all(len(w) == 2 and len(w[0]) == len(w[1]) for w in windows)

    model = tr.init_model(_tiny_config(corpus.vocab_size))
    ckpt = CheckpointData(model, None, corpus.tokenizer, None, 0)
    res = hn.score(ckpt, Corpus(corpus.documents[:1], corpus.tokenizer), "fwl")
    assert res.n_tokens == len(corpus.documents[0]) - 1 == res.nll_docs[0].size

    rng = np.random.default_rng(0)
    q, k, v = (rng.normal(size=(5, 3)) for _ in range(3))
    assert la.causal_linear_attention(q, k, v)[1].accumulator.shape == (3, 3)

    # spans._encode_work reads a memory's activations
    mem_config = _tiny_config(corpus.vocab_size)
    mem_config.backbone.memory_len = 3
    _, _, memory = bb.encode_with_cache(tr.init_model(mem_config).backbone, [1, 2],
                                        backward=False)
    assert len(memory.activations) == 1 and memory.activations[0].shape == (2, 8)

    steps = model.step_sizes()
    zeros = {n: np.zeros(getattr(model.head, n).shape) for n in steps}
    out = hd.generate_step(model.head, steps, zeros, rng.normal(size=8), 1.0, rng)
    assert np.isfinite(out.fast_loss)


def test_scoring_hands_the_kernel_a_carried_state():
    # perfbench's kernel gate wraps la.chunked_causal_linear_attention while a
    # multi-segment document is scored, reads each call's state as the 5th
    # positional argument or init=, and fails unless some call gets one. A
    # stream's first segment reads no state, so only a carried one counts
    corpus = corpus_from_text(make_entity_corpus(2, seed=0), "word")
    doc = corpus.documents[0]
    model = tr.init_model(_tiny_config(corpus.vocab_size))
    assert len(doc) > 2 * model.config.backbone.max_seq_len + 1  # >= 3 segments
    ckpt = CheckpointData(model, None, corpus.tokenizer, None, 0)

    captured = []
    spans = _spans()
    tracer = spans.Tracer(spans.entries("linear_attention.chunked"),
                          lambda a, k, out: captured.append((a, k)))
    tracer.install({"linear_attention": la})
    try:
        hn.score(ckpt, Corpus([doc], corpus.tokenizer), "fwl")
    finally:
        tracer.uninstall()
    inits = [a[4] if len(a) > 4 else k.get("init") for a, k in captured]
    n = len(hd.KEYS)  # one call per fast matrix and segment; the model's mask is all
    segments = list(tr.doc_segments(doc, model.config.backbone.max_seq_len))
    assert len(inits) == n * len(segments)
    assert all(i is None for i in inits[:n])
    assert all(isinstance(i, la.KVState) and np.any(i.accumulator) for i in inits[n:])


def test_traced_eval_run_is_correct():
    # --trace 1 divides by the positions traced through encode_with_cache, so
    # a scoring path that stopped calling it would crash the traced run
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "eval", "--tiny",
                          "--trace", "1", "--seconds", "1"],
                         cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr[-2000:]
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert math.isfinite(result["metrics"]["backbone.encode.useful_ratio"]["value"])


def test_traced_generate_run_traces_every_position():
    # every position generation encodes goes through encode_with_cache, so
    # the traced run counts exactly one encode per op (one sampled token)
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "generate",
                          "--tiny", "--trace", "1", "--seconds", "1"],
                         cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr[-2000:]
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["metrics"]["backbone.encode.calls"]["value"] == 1.0


def test_untraced_generate_run_stamps_every_token():
    # the untraced run's token clock wraps head.generate_step; a sampled token
    # it did not stamp would leave no latencies and crash the run
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "generate",
                          "--tiny", "--seconds", "1"],
                         cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr[-2000:]
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    p50 = result["metrics"]["op_ms_p50"]["value"]
    assert math.isfinite(p50) and p50 > 0
