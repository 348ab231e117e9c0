"""The names the benchmark in perfbench/ relies on still exist in the library.

perfbench/ traces the library by replacing module attributes and reads some
of its outputs; a rename or deletion here would break `--trace 1` or the
benchmark's self-test without failing any other test.
"""

import importlib
import importlib.util
import os

import numpy as np

from fastweight import backbone as bb
from fastweight import harness as hn
from fastweight import head as hd
from fastweight import linear_attention as la
from fastweight import training as tr
from fastweight.checkpoint import CheckpointData
from fastweight.corpus import Corpus, corpus_from_text, make_entity_corpus

SPANS_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "perfbench", "spans.py")


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

    assert len(bb.SegmentMemory.empty(model.config.backbone).activations) == 1

    steps = model.step_sizes()
    out = hd.generate_step(model.head, steps, hd.StreamState.zeros(model.head, steps.mask),
                           rng.normal(size=8), 1.0, rng)
    assert np.isfinite(out.fast_loss)
