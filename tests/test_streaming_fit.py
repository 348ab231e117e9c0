import numpy as np

from fastweight import backbone as bb
from fastweight import training as tr
from fastweight.corpus import corpus_from_text, make_entity_corpus


def test_streaming_fit_runs_and_is_deterministic():
    corpus = corpus_from_text(make_entity_corpus(12, seed=50, sentences_per_doc=20),
                              "word")
    mcfg = tr.ModelConfig(
        backbone=bb.BackboneConfig(vocab_size=corpus.vocab_size, d_model=16,
                                   n_layers=1, n_heads=2, d_ff=32,
                                   max_seq_len=32, memory_len=16, seed=5),
        d_hidden=16, chunk_size=8)
    cfg = tr.TrainConfig(mode="full", streaming=True, total_steps=8, batch_size=2,
                         seq_len=24, eval_every=4, seed=5)
    a = tr.fit(corpus, cfg, mcfg)
    b = tr.fit(corpus, cfg, mcfg)
    for (ka, va), (kb, vb) in zip(a.model.named_params(), b.model.named_params()):
        np.testing.assert_array_equal(va, vb, err_msg=ka)


def test_streaming_carries_survive_across_steps():
    corpus = corpus_from_text(make_entity_corpus(4, seed=51, sentences_per_doc=30),
                              "word")
    mcfg = tr.ModelConfig(
        backbone=bb.BackboneConfig(vocab_size=corpus.vocab_size, d_model=16,
                                   n_layers=1, n_heads=2, d_ff=32,
                                   max_seq_len=32, memory_len=16, seed=6),
        d_hidden=16, chunk_size=8)
    model = tr.init_model(mcfg)
    cfg = tr.TrainConfig(mode="full", streaming=True, batch_size=1, seq_len=16)
    doc = corpus.documents[0]
    carry = tr.StreamCarry()
    opt = None
    seen_nonzero_delta = False
    for s in range(0, min(len(doc) - 1, 48), 16):
        seg = doc[s:s + 17]
        _, opt, carries = tr.train_step(model, [(seg[:-1], seg[1:])], cfg, opt,
                                        [carry])
        carry = carries[0]
        delta = carry.delta_prev or {}  # None after a stream's first segment
        if any(np.abs(v).sum() > 0 for v in delta.values()):
            seen_nonzero_delta = True
    assert seen_nonzero_delta
    assert carry.memory is not None
    assert carry.memory.activations[0].shape[0] == 16
