"""Where do the fast weights help?

Buckets the per-token NLL improvement of fast-weight scoring over the plain
baseline by document position, token frequency, and repetition. On the entity
corpus the improvement concentrates on repeated tokens and late positions;
tokens seen for the first time may get slightly worse.

Trains one small model, so give it a couple of minutes.
"""

import numpy as np

from fastweight import backbone as bb
from fastweight import harness
from fastweight import training as tr
from fastweight.checkpoint import CheckpointData
from fastweight.corpus import corpus_from_text, make_entity_corpus

corpus = corpus_from_text(make_entity_corpus(160, seed=2, sentences_per_doc=12), "word")
dev = corpus_from_text(make_entity_corpus(50, seed=3, sentences_per_doc=12),
                       corpus.tokenizer)

mcfg = tr.ModelConfig(
    backbone=bb.BackboneConfig(vocab_size=corpus.vocab_size, d_model=64,
                               n_layers=2, n_heads=4, d_ff=256,
                               max_seq_len=128, seed=2),
    d_hidden=64, chunk_size=32)
cfg = tr.TrainConfig(mode="full", batch_size=8, seq_len=mcfg.backbone.max_seq_len,
                     total_steps=500, learning_rate=3e-3, warmup_steps=50,
                     eval_every=500, seed=2)
res = tr.fit(corpus, cfg, mcfg, dev_corpus=dev)
ckpt = CheckpointData(res.model, cfg, corpus.tokenizer, None, cfg.total_steps)

fast = harness.score(ckpt, dev, "fwl")  # its slow losses are the baseline NLLs
base_ppl = np.exp(np.concatenate(fast.slow_nll_docs).mean())
print(f"baseline ppl {base_ppl:.2f} -> fwl ppl {fast.perplexity:.2f}")

report = harness.analyze(fast.slow_nll_docs, fast.nll_docs, dev)
print(f"\n{report.n_tokens} predicted tokens, "
      f"{report.repeat_fraction:.0%} are repeats\n")

print("improvement by occurrence (nats, positive = fwl better):")
for b in report.occurrence_buckets:
    print(f"  {b['bucket']:<12} n={b['count']:<6} {b['improvement']:+.4f}")

print("\nimprovement by position decile:")
for b in report.position_deciles:
    bar = "#" * max(0, int(40 * max(b["improvement"], 0) /
                           max(r["improvement"] for r in report.position_deciles)))
    print(f"  {b['bucket']:>2}: {b['improvement']:+.4f} {bar}")

print("\nimprovement by log2 corpus frequency of the target:")
for b in report.frequency_bins:
    print(f"  2^{b['bucket']:<3} n={b['count']:<6} {b['improvement']:+.4f}")
