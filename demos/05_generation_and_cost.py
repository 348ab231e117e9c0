"""Sequential generation with fast weights, plus the cost picture.

Generation cannot use the parallel kernels (each token depends on the last),
so the model samples a token, takes the gradient of predicting it under the
slow weights, and folds that into its running offsets. It walks the text in
the same segments as `score`, carrying backbone memory and decayed fast state
across them, and encodes one backbone position per sampled token against a
key/value cache. Scoring the generated text afterwards with the parallel fast
pass reproduces the generator's own losses: the scoring/generation
consistency contract.
"""

import numpy as np

from fastweight import backbone as bb
from fastweight import harness
from fastweight import training as tr
from fastweight.checkpoint import CheckpointData
from fastweight.corpus import Corpus, corpus_from_text, make_entity_corpus

corpus = corpus_from_text(make_entity_corpus(120, seed=4, sentences_per_doc=10), "word")
mcfg = tr.ModelConfig(
    backbone=bb.BackboneConfig(vocab_size=corpus.vocab_size, d_model=48,
                               n_layers=2, n_heads=4, d_ff=192,
                               max_seq_len=96, seed=4),
    d_hidden=48, chunk_size=32)
cfg = tr.TrainConfig(mode="full", batch_size=8, seq_len=mcfg.backbone.max_seq_len,
                     total_steps=300, learning_rate=3e-3, warmup_steps=40,
                     eval_every=300, seed=4)
res = tr.fit(corpus, cfg, mcfg)
ckpt = CheckpointData(res.model, cfg, corpus.tokenizer, None, cfg.total_steps)

prompt = corpus.tokenizer.decode(corpus.documents[0][:8])
print(f"prompt: {prompt!r}\n")
for variant in ("baseline", "fwl"):
    text = harness.generate(ckpt, prompt, 40, temperature=0.8, seed=9,
                            variant=variant)
    ids = corpus.tokenizer.encode(text)
    rep = harness.repeated_ngram_fraction(ids, n=4)
    print(f"[{variant}] repeated 4-gram fraction {rep:.2f}")
    print(" ", text, "\n")

# consistency: score the generated text, across a segment boundary
prompt_ids = corpus.documents[0][:8]
gen = harness.generate_ids(ckpt.model, prompt_ids, 150, temperature=0.8, seed=9)
scored = harness.score(ckpt, Corpus([np.array(gen.ids)], corpus.tokenizer), "fwl")
err = np.abs(scored.nll_docs[0][len(prompt_ids) - 1:] - gen.fast_losses).max()
print(f"generator losses vs harness.score over {len(gen.fast_losses)} sampled tokens "
      f"({len(gen.ids)} tokens, segments of {mcfg.backbone.max_seq_len}): "
      f"max abs err {err:.2e}")

# cost picture: fast weights cost a bounded head-level overhead, dynamic
# evaluation pays a backward pass through everything
rep = harness.bench(ckpt, corpus, dyneval_step=0.01, max_docs=20)
f = rep.flops
print(f"\nanalytic flops/token: baseline {f['baseline_total']:,} -> "
      f"fwl {f['fwl_total']:,} ({f['fwl_overhead_ratio']:.2f}x)")
print(f"measured tokens/sec: baseline {rep.measured['baseline_tokens_per_sec']:.0f}, "
      f"fwl {rep.measured['fwl_tokens_per_sec']:.0f}, "
      f"dyneval {rep.measured['dyneval_tokens_per_sec']:.0f}")
print(f"dyneval cost ratio over baseline: {rep.measured['dyneval_cost_ratio']:.1f}x")
