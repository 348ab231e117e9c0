"""Train the three model variants on the synthetic entity corpus and build
the five-way comparison table.

The entity corpus introduces names from a shared pool and reuses them inside
each document; a model that adapts to already-seen names has a measurable
edge. Expect the fast-weight model below the test-time-only variant below the
plain baseline, with dynamic evaluation improving on the baseline at several
times its cost. Takes a few minutes on one core.
"""

import tempfile
import time
from pathlib import Path

from fastweight import backbone as bb
from fastweight import harness, head
from fastweight import training as tr
from fastweight.checkpoint import CheckpointData, load_checkpoint, save_checkpoint
from fastweight.corpus import corpus_from_text, make_entity_corpus

out = Path(tempfile.mkdtemp(prefix="fwl_demo_"))
corpus = corpus_from_text(make_entity_corpus(200, seed=0, sentences_per_doc=12), "word")
dev = corpus_from_text(make_entity_corpus(40, seed=1, sentences_per_doc=12),
                       corpus.tokenizer)
print(f"entity corpus: {len(corpus.documents)} docs, {corpus.n_tokens} tokens, "
      f"vocab {corpus.vocab_size}")


def train(mode, mask=head.MASK_ALL, steps=500):
    mcfg = tr.ModelConfig(
        backbone=bb.BackboneConfig(vocab_size=corpus.vocab_size, d_model=64,
                                   n_layers=2, n_heads=4, d_ff=256,
                                   max_seq_len=128, seed=0),
        d_hidden=64, chunk_size=32, mask=mask)
    # train on every position that scoring reads
    cfg = tr.TrainConfig(mode=mode, batch_size=8, seq_len=mcfg.backbone.max_seq_len,
                         total_steps=steps, learning_rate=3e-3, warmup_steps=50,
                         eval_every=steps, seed=0)
    t0 = time.perf_counter()
    res = tr.fit(corpus, cfg, mcfg, dev_corpus=dev)
    print(f"trained {mode}{'' if mask == head.MASK_ALL else ' (bias mask)'} "
          f"in {time.perf_counter() - t0:.0f}s")
    return CheckpointData(res.model, cfg, corpus.tokenizer, None, steps)


ckpts = {
    "slow": train("slow-only"),
    "fwl": train("full"),
    "bias": train("full", mask=head.MASK_BIAS_ONLY),
}
for name, ckpt in ckpts.items():
    save_checkpoint(out / f"{name}.ckpt", ckpt.model, ckpt.train_config, None,
                    ckpt.step, corpus.tokenizer)
print(f"checkpoints under {out}")

rows = harness.ablate(ckpts, dev)
print()
print(harness.ablation_table(rows))

print()
print("learned step sizes:",
      {k: round(float(v), 4) for k, v in ckpts["fwl"].model.alpha.items()})
