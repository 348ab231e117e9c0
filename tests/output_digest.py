"""One sha256 over the library's outputs, for a change that must keep them
bit for bit.

    python tests/output_digest.py

prints the digest. Run it in both checkouts and compare the two lines; to
run it in an older checkout that lacks this file, copy the file in first.

At memory_len 0 and 3, with the mask all and bias-only, it hashes:
`score` in every variant the mask allows; `dynamic_evaluate` at step 0 and
at a nonzero step; three optimizer steps through `fit` in every mode, with
and without streaming, as the metrics they log and the bytes of the
checkpoints they save; and fwl and baseline generation at temperatures 1,
0.7 and 0 after prompts that span no, one and two whole segments. The
sizes are tiny, so one run takes about a second.
"""

import hashlib
import json
import os
import sys
import tempfile

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "src"))

from fastweight import backbone as bb  # noqa: E402
from fastweight import harness as hn  # noqa: E402
from fastweight import head as hd  # noqa: E402
from fastweight import training as tr  # noqa: E402
from fastweight.checkpoint import CheckpointData  # noqa: E402
from fastweight.corpus import Corpus, TokenizerSpec  # noqa: E402

VOCAB = 13
SEQ = 8  # max_seq_len; the prompts below span 0, 1 and 2 whole segments
PROMPT_LENS = (3, SEQ + 4, 2 * SEQ + 4)
N_SAMPLED = 10  # enough for every prompt's generation to cross a segment end


def _corpus() -> Corpus:
    rng = np.random.default_rng(11)
    docs = [rng.integers(0, VOCAB, size=n) for n in (6, 19, 30)]
    return Corpus(docs, TokenizerSpec("word", [f"w{i}" for i in range(VOCAB)]))


def _model_config(memory_len: int, mask) -> tr.ModelConfig:
    return tr.ModelConfig(
        backbone=bb.BackboneConfig(vocab_size=VOCAB, d_model=8, n_layers=2, n_heads=2,
                                   d_ff=12, max_seq_len=SEQ, memory_len=memory_len, seed=3),
        d_hidden=6, mask=mask, chunk_size=4, alpha_init=0.05)


def _add(h, label: str, value):
    a = np.ascontiguousarray(np.asarray(value))
    h.update(f"{label}|{a.dtype.str}|{a.shape}|".encode())
    h.update(a.tobytes())


def _add_all(h, label: str, arrays):
    for i, a in enumerate(arrays):
        _add(h, f"{label}[{i}]", a)


def _fit_outputs(h, label, corpus, model_config, mode, streaming):
    config = tr.TrainConfig(batch_size=2, seq_len=6, total_steps=3, warmup_steps=1,
                            mode=mode, streaming=streaming, eval_every=2, seed=1)
    with tempfile.TemporaryDirectory() as out:
        res = tr.fit(corpus, config, model_config, dev_corpus=corpus, out_dir=out)
        for name in ("final.ckpt", "best.ckpt"):
            with open(os.path.join(out, name), "rb") as f:
                h.update(f"{label}|{name}|".encode() + f.read())
        with open(res.metrics_path) as f:
            for line in f:
                record = json.loads(line)
                del record["wall_ms"]
                h.update(f"{label}|{json.dumps(record, sort_keys=True)}".encode())


def digest() -> str:
    h = hashlib.sha256()
    corpus = _corpus()
    prompt = np.random.default_rng(12).integers(0, VOCAB, size=max(PROMPT_LENS))
    for memory_len in (0, 3):
        for mask in (hd.MASK_ALL, hd.MASK_BIAS_ONLY):
            at = f"m{memory_len}/{'+'.join(mask)}"
            model_config = _model_config(memory_len, mask)
            ckpt = CheckpointData(tr.init_model(model_config), None, corpus.tokenizer,
                                  None, 0)
            variants = hn.VARIANTS if mask == hd.MASK_ALL else ("baseline", "fwl",
                                                                "bias-only")
            for variant in variants:
                res = hn.score(ckpt, corpus, variant, global_step=0.05)
                _add_all(h, f"{at}/score/{variant}", res.nll_docs)
                _add_all(h, f"{at}/score/{variant}/slow", res.slow_nll_docs)
            for step in (0.0, 0.05):
                res = hn.dynamic_evaluate(ckpt, corpus, step, chunk_len=5)
                _add_all(h, f"{at}/dyneval/{step}", res.nll_docs)
            for mode in tr.MODES:
                for streaming in (False, True):
                    _fit_outputs(h, f"{at}/fit/{mode}/{streaming}", corpus, model_config,
                                 mode, streaming)
            for variant in ("fwl", "baseline"):
                for temperature in (1.0, 0.7, 0.0):
                    for n in PROMPT_LENS:
                        gen = hn.generate_ids(ckpt.model, prompt[:n], N_SAMPLED,
                                              temperature, seed=n, variant=variant)
                        label = f"{at}/generate/{variant}/{temperature}/{n}"
                        _add(h, f"{label}/ids", gen.ids)
                        _add(h, f"{label}/fast_losses", gen.fast_losses)
    return h.hexdigest()


if __name__ == "__main__":
    print(digest())
