"""Command-line interface.

Subcommands: train, score, generate, dyneval, ablate, analyze, bench, verify.
Exit codes: 0 success, 1 usage/config error, 2 I/O error, 3 numerical failure.
"""

import argparse
import csv
import dataclasses
import json
import sys
import warnings

import numpy as np

from . import backbone as bb
from . import harness, head, oracle
from . import linear_attention as la
from . import training as tr
from .checkpoint import CheckpointData, load_checkpoint
from .corpus import Corpus, TokenizerSpec, ingest
from .numerics import ConfigError, InputError, NumericalError, ShapeError, StateError


def _add_train_flags(p: argparse.ArgumentParser):
    defaults = tr.TrainConfig()
    for f in dataclasses.fields(tr.TrainConfig):
        flag = "--" + f.name.replace("_", "-")
        default = getattr(defaults, f.name)
        if f.name == "mode":
            p.add_argument(flag, choices=tr.MODES, default=None)
        elif isinstance(default, bool):
            p.add_argument(flag, action="store_true", default=None)
        else:
            p.add_argument(flag, type=type(default), default=None)


def _build_parser():
    p = argparse.ArgumentParser(prog="fwl", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    t = sub.add_parser("train", help="train a model")
    t.add_argument("--train", required=True, help="training corpus path")
    t.add_argument("--dev", help="dev corpus path (defaults to a held-out split)")
    t.add_argument("--out", required=True, help="output directory")
    t.add_argument("--tokenizer", choices=("char", "word"), default="char")
    t.add_argument("--config", help="JSON file overriding train/model settings")
    t.add_argument("--d-model", type=int, default=64)
    t.add_argument("--n-layers", type=int, default=2)
    t.add_argument("--n-heads", type=int, default=4)
    t.add_argument("--d-ff", type=int, default=256)
    t.add_argument("--d-hidden", type=int, default=64)
    t.add_argument("--max-seq-len", type=int, default=128)
    t.add_argument("--memory-len", type=int, default=0)
    t.add_argument("--chunk-size", type=int, default=64)
    t.add_argument("--fast-mask", default=",".join(head.MASK_ALL),
                   help="comma-separated head tensors receiving fast weights")
    t.add_argument("--resume", help="checkpoint to resume from")
    _add_train_flags(t)

    s = sub.add_parser("score", help="perplexity of a corpus")
    s.add_argument("--ckpt", required=True)
    s.add_argument("--corpus", required=True)
    s.add_argument("--variant", choices=harness.VARIANTS, default="baseline")
    s.add_argument("--global-step", type=float)
    s.add_argument("--nll-out", help="write per-document NLL streams as JSONL")

    g = sub.add_parser("generate", help="sample text")
    g.add_argument("--ckpt", required=True)
    g.add_argument("--prompt", required=True)
    g.add_argument("--n-tokens", type=int, default=100)
    g.add_argument("--temperature", type=float, default=1.0)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--variant", choices=("baseline", "fwl"), default="fwl")

    d = sub.add_parser("dyneval", help="dynamic-evaluation baseline")
    d.add_argument("--ckpt", required=True)
    d.add_argument("--corpus", required=True)
    d.add_argument("--step-size", type=float, required=True)
    d.add_argument("--chunk-len", type=int, default=32)

    a = sub.add_parser("ablate", help="five-variant comparison table")
    a.add_argument("--slow-ckpt", required=True)
    a.add_argument("--fwl-ckpt", required=True)
    a.add_argument("--bias-ckpt", required=True)
    a.add_argument("--corpus", required=True)
    a.add_argument("--dev", help="corpus for tuning step sizes")
    a.add_argument("--csv", help="write the table as CSV here")

    an = sub.add_parser("analyze", help="per-token improvement buckets")
    an.add_argument("--ckpt", required=True, help="FWL checkpoint")
    an.add_argument("--corpus", required=True)
    an.add_argument("--csv", help="write buckets as CSV here")

    b = sub.add_parser("bench", help="FLOP accounting and throughput")
    b.add_argument("--ckpt", required=True)
    b.add_argument("--corpus", required=True)
    b.add_argument("--max-docs", type=int)
    b.add_argument("--dyneval-step", type=float, default=0.01)

    v = sub.add_parser("verify", help="oracle, kernel and generation consistency suites")
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--instances", type=int, default=20)
    return p


def _load_corpus_like(ckpt, path):
    tok = ckpt.tokenizer
    return ingest(path, tok if tok is not None else "char")


# The JSON values that may stand for a config field of each annotated type
# (bool is an int subclass, so a bool is accepted only for a bool field).
_JSON_TYPES = {bool: bool, int: int, float: (int, float), str: str, tuple[str, ...]: list}


def _read_config(path) -> dict:
    """The --config file: {"train": {TrainConfig fields}, "model":
    {ModelConfig or BackboneConfig fields but vocab_size, which the corpus
    sets}}, each section optional."""
    with open(path) as fh:
        try:
            overrides = json.load(fh)
        except ValueError as e:
            raise ConfigError(f"{path} is not valid JSON: {e}") from e
    known = {"train": {f.name: f.type for f in dataclasses.fields(tr.TrainConfig)},
             "model": {f.name: f.type for c in (tr.ModelConfig, bb.BackboneConfig)
                       for f in dataclasses.fields(c)
                       if f.name not in ("backbone", "vocab_size")}}
    if (not isinstance(overrides, dict) or set(overrides) - set(known)
            or not all(isinstance(v, dict) for v in overrides.values())):
        raise ConfigError(f"{path} must hold a JSON object with only \"train\" "
                          "and \"model\" objects")
    for section, value in overrides.items():
        if set(value) - set(known[section]):
            raise ConfigError(f"{path}: unknown {section} settings "
                              f"{sorted(set(value) - set(known[section]))}")
        for name, v in value.items():
            want = known[section][name]
            if not isinstance(v, _JSON_TYPES[want]) or (isinstance(v, bool) and want is not bool):
                raise ConfigError(f"{path}: {section} setting {name!r} has the wrong "
                                  f"type: {json.dumps(v)}")
    return overrides


def cmd_train(args) -> int:
    tcfg_kwargs = {}
    for f in dataclasses.fields(tr.TrainConfig):
        v = getattr(args, f.name, None)
        if v is not None:
            tcfg_kwargs[f.name] = v
    overrides = _read_config(args.config) if args.config else {}
    tcfg_kwargs.update(overrides.get("train", {}))
    tcfg = tr.TrainConfig(**tcfg_kwargs).validate()

    corpus = ingest(args.train, args.tokenizer)
    dev = ingest(args.dev, corpus.tokenizer) if args.dev else None
    mask = tuple(n for n in args.fast_mask.split(",") if n)
    bcfg = bb.BackboneConfig(
        vocab_size=corpus.vocab_size, d_model=args.d_model,
        n_layers=args.n_layers, n_heads=args.n_heads, d_ff=args.d_ff,
        max_seq_len=args.max_seq_len, memory_len=args.memory_len,
        seed=tcfg.seed)
    mcfg = tr.ModelConfig(backbone=bcfg, d_hidden=args.d_hidden, mask=mask,
                          chunk_size=args.chunk_size)
    for k, v in overrides.get("model", {}).items():
        if k == "mask":
            mcfg.mask = tuple(v)
        elif hasattr(mcfg.backbone, k):
            setattr(mcfg.backbone, k, v)
        else:
            setattr(mcfg, k, v)
    mcfg.validate()
    if "seq_len" not in tcfg_kwargs:  # train on every position that scoring reads
        tcfg.seq_len = mcfg.backbone.max_seq_len
    res = tr.fit(corpus, tcfg, mcfg, dev_corpus=dev, out_dir=args.out,
                 resume_from=args.resume, quiet=False)
    print(f"best dev ppl {np.exp(res.best_dev_nll):.4f}; "
          f"checkpoints in {args.out}")
    return 0


def _check_perplexity(res, what: str):
    """JSON has no Infinity or NaN: a non-finite score is a numerical failure."""
    if not np.isfinite(res.perplexity):
        raise NumericalError(f"{what} perplexity is {res.perplexity} "
                             f"over {res.n_tokens} tokens")


def cmd_score(args) -> int:
    ckpt = load_checkpoint(args.ckpt)
    corpus = _load_corpus_like(ckpt, args.corpus)
    res = harness.score(ckpt, corpus, args.variant, global_step=args.global_step)
    _check_perplexity(res, f"{args.variant} variant")
    if args.nll_out:
        with open(args.nll_out, "w") as fh:
            for doc_nll in res.nll_docs:
                fh.write(json.dumps([float(x) for x in doc_nll]) + "\n")
    print(json.dumps({"variant": args.variant, "perplexity": res.perplexity,
                      "tokens": res.n_tokens,
                      "tokens_per_sec": round(res.tokens_per_sec, 1)}))
    return 0


def cmd_generate(args) -> int:
    ckpt = load_checkpoint(args.ckpt)
    text = harness.generate(ckpt, args.prompt, args.n_tokens,
                            temperature=args.temperature, seed=args.seed,
                            variant=args.variant)
    print(text)
    return 0


def cmd_dyneval(args) -> int:
    ckpt = load_checkpoint(args.ckpt)
    corpus = _load_corpus_like(ckpt, args.corpus)
    res = harness.dynamic_evaluate(ckpt, corpus, args.step_size, args.chunk_len)
    _check_perplexity(res, f"dynamic evaluation (step size {args.step_size:g})")
    print(json.dumps({"perplexity": res.perplexity, "tokens": res.n_tokens,
                      "tokens_per_sec": round(res.tokens_per_sec, 1)}))
    return 0


def cmd_ablate(args) -> int:
    ckpts = {
        "slow": load_checkpoint(args.slow_ckpt),
        "fwl": load_checkpoint(args.fwl_ckpt),
        "bias": load_checkpoint(args.bias_ckpt),
    }
    corpus = _load_corpus_like(ckpts["slow"], args.corpus)
    dev = _load_corpus_like(ckpts["slow"], args.dev) if args.dev else None
    rows = harness.ablate(ckpts, corpus, dev)
    print(harness.ablation_table(rows))
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write(harness.ablation_csv(rows))
    return 0


def cmd_analyze(args) -> int:
    ckpt = load_checkpoint(args.ckpt)
    corpus = _load_corpus_like(ckpt, args.corpus)
    base = harness.score(ckpt, corpus, "baseline")
    fwl = harness.score(ckpt, corpus, "fwl")
    report = harness.analyze(base.nll_docs, fwl.nll_docs, corpus)
    print(json.dumps({
        "repeat_fraction": round(report.repeat_fraction, 4),
        "tokens": report.n_tokens,
        "occurrence": {b["bucket"]: round(b["improvement"], 5)
                       for b in report.occurrence_buckets},
        "first_decile_improvement": round(report.position_deciles[0]["improvement"], 5),
        "last_decile_improvement": round(report.position_deciles[-1]["improvement"], 5),
    }, indent=2))
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write(report.csv())
    return 0


def cmd_bench(args) -> int:
    ckpt = load_checkpoint(args.ckpt)
    corpus = _load_corpus_like(ckpt, args.corpus)
    report = harness.bench(ckpt, corpus, dyneval_step=args.dyneval_step,
                           max_docs=args.max_docs)
    print(json.dumps({"flops_per_token": report.flops,
                      "measured": {k: round(v, 3) for k, v in report.measured.items()}},
                     indent=2, default=float))
    return 0


def cmd_verify(args) -> int:
    if args.instances < 1:
        raise ConfigError(f"instances must be >= 1, got {args.instances}")
    if args.seed < 0:
        raise ConfigError(f"seed must be >= 0, got {args.seed}")
    rng = np.random.default_rng(args.seed)
    failures = 0

    def check(name, ok):
        nonlocal failures
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
        if not ok:
            failures += 1

    masks = [head.MASK_BIAS_ONLY, head.MASK_VECTORS, head.MASK_MATRICES, head.MASK_ALL]
    worst = 0.0
    for i in range(args.instances):
        T = int(rng.choice([1, 2, 17, 64]))
        d = int(rng.choice([4, 16]))
        vocab = int(rng.choice([3, 17]))
        params = head.init_head(d, d, vocab, seed=int(rng.integers(1 << 30)))
        H = rng.normal(size=(T, d))
        targets = rng.integers(0, vocab, size=T)
        alphas = {n: float(a) for n, a in zip(
            head.TENSOR_NAMES, 0.05 * rng.uniform(-1, 1, 8))}
        steps = {n: alphas[n] for n in masks[i % 4]}
        tape, _ = head.slow_forward(params, H, targets)
        grads = head.per_position_grads(params, tape)
        fast = head.fast_forward(params, steps, H, tape, grads, chunk_size=16)
        ref = oracle.sequential_fast_forward(params, steps, H, targets)
        worst = max(worst, float(np.abs(fast.losses - ref).max()))
    check(f"oracle equivalence over {args.instances} instances "
          f"(max abs err {worst:.2e})", worst < 1e-9)

    worst = 0.0
    for T in (1, 2, 17, 257):
        q = rng.normal(size=(T, 8))
        k = rng.normal(size=(T, 8))
        v = rng.normal(size=(T, 5))
        ref, _ = la.causal_linear_attention(q, k, v)
        for chunk in (1, 7, 64, T):
            got, _ = la.chunked_causal_linear_attention(q, k, v, chunk)
            worst = max(worst, float(np.abs(got - ref).max()))
    check(f"chunked attention exactness (max abs err {worst:.2e})", worst < 1e-10)

    q = rng.normal(size=(40, 6))
    k = rng.normal(size=(40, 6))
    v = rng.normal(size=(40, 6))
    whole, ws = la.causal_linear_attention(q, k, v)
    a, mid = la.causal_linear_attention(q[:17], k[:17], v[:17])
    b, end = la.causal_linear_attention(q[17:], k[17:], v[17:], mid)
    err = max(float(np.abs(np.vstack([a, b]) - whole).max()),
              float(np.abs(end.accumulator - ws.accumulator).max()))
    check(f"kv-state additivity (max abs err {err:.2e})", err < 1e-10)

    # a tiny random model with segment memory, sampled across three segments
    vocab = 7
    tok = TokenizerSpec("word", [f"w{i}" for i in range(vocab)])
    model = tr.init_model(tr.ModelConfig(
        bb.BackboneConfig(vocab_size=vocab, d_model=8, n_layers=2, n_heads=2, d_ff=16,
                          max_seq_len=8, memory_len=3, seed=args.seed),
        d_hidden=8, chunk_size=4))
    for n in head.TENSOR_NAMES:
        model.alpha[n] = np.float64(rng.uniform(0.1, 0.5))
        model.gamma_raw[n] = np.float64(rng.normal())
    ckpt = CheckpointData(model, None, tok, None, 0)
    prompt = rng.integers(0, vocab, size=5)
    worst = 0.0
    for variant in ("fwl", "baseline"):
        gen = harness.generate_ids(model, prompt, 20, seed=args.seed, variant=variant)
        scored = harness.score(ckpt, Corpus([np.array(gen.ids)], tok), variant)
        worst = max(worst, float(np.abs(scored.nll_docs[0][len(prompt) - 1:]
                                        - gen.fast_losses).max()))
    check(f"generation/scoring consistency (max abs err {worst:.2e})", worst < 1e-9)

    if failures:
        print(f"{failures} verification check(s) failed")
    return 3 if failures else 0


_HANDLERS = {
    "train": cmd_train,
    "score": cmd_score,
    "generate": cmd_generate,
    "dyneval": cmd_dyneval,
    "ablate": cmd_ablate,
    "analyze": cmd_analyze,
    "bench": cmd_bench,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 1 if e.code not in (0, None) else 0
    try:
        with warnings.catch_warnings():  # a library warning is one stderr line
            warnings.showwarning = lambda message, *_: print(f"warning: {message}",
                                                              file=sys.stderr)
            return _HANDLERS[args.command](args)
    except (ConfigError, InputError, ShapeError, StateError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return 2
    except NumericalError as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
