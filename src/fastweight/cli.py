"""Command-line interface.

Subcommands: train, score, generate, dyneval, ablate, analyze, bench, verify.
Exit codes: 0 success, 1 usage/config error, 2 I/O error, 3 numerical failure.
"""

import argparse
import dataclasses
import json
import sys
import warnings

import numpy as np

from . import backbone as bb
from . import harness, oracle
from . import training as tr
from .checkpoint import load_checkpoint
from .corpus import ingest
from .numerics import ConfigError, InputError, NumericalError, ShapeError, StateError


def _add_train_flags(p: argparse.ArgumentParser):
    for f in dataclasses.fields(tr.TrainConfig):
        flag = "--" + f.name.replace("_", "-")
        if f.name == "mode":
            p.add_argument(flag, choices=tr.MODES)
        elif f.type is bool:
            p.add_argument(flag, action="store_true", default=None)
        else:
            p.add_argument(flag, type=f.type)


def _build_parser():
    p = argparse.ArgumentParser(prog="fwl", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    t = sub.add_parser("train", help="train a model")
    t.add_argument("--train", required=True, help="training corpus path")
    t.add_argument("--dev", help="dev corpus path (defaults to a held-out split)")
    t.add_argument("--out", required=True, help="output directory")
    t.add_argument("--tokenizer", choices=("char", "word"), default="char")
    t.add_argument("--config", help="JSON file overriding train/model settings")
    for flag in ("--d-model", "--n-layers", "--n-heads", "--d-ff", "--d-hidden",
                 "--max-seq-len", "--memory-len", "--chunk-size"):
        t.add_argument(flag, type=int)
    t.add_argument("--fast-mask", help="comma-separated head tensors receiving fast weights")
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
    v.add_argument("--instances", type=int, default=30,
                   help="oracle instances; 30 reach every (T, d, vocab) case")
    return p


def _load_corpus_like(ckpt, path):
    tok = ckpt.tokenizer
    return ingest(path, tok if tok is not None else "char")


def _read_config(path) -> dict:
    """The --config file: {"train": {TrainConfig fields}, "model":
    {ModelConfig or BackboneConfig fields but vocab_size, which the corpus
    sets}}, each section optional. The configs' validate() checks the values."""
    with open(path) as fh:
        try:
            overrides = json.load(fh)
        except ValueError as e:
            raise ConfigError(f"{path} is not valid JSON: {e}") from e
    known = {"train": _names(tr.TrainConfig),
             "model": (_names(tr.ModelConfig) | _names(bb.BackboneConfig))
             - {"backbone", "vocab_size"}}
    if (not isinstance(overrides, dict) or set(overrides) - set(known)
            or not all(isinstance(v, dict) for v in overrides.values())):
        raise ConfigError(f"{path} must hold a JSON object with only \"train\" "
                          "and \"model\" objects")
    for section, value in overrides.items():
        if set(value) - known[section]:
            raise ConfigError(f"{path}: unknown {section} settings "
                              f"{sorted(set(value) - known[section])}")
    return overrides


def _names(cls) -> set[str]:
    return {f.name for f in dataclasses.fields(cls)}


def _pick(cls, settings: dict) -> dict:
    return {k: v for k, v in settings.items() if k in _names(cls)}


def cmd_train(args) -> int:
    """Each config is built from the flags given, then the --config
    overrides; a setting set by neither keeps its dataclass default, but the
    backbone seed defaults to the train seed."""
    overrides = _read_config(args.config) if args.config else {}
    flags = {k: v for k, v in vars(args).items() if v is not None}
    if "fast_mask" in flags:
        flags["mask"] = tuple(n for n in flags["fast_mask"].split(",") if n)
    train = {**_pick(tr.TrainConfig, flags), **overrides.get("train", {})}
    tcfg = tr.TrainConfig(**train).validate()

    corpus = ingest(args.train, args.tokenizer)
    dev = ingest(args.dev, corpus.tokenizer) if args.dev else None
    model = {**flags, "seed": tcfg.seed, **overrides.get("model", {}),
             "vocab_size": corpus.vocab_size}
    if isinstance(model.get("mask"), list):  # JSON has no tuples
        model["mask"] = tuple(model["mask"])
    bcfg = bb.BackboneConfig(**_pick(bb.BackboneConfig, model))
    mcfg = tr.ModelConfig(bcfg, **_pick(tr.ModelConfig, model)).validate()
    if "seq_len" not in train:  # train on every position that scoring reads
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
    fwl = harness.score(ckpt, corpus, "fwl")  # its slow losses are the baseline NLLs
    report = harness.analyze(fwl.slow_nll_docs, fwl.nll_docs, corpus)
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
    checks = oracle.verify(args.seed, args.instances)
    for c in checks:
        print(f"{'PASS' if c.ok else 'FAIL'}  {c.name} "
              f"(max abs err {c.err:.2e}, bound {c.bound:.0e})")
    failures = sum(not c.ok for c in checks)
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
