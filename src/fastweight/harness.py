"""Perplexity scoring in every variant, dynamic evaluation, ablations,
per-token analysis, cost accounting, and text generation."""

import csv
import io
import time
from dataclasses import dataclass

import numpy as np

from . import backbone as bb
from . import head as hd
from . import linear_attention as la
from .checkpoint import CheckpointData
from .corpus import UNK, Corpus, token_frequencies
from .numerics import ConfigError
from .training import Model, doc_segments, head_slow_vjp, score_streams

VARIANTS = ("baseline", "fwl", "test-time-only", "bias-only")


def _check_tokenizer(ckpt: CheckpointData, corpus: Corpus):
    if ckpt.tokenizer is not None and ckpt.tokenizer.vocab != corpus.tokenizer.vocab:
        raise ConfigError("checkpoint tokenizer does not match the corpus vocabulary")
    if corpus.vocab_size != ckpt.model.config.backbone.vocab_size:
        raise ConfigError(
            f"corpus vocab {corpus.vocab_size} does not match model vocab "
            f"{ckpt.model.config.backbone.vocab_size}")


def _variant_steps(model: Model, variant: str, global_step) -> hd.StepSizes | None:
    if variant == "baseline":
        return None
    if variant == "fwl":
        return model.step_sizes()
    if variant == "test-time-only":
        if global_step is None:
            raise ConfigError("test-time-only scoring needs a global step size")
        return hd.StepSizes.uniform(float(global_step), hd.MASK_ALL)
    if variant == "bias-only":
        return hd.StepSizes({"c": float(model.alpha["c"])}, hd.MASK_BIAS_ONLY)
    raise ConfigError(f"unknown variant {variant!r}; expected one of {VARIANTS}")


@dataclass
class ScoreResult:
    perplexity: float
    nll_docs: list[np.ndarray]   # one array per document, aligned to targets
    tokens_per_sec: float
    n_tokens: int


def _score_result(nll_docs: list[np.ndarray], wall: float) -> ScoreResult:
    """A mean NLL past ~709 overflows exp to an infinite perplexity; that is
    the result, not a warning (the CLI turns it into exit 3)."""
    total = np.concatenate(nll_docs) if nll_docs else np.zeros(0)
    with np.errstate(over="ignore"):
        ppl = float(np.exp(total.mean())) if total.size else float("nan")
    return ScoreResult(ppl, nll_docs, total.size / max(wall, 1e-9), total.size)


def score(ckpt: CheckpointData, corpus: Corpus, variant: str = "baseline",
          global_step: float | None = None, seq_len: int | None = None) -> ScoreResult:
    """Teacher-forced perplexity. Fast state resets at document boundaries;
    documents longer than the window are scored as threaded segments."""
    _check_tokenizer(ckpt, corpus)
    model = ckpt.model
    seq_len = seq_len or model.config.backbone.max_seq_len
    steps = _variant_steps(model, variant, global_step)
    t0 = time.perf_counter()
    nll_docs = score_streams(
        model, [list(doc_segments(doc, seq_len)) for doc in corpus.documents], steps)
    return _score_result(nll_docs, time.perf_counter() - t0)


def tune_global_step(ckpt: CheckpointData, dev_corpus: Corpus, grid) -> tuple[float, float]:
    """Grid-search the single test-time step size; ties go to the smaller step."""
    grid = sorted(float(g) for g in grid)
    if not grid:
        raise ConfigError("tune_global_step needs a non-empty grid")
    best_step, best_ppl = None, np.inf
    for g in grid:
        if g == 0.0:
            ppl = score(ckpt, dev_corpus, "baseline").perplexity
        else:
            ppl = score(ckpt, dev_corpus, "test-time-only", global_step=g).perplexity
        if ppl < best_ppl:
            best_step, best_ppl = g, ppl
    return best_step, best_ppl


def dynamic_evaluate(ckpt: CheckpointData, corpus: Corpus, step_size: float,
                     chunk_len: int = 32) -> ScoreResult:
    """Chunked test-time SGD on all parameters (backbone + head).

    Per document: score a chunk with the current weights, take one SGD step on
    the gradient of that chunk's mean loss, continue. Chunks follow the same
    segment convention as score (segment memory threads across them when the
    model has it), so a zero step size reproduces score(baseline, chunk_len)
    exactly. Weights reset per document; every document owns its private copy.
    """
    if chunk_len < 1:
        raise ConfigError(f"chunk_len must be >= 1, got {chunk_len}")
    _check_tokenizer(ckpt, corpus)
    base = ckpt.model
    seq_len = min(chunk_len, base.config.backbone.max_seq_len)
    nll_docs = []
    t0 = time.perf_counter()
    for doc in corpus.documents:
        model = base.copy()
        memory = None
        nlls = []
        for tokens, targets in doc_segments(doc, seq_len):
            H, bcache, memory = bb.encode_with_cache(model.backbone, tokens, memory)
            tape, losses = hd.slow_forward(model.head, H, targets)
            nlls.append(losses)
            if step_size != 0.0:
                dhead, dH = head_slow_vjp(model.head, tape, 1.0 / len(targets))
                bgrads = bb.encode_backward(model.backbone, bcache, dH)
                for name, g in dhead.items():
                    setattr(model.head, name, model.head.tensor(name) - step_size * g)
                for key, g in bgrads.items():
                    model.backbone.set(key, model.backbone.get(key) - step_size * g)
        nll_docs.append(np.concatenate(nlls) if nlls else np.zeros(0))
    return _score_result(nll_docs, time.perf_counter() - t0)


@dataclass
class AblationRow:
    name: str
    perplexity: float
    tokens_per_sec: float
    detail: str = ""


def ablate(checkpoints: dict[str, CheckpointData], corpus: Corpus,
           dev_corpus: Corpus | None = None,
           step_grid=(0.003, 0.01, 0.03, 0.1, 0.3),
           dyneval_steps=(0.003, 0.01, 0.03, 0.1),
           dyneval_chunk: int = 32) -> list[AblationRow]:
    """The five-way comparison table.

    `checkpoints` must provide "slow" (trained without fast weights) and
    "fwl"; "bias" (trained with a bias-only mask) is optional but its row
    errors if missing. Step sizes for the test-time rows are tuned on
    dev_corpus (the scored corpus when not given, mirroring dev-tuned dev
    numbers).
    """
    for need in ("slow", "fwl"):
        if need not in checkpoints:
            raise ConfigError(f"ablate is missing the {need!r} checkpoint")
    dev = dev_corpus or corpus
    rows = []

    res = score(checkpoints["slow"], corpus, "baseline")
    rows.append(AblationRow("No FWL", res.perplexity, res.tokens_per_sec))

    res = score(checkpoints["fwl"], corpus, "fwl")
    rows.append(AblationRow("FWL", res.perplexity, res.tokens_per_sec))

    best_step, _ = tune_global_step(checkpoints["slow"], dev, step_grid)
    res = (score(checkpoints["slow"], corpus, "test-time-only", global_step=best_step)
           if best_step else score(checkpoints["slow"], corpus, "baseline"))
    rows.append(AblationRow("Test-time only", res.perplexity, res.tokens_per_sec,
                            f"step={best_step:g}"))

    if "bias" not in checkpoints:
        raise ConfigError("ablate is missing the checkpoint for row 'Bias only'")
    res = score(checkpoints["bias"], corpus, "bias-only")
    rows.append(AblationRow("Bias only", res.perplexity, res.tokens_per_sec))

    best_dyn, best_ppl = None, np.inf
    for g in dyneval_steps:
        ppl = dynamic_evaluate(checkpoints["slow"], dev, g, dyneval_chunk).perplexity
        if ppl < best_ppl:
            best_dyn, best_ppl = g, ppl
    res = dynamic_evaluate(checkpoints["slow"], corpus, best_dyn, dyneval_chunk)
    rows.append(AblationRow("Dynamic Evaluation", res.perplexity, res.tokens_per_sec,
                            f"step={best_dyn:g} chunk={dyneval_chunk}"))
    return rows


def ablation_csv(rows: list[AblationRow]) -> str:
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["method", "perplexity", "tokens_per_sec", "detail"])
    for r in rows:
        w.writerow([r.name, f"{r.perplexity:.4f}", f"{r.tokens_per_sec:.1f}", r.detail])
    return buf.getvalue()


def ablation_table(rows: list[AblationRow]) -> str:
    name_w = max(len(r.name) for r in rows)
    lines = [f"{'Method'.ljust(name_w)}  {'PPL':>8}  {'Tok/s':>8}"]
    for r in rows:
        lines.append(f"{r.name.ljust(name_w)}  {r.perplexity:8.3f}  {r.tokens_per_sec:8.1f}")
    return "\n".join(lines)


@dataclass
class AnalyzeReport:
    position_deciles: list[dict]
    frequency_bins: list[dict]
    occurrence_buckets: list[dict]
    repeat_fraction: float
    n_tokens: int

    def csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["family", "bucket", "count", "mean_nll_baseline",
                    "mean_nll_fwl", "mean_improvement"])
        for family, buckets in (("position_decile", self.position_deciles),
                                ("log2_frequency", self.frequency_bins),
                                ("occurrence", self.occurrence_buckets)):
            for b in buckets:
                w.writerow([family, b["bucket"], b["count"],
                            f"{b['nll_baseline']:.6f}", f"{b['nll_fwl']:.6f}",
                            f"{b['improvement']:.6f}"])
        return buf.getvalue()


def _bucket_rows(pairs):
    out = []
    for key in sorted(pairs):
        base, fwl = pairs[key]
        base = np.array(base)
        fwl = np.array(fwl)
        out.append({
            "bucket": key,
            "count": base.size,
            "nll_baseline": float(base.mean()) if base.size else 0.0,
            "nll_fwl": float(fwl.mean()) if fwl.size else 0.0,
            "improvement": float((base - fwl).mean()) if base.size else 0.0,
        })
    return out


def analyze(nll_baseline: list[np.ndarray], nll_fwl: list[np.ndarray],
            corpus: Corpus) -> AnalyzeReport:
    """Bucketed mean NLL improvement of the fast-weight scores over baseline.

    Buckets partition the predicted tokens three ways: by position-in-document
    decile, by log2 corpus frequency of the target token, and by whether the
    target already occurred in the same document (with the repeat index).
    """
    if len(nll_baseline) != len(nll_fwl) or len(nll_baseline) != len(corpus.documents):
        raise ConfigError("NLL streams and corpus documents are misaligned")
    freqs = token_frequencies(corpus)
    pos_pairs: dict[int, tuple[list, list]] = {}
    freq_pairs: dict[int, tuple[list, list]] = {}
    occ_pairs: dict[str, tuple[list, list]] = {}
    n_repeats = 0
    n_total = 0
    for doc, base, fwl in zip(corpus.documents, nll_baseline, nll_fwl):
        if len(base) != len(doc) - 1 or len(fwl) != len(doc) - 1:
            raise ConfigError(
                f"stream length {len(base)}/{len(fwl)} does not match "
                f"{len(doc) - 1} predicted tokens")
        seen_counts: dict[int, int] = {}
        seen_counts[int(doc[0])] = 1
        n_pred = len(doc) - 1
        for p in range(n_pred):
            target = int(doc[p + 1])
            decile = min(9, (p * 10) // n_pred)
            fbin = int(np.log2(max(freqs[target], 1)))
            occ = seen_counts.get(target, 0)
            if occ == 0:
                okey = "first"
            elif occ == 1:
                okey = "repeat_1"
            elif occ == 2:
                okey = "repeat_2"
            else:
                okey = "repeat_3plus"
            if occ > 0:
                n_repeats += 1
            n_total += 1
            for pairs, key in ((pos_pairs, decile), (freq_pairs, fbin), (occ_pairs, okey)):
                slot = pairs.setdefault(key, ([], []))
                slot[0].append(base[p])
                slot[1].append(fwl[p])
            seen_counts[target] = occ + 1
    return AnalyzeReport(_bucket_rows(pos_pairs), _bucket_rows(freq_pairs),
                         _bucket_rows(occ_pairs), n_repeats / max(n_total, 1), n_total)


# ---------------------------------------------------------------------------
# cost accounting


def _ln_flops(d):
    return 8 * d


def backbone_flops_per_token(cfg: bb.BackboneConfig, context: int) -> int:
    d, dff = cfg.d_model, cfg.d_ff
    per_layer = (4 * 2 * d * d          # qkv + output projections
                 + 2 * 2 * context * d  # scores and weighted values
                 + 2 * d * dff * 2      # feed-forward
                 + 2 * _ln_flops(d))
    return cfg.n_layers * per_layer + _ln_flops(d) + 2 * d  # final LN + embeds


def head_slow_flops_per_token(d, m):
    return 2 * d * m + 2 * m + 2 * m * d + _ln_flops(d)


def output_softmax_flops_per_token(d, vocab):
    return 2 * d * vocab + 5 * vocab


def head_backward_flops_per_token(d, m, vocab):
    return (2 * vocab                  # softmax grad
            + 2 * vocab * d            # back through E
            + 10 * d                   # LayerNorm backward
            + 2 * d * m + 2 * m)       # back through W and the activation


def fast_pass_flops_per_token(d, m, vocab, mask, chunk_size) -> int:
    total = 2 * d * m + 2 * m + 2 * m * d + _ln_flops(d)  # recompose the head
    la_shapes = {"U": (d, m), "W": (m, d), "E": (d, vocab)}
    for name in mask:
        if name in la_shapes:
            dk, dv = la_shapes[name]
            # amortized mixed-chunk cost: intra-chunk quadratic + prefix state
            total += 2 * chunk_size * (dk + dv) + 4 * dk * dv
        else:
            dim = {"a": m, "b": d, "ln_gain": d, "ln_bias": d, "c": vocab}[name]
            total += 2 * dim
    return total


def flop_report(model: Model, context: int | None = None) -> dict:
    """Analytic per-token FLOPs by component (multiply-add = 2 flops).

    Baseline total = backbone + head_slow + output_softmax; the fast-weight
    overhead is confined to head_backward, fast_pass and the extra softmax.
    """
    cfg = model.config.backbone
    context = context or cfg.max_seq_len
    d, m, vocab = cfg.d_model, model.config.d_hidden, cfg.vocab_size
    backbone_f = backbone_flops_per_token(cfg, context)
    head_f = head_slow_flops_per_token(d, m)
    softmax_f = output_softmax_flops_per_token(d, vocab)
    backward_f = head_backward_flops_per_token(d, m, vocab)
    fast_f = fast_pass_flops_per_token(d, m, vocab, model.mask,
                                       model.config.chunk_size)
    baseline = backbone_f + head_f + softmax_f
    fwl = baseline + backward_f + fast_f + softmax_f
    return {
        "backbone": backbone_f,
        "head_slow": head_f,
        "output_softmax": softmax_f,
        "head_backward": backward_f,
        "fast_pass": fast_f,
        "fast_softmax": softmax_f,
        "baseline_total": baseline,
        "fwl_total": fwl,
        "fwl_overhead_ratio": fwl / baseline,
        "dyneval_total": 3 * baseline,  # extra forward + backward over everything
        "attention_kernel": {
            "quadratic_T4096_d64": la.flops_quadratic(4096, 64, 64),
            "chunked_T4096_d64_C128": la.flops_chunked(4096, 64, 64, 128),
        },
    }


@dataclass
class BenchReport:
    flops: dict
    measured: dict[str, float]  # tokens/sec by variant


_BENCH_REPEATS = 3


def _median_tokens_per_sec(run) -> float:
    """One untimed warm-up call, then the median rate of _BENCH_REPEATS calls."""
    run()
    return float(np.median([run().tokens_per_sec for _ in range(_BENCH_REPEATS)]))


def bench(ckpt: CheckpointData, corpus: Corpus, dyneval_step: float = 0.01,
          dyneval_chunk: int = 32, max_docs: int | None = None) -> BenchReport:
    """Analytic FLOP report plus measured scoring throughput, each rate the
    median of _BENCH_REPEATS runs after a warm-up."""
    docs = corpus.documents[:max_docs] if max_docs else corpus.documents
    sub = Corpus(docs, corpus.tokenizer)
    measured = {}
    measured["baseline_tokens_per_sec"] = _median_tokens_per_sec(
        lambda: score(ckpt, sub, "baseline"))
    measured["fwl_tokens_per_sec"] = _median_tokens_per_sec(
        lambda: score(ckpt, sub, "fwl"))
    measured["dyneval_tokens_per_sec"] = _median_tokens_per_sec(
        lambda: dynamic_evaluate(ckpt, sub, dyneval_step, dyneval_chunk))
    measured["dyneval_cost_ratio"] = (measured["baseline_tokens_per_sec"]
                                      / max(measured["dyneval_tokens_per_sec"], 1e-9))
    measured["fwl_cost_ratio"] = (measured["baseline_tokens_per_sec"]
                                  / max(measured["fwl_tokens_per_sec"], 1e-9))
    return BenchReport(flop_report(ckpt.model), measured)


# ---------------------------------------------------------------------------
# generation


def repeated_ngram_fraction(ids, n: int = 4) -> float:
    """Fraction of n-grams that already occurred earlier in the sequence."""
    ids = list(ids)
    if len(ids) < n + 1:
        return 0.0
    seen = set()
    repeats = 0
    total = 0
    for i in range(len(ids) - n + 1):
        gram = tuple(ids[i:i + n])
        if gram in seen:
            repeats += 1
        seen.add(gram)
        total += 1
    return repeats / total


def generate(ckpt: CheckpointData, prompt: str, n_tokens: int,
             temperature: float = 1.0, seed: int = 0,
             variant: str = "fwl") -> str:
    """Sample text. The prompt is teacher-forced with per-token fast updates,
    then tokens are sampled one at a time with the sequential update rule."""
    if ckpt.tokenizer is None:
        raise ConfigError("checkpoint carries no tokenizer; cannot generate")
    model = ckpt.model
    bcfg = model.config.backbone
    ids = list(ckpt.tokenizer.encode(prompt))
    if not ids:
        raise ConfigError("prompt produced no tokens")
    unk = ckpt.tokenizer.index.get(UNK)
    n_unk = sum(1 for i in ids if i == unk)
    if n_unk:
        import sys
        print(f"warning: {n_unk} prompt token(s) outside the vocabulary were "
              f"mapped to {UNK}", file=sys.stderr)
    if variant == "baseline":
        steps = hd.StepSizes.uniform(0.0, ())
    elif variant == "fwl":
        steps = model.step_sizes()
    else:
        raise ConfigError(f"generate supports baseline or fwl, got {variant!r}")
    rng = np.random.default_rng(seed)
    offsets = hd.StreamState.zeros(model.head, steps.mask)

    window = ids[-bcfg.max_seq_len:]
    H = bb.encode(model.backbone, np.array(window))
    if steps.mask:
        # the prompt's summed slow gradients, as score carries them between segments
        tape, _ = hd.slow_forward(model.head, H[:-1], window[1:])
        grads = hd.per_position_grads(model.head, tape)
        offsets = hd.update_stream_state(offsets, grads, tape, {})
    h = H[-1]
    for _ in range(n_tokens):
        out = hd.generate_step(model.head, steps, offsets, h, temperature, rng)
        offsets = out.offsets
        ids.append(out.token)
        window = ids[-bcfg.max_seq_len:]
        h = bb.encode(model.backbone, np.array(window))[-1]
    return ckpt.tokenizer.decode(ids)
