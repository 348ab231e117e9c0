"""Perplexity scoring in every variant, dynamic evaluation, ablations,
per-token analysis, cost accounting, and text generation."""

import csv
import io
import time
import warnings
from dataclasses import dataclass

import numpy as np

from . import backbone as bb
from . import head as hd
from . import linear_attention as la
from .checkpoint import CheckpointData
from .corpus import UNK, Corpus, token_frequencies
from .numerics import ConfigError, NumericalError
# head_slow_vjp is not called here; perfbench's spans.WRAPPED wraps harness.head_slow_vjp
from .training import (Model, StreamCarry, doc_segments, head_slow_vjp,  # noqa: F401
                       read_segment, score_streams, sequence_loss_and_grads)

VARIANTS = ("baseline", "fwl", "test-time-only", "bias-only")


def _check_tokenizer(ckpt: CheckpointData, corpus: Corpus):
    if ckpt.tokenizer is not None and ckpt.tokenizer.vocab != corpus.tokenizer.vocab:
        raise ConfigError("checkpoint tokenizer does not match the corpus vocabulary")
    if corpus.vocab_size != ckpt.model.config.backbone.vocab_size:
        raise ConfigError(
            f"corpus vocab {corpus.vocab_size} does not match model vocab "
            f"{ckpt.model.config.backbone.vocab_size}")


def _variant_steps(model: Model, variant: str, global_step) -> hd.StepSizes:
    """The step sizes a variant reads; {}, which a zero test-time step gives
    too, means no fast weights. A model holds step sizes and decays only for
    its own fast tensors, so a variant that makes others fast cannot run."""
    if variant == "baseline":
        return {}
    if variant == "fwl":
        return model.step_sizes()
    if variant not in VARIANTS:
        raise ConfigError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    mask = hd.MASK_BIAS_ONLY if variant == "bias-only" else hd.MASK_ALL
    lacking = [n for n in mask if n not in model.mask]
    if lacking:
        raise ConfigError(f"{variant} scoring makes {lacking} fast, but this model holds "
                          f"step sizes and decays only for its mask {list(model.mask)}")
    if variant == "bias-only":
        return {"c": float(model.alpha["c"])}
    if global_step is None:
        raise ConfigError("test-time-only scoring needs a global step size")
    if not np.isfinite(global_step):
        raise ConfigError(f"global step must be finite, got {global_step}")
    return dict.fromkeys(mask, float(global_step)) if global_step else {}


@dataclass
class ScoreResult:
    perplexity: float
    nll_docs: list[np.ndarray]   # one array per document, aligned to targets
    tokens_per_sec: float
    n_tokens: int
    slow_nll_docs: list[np.ndarray]  # the same pass without fast weights: baseline's NLLs


def _score_result(nll_docs: list[np.ndarray], wall: float, slow_nll_docs) -> ScoreResult:
    """A mean NLL past ~709 overflows exp to an infinite perplexity; that is
    the result, not a warning (the CLI turns it into exit 3)."""
    total = np.concatenate(nll_docs) if nll_docs else np.zeros(0)
    with np.errstate(over="ignore"):
        ppl = float(np.exp(total.mean())) if total.size else float("nan")
    return ScoreResult(ppl, nll_docs, total.size / max(wall, 1e-9), total.size, slow_nll_docs)


def score(ckpt: CheckpointData, corpus: Corpus, variant: str = "baseline",
          global_step: float | None = None, seq_len: int | None = None) -> ScoreResult:
    """Teacher-forced perplexity. Fast state resets at document boundaries;
    documents longer than the window are scored as threaded segments. A step
    that overflows gives a non-finite perplexity, not numpy warnings."""
    _check_tokenizer(ckpt, corpus)
    model = ckpt.model
    seq_len = seq_len or model.config.backbone.max_seq_len
    steps = _variant_steps(model, variant, global_step)
    t0 = time.perf_counter()
    with np.errstate(all="ignore"):
        nll_docs, slow_nll_docs = score_streams(
            model, [list(doc_segments(doc, seq_len)) for doc in corpus.documents], steps)
    return _score_result(nll_docs, time.perf_counter() - t0, slow_nll_docs)


def _grid_search(grid, perplexity_at) -> tuple[float, float]:
    """The step of grid with the lowest perplexity_at(step), and that
    perplexity. The grid is searched in sorted order and ties go to the
    smaller step; a grid with no finite perplexity is a numerical failure."""
    grid = sorted(float(g) for g in grid)
    if not grid:
        raise ConfigError("a step-size grid must not be empty")
    best_step, best_ppl = None, np.inf
    for g in grid:
        ppl = perplexity_at(g)
        if ppl < best_ppl:
            best_step, best_ppl = g, ppl
    if best_step is None:
        raise NumericalError(f"no step in the grid {grid} gives a finite perplexity")
    return best_step, best_ppl


def tune_global_step(ckpt: CheckpointData, dev_corpus: Corpus, grid) -> tuple[float, float]:
    """Grid-search the single test-time step size (see _grid_search)."""
    return _grid_search(grid, lambda g: score(ckpt, dev_corpus, "test-time-only",
                                              global_step=g).perplexity)


def dynamic_evaluate(ckpt: CheckpointData, corpus: Corpus, step_size: float,
                     chunk_len: int = 32) -> ScoreResult:
    """Chunked test-time SGD on all parameters (backbone + head).

    Per document: score a chunk with the current weights, take one SGD step on
    the gradient of that chunk's mean loss, continue. That is slow-only
    streaming training with SGD: each chunk is one sequence_loss_and_grads
    segment, with a StreamCarry threading segment memory across them when the
    model has it. So a zero step size is score(baseline, chunk_len), and is
    computed as that. Weights reset per document; every document owns its
    private copy, and each chunk's step is written in place into that copy's
    arrays once the chunk's backward has read them. A step that overflows the
    weights scores as a non-finite perplexity, not as numpy warnings (the CLI
    turns it into exit 3).
    """
    if chunk_len < 1:
        raise ConfigError(f"chunk_len must be >= 1, got {chunk_len}")
    if not np.isfinite(step_size):
        raise ConfigError(f"step_size must be finite, got {step_size}")
    _check_tokenizer(ckpt, corpus)
    base = ckpt.model
    seq_len = min(chunk_len, base.config.backbone.max_seq_len)
    if step_size == 0.0:
        return score(ckpt, corpus, "baseline", seq_len=seq_len)
    nll_docs = []
    t0 = time.perf_counter()
    with np.errstate(all="ignore"):
        for doc in corpus.documents:
            model = base.copy()
            params = dict(model.named_params())
            carry = StreamCarry()
            nlls = []
            for tokens, targets in doc_segments(doc, seq_len):
                res = sequence_loss_and_grads(model, tokens, targets, "slow-only", carry,
                                              w=1.0 / len(targets))
                nlls.append(res.losses)
                carry = res.carry
                for key, g in res.grads.items():
                    params[key] -= step_size * g
            nll_docs.append(np.concatenate(nlls) if nlls else np.zeros(0))
    return _score_result(nll_docs, time.perf_counter() - t0, nll_docs)


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

    `checkpoints` must provide "slow" (trained without fast weights), "fwl"
    and "bias" (trained with a bias-only mask); a missing one is a
    ConfigError before anything is scored. Step sizes for the test-time rows
    are tuned on dev_corpus (the scored corpus when not given, mirroring
    dev-tuned dev numbers).
    """
    for need in ("slow", "fwl", "bias"):
        if need not in checkpoints:
            raise ConfigError(f"ablate is missing the {need!r} checkpoint")
    dev = dev_corpus or corpus
    rows = []

    res = score(checkpoints["slow"], corpus, "baseline")
    rows.append(AblationRow("No FWL", res.perplexity, res.tokens_per_sec))

    res = score(checkpoints["fwl"], corpus, "fwl")
    rows.append(AblationRow("FWL", res.perplexity, res.tokens_per_sec))

    best_step, _ = tune_global_step(checkpoints["slow"], dev, step_grid)
    res = score(checkpoints["slow"], corpus, "test-time-only", global_step=best_step)
    rows.append(AblationRow("Test-time only", res.perplexity, res.tokens_per_sec,
                            f"step={best_step:g}"))

    res = score(checkpoints["bias"], corpus, "bias-only")
    rows.append(AblationRow("Bias only", res.perplexity, res.tokens_per_sec))

    best_dyn, _ = _grid_search(dyneval_steps, lambda g: dynamic_evaluate(
        checkpoints["slow"], dev, g, dyneval_chunk).perplexity)
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


def analyze(nll_baseline: list[np.ndarray], nll_fwl: list[np.ndarray],
            corpus: Corpus) -> AnalyzeReport:
    """Bucketed mean NLL improvement of the fast-weight scores over baseline.

    Buckets partition the predicted tokens three ways: by position-in-document
    decile, by log2 corpus frequency of the target token, and by whether the
    target already occurred in the same document (with the repeat index).
    Each target's three keys are found once, as arrays, and each bucket is
    the index set of its key.
    """
    docs = corpus.documents
    if len(nll_baseline) != len(nll_fwl) or len(nll_baseline) != len(docs):
        raise ConfigError("NLL streams and corpus documents are misaligned")
    for doc, base, fwl in zip(docs, nll_baseline, nll_fwl):
        if len(base) != len(doc) - 1 or len(fwl) != len(doc) - 1:
            raise ConfigError(
                f"stream length {len(base)}/{len(fwl)} does not match "
                f"{len(doc) - 1} predicted tokens")
    lengths = np.array([len(d) for d in docs], dtype=np.int64)
    tokens = np.concatenate([np.zeros(0, np.int64), *docs])
    doc_id = np.repeat(np.arange(len(docs)), lengths)
    # occurrences of each token earlier in its document: its rank among the
    # equal (document, token) keys, which a stable sort keeps in text order
    key = doc_id * (int(tokens.max(initial=0)) + 1) + tokens
    order = np.argsort(key, kind="stable")
    ranked = key[order]
    seen = np.empty_like(order)
    seen[order] = np.arange(len(key)) - np.searchsorted(ranked, ranked)
    pos = np.arange(len(tokens)) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    target = pos > 0  # a document's first token is no target
    n_pred = (lengths - 1)[doc_id[target]]
    decile = np.minimum(9, (pos[target] - 1) * 10 // n_pred)
    fbin = np.log2(np.maximum(token_frequencies(corpus)[tokens[target]], 1)).astype(np.int64)
    occ = np.minimum(seen[target], 3)
    base = np.concatenate([np.zeros(0), *nll_baseline])
    fwl = np.concatenate([np.zeros(0), *nll_fwl])

    def buckets(keys, names=None):
        return [{"bucket": names[k] if names else int(k), "count": int(s.sum()),
                 "nll_baseline": float(base[s].mean()), "nll_fwl": float(fwl[s].mean()),
                 "improvement": float((base[s] - fwl[s]).mean())}
                for k in np.unique(keys) for s in [keys == k]]
    occ_names = ("first", "repeat_1", "repeat_2", "repeat_3plus")
    return AnalyzeReport(buckets(decile), buckets(fbin), buckets(occ, occ_names),
                         int((occ > 0).sum()) / max(len(occ), 1), len(occ))


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
    total = head_slow_flops_per_token(d, m)  # recompose the head
    la_shapes = {"U": (d, m), "W": (m, d), "E": (d, vocab)}
    for name in mask:
        if name in la_shapes:
            total += la.flops_chunked(1, *la_shapes[name], chunk_size)
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
    if max_docs is not None and max_docs < 1:
        raise ConfigError(f"max_docs must be >= 1, got {max_docs}")
    sub = Corpus(corpus.documents[:max_docs], corpus.tokenizer)
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
    grams = list(zip(*(ids[i:] for i in range(n))))
    return (len(grams) - len(set(grams))) / len(grams)


@dataclass
class Generation:
    ids: list[int]            # the prompt's ids, then the sampled ones
    fast_losses: np.ndarray   # per sampled token: its NLL under the sampler's weights


def generate_ids(model: Model, ids, n_tokens: int, temperature: float = 1.0,
                 seed: int = 0, variant: str = "fwl") -> Generation:
    """Sample n_tokens after the prompt ids from the model that `score`
    evaluates: each fast loss equals score's NLL of that token in the text.

    The text is walked in score's segments of max_seq_len positions, with a
    StreamCarry threaded across them; the prompt's whole segments are read
    as score_streams reads them (read_segment). The current segment's prefix
    is encoded once (without step sizes to its last row of H alone), and each
    sampled token continues it by one position (the last encode_with_cache's
    cache as prefix). The sampler's offsets, which each step adds into in
    place, are the state the segment reads plus the slow gradients of its
    positions so far. A full segment becomes memory, and its pending sums
    are the offsets minus that state.
    """
    if n_tokens < 0:
        raise ConfigError(f"n_tokens must be >= 0, got {n_tokens}")
    if not temperature >= 0:
        raise ConfigError(f"temperature must be >= 0, got {temperature}")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    if variant not in ("baseline", "fwl"):
        raise ConfigError(f"generate supports baseline or fwl, got {variant!r}")
    steps = _variant_steps(model, variant, None)
    ids = [int(i) for i in ids]
    if not ids:
        raise ConfigError("prompt produced no tokens")
    if n_tokens == 0:
        return Generation(ids, np.zeros(0))
    L = model.config.backbone.max_seq_len
    gammas = model.gammas()
    rng = np.random.default_rng(seed)
    start = (len(ids) - 1) // L * L  # the current segment's first position
    carry = StreamCarry()
    for tokens, targets in doc_segments(np.array(ids[:start + 1]), L):
        tape, grads, state, _, memory = read_segment(model, tokens, targets if steps else None,
                                                     carry, steps, gammas)
        carry = StreamCarry.after(memory, tape, grads, state, steps)
    losses = []
    while True:  # from the current segment's start
        state = carry.state(gammas)
        # the sampler reads H[-1]; the slow pass reads every row before it
        H, cache, memory = bb.encode_with_cache(model.backbone, ids[start:], carry.memory,
                                                rows=None if steps else 1)
        offsets = {}
        if steps:
            tape, _ = hd.slow_forward(model.head, H[:-1], ids[start + 1:])
            offsets = hd.segment_grad_sums(tape, hd.per_position_grads(model.head, tape), steps)
        for n in state or ():
            offsets[n] += state[n]
        for pos in range(len(ids) - start, L + 1):  # the sampled token's position
            out = hd.generate_step(model.head, steps, offsets, H[-1], temperature, rng)
            ids.append(out.token)
            losses.append(out.fast_loss)
            if len(losses) == n_tokens:  # nothing reads the next position
                return Generation(ids, np.array(losses))
            if pos < L:
                H, cache, memory = bb.encode_with_cache(model.backbone, [out.token], memory,
                                                        prefix=cache)
        # the segment is full: it is memory now, and its gradients are pending
        start += L
        pending = offsets if state is None else {n: offsets[n] - state[n] for n in steps}
        carry = StreamCarry(memory, state, pending if steps else None)


def generate(ckpt: CheckpointData, prompt: str, n_tokens: int,
             temperature: float = 1.0, seed: int = 0,
             variant: str = "fwl") -> str:
    """Sample text: the prompt, then n_tokens drawn one at a time from the
    model that `score` evaluates (see generate_ids): the prompt's whole
    segments and the current segment's prefix are encoded once, then each
    sampled token continues the segment by one backbone position.
    A prompt word or character outside the vocabulary becomes UNK, with a
    UserWarning."""
    if ckpt.tokenizer is None:
        raise ConfigError("checkpoint carries no tokenizer; cannot generate")
    ids = ckpt.tokenizer.encode(prompt)
    gen = generate_ids(ckpt.model, ids, n_tokens, temperature, seed, variant)
    n_unk = int(np.sum(ids == ckpt.tokenizer.index.get(UNK, -1)))
    if n_unk:
        warnings.warn(f"{n_unk} prompt token(s) outside the vocabulary were mapped "
                      f"to {UNK}", stacklevel=2)
    return ckpt.tokenizer.decode(gen.ids)
