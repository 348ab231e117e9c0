"""Set-up, closed-loop workloads and correctness gates of the benchmark.

Every workload is a single closed-loop client: it makes the next call into
the library only after the previous one returned. Each round runs two
interleaved passes over the same inputs: the pass that exercises the
fast-weight (or weight-writing) mechanism, called "adapt", and the pass that
bypasses it, called "ref". Interleaving gives both passes the same machine
conditions, so a change that should move only one of them can be seen to.
"""

import gc
import math
import os
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from fastweight import (
    backbone,
    checkpoint,
    corpus,
    harness,
    head,
    linear_attention,
    oracle,
    training,
)
from fastweight.checkpoint import CheckpointData
from fastweight.corpus import Corpus

import spans

MODULES = {
    "backbone": backbone,
    "checkpoint": checkpoint,
    "corpus": corpus,
    "harness": harness,
    "head": head,
    "linear_attention": linear_attention,
    "training": training,
}

# The baseline configuration: word-level entity corpus, d_model 64, 2 layers,
# 4 heads, d_ff 256, d_hidden 64, chunk 32, max_seq_len 128, batch 8 x seq 96.
D_MODEL, N_LAYERS, N_HEADS, D_FF = 64, 2, 4, 256
D_HIDDEN, CHUNK, MAX_SEQ = 64, 32, 128
BATCH, SEQ = 8, 96
DYNEVAL_STEP, DYNEVAL_CHUNK = 0.01, 32
ORACLE_TOL, KERNEL_TOL = 1e-9, 1e-10
CLOCK = time.perf_counter

# The machine-speed probe: a fixed loop of the work the library does most, a
# small matrix product and an elementwise tanh, timed between rounds and
# around each set-up. On a shared machine the speed of the core moves by up to
# half over spans of tens of seconds, and the probe slows with it. Dividing
# each round's time by the probe's time next to it removes that swing from the
# bounded metrics (see README.md). REFERENCE_PROBE_S is the probe's time on an
# uncontended core of the 2-vCPU machine the benchmark was tuned on, so the
# scaled figures read as on that machine.
REFERENCE_PROBE_S = 0.003
_PROBE_X = np.random.default_rng(0).standard_normal((BATCH * SEQ, D_MODEL))
_PROBE_W = np.random.default_rng(1).standard_normal((D_MODEL, D_FF))


def probe() -> float:
    """Median of 7 timings of 4 products with tanh, in seconds."""
    times = []
    for _ in range(7):
        t0 = CLOCK()
        for _ in range(4):
            y = _PROBE_X @ _PROBE_W
            np.tanh(y, out=y)
        times.append(CLOCK() - t0)
    return statistics.median(times)


@dataclass(frozen=True)
class Sizes:
    train_docs: int = 600        # enough documents that every pool name occurs
    train_sentences: int = 30    # ~165 tokens: one full 96-token window each
    dev_docs: int = 8            # one eval/dyneval round scores each once per pass
    dev_sentences: int = 60      # ~330 tokens: three 128-token segments
    setup_steps: int = 2         # brief full-mode training before the round trip
    setup_reps: int = 9          # setup_s is the median of these, spread over the run
    pairs_per_round: int = 4     # train: (full, slow-only) step pairs per round
    quality_steps: tuple = (10, 20)  # train: steps whose mean loss is the nll
    prompt_tokens: int = 127     # so every sampled token re-encodes a full window
    gen_tokens: int = 32         # the window is full from the first one on
    gen_calls: int = 2           # generate: calls per pass per round
    min_rounds: int = 2          # round 0 is warm-up and is not timed


# For the self-test: the same code paths at a size that runs in seconds.
TINY = Sizes(train_docs=400, dev_docs=2, dev_sentences=30, setup_steps=1,
             setup_reps=2, pairs_per_round=1, quality_steps=(0, 2),
             prompt_tokens=8, gen_tokens=4, gen_calls=1)


@dataclass
class Setup:
    ckpt: CheckpointData
    windows: list
    order: np.ndarray
    dev: Corpus
    ckpt_bytes: int


def batch_at(s: Setup, index: int) -> list:
    n = len(s.windows)
    return [s.windows[s.order[(index * BATCH + j) % n]] for j in range(BATCH)]


def set_up(seed: int, sizes: Sizes, workdir: str) -> Setup:
    """Corpus, tokenizer, windows, a briefly trained model and its
    checkpoint round trip: everything a workload needs before it is timed."""
    train = corpus.corpus_from_text(corpus.make_entity_corpus(
        sizes.train_docs, seed=2 * seed, sentences_per_doc=sizes.train_sentences), "word")
    dev = corpus.corpus_from_text(corpus.make_entity_corpus(
        sizes.dev_docs, seed=2 * seed + 1, sentences_per_doc=sizes.dev_sentences),
        train.tokenizer)
    windows = [w for w in training.make_windows(train.documents, SEQ) if len(w[0]) == SEQ]
    s = Setup(None, windows, np.random.default_rng(seed).permutation(len(windows)), dev, 0)
    bcfg = backbone.BackboneConfig(train.vocab_size, D_MODEL, N_LAYERS, N_HEADS, D_FF,
                                   MAX_SEQ, seed=seed)
    model = training.init_model(training.ModelConfig(bcfg, D_HIDDEN, chunk_size=CHUNK))
    tcfg = training.TrainConfig(mode="full", batch_size=BATCH, seq_len=SEQ)
    opt = None
    for step in range(sizes.setup_steps):
        _, opt, _ = training.train_step(model, batch_at(s, step), tcfg, opt)
    path = os.path.join(workdir, f"setup-{os.getpid()}.ckpt")
    try:
        checkpoint.save_checkpoint(path, model, tcfg, opt, sizes.setup_steps, train.tokenizer)
        s.ckpt_bytes = os.path.getsize(path)
        s.ckpt = checkpoint.load_checkpoint(path)
    finally:
        if os.path.exists(path):
            os.remove(path)
    return s


@dataclass
class PassRound:
    """One pass of one round: the library calls it made and what they gave."""

    tokens: int = 0
    seconds: float = 0.0      # summed wall time of the library calls
    latencies: list = field(default_factory=list)  # seconds per operation
    losses: list = field(default_factory=list)     # (nll sum, token count)
    attempted: int = 0
    failed: int = 0


_reported = []


def _call(fn, *args):
    """Time one library call. A raised error is a failed operation: the first
    traceback is printed to stderr and the loop goes on."""
    t0 = CLOCK()
    try:
        out = fn(*args)
    except Exception:  # the benchmark's boundary: count, report, continue
        out = None
        if not _reported:
            _reported.append(True)
            traceback.print_exc(file=sys.stderr)
    return out, CLOCK() - t0


class Train:
    """training.train_step on fixed b8 x s96 windows: mode full (adapt) and
    mode slow-only (ref) step in turn, both from the same set-up model."""

    def __init__(self, s: Setup, sizes: Sizes, seed: int):
        self.s, self.sizes = s, sizes
        self.models = {"adapt": s.ckpt.model.copy(), "ref": s.ckpt.model.copy()}
        self.configs = {p: training.TrainConfig(mode=m, batch_size=BATCH, seq_len=SEQ)
                        for p, m in (("adapt", "full"), ("ref", "slow-only"))}
        self.opt = {"adapt": None, "ref": None}
        self.steps = 0
        self.min_rounds = max(sizes.min_rounds,
                              -(-sizes.quality_steps[1] // sizes.pairs_per_round))

    def run_round(self, r: int) -> dict:
        out = {"adapt": PassRound(), "ref": PassRound()}
        for i in range(self.sizes.pairs_per_round):
            batch = batch_at(self.s, self.sizes.setup_steps + r * self.sizes.pairs_per_round + i)
            for p, acc in out.items():
                res, dt = _call(training.train_step, self.models[p], batch,
                                self.configs[p], self.opt[p])
                acc.attempted += 1
                acc.seconds += dt
                acc.latencies.append(dt)
                acc.tokens += BATCH * SEQ
                if res is None or not math.isfinite(res[0].loss):
                    acc.failed += 1
                    continue
                self.opt[p] = res[1]
                q0, q1 = self.sizes.quality_steps
                if q0 <= self.steps < q1:
                    acc.losses.append((res[0].loss, 1))
            self.steps += 1
        return out

    def gate_model(self):
        return self.models["adapt"]


class _Documents:
    """One library call per dev document, for each of the two passes."""

    def __init__(self, s: Setup, sizes: Sizes, seed: int):
        self.s = s
        self.docs = [Corpus([d], s.dev.tokenizer) for d in s.dev.documents]
        self.min_rounds = sizes.min_rounds

    def run_round(self, r: int) -> dict:
        out = {"adapt": PassRound(), "ref": PassRound()}
        for doc in self.docs:
            for p, acc in out.items():
                res, dt = self.call(p, doc)
                acc.attempted += 1
                acc.seconds += dt
                acc.latencies.append(dt)
                acc.tokens += len(doc.documents[0]) - 1
                if res is None or not np.isfinite(res.nll_docs[0]).all():
                    acc.failed += 1
                elif r == 0:
                    acc.losses.append((float(res.nll_docs[0].sum()), res.n_tokens))
        return out

    def gate_model(self):
        return self.s.ckpt.model


class Eval(_Documents):
    """harness.score per long dev document: variant fwl (adapt) threads fast
    state across 128-token segments; variant baseline (ref) skips the fast pass."""

    def call(self, p, doc):
        return _call(harness.score, self.s.ckpt, doc, "fwl" if p == "adapt" else "baseline")


class Dyneval(_Documents):
    """harness.dynamic_evaluate per long dev document in 32-token chunks: step
    0.01 (adapt) runs backbone backward and weight writes; step 0 (ref) skips them."""

    def call(self, p, doc):
        step = DYNEVAL_STEP if p == "adapt" else 0.0
        return _call(harness.dynamic_evaluate, self.s.ckpt, doc, step, DYNEVAL_CHUNK)


class Generate:
    """harness.generate, batch 1 and one token per step, temperature 1 with a
    seeded sampler, on 127-token prompts cut from dev documents, so the
    128-token window is full from the first sampled token on: variant fwl
    (adapt) and variant baseline (ref) answer the same prompt in turn.

    In an untraced run, token_clock() gives a tracer of head.generate_step
    alone, which stamps each sampled token and keeps its fast loss."""

    def __init__(self, s: Setup, sizes: Sizes, seed: int):
        self.s, self.sizes, self.seed = s, sizes, seed
        tok = s.ckpt.tokenizer
        self.prompts = [d[:sizes.prompt_tokens] for d in s.dev.documents]
        self.prompt_text = [tok.decode(p) for p in self.prompts]
        self.min_rounds = sizes.min_rounds
        self.clock, self.token_losses = None, []

    def token_clock(self) -> spans.Tracer:
        self.clock = spans.Tracer(spans.entries("head.generate_step"),
                                  lambda a, k, out: self.token_losses.append(out.fast_loss))
        return self.clock

    def run_round(self, r: int) -> dict:
        out = {"adapt": PassRound(), "ref": PassRound()}
        n = self.sizes.gen_tokens
        tok = self.s.ckpt.tokenizer
        for j in range(self.sizes.gen_calls):
            call = r * self.sizes.gen_calls + j
            i = call % len(self.prompts)
            for p, acc in out.items():
                variant = "fwl" if p == "adapt" else "baseline"
                res, dt = _call(harness.generate, self.s.ckpt, self.prompt_text[i], n, 1.0,
                                self.seed * 100003 + call, variant)
                end = CLOCK()
                acc.attempted += n
                acc.seconds += dt
                acc.tokens += n
                ids = tok.encode(res) if res is not None else None
                if (ids is None or len(ids) != len(self.prompts[i]) + n
                        or not np.array_equal(ids[:len(self.prompts[i])], self.prompts[i])):
                    acc.failed += n
                if self.clock is None:
                    continue
                stamps = [start for _, start, _, _, _ in self.clock.spans]
                losses = self.token_losses
                self.clock.spans.clear()
                self.token_losses = []
                if len(stamps) == n:
                    acc.latencies.extend(np.diff(stamps + [end]).tolist())
                if r == 0 and len(losses) == n and np.isfinite(losses).all():
                    acc.losses.append((float(np.sum(losses)), n))
        return out

    def gate_model(self):
        return self.s.ckpt.model


WORKLOADS = {"train": Train, "eval": Eval, "dyneval": Dyneval, "generate": Generate}


def run_gates(model, s: Setup) -> dict:
    """Correctness gates, outside the timed region.

    oracle: the fwl losses of one scored 128-token segment against the naive
    sequential oracle. kernel: every chunked linear-attention call made while
    scoring a multi-segment document (so with carried state) against the
    quadratic reference, each error over the larger of 1 and the reference's
    largest magnitude: the trained model's fast-weight queries reach the
    hundreds and its outputs 1e5, where a few float64 rounding steps (3e-11
    each) exceed an absolute 1e-10; on unit-scale data the test is the absolute one.
    finite: every loss and NLL the gates produced."""
    ck = CheckpointData(model, None, s.ckpt.tokenizer, None, 0)
    doc = s.dev.documents[0]
    seg = doc[:MAX_SEQ + 1]
    scored = harness.score(ck, Corpus([seg], s.dev.tokenizer), "fwl").nll_docs[0]
    H = backbone.encode(model.backbone, seg[:-1])
    ref = oracle.sequential_fast_forward(model.head, model.step_sizes(), H, seg[1:])
    oracle_err = float(np.abs(scored - ref).max())

    captured = []
    capture = spans.Tracer(spans.entries("linear_attention.chunked"),
                           lambda a, k, out: captured.append((a, k, out)))
    capture.install(MODULES)
    try:
        full = harness.score(ck, Corpus([doc], s.dev.tokenizer), "fwl").nll_docs[0]
    finally:
        capture.uninstall()
    kernel_err = kernel_scaled_err = 0.0
    with_state = 0
    for (q, k, v, *rest), kwargs, (o, final) in captured:
        init = rest[1] if len(rest) > 1 else kwargs.get("init")
        ro, rfinal = linear_attention.causal_linear_attention(q, k, v, init)
        for got, want in ((o, ro), (final.accumulator, rfinal.accumulator)):
            err = float(np.abs(got - want).max())
            kernel_err = max(kernel_err, err)
            kernel_scaled_err = max(kernel_scaled_err,
                                    err / max(1.0, float(np.abs(want).max())))
        with_state += init is not None
    finite = bool(np.isfinite(scored).all() and np.isfinite(ref).all()
                  and np.isfinite(full).all())
    return {
        "oracle": oracle_err <= ORACLE_TOL and finite,
        "oracle_max_abs_err": oracle_err,
        "kernel": bool(captured) and with_state > 0 and kernel_scaled_err <= KERNEL_TOL,
        "kernel_max_abs_err": kernel_err,
        "kernel_max_scaled_err": kernel_scaled_err,
        "kernel_calls": len(captured),
        "kernel_calls_with_state": with_state,
        "finite": finite,
    }


@dataclass
class Run:
    setup_times: list
    setup_probes: list      # mean probe time before and after each set-up
    setup: Setup
    rounds: list            # [(untraced round, traced round or None)]
    probes: list            # probe time before round i is probes[i], after it probes[i + 1]
    gates: dict
    setup_spans: list
    timed_spans: list


def run(name: str, seed: int, seconds: float, trace: bool, sizes: Sizes,
        workdir: str) -> Run:
    """Set up, then run rounds for `seconds`, then the gates.

    The set-up is repeated sizes.setup_reps times: once before the first
    round and the rest between rounds, spread evenly over the run. The
    machine's speed drifts over tens of seconds, so set-ups taken back to
    back would all see the same moment of it; spread out, their median is as
    steady as the throughput figures. The probe runs before and after each
    set-up and after each round."""
    setup_tracer = spans.Tracer()
    setup_times, setup_probes = [], []

    def set_up_once():
        before = probe()
        if trace:
            setup_tracer.install(MODULES)
        t0 = CLOCK()
        try:
            s = set_up(seed, sizes, workdir)
        finally:
            setup_tracer.uninstall()
        setup_times.append(CLOCK() - t0)
        setup_probes.append((before + probe()) / 2)
        return s

    s = set_up_once()
    wl = WORKLOADS[name](s, sizes, seed)
    clock = wl.token_clock() if name == "generate" and not trace else None
    if clock is not None:
        clock.install(MODULES)
    tracer = spans.Tracer()
    rounds = []
    gc.collect()
    probes = [probe()]
    start = CLOCK()
    try:
        r = 0
        while r < wl.min_rounds or CLOCK() - start < seconds:
            n = len(setup_times)
            if n < sizes.setup_reps and CLOCK() - start >= seconds * n / sizes.setup_reps:
                set_up_once()
            plain = wl.run_round(r)
            traced = None
            if trace and r > 0:
                tracer.install(MODULES)
                try:
                    traced = wl.run_round(r)
                finally:
                    tracer.uninstall()
            rounds.append((plain, traced))
            probes.append(probe())
            r += 1
    finally:
        if clock is not None:
            clock.uninstall()
    while len(setup_times) < sizes.setup_reps:
        set_up_once()
    gates = run_gates(wl.gate_model(), s)
    return Run(setup_times, setup_probes, s, rounds, probes, gates, setup_tracer.spans,
               tracer.spans)


def _quantile(values, q):
    """The q-th of 100 cut points, as statistics.quantiles gives them."""
    if len(values) < 2:
        return float(values[0])
    return statistics.quantiles(values, n=100)[q - 1]


def _timed(res: Run) -> list:
    """(untraced round, slowdown) for each timed round. The slowdown is the
    mean of the probe times before and after the round over REFERENCE_PROBE_S:
    2 means the machine ran at half the reference speed."""
    return [(plain, (res.probes[i] + res.probes[i + 1]) / 2 / REFERENCE_PROBE_S)
            for i, (plain, _) in enumerate(res.rounds) if i > 0]


def _rates(res: Run, p: str, scaled: bool) -> float:
    """Median over timed rounds of the pass's tokens per second of library
    time, scaled to the reference machine speed or as measured."""
    return statistics.median(rd[p].tokens / rd[p].seconds * (slow if scaled else 1.0)
                             for rd, slow in _timed(res))


def _setup_s(res: Run, scaled: bool) -> float:
    return statistics.median(t / (p / REFERENCE_PROBE_S if scaled else 1.0)
                             for t, p in zip(res.setup_times, res.setup_probes))


def _latencies(res: Run) -> list:
    """Seconds per adapt operation, each scaled by its round's slowdown."""
    return [x / slow for rd, slow in _timed(res) for x in rd["adapt"].latencies]


def end_to_end(res: Run) -> dict:
    """The bounded metrics. Times are scaled to the reference machine speed."""
    return {
        "setup_s": (_setup_s(res, True), "s"),
        "tok_s": (_rates(res, "adapt", True), "tok/s"),
        "ref_tok_s": (_rates(res, "ref", True), "tok/s"),
        "op_ms_p50": (statistics.median(_latencies(res)) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def unbounded(res: Run) -> dict:
    """Figures printed next to the end-to-end metrics but not bounded: the
    throughput and set-up time as measured, before scaling; the probe; the
    tail latency, which rests on too few operations; and the quality figures,
    of which the sampled-token NLL of fast-weight generation swings with the
    seed (see README.md)."""
    lat = _latencies(res)

    def nll(p):
        tot = [l for plain, _ in res.rounds for l in plain[p].losses]
        return sum(a for a, _ in tot) / sum(n for _, n in tot) if tot else float("nan")

    return {
        "measured_tok_s": (_rates(res, "adapt", False), "tok/s"),
        "measured_ref_tok_s": (_rates(res, "ref", False), "tok/s"),
        "measured_setup_s": (_setup_s(res, False), "s"),
        "probe_ms": (statistics.median(res.probes) * 1e3, "ms"),
        "op_ms_p90": (_quantile(lat, 90) * 1e3, "ms"),
        "op_count": (len(lat), "ops"),
        "nll": (nll("adapt"), "nats"),
        "ref_nll": (nll("ref"), "nats"),
    }


def per_layer(res: Run) -> dict:
    cfg = res.setup.ckpt.model.config.backbone
    pairs = [(plain, traced) for plain, traced in res.rounds if traced is not None]
    ops = sum(t[p].attempted for _, t in pairs for p in t)
    traced_wall = sum(t[p].seconds for _, t in pairs for p in t)
    plain_wall = sum(u[p].seconds for u, _ in pairs for p in u)
    totals = spans.aggregate(res.timed_spans)
    setup = spans.aggregate(res.setup_spans)
    reps = len(res.setup_times)
    out = {}
    for name in spans.SPAN_NAMES:
        if name.startswith(("checkpoint.", "corpus.")):
            # set-up layers: ms per call, calls per set-up
            t = setup[name]
            out[f"{name}.ms"] = (t.self_s / max(t.calls, 1) * 1e3, "ms")
            out[f"{name}.calls"] = (t.calls / reps, "calls/setup")
            out[f"{name}.share"] = (t.self_s / sum(res.setup_times), "fraction")
            continue
        t = totals[name]
        ms = "self_ms" if name.startswith("harness.") else "ms"
        out[f"{name}.{ms}"] = (t.self_s / ops * 1e3, "ms/op")
        out[f"{name}.calls"] = (t.calls / ops, "calls/op")
        out[f"{name}.share"] = (t.self_s / traced_wall, "fraction")

    def gflops(flop, name):
        return flop / totals[name].self_s / 1e9 if totals[name].self_s else 0.0

    enc = totals["backbone.encode"].work
    positions = sum(T for T, _ in enc)
    enc_flop = sum(T * harness.backbone_flops_per_token(cfg, M + T) for T, M in enc)
    bwd_flop = sum(2 * T * harness.backbone_flops_per_token(cfg, M + T)
                   for T, M in totals["backbone.backward"].work)
    la_work = totals["linear_attention.chunked"].work
    la_flop = sum(linear_attention.flops_chunked(T, dk, dv, C) for T, dk, dv, C in la_work)
    useful = sum(totals["useful_rows"].work)
    layers_s = sum(totals[n].self_s for n in spans.SPAN_NAMES if n not in spans.GLUE)
    out.update({
        "backbone.encode.positions": (positions / ops, "positions/op"),
        "backbone.encode.useful_ratio": (useful / positions, "fraction"),
        "backbone.encode.gflop": (enc_flop / ops / 1e9, "GFLOP/op"),
        "backbone.encode.gflops": (gflops(enc_flop, "backbone.encode"), "GFLOP/s"),
        "backbone.backward.gflop": (bwd_flop / ops / 1e9, "GFLOP/op"),
        "backbone.backward.gflops": (gflops(bwd_flop, "backbone.backward"), "GFLOP/s"),
        "linear_attention.chunks": (sum(-(-T // C) for T, _, _, C in la_work) / ops,
                                    "chunks/op"),
        "linear_attention.gflop": (la_flop / ops / 1e9, "GFLOP/op"),
        "linear_attention.gflops": (gflops(la_flop, "linear_attention.chunked"), "GFLOP/s"),
        "checkpoint.bytes": (res.setup.ckpt_bytes, "B"),
        "trace.overhead_share": (traced_wall / plain_wall - 1.0, "fraction"),
        "trace.accounted_share": (layers_s / traced_wall, "fraction"),
    })
    return out


GATES = ("oracle", "kernel", "finite")


def counts(res: Run) -> tuple[int, int]:
    """Operations attempted and failed: every step, scored document or
    generated token, plus each correctness gate."""
    attempted = len(GATES)
    failed = sum(not res.gates[g] for g in GATES)
    for plain, traced in res.rounds:
        for rd in (plain, traced):
            if rd is not None:
                attempted += sum(acc.attempted for acc in rd.values())
                failed += sum(acc.failed for acc in rd.values())
    return attempted, failed
