"""Outside-in span tracer for the fastweight benchmark.

Each layer is a module of ``src/fastweight``. The tracer times a layer from
outside by replacing its public functions at the attribute their caller looks
up, e.g. ``head.softmax_xent_rows`` (``head`` imported it from ``numerics``)
or ``training.causal_linear_attention_vjp`` (``training`` imported it from
``linear_attention``). Every call becomes a span (name, start, end, parent)
kept in memory; ``uninstall`` puts the original attributes back, so untraced
code runs exactly as shipped. A tracer may wrap only some of the functions,
and may hand each call's arguments and result to a hook: the benchmark uses
that for per-token timestamps and to capture kernel calls for a gate, so this
module is the only one that patches the library.

A layer's self time is its spans' durations minus the part covered by their
direct children.
"""

import json
import time
from dataclasses import dataclass, field

# (module, attribute the caller looks up, span name). Several attributes may
# share a span name: step_glue is the self time of the three training loops.
WRAPPED = (
    ("backbone", "encode_with_cache", "backbone.encode"),
    ("backbone", "encode_backward", "backbone.backward"),
    ("head", "slow_forward", "head.slow_forward"),
    ("head", "per_position_grads", "head.per_position_grads"),
    ("head", "fast_forward", "head.fast_forward"),
    ("head", "update_stream_state", "head.update_stream_state"),
    ("head", "generate_step", "head.generate_step"),
    ("head", "head_grads_single", "head.grads_single"),
    ("head", "softmax_xent_rows", "numerics.softmax_xent_rows"),
    ("linear_attention", "chunked_causal_linear_attention", "linear_attention.chunked"),
    ("training", "causal_linear_attention_vjp", "linear_attention.vjp"),
    ("training", "head_fast_vjp", "training.head_fast_vjp"),
    ("training", "head_slow_vjp", "training.head_slow_vjp"),
    ("harness", "head_slow_vjp", "training.head_slow_vjp"),
    ("training", "adam_update", "training.adam_update"),
    ("training", "train_step", "training.step_glue"),
    ("training", "batch_loss_and_grads", "training.step_glue"),
    ("training", "sequence_loss_and_grads", "training.step_glue"),
    ("harness", "score", "harness.score"),
    ("harness", "dynamic_evaluate", "harness.dyneval"),
    ("harness", "generate", "harness.generate"),
    ("checkpoint", "save_checkpoint", "checkpoint.save"),
    ("checkpoint", "load_checkpoint", "checkpoint.load"),
    ("corpus", "make_entity_corpus", "corpus.generate"),
)

SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name in WRAPPED))
# Self time of these is the entry points' own code, not a named layer's.
GLUE = ("training.step_glue", "harness.score", "harness.dyneval", "harness.generate")


def entries(*names) -> tuple:
    """The WRAPPED entries of the given span names."""
    return tuple(e for e in WRAPPED if e[2] in names)

# Functions that read rows of the backbone output. Their row counts, taken
# from the arguments, give backbone.encode.useful_ratio. A consumer called by
# another consumer (grads_single inside generate_step) reads the same row.
_CONSUMER_ROWS = {
    "head.slow_forward": lambda a, k: a[1].shape[0],
    "head.grads_single": lambda a, k: 1,
    "head.generate_step": lambda a, k: 1,
}


def _encode_work(a, k):
    memory = a[2] if len(a) > 2 else k.get("memory")
    mem = memory.activations[0].shape[0] if memory is not None else 0
    return (len(a[1]), mem)


def _chunked_work(a, k):
    q, v = a[0], a[2]
    chunk = a[3] if len(a) > 3 else k["chunk_size"]
    return (q.shape[0], q.shape[1], v.shape[1], chunk)


# Shape facts recorded per call; FLOPs are computed from them afterwards.
_WORK = {
    "backbone.encode": _encode_work,
    "backbone.backward": lambda a, k: (len(a[1][0]), 0),
    "linear_attention.chunked": _chunked_work,
    **_CONSUMER_ROWS,
}


@dataclass
class Tracer:
    """Spans of one phase: [name, start, end, parent index, work].

    wrapped: the (module, attribute, span name) entries to wrap.
    on_return: if set, called as on_return(args, kwargs, result) after each
    wrapped call returns, outside its span."""

    wrapped: tuple = WRAPPED
    on_return: object = None
    spans: list = field(default_factory=list)
    stack: list = field(default_factory=list)
    _saved: list = field(default_factory=list)

    def _wrap(self, fn, name):
        spans, stack, work = self.spans, self.stack, _WORK.get(name)
        clock, on_return = time.perf_counter, self.on_return

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1,
                   work(args, kwargs) if work else None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if on_return is not None:
                on_return(args, kwargs, out)
            return out

        return traced

    def install(self, modules: dict):
        """Replace every wrapped attribute; modules maps short name -> module."""
        for mod_name, attr, name in self.wrapped:
            mod = modules[mod_name]
            fn = getattr(mod, attr)
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(fn, name))

    def uninstall(self):
        while self._saved:
            mod, attr, fn = self._saved.pop()
            setattr(mod, attr, fn)


@dataclass
class LayerTotals:
    calls: int = 0
    self_s: float = 0.0
    work: list = field(default_factory=list)


def aggregate(spans) -> dict[str, LayerTotals]:
    """Self time, call count and recorded work per span name."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    totals = {name: LayerTotals() for name in SPAN_NAMES}
    totals["useful_rows"] = LayerTotals()
    for i, (name, start, end, parent, work) in enumerate(spans):
        t = totals[name]
        t.calls += 1
        t.self_s += end - start - child[i]
        if work is None:
            continue
        if name in _CONSUMER_ROWS:
            if parent < 0 or spans[parent][0] not in _CONSUMER_ROWS:
                totals["useful_rows"].work.append(work)
        else:
            t.work.append(work)
    return totals


def write(path, phases: dict, t0: float):
    """Write each phase's spans as JSON lines; times are seconds after t0 and
    parent is the index of the parent span within its phase (-1: none)."""
    with open(path, "w", encoding="utf-8") as f:
        for phase, spans in phases.items():
            for name, start, end, parent, _ in spans:
                f.write(json.dumps({"phase": phase, "name": name, "start": start - t0,
                                    "end": end - t0, "parent": parent}) + "\n")
