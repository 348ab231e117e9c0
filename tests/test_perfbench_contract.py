"""The names the benchmark in perfbench/ relies on still exist in the library.

perfbench/ traces the library by replacing module attributes and reads some
of its outputs; a rename or deletion here would break `--trace 1` or the
benchmark's self-test without failing any other test.
"""

import importlib
import importlib.util
import os

from fastweight import backbone as bb
from fastweight import harness as hn
from fastweight import training as tr

SPANS_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "perfbench", "spans.py")


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_wrapped_attribute_resolves():
    missing = []
    for module, attr, _ in _spans().WRAPPED:
        mod = importlib.import_module(f"fastweight.{module}")
        if not callable(getattr(mod, attr, None)):
            missing.append(f"{module}.{attr}")
    assert not missing, f"perfbench wraps names the library lacks: {missing}"


def test_flop_report_keeps_attention_kernel():
    cfg = tr.ModelConfig(backbone=bb.BackboneConfig(vocab_size=11, d_model=8, n_layers=1,
                                                    n_heads=2, d_ff=16, max_seq_len=16),
                         d_hidden=8, chunk_size=4)
    assert "attention_kernel" in hn.flop_report(tr.init_model(cfg))
