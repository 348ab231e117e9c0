"""Checkpoint metadata: old files still load, and a malformed file, whether
edited or truncated, raises ConfigError and nothing else."""

import json
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fastweight import backbone as bb
from fastweight import training as tr
from fastweight.checkpoint import load_checkpoint, save_checkpoint
from fastweight.corpus import TokenizerSpec
from fastweight.numerics import ConfigError


def _checkpoint_bytes() -> bytes:
    model = tr.init_model(tr.ModelConfig(
        bb.BackboneConfig(vocab_size=5, d_model=4, n_layers=1, n_heads=2, d_ff=8,
                          max_seq_len=4),
        d_hidden=4, chunk_size=2))
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "tiny.ckpt")
        save_checkpoint(path, model, tr.TrainConfig(), tr.zero_opt_state(model), 3,
                        TokenizerSpec("word", ["a", "b", "c", "d", "<unk>"]))
        with open(path, "rb") as f:
            return f.read()


DATA = _checkpoint_bytes()
# magic (8 bytes), version (4), metadata length (8), then the JSON metadata
META_END = 20 + int.from_bytes(DATA[12:20], "little")


def _with_meta(edit) -> bytes:
    """DATA with its metadata replaced by edit(metadata)."""
    blob = json.dumps(edit(json.loads(DATA[20:META_END]))).encode()
    return DATA[:12] + len(blob).to_bytes(8, "little") + blob + DATA[META_END:]


def _load(data: bytes):
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "edited.ckpt")
        with open(path, "wb") as f:
            f.write(data)
        return load_checkpoint(path)


def test_checkpoint_with_deleted_train_options_loads():
    # files written before first_order and alpha_lr were deleted record both
    def old(meta):
        meta["train_config"].update(first_order=True, alpha_lr=0.5)
        return meta

    snap = _load(_with_meta(old))
    assert snap.train_config == tr.TrainConfig()
    assert snap.step == 3 and snap.opt_state["t"] == 0


_DROP = object()


@pytest.mark.parametrize("path, value", [
    ((), [{}]),
    (("model_config",), _DROP),
    (("model_config", "backbone", "colour"), 1),
    (("model_config", "backbone", "vocab_size"), _DROP),
    (("model_config", "gamma_init"), 1.0),
    (("tokenizer", "vocab"), _DROP),
    (("train_config",), "full"),
    (("opt_t",), "x"),
], ids=["list-top-level", "no-model-config", "unknown-backbone-key", "no-vocab-size",
        "gamma-init-one", "tokenizer-without-vocab", "train-config-string",
        "opt-t-string"])
def test_malformed_metadata_is_config_error(path, value):
    def edit(meta):
        if not path:
            return value
        node = meta
        for key in path[:-1]:
            node = node[key]
        if value is _DROP:
            del node[path[-1]]
        else:
            node[path[-1]] = value
        return meta

    with pytest.raises(ConfigError):
        _load(_with_meta(edit))


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.tuples(st.just("edit"), st.integers(0, META_END - 1), st.integers(0, 255)),
    st.tuples(st.just("edit"), st.integers(0, len(DATA) - 1), st.integers(0, 255)),
    st.tuples(st.just("cut"), st.integers(0, len(DATA) - 1), st.just(0))))
def test_byte_edits_and_truncations_raise_only_config_error(change):
    kind, pos, byte = change
    data = DATA[:pos] if kind == "cut" else DATA[:pos] + bytes([byte]) + DATA[pos + 1:]
    try:
        _load(data)  # an edit in a tensor's payload may load
    except ConfigError:
        pass
