"""Checkpoint metadata: old files still load, and a malformed file, whether
edited or truncated, raises ConfigError and nothing else."""

import json
import os
import tempfile
import zlib

import numpy as np
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


def _signed(body: bytes) -> bytes:
    """body, a format-2 file without its checksum, with the checksum."""
    return body + zlib.crc32(body[8:]).to_bytes(4, "little")


def _with_meta(edit) -> bytes:
    """DATA with its metadata replaced by edit(metadata), checksum renewed."""
    blob = json.dumps(edit(json.loads(DATA[20:META_END]))).encode()
    return _signed(DATA[:12] + len(blob).to_bytes(8, "little") + blob + DATA[META_END:-4])


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


def test_checkpoint_with_backbone_key_biases_loads(tmp_path, monkeypatch):
    # files written before the backbone's key bias was dropped hold
    # bb.layers.*.bk tensors and their Adam moments; loading ignores both
    rng = np.random.default_rng(0)
    model = tr.init_model(tr.ModelConfig(
        bb.BackboneConfig(vocab_size=5, d_model=4, n_layers=2, n_heads=2, d_ff=8,
                          max_seq_len=4), d_hidden=4, chunk_size=2))
    for _, v in model.named_params():
        v += rng.normal(size=np.shape(v))
    opt = tr.zero_opt_state(model)
    opt = {"m": {k: rng.normal(size=np.shape(v)) for k, v in opt["m"].items()},
           "v": {k: rng.random(np.shape(v)) for k, v in opt["v"].items()}, "t": 5}
    bk = {f"bb.layers.{i}.bk": rng.normal(size=4) for i in range(2)}
    save_checkpoint(tmp_path / "new.ckpt", model, None, opt, 5, None)
    named_params = tr.Model.named_params
    with monkeypatch.context() as m:
        m.setattr(tr.Model, "named_params", lambda self: [*named_params(self), *bk.items()])
        save_checkpoint(tmp_path / "old.ckpt", model, None,
                        {"m": {**opt["m"], **bk}, "v": {**opt["v"], **bk}, "t": 5}, 5, None)
    new, old = load_checkpoint(tmp_path / "new.ckpt"), load_checkpoint(tmp_path / "old.ckpt")
    params = [(k, v.tobytes()) for k, v in model.named_params()]
    assert [(k, v.tobytes()) for k, v in old.model.named_params()] == params
    assert [(k, v.tobytes()) for k, v in new.model.named_params()] == params
    for part in "mv":
        assert old.opt_state[part].keys() == new.opt_state[part].keys() == opt[part].keys()
        for k, v in opt[part].items():
            assert old.opt_state[part][k].tobytes() == v.tobytes(), (part, k)
    assert old.opt_state["t"] == new.opt_state["t"] == 5


_DROP = object()


@pytest.mark.parametrize("path, value", [
    ((), [{}]),
    (("model_config",), _DROP),
    (("model_config", "backbone", "colour"), 1),
    (("model_config", "colour"), 1),
    (("model_config", "backbone", "vocab_size"), _DROP),
    (("model_config", "gamma_init"), 1.0),
    (("tokenizer", "vocab"), _DROP),
    (("train_config",), "full"),
    (("opt_t",), "x"),
    (("tokenizer", "mode"), "x"),
    (("tokenizer", "vocab"), "abcde"),
    (("tokenizer", "vocab"), [1, 2, "c", "d", "<unk>"]),
], ids=["list-top-level", "no-model-config", "unknown-backbone-key",
        "unknown-model-config-key", "no-vocab-size", "gamma-init-one",
        "tokenizer-without-vocab", "train-config-string", "opt-t-string",
        "tokenizer-mode-x", "vocab-string", "vocab-not-strings"])
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

    with pytest.raises(ConfigError) as info:
        _load(_with_meta(edit))
    assert str(info.value).count("edited.ckpt") == 1 and "ConfigError(" not in str(info.value)


def test_format_one_file_without_checksum_loads():
    # format 1 is format 2 without the trailing checksum
    old = _load(DATA[:8] + (1).to_bytes(4, "little") + DATA[12:-4])
    new = _load(DATA)
    for (key, a), (_, b) in zip(old.model.named_params(), new.model.named_params()):
        assert a.tobytes() == b.tobytes(), key
    assert (old.step, old.tokenizer, old.train_config) == (new.step, new.tokenizer,
                                                            new.train_config)


@pytest.mark.parametrize("data", [
    DATA[:8] + (1).to_bytes(4, "little") + DATA[12:],  # format 1 has no checksum to skip
    DATA + b"\0",
], ids=["format-two-read-as-one", "trailing-byte"])
def test_bytes_after_the_last_tensor_are_config_error(data):
    with pytest.raises(ConfigError, match="bytes follow"):
        _load(data)


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.tuples(st.just("edit"), st.integers(0, META_END - 1), st.integers(1, 255)),
    st.tuples(st.just("edit"), st.integers(0, len(DATA) - 1), st.integers(1, 255)),
    st.tuples(st.just("cut"), st.integers(0, len(DATA) - 1), st.just(0))))
def test_byte_edits_and_truncations_raise_only_config_error(change):
    # every edit of one byte (xor with a nonzero mask) and every truncation,
    # a tensor's payload included, is an error
    kind, pos, mask = change
    data = DATA[:pos] if kind == "cut" else DATA[:pos] + bytes([DATA[pos] ^ mask]) + DATA[pos + 1:]
    with pytest.raises(ConfigError):
        _load(data)
