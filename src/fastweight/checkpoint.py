"""Checkpoint serialization.

Single binary file: magic, format version, a JSON metadata block (model and
training configuration, tokenizer, step counter), then named tensors, each as
name length, name, rank, dims, and a little-endian float64 payload. Format 2
ends with a CRC-32 of every byte after the magic, so an edit anywhere is an
error; format 1 files, which have none, still load. Round trips are bit-exact.
"""

import dataclasses
import json
import math
import os
import struct
import zlib
from dataclasses import dataclass

import numpy as np

from . import backbone as bb
from .corpus import TokenizerSpec
from .numerics import ConfigError
from .training import Model, ModelConfig, TrainConfig, init_model, zero_opt_state

MAGIC = b"FWLCKPT1"
VERSION = 2


def _write_tensor(write, name: str, arr: np.ndarray):
    data = np.asarray(arr, dtype="<f8", order="C")  # write reads its buffer, copying once
    nb = name.encode("utf-8")
    write(struct.pack("<I", len(nb)))
    write(nb)
    write(struct.pack("<I", data.ndim))
    for dim in data.shape:
        write(struct.pack("<Q", dim))
    write(data)


def _tensors(model: Model, opt_state: dict | None):
    """A checkpoint's named tensors: the model's parameters, then the Adam
    moments m and v of each, in the same order."""
    params = list(model.named_params())
    yield from params
    if opt_state is not None:
        for part in "mv":
            for key, _ in params:
                yield f"opt.{part}.{key}", opt_state[part][key]


def save_checkpoint(path, model: Model, train_config: TrainConfig | None,
                    opt_state: dict | None, step: int,
                    tokenizer: TokenizerSpec | None):
    meta = {
        "model_config": dataclasses.asdict(model.config),
        "train_config": dataclasses.asdict(train_config) if train_config else None,
        "tokenizer": ({"mode": tokenizer.mode, "vocab": tokenizer.vocab}
                      if tokenizer else None),
        "step": int(step),
    }
    if opt_state is not None:
        meta["opt_t"] = int(opt_state["t"])
    # written beside the target and renamed over it, so a failed write leaves
    # the old checkpoint whole
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        try:
            blob = json.dumps(meta).encode("utf-8")
            body = bytearray(struct.pack("<IQ", VERSION, len(blob)))
            body += blob
            tensors = list(_tensors(model, opt_state))
            body += struct.pack("<Q", len(tensors))
            for name, arr in tensors:
                _write_tensor(body.extend, name, arr)
            with open(tmp, "wb") as f:
                f.write(MAGIC)
                f.write(body)
                f.write(struct.pack("<I", zlib.crc32(body)))
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.remove(tmp)
    except OSError as e:
        raise OSError(f"cannot write checkpoint {path}: {e}") from e


@dataclass
class CheckpointData:
    model: Model
    train_config: TrainConfig | None
    tokenizer: TokenizerSpec | None
    opt_state: dict | None
    step: int


def load_checkpoint(path) -> CheckpointData:
    try:
        with open(path, "rb", buffering=0) as f:  # unbuffered: read() fills one bytes object
            if f.read(8) != MAGIC:
                raise ConfigError(f"{path} is not a checkpoint (bad magic)")
            buf = memoryview(f.read())
    except OSError as e:
        raise OSError(f"cannot read checkpoint {path}: {e}") from e
    pos = 0

    def take(n: int) -> memoryview:
        """The next n bytes, or ConfigError if the file ends first."""
        nonlocal pos
        if n > len(buf) - pos:
            raise ConfigError(f"{path} is truncated or corrupt")
        pos += n
        return buf[pos - n:pos]

    (version,) = struct.unpack("<I", take(4))
    if version not in (1, VERSION):
        raise ConfigError(f"unsupported checkpoint version {version}")
    (meta_len,) = struct.unpack("<Q", take(8))
    try:
        meta = json.loads(str(take(meta_len), "utf-8"))
        (n_tensors,) = struct.unpack("<Q", take(8))
        tensors = {}
        for _ in range(n_tensors):
            (name_len,) = struct.unpack("<I", take(4))
            name = str(take(name_len), "utf-8")
            (rank,) = struct.unpack("<I", take(4))
            dims = struct.unpack(f"<{rank}Q", take(8 * rank))
            tensors[name] = np.frombuffer(take(8 * math.prod(dims)), "<f8").reshape(dims)
    except ValueError as e:  # bad UTF-8 or JSON
        raise ConfigError(f"{path} is truncated or corrupt") from e
    crc = zlib.crc32(buf[:pos])
    if version > 1 and struct.unpack("<I", take(4)) != (crc,):
        raise ConfigError(f"{path} is corrupt: its checksum does not match")
    if pos < len(buf):
        raise ConfigError(f"{path} is corrupt: {len(buf) - pos} bytes follow its last tensor")

    if not isinstance(meta, dict):
        raise ConfigError(f"{path}: metadata is not a JSON object")
    try:
        return _from_metadata(meta, tensors)
    except ConfigError as e:  # the config, tokenizer and tensor checks do not name the file
        raise ConfigError(f"{path}: {e}") from e
    except (KeyError, TypeError, ValueError) as e:
        # a missing key, a wrong type or an unknown config field
        raise ConfigError(f"{path} has malformed metadata: {e!r}") from e


def _from_metadata(meta: dict, tensors: dict) -> CheckpointData:
    mc = meta["model_config"]
    model = init_model(ModelConfig(**dict(mc, backbone=bb.BackboneConfig(**mc["backbone"]),
                                          mask=tuple(mc["mask"]))))
    tok = meta.get("tokenizer")
    tokenizer = TokenizerSpec(tok["mode"], tok["vocab"]) if tok else None
    # the list ignores the deleted key biases (layers.*.bk) older files hold
    opt_state = zero_opt_state(model) if "opt_t" in meta else None
    for key, want in _tensors(model, opt_state):
        if key not in tensors:
            raise ConfigError(f"no tensor {key!r} for its model_config")
        if tensors[key].shape != want.shape:
            raise ConfigError(f"tensor {key!r} has shape {tensors[key].shape}, "
                              f"its model_config needs {want.shape}")
        want[...] = tensors[key]

    train_config = None
    if meta.get("train_config"):
        kept = dict(meta["train_config"])
        for key in ("first_order", "alpha_lr"):  # deleted options older files hold
            kept.pop(key, None)
        train_config = TrainConfig(**kept)
    if opt_state is not None:
        opt_state["t"] = int(meta["opt_t"])
    return CheckpointData(model, train_config, tokenizer, opt_state,
                          int(meta.get("step", 0)))
