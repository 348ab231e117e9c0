"""Checkpoint serialization.

Single binary file: magic, format version, a JSON metadata block (model and
training configuration, tokenizer, step counter), then named tensors, each as
name length, name, rank, dims, and a little-endian float64 payload. Round
trips are bit-exact.
"""

import dataclasses
import json
import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from . import backbone as bb
from .corpus import TokenizerSpec
from .head import TENSOR_NAMES
from .numerics import ConfigError
from .training import Model, ModelConfig, TrainConfig, init_model

MAGIC = b"FWLCKPT1"
VERSION = 1


def _write_tensor(f, name: str, arr: np.ndarray):
    data = np.asarray(arr, dtype="<f8")  # tobytes() copies, contiguity not needed
    nb = name.encode("utf-8")
    f.write(struct.pack("<I", len(nb)))
    f.write(nb)
    f.write(struct.pack("<I", data.ndim))
    for dim in data.shape:
        f.write(struct.pack("<Q", dim))
    f.write(data.tobytes())


class _Reader:
    """Sequential reads from an open checkpoint. A length past the end of the
    file raises ConfigError before anything is read, so a corrupt length
    cannot allocate."""

    def __init__(self, f, path):
        self.f, self.path = f, path
        self.left = os.fstat(f.fileno()).st_size - f.tell()

    def read(self, n: int) -> bytes:
        if n > self.left:
            raise ConfigError(f"{self.path} is truncated or corrupt")
        self.left -= n
        return self.f.read(n)

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.read(struct.calcsize(fmt)))


def _read_tensor(r: _Reader):
    (name_len,) = r.unpack("<I")
    name = r.read(name_len).decode("utf-8")
    (rank,) = r.unpack("<I")
    dims = struct.unpack(f"<{rank}Q", r.read(8 * rank))
    buf = r.read(math.prod(dims) * 8)
    arr = np.frombuffer(buf, dtype="<f8").astype(np.float64).reshape(dims)
    return name, arr


def model_config_to_dict(mc: ModelConfig) -> dict:
    d = dataclasses.asdict(mc)
    d["mask"] = list(mc.mask)
    return d


def model_config_from_dict(d: dict) -> ModelConfig:
    bcfg = bb.BackboneConfig(**d["backbone"])
    return ModelConfig(backbone=bcfg, d_hidden=d["d_hidden"],
                       mask=tuple(d["mask"]), chunk_size=d["chunk_size"],
                       alpha_init=d.get("alpha_init", 0.01),
                       gamma_init=d.get("gamma_init", 0.9))


def save_checkpoint(path, model: Model, train_config: TrainConfig | None,
                    opt_state: dict | None, step: int,
                    tokenizer: TokenizerSpec | None, extra: dict | None = None):
    meta = {
        "model_config": model_config_to_dict(model.config),
        "train_config": dataclasses.asdict(train_config) if train_config else None,
        "tokenizer": ({"mode": tokenizer.mode, "vocab": tokenizer.vocab}
                      if tokenizer else None),
        "step": int(step),
    }
    if extra:
        meta["extra"] = extra
    tensors: list[tuple[str, np.ndarray]] = list(model.named_params())
    # step sizes/decays for unmasked tensors ride along so masks can be changed
    for n in TENSOR_NAMES:
        if n not in model.mask:
            tensors.append((f"alpha.{n}", model.alpha[n]))
            tensors.append((f"gamma.{n}", model.gamma_raw[n]))
    if opt_state is not None:
        meta["opt_t"] = int(opt_state["t"])
        for k, v in opt_state["m"].items():
            tensors.append((f"opt.m.{k}", v))
        for k, v in opt_state["v"].items():
            tensors.append((f"opt.v.{k}", v))
    # written beside the target and renamed over it, so a failed write leaves
    # the old checkpoint whole
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        try:
            with open(tmp, "wb") as f:
                f.write(MAGIC)
                f.write(struct.pack("<I", VERSION))
                blob = json.dumps(meta).encode("utf-8")
                f.write(struct.pack("<Q", len(blob)))
                f.write(blob)
                f.write(struct.pack("<Q", len(tensors)))
                for name, arr in tensors:
                    _write_tensor(f, name, arr)
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
    extra: dict | None = None


def load_checkpoint(path) -> CheckpointData:
    try:
        f = open(path, "rb")
    except OSError as e:
        raise OSError(f"cannot read checkpoint {path}: {e}") from e
    with f:
        if f.read(8) != MAGIC:
            raise ConfigError(f"{path} is not a checkpoint (bad magic)")
        r = _Reader(f, path)
        (version,) = r.unpack("<I")
        if version != VERSION:
            raise ConfigError(f"unsupported checkpoint version {version}")
        (meta_len,) = r.unpack("<Q")
        try:
            meta = json.loads(r.read(meta_len).decode("utf-8"))
            (n_tensors,) = r.unpack("<Q")
            tensors = dict(_read_tensor(r) for _ in range(n_tensors))
        except ValueError as e:  # bad UTF-8 or JSON
            raise ConfigError(f"{path} is truncated or corrupt") from e

    mc = model_config_from_dict(meta["model_config"])
    model = init_model(mc)
    for key, want in list(model.named_params()):
        if key not in tensors:
            raise ConfigError(f"{path} has no tensor {key!r} for its model_config")
        if tensors[key].shape != want.shape:
            raise ConfigError(f"{path}: tensor {key!r} has shape {tensors[key].shape}, "
                              f"its model_config needs {want.shape}")
        model.set(key, tensors[key])
    for n in TENSOR_NAMES:
        if f"alpha.{n}" in tensors:
            model.alpha[n] = np.asarray(tensors[f"alpha.{n}"], dtype=np.float64)
        if f"gamma.{n}" in tensors:
            model.gamma_raw[n] = np.asarray(tensors[f"gamma.{n}"], dtype=np.float64)

    train_config = None
    if meta.get("train_config"):
        train_config = TrainConfig(**meta["train_config"])
    tokenizer = None
    if meta.get("tokenizer"):
        tokenizer = TokenizerSpec(meta["tokenizer"]["mode"], meta["tokenizer"]["vocab"])
    opt_state = None
    if "opt_t" in meta:
        opt_state = {
            "m": {k[len("opt.m."):]: v for k, v in tensors.items() if k.startswith("opt.m.")},
            "v": {k[len("opt.v."):]: v for k, v in tensors.items() if k.startswith("opt.v.")},
            "t": int(meta["opt_t"]),
        }
    return CheckpointData(model, train_config, tokenizer, opt_state,
                          int(meta.get("step", 0)), meta.get("extra"))
