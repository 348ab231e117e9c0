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
from .training import Model, ModelConfig, TrainConfig, init_model

MAGIC = b"FWLCKPT1"
VERSION = 2


def _write_tensor(write, name: str, arr: np.ndarray):
    data = np.asarray(arr, dtype="<f8")  # tobytes() copies, contiguity not needed
    nb = name.encode("utf-8")
    write(struct.pack("<I", len(nb)))
    write(nb)
    write(struct.pack("<I", data.ndim))
    for dim in data.shape:
        write(struct.pack("<Q", dim))
    write(data.tobytes())


class _Reader:
    """Sequential reads from an open checkpoint. A length past the end of the
    file raises ConfigError before anything is read, so a corrupt length
    cannot allocate. crc is the CRC-32 of the bytes read so far."""

    def __init__(self, f, path):
        self.f, self.path = f, path
        self.left = os.fstat(f.fileno()).st_size - f.tell()
        self.crc = 0

    def read(self, n: int) -> bytes:
        if n > self.left:
            raise ConfigError(f"{self.path} is truncated or corrupt")
        self.left -= n
        data = self.f.read(n)
        self.crc = zlib.crc32(data, self.crc)
        return data

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
    tensors: list[tuple[str, np.ndarray]] = list(model.named_params())
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
                crc = 0

                def write(data: bytes):
                    nonlocal crc
                    crc = zlib.crc32(data, crc)
                    f.write(data)

                write(struct.pack("<I", VERSION))
                blob = json.dumps(meta).encode("utf-8")
                write(struct.pack("<Q", len(blob)))
                write(blob)
                write(struct.pack("<Q", len(tensors)))
                for name, arr in tensors:
                    _write_tensor(write, name, arr)
                f.write(struct.pack("<I", crc))
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
        f = open(path, "rb")
    except OSError as e:
        raise OSError(f"cannot read checkpoint {path}: {e}") from e
    with f:
        if f.read(8) != MAGIC:
            raise ConfigError(f"{path} is not a checkpoint (bad magic)")
        r = _Reader(f, path)
        (version,) = r.unpack("<I")
        if version not in (1, VERSION):
            raise ConfigError(f"unsupported checkpoint version {version}")
        (meta_len,) = r.unpack("<Q")
        try:
            meta = json.loads(r.read(meta_len).decode("utf-8"))
            (n_tensors,) = r.unpack("<Q")
            tensors = dict(_read_tensor(r) for _ in range(n_tensors))
        except ValueError as e:  # bad UTF-8 or JSON
            raise ConfigError(f"{path} is truncated or corrupt") from e
        crc = r.crc
        if version > 1 and r.unpack("<I") != (crc,):
            raise ConfigError(f"{path} is corrupt: its checksum does not match")
        if r.left:
            raise ConfigError(f"{path} is corrupt: {r.left} bytes follow its last tensor")

    if not isinstance(meta, dict):
        raise ConfigError(f"{path}: metadata is not a JSON object")
    try:
        return _from_metadata(path, meta, tensors)
    except ConfigError:
        raise  # its message names the file
    except (KeyError, TypeError, ValueError) as e:
        # a missing key, a wrong type or an unknown config field
        raise ConfigError(f"{path} has malformed metadata: {e!r}") from e


def _from_metadata(path, meta: dict, tensors: dict) -> CheckpointData:
    mc = meta["model_config"]
    try:
        model = init_model(ModelConfig(**dict(mc, backbone=bb.BackboneConfig(**mc["backbone"]),
                                              mask=tuple(mc["mask"]))))
    except ConfigError as e:  # ModelConfig.validate's messages do not name the file
        raise ConfigError(f"{path}: {e}") from e
    for key, want in list(model.named_params()):
        if key not in tensors:
            raise ConfigError(f"{path} has no tensor {key!r} for its model_config")
        if tensors[key].shape != want.shape:
            raise ConfigError(f"{path}: tensor {key!r} has shape {tensors[key].shape}, "
                              f"its model_config needs {want.shape}")
        want[...] = tensors[key]

    train_config = None
    if meta.get("train_config"):
        kept = dict(meta["train_config"])
        for key in ("first_order", "alpha_lr"):  # deleted options older files hold
            kept.pop(key, None)
        train_config = TrainConfig(**kept)
    tokenizer = None
    if meta.get("tokenizer"):
        tokenizer = TokenizerSpec(meta["tokenizer"]["mode"], meta["tokenizer"]["vocab"])
    opt_state = None
    if "opt_t" in meta:
        # only the moments of the model's parameters: older files also hold
        # those of deleted ones (the backbone's key biases, layers.*.bk)
        names = {k for k, _ in model.named_params()}
        opt_state = {p: {k[6:]: v for k, v in tensors.items()
                         if k.startswith(f"opt.{p}.") and k[6:] in names} for p in "mv"}
        opt_state["t"] = int(meta["opt_t"])
    return CheckpointData(model, train_config, tokenizer, opt_state,
                          int(meta.get("step", 0)))
