"""Binary tensor serialization and training checkpoints.

Tensor file layout (little-endian throughout):

    8 bytes   magic "CMPESE01"
    u32       tensor count
    per tensor:
        u16   name length, then UTF-8 name
        u8    dtype code (0=float32, 1=float64, 2=int64)
        u8    rank
        u32*  extents
        raw   values, C order

A training checkpoint is one tensor file holding model state under
``model/`` and optimizer velocity under ``velocity/``, plus a JSON sidecar
(same path + ".json") with epoch, rng state, config hash, and the network
description needed to rebuild the model.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct

import numpy as np

from .errors import DataFormatError, check_keys, read_file, read_json

MAGIC = b"CMPESE01"
# the sidecar's "format"; load_checkpoint refuses any other
FORMAT = "cmpese-checkpoint-v1"

_DTYPE_CODES = {np.dtype(np.float32): 0, np.dtype(np.float64): 1, np.dtype(np.int64): 2}
_CODE_DTYPES = {v: k for k, v in _DTYPE_CODES.items()}
# the most dimensions a numpy array can have
_MAX_RANK = 64


def save_tensors(path, arrays):
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<I", len(arrays)))
        for name, arr in arrays.items():
            arr = np.ascontiguousarray(arr)
            if arr.dtype not in _DTYPE_CODES:
                raise DataFormatError(f"unsupported dtype {arr.dtype} for tensor {name!r}")
            encoded = name.encode("utf-8")
            f.write(struct.pack("<H", len(encoded)))
            f.write(encoded)
            f.write(struct.pack("<BB", _DTYPE_CODES[arr.dtype], arr.ndim))
            f.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            f.write(arr.astype(arr.dtype.newbyteorder("<"), copy=False).tobytes())


def load_tensors(path):
    """The arrays of a tensor file, by name in file order. A file that breaks
    the layout (a name that is not UTF-8 or repeats an earlier one, an unknown
    dtype code, a rank above numpy's, a truncation or trailing bytes) raises
    DataFormatError naming the file and the byte offset."""
    buf = read_file(path, DataFormatError)
    if buf[:8] != MAGIC:
        raise DataFormatError(f"{path}: bad magic {buf[:8]!r}", byte_offset=0)
    pos = 8

    def take(n, what):
        nonlocal pos
        if pos + n > len(buf):
            raise DataFormatError(f"{path}: truncated while reading {what}", byte_offset=pos)
        piece = buf[pos: pos + n]
        pos += n
        return piece

    (count,) = struct.unpack("<I", take(4, "tensor count"))
    arrays = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<H", take(2, "name length"))
        at = pos
        try:
            name = take(name_len, "name").decode("utf-8")
        except UnicodeDecodeError as e:
            raise DataFormatError(f"{path}: tensor name is not UTF-8",
                                  byte_offset=at + e.start) from None
        if name in arrays:
            raise DataFormatError(f"{path}: tensor {name!r} repeats an earlier name",
                                  byte_offset=at)
        code, rank = struct.unpack("<BB", take(2, "dtype/rank"))
        if code not in _CODE_DTYPES:
            raise DataFormatError(f"{path}: unknown dtype code {code} for {name!r}",
                                  byte_offset=pos - 2)
        if rank > _MAX_RANK:
            raise DataFormatError(f"{path}: rank {rank} of {name!r} is above numpy's "
                                  f"{_MAX_RANK}", byte_offset=pos - 1)
        shape = struct.unpack(f"<{rank}I", take(4 * rank, "extents"))
        dtype = _CODE_DTYPES[code]
        nbytes = math.prod(shape) * dtype.itemsize
        data = take(nbytes, f"values of {name!r}")
        arrays[name] = np.frombuffer(data, dtype=dtype.newbyteorder("<")).astype(
            dtype).reshape(shape)
    if pos != len(buf):
        raise DataFormatError(f"{path}: {len(buf) - pos} trailing bytes", byte_offset=pos)
    return arrays


def config_hash(obj):
    """Stable hash of any JSON-serializable config description."""
    canonical = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def save_checkpoint(path, model_state, network_dict, velocity=None, epoch=None,
                    rng_state=None, cfg_hash=None):
    arrays = {f"model/{k}": v for k, v in model_state.items()}
    if velocity:
        arrays.update({f"velocity/{k}": v for k, v in velocity.items()})
    save_tensors(path, arrays)
    meta = {
        "format": FORMAT,
        "epoch": epoch,
        "config_hash": cfg_hash,
        "rng_state": rng_state,
        "network": network_dict,
    }
    with open(str(path) + ".json", "w") as f:
        json.dump(meta, f, indent=1, sort_keys=True)


def load_checkpoint(path):
    """Returns (model_state, velocity, meta).

    A sidecar that is not a JSON object holding ``epoch`` (an integer or
    null), ``rng_state`` and ``network`` (each an object or null), or whose
    ``format``, when present, is not FORMAT, raises DataFormatError naming
    the sidecar."""
    arrays = load_tensors(path)
    sidecar = str(path) + ".json"
    meta = read_json(sidecar, DataFormatError)
    check_keys(meta, "sidecar", ("epoch", "rng_state", "network"), ("format", "config_hash"),
               error=lambda message: DataFormatError(f"{sidecar}: {message}"))
    if meta.get("format", FORMAT) != FORMAT:
        raise DataFormatError(f"{sidecar}: format must be {FORMAT!r}, got {meta['format']!r}")
    epoch = meta["epoch"]
    if epoch is not None and (type(epoch) is not int or epoch < 0):
        raise DataFormatError(f"{sidecar}: epoch must be a non-negative integer, got {epoch!r}")
    for key in ("rng_state", "network"):
        if not isinstance(meta[key], (dict, type(None))):
            raise DataFormatError(f"{sidecar}: {key} must be an object or null, "
                                  f"got {meta[key]!r}")
    model_state = {k[len("model/"):]: v for k, v in arrays.items() if k.startswith("model/")}
    velocity = {k[len("velocity/"):]: v for k, v in arrays.items()
                if k.startswith("velocity/")}
    return model_state, velocity, meta
