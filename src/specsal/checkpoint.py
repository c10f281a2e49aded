"""Flat binary parameter checkpoints.

Layout (all little-endian): 4 magic bytes ``SSCK``, u32 record count, then per
record a u16 name length, the utf-8 name, a u8 rank, u32 dimensions, and the
values as 32-bit IEEE-754 floats in C order. Values are stored at single
precision; loading widens back to float64.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from .exceptions import CheckpointError
from .imageio import write_bytes_atomic

CHECKPOINT_MAGIC = b"SSCK"


def save_checkpoint(named_values, path) -> None:
    chunks = []
    count = 0
    for name, values in named_values:
        encoded = name.encode("utf-8")
        if not encoded or len(encoded) > 0xFFFF:
            raise CheckpointError(f"bad parameter name {name!r}")
        values = np.asarray(values)
        chunks.append(struct.pack("<H", len(encoded)))
        chunks.append(encoded)
        chunks.append(struct.pack("<B", values.ndim))
        chunks.append(struct.pack(f"<{values.ndim}I", *values.shape))
        chunks.append(np.ascontiguousarray(values, dtype="<f4").tobytes())
        count += 1
    payload = CHECKPOINT_MAGIC + struct.pack("<I", count) + b"".join(chunks)
    write_bytes_atomic(path, payload)


def load_checkpoint(path) -> dict:
    with open(path, "rb") as handle:
        payload = handle.read()
    offset = 0

    def claim(n: int) -> int:
        """Advance past ``n`` bytes and return where they start."""
        nonlocal offset
        if offset + n > len(payload):
            raise CheckpointError(f"{path}: truncated at byte {offset} (wanted {n} more)")
        offset += n
        return offset - n

    claim(4)
    if payload[:4] != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint (bad magic)")
    (count,) = struct.unpack_from("<I", payload, claim(4))
    state = {}
    for _ in range(count):
        (name_len,) = struct.unpack_from("<H", payload, claim(2))
        start = claim(name_len)
        try:
            name = payload[start:offset].decode("utf-8")
        except UnicodeDecodeError as err:
            raise CheckpointError(f"{path}: parameter name is not UTF-8 ({err})") from err
        if name in state:
            raise CheckpointError(f"{path}: duplicate parameter {name!r}")
        (rank,) = struct.unpack_from("<B", payload, claim(1))
        shape = struct.unpack_from(f"<{rank}I", payload, claim(4 * rank))
        size = math.prod(shape)
        values = np.frombuffer(payload, "<f4", size, claim(4 * size))
        state[name] = values.reshape(shape).astype(np.float64)
    if offset != len(payload):
        raise CheckpointError(f"{path}: {len(payload) - offset} trailing bytes")
    return state


def model_state(model):
    """(name, values) pairs for every parameter of a SaliencyModel, in declaration order."""
    return [(name, p.data) for name, p in model.parameters_by_name.items()]


def apply_state(model, state: dict) -> None:
    """Load a checkpoint dict into a SaliencyModel; names and shapes must match 1:1."""
    params = model.parameters_by_name
    missing = sorted(set(params) - set(state))
    extra = sorted(set(state) - set(params))
    if missing or extra:
        raise CheckpointError(
            f"checkpoint/model mismatch: missing {missing[:3]}, unexpected {extra[:3]}"
        )
    for name, p in params.items():
        values = state[name]
        if values.shape != p.shape:
            raise CheckpointError(
                f"parameter {name}: checkpoint shape {values.shape} "
                f"!= model shape {p.shape}"
            )
    for name, p in params.items():
        p.data[...] = state[name]
