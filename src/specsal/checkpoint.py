"""Flat binary parameter checkpoints.

Layout (all little-endian): 4 magic bytes ``SSCK``, u32 record count, then per
record a u16 name length, the utf-8 name, a u8 rank, u32 dimensions, and the
values as 32-bit IEEE-754 floats in C order. Values are stored at single
precision; loading widens back to float64 and rejects a non-finite value.
Saving checks every name, then streams record by record into a temp file.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from .exceptions import CheckpointError
from .imageio import write_chunks_atomic

CHECKPOINT_MAGIC = b"SSCK"


def save_checkpoint(named_values, path) -> None:
    records = []
    for name, values in named_values:
        encoded = name.encode("utf-8")
        if not encoded or len(encoded) > 0xFFFF:
            raise CheckpointError(f"bad parameter name {name!r}")
        records.append((encoded, np.asarray(values)))

    def chunks():
        yield CHECKPOINT_MAGIC + struct.pack("<I", len(records))
        for encoded, values in records:
            yield struct.pack(f"<H{len(encoded)}sB{values.ndim}I",
                              len(encoded), encoded, values.ndim, *values.shape)
            yield np.ascontiguousarray(values, dtype="<f4")

    write_chunks_atomic(path, chunks())


def load_checkpoint(path) -> dict:
    with open(path, "rb") as handle:
        payload = handle.read()
    end = len(payload)

    def truncated(at: int, wanted: int) -> CheckpointError:
        return CheckpointError(f"{path}: truncated at byte {at} (wanted {wanted} more)")

    if payload[:4] != CHECKPOINT_MAGIC[:end]:
        raise CheckpointError(f"{path}: not a checkpoint (bad magic)")
    if end < 8:
        raise truncated(4 if end >= 4 else 0, 4)
    (count,) = struct.unpack_from("<I", payload, 4)
    flat = np.empty((end - 8) // 4)  # room for every value, as each takes 4 of those bytes
    state, parts, used, offset = {}, [], 0, 8
    for _ in range(count):  # inline bounds checks: per-field calls cost more than the pass below
        if offset + 2 > end:
            raise truncated(offset, 2)
        (name_len,) = struct.unpack_from("<H", payload, offset)
        start, offset = offset + 2, offset + 2 + name_len
        if offset > end:
            raise truncated(start, name_len)
        try:
            name = payload[start:offset].decode("utf-8")
        except UnicodeDecodeError as err:
            raise CheckpointError(f"{path}: parameter name is not UTF-8 ({err})") from err
        if name in state:
            raise CheckpointError(f"{path}: duplicate parameter {name!r}")
        rank = payload[offset] if offset < end else 0  # a missing rank byte fails the check
        if offset + 1 + 4 * rank > end:
            raise truncated(offset, 1 + 4 * rank)
        shape = struct.unpack_from(f"<{rank}I", payload, offset + 1)
        size, offset = math.prod(shape), offset + 1 + 4 * rank
        if offset + 4 * size > end:
            raise truncated(offset, 4 * size)
        parts.append(np.frombuffer(payload, "<f4", size, offset))
        try:  # a view at a byte offset; numpy refuses a shape whose byte count overflows
            state[name] = np.ndarray(shape, np.float64, flat, 8 * used)
        except ValueError as err:
            raise CheckpointError(f"{path}: parameter {name!r} has unusable shape {shape}") from err
        offset, used = offset + 4 * size, used + size
    if offset != end:
        raise CheckpointError(f"{path}: {end - offset} trailing bytes")
    with np.errstate(invalid="ignore"):  # a signaling NaN is reported below, not warned about
        values = np.concatenate(parts, out=flat[:used]) if parts else flat[:0]  # fills every view
    # one finiteness pass: squares of widened float32 values cannot overflow a
    # float64 sum, so it is finite exactly when every value is
    if not math.isfinite(values @ values):
        name = next(name for name, array in state.items() if not np.isfinite(array).all())
        raise CheckpointError(f"{path}: parameter {name!r} holds a non-finite value")
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
