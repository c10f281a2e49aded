"""Binary PGM (grayscale) read/write and PPM (color) write.

Only the 8-bit binary variants (P5/P6, maxval 255) are supported; that covers
masks, saliency maps, pseudo-color renderings, and the stats heatmap without
pulling in an imaging dependency.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np

from .exceptions import MaskFormatError


def write_chunks_atomic(path, chunks) -> None:
    """Write byte chunks to a temp file in the target directory (created if missing), then
    rename it into place; if anything fails, remove the temp file and keep the old target."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as handle:
            for chunk in chunks:
                handle.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_bytes_atomic(path, payload: bytes) -> None:
    write_chunks_atomic(path, (payload,))


def write_text_atomic(path, text: str) -> None:
    write_bytes_atomic(path, text.encode("utf-8"))


def read_pgm(path) -> np.ndarray:
    """Read a binary 8-bit PGM as a (H, W) uint8 array."""
    payload = Path(path).read_bytes()
    if not payload.startswith(b"P5"):
        raise MaskFormatError(f"{path}: expected P5 image")
    pos = 2
    fields = []
    while len(fields) < 3:
        while pos < len(payload) and payload[pos : pos + 1].isspace():
            pos += 1
        if pos < len(payload) and payload[pos : pos + 1] == b"#":
            while pos < len(payload) and payload[pos : pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(payload) and not payload[pos : pos + 1].isspace():
            pos += 1
        if start == pos:
            raise MaskFormatError(f"{path}: truncated header")
        try:
            fields.append(int(payload[start:pos]))
        except ValueError as exc:
            raise MaskFormatError(f"{path}: non-numeric header field") from exc
    pos += 1  # single whitespace after maxval
    width, height, maxval = fields
    if maxval != 255:
        raise MaskFormatError(f"{path}: maxval must be 255, got {maxval}")
    if width < 1 or height < 1:
        raise MaskFormatError(f"{path}: bad dimensions {width}x{height}")
    need = width * height
    data = payload[pos:]
    if len(data) != need:
        raise MaskFormatError(f"{path}: payload has {len(data)} bytes, header claims {need}")
    return np.frombuffer(data, dtype=np.uint8).reshape(height, width).copy()


def write_pgm(values: np.ndarray, path) -> None:
    values = np.asarray(values)
    if values.ndim != 2 or values.dtype != np.uint8:
        raise ValueError(f"write_pgm needs a (H,W) uint8 array, got {values.shape} {values.dtype}")
    h, w = values.shape
    header = f"P5\n{w} {h}\n255\n".encode("ascii")
    write_bytes_atomic(path, header + values.tobytes())


def write_ppm(values: np.ndarray, path) -> None:
    values = np.asarray(values)
    if values.ndim != 3 or values.shape[2] != 3 or values.dtype != np.uint8:
        raise ValueError(f"write_ppm needs a (H,W,3) uint8 array, got {values.shape} {values.dtype}")
    h, w, _ = values.shape
    header = f"P6\n{w} {h}\n255\n".encode("ascii")
    write_bytes_atomic(path, header + values.tobytes())


def write_float_map(values: np.ndarray, path) -> None:
    """Raw float sidecar for exact evaluation: u32 H, u32 W, then H*W f32 LE."""
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2:
        raise ValueError(f"write_float_map needs a (H,W) array, got shape {values.shape}")
    h, w = values.shape
    header = np.array([h, w], dtype="<u4").tobytes()
    write_bytes_atomic(path, header + values.astype("<f4").tobytes())


def read_float_map(path) -> np.ndarray:
    """Read a float sidecar whose payload must match its header exactly."""
    payload = Path(path).read_bytes()
    if len(payload) < 8:
        raise MaskFormatError(f"{path}: truncated float map header")
    h, w = np.frombuffer(payload[:8], dtype="<u4")
    need = int(h) * int(w) * 4
    if len(payload) - 8 != need:
        raise MaskFormatError(
            f"{path}: float map header claims {h}x{w} ({need} bytes), payload has "
            f"{len(payload) - 8}"
        )
    data = np.frombuffer(payload[8:], dtype="<f4")
    with np.errstate(invalid="ignore"):  # a signaling NaN widens to NaN, which eval rejects
        return data.reshape(int(h), int(w)).astype(np.float64)
