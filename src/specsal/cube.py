"""Hyperspectral reflectance cubes: binary file format, calibration, band ops.

A cube holds (bands, height, width) reflectances in [0, 1.5] -- unit-ish with
headroom for specular highlights -- plus a uniform wavelength grid. The file
format is fixed: magic ``HSV2``, little-endian u32 H, W, C, little-endian f64
wavelength_start_nm and wavelength_step_nm, then H*W*C little-endian f32
values in band-sequential order (band, then row, then column).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .exceptions import (
    CalibrationError,
    CubeDimensionError,
    CubeMagicError,
    CubeTruncationError,
    DataError,
)
from .imageio import write_bytes_atomic

CUBE_MAGIC = b"HSV2"
_HEADER = struct.Struct("<4sIIIdd")

REFLECTANCE_CEILING = 1.5


@dataclass
class HsiCube:
    """Reflectance cube with its wavelength grid.

    data is (bands, height, width) float64; values stay exactly representable
    in float32 whenever the cube came from (or is headed to) the file format.
    """

    data: np.ndarray = field(repr=False)
    wavelength_start_nm: float
    wavelength_step_nm: float

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.float64)
        if self.data.ndim != 3 or 0 in self.data.shape:
            raise DataError(f"cube data must be non-empty (bands,H,W), got shape {self.data.shape}")
        if not np.isfinite(self.data).all():
            raise DataError("cube data contains non-finite values")
        if (self.data < 0).any():
            raise DataError("cube data contains negative reflectances")
        if not (np.isfinite(self.wavelength_step_nm) and self.wavelength_step_nm > 0):
            raise DataError(f"wavelength step must be positive, got {self.wavelength_step_nm}")

    @property
    def bands(self) -> int:
        return self.data.shape[0]

    @property
    def height(self) -> int:
        return self.data.shape[1]

    @property
    def width(self) -> int:
        return self.data.shape[2]

    def wavelengths(self) -> np.ndarray:
        return self.wavelength_start_nm + self.wavelength_step_nm * np.arange(self.bands)


def write_cube(cube: HsiCube, path) -> None:
    header = _HEADER.pack(
        CUBE_MAGIC,
        cube.height,
        cube.width,
        cube.bands,
        cube.wavelength_start_nm,
        cube.wavelength_step_nm,
    )
    write_bytes_atomic(path, header + cube.data.astype("<f4").tobytes())


def read_cube(path) -> HsiCube:
    payload = Path(path).read_bytes()
    if len(payload) < 4 or payload[:4] != CUBE_MAGIC:
        raise CubeMagicError(f"{path}: not a cube file (magic {payload[:4]!r})")
    if len(payload) < _HEADER.size:
        raise CubeTruncationError(f"{path}: file ends inside the header")
    _, h, w, c, start, step = _HEADER.unpack_from(payload)
    if h < 1 or w < 1 or c < 1:
        raise CubeDimensionError(f"{path}: bad dimensions H={h} W={w} C={c}")
    if not (np.isfinite(step) and step > 0 and np.isfinite(start)):
        raise CubeDimensionError(f"{path}: bad wavelength grid start={start} step={step}")
    expected = h * w * c * 4
    body = payload[_HEADER.size :]
    if len(body) < expected:
        raise CubeTruncationError(
            f"{path}: header claims {c}x{h}x{w} ({expected} bytes), payload has {len(body)}"
        )
    if len(body) > expected:
        raise CubeDimensionError(
            f"{path}: payload has {len(body) - expected} bytes beyond the declared {c}x{h}x{w}"
        )
    with np.errstate(invalid="ignore"):  # a signaling NaN widens to NaN, which HsiCube rejects
        data = np.frombuffer(body, dtype="<f4").reshape(c, h, w).astype(np.float64)
    try:
        return HsiCube(data, start, step)
    except DataError as exc:
        raise CubeDimensionError(f"{path}: {exc}") from exc


def quantize_f32(values: np.ndarray) -> np.ndarray:
    """Round float64 values through float32 so file round trips are bit-exact."""
    return values.astype(np.float32).astype(np.float64)


def calibrate(raw: HsiCube, dark: HsiCube, white: HsiCube) -> HsiCube:
    """Flat-field calibration (raw - dark) / (white - dark), clamped to [0, 1.5].

    Invariant under joint rescaling of all three frames. The white frame must
    exceed the dark frame everywhere.
    """
    if raw.data.shape != dark.data.shape or raw.data.shape != white.data.shape:
        raise CalibrationError(
            f"frame shapes differ: raw {raw.data.shape}, dark {dark.data.shape}, "
            f"white {white.data.shape}"
        )
    denom = white.data - dark.data
    if (denom <= 0).any():
        bad = int((denom <= 0).sum())
        raise CalibrationError(f"white <= dark at {bad} samples; calibration undefined")
    reflectance = np.clip((raw.data - dark.data) / denom, 0.0, REFLECTANCE_CEILING)
    return HsiCube(quantize_f32(reflectance), raw.wavelength_start_nm, raw.wavelength_step_nm)


PSEUDO_COLOR_TARGETS_NM = (650.0, 550.0, 450.0)  # R, G, B


def pseudo_color(cube: HsiCube) -> np.ndarray:
    """Render the bands nearest 650/550/450 nm as an (H, W, 3) uint8 image.

    Each channel is stretched between its 1st and 99th percentiles. A channel
    with a degenerate percentile range falls back to absolute reflectance
    clipped to [0, 1], so a constant cube renders as uniform gray and a
    one-hot 650 nm cube renders pure red.
    """
    wavelengths = cube.wavelengths()
    out = np.zeros((cube.height, cube.width, 3), dtype=np.uint8)
    for ch, target in enumerate(PSEUDO_COLOR_TARGETS_NM):
        band = cube.data[int(np.argmin(np.abs(wavelengths - target)))]
        lo, hi = np.percentile(band, [1.0, 99.0])
        if hi > lo:
            scaled = np.clip((band - lo) / (hi - lo), 0.0, 1.0)
        else:
            scaled = np.clip(band, 0.0, 1.0)
        out[:, :, ch] = np.round(255.0 * scaled).astype(np.uint8)
    return out
