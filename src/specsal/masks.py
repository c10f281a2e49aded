"""Binary ground-truth masks and foreground geometry.

Masks are (H, W) uint8 arrays with values in {0, 1}; on disk they are binary
PGM files holding 0 or 255. Small objects cover strictly less than 1% of the
image, matching the benchmark convention.
"""

from __future__ import annotations

import numpy as np

from .exceptions import DataError, MaskFormatError
from .imageio import read_pgm, write_pgm

SMALL_OBJECT_MAX_SCALE = 0.01


class EmptyMaskError(DataError):
    """The mask has no foreground pixels where some are required."""


def validate_mask(mask: np.ndarray) -> np.ndarray:
    mask = np.asarray(mask)
    if mask.ndim != 2 or mask.dtype != np.uint8:
        raise MaskFormatError(f"mask must be (H,W) uint8, got {mask.shape} {mask.dtype}")
    if not ((mask == 0) | (mask == 1)).all():
        raise MaskFormatError("mask values must be 0 or 1")
    return mask


def read_mask(path) -> np.ndarray:
    raw = read_pgm(path)
    if not ((raw == 0) | (raw == 255)).all():
        bad = sorted(set(np.unique(raw)) - {0, 255})
        raise MaskFormatError(f"{path}: mask pixels must be 0 or 255, found {bad[:5]}")
    return (raw == 255).astype(np.uint8)


def write_mask(mask: np.ndarray, path) -> None:
    mask = validate_mask(mask)
    write_pgm((mask * 255).astype(np.uint8), path)


def foreground_scale(mask: np.ndarray) -> float:
    """Foreground area as a fraction of the image."""
    mask = validate_mask(mask)
    return float(mask.mean())


def is_small_object(mask: np.ndarray) -> bool:
    """Strictly below the 1% threshold; exactly 1% does not count as small."""
    return foreground_scale(mask) < SMALL_OBJECT_MAX_SCALE


def centroid(mask: np.ndarray) -> tuple[float, float]:
    """Foreground centroid as normalized (x, y) with pixel-center convention.

    A lone pixel at row 0, col 0 of a 10x10 mask sits at (0.05, 0.05).
    """
    mask = validate_mask(mask)
    rows, cols = np.nonzero(mask)
    if rows.size == 0:
        raise EmptyMaskError("centroid of an empty mask is undefined")
    h, w = mask.shape
    return (float((cols + 0.5).mean() / w), float((rows + 0.5).mean() / h))
