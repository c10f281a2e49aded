"""Classical per-pixel spectral contrast baselines.

Each measure compares a pixel's spectrum against the cube's global mean
spectrum: angular distance, Euclidean distance, or Euclidean distance between
first-difference (gradient) spectra. The published maps are the raw measures
min-max normalized to [0, 1] and smoothed with a 3x3 box filter; the ``_raw``
variants expose the pre-normalization values for scale-behavior tests. The
measures run at the cube's precision, float32 for a cube read from a file; a
norm that overflows it raises NumericError rather than yield a wrong map.

``luminance_contrast_map`` is the deliberately spectrally-blind control: it
collapses the cube to a pseudo-color rendering first, so scenes whose
foreground differs only outside the displayed bands score near chance.
"""

from __future__ import annotations

import numpy as np

from .cube import HsiCube, pseudo_color
from .exceptions import NumericError, ShapeError

# Rec. 601 luma weights for the pseudo-color collapse.
_LUMA_WEIGHTS = np.array([0.299, 0.587, 0.114])


def _spectra(cube: HsiCube) -> np.ndarray:
    """Cube pixels as an (H*W, bands) matrix of spectra."""
    return cube.data.reshape(cube.bands, -1).T


def normalize_map(values: np.ndarray) -> np.ndarray:
    """Min-max rescale to [0, 1]; a constant map collapses to all zeros. A map with a
    NaN or an infinity (a float32 cube whose squares overflow) has no such rescale
    and raises NumericError."""
    values = np.asarray(values, dtype=np.float64)
    lo = values.min()  # min and max propagate NaN
    hi = values.max()
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise NumericError("raw saliency map contains non-finite values")
    if hi == lo:
        return np.zeros_like(values)
    return (values - lo) / (hi - lo)


def box_smooth(values: np.ndarray) -> np.ndarray:
    """3x3 box filter with edge replication, so borders average 9 real samples."""
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2:
        raise ShapeError(f"expected a 2-d map, got shape {values.shape}")
    padded = np.pad(values, 1, mode="edge")
    out = np.zeros_like(values)
    for dy in range(3):
        for dx in range(3):
            out += padded[dy : dy + values.shape[0], dx : dx + values.shape[1]]
    return out / 9.0


def sad_map_raw(cube: HsiCube) -> np.ndarray:
    """Spectral angle to the global mean spectrum, in radians.

    Zero-norm pixels (or a zero-norm mean) have no defined angle and score 0,
    the no-contrast limit.
    """
    spectra = _spectra(cube)
    mean = spectra.mean(axis=0)
    norms = np.linalg.norm(spectra, axis=1)
    if not np.isfinite(norms).all():  # an overflowed norm would pass for a right angle
        raise NumericError("spectral norms overflow the cube's precision")
    mean_norm = np.linalg.norm(mean)
    angles = np.zeros(len(spectra))
    defined = (norms > 0) & (mean_norm > 0)
    if mean_norm > 0:
        cosine = (spectra[defined] @ mean) / (norms[defined] * mean_norm)
        angles[defined] = np.arccos(np.clip(cosine, -1.0, 1.0))
    return angles.reshape(cube.height, cube.width)


def sed_map_raw(cube: HsiCube) -> np.ndarray:
    """Euclidean distance to the global mean spectrum."""
    spectra = _spectra(cube)
    return np.linalg.norm(spectra - spectra.mean(axis=0), axis=1).reshape(
        cube.height, cube.width
    )


def sg_map_raw(cube: HsiCube) -> np.ndarray:
    """Euclidean distance between first-difference spectra and their mean.

    Insensitive to per-pixel additive offsets (brightness), by construction.
    """
    if cube.bands < 2:
        raise ShapeError("gradient spectra need at least 2 bands")
    gradients = np.diff(_spectra(cube), axis=1)
    return np.linalg.norm(gradients - gradients.mean(axis=0), axis=1).reshape(
        cube.height, cube.width
    )


def _published(raw: np.ndarray) -> np.ndarray:
    return box_smooth(normalize_map(raw))


def sad_map(cube: HsiCube) -> np.ndarray:
    return _published(sad_map_raw(cube))


def sed_map(cube: HsiCube) -> np.ndarray:
    return _published(sed_map_raw(cube))


def sg_map(cube: HsiCube) -> np.ndarray:
    return _published(sg_map_raw(cube))


BASELINES = {"sad": sad_map, "sed": sed_map, "sg": sg_map}


def luminance_contrast_map(cube: HsiCube) -> np.ndarray:
    """Saliency as |pseudo-color luminance - mean luminance|, published form.

    Control for the spectral baselines: it only ever sees the three rendered
    bands, exactly what a human looking at the pseudo-color image sees.
    """
    rgb = pseudo_color(cube).astype(np.float64) / 255.0
    luminance = rgb @ _LUMA_WEIGHTS
    return _published(np.abs(luminance - luminance.mean()))
