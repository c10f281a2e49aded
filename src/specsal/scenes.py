"""Synthetic miniature scenes with controllable spectral signatures.

A scene spec fixes geometry (disks and rectangles placed by normalized center
and area fraction), per-region spectra built from a base level, a linear tilt,
Gaussian bumps, and a smooth near-infrared step, plus sensor noise. Rendering
is deterministic per (spec, seed).

The near-infrared step is what manufactures color-similarity (CS) scenes: it
is exactly zero below its onset wavelength, so foreground and background agree
on the visible bands a pseudo-color rendering samples while their spectra
diverge beyond the onset.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .configio import from_dict
from .cube import HsiCube, quantize_f32, REFLECTANCE_CEILING
from .exceptions import SceneSpecError
from .manifest import ATTRIBUTE_VOCABULARY

# A desk-scale cap on bands * height * width; the largest preset has 2**17.
MAX_SCENE_SAMPLES = 2**24


@dataclass
class GaussianBump:
    center_nm: float
    width_nm: float
    amplitude: float

    def __post_init__(self):
        if self.width_nm <= 0:
            raise SceneSpecError(f"bump width must be positive, got {self.width_nm}")


@dataclass
class NirStep:
    """Smoothstep ramp from 0 to amplitude between onset_nm and end_nm."""

    onset_nm: float
    end_nm: float
    amplitude: float

    def __post_init__(self):
        if self.end_nm <= self.onset_nm:
            raise SceneSpecError(f"step needs end > onset, got {self.onset_nm}..{self.end_nm}")


@dataclass
class SpectrumSpec:
    """Reflectance as a function of wavelength.

    value(w) = base + slope*(w-700)/300 + gaussian bumps + nir step.
    """

    base: float = 0.4
    slope: float = 0.0
    bumps: list[GaussianBump] = field(default_factory=list)
    step: NirStep | None = None

    def evaluate(self, wavelengths_nm: np.ndarray) -> np.ndarray:
        w = np.asarray(wavelengths_nm, dtype=np.float64)
        value = self.base + self.slope * (w - 700.0) / 300.0
        for bump in self.bumps:
            value = value + bump.amplitude * np.exp(
                -0.5 * ((w - bump.center_nm) / bump.width_nm) ** 2
            )
        if self.step is not None:
            t = np.clip((w - self.step.onset_nm) / (self.step.end_nm - self.step.onset_nm), 0.0, 1.0)
            value = value + self.step.amplitude * t * t * (3.0 - 2.0 * t)
        return value


@dataclass
class ObjectSpec:
    """A disk or axis-aligned rectangle covering `scale` of the image area."""

    shape: str
    center: tuple[float, float]
    scale: float
    spectrum: SpectrumSpec
    aspect: float = 1.0  # rect width/height ratio

    def __post_init__(self):
        if self.shape not in ("disk", "rect"):
            raise SceneSpecError(f"object shape must be disk or rect, got {self.shape!r}")
        if not 0.0 < self.scale < 1.0:
            raise SceneSpecError(f"object scale must be in (0,1), got {self.scale}")
        if self.aspect <= 0:
            raise SceneSpecError(f"rect aspect must be positive, got {self.aspect}")
        cx, cy = self.center
        if not (0.0 <= cx <= 1.0 and 0.0 <= cy <= 1.0):
            raise SceneSpecError(f"object center must be in [0,1]^2, got {self.center}")


@dataclass
class SceneSpec:
    height: int
    width: int
    bands: int
    wavelength_start_nm: float = 400.0
    wavelength_step_nm: float = 3.0
    background: SpectrumSpec = field(default_factory=SpectrumSpec)
    objects: list[ObjectSpec] = field(default_factory=list)
    distractors: list[ObjectSpec] = field(default_factory=list)  # painted, but not salient
    noise_level: float = 0.0
    attributes: tuple[str, ...] = ()

    def __post_init__(self):
        if self.height < 1 or self.width < 1 or self.bands < 1:
            raise SceneSpecError(
                f"scene dims must be positive, got {self.height}x{self.width}x{self.bands}"
            )
        if self.bands * self.height * self.width > MAX_SCENE_SAMPLES:
            raise SceneSpecError(
                f"scene of {self.height}x{self.width}x{self.bands} exceeds "
                f"{MAX_SCENE_SAMPLES} samples"
            )
        if self.wavelength_step_nm <= 0:
            raise SceneSpecError(f"wavelength step must be positive, got {self.wavelength_step_nm}")
        if self.noise_level < 0:
            raise SceneSpecError(f"noise level must be >= 0, got {self.noise_level}")
        attrs = tuple(self.attributes)
        unknown = [a for a in attrs if a not in ATTRIBUTE_VOCABULARY]
        if unknown:
            raise SceneSpecError(f"unknown attributes {unknown}; vocabulary is {ATTRIBUTE_VOCABULARY}")
        self.attributes = attrs

    def wavelengths(self) -> np.ndarray:
        return self.wavelength_start_nm + self.wavelength_step_nm * np.arange(self.bands)


def _rasterize(obj: ObjectSpec, height: int, width: int) -> np.ndarray:
    """Pixel-center rasterization; the analytic region must fit in bounds."""
    cx = obj.center[0] * width
    cy = obj.center[1] * height
    area = obj.scale * height * width
    ys = np.arange(height)[:, None] + 0.5
    xs = np.arange(width)[None, :] + 0.5
    if obj.shape == "disk":
        radius = math.sqrt(area / math.pi)
        if cx - radius < 0 or cx + radius > width or cy - radius < 0 or cy + radius > height:
            raise SceneSpecError(
                f"disk at {obj.center} with scale {obj.scale} leaves the image bounds"
            )
        return (xs - cx) ** 2 + (ys - cy) ** 2 <= radius * radius
    half_w = math.sqrt(area * obj.aspect) / 2.0
    half_h = math.sqrt(area / obj.aspect) / 2.0
    if cx - half_w < 0 or cx + half_w > width or cy - half_h < 0 or cy + half_h > height:
        raise SceneSpecError(
            f"rect at {obj.center} with scale {obj.scale} leaves the image bounds"
        )
    return (np.abs(xs - cx) <= half_w) & (np.abs(ys - cy) <= half_h)


def synth_scene(spec: SceneSpec, seed: int) -> tuple[HsiCube, np.ndarray]:
    """Render (cube, mask). Distractors share the background's mask label."""
    wavelengths = spec.wavelengths()
    data = np.broadcast_to(
        spec.background.evaluate(wavelengths)[:, None, None],
        (spec.bands, spec.height, spec.width),
    ).copy()
    mask = np.zeros((spec.height, spec.width), dtype=np.uint8)
    for obj in spec.distractors:
        region = _rasterize(obj, spec.height, spec.width)
        data[:, region] = obj.spectrum.evaluate(wavelengths)[:, None]
    for obj in spec.objects:
        region = _rasterize(obj, spec.height, spec.width)
        data[:, region] = obj.spectrum.evaluate(wavelengths)[:, None]
        mask[region] = 1
    if spec.noise_level > 0:
        rng = np.random.default_rng(seed)
        data = data + rng.normal(0.0, spec.noise_level, size=data.shape)
    data = np.clip(data, 0.0, REFLECTANCE_CEILING)
    cube = HsiCube(quantize_f32(data), spec.wavelength_start_nm, spec.wavelength_step_nm)
    return cube, mask


# ---------------------------------------------------------------------------
# serialized form (strict: unknown keys are rejected)


def scene_spec_from_dict(doc: dict) -> SceneSpec:
    return from_dict(SceneSpec, doc, "scene spec", SceneSpecError)


def scene_spec_to_dict(spec: SceneSpec) -> dict:
    return asdict(spec)


# ---------------------------------------------------------------------------
# canonical scenes used by the verification suites and the docs


def color_similar_scene_spec(height: int = 64, width: int = 64, bands: int = 32) -> SceneSpec:
    """Foreground and background agree on the visible bands (noise apart) but
    diverge sharply beyond 700 nm.

    The gray corner patches are flat-spectrum distractors: they pin the
    pseudo-color percentile stretch to real scene contrast instead of sensor
    noise, yet have zero spectral angle to the flat background.
    """
    span = 600.0 / max(bands - 1, 1)
    background = SpectrumSpec(base=0.4)
    foreground = SpectrumSpec(base=0.4, step=NirStep(onset_nm=700.0, end_nm=780.0, amplitude=0.45))
    return SceneSpec(
        height=height,
        width=width,
        bands=bands,
        wavelength_start_nm=400.0,
        wavelength_step_nm=span,
        background=background,
        objects=[ObjectSpec("disk", (0.5, 0.5), 0.25, foreground)],
        distractors=[
            ObjectSpec("rect", (0.15, 0.85), 0.02, SpectrumSpec(base=0.15)),
            ObjectSpec("rect", (0.85, 0.15), 0.02, SpectrumSpec(base=0.75)),
        ],
        noise_level=0.01,
        attributes=("CS",),
    )


def training_demo_scene_spec(height: int = 32, width: int = 32, bands: int = 8) -> SceneSpec:
    """Small bright-object scene for optimizer smoke runs."""
    span = 600.0 / max(bands - 1, 1)
    return SceneSpec(
        height=height,
        width=width,
        bands=bands,
        wavelength_start_nm=400.0,
        wavelength_step_nm=span,
        background=SpectrumSpec(base=0.35, slope=0.05),
        objects=[
            ObjectSpec(
                "rect",
                (0.4, 0.45),
                0.12,
                SpectrumSpec(base=0.8, bumps=[GaussianBump(550.0, 80.0, 0.3)]),
            )
        ],
        noise_level=0.02,
    )


def reconstruction_demo_scene_spec(height: int = 16, width: int = 16, bands: int = 32) -> SceneSpec:
    """Spectrally busy scene for reconstruction-only training runs."""
    span = 600.0 / max(bands - 1, 1)
    return SceneSpec(
        height=height,
        width=width,
        bands=bands,
        wavelength_start_nm=400.0,
        wavelength_step_nm=span,
        background=SpectrumSpec(base=0.45, slope=-0.1, bumps=[GaussianBump(620.0, 90.0, 0.25)]),
        objects=[
            ObjectSpec(
                "disk",
                (0.5, 0.5),
                0.2,
                SpectrumSpec(base=0.3, bumps=[GaussianBump(850.0, 70.0, 0.5)]),
            )
        ],
        noise_level=0.02,
    )
