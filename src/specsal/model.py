"""Full pipeline assembly: spectral encoder, backbone, decoder.

The model hands a raw reflectance cube (bands, H, W) as a plain array to the
spectral encoder, which groups the bands itself, and runs the taped network
from there. It returns every supervised quantity: the full-resolution
saliency map, the four per-level maps, the three-way labelings of the three
coarser levels, the coarse global grid, and the reconstructed cube.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .exceptions import ConfigError, ShapeError
from .nn import Module
from .saliency_net import DecoderConfig, HighResBackbone, SaliencyDecoder, resize_to
from .spectral_attention import EncoderConfig, SpectralEncoder
from .tensor import Store, Tensor


@dataclass
class ModelConfig:
    """The settings a caller varies; the branch layout is fixed structure.

    ``stem_stride`` is the backbone stem's stride; the saliency map is
    upsampled by it back to ``input_size``. A config that constructs here
    builds a model: this is the only place that checks.
    """

    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    decoder: DecoderConfig = field(default_factory=DecoderConfig)
    stem_stride: int = 2
    input_size: int = 64

    def __post_init__(self):
        if self.stem_stride < 1:
            raise ConfigError(f"stem stride must be >= 1, got {self.stem_stride}")
        need = 8 * self.stem_stride
        if self.input_size < need or self.input_size % need:
            raise ConfigError(
                f"input size {self.input_size} must be a positive multiple of {need}"
            )
        grid, sizes = self.decoder.grid, self.level_sizes()
        if grid > sizes[0]:
            raise ConfigError(
                f"decoder grid {grid} exceeds the finest level size {sizes[0]}"
            )
        for size in sizes:
            if size % grid and grid % size:
                raise ConfigError(
                    f"decoder grid {grid} shares no integer factor with level size {size}"
                )

    @property
    def cube_shape(self) -> tuple:
        """The (bands, H, W) raw cube the model consumes."""
        return (self.encoder.bands, self.input_size, self.input_size)

    def check_cube(self, shape) -> None:
        if tuple(shape) != self.cube_shape:
            raise ShapeError(f"model expects a {self.cube_shape} cube, got {tuple(shape)}")

    def level_sizes(self) -> list:
        base = self.input_size // self.stem_stride
        return [base // (1 << i) for i in range(4)]


def tiny_model_config() -> ModelConfig:
    """Smallest constructible model, used by gradient checks: 8x8x8 input.

    A single attention head keeps the per-head temperature live (two heads on
    two grouped bands would give constant 1x1 softmaxes with zero gradient).
    """
    return ModelConfig(
        encoder=EncoderConfig(bands=8, heads=1, blocks=1),
        decoder=DecoderConfig(grid=2, attention_width=16),
        stem_stride=1,
        input_size=8,
    )


def demo_model_config(bands: int = 8, input_size: int = 32) -> ModelConfig:
    """Desk-scale model for the seeded training demonstrations (32x32x8)."""
    return ModelConfig(
        encoder=EncoderConfig(bands=bands, heads=1, blocks=1),
        decoder=DecoderConfig(grid=4, attention_width=16),
        stem_stride=1,
        input_size=input_size,
    )


def default_model_config(bands: int = 32, input_size: int = 64) -> ModelConfig:
    return ModelConfig(encoder=EncoderConfig(bands=bands), input_size=input_size)


@dataclass
class ModelOutput:
    """Everything the loss needs from one forward pass (all taped Tensors)."""

    saliency: Tensor  # (1, H, W) in (0,1), full input resolution
    restored: Tensor  # (bands, H, W) reconstruction of the raw cube
    block_saliency: Tensor  # (1, g, g) coarse global grid in (0,1)
    level_predictions: list  # four (1, h_i, w_i) sigmoid maps, fine to coarse
    trimaps: list  # three (3, h_i, w_i) per-pixel distributions, for level_predictions[1:]

    def saliency_map(self) -> np.ndarray:
        """Plain (H, W) float array of the final saliency values."""
        return self.saliency.data[0]


class SaliencyModel(Module):
    """End-to-end network; construction order fixes the rng draw sequence.

    rng=None builds zero weights, to be filled by checkpoint.apply_state. Once
    built, every parameter's values are a slice of one flat Store, in
    parameters_by_name order.
    """

    def __init__(self, rng: np.random.Generator | None, config: ModelConfig):
        self.config = config
        self.encoder = SpectralEncoder(rng, config.encoder)
        self.backbone = HighResBackbone(rng, config.encoder.working_bands, config.stem_stride)
        self.decoder = SaliencyDecoder(rng, config.decoder)
        self.parameters_by_name = dict(self.named_parameters())  # the tree is fixed from here on
        Store.pack(self.parameters_by_name.values())

    def __call__(self, cube_values: np.ndarray) -> ModelOutput:
        self.config.check_cube(np.shape(cube_values))
        features, restored = self.encoder(cube_values)
        pyramid = self.backbone(features)
        block_map, predictions, trimaps = self.decoder(pyramid)
        size = self.config.input_size
        saliency = resize_to(predictions[0], size, size)
        return ModelOutput(saliency, restored, block_map, predictions, trimaps)
