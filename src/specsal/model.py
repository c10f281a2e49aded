"""Full pipeline assembly: spectral encoder, backbone, decoder.

The model hands a raw reflectance cube (bands, H, W) as a plain array to the
spectral encoder, which groups the bands itself, and runs the taped network
from there. It returns every supervised quantity: the full-resolution
saliency map, the four per-level maps, the three-way labelings of the three
coarser levels, the coarse global grid, and the reconstructed cube, whose
restore head runs only when it is first read (``infer`` never reads it).
"""

from __future__ import annotations

import functools
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
    upsampled by it back to the cube's size. No setting depends on that
    size, so every config that constructs builds a model, and the one model
    runs on every cube that ``check_cube`` admits.
    """

    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    decoder: DecoderConfig = field(default_factory=DecoderConfig)
    stem_stride: int = 2

    def __post_init__(self):
        if self.stem_stride < 1:
            raise ConfigError(f"stem stride must be >= 1, got {self.stem_stride}")

    def check_cube(self, shape) -> None:
        """The one gate on a cube's shape: (encoder.bands, N, N), where N is a
        positive multiple of 8 * stem_stride and every level size admits the grid."""
        if len(shape) != 3:
            raise ShapeError(f"model expects a (bands, H, W) cube, got shape {tuple(shape)}")
        bands, height, width = shape
        if bands != self.encoder.bands:
            raise ShapeError(f"model expects {self.encoder.bands} bands, got {bands}")
        if height != width:
            raise ShapeError(f"model expects a square cube, got {height}x{width}")
        need = 8 * self.stem_stride
        if height < need or height % need:
            raise ShapeError(f"cube size {height} must be a positive multiple of {need}")
        grid, sizes = self.decoder.grid, self.level_sizes(height)
        if grid > sizes[0]:
            raise ShapeError(f"decoder grid {grid} exceeds the finest level size {sizes[0]}")
        for size in sizes:
            if size % grid and grid % size:
                raise ShapeError(
                    f"decoder grid {grid} shares no integer factor with level size {size}"
                )

    def level_sizes(self, size: int) -> list:
        """Side of each backbone level, fine to coarse, for a size x size cube."""
        base = size // self.stem_stride
        return [base // (1 << i) for i in range(4)]


def tiny_model_config() -> ModelConfig:
    """Smallest model, used by gradient checks on its smallest cube, 8x8x8.

    A single attention head keeps ``to_query`` and ``to_key`` live: two heads
    on two grouped bands would be 1-channel heads, whose 1x1 softmaxes are
    constant and pass them zero gradient.
    """
    return ModelConfig(
        encoder=EncoderConfig(bands=8, heads=1, blocks=1),
        decoder=DecoderConfig(grid=2, attention_width=16),
        stem_stride=1,
    )


def demo_model_config(bands: int = 8) -> ModelConfig:
    """Desk-scale model for the seeded training demonstrations (8x32x32 cubes)."""
    return ModelConfig(
        encoder=EncoderConfig(bands=bands, heads=1, blocks=1),
        decoder=DecoderConfig(grid=4, attention_width=16),
        stem_stride=1,
    )


def default_model_config(bands: int = 32) -> ModelConfig:
    return ModelConfig(encoder=EncoderConfig(bands=bands))


@dataclass
class ModelOutput:
    """Everything the loss needs from one forward pass (all taped Tensors)."""

    saliency: Tensor  # (1, H, W) in (0,1), full input resolution
    block_saliency: Tensor  # (1, g, g) coarse global grid in (0,1)
    level_predictions: list  # four (1, h_i, w_i) sigmoid maps, fine to coarse
    trimaps: list  # three (3, h_i, w_i) per-pixel distributions, for level_predictions[1:]
    features: Tensor  # the encoder's output, which the restore head reads
    encoder: SpectralEncoder

    @functools.cached_property
    def restored(self) -> Tensor:  # (bands, H, W), run on first read; read it under the
        return self.encoder.restore(self.features)  # forward's tape to train the restore head

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
        shape = np.shape(cube_values)
        self.config.check_cube(shape)
        features = self.encoder(cube_values)
        pyramid = self.backbone(features)
        block_map, predictions, trimaps = self.decoder(pyramid)
        saliency = resize_to(predictions[0], shape[1], shape[2])
        return ModelOutput(saliency, block_map, predictions, trimaps, features, self.encoder)
