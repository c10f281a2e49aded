"""Spectral token attention encoder with a band-reconstruction head, which is a
call of its own: the encoder returns features only, and ``restore(features)``
runs when the model's reconstruction is first read.

The encoder takes the raw (bands, H, W) cube and groups it itself: it averages
each run of ``BAND_GROUP`` adjacent bands (a fixed, parameter-free reduction),
so attention runs over a short channel axis (tokens are pixels, attention
mixes channels, not positions). Cost per block is O(HW * C'^2) instead of the
O((HW)^2) of spatial attention, which is what makes whole-cube attention
affordable at desk scale.

Each block runs two parallel branches over the input, channel attention and a
pooled channel gate, sums them onto a residual, then applies a pointwise
feed-forward with its own residual. No normalization layers anywhere in the
encoder: the reconstruction objective keeps activations in the reflectance
range on its own, and norms would leak statistics across the channel groups
the attention heads are meant to keep separate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .exceptions import ConfigError, ShapeError
from .nn import ChannelConv1d, Conv2d, Linear, Module
from .tensor import Tensor

# Adjacent bands averaged into one before the encoder (a fixed reduction).
BAND_GROUP = 4


def eca_kernel_size(channels: int) -> int:
    """Channel-adaptive odd kernel size for the pooled gate's 1-d conv.

    Nearest odd integer to log2(C)/2 + 1/2 (ECA's gamma = 2 and b = 1),
    never below 1, ties resolved upward. Wider spectra get a wider mixing
    window.
    """
    if channels < 1:
        raise ConfigError(f"channel count must be positive, got {channels}")
    target = math.log2(channels) / 2.0 + 0.5
    below = 2 * math.floor((target - 1.0) / 2.0) + 1
    above = below + 2
    nearest = above if (above - target) <= (target - below) else below
    return max(1, nearest)


def spectral_head(q, k, v) -> Tensor:
    """One attention head over the channel axis of token matrices.

    q, k, v are (tokens, d); the affinity k^T q is (d, d) and its softmax runs
    column-wise, so every output channel is a convex mix of value channels.
    The affinity is not rescaled: the scale of q sets the softmax's sharpness.
    """
    affinity = T.matmul(T.transpose2d(k), q)
    return T.matmul(v, T.softmax(affinity, axis=0))


class SpectralSelfAttention(Module):
    """Multi-head channel attention plus a depthwise local mixing branch.

    The q/k/v/out maps are bias-free channel mixes, and a head's temperature
    is the scale of its ``to_query`` columns: k^T q is not normalized, so a
    per-head factor would be exactly a scale on them. Because attention runs
    over channels, positional structure comes only from the local branch: two
    depthwise 3x3 convolutions over the value map with a GELU between.
    """

    def __init__(self, rng: np.random.Generator, channels: int, heads: int):
        if channels % heads != 0:
            raise ConfigError(f"{heads} heads do not divide {channels} channels")
        self.heads = heads
        self.to_query = Linear(rng, channels, channels, bias=False)
        self.to_key = Linear(rng, channels, channels, bias=False)
        self.to_value = Linear(rng, channels, channels, bias=False)
        self.to_out = Linear(rng, channels, channels, bias=False)
        self.local_mix_a = Conv2d(rng, channels, channels, 3, depthwise=True)
        self.local_mix_b = Conv2d(rng, channels, channels, 3, depthwise=True)

    def __call__(self, x) -> Tensor:
        channels, height, width = x.shape
        tokens = T.transpose2d(T.reshape(x, (channels, height * width)))
        q = self.to_query(tokens)
        k = self.to_key(tokens)
        v = self.to_value(tokens)

        span = channels // self.heads
        mixed = [
            spectral_head(*(T.narrow(t, 1, j * span, span) for t in (q, k, v)))
            for j in range(self.heads)
        ]
        attended = self.to_out(T.concat(mixed, 1))

        value_map = T.reshape(T.transpose2d(v), (channels, height, width))
        local = self.local_mix_b(T.gelu(self.local_mix_a(value_map)))
        local_tokens = T.transpose2d(T.reshape(local, (channels, height * width)))

        out_tokens = T.add(attended, local_tokens)
        return T.reshape(T.transpose2d(out_tokens), (channels, height, width))


class AdaptiveSpectralGate(Module):
    """Sigmoid channel gate from global average and max pooling.

    As in CBAM's channel attention, both pooled descriptors go through one
    shared map and are summed; the map here is a short linear 1-d conv along
    the channel axis (window width from ``eca_kernel_size``), so it runs once
    on their sum, its weights carry the overall scale, and neighbouring bands
    inform each other's gates.
    """

    def __init__(self, rng: np.random.Generator, channels: int):
        self.mix = ChannelConv1d(rng, eca_kernel_size(channels))

    def __call__(self, x) -> Tensor:
        pooled = T.add(T.pool_global(x, "avg"), T.pool_global(x, "max"))
        return T.mul(x, T.sigmoid(self.mix(pooled)))


class SpectralAttentionBlock(Module):
    """Parallel attention and gate branches on a residual, then a FFN.

    y = x + attention(x) + gate(x)
    out = y + project(gelu(expand(y)))       expand doubles the channels
    """

    def __init__(self, rng: np.random.Generator, channels: int, heads: int):
        self.attention = SpectralSelfAttention(rng, channels, heads)
        self.gate = AdaptiveSpectralGate(rng, channels)
        self.expand = Conv2d(rng, channels, 2 * channels, 1)
        self.project = Conv2d(rng, 2 * channels, channels, 1)

    def __call__(self, x) -> Tensor:
        mixed = T.add(x, T.add(self.attention(x), self.gate(x)))
        return T.add(mixed, self.project(T.gelu(self.expand(mixed))))


@dataclass
class EncoderConfig:
    """Spectral encoder hyperparameters.

    ``bands`` is the cube's native band count; the encoder groups runs of
    ``BAND_GROUP`` bands and reconstructs all ``bands`` of them again through
    the restore head.
    """

    bands: int = 32
    heads: int = 2
    blocks: int = 2

    def __post_init__(self):
        if self.bands < 1 or self.heads < 1 or self.blocks < 1:
            raise ConfigError(f"encoder config fields must be positive: {self}")
        if self.blocks > 64:  # far above every preset; bounds build time and memory
            raise ConfigError(f"encoder blocks must be at most 64, got {self.blocks}")
        if self.bands > 1024:  # far above every preset; the embed kernel grows as bands²
            raise ConfigError(f"encoder bands must be at most 1024, got {self.bands}")
        if self.bands % BAND_GROUP != 0:
            raise ConfigError(
                f"band group {BAND_GROUP} does not divide {self.bands} bands"
            )
        if self.working_bands % self.heads != 0:
            raise ConfigError(
                f"{self.heads} heads do not divide {self.working_bands} grouped bands"
            )

    @property
    def working_bands(self) -> int:
        return self.bands // BAND_GROUP


class SpectralEncoder(Module):
    """Band grouping, embedding conv, attention blocks, a band-restoration conv.

    Takes the raw (bands, H, W) cube as a plain array and returns its features,
    at the grouped band count, for the saliency network. ``restore(features)``
    recovers the native band count, scored against the original cube during
    training; a forward pass that only needs saliency never runs it.
    """

    def __init__(self, rng: np.random.Generator, config: EncoderConfig):
        width = config.working_bands
        self.config = config
        self.embed = Conv2d(rng, width, width, 3)
        self.blocks = [
            SpectralAttentionBlock(rng, width, config.heads)
            for _ in range(config.blocks)
        ]
        self.restore = Conv2d(rng, width, config.bands, 3)

    def __call__(self, cube_values):
        cube_values = T.as_floating(cube_values)  # a float32 cube runs the model at float32
        if cube_values.ndim != 3 or cube_values.shape[0] != self.config.bands:
            raise ShapeError(
                f"encoder expects a ({self.config.bands}, H, W) cube, got {cube_values.shape}"
            )
        bands, height, width = cube_values.shape
        grouped = cube_values.reshape(bands // BAND_GROUP, BAND_GROUP, height, width).mean(axis=1)
        hidden = self.embed(Tensor(grouped))
        for block in self.blocks:
            hidden = block(hidden)
        return hidden
