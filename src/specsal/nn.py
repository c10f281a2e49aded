"""Parameter-owning building blocks on top of the gradient tape.

Weights draw from uniform(-sqrt(1/fan_in), +sqrt(1/fan_in)) with a caller-owned
numpy Generator, so a model built twice from the same seed is bit-identical.
Without a Generator (rng=None) weights start at zero, which skips the draws for
a model whose parameters a checkpoint is about to overwrite.
Biases and norm offsets start at zero, norm gains and learnable scales at one,
each stored in the shape its op reads: conv biases and norm affines are (C,1,1).
"""

from __future__ import annotations

import math

import numpy as np

from . import tensor as T
from .exceptions import ShapeError
from .tensor import Parameter, Tensor


def uniform_init(rng: np.random.Generator | None, shape, fan_in: int) -> np.ndarray:
    if rng is None:
        return np.zeros(shape)
    bound = math.sqrt(1.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape)


class Module:
    """Minimal container: children are found by walking attributes in order."""

    def _children(self):
        for name, value in vars(self).items():
            if isinstance(value, (Parameter, Module)):
                yield name, value
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, (Parameter, Module)):
                        yield f"{name}.{i}", item

    def named_parameters(self, prefix: str = ""):
        """(dotted attribute path, Parameter) pairs: the only place a parameter is named."""
        for name, child in self._children():
            path = f"{prefix}.{name}" if prefix else name
            if isinstance(child, Parameter):
                yield path, child
            else:
                yield from child.named_parameters(path)

    def parameters(self):
        return [p for _, p in self.named_parameters()]


class Conv2d(Module):
    def __init__(
        self,
        rng: np.random.Generator,
        in_channels: int,
        out_channels: int,
        kernel_size,
        stride: int = 1,
        depthwise: bool = False,
        bias: bool = True,
    ):
        kh, kw = (kernel_size, kernel_size) if isinstance(kernel_size, int) else kernel_size
        if depthwise and out_channels != in_channels:
            raise ShapeError("depthwise conv needs out_channels == in_channels")
        shape = (out_channels, 1 if depthwise else in_channels, kh, kw)
        fan_in = shape[1] * kh * kw
        self.stride = stride
        self.depthwise = depthwise
        self.weight = Parameter(uniform_init(rng, shape, fan_in))
        self.bias = Parameter(np.zeros((out_channels, 1, 1))) if bias else None

    def __call__(self, x) -> Tensor:
        y = T.conv2d(x, self.weight, self.stride, depthwise=self.depthwise)
        if self.bias is not None:
            y = T.add(y, self.bias)
        return y


class Linear(Module):
    """Dense map on token matrices: (n, in) @ (in, out) + bias."""

    def __init__(self, rng, in_features: int, out_features: int, bias: bool = True):
        self.weight = Parameter(uniform_init(rng, (in_features, out_features), in_features))
        self.bias = Parameter(np.zeros(out_features)) if bias else None

    def __call__(self, x) -> Tensor:
        y = T.matmul(x, self.weight)
        if self.bias is not None:
            y = T.add(y, self.bias)
        return y


class ChannelConv1d(Module):
    """Odd-length 1-d conv over the channel axis of a pooled (C,1,1) map."""

    def __init__(self, rng, kernel_size: int):
        if kernel_size % 2 == 0:
            raise ShapeError(f"channel conv kernel must be odd, got {kernel_size}")
        self.weight = Parameter(uniform_init(rng, (kernel_size,), kernel_size))

    def __call__(self, x) -> Tensor:
        return T.channel_conv1d(x, self.weight)


class ChannelNorm(Module):
    """Per-channel spatial standardization with learnable affine."""

    def __init__(self, channels: int):
        self.gain = Parameter(np.ones((channels, 1, 1)))
        self.bias = Parameter(np.zeros((channels, 1, 1)))

    def __call__(self, x) -> Tensor:
        return T.channel_norm(x, self.gain, self.bias)


class ConvNorm(Module):
    """conv -> channel_norm, for pre-sum branch outputs.

    The conv has no bias: channel_norm subtracts each channel's mean, which
    cancels any per-channel constant added in front of it.
    """

    def __init__(self, rng, in_channels, out_channels, kernel_size, stride=1):
        self.conv = Conv2d(rng, in_channels, out_channels, kernel_size, stride, bias=False)
        self.norm = ChannelNorm(out_channels)

    def __call__(self, x) -> Tensor:
        return self.norm(self.conv(x))


class ConvNormRelu(ConvNorm):
    """conv -> channel_norm -> relu, the default unit in backbone/decoder paths."""

    def __call__(self, x) -> Tensor:
        return T.relu(super().__call__(x))
