"""Multi-branch backbone and the globally guided three-way decoder.

The backbone keeps four parallel branches alive at four resolutions (the
high-resolution-network pattern, shrunk to desk scale) so the finest branch is
never downsampled after creation. The decoder then walks the pyramid bottom-up:
each level splits its channels into a context half (wide factorized convs) and
a detail half (joined with the next-deeper level), gets modulated by a coarse
global saliency grid from a small token-attention head, borrows the deeper
level's uncertainty band, and emits a sigmoid saliency map. Each level but the
finest also emits a three-way background/object/uncertain soft labeling per
pixel, whose uncertain channel the next finer level borrows; the finest level
has no finer neighbour, so it emits the saliency map alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .exceptions import ConfigError, ShapeError
from .nn import Conv2d, ConvNorm, ConvNormRelu, Linear, Module
from .tensor import Tensor


class ResidualBlock(Module):
    """Two 3x3 convs with a skip: relu(norm(conv(relu(norm(conv(x))))) + x)."""

    def __init__(self, rng, channels):
        self.first = ConvNormRelu(rng, channels, channels, 3)
        self.second = ConvNorm(rng, channels, channels, 3)

    def __call__(self, x) -> Tensor:
        return T.relu(T.add(self.second(self.first(x)), x))


def resize_to(x, height: int, width: int) -> Tensor:
    """Integer-factor resize: nearest up, average down, identity otherwise."""
    _, h, w = x.shape
    if (h, w) == (height, width):
        return x
    if height % h == 0 and width % w == 0 and height // h == width // w:
        return T.upsample_nearest(x, height // h)
    if h % height == 0 and w % width == 0 and h // height == w // width:
        return T.downsample_avg(x, h // height)
    raise ShapeError(f"no integer factor resizes ({h},{w}) to ({height},{width})")


# Channels of the four branches, finest first; even, so the decoder can halve them.
BRANCH_WIDTHS = (8, 16, 32, 64)
UNCERTAIN = 2  # a labeling's channels: 0 background, 1 object, 2 uncertain


class CrossResolutionFusion(Module):
    """One full fusion stage: every branch sums contributions from all four.

    Each (target, source) pair gets its own 1x1 conv + norm; sources are then
    resized to the target resolution, summed, and rectified.
    """

    def __init__(self, rng):
        w = BRANCH_WIDTHS
        # flat [target * 4 + source] so the module walker sees every child
        self.maps = [
            ConvNorm(rng, w[source], w[target], 1)
            for target in range(4)
            for source in range(4)
        ]

    def __call__(self, feats):
        fused = []
        for target in range(4):
            _, h, w = feats[target].shape
            total = None
            for source in range(4):
                y = resize_to(self.maps[target * 4 + source](feats[source]), h, w)
                total = y if total is None else T.add(total, y)
            fused.append(T.relu(total))
        return fused


class HighResBackbone(Module):
    """Stem, three stride-2 descents, one residual block per branch, fusion.

    The fusion weights are drawn from the rng last.
    """

    def __init__(self, rng, in_channels: int, stem_stride: int):
        w = BRANCH_WIDTHS
        self.stem = ConvNormRelu(rng, in_channels, w[0], 3, stride=stem_stride)
        self.descend = [
            ConvNormRelu(rng, w[i], w[i + 1], 3, stride=2) for i in range(3)
        ]
        self.stages = [ResidualBlock(rng, width) for width in w]
        self.fusion = CrossResolutionFusion(rng)

    def branches(self, x):
        """The four branch features before cross-resolution fusion."""
        feats = [self.stem(x)]
        for down in self.descend:
            feats.append(down(feats[-1]))
        return [stage(feat) for stage, feat in zip(self.stages, feats)]

    def __call__(self, x):
        return self.fusion(self.branches(x))


class CrossScaleFusion(Module):
    """Split-transform-merge mixing of one level with the next-deeper one.

    The level's channels split in half. The context half goes through wide
    factorized 7x1/1x7 convolutions. The detail half goes through 1x1 + two
    3x3 convs and is joined with the upsampled detail half of the deeper
    level. A 1x1 merge brings the concatenation back to the level width.
    """

    def __init__(self, rng, channels: int, deeper_channels=None):
        half = channels // 2
        self.channels = channels
        self.deeper_channels = deeper_channels
        self.wide_row_first = ConvNormRelu(rng, half, half, (7, 1))
        self.wide_row_second = ConvNorm(rng, half, half, (1, 7))
        self.wide_col_first = ConvNormRelu(rng, half, half, (1, 7))
        self.wide_col_second = ConvNorm(rng, half, half, (7, 1))
        self.detail_in = ConvNormRelu(rng, half, half, 1)
        self.detail_mid = ConvNormRelu(rng, half, half, 3)
        self.detail_out = ConvNorm(rng, half, half, 3)
        merged = channels + (deeper_channels // 2 if deeper_channels else 0)
        self.merge = ConvNormRelu(rng, merged, channels, 1)

    def _wide(self, x):
        rows = self.wide_row_second(self.wide_row_first(x))
        cols = self.wide_col_second(self.wide_col_first(x))
        return T.relu(T.add(rows, cols))

    def __call__(self, x, deeper=None) -> Tensor:
        if (deeper is None) != (self.deeper_channels is None):
            raise ShapeError("deeper feature presence must match construction")
        half = self.channels // 2
        context_in = T.narrow(x, 0, 0, half)
        detail_in = T.narrow(x, 0, half, half)

        context = self._wide(context_in)
        detail = self.detail_out(self.detail_mid(self.detail_in(detail_in)))
        if deeper is not None:
            deep_half = self.deeper_channels // 2
            deep_detail = T.narrow(deeper, 0, deep_half, deep_half)
            detail = T.concat([detail, T.upsample_nearest(deep_detail, 2)], 0)
        return self.merge(T.concat([context, detail], 0))


def block_ground_truth(mask: np.ndarray, grid: int) -> np.ndarray:
    """Coarse g x g target: a cell is 1 iff any of its pixels is foreground."""
    h, w = mask.shape
    if grid < 1 or h % grid or w % grid:
        raise ShapeError(f"grid {grid} does not divide mask {h}x{w}")
    blocks = np.asarray(mask).reshape(grid, h // grid, grid, w // grid)
    return blocks.max(axis=(1, 3)).astype(np.uint8)


@dataclass
class DecoderConfig:
    """Coarse grid size for global guidance and the token attention width."""

    grid: int = 4
    attention_width: int = 32

    def __post_init__(self):
        if self.grid < 1 or self.attention_width < 1:
            raise ConfigError(f"bad decoder config: {self}")
        if self.attention_width > 1024:  # far above every preset; bounds memory
            raise ConfigError(
                f"decoder attention width must be at most 1024, got {self.attention_width}"
            )
        if self.grid > 32:  # presets use 2 and 4; the head attends over grid^4 pairs
            raise ConfigError(f"decoder grid must be at most 32, got {self.grid}")


class GlobalSaliencyHead(Module):
    """Coarse saliency grid from all four levels via token self-attention.

    Every level is resized to grid x grid as pyramid pooling does (average
    down when finer, nearest up when coarser; ``check_cube`` admits only grids
    with an integer factor to every level), adapted by a width-preserving 3x3
    conv + norm + relu, and flattened to g^2 tokens, so the head's size does
    not depend on the input's. Tokens are projected to the attention width,
    mixed by one softmax(QK^T/sqrt(d))V layer with a residual (no positional
    information, so the layer is token-permutation equivariant), refined by a
    two-layer MLP, and squashed to a (1, g, g) map in (0,1).
    """

    def __init__(self, rng, grid: int, attention_width: int):
        self.grid = grid
        self.attention_width = attention_width
        self.adapt = [ConvNormRelu(rng, c, c, 3) for c in BRANCH_WIDTHS]
        self.project = Linear(rng, sum(BRANCH_WIDTHS), attention_width)
        self.to_query = Linear(rng, attention_width, attention_width)
        self.to_key = Linear(rng, attention_width, attention_width)
        self.to_value = Linear(rng, attention_width, attention_width)
        self.refine_hidden = Linear(rng, attention_width, attention_width)
        self.refine_out = Linear(rng, attention_width, 1)

    def attention_weights(self, tokens) -> Tensor:
        """Row-stochastic (n, n) mixing weights for the given tokens."""
        q = self.to_query(tokens)
        k = self.to_key(tokens)
        logits = T.mul(1.0 / math.sqrt(self.attention_width), T.matmul(q, T.transpose2d(k)))
        return T.softmax(logits, axis=1)

    def attend(self, tokens) -> Tensor:
        """One self-attention layer over (n, width) tokens, with residual."""
        weights = self.attention_weights(tokens)
        return T.add(T.matmul(weights, self.to_value(tokens)), tokens)

    def __call__(self, feats) -> Tensor:
        planes = [
            adapt(resize_to(feat, self.grid, self.grid))
            for feat, adapt in zip(feats, self.adapt)
        ]
        stack = T.concat(planes, 0)
        cells = self.grid * self.grid
        tokens = T.transpose2d(T.reshape(stack, (stack.shape[0], cells)))
        attended = self.attend(self.project(tokens))
        hidden = T.gelu(self.refine_hidden(attended))
        scores = T.sigmoid(self.refine_out(hidden))
        return T.reshape(T.transpose2d(scores), (1, self.grid, self.grid))


class SaliencyDecoder(Module):
    """Bottom-up hierarchical decoding with global and uncertainty guidance.

    G = global_head(F_1..F_4), with every level resized to the grid. For
    i = 4..1: D_i = cross_scale(F_i, F_{i+1}); D_i += D_i * resize(G);
    D_i *= 1 + resize(U_{i+1}); P_i = sigmoid(score_i(D_i)). For i > 1 also
    T_i = softmax(classify_i(D_i * P_i + D_i)) over background, object and
    uncertain (norm-free), and U_i is T_i's uncertain channel. The deepest
    level has no deeper neighbour and skips both borrowings; the finest has no
    finer neighbour to hand U_1 to, so it has no classify conv. No module's
    shape depends on the level sizes.
    """

    def __init__(self, rng, config: DecoderConfig):
        w = BRANCH_WIDTHS
        self.merge = [
            CrossScaleFusion(rng, w[i], w[i + 1] if i < 3 else None)
            for i in range(4)
        ]
        self.global_head = GlobalSaliencyHead(rng, config.grid, config.attention_width)
        self.score = [Conv2d(rng, width, 1, 3) for width in w]
        self.classify = [Conv2d(rng, width, 3, 3) for width in w[1:]]  # [i - 1] labels score[i]'s level

    def __call__(self, feats):
        block_map = self.global_head(feats)
        predictions = [None] * 4
        trimaps = [None] * 3
        uncertain = None
        for i in (3, 2, 1, 0):
            deeper = feats[i + 1] if i < 3 else None
            d = self.merge[i](feats[i], deeper)
            _, h, w = d.shape
            d = T.add(d, T.mul(d, resize_to(block_map, h, w)))
            if uncertain is not None:
                d = T.mul(d, T.add(1.0, resize_to(uncertain, h, w)))
            p = predictions[i] = T.sigmoid(self.score[i](d))
            if i:
                trimaps[i - 1] = T.softmax(self.classify[i - 1](T.add(T.mul(d, p), d)), axis=0)
                uncertain = T.narrow(trimaps[i - 1], 0, UNCERTAIN, 1)
        return block_map, predictions, trimaps
