"""Hybrid objective: band reconstruction, dense saliency supervision, and
coarse global-grid supervision, summed without weights into one total.

All loss functions build taped graphs, so calling them under an active Tape
makes the total differentiable end to end. Reported numbers come from the
same graph, which keeps the decomposition identity exact: the total really is
the float sum of the three parts in evaluation order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .exceptions import ShapeError
from .saliency_net import block_ground_truth, resize_to
from .tensor import Tensor

# Probabilities entering a log are clamped here; keeps BCE finite on
# saturated sigmoids at the cost of a ~1e-7 floor on the achievable loss.
PROB_FLOOR = 1e-7

IOU_SMOOTHING = 1.0


def _as_target(pred, target) -> np.ndarray:
    """Validate and reshape a numpy target to the prediction's shape."""
    target = np.asarray(target, dtype=float)
    if target.shape == pred.shape:
        return target
    if (1,) + target.shape == pred.shape:
        return target[None]
    raise ShapeError(f"target shape {target.shape} does not match prediction {pred.shape}")


def mean_absolute_error(pred, target) -> Tensor:
    target = _as_target(pred, target)
    return T.mean_over(T.absolute(T.sub(pred, Tensor(target))))


def binary_cross_entropy(probs, target) -> Tensor:
    target = _as_target(probs, target)
    p = T.clip(probs, PROB_FLOOR, 1.0 - PROB_FLOOR)
    positive = T.mul(Tensor(target), T.log(p))
    negative = T.mul(Tensor(1.0 - target), T.log(T.sub(1.0, p)))
    return T.neg(T.mean_over(T.add(positive, negative)))


def soft_iou_loss(probs, target) -> Tensor:
    """1 - (intersection + 1)/(union + 1) on soft predictions."""
    target = _as_target(probs, target)
    t = Tensor(target)
    intersection = T.sum_over(T.mul(probs, t))
    union = T.sub(T.add(T.sum_over(probs), T.sum_over(t)), intersection)
    ratio = T.div(T.add(intersection, IOU_SMOOTHING), T.add(union, IOU_SMOOTHING))
    return T.sub(1.0, ratio)


def dense_saliency_loss(level_predictions, mask):
    """Sum of BCE+IoU over levels, each upsampled to mask size (taped)."""
    h, w = mask.shape
    total = None
    for pred in level_predictions:
        pred = resize_to(pred, h, w)
        term = T.add(binary_cross_entropy(pred, mask), soft_iou_loss(pred, mask))
        total = term if total is None else T.add(total, term)
    return total


@dataclass
class LossReport:
    """Float snapshot of one loss evaluation (the graph lives on the tape)."""

    reconstruction: float  # restored-cube mean absolute error
    saliency: float  # dense multi-level BCE+IoU
    global_guidance: float  # coarse-grid BCE
    total: float

    def __post_init__(self):
        parts = self.reconstruction + self.saliency + self.global_guidance
        if abs(parts - self.total) > 1e-12:
            raise ShapeError(
                f"loss decomposition broken: {parts} != {self.total}"
            )


def compute_losses(output, cube_values, mask):
    """Score one forward pass against its cube and mask.

    Returns (taped scalar total, LossReport). ``mask`` is the full-resolution
    binary ground truth; the coarse-grid target is derived from it at the
    model's configured grid.
    """
    mask = np.asarray(mask)
    if mask.shape != output.saliency.shape[1:]:
        raise ShapeError(
            f"mask {mask.shape} does not match saliency {output.saliency.shape}"
        )
    recon = mean_absolute_error(output.restored, np.asarray(cube_values, dtype=float))
    dense = dense_saliency_loss(output.level_predictions, mask)
    grid = output.block_saliency.shape[1]
    coarse_target = block_ground_truth(mask, grid)
    coarse = binary_cross_entropy(output.block_saliency, coarse_target)
    total = T.add(T.add(recon, dense), coarse)
    report = LossReport(
        reconstruction=recon.item(),
        saliency=dense.item(),
        global_guidance=coarse.item(),
        total=total.item(),
    )
    return total, report
