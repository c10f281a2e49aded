"""Hand-checked values and structural identities for the hybrid objective."""

import math

import numpy as np
import pytest

from specsal.exceptions import ShapeError
from specsal.losses import (
    PROB_FLOOR,
    LossReport,
    binary_cross_entropy,
    compute_losses,
    dense_saliency_loss,
    mean_absolute_error,
    soft_iou_loss,
)
from specsal.model import SaliencyModel, tiny_model_config
from specsal.tensor import Tensor


def test_mae_identical_tensors_is_zero():
    values = np.linspace(0.0, 1.0, 12).reshape(3, 2, 2)
    assert mean_absolute_error(Tensor(values), values).item() == 0.0


def test_mae_constant_offset():
    base = np.full((2, 4, 4), 0.25)
    assert mean_absolute_error(Tensor(base + 0.5), base).item() == pytest.approx(0.5, abs=1e-15)


def test_mae_doubled_constant_input():
    # restored = 2 * original with original all 0.3: every residual is 0.3
    original = np.full((4, 3, 3), 0.3)
    got = mean_absolute_error(Tensor(2.0 * original), original).item()
    assert got == pytest.approx(0.3, abs=1e-15)


def test_mae_shape_mismatch():
    with pytest.raises(ShapeError):
        mean_absolute_error(Tensor(np.zeros((2, 3))), np.zeros((3, 2)))


def test_bce_at_half_is_ln2():
    # p = 0.5 scores ln 2 regardless of the target's composition
    probs = Tensor(np.full((1, 4, 4), 0.5))
    for target in (np.zeros((4, 4)), np.ones((4, 4)), (np.arange(16).reshape(4, 4) % 2)):
        got = binary_cross_entropy(probs, target.astype(float)).item()
        assert got == pytest.approx(math.log(2.0), abs=1e-12)


def test_bce_perfect_prediction_hits_clamp_floor():
    target = np.array([[1.0, 0.0], [0.0, 1.0]])
    got = binary_cross_entropy(Tensor(target.copy()), target).item()
    expected = -math.log(1.0 - PROB_FLOOR)
    assert got == pytest.approx(expected, rel=1e-9)
    assert got < 1e-6


def test_bce_complement_symmetry():
    rng = np.random.default_rng(11)
    probs = rng.uniform(0.05, 0.95, size=(1, 5, 5))
    target = (rng.random((5, 5)) > 0.5).astype(float)
    direct = binary_cross_entropy(Tensor(probs), target).item()
    flipped = binary_cross_entropy(Tensor(1.0 - probs), 1.0 - target).item()
    assert abs(direct - flipped) < 1e-12


def test_bce_nonnegative_on_random_pairs():
    rng = np.random.default_rng(3)
    for _ in range(20):
        probs = rng.random((1, 3, 3))
        target = (rng.random((3, 3)) > 0.5).astype(float)
        assert binary_cross_entropy(Tensor(probs), target).item() >= 0.0


def test_soft_iou_perfect_binary_fit_is_zero():
    target = np.array([[1.0, 1.0], [0.0, 1.0]])
    assert soft_iou_loss(Tensor(target.copy()), target).item() == 0.0


def test_soft_iou_hand_values():
    # pred covers one of two target pixels: inter=1, union=2, loss = 1 - 2/3
    pred = np.array([[1.0, 0.0], [0.0, 0.0]])
    target = np.array([[1.0, 1.0], [0.0, 0.0]])
    got = soft_iou_loss(Tensor(pred), target).item()
    assert got == pytest.approx(1.0 - 2.0 / 3.0, abs=1e-15)

    # uniform 0.5 against all-ones: inter=2, union=4, loss = 1 - 3/5
    got = soft_iou_loss(Tensor(np.full((2, 2), 0.5)), np.ones((2, 2))).item()
    assert got == pytest.approx(0.4, abs=1e-15)


def test_soft_iou_bounded_below_by_zero():
    rng = np.random.default_rng(5)
    for _ in range(20):
        pred = rng.random((4, 4))
        target = (rng.random((4, 4)) > 0.5).astype(float)
        assert soft_iou_loss(Tensor(pred), target).item() >= 0.0


def test_dense_loss_total_is_the_sum_of_level_terms():
    rng = np.random.default_rng(9)
    levels = [Tensor(rng.uniform(0.1, 0.9, size=(1, s, s))) for s in (8, 4, 2, 1)]
    mask = (rng.random((8, 8)) > 0.5).astype(float)
    total = dense_saliency_loss(levels, mask)
    terms = [dense_saliency_loss([level], mask).item() for level in levels]
    assert total.item() == pytest.approx(sum(terms), rel=1e-12)


def test_dense_loss_uniform_half_bce_component():
    # each level at a uniform 0.5 contributes ln 2 + IoU beyond the BCE part
    mask = np.zeros((4, 4))
    mask[:2, :2] = 1.0
    levels = [Tensor(np.full((1, s, s), 0.5)) for s in (4, 2)]
    terms = [dense_saliency_loss([level], mask).item() for level in levels]
    iou = soft_iou_loss(Tensor(np.full((4, 4), 0.5)), mask).item()
    for term in terms:
        assert term == pytest.approx(math.log(2.0) + iou, abs=1e-12)


def test_loss_report_rejects_broken_decomposition():
    with pytest.raises(ShapeError, match="decomposition"):
        LossReport(reconstruction=0.5, saliency=0.25, global_guidance=0.25, total=1.1)


def test_compute_losses_decomposition_and_graph_agreement():
    config = tiny_model_config()
    model = SaliencyModel(np.random.default_rng(0), config)
    rng = np.random.default_rng(1)
    cube = rng.random((config.encoder.bands, 8, 8))
    mask = (rng.random((8, 8)) > 0.6).astype(float)
    total, report = compute_losses(model(cube), cube, mask)
    assert total.item() == report.total
    assert report.total == pytest.approx(
        report.reconstruction + report.saliency + report.global_guidance, abs=1e-12
    )
    assert report.reconstruction >= 0.0
    assert report.saliency >= 0.0
    assert report.global_guidance >= 0.0


def test_compute_losses_rejects_wrong_mask_shape():
    config = tiny_model_config()
    model = SaliencyModel(np.random.default_rng(0), config)
    cube = np.random.default_rng(1).random((config.encoder.bands, 8, 8))
    with pytest.raises(ShapeError, match="mask"):
        compute_losses(model(cube), cube, np.zeros((4, 4)))
