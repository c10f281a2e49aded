"""Optimizer arithmetic, loop determinism, and the gradient audit."""

import io
import json
import tracemalloc

import numpy as np
import pytest

from specsal import tensor as T
from specsal.exceptions import ConfigError, NumericError
from specsal.losses import compute_losses
from specsal.model import SaliencyModel, demo_model_config, tiny_model_config
from specsal.nn import Linear, Module
from specsal.scenes import synth_scene, training_demo_scene_spec
from specsal.spectral_attention import SpectralEncoder
from specsal.tensor import Parameter, Tensor
from specsal.training import (
    AdamOptimizer,
    TrainConfig,
    failing_groups,
    fit_reconstruction,
    grad_check_suite,
    jitter_parameters,
    parameter_group,
    train_loop,
    train_step,
)


def _reference_adam_two_steps(p0, g1, g2, lr, b1, b2, eps):
    """Textbook bias-corrected update written out longhand."""
    m = (1 - b1) * g1
    v = (1 - b2) * g1 * g1
    p1 = p0 - lr * (m / (1 - b1)) / (np.sqrt(v / (1 - b2)) + eps)
    m = b1 * m + (1 - b1) * g2
    v = b2 * v + (1 - b2) * g2 * g2
    p2 = p1 - lr * (m / (1 - b1**2)) / (np.sqrt(v / (1 - b2**2)) + eps)
    return p1, p2


def test_adam_matches_hand_computed_updates():
    p0 = np.array([1.0, -2.0, 0.5])
    g1 = np.array([0.3, -0.1, 2.0])
    g2 = np.array([-1.0, 0.4, 0.0])
    lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
    param = Parameter(p0.copy())
    opt = AdamOptimizer([param], lr)

    expected1, expected2 = _reference_adam_two_steps(p0, g1, g2, lr, b1, b2, eps)
    param.grad[...] = g1
    opt.step()
    np.testing.assert_allclose(param.data, expected1, rtol=0, atol=1e-15)
    param.grad[...] = g2
    opt.step()
    np.testing.assert_allclose(param.data, expected2, rtol=0, atol=1e-15)


def test_adam_first_step_moves_by_signed_learning_rate():
    # bias correction makes the first update lr * g/(|g| + eps), almost lr * sign(g)
    param = Parameter(np.array([3.0, -0.2, 1e-4]))
    opt = AdamOptimizer([param], learning_rate=0.05)
    before = param.data.copy()
    param.grad[...] = np.array([2.0, -0.001, 7.0])
    opt.step()
    delta = param.data - before
    np.testing.assert_allclose(delta, [-0.05, 0.05, -0.05], rtol=1e-4)


def test_train_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(steps=0)
    for learning_rate in (0.0, -1e-3, float("nan"), float("inf")):
        with pytest.raises(ConfigError, match="learning rate"):
            TrainConfig(learning_rate=learning_rate)


def _demo_example(seed=4):
    cube, mask = synth_scene(training_demo_scene_spec(height=8, width=8, bands=8), seed)
    return cube.data, mask.astype(float)


def test_train_step_is_deterministic():
    cube, mask = _demo_example()

    def run():
        model = SaliencyModel(np.random.default_rng(2), tiny_model_config())
        opt = AdamOptimizer(model.parameters())
        reports = [train_step(model, cube, mask, opt) for _ in range(3)]
        state = np.concatenate([p.data.ravel() for p in model.parameters()])
        return reports, state

    first_reports, first_state = run()
    second_reports, second_state = run()
    assert [r.total for r in first_reports] == [r.total for r in second_reports]
    np.testing.assert_array_equal(first_state, second_state)


def test_train_step_aborts_on_non_finite_loss_with_op_name():
    cube, mask = _demo_example()
    model = SaliencyModel(np.random.default_rng(2), tiny_model_config())
    opt = AdamOptimizer(model.parameters())
    poisoned = model.parameters()[0]
    poisoned.data.flat[0] = np.nan
    with pytest.raises(NumericError, match="op '"):
        train_step(model, cube, mask, opt)


def test_fit_reconstruction_aborts_on_non_finite_loss_with_op_name():
    cube, _ = _demo_example()
    encoder = SpectralEncoder(np.random.default_rng(0), tiny_model_config().encoder)
    encoder.parameters()[0].data.flat[0] = np.nan
    with pytest.raises(NumericError, match=r"loss is nan at reconstruction step 1; first "
                       r"non-finite tensor came from op '\w+' \(tape record \d+, shape"):
        fit_reconstruction(encoder, cube, steps=2)


def test_backward_returns_no_gradient_for_constant_operands():
    # an operand with no node (not a Parameter, not a kept record's output)
    # gets None from its op's backward, so nothing computes a dropped gradient
    cube, mask = synth_scene(training_demo_scene_spec(), 4)
    model = SaliencyModel(np.random.default_rng(2), demo_model_config())
    with T.Tape() as tape:
        total, _ = compute_losses(model(cube.data), cube.data, mask.astype(float))
    replayed = []

    def checked(inputs, back):
        def replay(g):
            grads = back(g)
            replayed.append(([n is None for n in inputs], [gi is None for gi in grads]))
            return grads

        return replay

    tape._records = [(out, inputs, checked(inputs, back)) for out, inputs, back in tape._records]
    tape.backward(total)
    assert len(replayed) > 1000
    assert all(constant == dropped for constant, dropped in replayed)
    assert sum(sum(constant) for constant, _ in replayed) > 0  # constants do occur


def test_demo_train_step_peak_memory():
    # records keep only what backward reads: 8.0 MB on numpy 2.4, against
    # 19.0 MB when every record kept its op's inputs and output
    cube, mask = synth_scene(training_demo_scene_spec(), 4)
    model = SaliencyModel(np.random.default_rng(2), demo_model_config())
    opt = AdamOptimizer(model.parameters())
    train_step(model, cube.data, mask.astype(float), opt)  # allocates gradients and moments
    tracemalloc.start()
    try:
        train_step(model, cube.data, mask.astype(float), opt)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12e6


def test_gradient_finiteness_check_names_parameter(monkeypatch):
    # a finite loss whose backward pass manufactures an inf is hard to build
    # from real layers, so the loss gains a planted op on one parameter
    cube, mask = _demo_example()
    model = SaliencyModel(np.random.default_rng(2), tiny_model_config())
    name, target = list(model.parameters_by_name.items())[3]

    def infinite_slope(a):
        # a constant 0 whose backward claims an infinite slope
        out = Tensor(0.0)
        T._push("infinite_slope", out, (a,), lambda g: (np.full(a.shape, np.inf),))
        return out

    def planted_losses(output, cube_values, mask):
        total, report = compute_losses(output, cube_values, mask)
        return T.add(total, infinite_slope(target)), report

    monkeypatch.setattr("specsal.training.compute_losses", planted_losses)
    with pytest.raises(NumericError, match=f"non-finite gradient for {name} at update 1$"):
        train_step(model, cube, mask, AdamOptimizer(model.parameters()))


def test_train_loop_writes_fixed_jsonl_keys():
    cube, mask = _demo_example()
    model = SaliencyModel(np.random.default_rng(2), tiny_model_config())
    stream = io.StringIO()
    reports = train_loop(model, [(cube, mask)], TrainConfig(steps=3), log_stream=stream)
    lines = stream.getvalue().splitlines()
    assert len(lines) == 3
    for step, (line, report) in enumerate(zip(lines, reports), start=1):
        doc = json.loads(line)
        assert set(doc) == {"step", "L_s", "L_sod", "L_g", "L_m"}
        assert doc["step"] == step
        assert doc["L_m"] == report.total
        assert doc["L_s"] == report.reconstruction
        assert doc["L_sod"] == report.saliency
        assert doc["L_g"] == report.global_guidance


def test_train_loop_requires_examples():
    model = SaliencyModel(np.random.default_rng(2), tiny_model_config())
    with pytest.raises(ConfigError, match="example"):
        train_loop(model, [], TrainConfig(steps=1))


def test_fit_reconstruction_reduces_error():
    encoder = SpectralEncoder(np.random.default_rng(0), tiny_model_config().encoder)
    cube, _ = synth_scene(training_demo_scene_spec(height=8, width=8, bands=8), 4)
    history = fit_reconstruction(encoder, cube.data, steps=60)
    assert len(history) == 60
    assert history[-1] < 0.5 * history[0]


@pytest.fixture(scope="module")
def seeded_demo_run():
    """The seeded 100-step demo run: (cube values, trained model, loss reports)."""
    cube, mask = synth_scene(training_demo_scene_spec(), 0)
    model = SaliencyModel(np.random.default_rng(0), demo_model_config())
    reports = train_loop(
        model, [(cube.data, mask.astype(float))], TrainConfig(seed=0, steps=100)
    )
    return cube.data, model, reports


def test_frozen_attention_scalars_train_worse_than_free(seeded_demo_run):
    # the learnable attention temperatures and pooling gains must matter:
    # freezing them on the seeded demo scene leaves a strictly higher final loss
    cube, mask = synth_scene(training_demo_scene_spec(), 0)
    model = SaliencyModel(np.random.default_rng(0), demo_model_config())
    free = [
        p for name, p in model.named_parameters()
        if parameter_group(name) not in ("attention_scales", "pool_gains")
    ]
    optimizer = AdamOptimizer(free, TrainConfig().learning_rate)
    for _ in range(100):
        report = train_step(model, cube.data, mask.astype(float), optimizer)
    _, _, free_reports = seeded_demo_run
    assert free_reports[-1].total < report.total


def _spearman(a, b):
    """Rank correlation with midrank ties, written out independently."""

    def ranks(values):
        order = np.argsort(values, kind="stable")
        out = np.empty(len(values))
        ordered = values[order]
        starts = np.concatenate(([0], np.flatnonzero(np.diff(ordered)) + 1, [len(values)]))
        for start, end in zip(starts[:-1], starts[1:]):
            out[order[start:end]] = 0.5 * (start + 1 + end)
        return out

    ra, rb = ranks(np.asarray(a, dtype=float)), ranks(np.asarray(b, dtype=float))
    ra -= ra.mean()
    rb -= rb.mean()
    return float((ra * rb).sum() / np.sqrt((ra * ra).sum() * (rb * rb).sum()))


@pytest.mark.xfail(
    reason="nothing in the loss supervises the ternary maps, so the uncertain "
    "channel's meaning is emergent; after the seeded demo training run the "
    "correlation is reliably positive only at the deepest level and reliably "
    "negative at the middle levels (stable across 24 seed pairs and 6x longer "
    "training)",
    strict=True,
)
def test_trained_uncertainty_tracks_prediction_ambiguity(seeded_demo_run):
    # hoped-for property: pixels whose saliency prediction sits near 0.5
    # carry more ternary-map uncertain mass, at every decoder level
    cube, model, _ = seeded_demo_run
    output = model(cube)
    for prediction, trimap in zip(output.level_predictions, output.trimaps):
        closeness = (0.5 - np.abs(prediction.data[0] - 0.5)).ravel()
        uncertain_mass = trimap.data[2].ravel()
        assert _spearman(closeness, uncertain_mass) >= 0.0


# ---------------------------------------------------------------------------
# gradient audit


def test_gradcheck_linear_submodel_is_exact():
    class TwoLinear(Module):
        def __init__(self, rng):
            self.first = Linear(rng, 3, 4)
            self.second = Linear(rng, 4, 2)

        def __call__(self, x):
            return self.second(self.first(x))

    model = TwoLinear(np.random.default_rng(0))
    x = np.random.default_rng(1).random((5, 3))

    def loss_builder():
        return T.mean_over(model(Tensor(x)))

    reports = grad_check_suite(model.named_parameters(), loss_builder)
    assert reports
    for report in reports:
        assert report.max_rel_error < 1e-9


def test_gradcheck_full_tiny_model_within_tolerance():
    config = tiny_model_config()
    model = SaliencyModel(np.random.default_rng(3), config)
    jitter_parameters(model.parameters(), seed=0)
    rng = np.random.default_rng(7)
    cube = rng.random((config.encoder.bands, 8, 8))
    mask = (rng.random((8, 8)) > 0.6).astype(float)

    def loss_builder():
        total, _ = compute_losses(model(cube), cube, mask)
        return total

    reports = grad_check_suite(model.named_parameters(), loss_builder, seed=0)
    groups = {r.group: r for r in reports}
    # the learnable scalar groups must be present, not vacuously skipped
    for required in ("attention_scales", "pool_gains", "conv_kernels",
                     "attention_projections", "attention_output"):
        assert required in groups
    for report in reports:
        census = sum(
            int(np.prod(p.data.shape))
            for name, p in model.named_parameters()
            if parameter_group(name) == report.group
        )
        assert report.checked == min(20, census)
        assert report.max_rel_error < 1e-4, (report.group, report.worst_parameter)
    assert failing_groups(reports, 1e-4) == []


def test_gradcheck_reports_offending_group():
    weight = Parameter(np.array(2.0))

    def untaped_builder():
        # loss 3w computed outside the tape: FD sees slope 3, tape sees 0
        return Tensor(weight.data * 3.0)

    bad = grad_check_suite([("weight", weight)], untaped_builder)
    assert [r.group for r in failing_groups(bad, 1e-4)] == ["conv_kernels"]
    assert bad[0].worst_parameter == "weight"
    assert bad[0].max_rel_error == pytest.approx(1.0, rel=1e-6)


def test_gradcheck_fails_a_group_it_cannot_fill():
    # every scalar sits exactly on a relu kink, so no probe step is kink-free
    weight = Parameter(np.zeros(3))
    with pytest.raises(NumericError, match="checked 0 of 3 scalars in group 'conv_kernels'"):
        grad_check_suite([("weight", weight)], lambda: T.sum_over(T.relu(weight)))


def test_gradcheck_shrinks_its_step_and_still_catches_a_wrong_gradient_near_a_kink():
    def too_steep(a):
        # doubles its input, but its backward claims a slope 1e-3 too large
        out = Tensor(2.0 * a.data)
        T._push("too_steep", out, (a,), lambda g: (g * 2.0 * (1.0 + 1e-3),))
        return out

    # relu kinks 5e-7 and 3e-7 away: probes at h = 1e-5 and 1e-6 cross them
    weight = Parameter(np.array([5e-7, 3e-7]))
    reports = grad_check_suite([("weight", weight)], lambda: T.sum_over(T.relu(too_steep(weight))))
    assert reports[0].checked == 2
    assert reports[0].max_rel_error == pytest.approx(1e-3 / 1.001, rel=1e-4)
    assert [r.group for r in failing_groups(reports, 1e-4)] == ["conv_kernels"]


def test_gradcheck_stops_on_a_non_finite_tape_gradient():
    def nan_slope(a):
        # doubles its input, but its backward returns NaN
        out = Tensor(2.0 * a.data)
        T._push("nan_slope", out, (a,), lambda g: (g * np.nan,))
        return out

    weight = Parameter(np.array([1.0, 2.0]))
    with pytest.raises(NumericError, match="non-finite gradient for weight at the audited point"):
        grad_check_suite([("weight", weight)], lambda: T.sum_over(nan_slope(weight)))


def test_gradcheck_fails_a_group_whose_finite_difference_is_not_finite():
    # the probe at w - h = -7e-6 takes the log of a negative number
    weight = Parameter(np.array([3e-6]))
    with np.errstate(invalid="ignore"):
        reports = grad_check_suite([("weight", weight)], lambda: T.sum_over(T.log(weight)),
                                   samples_per_group=1)
    assert reports[0].checked == 1
    assert reports[0].max_rel_error == np.inf
    assert reports[0].worst_parameter == "weight"
    assert [r.group for r in failing_groups(reports, 1e-4)] == ["conv_kernels"]


def test_jitter_is_seeded_and_bounded():
    def fresh():
        return [Parameter(np.zeros(100))]

    a, b, c = fresh(), fresh(), fresh()
    jitter_parameters(a, seed=0)
    jitter_parameters(b, seed=0)
    jitter_parameters(c, seed=1)
    np.testing.assert_array_equal(a[0].data, b[0].data)
    assert not np.array_equal(a[0].data, c[0].data)
    assert np.abs(a[0].data).max() <= 1e-3
    assert np.abs(a[0].data).max() > 0.0


def test_parameter_group_classification():
    assert parameter_group("encoder.blocks.0.attention.head_scales") == "attention_scales"
    assert parameter_group("encoder.blocks.0.gate.avg_gain") == "pool_gains"
    assert parameter_group("encoder.blocks.0.gate.max_gain") == "pool_gains"
    assert parameter_group("backbone.stem.norm.gain") == "norm_affine"
    assert parameter_group("backbone.stem.norm.bias") == "norm_affine"
    assert parameter_group("backbone.stem.conv.bias") == "biases"
    assert parameter_group("encoder.blocks.0.attention.to_query.weight") == "attention_projections"
    assert parameter_group("encoder.blocks.0.attention.to_out.weight") == "attention_output"
    assert parameter_group("backbone.stem.conv.weight") == "conv_kernels"
