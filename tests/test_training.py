"""Optimizer arithmetic, loop determinism, and the gradient audit."""

import io
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from specsal import tensor as T
from specsal.checkpoint import apply_state
from specsal.exceptions import ConfigError, NumericError
from specsal.losses import compute_losses
from specsal.model import SaliencyModel, default_model_config, demo_model_config, tiny_model_config
from specsal.nn import Linear, Module
from specsal.scenes import synth_scene, training_demo_scene_spec
from specsal.spectral_attention import SpectralEncoder
from specsal.tensor import Parameter, Store, Tensor
from specsal.training import (
    AdamOptimizer,
    TrainConfig,
    backprop,
    failing_groups,
    fit_reconstruction,
    grad_check_suite,
    jitter_parameters,
    parameter_group,
    train_loop,
    train_step,
)

REFERENCE_DEMO = Path(__file__).parent / "reference" / "training_demo.json"


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


def _per_parameter_adam(values, grads, lr):
    """The update as it ran before the flat store: one parameter at a time."""
    b1, b2, eps = AdamOptimizer.beta1, AdamOptimizer.beta2, AdamOptimizer.epsilon
    values = [v.copy() for v in values]
    first = [np.zeros_like(v) for v in values]
    second = [np.zeros_like(v) for v in values]
    for step, step_grads in enumerate(grads, start=1):
        scale1, scale2 = 1.0 - b1 ** step, 1.0 - b2 ** step
        for p, m, v, g in zip(values, first, second, step_grads):
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            p -= lr * (m / scale1) / (np.sqrt(v / scale2) + eps)
    return values


def test_flat_adam_matches_the_per_parameter_update_bit_for_bit(monkeypatch):
    # chunks of 4 scalars cut across parameters and runs; the subset leaves a
    # gap, so its moments cover two runs of the store
    monkeypatch.setattr(AdamOptimizer, "chunk", 4)
    rng = np.random.default_rng(9)
    shapes = [(3, 2), (5,), (), (2, 2, 2)]
    grads = [[rng.normal(size=s) * 10.0 ** rng.integers(-6, 2) for s in shapes] for _ in range(4)]
    for chosen in ([0, 1, 2, 3], [0, 1, 3]):
        params = [Parameter(rng.normal(size=s)) for s in shapes]
        Store.pack(params)
        start = [params[i].data.copy() for i in chosen]
        opt = AdamOptimizer([params[i] for i in chosen], learning_rate=0.01)
        assert len(opt.runs) == (1 if len(chosen) == 4 else 2)
        for step_grads in grads:
            for p, g in zip(params, step_grads):
                p.grad[...] = g
            opt.step()
        want = _per_parameter_adam(start, [[g[i] for i in chosen] for g in grads], 0.01)
        for i, values in zip(chosen, want):
            np.testing.assert_array_equal(params[i].data, values)


def test_model_parameters_view_one_flat_store():
    model = SaliencyModel(np.random.default_rng(2), tiny_model_config())
    params = model.parameters()
    flat = params[0].store.data
    assert flat.size == sum(p.size for p in params)
    assert all(p.store is params[0].store and np.shares_memory(p.data, flat) for p in params)
    np.testing.assert_array_equal(np.concatenate([p.data.ravel() for p in params]), flat)


def test_parameter_arrays_keep_their_identity():
    # training, loading a checkpoint and jittering write into the store in place
    cube, mask = _demo_example()
    model = SaliencyModel(np.random.default_rng(2), tiny_model_config())
    arrays = [p.data for p in model.parameters()]
    trained = {name: p.data.copy() for name, p in model.named_parameters()}
    train_loop(model, [(cube, mask)], TrainConfig(steps=2))
    assert all(p.data is a for p, a in zip(model.parameters(), arrays))
    apply_state(model, trained)
    jitter_parameters(model.parameters(), seed=3)
    assert all(p.data is a for p, a in zip(model.parameters(), arrays))
    assert np.shares_memory(arrays[0], model.parameters()[-1].store.data)


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
                       r"non-finite tensor came from op '\w+' \(op \d+ of the forward pass, shape"):
        fit_reconstruction(encoder, cube, steps=2)


def test_backward_returns_no_gradient_for_constant_operands():
    # an operand with no node (not a Parameter, not a kept record's output)
    # gets None from its op's backward, so nothing computes a dropped gradient
    cube, mask = synth_scene(training_demo_scene_spec(), 4)
    model = SaliencyModel(np.random.default_rng(2), demo_model_config())
    with T.Tape() as tape:
        total, _ = compute_losses(model(cube.data), cube.data, mask.astype(float))
    recorded, replayed = len(tape), []

    def checked(inputs, back):
        def replay(g):
            grads = back(g)
            replayed.append(([n is None for n in inputs], [gi is None for gi in grads]))
            return grads

        return replay

    tape._records = [(out, inputs, checked(inputs, back)) for out, inputs, back in tape._records]
    tape.backward(total)
    # at least 99 % of the kept records are replayed: a record that backward
    # never reaches, such as one of a conv that feeds no loss, is kept unreplayed
    assert 0.99 * recorded < len(replayed) <= recorded
    assert all(constant == dropped for constant, dropped in replayed)
    assert sum(sum(constant) for constant, _ in replayed) > 0  # constants do occur


def test_tape_record_is_called_only_for_kept_records(monkeypatch):
    # an op looks its inputs' nodes up once and calls Tape.record only when the
    # tape keeps it: not with no tape active, not when every input is a constant
    cube, mask = synth_scene(training_demo_scene_spec(), 0)
    model = SaliencyModel(np.random.default_rng(0), demo_model_config())
    calls, record = [], T.Tape.record

    def counted(tape, out, nodes, back):
        calls.append(nodes)
        return record(tape, out, nodes, back)

    monkeypatch.setattr(T.Tape, "record", counted)
    step = lambda: compute_losses(model(cube.data), cube.data, mask.astype(float))  # noqa: E731
    with T.Tape() as tape:
        step()
    kept = json.loads(REFERENCE_DEMO.read_text())["tape_records"]
    assert len(calls) == len(tape) == kept
    assert all(any(node is not None for node in nodes) for nodes in calls)
    seen = []
    T._observe(lambda name, out, inputs: seen.append(name), step)
    assert len(seen) == 966 and len(calls) == kept  # 4 ops on constants alone, and no record
    model(cube.data).saliency_map()
    assert len(calls) == kept


@pytest.mark.parametrize("config, size", [(demo_model_config, 32), (default_model_config, 64)],
                         ids=["demo_model_config", "default_model_config"])
def test_every_parameter_reaches_the_loss(config, size):
    # one seeded step of a fresh model gives every parameter a nonzero
    # gradient somewhere; the tiny config is left out, because its 1x1
    # deepest level standardizes to exactly 0 and zeroes parameters by design
    config = config()
    cube, mask = synth_scene(training_demo_scene_spec(size, size, config.encoder.bands), 4)
    model = SaliencyModel(np.random.default_rng(2), config)
    backprop(model.parameters_by_name.items(),
             lambda: compute_losses(model(cube.data), cube.data, mask.astype(float))[0],
             "the liveness step")
    dead = [name for name, p in model.parameters_by_name.items() if not p.grad.any()]
    assert not dead, f"parameters with an all-zero gradient: {dead}"


def test_no_reshape_in_a_demo_step_takes_a_parameter():
    # parameters are stored in the shape their op reads, so a forward plus
    # loss reshapes maps and tokens only: 150 fewer records than when every
    # norm gain, norm offset and conv bias was reshaped to (C,1,1) first
    cube, mask = synth_scene(training_demo_scene_spec(), 4)
    model = SaliencyModel(np.random.default_rng(2), demo_model_config())
    reshaped = []

    def see(name, out, inputs):
        if name == "reshape":
            reshaped.extend(inputs)

    T._observe(see, lambda: compute_losses(model(cube.data), cube.data, mask.astype(float)))
    assert reshaped and not any(isinstance(a, Parameter) for a in reshaped)


def test_demo_train_step_peak_memory():
    # a step holds only what backward reads: a record keeps no op's inputs or
    # output it does not need, each channel_norm keeps one full map, and the
    # gradient exists from the end of the forward pass to the next step's
    # backprop. Traced over three steps of train_loop from before it builds its
    # optimizer, so gradients freed between steps count too: 15.3 MB on numpy
    # 2.4. The flat gradient is allocated whole before backward frees any
    # record; per-parameter gradients allocated as backward reached them
    # peaked at 13.8 MB, and 17.4 MB when zeroing kept them through the
    # forward pass and each norm kept its normalized map
    cube, mask = synth_scene(training_demo_scene_spec(), 4)
    mask = mask.astype(float)
    model = SaliencyModel(np.random.default_rng(2), demo_model_config())
    tracemalloc.start()
    try:
        train_loop(model, [(cube.data, mask)], TrainConfig(steps=3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 15.5e6


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


def test_frozen_attention_scalars_train_worse_than_free(seeded_demo_run):
    # the learnable attention temperatures and pooling gains must matter:
    # freezing them on the seeded demo scene leaves a strictly higher final loss
    run, _ = seeded_demo_run
    model = SaliencyModel(np.random.default_rng(0), demo_model_config())
    free = [
        p for name, p in model.named_parameters()
        if parameter_group(name) not in ("attention_scales", "pool_gains")
    ]
    optimizer = AdamOptimizer(free, TrainConfig().learning_rate)
    for _ in range(100):
        report = train_step(model, run.cube, run.mask, optimizer)
    assert run.reports[-1].total < report.total
    assert report.total == float.fromhex("0x1.65217cb8cfbf6p+0")


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
    reason="nothing in the loss supervises the ternary maps of levels 1-3, so "
    "the uncertain channel's meaning is emergent; after the seeded demo training "
    "run the correlation is positive only at the deepest level and negative at "
    "the two middle levels (-0.38, -0.27, +0.59 at levels 1, 2, 3; the same "
    "signs held across 24 seed pairs and 6x longer training while the finest "
    "level still had a labeling)",
    strict=True,
)
def test_trained_uncertainty_tracks_prediction_ambiguity(seeded_demo_run):
    # hoped-for property: pixels whose saliency prediction sits near 0.5
    # carry more ternary-map uncertain mass, at every decoder level
    run, _ = seeded_demo_run
    output = run.model(run.cube)
    for prediction, trimap in zip(output.level_predictions[1:], output.trimaps):
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
