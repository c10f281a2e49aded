"""The benchmark's tracer binds library names; renaming one must fail here too."""

from pathlib import Path

import numpy as np

import specsal.tensor
import specsal.training
from specsal.model import SaliencyModel, tiny_model_config
from specsal.scenes import synth_scene, training_demo_scene_spec
from specsal.training import AdamOptimizer

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_benchmark_tracer_installs_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    # building the tracer looks up every traced name, so a dropped or renamed
    # library function raises AttributeError here
    tracer = spans.Tracer("training.step")
    exp, backward = specsal.tensor.exp, specsal.tensor.Tape.backward
    tracer.install()
    try:
        assert specsal.tensor.exp is not exp
        assert specsal.tensor.Tape.backward is not backward
    finally:
        tracer.uninstall()
    assert specsal.tensor.exp is exp
    assert specsal.tensor.Tape.backward is backward


def _tiny_step_gradients():
    cube, mask = synth_scene(training_demo_scene_spec(height=8, width=8, bands=8), 4)
    model = SaliencyModel(np.random.default_rng(2), tiny_model_config())
    # looked up at call time, so an installed tracer's wrapper runs
    specsal.training.train_step(model, cube.data, mask.astype(float),
                                AdamOptimizer(model.parameters()))
    return [p.grad.copy() for p in model.parameters()]


def test_traced_train_step_records_and_replays_the_tape(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    plain = _tiny_step_gradients()
    tracer = spans.Tracer("training.step")
    tracer.install()
    try:
        traced = _tiny_step_gradients()
    finally:
        tracer.uninstall()
    assert len(traced) == len(plain)
    for got, want in zip(traced, plain):
        np.testing.assert_array_equal(got, want)
    assert tracer.tape_records > 0
    assert tracer.calls["tensor.conv2d.bwd"] > 0
    # every model-path row a training step feeds saw a call; a bare step
    # reads no file and scores nothing, so the io and metrics rows stay out
    _, silent = spans.report(tracer, spans.TRAIN)
    model_path = ("tensor.", "training.", "losses.", "spectral_attention.", "saliency_net.",
                  "model.forward")
    assert [name for name in silent if name.startswith(model_path)] == []
