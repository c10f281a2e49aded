"""The benchmark's tracer binds library names; renaming one must fail here too."""

import json
from pathlib import Path

import numpy as np

import specsal.cli
import specsal.tensor
import specsal.training
from specsal.checkpoint import model_state, save_checkpoint
from specsal.configio import model_config_to_dict
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


def test_traced_infer_feeds_every_infer_spectral_row(monkeypatch, tmp_path, capsys):
    # the infer-spectral workload reads its rows from one traced `specsal infer`;
    # an infer that bypasses model(...) or the checkpoint calls, or a forward
    # that stops calling an op the tracer reports, leaves a row silent
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    config = tiny_model_config()
    save_checkpoint(model_state(SaliencyModel(np.random.default_rng(3), config)), tmp_path / "m.ck")
    (tmp_path / "m.ck.json").write_text(json.dumps(model_config_to_dict(config)))
    assert specsal.cli.main(["synth", "--preset", "training-demo", "--seed", "5",
                             "--cube", str(tmp_path / "c.cube"), "--mask", str(tmp_path / "c.pgm")]) == 0

    def infer(stem):
        return ["infer", "--cube", str(tmp_path / "c.cube"), "--checkpoint", str(tmp_path / "m.ck"),
                "--out", str(tmp_path / f"{stem}.pgm"), "--float-out", str(tmp_path / f"{stem}.f32")]

    assert specsal.cli.main(infer("plain")) == 0
    tracer = spans.Tracer("bench.infer_call")
    tracer.install()
    try:
        assert tracer.unit(specsal.cli.main, infer("traced")) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert tracer.units == 1
    for suffix in (".pgm", ".f32"):
        assert (tmp_path / f"traced{suffix}").read_bytes() == (tmp_path / f"plain{suffix}").read_bytes()
    _, silent = spans.report(tracer, spans.INFER)
    assert silent == []
