"""End-to-end checks of the command-line surface and its exit codes."""

import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from specsal import tensor as T
from specsal.baselines import sad_map
from specsal.checkpoint import CHECKPOINT_MAGIC, apply_state, load_checkpoint, save_checkpoint
from specsal.cli import main
from specsal.configio import model_config_from_dict
from specsal.cube import HsiCube, calibrate, pseudo_color, read_cube, write_cube
from specsal.imageio import read_float_map, read_pgm, write_float_map, write_pgm
from specsal.masks import read_mask, write_mask
from specsal.metrics import evaluate_pair
from specsal.model import SaliencyModel, demo_model_config
from specsal.nn import Module
from specsal.scenes import scene_spec_to_dict, synth_scene, training_demo_scene_spec
from specsal.tensor import Parameter

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Two rendered scenes, a manifest, and one short training run."""
    root = tmp_path_factory.mktemp("cli")
    for seed in (0, 1):
        assert main([
            "synth", "--preset", "training-demo", "--seed", str(seed),
            "--cube", str(root / f"scene{seed}.hsv2"),
            "--mask", str(root / f"scene{seed}.pgm"),
        ]) == 0
    manifest = {
        "entries": [
            {"id": "scene0", "cube": "scene0.hsv2", "mask": "scene0.pgm",
             "split": "train", "attributes": ["SO"]},
            {"id": "scene1", "cube": "scene1.hsv2", "mask": "scene1.pgm",
             "split": "test", "attributes": ["SO", "CS"]},
        ]
    }
    (root / "manifest.json").write_text(json.dumps(manifest))
    assert main([
        "train", "--manifest", str(root / "manifest.json"),
        "--out", str(root / "model.ckpt"), "--log", str(root / "train.jsonl"),
        "--steps", "2",
    ]) == 0
    return root


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "synth" in capsys.readouterr().out


def test_unknown_subcommand_exits_one(capsys):
    assert main(["nosuch"]) == 1


def test_missing_required_flag_exits_one(capsys):
    assert main(["baseline", "--method", "sad"]) == 1


def test_one_process_parses_as_fresh_processes_do(tmp_path, monkeypatch, capsys):
    """A usage error, --help and two subcommands, run by one process in turn,
    print, write and exit exactly as each does in a process of its own."""
    monkeypatch.setenv("COLUMNS", "80")  # help wraps at the same width in both
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    calls = [
        ["baseline", "--method", "sad"],
        ["--help"],
        ["synth", "--preset", "color-similar", "--cube", "scene.hsv2", "--mask", "mask.pgm"],
        ["baseline", "--method", "sg", "--cube", "scene.hsv2", "--out", "sg.pgm"],
    ]
    fresh, shared = tmp_path / "fresh", tmp_path / "shared"
    fresh.mkdir()
    shared.mkdir()
    expected = []
    for argv in calls:
        done = subprocess.run([sys.executable, "-m", "specsal.cli", *argv], cwd=fresh, env=env,
                              capture_output=True, text=True, timeout=120, check=False)
        expected.append((done.returncode, done.stdout, done.stderr))
    monkeypatch.chdir(shared)
    got = []
    for argv in calls:
        code = main(argv)
        captured = capsys.readouterr()
        got.append((code, captured.out, captured.err))
    assert [code for code, _, _ in got] == [1, 0, 0, 0]
    assert got == expected
    for name in ("scene.hsv2", "mask.pgm", "sg.pgm"):
        assert (shared / name).read_bytes() == (fresh / name).read_bytes()


def test_main_runs_the_handler_named_at_call_time(monkeypatch, capsys):
    assert main(["--help"]) == 0  # the parser exists before the handler is replaced
    seen = []
    monkeypatch.setattr("specsal.cli._cmd_pseudocolor", lambda args: seen.append(args.out) or 0)
    assert main(["pseudocolor", "--cube", "in.hsv2", "--out", "out.ppm"]) == 0
    assert seen == [Path("out.ppm")]


def test_synth_is_deterministic(tmp_path, capsys):
    args = ["synth", "--preset", "color-similar", "--seed", "3"]
    for tag in ("a", "b"):
        assert main(args + [
            "--cube", str(tmp_path / f"{tag}.hsv2"),
            "--mask", str(tmp_path / f"{tag}.pgm"),
            "--preview", str(tmp_path / f"{tag}.ppm"),
        ]) == 0
    for suffix in (".hsv2", ".pgm", ".ppm"):
        assert (tmp_path / f"a{suffix}").read_bytes() == (tmp_path / f"b{suffix}").read_bytes()
    assert main([
        "synth", "--preset", "color-similar", "--seed", "4",
        "--cube", str(tmp_path / "c.hsv2"), "--mask", str(tmp_path / "c.pgm"),
    ]) == 0
    assert (tmp_path / "a.hsv2").read_bytes() != (tmp_path / "c.hsv2").read_bytes()


def test_synth_spec_file_matches_preset(tmp_path, workspace, capsys):
    doc = scene_spec_to_dict(training_demo_scene_spec())
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(doc))
    assert main([
        "synth", "--spec", str(spec_path), "--seed", "0",
        "--cube", str(tmp_path / "s.hsv2"), "--mask", str(tmp_path / "s.pgm"),
    ]) == 0
    assert (tmp_path / "s.hsv2").read_bytes() == (workspace / "scene0.hsv2").read_bytes()
    assert (tmp_path / "s.pgm").read_bytes() == (workspace / "scene0.pgm").read_bytes()


def test_pseudocolor_matches_library_render(tmp_path, workspace, capsys):
    out = tmp_path / "pc.ppm"
    assert main(["pseudocolor", "--cube", str(workspace / "scene0.hsv2"), "--out", str(out)]) == 0
    rendered = pseudo_color(read_cube(workspace / "scene0.hsv2"))
    header = f"P6\n{rendered.shape[1]} {rendered.shape[0]}\n255\n".encode()
    assert out.read_bytes() == header + rendered.tobytes()


def test_calibrate_matches_library_result(tmp_path, capsys):
    cube, _ = synth_scene(training_demo_scene_spec(), seed=5)
    rng = np.random.default_rng(6)

    def sibling(data):
        return HsiCube(data, cube.wavelength_start_nm, cube.wavelength_step_nm)

    frames = {
        "raw": sibling(cube.data + 0.01),
        "dark": sibling(np.full_like(cube.data, 0.01)),
        "white": sibling(np.full_like(cube.data, 2.0) + rng.random(cube.data.shape)),
    }
    for name, frame in frames.items():
        write_cube(frame, tmp_path / f"{name}.hsv2")
    assert main([
        "calibrate", "--raw", str(tmp_path / "raw.hsv2"), "--dark", str(tmp_path / "dark.hsv2"),
        "--white", str(tmp_path / "white.hsv2"), "--out", str(tmp_path / "out.hsv2"),
    ]) == 0
    # the oracle sees exactly what the CLI read: the float32-rounded frames
    expected = calibrate(*(read_cube(tmp_path / f"{n}.hsv2") for n in ("raw", "dark", "white")))
    np.testing.assert_array_equal(
        read_cube(tmp_path / "out.hsv2").data,
        expected.data.astype(np.float32).astype(np.float64),
    )


def test_baseline_outputs_match_library_map(tmp_path, workspace, capsys):
    out = tmp_path / "sad.pgm"
    raw_out = tmp_path / "sad.f32"
    assert main([
        "baseline", "--method", "sad", "--cube", str(workspace / "scene0.hsv2"),
        "--out", str(out), "--float-out", str(raw_out),
    ]) == 0
    expected = sad_map(read_cube(workspace / "scene0.hsv2"))
    np.testing.assert_array_equal(
        read_pgm(out), np.round(255.0 * expected).astype(np.uint8)
    )
    np.testing.assert_array_equal(read_float_map(raw_out), expected.astype(np.float32))


def test_train_writes_checkpoint_sidecar_and_log(workspace):
    lines = (workspace / "train.jsonl").read_text().splitlines()
    assert len(lines) == 2
    for i, line in enumerate(lines):
        record = json.loads(line)
        assert set(record) == {"step", "L_s", "L_sod", "L_g", "L_m"}
        assert record["step"] == i + 1
    sidecar = json.loads((workspace / "model.ckpt.json").read_text())
    assert model_config_from_dict(sidecar) == demo_model_config(bands=8)
    assert (workspace / "model.ckpt").stat().st_size > 0


def test_infer_matches_library_inference(tmp_path, workspace, capsys):
    out = tmp_path / "pred.pgm"
    float_out = tmp_path / "pred.f32"
    assert main([
        "infer", "--cube", str(workspace / "scene1.hsv2"),
        "--checkpoint", str(workspace / "model.ckpt"),
        "--out", str(out), "--float-out", str(float_out),
    ]) == 0
    config = model_config_from_dict(json.loads((workspace / "model.ckpt.json").read_text()))
    model = SaliencyModel(np.random.default_rng(0), config)
    apply_state(model, load_checkpoint(workspace / "model.ckpt"))
    expected = model(read_cube(workspace / "scene1.hsv2").data).saliency_map()
    np.testing.assert_array_equal(read_pgm(out), np.round(255.0 * expected).astype(np.uint8))
    np.testing.assert_array_equal(read_float_map(float_out), expected.astype(np.float32))


def test_eval_perfect_prediction_and_pgm_fallback(tmp_path, workspace, capsys):
    gt = read_mask(workspace / "scene1.pgm")
    pred_dir = tmp_path / "preds"
    pred_dir.mkdir()
    write_float_map(gt.astype(np.float64), pred_dir / "scene1.f32")
    report_path = tmp_path / "eval.json"
    assert main([
        "eval", "--manifest", str(workspace / "manifest.json"),
        "--pred-dir", str(pred_dir), "--out", str(report_path),
        "--csv", str(tmp_path / "eval.csv"),
    ]) == 0
    doc = json.loads(report_path.read_text())
    assert doc["split"] == "test" and doc["count"] == 1
    assert doc["overall"]["mae"] == 0.0
    assert doc["overall"]["auc"] == 1.0
    assert doc["overall"]["cc"] == pytest.approx(1.0)
    assert doc["per_image"]["scene1"]["pre"] == 1.0
    header, row = (tmp_path / "eval.csv").read_text().splitlines()
    assert header == "slice,mae,pre,rec,avg_f1,auc,cc"
    assert row.startswith("all,0.000000,1.000000,1.000000,")

    # the .pgm route quantizes but a binary map survives exactly
    (pred_dir / "scene1.f32").unlink()
    write_mask(gt, pred_dir / "scene1.pgm")
    assert main([
        "eval", "--manifest", str(workspace / "manifest.json"),
        "--pred-dir", str(pred_dir), "--out", str(report_path),
    ]) == 0
    assert json.loads(report_path.read_text())["overall"]["mae"] == 0.0


def test_eval_attribute_slices(tmp_path, workspace, capsys):
    pred_dir = tmp_path / "preds"
    pred_dir.mkdir()
    write_mask(read_mask(workspace / "scene1.pgm"), pred_dir / "scene1.pgm")
    report_path = tmp_path / "eval.json"
    assert main([
        "eval", "--manifest", str(workspace / "manifest.json"),
        "--pred-dir", str(pred_dir), "--out", str(report_path), "--attributes",
    ]) == 0
    doc = json.loads(report_path.read_text())
    assert set(doc["per_attribute"]) == {"SO", "CS"}
    assert doc["per_attribute"]["CS"]["mae"] == doc["overall"]["mae"]


def test_eval_missing_prediction_exits_two(tmp_path, workspace, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main([
        "eval", "--manifest", str(workspace / "manifest.json"),
        "--pred-dir", str(empty), "--out", str(tmp_path / "r.json"),
    ]) == 2
    assert not (tmp_path / "r.json").exists()


def test_eval_reads_each_dotted_id_from_its_own_file(tmp_path, workspace, capsys):
    # a stray scene.f32 is what a suffix swap on "scene.1" or "scene.2" would find
    for name in ("scene0.pgm", "scene1.pgm"):
        (tmp_path / name).write_bytes((workspace / name).read_bytes())
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"entries": [
        {"id": f"scene.{i + 1}", "cube": f"scene{i}.hsv2", "mask": f"scene{i}.pgm",
         "split": "test"} for i in (0, 1)]}))
    pred_dir = tmp_path / "pred"
    pred_dir.mkdir()
    rng = np.random.default_rng(5)
    for stem in ("scene.1", "scene.2", "scene"):
        write_float_map(rng.uniform(size=(32, 32)), pred_dir / f"{stem}.f32")
    argv = ["eval", "--manifest", str(manifest), "--pred-dir", str(pred_dir),
            "--out", str(tmp_path / "r.json")]
    assert main(argv) == 0
    per_image = json.loads((tmp_path / "r.json").read_text())["per_image"]
    for i in (0, 1):
        expected = evaluate_pair(read_float_map(pred_dir / f"scene.{i + 1}.f32"),
                                 read_mask(tmp_path / f"scene{i}.pgm").astype(np.float64))
        assert per_image[f"scene.{i + 1}"] == expected.to_dict()

    (pred_dir / "scene.1.f32").unlink()
    (tmp_path / "r.json").unlink()
    assert main(argv) == 2
    assert capsys.readouterr().err == (f"error: no prediction for entry scene.1: tried "
                                       f"{pred_dir}/scene.1.f32 and {pred_dir}/scene.1.pgm\n")
    assert not (tmp_path / "r.json").exists()


def test_eval_reads_no_cubes(tmp_path, workspace, capsys):
    """eval reads only masks and predictions, so a manifest whose cube files
    are gone scores to the same bytes."""
    pred_dir = tmp_path / "preds"
    pred_dir.mkdir()
    write_mask(read_mask(workspace / "scene1.pgm"), pred_dir / "scene1.pgm")
    bare = tmp_path / "bare"
    bare.mkdir()
    for name in ("manifest.json", "scene0.pgm", "scene1.pgm"):
        (bare / name).write_bytes((workspace / name).read_bytes())
    reports = {}
    for label, root in (("cubes", workspace), ("bare", bare)):
        assert main([
            "eval", "--manifest", str(root / "manifest.json"), "--pred-dir", str(pred_dir),
            "--out", str(tmp_path / f"{label}.json"), "--csv", str(tmp_path / f"{label}.csv"),
            "--attributes",
        ]) == 0
        reports[label] = [(tmp_path / f"{label}.{ext}").read_bytes() for ext in ("json", "csv")]
    assert not list(bare.glob("*.hsv2"))
    assert reports["bare"] == reports["cubes"]


@pytest.mark.parametrize("defect, message", [
    pytest.param("shape", "entry scene1: prediction (8, 8) vs ground truth (32, 32)", id="shape"),
    pytest.param("nan", "entry scene1: prediction contains non-finite values", id="nan"),
    pytest.param("trailing-bytes", "{preds}/scene1.f32: float map header claims 32x32 (4096 bytes), "
                 "payload has 4128", id="trailing-bytes"),
])
def test_eval_bad_prediction_exits_two(defect, message, tmp_path, workspace, capsys):
    pred_dir = tmp_path / "preds"
    pred_dir.mkdir()
    if defect == "shape":  # evaluate_pair refuses a map that does not cover the mask
        write_mask(np.ones((8, 8), dtype=np.uint8), pred_dir / "scene1.pgm")
    elif defect == "nan":  # and a map holding a NaN
        pred = np.full((32, 32), 0.5)
        pred[3, 4] = np.nan
        write_float_map(pred, pred_dir / "scene1.f32")
    else:  # a .f32 holding more floats than its header declares
        write_float_map(np.zeros((32, 32)), pred_dir / "scene1.f32")
        with open(pred_dir / "scene1.f32", "ab") as handle:
            handle.write(np.zeros(8, dtype="<f4").tobytes())
    assert main([
        "eval", "--manifest", str(workspace / "manifest.json"),
        "--pred-dir", str(pred_dir), "--out", str(tmp_path / "r.json"),
        "--csv", str(tmp_path / "r.csv"),
    ]) == 2
    assert capsys.readouterr().err == f"error: {message.format(preds=pred_dir)}\n"
    assert not (tmp_path / "r.json").exists() and not (tmp_path / "r.csv").exists()


def test_eval_mask_with_trailing_bytes_exits_two(tmp_path, capsys):
    # a 2x2 mask header followed by 6 payload bytes used to read as the first 4
    (tmp_path / "m.pgm").write_bytes(b"P5\n2 2\n255\n" + bytes([255, 0, 0, 255, 255, 255]))
    write_float_map(np.zeros((2, 2)), tmp_path / "m.f32")
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"entries": [
        {"id": "m", "cube": "m.hsv2", "mask": "m.pgm", "split": "test"}]}))
    assert main([
        "eval", "--manifest", str(manifest), "--pred-dir", str(tmp_path),
        "--out", str(tmp_path / "r.json"),
    ]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
    assert "payload has 6 bytes" in err
    assert not (tmp_path / "r.json").exists()


def test_train_empty_split_exits_two(tmp_path, workspace, capsys):
    assert main([
        "train", "--manifest", str(workspace / "manifest.json"),
        "--out", str(tmp_path / "m.ckpt"), "--log", str(tmp_path / "m.jsonl"),
        "--steps", "1", "--split", "test",
    ]) == 0  # scene1 sits in the test split, so this trains fine
    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps({"entries": []}))
    assert main([
        "train", "--manifest", str(bare),
        "--out", str(tmp_path / "n.ckpt"), "--log", str(tmp_path / "n.jsonl"),
        "--steps", "1",
    ]) == 2
    assert not (tmp_path / "n.ckpt").exists()


def test_train_mask_cube_mismatch_exits_two(tmp_path, workspace, capsys):
    small = np.ones((8, 8), dtype=np.uint8)
    write_mask(small, tmp_path / "bad.pgm")
    manifest = {
        "entries": [
            {"id": "bad", "cube": str(workspace / "scene0.hsv2"),
             "mask": "bad.pgm", "split": "train"},
        ]
    }
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    assert main([
        "train", "--manifest", str(path),
        "--out", str(tmp_path / "m.ckpt"), "--log", str(tmp_path / "m.jsonl"),
        "--steps", "1",
    ]) == 2


@pytest.mark.parametrize("widths", [(48,), (32, 48)], ids=["non-square", "mixed-shapes"])
def test_train_cube_that_does_not_fit_the_model_exits_two(widths, tmp_path, capsys):
    entries = []
    for i, width in enumerate(widths):
        cube, mask = synth_scene(training_demo_scene_spec(width=width), seed=i)
        write_cube(cube, tmp_path / f"s{i}.hsv2")
        write_mask(mask, tmp_path / f"s{i}.pgm")
        entries.append({"id": f"s{i}", "cube": f"s{i}.hsv2", "mask": f"s{i}.pgm", "split": "train"})
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({"entries": entries}))
    out = tmp_path / "out"
    assert main([
        "train", "--manifest", str(path), "--steps", "1",
        "--out", str(out / "m.ckpt"), "--log", str(out / "m.jsonl"),
    ]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith(f"error: entry s{len(widths) - 1}: ")
    assert not out.exists()


def test_train_on_cubes_of_two_sizes_then_infer_the_larger(tmp_path, capsys):
    # no config field fixes the size, so one model trains on 32x32 and 64x64
    entries = []
    for i, size in enumerate((32, 64)):
        cube, mask = synth_scene(training_demo_scene_spec(size, size), seed=i)
        write_cube(cube, tmp_path / f"s{i}.hsv2")
        write_mask(mask, tmp_path / f"s{i}.pgm")
        entries.append({"id": f"s{i}", "cube": f"s{i}.hsv2", "mask": f"s{i}.pgm", "split": "train"})
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({"entries": entries}))
    checkpoint, out, float_out = tmp_path / "m.ckpt", tmp_path / "p.pgm", tmp_path / "p.f32"
    assert main([
        "train", "--manifest", str(path), "--steps", "2",
        "--out", str(checkpoint), "--log", str(tmp_path / "m.jsonl"),
    ]) == 0
    assert main([
        "infer", "--cube", str(tmp_path / "s1.hsv2"), "--checkpoint", str(checkpoint),
        "--out", str(out), "--float-out", str(float_out),
    ]) == 0
    model = SaliencyModel(None, demo_model_config())
    apply_state(model, load_checkpoint(checkpoint))
    expected = model(read_cube(tmp_path / "s1.hsv2").data).saliency_map()
    assert expected.shape == (64, 64)
    write_pgm(np.round(255.0 * expected).astype(np.uint8), tmp_path / "library.pgm")
    write_float_map(expected, tmp_path / "library.f32")
    assert out.read_bytes() == (tmp_path / "library.pgm").read_bytes()
    assert float_out.read_bytes() == (tmp_path / "library.f32").read_bytes()


def test_infer_cube_whose_levels_do_not_fit_the_grid_exits_two(tmp_path, workspace, capsys):
    # the demo checkpoint's grid 4 has no integer factor with level size 6 of 24x24
    cube, _ = synth_scene(training_demo_scene_spec(24, 24), seed=0)
    write_cube(cube, tmp_path / "odd.hsv2")
    out = tmp_path / "out"
    assert main([
        "infer", "--cube", str(tmp_path / "odd.hsv2"),
        "--checkpoint", str(workspace / "model.ckpt"),
        "--out", str(out / "p.pgm"), "--float-out", str(out / "p.f32"),
    ]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: decoder grid 4 shares no integer factor with level size 6\n"
    assert captured.out == "" and not out.exists()


def test_train_derived_model_with_too_many_bands_exits_two(tmp_path, capsys):
    # train derives the model from the first cube, so its band count meets the
    # encoder's cap before any model is built: the embed kernel grows as bands²
    cube, mask = synth_scene(training_demo_scene_spec(height=8, width=8, bands=1028), seed=0)
    write_cube(cube, tmp_path / "wide.hsv2")
    write_mask(mask, tmp_path / "wide.pgm")
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({"entries": [
        {"id": "wide", "cube": "wide.hsv2", "mask": "wide.pgm", "split": "train"},
    ]}))
    out = tmp_path / "out"
    assert main([
        "train", "--manifest", str(path), "--steps", "1",
        "--out", str(out / "m.ckpt"), "--log", str(out / "m.jsonl"),
    ]) == 2
    err = capsys.readouterr().err
    assert err == "error: encoder bands must be at most 1024, got 1028\n"
    assert not out.exists()


def test_infer_without_config_or_sidecar_exits_two(tmp_path, workspace, capsys):
    orphan = tmp_path / "orphan.ckpt"
    orphan.write_bytes((workspace / "model.ckpt").read_bytes())
    assert main([
        "infer", "--cube", str(workspace / "scene0.hsv2"),
        "--checkpoint", str(orphan), "--out", str(tmp_path / "p.pgm"),
    ]) == 2
    assert not (tmp_path / "p.pgm").exists()


def test_infer_nan_checkpoint_exits_two(tmp_path, workspace, capsys):
    # a bad value is a data error in the file, found on load before any map is
    # written, not a numeric failure of the network
    state = load_checkpoint(workspace / "model.ckpt")
    name = list(state)[1]
    state[name] = state[name].copy()
    state[name].flat[0] = np.nan
    save_checkpoint(state.items(), tmp_path / "nan.ckpt")
    (tmp_path / "nan.ckpt.json").write_bytes((workspace / "model.ckpt.json").read_bytes())
    assert main([
        "infer", "--cube", str(workspace / "scene0.hsv2"),
        "--checkpoint", str(tmp_path / "nan.ckpt"), "--out", str(tmp_path / "nan.pgm"),
        "--float-out", str(tmp_path / "nan.f32"),
    ]) == 2
    err = capsys.readouterr().err
    assert str(tmp_path / "nan.ckpt") in err and repr(name) in err and "non-finite" in err
    assert not (tmp_path / "nan.pgm").exists() and not (tmp_path / "nan.f32").exists()


def test_infer_checkpoint_with_a_flat_norm_gain_exits_two(tmp_path, workspace, capsys):
    # checkpoints written before parameters took the (C,1,1) shape channel_norm
    # reads hold (C,) norm gains; they are refused by name, not broadcast
    state = load_checkpoint(workspace / "model.ckpt")
    name = next(name for name in state if name.endswith(".norm.gain"))
    assert state[name].shape[1:] == (1, 1)
    state[name] = state[name].reshape(-1)
    save_checkpoint(state.items(), tmp_path / "old.ckpt")
    (tmp_path / "old.ckpt.json").write_bytes((workspace / "model.ckpt.json").read_bytes())
    assert main([
        "infer", "--cube", str(workspace / "scene0.hsv2"),
        "--checkpoint", str(tmp_path / "old.ckpt"), "--out", str(tmp_path / "old.pgm"),
    ]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and name in err
    assert f"{state[name].shape}" in err and f"{state[name].shape + (1, 1)}" in err
    assert not (tmp_path / "old.pgm").exists()


@pytest.mark.parametrize("name, shape", [("backbone.fusion.maps.0.conv.weight", (8, 8, 1, 1)),
                                         ("encoder.blocks.0.attention.head_scales", (1,))])
def test_infer_checkpoint_with_a_deleted_parameter_exits_two(name, shape, tmp_path, workspace,
                                                             capsys):
    # checkpoints written before the backbone exchange passed same-resolution
    # branches through, and before the encoder dropped its attention and gate
    # scalars, hold parameters the model no longer has
    state = load_checkpoint(workspace / "model.ckpt")
    state[name] = np.ones(shape)
    save_checkpoint(state.items(), tmp_path / "old.ckpt")
    (tmp_path / "old.ckpt.json").write_bytes((workspace / "model.ckpt.json").read_bytes())
    assert main([
        "infer", "--cube", str(workspace / "scene0.hsv2"),
        "--checkpoint", str(tmp_path / "old.ckpt"), "--out", str(tmp_path / "old.pgm"),
        "--float-out", str(tmp_path / "old.f32"),
    ]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: ") and name in err
    assert not (tmp_path / "old.pgm").exists() and not (tmp_path / "old.f32").exists()


def test_infer_checkpoint_with_a_shape_numpy_cannot_hold_exits_two(tmp_path, workspace, capsys):
    # no values, but numpy refuses a view whose nonzero dimensions overflow its byte count
    path = tmp_path / "huge.ckpt"
    path.write_bytes(CHECKPOINT_MAGIC + struct.pack("<IH", 1, 1) + b"w"
                     + struct.pack("<B3I", 3, 0, 2**31, 2**31))
    (tmp_path / "huge.ckpt.json").write_bytes((workspace / "model.ckpt.json").read_bytes())
    assert main([
        "infer", "--cube", str(workspace / "scene0.hsv2"),
        "--checkpoint", str(path), "--out", str(tmp_path / "huge.pgm"),
    ]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert str(path) in err and "'w'" in err and str((0, 2**31, 2**31)) in err


def test_stats_tables(tmp_path, workspace, capsys):
    out_dir = tmp_path / "stats"
    assert main([
        "stats", "--manifest", str(workspace / "manifest.json"),
        "--out-dir", str(out_dir), "--grid", "2",
    ]) == 0
    attr_lines = (out_dir / "attributes.csv").read_text().splitlines()
    assert attr_lines[0] == "attribute,count"
    counts = dict(line.split(",") for line in attr_lines[1:])
    assert counts == {"CB": "0", "CS": "1", "HDR": "0", "MS": "0", "SO": "2"}
    bin_lines = (out_dir / "scale_bins.csv").read_text().splitlines()
    assert bin_lines[0] == "low,high,count"
    assert len(bin_lines) == 7
    assert sum(int(line.split(",")[2]) for line in bin_lines[1:]) == 2
    count_lines = (out_dir / "centroid_counts.csv").read_text().splitlines()
    assert len(count_lines) == 5  # header + 2x2 grid
    heat = read_pgm(out_dir / "centroid_heatmap.pgm")
    assert heat.shape == (2, 2)
    assert heat.max() == 255  # peak cell is normalized to full scale


def test_gradcheck_exits_zero_and_writes_report(tmp_path, capsys):
    report_path = tmp_path / "grad.json"
    assert main(["gradcheck", "--samples", "2", "--report", str(report_path)]) == 0
    out = capsys.readouterr().out
    doc = json.loads(report_path.read_text())
    assert doc["tolerance"] == 1e-4
    assert len(doc["groups"]) == 5
    for name, group in doc["groups"].items():
        assert name in out
        assert group["max_rel_error"] < 1e-4


@pytest.mark.parametrize("seed", [3, 5, 66])
def test_gradcheck_seed_with_high_curvature_coordinate_passes(seed, capsys):
    # each seed samples scalars within 1e-5 of a relu kink, where the plain
    # central difference at h = 1e-5 misses the tape gradient by more than the
    # 1e-4 tolerance (5e-4 to 2.3e-2):
    # seed 3 samples backbone.fusion.maps.14.norm.bias[31], whose probes
    # straddle a kink down to h = 1e-8; seed 5 samples encoder.embed.bias[0]
    # and local_mix_b.bias[0], both scored at h = 1e-6; seed 66 samples
    # to_out.weight[0, 1] next to a kink in the 4-scalar attention_output group
    assert main(["gradcheck", "--seed", str(seed)]) == 0


def test_gradcheck_exits_three_on_a_non_finite_finite_difference(monkeypatch, tmp_path, capsys):
    # sum(log(w)) at w = 3e-6: the probe at w - h takes the log of a negative number
    class LogModel(Module):
        def __init__(self):
            self.weight = Parameter(np.array([3e-6]))

    model = LogModel()
    monkeypatch.setattr("specsal.cli.tiny_model_audit",
                        lambda seed: (model, lambda: T.sum_over(T.log(model.weight))))
    report_path = tmp_path / "grad.json"
    with np.errstate(invalid="ignore"):
        code = main(["gradcheck", "--samples", "1", "--report", str(report_path)])
    assert code == 3
    assert "max rel error inf (weight @ (0,))" in capsys.readouterr().out

    def reject(constant):
        raise AssertionError(f"non-standard JSON constant {constant}")

    report = json.loads(report_path.read_text(), parse_constant=reject)
    assert report["groups"]["conv_kernels"]["max_rel_error"] is None


def test_infer_creates_missing_output_directory(tmp_path, workspace, capsys):
    out = tmp_path / "pred" / "scene1.pgm"
    assert main([
        "infer", "--cube", str(workspace / "scene1.hsv2"),
        "--checkpoint", str(workspace / "model.ckpt"),
        "--out", str(out), "--float-out", str(tmp_path / "pred" / "scene1.f32"),
    ]) == 0
    assert read_pgm(out).shape == (32, 32)
    assert read_float_map(tmp_path / "pred" / "scene1.f32").shape == (32, 32)


@pytest.mark.parametrize("reader", ["manifest", "config", "checkpoint"])
def test_non_utf8_input_exits_two(reader, tmp_path, workspace, capsys):
    bad = tmp_path / "bad"
    checkpoint, sidecar = workspace / "model.ckpt", workspace / "model.ckpt.json"
    if reader == "checkpoint":
        # magic, one record, then a 1-byte parameter name that is not UTF-8
        bad.write_bytes(b"SSCK" + (1).to_bytes(4, "little") + (1).to_bytes(2, "little") + b"\xff")
        (tmp_path / "bad.json").write_bytes(sidecar.read_bytes())
    else:
        bad.write_bytes(b'{"entries": ["\xff"]}')
        # a checkpoint copied next to a sidecar that is not UTF-8
        (tmp_path / "model.ckpt").write_bytes(checkpoint.read_bytes())
        (tmp_path / "model.ckpt.json").write_bytes(bad.read_bytes())
    infer = ["infer", "--cube", str(workspace / "scene1.hsv2"), "--out", str(tmp_path / "p.pgm")]
    argv = {
        "manifest": ["stats", "--manifest", str(bad), "--out-dir", str(tmp_path / "stats")],
        "config": infer + ["--checkpoint", str(tmp_path / "model.ckpt")],
        "checkpoint": infer + ["--checkpoint", str(bad)],
    }[reader]
    assert main(argv) == 2
    assert "utf-8" in capsys.readouterr().err.lower()


def _spec_with(edit):
    doc = scene_spec_to_dict(training_demo_scene_spec())
    edit(doc)
    return doc


def _manifest_entry(**changes):
    return {"id": "a", "cube": "a.hsv2", "mask": "a.pgm", "split": "test", **changes}


@pytest.mark.parametrize(
    "command, doc",
    [
        ("synth", _spec_with(lambda d: d.update(height="abc"))),
        ("synth", _spec_with(lambda d: d["objects"][0].update(center=[0.5]))),
        ("synth", _spec_with(lambda d: d["objects"][0]["spectrum"]["bumps"][0].update(width_nm="x"))),
        ("eval", {"entries": 5}),
        ("stats", {"entries": 5}),
        ("eval", {"entries": [_manifest_entry(attributes=5)]}),
        ("stats", {"entries": [_manifest_entry(attributes=5)]}),
    ],
    ids=["height-str", "center-short", "bump-width-str", "eval-entries-int",
         "stats-entries-int", "eval-attributes-int", "stats-attributes-int"],
)
def test_ill_typed_documents_exit_two(command, doc, tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    argv = {
        "synth": ["synth", "--spec", str(path), "--cube", str(tmp_path / "s.hsv2"),
                  "--mask", str(tmp_path / "s.pgm")],
        "eval": ["eval", "--manifest", str(path), "--pred-dir", str(tmp_path),
                 "--out", str(tmp_path / "eval.json")],
        "stats": ["stats", "--manifest", str(path), "--out-dir", str(tmp_path / "stats")],
    }[command]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not (tmp_path / "s.hsv2").exists()


@pytest.mark.parametrize(
    "command, value",
    [
        ("synth", {"noise_level": float("nan")}),
        ("synth", {"noise_level": float("inf")}),
        ("synth", {"noise_level": 10**400}),
        ("synth", {"height": 2**62, "width": 2**62}),
        ("train", "nan"),
        ("train", "inf"),
    ],
    ids=["noise-nan", "noise-inf", "noise-int-overflows-float", "scene-too-large",
         "learning-rate-nan", "learning-rate-inf"],
)
def test_non_finite_and_oversized_numbers_exit_two(command, value, tmp_path, workspace, capsys):
    outputs = [tmp_path / "s.hsv2", tmp_path / "s.pgm", tmp_path / "s.ckpt", tmp_path / "s.jsonl"]
    if command == "synth":
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(_spec_with(lambda d: d.update(value))))
        argv = ["synth", "--spec", str(spec), "--cube", str(outputs[0]), "--mask", str(outputs[1])]
    else:
        argv = ["train", "--manifest", str(workspace / "manifest.json"), "--out", str(outputs[2]),
                "--log", str(outputs[3]), "--learning-rate", value]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not any(output.exists() for output in outputs)


@pytest.mark.parametrize(
    "command, flags",
    [
        ("synth", ["--seed", "-1"]),
        ("train", ["--seed", "-1"]),
        ("gradcheck", ["--seed", "-1"]),
        ("gradcheck", ["--samples", "0"]),
        ("gradcheck", ["--samples", "-3"]),
    ],
    ids=["synth-seed", "train-seed", "gradcheck-seed", "gradcheck-no-samples",
         "gradcheck-negative-samples"],
)
def test_negative_seed_or_empty_audit_exits_two_before_any_work(command, flags, tmp_path, workspace, capsys):
    out = tmp_path / "out"
    argv = {
        "synth": ["synth", "--preset", "training-demo", "--cube", str(out),
                  "--mask", str(tmp_path / "s.pgm")],
        "train": ["train", "--manifest", str(workspace / "manifest.json"), "--out", str(out),
                  "--log", str(tmp_path / "s.jsonl")],
        "gradcheck": ["gradcheck", "--report", str(out)],
    }[command]
    assert main(argv + flags) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error: ")
    assert not list(tmp_path.iterdir())


# a model config that fits the workspace's 8x32x32 cubes
_FITTING = {"encoder": {"bands": 8, "heads": 1, "blocks": 1}, "stem_stride": 1}


@pytest.mark.parametrize(
    "command, flags, model",
    [
        # constructs, but check_cube refuses the 32x32 cube before a model is built
        ("infer", [], {"encoder": {"bands": 8}, "stem_stride": 2**40}),
        ("train", [], {"encoder": {"bands": 8}, "stem_stride": 2**40}),
        ("infer", [], {**_FITTING, "decoder": {"attention_width": 2**40}}),
        ("train", [], {**_FITTING, "decoder": {"attention_width": 1025}}),
        ("infer", [], {**_FITTING, "encoder": {"bands": 8, "heads": 1, "blocks": 65}}),
        ("train", [], {**_FITTING, "encoder": {"bands": 8, "heads": 1, "blocks": 2**40}}),
        ("infer", [], {**_FITTING, "decoder": {"grid": 512}}),
        ("train", [], {**_FITTING, "decoder": {"grid": 64}}),
        ("stats", ["--grid", "0"], None),
        ("stats", ["--grid", "10000000000"], None),
    ],
    ids=["infer-config-size", "train-config-size", "infer-attention-width",
         "train-attention-width", "infer-encoder-blocks", "train-encoder-blocks",
         "infer-decoder-grid", "train-decoder-grid",
         "stats-grid-zero", "stats-grid-huge"],
)
def test_oversized_or_invalid_settings_exit_two_writing_nothing(command, flags, model, tmp_path, workspace, capsys):
    # infer reads the config from the sidecar next to a copied checkpoint
    checkpoint = tmp_path / "model.ckpt"
    checkpoint.write_bytes((workspace / "model.ckpt").read_bytes())
    config = tmp_path / "model.ckpt.json"
    config.write_text(json.dumps(model))
    out = tmp_path / "out"
    argv = {
        "infer": ["infer", "--cube", str(workspace / "scene1.hsv2"),
                  "--checkpoint", str(checkpoint),
                  "--out", str(out / "p.pgm"), "--float-out", str(out / "p.f32")],
        "train": ["train", "--manifest", str(workspace / "manifest.json"),
                  "--model-config", str(config), "--steps", "1",
                  "--out", str(out / "m.ckpt"), "--log", str(out / "m.jsonl")],
        "stats": ["stats", "--manifest", str(workspace / "manifest.json"), "--out-dir", str(out)],
    }[command]
    assert main(argv + flags) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "Traceback" not in err
    assert not out.exists()
