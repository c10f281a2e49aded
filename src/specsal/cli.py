"""Batch command-line surface tying the pipeline together.

Exit codes: 0 success, 1 usage error, 2 data error (bad files, formats,
shapes, configs), 3 numeric failure (non-finite values, failed gradient
audit). Outputs are written atomically (temp file + rename) and contain no
timestamps, so reruns with identical inputs and seeds are byte-identical.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import math
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .baselines import BASELINES
from .checkpoint import apply_state, load_checkpoint, model_state, save_checkpoint
from .configio import load_json_document, model_config_from_dict, model_config_to_dict
from .cube import calibrate, pseudo_color, read_cube, write_cube
from .exceptions import (
    ConfigError,
    DataError,
    ManifestError,
    MetricInputError,
    NumericError,
    ShapeError,
)
from .imageio import (
    read_float_map,
    read_pgm,
    write_float_map,
    write_pgm,
    write_ppm,
    write_text_atomic,
)
from .manifest import (
    attribute_histogram,
    centroid_heatmap,
    foreground_scale_bins,
    load_manifest,
    resolve_path,
)
from .masks import read_mask, write_mask
from .metrics import MetricReport, attribute_eval, evaluate_pair
from .model import SaliencyModel, demo_model_config
from .scenes import (
    color_similar_scene_spec,
    reconstruction_demo_scene_spec,
    scene_spec_from_dict,
    synth_scene,
    training_demo_scene_spec,
)
from .training import (
    GRADCHECK_TOLERANCE,
    TrainConfig,
    failing_groups,
    grad_check_suite,
    tiny_model_audit,
    train_loop,
)

SCENE_PRESETS = {
    "color-similar": color_similar_scene_spec,
    "training-demo": training_demo_scene_spec,
    "reconstruction-demo": reconstruction_demo_scene_spec,
}


def _write_json(doc, path) -> None:
    write_text_atomic(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _saliency_to_pgm(values: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(values)):
        raise NumericError("saliency map contains non-finite values")
    return np.round(255.0 * np.clip(values, 0.0, 1.0)).astype(np.uint8)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_synth(args) -> int:
    if args.spec is not None:
        spec = scene_spec_from_dict(load_json_document(args.spec))
    else:
        spec = SCENE_PRESETS[args.preset]()
    cube, mask = synth_scene(spec, args.seed)
    write_cube(cube, args.cube)
    write_mask(mask, args.mask)
    if args.preview is not None:
        write_ppm(pseudo_color(cube), args.preview)
    print(f"synth: {cube.bands}x{cube.height}x{cube.width} cube -> {args.cube}, mask -> {args.mask}")
    return 0


def _cmd_pseudocolor(args) -> int:
    write_ppm(pseudo_color(read_cube(args.cube)), args.out)
    print(f"pseudocolor: {args.cube} -> {args.out}")
    return 0


def _cmd_calibrate(args) -> int:
    corrected = calibrate(read_cube(args.raw), read_cube(args.dark), read_cube(args.white))
    write_cube(corrected, args.out)
    print(f"calibrate: {args.raw} -> {args.out}")
    return 0


def _cmd_baseline(args) -> int:
    cube = read_cube(args.cube)
    with np.errstate(over="ignore", invalid="ignore"):  # float32 overflow: exit 3 below
        saliency = BASELINES[args.method](cube)
    write_pgm(_saliency_to_pgm(saliency), args.out)
    if args.float_out is not None:
        write_float_map(saliency, args.float_out)
    print(f"baseline {args.method}: {args.cube} -> {args.out}")
    return 0


def _cmd_infer(args) -> int:
    config = model_config_from_dict(load_json_document(f"{args.checkpoint}.json"))
    cube = read_cube(args.cube)
    config.check_cube(cube.data.shape)  # before any model is built
    model = SaliencyModel(None, config)  # every weight comes from the checkpoint
    apply_state(model, load_checkpoint(args.checkpoint))
    with np.errstate(over="ignore", invalid="ignore"):  # float32 overflow: exit 3 below
        saliency = model(cube.data).saliency_map()
    write_pgm(_saliency_to_pgm(saliency), args.out)
    if args.float_out is not None:
        write_float_map(saliency, args.float_out)
    print(f"infer: {args.cube} -> {args.out}")
    return 0


def _split_entries(manifest, manifest_path, split):
    entries = manifest.by_split(split)
    if not entries:
        raise ManifestError(f"{manifest_path}: no entries in split {split!r}")
    return entries


def _load_examples(manifest, manifest_path, split):
    examples = []
    for entry in _split_entries(manifest, manifest_path, split):
        cube = read_cube(resolve_path(manifest_path, entry.cube))
        mask = read_mask(resolve_path(manifest_path, entry.mask))
        if mask.shape != (cube.height, cube.width):
            raise ShapeError(
                f"entry {entry.id}: mask {mask.shape} does not cover cube "
                f"{(cube.height, cube.width)}"
            )
        examples.append((entry, cube, mask))
    return examples


def _cmd_train(args) -> int:
    config = TrainConfig(args.seed, args.steps, args.learning_rate)
    manifest = load_manifest(args.manifest)
    examples = _load_examples(manifest, args.manifest, args.split)
    model_config = (
        model_config_from_dict(load_json_document(args.model_config))
        if args.model_config
        else demo_model_config(bands=examples[0][1].bands)
    )
    for entry, cube, _ in examples:  # every cube, before any model is built
        try:
            model_config.check_cube(cube.data.shape)
        except ShapeError as err:
            raise ShapeError(f"entry {entry.id}: {err}") from err
    model = SaliencyModel(np.random.default_rng(config.seed), model_config)
    log = io.StringIO()
    reports = train_loop(
        model,
        [(cube.data, mask.astype(np.float64)) for _, cube, mask in examples],
        config,
        log_stream=log,
    )
    save_checkpoint(model_state(model), args.out)
    _write_json(model_config_to_dict(model_config), str(args.out) + ".json")
    write_text_atomic(args.log, log.getvalue())
    print(
        f"train: {len(examples)} scene(s), {config.steps} steps, "
        f"loss {reports[0].total:.6f} -> {reports[-1].total:.6f}, checkpoint {args.out}"
    )
    return 0


def _prediction_for(entry, pred_dir):
    pred_dir = Path(pred_dir)
    float_path, pgm_path = pred_dir / f"{entry.id}.f32", pred_dir / f"{entry.id}.pgm"
    if float_path.exists():
        return read_float_map(float_path)
    if pgm_path.exists():
        return read_pgm(pgm_path).astype(np.float64) / 255.0
    raise ManifestError(f"no prediction for entry {entry.id}: tried {float_path} and {pgm_path}")


def _cmd_eval(args) -> int:
    manifest = load_manifest(args.manifest)
    scored = []
    for entry in _split_entries(manifest, args.manifest, args.split):
        mask = read_mask(resolve_path(args.manifest, entry.mask))
        prediction = _prediction_for(entry, args.pred_dir)
        try:
            scored.append((entry, evaluate_pair(prediction, mask.astype(np.float64))))
        except (MetricInputError, ShapeError) as err:
            raise type(err)(f"entry {entry.id}: {err}") from err

    sliced = attribute_eval([(entry.attributes, report) for entry, report in scored])
    doc = {
        "split": args.split,
        "count": len(scored),
        "overall": sliced["all"].to_dict(),
        "per_image": {entry.id: report.to_dict() for entry, report in scored},
    }
    rows = [("all", sliced["all"])]
    if args.attributes:
        doc["per_attribute"] = {
            name: report.to_dict() for name, report in sliced.items() if name != "all"
        }
        rows.extend((name, report) for name, report in sliced.items() if name != "all")
    _write_json(doc, args.out)
    if args.csv is not None:
        lines = ["slice," + ",".join(MetricReport.COLUMNS)]
        for name, report in rows:
            cells = [
                "" if getattr(report, column) is None else f"{getattr(report, column):.6f}"
                for column in MetricReport.COLUMNS
            ]
            lines.append(name + "," + ",".join(cells))
        write_text_atomic(args.csv, "\n".join(lines) + "\n")
    print(f"eval: {len(scored)} image(s), report {args.out}")
    return 0


def _cmd_stats(args) -> int:
    manifest = load_manifest(args.manifest)
    out_dir = Path(args.out_dir)

    # every table is computed before the first file is written
    counts = attribute_histogram(manifest)
    bins = foreground_scale_bins(manifest, args.manifest)
    heat = centroid_heatmap(manifest, args.grid, args.manifest)

    attribute_lines = ["attribute,count"] + [f"{name},{counts[name]}" for name in sorted(counts)]
    write_text_atomic(out_dir / "attributes.csv", "\n".join(attribute_lines) + "\n")
    bin_lines = ["low,high,count"] + [f"{lo},{hi},{n}" for lo, hi, n in bins]
    write_text_atomic(out_dir / "scale_bins.csv", "\n".join(bin_lines) + "\n")
    heat_lines = ["row,col,count"] + [
        f"{row},{col},{heat[row, col]}"
        for row in range(args.grid)
        for col in range(args.grid)
    ]
    write_text_atomic(out_dir / "centroid_counts.csv", "\n".join(heat_lines) + "\n")
    peak = heat.max()
    rendered = (
        np.round(255.0 * heat / peak).astype(np.uint8)
        if peak > 0
        else np.zeros_like(heat, dtype=np.uint8)
    )
    write_pgm(rendered, out_dir / "centroid_heatmap.pgm")
    print(f"stats: {len(manifest)} entries -> {out_dir}")
    return 0


def _cmd_gradcheck(args) -> int:
    if args.samples < 1:
        raise ConfigError(f"--samples must be >= 1, got {args.samples}")
    model, loss_builder = tiny_model_audit(args.seed)
    reports = grad_check_suite(model.named_parameters(), loss_builder,
                               samples_per_group=args.samples, seed=args.seed)
    for report in reports:
        print(
            f"{report.group}: checked {report.checked}, max rel error "
            f"{report.max_rel_error:.3e} ({report.worst_parameter} @ {report.worst_index})"
        )
    if args.report is not None:
        groups = {r.group: {k: v for k, v in asdict(r).items() if k != "group"} for r in reports}
        for group in groups.values():  # standard JSON has no inf: a failed difference is null
            if not math.isfinite(group["max_rel_error"]):
                group["max_rel_error"] = None
        _write_json({"tolerance": GRADCHECK_TOLERANCE, "groups": groups}, args.report)
    failed = failing_groups(reports, GRADCHECK_TOLERANCE)
    if failed:
        names = ", ".join(r.group for r in failed)
        raise NumericError(f"gradient audit over tolerance {GRADCHECK_TOLERANCE}: {names}")
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="specsal",
        description="Hyperspectral salient-object detection toolkit (desk scale).",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    synth = commands.add_parser("synth", help="render a synthetic scene to cube + mask")
    source = synth.add_mutually_exclusive_group(required=True)
    source.add_argument("--spec", type=Path, help="scene specification JSON")
    source.add_argument("--preset", choices=sorted(SCENE_PRESETS), help="built-in scene")
    synth.add_argument("--seed", type=int, default=0)
    synth.add_argument("--cube", type=Path, required=True)
    synth.add_argument("--mask", type=Path, required=True)
    synth.add_argument("--preview", type=Path, help="optional pseudo-color PPM")

    pseudo = commands.add_parser("pseudocolor", help="render a cube to a pseudo-color PPM")
    pseudo.add_argument("--cube", type=Path, required=True)
    pseudo.add_argument("--out", type=Path, required=True)

    cal = commands.add_parser("calibrate", help="dark/white reflectance calibration")
    cal.add_argument("--raw", type=Path, required=True)
    cal.add_argument("--dark", type=Path, required=True)
    cal.add_argument("--white", type=Path, required=True)
    cal.add_argument("--out", type=Path, required=True)

    base = commands.add_parser("baseline", help="classical spectral saliency map")
    base.add_argument("--method", choices=sorted(BASELINES), required=True)
    base.add_argument("--cube", type=Path, required=True)
    base.add_argument("--out", type=Path, required=True, help="8-bit PGM saliency map")
    base.add_argument("--float-out", type=Path, help="raw float sidecar for exact evaluation")

    infer = commands.add_parser("infer", help="run a trained model on a cube")
    infer.add_argument("--cube", type=Path, required=True)
    infer.add_argument("--checkpoint", type=Path, required=True)
    infer.add_argument("--out", type=Path, required=True)
    infer.add_argument("--float-out", type=Path)

    train = commands.add_parser("train", help="train on a manifest's split")
    train.add_argument("--manifest", type=Path, required=True)
    train.add_argument("--out", type=Path, required=True, help="checkpoint path")
    train.add_argument("--log", type=Path, required=True, help="JSONL loss log")
    train.add_argument("--split", default="train", choices=("train", "test", "all"))
    train.add_argument("--model-config", type=Path, help="model config JSON")
    train.add_argument("--seed", type=int, default=TrainConfig.seed, help="weight-init seed")
    train.add_argument("--steps", type=int, default=TrainConfig.steps, help="optimizer updates")
    train.add_argument("--learning-rate", type=float, default=TrainConfig.learning_rate,
                       help="Adam step size, positive and finite")

    evaluate = commands.add_parser("eval", help="score predictions against a manifest")
    evaluate.add_argument("--manifest", type=Path, required=True)
    evaluate.add_argument("--pred-dir", type=Path, required=True)
    evaluate.add_argument("--split", default="test", choices=("train", "test", "all"))
    evaluate.add_argument("--attributes", action="store_true", help="add per-attribute slices")
    evaluate.add_argument("--out", type=Path, required=True)
    evaluate.add_argument("--csv", type=Path, help="optional CSV table of the slices")

    stats = commands.add_parser("stats", help="dataset statistics tables and heatmap")
    stats.add_argument("--manifest", type=Path, required=True)
    stats.add_argument("--out-dir", type=Path, required=True)
    stats.add_argument("--grid", type=int, default=4)

    grad = commands.add_parser("gradcheck", help="finite-difference audit of the tiny model")
    grad.add_argument("--seed", type=int, default=0)
    grad.add_argument("--samples", type=int, default=20, help="scalars sampled per group")
    grad.add_argument("--report", type=Path, help="optional JSON report path")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser, built on first use; parsing leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # argparse already printed usage or help
        return 0 if exc.code in (0, None) else 1
    try:
        if getattr(args, "seed", 0) < 0:
            raise ConfigError(f"--seed must be >= 0, got {args.seed}")
        return globals()[f"_cmd_{args.command}"](args)
    except NumericError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except (DataError, ShapeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
