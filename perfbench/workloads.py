"""The three workloads: inputs rendered from the workload seed, the CLI calls
timed in the measured loop, and the checks on every output they write.

Each workload drives ``specsal.cli.main`` in process as one closed-loop
client: a call starts only after the previous one returned. An iteration
rewrites the same output files, so after the first one is verified every
later one (traced or not) must reproduce it byte for byte.
"""

from __future__ import annotations

import json
import math
import statistics
from pathlib import Path

import numpy as np

from specsal.checkpoint import model_state, save_checkpoint
from specsal.configio import model_config_to_dict
from specsal.model import SaliencyModel, default_model_config

from spans import percentile_ms
from oracles import (
    check_eval_report,
    expected_float_map,
    expected_pgm,
    library_saliency,
    parse_float_map,
    parse_pgm,
)


def _scene_seed(seed: int, index: int) -> int:
    """Seed of the index-th extra scene; distinct from every workload seed's own."""
    return (seed + 1) * 1000 + index


def _synth(h, preset: str, seed: int, stem: Path) -> None:
    h.setup_call(["synth", "--preset", preset, "--seed", seed,
                  "--cube", stem.with_suffix(".cube"), "--mask", stem.with_suffix(".pgm")])


def _write_manifest(path: Path, ids, directory: str, split: str, attributes=()) -> None:
    entries = [
        {"id": i, "cube": f"{directory}/{i}.cube", "mask": f"{directory}/{i}.pgm",
         "split": split, "attributes": list(attributes)}
        for i in ids
    ]
    path.write_text(json.dumps({"entries": entries}, indent=2) + "\n")


# On a 2-core shared VM, speed swings about 1.5x for seconds to minutes at a
# time, whatever runs on it: over ten 40-second runs there, whole-run medians
# spread 20-45 % between runs. Timings are therefore read from the run's
# fastest stretch, as timeit reads its minimum: the samples of one kind are
# cut, in order, into about WINDOWS windows, and the sixteenth of the windows
# with the lowest median time per unit of work is pooled.
WINDOWS = 128
KEEP_SHARE = 1 / 16
# The fastest stretch holds too few samples for a steady 90th percentile, so
# the tail is measured over the whole run instead: each call time is divided
# by the median of its window of TAIL_WINDOW consecutive calls, which cancels
# the slow swings, and the p90 of those ratios scales the fastest-stretch p50.
TAIL_WINDOW = 8


def fastest_stretch(samples):
    """The pooled (seconds, count) samples of the fastest sixteenth of the windows."""
    size = max(1, len(samples) // WINDOWS)
    windows = [samples[i : i + size] for i in range(0, len(samples) - size + 1, size)]
    windows.sort(key=lambda window: statistics.median(s / n for s, n in window))
    return [sample for window in windows[: math.ceil(len(windows) * KEEP_SHARE)] for sample in window]


def rate(samples) -> float:
    """Work done per second of call time over the fastest stretch."""
    pooled = fastest_stretch(samples)
    return sum(n for _, n in pooled) / sum(s for s, _ in pooled) if pooled else 0.0


def latency_ms(samples, q: int) -> float:
    """q-th percentile call time, in ms, over the fastest stretch."""
    return percentile_ms([s for s, _ in fastest_stretch(samples)], q)


def tail_ratio(samples, q: int) -> float:
    """q-th percentile of call times relative to the median of their own window."""
    size = max(1, min(TAIL_WINDOW, len(samples)))
    ratios = []
    for i in range(0, len(samples) - size + 1, size):
        window = [s / n for s, n in samples[i : i + size]]
        middle = statistics.median(window)
        ratios += [t / middle for t in window]
    return percentile_ms(ratios, q) / 1000.0


def _latencies_ms(samples):
    p50 = latency_ms(samples, 50)
    return p50, p50 * tail_ratio(samples, 90)


def _mask(path: Path) -> np.ndarray:
    return (parse_pgm(path.read_bytes()) == 255).astype(np.float64)


class TrainDemo:
    """`train` on one training-demo scene, then `infer` and `eval` on held-out scenes.

    Tape recording and backward dominate. The PGM maps hold at most 256
    distinct values, which keeps the metric midrank loop short.
    """

    name = "train-demo"
    unit_span = "training.step"
    cycle = 1
    steps = 10
    heldout = 16
    reference = Path(__file__).resolve().parent.parent / "tests" / "reference" / "training_demo.json"

    def __init__(self, seed: int):
        self.seed = seed
        self.quality = {}
        self.ids = [f"h{k:02d}" for k in range(self.heldout)]

    def setup(self, h, directory: Path) -> None:
        (directory / "train").mkdir(parents=True)
        (directory / "heldout").mkdir()
        _synth(h, "training-demo", self.seed, directory / "train" / "scene")
        for k, image_id in enumerate(self.ids):
            _synth(h, "training-demo", _scene_seed(self.seed, k), directory / "heldout" / image_id)
        _write_manifest(directory / "train.json", ["scene"], "train", "train")
        _write_manifest(directory / "heldout.json", self.ids, "heldout", "test")

    def iteration(self, h, index: int, out: Path):
        inputs = h.inputs
        checkpoint = out / "model.ck"
        (out / "pred").mkdir(parents=True, exist_ok=True)
        h.timed("train", ["train", "--manifest", inputs / "train.json", "--out", checkpoint,
                          "--log", out / "train.jsonl", "--seed", self.seed,
                          "--steps", self.steps], count=self.steps)
        for image_id in self.ids:
            h.timed("infer", ["infer", "--cube", inputs / "heldout" / f"{image_id}.cube",
                              "--checkpoint", checkpoint, "--out", out / "pred" / f"{image_id}.pgm"])
        h.timed("eval", ["eval", "--manifest", inputs / "heldout.json", "--pred-dir", out / "pred",
                         "--out", out / "eval.json"], count=len(self.ids))
        return [out / "train.jsonl", checkpoint, Path(f"{checkpoint}.json")] + [
            out / "pred" / f"{image_id}.pgm" for image_id in self.ids
        ] + [out / "eval.json"]

    def verify(self, h, path: Path, data: bytes):
        if path.name == "train.jsonl":
            return self._check_log(data)
        if path.suffix == ".pgm":
            cube = h.inputs / "heldout" / f"{path.stem}.cube"
            saliency = library_saliency(path.parent.parent / "model.ck", cube)
            return [] if data == expected_pgm(saliency) else [f"{path.name} differs from a library forward"]
        if path.name == "eval.json":
            report = json.loads(data)
            self.quality = report["overall"]
            predictions = {
                i: parse_pgm((path.parent / "pred" / f"{i}.pgm").read_bytes()) / 255.0 for i in self.ids
            }
            masks = {i: _mask(h.inputs / "heldout" / f"{i}.pgm") for i in self.ids}
            return check_eval_report(report, predictions, masks)
        return []

    def _check_log(self, data: bytes):
        rows = [json.loads(line) for line in data.decode().splitlines()]
        losses = [row["L_m"] for row in rows]
        if [row["step"] for row in rows] != list(range(1, self.steps + 1)):
            return [f"train log has steps {[row['step'] for row in rows][:3]}..., expected 1..{self.steps}"]
        if not all(math.isfinite(v) for row in rows for v in row.values()):
            return ["train log holds a non-finite loss"]
        if self.seed == 0:
            reference = json.loads(self.reference.read_text())["columns"]["L_m"]
            drift = [i + 1 for i, (got, want) in enumerate(zip(losses, reference))
                     if got.hex() != want]
            return [f"L_m differs from {self.reference.name} at steps {drift[:5]}"] if drift else []
        return [] if losses[-1] < losses[0] else [f"L_m rose from {losses[0]} to {losses[-1]}"]

    def result(self, samples):
        steps_per_s = rate(samples["train"])
        p50, p90 = _latencies_ms(samples["infer"])
        return {
            "throughput_per_s": steps_per_s,
            "latency_ms_p50": p50,
            "latency_ms_p90": p90,
        }, {
            "train_steps_per_s": (steps_per_s, "1/s"),
            "heldout_mae": (self.quality.get("mae"), "1"),
            "heldout_avg_f1": (self.quality.get("avg_f1"), "1"),
            "infer_ms_p50": (p50, "ms"),
            "infer_ms_p90": (p90, "ms"),
            "eval_images_per_s": (rate(samples["eval"]), "1/s"),
        }


class InferSpectral:
    """Repeated `infer --float-out` on color-similar cubes with a default-config checkpoint.

    Forward only, with no tape active: every call pays for config load, model
    construction, checkpoint load and the full 64x64 spectral encoder.
    """

    name = "infer-spectral"
    unit_span = "bench.infer_call"
    cubes = 8
    cycle = cubes

    def __init__(self, seed: int):
        self.seed = seed
        self.expected = {}
        self.ids = [f"c{k}" for k in range(self.cubes)]

    def setup(self, h, directory: Path) -> None:
        (directory / "cubes").mkdir(parents=True)
        for k, image_id in enumerate(self.ids):
            _synth(h, "color-similar", _scene_seed(self.seed, k), directory / "cubes" / image_id)
        config = default_model_config()
        model = SaliencyModel(np.random.default_rng(self.seed), config)
        save_checkpoint(model_state(model), directory / "model.ck")
        (directory / "model.ck.json").write_text(
            json.dumps(model_config_to_dict(config), indent=2, sort_keys=True) + "\n"
        )

    def iteration(self, h, index: int, out: Path):
        image_id = self.ids[index % self.cubes]
        pgm, floats = out / f"{image_id}.pgm", out / f"{image_id}.f32"
        h.timed("infer", ["infer", "--cube", h.inputs / "cubes" / f"{image_id}.cube",
                          "--checkpoint", h.inputs / "model.ck", "--out", pgm,
                          "--float-out", floats], unit=True)
        return [pgm, floats]

    def verify(self, h, path: Path, data: bytes):
        if path.stem not in self.expected:
            saliency = library_saliency(h.inputs / "model.ck", h.inputs / "cubes" / f"{path.stem}.cube")
            self.expected[path.stem] = {".pgm": expected_pgm(saliency),
                                        ".f32": expected_float_map(saliency)}
        if data != self.expected[path.stem][path.suffix]:
            return [f"{path.name} differs from a library forward of the checkpoint"]
        return []

    def result(self, samples):
        p50, p90 = _latencies_ms(samples["infer"])
        return {
            "throughput_per_s": rate(samples["infer"]),
            "latency_ms_p50": p50,
            "latency_ms_p90": p90,
        }, {"infer_ms_p50": (p50, "ms"), "infer_ms_p90": (p90, "ms")}


class ScoreBaselines:
    """`baseline` sad/sed/sg with float sidecars, then `eval --attributes --csv` per method.

    Never touches the tensor, nn or model modules: the time goes to cube
    reading, the baselines, image IO and metrics on float maps with about
    4,096 distinct values each.
    """

    name = "score-baselines"
    unit_span = None
    cycle = 1
    methods = ("sad", "sed", "sg")
    scenes = 8

    def __init__(self, seed: int):
        self.seed = seed
        self.ids = [f"s{k}" for k in range(self.scenes)]

    def setup(self, h, directory: Path) -> None:
        (directory / "scenes").mkdir(parents=True)
        for k, image_id in enumerate(self.ids):
            _synth(h, "color-similar", _scene_seed(self.seed, k), directory / "scenes" / image_id)
        _write_manifest(directory / "scenes.json", self.ids, "scenes", "test", ("CS",))

    def iteration(self, h, index: int, out: Path):
        outputs = []
        for method in self.methods:
            preds = out / method
            preds.mkdir(parents=True, exist_ok=True)
            for image_id in self.ids:
                h.timed("baseline", ["baseline", "--method", method,
                                     "--cube", h.inputs / "scenes" / f"{image_id}.cube",
                                     "--out", preds / f"{image_id}.pgm",
                                     "--float-out", preds / f"{image_id}.f32"])
                outputs += [preds / f"{image_id}.pgm", preds / f"{image_id}.f32"]
            h.timed("eval", ["eval", "--manifest", h.inputs / "scenes.json", "--pred-dir", preds,
                             "--attributes", "--out", out / f"eval-{method}.json",
                             "--csv", out / f"eval-{method}.csv"], count=len(self.ids))
            outputs += [out / f"eval-{method}.json", out / f"eval-{method}.csv"]
        return outputs

    def verify(self, h, path: Path, data: bytes):
        if path.suffix != ".json":
            return []
        method = path.stem.removeprefix("eval-")
        predictions = {
            i: parse_float_map((path.parent / method / f"{i}.f32").read_bytes()) for i in self.ids
        }
        masks = {i: _mask(h.inputs / "scenes" / f"{i}.pgm") for i in self.ids}
        return check_eval_report(json.loads(data), predictions, masks)

    def result(self, samples):
        p50, p90 = _latencies_ms(samples["baseline"])
        images_per_s = rate(samples["eval"])
        return {
            "throughput_per_s": images_per_s,
            "latency_ms_p50": p50,
            "latency_ms_p90": p90,
        }, {
            "baseline_ms_p50": (p50, "ms"),
            "baseline_ms_p90": (p90, "ms"),
            "eval_images_per_s": (images_per_s, "1/s"),
        }


WORKLOADS = {w.name: w for w in (TrainDemo, InferSpectral, ScoreBaselines)}
