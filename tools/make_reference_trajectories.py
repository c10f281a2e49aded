"""Regenerate the committed seeded loss trajectories under tests/reference/.

This tool is the one definition of those runs: the test suite loads it by
file path (tests/conftest.py), runs each once per session and compares the
result with these files bit-exactly, so any change to initialization order,
optimizer math, the loss graph or the demo model's size shows up as a diff
here. Floats are stored as hex strings to survive JSON round trips without
rounding. The demo file also records the demo model's parameter count and the
tape records one seeded forward pass plus loss of a fresh demo model keeps.

Before overwriting a committed file, the tool prints the largest relative
drift of each column from it, and the old and new parameter count and tape
record count when those changed, so a deliberate numeric or structural change
can report how far the trajectories moved and how the model's size and its
step's tape changed.

Run from the repository root:

    python3 tools/make_reference_trajectories.py
"""

import json
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))  # the checkout's specsal, installed or not

from specsal.losses import compute_losses  # noqa: E402
from specsal.model import EncoderConfig, SaliencyModel, SpectralEncoder, demo_model_config  # noqa: E402
from specsal.scenes import (  # noqa: E402
    reconstruction_demo_scene_spec,
    synth_scene,
    training_demo_scene_spec,
)
from specsal.tensor import Tape  # noqa: E402
from specsal.training import TrainConfig, fit_reconstruction, train_loop  # noqa: E402

REFERENCE_DIR = ROOT / "tests" / "reference"


class TrainingDemoRun(NamedTuple):
    cube: np.ndarray  # (bands, H, W) values
    mask: np.ndarray  # (H, W) float64
    model: SaliencyModel  # after the last update
    reports: list  # one LossReport per step, before its update


def training_demo_run() -> TrainingDemoRun:
    """The seeded 100-step demo run: scene 0 and model 0 under TrainConfig(seed=0)."""
    cube, mask = synth_scene(training_demo_scene_spec(), seed=0)
    mask = mask.astype(np.float64)
    model = SaliencyModel(np.random.default_rng(0), demo_model_config())
    reports = train_loop(model, [(cube.data, mask)], TrainConfig(seed=0, steps=100))
    return TrainingDemoRun(cube.data, mask, model, reports)


def demo_step_tape_records(run: TrainingDemoRun) -> int:
    """Records a Tape keeps for one forward pass plus loss of a fresh model 0 on the run's scene."""
    model = SaliencyModel(np.random.default_rng(0), demo_model_config())
    with Tape() as tape:
        compute_losses(model(run.cube), run.cube, run.mask)
    return len(tape)


def training_demo_trajectory(run: TrainingDemoRun) -> dict:
    """The committed form of a training demo run: its model and step sizes and loss reports."""
    reports = run.reports
    return {
        "scene": "training-demo",
        "scene_seed": 0,
        "model_seed": 0,
        "parameter_scalars": sum(p.data.size for p in run.model.parameters_by_name.values()),
        "tape_records": demo_step_tape_records(run),
        "steps": len(reports),
        "columns": {
            "L_s": [r.reconstruction.hex() for r in reports],
            "L_sod": [r.saliency.hex() for r in reports],
            "L_g": [r.global_guidance.hex() for r in reports],
            "L_m": [r.total.hex() for r in reports],
        },
    }


def reconstruction_demo_trajectory() -> dict:
    cube, _ = synth_scene(reconstruction_demo_scene_spec(), seed=0)
    encoder = SpectralEncoder(np.random.default_rng(0), EncoderConfig())
    history = fit_reconstruction(encoder, cube.data, steps=200)
    return {
        "scene": "reconstruction-demo",
        "scene_seed": 0,
        "encoder_seed": 0,
        "steps": 200,
        "loss": [value.hex() for value in history],
    }


def _columns(doc: dict) -> dict:
    return doc["columns"] if "columns" in doc else {"loss": doc["loss"]}


def largest_drift(old: dict, new: dict) -> dict:
    """Per column, the largest |new - old| / |old| over all steps (None: lengths differ)."""
    drift = {}
    old_columns = _columns(old)
    for name, values in _columns(new).items():
        before = [float.fromhex(v) for v in old_columns.get(name, [])]
        after = [float.fromhex(v) for v in values]
        if len(before) != len(after):
            drift[name] = None
            continue
        drift[name] = max(
            (abs(a - b) / abs(b) if b else abs(a - b) for a, b in zip(after, before)),
            default=0.0,
        )
    return drift


def main() -> None:
    REFERENCE_DIR.mkdir(parents=True, exist_ok=True)
    for name, build in (
        ("training_demo", lambda: training_demo_trajectory(training_demo_run())),
        ("reconstruction_demo", reconstruction_demo_trajectory),
    ):
        doc = build()
        path = REFERENCE_DIR / f"{name}.json"
        if path.exists():
            old = json.loads(path.read_text())
            drift = largest_drift(old, doc)
            cells = ", ".join(
                f"{column} {'length changed' if value is None else f'{value:.3g}'}"
                for column, value in drift.items()
            )
            for key in ("parameter_scalars", "tape_records"):
                if old.get(key) != doc.get(key):
                    cells += f"; {key} {old.get(key)} -> {doc.get(key)}"
            print(f"{name}: largest relative drift from the committed file: {cells}")
        path.write_text(json.dumps(doc, indent=2) + "\n")
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
