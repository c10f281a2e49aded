"""Independent checks of what the CLI wrote.

The benchmark parses the output files with its own readers and compares them
with a library forward pass (for saliency maps) or with brute-force metric
recomputations (for eval reports), so a fast but wrong program fails here.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from specsal.checkpoint import apply_state, load_checkpoint
from specsal.configio import model_config_from_dict
from specsal.cube import read_cube
from specsal.model import SaliencyModel

# Brute-force sums run in another order than numpy's, so "equal" allows the
# last few bits to differ and nothing more.
REL_TOL = 1e-9
ABS_TOL = 1e-12


def parse_pgm(data: bytes) -> np.ndarray:
    """Decode the exact P5 layout the CLI writes: 'P5\\n<w> <h>\\n255\\n' + pixels."""
    magic, size, maxval, pixels = data.split(b"\n", 3)
    width, height = (int(v) for v in size.split())
    if magic != b"P5" or maxval != b"255" or len(pixels) != width * height:
        raise ValueError("not an 8-bit P5 image of the declared size")
    return np.frombuffer(pixels, dtype=np.uint8).reshape(height, width)


def parse_float_map(data: bytes) -> np.ndarray:
    height, width = np.frombuffer(data[:8], dtype="<u4")
    values = np.frombuffer(data[8:], dtype="<f4")
    if values.size != int(height) * int(width):
        raise ValueError("float map payload does not match its header")
    return values.reshape(int(height), int(width)).astype(np.float64)


def expected_pgm(saliency: np.ndarray) -> bytes:
    h, w = saliency.shape
    pixels = np.round(255.0 * np.clip(saliency, 0.0, 1.0)).astype(np.uint8)
    return f"P5\n{w} {h}\n255\n".encode("ascii") + pixels.tobytes()


def expected_float_map(saliency: np.ndarray) -> bytes:
    h, w = saliency.shape
    return np.array([h, w], dtype="<u4").tobytes() + saliency.astype("<f4").tobytes()


def library_saliency(checkpoint: Path, cube: Path) -> np.ndarray:
    """Saliency map from the library's own forward pass of a checkpoint."""
    config_path = Path(str(checkpoint) + ".json")
    config = model_config_from_dict(json.loads(config_path.read_text()))
    model = SaliencyModel(np.random.default_rng(0), config)
    apply_state(model, load_checkpoint(checkpoint))
    return model(read_cube(cube).data).saliency_map()


def brute_mae(pred: np.ndarray, gt: np.ndarray) -> float:
    return math.fsum(abs(p - g) for p, g in zip(pred.ravel().tolist(), gt.ravel().tolist())) / pred.size


def brute_auc(pred: np.ndarray, gt: np.ndarray) -> float:
    """Share of (positive, negative) pixel pairs ranked correctly, ties counting half."""
    positives = pred[gt == 1]
    negatives = pred[gt == 0]
    doubled_wins = 0
    for start in range(0, positives.size, 256):
        chunk = positives[start : start + 256, None]
        doubled_wins += 2 * int((chunk > negatives[None, :]).sum())
        doubled_wins += int((chunk == negatives[None, :]).sum())
    return doubled_wins / (2.0 * positives.size * negatives.size)


def brute_cc(pred: np.ndarray, gt: np.ndarray) -> float:
    p, g = pred.ravel().tolist(), gt.ravel().tolist()
    mean_p, mean_g = math.fsum(p) / len(p), math.fsum(g) / len(g)
    dp = [v - mean_p for v in p]
    dg = [v - mean_g for v in g]
    cross = math.fsum(a * b for a, b in zip(dp, dg))
    return cross / math.sqrt(math.fsum(a * a for a in dp) * math.fsum(b * b for b in dg))


def check_eval_report(report: dict, predictions: dict, masks: dict) -> list:
    """Problems with an eval JSON's per-image MAE, AUC and CC, compared with brute force."""
    problems = []
    per_image = report.get("per_image", {})
    if set(per_image) != set(predictions) or report.get("count") != len(predictions):
        return [f"eval report covers {sorted(per_image)}, expected {sorted(predictions)}"]
    for image_id, pred in predictions.items():
        gt = masks[image_id]
        for key, oracle in (("mae", brute_mae), ("auc", brute_auc), ("cc", brute_cc)):
            got, want = per_image[image_id].get(key), oracle(pred, gt)
            if got is None or not math.isclose(got, want, rel_tol=REL_TOL, abs_tol=ABS_TOL):
                problems.append(f"{image_id}: eval {key} {got!r} != brute force {want!r}")
    return problems
