"""Top-level acceptance gate: one test per release criterion.

Each test restates its criterion in the docstring and checks it end to end
with independent oracles, committed seeded references, or hand-built
fixtures. The seeded reference runs are defined once, in
tools/make_reference_trajectories.py, which tests/conftest.py loads.
Budgets are wall-clock seconds, single process.
"""

import json
import math
import time
from collections import Counter
from pathlib import Path

import numpy as np

from specsal.baselines import luminance_contrast_map, sad_map
from specsal.cli import main
from specsal.cube import read_cube, write_cube
from specsal.manifest import (
    SCALE_BIN_EDGES,
    attribute_histogram,
    centroid_heatmap,
    foreground_scale_bins,
    load_manifest,
)
from specsal.masks import is_small_object, write_mask
from specsal.metrics import average_f1, mae, pearson_cc, roc_auc
from specsal.model import SaliencyModel, tiny_model_config
from specsal.saliency_net import block_ground_truth
from specsal.scenes import color_similar_scene_spec, synth_scene, training_demo_scene_spec
from specsal.tensor import Tensor, pixel_shuffle, pixel_unshuffle, softmax
from specsal.training import grad_check_suite, parameter_group, tiny_model_audit

REFERENCE_DIR = Path(__file__).parent / "reference"


def test_gradient_audit_tiny_model_under_tolerance_and_budget():
    """Tape gradients on the 8x8x8 tiny model agree with central differences
    to a relative error below 1e-4, sampling 20 scalars per parameter family
    (every scalar when a family is smaller), in under 60 seconds."""
    started = time.perf_counter()
    model, loss_builder = tiny_model_audit(0)  # what `specsal gradcheck --seed 0` audits
    reports = grad_check_suite(model.named_parameters(), loss_builder, seed=0)

    census = Counter()
    for name, p in model.named_parameters():
        census[parameter_group(name)] += int(np.asarray(p.data).size)
    checked = {r.group: r for r in reports}
    assert set(checked) == set(census)
    # the attention projection matrices must be audited
    for required in ("attention_projections", "attention_output"):
        assert required in checked
    for group, report in checked.items():
        assert report.checked == min(20, census[group]), group
        assert report.max_rel_error < 1e-4, (group, report.max_rel_error)
    assert time.perf_counter() - started < 60.0


def _brute_mae(pred, gt):
    return math.fsum(abs(float(p) - float(g)) for p, g in zip(pred.ravel(), gt.ravel())) / pred.size


def _brute_average_f1(pred, gt):
    scores = []
    for i in range(1, 256):
        threshold = i / 256.0
        hard = pred >= threshold
        tp = float(np.logical_and(hard, gt == 1).sum())
        predicted = float(hard.sum())
        actual = float((gt == 1).sum())
        precision = tp / predicted if predicted else 1.0
        recall = tp / actual
        scores.append(0.0 if precision + recall == 0 else
                      2 * precision * recall / (precision + recall))
    return math.fsum(scores) / 255.0


def _brute_auc(pred, gt):
    positives = pred[gt == 1].ravel()
    negatives = pred[gt == 0].ravel()
    wins = 0.0
    for p in positives:
        for n in negatives:
            if p > n:
                wins += 1.0
            elif p == n:
                wins += 0.5
    return wins / (positives.size * negatives.size)


def _brute_pearson(pred, gt):
    p = [float(v) for v in pred.ravel()]
    g = [float(v) for v in gt.ravel()]
    n = len(p)
    mp = math.fsum(p) / n
    mg = math.fsum(g) / n
    cov = math.fsum((a - mp) * (b - mg) for a, b in zip(p, g))
    vp = math.fsum((a - mp) ** 2 for a in p)
    vg = math.fsum((b - mg) ** 2 for b in g)
    return cov / math.sqrt(vp * vg)


def test_saliency_metrics_agree_with_brute_force_oracles():
    """On 100 random 8x8 prediction/ground-truth pairs (half quantized to
    force score ties), MAE, threshold-averaged F1, ROC AUC, and Pearson CC
    match independent brute-force implementations within 1e-12."""
    rng = np.random.default_rng(42)
    for trial in range(100):
        while True:
            gt = (rng.random((8, 8)) > 0.7).astype(np.float64)
            if 0 < gt.sum() < gt.size:
                break
        pred = rng.random((8, 8))
        if trial % 2:
            pred = np.round(pred * 8.0) / 8.0
        assert abs(mae(pred, gt) - _brute_mae(pred, gt)) < 1e-12
        assert abs(average_f1(pred, gt) - _brute_average_f1(pred, gt)) < 1e-12
        assert abs(roc_auc(pred, gt) - _brute_auc(pred, gt)) < 1e-12
        assert abs(pearson_cc(pred, gt) - _brute_pearson(pred, gt)) < 1e-12


def test_structural_invariants_suite(tmp_path):
    """Softmax outputs are stochastic, decoder trimaps are per-pixel
    distributions, pixel shuffle/unshuffle round-trips bit-exactly, the
    coarse block ground truth matches a per-cell brute force over every
    single-pixel 8x8 mask for grids 2 and 4, and cube files round-trip
    bit-exactly; all in under 120 seconds."""
    started = time.perf_counter()
    rng = np.random.default_rng(9)

    # softmax stochasticity at several shapes and axes
    for shape, axis in (((5, 7), 1), ((3, 4, 6), 0), ((2, 8), 0)):
        logits = rng.normal(scale=40.0, size=shape)
        probs = softmax(Tensor(logits), axis=axis).data
        assert (probs > 0.0).all()
        np.testing.assert_allclose(probs.sum(axis=axis), 1.0, rtol=0, atol=1e-12)

    # every decoder level but the finest emits a labeling distribution
    config = tiny_model_config()
    model = SaliencyModel(np.random.default_rng(3), config)
    cube = rng.random((config.encoder.bands, 8, 8))
    output = model(cube)
    assert len(output.trimaps) == 3
    for trimap in output.trimaps:
        values = trimap.data
        assert values.shape[0] == 3
        assert (values > 0.0).all() and (values < 1.0).all()
        np.testing.assert_allclose(values.sum(axis=0), 1.0, rtol=0, atol=1e-12)

    # pixel shuffle and unshuffle are mutually inverse, bit for bit
    deep = rng.random((8, 4, 4))
    wide = rng.random((2, 8, 8))
    assert pixel_unshuffle(pixel_shuffle(Tensor(deep), 2), 2).data.tobytes() == deep.tobytes()
    assert pixel_shuffle(pixel_unshuffle(Tensor(wide), 2), 2).data.tobytes() == wide.tobytes()

    # coarse grid ground truth: brute force over all single-pixel masks
    for grid in (2, 4):
        cell = 8 // grid
        for row in range(8):
            for col in range(8):
                mask = np.zeros((8, 8), dtype=np.uint8)
                mask[row, col] = 1
                expected = np.zeros((grid, grid), dtype=np.uint8)
                for r in range(grid):
                    for c in range(grid):
                        block = mask[r * cell:(r + 1) * cell, c * cell:(c + 1) * cell]
                        expected[r, c] = 1 if block.any() else 0
                np.testing.assert_array_equal(block_ground_truth(mask, grid), expected)

    # cube files preserve their 32-bit payload exactly across a round trip
    scene_cube, _ = synth_scene(training_demo_scene_spec(), seed=11)
    first = tmp_path / "first.hsv2"
    second = tmp_path / "second.hsv2"
    write_cube(scene_cube, first)
    write_cube(read_cube(first), second)
    assert first.read_bytes() == second.read_bytes()

    assert time.perf_counter() - started < 120.0


def test_seeded_training_run_halves_loss_and_matches_reference(seeded_demo_run, reference_tool):
    """100 seeded optimizer steps on the 32x32x8 demonstration scene cut the
    merged loss below half its initial value, and the full four-column loss
    trajectory is bit-identical to the committed reference; under 5 minutes."""
    run, seconds = seeded_demo_run
    assert len(run.reports) == 100
    assert run.reports[-1].total < 0.5 * run.reports[0].total

    reference = json.loads((REFERENCE_DIR / "training_demo.json").read_text())
    assert reference_tool.training_demo_trajectory(run) == reference
    assert seconds < 300.0


def test_spectral_angle_baseline_beats_luminance_control_on_color_similar_scene():
    """On the seeded color-similar scene the spectral-angle baseline reaches
    AUC >= 0.95 against ground truth while a pseudo-color luminance-contrast
    control stays at AUC <= 0.60: the object is invisible in rendered color
    but obvious in the spectra."""
    cube, mask = synth_scene(color_similar_scene_spec(), seed=0)
    gt = mask.astype(np.float64)
    assert roc_auc(sad_map(cube), gt) >= 0.95
    assert roc_auc(luminance_contrast_map(cube), gt) <= 0.60


def test_reconstruction_only_training_reaches_quarter_error(reference_tool):
    """200 reconstruction-only steps on the seeded 16x16x32 scene push the
    restoration error below 25% of its initial value, and the loss history is
    bit-identical to the committed reference run."""
    observed = reference_tool.reconstruction_demo_trajectory()
    history = [float.fromhex(value) for value in observed["loss"]]
    assert len(history) == 200
    assert history[-1] < 0.25 * history[0]

    reference = json.loads((REFERENCE_DIR / "reconstruction_demo.json").read_text())
    assert observed == reference


def _block_mask(height, width, top, left):
    mask = np.zeros((20, 20), dtype=np.uint8)
    mask[top:top + height, left:left + width] = 1
    return mask


def test_dataset_statistics_match_hand_computed_counts(tmp_path):
    """The stats command on a constructed 50-entry manifest reproduces the
    attribute histogram, the foreground-scale bins (small object means
    strictly below 1% foreground), and the centroid heatmap counts exactly."""
    # (count, block height, block width, top, left, attributes)
    # 20x20 masks, so 4 foreground pixels are exactly the 1% boundary
    plan = [
        (8, 1, 2, 2, 2, ("SO",)),            # 0.5%  -> small-object bin
        (1, 0, 0, 0, 0, ()),                 # empty -> scale 0, no centroid
        (6, 2, 2, 2, 12, ("SO", "CS")),      # exactly 1% -> NOT small
        (10, 4, 4, 12, 2, ("CS",)),          # 4%
        (9, 5, 8, 12, 10, ("CB",)),          # 10%
        (6, 6, 6, 2, 2, ("HDR", "MS")),      # 9%
        (5, 10, 8, 0, 12, ("MS",)),          # 20%
        (4, 20, 10, 0, 0, ()),               # 50%
        (1, 20, 20, 0, 0, ("CB", "SO")),     # full frame
    ]
    assert sum(count for count, *_ in plan) == 50

    entries = []
    index = 0
    for count, height, width, top, left, attributes in plan:
        for _ in range(count):
            mask = _block_mask(height, width, top, left)
            name = f"mask{index:02d}.pgm"
            write_mask(mask, tmp_path / name)
            entries.append({
                "id": f"entry{index:02d}", "cube": f"cube{index:02d}.hsv2",
                "mask": name, "split": "train" if index % 2 else "test",
                "attributes": list(attributes),
            })
            index += 1
    manifest_path = tmp_path / "manifest.json"
    manifest_path.write_text(json.dumps({"entries": entries}))

    # the 1% threshold is strict: 2 px of 400 is small, 4 px of 400 is not
    assert is_small_object(_block_mask(1, 2, 2, 2))
    assert not is_small_object(_block_mask(2, 2, 2, 12))

    out_dir = tmp_path / "stats"
    assert main(["stats", "--manifest", str(manifest_path),
                 "--out-dir", str(out_dir), "--grid", "2"]) == 0

    attr_lines = (out_dir / "attributes.csv").read_text().splitlines()
    assert attr_lines == [
        "attribute,count", "CB,10", "CS,16", "HDR,6", "MS,11", "SO,15",
    ]

    bin_lines = (out_dir / "scale_bins.csv").read_text().splitlines()
    expected_counts = (9, 16, 6, 9, 5, 5)  # 8 small + 1 empty lead the list
    assert bin_lines == ["low,high,count"] + [
        f"{SCALE_BIN_EDGES[i]},{SCALE_BIN_EDGES[i + 1]},{expected_counts[i]}"
        for i in range(6)
    ]

    count_lines = (out_dir / "centroid_counts.csv").read_text().splitlines()
    # hand placement: quadrant cells (0,0)=8+6, (0,1)=6+5, (1,0)=10+4 where the
    # half-frame block's y-centroid sits exactly on the boundary, (1,1)=9+1
    assert count_lines == [
        "row,col,count", "0,0,14", "0,1,11", "1,0,14", "1,1,10",
    ]

    # the library helpers agree with the rendered tables
    manifest = load_manifest(manifest_path)
    assert attribute_histogram(manifest) == {
        "CB": 10, "CS": 16, "HDR": 6, "MS": 11, "SO": 15,
    }
    assert [n for _, _, n in foreground_scale_bins(manifest, manifest_path)] == list(expected_counts)
    np.testing.assert_array_equal(
        centroid_heatmap(manifest, 2, manifest_path),
        np.array([[14, 11], [14, 10]], dtype=np.int64),
    )
