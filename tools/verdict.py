"""Paired held-out go/no-go verdict between two working trees of specsal.

Each tree is scored in a subprocess of its own, with that tree's ``src/`` first
on ``sys.path``. For seeds s = 0..4, on the ``training-demo`` preset and on
``color-similar`` at 32x32x8, the demo config trains 100 steps on scene s with
model seed s and ``TrainConfig(seed=s)``. Each model is then scored with
``evaluate_pair`` on 16 held-out scenes of its preset (seeds 1000 + 100 s + k):
held-out MAE, AUC, and the MAE inside the 3x3 contour band
``dilate(mask) XOR erode(mask)``, each averaged over the 16 scenes.

The tool prints one row per preset and seed with the parent's and the change's
numbers, the sign counts, and the rule's reading. The rule: no-go if the change
is worse in at least 4 of 5 paired seeds on held-out MAE or on contour-band
MAE, on either preset (with ``--seeds n``, in at least 4n/5 of them). Rows
compare full floats, so a tree scored against itself reads a tie everywhere.
Exits 0 on go, 1 on no-go, and 2 when a tree fails to score.

Run from anywhere, typically against a ``git archive`` of the parent commit:

    python3 tools/verdict.py <parent tree> <change tree> [--steps 100] [--seeds 5]
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

PRESETS = ("training-demo", "color-similar")
HELD_OUT = 16
# which way is worse for each compared column; the rule reads the first two
WORSE_IF_HIGHER = {"mae": True, "band_mae": True, "auc": False}
RULE_COLUMNS = ("mae", "band_mae")

# The subprocess puts the tree's src/ first, then runs this file for score().
SCORER = (
    "import json, runpy, sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "score = runpy.run_path(sys.argv[2])['score']\n"
    "print(json.dumps(score(int(sys.argv[3]), int(sys.argv[4]))))\n"
)


def contour_band(mask):
    """Boolean 3x3 contour band of a 0/1 mask: dilate(mask) XOR erode(mask)."""
    import numpy as np

    height, width = mask.shape
    padded = np.pad(mask.astype(bool), 1, mode="edge")
    windows = [padded[i : i + height, j : j + width] for i in range(3) for j in range(3)]
    return np.logical_or.reduce(windows) ^ np.logical_and.reduce(windows)


def score(steps: int, seeds: int) -> list:
    """One row per preset and seed: final L_m, and held-out MAE, AUC and band MAE.

    Runs in the tree under test, so it imports that tree's specsal.
    """
    import numpy as np

    from specsal.metrics import evaluate_pair
    from specsal.model import SaliencyModel, demo_model_config
    from specsal.scenes import color_similar_scene_spec, synth_scene, training_demo_scene_spec
    from specsal.training import TrainConfig, train_loop

    specs = dict(zip(PRESETS, (training_demo_scene_spec(), color_similar_scene_spec(32, 32, 8))))
    rows = []
    for preset, spec in specs.items():
        for seed in range(seeds):
            cube, mask = synth_scene(spec, seed=seed)
            model = SaliencyModel(np.random.default_rng(seed), demo_model_config())
            reports = train_loop(model, [(cube.data, mask.astype(np.float64))],
                                 TrainConfig(seed=seed, steps=steps))
            maes, aucs, bands = [], [], []
            for k in range(HELD_OUT):
                cube, mask = synth_scene(spec, seed=1000 + 100 * seed + k)
                gt = mask.astype(np.float64)
                pred = model(cube.data).saliency_map()
                report = evaluate_pair(pred, gt)
                band = contour_band(mask)
                maes.append(report.mae)
                aucs.append(report.auc)
                bands.append(float(np.abs(pred - gt)[band].mean()))
            rows.append({"preset": preset, "seed": seed, "L_m": reports[-1].total,
                         "mae": float(np.mean(maes)), "auc": float(np.mean(aucs)),
                         "band_mae": float(np.mean(bands))})
    return rows


def start_scoring(tree: Path, steps: int, seeds: int) -> subprocess.Popen:
    env = dict(os.environ)
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env.setdefault(name, "1")  # two trees score side by side, one core each
    command = [sys.executable, "-c", SCORER, str(tree / "src"), str(Path(__file__).resolve()),
               str(steps), str(seeds)]
    return subprocess.Popen(command, cwd=tree, env=env, stdout=subprocess.PIPE, text=True)


def reading(column: str, parent: float, change: float) -> str:
    if change == parent:
        return "tie"
    return "worse" if (change > parent) == WORSE_IF_HIGHER[column] else "better"


def report(parent_rows, change_rows, seeds: int) -> bool:
    """Print the paired table, sign counts and the rule's reading; True means go."""
    print("| preset | seed | final `L_m` parent / change | held-out MAE parent / change "
          "| AUC parent / change | contour-band MAE parent / change | MAE / band |")
    print("|---|---|---|---|---|---|---|")
    for p, c in zip(parent_rows, change_rows):
        signs = " / ".join(reading(column, p[column], c[column]) for column in RULE_COLUMNS)
        print(f"| {p['preset']} | {p['seed']} | {p['L_m']:.4f} / {c['L_m']:.4f} "
              f"| {p['mae']:.5f} / {c['mae']:.5f} | {p['auc']:.3f} / {c['auc']:.3f} "
              f"| {p['band_mae']:.5f} / {c['band_mae']:.5f} | {signs} |")
    go = True
    for preset in PRESETS:
        pairs = [(p, c) for p, c in zip(parent_rows, change_rows) if p["preset"] == preset]
        counts = []
        for column in WORSE_IF_HIGHER:
            signs = [reading(column, p[column], c[column]) for p, c in pairs]
            worse = signs.count("worse")
            counts.append(f"{column} worse {worse}, tie {signs.count('tie')}, "
                          f"better {signs.count('better')}")
            if column in RULE_COLUMNS and 5 * worse >= 4 * seeds:
                go = False
        print(f"{preset} (of {seeds}): " + "; ".join(counts))
    print("verdict: " + ("go" if go else "no-go")
          + " (no-go if worse in at least 4 of 5 paired seeds on MAE or band MAE, either preset)")
    return go


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="working tree of the parent")
    parser.add_argument("change", type=Path, help="working tree of the change")
    parser.add_argument("--steps", type=int, default=100)
    parser.add_argument("--seeds", type=int, default=5)
    args = parser.parse_args(argv)
    if args.steps < 1 or args.seeds < 1:
        parser.error("--steps and --seeds must be at least 1")
    for tree in (args.parent, args.change):
        if not (tree / "src" / "specsal").is_dir():
            parser.error(f"{tree} has no src/specsal")
    runs = [start_scoring(tree.resolve(), args.steps, args.seeds)
            for tree in (args.parent, args.change)]
    outputs = [run.communicate()[0] for run in runs]
    for tree, run in zip((args.parent, args.change), runs):
        if run.returncode:
            print(f"error: scoring {tree} failed with exit code {run.returncode}", file=sys.stderr)
            return 2
    parent_rows, change_rows = (json.loads(output) for output in outputs)
    return 0 if report(parent_rows, change_rows, args.seeds) else 1


if __name__ == "__main__":
    sys.exit(main())
