"""The paired go/no-go tool in tools/verdict.py, loaded by file path."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def verdict():
    spec = importlib.util.spec_from_file_location("verdict", ROOT / "tools" / "verdict.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_tree_against_itself_reads_a_tie_in_every_row(verdict, capsys):
    assert verdict.main([str(ROOT), str(ROOT), "--steps", "2", "--seeds", "1"]) == 0
    out = capsys.readouterr().out
    rows = [line for line in out.splitlines() if line.startswith(("| training", "| color"))]
    assert len(rows) == 2 and all(row.endswith("| tie / tie |") for row in rows)
    assert out.count("worse 0, tie 1, better 0") == 6
    assert "verdict: go" in out


def test_four_worse_seeds_of_five_on_either_column_read_no_go(verdict, capsys):
    def rows(band_mae):
        return [{"preset": preset, "seed": s, "L_m": 1.0, "mae": 0.1, "auc": 1.0,
                 "band_mae": band_mae[s] if preset == "color-similar" else 0.2}
                for preset in verdict.PRESETS for s in range(5)]

    parent = rows([0.2] * 5)
    assert not verdict.report(parent, rows([0.3, 0.3, 0.3, 0.3, 0.1]), seeds=5)
    assert verdict.report(parent, rows([0.3, 0.3, 0.3, 0.2, 0.1]), seeds=5)
    out = capsys.readouterr().out
    assert "band_mae worse 4, tie 0, better 1" in out and "verdict: no-go" in out
    assert "band_mae worse 3, tie 1, better 1" in out and "verdict: go" in out


def test_contour_band_is_dilation_xor_erosion(verdict):
    mask = np.zeros((7, 7), dtype=np.uint8)
    mask[2:5, 2:5] = 1
    band = np.zeros((7, 7), dtype=bool)
    band[1:6, 1:6] = True
    band[3, 3] = False  # the one pixel whose 3x3 window is all foreground
    np.testing.assert_array_equal(verdict.contour_band(mask), band)
