"""Manifest schema, deterministic splits, and dataset statistics."""

import json

import numpy as np
import pytest

from specsal.exceptions import ManifestError
from specsal.manifest import (
    ATTRIBUTE_VOCABULARY,
    DatasetManifest,
    ManifestEntry,
    attribute_histogram,
    centroid_heatmap,
    foreground_scale_bins,
    load_manifest,
    resolve_path,
    save_manifest,
    split_manifest,
)
from specsal.masks import write_mask


def entry(i, split="train", attrs=()):
    return ManifestEntry(
        id=f"scene{i:03d}",
        cube=f"cubes/scene{i:03d}.hsv2",
        mask=f"masks/scene{i:03d}.pgm",
        split=split,
        attributes=attrs,
    )


def test_manifest_roundtrip(tmp_path):
    manifest = DatasetManifest([entry(0, attrs=("CB", "SO")), entry(1, "test")])
    path = tmp_path / "manifest.json"
    save_manifest(manifest, path)
    back = load_manifest(path)
    assert [e.to_dict() for e in back.entries] == [e.to_dict() for e in manifest.entries]


def test_load_rejects_unknown_top_level(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"entries": [], "extra": 1}))
    with pytest.raises(ManifestError):
        load_manifest(path)


def test_load_rejects_unknown_entry_key(tmp_path):
    path = tmp_path / "m.json"
    doc = {"entries": [dict(entry(0).to_dict(), color="red")]}
    path.write_text(json.dumps(doc))
    with pytest.raises(ManifestError, match="unknown keys"):
        load_manifest(path)


def test_load_rejects_missing_entry_key(tmp_path):
    path = tmp_path / "m.json"
    raw = entry(0).to_dict()
    del raw["mask"]
    path.write_text(json.dumps({"entries": [raw]}))
    with pytest.raises(ManifestError, match="missing"):
        load_manifest(path)


def test_load_rejects_invalid_json(tmp_path):
    path = tmp_path / "m.json"
    path.write_text("{not json")
    with pytest.raises(ManifestError):
        load_manifest(path)


def test_load_rejects_a_directory(tmp_path):
    with pytest.raises(ManifestError):
        load_manifest(tmp_path)


def test_duplicate_ids_rejected():
    with pytest.raises(ManifestError, match="duplicate"):
        DatasetManifest([entry(0), entry(0)])


def test_entry_validation():
    with pytest.raises(ManifestError):
        ManifestEntry("a", "c", "m", "validation")
    with pytest.raises(ManifestError):
        ManifestEntry("a", "c", "m", "train", attributes=("ZZ",))
    with pytest.raises(ManifestError):
        ManifestEntry("a", "c", "m", "train", attributes=("CB", "CB"))
    with pytest.raises(ManifestError):
        ManifestEntry("", "c", "m", "train")


def test_by_split():
    manifest = DatasetManifest([entry(0), entry(1, "test"), entry(2)])
    assert [e.id for e in manifest.by_split("train")] == ["scene000", "scene002"]
    assert [e.id for e in manifest.by_split("test")] == ["scene001"]
    assert len(manifest.by_split("all")) == 3
    with pytest.raises(ManifestError):
        manifest.by_split("validation")


def test_resolve_path(tmp_path):
    path = tmp_path / "data" / "manifest.json"
    assert resolve_path(path, "masks/a.pgm") == tmp_path / "data" / "masks" / "a.pgm"


def test_attribute_histogram_orders_and_counts():
    manifest = DatasetManifest(
        [
            entry(0, attrs=("CB",)),
            entry(1, attrs=("CB", "SO")),
            entry(2, attrs=("MS",)),
            entry(3),
        ]
    )
    hist = attribute_histogram(manifest)
    assert list(hist) == list(ATTRIBUTE_VOCABULARY)
    assert hist == {"CB": 2, "CS": 0, "HDR": 0, "SO": 1, "MS": 1}


def test_split_counts_8_of_10():
    manifest = DatasetManifest([entry(i) for i in range(10)])
    out = split_manifest(manifest, 0.8, seed=0)
    assert len(out.by_split("train")) == 8
    assert len(out.by_split("test")) == 2
    assert [e.id for e in out.entries] == [e.id for e in manifest.entries]


def test_split_rounds_half_up():
    manifest = DatasetManifest([entry(i) for i in range(10)])
    out = split_manifest(manifest, 0.812, seed=0)  # 8.12 -> 8
    assert len(out.by_split("train")) == 8
    out = split_manifest(manifest, 0.25, seed=0)  # 2.5 -> 3
    assert len(out.by_split("train")) == 3


def test_split_stratifies_by_attribute_group():
    entries = [entry(i, attrs=("CB",)) for i in range(5)]
    entries += [entry(i + 5) for i in range(5)]
    out = split_manifest(DatasetManifest(entries), 0.8, seed=1)
    tagged = [e for e in out.entries if e.attributes]
    plain = [e for e in out.entries if not e.attributes]
    assert sum(e.split == "train" for e in tagged) == 4
    assert sum(e.split == "train" for e in plain) == 4


def test_split_largest_remainder_tiebreak():
    # groups: () x4, (CB) x3, (CS) x3 at fraction 0.5 -> target 5.
    # floors are 2,1,1; the single leftover goes to the smallest remaining
    # group key with the largest fractional part: CB and CS tie at .5 and
    # CB sorts first.
    entries = [entry(i) for i in range(4)]
    entries += [entry(4 + i, attrs=("CB",)) for i in range(3)]
    entries += [entry(7 + i, attrs=("CS",)) for i in range(3)]
    out = split_manifest(DatasetManifest(entries), 0.5, seed=0)
    by_group = {
        (): sum(e.split == "train" for e in out.entries if e.attributes == ()),
        ("CB",): sum(e.split == "train" for e in out.entries if e.attributes == ("CB",)),
        ("CS",): sum(e.split == "train" for e in out.entries if e.attributes == ("CS",)),
    }
    assert by_group == {(): 2, ("CB",): 2, ("CS",): 1}


def test_split_deterministic_and_seed_sensitive():
    manifest = DatasetManifest([entry(i) for i in range(40)])
    a = split_manifest(manifest, 0.5, seed=3)
    b = split_manifest(manifest, 0.5, seed=3)
    assert [e.split for e in a.entries] == [e.split for e in b.entries]
    c = split_manifest(manifest, 0.5, seed=4)
    assert [e.split for e in a.entries] != [e.split for e in c.entries]


def test_split_fraction_extremes():
    manifest = DatasetManifest([entry(i) for i in range(5)])
    assert len(split_manifest(manifest, 1.0, 0).by_split("train")) == 5
    assert len(split_manifest(manifest, 0.0, 0).by_split("train")) == 0
    with pytest.raises(ManifestError):
        split_manifest(manifest, 1.2, 0)


def _write_stats_fixture(tmp_path):
    """Four 8x8 masks: corner pixel, far corner pixel, full, empty."""
    (tmp_path / "masks").mkdir()
    shapes = {
        "near": [(0, 0)],
        "far": [(7, 7)],
        "full": [(r, c) for r in range(8) for c in range(8)],
        "void": [],
    }
    entries = []
    for i, (name, pixels) in enumerate(shapes.items()):
        mask = np.zeros((8, 8), dtype=np.uint8)
        for r, c in pixels:
            mask[r, c] = 1
        write_mask(mask, tmp_path / "masks" / f"{name}.pgm")
        entries.append(
            ManifestEntry(name, f"cubes/{name}.hsv2", f"masks/{name}.pgm", "train")
        )
    path = tmp_path / "manifest.json"
    save_manifest(DatasetManifest(entries), path)
    return path


def test_centroid_heatmap_hand_case(tmp_path):
    path = _write_stats_fixture(tmp_path)
    heat = centroid_heatmap(load_manifest(path), grid=4, manifest_path=path)
    expected = np.zeros((4, 4), dtype=np.int64)
    expected[0, 0] = 1  # single pixel at (0,0): centroid (0.0625, 0.0625)
    expected[3, 3] = 1  # single pixel at (7,7): centroid (0.9375, 0.9375)
    expected[2, 2] = 1  # full mask: centroid (0.5, 0.5) lands in cell 2
    np.testing.assert_array_equal(heat, expected)
    assert heat.sum() == 3  # the empty mask is skipped


def test_foreground_scale_bins_hand_case(tmp_path):
    path = _write_stats_fixture(tmp_path)
    bins = foreground_scale_bins(load_manifest(path), path)
    # scales: 1/64 twice (bin [0.01, 0.05)), 1.0 (last bin), 0.0 (first bin)
    assert bins == [
        (0.0, 0.01, 1),
        (0.01, 0.05, 2),
        (0.05, 0.1, 0),
        (0.1, 0.2, 0),
        (0.2, 0.5, 0),
        (0.5, 1.0, 1),
    ]
