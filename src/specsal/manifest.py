"""Dataset manifests: schema, attribute stats, deterministic splits.

A manifest is a JSON file ``{"entries": [...]}`` where each entry has a unique
``id``, ``cube`` and ``mask`` paths (interpreted relative to the manifest's
directory), a ``split`` of train or test, and ``attributes`` drawn from the
five challenge tags: CB (complex background), CS (color similarity), HDR
(high dynamic range), SO (small object), MS (material similarity).
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .configio import from_dict, load_json_document
from .exceptions import ManifestError
from .imageio import write_text_atomic
from .masks import EmptyMaskError, centroid, foreground_scale, read_mask

ATTRIBUTE_VOCABULARY = ("CB", "CS", "HDR", "SO", "MS")

SPLITS = ("train", "test")

SCALE_BIN_EDGES = (0.0, 0.01, 0.05, 0.1, 0.2, 0.5, 1.0)

# Largest centroid heatmap side (a 1024 x 1024 table is about a million rows).
MAX_HEATMAP_GRID = 1024


@dataclass
class ManifestEntry:
    id: str
    cube: str
    mask: str
    split: str
    attributes: tuple[str, ...] = ()

    def __post_init__(self):
        if not self.id or not isinstance(self.id, str):
            raise ManifestError(f"entry id must be a non-empty string, got {self.id!r}")
        for label, path in (("cube", self.cube), ("mask", self.mask)):
            if not path or not isinstance(path, str) or "\x00" in path:
                raise ManifestError(f"entry {self.id}: bad {label} path {path!r}")
        if self.split not in SPLITS:
            raise ManifestError(f"entry {self.id}: split must be one of {SPLITS}, got {self.split!r}")
        attrs = tuple(self.attributes)
        unknown = [a for a in attrs if a not in ATTRIBUTE_VOCABULARY]
        if unknown:
            raise ManifestError(f"entry {self.id}: unknown attributes {unknown}")
        if len(set(attrs)) != len(attrs):
            raise ManifestError(f"entry {self.id}: duplicate attributes {attrs}")
        self.attributes = attrs

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class DatasetManifest:
    entries: list[ManifestEntry]

    def __post_init__(self):
        ids = [e.id for e in self.entries]
        if len(set(ids)) != len(ids):
            dupes = sorted({i for i in ids if ids.count(i) > 1})
            raise ManifestError(f"duplicate entry ids {dupes}")

    def by_split(self, split: str) -> list:
        if split == "all":
            return list(self.entries)
        if split not in SPLITS:
            raise ManifestError(f"unknown split {split!r}")
        return [e for e in self.entries if e.split == split]

    def __len__(self):
        return len(self.entries)


def load_manifest(path) -> DatasetManifest:
    return from_dict(DatasetManifest, load_json_document(path, ManifestError), str(path),
                     ManifestError)


def save_manifest(manifest: DatasetManifest, path) -> None:
    doc = {"entries": [e.to_dict() for e in manifest.entries]}
    write_text_atomic(path, json.dumps(doc, indent=2) + "\n")


def resolve_path(manifest_path, entry_path: str) -> Path:
    return Path(manifest_path).parent / entry_path


def attribute_histogram(manifest: DatasetManifest) -> dict:
    """Count entries per attribute; an entry counts once per tag it carries."""
    counts = {attr: 0 for attr in ATTRIBUTE_VOCABULARY}
    for entry in manifest.entries:
        for attr in entry.attributes:
            counts[attr] += 1
    return counts


def split_manifest(manifest: DatasetManifest, train_fraction: float, seed: int) -> DatasetManifest:
    """Reassign splits deterministically, stratified by attribute combination.

    The global train count is round-half-up(n * train_fraction). Per-group
    quotas use largest-remainder allocation over attribute-set groups so
    stratification never changes the global count.
    """
    if not 0.0 <= train_fraction <= 1.0:
        raise ManifestError(f"train_fraction must be in [0,1], got {train_fraction}")
    n = len(manifest.entries)
    target_train = min(n, int(math.floor(n * train_fraction + 0.5)))

    groups: dict[tuple, list] = {}
    for entry in manifest.entries:
        groups.setdefault(tuple(sorted(entry.attributes)), []).append(entry)

    quotas = {}
    remainders = []
    for key in sorted(groups):
        exact = len(groups[key]) * train_fraction
        quotas[key] = int(math.floor(exact))
        remainders.append((-(exact - math.floor(exact)), key))
    short = target_train - sum(quotas.values())
    for _, key in sorted(remainders):
        if short <= 0:
            break
        if quotas[key] < len(groups[key]):
            quotas[key] += 1
            short -= 1
    # rounding pathologies (all-integer remainders) may still leave a gap
    for key in sorted(groups):
        while short > 0 and quotas[key] < len(groups[key]):
            quotas[key] += 1
            short -= 1

    rng = np.random.default_rng(seed)
    assignment = {}
    for key in sorted(groups):
        members = sorted(groups[key], key=lambda e: e.id)
        order = rng.permutation(len(members))
        chosen = {members[i].id for i in order[: quotas[key]]}
        for member in members:
            assignment[member.id] = "train" if member.id in chosen else "test"

    return DatasetManifest(
        [
            ManifestEntry(e.id, e.cube, e.mask, assignment[e.id], e.attributes)
            for e in manifest.entries
        ]
    )


def centroid_heatmap(manifest: DatasetManifest, grid: int, manifest_path) -> np.ndarray:
    """Bin mask centroids on a grid x grid lattice; empty masks are skipped.

    Returns (grid, grid) int64 counts indexed [row, col]; counts sum to the
    number of non-empty masks.
    """
    if not 1 <= grid <= MAX_HEATMAP_GRID:
        raise ManifestError(
            f"heatmap grid must be between 1 and {MAX_HEATMAP_GRID}, got {grid}"
        )
    counts = np.zeros((grid, grid), dtype=np.int64)
    for entry in manifest.entries:
        mask = read_mask(resolve_path(manifest_path, entry.mask))
        try:
            x, y = centroid(mask)
        except EmptyMaskError:
            continue
        col = min(int(x * grid), grid - 1)
        row = min(int(y * grid), grid - 1)
        counts[row, col] += 1
    return counts


def foreground_scale_bins(manifest: DatasetManifest, manifest_path) -> list:
    """Histogram of mask foreground scales over SCALE_BIN_EDGES.

    Bins are [lo, hi) except the last, which includes 1.0. The first bin is
    exactly the small-object range.
    """
    edges = SCALE_BIN_EDGES
    counts = [0] * (len(edges) - 1)
    for entry in manifest.entries:
        scale = foreground_scale(read_mask(resolve_path(manifest_path, entry.mask)))
        for i in range(len(counts)):
            last = i == len(counts) - 1
            if edges[i] <= scale < edges[i + 1] or (last and scale == edges[-1]):
                counts[i] += 1
                break
    return [(edges[i], edges[i + 1], counts[i]) for i in range(len(counts))]
