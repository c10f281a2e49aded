"""Binary checkpoint format: round trips and failure taxonomy."""

import struct

import numpy as np
import pytest

from specsal.checkpoint import (
    CHECKPOINT_MAGIC,
    apply_state,
    load_checkpoint,
    model_state,
    save_checkpoint,
)
from specsal.exceptions import CheckpointError
from specsal.model import SaliencyModel, tiny_model_config


def test_round_trip_preserves_values_at_single_precision(tmp_path):
    path = tmp_path / "model.ckpt"
    rng = np.random.default_rng(0)
    state = [
        ("layer.weight", rng.standard_normal((3, 2, 2))),
        ("layer.bias", rng.standard_normal(3)),
        ("scale", np.array(2.5)),
    ]
    save_checkpoint(state, path)
    loaded = load_checkpoint(path)
    assert sorted(loaded) == ["layer.bias", "layer.weight", "scale"]
    for name, values in state:
        assert loaded[name].dtype == np.float64
        # stored as f4: loading widens the rounded values, not the originals
        np.testing.assert_array_equal(
            loaded[name], np.asarray(values).astype(np.float32).astype(np.float64)
        )
    assert loaded["scale"].shape == ()


def test_model_round_trip_through_apply(tmp_path):
    path = tmp_path / "model.ckpt"
    config = tiny_model_config()
    source = SaliencyModel(np.random.default_rng(1), config)
    save_checkpoint(model_state(source), path)

    target = SaliencyModel(np.random.default_rng(99), config)
    apply_state(target, load_checkpoint(path))
    for (name_a, p_a), (name_b, p_b) in zip(
        source.named_parameters(), target.named_parameters()
    ):
        assert name_a == name_b
        np.testing.assert_array_equal(
            p_b.data, p_a.data.astype(np.float32).astype(np.float64)
        )

    cube = np.random.default_rng(2).random((config.encoder.bands, 8, 8))
    # both models run, and the restored one is deterministic on its own
    first = target(cube).saliency.data
    second = target(cube).saliency.data
    np.testing.assert_array_equal(first, second)


def test_rng_free_build_plus_apply_matches_rng_built_model(tmp_path):
    path = tmp_path / "model.ckpt"
    config = tiny_model_config()
    save_checkpoint(model_state(SaliencyModel(np.random.default_rng(1), config)), path)
    drawn = SaliencyModel(np.random.default_rng(99), config)
    undrawn = SaliencyModel(None, config)
    assert not any(p.data.any() for name, p in undrawn.named_parameters()
                   if name.endswith("weight"))
    for model in (drawn, undrawn):
        apply_state(model, load_checkpoint(path))

    cube = np.random.default_rng(2).random((config.encoder.bands, 8, 8))
    got, want = undrawn(cube), drawn(cube)
    np.testing.assert_array_equal(got.saliency.data, want.saliency.data)
    np.testing.assert_array_equal(got.restored.data, want.restored.data)


def test_save_rejects_bad_names(tmp_path):
    with pytest.raises(CheckpointError, match="name"):
        save_checkpoint([("", np.zeros(2))], tmp_path / "x.ckpt")


def test_load_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(path)


def test_load_rejects_truncation_anywhere(tmp_path):
    whole = tmp_path / "whole.ckpt"
    save_checkpoint([("w", np.arange(6, dtype=float).reshape(2, 3))], whole)
    payload = whole.read_bytes()
    for cut in range(1, len(payload)):
        clipped = tmp_path / "clipped.ckpt"
        clipped.write_bytes(payload[:cut])
        with pytest.raises(CheckpointError):
            load_checkpoint(clipped)


def test_load_rejects_cuts_of_a_model_checkpoint(tmp_path):
    """A cut model checkpoint raises CheckpointError, never IndexError.

    The tiny model's checkpoint is about 1 MB, so instead of all its prefixes
    the cuts are every byte of its first five records (ranks 4, 1 and 2) and
    the last byte of every record.
    """
    state = model_state(SaliencyModel(np.random.default_rng(0), tiny_model_config()))
    whole = tmp_path / "whole.ckpt"
    save_checkpoint(state, whole)
    payload = whole.read_bytes()
    ends = [8]
    for name, values in state:
        ends.append(ends[-1] + 2 + len(name.encode("utf-8")) + 1 + 4 * values.ndim + 4 * values.size)
    assert ends[-1] == len(payload)
    clipped = tmp_path / "clipped.ckpt"
    for cut in sorted(set(range(ends[5])) | {end - 1 for end in ends[1:]}):
        clipped.write_bytes(payload[:cut])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(clipped)


def test_load_rejects_trailing_bytes(tmp_path):
    path = tmp_path / "extra.ckpt"
    save_checkpoint([("w", np.zeros(2))], path)
    path.write_bytes(path.read_bytes() + b"\x00\x01")
    with pytest.raises(CheckpointError, match="trailing"):
        load_checkpoint(path)


def test_load_rejects_duplicate_names(tmp_path):
    path = tmp_path / "dup.ckpt"
    save_checkpoint([("w", np.zeros(2)), ("w", np.ones(2))], path)
    with pytest.raises(CheckpointError, match="duplicate"):
        load_checkpoint(path)


def test_byte_layout_is_stable(tmp_path):
    path = tmp_path / "layout.ckpt"
    save_checkpoint([("ab", np.array([1.0, 2.0], dtype=np.float64))], path)
    payload = path.read_bytes()
    expected = (
        CHECKPOINT_MAGIC
        + struct.pack("<I", 1)
        + struct.pack("<H", 2)
        + b"ab"
        + struct.pack("<B", 1)
        + struct.pack("<I", 2)
        + np.array([1.0, 2.0], dtype="<f4").tobytes()
    )
    assert payload == expected


def test_apply_state_rejects_name_mismatches():
    config = tiny_model_config()
    model = SaliencyModel(np.random.default_rng(1), config)
    state = dict(model_state(model))
    (first_name, first_values), *_ = state.items()

    missing = dict(state)
    del missing[first_name]
    with pytest.raises(CheckpointError, match="mismatch"):
        apply_state(model, missing)

    extra = dict(state)
    extra["bogus.weight"] = np.zeros(1)
    with pytest.raises(CheckpointError, match="bogus.weight"):
        apply_state(model, extra)


def test_apply_state_rejects_shape_mismatch():
    config = tiny_model_config()
    model = SaliencyModel(np.random.default_rng(1), config)
    state = dict(model_state(model))
    first_name = next(iter(state))
    state[first_name] = np.zeros(np.asarray(state[first_name]).size + 1)
    with pytest.raises(CheckpointError, match=first_name):
        apply_state(model, state)
