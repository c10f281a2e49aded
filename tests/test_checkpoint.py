"""Binary checkpoint format: round trips and failure taxonomy."""

import struct
import tracemalloc

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
from specsal.imageio import write_chunks_atomic
from specsal.model import SaliencyModel, default_model_config, tiny_model_config


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
    # every name is checked before the file is created, not when its record is written
    with pytest.raises(CheckpointError, match="name"):
        save_checkpoint([("w", np.zeros(2)), ("x" * 0x10000, np.zeros(2))], tmp_path / "y.ckpt")
    assert list(tmp_path.iterdir()) == []


def test_save_streams_one_record_at_a_time(tmp_path):
    # the payload is never assembled in memory: 0.12 x its size at the peak,
    # against 3.06 x when records, their join and the magic prefix were all held
    state = model_state(SaliencyModel(np.random.default_rng(0), default_model_config()))
    payload = sum(4 * values.size for _, values in state)
    tracemalloc.start()
    try:
        save_checkpoint(state, tmp_path / "model.ckpt")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * payload
    assert (tmp_path / "model.ckpt").stat().st_size > payload


def test_failed_atomic_write_keeps_the_old_target_and_no_temp_file(tmp_path):
    path = tmp_path / "out.bin"
    path.write_bytes(b"old contents")

    def chunks():
        yield b"new "
        raise RuntimeError("source failed")

    with pytest.raises(RuntimeError, match="source failed"):
        write_chunks_atomic(path, chunks())
    assert path.read_bytes() == b"old contents"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.bin"]


@pytest.mark.parametrize("bits", [0x7FC00000, 0x7F800001, 0x7F800000, 0xFF800000],
                         ids=["nan", "signaling-nan", "inf", "-inf"])
def test_load_rejects_non_finite_values_naming_file_and_parameter(tmp_path, bits):
    path = tmp_path / "bad.ckpt"
    weight = np.ones((2, 3))
    weight[1, 2] = 7.0  # a marker whose float32 bytes are swapped for the bad value's
    save_checkpoint([("a.bias", np.zeros(3)), ("b.weight", weight), ("c", np.ones(1))], path)
    marker = struct.pack("<f", 7.0)
    assert path.read_bytes().count(marker) == 1
    path.write_bytes(path.read_bytes().replace(marker, struct.pack("<I", bits)))
    with pytest.raises(CheckpointError, match="non-finite") as info:
        load_checkpoint(path)
    assert str(path) in str(info.value) and "'b.weight'" in str(info.value)


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


def test_load_rejects_a_shape_numpy_cannot_hold(tmp_path):
    # no values, but the nonzero dimensions overflow numpy's byte count for a view
    path = tmp_path / "huge.ckpt"
    path.write_bytes(CHECKPOINT_MAGIC + struct.pack("<IH", 1, 1) + b"w"
                     + struct.pack("<B3I", 3, 0, 2**31, 2**31))
    with pytest.raises(CheckpointError) as info:
        load_checkpoint(path)
    assert str(path) in str(info.value) and "'w'" in str(info.value)
    assert str((0, 2**31, 2**31)) in str(info.value)


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
