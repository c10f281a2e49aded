"""Cube format round trips, calibration, pseudo-color."""

import numpy as np
import pytest

from specsal.cube import (
    HsiCube,
    calibrate,
    pseudo_color,
    quantize_f32,
    read_cube,
    write_cube,
)
from specsal.exceptions import (
    CalibrationError,
    CubeDimensionError,
    CubeMagicError,
    CubeTruncationError,
    DataError,
)


def random_cube(rng, bands, h, w, start=400.0, step=3.0):
    data = quantize_f32(rng.uniform(0.0, 1.5, size=(bands, h, w)))
    return HsiCube(data, start, step)


@pytest.mark.parametrize("shape", [(1, 1, 1), (4, 3, 5), (16, 64, 64), (8, 17, 13)])
def test_cube_roundtrip_bit_exact(tmp_path, shape):
    rng = np.random.default_rng(sum(shape))
    cube = random_cube(rng, *shape)
    path = tmp_path / "cube.hsv2"
    write_cube(cube, path)
    back = read_cube(path)
    np.testing.assert_array_equal(back.data, cube.data)
    assert back.wavelength_start_nm == cube.wavelength_start_nm
    assert back.wavelength_step_nm == cube.wavelength_step_nm


def test_cube_file_layout_is_band_sequential(tmp_path):
    # 2 bands of 1x2: payload must be band0 row-major, then band1.
    cube = HsiCube(np.array([[[0.1, 0.2]], [[0.3, 0.4]]]), 500.0, 10.0)
    path = tmp_path / "tiny.hsv2"
    write_cube(cube, path)
    payload = path.read_bytes()
    assert payload[:4] == b"HSV2"
    h, w, c = np.frombuffer(payload[4:16], dtype="<u4")
    assert (h, w, c) == (1, 2, 2)
    start, step = np.frombuffer(payload[16:32], dtype="<f8")
    assert (start, step) == (500.0, 10.0)
    values = np.frombuffer(payload[32:], dtype="<f4")
    np.testing.assert_allclose(values, [0.1, 0.2, 0.3, 0.4], rtol=1e-7)


def test_read_cube_bad_magic(tmp_path):
    path = tmp_path / "bad.hsv2"
    path.write_bytes(b"NOPE" + b"\0" * 60)
    with pytest.raises(CubeMagicError):
        read_cube(path)


def test_read_cube_truncated_header(tmp_path):
    path = tmp_path / "short.hsv2"
    path.write_bytes(b"HSV2\x01\x00")
    with pytest.raises(CubeTruncationError):
        read_cube(path)


def test_read_cube_truncated_payload(tmp_path):
    rng = np.random.default_rng(0)
    cube = random_cube(rng, 4, 2, 2)
    path = tmp_path / "cut.hsv2"
    write_cube(cube, path)
    payload = path.read_bytes()
    path.write_bytes(payload[:-4])  # drop one value: header claims 16, payload has 15
    with pytest.raises(CubeTruncationError, match="payload has 60"):
        read_cube(path)


def test_read_cube_payload_overrun(tmp_path):
    rng = np.random.default_rng(0)
    cube = random_cube(rng, 2, 2, 2)
    path = tmp_path / "fat.hsv2"
    write_cube(cube, path)
    path.write_bytes(path.read_bytes() + b"\x00\x00\x00\x00")
    with pytest.raises(CubeDimensionError):
        read_cube(path)


def test_read_cube_zero_dimension(tmp_path):
    import struct

    path = tmp_path / "zero.hsv2"
    path.write_bytes(struct.pack("<4sIIIdd", b"HSV2", 0, 2, 2, 400.0, 3.0))
    with pytest.raises(CubeDimensionError):
        read_cube(path)


def test_cube_constructor_rejects_bad_values():
    with pytest.raises(DataError):
        HsiCube(np.full((1, 2, 2), -0.1), 400.0, 3.0)
    with pytest.raises(DataError):
        HsiCube(np.full((1, 2, 2), np.nan), 400.0, 3.0)
    with pytest.raises(DataError):
        HsiCube(np.ones((1, 2, 2)), 400.0, 0.0)
    with pytest.raises(DataError):
        HsiCube(np.ones((2, 2)), 400.0, 3.0)


def test_calibrate_midpoint_gives_half():
    dark = HsiCube(np.full((2, 3, 3), 0.2), 400.0, 3.0)
    white = HsiCube(np.full((2, 3, 3), 1.0), 400.0, 3.0)
    raw = HsiCube(dark.data + 0.5 * (white.data - dark.data), 400.0, 3.0)
    out = calibrate(raw, dark, white)
    np.testing.assert_array_equal(out.data, np.full((2, 3, 3), 0.5))


def test_calibrate_scale_invariance():
    rng = np.random.default_rng(1)
    dark = HsiCube(quantize_f32(rng.uniform(0.0, 0.2, (3, 4, 4))), 400.0, 3.0)
    white = HsiCube(quantize_f32(dark.data + rng.uniform(0.5, 1.0, (3, 4, 4))), 400.0, 3.0)
    raw = HsiCube(quantize_f32(dark.data + rng.uniform(0.0, 1.2, (3, 4, 4))), 400.0, 3.0)
    base = calibrate(raw, dark, white)
    scaled = calibrate(
        HsiCube(2.0 * raw.data, 400.0, 3.0),
        HsiCube(2.0 * dark.data, 400.0, 3.0),
        HsiCube(2.0 * white.data, 400.0, 3.0),
    )
    np.testing.assert_array_equal(scaled.data, base.data)


def test_calibrate_clamps_to_headroom():
    dark = HsiCube(np.zeros((1, 2, 2)), 400.0, 3.0)
    white = HsiCube(np.full((1, 2, 2), 0.5), 400.0, 3.0)
    raw = HsiCube(np.array([[[0.0, 0.25], [0.5, 1.0]]]), 400.0, 3.0)
    out = calibrate(raw, dark, white)
    np.testing.assert_array_equal(out.data[0], [[0.0, 0.5], [1.0, 1.5]])


def test_calibrate_errors():
    dark = HsiCube(np.full((1, 2, 2), 0.5), 400.0, 3.0)
    white = HsiCube(np.full((1, 2, 2), 0.5), 400.0, 3.0)  # white == dark
    raw = HsiCube(np.ones((1, 2, 2)), 400.0, 3.0)
    with pytest.raises(CalibrationError):
        calibrate(raw, dark, white)
    with pytest.raises(CalibrationError):
        calibrate(raw, HsiCube(np.zeros((1, 2, 3)), 400.0, 3.0), white)


def test_pseudo_color_constant_cube_is_uniform_gray():
    cube = HsiCube(np.full((12, 4, 4), 0.4), 400.0, 50.0)
    img = pseudo_color(cube)
    assert img.shape == (4, 4, 3)
    assert (img == img[0, 0, 0]).all()
    assert img[0, 0, 0] == round(0.4 * 255)


def test_pseudo_color_one_hot_650_is_pure_red():
    # wavelengths 400..1000 step 50: band 5 is exactly 650nm
    data = np.zeros((13, 3, 3))
    data[5] = 1.0
    img = pseudo_color(HsiCube(data, 400.0, 50.0))
    assert (img[:, :, 0] == 255).all()
    assert (img[:, :, 1] == 0).all()
    assert (img[:, :, 2] == 0).all()


def test_pseudo_color_percentile_stretch():
    rng = np.random.default_rng(3)
    data = quantize_f32(rng.uniform(0.2, 0.8, size=(13, 32, 32)))
    img = pseudo_color(HsiCube(data, 400.0, 50.0))
    # stretched channels should use most of the 0..255 range
    assert img.min() == 0 and img.max() == 255
