"""Spectral contrast baselines: scale behavior, limits, and map hygiene."""

import numpy as np
import pytest

from specsal.baselines import (
    BASELINES,
    box_smooth,
    luminance_contrast_map,
    normalize_map,
    sad_map,
    sad_map_raw,
    sed_map,
    sed_map_raw,
    sg_map,
    sg_map_raw,
)
from specsal.cube import HsiCube
from specsal.exceptions import NumericError, ShapeError


def _cube(data):
    return HsiCube(np.asarray(data, dtype=float), 400.0, 10.0)


def _random_cube(rng, bands=6, size=8):
    return _cube(rng.uniform(0.05, 1.0, size=(bands, size, size)))


def test_uniform_cube_gives_zero_raw_maps():
    cube = _cube(np.tile(np.linspace(0.2, 0.8, 5)[:, None, None], (1, 4, 4)))
    np.testing.assert_array_equal(sad_map_raw(cube), 0.0)
    np.testing.assert_array_equal(sed_map_raw(cube), 0.0)
    np.testing.assert_array_equal(sg_map_raw(cube), 0.0)


def test_global_rescale_invariance_and_linearity():
    rng = np.random.default_rng(0)
    cube = _random_cube(rng)
    scaled = _cube(cube.data * 3.7)
    # angles ignore a global positive rescale; distances scale linearly
    np.testing.assert_allclose(sad_map_raw(scaled), sad_map_raw(cube), atol=1e-12)
    np.testing.assert_allclose(sed_map_raw(scaled), 3.7 * sed_map_raw(cube), atol=1e-12)
    np.testing.assert_allclose(sg_map_raw(scaled), 3.7 * sg_map_raw(cube), atol=1e-12)


def test_brightness_contrast_splits_angle_from_distance():
    # foreground = 2x the background spectrum: same shape, double brightness.
    # The mean spectrum stays a positive multiple of that shape, so the
    # angular measure sees nothing while the Euclidean one fires.
    shape = np.linspace(0.2, 0.6, 5)
    data = np.tile(shape[:, None, None], (1, 6, 6))
    data[:, 2, 2] *= 2.0
    cube = _cube(data)
    np.testing.assert_allclose(sad_map_raw(cube), 0.0, atol=1e-7)
    sed = sed_map_raw(cube)
    assert sed[2, 2] > 10.0 * sed[0, 0]


def test_gradient_measure_ignores_additive_offsets():
    rng = np.random.default_rng(1)
    cube = _random_cube(rng)
    offsets = rng.uniform(0.05, 0.3, size=(1,) + cube.data.shape[1:])
    shifted = _cube(cube.data + offsets)  # same offset in every band per pixel
    np.testing.assert_allclose(sg_map_raw(shifted), sg_map_raw(cube), atol=1e-12)
    assert not np.allclose(sed_map_raw(shifted), sed_map_raw(cube), atol=1e-6)


def test_zero_norm_pixel_scores_zero_angle():
    data = np.full((4, 3, 3), 0.5)
    data[:, 1, 1] = 0.0
    raw = sad_map_raw(_cube(data))
    assert raw[1, 1] == 0.0
    assert np.isfinite(raw).all()


def test_sg_needs_two_bands():
    with pytest.raises(ShapeError, match="bands"):
        sg_map_raw(_cube(np.ones((1, 3, 3))))


def test_normalize_map_behavior():
    np.testing.assert_array_equal(normalize_map(np.full((3, 3), 4.2)), 0.0)
    got = normalize_map(np.array([[2.0, 3.0], [4.0, 2.5]]))
    np.testing.assert_allclose(got, [[0.0, 0.5], [1.0, 0.25]], atol=1e-15)


def test_box_smooth_delta_spreads_uniformly():
    # with edge replication a centered delta on a 3x3 grid averages to 1/9
    delta = np.zeros((3, 3))
    delta[1, 1] = 1.0
    np.testing.assert_allclose(box_smooth(delta), np.full((3, 3), 1.0 / 9.0), atol=1e-15)


def test_box_smooth_preserves_constants_and_rejects_bad_rank():
    np.testing.assert_allclose(box_smooth(np.full((5, 4), 0.3)), 0.3, atol=1e-15)
    with pytest.raises(ShapeError):
        box_smooth(np.zeros((2, 2, 2)))


def test_published_maps_are_bounded_and_smoothed():
    rng = np.random.default_rng(2)
    cube = _random_cube(rng)
    for name, baseline in BASELINES.items():
        published = baseline(cube)
        assert published.shape == (8, 8)
        assert published.min() >= 0.0 and published.max() <= 1.0, name
        raw = {"sad": sad_map_raw, "sed": sed_map_raw, "sg": sg_map_raw}[name](cube)
        np.testing.assert_allclose(published, box_smooth(normalize_map(raw)), atol=1e-15)


def test_luminance_control_is_bounded_and_spectrally_blind():
    rng = np.random.default_rng(3)
    # 400..680 nm in 40 nm steps: the rendering picks bands 6/4/1, so the
    # 680 nm band never reaches the pseudo-color image
    cube = HsiCube(rng.uniform(0.05, 1.0, size=(8, 8, 8)), 400.0, 40.0)
    control = luminance_contrast_map(cube)
    assert control.shape == (8, 8)
    assert control.min() >= 0.0 and control.max() <= 1.0

    edited = cube.data.copy()
    # a spatially varying edit: a uniform band shift would cancel against
    # the shifted mean spectrum and leave the distance measure unchanged too
    edited[7] += np.linspace(0.0, 0.3, 64).reshape(8, 8)
    far_band = HsiCube(edited, 400.0, 40.0)
    np.testing.assert_array_equal(luminance_contrast_map(far_band), control)
    assert not np.allclose(sed_map_raw(far_band), sed_map_raw(cube))


@pytest.mark.parametrize("method", sorted(BASELINES))
def test_float32_cube_whose_squares_overflow_raises_instead_of_a_wrong_map(method):
    # float32 squares overflow from about 1.8e19: sad would score such a pixel a right
    # angle, and sed and sg an infinity that min-max scaling turns into NaN or zeros
    rng = np.random.default_rng(0)
    data = np.where(rng.random((6, 8, 8)) > 0.9, 3e19, 0.5).astype(np.float32)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericError):
        BASELINES[method](HsiCube(data, 400.0, 10.0))


def test_normalize_map_refuses_a_non_finite_map():
    for bad in (np.inf, np.nan):
        with pytest.raises(NumericError):
            normalize_map(np.array([[0.0, bad], [1.0, 2.0]]))
    with pytest.raises(NumericError):  # all infinite, not the constant map's zeros
        normalize_map(np.full((2, 2), np.inf))
