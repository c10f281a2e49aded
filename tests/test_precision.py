"""The dtype rule: a float32 cube runs the model at float32, and training at float64."""

import collections

import numpy as np
import pytest

from specsal import tensor as T
from specsal.cube import HsiCube, read_cube, write_cube
from specsal.model import SaliencyModel, default_model_config, demo_model_config
from specsal.scenes import color_similar_scene_spec, synth_scene, training_demo_scene_spec
from specsal.training import TrainConfig, train_loop

CONFIGS = {"demo": (demo_model_config, 32), "default": (default_model_config, 64)}

# Largest |float32 map - float64 map| allowed on the seeded default-size cubes below.
# With numpy 2.4 and OpenBLAS it read 6.0e-6 over the 8 cubes of each of model
# seeds 0-2, so the bound leaves about 8x of room for other BLAS builds.
DRIFT_BOUND = 5e-5


def test_as_floating_keeps_float32_and_widens_everything_else():
    narrow, wide = np.ones(3, dtype=np.float32), np.ones(3)
    assert T.as_floating(narrow) is narrow and T.as_floating(wide) is wide
    for value in (np.ones(3, dtype=np.float16), np.arange(3), [1, 2], 0.5, True):
        assert T.as_floating(value).dtype == np.float64
    assert T.Tensor(narrow).data is narrow


def test_read_cube_keeps_the_files_float32(tmp_path):
    cube, _ = synth_scene(training_demo_scene_spec(), seed=0)
    write_cube(cube, tmp_path / "scene.hsv2")
    read = read_cube(tmp_path / "scene.hsv2")
    assert read.data.dtype == np.float32
    np.testing.assert_array_equal(read.data, cube.data)  # synth values are float32-exact
    assert HsiCube(read.data, 400.0, 10.0).data is read.data


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_every_op_output_of_a_forward_has_the_cubes_dtype(name, dtype):
    make, size = CONFIGS[name]
    config = make()
    model = SaliencyModel(np.random.default_rng(0), config)
    cube = np.random.default_rng(1).random((config.encoder.bands, size, size)).astype(dtype)
    seen = collections.Counter()

    def see(op, out, inputs):
        seen[op, out.data.dtype] += 1

    T._observe(see, lambda: model(cube).restored)  # the restore head too
    assert {op for op, got in seen if got != dtype} == set()
    assert sum(seen.values()) > 800  # every op of the forward was seen


def test_training_from_a_float32_cube_equals_training_from_its_widening():
    cube, mask = synth_scene(training_demo_scene_spec(), seed=0)
    narrow = cube.data.astype(np.float32)
    runs = []
    for values in (narrow, narrow.astype(np.float64)):
        model = SaliencyModel(np.random.default_rng(0), demo_model_config())
        reports = train_loop(model, [(values, mask.astype(np.float64))], TrainConfig(seed=0, steps=3))
        store = model.parameters_by_name["encoder.embed.weight"].store
        runs.append(([(r.reconstruction, r.saliency, r.global_guidance, r.total) for r in reports],
                     store.data.copy()))
    (losses_32, values_32), (losses_64, values_64) = runs
    assert losses_32 == losses_64
    assert values_32.dtype == np.float64
    np.testing.assert_array_equal(values_32, values_64)


def test_float32_map_stays_near_the_float64_forward():
    config = default_model_config()
    for seed in (0, 1):
        model = SaliencyModel(np.random.default_rng(seed), config)
        store = model.parameters_by_name["encoder.embed.weight"].store
        store.data[:] = store.data.astype(np.float32)  # the values a checkpoint loads
        for k in range(2):
            cube, _ = synth_scene(color_similar_scene_spec(), seed=(seed + 1) * 1000 + k)
            wide = model(cube.data).saliency_map()
            narrow = model(cube.data.astype(np.float32)).saliency_map()
            assert wide.dtype == np.float64 and narrow.dtype == np.float32
            assert np.abs(narrow - wide).max() <= DRIFT_BOUND
            levels = [np.round(255.0 * np.clip(m, 0.0, 1.0)) for m in (narrow, wide)]
            assert np.abs(levels[0] - levels[1]).max() <= 1
