"""Backbone, cross-scale fusion, global grid head, trimaps, full assembly."""

import itertools

import numpy as np
import pytest

import specsal.tensor as T
from specsal.exceptions import ConfigError, ShapeError
from specsal.model import (
    ModelConfig,
    SaliencyModel,
    default_model_config,
    demo_model_config,
    tiny_model_config,
)
from specsal.nn import ChannelNorm, Conv2d, Module
from specsal.saliency_net import (
    CrossScaleFusion,
    DecoderConfig,
    GlobalSaliencyHead,
    HighResBackbone,
    block_ground_truth,
    resize_to,
)
from specsal.spectral_attention import BAND_GROUP, EncoderConfig
from specsal.tensor import Tape, Tensor


def test_resize_to_cases():
    x = Tensor(np.arange(8.0).reshape(2, 2, 2))
    up = resize_to(x, 4, 4)
    assert up.shape == (2, 4, 4)
    np.testing.assert_array_equal(up.data[:, ::2, ::2], x.data)
    down = resize_to(Tensor(np.ones((1, 4, 4))), 2, 2)
    np.testing.assert_array_equal(down.data, np.ones((1, 2, 2)))
    assert resize_to(x, 2, 2) is x
    with pytest.raises(ShapeError):
        resize_to(x, 3, 3)
    with pytest.raises(ShapeError):
        resize_to(x, 4, 2)  # mixed factors


def test_backbone_shape_contract():
    backbone = HighResBackbone(np.random.default_rng(0), 8, stem_stride=2)
    feats = backbone(Tensor(np.random.default_rng(1).uniform(0, 1, (8, 64, 64))))
    shapes = [f.shape for f in feats]
    assert shapes == [(8, 32, 32), (16, 16, 16), (32, 8, 8), (64, 4, 4)]
    for f in feats:
        assert np.isfinite(f.data).all()


def test_cross_resolution_fusion_is_live():
    """The backbone's output differs from the same module's branch features
    before fusion, and every fused branch hears from every other branch."""
    backbone = HighResBackbone(np.random.default_rng(5), 4, stem_stride=1)
    x = Tensor(np.random.default_rng(6).uniform(0, 1, (4, 16, 16)))
    branches = backbone.branches(x)
    fused = backbone(x)
    for a, b in zip(fused, branches):
        assert a.shape == b.shape
        assert np.abs(a.data - b.data).max() > 0
    for source in range(4):
        nudged = list(branches)
        nudged[source] = T.mul(branches[source], 2.0)
        refused = backbone.fusion(nudged)
        for target in range(4):
            if target != source:
                assert np.abs(refused[target].data - fused[target].data).max() > 0


def test_cross_scale_fusion_shapes():
    rng = np.random.default_rng(7)
    level = CrossScaleFusion(rng, 8, 16)
    x = Tensor(np.random.default_rng(8).uniform(0, 1, (8, 16, 16)))
    deeper = Tensor(np.random.default_rng(9).uniform(0, 1, (16, 8, 8)))
    out = level(x, deeper)
    assert out.shape == (8, 16, 16)

    deepest = CrossScaleFusion(rng, 16, None)
    out = deepest(Tensor(np.random.default_rng(10).uniform(0, 1, (16, 4, 4))))
    assert out.shape == (16, 4, 4)


def test_cross_scale_fusion_deeper_mismatch():
    level = CrossScaleFusion(np.random.default_rng(11), 8, 16)
    with pytest.raises(ShapeError):
        level(Tensor(np.ones((8, 8, 8))))


def test_cross_scale_fusion_degenerate_spatial():
    # a 1x1 level (the tiny config's deepest) still runs and stays finite
    deepest = CrossScaleFusion(np.random.default_rng(12), 8, None)
    out = deepest(Tensor(np.random.default_rng(13).uniform(0, 1, (8, 1, 1))))
    assert out.shape == (8, 1, 1) and np.isfinite(out.data).all()


def test_cross_scale_fusion_takes_one_path_at_every_level_size():
    # odd and 1x1 levels run the same ops as even ones
    deepest = CrossScaleFusion(np.random.default_rng(12), 8, None)
    sequences = []
    for size in (1, 3, 4):
        x = Tensor(np.random.default_rng(size).uniform(0, 1, (8, size, size)))
        names = []
        T._observe(lambda name, out, inputs: names.append(name), lambda: deepest(x))
        sequences.append(names)
    assert sequences[0] and sequences[0] == sequences[1] == sequences[2]


def test_cross_scale_fusion_no_dead_parameters():
    level = CrossScaleFusion(np.random.default_rng(14), 8, 16)
    x = Tensor(np.random.default_rng(15).uniform(0.1, 1.0, (8, 8, 8)))
    deeper = Tensor(np.random.default_rng(16).uniform(0.1, 1.0, (16, 4, 4)))
    with Tape() as tape:
        out = level(x, deeper)
        loss = T.sum_over(T.mul(out, out))
    tape.backward(loss)
    for name, p in level.named_parameters("level"):
        assert np.abs(p.grad).max() > 0, f"dead parameter {name}"


# ---------------------------------------------------------------------------
# coarse global grid


def brute_block_gt(mask, grid):
    h, w = mask.shape
    rh, rw = h // grid, w // grid
    out = np.zeros((grid, grid), dtype=np.uint8)
    for i in range(grid):
        for j in range(grid):
            block = mask[i * rh : (i + 1) * rh, j * rw : (j + 1) * rw]
            out[i, j] = 1 if (block == 1).any() else 0
    return out


@pytest.mark.parametrize("grid", [2, 4])
def test_block_ground_truth_all_single_pixel_masks(grid):
    for r in range(8):
        for c in range(8):
            mask = np.zeros((8, 8), dtype=np.uint8)
            mask[r, c] = 1
            got = block_ground_truth(mask, grid)
            np.testing.assert_array_equal(got, brute_block_gt(mask, grid))
            assert got.sum() == 1  # exactly the block containing the pixel


@pytest.mark.parametrize("grid", [2, 4])
def test_block_ground_truth_random_masks(grid):
    rng = np.random.default_rng(17)
    for _ in range(1000):
        mask = (rng.random((8, 8)) < rng.uniform(0.02, 0.9)).astype(np.uint8)
        np.testing.assert_array_equal(
            block_ground_truth(mask, grid), brute_block_gt(mask, grid)
        )


def test_block_ground_truth_extremes_and_errors():
    ones = np.ones((8, 8), dtype=np.uint8)
    np.testing.assert_array_equal(block_ground_truth(ones, 4), np.ones((4, 4)))
    zeros = np.zeros((8, 8), dtype=np.uint8)
    np.testing.assert_array_equal(block_ground_truth(zeros, 4), np.zeros((4, 4)))
    with pytest.raises(ShapeError):
        block_ground_truth(ones, 3)


def _tiny_head(seed=18):
    return GlobalSaliencyHead(np.random.default_rng(seed), grid=2, attention_width=16)


def _tiny_pyramid(seed=19):
    rng = np.random.default_rng(seed)
    sizes = [(8, 8, 8), (16, 4, 4), (32, 2, 2), (64, 1, 1)]
    return [Tensor(rng.uniform(0, 1, s)) for s in sizes]


def test_global_head_output_open_interval():
    out = _tiny_head()(_tiny_pyramid())
    assert out.shape == (1, 2, 2)
    assert (out.data > 0).all() and (out.data < 1).all()


def test_global_head_attention_rows_sum_to_one():
    head = _tiny_head()
    tokens = Tensor(np.random.default_rng(20).standard_normal((4, 16)))
    weights = head.attention_weights(tokens).data
    np.testing.assert_allclose(weights.sum(axis=1), np.ones(4), atol=1e-12)
    assert (weights >= 0).all()


def test_global_head_attention_is_token_permutation_equivariant():
    head = _tiny_head()
    tokens = np.random.default_rng(21).standard_normal((4, 16))
    base = head.attend(Tensor(tokens)).data
    for perm in itertools.permutations(range(4)):
        idx = np.array(perm)
        permuted = head.attend(Tensor(tokens[idx])).data
        np.testing.assert_allclose(permuted, base[idx], atol=1e-12)


# ---------------------------------------------------------------------------
# trimap head and full model


def test_trimap_head_distributions():
    # every level but the finest labels its pixels; the finest has only its map
    model = SaliencyModel(np.random.default_rng(23), tiny_model_config())
    out = model(np.random.default_rng(24).uniform(0, 1, (8, 8, 8)))
    assert len(out.trimaps) == len(out.level_predictions) - 1
    for p, t in zip(out.level_predictions[1:], out.trimaps):
        assert p.shape[0] == 1 and t.shape == (3, *p.shape[1:])
        assert (p.data > 0).all() and (p.data < 1).all()
        assert (t.data >= 0).all()
        np.testing.assert_allclose(t.data.sum(axis=0), np.ones(p.shape[1:]), atol=1e-12)
        assert set(np.unique(t.data.argmax(axis=0))) <= {0, 1, 2}


def test_global_head_rejects_incompatible_grid():
    """A cube whose levels do not fit the grid is refused by check_cube."""
    encoder = EncoderConfig(bands=8, heads=1, blocks=1)
    with pytest.raises(ShapeError, match="no integer factor with level size 12"):
        ModelConfig(encoder, DecoderConfig(grid=8, attention_width=16), 1).check_cube((8, 24, 24))
    config = ModelConfig(encoder, DecoderConfig(grid=3, attention_width=16), 1)
    assert config.level_sizes(24) == [24, 12, 6, 3]
    out = SaliencyModel(np.random.default_rng(22), config)(np.ones((8, 24, 24)))
    assert out.saliency.shape == (1, 24, 24) and out.block_saliency.shape == (1, 3, 3)


def test_group_bands():
    """The model's output depends on the cube only through its BAND_GROUP band means."""
    config = tiny_model_config()
    model = SaliencyModel(np.random.default_rng(27), config)
    cube = np.random.default_rng(28).uniform(0, 1, (8, 8, 8))
    groups = cube.reshape(-1, BAND_GROUP, *cube.shape[1:])
    shuffled = groups[:, ::-1].reshape(cube.shape)  # reorder bands within each group
    flattened = np.repeat(groups.mean(axis=1), BAND_GROUP, axis=0)
    reference = model(cube)
    for variant in (shuffled, flattened):
        out = model(variant)
        np.testing.assert_allclose(out.saliency.data, reference.saliency.data, atol=1e-12)
        np.testing.assert_allclose(out.restored.data, reference.restored.data, atol=1e-12)
    with pytest.raises(ShapeError):
        model.encoder(cube[:BAND_GROUP + 1])


def test_model_config_validation():
    with pytest.raises(ConfigError, match="stem stride"):
        ModelConfig(stem_stride=0)
    with pytest.raises(ConfigError, match="grid must be at most 32, got 64"):
        ModelConfig(  # levels 64/32/16/8 admit grid 64 by the factor rules alone
            encoder=EncoderConfig(bands=8, heads=1, blocks=1),
            decoder=DecoderConfig(grid=64, attention_width=16),
            stem_stride=1,
        )
    ModelConfig(stem_stride=1).check_cube((32, 8, 8))
    assert tiny_model_config().level_sizes(8) == [8, 4, 2, 1]
    assert default_model_config().level_sizes(64) == [32, 16, 8, 4]


_TINY_AT_GRID_16 = ModelConfig(  # no level of an 8x8 cube is as fine as the grid
    encoder=EncoderConfig(bands=8, heads=1, blocks=1),
    decoder=DecoderConfig(grid=16, attention_width=16),
    stem_stride=1,
)


@pytest.mark.parametrize(
    "config, shape, message",
    [
        (tiny_model_config(), (8, 8), r"a \(bands, H, W\) cube, got shape \(8, 8\)"),
        (tiny_model_config(), (4, 8, 8), "expects 8 bands, got 4"),
        (tiny_model_config(), (8, 32, 48), "square cube, got 32x48"),
        (tiny_model_config(), (8, 36, 36), "cube size 36 must be a positive multiple of 8"),
        (tiny_model_config(), (8, 0, 0), "cube size 0 must be a positive multiple of 8"),
        (ModelConfig(), (32, 20, 20), "cube size 20 must be a positive multiple of 16"),
        (_TINY_AT_GRID_16, (8, 8, 8), "grid 16 exceeds the finest level size 8"),
        (demo_model_config(), (8, 24, 24), "grid 4 shares no integer factor with level size 6"),
        (ModelConfig(decoder=DecoderConfig(grid=6)), (32, 64, 64), "grid 6 .* level size 32"),
        (ModelConfig(decoder=DecoderConfig(grid=3), stem_stride=1), (32, 8, 8),
         "grid 3 .* level size 8"),
    ],
    ids=["rank-2", "band-mismatch", "not-square", "not-a-multiple", "empty", "stem-2-multiple",
         "grid-above-finest-level", "grid-without-factor", "grid-6-at-64", "grid-3-at-8"],
)
def test_check_cube_refuses_before_any_op_runs(config, shape, message):
    with pytest.raises(ShapeError, match=message):
        config.check_cube(shape)
    model = SaliencyModel(None, config)
    ops = []
    with pytest.raises(ShapeError, match=message):
        T._observe(lambda name, out, inputs: ops.append(name), lambda: model(np.ones(shape)))
    assert ops == []


def test_every_model_config_that_constructs_builds():
    """check_cube is the only gate: every config that constructs builds, and
    its model runs on every cube size that check_cube admits."""
    encoder = EncoderConfig(bands=8, heads=1, blocks=1)
    ran = []
    for grid in range(1, 65):
        try:
            config = ModelConfig(encoder, DecoderConfig(grid, 8), 1)
        except ConfigError:
            assert grid > 32
            continue
        model = SaliencyModel(np.random.default_rng(grid), config)
        for size in (8, 16):
            try:
                config.check_cube((8, size, size))
            except ShapeError:
                continue
            out = model(np.random.default_rng(size).uniform(0, 1, (8, size, size)))
            assert out.saliency.shape == (1, size, size)
            assert out.block_saliency.shape == (1, grid, grid)
            ran.append((size, grid))
    # grids 1, 2, 4, 8 at both sizes, and 16 at size 16
    assert sorted(ran) == [(8, 1), (8, 2), (8, 4), (8, 8),
                           (16, 1), (16, 2), (16, 4), (16, 8), (16, 16)]


def test_model_size_does_not_depend_on_input_size():
    """Every level is resized to the grid, so one model runs at every admitted size."""
    rng = np.random.default_rng(33)
    for config, scalars, sizes in ((demo_model_config(), 261_067, (16, 32, 64)),
                                   (default_model_config(), 270_636, (32, 64))):
        model = SaliencyModel(rng, config)
        assert sum(p.data.size for p in model.parameters_by_name.values()) == scalars
        for size in sizes:
            cube = rng.uniform(0, 1, (config.encoder.bands, size, size))
            assert model(cube).saliency.shape == (1, size, size)


def test_model_forward_contract_and_determinism():
    config = tiny_model_config()
    cube = np.random.default_rng(25).uniform(0, 1, (8, 8, 8))
    a = SaliencyModel(np.random.default_rng(26), config)(cube)
    b = SaliencyModel(np.random.default_rng(26), config)(cube)
    assert a.saliency.shape == (1, 8, 8)
    assert a.restored.shape == (8, 8, 8)
    assert a.block_saliency.shape == (1, 2, 2)
    assert [p.shape for p in a.level_predictions] == [
        (1, 8, 8), (1, 4, 4), (1, 2, 2), (1, 1, 1)
    ]
    assert [t.shape for t in a.trimaps] == [(3, 4, 4), (3, 2, 2), (3, 1, 1)]
    assert (a.saliency.data > 0).all() and (a.saliency.data < 1).all()
    np.testing.assert_array_equal(a.saliency.data, b.saliency.data)
    np.testing.assert_array_equal(a.restored.data, b.restored.data)
    assert a.saliency_map().shape == (8, 8)


def test_restore_head_runs_only_when_restored_is_read():
    model = SaliencyModel(np.random.default_rng(0), tiny_model_config())
    cube = np.random.default_rng(1).uniform(0.0, 1.0, (8, 8, 8))

    def convs(build):
        names = []
        T._observe(lambda name, out, inputs: names.append(name), build)
        return names.count("conv2d")

    # 72 convs make the saliency map; reading the reconstruction runs the 73rd
    assert convs(lambda: model(cube).saliency_map()) == 72
    assert convs(lambda: model(cube).restored) == 73
    out = model(cube)
    np.testing.assert_array_equal(out.features.data, model.encoder(cube).data)
    restored = out.restored
    np.testing.assert_array_equal(restored.data, model.encoder.restore(out.features).data)
    assert out.restored is restored  # computed once


def test_model_rejects_wrong_cube_shape():
    model = SaliencyModel(np.random.default_rng(27), tiny_model_config())
    # one model runs on every cube size its grid admits
    assert model(np.ones((8, 16, 16))).saliency_map().shape == (16, 16)
    with pytest.raises(ShapeError):
        model(np.ones((4, 8, 8)))


def test_model_stem_upsampling_matches_finest_level():
    config = default_model_config(bands=8)
    model = SaliencyModel(np.random.default_rng(28), config)
    out = model(np.random.default_rng(29).uniform(0, 1, (8, 32, 32)))
    assert out.saliency.shape == (1, 32, 32)
    # nearest upsampling by the stem stride replicates each finest-level pixel
    np.testing.assert_array_equal(
        out.saliency.data[0, ::2, ::2], out.level_predictions[0].data[0]
    )


def test_deepest_decoder_level_has_no_deeper_hookup():
    model = SaliencyModel(np.random.default_rng(30), tiny_model_config())
    assert model.decoder.merge[3].deeper_channels is None
    assert all(model.decoder.merge[i].deeper_channels for i in range(3))


def test_parameter_names_unique_across_model():
    model = SaliencyModel(np.random.default_rng(31), tiny_model_config())
    names = [name for name, _ in model.named_parameters()]
    assert len(names) == len(set(names))
    assert any(n.startswith("encoder.") for n in names)
    assert any(n.startswith("backbone.") for n in names)
    assert any(n.startswith("decoder.global_head") for n in names)


def _modules(module):
    yield module
    for _, child in module._children():
        if isinstance(child, Module):
            yield from _modules(child)


@pytest.mark.parametrize("config", [tiny_model_config, demo_model_config, default_model_config])
def test_no_conv_feeding_a_channel_norm_has_a_bias(config):
    # channel_norm subtracts each channel's mean, so such a bias is dead weight
    model = SaliencyModel(np.random.default_rng(32), config())
    units = [
        [child for _, child in m._children()]
        for m in _modules(model)
        if any(isinstance(child, ChannelNorm) for _, child in m._children())
    ]
    assert units
    for children in units:
        convs = [child for child in children if isinstance(child, Conv2d)]
        assert convs and all(conv.bias is None for conv in convs)
