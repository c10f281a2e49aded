"""Spectral encoder: kernel sizing, head algebra, gating, block wiring."""

import numpy as np
import pytest

import specsal.tensor as T
from specsal.exceptions import ConfigError, ShapeError
from specsal.spectral_attention import (
    BAND_GROUP,
    AdaptiveSpectralGate,
    EncoderConfig,
    SpectralAttentionBlock,
    SpectralEncoder,
    SpectralSelfAttention,
    eca_kernel_size,
    spectral_head,
)
from specsal.tensor import Tape, Tensor


@pytest.mark.parametrize(
    "channels,expected",
    [(1, 1), (2, 1), (4, 1), (8, 3), (16, 3), (50, 3), (64, 3), (128, 5), (256, 5)],
)
def test_eca_kernel_size_table(channels, expected):
    # 8 channels sits exactly between 1 and 3; ties round upward
    assert eca_kernel_size(channels) == expected


def test_eca_kernel_size_rejects_zero():
    with pytest.raises(ConfigError):
        eca_kernel_size(0)


def test_spectral_head_zero_scale_mixes_uniformly():
    rng = np.random.default_rng(0)
    q = Tensor(np.zeros((6, 3)))
    k = Tensor(rng.standard_normal((6, 3)))
    v = Tensor(rng.standard_normal((6, 3)))
    out = spectral_head(q, k, v)
    # a query scaled to zero makes k^T q = 0, so every column softmax is
    # uniform and every output channel is the plain mean over value channels
    expected = np.repeat(v.data.mean(axis=1, keepdims=True), 3, axis=1)
    np.testing.assert_allclose(out.data, expected, atol=1e-12)


def test_spectral_head_is_channel_permutation_equivariant():
    rng = np.random.default_rng(1)
    q = rng.standard_normal((5, 4))
    k = rng.standard_normal((5, 4))
    v = rng.standard_normal((5, 4))
    perm = rng.permutation(4)
    base = spectral_head(Tensor(q), Tensor(k), Tensor(v)).data
    shuffled = spectral_head(Tensor(q[:, perm]), Tensor(k[:, perm]), Tensor(v[:, perm])).data
    np.testing.assert_allclose(shuffled, base[:, perm], atol=1e-12)


def test_spectral_head_outputs_are_convex_channel_mixes():
    rng = np.random.default_rng(2)
    q = Tensor(rng.standard_normal((7, 4)))
    k = Tensor(rng.standard_normal((7, 4)))
    v = Tensor(rng.standard_normal((7, 4)))
    out = spectral_head(q, k, v).data
    lo = v.data.min(axis=1, keepdims=True)
    hi = v.data.max(axis=1, keepdims=True)
    assert (out >= lo - 1e-12).all() and (out <= hi + 1e-12).all()


def test_self_attention_shape_and_determinism():
    x = np.random.default_rng(3).uniform(0.0, 1.0, (4, 6, 5))
    a = SpectralSelfAttention(np.random.default_rng(7), 4, 2)
    b = SpectralSelfAttention(np.random.default_rng(7), 4, 2)
    ya = a(Tensor(x))
    yb = b(Tensor(x))
    assert ya.shape == (4, 6, 5)
    np.testing.assert_array_equal(ya.data, yb.data)


def test_self_attention_rejects_indivisible_heads():
    with pytest.raises(ConfigError):
        SpectralSelfAttention(np.random.default_rng(0), 6, 4)


def test_gate_shrinks_and_preserves_sign():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((8, 5, 5))
    gate = AdaptiveSpectralGate(np.random.default_rng(5), 8)
    y = gate(Tensor(x)).data
    assert (np.abs(y) <= np.abs(x)).all()
    assert (np.sign(y[x != 0]) == np.sign(x[x != 0])).all()


def test_gate_is_constant_per_channel():
    rng = np.random.default_rng(6)
    x = rng.uniform(0.5, 1.5, (4, 6, 6))
    y = AdaptiveSpectralGate(np.random.default_rng(7), 4)(Tensor(x)).data
    ratios = y / x
    for c in range(4):
        np.testing.assert_allclose(ratios[c], ratios[c, 0, 0], rtol=1e-12)


def test_block_residual_wiring_with_zeroed_branches():
    """Zeroing branch outputs isolates the residual sums exactly.

    With the attention output map and local-mix tail zeroed the attention
    branch is 0; with the gate's channel conv zeroed the gate is sigmoid(0)
    = 0.5; with the FFN projection zeroed the second residual is identity.
    The block must then compute x + 0 + 0.5x = 1.5x exactly.
    """
    block = SpectralAttentionBlock(np.random.default_rng(8), 4, 2)
    block.attention.to_out.weight.data[:] = 0.0
    block.attention.local_mix_b.weight.data[:] = 0.0
    block.attention.local_mix_b.bias.data[:] = 0.0
    block.gate.mix.weight.data[:] = 0.0
    block.project.weight.data[:] = 0.0
    block.project.bias.data[:] = 0.0
    x = np.random.default_rng(9).uniform(0.0, 1.0, (4, 5, 5))
    y = block(Tensor(x)).data
    np.testing.assert_array_equal(y, 1.5 * x)


def _fd_scalar(loss_fn, array, idx, h=1e-5):
    orig = array[idx]
    array[idx] = orig + h
    fp = loss_fn()
    array[idx] = orig - h
    fm = loss_fn()
    array[idx] = orig
    return (fp - fm) / (2.0 * h)


def test_block_gradients_match_finite_differences():
    block = SpectralAttentionBlock(np.random.default_rng(10), 4, 2)
    x = np.random.default_rng(11).uniform(0.2, 1.2, (4, 5, 5))

    def loss_fn():
        return float(T.sum_over(T.mul(block(Tensor(x)), block(Tensor(x)))).data)

    with Tape() as tape:
        out = block(Tensor(x))
        loss = T.sum_over(T.mul(out, out))
    tape.backward(loss)

    probes = {
        "block.attention.to_query.weight": (1, 2),
        "block.gate.mix.weight": (0,),
        "block.expand.weight": (3, 1, 0, 0),
        "block.attention.local_mix_a.weight": (2, 0, 1, 1),
    }
    params = dict(block.named_parameters("block"))
    for name, idx in probes.items():
        p = params[name]
        fd = _fd_scalar(loss_fn, p.data, idx)
        got = float(p.grad[idx])
        denom = max(1e-4, abs(fd), abs(got))
        assert abs(fd - got) / denom < 1e-5, f"{name}: fd {fd} vs tape {got}"


def test_encoder_config_validation():
    with pytest.raises(ConfigError):
        EncoderConfig(bands=10)
    with pytest.raises(ConfigError):
        EncoderConfig(bands=32, heads=3)
    assert EncoderConfig(bands=8, heads=2).working_bands == 2


def test_encoder_returns_features_and_restored_bands():
    """The encoder takes the raw cube and averages runs of BAND_GROUP bands itself; it
    returns the features alone, and its restore head maps them back to every band."""
    config = EncoderConfig(bands=8, heads=2, blocks=1)
    encoder = SpectralEncoder(np.random.default_rng(12), config)
    cube = np.random.default_rng(13).uniform(0.0, 1.0, (8, 6, 6))
    features = encoder(cube)
    assert isinstance(features, Tensor)
    restored = encoder.restore(features)
    assert features.shape == (2, 6, 6)
    assert restored.shape == (8, 6, 6)

    grouped = sum(cube[i::BAND_GROUP] for i in range(BAND_GROUP)) / BAND_GROUP
    hidden = encoder.embed(Tensor(grouped))
    for block in encoder.blocks:
        hidden = block(hidden)
    np.testing.assert_array_equal(features.data, hidden.data)
    np.testing.assert_array_equal(restored.data, encoder.restore(hidden).data)

    for wrong in (cube[:4], cube[0], cube[None]):
        with pytest.raises(ShapeError, match="encoder expects"):
            encoder(wrong)


def test_encoder_parameter_names_are_unique():
    encoder = SpectralEncoder(np.random.default_rng(14), EncoderConfig())
    names = [name for name, _ in encoder.named_parameters("encoder")]
    assert len(names) == len(set(names))
    assert "encoder.blocks.0.attention.to_query.weight" in names
    assert any("blocks.1" in n for n in names)
