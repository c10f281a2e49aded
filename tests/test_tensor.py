"""Tensor primitives: frozen hand values, brute-force oracles, finite differences."""

import math
import tracemalloc

import numpy as np
import pytest

import specsal.tensor as T
from specsal.exceptions import ShapeError
from specsal.nn import uniform_init
from specsal.tensor import Parameter, Tape, Tensor

FD_STEP = 1e-5
FD_RTOL = 1e-5


def fd_gradient(fn, x, h=FD_STEP):
    """Central finite differences of a scalar fn() that reads x in place."""
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + h
        fp = fn()
        x[idx] = orig - h
        fm = fn()
        x[idx] = orig
        g[idx] = (fp - fm) / (2.0 * h)
    return g


def rel_error(a, b, floor=1e-4):
    """Max elementwise relative error with an absolute floor.

    Central differences at h=1e-5 carry ~1e-11 absolute noise, so gradients
    below the floor are compared absolutely at floor scale; anything larger is
    held to the true relative tolerance.
    """
    denom = np.maximum(floor, np.maximum(np.abs(a), np.abs(b)))
    return float(np.max(np.abs(a - b) / denom))


def check_gradients(build, arrays, rtol=FD_RTOL):
    """Tape gradients of build(*tensors) vs finite differences, per input."""
    params = [Parameter(a.copy()) for a in arrays]
    with Tape() as tape:
        loss = build(*params)
    tape.backward(loss)
    for p in params:
        def forward(p=p):
            return float(build(*[Tensor(q.data) for q in params]).data)

        # re-evaluate with the perturbed copy of this parameter's storage
        def forward_inplace(p=p):
            vals = [Tensor(q.data) for q in params]
            return float(build(*vals).data)

        fd = fd_gradient(forward_inplace, p.data)
        err = rel_error(fd, p.grad)
        assert err < rtol, f"gradient mismatch {err:.2e} for input shape {p.shape}"


# ---------------------------------------------------------------------------
# frozen forward values


def test_matmul_hand_value():
    out = T.matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[1.0], [2.0]]))
    assert out.data.tolist() == [[5.0], [11.0]]


def test_matmul_shape_mismatch_names_shapes():
    with pytest.raises(ShapeError, match=r"\(2, 3\) @ \(2, 2\)"):
        T.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 2))))


def test_softmax_frozen_pair():
    out = T.softmax(Tensor([1.0, 2.0]), axis=0)
    np.testing.assert_allclose(
        out.data, [0.2689414213699951, 0.7310585786300049], rtol=0, atol=1e-15
    )


def test_softmax_rows_sum_to_one_and_positive():
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(size=(5, 7)) * 50.0)
    for axis in (0, 1):
        y = T.softmax(x, axis).data
        np.testing.assert_allclose(y.sum(axis=axis), 1.0, rtol=0, atol=1e-12)
        assert (y > 0).all()


def test_softmax_extreme_inputs_stay_finite():
    y = T.softmax(Tensor([1000.0, 1000.5, -1000.0]), axis=0).data
    assert np.isfinite(y).all()
    assert abs(y.sum() - 1.0) < 1e-12


def test_softmax_empty_axis_and_bad_axis_error():
    with pytest.raises(ShapeError):
        T.softmax(Tensor(np.zeros((3, 0))), axis=1)
    with pytest.raises(ShapeError):
        T.softmax(Tensor(np.zeros(3)), axis=2)


def test_conv2d_ones_overlap_counts():
    # 3x3 ones kernel over a 5x5 ones image, zero padding: output counts the
    # in-bounds taps, 4 in corners, 6 on edges, 9 inside.
    x = Tensor(np.ones((1, 5, 5)))
    k = Tensor(np.ones((1, 1, 3, 3)))
    out = T.conv2d(x, k, stride=1).data[0]
    expected = np.array(
        [
            [4.0, 6.0, 6.0, 6.0, 4.0],
            [6.0, 9.0, 9.0, 9.0, 6.0],
            [6.0, 9.0, 9.0, 9.0, 6.0],
            [6.0, 9.0, 9.0, 9.0, 6.0],
            [4.0, 6.0, 6.0, 6.0, 4.0],
        ]
    )
    np.testing.assert_array_equal(out, expected)


def test_conv2d_identity_kernel_is_exact():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(3, 6, 5))
    k = np.zeros((3, 3, 3, 3))
    for c in range(3):
        k[c, c, 1, 1] = 1.0
    out = T.conv2d(Tensor(x), Tensor(k)).data
    np.testing.assert_array_equal(out, x)


def brute_conv2d(x, k, stride, ph, pw, depthwise):
    c_out = k.shape[0]
    c_in, h, w = x.shape
    kh, kw = k.shape[2], k.shape[3]
    xp = np.zeros((c_in, h + 2 * ph, w + 2 * pw))
    xp[:, ph : ph + h, pw : pw + w] = x
    ho = (h + 2 * ph - kh) // stride + 1
    wo = (w + 2 * pw - kw) // stride + 1
    out = np.zeros((c_out, ho, wo))
    for o in range(c_out):
        for i in range(ho):
            for j in range(wo):
                patch = xp[:, i * stride : i * stride + kh, j * stride : j * stride + kw]
                if depthwise:
                    out[o, i, j] = (patch[o] * k[o, 0]).sum()
                else:
                    out[o, i, j] = (patch * k[o]).sum()
    return out


CONV_CASES = pytest.mark.parametrize(
    "cin,cout,kh,kw,stride,depthwise",
    [
        (3, 4, 3, 3, 1, False),
        (3, 4, 3, 3, 2, False),
        (2, 5, 1, 1, 1, False),
        (4, 4, 3, 3, 1, True),
        (3, 3, 7, 1, 1, True),
        (2, 6, 1, 7, 1, False),
        (3, 3, 3, 3, 2, True),
        (3, 4, 1, 1, 2, False),
    ],
)


def conv_case(cin, cout, kh, kw, depthwise):
    rng = np.random.default_rng(17)
    x = rng.normal(size=(cin, 8, 9))
    kshape = (cout, 1, kh, kw) if depthwise else (cout, cin, kh, kw)
    return x, rng.normal(size=kshape)


@CONV_CASES
def test_conv2d_matches_bruteforce(cin, cout, kh, kw, stride, depthwise):
    x, k = conv_case(cin, cout, kh, kw, depthwise)
    ph, pw = kh // 2, kw // 2
    got = T.conv2d(Tensor(x), Tensor(k), stride, depthwise=depthwise).data
    want = brute_conv2d(x, k, stride, ph, pw, depthwise)
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13)


@CONV_CASES
def test_conv2d_gradients_are_adjoint(cin, cout, kh, kw, stride, depthwise):
    # conv is linear in x and in k, so for L = <conv(x, k), G> the dot-product
    # test gives <x, dL/dx> = <k, dL/dk> = L exactly, up to rounding
    x, k = conv_case(cin, cout, kh, kw, depthwise)
    px, pk = Parameter(x), Parameter(k)
    with Tape() as tape:
        y = T.conv2d(px, pk, stride, depthwise=depthwise)
        weights = np.random.default_rng(18).normal(size=y.shape)
        loss = T.sum_over(T.mul(y, weights))
    tape.backward(loss)
    assert px.grad.shape == x.shape and pk.grad.shape == k.shape
    np.testing.assert_allclose(np.vdot(x, px.grad), loss.item(), rtol=1e-12)
    np.testing.assert_allclose(np.vdot(k, pk.grad), loss.item(), rtol=1e-12)


def traced_held_bytes(build):
    """Bytes still allocated, per tracemalloc, after build() runs under tracing."""
    tracemalloc.start()
    try:
        result = build()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return result, held


def test_conv2d_keeps_no_im2col_on_the_tape():
    # an im2col of a 3x3 conv holds 9 copies of the input; backward rebuilds it
    rng = np.random.default_rng(4)
    x = Tensor(rng.normal(size=(8, 32, 32)))
    k = Parameter(rng.normal(size=(8, 8, 3, 3)))
    tracemalloc.start()
    try:
        with Tape() as tape:
            out = T.conv2d(x, k)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(tape) == 1 and out.shape == x.shape
    assert held < 3 * x.data.nbytes


def test_conv2d_keeps_no_padded_input_on_the_tape():
    # the caller holds the output, and the closure keeps only x, which the
    # caller holds too; a zero-padded copy of x (1.13 x for 32x32 at 3x3) is rebuilt
    rng = np.random.default_rng(4)
    x = Tensor(rng.normal(size=(8, 32, 32)))
    k = Parameter(rng.normal(size=(8, 8, 3, 3)))
    with Tape() as tape:
        out, held = traced_held_bytes(lambda: T.conv2d(x, k))
    assert len(tape) == 1 and out.shape == x.shape
    assert held < 1.5 * x.data.nbytes


def test_conv2d_rejects_even_kernel_and_bad_channels():
    with pytest.raises(ShapeError):
        T.conv2d(Tensor(np.ones((2, 4, 4))), Tensor(np.ones((2, 2, 2, 2))))
    with pytest.raises(ShapeError):
        T.conv2d(Tensor(np.ones((2, 4, 4))), Tensor(np.ones((3, 4, 3, 3))))
    with pytest.raises(ShapeError):
        T.conv2d(Tensor(np.ones((2, 4, 4))), Tensor(np.ones((3, 1, 3, 3))), depthwise=True)


def test_channel_conv1d_hand_value():
    x = Tensor(np.array([1.0, 2.0, 3.0]).reshape(3, 1, 1))
    k = Tensor(np.ones(3))
    out = T.channel_conv1d(x, k).data.reshape(3)
    np.testing.assert_array_equal(out, [3.0, 6.0, 5.0])


def test_pool_global_hand_values():
    x = Tensor(np.array([[[1.0, 2.0], [3.0, 4.0]]]))
    assert T.pool_global(x, "avg").data.tolist() == [[[2.5]]]
    assert T.pool_global(x, "max").data.tolist() == [[[4.0]]]
    with pytest.raises(ValueError):
        T.pool_global(x, "median")


def test_pixel_shuffle_roundtrip_bit_exact():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(8, 6, 4))
    for r in (1, 2):
        t = T.pixel_shuffle(Tensor(x), r)
        back = T.pixel_unshuffle(t, r)
        np.testing.assert_array_equal(back.data, x)
    y = rng.normal(size=(3, 8, 12))
    for r in (2, 4):
        t = T.pixel_unshuffle(Tensor(y), r)
        back = T.pixel_shuffle(t, r)
        np.testing.assert_array_equal(back.data, y)


def test_pixel_shuffle_divisibility_errors():
    with pytest.raises(ShapeError):
        T.pixel_shuffle(Tensor(np.ones((6, 2, 2))), 2)
    with pytest.raises(ShapeError):
        T.pixel_unshuffle(Tensor(np.ones((2, 5, 4))), 2)


def test_resample_hand_values_and_inverse():
    x = np.array([[[1.0, 2.0], [3.0, 4.0]]])
    down = T.downsample_avg(Tensor(x), 2).data
    np.testing.assert_array_equal(down, [[[2.5]]])
    up = T.upsample_nearest(Tensor(down), 2).data
    np.testing.assert_array_equal(up, [[[2.5, 2.5], [2.5, 2.5]]])
    rng = np.random.default_rng(4)
    y = rng.normal(size=(3, 4, 5))
    roundtrip = T.downsample_avg(T.upsample_nearest(Tensor(y), 2), 2).data
    np.testing.assert_array_equal(roundtrip, y)
    with pytest.raises(ShapeError):
        T.downsample_avg(Tensor(np.ones((1, 5, 4))), 2)


def test_activations_at_zero():
    z = Tensor(np.zeros(3))
    assert T.relu(z).data.tolist() == [0.0, 0.0, 0.0]
    assert T.gelu(z).data.tolist() == [0.0, 0.0, 0.0]
    assert T.sigmoid(z).data.tolist() == [0.5, 0.5, 0.5]
    assert T.relu(Tensor([-2.0, 3.0])).data.tolist() == [0.0, 3.0]


def _ulps_from_math_erf(values):
    want = np.array([math.erf(v) for v in values])
    return np.abs(T._erf(values) - want) / np.spacing(np.abs(want))


def test_erf_within_two_ulp_of_math_erf():
    tiny = np.geomspace(1e-300, 1e-3, 2001)
    grid = np.concatenate([np.linspace(-12.0, 12.0, 48001), tiny, -tiny])
    assert _ulps_from_math_erf(grid).max() <= 2.0
    # short runs: those inside [-1, 1] have no |x| > 1 entry, the rest mix
    for run in np.array_split(np.linspace(-3.0, 3.0, 6001), 60):
        assert _ulps_from_math_erf(run).max() <= 2.0
    # both sides of the rational switch (|x| = 1) and of Cephes' 8
    edges = [e for c in (1.0, 8.0) for e in (np.nextafter(c, 0.0), c, np.nextafter(c, 9.0))]
    edges = np.array(edges + [-e for e in edges])
    assert _ulps_from_math_erf(edges).max() <= 2.0
    for one in edges:
        assert _ulps_from_math_erf(np.array([one])).max() <= 2.0


def test_erf_signed_zero_infinities_and_nan():
    zeros = T._erf(np.array([0.0, -0.0]))
    assert zeros.tolist() == [0.0, 0.0]
    assert np.signbit(zeros).tolist() == [False, True]
    assert T._erf(np.array([np.inf, -np.inf, 2.0])).tolist() == [1.0, -1.0, math.erf(2.0)]
    assert np.isnan(T._erf(np.array([np.nan, 0.5, 3.0]))).tolist() == [True, False, False]
    assert np.isnan(T._erf(np.array([np.nan]))).all()


def test_erf_and_sigmoid_raise_no_floating_point_error_at_extremes():
    huge = np.geomspace(1e-300, 1e300, 601)
    with np.errstate(all="raise"):
        values = T._erf(np.concatenate([huge, -huge]))
        ends = T.sigmoid(Tensor([-1000.0, 1000.0, -np.inf, np.inf])).data
    assert values[[0, 600, -1]].tolist() == [math.erf(1e-300), 1.0, -1.0]
    assert ends.tolist() == [0.0, 1.0, 0.0, 1.0]


def test_sigmoid_is_symmetric_within_one_ulp():
    x = np.linspace(-40.0, 40.0, 8001)
    total = T.sigmoid(Tensor(x)).data + T.sigmoid(Tensor(-x)).data
    assert np.abs(total - 1.0).max() <= np.spacing(1.0)


def test_channel_norm_standardizes_then_affines():
    rng = np.random.default_rng(5)
    x = rng.normal(loc=3.0, scale=2.0, size=(4, 6, 6))
    gain = Tensor(np.ones((4, 1, 1)))
    bias = Tensor(np.zeros((4, 1, 1)))
    y = T.channel_norm(Tensor(x), gain, bias).data
    np.testing.assert_allclose(y.mean(axis=(1, 2)), 0.0, atol=1e-12)
    np.testing.assert_allclose(y.std(axis=(1, 2)), 1.0, atol=1e-4)  # eps=1e-5 bias
    # scale invariance for c > 0 on non-constant channels (up to the eps term)
    y2 = T.channel_norm(Tensor(17.0 * x), gain, bias).data
    np.testing.assert_allclose(y2, y, atol=1e-4)
    # affine comes after standardization
    two, seven = Tensor(np.full((4, 1, 1), 2.0)), Tensor(np.full((4, 1, 1), 7.0))
    y3 = T.channel_norm(Tensor(x), two, seven).data
    np.testing.assert_allclose(y3, 2.0 * y + 7.0, atol=1e-12)


def test_channel_norm_cancels_per_channel_offsets():
    # The reason a conv in front of channel_norm carries no bias: the mean
    # subtraction removes any per-channel constant exactly, up to rounding.
    rng = np.random.default_rng(6)
    x = rng.normal(size=(4, 6, 5))
    gain, bias = Tensor(rng.normal(size=(4, 1, 1))), Tensor(rng.normal(size=(4, 1, 1)))
    offsets = np.array([3.0, -2.0, 0.5, 40.0])[:, None, None]
    y = T.channel_norm(Tensor(x), gain, bias).data
    shifted = T.channel_norm(Tensor(x + offsets), gain, bias).data
    np.testing.assert_allclose(shifted, y, rtol=0.0, atol=1e-12)


def test_channel_norm_tape_keeps_one_map_besides_its_output():
    # the gain folds into the (C,1,1) inverse std, so the tape keeps the
    # centered map and small factors, not a normalized copy as well: 2.06 x
    # the input with the output, against 3.05 x for centered * inv * gain
    rng = np.random.default_rng(7)
    x = Parameter(rng.normal(size=(16, 32, 32)))
    gain, bias = Parameter(rng.normal(size=(16, 1, 1))), Parameter(rng.normal(size=(16, 1, 1)))
    with Tape():
        out, held = traced_held_bytes(lambda: T.channel_norm(x, gain, bias))
    assert out.shape == x.shape
    assert held < 2.5 * x.data.nbytes


def test_channel_norm_refuses_an_affine_not_shaped_c11():
    # a (C,) gain would broadcast along W: on a map with W == C the output has
    # the right shape and wrong values, so only (C,1,1) gain and bias pass
    x = Tensor(np.random.default_rng(8).normal(size=(4, 4, 4)))
    c11, flat = Tensor(np.ones((4, 1, 1))), Tensor(np.ones(4))
    for gain, bias in [(flat, flat), (flat, c11), (c11, flat), (c11, Tensor(np.ones((1, 1, 1))))]:
        with pytest.raises(ShapeError, match=r"\(C,1,1\) gain and bias"):
            T.channel_norm(x, gain, bias)
    with pytest.raises(ShapeError):
        T.channel_norm(Tensor(np.ones((4, 4))), c11, c11)


# ---------------------------------------------------------------------------
# tape mechanics


def test_backward_requires_scalar_loss():
    p = Parameter(np.ones(3))
    with Tape() as tape:
        y = T.mul(p, 2.0)
    with pytest.raises(ShapeError):
        tape.backward(y)


def test_backward_visits_each_op_once_in_reverse_order():
    visits = []
    p = Parameter(np.array(2.0))
    with Tape() as tape:
        a = T.mul(p, 3.0)
        b = T.add(a, 1.0)
        c = T.mul(a, b)  # shared subexpression: `a` feeds two consumers
    order = []
    wrapped = []
    for i, (out, inputs, back) in enumerate(tape._records):
        def make(back=back, i=i):
            def traced(g):
                order.append(i)
                return back(g)

            return traced

        wrapped.append((out, inputs, make()))
    tape._records = wrapped
    tape.backward(c)
    assert order == [2, 1, 0]  # reverse execution order, one visit each
    # d/dp of 3p*(3p+1) = 18p + 3 = 39 at p=2
    assert p.grad == pytest.approx(39.0)


def test_backward_consumes_the_tape():
    p = Parameter(np.array([1.0, 2.0]))
    with Tape() as tape:
        loss = T.sum_over(T.mul(p, p))
    assert len(tape) == 2
    tape.backward(loss)
    assert len(tape) == 0
    np.testing.assert_array_equal(p.grad, [2.0, 4.0])
    with pytest.raises(RuntimeError, match="already replayed"):
        tape.backward(loss)
    np.testing.assert_array_equal(p.grad, [2.0, 4.0])


def test_backward_releases_each_record_once_replayed():
    # traced from before the forward pass: once the caller drops its
    # references, the gradient buffer is all that is left of a 50-op chain
    n = 100_000
    p = Parameter(np.ones(n))

    def forward_and_backward():
        with Tape() as tape:
            y = p
            for _ in range(50):
                y = T.mul(y, 1.0)
            loss = T.sum_over(y)
        tape.backward(loss)
        return tape

    tape, held = traced_held_bytes(forward_and_backward)
    assert len(tape) == 0
    assert held < 3 * n * p.data.itemsize
    np.testing.assert_array_equal(p.grad, np.ones(n))


def test_records_keep_no_op_outputs():
    # add's backward reads only shapes, so after a 50-op chain the caller's
    # last output is the only large array left; the tape holds none
    n = 100_000
    p = Parameter(np.ones(n))

    def forward():
        with Tape() as tape:
            y = p
            for _ in range(50):
                y = T.add(y, 1.0)
            loss = T.sum_over(y)
        return tape, loss

    (tape, loss), held = traced_held_bytes(forward)
    assert len(tape) == 51
    assert held <= 2 * n * p.data.itemsize
    tape.backward(loss)
    np.testing.assert_array_equal(p.grad, np.ones(n))


def test_tensor_from_an_earlier_tape_is_a_constant():
    p = Parameter(np.array([1.0, 2.0]))
    with Tape() as first:
        stale = T.mul(p, 3.0)
        first_loss = T.sum_over(stale)
    with Tape() as second:
        loss = T.sum_over(T.mul(stale, p))  # d/dp = stale, with stale held fixed
    assert len(second) == 2
    second.backward(loss)
    np.testing.assert_array_equal(p.grad, [3.0, 6.0])
    p.store.grad = None
    first.backward(first_loss)  # the second tape left nothing pending on the first's nodes
    np.testing.assert_array_equal(p.grad, [3.0, 3.0])
    with Tape() as third:  # now from a finished tape, and as the loss itself
        T.mul(stale, 2.0)
    assert len(third) == 0
    third.backward(first_loss)
    np.testing.assert_array_equal(p.grad, [3.0, 3.0])


def test_parameter_allocates_its_gradient_on_first_use():
    p = Parameter(np.ones((2, 3)))
    assert p.store.grad is None
    with Tape():
        T.mul(p, 2.0)
    assert p.store.grad is None  # forward alone never allocates it
    np.testing.assert_array_equal(p.grad, np.zeros((2, 3)))
    p.grad[0, 0] = 5.0
    assert p.grad[0, 0] == 5.0
    p.store.grad = None
    assert p.store.grad is None  # dropped, not filled: nothing holds it during a forward pass
    np.testing.assert_array_equal(p.grad, np.zeros((2, 3)))
    p.store.grad = None
    with Tape() as tape:
        loss = T.sum_over(T.mul(p, 2.0))
    assert p.store.grad is None
    tape.backward(loss)
    np.testing.assert_array_equal(p.store.grad, np.full(6, 2.0))


def test_backward_frees_each_gradient_once_consumed():
    # a 50-op chain needs a few live gradient arrays at a time, not one per op
    n = 100_000
    p = Parameter(np.ones(n))
    with Tape() as tape:
        y = p
        for _ in range(50):
            y = T.mul(y, 1.0)
        loss = T.sum_over(y)
    tracemalloc.start()
    try:
        tape.backward(loss)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * n * p.data.itemsize
    np.testing.assert_array_equal(p.grad, np.ones(n))


def test_gradient_accumulates_across_reuse():
    p = Parameter(np.array([1.5]))
    with Tape() as tape:
        y = T.sum_over(T.add(T.mul(p, p), T.mul(p, 3.0)))  # p^2 + 3p
    tape.backward(y)
    assert p.grad[0] == pytest.approx(2 * 1.5 + 3.0)


def test_parameter_is_a_tensor_with_an_array_gradient():
    p = Parameter(np.array([2.0, 3.0]))
    assert isinstance(p, Tensor)
    with Tape() as tape:
        y = T.sum_over(T.mul(p, p))
    tape.backward(y)
    assert type(p.grad) is np.ndarray
    np.testing.assert_array_equal(p.grad, [4.0, 6.0])


def test_nested_tape_raises_and_leaves_the_outer_tape_active():
    p = Parameter(np.array([2.0]))
    with Tape() as outer:
        with pytest.raises(RuntimeError, match="already active"):
            with Tape():
                pass
        y = T.sum_over(T.mul(p, 3.0))
    assert len(outer) == 2
    outer.backward(y)
    np.testing.assert_array_equal(p.grad, [3.0])
    with Tape() as again:  # the slot is free once the outer tape exits
        T.mul(p, 1.0)
    assert len(again) == 1


def test_ops_off_tape_record_nothing():
    p = Parameter(np.ones(2))
    out = T.mul(p, 2.0)
    assert out.data.tolist() == [2.0, 2.0]
    with Tape() as tape:
        pass
    assert len(tape) == 0


def _reshape_block_sum(d, f):
    c, h, w = d.shape
    return d.reshape(c, h // f, f, w // f, f).sum(axis=(2, 4))


@pytest.mark.parametrize("f", range(1, 17))
def test_block_sum_matches_the_reshape_reduce_bit_for_bit(f):
    # downsample_avg forward and upsample_nearest backward take block sums from
    # strided slices; where an output row is two or more blocks wide they add in
    # numpy's own order, so the reshape reduce they replace gives the same bits
    rng = np.random.default_rng(f)
    for channels in (1, 3):
        for rows, cols in ((2, 2), (3, 5), (1, 4)):
            shape = (channels, f * rows, f * cols)
            d = rng.normal(size=shape) * 10.0 ** rng.uniform(-6, 6, size=shape)
            np.testing.assert_array_equal(T._block_sum(d, f), _reshape_block_sum(d, f))
            np.testing.assert_array_equal(T.downsample_avg(Tensor(d), f).data,
                                          d.reshape(channels, rows, f, cols, f).mean(axis=(2, 4)))
            x = Parameter(np.zeros((channels, rows, cols)))
            with Tape() as tape:
                up = T.upsample_nearest(x, f)
                loss = T.sum_over(T.mul(up, d))
            tape.backward(loss)
            np.testing.assert_array_equal(x.grad, _reshape_block_sum(d, f))


def test_block_sum_one_block_wide_agrees_at_rounding():
    # where an output row is one block wide (the tiny config's 1x1 level),
    # numpy merges each block into one contiguous run and sums it in another
    # order, so the slices agree with it only to rounding below f = 8
    rng = np.random.default_rng(17)
    for f in range(2, 8):
        d = rng.normal(size=(3, 2 * f, f)) * 10.0 ** rng.uniform(-6, 6, size=(3, 2 * f, f))
        want = _reshape_block_sum(d, f)
        np.testing.assert_allclose(T._block_sum(d, f), want, rtol=0,
                                   atol=4 * f * f * np.spacing(np.abs(d).max()))


def test_broadcast_add_unbroadcasts_gradient():
    a = Parameter(np.ones((3, 1)))
    b = Parameter(np.ones((1, 4)))
    with Tape() as tape:
        y = T.sum_over(T.add(a, b))
    tape.backward(y)
    np.testing.assert_array_equal(a.grad, np.full((3, 1), 4.0))
    np.testing.assert_array_equal(b.grad, np.full((1, 4), 3.0))


def test_shared_upstream_gradient_is_not_corrupted():
    # z = x + y feeds two consumers of x; accumulation into x's gradient must
    # not alias and mutate the gradient buffer shared with y.
    x = Parameter(np.array([1.0, 2.0]))
    y = Parameter(np.array([3.0, 4.0]))
    with Tape() as tape:
        z = T.add(x, y)
        w = T.add(z, x)  # dx = dz + 1, dy = dz
        loss = T.sum_over(w)
    tape.backward(loss)
    np.testing.assert_array_equal(x.grad, [2.0, 2.0])
    np.testing.assert_array_equal(y.grad, [1.0, 1.0])


@pytest.mark.parametrize(
    "shape, axes",
    [((), None), ((5,), None), ((5,), 0), ((3, 4), (1,)), ((3, 4), (0, 1)),
     ((2, 3, 4), (1, 2)), ((2, 3, 4), (0, 2)), ((4, 6, 5), -1)],
)
@pytest.mark.parametrize("keepdims", [False, True])
def test_mean_over_matches_numpy_mean_bitwise(shape, axes, keepdims):
    x = np.random.default_rng(8).normal(size=shape) * 1e3
    got = T.mean_over(Tensor(x), axes, keepdims).data
    want = np.asarray(np.mean(x, axis=axes, keepdims=keepdims))
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# finite-difference gradient checks, per primitive


def scalarize(t):
    return T.mean_over(t)


PRIMITIVE_CASES = {
    "add": (lambda a, b: scalarize(T.mul(T.add(a, b), T.add(a, b))), [(3, 4), (3, 4)]),
    "sub_broadcast": (lambda a, b: scalarize(T.mul(T.sub(a, b), T.sub(a, b))), [(3, 4), (4,)]),
    "mul": (lambda a, b: scalarize(T.mul(a, b)), [(2, 5), (2, 5)]),
    "div": (lambda a, b: scalarize(T.div(a, T.add(T.mul(b, b), 1.0))), [(3, 3), (3, 3)]),
    "matmul": (lambda a, b: scalarize(T.matmul(a, b)), [(3, 4), (4, 2)]),
    "power": (lambda a: scalarize(T.power(T.add(T.mul(a, a), 0.5), -0.5)), [(4, 3)]),
    "absolute": (lambda a: scalarize(T.absolute(a)), [(5, 5)]),
    "log": (lambda a: scalarize(T.log(T.add(T.mul(a, a), 1.0))), [(4,)]),
    "exp": (lambda a: scalarize(T.exp(T.mul(a, 0.5))), [(4, 2)]),
    "clip": (lambda a: scalarize(T.mul(T.clip(a, -0.7, 0.7), a)), [(6,)]),
    "relu": (lambda a: scalarize(T.relu(a)), [(4, 4)]),
    "sigmoid": (lambda a: scalarize(T.sigmoid(a)), [(3, 4)]),
    "gelu": (lambda a: scalarize(T.gelu(a)), [(3, 4)]),
    "softmax0": (lambda a: scalarize(T.mul(T.softmax(a, 0), T.exp(a))), [(4, 3)]),
    "softmax1": (lambda a: scalarize(T.mul(T.softmax(a, 1), T.exp(a))), [(4, 3)]),
    "reshape": (lambda a: scalarize(T.mul(T.reshape(a, (6, 2)), 2.0)), [(3, 4)]),
    "transpose": (lambda a: scalarize(T.matmul(T.transpose2d(a), a)), [(3, 4)]),
    "narrow": (lambda a: scalarize(T.mul(T.narrow(a, 1, 1, 2), 3.0)), [(3, 4)]),
    "concat": (
        lambda a, b: scalarize(T.mul(T.concat([a, b], 1), T.concat([b, a], 1))),
        [(2, 3), (2, 3)],
    ),
    "sum_axes": (lambda a: scalarize(T.mul(T.sum_over(a, (1,), True), a)), [(3, 4)]),
    "mean_axes": (lambda a: scalarize(T.mul(T.mean_over(a, (0,), True), a)), [(3, 4)]),
    "conv2d": (
        lambda x, k: scalarize(T.mul(T.conv2d(x, k, 1), T.conv2d(x, k, 1))),
        [(2, 5, 5), (3, 2, 3, 3)],
    ),
    "conv2d_stride2": (
        lambda x, k: scalarize(T.conv2d(x, k, 2)),
        [(2, 6, 6), (2, 2, 3, 3)],
    ),
    "conv2d_depthwise": (
        lambda x, k: scalarize(T.mul(T.conv2d(x, k, 1, depthwise=True), 2.0)),
        [(3, 4, 4), (3, 1, 3, 3)],
    ),
    "conv2d_1x1": (
        lambda x, k: scalarize(T.mul(T.conv2d(x, k), T.conv2d(x, k))),
        [(3, 4, 4), (2, 3, 1, 1)],
    ),
    "conv2d_7x1": (
        lambda x, k: scalarize(T.mul(T.conv2d(x, k), T.conv2d(x, k))),
        [(2, 5, 4), (2, 2, 7, 1)],
    ),
    "conv2d_1x7": (
        lambda x, k: scalarize(T.mul(T.conv2d(x, k), T.conv2d(x, k))),
        [(2, 4, 5), (2, 2, 1, 7)],
    ),
    "conv2d_stride2_odd": (
        lambda x, k: scalarize(T.mul(T.conv2d(x, k, 2), T.conv2d(x, k, 2))),
        [(2, 5, 5), (3, 2, 3, 3)],
    ),
    "conv2d_depthwise_stride2": (
        lambda x, k: scalarize(T.mul(T.conv2d(x, k, 2, depthwise=True), 2.0)),
        [(3, 5, 5), (3, 1, 3, 3)],
    ),
    "conv2d_stride2_mixed_parity": (
        lambda x, k: scalarize(T.mul(T.conv2d(x, k, 2), T.conv2d(x, k, 2))),
        [(2, 6, 5), (3, 2, 3, 3)],
    ),
    "conv2d_1x1_stride2": (
        lambda x, k: scalarize(T.mul(T.conv2d(x, k, 2), T.conv2d(x, k, 2))),
        [(3, 5, 6), (2, 3, 1, 1)],
    ),
    "conv2d_1x7_stride2": (
        lambda x, k: scalarize(T.mul(T.conv2d(x, k, 2), T.conv2d(x, k, 2))),
        [(2, 5, 6), (2, 2, 1, 7)],
    ),
    "channel_conv1d": (
        lambda x, k: scalarize(T.mul(T.channel_conv1d(x, k), T.channel_conv1d(x, k))),
        [(6, 1, 1), (3,)],
    ),
    "pool_avg": (lambda x: scalarize(T.mul(T.pool_global(x, "avg"), x)), [(3, 4, 4)]),
    "pool_max": (lambda x: scalarize(T.mul(T.pool_global(x, "max"), x)), [(3, 4, 4)]),
    "pixel_shuffle": (lambda x: scalarize(T.mul(T.pixel_shuffle(x, 2), 3.0)), [(8, 2, 2)]),
    "pixel_unshuffle": (lambda x: scalarize(T.mul(T.pixel_unshuffle(x, 2), 3.0)), [(2, 4, 4)]),
    "upsample": (lambda x: scalarize(T.mul(T.upsample_nearest(x, 2), T.upsample_nearest(x, 2))), [(2, 3, 3)]),
    "downsample": (lambda x: scalarize(T.mul(T.downsample_avg(x, 2), 2.0)), [(2, 4, 4)]),
    "channel_norm": (
        lambda x, g, b: scalarize(T.mul(T.channel_norm(x, g, b), T.exp(T.mul(x, 0.1)))),
        [(3, 4, 4), (3, 1, 1), (3, 1, 1)],
    ),
}


@pytest.mark.parametrize("name", sorted(PRIMITIVE_CASES))
def test_primitive_gradients_match_finite_differences(name):
    build, shapes = PRIMITIVE_CASES[name]
    rng = np.random.default_rng(hash(name) % (2**32))
    arrays = [rng.normal(size=s) for s in shapes]
    check_gradients(build, arrays)


# ---------------------------------------------------------------------------
# random composite graphs (<= 10 ops) against finite differences

UNARY_OPS = [
    lambda t: T.gelu(t),
    lambda t: T.sigmoid(t),
    lambda t: T.exp(T.mul(t, 0.3)),
    lambda t: T.log(T.add(T.mul(t, t), 1.0)),
    lambda t: T.softmax(t, 1),
    lambda t: T.power(T.add(T.mul(t, t), 1.0), 0.5),
    lambda t: T.relu(T.add(t, 0.75)),
    lambda t: T.mean_over(t, (0,), True),
]

BINARY_OPS = [
    T.add,
    T.sub,
    T.mul,
    lambda a, b: T.div(a, T.add(T.mul(b, b), 1.0)),
]


@pytest.mark.parametrize("seed", range(12))
def test_composite_graph_gradients(seed):
    rng = np.random.default_rng(1000 + seed)

    def build(a, b):
        local = np.random.default_rng(2000 + seed)
        x, y = a, b
        for _ in range(local.integers(3, 10)):
            if local.random() < 0.5:
                x = UNARY_OPS[local.integers(len(UNARY_OPS))](x)
            else:
                x = BINARY_OPS[local.integers(len(BINARY_OPS))](x, y)
        return scalarize(T.mul(x, y))

    arrays = [rng.normal(size=(3, 4)), rng.normal(size=(3, 4))]
    check_gradients(build, arrays)


# ---------------------------------------------------------------------------
# init helper


def test_uniform_init_bound_and_determinism():
    fan_in = 25
    a = uniform_init(np.random.default_rng(9), (100, 100), fan_in)
    b = uniform_init(np.random.default_rng(9), (100, 100), fan_in)
    bound = (1.0 / fan_in) ** 0.5
    assert np.abs(a).max() <= bound
    np.testing.assert_array_equal(a, b)
    c = uniform_init(np.random.default_rng(10), (100, 100), fan_in)
    assert not np.array_equal(a, c)


# How to cross each kinked op's kink as its input goes from -1e-3 to +1e-3.
KINK_CROSSINGS = {
    "relu": lambda op, a: op(a),
    "absolute": lambda op, a: op(a),
    "clip": lambda op, a: op(1.0 + a, 0.0, 1.0),  # across the upper bound
    "pool_global": lambda op, a: op(np.array([[[a, 0.0]]]), "max"),  # across the argmax
}


@pytest.mark.parametrize("name", sorted(T.KINKED_OPS))
def test_kinked_op_switches_branch_pattern_across_its_kink(name):
    op = getattr(T, name)
    assert callable(op)
    _, above = T.branch_pattern(lambda: KINK_CROSSINGS[name](op, 1e-3))
    _, below = T.branch_pattern(lambda: KINK_CROSSINGS[name](op, -1e-3))
    assert len(above) == len(below) == 1
    assert above != below


# ---------------------------------------------------------------------------
# op names


def _param(*shape):
    return Parameter(np.linspace(0.1, 0.9, math.prod(shape)).reshape(shape))


# One call of each op that pushes a record, on Parameters so that a tape keeps it.
OP_CALLS = {
    "add": lambda op: op(_param(4, 2, 2), _param(4, 2, 2)),
    "sub": lambda op: op(_param(4, 2, 2), _param(4, 2, 2)),
    "mul": lambda op: op(_param(4, 2, 2), _param(4, 2, 2)),
    "div": lambda op: op(_param(4, 2, 2), _param(4, 2, 2)),
    "neg": lambda op: op(_param(4, 2, 2)),
    "power": lambda op: op(_param(4, 2, 2), 2.0),
    "absolute": lambda op: op(_param(4, 2, 2)),
    "log": lambda op: op(_param(4, 2, 2)),
    "exp": lambda op: op(_param(4, 2, 2)),
    "clip": lambda op: op(_param(4, 2, 2), 0.2, 0.8),
    "relu": lambda op: op(_param(4, 2, 2)),
    "sigmoid": lambda op: op(_param(4, 2, 2)),
    "gelu": lambda op: op(_param(4, 2, 2)),
    "softmax": lambda op: op(_param(4, 2, 2), 0),
    "reshape": lambda op: op(_param(4, 2, 2), (16,)),
    "transpose2d": lambda op: op(_param(2, 3)),
    "narrow": lambda op: op(_param(4, 2, 2), 0, 1, 2),
    "concat": lambda op: op([_param(4, 2, 2), _param(1, 2, 2)], 0),
    "sum_over": lambda op: op(_param(4, 2, 2)),
    "mean_over": lambda op: op(_param(4, 2, 2)),
    "matmul": lambda op: op(_param(2, 3), _param(3, 2)),
    "conv2d": lambda op: op(_param(4, 2, 2), _param(1, 4, 3, 3)),
    "channel_conv1d": lambda op: op(_param(4, 1, 1), _param(3)),
    "pool_global": lambda op: op(_param(4, 2, 2), "max"),
    "pixel_shuffle": lambda op: op(_param(4, 2, 2), 2),
    "pixel_unshuffle": lambda op: op(_param(4, 2, 2), 2),
    "upsample_nearest": lambda op: op(_param(4, 2, 2), 2),
    "downsample_avg": lambda op: op(_param(4, 2, 2), 2),
}


def test_op_table_lists_every_public_op():
    public = {name for name, fn in vars(T).items()
              if callable(fn) and getattr(fn, "__module__", None) == T.__name__
              and not name.startswith("_") and not isinstance(fn, type)}
    # channel_norm is composed of the ops below; the other two are the observer's users
    assert public - {"channel_norm", "first_non_finite", "branch_pattern"} == set(OP_CALLS)


@pytest.mark.parametrize("name", sorted(OP_CALLS))
def test_every_op_names_itself(name):
    op = getattr(T, name)
    seen = []
    out = T._observe(lambda *args: seen.append(args), lambda: OP_CALLS[name](op))
    assert [(op_name, result) for op_name, result, _ in seen] == [(op.__name__, out)]
    assert out.node is None  # no tape was active, so the op kept nothing for a backward
    with Tape() as tape:
        OP_CALLS[name](op)
    [(_, _, back)] = tape._records
    assert back.__qualname__.startswith(op.__name__ + ".")


def test_observer_and_tape_exclude_each_other():
    p = Parameter(np.ones(2))
    with Tape():
        with pytest.raises(RuntimeError, match="already active"):
            T.first_non_finite(lambda: T.mul(p, 2.0))

    def enter_a_tape():
        with Tape():
            pass

    with pytest.raises(RuntimeError, match="already active"):
        T.first_non_finite(enter_a_tape)
    with Tape() as tape:  # the observer freed the thread although build() raised
        T.mul(p, 2.0)
    assert len(tape) == 1


@pytest.mark.parametrize("name", ["pixel_shuffle", "pixel_unshuffle", "upsample_nearest",
                                  "downsample_avg"])
@pytest.mark.parametrize("shape, factor", [((4, 2), 2), ((4, 2, 2), 0), ((4, 2, 2), 0.5)])
def test_rearranging_ops_keep_their_argument_error_texts(name, shape, factor):
    with pytest.raises(ShapeError) as caught:
        getattr(T, name)(np.zeros(shape), factor)
    assert str(caught.value) == f"{name} needs (C,H,W) and factor >= 1, got {shape}, {factor}"
