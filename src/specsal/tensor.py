"""Dense tensors with a reverse-mode gradient tape.

Tensors wrap numpy arrays (row-major, 64-bit). A Parameter is a Tensor with a
gradient array; the values and gradients of the Parameters of one Store are
slices of two flat arrays. Differentiable ops are module-level functions, and
each passes its own name to _kept, which looks each input's node up once. Only
when the active Tape keeps the op (an input needs a gradient) does the op build
its backward closure, keeping only the shapes and arrays backward reads, and
call Tape.record. Tape.backward pops each record once, in reverse execution
order. Block sums (downsample_avg, upsample_nearest's backward) add strided
slices in numpy's own order, so they equal its reshape reduce bit for bit.

The observer (_observe) is the one way to look at a forward pass: with no tape
active, it is handed the name, output and inputs of every op.
first_non_finite and branch_pattern are built on it.

Layout conventions: feature maps are (channels, height, width); token matrices
are (tokens, channels); convolution is zero-padded cross-correlation, lowered
to grouped matmuls over an im2col that backward rebuilds instead of taping.
"""

from __future__ import annotations

import math
import threading

import numpy as np

from .exceptions import ShapeError

class _State(threading.local):
    # Class defaults, so reading them never raises: the thread's active Tape and
    # its observer, see(op name, output, inputs); at most one of them is set.
    tape = see = None


_state = _State()

class Tensor:
    """A dense float64 array; ``node`` is set when a tape keeps the op that made it."""

    __slots__ = ("data", "node")

    def __init__(self, data):
        self.data = np.asarray(data, dtype=np.float64)
        self.node = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"{type(self).__name__}(shape={self.shape}, dtype={self.data.dtype})"


class Parameter(Tensor):
    """A Tensor that Tape.backward accumulates a gradient into; its own node.

    ``data`` views ``store.data`` from ``offset`` on: Store.pack gives a trained module
    tree one Store for all its Parameters, and any other Parameter gets one of its own,
    a flat view of its data, when first asked. ``grad`` views ``store.grad`` the same
    way; the first read allocates it for the whole store, and backprop drops it before
    each taped forward pass, so none holds it. A Parameter's name is its attribute
    path, which Module.named_parameters walks.
    """

    __slots__ = ("_store", "offset")

    def __init__(self, data):
        super().__init__(np.asarray(data, dtype=np.float64, order="C"))  # so a flat view exists
        self._store, self.offset = None, 0

    @property
    def store(self) -> Store:
        if self._store is None:
            self._store = Store(self.data.reshape(-1))
        return self._store

    @property
    def grad(self) -> np.ndarray:
        store = self.store
        if store.grad is None:
            store.grad = np.zeros_like(store.data)
        return store.grad[self.offset : self.offset + self.size].reshape(self.shape)


class Store:
    """A flat float64 array, ``data``, whose consecutive slices are the .data of its
    Parameters, and while their gradients live a flat ``grad`` laid out the same way.
    It keeps no reference to its Parameters, so a model is freed without a cycle
    collection.
    """

    __slots__ = ("data", "grad")

    def __init__(self, data):
        self.data, self.grad = data, None

    @classmethod
    def pack(cls, parameters) -> Store:
        """Copy the values of ``parameters`` in order into one new Store and rebind each
        .data to its slice. A trained module tree calls this once, as its construction
        ends; nothing rebinds a Parameter's data after that."""
        parameters = list(parameters)
        store = cls(np.concatenate([p.data.ravel() for p in parameters]))
        offset = 0
        for p in parameters:
            end = offset + p.data.size
            p.data = store.data[offset:end].reshape(p.data.shape)
            p._store, p.offset, offset = store, offset, end
        return store


class _Node:
    """Where a kept record's output waits for its gradient during backward."""

    __slots__ = ("tape", "pending")

    def __init__(self, tape):
        self.tape, self.pending = tape, None


class Tape:
    """Ordered records of executed ops, enough to replay the backward pass: each
    is (output node, input nodes, backward fn). A Parameter is its own node; any
    other input no kept record made, a Tensor from an earlier tape too, is a
    constant with node None. Ops on constants alone are not kept.

    Single-owner: at most one tape is active per thread, and entering a second
    one raises. Ops executed while no tape is active are plain computations
    and record nothing.
    """

    def __init__(self):
        self._records = []
        self._key = object()  # marks this tape's nodes without a reference back to it
        self._replayed = False

    def __enter__(self):
        _claim_thread()
        _state.tape = self
        return self

    def __exit__(self, exc_type, exc, tb):
        _state.tape = None
        return False

    def _node(self, t):
        if isinstance(t, Parameter):
            return t
        node = t.node
        return node if node is not None and node.tape is self._key else None

    def record(self, out: Tensor, nodes, back) -> None:
        """Keep one op: ``nodes`` holds each input's node (None for a constant), one at least set."""
        out.node = _Node(self._key)
        self._records.append((out.node, nodes, back))

    def __len__(self):
        return len(self._records)

    def backward(self, loss: Tensor) -> None:
        """Accumulate d(loss)/d(param) into .grad of every Parameter on the tape.

        Consumes the tape: pops each record as it replays it, in reverse order,
        so its closure and the arrays it keeps are freed at once. A Parameter
        input's gradient is added into its .grad at once; every other input's
        waits on its node until the record that made it is replayed.
        """
        if loss.size != 1:
            raise ShapeError(f"backward needs a scalar loss, got shape {loss.shape}")
        if self._replayed:
            raise RuntimeError("this tape was already replayed; record a new one")
        self._replayed = True
        if loss.node is not None and loss.node.tape is self._key:
            loss.node.pending = np.ones_like(loss.data)
        while self._records:
            out, inputs, back = self._records.pop()
            g, out.pending = out.pending, None
            if g is None:
                continue  # not on a path to the loss
            for node, gi in zip(inputs, back(g)):
                if type(node) is _Node:
                    # Rebind, never add in place: backward functions may return views
                    # or the upstream array, and numpy makes 0-d results immutable.
                    node.pending = gi if node.pending is None else node.pending + gi
                elif node is not None:  # a Parameter
                    node.grad[...] += gi


# The ops whose derivative jumps where they switch branch.
KINKED_OPS = frozenset({"relu", "absolute", "clip", "pool_global"})


def _claim_thread():
    if _state.tape is not None or _state.see is not None:
        raise RuntimeError("a tape is already active on this thread; tapes do not nest")


def _observe(see, build):
    """build(), run with no tape active and see(op name, output, inputs) called
    for every op, constant-only ops too; ops keep nothing for a backward."""
    _claim_thread()
    _state.see = see
    try:
        return build()
    finally:
        _state.see = None


def first_non_finite(build):
    """(op index, op name, output) of the first non-finite op output, or None;
    records keep no outputs, so this reruns the forward pass build()."""
    ops, found = 0, None

    def see(name, out, inputs):
        nonlocal ops, found
        if found is None and not np.isfinite(out.data).all():
            found = (ops, name, out)
        ops += 1

    _observe(see, build)
    return found


def branch_pattern(build):
    """(build(), pattern): equal patterns mean two runs of build() took the
    same smooth piece of every kinked op. The pattern holds, per kinked op in
    run order, the mask where out == input: a >= 0 for relu and absolute,
    inside the bounds for clip, the argmax for max pooling."""
    pattern = []

    def see(name, out, inputs):
        if name in KINKED_OPS:
            pattern.append((out.data == inputs[0].data).tobytes())

    return _observe(see, build), pattern


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _kept(name: str, out: Tensor, inputs):
    """Each input's node, looked up once, if the active tape keeps this op, else None."""
    tape = _state.tape
    if tape is None:
        if _state.see is not None:
            _state.see(name, out, inputs)
        return None
    nodes = tuple(map(tape._node, inputs))
    return nodes if nodes.count(None) < len(nodes) else None


def _push(name: str, out: Tensor, inputs, back) -> None:
    if nodes := _kept(name, out, inputs):
        _state.tape.record(out, nodes, back)


def _unbroadcast(grad: np.ndarray, shape) -> np.ndarray:
    """Sum a broadcast gradient back down to the operand's shape."""
    if grad.shape == shape:
        return grad
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


# ---------------------------------------------------------------------------
# elementwise arithmetic


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = Tensor(a.data + b.data)
    if nodes := _kept("add", out, (a, b)):
        (na, nb), sa, sb = nodes, a.shape, b.shape
        _state.tape.record(out, nodes, lambda g: (None if na is None else _unbroadcast(g, sa),
                                                  None if nb is None else _unbroadcast(g, sb)))
    return out


def sub(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = Tensor(a.data - b.data)
    if nodes := _kept("sub", out, (a, b)):
        (na, nb), sa, sb = nodes, a.shape, b.shape
        _state.tape.record(out, nodes, lambda g: (None if na is None else _unbroadcast(g, sa),
                                                  None if nb is None else -_unbroadcast(g, sb)))
    return out


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = Tensor(a.data * b.data)
    if nodes := _kept("mul", out, (a, b)):
        (na, nb), sa, sb = nodes, a.shape, b.shape
        ad, bd = None if nb is None else a.data, None if na is None else b.data  # each reads the other
        _state.tape.record(out, nodes, lambda g: (None if na is None else _unbroadcast(g * bd, sa),
                                                  None if nb is None else _unbroadcast(g * ad, sb)))
    return out


def div(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = Tensor(a.data / b.data)
    if nodes := _kept("div", out, (a, b)):
        (na, nb), sa, sb = nodes, a.shape, b.shape
        ad, bd = None if nb is None else a.data, b.data
        _state.tape.record(out, nodes, lambda g: (
            None if na is None else _unbroadcast(g / bd, sa),
            None if nb is None else _unbroadcast(-g * ad / (bd * bd), sb)))
    return out


def neg(a) -> Tensor:
    a = _as_tensor(a)
    out = Tensor(-a.data)
    if nodes := _kept("neg", out, (a,)):
        _state.tape.record(out, nodes, lambda g: (-g,))
    return out


def power(a, exponent: float) -> Tensor:
    """Elementwise a**exponent for a constant exponent."""
    a = _as_tensor(a)
    p = float(exponent)
    ad = a.data
    out = Tensor(ad**p)
    if nodes := _kept("power", out, (a,)):
        _state.tape.record(out, nodes, lambda g: (g * p * ad ** (p - 1.0),))
    return out


def absolute(a) -> Tensor:
    a = _as_tensor(a)
    ad = a.data
    out = Tensor(np.abs(ad))
    if nodes := _kept("absolute", out, (a,)):
        _state.tape.record(out, nodes, lambda g: (g * np.sign(ad),))
    return out


def log(a) -> Tensor:
    a = _as_tensor(a)
    ad = a.data
    out = Tensor(np.log(ad))
    if nodes := _kept("log", out, (a,)):
        _state.tape.record(out, nodes, lambda g: (g / ad,))
    return out


def exp(a) -> Tensor:
    a = _as_tensor(a)
    y = np.exp(a.data)
    out = Tensor(y)
    if nodes := _kept("exp", out, (a,)):
        _state.tape.record(out, nodes, lambda g: (g * y,))
    return out


def clip(a, lo: float, hi: float) -> Tensor:
    """Clamp to [lo, hi]; gradient passes through strictly inside the bounds."""
    a = _as_tensor(a)
    out = Tensor(np.clip(a.data, lo, hi))
    if nodes := _kept("clip", out, (a,)):
        inside = (a.data > lo) & (a.data < hi)
        _state.tape.record(out, nodes, lambda g: (g * inside,))
    return out


# ---------------------------------------------------------------------------
# activations

# Rational approximations of erf from Cephes ndtr.c: x * T(x^2) / U(x^2) for
# |x| <= 1 and erf = 1 - exp(-x^2) P(|x|) / Q(|x|) above. Coefficients run from
# the highest power down; U and Q are monic. erf rounds to exactly +-1 from
# |x| ~ 5.93 on, so |x| is clamped to 6 and Cephes' rational for |x| >= 8,
# which only erfc needs, is left out.
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
          7.00332514112805075473e3, 5.55923013010394962768e4)
_ERF_U = (1.0, 3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
          2.26290000613890934246e4, 4.92673942608635921086e4)
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
           4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_ERFC_Q = (1.0, 1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
           9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)


def _horner(x: np.ndarray, coefs) -> np.ndarray:
    acc = x + coefs[1] if coefs[0] == 1.0 else x * coefs[0] + coefs[1]  # monic: no "* 1.0" pass
    for c in coefs[2:]:
        acc *= x
        acc += c
    return acc


def _erf(x: np.ndarray) -> np.ndarray:
    """Elementwise erf of a float64 array, within 2 ulp of math.erf.

    The small rational runs on every entry, with x clipped to [-1, 1] so that
    it stays finite where |x| > 1; only those entries, if any, are then recomputed.
    """
    small = np.clip(x, -1.0, 1.0)  # NaN passes through and comes out NaN
    with np.errstate(under="ignore"):  # x * x of tiny |x| underflows harmlessly
        z = small * small
        out = _horner(z, _ERF_T)
        out *= small
        out /= _horner(z, _ERF_U)
    ax = np.abs(x)
    large = ax > 1.0
    if large.any():
        a = np.minimum(ax[large], 6.0)
        erfc = np.exp(-a * a)
        erfc *= _horner(a, _ERFC_P)
        erfc /= _horner(a, _ERFC_Q)
        out[large] = np.copysign(1.0 - erfc, x[large])
    return out


def relu(a) -> Tensor:
    a = _as_tensor(a)
    y = np.maximum(a.data, 0.0)
    out = Tensor(y)
    if nodes := _kept("relu", out, (a,)):
        _state.tape.record(out, nodes, lambda g: (g * (y > 0.0),))  # y > 0 exactly where a > 0
    return out


def sigmoid(a) -> Tensor:
    a = _as_tensor(a)
    # exp(-|x|) cannot overflow, and its underflow to 0 is the exact limit.
    with np.errstate(under="ignore"):
        e = np.exp(-np.abs(a.data))
    y = np.where(a.data >= 0.0, 1.0, e) / (1.0 + e)
    out = Tensor(y)
    if nodes := _kept("sigmoid", out, (a,)):
        _state.tape.record(out, nodes, lambda g: (g * y * (1.0 - y),))
    return out


def gelu(a) -> Tensor:
    """Exact GELU: x * Phi(x) with the Gaussian CDF."""
    a = _as_tensor(a)
    ad = a.data
    cdf = _erf(ad / math.sqrt(2.0))
    cdf = np.multiply(np.add(cdf, 1.0, out=cdf), 0.5, out=cdf)  # 0.5 * (1 + erf), in place
    out = Tensor(ad * cdf)
    if nodes := _kept("gelu", out, (a,)):
        def back(g):
            pdf = np.exp(-0.5 * ad * ad) / math.sqrt(2.0 * math.pi)
            return (g * (cdf + ad * pdf),)

        _state.tape.record(out, nodes, back)
    return out


def softmax(a, axis: int) -> Tensor:
    """Numerically stabilized softmax along one axis (max subtracted)."""
    a = _as_tensor(a)
    if not -a.ndim <= axis < a.ndim:
        raise ShapeError(f"softmax axis {axis} out of range for shape {a.shape}")
    if a.shape[axis] == 0:
        raise ShapeError(f"softmax along empty axis {axis} of shape {a.shape}")
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True)
    out = Tensor(y)
    if nodes := _kept("softmax", out, (a,)):
        def back(g):
            dot = (g * y).sum(axis=axis, keepdims=True)
            return (y * (g - dot),)

        _state.tape.record(out, nodes, back)
    return out


# ---------------------------------------------------------------------------
# shape plumbing


def reshape(a, shape) -> Tensor:
    a = _as_tensor(a)
    shape = tuple(int(s) for s in shape)
    if math.prod(shape) != a.size:
        raise ShapeError(f"cannot reshape {a.shape} to {shape}")
    out = Tensor(a.data.reshape(shape))
    if nodes := _kept("reshape", out, (a,)):
        original = a.shape
        _state.tape.record(out, nodes, lambda g: (g.reshape(original),))
    return out


def transpose2d(a) -> Tensor:
    a = _as_tensor(a)
    if a.ndim != 2:
        raise ShapeError(f"transpose2d needs a 2-d tensor, got shape {a.shape}")
    out = Tensor(a.data.T)
    if nodes := _kept("transpose2d", out, (a,)):
        _state.tape.record(out, nodes, lambda g: (g.T,))
    return out


def narrow(a, axis: int, start: int, length: int) -> Tensor:
    """Contiguous slice of `length` entries along one axis."""
    a = _as_tensor(a)
    if not 0 <= axis < a.ndim:
        raise ShapeError(f"narrow axis {axis} out of range for shape {a.shape}")
    if start < 0 or length < 1 or start + length > a.shape[axis]:
        raise ShapeError(
            f"narrow [{start}:{start + length}] exceeds axis {axis} of shape {a.shape}"
        )
    index = [slice(None)] * a.ndim
    index[axis] = slice(start, start + length)
    index, shape = tuple(index), a.shape
    out = Tensor(a.data[index])
    if nodes := _kept("narrow", out, (a,)):
        def back(g):
            full = np.zeros(shape)
            full[index] = g
            return (full,)

        _state.tape.record(out, nodes, back)
    return out


def concat(parts, axis: int) -> Tensor:
    parts = [_as_tensor(p) for p in parts]
    if not parts:
        raise ShapeError("concat needs at least one tensor")
    out = Tensor(np.concatenate([p.data for p in parts], axis=axis))
    if nodes := _kept("concat", out, tuple(parts)):
        ends = np.cumsum([p.shape[axis] for p in parts])[:-1]
        _state.tape.record(out, nodes, lambda g: tuple(np.split(g, ends, axis=axis)))
    return out


def _norm_axes(axes, ndim):
    if axes is None:
        return tuple(range(ndim))
    if isinstance(axes, int):
        axes = (axes,)
    return tuple(ax % ndim for ax in axes)


def sum_over(a, axes=None, keepdims: bool = False) -> Tensor:
    a = _as_tensor(a)
    axes = _norm_axes(axes, a.ndim)
    out = Tensor(a.data.sum(axis=axes, keepdims=keepdims))
    if nodes := _kept("sum_over", out, (a,)):  # backward returns a read-only view, no copy
        shape = a.shape
        _state.tape.record(out, nodes, lambda g: (
            np.broadcast_to(g if keepdims else np.expand_dims(g, axes), shape),))
    return out


def mean_over(a, axes=None, keepdims: bool = False) -> Tensor:
    a = _as_tensor(a)
    axes = _norm_axes(axes, a.ndim)
    shape = a.shape
    count = math.prod(shape[ax] for ax in axes)
    out = Tensor(a.data.sum(axis=axes, keepdims=keepdims) / count)  # np.mean's arithmetic
    if nodes := _kept("mean_over", out, (a,)):
        _state.tape.record(out, nodes, lambda g: (
            np.broadcast_to((g if keepdims else np.expand_dims(g, axes)) / count, shape),))
    return out


# ---------------------------------------------------------------------------
# linear algebra


def matmul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul needs 2-d operands, got {a.shape} @ {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul shape mismatch: {a.shape} @ {b.shape}")
    out = Tensor(a.data @ b.data)
    if nodes := _kept("matmul", out, (a, b)):
        na, nb = nodes
        ad, bd = None if nb is None else a.data, None if na is None else b.data
        _state.tape.record(out, nodes, lambda g: (None if na is None else g @ bd.T,
                                                  None if nb is None else ad.T @ g))
    return out


# ---------------------------------------------------------------------------
# spatial ops on (channels, height, width) maps


def conv2d(x, kernel, stride: int = 1, *, depthwise: bool = False) -> Tensor:
    """2-d cross-correlation with "same" zero padding (kh//2, kw//2).

    x is (C_in, H, W); kernel is (C_out, C_in, kh, kw), or (C, 1, kh, kw) with
    depthwise=True for one kernel per channel. Kernel dims must be odd, so at
    stride 1 the output keeps the input's spatial size.

    Lowered to im2col (Chellapilla et al. 2006): one grouped matmul of the
    (groups, C_out/groups, rows) kernel with the (groups, rows, H_out*W_out)
    im2col, groups = C_in if depthwise else 1. Backward keeps x and the kernel
    only for the gradient that reads each. The input gradient is the transposed
    conv (Dumoulin & Visin 2016): g spread at the stride, correlated at stride 1
    with the flipped, per-group transposed kernel.
    """
    x, kernel = _as_tensor(x), _as_tensor(kernel)
    if x.ndim != 3:
        raise ShapeError(f"conv2d input must be (C,H,W), got shape {x.shape}")
    if kernel.ndim != 4:
        raise ShapeError(f"conv2d kernel must be 4-d, got shape {kernel.shape}")
    c_out, c_k, kh, kw = kernel.shape
    if kh % 2 == 0 or kw % 2 == 0:
        raise ShapeError(f"conv2d kernel dims must be odd, got {kh}x{kw}")
    c_in, h, w = x.shape
    groups = c_in if depthwise else 1
    if c_k * groups != c_in or depthwise and c_out != c_in:
        kind = "(C,1,kh,kw) depthwise" if depthwise else "(C_out,C_in,kh,kw)"
        raise ShapeError(f"conv2d needs a {kind} kernel for input {x.shape}, got {kernel.shape}")
    s = int(stride)
    if s < 1:
        raise ShapeError(f"conv2d stride must be >= 1, got {stride}")
    if h < 1 or w < 1:
        raise ShapeError(f"conv2d output empty for input {x.shape}, kernel {kh}x{kw}")
    ph, pw = kh // 2, kw // 2
    ho, wo = (h - 1) // s + 1, (w - 1) // s + 1
    km = kernel.data.reshape(groups, c_out // groups, -1)  # rows (c, u, v), like im2col's

    def im2col(a, transposed):
        # (groups, rows, pixels) of x placed densely and sampled at stride s, or g spread at s
        if kh == kw == s == 1:  # already that matrix: no padding, no copy
            return np.ascontiguousarray(a).reshape(groups, -1, h * w)
        place, step, rows, cols = (s, 1, h, w) if transposed else (1, s, ho, wo)
        padded = np.zeros((a.shape[0], h + kh - 1, w + kw - 1), dtype=a.dtype)
        padded[:, ph : ph + h : place, pw : pw + w : place] = a
        out = np.empty((a.shape[0], kh * kw, rows, cols), dtype=a.dtype)
        for u in range(kh):
            for v in range(kw):
                out[:, u * kw + v] = padded[:, u : u + step * rows : step, v : v + step * cols : step]
        return out.reshape(groups, -1, rows * cols)

    out = Tensor((km @ im2col(x.data, False)).reshape(c_out, ho, wo))
    if nodes := _kept("conv2d", out, (x, kernel)):
        (nx, nk), sx, sk = nodes, x.shape, kernel.shape
        xd, kd = None if nk is None else x.data, None if nx is None else kernel.data

        def back(g):
            gm = g.reshape(groups, c_out // groups, ho * wo)
            gx = gk = None
            if nk is not None:
                gk = (gm @ im2col(xd, False).transpose(0, 2, 1)).reshape(sk)
            if nx is not None:
                flipped = kd[:, :, ::-1, ::-1].reshape(groups, c_out // groups, c_k, kh * kw)
                kt = flipped.transpose(0, 2, 1, 3).reshape(groups, c_k, -1)  # rows (o, u, v)
                gx = (kt @ im2col(g, True)).reshape(sx)
            return gx, gk

        _state.tape.record(out, nodes, back)
    return out


def channel_conv1d(x, kernel) -> Tensor:
    """1-d cross-correlation over the channel axis of a pooled (C,1,1) map.

    Zero padding keeps C channels; kernel length must be odd.
    """
    x, kernel = _as_tensor(x), _as_tensor(kernel)
    if x.ndim != 3 or x.shape[1:] != (1, 1):
        raise ShapeError(f"channel_conv1d input must be (C,1,1), got shape {x.shape}")
    if kernel.ndim != 1 or kernel.shape[0] % 2 == 0:
        raise ShapeError(f"channel_conv1d kernel must be 1-d odd-length, got {kernel.shape}")
    c = x.shape[0]
    k = kernel.shape[0]
    pad = k // 2
    xv = x.data.reshape(c)
    xp = np.zeros(c + 2 * pad, dtype=xv.dtype)
    xp[pad : pad + c] = xv
    kd = kernel.data
    out = Tensor(np.correlate(xp, kd, mode="valid").reshape(c, 1, 1))
    if nodes := _kept("channel_conv1d", out, (x, kernel)):
        (nx, nk), sx, sk = nodes, x.shape, kernel.shape

        def back(g):
            gv = g.reshape(c)
            gk = None if nk is None else np.correlate(xp, gv, mode="valid")
            gx = None if nx is None else np.convolve(gv, kd, mode="full")[pad : pad + c].reshape(sx)
            return gx, gk

        _state.tape.record(out, nodes, back)
    return out


def pool_global(x, mode: str) -> Tensor:
    """Global spatial pooling of a (C,H,W) map down to (C,1,1)."""
    x = _as_tensor(x)
    if x.ndim != 3:
        raise ShapeError(f"pool_global input must be (C,H,W), got shape {x.shape}")
    if mode == "avg":
        return mean_over(x, (1, 2), keepdims=True)
    if mode == "max":
        out = Tensor(x.data.max(axis=(1, 2), keepdims=True))
        if nodes := _kept("pool_global", out, (x,)):
            xd, y = x.data, out.data

            def back(g):
                mask = xd == y  # ties share the gradient evenly
                counts = mask.sum(axis=(1, 2), keepdims=True)
                return (mask * (g / counts),)

            _state.tape.record(out, nodes, back)
        return out
    raise ValueError(f"pool_global mode must be 'avg' or 'max', got {mode!r}")


def _shuffle_raw(d: np.ndarray, r: int) -> np.ndarray:
    c, h, w = d.shape
    return (
        d.reshape(c // (r * r), r, r, h, w).transpose(0, 3, 1, 4, 2).reshape(c // (r * r), h * r, w * r)
    )


def _unshuffle_raw(d: np.ndarray, r: int) -> np.ndarray:
    c, h, w = d.shape
    return (
        d.reshape(c, h // r, r, w // r, r).transpose(0, 2, 4, 1, 3).reshape(c * r * r, h // r, w // r)
    )


def _map_and_factor(op: str, x, factor):
    """(x as a Tensor, int(factor)) for an op that rearranges a (C,H,W) map."""
    x, f = _as_tensor(x), int(factor)
    if x.ndim != 3 or f < 1:
        raise ShapeError(f"{op} needs (C,H,W) and factor >= 1, got {x.shape}, {factor}")
    return x, f


def pixel_shuffle(x, factor: int) -> Tensor:
    """(C*r^2, H, W) -> (C, r*H, r*W); exact inverse of pixel_unshuffle."""
    x, r = _map_and_factor("pixel_shuffle", x, factor)
    if x.shape[0] % (r * r) != 0:
        raise ShapeError(f"pixel_shuffle factor {r} does not divide {x.shape[0]} channels")
    out = Tensor(_shuffle_raw(x.data, r))
    if nodes := _kept("pixel_shuffle", out, (x,)):
        _state.tape.record(out, nodes, lambda g: (_unshuffle_raw(g, r),))
    return out


def pixel_unshuffle(x, factor: int) -> Tensor:
    """(C, r*H, r*W) -> (C*r^2, H, W); exact inverse of pixel_shuffle."""
    x, r = _map_and_factor("pixel_unshuffle", x, factor)
    if x.shape[1] % r != 0 or x.shape[2] % r != 0:
        raise ShapeError(f"pixel_unshuffle factor {r} does not divide spatial dims {x.shape[1:]}")
    out = Tensor(_unshuffle_raw(x.data, r))
    if nodes := _kept("pixel_unshuffle", out, (x,)):
        _state.tape.record(out, nodes, lambda g: (_shuffle_raw(g, r),))
    return out


def _block_sum(d: np.ndarray, f: int) -> np.ndarray:
    """d.reshape(C, H/f, f, W/f, f).sum(axis=(2, 4)) of a (C, H, W) array, from strided
    slices below f = 8: numpy adds fewer than 8 terms one by one, so where an output row
    is more than one block wide it adds each row's f columns in turn, then the f rows,
    and so do the slices, bit for bit up to the sign of a zero sum and several times faster."""
    if not 1 < f < 8:  # from 8 terms numpy sums pairwise, and slices do not win
        c, h, w = d.shape
        return d.reshape(c, h // f, f, w // f, f).sum(axis=(2, 4))
    rows = sum((d[:, :, k::f] for k in range(2, f)), d[:, :, 0::f] + d[:, :, 1::f])
    return sum((rows[:, k::f] for k in range(2, f)), rows[:, 0::f] + rows[:, 1::f])


def upsample_nearest(x, factor: int) -> Tensor:
    x, f = _map_and_factor("upsample_nearest", x, factor)
    out = Tensor(np.repeat(np.repeat(x.data, f, axis=1), f, axis=2))
    if nodes := _kept("upsample_nearest", out, (x,)):
        _state.tape.record(out, nodes, lambda g: (_block_sum(g, f),))
    return out


def downsample_avg(x, factor: int) -> Tensor:
    x, f = _map_and_factor("downsample_avg", x, factor)
    _, h, w = x.shape
    if h % f != 0 or w % f != 0:
        raise ShapeError(f"downsample_avg factor {f} does not divide spatial dims {(h, w)}")
    sums = _block_sum(x.data, f)
    sums /= f * f  # np.mean's arithmetic, in place
    out = Tensor(sums)
    if nodes := _kept("downsample_avg", out, (x,)):
        _state.tape.record(out, nodes, lambda g: (np.repeat(np.repeat(g / (f * f), f, 1), f, 2),))
    return out


def channel_norm(x, gain, bias) -> Tensor:
    """Standardize each channel over its spatial positions, then apply affine.

    Replaces batch normalization at batch size 1. gain/bias are (C,1,1), which
    broadcasts over (C,H,W) with no reshape; (C,) would broadcast along W, so it is refused.
    Taped primitives compute centered * (inv_std * gain) + bias, so the tape keeps one full map.
    """
    xt, gain, bias = _as_tensor(x), _as_tensor(gain), _as_tensor(bias)
    if xt.ndim != 3 or gain.shape != bias.shape or gain.shape != (xt.shape[0], 1, 1):
        raise ShapeError(f"channel_norm needs (C,H,W) input and (C,1,1) gain and bias, "
                         f"got {xt.shape}, {gain.shape}, {bias.shape}")
    m = mean_over(x, axes=(1, 2), keepdims=True)
    centered = sub(x, m)
    var = mean_over(mul(centered, centered), axes=(1, 2), keepdims=True)
    inv = power(add(var, 1e-5), -0.5)  # epsilon 1e-5 keeps constant channels finite
    return add(mul(centered, mul(inv, gain)), bias)
