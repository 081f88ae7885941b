"""Minimal reverse-mode automatic differentiation over dense float tensors.

Sized for the tiny convolutional networks in :mod:`panfuse.gan`, whose hidden
layers are fused conv-bias-leaky-ReLU ops (:func:`conv2d` with a ``slope``):
no GPU, and binary ops take equal shapes.  Tensors hold float64, or
float32 where a caller asks for it with :func:`cast`; :func:`conv2d` runs in
its input's dtype, so the training networks compute in single precision while
parameters, gradients, losses and Adam stay in double.  Every op is
deterministic and easy to verify against finite differences.

Each operation that touches a gradient-tracked tensor records a
:class:`TapeNode` on its output; :func:`backward` orders the reachable
tensors topologically and visits each node exactly once in reverse.  It frees
the tape as it walks it: once a node's pullback has run, the node and the
arrays it saved are dropped, so a tape can be used once, and only leaves
(tensors without a node, such as parameters) get a ``.grad``.
"""

from __future__ import annotations

import math
import struct

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    DegenerateInputError,
    InvalidInputError,
    NumericalError,
    ShapeError,
    TrainingDivergenceError,
)
from .raster import ByteReader, row_bands


class TapeNode:
    """Record of one executed op: its inputs and a pullback closure.

    ``backward_fn(grad, needs)`` returns one cotangent per input; entries
    whose ``needs`` flag is False may be None.
    """

    __slots__ = ("op", "inputs", "backward_fn")

    def __init__(self, op, inputs, backward_fn):
        self.op = op
        self.inputs = inputs
        self.backward_fn = backward_fn


class Tensor:
    """Dense array (up to 4 dimensions) with optional grad tracking.

    float32 data is kept as it is; every other dtype becomes float64.
    """

    __slots__ = ("data", "requires_grad", "grad", "node")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.dtype != np.float32:
            arr = np.asarray(arr, dtype=np.float64)
        if arr.ndim > 4:
            raise ShapeError(f"tensors support at most 4 dimensions, got {arr.shape}")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self.node = None

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise InvalidInputError(f"item() needs a scalar, got shape {self.shape}")
        return float(self.data.reshape(()))

    def detach(self) -> "Tensor":
        return Tensor(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # operator sugar for the losses of panfuse.gan; heavy lifting stays in
    # module functions
    def __add__(self, other):
        return add(self, _coerce(other))

    def __rsub__(self, other):
        return sub(_coerce(other), self)


def _coerce(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def _track(op, out_data, inputs, backward_fn) -> Tensor:
    if not np.isfinite(out_data).all():
        raise NumericalError(f"non-finite values produced by op '{op}'")
    out = Tensor(out_data, requires_grad=any(t.requires_grad for t in inputs))
    if out.requires_grad:
        out.node = TapeNode(op, tuple(inputs), backward_fn)
    return out


# the node of a tensor whose pullback has run: the closure and the arrays it
# saved are gone, and the tape behind the tensor cannot be walked again
_SPENT = TapeNode("spent", (), None)


def _relevant(t: Tensor) -> bool:
    return t.requires_grad or t.node is not None


def _topological_order(root: Tensor):
    """Tensors reachable from ``root``; inputs precede every op that consumes them.

    Raises :class:`InvalidInputError` on reaching a spent node, before any
    pullback runs.
    """
    order = []
    seen = set()
    stack = [(root, False)]
    while stack:
        t, expanded = stack.pop()
        if expanded:
            order.append(t)
            continue
        if id(t) in seen:
            continue
        if t.node is _SPENT:
            raise InvalidInputError(
                f"backward reached the output of an op whose tape a backward pass "
                f"has already used ({t!r}); a tape can be used once"
            )
        seen.add(id(t))
        stack.append((t, True))
        if t.node is not None:
            for parent in t.node.inputs:
                if id(parent) not in seen and _relevant(parent):
                    stack.append((parent, False))
    return order


def _accumulate(pending: dict, inputs, grads, needs) -> None:
    """Add each needed cotangent of ``grads`` to its input's entry in ``pending``.

    A function of its own so that, once it returns, no local of
    :func:`backward` holds a cotangent that ``pending`` hands on later.
    """
    for parent, pg, need in zip(inputs, grads, needs):
        if not need or pg is None:
            continue
        key = id(parent)
        pending[key] = pending[key] + pg if key in pending else pg


def backward(loss: Tensor) -> None:
    """Accumulate dLoss/dt into ``t.grad`` for every leaf ``t`` the loss reaches.

    A leaf is a grad-tracked tensor without a node, such as a parameter;
    repeated calls without zeroing add up there.  The output of an op gets no
    ``.grad``.  The loss must be scalar.

    The tape is freed as it is walked: each tensor is popped off the order,
    its node is replaced by a spent marker, and its cotangent goes to the
    pullback with no other reference, so each activation, closure and
    cotangent is freed as soon as it has been used.  So a tape can be used once: a second call on the same loss, or on
    a new loss built on an op output whose tape is spent, raises
    :class:`InvalidInputError`.
    """
    if loss.data.size != 1:
        raise InvalidInputError(f"backward needs a scalar loss, got shape {loss.shape}")
    order = _topological_order(loss)
    pending = {id(loss): np.ones_like(loss.data)}
    while order:
        t = order.pop()
        key = id(t)
        if key not in pending:
            continue
        node = t.node
        if node is None:
            g = pending.pop(key)
            if t.requires_grad:
                t.grad = g.copy() if t.grad is None else t.grad + g
            continue
        t.node = _SPENT
        needs = tuple(_relevant(p) for p in node.inputs)
        _accumulate(pending, node.inputs, node.backward_fn(pending.pop(key), needs), needs)


# ---------------------------------------------------------------------------
# elementwise ops


def _check_shapes(op, a: Tensor, b: Tensor) -> None:
    if a.data.shape != b.data.shape:
        raise ShapeError(f"{op}: shapes {a.data.shape} and {b.data.shape} differ")


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_shapes("add", a, b)
    return _track("add", a.data + b.data, (a, b), lambda g, needs: (g, g))


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_shapes("sub", a, b)
    return _track("sub", a.data - b.data, (a, b), lambda g, needs: (g, -g))


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_shapes("mul", a, b)
    ad, bd = a.data, b.data

    def bw(g, needs):
        return (g * bd if needs[0] else None, g * ad if needs[1] else None)

    return _track("mul", ad * bd, (a, b), bw)


def div(a: Tensor, b: Tensor) -> Tensor:
    _check_shapes("div", a, b)
    ad, bd = a.data, b.data
    if np.any(bd == 0.0):
        raise NumericalError("division by zero")

    out = ad / bd

    def bw(g, needs):
        # the divisor is squared in the quotient's dtype: squared in float32, a
        # float32 divisor under a float64 numerator underflows or overflows
        bd2 = bd.astype(out.dtype, copy=False)
        return (g / bd if needs[0] else None,
                -g * ad / (bd2 * bd2) if needs[1] else None)

    return _track("div", out, (a, b), bw)


def cast(a: Tensor, dtype) -> Tensor:
    """``a`` as float32 or float64; the pullback casts back to ``a``'s dtype.

    A value beyond the float32 range becomes inf and fails the finiteness
    check as a :class:`NumericalError` of this op.
    """
    dtype = np.dtype(dtype)
    if dtype not in (np.float32, np.float64):
        raise InvalidInputError(f"cast supports float32 and float64, got {dtype}")
    src = a.data.dtype
    with np.errstate(over="ignore"):
        out = a.data.astype(dtype)
    return _track("cast", out, (a,), lambda g, needs: (g.astype(src),))


def neg(a: Tensor) -> Tensor:
    return _track("neg", -a.data, (a,), lambda g, needs: (-g,))


def scalar_mul(a: Tensor, c: float) -> Tensor:
    c = float(c)
    return _track("scalar_mul", a.data * c, (a,), lambda g, needs: (g * c,))


def log(a: Tensor) -> Tensor:
    if np.any(a.data <= 0.0):
        raise NumericalError("log needs strictly positive input")
    ad = a.data
    return _track("log", np.log(ad), (a,), lambda g, needs: (g / ad,))


def sigmoid(a: Tensor) -> Tensor:
    x = a.data
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return _track("sigmoid", out, (a,), lambda g, needs: (g * out * (1.0 - out),))


def leaky_relu(a: Tensor, slope: float = 0.2) -> Tensor:
    x = a.data
    scale = np.where(x > 0.0, 1.0, slope)
    return _track("leaky_relu", x * scale, (a,), lambda g, needs: (g * scale,))


CLAMP_MARGIN = 0.05


def clamp_smooth(a: Tensor) -> Tensor:
    """Differentiable squash onto (0, 1): identity on [m, 1-m], tanh tails,
    with m = ``CLAMP_MARGIN``.

    Hard clamping kills gradients at saturation; the tanh tails keep a strict
    (0, 1) range while deviating from the identity by at most
    m * (1 - tanh(1)) ~ 0.012 for inputs in [0, 1].
    """
    m = CLAMP_MARGIN
    x = a.data
    lo = x < m
    hi = x > 1.0 - m
    t_lo = np.tanh((x[lo] - m) / m)
    t_hi = np.tanh((x[hi] - (1.0 - m)) / m)
    out = x.copy()
    out[lo] = m + m * t_lo
    out[hi] = (1.0 - m) + m * t_hi
    # the derivative is 1 between the tails, and g * 1 is g: the tape keeps
    # the two masks and the tails' sech^2, via tanh, overflow-free
    d_lo = 1.0 - t_lo * t_lo
    d_hi = 1.0 - t_hi * t_hi

    def bw(g, needs):
        gx = g.astype(np.result_type(g, d_lo))
        gx[lo] *= d_lo
        gx[hi] *= d_hi
        return (gx,)

    return _track("clamp_smooth", out, (a,), bw)


# ---------------------------------------------------------------------------
# reductions


def mean(a: Tensor) -> Tensor:
    n = a.data.size
    shape = a.data.shape

    def bw(g, needs):
        return (np.full(shape, float(g) / n),)

    return _track("mean", np.asarray(a.data.mean()), (a,), bw)


def variance(a: Tensor) -> Tensor:
    """Sample variance over all elements, ddof = 1."""
    n = a.data.size
    if n < 2:
        raise InvalidInputError("variance needs at least two elements")
    centered = a.data - a.data.mean()
    out = np.asarray(np.sum(centered * centered) / (n - 1))

    def bw(g, needs):
        return (2.0 * float(g) * centered / (n - 1),)

    return _track("variance", out, (a,), bw)


def covariance(a: Tensor, b: Tensor) -> Tensor:
    """Sample covariance over all elements, ddof = 1; shapes must match."""
    if a.data.shape != b.data.shape:
        raise ShapeError(
            f"covariance: shapes {a.data.shape} and {b.data.shape} differ"
        )
    n = a.data.size
    if n < 2:
        raise InvalidInputError("covariance needs at least two elements")
    ca = a.data - a.data.mean()
    cb = b.data - b.data.mean()
    out = np.asarray(np.sum(ca * cb) / (n - 1))

    def bw(g, needs):
        ga = float(g) * cb / (n - 1) if needs[0] else None
        gb = float(g) * ca / (n - 1) if needs[1] else None
        return ga, gb

    return _track("covariance", out, (a, b), bw)


def similarity(a: Tensor, b: Tensor) -> Tensor:
    """Per-channel Wang-Bovik similarity index Q of two (C, H, W) tensors: (C,).

    Q = 4 cov mu_a mu_b / (V M) over each channel's n pixels, with
    V = var_a + var_b, M = mu_a^2 + mu_b^2 and sample (co)variances
    (ddof = 1); bitwise the chain of mean, variance, covariance, mul, add and
    div.  One tape node, whose pullback is the closed form, linear in the
    centred channels: dQ/da = 4 mu_a mu_b / (V M (n-1)) (b - mu_b)
    - 2Q / (V (n-1)) (a - mu_a) + (4 cov mu_b / (V M) - 2Q mu_a / M) / n,
    and dQ/db the same with a and b swapped.
    """
    _require_chw("similarity", a)
    _check_shapes("similarity", a, b)
    c, h, w = a.data.shape
    n = h * w
    if c < 1 or n < 2:
        raise ShapeError(f"similarity needs channels of two pixels or more, got {a.data.shape}")
    stats = []
    for x, y in zip(a.data, b.data):
        mu_x, mu_y = x.mean(), y.mean()
        cx, cy = x - mu_x, y - mu_y
        stats.append((mu_x, mu_y, np.sum(cx * cx) / (n - 1), np.sum(cy * cy) / (n - 1),
                      np.sum(cx * cy) / (n - 1)))
    mu_a, mu_b, var_a, var_b, cov = np.array(stats, dtype=np.float64).T
    # the order of the mul, add and div chain, so Q is bitwise that chain's; a
    # value beyond the float64 range makes Q non-finite, which _track reports
    with np.errstate(all="ignore"):
        v, m = var_a + var_b, mu_a * mu_a + mu_b * mu_b
        d = v * m
        q = 4.0 * cov * mu_a * mu_b / d
    degenerate = np.flatnonzero((v == 0.0) | (m == 0.0))
    if degenerate.size:
        i = degenerate[0]
        kind = "constant" if v[i] == 0.0 else "zero-mean"
        raise DegenerateInputError(
            f"similarity index undefined for two {kind} images in channel {i}"
        )

    def bw(g, needs):
        along = (g * 4.0 * mu_a * mu_b / (d * (n - 1)))[:, None, None]
        own = (g * 2.0 * q / (v * (n - 1)))[:, None, None]
        ca, cb = a.data - mu_a[:, None, None], b.data - mu_b[:, None, None]

        def pull(c_own, c_other, mu_own, mu_other):
            shift = g * (4.0 * cov * mu_other / d - 2.0 * q * mu_own / m) / n
            return along * c_other - own * c_own + shift[:, None, None]

        return (pull(ca, cb, mu_a, mu_b) if needs[0] else None,
                pull(cb, ca, mu_b, mu_a) if needs[1] else None)

    return _track("similarity", q, (a, b), bw)


# ---------------------------------------------------------------------------
# structural ops on (C, H, W) tensors


def _require_chw(op, a: Tensor):
    if a.data.ndim != 3:
        raise ShapeError(f"{op} expects a (C, H, W) tensor, got shape {a.data.shape}")


def concat_channels(a: Tensor, b: Tensor) -> Tensor:
    _require_chw("concat_channels", a)
    _require_chw("concat_channels", b)
    if a.data.shape[1:] != b.data.shape[1:]:
        raise ShapeError(
            f"concat_channels: spatial shapes {a.data.shape} and {b.data.shape} differ"
        )
    ca = a.data.shape[0]

    def bw(g, needs):
        ga = g[:ca] if needs[0] else None
        gb = g[ca:] if needs[1] else None
        return ga, gb

    return _track("concat_channels", np.concatenate([a.data, b.data], axis=0), (a, b), bw)


def channel_slice(a: Tensor, index: int) -> Tensor:
    _require_chw("channel_slice", a)
    c = a.data.shape[0]
    if not (0 <= index < c):
        raise InvalidInputError(f"channel {index} out of range for {c} channels")

    def bw(g, needs):
        out = np.zeros_like(a.data)
        out[index] = g
        return (out,)

    return _track("channel_slice", a.data[index].copy(), (a,), bw)


def channel_weighted_sum(a: Tensor, weights, bias: float = 0.0) -> Tensor:
    """Collapse channels with fixed weights: out[0] = bias + sum_k w_k a[k]."""
    _require_chw("channel_weighted_sum", a)
    w = np.asarray(weights, dtype=np.float64).ravel()
    if w.size != a.data.shape[0]:
        raise ShapeError(
            f"channel_weighted_sum: {w.size} weights for {a.data.shape[0]} channels"
        )
    out = np.tensordot(w, a.data, axes=(0, 0))[None] + float(bias)

    def bw(g, needs):
        return (w[:, None, None] * g[0],)

    return _track("channel_weighted_sum", out, (a,), bw)


def block_mean(a: Tensor, r: int) -> Tensor:
    """Average non-overlapping r x r blocks along the spatial axes."""
    _require_chw("block_mean", a)
    r = int(r)
    if r < 1:
        raise InvalidInputError(f"block size must be >= 1, got {r}")
    c, h, w = a.data.shape
    if h % r or w % r:
        raise ShapeError(f"block_mean: spatial size {h}x{w} not divisible by {r}")
    out = a.data.reshape(c, h // r, r, w // r, r).mean(axis=(2, 4))

    def bw(g, needs):
        share = (g / (r * r))[:, :, None, :, None]
        return (np.broadcast_to(share, (c, h // r, r, w // r, r)).reshape(c, h, w),)

    return _track("block_mean", out, (a,), bw)


# ---------------------------------------------------------------------------
# convolution

def _zero_pad(a, top, left, height, width):
    """(C, h, w) ``a`` at (top, left) on a zero (C, height, width) canvas.

    A plain copy: ``np.pad`` costs three times as much on small images.
    """
    out = np.zeros((a.shape[0], height, width), dtype=a.dtype)
    out[:, top : top + a.shape[1], left : left + a.shape[2]] = a
    return out


def _unfold_rows(win):
    """Yield ``(r0, r1, cols)`` over blocks of output rows of a correlation.

    ``win`` is a read-only (C, h_out, w_out, kh, kw) view: the input window
    of every output pixel.  ``cols`` is the (C * kh * kw, (r1 - r0) * w_out)
    matrix of the taps of rows r0..r1-1, ordered like
    ``weight.reshape(C_out, C * kh * kw)``, copied into one buffer that every
    block reuses.  The blocks are the ``raster.row_bands`` of the taps: as
    many whole output rows as fit in ``raster._BAND_ELEMENTS`` taps (256 KiB
    in float32, to stay in L2), and at least one.
    """
    c, h_out, w_out, kh, kw = win.shape
    win = win.transpose(0, 3, 4, 1, 2)
    depth = c * kh * kw
    bands = row_bands(h_out, depth * w_out)
    buf = np.empty(depth * bands[0].stop * w_out, dtype=win.dtype)
    for band in bands:
        r0, r1 = band.start, band.stop
        cols = buf[: depth * (r1 - r0) * w_out].reshape(c, kh, kw, r1 - r0, w_out)
        np.copyto(cols, win[:, :, :, r0:r1])
        yield r0, r1, cols.reshape(depth, (r1 - r0) * w_out)


def _phases(n, k, stride):
    """The stride phases along one axis of the pullback to the input.

    Input index a (padded a + pad) receives from output o through tap
    i = a + pad - o * stride, so the inputs of phase (a + pad) % stride == p
    see only the taps p, p + stride, ... < k; a phase p >= k sees none and
    gets no gradient.  For each phase p < k this gives: its first input
    index, its input count, its tap count, the g index its first input
    lines up with, and its first tap in the flipped kernel.
    """
    pad = k // 2
    out = []
    for p in range(min(stride, k)):
        a = (p - pad) % stride
        taps = len(range(p, k, stride))
        flipped = k - 1 - p - stride * (taps - 1)
        out.append((a, len(range(a, n, stride)), taps, (a + pad) // stride, flipped))
    return out


def _conv_grad_x(g, wd, stride, h_in, w_in):
    """Pullback of a 'same' convolution to its input, as gathers.

    On each stride phase (see :func:`_phases`) the pullback is a stride-1
    correlation of the zero-padded g with that phase's taps of the kernel,
    flipped and transposed to (C_in, C_out, ...).  At stride 1 there is one
    phase and the whole kernel.
    """
    c_out, c_in, k, _ = wd.shape
    _c, h_out, w_out = g.shape
    t = -(-k // stride)  # most taps any phase takes along one axis
    phases_y, phases_x = _phases(h_in, k, stride), _phases(w_in, k, stride)
    hq = max([h_out] + [q + n for _a, n, _t, q, _j in phases_y])
    wq = max([w_out] + [q + n for _a, n, _t, q, _j in phases_x])
    # one t x t window view serves every phase: a phase with fewer taps
    # reads the last ones of each window
    gp = _zero_pad(g, t - 1, t - 1, t - 1 + hq, t - 1 + wq)
    win = sliding_window_view(gp, (t, t), axis=(1, 2))
    flipped = np.ascontiguousarray(wd[:, :, ::-1, ::-1].transpose(1, 0, 2, 3))
    gx = np.zeros((c_in, h_in, w_in), dtype=g.dtype)
    for ay, ny, ty, qy, jy in phases_y:
        for ax, nx, tx, qx, jx in phases_x:
            if ny == 0 or nx == 0:
                continue
            wmat = flipped[:, :, jy::stride, jx::stride].reshape(c_in, c_out * ty * tx)
            phase = win[:, qy : qy + ny, qx : qx + nx, t - ty :, t - tx :]
            dst = gx[:, ay::stride, ax::stride]
            for r0, r1, cols in _unfold_rows(phase):
                dst[:, r0:r1] = (wmat @ cols).reshape(c_in, r1 - r0, nx)
    return gx


def conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Tensor | None = None,
    stride: int = 1,
    slope: float | None = None,
) -> Tensor:
    """2-D convolution with zero-padded 'same' geometry and an odd kernel.

    x is (C_in, H, W), weight is (C_out, C_in, k, k), bias is (C_out,).
    Output spatial size is ceil(H / stride) x ceil(W / stride).

    With a ``slope`` it is the fused conv-bias-leaky-ReLU layer: one tape node,
    bitwise equal to ``leaky_relu(conv2d(x, weight, bias), slope)``, whose
    pullback takes the activation mask from the sign of the output (exact for
    ``0 <= slope <= 1``), so the tape keeps no pre-activation and no scale array.

    One blocked unfold-then-GEMM kernel serves the forward pass and both
    pullbacks.  For a block of output rows it copies all k * k taps of every
    input channel into one (k * k * C_in, rows * W_out) buffer and makes one
    matmul against the weights reshaped to (C_out, k * k * C_in).  The
    forward pass writes that product straight into the output; ``grad_w``
    sums ``g_block @ cols.T`` over the same blocks (as its transpose, which
    BLAS runs faster); ``grad_x`` is the transposed convolution, gathered the
    same way from the zero-padded gradient with the flipped kernel, once per
    stride phase.  A block holds at most ``raster._BAND_ELEMENTS`` taps or
    one output row, so the whole unfolded matrix is never built.

    It computes in ``x``'s dtype: the weight, the bias and the incoming
    gradient are cast to it, ``grad_x`` comes back in it, and ``grad_w`` and
    ``grad_b`` are summed in and returned in the parameters' dtype.
    """
    _require_chw("conv2d", x)
    wd = weight.data
    if wd.ndim != 4:
        raise ShapeError(f"conv2d weight must be 4-D, got shape {wd.shape}")
    c_out, c_in, k, kw = wd.shape
    if k != kw or k % 2 == 0:
        raise InvalidInputError(f"conv2d kernel must be square and odd, got {k}x{kw}")
    if c_in != x.data.shape[0]:
        raise ShapeError(
            f"conv2d: input has {x.data.shape[0]} channels, weight expects {c_in}"
        )
    if 0 in x.data.shape[1:]:
        raise ShapeError(f"conv2d needs a non-empty image, got shape {x.data.shape}")
    stride = int(stride)
    if stride < 1:
        raise InvalidInputError(f"conv2d stride must be >= 1, got {stride}")
    if bias is not None and bias.data.shape != (c_out,):
        raise ShapeError(
            f"conv2d bias shape {bias.data.shape} does not match {c_out} outputs"
        )
    if slope is not None and not 0.0 <= slope <= 1.0:
        raise InvalidInputError(f"conv2d slope must lie in [0, 1], got {slope}")
    xd = x.data
    dt = xd.dtype
    _c, h_in, w_in = xd.shape
    pad = k // 2
    h_out = (h_in - 1) // stride + 1
    w_out = (w_in - 1) // stride + 1
    out = np.empty((c_out, h_out, w_out), dtype=dt)
    out_mat = out.reshape(c_out, h_out * w_out)

    def x_windows():
        xp = _zero_pad(xd, pad, pad, h_in + 2 * pad, w_in + 2 * pad)
        return sliding_window_view(xp, (k, k), axis=(1, 2))[:, ::stride, ::stride]

    # a parameter beyond the range of dt casts to inf and makes the output
    # non-finite, which the scan in _track reports; numpy need not warn
    with np.errstate(over="ignore", invalid="ignore"):
        wd = wd.astype(dt, copy=False)
        wmat = wd.reshape(c_out, c_in * k * k)
        for r0, r1, cols in _unfold_rows(x_windows()):
            np.matmul(wmat, cols, out=out_mat[:, r0 * w_out : r1 * w_out])
        if bias is not None:
            out += bias.data.astype(dt, copy=False)[:, None, None]
        if slope is not None:
            # for 0 <= slope <= 1 bitwise out * np.where(out > 0, 1, slope),
            # signed zeros included, with no branch on the sign, so its time
            # does not depend on it; a channel at a time, so that the product
            # needs no temporary the size of the output
            for plane in out:
                np.maximum(plane, plane * slope, out=plane)
    inputs = (x, weight) if bias is None else (x, weight, bias)

    def bw(g, needs):
        gx = gw = gb = None
        g = g.astype(dt, copy=False)
        if slope is not None:
            masked = np.where(out > 0.0, dt.type(1.0), dt.type(slope))
            masked *= g
            g = masked
        # grad_w and grad_b first, so the padded copy of x is freed before
        # grad_x pads g and allocates gx
        if needs[1]:
            g_mat = g.reshape(c_out, h_out * w_out)
            gw_t = np.zeros((c_in * k * k, c_out), dtype=weight.data.dtype)
            # padded again rather than kept: the tape then holds no copy of x
            for r0, r1, cols in _unfold_rows(x_windows()):
                gw_t += cols @ g_mat[:, r0 * w_out : r1 * w_out].T
            gw = gw_t.T.reshape(wd.shape)
        if bias is not None and needs[2]:
            gb = g.reshape(c_out, -1).sum(axis=1, dtype=bias.data.dtype)
        if needs[0]:
            gx = _conv_grad_x(g, wd, stride, h_in, w_in)
        return (gx, gw) if bias is None else (gx, gw, gb)

    return _track("conv2d", out, inputs, bw)


# ---------------------------------------------------------------------------
# parameters, Adam, checkpoints

CHECKPOINT_MAGIC = b"PFCK"


class ParameterSet:
    """Named gradient-tracked tensors with per-parameter Adam state.

    Iteration order is deterministic: always sorted by name.
    """

    def __init__(self):
        self._params = {}
        self._m = {}
        self._v = {}
        self.step_count = 0

    def add(self, name: str, value) -> Tensor:
        if name in self._params:
            raise InvalidInputError(f"parameter {name!r} already exists")
        t = Tensor(np.array(value, dtype=np.float64), requires_grad=True)
        self._params[name] = t
        return t

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def __len__(self) -> int:
        return len(self._params)

    def names(self):
        return sorted(self._params)

    def items(self):
        return [(name, self._params[name]) for name in self.names()]


# Adam's decay rates of the first and second moments, and its denominator guard
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


def adam_step(params: ParameterSet, lr: float) -> None:
    """Bias-corrected Adam update over all parameters; gradients are zeroed after."""
    beta1, beta2, eps = ADAM_BETA1, ADAM_BETA2, ADAM_EPS
    params.step_count += 1
    t = params.step_count
    for name, p in params.items():
        g = p.grad
        if g is None:
            g = np.zeros_like(p.data)
        if not np.isfinite(g).all():
            raise TrainingDivergenceError(f"non-finite gradient for parameter {name!r}")
        m = params._m.get(name)
        v = params._v.get(name)
        if m is None:
            m = np.zeros_like(p.data)
            v = np.zeros_like(p.data)
        m = beta1 * m + (1.0 - beta1) * g
        v = beta2 * v + (1.0 - beta2) * (g * g)
        params._m[name] = m
        params._v[name] = v
        m_hat = m / (1.0 - beta1**t)
        v_hat = v / (1.0 - beta2**t)
        p.data = p.data - lr * m_hat / (np.sqrt(v_hat) + eps)
        p.grad = None


def checkpoint_bytes(params: ParameterSet) -> bytes:
    """Serialize parameter values: magic, count, then (name, rank, dims, f64 data)."""
    chunks = [CHECKPOINT_MAGIC, struct.pack("<I", len(params))]
    for name, p in params.items():
        encoded = name.encode("utf-8")
        if len(encoded) > 0xFFFF:
            raise InvalidInputError(f"parameter name too long: {name!r}")
        arr = np.ascontiguousarray(p.data, dtype="<f8")
        chunks.append(struct.pack("<H", len(encoded)))
        chunks.append(encoded)
        chunks.append(struct.pack("<B", arr.ndim))
        chunks.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        chunks.append(arr.tobytes())
    return b"".join(chunks)


def save_checkpoint(params: ParameterSet, path) -> None:
    with open(path, "wb") as fh:
        fh.write(checkpoint_bytes(params))


def load_checkpoint(path) -> ParameterSet:
    with open(path, "rb") as fh:
        ck = ByteReader(fh.read(), str(path))
    magic = bytes(ck.take(4, "magic"))
    if magic != CHECKPOINT_MAGIC:
        raise ck.error("magic", f"expected {CHECKPOINT_MAGIC!r}, got {magic!r}", at=0)
    (count,) = ck.unpack("<I", "count")
    params = ParameterSet()
    for _ in range(count):
        (name_len,) = ck.unpack("<H", "name length")
        name_at = ck.pos
        try:
            name = str(ck.take(name_len, "name"), "utf-8")
        except UnicodeDecodeError as exc:
            raise ck.error("name", f"not UTF-8: {exc.reason} at byte {name_at + exc.start}",
                           at=name_at) from exc
        if name in params:
            raise ck.error("name", f"repeats parameter {name!r}", at=name_at)
        rank_at = ck.pos
        (rank,) = ck.unpack("<B", "rank")
        if rank > 4:
            raise ck.error("rank", f"{rank} exceeds 4", at=rank_at)
        dims = ck.unpack(f"<{rank}I", "dims")
        n = math.prod(dims)  # exact: dims from the file may overflow int64
        data = np.frombuffer(ck.take(n * 8, "payload"), dtype="<f8")
        params.add(name, data.reshape(dims))
    ck.close()
    return params
