"""Minimal reverse-mode automatic differentiation over dense float64 tensors.

Sized for the tiny convolutional networks in :mod:`panfuse.gan`, whose hidden
layers are fused conv-bias-leaky-ReLU ops (:func:`conv2d` with a ``slope``):
no GPU, no general broadcasting (scalars only), double precision throughout
so results are deterministic and easy to verify against finite differences.

Each operation that touches a gradient-tracked tensor records a
:class:`TapeNode` on its output; :func:`backward` orders the reachable
tensors topologically and visits each node exactly once in reverse.
"""

from __future__ import annotations

import math
import struct

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    FormatError,
    InvalidInputError,
    NumericalError,
    ShapeError,
    TrainingDivergenceError,
)


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
    """Dense float64 array (up to 4 dimensions) with optional grad tracking."""

    __slots__ = ("data", "requires_grad", "grad", "node")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
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

    # scalar-friendly operator sugar; heavy lifting stays in module functions
    def __add__(self, other):
        return add(self, _coerce(other))

    def __radd__(self, other):
        return add(_coerce(other), self)

    def __sub__(self, other):
        return sub(self, _coerce(other))

    def __rsub__(self, other):
        return sub(_coerce(other), self)

    def __mul__(self, other):
        return mul(self, _coerce(other))

    def __rmul__(self, other):
        return mul(_coerce(other), self)

    def __truediv__(self, other):
        return div(self, _coerce(other))

    def __rtruediv__(self, other):
        return div(_coerce(other), self)

    def __neg__(self):
        return neg(self)


def _coerce(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def _track(op, out_data, inputs, backward_fn) -> Tensor:
    if not np.isfinite(out_data).all():
        raise NumericalError(f"non-finite values produced by op '{op}'")
    out = Tensor(out_data, requires_grad=any(t.requires_grad for t in inputs))
    if out.requires_grad:
        out.node = TapeNode(op, tuple(inputs), backward_fn)
    return out


def _relevant(t: Tensor) -> bool:
    return t.requires_grad or t.node is not None


def _topological_order(root: Tensor):
    """Tensors reachable from ``root``; inputs precede every op that consumes them."""
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
        seen.add(id(t))
        stack.append((t, True))
        if t.node is not None:
            for parent in t.node.inputs:
                if id(parent) not in seen and _relevant(parent):
                    stack.append((parent, False))
    return order


def backward(loss: Tensor) -> None:
    """Accumulate dLoss/dt into ``t.grad`` for every grad-tracked tensor.

    Repeated calls without zeroing add up.  The loss must be scalar.
    """
    if loss.data.size != 1:
        raise InvalidInputError(f"backward needs a scalar loss, got shape {loss.shape}")
    pending = {id(loss): np.ones_like(loss.data)}
    for t in reversed(_topological_order(loss)):
        g = pending.pop(id(t), None)
        if g is None:
            continue
        if t.requires_grad:
            t.grad = g.copy() if t.grad is None else t.grad + g
        node = t.node
        if node is None:
            continue
        needs = tuple(_relevant(p) for p in node.inputs)
        for parent, pg in zip(node.inputs, node.backward_fn(g, needs)):
            if pg is None:
                continue
            key = id(parent)
            if key in pending:
                pending[key] = pending[key] + pg
            else:
                pending[key] = pg


# ---------------------------------------------------------------------------
# elementwise and scalar ops


def _binary_shapes(op, a: Tensor, b: Tensor):
    if a.data.shape == b.data.shape:
        return "same"
    if a.data.size == 1:
        return "a_scalar"
    if b.data.size == 1:
        return "b_scalar"
    raise ShapeError(f"{op}: incompatible shapes {a.data.shape} and {b.data.shape}")


def _reduce_to(g: np.ndarray, shape) -> np.ndarray:
    return np.asarray(g.sum(), dtype=np.float64).reshape(shape)


def add(a: Tensor, b: Tensor) -> Tensor:
    kind = _binary_shapes("add", a, b)

    def bw(g, needs):
        ga = (_reduce_to(g, a.data.shape) if kind == "a_scalar" else g) if needs[0] else None
        gb = (_reduce_to(g, b.data.shape) if kind == "b_scalar" else g) if needs[1] else None
        return ga, gb

    return _track("add", a.data + b.data, (a, b), bw)


def sub(a: Tensor, b: Tensor) -> Tensor:
    kind = _binary_shapes("sub", a, b)

    def bw(g, needs):
        ga = (_reduce_to(g, a.data.shape) if kind == "a_scalar" else g) if needs[0] else None
        gb = None
        if needs[1]:
            gb = -( _reduce_to(g, b.data.shape) if kind == "b_scalar" else g)
        return ga, gb

    return _track("sub", a.data - b.data, (a, b), bw)


def mul(a: Tensor, b: Tensor) -> Tensor:
    kind = _binary_shapes("mul", a, b)
    ad, bd = a.data, b.data

    def bw(g, needs):
        ga = gb = None
        if needs[0]:
            ga = g * bd
            if kind == "a_scalar":
                ga = _reduce_to(ga, ad.shape)
        if needs[1]:
            gb = g * ad
            if kind == "b_scalar":
                gb = _reduce_to(gb, bd.shape)
        return ga, gb

    return _track("mul", ad * bd, (a, b), bw)


def div(a: Tensor, b: Tensor) -> Tensor:
    kind = _binary_shapes("div", a, b)
    ad, bd = a.data, b.data
    if np.any(bd == 0.0):
        raise NumericalError("division by zero")

    def bw(g, needs):
        ga = gb = None
        if needs[0]:
            ga = g / bd
            if kind == "a_scalar":
                ga = _reduce_to(ga, ad.shape)
        if needs[1]:
            gb = -g * ad / (bd * bd)
            if kind == "b_scalar":
                gb = _reduce_to(gb, bd.shape)
        return ga, gb

    return _track("div", ad / bd, (a, b), bw)


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


def clamp_smooth(a: Tensor, margin: float = CLAMP_MARGIN) -> Tensor:
    """Differentiable squash onto (0, 1): identity on [m, 1-m], tanh tails.

    Hard clamping kills gradients at saturation; the tanh tails keep a strict
    (0, 1) range while deviating from the identity by at most
    m * (1 - tanh(1)) ~ 0.012 for inputs in [0, 1] with the default margin.
    """
    m = float(margin)
    x = a.data
    lo = x < m
    hi = x > 1.0 - m
    t_lo = np.tanh((x[lo] - m) / m)
    t_hi = np.tanh((x[hi] - (1.0 - m)) / m)
    out = x.copy()
    out[lo] = m + m * t_lo
    out[hi] = (1.0 - m) + m * t_hi
    deriv = np.ones_like(x)
    deriv[lo] = 1.0 - t_lo * t_lo  # sech^2 via tanh, overflow-free
    deriv[hi] = 1.0 - t_hi * t_hi
    return _track("clamp_smooth", out, (a,), lambda g, needs: (g * deriv,))


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
        return (np.repeat(np.repeat(g, r, axis=1), r, axis=2) / (r * r),)

    return _track("block_mean", out, (a,), bw)


# ---------------------------------------------------------------------------
# convolution

# float64 elements in one block of unfolded taps (512 KiB, to stay in L2):
# a block holds as many whole output rows as fit, and at least one
_UNFOLD_BLOCK = 1 << 16


def _zero_pad(a, top, left, height, width):
    """(C, h, w) ``a`` at (top, left) on a zero (C, height, width) canvas.

    A plain copy: ``np.pad`` costs three times as much on small images.
    """
    out = np.zeros((a.shape[0], height, width))
    out[:, top : top + a.shape[1], left : left + a.shape[2]] = a
    return out


def _unfold_rows(win):
    """Yield ``(r0, r1, cols)`` over blocks of output rows of a correlation.

    ``win`` is a read-only (C, h_out, w_out, kh, kw) view: the input window
    of every output pixel.  ``cols`` is the (C * kh * kw, (r1 - r0) * w_out)
    matrix of the taps of rows r0..r1-1, ordered like
    ``weight.reshape(C_out, C * kh * kw)``, copied into one buffer that every
    block reuses.
    """
    c, h_out, w_out, kh, kw = win.shape
    win = win.transpose(0, 3, 4, 1, 2)
    depth = c * kh * kw
    rows = max(1, min(h_out, _UNFOLD_BLOCK // (depth * w_out)))
    buf = np.empty(depth * rows * w_out)
    for r0 in range(0, h_out, rows):
        r1 = min(r0 + rows, h_out)
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
    gx = np.zeros((c_in, h_in, w_in))
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
    ``slope >= 0``), so the tape keeps no pre-activation and no scale array.

    One blocked unfold-then-GEMM kernel serves the forward pass and both
    pullbacks.  For a block of output rows it copies all k * k taps of every
    input channel into one (k * k * C_in, rows * W_out) buffer and makes one
    matmul against the weights reshaped to (C_out, k * k * C_in).  The
    forward pass writes that product straight into the output; ``grad_w``
    sums ``g_block @ cols.T`` over the same blocks (as its transpose, which
    BLAS runs faster); ``grad_x`` is the transposed convolution, gathered the
    same way from the zero-padded gradient with the flipped kernel, once per
    stride phase.  A block holds a bounded number of taps, so the whole
    unfolded matrix is never built.
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
    if slope is not None and not (math.isfinite(slope) and slope >= 0.0):
        raise InvalidInputError(f"conv2d slope must be finite and >= 0, got {slope}")
    xd = x.data
    _c, h_in, w_in = xd.shape
    pad = k // 2
    h_out = (h_in - 1) // stride + 1
    w_out = (w_in - 1) // stride + 1
    wmat = wd.reshape(c_out, c_in * k * k)
    out = np.empty((c_out, h_out, w_out))
    out_mat = out.reshape(c_out, h_out * w_out)

    def x_windows():
        xp = _zero_pad(xd, pad, pad, h_in + 2 * pad, w_in + 2 * pad)
        return sliding_window_view(xp, (k, k), axis=(1, 2))[:, ::stride, ::stride]

    for r0, r1, cols in _unfold_rows(x_windows()):
        np.matmul(wmat, cols, out=out_mat[:, r0 * w_out : r1 * w_out])
    if bias is not None:
        out += bias.data[:, None, None]
    if slope is not None:
        # on the whole output, not per block; bitwise out * np.where(out > 0, 1, slope)
        np.multiply(out, slope, out=out, where=~(out > 0.0))
    inputs = (x, weight) if bias is None else (x, weight, bias)

    def bw(g, needs):
        gx = gw = gb = None
        if slope is not None:
            masked = np.where(out > 0.0, 1.0, slope)
            masked *= g
            g = masked
        if needs[0]:
            gx = _conv_grad_x(g, wd, stride, h_in, w_in)
        if needs[1]:
            g_mat = g.reshape(c_out, h_out * w_out)
            gw_t = np.zeros((c_in * k * k, c_out))
            # padded again rather than kept: the tape then holds no copy of x
            for r0, r1, cols in _unfold_rows(x_windows()):
                gw_t += cols @ g_mat[:, r0 * w_out : r1 * w_out].T
            gw = gw_t.T.reshape(wd.shape)
        if bias is None:
            return gx, gw
        if needs[2]:
            gb = g.reshape(c_out, -1).sum(axis=1)
        return gx, gw, gb

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

    def set_trainable(self, flag: bool) -> None:
        for _, p in self.items():
            p.requires_grad = bool(flag)


def adam_step(
    params: ParameterSet,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> None:
    """Bias-corrected Adam update over all parameters; gradients are zeroed after."""
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
        blob = fh.read()
    if len(blob) < 8 or blob[:4] != CHECKPOINT_MAGIC:
        raise FormatError(
            f"bad checkpoint magic at byte 0: expected {CHECKPOINT_MAGIC!r}, "
            f"got {blob[:4]!r}"
        )
    (count,) = struct.unpack_from("<I", blob, 4)
    pos = 8
    params = ParameterSet()
    for _ in range(count):
        if pos + 2 > len(blob):
            raise FormatError(f"truncated checkpoint at byte {pos}: missing name length")
        (name_len,) = struct.unpack_from("<H", blob, pos)
        pos += 2
        if pos + name_len > len(blob):
            raise FormatError(
                f"truncated checkpoint at byte {pos}: name of {name_len} bytes, "
                f"{len(blob) - pos} left"
            )
        try:
            name = blob[pos : pos + name_len].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(
                f"parameter name at byte {pos} is not UTF-8: {exc.reason} "
                f"at byte {pos + exc.start}"
            ) from exc
        pos += name_len
        if pos + 1 > len(blob):
            raise FormatError(f"truncated checkpoint at byte {pos}: missing rank")
        rank = blob[pos]
        pos += 1
        if rank > 4:
            raise FormatError(f"checkpoint rank {rank} exceeds 4 at byte {pos - 1}")
        if pos + 4 * rank > len(blob):
            raise FormatError(f"truncated checkpoint at byte {pos}: missing dims")
        dims = struct.unpack_from(f"<{rank}I", blob, pos)
        pos += 4 * rank
        n = math.prod(dims)  # exact: dims from the file may overflow int64
        nbytes = n * 8
        if pos + nbytes > len(blob):
            raise FormatError(
                f"truncated checkpoint payload at byte {pos}: expected {nbytes} bytes, "
                f"got {len(blob) - pos}"
            )
        arr = np.frombuffer(blob, dtype="<f8", count=n, offset=pos).reshape(dims)
        pos += nbytes
        params.add(name, arr.copy())
    if pos != len(blob):
        raise FormatError(f"trailing bytes in checkpoint at byte {pos}")
    return params
