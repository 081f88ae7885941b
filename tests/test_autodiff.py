import struct
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracles
from panfuse import autodiff as ad
from panfuse import raster
from panfuse.autodiff import ParameterSet, Tensor
from panfuse.errors import (
    DegenerateInputError,
    FormatError,
    InvalidInputError,
    NumericalError,
    ShapeError,
    TrainingDivergenceError,
)


def grad_of(fn, *arrays, eps=1e-4):
    """Autodiff and finite-difference gradients of fn(list of tensors) -> Tensor."""
    tensors = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    loss = fn(tensors)
    ad.backward(loss)
    auto = [t.grad for t in tensors]
    numeric = oracles.finite_difference_grads(
        lambda arrs: fn([Tensor(a) for a in arrs]).item(), [a.copy() for a in arrays], eps
    )
    return auto, numeric


def check_gradients(fn, *arrays, tol=1e-4):
    auto, numeric = grad_of(fn, *arrays)
    for a, n in zip(auto, numeric):
        assert a is not None
        assert oracles.max_relative_error(a, n) < tol


# the conv2d case space of the oracle tests: every kernel size the networks
# use and more, strides 1-3, and images smaller and larger than the kernel
CONV_CASES = dict(
    c_in=st.integers(1, 4),
    c_out=st.integers(1, 4),
    k=st.sampled_from([1, 3, 5]),
    stride=st.integers(1, 3),
    h=st.integers(1, 12),
    w=st.integers(1, 12),
    with_bias=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)


def leaky_scale(pre, slope):
    """The leaky ReLU derivative at the oracle's pre-activations; 1 without a slope."""
    return 1.0 if slope is None else np.where(pre > 0.0, 1.0, slope)


# absolute error allowed against the float64 loop oracles, by the dtype conv2d
# computes in; the case space has O(1) values and dot products of up to
# 4 * 5 * 5 terms, whose float32 error reached 8e-6 over 3000 of the largest cases
CONV_ATOL = {np.float64: 1e-12, np.float32: 1e-4}


def check_conv2d_forward(
    c_in, c_out, k, stride, h, w, with_bias, seed, slope=None, dtype=np.float64
):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, size=(c_in, h, w)).astype(dtype)
    wt = rng.uniform(-1.0, 1.0, size=(c_out, c_in, k, k))
    b = rng.uniform(-1.0, 1.0, size=c_out) if with_bias else None
    out = ad.conv2d(
        Tensor(x), Tensor(wt), None if b is None else Tensor(b), stride=stride, slope=slope
    )
    pre = oracles.naive_conv2d_zero_pad(x.astype(np.float64), wt, b, stride)
    expected = pre * leaky_scale(pre, slope)
    assert out.data.dtype == dtype
    assert out.data.shape == expected.shape
    np.testing.assert_allclose(out.data, expected, rtol=0, atol=CONV_ATOL[dtype])


def check_conv2d_pullbacks(
    c_in, c_out, k, stride, h, w, with_bias, seed, slope=None, dtype=np.float64
):
    rng = np.random.default_rng(seed)
    x = Tensor(rng.uniform(-1.0, 1.0, size=(c_in, h, w)).astype(dtype), requires_grad=True)
    wt = Tensor(rng.uniform(-1.0, 1.0, size=(c_out, c_in, k, k)), requires_grad=True)
    b = Tensor(rng.uniform(-1.0, 1.0, size=c_out), requires_grad=True) if with_bias else None
    out = ad.conv2d(x, wt, b, stride=stride, slope=slope)
    g = rng.uniform(-1.0, 1.0, size=out.shape)
    grads = out.node.backward_fn(g, (True,) * len(out.node.inputs))
    x64 = x.data.astype(np.float64)
    pre = oracles.naive_conv2d_zero_pad(x64, wt.data, None if b is None else b.data, stride)
    if dtype != np.float64:
        # a pre-activation within rounding of zero may take the other sign
        # in float32: the mask is the one the op saw
        pre = out.data
    expected = oracles.naive_conv2d_zero_pad_pullbacks(
        x64, wt.data, g * leaky_scale(pre, slope), stride
    )
    # grad_x in the input's dtype, grad_w and grad_b in the parameters'
    dtypes = [dtype, np.float64, np.float64]
    for got, want, want_dtype in zip(grads, expected, dtypes):
        assert got.dtype == want_dtype
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=0, atol=CONV_ATOL[dtype])


def check_conv2d_finite_differences(stride, k, slope=None):
    rng = np.random.default_rng(7)
    x = rng.uniform(size=(2, 5, 5))
    w = rng.uniform(-0.5, 0.5, size=(3, 2, k, k))
    b = rng.uniform(-0.1, 0.1, size=3)
    check_gradients(
        lambda ts: ad.variance(ad.conv2d(ts[0], ts[1], ts[2], stride=stride, slope=slope)),
        x,
        w,
        b,
    )


CONV_FD_CASES = pytest.mark.parametrize(
    "stride, k",
    [(1, 3), (2, 3), (3, 3), (1, 5), (2, 5), (3, 5)],
    ids=["1", "2", "3", "1-k5", "2-k5", "3-k5"],
)

# the fused conv-bias-leaky-ReLU layer: the networks' slope, a small one and
# plain ReLU, which zeroes the gradient of every non-positive output
FUSED_SLOPES = [0.2, 0.01, 0.0]
FUSED_CASES = dict(CONV_CASES, slope=st.sampled_from(FUSED_SLOPES))
# the layers of the training networks run in float32, plain and fused
FLOAT32_CASES = dict(CONV_CASES, slope=st.sampled_from([None] + FUSED_SLOPES))


class TestForward:
    def test_identity_convolution(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(size=(1, 5, 5))
        w = np.ones((1, 1, 1, 1))
        out = ad.conv2d(Tensor(x), Tensor(w))
        np.testing.assert_array_equal(out.data, x)

    def test_mean_of_constant(self):
        assert ad.mean(Tensor(np.full((3, 3), 0.7))).item() == pytest.approx(0.7)

    def test_variance_hand_value(self):
        assert ad.variance(Tensor(np.array([1.0, 2.0, 3.0, 4.0]))).item() == pytest.approx(
            5.0 / 3.0
        )

    def test_covariance_matches_oracle(self):
        rng = np.random.default_rng(1)
        a = rng.uniform(size=(4, 4))
        b = rng.uniform(size=(4, 4))
        got = ad.covariance(Tensor(a), Tensor(b)).item()
        assert abs(got - oracles.naive_covariance(a, b)) < 1e-12

    def test_conv2d_matches_loop_oracle(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(size=(3, 7, 6))
        w = rng.uniform(size=(2, 3, 3, 3))
        b = rng.uniform(size=2)
        for stride in (1, 2):
            out = ad.conv2d(Tensor(x), Tensor(w), Tensor(b), stride=stride)
            expected = oracles.naive_conv2d_zero_pad(x, w, b, stride)
            assert out.data.shape == expected.shape
            np.testing.assert_allclose(out.data, expected, atol=1e-12)

    @settings(max_examples=150, deadline=None)
    @given(**CONV_CASES)
    def test_conv2d_matches_loop_oracle_property(self, **case):
        check_conv2d_forward(**case)

    @pytest.mark.parametrize("shape", [(1, 0, 0), (1, 3, 0), (1, 0, 3)])
    def test_conv2d_rejects_empty_image(self, shape):
        with pytest.raises(ShapeError, match="non-empty"):
            ad.conv2d(Tensor(np.zeros(shape)), Tensor(np.ones((2, 1, 3, 3))))

    def test_leaky_relu_matches_where_bitwise(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(3, 17, 19))
        x.flat[:4] = [0.0, -0.0, 1e-300, -1e-300]
        for slope in (0.2, 0.01):
            expected = x * np.where(x > 0.0, 1.0, slope)
            got = ad.leaky_relu(Tensor(x), slope).data
            assert got.tobytes() == expected.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(**FUSED_CASES)
    def test_fused_conv2d_matches_loop_oracle(self, **case):
        check_conv2d_forward(**case)

    @settings(max_examples=100, deadline=None)
    @given(**FLOAT32_CASES)
    def test_float32_conv2d_matches_loop_oracle(self, **case):
        check_conv2d_forward(**case, dtype=np.float32)

    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("slope", FUSED_SLOPES)
    def test_fused_conv2d_matches_composed_ops_bitwise(self, slope, k):
        # with a 1x1 identity kernel and no bias the pre-activation is the
        # input, so 0.0 and +-1e-300 reach the activation (the GEMM sums -0.0
        # to 0.0); slope 0 turns every negative pre-activation into -0.0.  The
        # signs are random, and a quarter of the samples are zeros of either sign
        rng = np.random.default_rng(14)
        x = rng.normal(size=(3, 17, 19))
        x[rng.uniform(size=x.shape) < 0.25] = 0.0
        x[rng.uniform(size=x.shape) < 0.125] = -0.0
        x.flat[:4] = [0.0, -0.0, 1e-300, -1e-300]
        if k == 1:
            arrays = (x, np.eye(3)[:, :, None, None])
        else:
            arrays = (x, rng.normal(size=(3, 3, k, k)), rng.normal(size=3))
        g = rng.normal(size=x.shape)

        def run(fused):
            ts = [Tensor(a.copy(), requires_grad=True) for a in arrays]
            if fused:
                out = ad.conv2d(*ts, slope=slope)
            else:
                out = ad.leaky_relu(ad.conv2d(*ts), slope)
            ad.backward(ad.mean(ad.mul(out, Tensor(g))))
            return [out.data] + [t.grad for t in ts]

        for got, want in zip(run(True), run(False)):
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("slope", [-0.2, 1.5, float("nan"), float("inf")])
    def test_fused_conv2d_rejects_bad_slope(self, slope):
        with pytest.raises(InvalidInputError, match=f"got {slope}"):
            ad.conv2d(Tensor(np.ones((1, 3, 3))), Tensor(np.ones((1, 1, 3, 3))), slope=slope)

    def test_block_mean(self):
        x = np.arange(16.0).reshape(1, 4, 4)
        out = ad.block_mean(Tensor(x), 2)
        np.testing.assert_allclose(out.data[0], [[2.5, 4.5], [10.5, 12.5]])

    def test_shape_error_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 2\).*\(3, 3\)"):
            ad.add(Tensor(np.zeros((2, 2))), Tensor(np.zeros((3, 3))))

    @pytest.mark.parametrize("x_dtype, g_dtype", [
        (np.float64, np.float64), (np.float32, np.float64), (np.float64, np.float32),
        (np.float32, np.float32),
    ])
    def test_clamp_smooth_pullback_is_the_full_plane_formula(self, x_dtype, g_dtype):
        # the pullback scales only the tails; the formula it replaced
        # multiplied g by a whole derivative plane, 1 between the tails
        rng = np.random.default_rng(31)
        x = rng.uniform(-0.3, 1.3, size=(3, 9, 11)).astype(x_dtype)
        g = rng.uniform(-2.0, 2.0, size=x.shape).astype(g_dtype)
        m = ad.CLAMP_MARGIN
        lo, hi = x < m, x > 1.0 - m
        assert lo.any() and hi.any() and (~lo & ~hi).any()
        t_lo, t_hi = np.tanh((x[lo] - m) / m), np.tanh((x[hi] - (1.0 - m)) / m)
        deriv = np.ones_like(x)
        deriv[lo] = 1.0 - t_lo * t_lo
        deriv[hi] = 1.0 - t_hi * t_hi
        want = g * deriv
        (got,) = ad.clamp_smooth(Tensor(x, requires_grad=True)).node.backward_fn(g, (True,))
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_block_mean_pullback_is_the_repeat_formula(self, r, dtype):
        rng = np.random.default_rng(32)
        x = Tensor(rng.uniform(size=(2, 3 * r, 5 * r)), requires_grad=True)
        g = rng.uniform(-1.0, 1.0, size=(2, 3, 5)).astype(dtype)
        want = np.repeat(np.repeat(g, r, axis=1), r, axis=2) / (r * r)
        (got,) = ad.block_mean(x, r).node.backward_fn(g, (True,))
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_clamp_smooth_range_and_identity(self):
        x = np.linspace(-3.0, 4.0, 101)
        out = ad.clamp_smooth(Tensor(x)).data
        assert out.min() >= 0.0 and out.max() <= 1.0
        near = np.linspace(-0.5, 1.5, 41)
        squashed = ad.clamp_smooth(Tensor(near)).data
        assert squashed.min() > 0.0 and squashed.max() < 1.0
        inside = np.linspace(0.0, 1.0, 101)
        dev = np.abs(ad.clamp_smooth(Tensor(inside)).data - inside)
        assert dev.max() < 0.02
        mid = np.linspace(0.05, 0.95, 11)
        np.testing.assert_array_equal(ad.clamp_smooth(Tensor(mid)).data, mid)


PRIMITIVE_CASES = {
    "add": lambda ts: ad.mean(ad.add(ts[0], ts[1])),
    "sub": lambda ts: ad.mean(ad.sub(ts[0], ts[1])),
    "mul": lambda ts: ad.mean(ad.mul(ts[0], ts[1])),
    "div": lambda ts: ad.mean(ad.div(ts[0], ts[1])),
    "scalar_mul": lambda ts: ad.mean(ad.scalar_mul(ts[0], 1.7)),
    "neg": lambda ts: ad.mean(ad.neg(ts[0])),
    "log": lambda ts: ad.mean(ad.log(ts[0])),
    "sigmoid": lambda ts: ad.mean(ad.sigmoid(ts[0])),
    "leaky_relu": lambda ts: ad.mean(ad.leaky_relu(ts[0], 0.2)),
    "clamp_smooth": lambda ts: ad.mean(ad.clamp_smooth(ts[0])),
    "mean": lambda ts: ad.mean(ts[0]),
    "variance": lambda ts: ad.variance(ts[0]),
    "covariance": lambda ts: ad.covariance(ts[0], ts[1]),
    "block_mean": lambda ts: ad.variance(ad.block_mean(ts[0], 2)),
    "concat_channels": lambda ts: ad.variance(ad.concat_channels(ts[0], ts[1])),
    "channel_slice": lambda ts: ad.mean(ad.channel_slice(ts[0], 1)),
    "channel_weighted_sum": lambda ts: ad.variance(
        ad.channel_weighted_sum(ts[0], np.array([0.2, 0.5, 0.3]), 0.1)
    ),
    "similarity": lambda ts: ad.mean(ad.similarity(ts[0], ts[1])),
}

# the cases of PRIMITIVE_CASES that take two inputs
TWO_INPUT_CASES = ("add", "sub", "mul", "div", "covariance", "concat_channels", "similarity")


class TestGradients:
    @pytest.mark.parametrize("name", sorted(PRIMITIVE_CASES))
    def test_primitive_matches_finite_differences(self, name):
        fn = PRIMITIVE_CASES[name]
        for seed in range(5):
            rng = np.random.default_rng(seed)
            if name in TWO_INPUT_CASES:
                arrays = [rng.uniform(0.5, 1.5, size=(3, 4, 4)) for _ in range(2)]
            else:
                arrays = [rng.uniform(0.5, 1.5, size=(3, 4, 4))]
            check_gradients(fn, *arrays)

    def test_binary_ops_reject_a_scalar_operand(self):
        # binary ops take equal shapes: a scalar is not broadcast, on either side
        x, s = Tensor(np.ones((2, 3, 3))), Tensor(0.7)
        for op in (ad.add, ad.sub, ad.mul, ad.div):
            for left, right in ((x, s), (s, x)):
                with pytest.raises(ShapeError, match=r"\(2, 3, 3\)"):
                    op(left, right)

    @CONV_FD_CASES
    def test_conv2d_gradients(self, stride, k):
        check_conv2d_finite_differences(stride, k)

    @settings(max_examples=100, deadline=None)
    @given(**CONV_CASES)
    def test_conv2d_pullbacks_match_loop_oracle(self, **case):
        check_conv2d_pullbacks(**case)

    @CONV_FD_CASES
    @pytest.mark.parametrize("slope", FUSED_SLOPES)
    def test_fused_conv2d_gradients(self, stride, k, slope):
        check_conv2d_finite_differences(stride, k, slope)

    @settings(max_examples=100, deadline=None)
    @given(**FUSED_CASES)
    def test_fused_conv2d_pullbacks_match_loop_oracle(self, **case):
        check_conv2d_pullbacks(**case)

    @settings(max_examples=100, deadline=None)
    @given(**FLOAT32_CASES)
    def test_float32_conv2d_pullbacks_match_loop_oracle(self, **case):
        check_conv2d_pullbacks(**case, dtype=np.float32)

    def test_simple_square_gradient(self):
        x = Tensor(np.array([3.0]), requires_grad=True)
        loss = ad.mean(ad.mul(x, x))
        ad.backward(loss)
        np.testing.assert_allclose(x.grad, [6.0])

    def test_backward_accumulates(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        loss = ad.mean(ad.mul(x, x))
        ad.backward(loss)
        first = x.grad.copy()
        loss2 = ad.mean(ad.mul(x, x))
        ad.backward(loss2)
        np.testing.assert_allclose(x.grad, 2.0 * first)

    def test_a_tape_is_used_once(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        loss = ad.mean(ad.mul(x, x))
        ad.backward(loss)
        with pytest.raises(InvalidInputError, match="used once"):
            ad.backward(loss)
        np.testing.assert_allclose(x.grad, [4.0])

    def test_a_loss_on_a_spent_op_output_is_rejected(self):
        # walked again, y would pass for a leaf and send x nothing
        x = Tensor(np.array([2.0]), requires_grad=True)
        y = ad.mul(x, x)
        ad.backward(ad.mean(y))
        with pytest.raises(InvalidInputError, match="used once"):
            ad.backward(ad.mean(ad.mul(y, x)))
        # rejected before any pullback ran: x got nothing more
        np.testing.assert_allclose(x.grad, [4.0])

    def test_backward_rejects_non_scalar(self):
        x = Tensor(np.zeros((2, 2)), requires_grad=True)
        with pytest.raises(InvalidInputError):
            ad.backward(ad.add(x, x))

    def test_shared_node_visited_once(self):
        # y = x * x reused twice: d/dx (y + y) = 4x, not 8x
        x = Tensor(np.array([3.0]), requires_grad=True)
        y = ad.mul(x, x)
        loss = ad.mean(ad.add(y, y))
        ad.backward(loss)
        np.testing.assert_allclose(x.grad, [12.0])

    def test_linearity_of_backward(self):
        rng = np.random.default_rng(11)
        base = rng.uniform(0.5, 1.5, size=(3, 3))

        def f(t):
            return ad.variance(t)

        def g(t):
            return ad.mean(ad.mul(t, t))

        a_w, b_w = 0.3, 1.7
        x1 = Tensor(base.copy(), requires_grad=True)
        ad.backward(ad.add(ad.scalar_mul(f(x1), a_w), ad.scalar_mul(g(x1), b_w)))
        x2 = Tensor(base.copy(), requires_grad=True)
        ad.backward(f(x2))
        x3 = Tensor(base.copy(), requires_grad=True)
        ad.backward(g(x3))
        np.testing.assert_allclose(x1.grad, a_w * x2.grad + b_w * x3.grad, atol=1e-10)


class TestSimilarity:
    @settings(max_examples=100, deadline=None)
    @given(c=st.integers(1, 4), h=st.integers(2, 16), w=st.integers(2, 16),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_the_chain_oracle(self, c, h, w, seed):
        rng = np.random.default_rng(seed)
        a, b = (rng.uniform(0.1, 0.9, size=(c, h, w)) for _ in range(2))
        g = rng.uniform(-1.0, 1.0, size=c)
        ta, tb = Tensor(a, requires_grad=True), Tensor(b, requires_grad=True)
        q = ad.similarity(ta, tb)
        grads = q.node.backward_fn(g, (True, True))
        ca, cb = Tensor(a, requires_grad=True), Tensor(b, requires_grad=True)
        chain = oracles.chain_q_index(ca, cb)
        assert q.data.tobytes() == np.array([t.item() for t in chain]).tobytes()
        loss = ad.scalar_mul(chain[0], g[0])
        for t, gi in zip(chain[1:], g[1:]):
            loss = ad.add(loss, ad.scalar_mul(t, gi))
        ad.backward(loss)
        for got, want in zip(grads, (ca.grad, cb.grad)):
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("kind, fill", [("constant", 0.3), ("zero-mean", None)])
    def test_degenerate_channel_is_named(self, kind, fill):
        rng = np.random.default_rng(3)
        a, b = (rng.uniform(0.1, 0.9, size=(4, 4, 4)) for _ in range(2))
        if fill is None:
            # non-constant, and its mean is exactly zero
            a[2] = b[2] = np.where(np.indices((4, 4)).sum(axis=0) % 2, 0.5, -0.5)
        else:
            a[2] = b[2] = fill
        with pytest.raises(DegenerateInputError, match=f"{kind} images in channel 2"):
            ad.similarity(Tensor(a), Tensor(b))

    @pytest.mark.parametrize(
        "shapes",
        [((2, 4, 4), (2, 4, 5)), ((4, 4), (4, 4)), ((0, 4, 4), (0, 4, 4)), ((2, 1, 1), (2, 1, 1))],
    )
    def test_rejects_bad_shapes(self, shapes):
        with pytest.raises(ShapeError):
            ad.similarity(*(Tensor(np.ones(s)) for s in shapes))


@pytest.fixture(params=[1, 60], ids=["one-row", "partial-last"])
def small_unfold_blocks(request, monkeypatch):
    """Shrink the row-band budget, and with it conv2d's unfold block, so that
    the small test shapes span many blocks.  A budget of 1 element gives one
    output row per block; 60 gives a few rows on narrow images, so that the
    last block is often partial."""
    monkeypatch.setattr(raster, "_BAND_ELEMENTS", request.param)


# the block budget holds for every example, so the function-scoped fixture is safe
SMALL_BLOCK_SETTINGS = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


@pytest.mark.usefixtures("small_unfold_blocks")
class TestConvBlocks:
    @SMALL_BLOCK_SETTINGS
    @given(**CONV_CASES)
    def test_forward_matches_loop_oracle(self, **case):
        check_conv2d_forward(**case)

    @SMALL_BLOCK_SETTINGS
    @given(**CONV_CASES)
    def test_pullbacks_match_loop_oracle(self, **case):
        check_conv2d_pullbacks(**case)

    @CONV_FD_CASES
    def test_gradients(self, stride, k):
        check_conv2d_finite_differences(stride, k)

    @SMALL_BLOCK_SETTINGS
    @given(**FUSED_CASES)
    def test_fused_forward_matches_loop_oracle(self, **case):
        check_conv2d_forward(**case)

    @SMALL_BLOCK_SETTINGS
    @given(**FUSED_CASES)
    def test_fused_pullbacks_match_loop_oracle(self, **case):
        check_conv2d_pullbacks(**case)

    @CONV_FD_CASES
    def test_fused_gradients(self, stride, k):
        check_conv2d_finite_differences(stride, k, slope=0.2)

    @SMALL_BLOCK_SETTINGS
    @given(**FLOAT32_CASES)
    def test_float32_forward_matches_loop_oracle(self, **case):
        check_conv2d_forward(**case, dtype=np.float32)

    @SMALL_BLOCK_SETTINGS
    @given(**FLOAT32_CASES)
    def test_float32_pullbacks_match_loop_oracle(self, **case):
        check_conv2d_pullbacks(**case, dtype=np.float32)


def test_conv2d_never_unfolds_the_whole_image():
    # a 16 -> 16 3x3 conv at 128^2: one full unfold is (9 * 16, 128^2) float64
    rng = np.random.default_rng(13)
    x = Tensor(rng.uniform(size=(16, 128, 128)), requires_grad=True)
    w = Tensor(rng.uniform(size=(16, 16, 3, 3)), requires_grad=True)
    b = Tensor(rng.uniform(size=16), requires_grad=True)
    g = rng.uniform(size=(16, 128, 128))
    full_unfold = 9 * 16 * 128 * 128 * 8
    tracemalloc.start()
    try:
        out = ad.conv2d(x, w, b)
        grads = out.node.backward_fn(g, (True, True, True))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [gr.shape for gr in grads] == [x.shape, w.shape, b.shape]
    assert peak < full_unfold / 2, f"peak {peak} bytes, full unfold {full_unfold}"


class TestDtypes:
    def test_tensor_keeps_float32(self):
        assert Tensor(np.ones(3, dtype=np.float32)).data.dtype == np.float32

    @pytest.mark.parametrize(
        "data",
        [np.arange(3), np.array([True, False]), np.ones(2, dtype=np.float16), [1, 2], 0.5],
        ids=["int", "bool", "float16", "list", "scalar"],
    )
    def test_tensor_turns_other_dtypes_into_float64(self, data):
        t = Tensor(data)
        assert t.data.dtype == np.float64
        np.testing.assert_array_equal(t.data, np.asarray(data, dtype=np.float64))

    def test_cast_forward_and_pullback_dtypes(self):
        x = Tensor(np.array([[0.1, -2.5, 3e38]]), requires_grad=True)
        y = ad.cast(x, np.float32)
        assert y.data.dtype == np.float32
        np.testing.assert_array_equal(y.data, x.data.astype(np.float32))
        z = ad.cast(y, np.float64)
        assert z.data.dtype == np.float64
        g32 = np.ones(y.shape, dtype=np.float32)
        assert y.node.backward_fn(g32, (True,))[0].dtype == np.float64
        assert z.node.backward_fn(np.ones(z.shape), (True,))[0].dtype == np.float32
        ad.backward(ad.mean(z))
        assert x.grad.dtype == np.float64
        # the cotangent passed through float32 on its way back
        np.testing.assert_array_equal(x.grad, np.full(x.shape, np.float32(1.0 / 3.0)))

    def test_cast_overflow_is_a_numerical_error_without_warning(self):
        x = Tensor(np.array([1.0, 1e39]), requires_grad=True)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="op 'cast'"):
                ad.cast(x, np.float32)

    @pytest.mark.parametrize(
        "divisor", [1e-30, 3e19], ids=["square-underflows", "square-overflows"]
    )
    def test_div_pullback_of_a_float32_divisor(self, divisor):
        # the quotient of a float64 numerator is float64, and so is the
        # divisor's pullback; squared in float32, 1e-30 gives 0 and 3e19 inf
        a = Tensor(np.ones(4), requires_grad=True)
        b = Tensor(np.full(4, divisor, dtype=np.float32), requires_grad=True)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ad.backward(ad.mean(ad.div(a, b)))
        b64 = b.data.astype(np.float64)
        want = -0.25 * 1.0 / (b64 * b64)
        assert (want < 0).all() and np.isfinite(want).all()
        np.testing.assert_allclose(b.grad, want, rtol=1e-15)

    def test_cast_rejects_other_dtypes(self):
        with pytest.raises(InvalidInputError, match="float16"):
            ad.cast(Tensor(np.ones(2)), np.float16)


class TestAdam:
    def test_zero_gradient_is_noop(self):
        params = ParameterSet()
        p = params.add("w", np.array([1.0, -2.0]))
        p.grad = np.zeros(2)
        ad.adam_step(params, lr=0.1)
        np.testing.assert_array_equal(p.data, [1.0, -2.0])

    def test_first_step_magnitude(self):
        params = ParameterSet()
        p = params.add("w", np.array([0.5]))
        p.grad = np.array([1.0])
        ad.adam_step(params, lr=0.1)
        assert p.data[0] == pytest.approx(0.5 - 0.1, abs=1e-6)

    def test_nan_gradient_raises(self):
        params = ParameterSet()
        p = params.add("w", np.array([0.5]))
        p.grad = np.array([np.nan])
        with pytest.raises(TrainingDivergenceError):
            ad.adam_step(params, lr=0.1)

    def test_gradients_zeroed_after_step(self):
        params = ParameterSet()
        p = params.add("w", np.array([0.5]))
        p.grad = np.array([1.0])
        ad.adam_step(params, lr=0.1)
        assert p.grad is None

    def test_deterministic_runs(self):
        def run():
            rng = np.random.default_rng(5)
            params = ParameterSet()
            w = params.add("w", rng.uniform(size=(4,)))
            for _ in range(25):
                loss = ad.variance(ad.mul(w, w))
                ad.backward(loss)
                ad.adam_step(params, lr=1e-2)
            return w.data.copy()

        np.testing.assert_array_equal(run(), run())


class TestParameterSet:
    def test_iteration_sorted_by_name(self):
        params = ParameterSet()
        params.add("b", 1.0)
        params.add("a", 2.0)
        params.add("c", 3.0)
        assert params.names() == ["a", "b", "c"]

    def test_duplicate_name_rejected(self):
        params = ParameterSet()
        params.add("w", 1.0)
        with pytest.raises(InvalidInputError):
            params.add("w", 2.0)

    def test_checkpoint_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(6)
        params = ParameterSet()
        params.add("conv.weight", rng.normal(size=(2, 3, 3, 3)))
        params.add("conv.bias", rng.normal(size=(2,)))
        params.add("scalar", np.array(0.123456789123456789))
        path = tmp_path / "ck.pfck"
        ad.save_checkpoint(params, path)
        loaded = ad.load_checkpoint(path)
        assert loaded.names() == params.names()
        for name in params.names():
            np.testing.assert_array_equal(loaded[name].data, params[name].data)
        # serialized twice -> identical bytes
        assert ad.checkpoint_bytes(loaded) == ad.checkpoint_bytes(params)

    def test_checkpoint_bad_magic(self, tmp_path):
        path = tmp_path / "bad.pfck"
        path.write_bytes(b"XXXX\x00\x00\x00\x00")
        with pytest.raises(FormatError, match="magic"):
            ad.load_checkpoint(path)

    def test_checkpoint_truncated(self, tmp_path):
        params = ParameterSet()
        params.add("w", np.ones((2, 2)))
        blob = ad.checkpoint_bytes(params)
        path = tmp_path / "trunc.pfck"
        path.write_bytes(blob[:-8])
        with pytest.raises(FormatError, match="truncated"):
            ad.load_checkpoint(path)

    @staticmethod
    def _one_entry(name: bytes, name_len=None, dims=(), payload=b""):
        """Checkpoint bytes holding one parameter, fields as given."""
        return (
            ad.CHECKPOINT_MAGIC
            + struct.pack("<IH", 1, len(name) if name_len is None else name_len)
            + name
            + struct.pack(f"<B{len(dims)}I", len(dims), *dims)
            + payload
        )

    def test_checkpoint_non_utf8_name(self, tmp_path):
        path = tmp_path / "name.pfck"
        path.write_bytes(self._one_entry(b"w\xff", payload=b"\x00" * 8))
        with pytest.raises(FormatError, match=r"name at byte 10: not UTF-8.*at byte 11"):
            ad.load_checkpoint(path)

    def test_checkpoint_name_past_end(self, tmp_path):
        path = tmp_path / "long.pfck"
        path.write_bytes(self._one_entry(b"abc", name_len=500)[:13])
        with pytest.raises(FormatError, match=r"name at byte 10: truncated, expected 500 bytes, 3 left"):
            ad.load_checkpoint(path)

    def test_checkpoint_repeated_name(self, tmp_path):
        entry = self._one_entry(b"a", payload=b"\x00" * 8)[8:]  # name length to payload
        path = tmp_path / "twice.pfck"
        path.write_bytes(ad.CHECKPOINT_MAGIC + struct.pack("<I", 2) + entry + entry)
        with pytest.raises(FormatError, match=r"name at byte 22: repeats parameter 'a'"):
            ad.load_checkpoint(path)

    def test_every_checkpoint_prefix_names_its_offset(self, every_prefix_fails):
        params = ParameterSet()
        params.add("w", np.ones((2, 1)))
        params.add("b", 0.5)
        every_prefix_fails("cut.pfck", ad.checkpoint_bytes(params), ad.load_checkpoint)

    def test_checkpoint_dims_overflow_int64(self, tmp_path):
        # the product 2**64 wraps to 0 in int64 arithmetic
        path = tmp_path / "huge.pfck"
        path.write_bytes(self._one_entry(b"w", dims=(2**16,) * 4))
        with pytest.raises(FormatError, match=r"payload at byte 28: truncated, expected 147573952589676412928"):
            ad.load_checkpoint(path)
