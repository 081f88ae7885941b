import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import oracles
from panfuse import metrics, raster
from panfuse.errors import DegenerateInputError, InvalidInputError
from panfuse.metrics import (
    MetricConfig,
    QualityReport,
    cc,
    d_lambda,
    d_s,
    ergas,
    evaluate_full,
    evaluate_reduced,
    q4,
    qnr,
    sam_global,
    sam_map,
    uiqi,
)
from panfuse.raster import MultispectralImage, RasterBand, mtf_degrade


def ms_of(arr):
    return MultispectralImage(np.asarray(arr, dtype=float))


def rand_ms(seed, k=4, h=8, w=8):
    return ms_of(np.random.default_rng(seed).uniform(size=(k, h, w)))


class TestSam:
    def test_identical_images(self):
        m = rand_ms(0)
        assert sam_global(m, m) == 0.0

    def test_scale_invariance(self):
        m = rand_ms(1)
        f = ms_of(3.0 * m.data)
        assert abs(sam_global(f, m)) < 1e-5

    def test_orthogonal_pixel(self):
        f = ms_of([[[1.0]], [[0.0]]])
        m = ms_of([[[0.0]], [[1.0]]])
        assert abs(sam_global(f, m) - 90.0) < 1e-9

    def test_needs_two_bands(self):
        one = ms_of(np.ones((1, 2, 2)))
        with pytest.raises(InvalidInputError):
            sam_global(one, one)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), scale=st.floats(0.1, 10.0))
    def test_positive_scaling_invariance(self, seed, scale):
        m = rand_ms(seed, h=4, w=4)
        f = rand_ms(seed + 1, h=4, w=4)
        base = sam_global(f, m)
        scaled = sam_global(ms_of(scale * f.data), m)
        assert abs(base - scaled) < 1e-6


class TestSamMap:
    def test_identical_gives_zeros(self):
        m = rand_ms(2)
        out = sam_map(m, m)
        assert np.all(out.data == 0.0)

    def test_endpoints(self):
        f = ms_of([[[1.0, 1.0]], [[0.0, 1.0]]])
        m = ms_of([[[0.0, 1.0]], [[1.0, 1.0]]])  # angles: 90 and 0
        out = sam_map(f, m)
        assert sorted(out.data.ravel()) == [0.0, 255.0]

    def test_matches_pixel_loop_oracle(self):
        rng = np.random.default_rng(3)
        f = rng.uniform(size=(4, 4, 4))
        m = rng.uniform(size=(4, 4, 4))
        out = sam_map(ms_of(f), ms_of(m))
        np.testing.assert_array_equal(out.data, oracles.naive_sam_map(f, m))

    def test_blocks_bound_the_peak_and_keep_the_angles(self, monkeypatch):
        rng = np.random.default_rng(9)
        f, m = ms_of(rng.uniform(size=(4, 64, 256))), ms_of(rng.uniform(size=(4, 64, 256)))
        whole_map, whole_mean = sam_map(f, m), sam_global(f, m)  # one block of 64 rows
        monkeypatch.setattr(raster, "_BAND_ELEMENTS", 4 * 4 * 256)  # blocks of 4 rows
        block = 4 * 256 * 8  # bytes of one band-sized array of a block
        tracemalloc.start()
        try:
            mean = sam_global(f, m)
            _, global_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            out = sam_map(f, m)
            _, map_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # four reused block buffers and the mask of nonzero norms: 4.9 blocks,
        # where a temporary per band product took sam_global to 8.7
        assert global_peak <= 6 * block, f"sam_global peak {global_peak} B"
        assert map_peak <= out.data.nbytes + 12 * block, f"sam_map peak {map_peak} B"
        np.testing.assert_array_equal(out.data, whole_map.data)
        assert abs(mean - whole_mean) < 1e-12

    def test_angles_are_bitwise_those_of_the_plain_sums(self):
        # the buffers add the band products in band order, as these sums do
        rng = np.random.default_rng(10)
        f, m = rng.uniform(-1.0, 1.0, size=(2, 5, 70, 33))
        f[:, 3, 4] = 0.0  # a zero spectral vector
        dot, sf, sm = (sum(a * b for a, b in zip(x, y)) for x, y in ((f, m), (f, f), (m, m)))
        norm = np.sqrt(sf * sm)
        cos = np.divide(dot, norm, out=np.ones_like(dot), where=norm > 0.0)
        want = np.degrees(np.arccos(np.clip(cos, -1.0, 1.0)))
        got = np.concatenate([a.copy() for _, a in metrics._angle_blocks(ms_of(f), ms_of(m))])
        assert got.tobytes() == want.tobytes()


class TestCc:
    def test_self_correlation(self):
        b = RasterBand(np.random.default_rng(4).uniform(size=(8, 8)))
        assert abs(cc(b, b) - 1.0) < 1e-12

    def test_negated_affine(self):
        b = RasterBand(np.random.default_rng(5).uniform(size=(8, 8)))
        neg = RasterBand(1.0 - b.data)
        assert abs(cc(b, neg) + 1.0) < 1e-12

    def test_matches_oracle(self):
        rng = np.random.default_rng(6)
        a = rng.uniform(size=(8, 8))
        b = rng.uniform(size=(8, 8))
        assert abs(cc(RasterBand(a), RasterBand(b)) - oracles.naive_cc(a, b)) < 1e-12

    def test_constant_rejected(self):
        with pytest.raises(DegenerateInputError):
            cc(RasterBand(np.full((4, 4), 0.5)), RasterBand(np.eye(4)))

    def test_band_average(self):
        m = rand_ms(7, k=3)
        assert abs(cc(m, m) - 1.0) < 1e-12


class TestUiqi:
    def test_identity(self):
        b = RasterBand(np.random.default_rng(8).uniform(size=(8, 8)))
        assert abs(uiqi(b, b, MetricConfig(window=4, stride=4)) - 1.0) < 1e-12

    def test_hand_value(self):
        a = RasterBand(np.array([[1.0, 2.0], [3.0, 4.0]]))
        b = RasterBand(np.array([[2.0, 4.0], [6.0, 8.0]]))
        assert abs(uiqi(a, b, MetricConfig(window=2, stride=2)) - 0.64) < 1e-12

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(9)
        a = rng.uniform(size=(64, 64))
        b = rng.uniform(size=(64, 64))
        fast = uiqi(RasterBand(a), RasterBand(b), MetricConfig())
        assert abs(fast - oracles.naive_uiqi(a, b, 32, 32)) < 1e-10

    def test_window_larger_than_image(self):
        b = RasterBand(np.zeros((4, 4)))
        with pytest.raises(InvalidInputError):
            uiqi(b, b, MetricConfig(window=8, stride=8))

    def test_constant_conventions(self):
        cfg = MetricConfig(window=2, stride=2)
        flat = RasterBand(np.full((2, 2), 0.3))
        same = RasterBand(np.full((2, 2), 0.3))
        other = RasterBand(np.full((2, 2), 0.7))
        varied = RasterBand(np.array([[0.0, 1.0], [0.5, 0.25]]))
        assert uiqi(flat, same, cfg) == 1.0
        assert uiqi(flat, other, cfg) == 0.0
        assert uiqi(flat, varied, cfg) == 0.0

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_symmetric_and_bounded(self, seed):
        rng = np.random.default_rng(seed)
        a = RasterBand(rng.uniform(size=(8, 8)))
        b = RasterBand(rng.uniform(size=(8, 8)))
        cfg = MetricConfig(window=4, stride=2)
        q_ab = uiqi(a, b, cfg)
        q_ba = uiqi(b, a, cfg)
        assert q_ab == q_ba
        assert abs(q_ab) <= 1.0 + 1e-12


class TestQ4:
    def test_identity(self):
        m = rand_ms(10, h=8, w=8)
        assert abs(q4(m, m, MetricConfig(window=4, stride=4)) - 1.0) < 1e-10

    def test_distortion_lowers_score(self):
        m = rand_ms(11, h=8, w=8)
        arr = m.data.copy()
        arr[3] = np.clip(arr[3] + 0.2, 0.0, 1.0)
        f = ms_of(arr)
        assert q4(f, m, MetricConfig(window=4, stride=4)) < 1.0

    def test_matches_quaternion_oracle(self):
        rng = np.random.default_rng(12)
        f = rng.uniform(size=(4, 64, 64))
        m = rng.uniform(size=(4, 64, 64))
        fast = q4(ms_of(f), ms_of(m), MetricConfig())
        assert abs(fast - oracles.naive_q4(f, m, 32, 32)) < 1e-8

    def test_requires_four_bands(self):
        m = rand_ms(13, k=3)
        with pytest.raises(InvalidInputError):
            q4(m, m, MetricConfig(window=4, stride=4))


def blocky(rng, shape, levels, block):
    """Uniform values when ``levels`` is 0; otherwise multiples of 1/levels, constant
    over block x block squares, so that many windows are flat."""
    if not levels:
        return rng.uniform(size=shape)
    h, w = shape[-2:]
    coarse = rng.integers(0, levels + 1, size=(*shape[:-2], -(-h // block), -(-w // block)))
    return np.repeat(np.repeat(coarse / levels, block, -2), block, -1)[..., :h, :w]


@st.composite
def windowed_inputs(draw, max_side=8):
    """(seed, h, w, window, stride, levels, block): overlapping, tiling and gapped strides."""
    h, w = draw(st.integers(2, max_side)), draw(st.integers(2, max_side))
    window = draw(st.integers(2, min(h, w)))
    stride = draw(st.integers(1, window + 3))
    levels = draw(st.sampled_from([0, 1, 2, 4]))
    block = draw(st.integers(1, 4))
    return draw(st.integers(0, 2**32 - 1)), h, w, window, stride, levels, block


def tile_kinds(a, b, window, stride):
    """Which degenerate tile kinds occur: both flat and equal, both flat and unequal,
    exactly one flat."""
    kinds = set()
    for y, x in oracles.window_origins(a.shape[0], a.shape[1], window, stride):
        ta, tb = a[y : y + window, x : x + window], b[y : y + window, x : x + window]
        fa, fb = np.ptp(ta) == 0, np.ptp(tb) == 0
        if fa and fb:
            kinds.add("equal" if ta[0, 0] == tb[0, 0] else "unequal")
        elif fa or fb:
            kinds.add("one")
    return kinds


def window_statistics(a, grid):
    """Window sum and sum of squares about the window mean of a 2-D array, by
    the window kernel."""
    (_, mean, square), _ = metrics._window_tables(grid, a[None], [((1, 0, 0),)])
    return mean * grid.window**2, square


class TestWindowKernel:
    """The window kernel and the flat flags against the brute-force tile loop."""

    @staticmethod
    def check(a, window, stride):
        grid = metrics._window_origins(*a.shape, window, stride)
        total, square = window_statistics(a, grid)
        np.testing.assert_allclose(
            total, oracles.naive_window_reduce(a, window, stride, np.sum), rtol=0, atol=1e-12)
        np.testing.assert_allclose(
            square, oracles.naive_window_reduce(a, window, stride, lambda t: np.sum(
                np.square(t - t.mean()))), rtol=0, atol=1e-12)
        np.testing.assert_array_equal(
            metrics._moments(RasterBand(a), window, stride).flat[0],
            oracles.naive_window_reduce(a, window, stride, lambda t: np.ptp(t) == 0))

    @settings(max_examples=80, deadline=None)
    @given(case=windowed_inputs(max_side=40))
    def test_matches_brute_force(self, case):
        seed, h, w, window, stride, levels, block = case
        self.check(blocky(np.random.default_rng(seed), (h, w), levels, block) - 0.5,
                   window, stride)

    @pytest.mark.parametrize("h,w,window,stride", [
        (64, 64, 8, 2),  # overlapping
        (64, 48, 8, 8),  # tiling
        (50, 64, 8, 11),  # gapped
        (64, 64, 16, 3),  # stride coprime to the window: blocks of one row
        (64, 96, 28, 4),  # a window of 7 blocks: three set bits
        (28, 96, 28, 4),  # one window down the rows
        (96, 30, 28, 4),  # one window across the columns
    ])
    def test_strides(self, h, w, window, stride):
        self.check(blocky(np.random.default_rng(h * w + stride), (h, w), 2, 5), window, stride)

    def test_signed_zeros_make_a_flat_window(self):
        a = np.random.default_rng(4).uniform(size=(8, 8))
        a[:4, :4] = 0.0
        a[1:4:2, ::3] = -0.0
        self.check(a, 4, 2)
        assert metrics._moments(RasterBand(a), 4, 2).flat[0, 0, 0]


class TestFlatRule:
    """A window is flat when its sum of squares about its mean is zero."""

    @pytest.mark.parametrize("level", [0.9, 1.0])
    @pytest.mark.parametrize("toward", [0.0, 2.0])
    def test_one_float64_step_is_not_flat(self, level, toward):
        a = np.full((8, 8), level)
        a[3, 5] = np.nextafter(level, toward)
        assert not metrics._moments(RasterBand(a), 8, 8).flat.any()

    def test_a_float32_subnormal_step_from_zero_is_not_flat(self):
        a = np.zeros((8, 8))
        a[2, 2] = np.nextafter(np.float32(0.0), np.float32(1.0))  # 1.4e-45
        flat = metrics._moments(RasterBand(a), 4, 2).flat[0]
        np.testing.assert_array_equal(
            flat, oracles.naive_window_reduce(a, 4, 2, lambda t: np.ptp(t) == 0))
        assert not flat[0, 0]

    def test_a_step_whose_square_underflows_is_flat(self):
        # (1e-170)^2 is below the smallest float64, so the window's sum of
        # squares is 0 and it counts as flat at level 0
        a = np.zeros((16, 16))
        a[3, 3] = 1e-170
        assert metrics._moments(RasterBand(a), 8, 8).flat.all()
        cfg = MetricConfig(window=8, stride=8)
        assert uiqi(RasterBand(a), RasterBand(a), cfg) == 1.0
        assert uiqi(RasterBand(a), RasterBand(np.zeros((16, 16))), cfg) == 1.0


class TestWindowedOracles:
    """The vectorised window statistics against the brute-force tile loops."""

    @settings(max_examples=60, deadline=None)
    @given(case=windowed_inputs())
    def test_uiqi(self, case):
        seed, h, w, window, stride, levels, block = case
        rng = np.random.default_rng(seed)
        a, b = blocky(rng, (h, w), levels, block), blocky(rng, (h, w), levels, block)
        fast = uiqi(RasterBand(a), RasterBand(b), MetricConfig(window=window, stride=stride))
        assert abs(fast - oracles.naive_uiqi(a, b, window, stride)) < 1e-10

    @settings(max_examples=40, deadline=None)
    @given(case=windowed_inputs())
    def test_q4(self, case):
        seed, h, w, window, stride, levels, block = case
        rng = np.random.default_rng(seed)
        f, m = blocky(rng, (4, h, w), levels, block), blocky(rng, (4, h, w), levels, block)
        fast = q4(ms_of(f), ms_of(m), MetricConfig(window=window, stride=stride))
        assert abs(fast - oracles.naive_q4(f, m, window, stride)) < 1e-10

    @settings(max_examples=30, deadline=None)
    @given(case=windowed_inputs(max_side=6), k=st.integers(2, 4), r=st.integers(1, 2))
    def test_d_lambda(self, case, k, r):
        seed, h, w, window, stride, levels, block = case
        rng = np.random.default_rng(seed)
        m = blocky(rng, (k, h, w), levels, block)
        f = blocky(rng, (k, h * r, w * r), levels, block * r)
        cfg = MetricConfig(window=window, stride=stride)
        fast = d_lambda(ms_of(m), ms_of(f), cfg)
        assert abs(fast - oracles.naive_d_lambda(m, f, window, stride, 1, r)) < 1e-10

    @settings(max_examples=30, deadline=None)
    @given(case=windowed_inputs(max_side=6), k=st.integers(1, 4), r=st.integers(1, 2))
    def test_d_s(self, case, k, r):
        seed, h, w, window, stride, levels, block = case
        rng = np.random.default_rng(seed)
        m, pan_low = blocky(rng, (k, h, w), levels, block), blocky(rng, (h, w), levels, block)
        f = blocky(rng, (k, h * r, w * r), levels, block * r)
        pan = blocky(rng, (h * r, w * r), levels, block * r)
        cfg = MetricConfig(window=window, stride=stride)
        fast = d_s(ms_of(m), ms_of(f), RasterBand(pan), RasterBand(pan_low), cfg)
        oracle = oracles.naive_d_s(m, f, pan, pan_low, window, stride, 1, r)
        assert abs(fast - oracle) < 1e-10

    @pytest.mark.parametrize("stride", [1, 2, 3, 5])
    def test_every_degenerate_tile_kind(self, stride):
        # 16x16 quadrants, flat in all four bands unless random: both flat and equal,
        # both flat and unequal, exactly one flat, neither flat
        rng = np.random.default_rng(31)
        a = np.empty((4, 16, 16))
        b = np.empty((4, 16, 16))
        level = np.array([0.25, 0.5, 0.75, 1.0])[:, None, None]
        a[:, :8, :8] = b[:, :8, :8] = level
        a[:, :8, 8:], b[:, :8, 8:] = level, 1.0 - level
        a[:, 8:, :8], b[:, 8:, :8] = level, rng.uniform(size=(4, 8, 8))
        a[:, 8:, 8:], b[:, 8:, 8:] = rng.uniform(size=(2, 4, 8, 8))
        cfg = MetricConfig(window=3, stride=stride)
        assert tile_kinds(a[0], b[0], 3, stride) == {"equal", "unequal", "one"}
        fast = uiqi(RasterBand(a[0]), RasterBand(b[0]), cfg)
        assert abs(fast - oracles.naive_uiqi(a[0], b[0], 3, stride)) < 1e-10
        fast = q4(ms_of(a), ms_of(b), cfg)
        assert abs(fast - oracles.naive_q4(a, b, 3, stride)) < 1e-10


def near_flat(seed, shape, level, pixel):
    """Float32 noise, but for a window at ``level`` in its top-right quarter in
    every band, where ``pixel`` is one float32 step below the level."""
    a = np.random.default_rng(seed).uniform(size=shape).astype(np.float32)
    h, w = shape[-2:]
    a[..., : h // 2, w // 2 :] = level
    a[(..., *pixel)] = np.nextafter(np.float32(level), np.float32(0.0))
    return a.astype(np.float64)


class TestNearlyFlatWindows:
    """A window far from the image mean with a spread of one float32 step:
    one-pass sums about the image mean would cancel in it."""

    @pytest.mark.parametrize("level", [1.0, 0.9, 0.7])
    def test_reduced_indices_match_the_oracles(self, level):
        f = near_flat(5, (4, 64, 64), level, (3, 37))
        m = near_flat(6, (4, 64, 64), level, (20, 50))
        cfg = MetricConfig(window=32, stride=32)
        fast = uiqi(RasterBand(f[0]), RasterBand(m[0]), cfg)
        assert abs(fast - oracles.naive_uiqi(f[0], m[0], 32, 32)) < 1e-10
        assert -1.0 <= fast <= 1.0
        fast = q4(ms_of(f), ms_of(m), cfg)
        assert abs(fast - oracles.naive_q4(f, m, 32, 32)) < 1e-10
        assert -1.0 <= fast <= 1.0

    def test_a_few_correct_digits_are_not_enough(self):
        # a spread of 1e-6 about 1.0, in an image of mean about 0.6, leaves the
        # one-pass variance above its bare rounding bound, 2 n eps S2, but with
        # only a few correct digits
        rng = np.random.default_rng(12)
        a, b = rng.uniform(size=(2, 64, 64))
        u = rng.uniform(size=(2, 32, 32))
        a[:32, 32:] = 1.0 + 1e-6 * u[0]
        b[:32, 32:] = 1.0 + 1e-6 * (u[0] + 0.01 * u[1])
        fast = uiqi(RasterBand(a), RasterBand(b), MetricConfig(window=32, stride=32))
        assert abs(fast - oracles.naive_uiqi(a, b, 32, 32)) < 1e-10

    @pytest.mark.parametrize("level", [1.0, 0.7])
    def test_distortions_match_the_oracles(self, level):
        # the fused side is at twice the MS size, so its windows are 32 x 32 too
        m = near_flat(7, (4, 32, 32), level, (5, 20))
        f = near_flat(8, (4, 64, 64), level, (9, 40))
        pan_low = near_flat(9, (32, 32), level, (2, 30))
        pan = near_flat(10, (64, 64), level, (30, 33))
        cfg = MetricConfig(window=16, stride=16)
        fast = d_lambda(ms_of(m), ms_of(f), cfg)
        assert abs(fast - oracles.naive_d_lambda(m, f, 16, 16, 1, 2)) < 1e-10
        assert -1.0 <= fast <= 1.0
        fast = d_s(ms_of(m), ms_of(f), RasterBand(pan), RasterBand(pan_low), cfg)
        assert abs(fast - oracles.naive_d_s(m, f, pan, pan_low, 16, 16, 1, 2)) < 1e-10
        assert -1.0 <= fast <= 1.0


def half_plateau(seed, shape):
    """(fused, reference): the left half of every band of the reference a
    16-bit plateau at 0.9, the right half 0.1 +- 0.05, and the fused image the
    reference with noise of sigma 5e-5, quantised again."""
    rng = np.random.default_rng(seed)
    m = rng.uniform(0.05, 0.15, size=shape)
    m[..., : shape[-1] // 2] = plateau(rng, (*shape[:-1], shape[-1] // 2))
    return np.round((m + 5e-5 * rng.normal(size=shape)) * 65535.0) / 65535.0, m


class TestPlateaus:
    """Half of each band a plateau, as calm water or saturation give: most of
    its windows have a spread about 6,000 times smaller than their mean."""

    # a stride coprime to the window (blocks of one pixel), g = 4, and window = stride
    CONFIGS = [(16, 3), (16, 4), (16, 16)]

    @pytest.mark.parametrize("window, stride", CONFIGS)
    def test_window_moments_match_the_two_pass_oracle(self, window, stride):
        f, m = half_plateau(1, (2, 48, 48))
        oracle = oracles.naive_window_moments(f[0], m[0], window, stride)
        a, b = (metrics._moments(ms_of(x), window, stride) for x in (f, m))
        got = (a.mean[0], a.var[0], b.mean[0], b.var[0], metrics._cross(a, b, [(0, 0)])[0])
        # Chan et al. (1983): the merged sums lose about log2(n) eps kappa,
        # kappa = |mean| / sd, about 6,000 on the plateau; the means a few eps
        eps, spread = np.finfo(float).eps, np.sqrt(oracle[1] * oracle[3])
        kappa = np.maximum(np.abs(oracle[0]) / np.sqrt(oracle[1]),
                           np.abs(oracle[2]) / np.sqrt(oracle[3]))
        bounds = (8 * eps * np.abs(oracle[0]), 64 * eps * kappa * oracle[1],
                  8 * eps * np.abs(oracle[2]), 64 * eps * kappa * oracle[3],
                  64 * eps * kappa * spread)
        for want, have, bound in zip(oracle, got, bounds, strict=True):
            assert (np.abs(have - want) <= bound).all()

    @pytest.mark.parametrize("window, stride", CONFIGS)
    def test_reduced_indices_match_the_oracles(self, window, stride):
        f, m = half_plateau(2, (4, 48, 48))
        cfg = MetricConfig(window=window, stride=stride)
        for a, b in zip(f, m):
            fast = uiqi(RasterBand(a), RasterBand(b), cfg)
            assert abs(fast - oracles.naive_uiqi(a, b, window, stride)) < 1e-10
        fast = q4(ms_of(f), ms_of(m), cfg)
        assert abs(fast - oracles.naive_q4(f, m, window, stride)) < 1e-10

    @pytest.mark.parametrize("window, stride", [(8, 3), (8, 4), (8, 8)])
    def test_distortions_match_the_oracles(self, window, stride):
        # at MS scale; the fused side, at twice the size, has twice the window and stride
        f, _ = half_plateau(3, (4, 48, 48))
        _, m = half_plateau(4, (4, 24, 24))
        pan_low, pan = half_plateau(5, (24, 24))[1], half_plateau(6, (48, 48))[1]
        cfg = MetricConfig(window=window, stride=stride)
        fast = d_lambda(ms_of(m), ms_of(f), cfg)
        assert abs(fast - oracles.naive_d_lambda(m, f, window, stride, 1, 2)) < 1e-10
        fast = d_s(ms_of(m), ms_of(f), RasterBand(pan), RasterBand(pan_low), cfg)
        assert abs(fast - oracles.naive_d_s(m, f, pan, pan_low, window, stride, 1, 2)) < 1e-10


@st.composite
def q4_pairs(draw):
    """(f, m, window, stride, near) of 4-band images over windowed_inputs.
    Where ``near``, the window at the origin is nearly flat in every band of
    both: one float32 step of spread at a level far from the image mean."""
    seed, h, w, window, stride, levels, block = draw(windowed_inputs(max_side=12))
    rng = np.random.default_rng(seed)
    f, m = (blocky(rng, (4, h, w), levels, block) for _ in range(2))
    near = 2 * window * window <= h * w and draw(st.booleans())
    if near:
        level = np.float32(draw(st.sampled_from([1.0, 0.9])))
        for x in (f, m):
            x[:] = rng.uniform(size=x.shape).astype(np.float32)
            x[:, :window, :window] = level
            x[:, draw(st.integers(0, window - 1)), draw(st.integers(0, window - 1))] = (
                np.nextafter(level, np.float32(0.0)))
    return f, m, window, stride, near


class TestQ4Properties:
    """Q4 and UIQI over random shapes, windows and overlapping, tiling or gapped
    strides, nearly flat windows included."""

    @staticmethod
    def cfg_of(window, stride, near, *images):
        cfg = MetricConfig(window=window, stride=stride)
        if near:  # the case holds the nearly flat window it was built for
            for x in images:
                spread = np.ptp(x[:, :window, :window], axis=(1, 2))
                assert ((0.0 < spread) & (spread <= 2.0**-24)).all()
        return cfg

    @settings(max_examples=60, deadline=None)
    @given(case=q4_pairs())
    def test_an_image_against_itself_scores_one(self, case):
        # exact: the covariance of a band with itself is its variance, bit for bit,
        # and Hamilton parts 1-3 cancel term by term
        f, _, window, stride, near = case
        cfg = self.cfg_of(window, stride, near, f)
        assert q4(ms_of(f), ms_of(f), cfg) == 1.0
        for band in f:
            assert uiqi(RasterBand(band), RasterBand(band), cfg) == 1.0

    @settings(max_examples=60, deadline=None)
    @given(case=q4_pairs())
    def test_symmetric(self, case):
        # UIQI exactly; Q4 up to the rounding of the order in which each
        # Hamilton part adds its four products
        f, m, window, stride, near = case
        cfg = self.cfg_of(window, stride, near, f, m)
        assert abs(q4(ms_of(f), ms_of(m), cfg) - q4(ms_of(m), ms_of(f), cfg)) < 1e-12
        for a, b in zip(map(RasterBand, f), map(RasterBand, m)):
            assert uiqi(a, b, cfg) == uiqi(b, a, cfg)

    @settings(max_examples=40, deadline=None)
    @given(case=q4_pairs())
    def test_q4_matches_the_oracle(self, case):
        f, m, window, stride, near = case
        cfg = self.cfg_of(window, stride, near, f, m)
        assert abs(q4(ms_of(f), ms_of(m), cfg) - oracles.naive_q4(f, m, window, stride)) < 1e-10


def plateau(rng, shape, level=0.9):
    """Calm water or saturation in 16-bit imagery: noise of sigma 1.5e-4 about
    ``level``, about 10 DN, quantised to 1/65535."""
    return np.round((level + 1.5e-4 * rng.normal(size=shape)) * 65535.0) / 65535.0


@st.composite
def plateau_inputs(draw, k, max_side=12):
    """(image (k, h, w), window, stride) over windowed_inputs, where drawn with
    a plateau over a rectangle of every band."""
    seed, h, w, window, stride, levels, block = draw(windowed_inputs(max_side))
    rng = np.random.default_rng(seed)
    a = blocky(rng, (k, h, w), levels, block)
    if draw(st.booleans()):
        y0, x0 = draw(st.integers(0, h - 1)), draw(st.integers(0, w - 1))
        y1, x1 = draw(st.integers(y0 + 1, h)), draw(st.integers(x0 + 1, w))
        a[:, y0:y1, x0:x1] = plateau(rng, (k, y1 - y0, x1 - x0))
    return a, window, stride


class TestMetricInvariants:
    """SAM, CC, ERGAS and the inter-band UIQI of D_lambda under the maps that
    must not move them, plateaus among the inputs."""

    EPS = np.finfo(float).eps

    @settings(max_examples=60, deadline=None)
    @given(case=plateau_inputs(k=6), seed=st.integers(0, 2**32 - 1))
    def test_sam_ignores_a_positive_scale_per_pixel(self, case, seed):
        a, _, _ = case
        f, m = a[:3], a[3:]
        s = np.random.default_rng(seed).uniform(0.125, 8.0, size=f.shape[1:])
        # scaling moves cos by a few ulps; near an angle of 0, arccos turns
        # an error d of cos into sqrt(2 d) radians: 8 eps gives 2.4e-6 degrees
        bound = np.degrees(np.sqrt(2 * 8 * self.EPS))
        assert abs(sam_global(ms_of(f * s), ms_of(m)) - sam_global(ms_of(f), ms_of(m))) <= bound

    @settings(max_examples=60, deadline=None)
    @given(case=plateau_inputs(k=6), seed=st.integers(0, 2**32 - 1))
    def test_cc_ignores_a_positive_affine_map_per_band(self, case, seed):
        a, _, _ = case
        f, m = a[:3], a[3:]
        rng = np.random.default_rng(seed)
        gain, offset = rng.uniform(0.25, 4.0, size=(3, 1, 1)), rng.uniform(-1.0, 1.0, size=(3, 1, 1))
        g = gain * f + offset
        assume(all(np.ptp(x) > 0 for x in (*f, *m)))  # CC of a constant band is undefined
        # CC is the cosine of the centred bands, so moving band b by e moves
        # its CC by at most |e| / |b - mean b|: the map rounds each sample by
        # eps |g|, and the sums add a few eps more
        spread = min(np.linalg.norm(x - x.mean()) for x in f) * gain.min()
        bound = 4 * self.EPS * np.sqrt(f[0].size) * np.abs(g).max() / spread + 1e-14
        assert abs(cc(ms_of(g), ms_of(m)) - cc(ms_of(f), ms_of(m))) <= bound

    @settings(max_examples=40, deadline=None)
    @given(case=plateau_inputs(k=3))
    def test_ergas_of_an_image_with_itself_is_zero(self, case):
        a, _, _ = case
        a += 0.05  # every band has a positive mean
        assert ergas(ms_of(a), ms_of(a)) == 0.0

    @settings(max_examples=60, deadline=None)
    @given(case=plateau_inputs(k=4))
    def test_the_inter_band_uiqi_is_symmetric(self, case):
        # _band_pairs scores each unordered pair once for both orders
        a, window, stride = case
        m = metrics._moments(ms_of(a), window, stride)
        pairs = [(i, j) for i in range(4) for j in range(4) if i != j]
        q = dict(zip(pairs, metrics._uiqi_means(m, m, pairs)))
        assert all(q[i, j] == q[j, i] for i, j in pairs)


class TestErgas:
    def test_identical_images(self):
        m = rand_ms(14)
        assert ergas(m, m, MetricConfig()) == 0.0

    def test_scalar_case(self):
        m = ms_of(np.full((1, 4, 4), 0.5))
        f = ms_of(np.full((1, 4, 4), 0.55))
        value = ergas(f, m, MetricConfig(ratio=Fraction(1, 4)))
        assert abs(value - 2.5) < 1e-12

    def test_zero_mean_band_rejected(self):
        m = ms_of(np.zeros((1, 4, 4)))
        with pytest.raises(DegenerateInputError):
            ergas(m, m, MetricConfig())

    def test_matches_oracle(self):
        rng = np.random.default_rng(15)
        f = rng.uniform(0.2, 1.0, size=(4, 8, 8))
        m = rng.uniform(0.2, 1.0, size=(4, 8, 8))
        fast = ergas(ms_of(f), ms_of(m), MetricConfig())
        assert abs(fast - oracles.naive_ergas(f, m, 0.25)) < 1e-10

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), num=st.integers(1, 8), den=st.integers(1, 8))
    def test_scales_linearly_with_ratio(self, seed, num, den):
        rng = np.random.default_rng(seed)
        f = ms_of(rng.uniform(0.2, 1.0, size=(2, 4, 4)))
        m = ms_of(rng.uniform(0.2, 1.0, size=(2, 4, 4)))
        base = ergas(f, m, MetricConfig(ratio=Fraction(1, 1)))
        scaled = ergas(f, m, MetricConfig(ratio=Fraction(num, den)))
        assert abs(scaled - base * num / den) < 1e-9


class TestDistortions:
    def test_d_lambda_zero_on_replicated_upsample(self):
        rng = np.random.default_rng(16)
        m = MultispectralImage(rng.uniform(size=(4, 16, 16)))
        f = MultispectralImage(np.repeat(np.repeat(m.data, 4, axis=1), 4, axis=2))
        cfg = MetricConfig(window=8, stride=8)
        assert d_lambda(m, f, cfg) < 1e-10

    def test_d_lambda_matches_oracle(self):
        rng = np.random.default_rng(17)
        m = rng.uniform(size=(4, 16, 16))
        f = rng.uniform(size=(4, 64, 64))
        cfg = MetricConfig(window=8, stride=8)
        fast = d_lambda(ms_of(m), ms_of(f), cfg)
        assert abs(fast - oracles.naive_d_lambda(m, f, 8, 8, 1, 4)) < 1e-10

    def test_d_lambda_needs_two_bands(self):
        m = ms_of(np.random.default_rng(18).uniform(size=(1, 8, 8)))
        with pytest.raises(InvalidInputError):
            d_lambda(m, m, MetricConfig(window=4, stride=4))

    def test_d_s_ideal_fixture(self):
        rng = np.random.default_rng(19)
        pan = RasterBand(rng.uniform(size=(32, 32)))
        pan_low = mtf_degrade(pan, 4)
        f = ms_of(np.stack([pan.data] * 4))
        m = ms_of(np.stack([pan_low.data] * 4))
        cfg = MetricConfig(window=8, stride=8)
        assert d_s(m, f, pan, pan_low, cfg) == 0.0

    def test_d_s_matches_oracle(self):
        rng = np.random.default_rng(20)
        m = rng.uniform(size=(4, 16, 16))
        f = rng.uniform(size=(4, 64, 64))
        pan = rng.uniform(size=(64, 64))
        pan_low = rng.uniform(size=(16, 16))
        cfg = MetricConfig(window=8, stride=8)
        fast = d_s(ms_of(m), ms_of(f), RasterBand(pan), RasterBand(pan_low), cfg)
        assert abs(fast - oracles.naive_d_s(m, f, pan, pan_low, 8, 8, 1, 4)) < 1e-10

    def test_blur_increases_d_s(self, fixture_scene):
        from panfuse.harness import baseline_fuse
        from panfuse.raster import gaussian_kernel

        def blur(arr, sigma=2.0):
            k = gaussian_kernel(sigma)
            rad = len(k) // 2
            for axis in (0, 1):
                pad = [(0, 0), (0, 0)]
                pad[axis] = (rad, rad)
                ap = np.pad(arr, pad, mode="symmetric")
                out = np.zeros_like(arr)
                for i, kv in enumerate(k):
                    sl = [slice(None), slice(None)]
                    sl[axis] = slice(i, i + arr.shape[axis])
                    out += kv * ap[tuple(sl)]
                arr = out
            return arr

        scene = fixture_scene
        fused = baseline_fuse("cs", scene.ms, scene.pan, scene.ratio)
        pan_low = mtf_degrade(scene.pan, scene.ratio)
        sharp = d_s(scene.ms, fused, scene.pan, pan_low)
        blurred = MultispectralImage(np.stack([blur(b) for b in fused.data]))
        soft = d_s(scene.ms, blurred, scene.pan, pan_low)
        assert soft > sharp
        # frozen regression values from the first verified run on this fixture
        assert sharp == pytest.approx(0.0007796630673132243, rel=1e-6)
        assert soft == pytest.approx(0.022097292423267745, rel=1e-6)


class TestQnr:
    def test_paper_cross_check(self):
        assert qnr(0.04, 0.04) == pytest.approx(0.9216, abs=0)
        assert qnr(0.02, 0.01) == pytest.approx(0.9702, abs=1e-15)
        assert round(qnr(0.04, 0.04), 2) == 0.92
        assert round(qnr(0.02, 0.01), 2) == 0.97

    def test_ideal(self):
        assert qnr(0.0, 0.0) == 1.0

    def test_out_of_range(self):
        with pytest.raises(InvalidInputError):
            qnr(-0.1, 0.0)
        with pytest.raises(InvalidInputError):
            qnr(0.0, 1.5)

    @settings(max_examples=30, deadline=None)
    @given(
        dl=st.floats(0.0, 0.99),
        ds=st.floats(0.0, 0.99),
        bump=st.floats(0.001, 0.01),
    )
    def test_monotone_decreasing(self, dl, ds, bump):
        base = qnr(dl, ds)
        if dl + bump <= 1.0:
            assert qnr(dl + bump, ds) < base
        if ds + bump <= 1.0:
            assert qnr(dl, ds + bump) < base


class TestSharedStatistics:
    """The protocol entry points score with the same window statistics as each metric alone."""

    @pytest.mark.parametrize("window, stride, levels", [(4, 4, 0), (4, 3, 2), (3, 5, 1)])
    def test_evaluate_full_equals_separate_calls(self, window, stride, levels):
        rng = np.random.default_rng(window * 10 + stride)
        m, pan_low = blocky(rng, (4, 8, 12), levels, 2), blocky(rng, (8, 12), levels, 2)
        f, pan = blocky(rng, (4, 32, 48), levels, 8), blocky(rng, (32, 48), levels, 8)
        M, F, P, P_L = ms_of(m), ms_of(f), RasterBand(pan), RasterBand(pan_low)
        cfg = MetricConfig(window=window, stride=stride)
        dl, ds = d_lambda(M, F, cfg), d_s(M, F, P, P_L, cfg)
        report = evaluate_full(F, M, P, P_L, cfg)
        assert report.entries == {"D_lambda": dl, "D_s": ds, "QNR": qnr(dl, ds)}

    @pytest.mark.parametrize("window, stride, levels", [(8, 8, 0), (8, 3, 2), (5, 7, 1)])
    def test_evaluate_reduced_equals_separate_calls(self, window, stride, levels):
        rng = np.random.default_rng(window * 10 + stride + 1)
        f, g = blocky(rng, (4, 24, 20), levels, 4), blocky(rng, (4, 24, 20), levels, 4)
        cfg = MetricConfig(window=window, stride=stride)
        report = evaluate_reduced(ms_of(f), ms_of(g), cfg)
        per_band = [uiqi(RasterBand(a), RasterBand(b), cfg) for a, b in zip(f, g)]
        assert report.entries["UIQI"] == float(np.mean(per_band))
        assert report.entries["Q4"] == q4(ms_of(f), ms_of(g), cfg)


class TestRowBands:
    """The metrics read each image in row bands; the band height moves no window
    statistic, and the bands bound the memory."""

    @staticmethod
    def statistics(a, b, window, stride):
        ma, mb = (metrics._moments(ms_of(x), window, stride) for x in (a, b))
        pairs = [(i, j) for i in range(len(a)) for j in range(len(b))]
        fields = ("offsets", "mean", "var", "flat", "level")
        return [getattr(x, name) for x in (ma, mb) for name in fields] + [
            metrics._cross(ma, mb, pairs)]

    @settings(max_examples=40, deadline=None)
    @given(case=windowed_inputs(max_side=40))
    @example(case=(1, 64, 64, 8, 2, 0, 5))  # overlapping
    @example(case=(2, 64, 48, 8, 8, 2, 5))  # tiling
    @example(case=(3, 50, 64, 8, 11, 0, 5))  # gapped
    @example(case=(4, 64, 64, 16, 3, 2, 5))  # stride coprime to the window: blocks of one row
    @example(case=(5, 64, 96, 28, 4, 1, 5))  # a window of 7 blocks
    def test_one_block_per_band_is_bitwise_the_default(self, case):
        seed, h, w, window, stride, levels, block = case
        rng = np.random.default_rng(seed)
        a, b = blocky(rng, (3, h, w), levels, block) - 0.5, blocky(rng, (4, h, w), levels, block)
        default = self.statistics(a, b, window, stride)  # one band: the whole image
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(raster, "_BAND_ELEMENTS", 1)
            banded = self.statistics(a, b, window, stride)
        for want, got in zip(default, banded, strict=True):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @settings(max_examples=30, deadline=None)
    @given(case=windowed_inputs(max_side=40))
    @example(case=(4, 64, 64, 16, 3, 2, 5))  # blocks of one row: the tables go one at a time
    def test_q4_tables_over_one_block_bands_are_bitwise_the_default(self, case):
        # each row band and each group of tables centres the bands it reads afresh
        seed, h, w, window, stride, levels, block = case
        rng = np.random.default_rng(seed)
        ma, mb = (metrics._moments(ms_of(blocky(rng, (4, h, w), levels, block)), window, stride)
                  for _ in range(2))
        default = metrics._q4_tables(ma, mb)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(raster, "_BAND_ELEMENTS", 1)
            assert metrics._q4_tables(ma, mb).tobytes() == default.tobytes()

    def test_one_block_per_band_keeps_nearly_flat_windows(self, monkeypatch):
        f = near_flat(5, (4, 64, 64), 1.0, (3, 37))
        m = near_flat(6, (4, 64, 64), 0.7, (20, 50))
        default = self.statistics(f, m, 32, 32)
        # the nearly flat window (0, 1) of band 0 agrees with the two-pass oracle
        want = oracles.naive_window_moments(f[0], m[0], 32, 32)
        got = (default[1][0], default[2][0], default[6][0], default[7][0], default[10][0])
        for w, g in zip(want, got, strict=True):
            assert abs(g[0, 1] - w[0, 1]) <= 1e-12 * abs(w[0, 1])
        monkeypatch.setattr(raster, "_BAND_ELEMENTS", 1)
        for want, got in zip(default, self.statistics(f, m, 32, 32), strict=True):
            assert got.tobytes() == want.tobytes()

    def test_cc_and_ergas_over_one_row_bands(self, monkeypatch):
        rng = np.random.default_rng(17)
        f, m = rng.uniform(size=(2, 3, 24, 20))
        monkeypatch.setattr(raster, "_BAND_ELEMENTS", 1)
        assert abs(cc(ms_of(f), ms_of(m)) - np.mean(
            [oracles.naive_cc(a, b) for a, b in zip(f, m)])) < 1e-12
        assert abs(ergas(ms_of(f), ms_of(m)) - oracles.naive_ergas(f, m, 0.25)) < 1e-12

    def test_evaluation_peak_at_512(self):
        # 512^2, window 32 / stride 32.  Before the row bands, CC, ERGAS and the
        # window statistics formed full-size planes, and the peaks were 6.00 MB
        # (reduced) and 4.05 MB (full); with them, 1.75 and 1.15 MB
        rng = np.random.default_rng(5)
        ms = rng.uniform(size=(4, 128, 128))
        up = np.repeat(np.repeat(ms, 4, axis=1), 4, axis=2)
        fused, gt = (ms_of(up + 0.01 * rng.normal(size=up.shape)) for _ in range(2))
        pan = RasterBand(up.mean(0) + 0.01 * rng.normal(size=up.shape[1:]))
        pan_low = mtf_degrade(pan, 4)
        tracemalloc.start()
        try:
            evaluate_reduced(fused, gt)
            _, reduced_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            evaluate_full(fused, ms_of(ms), pan, pan_low)
            _, full_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert reduced_peak < 3.0 * 2**20, f"evaluate_reduced peak {reduced_peak / 2**20:.2f} MB"
        assert full_peak < 2.0 * 2**20, f"evaluate_full peak {full_peak / 2**20:.2f} MB"


class TestReports:
    def test_reduced_identity_is_ideal(self):
        m = rand_ms(21, k=4, h=64, w=64)
        report = evaluate_reduced(m, m)
        assert report.entries["SAM"] == 0.0
        assert report.entries["ERGAS"] == 0.0
        assert abs(report.entries["CC"] - 1.0) < 1e-12
        assert abs(report.entries["UIQI"] - 1.0) < 1e-12
        assert abs(report.entries["Q4"] - 1.0) < 1e-10

    def test_full_ideal_fixture(self):
        rng = np.random.default_rng(22)
        pan = RasterBand(rng.uniform(size=(64, 64)))
        pan_low = mtf_degrade(pan, 4)
        f = ms_of(np.stack([pan.data] * 4))
        m = ms_of(np.stack([pan_low.data] * 4))
        cfg = MetricConfig(window=8, stride=8)
        report = evaluate_full(f, m, pan, pan_low, cfg)
        assert report.entries["D_lambda"] == 0.0
        assert report.entries["D_s"] == 0.0
        assert report.entries["QNR"] == 1.0

    def test_mode_key_enforcement(self):
        with pytest.raises(InvalidInputError):
            QualityReport(mode="reduced", entries={"SAM": 1.0})
        with pytest.raises(InvalidInputError):
            QualityReport(mode="other", entries={})

    def test_kv_round_trip_exact(self):
        m = rand_ms(23, k=4, h=64, w=64)
        f = rand_ms(24, k=4, h=64, w=64)
        report = evaluate_reduced(f, m)
        parsed = QualityReport.parse_kv(report.to_kv())
        assert parsed.mode == report.mode
        assert parsed.entries == report.entries
        assert parsed.config == report.config

    def test_csv_round_trip_stable(self):
        m = rand_ms(25, k=4, h=64, w=64)
        f = rand_ms(26, k=4, h=64, w=64)
        report = evaluate_reduced(f, m)
        text = report.to_csv()
        header, row = text.strip().splitlines()
        assert header.split(",") == list(report.metric_names())
        values = dict(zip(header.split(","), (float(v) for v in row.split(","))))
        rebuilt = QualityReport(mode="reduced", entries=values, config=report.config)
        assert rebuilt.to_csv() == text
