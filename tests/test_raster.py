import struct
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import naive_conv2d_reflect, naive_covariance
from panfuse.errors import (
    DegenerateInputError,
    FormatError,
    InvalidInputError,
)
from panfuse.raster import (
    IntensityWeights,
    InjectionGains,
    MultispectralImage,
    RasterBand,
    _bicubic_axis_taps,
    _bicubic_up,
    detail_inject,
    estimate_gains,
    estimate_weights,
    gaussian_kernel,
    histogram_match,
    intensity_component,
    load_raster,
    mtf_degrade,
    mtf_degrade_ms,
    mtf_sigma,
    save_raster,
    upsample,
    upsample_band,
)


def band(values) -> RasterBand:
    return RasterBand(np.asarray(values, dtype=float))


class TestContainers:
    def test_band_rejects_empty(self):
        with pytest.raises(InvalidInputError):
            RasterBand(np.zeros((0, 4)))

    def test_band_rejects_nan(self):
        with pytest.raises(InvalidInputError):
            band([[0.0, np.nan]])

    def test_band_data_is_read_only(self):
        b = band([[0.1, 0.2]])
        with pytest.raises(ValueError):
            b.data[0, 0] = 1.0

    @pytest.mark.parametrize(
        "data", [np.ones((2, 2)), np.ones((2, 0, 2)), np.array([[[0.5, np.nan]]])]
    )
    def test_ms_rejects_non_stack_empty_and_nan(self, data):
        with pytest.raises(InvalidInputError):
            MultispectralImage(data)

    def test_ms_data_read_only(self):
        ms = MultispectralImage(np.full((2, 2, 2), 0.5))
        assert ms.data.dtype == np.float64
        with pytest.raises(ValueError):
            ms.data[0, 0, 0] = 1.0

    def test_weights_reject_nonfinite(self):
        with pytest.raises(InvalidInputError):
            IntensityWeights(np.array([np.inf]), 0.0)


class TestUpsample:
    @pytest.mark.parametrize("mode", ["replicate", "bicubic"])
    def test_ratio_one_is_identity(self, mode):
        ms = MultispectralImage(np.array([[[0.1, 0.9], [0.4, 0.3]]]))
        out = upsample(ms, 1, mode)
        np.testing.assert_array_equal(out.data, ms.data)

    def test_replicate_blocks(self):
        a, b, c, d = 0.1, 0.5, 0.7, 0.2
        out = upsample_band(band([[a, b], [c, d]]), 2, "replicate")
        expected = np.array(
            [[a, a, b, b], [a, a, b, b], [c, c, d, d], [c, c, d, d]]
        )
        np.testing.assert_array_equal(out.data, expected)

    def test_bicubic_constant(self):
        out = upsample_band(band(np.full((2, 2), 0.5)), 4, "bicubic")
        assert out.data.shape == (8, 8)
        np.testing.assert_allclose(out.data, 0.5, atol=1e-12)

    def test_unknown_mode(self):
        with pytest.raises(InvalidInputError):
            upsample_band(band([[0.0, 1.0]]), 2, "nearest")

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 4), st.integers(0, 2**32 - 1))
    def test_replicate_then_block_average_is_identity(self, r, seed):
        rng = np.random.default_rng(seed)
        a = rng.uniform(0.0, 1.0, size=(5, 3))
        up = upsample_band(band(a), r, "replicate").data
        down = up.reshape(5, r, 3, r).mean(axis=(1, 3))
        np.testing.assert_allclose(down, a, rtol=0, atol=1e-15)

    # the examples: the whole grid, the top-right pixel, the bottom-left
    # pixel, and a window on the top and right edges
    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 9), st.integers(1, 9), st.integers(2, 5),
        st.tuples(st.floats(0, 1), st.floats(0, 1)),
        st.tuples(st.floats(0, 1), st.floats(0, 1)),
        st.integers(0, 2**32 - 1),
    )
    @example(5, 7, 4, (0.0, 1.0), (0.0, 1.0), 0)
    @example(5, 7, 4, (0.0, 0.0), (1.0, 1.0), 1)
    @example(1, 1, 2, (1.0, 1.0), (0.0, 0.0), 2)
    @example(6, 3, 3, (0.0, 0.4), (0.6, 1.0), 3)
    def test_bicubic_window_is_the_crop_bitwise(self, h, w, r, rows_at, cols_at, seed):
        a = np.random.default_rng(seed).uniform(0.0, 1.0, size=(3, h, w))

        def window(at, n):
            # a non-empty [start, stop) of n output pixels from two fractions
            start = min(int(min(at) * n), n - 1)
            return slice(start, max(start + 1, int(max(at) * n)))

        rows, cols = window(rows_at, h * r), window(cols_at, w * r)
        whole = upsample(MultispectralImage(a), r, "bicubic").data
        # one band, and the stack of all three bands in one call
        for got, want in ((_bicubic_up(a[0], r, rows, cols), whole[0, rows, cols]),
                          (_bicubic_up(a, r, rows, cols), whole[:, rows, cols])):
            assert got.shape == want.shape
            assert got.tobytes() == np.ascontiguousarray(want).tobytes()


def bicubic_by_sums(a: np.ndarray, r: int) -> np.ndarray:
    """Bicubic upsample of one band as two passes of four-tap sums, the
    arithmetic order of raster._bicubic_up."""
    idx, w = _bicubic_axis_taps(a.shape[0], r)
    cidx, cw = _bicubic_axis_taps(a.shape[1], r)
    rows = sum(a[idx[k], :] * w[k][:, None] for k in range(4))
    return sum(rows[:, cidx[k]] * cw[k] for k in range(4))


class TestStackOps:
    """The (K, H, W) operations fill one stack; each band of it is bitwise the
    band-by-band result."""

    def test_equal_band_by_band_bitwise(self):
        rng = np.random.default_rng(31)
        data = rng.uniform(0.0, 1.0, size=(3, 8, 12))
        data[1, :4] = 0.0  # zeros times negative taps give -0.0 terms
        ms = MultispectralImage(data)
        bands = [RasterBand(b) for b in ms.data]

        def assert_stack(got, want):
            # tobytes, so that a -0.0 against a +0.0 counts as a difference
            assert got.data.tobytes() == np.stack([w.data for w in want]).tobytes()

        for mode in ("bicubic", "replicate"):
            assert_stack(upsample(ms, 4, mode), [upsample_band(b, 4, mode) for b in bands])
        assert_stack(upsample(ms, 4), [band(bicubic_by_sums(b, 4)) for b in ms.data])
        assert_stack(mtf_degrade_ms(ms, 4), [mtf_degrade(b, 4) for b in bands])
        ms_up = upsample(ms, 4)
        pan = band(rng.uniform(size=(32, 48)))
        weights = IntensityWeights(np.full(3, 1 / 3), 0.0)
        gains = InjectionGains(np.array([1.5, -2.0, 0.5]))
        detail = pan.data - intensity_component(ms_up, weights).data
        assert_stack(
            detail_inject(ms_up, pan, gains, weights),
            [band(np.clip(b + g * detail, 0.0, 1.0)) for g, b in zip(gains.gains, ms_up.data)],
        )

    def test_upsample_peak_is_the_result_and_three_bands(self):
        # 4 x 256^2 by 4: the result is 32 MB and one output band 8 MB; a
        # whole-stack expression would hold several stacks at once
        ms = MultispectralImage(np.random.default_rng(32).uniform(size=(4, 256, 256)))
        tracemalloc.start()
        try:
            out = upsample(ms, 4)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        band_bytes = out.data[0].nbytes
        assert peak <= out.data.nbytes + 3 * band_bytes, f"peak {peak / 2**20:.1f} MB"


class TestMtfDegrade:
    def test_constant_preserved(self):
        out = mtf_degrade(band(np.full((8, 8), 0.37)), 4)
        assert out.data.shape == (2, 2)
        np.testing.assert_allclose(out.data, 0.37, atol=1e-12)

    def test_ratio_one_keeps_dims(self):
        out = mtf_degrade(band(np.eye(6) * 0.5 + 0.1), 1, nyquist_gain=0.3)
        assert out.data.shape == (6, 6)

    def test_impulse_matches_direct_convolution(self):
        a = np.zeros((17, 17))
        a[8, 8] = 1.0
        out = mtf_degrade(band(a), 1, nyquist_gain=0.3)
        k1 = gaussian_kernel(mtf_sigma(1, 0.3))
        oracle = naive_conv2d_reflect(a, np.outer(k1, k1))
        assert np.max(np.abs(out.data - oracle)) < 1e-10

    def test_indivisible_dims_rejected(self):
        with pytest.raises(InvalidInputError):
            mtf_degrade(band(np.zeros((5, 8))), 4)

    def test_bad_gain_rejected(self):
        with pytest.raises(InvalidInputError):
            mtf_degrade(band(np.zeros((8, 8))), 4, nyquist_gain=1.0)


class TestHistogramMatch:
    def test_match_to_self_is_identity(self):
        rng = np.random.default_rng(0)
        b = band(rng.uniform(size=(6, 6)))
        out = histogram_match(b, b)
        np.testing.assert_allclose(out.data, b.data, atol=1e-12)

    def test_two_level_mapping(self):
        src = band([[0.0, 1.0], [0.0, 1.0]])
        ref = band([[2.0, 4.0], [2.0, 4.0]])
        out = histogram_match(src, ref)
        np.testing.assert_allclose(sorted(set(out.data.ravel())), [2.0, 4.0], atol=1e-12)

    def test_constant_source(self):
        out = histogram_match(band(np.full((3, 3), 0.2)), band([[1.0, 3.0]]))
        np.testing.assert_allclose(out.data, 2.0, atol=1e-12)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_moments_match_reference(self, seed):
        rng = np.random.default_rng(seed)
        src = band(rng.uniform(size=(5, 7)))
        ref = band(rng.uniform(size=(4, 4)) * 2.0)
        out = histogram_match(src, ref)
        assert abs(out.data.mean() - ref.data.mean()) < 1e-10
        assert abs(out.data.std(ddof=1) - ref.data.std(ddof=1)) < 1e-10


class TestIntensity:
    def test_one_hot_selects_band(self):
        rng = np.random.default_rng(1)
        ms = MultispectralImage(rng.uniform(size=(3, 4, 4)))
        out = intensity_component(ms, IntensityWeights(np.array([0.0, 1.0, 0.0]), 0.0))
        np.testing.assert_array_equal(out.data, ms.data[1])

    def test_uniform_weights_average(self):
        rng = np.random.default_rng(2)
        arr = rng.uniform(size=(4, 3, 3))
        ms = MultispectralImage(arr)
        out = intensity_component(ms, IntensityWeights(np.full(4, 0.25), 0.0))
        np.testing.assert_allclose(out.data, arr.mean(axis=0), atol=1e-12)

    def test_scalar_case(self):
        ms = MultispectralImage(
            np.stack([np.full((2, 2), 0.2), np.full((2, 2), 0.6)])
        )
        out = intensity_component(ms, IntensityWeights(np.array([0.5, 0.5]), 0.1))
        np.testing.assert_allclose(out.data, 0.5, atol=1e-12)

    def test_weight_count_mismatch(self):
        ms = MultispectralImage(np.zeros((2, 2, 2)))
        with pytest.raises(InvalidInputError):
            intensity_component(ms, IntensityWeights(np.array([1.0]), 0.0))


class TestEstimation:
    def test_recovers_known_weights(self):
        rng = np.random.default_rng(3)
        b1 = rng.uniform(size=(16, 16))
        b2 = rng.uniform(size=(16, 16))
        ms = MultispectralImage(np.stack([b1, b2]))
        pan = band(0.3 * b1 + 0.7 * b2)
        w = estimate_weights(ms, pan)
        np.testing.assert_allclose(w.weights, [0.3, 0.7], atol=1e-6)
        assert abs(w.bias) < 1e-6
        fit = intensity_component(ms, w)
        rms = np.sqrt(np.mean((fit.data - pan.data) ** 2))
        assert rms < 1e-6

    def test_single_band_exact_fit(self):
        rng = np.random.default_rng(4)
        b1 = rng.uniform(size=(8, 8))
        ms = MultispectralImage(b1[None])
        w = estimate_weights(ms, band(b1))
        np.testing.assert_allclose(w.weights, [1.0], atol=1e-6)
        assert abs(w.bias) < 1e-6

    def test_constant_pan_gives_intercept(self):
        rng = np.random.default_rng(5)
        zero_mean = rng.uniform(size=(2, 10, 10))
        zero_mean -= zero_mean.mean(axis=(1, 2), keepdims=True)
        ms = MultispectralImage(zero_mean)
        w = estimate_weights(ms, band(np.full((10, 10), 0.4)))
        np.testing.assert_allclose(w.weights, [0.0, 0.0], atol=1e-6)
        assert abs(w.bias - 0.4) < 1e-6

    def test_gains_self_covariance(self):
        rng = np.random.default_rng(6)
        i = rng.uniform(size=(8, 8))
        ms = MultispectralImage(np.stack([i, i, i]))
        g = estimate_gains(ms, band(i))
        np.testing.assert_allclose(g.gains, 1.0, atol=1e-12)

    def test_gains_scale_linearly(self):
        rng = np.random.default_rng(7)
        i = rng.uniform(size=(8, 8))
        ms = MultispectralImage((2.0 * i)[None])
        g = estimate_gains(ms, band(i))
        np.testing.assert_allclose(g.gains, 2.0, atol=1e-12)

    def test_gains_match_covariance_oracle(self):
        rng = np.random.default_rng(8)
        arr = rng.uniform(size=(3, 8, 8))
        intensity = rng.uniform(size=(8, 8))
        g = estimate_gains(MultispectralImage(arr), band(intensity))
        var_i = naive_covariance(intensity, intensity)
        for k in range(3):
            expected = naive_covariance(arr[k], intensity) / var_i
            assert abs(g.gains[k] - expected) < 1e-10

    def test_gains_degenerate_intensity(self):
        ms = MultispectralImage(np.random.default_rng(9).uniform(size=(2, 4, 4)))
        with pytest.raises(DegenerateInputError):
            estimate_gains(ms, band(np.full((4, 4), 0.5)))


class TestDetailInject:
    def test_zero_gains_identity(self):
        rng = np.random.default_rng(10)
        ms = MultispectralImage(rng.uniform(0.1, 0.9, size=(3, 4, 4)))
        pan = band(rng.uniform(size=(4, 4)))
        w = IntensityWeights(np.full(3, 1 / 3), 0.0)
        fused = detail_inject(ms, pan, InjectionGains(np.zeros(3)), w)
        np.testing.assert_array_equal(fused.data, ms.data)

    def test_pan_equal_intensity_identity(self):
        rng = np.random.default_rng(11)
        ms = MultispectralImage(rng.uniform(0.1, 0.9, size=(2, 4, 4)))
        w = IntensityWeights(np.array([0.5, 0.5]), 0.0)
        pan = intensity_component(ms, w)
        fused = detail_inject(ms, pan, InjectionGains(np.ones(2)), w)
        np.testing.assert_array_equal(fused.data, ms.data)

    def test_single_pixel_arithmetic(self):
        ms = MultispectralImage(np.full((1, 1, 1), 0.4))
        # intensity = 0.6 via bias, pan = 0.9, g = 1 -> 0.4 + (0.9 - 0.6) = 0.7
        w = IntensityWeights(np.array([0.0]), 0.6)
        fused = detail_inject(ms, band([[0.9]]), InjectionGains(np.array([1.0])), w)
        assert abs(fused.data[0, 0, 0] - 0.7) < 1e-12

    def test_output_clamped(self):
        ms = MultispectralImage(np.full((1, 2, 2), 0.9))
        w = IntensityWeights(np.array([0.0]), 0.0)
        fused = detail_inject(ms, band(np.full((2, 2), 5.0)), InjectionGains(np.array([1.0])), w)
        assert fused.data.max() <= 1.0


def png_chunk(ctype: bytes, data: bytes) -> bytes:
    """One PNG chunk: length, type, data, CRC."""
    return (
        struct.pack(">I", len(data))
        + ctype
        + data
        + struct.pack(">I", zlib.crc32(ctype + data) & 0xFFFFFFFF)
    )


def make_gray_png(arr: np.ndarray, depth: int) -> bytes:
    """Assemble a minimal grayscale PNG (filter 0 rows) for ingestion tests."""
    h, w = arr.shape
    if depth == 8:
        payload_rows = [b"\x00" + arr.astype(">u1")[y].tobytes() for y in range(h)]
    else:
        payload_rows = [b"\x00" + arr.astype(">u2")[y].tobytes() for y in range(h)]
    idat = zlib.compress(b"".join(payload_rows))
    ihdr = struct.pack(">IIBBBBB", w, h, depth, 0, 0, 0, 0)
    return (
        b"\x89PNG\r\n\x1a\n"
        + png_chunk(b"IHDR", ihdr)
        + png_chunk(b"IDAT", idat)
        + png_chunk(b"IEND", b"")
    )


class TestIO:
    def test_pfr_round_trip_band(self, tmp_path):
        rng = np.random.default_rng(12)
        data = rng.uniform(size=(5, 7)).astype(np.float32).astype(np.float64)
        path = tmp_path / "band.pfr"
        save_raster(RasterBand(data), path)
        loaded = load_raster(path)
        assert isinstance(loaded, RasterBand)
        np.testing.assert_array_equal(loaded.data, data)

    def test_pfr_round_trip_ms_bytes(self, tmp_path):
        rng = np.random.default_rng(13)
        ms = MultispectralImage(
            rng.uniform(size=(3, 4, 6)).astype(np.float32).astype(np.float64)
        )
        p1 = tmp_path / "a.pfr"
        p2 = tmp_path / "b.pfr"
        save_raster(ms, p1)
        save_raster(load_raster(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_pfr_round_trip_property(self, tmp_path_factory, seed):
        rng = np.random.default_rng(seed)
        data = rng.uniform(-2.0, 2.0, size=(3, 3)).astype(np.float32).astype(np.float64)
        path = tmp_path_factory.mktemp("pfr") / "x.pfr"
        save_raster(RasterBand(data), path)
        np.testing.assert_array_equal(load_raster(path).data, data)

    def test_pfr_bad_magic(self, tmp_path):
        path = tmp_path / "bad.pfr"
        path.write_bytes(b"NOPE" + b"\x00" * 20)
        with pytest.raises(FormatError, match="magic"):
            load_raster(path)

    def test_pfr_truncated_names_lengths(self, tmp_path):
        path = tmp_path / "trunc.pfr"
        header = struct.pack("<4sIII", b"PFR1", 4, 4, 1)
        path.write_bytes(header + b"\x00" * 8)  # payload should be 64 bytes
        with pytest.raises(FormatError, match=r"expected 80 bytes, got 24"):
            load_raster(path)

    def test_pfr_dimension_overflow(self, tmp_path):
        path = tmp_path / "huge.pfr"
        path.write_bytes(struct.pack("<4sIII", b"PFR1", 2**31, 2**31, 4))
        with pytest.raises(FormatError, match="overflow"):
            load_raster(path)

    def test_png_16bit_normalization(self, tmp_path):
        arr = np.array([[0, 65535], [32768, 1]], dtype=np.uint16)
        path = tmp_path / "img.png"
        path.write_bytes(make_gray_png(arr, 16))
        loaded = load_raster(path)
        assert loaded.data[0, 1] == 1.0
        assert loaded.data[0, 0] == 0.0
        assert abs(loaded.data[1, 0] - 32768 / 65535) < 1e-12

    def test_png_8bit(self, tmp_path):
        arr = np.array([[0, 255, 128]], dtype=np.uint8)
        path = tmp_path / "img8.png"
        path.write_bytes(make_gray_png(arr, 8))
        loaded = load_raster(path)
        np.testing.assert_allclose(loaded.data, [[0.0, 1.0, 128 / 255]], atol=1e-12)

    def test_png_rejects_color(self, tmp_path):
        ihdr = struct.pack(">IIBBBBB", 2, 2, 8, 2, 0, 0, 0)
        blob = b"\x89PNG\r\n\x1a\n" + png_chunk(b"IHDR", ihdr) + png_chunk(b"IEND", b"")
        path = tmp_path / "rgb.png"
        path.write_bytes(blob)
        with pytest.raises(FormatError, match="grayscale"):
            load_raster(path)

    def test_png_ihdr_wrong_length(self, tmp_path):
        ihdr = struct.pack(">IIBBBB", 2, 2, 8, 0, 0, 0)  # 12 bytes, interlace missing
        blob = b"\x89PNG\r\n\x1a\n" + png_chunk(b"IHDR", ihdr) + png_chunk(b"IEND", b"")
        path = tmp_path / "short_ihdr.png"
        path.write_bytes(blob)
        with pytest.raises(FormatError, match="IHDR at byte 8 has 12 bytes, expected 13"):
            load_raster(path)

    def test_png_idat_inflating_past_ihdr_size(self, tmp_path):
        # a 2x2 8-bit image holds 2 * (1 + 2) = 6 filtered bytes; this inflates to 1 MB
        ihdr = struct.pack(">IIBBBBB", 2, 2, 8, 0, 0, 0, 0)
        blob = (
            b"\x89PNG\r\n\x1a\n"
            + png_chunk(b"IHDR", ihdr)
            + png_chunk(b"IDAT", zlib.compress(b"\x00" * 2**20))
            + png_chunk(b"IEND", b"")
        )
        path = tmp_path / "bomb.png"
        path.write_bytes(blob)
        with pytest.raises(FormatError, match="from byte 33 inflates past the 6 bytes"):
            load_raster(path)
