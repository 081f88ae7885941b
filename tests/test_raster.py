import os
import struct
import subprocess
import sys
import tracemalloc
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import naive_conv2d_reflect, naive_covariance, naive_png_unfilter
from panfuse import raster
from panfuse.errors import (
    DegenerateInputError,
    FormatError,
    InvalidInputError,
    NumericalError,
)
from panfuse.harness import baseline_fuse
from panfuse.raster import (
    IntensityWeights,
    InjectionGains,
    MultispectralImage,
    RasterBand,
    _bicubic_axis_taps,
    _bicubic_up,
    _png_unfilter,
    csv_format,
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
    parse_csv_table,
    row_bands,
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

    @pytest.mark.parametrize("cls,shape", [(RasterBand, (3, 4)), (MultispectralImage, (2, 3, 4))])
    def test_float64_is_frozen_in_place_and_other_dtypes_copied(self, cls, shape):
        data = np.full(shape, 0.5)
        assert cls(data).data is data
        assert not data.flags.writeable
        data = np.full(shape, 0.5, dtype=np.float32)
        assert not np.shares_memory(cls(data).data, data)
        assert data.flags.writeable

    def test_weights_reject_nonfinite(self):
        with pytest.raises(InvalidInputError):
            IntensityWeights(np.array([np.inf]), 0.0)


class TestUpsample:
    def test_ratio_one_is_identity(self):
        ms = MultispectralImage(np.array([[[0.1, 0.9], [0.4, 0.3]]]))
        out = upsample(ms, 1)
        np.testing.assert_array_equal(out.data, ms.data)

    def test_bicubic_constant(self):
        out = upsample_band(band(np.full((2, 2), 0.5)), 4)
        assert out.data.shape == (8, 8)
        np.testing.assert_allclose(out.data, 0.5, atol=1e-12)

    # the examples: the whole grid, the top row, the bottom row, and a window
    # on the top edge
    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 9), st.integers(1, 9), st.integers(2, 5),
        st.tuples(st.floats(0, 1), st.floats(0, 1)),
        st.integers(0, 2**32 - 1),
    )
    @example(5, 7, 4, (0.0, 1.0), 0)
    @example(5, 7, 4, (0.0, 0.0), 1)
    @example(1, 1, 2, (1.0, 1.0), 2)
    @example(6, 3, 3, (0.0, 0.4), 3)
    def test_bicubic_window_is_the_crop_bitwise(self, h, w, r, rows_at, seed):
        a = np.random.default_rng(seed).uniform(0.0, 1.0, size=(3, h, w))
        # a non-empty [start, stop) of the h * r output rows from two fractions
        start = min(int(min(rows_at) * h * r), h * r - 1)
        rows = slice(start, max(start + 1, int(max(rows_at) * h * r)))
        whole = upsample(MultispectralImage(a), r).data
        # one band, and the stack of all three bands in one call
        for got, want in ((_bicubic_up(a[0], r, rows), whole[0, rows]),
                          (_bicubic_up(a, r, rows), whole[:, rows])):
            assert got.shape == want.shape
            assert got.tobytes() == np.ascontiguousarray(want).tobytes()


def bicubic_by_sums(a: np.ndarray, r: int) -> np.ndarray:
    """Bicubic upsample of one band as two passes of four-tap sums, the
    arithmetic order of raster._bicubic_up."""
    idx, w = _bicubic_axis_taps(a.shape[0], r)
    cidx, cw = _bicubic_axis_taps(a.shape[1], r)
    rows = sum(a[idx[k], :] * w[k][:, None] for k in range(4))
    return sum(rows[:, cidx[k]] * cw[k] for k in range(4))


class TestRowBands:
    def test_default_budget(self):
        # 64 rows at 1024 wide, and SAM's four buffers of 256 wide share it in
        # 64-row bands
        assert row_bands(1024, 1024)[:2] == [slice(0, 64), slice(64, 128)]
        assert row_bands(256, 4 * 256)[0] == slice(0, 64)

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 300), st.integers(1, 300), st.integers(1, 40),
        st.one_of(st.just(raster._BAND_ELEMENTS), st.integers(1, 2**14)),
    )
    @example(7, 5, 3, 1)  # bands of one 3-row block, the last of 1 row
    def test_bands_cover_the_rows_in_whole_units_within_the_budget(
        self, height, width, unit, budget
    ):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(raster, "_BAND_ELEMENTS", budget)
            bands = row_bands(height, width, unit)
        # contiguous, non-empty and so disjoint, and covering [0, height)
        assert [b.start for b in bands] == [0] + [b.stop for b in bands[:-1]]
        assert bands[-1].stop == height
        sizes = [b.stop - b.start for b in bands]
        assert min(sizes) > 0 and max(sizes) * width <= max(budget, unit * width)
        assert all(b.start % unit == 0 for b in bands)
        if height % unit == 0:
            assert all(n % unit == 0 for n in sizes)


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

        assert_stack(upsample(ms, 4), [upsample_band(b, 4) for b in bands])
        assert_stack(upsample(ms, 4), [band(bicubic_by_sums(b, 4)) for b in ms.data])
        assert_stack(mtf_degrade_ms(ms, 4), [mtf_degrade(b, 4) for b in bands])
        ms_up = upsample(ms, 4)
        pan = band(rng.uniform(size=(32, 48)))
        weights = IntensityWeights(np.full(3, 1 / 3), 0.0)
        gains = InjectionGains(np.array([1.5, -2.0, 0.5]))
        intensity = intensity_component(ms_up, weights)
        detail = pan.data - intensity.data
        assert_stack(
            detail_inject(ms_up, pan, gains, intensity),
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
        out = mtf_degrade(band(np.eye(6) * 0.5 + 0.1), 1)
        assert out.data.shape == (6, 6)

    def test_impulse_matches_direct_convolution(self):
        a = np.zeros((17, 17))
        a[8, 8] = 1.0
        out = mtf_degrade(band(a), 1)
        k1 = gaussian_kernel(mtf_sigma(1))
        oracle = naive_conv2d_reflect(a, np.outer(k1, k1))
        assert np.max(np.abs(out.data - oracle)) < 1e-10

    @pytest.mark.parametrize("r", [2, 3, 4])
    @pytest.mark.parametrize("shape", [(12, 12), (12, 24), (24, 12)])
    def test_decimated_filter_matches_blur_then_block_mean(self, r, shape):
        a = np.random.default_rng(40 + r).uniform(size=shape)
        out = mtf_degrade(band(a), r)
        k = gaussian_kernel(mtf_sigma(r))
        blurred = naive_conv2d_reflect(a, np.outer(k, k))
        oracle = blurred.reshape(shape[0] // r, r, shape[1] // r, r).mean(axis=(1, 3))
        assert out.data.shape == oracle.shape
        assert np.max(np.abs(out.data - oracle)) < 1e-12

    def test_indivisible_dims_rejected(self):
        with pytest.raises(InvalidInputError):
            mtf_degrade(band(np.zeros((5, 8))), 4)


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

    def test_gains_do_not_depend_on_blas_threads(self):
        # a BLAS dot may split a long sum across its threads, which moves its
        # last bits; on a single core it runs one thread, so there this passes
        # whatever the sum
        src = str(Path(raster.__file__).resolve().parent.parent)
        script = (
            "from panfuse import harness, raster as r\n"
            "s = harness.synth_scene(7, 256, 256)\n"
            "up = r.upsample(s.ms, s.ratio)\n"
            "lows = (r.intensity_component(up, r.estimate_weights(up, s.pan)),\n"
            "        r.upsample_band(r.mtf_degrade(s.pan, s.ratio), s.ratio))\n"
            "print([float(g).hex() for low in lows for g in r.estimate_gains(up, low).gains])\n"
        )
        gains = []
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
                   "MKL_NUM_THREADS": threads,
                   "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
            proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                                  env=env, timeout=120, check=True)
            gains.append(proc.stdout)
        assert gains[0].count("0x") == 8
        assert gains[0] == gains[1]


class TestDetailInject:
    def test_zero_gains_identity(self):
        rng = np.random.default_rng(10)
        ms = MultispectralImage(rng.uniform(0.1, 0.9, size=(3, 4, 4)))
        pan = band(rng.uniform(size=(4, 4)))
        low = intensity_component(ms, IntensityWeights(np.full(3, 1 / 3), 0.0))
        fused = detail_inject(ms, pan, InjectionGains(np.zeros(3)), low)
        np.testing.assert_array_equal(fused.data, ms.data)

    def test_pan_equal_intensity_identity(self):
        rng = np.random.default_rng(11)
        ms = MultispectralImage(rng.uniform(0.1, 0.9, size=(2, 4, 4)))
        pan = intensity_component(ms, IntensityWeights(np.array([0.5, 0.5]), 0.0))
        fused = detail_inject(ms, pan, InjectionGains(np.ones(2)), pan)
        np.testing.assert_array_equal(fused.data, ms.data)

    def test_single_pixel_arithmetic(self):
        ms = MultispectralImage(np.full((1, 1, 1), 0.4))
        # low = 0.6, pan = 0.9, g = 1 -> 0.4 + (0.9 - 0.6) = 0.7
        fused = detail_inject(ms, band([[0.9]]), InjectionGains(np.array([1.0])), band([[0.6]]))
        assert abs(fused.data[0, 0, 0] - 0.7) < 1e-12

    def test_output_clamped(self):
        ms = MultispectralImage(np.full((1, 2, 2), 0.9))
        fused = detail_inject(ms, band(np.full((2, 2), 5.0)), InjectionGains(np.array([1.0])),
                              band(np.zeros((2, 2))))
        assert fused.data.max() <= 1.0

    def test_glp_path_bitwise(self):
        rng = np.random.default_rng(13)
        ms = MultispectralImage(rng.uniform(0.1, 0.9, size=(3, 4, 4)))
        pan = band(rng.uniform(size=(16, 16)))
        ms_up = upsample(ms, 4)
        pan_low = upsample_band(mtf_degrade(pan, 4), 4)
        gains = estimate_gains(ms_up, pan_low)
        want = np.stack([np.clip(b + g * (pan.data - pan_low.data), 0.0, 1.0)
                         for g, b in zip(gains.gains, ms_up.data)])
        got = detail_inject(ms_up, pan, gains, pan_low).data
        assert got.tobytes() == want.tobytes()
        assert got.tobytes() == baseline_fuse("glp", ms, pan, 4).data.tobytes()

    def test_mismatched_low_rejected(self):
        ms = MultispectralImage(np.full((1, 2, 2), 0.5))
        with pytest.raises(InvalidInputError):
            detail_inject(ms, band(np.ones((2, 2))), InjectionGains(np.array([1.0])),
                          band(np.ones((2, 3))))


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
        with pytest.raises(FormatError, match=r"payload at byte 16: truncated, expected 64 bytes, 8 left"):
            load_raster(path)

    def test_pfr_signalling_nan_is_a_format_error(self, tmp_path):
        # a 2x1 band whose first sample is the signalling NaN 0x7F800001
        path = tmp_path / "snan.pfr"
        path.write_bytes(struct.pack("<4sIII2I", b"PFR1", 2, 1, 1, 0x7F800001, 0x3F800000))
        with pytest.raises(FormatError, match="non-finite samples"):
            load_raster(path)

    def test_pfr_non_finite_sample_names_its_offset(self, tmp_path):
        data = np.zeros((2, 3, 4), dtype="<f4")
        data[1, 2, 1] = data[1, 2, 3] = np.nan  # samples 21 and 23
        path = tmp_path / "nan.pfr"
        path.write_bytes(struct.pack("<4sIII", b"PFR1", 4, 3, 2) + data.tobytes())
        match = r"payload at byte 100: non-finite samples, the first in band 1, row 2, column 1"
        with pytest.raises(FormatError, match=match):
            load_raster(path)

    @settings(max_examples=150, deadline=None)
    @given(shape=st.tuples(*[st.integers(1, 3)] * 3), seed=st.integers(0, 2**32 - 1),
           data=st.data())
    def test_every_pfr_byte_flip_loads_or_names_its_offset(self, tmp_path_factory,
                                                             flip_loads_or_fails, shape, seed,
                                                             data):
        path = tmp_path_factory.mktemp("pfr") / "valid.pfr"
        arr = np.random.default_rng(seed).uniform(-2.0, 2.0, size=shape)
        save_raster(MultispectralImage(arr) if shape[0] > 1 else RasterBand(arr[0]), path)
        blob = path.read_bytes()
        at = data.draw(st.integers(0, len(blob) - 1), label="at")
        flip_loads_or_fails("flip.pfr", blob, load_raster, at, data.draw(st.integers(1, 255)))

    def test_every_pfr_prefix_names_its_offset(self, tmp_path, every_prefix_fails):
        path = tmp_path / "whole.pfr"
        save_raster(MultispectralImage(np.linspace(0.0, 1.0, 12).reshape(2, 2, 3)), path)
        every_prefix_fails("cut.pfr", path.read_bytes(), load_raster)

    @pytest.mark.parametrize("value", [1e39, -1e39])
    def test_pfr_sample_beyond_float32_range_writes_nothing(self, tmp_path, value):
        data = np.full((3, 2, 2), 0.5)
        data[1, 1, 0] = value
        path = tmp_path / "big.pfr"
        with pytest.raises(NumericalError, match="band 1 "):
            save_raster(MultispectralImage(data.copy()), path)
        assert not path.exists()
        # the largest float32 itself still round-trips
        data[1, 1, 0] = np.sign(value) * float(np.finfo(np.float32).max)
        save_raster(MultispectralImage(data.copy()), path)
        assert load_raster(path).data.tobytes() == data.tobytes()

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
        with pytest.raises(FormatError, match="IHDR at byte 8: has 12 bytes, expected 13"):
            load_raster(path)

    @settings(max_examples=150, deadline=None)
    @given(depth=st.sampled_from([8, 16]), shape=st.tuples(*[st.integers(1, 4)] * 2),
           seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_every_png_byte_flip_loads_or_names_its_offset(self, flip_loads_or_fails, depth,
                                                             shape, seed, data):
        arr = np.random.default_rng(seed).integers(0, 2**depth, size=shape)
        blob = make_gray_png(arr, depth)
        at = data.draw(st.integers(0, len(blob) - 1), label="at")
        flip_loads_or_fails("flip.png", blob, load_raster, at, data.draw(st.integers(1, 255)))

    @pytest.mark.parametrize("depth", [8, 16])
    def test_every_png_prefix_names_its_offset(self, every_prefix_fails, depth):
        arr = np.arange(6).reshape(2, 3) * 40
        every_prefix_fails("cut.png", make_gray_png(arr, depth), load_raster)

    @settings(max_examples=200, deadline=None)
    @given(depth=st.sampled_from([8, 16]), width=st.integers(1, 9), data=st.data())
    def test_png_unfilter_matches_the_byte_loop(self, depth, width, data):
        # every filter type against the byte-by-byte definition; bytes are often
        # small, so that the Paeth predictor meets its ties
        bpp = depth // 8
        stride = width * bpp
        types = data.draw(st.lists(st.integers(0, 4), min_size=1, max_size=6))
        row = st.lists(st.integers(0, 3) | st.integers(0, 255), min_size=stride, max_size=stride)
        raw = b"".join(bytes([t, *data.draw(row)]) for t in types)
        got = _png_unfilter(raw, len(types), stride, bpp)
        assert got.shape == (len(types), stride)
        assert got.tobytes() == naive_png_unfilter(raw, len(types), stride, bpp)

    def test_png_paeth_tie_of_up_and_up_left_predicts_up(self):
        # left 5, up 2, up-left 4: the distances to up and to up-left are both 1
        raw = bytes([0, 4, 2, 4, 1, 0])
        assert _png_unfilter(raw, 2, 2, 1).tobytes() == bytes([4, 2, 5, 2])
        assert naive_png_unfilter(raw, 2, 2, 1) == bytes([4, 2, 5, 2])

    def test_png_unknown_filter_names_its_byte(self):
        raw = bytes([0, 1, 2, 4, 5, 6, 5, 7, 8])  # three 2-byte rows; the last has type 5
        with pytest.raises(FormatError, match="unknown PNG filter type 5 at byte 6"):
            _png_unfilter(raw, 3, 2, 1)

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
        with pytest.raises(FormatError, match="IDAT at byte 33: image data inflates past the 6 bytes"):
            load_raster(path)


# a cell parse_csv_table reads back: no comma and no line boundary of str.splitlines
_CSV_CELL = st.text(st.characters(blacklist_categories=("Cs",)), max_size=8).filter(
    lambda t: "," not in t and len((t + "x").splitlines()) == 1
)


class TestCsvFormat:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_written_rows_read_back(self, data):
        header = tuple(data.draw(st.lists(_CSV_CELL, min_size=2, max_size=5)))
        numbers = st.lists(st.floats(allow_nan=False), min_size=len(header) - 1,
                           max_size=len(header) - 1)
        rows = [(label, *values) for label, values in
                data.draw(st.lists(st.tuples(_CSV_CELL, numbers), max_size=5))]
        text = csv_format(header, [[label, *map(repr, values)] for label, *values in rows])
        assert parse_csv_table(text, header, "table", text_columns=1) == rows

    @pytest.mark.parametrize("cell", ["a,b", "a\nb", "a\r", "\u2028"])
    def test_cell_that_would_not_read_back_rejected(self, cell):
        with pytest.raises(InvalidInputError, match="cannot write cell"):
            csv_format(("method", "SAM"), [[cell, "1.0"]])
