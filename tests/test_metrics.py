from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
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
from panfuse.raster import MultispectralImage, RasterBand, mtf_degrade, upsample


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
    @given(case=windowed_inputs(max_side=6), k=st.integers(2, 4), r=st.integers(1, 2),
           p=st.integers(1, 2))
    def test_d_lambda(self, case, k, r, p):
        seed, h, w, window, stride, levels, block = case
        rng = np.random.default_rng(seed)
        m = blocky(rng, (k, h, w), levels, block)
        f = blocky(rng, (k, h * r, w * r), levels, block * r)
        cfg = MetricConfig(window=window, stride=stride, p=p)
        fast = d_lambda(ms_of(m), ms_of(f), cfg)
        assert abs(fast - oracles.naive_d_lambda(m, f, window, stride, p, r)) < 1e-10

    @settings(max_examples=30, deadline=None)
    @given(case=windowed_inputs(max_side=6), k=st.integers(1, 4), r=st.integers(1, 2),
           q=st.integers(1, 2))
    def test_d_s(self, case, k, r, q):
        seed, h, w, window, stride, levels, block = case
        rng = np.random.default_rng(seed)
        m, pan_low = blocky(rng, (k, h, w), levels, block), blocky(rng, (h, w), levels, block)
        f = blocky(rng, (k, h * r, w * r), levels, block * r)
        pan = blocky(rng, (h * r, w * r), levels, block * r)
        cfg = MetricConfig(window=window, stride=stride, q=q)
        fast = d_s(ms_of(m), ms_of(f), RasterBand(pan), RasterBand(pan_low), cfg)
        oracle = oracles.naive_d_s(m, f, pan, pan_low, window, stride, q, r)
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
        f = upsample(m, 4, "replicate")
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
