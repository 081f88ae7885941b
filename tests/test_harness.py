import math
from fractions import Fraction

import numpy as np
import pytest

from panfuse import harness
from panfuse.errors import InvalidInputError
from panfuse.harness import (
    baseline_fuse,
    parse_results_table,
    results_table_csv,
    results_table_text,
    run_experiment,
    synth_scene,
    wald_reduce,
    worker_threads,
)
from panfuse.metrics import MetricConfig, evaluate_full, evaluate_reduced
from panfuse.raster import (
    MultispectralImage,
    RasterBand,
    intensity_component,
    estimate_weights,
    mtf_degrade,
    upsample,
)


class TestSynthScene:
    def test_deterministic(self):
        a = synth_scene(11, 64, 64, 4, 4)
        b = synth_scene(11, 64, 64, 4, 4)
        np.testing.assert_array_equal(a.gt_hrms.data, b.gt_hrms.data)
        np.testing.assert_array_equal(a.ms.data, b.ms.data)
        np.testing.assert_array_equal(a.pan.data, b.pan.data)
        np.testing.assert_array_equal(a.pan_weights, b.pan_weights)

    def test_shape_contract(self):
        scene = synth_scene(12, 64, 96, 3, 4)
        assert scene.gt_hrms.band_count == 3
        assert (scene.gt_hrms.height, scene.gt_hrms.width) == (96, 64)
        assert (scene.ms.height, scene.ms.width) == (24, 16)
        assert (scene.pan.height, scene.pan.width) == (96, 64)

    def test_pan_reconstructable_from_weights(self):
        scene = synth_scene(13, 64, 64, 4, 4)
        rebuilt = scene.reconstruct_pan()
        np.testing.assert_array_equal(rebuilt.data, scene.pan.data)

    def test_identity_fusion_is_ideal(self, small_scene):
        report = evaluate_reduced(small_scene.gt_hrms, small_scene.gt_hrms)
        assert report.entries["SAM"] == 0.0
        assert report.entries["ERGAS"] == 0.0
        assert abs(report.entries["CC"] - 1.0) < 1e-12

    def test_matches_per_pixel_evaluation(self):
        """Blobs and rectangles rebuilt pixel by pixel in the generator's draw order."""
        seed, size, bands = 5, 64, 4
        rng = np.random.default_rng(seed)
        coords = [i / (size - 1) for i in range(size)]
        gt = np.empty((bands, size, size))
        for k in range(bands):
            angle = rng.uniform(0.0, 2.0 * math.pi)
            for r, yv in enumerate(coords):
                for c, xv in enumerate(coords):
                    gt[k, r, c] = 0.5 + 0.2 * (math.cos(angle) * xv + math.sin(angle) * yv)
        n_blobs = max(8, size * size // 2048)
        centers = rng.uniform(0.05, 0.95, size=(n_blobs, 2))
        sigmas = rng.uniform(0.01, 0.08, size=n_blobs)
        amps = rng.uniform(0.1, 0.3, size=n_blobs)
        factors = 1.0 + rng.uniform(-0.05, 0.05, size=(n_blobs, bands))
        for b in range(n_blobs):
            sign = 1.0 if rng.uniform() < 0.5 else -1.0
            for r, yv in enumerate(coords):
                for c, xv in enumerate(coords):
                    d2 = (xv - centers[b, 0]) ** 2 + (yv - centers[b, 1]) ** 2
                    bump = math.exp(-d2 / (2.0 * sigmas[b] ** 2))
                    for k in range(bands):
                        gt[k, r, c] += sign * amps[b] * factors[b, k] * bump
        for _ in range(max(6, size * size // 512)):
            rh = int(rng.integers(2, max(3, size // 8)))
            rw = int(rng.integers(2, max(3, size // 8)))
            y0 = int(rng.integers(0, size - rh))
            x0 = int(rng.integers(0, size - rw))
            delta = rng.uniform(0.08, 0.25)
            sign = 1.0 if rng.uniform() < 0.5 else -1.0
            rect = 1.0 + rng.uniform(-0.05, 0.05, size=bands)
            for k in range(bands):
                gt[k, y0 : y0 + rh, x0 : x0 + rw] += sign * delta * rect[k]
        gt = 0.1 + 0.8 * (gt - gt.min()) / (gt.max() - gt.min())
        scene = synth_scene(seed, size, size, bands, 4)
        np.testing.assert_allclose(scene.gt_hrms.data, gt, rtol=1e-12, atol=0)
        raw_w = rng.uniform(0.5, 1.5, size=bands)
        np.testing.assert_array_equal(scene.pan_weights, raw_w / raw_w.sum())

    def test_indivisible_size_rejected(self):
        with pytest.raises(InvalidInputError):
            synth_scene(1, 63, 64, 4, 4)

    def test_needs_two_bands(self):
        with pytest.raises(InvalidInputError):
            synth_scene(1, 64, 64, 1, 4)


class TestWaldReduce:
    def test_protocol_sizes(self):
        rng = np.random.default_rng(0)
        ms = MultispectralImage(rng.uniform(size=(4, 256, 256)))
        pan = RasterBand(rng.uniform(size=(1024, 1024)))
        ms_lo, pan_lo, reference = wald_reduce(ms, pan, 4)
        assert (ms_lo.height, ms_lo.width) == (64, 64)
        assert (pan_lo.height, pan_lo.width) == (256, 256)
        assert reference is ms

    def test_constant_inputs_stay_constant(self):
        ms = MultispectralImage(np.full((2, 16, 16), 0.4))
        pan = RasterBand(np.full((64, 64), 0.6))
        ms_lo, pan_lo, _ = wald_reduce(ms, pan, 4)
        np.testing.assert_allclose(ms_lo.data, 0.4, atol=1e-12)
        np.testing.assert_allclose(pan_lo.data, 0.6, atol=1e-12)

    def test_indivisible_rejected(self):
        ms = MultispectralImage(np.zeros((2, 15, 16)) + 0.5)
        pan = RasterBand(np.full((60, 64), 0.5))
        with pytest.raises(InvalidInputError):
            wald_reduce(ms, pan, 4)


class TestBaselines:
    def test_exp_equals_bicubic_exactly(self, small_scene):
        scene = small_scene
        product = baseline_fuse("exp", scene.ms, scene.pan, scene.ratio)
        expected = upsample(scene.ms, scene.ratio)
        np.testing.assert_array_equal(product.data, expected.data)

    def test_cs_with_pan_equal_intensity_matches_exp(self):
        rng = np.random.default_rng(1)
        ms = MultispectralImage(rng.uniform(0.2, 0.8, size=(3, 8, 8)))
        ms_up = upsample(ms, 2)
        weights = estimate_weights(ms_up, RasterBand(np.zeros((16, 16)) + 0.5))
        # construct pan exactly equal to an intensity of the upsampled bands
        from panfuse.raster import IntensityWeights

        true_w = IntensityWeights(np.array([0.2, 0.5, 0.3]), 0.0)
        pan = intensity_component(ms_up, true_w)
        product = baseline_fuse("cs", ms, pan, 2)
        exp = baseline_fuse("exp", ms, pan, 2)
        assert np.max(np.abs(product.data - exp.data)) < 1e-6

    def test_unknown_method(self, small_scene):
        with pytest.raises(InvalidInputError):
            baseline_fuse("bogus", small_scene.ms, small_scene.pan, small_scene.ratio)

    def test_cs_beats_exp_on_ergas(self, fixture_scene):
        scene = fixture_scene
        cfg = MetricConfig()
        exp = evaluate_reduced(
            baseline_fuse("exp", scene.ms, scene.pan, scene.ratio), scene.gt_hrms, cfg
        )
        cs = evaluate_reduced(
            baseline_fuse("cs", scene.ms, scene.pan, scene.ratio), scene.gt_hrms, cfg
        )
        assert cs.entries["ERGAS"] < exp.entries["ERGAS"]


class TestRunExperiment:
    def test_single_method_rows(self, small_scene):
        results = run_experiment(small_scene, ["exp"], MetricConfig(window=8, stride=8))
        assert [r.mode for r in results] == ["full", "reduced"]
        assert all(r.method == "exp" and r.report is not None for r in results)

    def test_ergas_takes_the_scene_ratio(self):
        # window and stride come from the config, the pixel-size ratio from the scene
        scene = synth_scene(7, 64, 64, 4, 2)
        results = run_experiment(scene, ["exp"], MetricConfig(window=8, stride=8))
        reduced = next(r.report for r in results if r.mode == "reduced")
        cfg = MetricConfig(window=8, stride=8, ratio=Fraction(1, 2))
        product = baseline_fuse("exp", scene.ms, scene.pan, scene.ratio)
        expected = evaluate_reduced(product, scene.gt_hrms, cfg)
        assert reduced.entries == expected.entries
        assert reduced.entries["ERGAS"] == pytest.approx(1.40053, abs=1e-5)

    def test_identity_method_ideal_reduced(self, small_scene):
        scene = small_scene
        cfg = MetricConfig(window=8, stride=8)
        perfect = scene.gt_hrms
        reduced = evaluate_reduced(perfect, scene.gt_hrms, cfg).entries
        assert reduced["SAM"] == 0.0
        assert reduced["ERGAS"] == 0.0
        assert abs(reduced["CC"] - 1.0) < 1e-9
        # full-resolution distortions of a perfect fusion are near zero, not
        # exactly zero: the MS input is a blurred decimation, not a block mean
        pan_low = mtf_degrade(scene.pan, scene.ratio)
        full = evaluate_full(perfect, scene.ms, scene.pan, pan_low, cfg).entries
        assert full["D_lambda"] < 0.05
        assert full["D_s"] < 0.05
        assert full["QNR"] > 0.9

    def test_failure_recorded_and_run_continues(self, small_scene, monkeypatch):
        fuse = harness._fuse

        def broken_cs(method, *args):
            if method == "cs":
                raise InvalidInputError("deliberately broken")
            return fuse(method, *args)

        monkeypatch.setattr(harness, "_fuse", broken_cs)
        results = run_experiment(small_scene, ["cs", "exp"], MetricConfig(window=8, stride=8))
        ok = [r for r in results if r.method == "exp"]
        bad = [r for r in results if r.method == "cs"]
        assert len(ok) == len(bad) == 2
        assert all(r.report is not None for r in ok)
        assert all(r.report is None and "broken" in r.error for r in bad)

    @pytest.mark.parametrize("window, stride", [(8, 8), (16, 4)])
    def test_any_worker_count_scores_as_the_public_functions(self, small_scene, monkeypatch,
                                                              window, stride):
        scene = small_scene
        cfg = MetricConfig(window=window, stride=stride, ratio=Fraction(1, scene.ratio))
        pan_low = mtf_degrade(scene.pan, scene.ratio)
        expected = {}
        for method in harness.BASELINE_METHODS:
            product = baseline_fuse(method, scene.ms, scene.pan, scene.ratio)
            expected[method, "reduced"] = evaluate_reduced(product, scene.gt_hrms, cfg)
            expected[method, "full"] = evaluate_full(product, scene.ms, scene.pan, pan_low, cfg)
        for workers in (1, 3):
            monkeypatch.setattr(harness, "worker_threads", lambda: workers)
            results = run_experiment(scene, harness.BASELINE_METHODS, cfg)
            assert len(results) == len(expected)
            for res in results:
                want = expected[res.method, res.mode].entries
                assert {k: v.hex() for k, v in res.report.entries.items()} == {
                    k: v.hex() for k, v in want.items()}, (workers, res.method, res.mode)

    @pytest.mark.parametrize("window", [128, 32])
    def test_a_failing_reference_fails_every_row(self, small_scene, window):
        # 128 is larger than the 64 x 64 scene; 32 fits the scene but not its 16 x 16 MS
        # image, which only the no-reference scoring reads
        scene = small_scene
        cfg = MetricConfig(window=window, stride=window)
        product = baseline_fuse("exp", scene.ms, scene.pan, scene.ratio)
        pan_low = mtf_degrade(scene.pan, scene.ratio)
        with pytest.raises(InvalidInputError) as caught:
            evaluate_reduced(product, scene.gt_hrms, cfg)
            evaluate_full(product, scene.ms, scene.pan, pan_low, cfg)
        results = run_experiment(scene, ["cs", "exp", "glp"], cfg)
        assert len(results) == 6
        assert all(r.report is None and r.error == str(caught.value) for r in results)

    def test_table_round_trip_and_qnr_consistency(self, small_scene):
        results = run_experiment(small_scene, ["exp", "cs"], MetricConfig(window=8, stride=8))
        rows = parse_results_table(results_table_csv(results, "full"), "full")
        for res in results:
            if res.mode != "full":
                continue
            parsed = rows[res.method]
            for name, value in res.report.entries.items():
                assert parsed[name] == value
            assert abs(
                parsed["QNR"] - (1 - parsed["D_lambda"]) * (1 - parsed["D_s"])
            ) < 1e-12
        assert rows["Ideal"] == {"D_lambda": 0.0, "D_s": 0.0, "QNR": 1.0}

    def test_table_reader_rejects_empty_text(self):
        with pytest.raises(InvalidInputError, match="header"):
            parse_results_table("", "full")

    def test_table_reader_names_non_numeric_line(self):
        text = "method,D_lambda,D_s,QNR\ncs,0.1,0.2,0.72\nexp,0.1,oops,0.5\n"
        with pytest.raises(InvalidInputError, match="line 3"):
            parse_results_table(text, "full")

    def test_rows_sorted_with_ideal_last(self, small_scene):
        results = run_experiment(
            small_scene, ["glp", "cs", "exp"], MetricConfig(window=8, stride=8)
        )
        methods = [r.method for r in results if r.mode == "reduced"]
        assert methods == sorted(methods)
        csv_text = results_table_csv(results, "reduced")
        assert csv_text.strip().splitlines()[-1].startswith("Ideal,")

    def test_experiment_reruns_identical(self, small_scene):
        cfg = MetricConfig(window=8, stride=8)

        def tables():
            results = run_experiment(small_scene, ["exp", "cs"], cfg)
            return [results_table_csv(results, mode) for mode in ("reduced", "full")] + [
                results_table_text(results, ("reduced", "full"))
            ]

        assert tables() == tables()

    def test_unknown_method_rejected(self, small_scene):
        with pytest.raises(InvalidInputError):
            run_experiment(small_scene, ["nope"], MetricConfig(window=8, stride=8))


class TestWorkerThreads:
    def test_default_positive(self):
        assert worker_threads() >= 1

    def test_counts_only_the_cores_this_process_may_run_on(self, monkeypatch):
        # as under `taskset -c 0` on a machine of more cores
        monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 8)
        assert worker_threads() == 1

    def test_every_core_where_affinity_is_unknown(self, monkeypatch):
        monkeypatch.delattr(harness.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 3)
        assert worker_threads() == 3
