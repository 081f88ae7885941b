import math
import tracemalloc

import numpy as np
import pytest

import oracles
from panfuse import autodiff as ad
from panfuse import gan
from panfuse.autodiff import Tensor
from panfuse.errors import (
    DegenerateInputError,
    InvalidInputError,
    NumericalError,
    TrainingDivergenceError,
)
from panfuse.gan import (
    DiscriminatorSpec,
    GeneratorSpec,
    TrainingConfig,
    TrainingLog,
    discriminator_loss,
    generator_adversarial_loss,
    generator_total_loss,
    q_index,
    spatial_loss,
    spectral_loss,
)
from panfuse.harness import synth_scene
from panfuse.metrics import MetricConfig, uiqi
from panfuse.raster import (
    IntensityWeights,
    MultispectralImage,
    RasterBand,
    upsample,
)


def rand_ms(seed, k=4, h=8, w=8):
    return MultispectralImage(np.random.default_rng(seed).uniform(0.1, 0.9, size=(k, h, w)))


class TestQIndex:
    def test_matches_windowed_metric(self):
        rng = np.random.default_rng(0)
        a = rng.uniform(size=(8, 8))
        b = rng.uniform(size=(8, 8))
        q_diff = q_index(Tensor(a), Tensor(b)).item()
        q_metric = uiqi(RasterBand(a), RasterBand(b), MetricConfig(window=8, stride=8))
        assert abs(q_diff - q_metric) < 1e-12

    def test_rejects_two_constants(self):
        with pytest.raises(DegenerateInputError):
            q_index(Tensor(np.full((4, 4), 0.3)), Tensor(np.full((4, 4), 0.3)))


class TestSpectralLoss:
    def test_replicated_upsample_gives_zero(self):
        ms = rand_ms(1, h=4, w=4)
        fused = upsample(ms, 4, "replicate")
        loss = spectral_loss(fused, ms, 4)
        assert abs(loss.item()) < 1e-10

    def test_inverted_image_exceeds_one(self):
        ms = rand_ms(2, h=4, w=4)
        inverted = MultispectralImage(
            1.0 - upsample(ms, 4, "replicate").data
        )
        loss = spectral_loss(inverted, ms, 4)
        assert loss.item() > 1.0

    def test_scale_mismatch_rejected(self):
        ms = rand_ms(3, h=4, w=4)
        with pytest.raises(InvalidInputError):
            spectral_loss(Tensor(np.zeros((4, 8, 8))), ms, 4)

    def test_gradient_matches_finite_differences(self):
        ms = rand_ms(4, k=2, h=4, w=4)

        def loss_of(arrays):
            return spectral_loss(Tensor(arrays[0]), ms, 2)

        fused0 = np.random.default_rng(5).uniform(0.2, 0.8, size=(2, 8, 8))
        t = Tensor(fused0.copy(), requires_grad=True)
        ad.backward(spectral_loss(t, ms, 2))
        numeric = oracles.finite_difference_grads(
            lambda arrs: loss_of(arrs).item(), [fused0]
        )[0]
        assert oracles.max_relative_error(t.grad, numeric) < 1e-3


class TestSpatialLoss:
    def test_intensity_equal_pan_gives_zero(self):
        rng = np.random.default_rng(6)
        pan = RasterBand(rng.uniform(0.2, 0.8, size=(8, 8)))
        w = IntensityWeights(np.array([0.5, 0.5]), 0.0)
        fused = np.stack([pan.data, pan.data])
        loss = spatial_loss(Tensor(fused), pan, w)
        assert abs(loss.item()) < 1e-10

    def test_blurred_intensity_is_positive(self, fixture_scene):
        scene = fixture_scene
        ms_up = upsample(scene.ms, scene.ratio, "bicubic")
        from panfuse.raster import estimate_weights

        w = estimate_weights(ms_up, scene.pan)
        loss = spatial_loss(Tensor(ms_up.data), scene.pan, w)
        assert loss.item() > 1e-4
        # frozen regression value from the first verified run on this fixture
        assert loss.item() == pytest.approx(0.015752583981344492, rel=1e-6)

    def test_constant_intensity_rejected(self):
        pan = RasterBand(np.random.default_rng(7).uniform(size=(4, 4)))
        w = IntensityWeights(np.array([0.0, 0.0]), 0.5)
        with pytest.raises(DegenerateInputError):
            spatial_loss(Tensor(np.random.default_rng(8).uniform(size=(2, 4, 4))), pan, w)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(9)
        pan = RasterBand(rng.uniform(0.2, 0.8, size=(8, 8)))
        w = IntensityWeights(np.array([0.3, 0.7]), 0.02)
        fused0 = rng.uniform(0.2, 0.8, size=(2, 8, 8))
        t = Tensor(fused0.copy(), requires_grad=True)
        ad.backward(spatial_loss(t, pan, w))
        numeric = oracles.finite_difference_grads(
            lambda arrs: spatial_loss(Tensor(arrs[0]), pan, w).item(), [fused0]
        )[0]
        assert oracles.max_relative_error(t.grad, numeric) < 1e-3


class TestAdversarialLosses:
    def test_balanced_scores(self):
        half = Tensor(np.array(0.5))
        loss = discriminator_loss(half, Tensor(np.array(0.5)))
        assert loss.item() == pytest.approx(2.0 * math.log(2.0), abs=1e-12)

    def test_confident_fake_drives_generator_term_to_zero(self):
        cfg = TrainingConfig(lambda_adv_spec=1.0, lambda_adv_spat=1.0)
        almost_one = Tensor(np.array(1.0 - 1e-12))
        loss, _, _ = generator_adversarial_loss(almost_one, almost_one, cfg)
        assert abs(loss.item()) < 1e-9

    def test_score_range_validated(self):
        with pytest.raises(InvalidInputError):
            discriminator_loss(Tensor(np.array(1.0)), Tensor(np.array(0.5)))
        with pytest.raises(InvalidInputError):
            discriminator_loss(Tensor(np.array(0.5)), Tensor(np.array(0.0)))

    def test_zero_adversarial_weights_reduce_exactly(self):
        cfg = TrainingConfig(
            lambda_spec=1.0, lambda_spat=1.0, lambda_adv_spec=0.0, lambda_adv_spat=0.0
        )
        l1 = Tensor(np.array(0.123))
        l2 = Tensor(np.array(0.456))
        adv, _, _ = generator_adversarial_loss(
            Tensor(np.array(0.5)), Tensor(np.array(0.5)), cfg
        )
        total = generator_total_loss(l1, l2, adv, cfg)
        assert total.item() == 0.123 + 0.456


class TestNetworks:
    def test_discriminator_score_in_unit_interval(self):
        rng = np.random.default_rng(10)
        spec = DiscriminatorSpec(in_channels=4)
        params = spec.init_params(rng, "d")
        for seed in range(5):
            x = Tensor(np.random.default_rng(seed).uniform(size=(4, 16, 16)))
            score = spec.forward(params, x, "d").item()
            assert 0.0 < score < 1.0

    def test_zero_head_generator_is_soft_clamped_input(self):
        rng = np.random.default_rng(11)
        spec = GeneratorSpec(bands=3)
        params = spec.init_params(rng)
        ms_up = Tensor(rng.uniform(0.2, 0.8, size=(3, 8, 8)))
        pan = Tensor(rng.uniform(size=(1, 8, 8)))
        out = spec.forward(params, ms_up, pan)
        np.testing.assert_array_equal(out.data, ad.clamp_smooth(ms_up).data)

    def test_tape_holds_one_array_per_hidden_layer(self):
        # a 16-channel 128^2 activation is 2 MB; each fused hidden layer keeps
        # only its output on the tape, where a conv then a leaky ReLU kept three
        rng = np.random.default_rng(12)
        spec = GeneratorSpec(bands=4)
        params = spec.init_params(rng)
        ms_up = Tensor(rng.uniform(0.2, 0.8, size=(4, 128, 128)))
        stacked = ad.concat_channels(ms_up, Tensor(rng.uniform(size=(1, 128, 128))))
        activation = 16 * 128 * 128 * 8
        tracemalloc.start()
        try:
            out = spec.forward_from(params, stacked, ms_up)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.node is not None
        assert held <= 4 * activation, f"tape holds {held / 2**20:.1f} MB"


class TestTrainingLoop:
    def test_determinism_bitwise(self, small_scene):
        scene = small_scene
        cfg = TrainingConfig(iterations=8, seed=42, ratio=scene.ratio)
        p1, log1 = gan.train(scene.ms, scene.pan, cfg)
        p2, log2 = gan.train(scene.ms, scene.pan, cfg)
        assert ad.checkpoint_bytes(p1) == ad.checkpoint_bytes(p2)
        assert log1.rows == log2.rows

    def test_loss_decreases(self, small_scene):
        scene = small_scene
        cfg = TrainingConfig(iterations=60, seed=0, ratio=scene.ratio)
        _, log = gan.train(scene.ms, scene.pan, cfg)
        total = log.column("total_G")
        assert total[-1] < total[0]

    def test_multi_objective_descent_mostly_monotone(self, fixture_scene):
        # with the adversarial terms off the objective is a fixed function and
        # optimization is pure descent; in Adam's stable step-size regime the
        # loss curve is monotone up to a few transient ticks (at the default,
        # more aggressive lr the descent holds at the 100-iteration scale but
        # individual iterations overshoot; see test_loss_decreases)
        scene = fixture_scene
        cfg = TrainingConfig(
            iterations=100, seed=1, ratio=scene.ratio, lr_g=5e-4,
            lambda_adv_spec=0.0, lambda_adv_spat=0.0,
        )
        _, log = gan.train(scene.ms, scene.pan, cfg)
        total = log.column("total_G")
        upticks = int(np.sum(np.diff(total) > 0))
        assert upticks <= 5
        assert total[-1] < 0.2 * total[0]

    def test_initial_spectral_loss_matches_bicubic(self, small_scene):
        scene = small_scene
        cfg = TrainingConfig(
            iterations=1, seed=2, ratio=scene.ratio,
            lambda_spec=1.0, lambda_spat=0.0,
            lambda_adv_spec=0.0, lambda_adv_spat=0.0,
        )
        _, log = gan.train(scene.ms, scene.pan, cfg)
        bicubic = upsample(scene.ms, scene.ratio, "bicubic")
        reference = spectral_loss(Tensor(bicubic.data), scene.ms, scene.ratio)
        assert abs(log.rows[0][1] - reference.item()) < 1e-6

    def test_bad_dimensions_rejected(self, small_scene):
        scene = small_scene
        with pytest.raises(InvalidInputError):
            gan.train(scene.ms, scene.pan, TrainingConfig(iterations=1, ratio=2))

    def test_log_round_trip(self, small_scene):
        scene = small_scene
        cfg = TrainingConfig(iterations=3, seed=3, ratio=scene.ratio)
        _, log = gan.train(scene.ms, scene.pan, cfg)
        parsed = TrainingLog.parse_csv(log.to_csv())
        assert parsed.rows == log.rows

    def test_log_rejects_non_numeric_cell(self):
        text = ",".join(gan.LOG_COLUMNS) + "\n1,0.1,0.2,0.3,0.4,0.5,x,0.7\n"
        with pytest.raises(InvalidInputError, match="line 2"):
            TrainingLog.parse_csv(text)

    def test_log_rejects_short_row(self):
        text = ",".join(gan.LOG_COLUMNS) + "\n1,0.1,0.2,0.3,0.4,0.5,0.6,0.7\n\n2,0.1,0.2\n"
        with pytest.raises(InvalidInputError, match="line 4"):
            TrainingLog.parse_csv(text)

    def test_divergence_error_names_iteration(self, small_scene, monkeypatch):
        scene = small_scene
        poisoned = Tensor(np.full((4, scene.pan.height, scene.pan.width), np.nan))
        monkeypatch.setattr(
            GeneratorSpec, "forward_from", lambda self, *a, **kw: poisoned
        )
        with pytest.raises(TrainingDivergenceError, match="iteration 1"):
            gan.train(
                scene.ms,
                scene.pan,
                TrainingConfig(iterations=2, seed=0, ratio=scene.ratio),
            )

    def test_total_is_weighted_sum(self, small_scene):
        scene = small_scene
        cfg = TrainingConfig(iterations=5, seed=4, ratio=scene.ratio)
        _, log = gan.train(scene.ms, scene.pan, cfg)
        for row in log.rows:
            _, l1, l2, advs, advt, _, _, total = row
            expected = (
                cfg.lambda_spec * l1
                + cfg.lambda_spat * l2
                + cfg.lambda_adv_spec * advs
                + cfg.lambda_adv_spat * advt
            )
            assert abs(total - expected) < 1e-12

    def test_total_is_the_optimised_loss_bitwise(self):
        # the log columns must add up to the loss training optimises, in its order
        scene = synth_scene(seed=9, width=32, height=32, bands=3, ratio=2)
        cfg = TrainingConfig(
            iterations=3, seed=6, ratio=2, lambda_spec=0.7, lambda_spat=1.3,
            lambda_adv_spec=0.05, lambda_adv_spat=0.02,
        )
        _, log = gan.train(scene.ms, scene.pan, cfg)
        assert len(log.rows) == 3
        for _, l1, l2, advs, advt, _, _, total in log.rows:
            expected = (cfg.lambda_spec * l1 + cfg.lambda_spat * l2) + (
                cfg.lambda_adv_spec * advs + cfg.lambda_adv_spat * advt
            )
            assert total == expected


class TestFuse:
    def test_zero_head_checkpoint_is_near_bicubic(self, small_scene):
        scene = small_scene
        spec = GeneratorSpec(bands=scene.ms.band_count)
        params = spec.init_params(np.random.default_rng(12))
        product = gan.fuse(params, scene.ms, scene.pan, scene.ratio)
        bicubic = upsample(scene.ms, scene.ratio, "bicubic")
        dev = np.abs(product.data - bicubic.data)
        assert dev.max() < 0.02

    def test_inference_is_pure(self, small_scene):
        scene = small_scene
        params = GeneratorSpec(bands=4).init_params(np.random.default_rng(13))
        a = gan.fuse(params, scene.ms, scene.pan, scene.ratio)
        b = gan.fuse(params, scene.ms, scene.pan, scene.ratio)
        np.testing.assert_array_equal(a.data, b.data)

    def test_output_shape_and_range(self, small_scene):
        scene = small_scene
        params = GeneratorSpec(bands=4).init_params(np.random.default_rng(14))
        product = gan.fuse(params, scene.ms, scene.pan, scene.ratio)
        arr = product.data
        assert arr.shape == (4, scene.pan.height, scene.pan.width)
        assert arr.min() >= 0.0 and arr.max() <= 1.0

    def test_band_count_mismatch_rejected(self, small_scene):
        scene = small_scene
        params = GeneratorSpec(bands=3).init_params(np.random.default_rng(15))
        with pytest.raises(InvalidInputError):
            gan.fuse(params, scene.ms, scene.pan, scene.ratio)


def random_head_checkpoint(bands, seed, kernel_size=3):
    """A generator whose head and biases are random, not zero: with the zero
    head of ``init_params`` the output ignores the hidden layers, and a halo
    too small for them would go unseen."""
    spec = GeneratorSpec(bands=bands, kernel_size=kernel_size)
    rng = np.random.default_rng(seed)
    params = spec.init_params(rng)
    for name in ("gen.conv1.bias", "gen.conv2.bias", "gen.head.weight", "gen.head.bias"):
        params[name].data = rng.normal(0.0, 0.1, params[name].data.shape)
    return spec, params


class TestFuseTiles:
    # (PAN width, height, ratio, kernel size, tile); the halo of the 3x3
    # network is 3 pixels, that of the 5x5 one 6
    @pytest.mark.parametrize(
        "width, height, ratio, kernel, tile",
        [
            pytest.param(256, 256, 4, 3, 64, id="divisor"),
            pytest.param(256, 256, 4, 3, 40, id="non-divisor-40"),
            pytest.param(256, 256, 4, 3, 100, id="non-divisor-100"),
            pytest.param(24, 24, 4, 3, 2, id="tile-below-halo"),
            pytest.param(96, 96, 4, 5, 40, id="kernel-5"),
            pytest.param(128, 128, 2, 3, 40, id="ratio-2"),
            pytest.param(160, 96, 4, 3, 40, id="non-square"),
        ],
    )
    def test_tiles_match_the_whole_image_pass(
        self, monkeypatch, width, height, ratio, kernel, tile
    ):
        scene = synth_scene(seed=21, width=width, height=height, bands=4, ratio=ratio)
        spec, params = random_head_checkpoint(4, 22, kernel)
        monkeypatch.setattr(gan, "_FUSE_TILE", tile)
        got = gan.fuse(params, scene.ms, scene.pan, ratio).data
        frozen = {name: Tensor(p.data) for name, p in params.items()}
        ms_up = upsample(scene.ms, ratio, "bicubic").data
        want = spec.forward(frozen, Tensor(ms_up), Tensor(scene.pan.data[None])).data
        # the head moves the output well away from the bicubic input
        assert np.abs(want - ms_up).max() > 0.05
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("size", [256, 1024])
    def test_memory_is_set_by_the_tile(self, monkeypatch, size):
        # 64^2 tiles: a 16-channel activation of one tile and its halo is
        # 0.6 MB; the whole-image pass holds 128 MB per activation at 1024^2
        scene = synth_scene(seed=23, width=size, height=size, bands=4, ratio=4)
        _spec, params = random_head_checkpoint(4, 24)
        monkeypatch.setattr(gan, "_FUSE_TILE", 64)
        tracemalloc.start()
        try:
            product = gan.fuse(params, scene.ms, scene.pan, 4)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        result = product.data.nbytes
        assert peak - result < 8 * 2**20, f"{(peak - result) / 2**20:.1f} MB beyond the result"

    def test_numerical_error_names_the_tile(self, small_scene, monkeypatch):
        # PAN is zero but for a patch inside the tile at (32, 32) and outside
        # the halos of the others; a huge PAN weight overflows only there
        scene = small_scene
        pan = np.zeros((scene.pan.height, scene.pan.width))
        pan[40:44, 40:44] = 1.0
        _spec, params = random_head_checkpoint(4, 25)
        params["gen.conv1.weight"].data[:, 4] = 1e308
        monkeypatch.setattr(gan, "_FUSE_TILE", 32)
        with np.errstate(over="ignore"), pytest.raises(
            NumericalError, match=r"tile at \(32, 32\)"
        ):
            gan.fuse(params, scene.ms, RasterBand(pan), scene.ratio)

    def test_nan_bias_names_the_first_tile(self, small_scene):
        scene = small_scene
        _spec, params = random_head_checkpoint(4, 26)
        params["gen.conv2.bias"].data[3] = np.nan
        with pytest.raises(NumericalError, match=r"'conv2d' in the tile at \(0, 0\)"):
            gan.fuse(params, scene.ms, scene.pan, scene.ratio)
