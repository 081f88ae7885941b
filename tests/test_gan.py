import math
import tracemalloc

import numpy as np
import pytest

import oracles
from panfuse import autodiff as ad
from panfuse import gan, raster
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
    generator_loss,
    intensity_of,
    spatial_loss,
    spectral_loss,
)
from panfuse.harness import synth_scene
from panfuse.metrics import MetricConfig, uiqi
from panfuse.raster import (
    IntensityWeights,
    MultispectralImage,
    RasterBand,
    estimate_weights,
    upsample,
)


def replicate(a: np.ndarray, r: int) -> np.ndarray:
    """Each pixel of the (K, H, W) stack ``a`` copied into an r x r block."""
    return np.repeat(np.repeat(a, r, axis=1), r, axis=2)


def rand_ms(seed, k=4, h=8, w=8):
    return MultispectralImage(np.random.default_rng(seed).uniform(0.1, 0.9, size=(k, h, w)))


class TestQIndex:
    def test_matches_windowed_metric(self):
        rng = np.random.default_rng(0)
        a = rng.uniform(size=(8, 8))
        b = rng.uniform(size=(8, 8))
        q_diff = ad.similarity(Tensor(a[None]), Tensor(b[None])).item()
        q_metric = uiqi(RasterBand(a), RasterBand(b), MetricConfig(window=8, stride=8))
        assert abs(q_diff - q_metric) < 1e-12

    def test_rejects_two_constants(self):
        with pytest.raises(DegenerateInputError):
            ad.similarity(Tensor(np.full((1, 4, 4), 0.3)), Tensor(np.full((1, 4, 4), 0.3)))


def tape_ops(loss):
    """The op of every node on the tape of ``loss``."""
    return [t.node.op for t in ad._topological_order(loss) if t.node is not None]


def test_losses_hold_one_similarity_node(fixture_scene):
    # each similarity-index loss is one op on the tape, not a chain of
    # elementwise ops and reductions
    scene = fixture_scene
    fused = Tensor(upsample(scene.ms, scene.ratio).data, requires_grad=True)
    w = IntensityWeights(np.full(scene.ms.band_count, 1.0 / scene.ms.band_count), 0.0)
    for loss in (spectral_loss(fused, scene.ms, scene.ratio), spatial_loss(fused, scene.pan, w)):
        ops = tape_ops(loss)
        assert ops.count("similarity") == 1
        assert not {"variance", "covariance", "channel_slice", "mul", "div"} & set(ops)


class TestSpectralLoss:
    def test_replicated_upsample_gives_zero(self):
        ms = rand_ms(1, h=4, w=4)
        fused = Tensor(replicate(ms.data, 4))
        loss = spectral_loss(fused, ms, 4)
        assert abs(loss.item()) < 1e-10

    def test_inverted_image_exceeds_one(self):
        ms = rand_ms(2, h=4, w=4)
        loss = spectral_loss(Tensor(1.0 - replicate(ms.data, 4)), ms, 4)
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
        ms_up = upsample(scene.ms, scene.ratio)
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

    def test_confident_fake_drives_generator_term_to_zero(self, monkeypatch):
        monkeypatch.setattr(gan, "ADV_WEIGHT", 1.0)
        zero = Tensor(np.array(0.0))
        almost_one = Tensor(np.array(1.0 - 1e-12))
        loss, _, _ = generator_loss(zero, zero, almost_one, almost_one)
        assert abs(loss.item()) < 1e-9

    def test_score_range_validated(self):
        with pytest.raises(NumericalError):
            discriminator_loss(Tensor(np.array(1.0)), Tensor(np.array(0.5)))
        with pytest.raises(NumericalError):
            discriminator_loss(Tensor(np.array(0.5)), Tensor(np.array(0.0)))

    def test_zero_adversarial_weights_reduce_exactly(self, monkeypatch):
        monkeypatch.setattr(gan, "ADV_WEIGHT", 0.0)
        l1 = Tensor(np.array(0.123))
        l2 = Tensor(np.array(0.456))
        total, _, _ = generator_loss(l1, l2, Tensor(np.array(0.5)), Tensor(np.array(0.5)))
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


def generator_objective(scene, seed):
    """The generator parameters of a first training iteration on ``scene``, and
    a function that builds their objective as :func:`gan.train` does, through
    critics frozen by value."""
    r, k = scene.ratio, scene.ms.band_count
    rng = np.random.default_rng(seed)
    gen, disc_spec, disc_spat = GeneratorSpec(k), DiscriminatorSpec(k), DiscriminatorSpec(1)
    g_params = gen.init_params(rng)
    ds_params = gan._frozen(disc_spec.init_params(rng, "dspec"))
    dt_params = gan._frozen(disc_spat.init_params(rng, "dspat"))
    ms_up = upsample(scene.ms, r)
    weights = estimate_weights(ms_up, scene.pan)
    ms_up_t = Tensor(ms_up.data)
    gen_input = ad.cast(ad.concat_channels(ms_up_t, Tensor(scene.pan.data[None])), np.float32)

    def objective():
        fused = gen.forward_from(g_params, gen_input, ms_up_t)
        total, _, _ = generator_loss(
            spectral_loss(fused, scene.ms, r),
            spatial_loss(fused, scene.pan, weights),
            disc_spec.forward(ds_params, ad.block_mean(fused, r), "dspec"),
            disc_spat.forward(dt_params, intensity_of(fused, weights), "dspat"),
        )
        return total

    return g_params, objective


class TestBackwardFreesTheTape:
    def test_training_is_bitwise_the_tape_keeping_pass(self, monkeypatch):
        scene = synth_scene(seed=7, width=64, height=64, bands=4, ratio=4)
        cfg = TrainingConfig(iterations=3, seed=7, ratio=scene.ratio)
        params, log = gan.train(scene.ms, scene.pan, cfg)
        monkeypatch.setattr(ad, "backward", oracles.tape_keeping_backward)
        want_params, want_log = gan.train(scene.ms, scene.pan, cfg)
        assert gan.checkpoint_hash(params) == gan.checkpoint_hash(want_params)
        assert log.to_csv() == want_log.to_csv()

    def test_only_parameters_get_a_gradient(self, small_scene):
        params, objective = generator_objective(small_scene, 7)
        loss = objective()
        intermediates = [t for t in ad._topological_order(loss) if t.node is not None]
        assert len(intermediates) > 20
        ad.backward(loss)
        assert all(t.grad is None for t in intermediates)
        assert all(p.grad is not None for _, p in params.items())
        # and every node that ran was dropped
        assert all(t.node is ad._SPENT for t in intermediates)

    def test_generator_pass_peaks_near_the_tape(self):
        # the tape is freed as the pass walks it, so the peak stays near what
        # the tape holds when the pass starts: 1.30 times it, measured at 128^2,
        # 256^2 and 512^2, where the tape-keeping pass peaks at 2.83 times it
        scene = synth_scene(seed=7, width=128, height=128, bands=4, ratio=4)
        _params, objective = generator_objective(scene, 7)
        tracemalloc.start()
        try:
            loss = objective()
            tape, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            ad.backward(loss)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * tape, f"peak {peak / 2**20:.2f} MB, tape {tape / 2**20:.2f} MB"


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

    def test_multi_objective_descent_mostly_monotone(self, fixture_scene, monkeypatch):
        # with the adversarial terms off the objective is a fixed function and
        # optimization is pure descent; in Adam's stable step-size regime the
        # loss curve is monotone up to a few transient ticks (at the default,
        # more aggressive lr the descent holds at the 100-iteration scale but
        # individual iterations overshoot; see test_loss_decreases)
        scene = fixture_scene
        monkeypatch.setattr(gan, "LR_G", 5e-4)
        monkeypatch.setattr(gan, "ADV_WEIGHT", 0.0)
        cfg = TrainingConfig(iterations=100, seed=1, ratio=scene.ratio)
        _, log = gan.train(scene.ms, scene.pan, cfg)
        total = log.column("total_G")
        upticks = int(np.sum(np.diff(total) > 0))
        assert upticks <= 5
        assert total[-1] < 0.2 * total[0]

    def test_initial_spectral_loss_matches_bicubic(self, small_scene):
        scene = small_scene
        cfg = TrainingConfig(iterations=1, seed=2, ratio=scene.ratio)
        _, log = gan.train(scene.ms, scene.pan, cfg)
        bicubic = upsample(scene.ms, scene.ratio)
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

    def test_cast_overflow_names_op_and_iteration(self, small_scene, monkeypatch):
        # weights this large put the fused intensity beyond float32, so the
        # spatial critic's input cast overflows
        scene = small_scene
        monkeypatch.setattr(
            gan, "estimate_weights", lambda ms_up, pan: IntensityWeights(np.full(4, 1e39))
        )
        with pytest.raises(TrainingDivergenceError, match=r"'cast' \(iteration 1\)") as info:
            gan.train(scene.ms, scene.pan, TrainingConfig(iterations=2, ratio=scene.ratio))
        assert info.value.iteration == 1

    def test_critic_weights_beyond_float32_diverge(self, small_scene, monkeypatch):
        # the first critic step moves every weight by about LR_D; cast to
        # float32 in the generator step they overflow, without a warning
        scene = small_scene
        monkeypatch.setattr(gan, "LR_D", 1e39)
        cfg = TrainingConfig(iterations=2, ratio=scene.ratio)
        with pytest.raises(TrainingDivergenceError, match=r"'conv2d' \(iteration 1\)"):
            gan.train(scene.ms, scene.pan, cfg)

    def test_networks_run_in_float32_the_rest_in_float64(self, small_scene, monkeypatch, tmp_path):
        scene = small_scene
        conv_dtypes, state_dtypes = set(), set()
        conv2d, adam_step = ad.conv2d, ad.adam_step

        def recording_conv2d(x, *args, **kwargs):
            out = conv2d(x, *args, **kwargs)
            conv_dtypes.add((x.data.dtype, out.data.dtype))
            return out

        def recording_adam_step(params, lr):
            state_dtypes.update(p.grad.dtype for _, p in params.items())
            adam_step(params, lr)
            state_dtypes.update(p.data.dtype for _, p in params.items())
            state_dtypes.update(m.dtype for m in params._m.values())
            state_dtypes.update(v.dtype for v in params._v.values())

        monkeypatch.setattr(ad, "conv2d", recording_conv2d)
        monkeypatch.setattr(ad, "adam_step", recording_adam_step)
        params, _ = gan.train(scene.ms, scene.pan, TrainingConfig(iterations=2, ratio=scene.ratio))
        assert conv_dtypes == {(np.dtype(np.float32), np.dtype(np.float32))}
        assert state_dtypes == {np.dtype(np.float64)}
        ad.save_checkpoint(params, tmp_path / "g.pfck")
        loaded = ad.load_checkpoint(tmp_path / "g.pfck")
        for name, p in params.items():
            assert loaded[name].data.dtype == np.float64
            assert loaded[name].data.tobytes() == p.data.tobytes()

    def test_generator_pass_reaches_no_critic_parameter(self, small_scene, monkeypatch):
        # the generator step scores through the critics frozen by value, so its
        # backward pass leaves every critic gradient unset
        scene = small_scene
        critics, unset = [], []
        init_params, backward = DiscriminatorSpec.init_params, ad.backward

        def recording_init_params(spec, rng, prefix):
            params = init_params(spec, rng, prefix)
            critics.append(params)
            return params

        def recording_backward(loss):
            backward(loss)
            unset.append([p.grad is None for params in critics for _, p in params.items()])

        monkeypatch.setattr(DiscriminatorSpec, "init_params", recording_init_params)
        monkeypatch.setattr(ad, "backward", recording_backward)
        gan.train(scene.ms, scene.pan, TrainingConfig(iterations=2, ratio=scene.ratio))
        # per iteration: the spectral critic's pass, the spatial critic's, the generator's
        assert len(unset) == 6
        assert not all(unset[0]) and not all(unset[1])
        assert all(unset[2]) and all(unset[5])

    def test_critic_inputs_are_formed_once_per_iteration(self, small_scene, monkeypatch):
        # the degraded output and the intensity feed both a critic step and the
        # generator step; spectral_loss forms its own block mean
        scene = small_scene
        calls = {"block_mean": 0, "channel_weighted_sum": 0}
        for op in calls:
            original = getattr(ad, op)

            def counted(*args, _op=op, _original=original, **kwargs):
                calls[_op] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(ad, op, counted)
        gan.train(scene.ms, scene.pan, TrainingConfig(iterations=3, ratio=scene.ratio))
        assert calls == {"block_mean": 6, "channel_weighted_sum": 3}

    def test_total_is_weighted_sum(self, small_scene):
        scene = small_scene
        cfg = TrainingConfig(iterations=5, seed=4, ratio=scene.ratio)
        _, log = gan.train(scene.ms, scene.pan, cfg)
        for row in log.rows:
            _, l1, l2, advs, advt, _, _, total = row
            expected = l1 + l2 + gan.ADV_WEIGHT * advs + gan.ADV_WEIGHT * advt
            assert abs(total - expected) < 1e-12

    def test_total_is_the_optimised_loss_bitwise(self, monkeypatch):
        # the log columns must add up to the loss training optimises, in its order
        scene = synth_scene(seed=9, width=32, height=32, bands=3, ratio=2)
        monkeypatch.setattr(gan, "ADV_WEIGHT", 0.05)
        cfg = TrainingConfig(iterations=3, seed=6, ratio=2)
        _, log = gan.train(scene.ms, scene.pan, cfg)
        assert len(log.rows) == 3
        for _, l1, l2, advs, advt, _, _, total in log.rows:
            expected = (l1 + l2) + (0.05 * advs + 0.05 * advt)
            assert total == expected


class TestFuse:
    def test_zero_head_checkpoint_is_near_bicubic(self, small_scene):
        scene = small_scene
        spec = GeneratorSpec(bands=scene.ms.band_count)
        params = spec.init_params(np.random.default_rng(12))
        product = gan.fuse(params, scene.ms, scene.pan, scene.ratio)
        bicubic = upsample(scene.ms, scene.ratio)
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


def random_head_checkpoint(bands, seed):
    """A generator whose head and biases are random, not zero: with the zero
    head of ``init_params`` the output ignores the hidden layers, and a halo
    too small for them would go unseen."""
    spec = GeneratorSpec(bands=bands)
    rng = np.random.default_rng(seed)
    params = spec.init_params(rng)
    for name in ("gen.conv1.bias", "gen.conv2.bias", "gen.head.weight", "gen.head.bias"):
        params[name].data = rng.normal(0.0, 0.1, params[name].data.shape)
    return spec, params


class TestFuseTiles:
    # (PAN width, height, ratio, rows of a band); the generator's halo is 3 rows
    @pytest.mark.parametrize(
        "width, height, ratio, band_rows",
        [
            pytest.param(256, 256, 4, 64, id="divisor"),
            pytest.param(256, 256, 4, 40, id="non-divisor-40"),
            pytest.param(256, 256, 4, 100, id="non-divisor-100"),
            pytest.param(24, 24, 4, 2, id="tile-below-halo"),
            pytest.param(128, 128, 2, 40, id="ratio-2"),
            pytest.param(160, 96, 4, 40, id="non-square"),
            # four bands of the whole width: square tiles would run some GEMMs
            # at another width, and could sum in another order
            pytest.param(1024, 64, 4, 16, id="1024x64"),
            pytest.param(64, 48, 4, 1, id="one-row"),
        ],
    )
    def test_bands_match_the_whole_image_pass(self, monkeypatch, width, height, ratio, band_rows):
        scene = synth_scene(seed=21, width=width, height=height, bands=4, ratio=ratio)
        spec, params = random_head_checkpoint(4, 22)
        monkeypatch.setattr(raster, "_BAND_ELEMENTS", band_rows * width)
        got = gan.fuse(params, scene.ms, scene.pan, ratio).data
        frozen = {name: Tensor(p.data) for name, p in params.items()}
        ms_up = upsample(scene.ms, ratio).data
        want = spec.forward(frozen, Tensor(ms_up), Tensor(scene.pan.data[None])).data
        # the head moves the output well away from the bicubic input
        assert np.abs(want - ms_up).max() > 0.05
        # a band keeps the whole width, so each GEMM sums as the whole image's
        np.testing.assert_array_equal(got, want)

    def test_tap_tables_are_built_once_a_call(self, monkeypatch):
        # one row and one column table, not one of each for each band
        scene = synth_scene(seed=21, width=256, height=256, bands=4, ratio=4)
        _, params = random_head_checkpoint(4, 22)
        monkeypatch.setattr(raster, "_BAND_ELEMENTS", 40 * 256)
        built, build = [], raster._bicubic_axis_taps
        monkeypatch.setattr(raster, "_bicubic_axis_taps",
                            lambda *args: built.append(args) or build(*args))
        gan.fuse(params, scene.ms, scene.pan, 4)
        assert built == [(64, 4), (64, 4)]

    @pytest.mark.parametrize("size", [256, 1024])
    def test_memory_is_set_by_the_tile(self, monkeypatch, size):
        # bands of 64 * 64 PAN pixels, 4 rows at 1024 wide: a 16-channel
        # activation of one band and its halo is 0.6 MB there; the whole-image
        # pass holds 64 MB per activation at 1024^2
        scene = synth_scene(seed=23, width=size, height=size, bands=4, ratio=4)
        _spec, params = random_head_checkpoint(4, 24)
        monkeypatch.setattr(raster, "_BAND_ELEMENTS", 64 * 64)
        tracemalloc.start()
        try:
            product = gan.fuse(params, scene.ms, scene.pan, 4)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        result = product.data.nbytes
        assert peak - result < 8 * 2**20, f"{(peak - result) / 2**20:.1f} MB beyond the result"

    def test_numerical_error_names_the_tile(self, small_scene, monkeypatch):
        # PAN is zero but for a patch inside the band of rows 32-63 and outside
        # the halo of the other; a PAN weight near the float32 limit overflows
        # only there, and stays finite as a float32 weight
        scene = small_scene
        pan = np.zeros((scene.pan.height, scene.pan.width))
        pan[40:44, 40:44] = 1.0
        _spec, params = random_head_checkpoint(4, 25)
        params["gen.conv1.weight"].data[:, 4] = 3e38
        monkeypatch.setattr(raster, "_BAND_ELEMENTS", 32 * scene.pan.width)
        with np.errstate(over="ignore"), pytest.raises(
            NumericalError, match="in PAN rows 32-63$"
        ):
            gan.fuse(params, scene.ms, RasterBand(pan), scene.ratio)

    def test_nan_bias_names_the_first_tile(self, small_scene):
        scene = small_scene
        _spec, params = random_head_checkpoint(4, 26)
        params["gen.conv2.bias"].data[3] = np.nan
        with pytest.raises(NumericalError, match="'conv2d' in PAN rows 0-63$"):
            gan.fuse(params, scene.ms, scene.pan, scene.ratio)
