"""Acceptance suite: one test per criterion, each printing a PASS line.

Criteria are property- and oracle-based; the QNR product form is additionally
cross-checked against published rounded values.  Frozen regression numbers
were recorded from the first verified implementation run on the seed-7
fixture scene (see test bodies).
"""

import time

import numpy as np
import pytest

import oracles
from panfuse import autodiff as ad
from panfuse import gan
from panfuse.autodiff import Tensor
from panfuse.cli import main
from panfuse.gan import TrainingConfig, spatial_loss, spectral_loss
from panfuse.harness import baseline_fuse, synth_scene, wald_reduce
from panfuse.metrics import (
    MetricConfig,
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
from panfuse.raster import (
    IntensityWeights,
    MultispectralImage,
    RasterBand,
    mtf_degrade,
)

pytestmark = pytest.mark.acceptance


def _report(criterion, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"\nACCEPTANCE criterion {criterion}: PASS{suffix}")


@pytest.fixture(scope="module")
def scene():
    return synth_scene(seed=7, width=256, height=256, bands=4, ratio=4)


class TestCriterion1MetricIdentities:
    def test_ideal_rows(self, scene):
        start = time.perf_counter()
        reduced = evaluate_reduced(scene.gt_hrms, scene.gt_hrms)
        assert abs(reduced.entries["SAM"]) < 1e-9
        assert abs(reduced.entries["ERGAS"]) < 1e-9
        assert abs(reduced.entries["CC"] - 1.0) < 1e-9
        assert abs(reduced.entries["UIQI"] - 1.0) < 1e-9
        assert abs(reduced.entries["Q4"] - 1.0) < 1e-9

        pan = scene.pan
        pan_low = mtf_degrade(pan, scene.ratio)
        ideal_f = MultispectralImage(np.stack([pan.data] * 4))
        ideal_m = MultispectralImage(np.stack([pan_low.data] * 4))
        full = evaluate_full(ideal_f, ideal_m, pan, pan_low)
        assert abs(full.entries["D_lambda"]) < 1e-9
        assert abs(full.entries["D_s"]) < 1e-9
        assert abs(full.entries["QNR"] - 1.0) < 1e-9
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0
        _report(1, f"metric identities, {elapsed:.2f}s")


class TestCriterion2QnrPaperValues:
    def test_published_rounded_values(self):
        assert qnr(0.04, 0.04) == 0.9216
        assert round(qnr(0.04, 0.04), 2) == 0.92
        assert abs(qnr(0.02, 0.01) - 0.9702) < 1e-15
        assert round(qnr(0.02, 0.01), 2) == 0.97
        _report(2, "QNR cross-check 0.9216 / 0.9702")


class TestCriterion3OracleEquivalence:
    def test_twenty_seeded_inputs(self):
        start = time.perf_counter()
        cfg = MetricConfig()
        small = MetricConfig(window=8, stride=8)
        for seed in range(20):
            rng = np.random.default_rng(1000 + seed)
            f = rng.uniform(size=(4, 64, 64))
            m = rng.uniform(size=(4, 64, 64))
            fi = MultispectralImage(f)
            mi = MultispectralImage(m)

            assert abs(
                uiqi(RasterBand(f[0]), RasterBand(m[0]), cfg)
                - oracles.naive_uiqi(f[0], m[0], 32, 32)
            ) < 1e-8
            assert abs(q4(fi, mi, cfg) - oracles.naive_q4(f, m, 32, 32)) < 1e-8
            np.testing.assert_allclose(
                sam_map(fi, mi).data, oracles.naive_sam_map(f, m), atol=1e-8
            )
            assert abs(
                cc(RasterBand(f[0]), RasterBand(m[0])) - oracles.naive_cc(f[0], m[0])
            ) < 1e-8
            assert abs(ergas(fi, mi, cfg) - oracles.naive_ergas(f, m, 0.25)) < 1e-8

            m_lo = rng.uniform(size=(4, 16, 16))
            lo = MultispectralImage(m_lo)
            assert abs(
                d_lambda(lo, fi, small)
                - oracles.naive_d_lambda(m_lo, f, 8, 8, 1, 4)
            ) < 1e-8
            pan = rng.uniform(size=(64, 64))
            pan_low = rng.uniform(size=(16, 16))
            assert abs(
                d_s(lo, fi, RasterBand(pan), RasterBand(pan_low), small)
                - oracles.naive_d_s(m_lo, f, pan, pan_low, 8, 8, 1, 4)
            ) < 1e-8
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0
        _report(3, f"20 seeds vs brute-force oracles, {elapsed:.1f}s")


class TestCriterion4HandValues:
    def test_hand_computed_cases(self):
        a = RasterBand(np.array([[1.0, 2.0], [3.0, 4.0]]))
        b = RasterBand(np.array([[2.0, 4.0], [6.0, 8.0]]))
        assert abs(uiqi(a, b, MetricConfig(window=2, stride=2)) - 0.64) < 1e-12

        f = MultispectralImage(np.array([[[1.0]], [[0.0]]]))
        m = MultispectralImage(np.array([[[0.0]], [[1.0]]]))
        assert abs(sam_global(f, m) - 90.0) < 1e-9

        ref = MultispectralImage(np.full((1, 4, 4), 0.5))
        fused = MultispectralImage(np.full((1, 4, 4), 0.55))
        assert abs(ergas(fused, ref, MetricConfig()) - 2.5) < 1e-12
        _report(4, "UIQI 0.64, SAM 90 deg, ERGAS 2.5")


class TestCriterion5GradientChecks:
    def test_primitives_and_composite_losses(self):
        start = time.perf_counter()
        from test_autodiff import PRIMITIVE_CASES

        worst = 0.0
        for seed in range(20):
            rng = np.random.default_rng(2000 + seed)
            for name, fn in sorted(PRIMITIVE_CASES.items()):
                if name in ("add", "sub", "mul", "div", "covariance", "concat_channels"):
                    arrays = [rng.uniform(0.5, 1.5, size=(3, 4, 4)) for _ in range(2)]
                else:
                    arrays = [rng.uniform(0.5, 1.5, size=(3, 4, 4))]
                tensors = [Tensor(a.copy(), requires_grad=True) for a in arrays]
                ad.backward(fn(tensors))
                numeric = oracles.finite_difference_grads(
                    lambda arrs: fn([Tensor(a) for a in arrs]).item(), arrays
                )
                for t, n in zip(tensors, numeric):
                    worst = max(worst, oracles.max_relative_error(t.grad, n))
        assert worst < 1e-3

        # composite losses on 8x8 scenes, gradients into the fused image
        worst_losses = 0.0
        for seed in range(20):
            rng = np.random.default_rng(3000 + seed)
            ms = MultispectralImage(rng.uniform(0.2, 0.8, size=(2, 4, 4)))
            fused0 = rng.uniform(0.2, 0.8, size=(2, 8, 8))
            t = Tensor(fused0.copy(), requires_grad=True)
            ad.backward(spectral_loss(t, ms, 2))
            numeric = oracles.finite_difference_grads(
                lambda arrs: spectral_loss(Tensor(arrs[0]), ms, 2).item(), [fused0]
            )[0]
            worst_losses = max(worst_losses, oracles.max_relative_error(t.grad, numeric))

            pan = RasterBand(rng.uniform(0.2, 0.8, size=(8, 8)))
            weights = IntensityWeights(np.array([0.4, 0.6]), 0.01)
            t = Tensor(fused0.copy(), requires_grad=True)
            ad.backward(spatial_loss(t, pan, weights))
            numeric = oracles.finite_difference_grads(
                lambda arrs: spatial_loss(Tensor(arrs[0]), pan, weights).item(),
                [fused0],
            )[0]
            worst_losses = max(worst_losses, oracles.max_relative_error(t.grad, numeric))
        assert worst_losses < 1e-3
        elapsed = time.perf_counter() - start
        assert elapsed < 120.0
        _report(
            5,
            f"max rel err primitives {worst:.2e}, losses {worst_losses:.2e}, "
            f"{elapsed:.1f}s",
        )


class TestCriterion6TrainingDynamics:
    def test_training_improves_over_exp(self, scene):
        start = time.perf_counter()
        cfg = TrainingConfig(iterations=500, seed=0, ratio=scene.ratio)
        params_a, log_a = gan.train(scene.ms, scene.pan, cfg)
        params_b, _ = gan.train(scene.ms, scene.pan, cfg)

        # (c) bitwise determinism of the full training run
        bytes_a = ad.checkpoint_bytes(params_a)
        assert bytes_a == ad.checkpoint_bytes(params_b)

        # (a) total generator loss at iteration 500 under half of iteration 1
        total = log_a.column("total_G")
        assert total[-1] < 0.5 * total[0]

        # (b) fused result beats plain upsampling by >= 20% on SAM and ERGAS
        fused = gan.fuse(params_a, scene.ms, scene.pan, scene.ratio)
        rep_gan = evaluate_reduced(fused, scene.gt_hrms)
        rep_exp = evaluate_reduced(
            baseline_fuse("exp", scene.ms, scene.pan, scene.ratio), scene.gt_hrms
        )
        sam_gain = 1.0 - rep_gan.entries["SAM"] / rep_exp.entries["SAM"]
        ergas_gain = 1.0 - rep_gan.entries["ERGAS"] / rep_exp.entries["ERGAS"]
        assert sam_gain >= 0.20
        assert ergas_gain >= 0.20
        elapsed = time.perf_counter() - start
        assert elapsed < 600.0
        _report(
            6,
            f"loss {total[0]:.4f}->{total[-1]:.4f}, SAM {sam_gain:+.0%}, "
            f"ERGAS {ergas_gain:+.0%}, {elapsed/60:.1f} min",
        )


class TestCriterion7ProtocolPlumbing:
    def test_wald_sizes_and_cli_reproducibility(self, tmp_path):
        rng = np.random.default_rng(4000)
        ms = MultispectralImage(rng.uniform(size=(4, 256, 256)))
        pan = RasterBand(rng.uniform(size=(1024, 1024)))
        ms_lo, pan_lo, reference = wald_reduce(ms, pan, 4)
        assert (ms_lo.height, ms_lo.width) == (64, 64)
        assert (pan_lo.height, pan_lo.width) == (256, 256)
        assert reference is ms

        # identical commands rerun from scratch must reproduce every byte,
        # including the echoed configuration in the kv reports
        outputs = []
        for name in ("a", "b"):
            out = tmp_path / name
            out.mkdir()
            monkeypatch_chdir = pytest.MonkeyPatch()
            monkeypatch_chdir.chdir(out)
            try:
                (out / "win.cfg").write_text("window = 8\nstride = 8\n")
                for argv in (
                    ["synth", "--seed", "7", "--size", "64", "--bands", "4",
                     "--ratio", "4", "--out", "."],
                    ["degrade", "--out", "."],
                    ["fuse", "--method", "cs", "--out", "."],
                    ["eval", "--mode", "reduced", "--out", ".",
                     "--config", "win.cfg"],
                ):
                    assert main(argv) == 0
            finally:
                monkeypatch_chdir.undo()
            outputs.append(out)
        a, b = outputs
        for name in ("ms_lo.pfr", "pan_lo.pfr", "fused_cs.pfr",
                     "eval_reduced_cs.csv", "eval_reduced_cs.kv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()
        _report(7, "256/1024 -> 64/256 and byte-identical CLI reruns")


class TestCriterion8BaselineOrdering:
    def test_cs_and_glp_beat_exp(self, scene):
        cfg = MetricConfig()
        pan_low = mtf_degrade(scene.pan, scene.ratio)
        rows = {}
        for method in ("exp", "cs", "glp"):
            product = baseline_fuse(method, scene.ms, scene.pan, scene.ratio)
            reduced = evaluate_reduced(product, scene.gt_hrms, cfg)
            full = evaluate_full(product, scene.ms, scene.pan, pan_low, cfg)
            rows[method] = (reduced.entries["ERGAS"], full.entries["QNR"])
        assert rows["cs"][0] < rows["exp"][0]
        assert rows["glp"][0] < rows["exp"][0]
        assert rows["cs"][1] > rows["exp"][1]
        assert rows["glp"][1] > rows["exp"][1]

        # frozen regression values from the first verified run (seed-7 fixture)
        frozen = FROZEN_FIXTURE_VALUES
        for method, (ergas_val, qnr_val) in rows.items():
            assert ergas_val == pytest.approx(frozen[method]["ERGAS"], rel=1e-6)
            assert qnr_val == pytest.approx(frozen[method]["QNR"], rel=1e-6)
        _report(
            8,
            "ERGAS exp {:.3f} > cs {:.3f}, glp {:.3f}; QNR ordering holds".format(
                rows["exp"][0], rows["cs"][0], rows["glp"][0]
            ),
        )


# recorded from the first oracle-verified implementation run; guards against
# silent drift of the fixture or the baseline fusers
FROZEN_FIXTURE_VALUES = {
    "exp": {"ERGAS": 1.1547766511890896, "QNR": 0.9818017176397178},
    "cs": {"ERGAS": 0.6215064787107801, "QNR": 0.9982486760527364},
    "glp": {"ERGAS": 0.5822696043592985, "QNR": 0.9940839905836566},
}
