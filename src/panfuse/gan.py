"""Unsupervised generative fusion: generator, dual discriminators, training loop.

The generator refines a bicubic upsample of the MS input with a small residual
CNN conditioned on the PAN band.  Two critics push the refinement from both
sides: a spectral discriminator sees MS-scale images (real: the original MS;
fake: the degraded generator output) and a spatial discriminator sees
PAN-scale intensities (real: the PAN band; fake: the intensity of the
generator output).  The generator objective combines two differentiable
similarity-index losses with small non-saturating adversarial terms.

Training is single-image and fully deterministic given the seed: there is no
reference target and no dataset split.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import ParameterSet, Tensor
from .errors import (
    DegenerateInputError,
    InvalidInputError,
    NumericalError,
    TrainingDivergenceError,
)
from .raster import (
    IntensityWeights,
    MultispectralImage,
    RasterBand,
    _bicubic_taps,
    _bicubic_up,
    _keep_freed_memory,
    check_pan_scale,
    csv_format,
    estimate_weights,
    histogram_match,
    parse_csv_table,
    row_bands,
    upsample,
)


# The one architecture of both networks: 3x3 kernels and leaky ReLUs of slope
# 0.2; a generator of 16 hidden channels; critics of three stride-2 layers
KERNEL = 3
SLOPE = 0.2
HIDDEN_CHANNELS = 16
CRITIC_CHANNELS = (16, 32, 32)
CRITIC_STRIDE = 2


def _he_uniform(rng: np.random.Generator, shape: tuple) -> np.ndarray:
    _, c_in, k, _ = shape
    limit = math.sqrt(6.0 / (c_in * k * k))
    return rng.uniform(-limit, limit, size=shape)


@dataclass(frozen=True)
class GeneratorSpec:
    """Residual fusion network: two hidden 3x3 conv layers, zero-initialized head.

    Input is the upsampled MS stacked with PAN (K+1 channels); the head output
    is added to the upsampled MS and squashed onto (0, 1), so a zero head
    reproduces the bicubic upsample through the soft clamp.  The conv layers
    run in the dtype of the stacked input, float32 in training and in
    :func:`fuse`: :meth:`forward` casts it once; the sum with the float64
    upsample is float64.
    """

    bands: int

    def param_shapes(self) -> dict:
        """The shape of each parameter, in the order :meth:`init_params` draws them."""
        shapes = {}
        c_in = self.bands + 1
        for layer, c_out in (("conv1", HIDDEN_CHANNELS), ("conv2", HIDDEN_CHANNELS),
                             ("head", self.bands)):
            shapes[f"gen.{layer}.weight"] = (c_out, c_in, KERNEL, KERNEL)
            shapes[f"gen.{layer}.bias"] = (c_out,)
            c_in = c_out
        return shapes

    def init_params(self, rng: np.random.Generator) -> ParameterSet:
        params = ParameterSet()
        for name, shape in self.param_shapes().items():
            drawn = name in ("gen.conv1.weight", "gen.conv2.weight")
            params.add(name, _he_uniform(rng, shape) if drawn else np.zeros(shape))
        return params

    def forward(self, params, ms_up: Tensor, pan: Tensor) -> Tensor:
        stacked = ad.cast(ad.concat_channels(ms_up, pan), np.float32)
        return self.forward_from(params, stacked, ms_up)

    def forward_from(self, params, stacked: Tensor, ms_up: Tensor) -> Tensor:
        """Forward pass on a prebuilt (K+1, H, W) input; lets training loops
        reuse one constant input tensor across iterations."""
        h = stacked
        for layer in ("conv1", "conv2"):
            h = ad.conv2d(
                h, params[f"gen.{layer}.weight"], params[f"gen.{layer}.bias"], slope=SLOPE
            )
        residual = ad.conv2d(h, params["gen.head.weight"], params["gen.head.bias"])
        return ad.clamp_smooth(ad.add(ms_up, residual))


@dataclass(frozen=True)
class DiscriminatorSpec:
    """Three strided 3x3 conv layers, then a mean-pooled sigmoid score in (0, 1).

    The conv layers run in float32; the pooled mean is cast back to float64.
    """

    in_channels: int

    def init_params(self, rng: np.random.Generator, prefix: str) -> ParameterSet:
        params = ParameterSet()
        c_in = self.in_channels
        for i, c_out in enumerate(CRITIC_CHANNELS, start=1):
            params.add(f"{prefix}.conv{i}.weight", _he_uniform(rng, (c_out, c_in, KERNEL, KERNEL)))
            params.add(f"{prefix}.conv{i}.bias", np.zeros(c_out))
            c_in = c_out
        return params

    def forward(self, params, x: Tensor, prefix: str) -> Tensor:
        h = ad.cast(x, np.float32)
        for i in range(1, len(CRITIC_CHANNELS) + 1):
            h = ad.conv2d(
                h,
                params[f"{prefix}.conv{i}.weight"],
                params[f"{prefix}.conv{i}.bias"],
                stride=CRITIC_STRIDE,
                slope=SLOPE,
            )
        return ad.sigmoid(ad.cast(ad.mean(h), np.float64))


# Adam's learning rates of the generator and of both critics
LR_G, LR_D = 5e-3, 1e-3
# the weight of each adversarial term of the generator loss; both consistency
# terms weigh 1
ADV_WEIGHT = 0.01


@dataclass(frozen=True)
class TrainingConfig:
    """Iteration budget, seed and PAN-to-MS ratio of :func:`train`; the learning
    rates and loss weights are the constants ``LR_G``, ``LR_D`` and ``ADV_WEIGHT``."""

    iterations: int = 500
    seed: int = 0
    ratio: int = 4

    def __post_init__(self):
        if self.iterations < 1:
            raise InvalidInputError("iterations must be >= 1")
        if self.ratio < 1:
            raise InvalidInputError("ratio must be >= 1")
        if self.seed < 0:
            raise InvalidInputError(f"seed must be >= 0, got {self.seed}")


LOG_COLUMNS = (
    "iteration",
    "L1",
    "L2",
    "adv_G_spec",
    "adv_G_spat",
    "D_spec_loss",
    "D_spat_loss",
    "total_G",
)


@dataclass
class TrainingLog:
    """Per-iteration loss record; L1/L2/adv columns are unweighted components."""

    rows: list = field(default_factory=list)

    def append(self, **values):
        self.rows.append(tuple(float(values[c]) for c in LOG_COLUMNS))

    def column(self, name: str) -> np.ndarray:
        idx = LOG_COLUMNS.index(name)
        return np.array([row[idx] for row in self.rows])

    def to_csv(self) -> str:
        return csv_format(
            LOG_COLUMNS, ([f"{int(row[0])}"] + [repr(v) for v in row[1:]] for row in self.rows)
        )

    @staticmethod
    def parse_csv(text: str) -> "TrainingLog":
        return TrainingLog(parse_csv_table(text, LOG_COLUMNS, "training-log"))


# ---------------------------------------------------------------------------
# differentiable losses


def spectral_loss(fused: Tensor, ms: MultispectralImage, r: int) -> Tensor:
    """1 - the mean over bands of Q(block-averaged fused band, original MS band).

    The fused image is degraded back to MS scale with a differentiable r x r
    block average, so the loss value lies in [0, 2].
    """
    r = int(r)
    k, h, w = fused.shape
    if k != ms.band_count or h != ms.height * r or w != ms.width * r:
        raise InvalidInputError(
            f"fused {fused.shape} does not match {ms.band_count}x{ms.height}x{ms.width} "
            f"ms at ratio {r}"
        )
    return 1.0 - ad.mean(ad.similarity(ad.block_mean(fused, r), Tensor(ms.data)))


def intensity_of(fused: Tensor, weights: IntensityWeights) -> Tensor:
    """Differentiable intensity component of a fused image: (1, H, W)."""
    return ad.channel_weighted_sum(fused, weights.weights, weights.bias)


def _spatial_loss_from_intensity(intensity: Tensor, pan: RasterBand) -> Tensor:
    i_band = RasterBand(intensity.data[0])
    if float(i_band.data.std(ddof=1)) == 0.0:
        raise DegenerateInputError("intensity of the fused image is constant")
    if float(pan.data.std(ddof=1)) == 0.0:
        raise DegenerateInputError("pan band is constant")
    # PAN is moment-matched to the intensity; the matching statistics are
    # detached so gradients flow only through the intensity argument of Q.
    matched = histogram_match(pan, i_band).data
    return 1.0 - ad.mean(ad.similarity(intensity, Tensor(matched[None])))


def spatial_loss(fused: Tensor, pan: RasterBand, weights: IntensityWeights) -> Tensor:
    """1 - Q between the fused intensity and the moment-matched PAN band."""
    if fused.shape[1:] != (pan.height, pan.width):
        raise InvalidInputError(
            f"fused {fused.shape} and pan {pan.height}x{pan.width} dimensions differ"
        )
    return _spatial_loss_from_intensity(intensity_of(fused, weights), pan)


def _check_score(score: Tensor, name: str) -> None:
    # the sigmoid of a large critic output rounds to exactly 0 or 1: the critic
    # has saturated, which is a divergence of training, not bad input
    v = float(score.data)
    if not (0.0 < v < 1.0):
        raise NumericalError(f"{name} score {v} outside (0, 1)")


def discriminator_loss(real_score: Tensor, fake_score: Tensor, critic: str = "critic") -> Tensor:
    """Binary cross-entropy critic loss: -log D(real) - log(1 - D(fake)).

    ``critic`` names the critic in the error raised for a saturated score.
    """
    _check_score(real_score, f"{critic} real")
    _check_score(fake_score, f"{critic} fake")
    return ad.neg(ad.log(real_score)) + ad.neg(ad.log(1.0 - fake_score))


def generator_loss(
    l1: Tensor, l2: Tensor, score_spec: Tensor, score_spat: Tensor
) -> tuple[Tensor, Tensor, Tensor]:
    """The generator objective l1 + l2 + ADV_WEIGHT * (-log D(fake)), per critic.

    Returns the total and the two unweighted adversarial terms -log D(fake).
    """
    _check_score(score_spec, "spectral critic fake")
    _check_score(score_spat, "spatial critic fake")
    adv_spec = ad.neg(ad.log(score_spec))
    adv_spat = ad.neg(ad.log(score_spat))
    weighted = ad.scalar_mul(adv_spec, ADV_WEIGHT) + ad.scalar_mul(adv_spat, ADV_WEIGHT)
    return l1 + l2 + weighted, adv_spec, adv_spat


# ---------------------------------------------------------------------------
# training and inference


def _frozen(params) -> dict:
    """``params`` by value: tensors that no gradient reaches."""
    return {name: Tensor(p.data) for name, p in params.items()}


def train(
    ms: MultispectralImage, pan: RasterBand, cfg: TrainingConfig
) -> tuple[ParameterSet, TrainingLog]:
    """Alternating critic/generator optimization on a single MS/PAN pair.

    Per iteration: run the generator on (bicubic-upsampled MS, PAN); update the
    spectral critic on (real MS, degraded fused); update the spatial critic on
    (real PAN, fused intensity); then update the generator on the combined
    loss.  Everything is derived from ``cfg.seed``, so runs are reproducible
    bit for bit.  The process keeps the memory each iteration frees for the
    next (raster._keep_freed_memory).
    """
    _keep_freed_memory()
    r = cfg.ratio
    check_pan_scale(ms, pan, r)
    k = ms.band_count
    gen, disc_spec, disc_spat = GeneratorSpec(k), DiscriminatorSpec(k), DiscriminatorSpec(1)
    rng = np.random.default_rng(cfg.seed)
    # the parameters are drawn from ``rng`` in this order
    g_params = gen.init_params(rng)
    ds_params = disc_spec.init_params(rng, "dspec")
    dt_params = disc_spat.init_params(rng, "dspat")
    ms_up = upsample(ms, r)
    weights = estimate_weights(ms_up, pan)
    ms_up_t, pan_t, ms_real = Tensor(ms_up.data), Tensor(pan.data[None]), Tensor(ms.data)
    # the generator input, constant across iterations; the generator's layers
    # run in its dtype
    gen_input = ad.cast(ad.concat_channels(ms_up_t, pan_t), np.float32)
    log = TrainingLog()

    # one iteration; its tapes are freed when it returns, before the next
    def iteration(it: int) -> None:
        fused = gen.forward_from(g_params, gen_input, ms_up_t)
        degraded = ad.block_mean(fused, r)
        intensity = intensity_of(fused, weights)

        # spectral critic: original MS vs degraded generator output
        d_spec_loss = discriminator_loss(
            disc_spec.forward(ds_params, ms_real, "dspec"),
            disc_spec.forward(ds_params, degraded.detach(), "dspec"),
            "spectral critic",
        )
        ad.backward(d_spec_loss)
        ad.adam_step(ds_params, LR_D)

        # spatial critic: original PAN vs intensity of the generator output
        d_spat_loss = discriminator_loss(
            disc_spat.forward(dt_params, pan_t, "dspat"),
            disc_spat.forward(dt_params, intensity.detach(), "dspat"),
            "spatial critic",
        )
        ad.backward(d_spat_loss)
        ad.adam_step(dt_params, LR_D)

        # generator: consistency losses plus adversarial terms of the updated
        # critics, frozen by value
        l1 = spectral_loss(fused, ms, r)
        l2 = _spatial_loss_from_intensity(intensity, pan)
        total, adv_spec, adv_spat = generator_loss(
            l1,
            l2,
            disc_spec.forward(_frozen(ds_params), degraded, "dspec"),
            disc_spat.forward(_frozen(dt_params), intensity, "dspat"),
        )
        if not math.isfinite(total.item()):
            raise TrainingDivergenceError("generator loss is non-finite", iteration=it)
        ad.backward(total)
        ad.adam_step(g_params, LR_G)

        log.append(
            iteration=it,
            L1=l1.item(),
            L2=l2.item(),
            adv_G_spec=adv_spec.item(),
            adv_G_spat=adv_spat.item(),
            D_spec_loss=d_spec_loss.item(),
            D_spat_loss=d_spat_loss.item(),
            total_G=total.item(),
        )

    for it in range(1, cfg.iterations + 1):
        try:
            iteration(it)
        except TrainingDivergenceError:
            raise
        except NumericalError as exc:
            raise TrainingDivergenceError(str(exc), iteration=it) from exc
    return g_params, log


def checkpoint_hash(params: ParameterSet) -> str:
    return hashlib.sha256(ad.checkpoint_bytes(params)).hexdigest()[:16]


# the generator's receptive-field radius: KERNEL // 2 for each of its 3 layers
_FUSE_HALO = 3 * (KERNEL // 2)


def fuse(
    params: ParameterSet, ms: MultispectralImage, pan: RasterBand, r: int
) -> MultispectralImage:
    """Single deterministic forward pass with a frozen checkpoint.

    ``params`` must hold the six ``gen.*`` parameters of the one generator
    architecture for the bands of ``ms``, each of the shape that
    :meth:`GeneratorSpec.init_params` gives it.  The generator runs on the
    full-width ``raster.row_bands`` of the PAN grid, so a band's activations,
    not the scene's, bound the memory of inference.  Each band is read with a
    halo of ``_FUSE_HALO`` rows, cut at the image border, so every kept pixel
    reads the same inputs as in the whole-image pass: inside, the halo holds
    every row it reads; at the border, conv2d pads with the same zeros.  Each
    band's bicubic input is upsampled from the MS directly, by tap tables
    built once for the whole grid.  The layers run
    in float32, as in training, and the residual is added to the float64
    upsample.  A band keeps the whole width, so every GEMM of conv2d sums
    each pixel's taps as the whole-image pass does, and the output is bitwise
    that of the whole-image pass.
    """
    r = int(r)
    k = ms.band_count
    gen = GeneratorSpec(k)
    for name, shape in gen.param_shapes().items():
        if name not in params:
            raise InvalidInputError(f"checkpoint has no generator parameter {name!r}")
        got = params[name].data.shape
        if got != shape:
            raise InvalidInputError(
                f"checkpoint parameter {name!r} has shape {got}, expected {shape} for {k} bands"
            )
    check_pan_scale(ms, pan, r)
    frozen = _frozen(params)
    h, w = pan.height, pan.width
    out = np.empty((k, h, w))
    taps = _bicubic_taps(ms.data.shape, r)
    for band in row_bands(h, w):
        rows = slice(max(band.start - _FUSE_HALO, 0), min(band.stop + _FUSE_HALO, h))
        ms_up = _bicubic_up(ms.data, taps, rows)
        try:
            part = gen.forward(frozen, Tensor(ms_up), Tensor(pan.data[None, rows]))
        except NumericalError as exc:
            raise NumericalError(f"{exc} in PAN rows {band.start}-{band.stop - 1}") from exc
        out[:, band] = part.data[:, band.start - rows.start : band.stop - rows.start]
    return MultispectralImage(out)
