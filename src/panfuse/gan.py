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
    _bicubic_up,
    check_pan_scale,
    estimate_weights,
    histogram_match,
    parse_csv_table,
    upsample,
)


def _he_uniform(rng: np.random.Generator, c_out: int, c_in: int, k: int) -> np.ndarray:
    limit = math.sqrt(6.0 / (c_in * k * k))
    return rng.uniform(-limit, limit, size=(c_out, c_in, k, k))


@dataclass(frozen=True)
class GeneratorSpec:
    """Residual fusion network: two hidden 3x3 conv layers, zero-initialized head.

    Input is the upsampled MS stacked with PAN (K+1 channels); the head output
    is added to the upsampled MS and squashed onto (0, 1), so a zero head
    reproduces the bicubic upsample through the soft clamp.
    """

    bands: int
    hidden_channels: int = 16
    kernel_size: int = 3
    slope: float = 0.2

    def init_params(self, rng: np.random.Generator) -> ParameterSet:
        k = self.kernel_size
        hid = self.hidden_channels
        params = ParameterSet()
        params.add("gen.conv1.weight", _he_uniform(rng, hid, self.bands + 1, k))
        params.add("gen.conv1.bias", np.zeros(hid))
        params.add("gen.conv2.weight", _he_uniform(rng, hid, hid, k))
        params.add("gen.conv2.bias", np.zeros(hid))
        params.add("gen.head.weight", np.zeros((self.bands, hid, k, k)))
        params.add("gen.head.bias", np.zeros(self.bands))
        return params

    def forward(self, params, ms_up: Tensor, pan: Tensor) -> Tensor:
        return self.forward_from(params, ad.concat_channels(ms_up, pan), ms_up)

    def forward_from(self, params, stacked: Tensor, ms_up: Tensor) -> Tensor:
        """Forward pass on a prebuilt (K+1, H, W) input; lets training loops
        reuse one constant input tensor across iterations."""
        h = stacked
        for layer in ("conv1", "conv2"):
            h = ad.conv2d(
                h, params[f"gen.{layer}.weight"], params[f"gen.{layer}.bias"], slope=self.slope
            )
        residual = ad.conv2d(h, params["gen.head.weight"], params["gen.head.bias"])
        return ad.clamp_smooth(ad.add(ms_up, residual))


@dataclass(frozen=True)
class DiscriminatorSpec:
    """Three strided 3x3 conv layers, then a mean-pooled sigmoid score in (0, 1)."""

    in_channels: int
    channels: tuple = (16, 32, 32)
    kernel_size: int = 3
    stride: int = 2
    slope: float = 0.2

    def init_params(self, rng: np.random.Generator, prefix: str) -> ParameterSet:
        k = self.kernel_size
        params = ParameterSet()
        c_in = self.in_channels
        for i, c_out in enumerate(self.channels, start=1):
            params.add(f"{prefix}.conv{i}.weight", _he_uniform(rng, c_out, c_in, k))
            params.add(f"{prefix}.conv{i}.bias", np.zeros(c_out))
            c_in = c_out
        return params

    def forward(self, params, x: Tensor, prefix: str) -> Tensor:
        h = x
        for i in range(1, len(self.channels) + 1):
            h = ad.conv2d(
                h,
                params[f"{prefix}.conv{i}.weight"],
                params[f"{prefix}.conv{i}.bias"],
                stride=self.stride,
                slope=self.slope,
            )
        return ad.sigmoid(ad.mean(h))


@dataclass(frozen=True)
class TrainingConfig:
    """Iteration budget, learning rates and loss weights for :func:`train`."""

    iterations: int = 500
    lr_g: float = 5e-3
    lr_d: float = 1e-3
    lambda_spec: float = 1.0
    lambda_spat: float = 1.0
    lambda_adv_spec: float = 0.01
    lambda_adv_spat: float = 0.01
    seed: int = 0
    ratio: int = 4

    def __post_init__(self):
        if self.iterations < 1:
            raise InvalidInputError("iterations must be >= 1")
        for name in ("lr_g", "lr_d", "lambda_spec", "lambda_spat", "lambda_adv_spec",
                     "lambda_adv_spat"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise InvalidInputError(f"{name} must be finite and >= 0, got {value}")
        if self.lr_g <= 0 or self.lr_d <= 0:
            raise InvalidInputError("learning rates must be positive")
        if self.ratio < 1:
            raise InvalidInputError("ratio must be >= 1")


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
        lines = [",".join(LOG_COLUMNS)]
        for row in self.rows:
            cells = [f"{int(row[0])}"] + [repr(v) for v in row[1:]]
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"

    @staticmethod
    def parse_csv(text: str) -> "TrainingLog":
        return TrainingLog(parse_csv_table(text, LOG_COLUMNS, "training-log"))


# ---------------------------------------------------------------------------
# differentiable losses


def q_index(a: Tensor, b: Tensor) -> Tensor:
    """Differentiable single-window Wang-Bovik similarity index.

    Algebraically identical to the three-factor product:
    4 * cov * mu_a * mu_b / ((var_a + var_b) * (mu_a^2 + mu_b^2)).
    """
    mu_a = ad.mean(a)
    mu_b = ad.mean(b)
    var_a = ad.variance(a)
    var_b = ad.variance(b)
    if float(var_a.data) + float(var_b.data) == 0.0:
        raise DegenerateInputError("similarity index undefined for two constant images")
    if float(mu_a.data) ** 2 + float(mu_b.data) ** 2 == 0.0:
        raise DegenerateInputError("similarity index undefined for two zero-mean images")
    cov = ad.covariance(a, b)
    num = 4.0 * cov * mu_a * mu_b
    den = (var_a + var_b) * (mu_a * mu_a + mu_b * mu_b)
    return num / den


def _as_tensor(fused) -> Tensor:
    if isinstance(fused, Tensor):
        return fused
    if isinstance(fused, MultispectralImage):
        return Tensor(fused.data)
    raise InvalidInputError(f"cannot interpret {type(fused).__name__} as a fused image")


def spectral_loss(fused, ms: MultispectralImage, r: int) -> Tensor:
    """Mean over bands of 1 - Q(block-averaged fused band, original MS band).

    The fused image is degraded back to MS scale with a differentiable r x r
    block average, so the loss value lies in [0, 2].
    """
    fused_t = _as_tensor(fused)
    r = int(r)
    k, h, w = fused_t.shape
    if k != ms.band_count or h != ms.height * r or w != ms.width * r:
        raise InvalidInputError(
            f"fused {fused_t.shape} does not match {ms.band_count}x{ms.height}x{ms.width} "
            f"ms at ratio {r}"
        )
    degraded = ad.block_mean(fused_t, r)
    total = None
    for band_idx in range(k):
        q = q_index(
            ad.channel_slice(degraded, band_idx),
            Tensor(ms.data[band_idx]),
        )
        term = 1.0 - q
        total = term if total is None else total + term
    return ad.scalar_mul(total, 1.0 / k)


def intensity_of(fused, weights: IntensityWeights) -> Tensor:
    """Differentiable intensity component of a fused image: (1, H, W)."""
    return ad.channel_weighted_sum(_as_tensor(fused), weights.weights, weights.bias)


def _spatial_loss_from_intensity(intensity: Tensor, pan: RasterBand) -> Tensor:
    i_band = RasterBand(intensity.data[0])
    if float(i_band.data.std(ddof=1)) == 0.0:
        raise DegenerateInputError("intensity of the fused image is constant")
    if float(pan.data.std(ddof=1)) == 0.0:
        raise DegenerateInputError("pan band is constant")
    # PAN is moment-matched to the intensity; the matching statistics are
    # detached so gradients flow only through the intensity argument of Q.
    matched = histogram_match(pan, i_band).data
    return 1.0 - q_index(intensity, Tensor(matched[None]))


def spatial_loss(fused, pan: RasterBand, weights: IntensityWeights) -> Tensor:
    """1 - Q between the fused intensity and the moment-matched PAN band."""
    fused_t = _as_tensor(fused)
    if fused_t.shape[1:] != (pan.height, pan.width):
        raise InvalidInputError(
            f"fused {fused_t.shape} and pan {pan.height}x{pan.width} dimensions differ"
        )
    return _spatial_loss_from_intensity(intensity_of(fused_t, weights), pan)


def _check_score(score: Tensor, name: str) -> None:
    v = float(score.data)
    if not (0.0 < v < 1.0):
        raise InvalidInputError(f"{name} score {v} outside (0, 1)")


def discriminator_loss(real_score: Tensor, fake_score: Tensor) -> Tensor:
    """Binary cross-entropy critic loss: -log D(real) - log(1 - D(fake))."""
    _check_score(real_score, "real")
    _check_score(fake_score, "fake")
    return ad.neg(ad.log(real_score)) + ad.neg(ad.log(1.0 - fake_score))


def generator_adversarial_loss(
    score_spec: Tensor, score_spat: Tensor, cfg: TrainingConfig
) -> tuple[Tensor, Tensor, Tensor]:
    """Weighted non-saturating generator terms: -lambda * log D(fake), per critic.

    Returns the weighted sum and the two unweighted terms -log D(fake).
    """
    _check_score(score_spec, "spectral fake")
    _check_score(score_spat, "spatial fake")
    adv_spec = ad.neg(ad.log(score_spec))
    adv_spat = ad.neg(ad.log(score_spat))
    weighted = ad.scalar_mul(adv_spec, cfg.lambda_adv_spec) + ad.scalar_mul(
        adv_spat, cfg.lambda_adv_spat
    )
    return weighted, adv_spec, adv_spat


def generator_total_loss(l1: Tensor, l2: Tensor, adv: Tensor, cfg: TrainingConfig) -> Tensor:
    return ad.scalar_mul(l1, cfg.lambda_spec) + ad.scalar_mul(l2, cfg.lambda_spat) + adv


# ---------------------------------------------------------------------------
# training and inference


@dataclass(frozen=True)
class _TrainingState:
    """What every training iteration reads: the config, the three networks
    with their parameters, and the inputs, with their constant tensors."""

    cfg: TrainingConfig
    gen: GeneratorSpec
    disc_spec: DiscriminatorSpec
    disc_spat: DiscriminatorSpec
    g_params: ParameterSet
    ds_params: ParameterSet
    dt_params: ParameterSet
    ms: MultispectralImage
    pan: RasterBand
    weights: IntensityWeights
    ms_up_t: Tensor
    pan_t: Tensor
    ms_real: Tensor
    gen_input: Tensor

    @classmethod
    def start(cls, ms: MultispectralImage, pan: RasterBand, cfg: TrainingConfig):
        k = ms.band_count
        gen, disc_spec, disc_spat = GeneratorSpec(k), DiscriminatorSpec(k), DiscriminatorSpec(1)
        rng = np.random.default_rng(cfg.seed)
        ms_up = upsample(ms, cfg.ratio, "bicubic")
        ms_up_t, pan_t = Tensor(ms_up.data), Tensor(pan.data[None])
        return cls(
            cfg, gen, disc_spec, disc_spat,
            # the parameters are drawn from ``rng`` in this order
            gen.init_params(rng),
            disc_spec.init_params(rng, "dspec"),
            disc_spat.init_params(rng, "dspat"),
            ms, pan, estimate_weights(ms_up, pan), ms_up_t, pan_t, Tensor(ms.data),
            ad.concat_channels(ms_up_t, pan_t),  # the generator input, constant across iterations
        )


def train(
    ms: MultispectralImage, pan: RasterBand, cfg: TrainingConfig
) -> tuple[ParameterSet, TrainingLog]:
    """Alternating critic/generator optimization on a single MS/PAN pair.

    Per iteration: run the generator on (bicubic-upsampled MS, PAN); update the
    spectral critic on (real MS, degraded fused); update the spatial critic on
    (real PAN, fused intensity); then update the generator on the combined
    loss.  Everything is derived from ``cfg.seed``, so runs are reproducible
    bit for bit.
    """
    check_pan_scale(ms, pan, cfg.ratio)
    state = _TrainingState.start(ms, pan, cfg)
    log = TrainingLog()
    for it in range(1, cfg.iterations + 1):
        try:
            _train_iteration(it, state, log)
        except TrainingDivergenceError:
            raise
        except NumericalError as exc:
            raise TrainingDivergenceError(str(exc), iteration=it) from exc
    return state.g_params, log


def _train_iteration(it: int, s: _TrainingState, log: TrainingLog) -> None:
    cfg = s.cfg
    r = cfg.ratio
    fused = s.gen.forward_from(s.g_params, s.gen_input, s.ms_up_t)
    fused_const = fused.detach()

    # spectral critic: original MS vs degraded generator output
    fake_ms = ad.block_mean(fused_const, r)
    d_spec_loss = discriminator_loss(
        s.disc_spec.forward(s.ds_params, s.ms_real, "dspec"),
        s.disc_spec.forward(s.ds_params, fake_ms, "dspec"),
    )
    ad.backward(d_spec_loss)
    ad.adam_step(s.ds_params, cfg.lr_d)

    # spatial critic: original PAN vs intensity of the generator output
    fake_intensity = intensity_of(fused_const, s.weights)
    d_spat_loss = discriminator_loss(
        s.disc_spat.forward(s.dt_params, s.pan_t, "dspat"),
        s.disc_spat.forward(s.dt_params, fake_intensity, "dspat"),
    )
    ad.backward(d_spat_loss)
    ad.adam_step(s.dt_params, cfg.lr_d)

    # generator: consistency losses plus adversarial terms with frozen critics
    l1 = spectral_loss(fused, s.ms, r)
    intensity = intensity_of(fused, s.weights)
    l2 = _spatial_loss_from_intensity(intensity, s.pan)
    s.ds_params.set_trainable(False)
    s.dt_params.set_trainable(False)
    try:
        adv, adv_spec, adv_spat = generator_adversarial_loss(
            s.disc_spec.forward(s.ds_params, ad.block_mean(fused, r), "dspec"),
            s.disc_spat.forward(s.dt_params, intensity, "dspat"),
            cfg,
        )
        total = generator_total_loss(l1, l2, adv, cfg)
        if not math.isfinite(total.item()):
            raise TrainingDivergenceError("generator loss is non-finite", iteration=it)
        ad.backward(total)
    finally:
        s.ds_params.set_trainable(True)
        s.dt_params.set_trainable(True)
    ad.adam_step(s.g_params, cfg.lr_g)

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


def checkpoint_hash(params: ParameterSet) -> str:
    return hashlib.sha256(ad.checkpoint_bytes(params)).hexdigest()[:16]


# PAN pixels along each side of one tile of :func:`fuse`, halo not counted:
# its activations, not the scene's, bound the memory of inference
_FUSE_TILE = 256


def _generator_halo(params: ParameterSet, bands: int) -> int:
    """Check that ``params`` holds a generator for ``bands`` bands; return
    its receptive-field radius, the sum of ``k // 2`` over its three layers.

    The six ``gen.*`` parameters must be present, each weight a square odd
    kernel whose input channels are the previous layer's outputs (the first
    takes the bands and PAN, the head gives the bands), each bias one value
    per output channel.
    """
    c_in, halo = bands + 1, 0
    for layer in ("conv1", "conv2", "head"):
        w_name, b_name = f"gen.{layer}.weight", f"gen.{layer}.bias"
        for name in (w_name, b_name):
            if name not in params:
                raise InvalidInputError(f"checkpoint has no generator parameter {name!r}")
        w, b = params[w_name].data.shape, params[b_name].data.shape
        c_out = bands if layer == "head" else "C"
        if (
            len(w) != 4 or 0 in w or w[1] != c_in or w[2] != w[3] or w[2] % 2 == 0
            or (layer == "head" and w[0] != bands)
        ):
            raise InvalidInputError(
                f"checkpoint parameter {w_name!r} has shape {w}, expected "
                f"({c_out}, {c_in}, k, k) with an odd k for {bands} input bands"
            )
        if b != w[:1]:
            raise InvalidInputError(
                f"checkpoint parameter {b_name!r} has shape {b}, expected ({w[0]},)"
            )
        c_in, halo = w[0], halo + w[2] // 2
    return halo


def fuse(
    params: ParameterSet, ms: MultispectralImage, pan: RasterBand, r: int
) -> MultispectralImage:
    """Single deterministic forward pass with a frozen checkpoint.

    The generator runs on square tiles of the PAN grid, each read with a halo
    of its receptive-field radius and cut at the image border, so every kept
    pixel equals the whole-image pass: inside, the halo holds every pixel it
    reads; at the border, conv2d pads with the same zeros.  Each tile's
    bicubic input is upsampled from the MS directly.
    """
    r = int(r)
    k = ms.band_count
    halo = _generator_halo(params, k)
    check_pan_scale(ms, pan, r)
    frozen = {name: Tensor(p.data) for name, p in params.items()}
    gen = GeneratorSpec(bands=k, hidden_channels=params["gen.conv1.weight"].data.shape[0])
    h, w = pan.height, pan.width
    out = np.empty((k, h, w))
    for top in range(0, h, _FUSE_TILE):
        for left in range(0, w, _FUSE_TILE):
            rows = slice(max(top - halo, 0), min(top + _FUSE_TILE + halo, h))
            cols = slice(max(left - halo, 0), min(left + _FUSE_TILE + halo, w))
            ms_up = _bicubic_up(ms.data, r, rows, cols)
            try:
                tile = gen.forward(frozen, Tensor(ms_up), Tensor(pan.data[None, rows, cols]))
            except NumericalError as exc:
                raise NumericalError(f"{exc} in the tile at ({top}, {left})") from exc
            bottom, right = min(top + _FUSE_TILE, h), min(left + _FUSE_TILE, w)
            out[:, top:bottom, left:right] = tile.data[
                :, top - rows.start : bottom - rows.start, left - cols.start : right - cols.start
            ]
    return MultispectralImage(out)
