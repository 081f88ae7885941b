"""Synthetic desk-scale scenes, Wald-protocol reduction and experiment running.

Ground truth comes from seeded synthesis rather than satellite products: the
scene generator builds a high-resolution MS image from smooth per-band
gradients plus luminance-dominant blobs and rectangles, degrades it to the MS
input, and synthesizes PAN as a fixed positive band combination plus a mild
blur.  The consistency logic of the reduced-resolution protocol (degrade,
fuse, compare to the original) is preserved exactly while staying
self-contained.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .errors import InvalidInputError, PanfuseError
from .metrics import (
    FULL_METRICS,
    REDUCED_METRICS,
    MetricConfig,
    QualityReport,
    _full,
    _full_refs,
    _moments,
    _reduced,
)
from .raster import (
    MultispectralImage,
    RasterBand,
    _keep_freed_memory,
    check_pan_scale,
    csv_format,
    detail_inject,
    estimate_gains,
    estimate_weights,
    intensity_component,
    mtf_degrade,
    mtf_degrade_ms,
    parse_csv_table,
    upsample,
    upsample_band,
)

_PAN_BLUR = np.array([[1.0, 2.0, 1.0], [2.0, 4.0, 2.0], [1.0, 2.0, 1.0]]) / 16.0

IDEAL_ROW = {
    "reduced": {"SAM": 0.0, "CC": 1.0, "UIQI": 1.0, "Q4": 1.0, "ERGAS": 0.0},
    "full": {"D_lambda": 0.0, "D_s": 0.0, "QNR": 1.0},
}


def worker_threads() -> int:
    """The count of cores this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _synth_pan(weights: np.ndarray, gt: np.ndarray) -> RasterBand:
    """PAN from (K, H, W) ground truth: the weighted band sum under a 3x3 binomial blur."""
    a = np.tensordot(weights, gt, axes=(0, 0))
    ap = np.pad(a, 1, mode="symmetric")
    out = np.zeros_like(a)
    for i in range(3):
        for j in range(3):
            out += _PAN_BLUR[i, j] * ap[i : i + a.shape[0], j : j + a.shape[1]]
    return RasterBand(out)


@dataclass(frozen=True)
class SyntheticScene:
    """Seeded scene: ground truth at PAN scale, degraded MS, synthetic PAN."""

    gt_hrms: MultispectralImage
    ms: MultispectralImage
    pan: RasterBand
    pan_weights: np.ndarray
    seed: int
    ratio: int

    def __post_init__(self):
        check_pan_scale(self.ms, self.pan, self.ratio)

    def reconstruct_pan(self) -> RasterBand:
        """Rebuild PAN from the ground truth and the stored weights."""
        return _synth_pan(self.pan_weights, self.gt_hrms.data)


def synth_scene(
    seed: int,
    width: int,
    height: int,
    bands: int = 4,
    ratio: int = 4,
) -> SyntheticScene:
    """Deterministic scene at PAN scale ``width x height`` with ``bands`` bands.

    Spectral variation lives in smooth per-band gradients; the sharp content
    (rectangles and Gaussian blobs, counts scaling with image area) is
    luminance-dominant, with per-band amplitudes equal up to a small jitter.
    That mirrors the working assumption of detail-injection fusion: high
    frequencies are shared across bands while chroma varies slowly.  A shared
    affine rescale into [0.1, 0.9] keeps values clamp-safe and means nonzero
    without reintroducing per-band amplitude skew.
    """
    width = int(width)
    height = int(height)
    ratio = int(ratio)
    if width < 3 or height < 3:
        raise InvalidInputError(f"scene size {width}x{height} is below the 3x3 minimum")
    if ratio < 1:
        raise InvalidInputError(f"ratio must be >= 1, got {ratio}")
    if width % ratio or height % ratio:
        raise InvalidInputError(
            f"scene size {width}x{height} is not divisible by ratio {ratio}"
        )
    if bands < 2:
        raise InvalidInputError(f"need at least 2 bands, got {bands}")
    if seed < 0:
        raise InvalidInputError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    jitter = 0.05

    y, x = np.linspace(0.0, 1.0, height), np.linspace(0.0, 1.0, width)
    gt = np.empty((bands, height, width))
    for k in range(bands):
        angle = rng.uniform(0.0, 2.0 * math.pi)
        gt[k] = 0.5 + 0.2 * (math.cos(angle) * x + math.sin(angle) * y[:, None])

    n_blobs = max(8, (width * height) // 2048)
    centers = rng.uniform(0.05, 0.95, size=(n_blobs, 2))
    sigmas = rng.uniform(0.01, 0.08, size=n_blobs)
    blob_amp = rng.uniform(0.1, 0.3, size=n_blobs)
    blob_factor = 1.0 + rng.uniform(-jitter, jitter, size=(n_blobs, bands))
    signs = np.where(rng.uniform(size=n_blobs) < 0.5, 1.0, -1.0)
    # each Gaussian bump is the outer product of its column and row profiles
    gx = np.exp(-((x[:, None] - centers[:, 0]) ** 2) / (2.0 * sigmas**2))
    gy = np.exp(-((y[:, None] - centers[:, 1]) ** 2) / (2.0 * sigmas**2))
    coef = (signs * blob_amp)[:, None] * blob_factor
    for k in range(bands):
        gt[k] += (gy * coef[:, k]) @ gx.T

    n_rect = max(6, (width * height) // 512)
    for _ in range(n_rect):
        rh = int(rng.integers(2, max(3, height // 8)))
        rw = int(rng.integers(2, max(3, width // 8)))
        y0 = int(rng.integers(0, height - rh))
        x0 = int(rng.integers(0, width - rw))
        delta = rng.uniform(0.08, 0.25)
        sign = 1.0 if rng.uniform() < 0.5 else -1.0
        factors = 1.0 + rng.uniform(-jitter, jitter, size=bands)
        for k in range(bands):
            gt[k, y0 : y0 + rh, x0 : x0 + rw] += sign * delta * factors[k]

    lo, hi = gt.min(), gt.max()
    gt = 0.1 + 0.8 * (gt - lo) / (hi - lo)

    gt_hrms = MultispectralImage(gt)
    ms = mtf_degrade_ms(gt_hrms, ratio)
    raw_w = rng.uniform(0.5, 1.5, size=bands)
    pan_weights = raw_w / raw_w.sum()
    return SyntheticScene(
        gt_hrms=gt_hrms,
        ms=ms,
        pan=_synth_pan(pan_weights, gt),
        pan_weights=pan_weights,
        seed=int(seed),
        ratio=ratio,
    )


def wald_reduce(ms: MultispectralImage, pan: RasterBand, r: int):
    """Degrade both inputs by r so the original MS becomes the reference.

    Returns (ms_lo, pan_lo, reference) where reference is the input MS object,
    bit-identical.
    """
    r = int(r)
    if ms.height % r or ms.width % r or pan.height % r or pan.width % r:
        raise InvalidInputError(f"input dimensions are not divisible by ratio {r}")
    ms_lo = mtf_degrade_ms(ms, r)
    pan_lo = mtf_degrade(pan, r)
    return ms_lo, pan_lo, ms


BASELINE_METHODS = ("cs", "exp", "glp")


def _fuse(method: str, ms_up: MultispectralImage, pan: RasterBand, pan_low: RasterBand | None,
          r: int) -> MultispectralImage:
    """Fuse from ``ms_up``, the MS image upsampled by r; only glp reads
    ``pan_low``, the PAN image degraded by r."""
    if method == "exp":
        return ms_up
    if method == "cs":
        low = intensity_component(ms_up, estimate_weights(ms_up, pan))
    else:
        low = upsample_band(pan_low, r)
    return detail_inject(ms_up, pan, estimate_gains(ms_up, low), low)


def baseline_fuse(
    method: str, ms: MultispectralImage, pan: RasterBand, r: int
) -> MultispectralImage:
    """Reference fusers: plain bicubic upsampling, and CS and GLP detail
    injection, which differ only in the low-resolution pan they subtract."""
    if method not in BASELINE_METHODS:
        raise InvalidInputError(f"unknown fusion method {method!r}")
    r = int(r)
    ms_up = upsample(ms, r)
    return _fuse(method, ms_up, pan, mtf_degrade(pan, r) if method == "glp" else None, r)


@dataclass
class ExperimentResult:
    """One scored (method, mode) cell of the comparison table."""

    method: str
    mode: str
    report: QualityReport | None
    wall_time: float
    error: str | None = None


def run_experiment(
    scene: SyntheticScene,
    methods,
    cfg: MetricConfig | None = None,
) -> list:
    """Fuse and score every baseline method in ``methods`` in both protocol
    modes, rows sorted by (method, mode).  Failures are recorded per row and
    the run continues.  Window and stride come from ``cfg``; the pixel-size
    ratio that ERGAS reads comes from the scene.

    What every method starts from or is scored against (the upsampled MS
    image, the degraded PAN, the window statistics of the ground truth and
    the no-reference side of MS and PAN) is built once, before the first
    method; if a build fails, every row fails with its error.  A row's
    ``wall_time`` is its method's fusion and scoring, not these builds.  The
    process keeps the memory each method frees for the next
    (raster._keep_freed_memory).
    """
    _keep_freed_memory()
    cfg = replace(cfg or MetricConfig(), ratio=Fraction(1, scene.ratio))
    names = sorted(set(methods))
    for name in names:
        if name not in BASELINE_METHODS:
            raise InvalidInputError(f"unknown fusion method {name!r}")
    r = scene.ratio
    try:
        ms_up = upsample(scene.ms, r)
        pan_low = mtf_degrade(scene.pan, r)
        gt_moments = _moments(scene.gt_hrms, cfg.window, cfg.stride)
        refs = _full_refs(scene.ms, scene.pan, pan_low, r, cfg)
    except PanfuseError as exc:
        return [ExperimentResult(name, mode, None, 0.0, error=str(exc))
                for name in names for mode in ("full", "reduced")]
    results = []
    for name in names:
        start = time.perf_counter()
        reports, error = {}, None
        try:
            product = _fuse(name, ms_up, scene.pan, pan_low, r)
            reports["reduced"] = _reduced(product, scene.gt_hrms, gt_moments, cfg)
            reports["full"] = _full(product, refs, r, cfg)
        except PanfuseError as exc:
            reports, error = {}, str(exc)
        elapsed = time.perf_counter() - start
        results += [ExperimentResult(name, mode, reports.get(mode), elapsed, error)
                    for mode in ("full", "reduced")]
    return results


def results_table_csv(results, mode: str) -> str:
    """Comparison table for one mode: method column plus metric columns."""
    metric_names = REDUCED_METRICS if mode == "reduced" else FULL_METRICS
    rows = [
        [res.method] + [repr(res.report.entries[m]) for m in metric_names]
        for res in results
        if res.mode == mode and res.report is not None
    ]
    rows.append(["Ideal"] + [repr(IDEAL_ROW[mode][m]) for m in metric_names])
    return csv_format(("method", *metric_names), rows)


def parse_results_table(text: str, mode: str):
    """Parse a comparison table back into {method: {metric: value}}."""
    metric_names = REDUCED_METRICS if mode == "reduced" else FULL_METRICS
    rows = parse_csv_table(text, ("method", *metric_names), f"{mode} table", text_columns=1)
    return {row[0]: dict(zip(metric_names, row[1:])) for row in rows}


def results_table_text(results, modes) -> str:
    """Human-readable aligned table with one block per mode in ``modes``."""
    blocks = []
    for mode in modes:
        metric_names = REDUCED_METRICS if mode == "reduced" else FULL_METRICS
        rows = [("method", *metric_names)]
        for res in results:
            if res.mode != mode:
                continue
            if res.report is None:
                rows.append((res.method, f"failed: {res.error}", *[""] * (len(metric_names) - 1)))
            else:
                rows.append(
                    (res.method, *[f"{res.report.entries[m]:.4f}" for m in metric_names])
                )
        ideal = IDEAL_ROW[mode]
        rows.append(("Ideal", *[f"{ideal[m]:.4f}" for m in metric_names]))
        widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
        lines = [f"{mode}-resolution mode"]
        for row in rows:
            lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"
