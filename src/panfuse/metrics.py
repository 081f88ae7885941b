"""Reduced- and full-resolution pansharpening quality metrics.

Reduced-resolution (full-reference) metrics: SAM, CC, UIQI, Q4, ERGAS.
Full-resolution (no-reference) metrics: D_lambda, D_s and their QNR product.

The windowed indices (UIQI, Q4, D_lambda, D_s) score every window at once.
Each band is centred on its image mean; the window sums of it, its square and
the band products a metric needs come from ``reduceat`` along rows and then
columns, which sums each window directly whether windows overlap, tile or
leave gaps.  A window is flat when no pixel in it differs from its neighbour,
so the degenerate-window conventions are exact.  The high-resolution side of
D_lambda / D_s multiplies window and stride by the resolution ratio, so window
statistics are invariant under pixel replication.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import DegenerateInputError, InvalidInputError
from .raster import MultispectralImage, RasterBand, kv_format, kv_parse, kv_value

REDUCED_METRICS = ("SAM", "CC", "UIQI", "Q4", "ERGAS")
FULL_METRICS = ("D_lambda", "D_s", "QNR")


@dataclass(frozen=True)
class MetricConfig:
    """Knobs shared by the windowed indices and the distortion exponents.

    ``ratio`` is the PAN-to-MS pixel-size ratio d_h/d_l used by ERGAS
    (1/4 for a 4:1 sharpening ratio).
    """

    window: int = 32
    stride: int = 32
    p: int = 1
    q: int = 1
    alpha: float = 1.0
    beta: float = 1.0
    ratio: Fraction = Fraction(1, 4)

    def __post_init__(self):
        if self.window < 2:
            raise InvalidInputError(f"window must be >= 2, got {self.window}")
        if self.stride < 1:
            raise InvalidInputError(f"stride must be >= 1, got {self.stride}")
        if self.p < 1 or self.q < 1:
            raise InvalidInputError("exponents p and q must be >= 1")
        for name in ("alpha", "beta"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise InvalidInputError(f"{name} must be finite, got {value}")
        if float(self.ratio) <= 0:
            raise InvalidInputError("pixel-size ratio must be positive")


def _as_ms(image) -> MultispectralImage:
    if isinstance(image, MultispectralImage):
        return image
    raise InvalidInputError(f"expected a multispectral image, got {type(image).__name__}")


def _as_band(image) -> RasterBand:
    if isinstance(image, RasterBand):
        return image
    raise InvalidInputError(f"expected a single band, got {type(image).__name__}")


# ---------------------------------------------------------------------------
# spectral angle


def _angle_map_degrees(F, M) -> np.ndarray:
    fi, mi = _check_pair(F, M)
    if fi.band_count < 2:
        raise InvalidInputError("spectral angle needs at least two bands")
    f, m = fi.data, mi.data
    dot = sum(a * b for a, b in zip(f, m))
    sf = sum(a * a for a in f)
    sm = sum(b * b for b in m)
    # single sqrt of the product keeps cos exactly 1 for identical vectors
    norm = np.sqrt(sf * sm)
    valid = norm > 0.0
    cosv = np.ones_like(dot)
    cosv[valid] = np.clip(dot[valid] / norm[valid], -1.0, 1.0)
    ang = np.degrees(np.arccos(cosv))
    ang[~valid] = 0.0  # zero spectral vectors contribute a zero angle
    return ang


def _check_pair(F, M):
    fi, mi = _as_ms(F), _as_ms(M)
    if fi.band_count != mi.band_count:
        raise InvalidInputError(
            f"band counts differ: {fi.band_count} vs {mi.band_count}"
        )
    if (fi.height, fi.width) != (mi.height, mi.width):
        raise InvalidInputError(
            f"dimensions differ: {fi.height}x{fi.width} vs {mi.height}x{mi.width}"
        )
    return fi, mi


def sam_global(F, M) -> float:
    """Mean per-pixel spectral angle between F and M, in degrees."""
    return float(_angle_map_degrees(F, M).mean())


def sam_map(F, M) -> RasterBand:
    """Per-pixel angle map linearized so min maps to 0 and max to 255.

    Rounding is half-up; a constant angle map yields all zeros.
    """
    ang = _angle_map_degrees(F, M)
    lo, hi = float(ang.min()), float(ang.max())
    if hi == lo:
        return RasterBand(np.zeros_like(ang))
    return RasterBand(np.floor((ang - lo) / (hi - lo) * 255.0 + 0.5))


# ---------------------------------------------------------------------------
# correlation coefficient


def _cc_band(f: np.ndarray, m: np.ndarray) -> float:
    fc = f - f.mean()
    mc = m - m.mean()
    den = math.sqrt(float(np.sum(fc * fc)) * float(np.sum(mc * mc)))
    if den == 0.0:
        raise DegenerateInputError("correlation undefined for a constant image")
    return float(np.sum(fc * mc)) / den


def cc(F, M) -> float:
    """Pearson correlation over all pixels; band-averaged for multiband input."""
    if isinstance(F, RasterBand) or isinstance(M, RasterBand):
        f, m = _as_band(F), _as_band(M)
        if f.data.shape != m.data.shape:
            raise InvalidInputError("band dimensions differ")
        return _cc_band(f.data, m.data)
    fi, mi = _check_pair(F, M)
    vals = [_cc_band(f, m) for f, m in zip(fi.data, mi.data)]
    return float(np.mean(vals))


# ---------------------------------------------------------------------------
# universal image quality index and quaternion Q4


@dataclass(frozen=True)
class _WindowGrid:
    """Window origins along each axis; ``len`` is the number of windows."""

    ys: np.ndarray
    xs: np.ndarray
    window: int

    def __len__(self):
        return self.ys.size * self.xs.size


def _window_origins(h: int, w: int, window: int, stride: int) -> _WindowGrid:
    if h < window or w < window:
        raise InvalidInputError(f"image {h}x{w} is smaller than the {window}-pixel window")
    return _WindowGrid(*(np.arange(0, n - window + 1, stride) for n in (h, w)), window)


def _window_reduce(a: np.ndarray, grid: _WindowGrid, ufunc=np.add, trim=(0, 0)) -> np.ndarray:
    """``ufunc`` over every window, less ``trim`` (rows, columns), of a 2-D array: (ny, nx)."""
    for axis, starts in ((1, grid.xs), (0, grid.ys)):
        idx = np.stack([starts, starts + grid.window - trim[axis]], axis=1).ravel()
        a = ufunc.reduceat(a, idx[:-1] if idx[-1] == a.shape[axis] else idx, axis=axis)
        # odd outputs span the gaps or overlaps between windows
        a = a[:, ::2] if axis == 1 else a[::2]
    return a


def _flat(x: np.ndarray, grid: _WindowGrid) -> np.ndarray:
    """Windows of one value: no change along any of their rows nor down their first column."""
    rows = _window_reduce(x[:, 1:] != x[:, :-1], grid, np.logical_or, (0, 1))
    return ~(rows | _window_reduce(x[1:] != x[:-1], grid, np.logical_or, (1, grid.window - 1)))


@dataclass(frozen=True)
class _Moments:
    """Per-window statistics, each (k, ny, nx), of the k bands of an image."""

    grid: _WindowGrid
    bands: np.ndarray  # (k, H, W)
    centre: list  # the image mean of each band
    dsum: np.ndarray  # window sums of band - centre
    mean: np.ndarray
    var: np.ndarray  # ddof = 1
    flat: np.ndarray  # the window holds one value
    level: np.ndarray  # the window's first pixel, the value of a flat window


def _moments(image, window: int, stride: int) -> _Moments:
    """Window statistics of a RasterBand or of every band of an MS image."""
    bands = image.data if isinstance(image, MultispectralImage) else image.data[None]
    grid = _window_origins(*bands[0].shape, window, stride)
    n = window * window

    def per_window(arrays):
        return np.stack([_window_reduce(x, grid) for x in arrays])
    centre = [x.mean() for x in bands]
    dsum = per_window(x - c for x, c in zip(bands, centre))
    var = (per_window((x - c) ** 2 for x, c in zip(bands, centre)) - dsum * dsum / n) / (n - 1)
    return _Moments(grid, bands, centre, dsum, per_window(bands) / n, var,
                    np.stack([_flat(x, grid) for x in bands]),
                    np.stack([x[np.ix_(grid.ys, grid.xs)] for x in bands]))


def _cov(a: _Moments, b: _Moments, terms) -> np.ndarray:
    """Per-window covariance (ddof = 1) summed over (sign, band of a, band of b) terms."""
    n = a.grid.window ** 2
    products = (s * (a.bands[i] - a.centre[i]) * (b.bands[j] - b.centre[j]) for s, i, j in terms)
    cross = _window_reduce(sum(products), a.grid)
    return (cross - sum(s * a.dsum[i] * b.dsum[j] for s, i, j in terms) / n) / (n - 1)


def _q_map(mu_a, mu_b, var_a, var_b, cov, flat_a, flat_b, same) -> np.ndarray:
    """Per-window 2 cov / (var_a + var_b) x luminance; both flat -> same, one flat -> 0."""
    mu_sq = mu_a * mu_a + mu_b * mu_b
    with np.errstate(divide="ignore", invalid="ignore"):
        lum = np.where(mu_sq == 0.0, 1.0, 2.0 * (mu_a * mu_b) / mu_sq)  # symmetric in a, b
        q = 2.0 * cov / (var_a + var_b) * lum
    return np.where(flat_a & flat_b, same, np.where(flat_a | flat_b, 0.0, q))


def _uiqi_map(a: _Moments, i: int, b: _Moments, j: int) -> np.ndarray:
    return _q_map(a.mean[i], b.mean[j], a.var[i], b.var[j], _cov(a, b, [(1, i, j)]),
                  a.flat[i], b.flat[j], a.level[i] == b.level[j])


# (sign, f band, m band) terms of the four parts of (f - mu_f) conj(m - mu_m)
_HAMILTON = (((1, 0, 0), (1, 1, 1), (1, 2, 2), (1, 3, 3)),
             ((-1, 0, 1), (1, 1, 0), (-1, 2, 3), (1, 3, 2)),
             ((-1, 0, 2), (1, 1, 3), (1, 2, 0), (-1, 3, 1)),
             ((-1, 0, 3), (-1, 1, 2), (1, 2, 1), (1, 3, 0)))


def _q4_value(f: _Moments, m: _Moments) -> float:
    """Window mean of quaternion Q; a window is flat when it is flat in all four bands."""
    if len(f.bands) != 4:
        raise InvalidInputError(f"Q4 requires exactly 4 bands, got {len(f.bands)}")
    modulus = np.linalg.norm([_cov(f, m, terms) for terms in _HAMILTON], axis=0)
    q = _q_map(*(np.linalg.norm(x.mean, axis=0) for x in (f, m)), f.var.sum(0), m.var.sum(0),
               modulus, f.flat.all(0), m.flat.all(0), (f.level == m.level).all(0))
    return float(q.mean())


def uiqi(A: RasterBand, B: RasterBand, cfg: MetricConfig | None = None) -> float:
    """Wang-Bovik index averaged over window x window tiles at the given stride."""
    cfg = cfg or MetricConfig()
    a, b = _as_band(A), _as_band(B)
    if a.data.shape != b.data.shape:
        raise InvalidInputError(f"dimensions differ: {a.data.shape} vs {b.data.shape}")
    ma, mb = (_moments(x, cfg.window, cfg.stride) for x in (a, b))
    return float(_uiqi_map(ma, 0, mb, 0).mean())


def q4(F, M, cfg: MetricConfig | None = None) -> float:
    """Quaternion-valued UIQI for exactly four bands, averaged over windows."""
    cfg = cfg or MetricConfig()
    f, m = (_moments(x, cfg.window, cfg.stride) for x in _check_pair(F, M))
    return _q4_value(f, m)


# ---------------------------------------------------------------------------
# ERGAS


def ergas(F, M, cfg: MetricConfig | None = None) -> float:
    """Scaled RMS of band-relative errors: 100 (d_h/d_l) sqrt(mean_k (RMSE_k / mu_k)^2)."""
    cfg = cfg or MetricConfig()
    fi, mi = _check_pair(F, M)
    acc = 0.0
    for f, m in zip(fi.data, mi.data):
        mu = float(m.mean())
        if mu == 0.0:
            raise DegenerateInputError("ERGAS undefined for a zero-mean reference band")
        rmse = math.sqrt(float(np.mean((f - m) ** 2)))
        acc += (rmse / mu) ** 2
    return 100.0 * float(cfg.ratio) * math.sqrt(acc / fi.band_count)


# ---------------------------------------------------------------------------
# no-reference distortions


def _scale_factor(low: MultispectralImage, high_h: int, high_w: int) -> int:
    if high_h % low.height or high_w % low.width:
        raise InvalidInputError(
            f"high-resolution size {high_h}x{high_w} is not an integer multiple "
            f"of {low.height}x{low.width}"
        )
    r_h = high_h // low.height
    r_w = high_w // low.width
    if r_h != r_w:
        raise InvalidInputError(f"anisotropic scale factors {r_h} vs {r_w}")
    return r_h


def d_lambda(M, F, cfg: MetricConfig | None = None) -> float:
    """Spectral distortion: p-norm gap between inter-band UIQI tables of M and F.

    M sits at MS scale and F at PAN scale; windows on the F side scale with
    the resolution ratio.
    """
    cfg = cfg or MetricConfig()
    mi = _as_ms(M)
    fi = _as_ms(F)
    if mi.band_count != fi.band_count:
        raise InvalidInputError("band counts differ")
    k = mi.band_count
    if k < 2:
        raise InvalidInputError("spectral distortion needs at least two bands")
    r = _scale_factor(mi, fi.height, fi.width)
    m, f = _moments(mi, cfg.window, cfg.stride), _moments(fi, cfg.window * r, cfg.stride * r)
    # Q is symmetric, so each unordered pair stands for both orders
    total = sum(abs(_uiqi_map(m, i, m, j).mean() - _uiqi_map(f, i, f, j).mean()) ** cfg.p
                for i in range(k) for j in range(i + 1, k))
    return (2.0 * total / (k * (k - 1))) ** (1.0 / cfg.p)


def d_s(M, F, P: RasterBand, P_L: RasterBand, cfg: MetricConfig | None = None) -> float:
    """Spatial distortion: q-norm gap between UIQI(band, PAN) at the two scales."""
    cfg = cfg or MetricConfig()
    mi = _as_ms(M)
    fi = _as_ms(F)
    if mi.band_count != fi.band_count:
        raise InvalidInputError("band counts differ")
    if (P.height, P.width) != (fi.height, fi.width):
        raise InvalidInputError("PAN and fused dimensions differ")
    if (P_L.height, P_L.width) != (mi.height, mi.width):
        raise InvalidInputError("degraded PAN and MS dimensions differ")
    r = _scale_factor(mi, fi.height, fi.width)
    m, low = (_moments(x, cfg.window, cfg.stride) for x in (mi, P_L))
    f, high = (_moments(x, cfg.window * r, cfg.stride * r) for x in (fi, P))
    total = sum(abs(_uiqi_map(m, b, low, 0).mean() - _uiqi_map(f, b, high, 0).mean()) ** cfg.q
                for b in range(mi.band_count))
    return (total / mi.band_count) ** (1.0 / cfg.q)


def qnr(dl: float, ds: float, cfg: MetricConfig | None = None) -> float:
    """No-reference quality: (1 - D_lambda)^alpha * (1 - D_s)^beta."""
    cfg = cfg or MetricConfig()
    if not (0.0 <= dl <= 1.0) or not (0.0 <= ds <= 1.0):
        raise InvalidInputError(f"distortions must lie in [0, 1], got {dl}, {ds}")
    return (1.0 - dl) ** cfg.alpha * (1.0 - ds) ** cfg.beta


# ---------------------------------------------------------------------------
# reports and evaluation protocols


@dataclass(frozen=True)
class QualityReport:
    """Named metric values for one protocol mode, with the configuration echoed."""

    mode: str
    entries: dict
    config: MetricConfig = field(default_factory=MetricConfig)

    def __post_init__(self):
        if self.mode not in ("reduced", "full"):
            raise InvalidInputError(f"unknown report mode {self.mode!r}")
        wanted = REDUCED_METRICS if self.mode == "reduced" else FULL_METRICS
        entries = {name: float(self.entries[name]) for name in wanted
                   if name in self.entries}
        if set(entries) != set(wanted):
            raise InvalidInputError(
                f"{self.mode} report needs exactly {wanted}, got {tuple(self.entries)}"
            )
        if not all(math.isfinite(v) for v in entries.values()):
            raise InvalidInputError("report contains non-finite metric values")
        object.__setattr__(self, "entries", entries)

    def metric_names(self) -> tuple:
        return REDUCED_METRICS if self.mode == "reduced" else FULL_METRICS

    def to_csv(self) -> str:
        names = self.metric_names()
        head = ",".join(names)
        row = ",".join(f"{self.entries[n]:.6g}" for n in names)
        return f"{head}\n{row}\n"

    def to_kv(self) -> str:
        c = self.config
        return kv_format([
            ("mode", self.mode), ("window", c.window), ("stride", c.stride), ("p", c.p),
            ("q", c.q), ("alpha", c.alpha), ("beta", c.beta), ("ratio", c.ratio),
            *((name, self.entries[name]) for name in self.metric_names()),
        ])

    @staticmethod
    def parse_kv(text, source: str = "report") -> "QualityReport":
        """Read :meth:`to_kv` output (text or bytes); other keys are ignored."""
        fields = kv_parse(text, source)

        def get(key, convert):
            return kv_value(fields, key, convert, source)

        cfg = MetricConfig(
            **{key: get(key, int) for key in ("window", "stride", "p", "q")},
            alpha=get("alpha", float), beta=get("beta", float), ratio=get("ratio", Fraction),
        )
        known = REDUCED_METRICS + FULL_METRICS
        entries = {k: get(k, float) for k in fields if k in known}
        return QualityReport(mode=get("mode", str), entries=entries, config=cfg)


def evaluate_reduced(F, GT, cfg: MetricConfig | None = None) -> QualityReport:
    """Full-reference scoring of a fused image against ground truth."""
    cfg = cfg or MetricConfig()
    fi, gi = _check_pair(F, GT)
    # the window statistics are built after SAM and CC, so their memory peaks do not add
    entries = {"SAM": sam_global(fi, gi), "CC": cc(fi, gi)}
    f, g = (_moments(x, cfg.window, cfg.stride) for x in (fi, gi))
    entries["UIQI"] = float(np.mean([_uiqi_map(f, b, g, b).mean() for b in range(fi.band_count)]))
    entries["Q4"] = _q4_value(f, g)
    entries["ERGAS"] = ergas(fi, gi, cfg)
    return QualityReport(mode="reduced", entries=entries, config=cfg)


def evaluate_full(F, M, P: RasterBand, P_L: RasterBand,
                  cfg: MetricConfig | None = None) -> QualityReport:
    """No-reference scoring of a fused image against its MS/PAN inputs."""
    cfg = cfg or MetricConfig()
    dl = d_lambda(M, F, cfg)
    ds = d_s(M, F, P, P_L, cfg)
    entries = {"D_lambda": dl, "D_s": ds, "QNR": qnr(dl, ds, cfg)}
    return QualityReport(mode="full", entries=entries, config=cfg)
