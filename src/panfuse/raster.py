"""Image containers, resampling, degradation, histogram matching and detail injection.

A band is one frozen (H, W) float64 array and a multispectral image one frozen
(K, H, W) float64 array; every operation is a pure function of its inputs, so
values can be shared freely across threads.
"""

from __future__ import annotations

import math
import struct
import sys
import zlib
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    DegenerateInputError,
    FormatError,
    InvalidInputError,
    NumericalError,
)

PFR_MAGIC = b"PFR1"
_PNG_SIGNATURE = b"\x89PNG\r\n\x1a\n"
# MTF gain at the decimated grid's Nyquist frequency: the sensor model of every degradation
NYQUIST_GAIN = 0.30


def _freeze(data) -> np.ndarray:
    arr = np.ascontiguousarray(np.asarray(data, dtype=np.float64))
    arr.flags.writeable = False
    return arr


def _frozen_image(data, ndim: int) -> np.ndarray:
    """``data`` frozen, once checked to be a non-empty ``ndim``-D array of finite values."""
    arr = np.asarray(data, dtype=np.float64)
    if arr.ndim != ndim or arr.size == 0:
        raise InvalidInputError(f"image data must be a non-empty {ndim}-D array, got {arr.shape}")
    if not np.isfinite(arr).all():
        raise InvalidInputError("image data contains NaN or Inf")
    return _freeze(arr)


@dataclass(frozen=True)
class RasterBand:
    """One image band: row-major float64 intensities, nominally in [0, 1].

    The payload must be a non-empty (H, W) array of finite values.  The array
    is frozen at construction; derive new bands instead of mutating.
    """

    data: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "data", _frozen_image(self.data, 2))

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def width(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True)
class MultispectralImage:
    """K co-registered bands of identical size: one frozen (K, H, W) array of
    finite values, checked at construction like :class:`RasterBand`."""

    data: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "data", _frozen_image(self.data, 3))

    @property
    def band_count(self) -> int:
        return self.data.shape[0]

    @property
    def height(self) -> int:
        return self.data.shape[1]

    @property
    def width(self) -> int:
        return self.data.shape[2]


@dataclass(frozen=True)
class IntensityWeights:
    """Affine band combination defining the intensity component."""

    weights: np.ndarray
    bias: float = 0.0

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64).ravel()
        if w.size == 0 or not np.isfinite(w).all() or not math.isfinite(self.bias):
            raise InvalidInputError("weights and bias must be finite and non-empty")
        object.__setattr__(self, "weights", _freeze(w.reshape(-1)))
        object.__setattr__(self, "bias", float(self.bias))


@dataclass(frozen=True)
class InjectionGains:
    """Per-band multipliers applied to the detail map."""

    gains: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.gains, dtype=np.float64).ravel()
        if g.size == 0 or not np.isfinite(g).all():
            raise InvalidInputError("gains must be finite and non-empty")
        object.__setattr__(self, "gains", _freeze(g.reshape(-1)))


def check_pan_scale(ms: MultispectralImage, pan: RasterBand, r: int) -> None:
    """Reject a PAN band whose size is not the MS size times the ratio ``r``."""
    if (pan.height, pan.width) != (ms.height * r, ms.width * r):
        raise InvalidInputError(
            f"pan {pan.height}x{pan.width} is not ms {ms.height}x{ms.width} times {r}"
        )


# ---------------------------------------------------------------------------
# resampling


def _catmull_rom_weights(t: np.ndarray) -> np.ndarray:
    """Weights of the four Catmull-Rom taps for fractional offsets t in [0, 1)."""
    t2 = t * t
    t3 = t2 * t
    return np.stack(
        [
            -0.5 * t3 + t2 - 0.5 * t,
            1.5 * t3 - 2.5 * t2 + 1.0,
            -1.5 * t3 + 2.0 * t2 + 0.5 * t,
            0.5 * t3 - 0.5 * t2,
        ]
    )


def _bicubic_axis_taps(n_in: int, r: int):
    # Center-aligned source coordinates; tap indices clamp at the borders.
    dst = np.arange(n_in * r, dtype=np.float64)
    src = (dst + 0.5) / r - 0.5
    i0 = np.floor(src).astype(np.int64)
    w = _catmull_rom_weights(src - i0)
    idx = np.stack([np.clip(i0 + k - 1, 0, n_in - 1) for k in range(4)])
    return idx, w


def _bicubic_up(
    a: np.ndarray, r: int, rows: slice = slice(None), cols: slice = slice(None)
) -> np.ndarray:
    """Bicubic upsample of the ``(..., H, W)`` stack ``a`` by ``r``, or its
    ``rows`` x ``cols`` window of the output grid.

    A window slices the tap tables of the whole output and reads only the
    source pixels they name, so it is bitwise the same crop of the whole result.
    The row pass runs on the whole stack, 1/r of the output; the column pass
    adds its four taps into the output band by band, through one band of scratch.
    """
    idx, w = (t[:, rows] for t in _bicubic_axis_taps(a.shape[-2], r))
    cidx, cw = (t[:, cols] for t in _bicubic_axis_taps(a.shape[-1], r))
    lo = cidx.min()
    a = a[..., lo : cidx.max() + 1]
    a = sum(a[..., idx[k], :] * w[k][:, None] for k in range(4))
    out = np.zeros(a.shape[:-1] + cw.shape[1:])  # from +0.0, as sum() starts: -0.0 taps sum to +0.0
    tap = np.empty(out.shape[-2:])
    for src, dest in zip(a.reshape(-1, *a.shape[-2:]), out.reshape(-1, *out.shape[-2:])):
        for k in range(4):
            # the indices are in range; mode "raise" would copy through a second buffer
            np.take(src, cidx[k] - lo, axis=-1, out=tap, mode="clip")
            tap *= cw[k]
            dest += tap
    return out


def upsample_band(band: RasterBand, r: int, mode: str = "bicubic") -> RasterBand:
    """Upsample one band by an integer factor; see :func:`upsample`."""
    return RasterBand(upsample(MultispectralImage(band.data[None]), r, mode).data[0])


def upsample(ms: MultispectralImage, r: int, mode: str = "bicubic") -> MultispectralImage:
    """Upsample every band by r per axis.

    ``replicate`` copies each pixel into an r x r block; ``bicubic`` uses a
    4x4 Catmull-Rom kernel with tap indices clamped at the edges.
    """
    r = int(r)
    if r < 1:
        raise InvalidInputError(f"upsample ratio must be >= 1, got {r}")
    if mode not in ("replicate", "bicubic"):
        raise InvalidInputError(f"unknown upsample mode {mode!r}")
    if r == 1:
        return ms
    if mode == "bicubic":
        return MultispectralImage(_bicubic_up(ms.data, r))
    k, h, w = ms.data.shape
    out = np.empty((k, h * r, w * r))
    out.reshape(k, h, r, w, r)[...] = ms.data[:, :, None, :, None]
    return MultispectralImage(out)


# ---------------------------------------------------------------------------
# MTF-matched degradation


def gaussian_kernel(sigma: float) -> np.ndarray:
    """Normalized 1-D Gaussian, truncated at 4 sigma (radius >= 1)."""
    radius = max(1, int(math.ceil(4.0 * sigma)))
    x = np.arange(-radius, radius + 1, dtype=np.float64)
    k = np.exp(-0.5 * (x / sigma) ** 2)
    return k / k.sum()


def mtf_sigma(r: int, nyquist_gain: float) -> float:
    """Blur std-dev (pixels) whose response hits nyquist_gain at the decimated
    grid's Nyquist frequency."""
    return math.sqrt(-2.0 * math.log(nyquist_gain)) * r / (2.0 * math.pi)


def _separable_blur(a: np.ndarray, k: np.ndarray) -> np.ndarray:
    # Symmetric (half-sample) border reflection along each axis in turn.
    radius = len(k) // 2
    h, w = a.shape
    ap = np.pad(a, ((radius, radius), (0, 0)), mode="symmetric")
    out = np.zeros_like(a)
    for i, kv in enumerate(k):
        out += kv * ap[i : i + h, :]
    ap = np.pad(out, ((0, 0), (radius, radius)), mode="symmetric")
    out2 = np.zeros_like(a)
    for i, kv in enumerate(k):
        out2 += kv * ap[:, i : i + w]
    return out2


def mtf_degrade(band: RasterBand, r: int, nyquist_gain: float = NYQUIST_GAIN) -> RasterBand:
    """Sensor-style lowpass plus decimation.

    Applies a separable Gaussian blur with sigma = sqrt(-2 ln g) * r / (2 pi)
    (kernel truncated at 4 sigma, symmetric borders), then decimates by
    averaging each r x r block.  With r = 1 only the blur is applied.
    """
    r = int(r)
    if r < 1:
        raise InvalidInputError(f"degrade ratio must be >= 1, got {r}")
    if not (0.0 < nyquist_gain < 1.0):
        raise InvalidInputError(f"nyquist_gain must lie in (0, 1), got {nyquist_gain}")
    a = band.data
    if a.shape[0] % r or a.shape[1] % r:
        raise InvalidInputError(
            f"band dimensions {a.shape} are not divisible by ratio {r}"
        )
    blurred = _separable_blur(a, gaussian_kernel(mtf_sigma(r, nyquist_gain)))
    if r == 1:
        return RasterBand(blurred)
    h, w = blurred.shape
    dec = blurred.reshape(h // r, r, w // r, r).mean(axis=(1, 3))
    return RasterBand(dec)


def mtf_degrade_ms(
    ms: MultispectralImage, r: int, nyquist_gain: float = NYQUIST_GAIN
) -> MultispectralImage:
    """Apply :func:`mtf_degrade` band by band."""
    return MultispectralImage(
        np.stack([mtf_degrade(RasterBand(b), r, nyquist_gain).data for b in ms.data])
    )


# ---------------------------------------------------------------------------
# statistics-based operations


def _sample_std(a: np.ndarray) -> float:
    if a.size < 2:
        return 0.0
    return float(a.std(ddof=1))


def histogram_match(src: RasterBand, ref_stats_of: RasterBand) -> RasterBand:
    """Moment matching: shift/scale src so its mean and std equal the reference's.

    A constant source maps to a constant band at the reference mean.  This is
    a deliberate simplification of CDF histogram specification: deterministic
    and compatible with gradient-based use.
    """
    s = src.data
    mu_s = float(s.mean())
    mu_r = float(ref_stats_of.data.mean())
    sd_s = _sample_std(s)
    sd_r = _sample_std(ref_stats_of.data)
    if sd_s == 0.0:
        return RasterBand(np.full_like(s, mu_r))
    return RasterBand((s - mu_s) * (sd_r / sd_s) + mu_r)


def intensity_component(ms: MultispectralImage, weights: IntensityWeights) -> RasterBand:
    """Pixelwise affine combination of bands: bias + sum_k w_k * band_k."""
    if weights.weights.size != ms.band_count:
        raise InvalidInputError(
            f"{weights.weights.size} weights for {ms.band_count} bands"
        )
    acc = np.full((ms.height, ms.width), weights.bias, dtype=np.float64)
    for wk, band in zip(weights.weights, ms.data):
        acc += wk * band
    return RasterBand(acc)


def estimate_weights(ms_up: MultispectralImage, pan: RasterBand) -> IntensityWeights:
    """Least-squares fit of the PAN band on the upsampled MS bands plus a bias.

    Solves the normal equations with a 1e-8 ridge on the diagonal.
    """
    if (pan.height, pan.width) != (ms_up.height, ms_up.width):
        raise InvalidInputError(
            f"pan is {pan.height}x{pan.width}, ms is {ms_up.height}x{ms_up.width}"
        )
    k = ms_up.band_count
    n = pan.data.size
    if n < k + 1:
        raise InvalidInputError(f"need at least {k + 1} pixels, got {n}")
    x = np.empty((n, k + 1), dtype=np.float64)
    x[:, :k] = ms_up.data.reshape(k, n).T
    x[:, k] = 1.0
    a = x.T @ x + 1e-8 * np.eye(k + 1)
    b = x.T @ pan.data.ravel()
    try:
        beta = np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"weight estimation system is singular: {exc}") from exc
    if not np.isfinite(beta).all():
        raise NumericalError("weight estimation produced non-finite coefficients")
    return IntensityWeights(weights=beta[:k], bias=float(beta[k]))


def estimate_gains(ms_up: MultispectralImage, intensity: RasterBand) -> InjectionGains:
    """Global covariance-ratio gains: g_k = cov(band_k, I) / var(I), ddof = 1."""
    if (intensity.height, intensity.width) != (ms_up.height, ms_up.width):
        raise InvalidInputError("intensity and ms dimensions differ")
    i = intensity.data.ravel()
    n = i.size
    if n < 2:
        raise DegenerateInputError("need at least two pixels to estimate gains")
    ic = i - i.mean()
    var_i = float(ic @ ic) / (n - 1)
    if var_i == 0.0:
        raise DegenerateInputError("intensity component has zero variance")
    gains = np.empty(ms_up.band_count, dtype=np.float64)
    for j, band in enumerate(ms_up.data):
        b = band.ravel()
        gains[j] = (float((b - b.mean()) @ ic) / (n - 1)) / var_i
    return InjectionGains(gains)


def detail_inject(
    ms_up: MultispectralImage,
    pan: RasterBand,
    gains: InjectionGains,
    weights: IntensityWeights,
) -> MultispectralImage:
    """Component-substitution fusion: band_k + g_k * (pan - intensity), clamped to [0, 1]."""
    if (pan.height, pan.width) != (ms_up.height, ms_up.width):
        raise InvalidInputError("pan and upsampled ms dimensions differ")
    if gains.gains.size != ms_up.band_count:
        raise InvalidInputError(
            f"{gains.gains.size} gains for {ms_up.band_count} bands"
        )
    detail = pan.data - intensity_component(ms_up, weights).data
    return _inject(ms_up, detail, gains)


def _inject(
    ms_up: MultispectralImage, detail: np.ndarray, gains: InjectionGains
) -> MultispectralImage:
    """The bands band_k + g_k * detail of ``ms_up``, clamped to [0, 1]."""
    out = np.empty_like(ms_up.data)
    for g, band, dest in zip(gains.gains, ms_up.data, out):
        np.clip(band + g * detail, 0.0, 1.0, out=dest)
    return MultispectralImage(out)


# ---------------------------------------------------------------------------
# container IO: `key = value` and CSV text, .pfr rasters, grayscale PNG ingestion


def kv_parse(data, source: str) -> dict:
    """`key = value` lines (UTF-8 bytes or text) as a dict of stripped strings.

    ``#`` starts a comment and a repeated key keeps its last value.  A line
    without ``=`` or a key raises ConfigError naming ``source`` and the line.
    """
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{source}: not UTF-8 text at byte {exc.start}") from exc
    values = {}
    for lineno, raw in enumerate(data.splitlines(), start=1):
        key, sep, value = raw.split("#", 1)[0].partition("=")
        key = key.strip()
        if not sep and not key:
            continue
        if not sep or not key:
            raise ConfigError(f"{source}:{lineno}: expected `key = value`, got {raw!r}")
        values[key] = value.strip()
    return values


def kv_value(values: dict, key: str, convert, source: str):
    """``convert(values[key])``; a missing key or a bad value raises ConfigError naming it."""
    if key not in values:
        raise ConfigError(f"{source}: missing key {key!r}")
    try:
        return convert(values[key])
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"{source}: bad value for key {key!r}: {values[key]!r}") from exc


def _kv_safe(text: str) -> bool:
    return "#" not in text and text == text.strip() and len(text.splitlines()) <= 1


def kv_format(pairs) -> str:
    """``(key, value)`` pairs as `key = value` lines, values through ``str``;
    a pair that :func:`kv_parse` would not read back unchanged raises ConfigError."""
    lines = []
    for key, value in pairs:
        text = str(value)
        if not key or "=" in key or not _kv_safe(key) or not _kv_safe(text):
            raise ConfigError(f"cannot write key {key!r} with value {text!r} as `key = value`")
        lines.append(f"{key} = {text}\n")
    return "".join(lines)


def parse_csv_table(text: str, header: tuple, what: str, text_columns: int = 0) -> list:
    """Rows under ``header`` as tuples: ``text_columns`` strings, then floats.

    A wrong header, cell count or number raises InvalidInputError naming the line.
    """
    lines = [(n, ln) for n, ln in enumerate(text.splitlines(), start=1) if ln.strip()]
    if not lines or tuple(lines[0][1].split(",")) != tuple(header):
        raise InvalidInputError(f"unrecognized {what} header: {lines[0][1] if lines else ''!r}")
    rows = []
    for lineno, ln in lines[1:]:
        cells = ln.split(",")
        if len(cells) != len(header):
            raise InvalidInputError(
                f"{what} line {lineno}: expected {len(header)} cells, got {len(cells)}"
            )
        try:
            rows.append((*cells[:text_columns], *(float(c) for c in cells[text_columns:])))
        except ValueError as exc:
            raise InvalidInputError(f"{what} line {lineno}: non-numeric cell in {ln!r}") from exc
    return rows


def save_raster(image, path) -> None:
    """Write a band or multispectral image as a .pfr container.

    Layout: magic "PFR1", little-endian u32 width/height/band_count, then
    float32 little-endian samples, band-sequential, row-major within a band.
    """
    if isinstance(image, RasterBand):
        arr = image.data[None, :, :]
    elif isinstance(image, MultispectralImage):
        arr = image.data
    else:
        raise InvalidInputError(f"cannot save object of type {type(image).__name__}")
    k, h, w = arr.shape
    header = struct.pack("<4sIII", PFR_MAGIC, w, h, k)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(arr.astype("<f4").tobytes())


def load_raster(path):
    """Read a .pfr container (or a grayscale PNG) back into image objects.

    Single-band files become a :class:`RasterBand`; multiband files become a
    :class:`MultispectralImage`.  PNG input is normalized to [0, 1] by the
    sample-type maximum.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if str(path).lower().endswith(".png"):
        return _load_png_gray(blob, str(path))
    if len(blob) < 4 or blob[:4] != PFR_MAGIC:
        raise FormatError(
            f"bad magic at byte 0: expected {PFR_MAGIC!r}, got {blob[:4]!r}"
        )
    if len(blob) < 16:
        raise FormatError(f"truncated header: expected 16 bytes, got {len(blob)}")
    w, h, k = struct.unpack_from("<III", blob, 4)
    if w == 0 or h == 0 or k == 0:
        raise FormatError(f"zero dimension in header at byte 4: {w}x{h}x{k}")
    if w * h * k > 2**34:
        raise FormatError(
            f"dimension overflow in header at byte 4: {w}x{h}x{k} samples"
        )
    expected = 16 + w * h * k * 4
    if len(blob) != expected:
        raise FormatError(
            f"truncated payload: expected {expected} bytes, got {len(blob)} "
            "(samples begin at byte 16)"
        )
    vals = (
        np.frombuffer(blob, dtype="<f4", offset=16)
        .astype(np.float64)
        .reshape(k, h, w)
    )
    if not np.isfinite(vals).all():
        raise FormatError("payload contains non-finite samples (from byte 16)")
    if k == 1:
        return RasterBand(vals[0])
    return MultispectralImage(vals)


def _paeth(a: int, b: int, c: int) -> int:
    p = a + b - c
    pa, pb, pc = abs(p - a), abs(p - b), abs(p - c)
    if pa <= pb and pa <= pc:
        return a
    if pb <= pc:
        return b
    return c


def _png_unfilter(raw: bytes, height: int, stride: int, bpp: int) -> bytearray:
    need = height * (stride + 1)
    if len(raw) != need:
        raise FormatError(
            f"truncated PNG image data: expected {need} filtered bytes, got {len(raw)}"
        )
    out = bytearray(height * stride)
    prior = bytearray(stride)
    for y in range(height):
        row_off = y * (stride + 1)
        ftype = raw[row_off]
        line = bytearray(raw[row_off + 1 : row_off + 1 + stride])
        if ftype == 0:
            pass
        elif ftype == 1:
            for i in range(bpp, stride):
                line[i] = (line[i] + line[i - bpp]) & 0xFF
        elif ftype == 2:
            for i in range(stride):
                line[i] = (line[i] + prior[i]) & 0xFF
        elif ftype == 3:
            for i in range(stride):
                left = line[i - bpp] if i >= bpp else 0
                line[i] = (line[i] + ((left + prior[i]) >> 1)) & 0xFF
        elif ftype == 4:
            for i in range(stride):
                left = line[i - bpp] if i >= bpp else 0
                up_left = prior[i - bpp] if i >= bpp else 0
                line[i] = (line[i] + _paeth(left, prior[i], up_left)) & 0xFF
        else:
            raise FormatError(f"unknown PNG filter type {ftype} at byte {row_off}")
        out[y * stride : (y + 1) * stride] = line
        prior = line
    return out


def _load_png_gray(blob: bytes, path: str) -> RasterBand:
    if blob[:8] != _PNG_SIGNATURE:
        raise FormatError(f"bad PNG signature at byte 0 in {path}")
    pos = 8
    ihdr = None
    idat = bytearray()
    idat_pos = None
    seen_end = False
    while pos < len(blob):
        if pos + 8 > len(blob):
            raise FormatError(f"truncated PNG chunk header at byte {pos}")
        length, ctype = struct.unpack_from(">I4s", blob, pos)
        data_start = pos + 8
        data_end = data_start + length
        if data_end + 4 > len(blob):
            raise FormatError(f"truncated PNG chunk {ctype!r} at byte {pos}")
        chunk = blob[data_start:data_end]
        (crc,) = struct.unpack_from(">I", blob, data_end)
        if crc != zlib.crc32(ctype + chunk) & 0xFFFFFFFF:
            raise FormatError(f"bad CRC for PNG chunk {ctype!r} at byte {data_end}")
        if ctype == b"IHDR":
            if length != 13:
                raise FormatError(f"PNG IHDR at byte {pos} has {length} bytes, expected 13")
            ihdr = struct.unpack(">IIBBBBB", chunk)
        elif ctype == b"IDAT":
            if not idat:
                idat_pos = pos
            idat.extend(chunk)
        elif ctype == b"IEND":
            seen_end = True
            break
        pos = data_end + 4
    if ihdr is None:
        raise FormatError(f"missing IHDR chunk in {path}")
    if not seen_end:
        raise FormatError(f"missing IEND chunk in {path}")
    width, height, depth, color, comp, filt, interlace = ihdr
    if color != 0:
        raise FormatError(f"only grayscale PNG is supported, got color type {color}")
    if depth not in (8, 16):
        raise FormatError(f"only 8/16-bit PNG is supported, got depth {depth}")
    if comp != 0 or filt != 0 or interlace != 0:
        raise FormatError("unsupported PNG compression/filter/interlace settings")
    if width == 0 or height == 0:
        raise FormatError("zero PNG dimensions in IHDR")
    if idat_pos is None:
        raise FormatError(f"missing IDAT chunk in {path}")
    bpp = depth // 8
    # one filter byte per row plus the samples: all that IHDR allows, so a
    # small file cannot inflate without bound
    limit = height * (width * bpp + 1)
    inflater = zlib.decompressobj()
    try:
        raw = inflater.decompress(bytes(idat), min(limit + 1, sys.maxsize))
    except zlib.error as exc:
        raise FormatError(
            f"corrupt PNG image data from byte {idat_pos} in {path}: {exc}"
        ) from exc
    if len(raw) > limit:
        raise FormatError(
            f"PNG image data from byte {idat_pos} inflates past the {limit} bytes "
            f"that IHDR implies"
        )
    if not inflater.eof:
        raise FormatError(
            f"corrupt PNG image data from byte {idat_pos} in {path}: truncated zlib stream"
        )
    samples = _png_unfilter(raw, height, width * bpp, bpp)
    dtype = ">u2" if depth == 16 else np.uint8
    arr = np.frombuffer(bytes(samples), dtype=dtype).reshape(height, width)
    return RasterBand(arr.astype(np.float64) / float(2**depth - 1))
