"""Image containers, resampling, degradation, histogram matching and detail injection.

A band is one frozen (H, W) float64 array and a multispectral image one frozen
(K, H, W) float64 array; every operation is a pure function of its inputs, so
values can be shared freely across threads.
"""

from __future__ import annotations

import functools
import math
import os
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
    is frozen at construction; derive new bands instead of mutating.  A
    C-contiguous float64 array is taken over without a copy and made read-only
    in place, so the caller's own array can no longer be written; any other
    dtype or layout is copied, and the caller's array is left as it was.
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
    finite values, checked and frozen at construction like :class:`RasterBand`
    (a C-contiguous float64 array is made read-only in place, not copied)."""

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
# row bands

# elements in one row band: every blocked loop (CC, ERGAS, SAM and the window
# statistics of metrics, conv2d's unfolded taps, the bands of gan.fuse) takes
# its rows from row_bands, so that it forms and reduces each piece of an image
# while it is in L2
_BAND_ELEMENTS = 2**16


def row_bands(height: int, width: int, unit: int = 1) -> list:
    """Slices of whole ``unit``-row blocks, about ``_BAND_ELEMENTS`` elements
    of ``width`` each, or one block, that cover ``height`` rows."""
    step = unit * max(1, _BAND_ELEMENTS // (unit * width))
    return [slice(top, min(top + step, height)) for top in range(0, height, step)]


def dot(u: np.ndarray, v: np.ndarray) -> float:
    """Sum of u * v over two 1-D arrays by numpy's own loop: np.dot's BLAS may
    split a long sum across threads, and its last bits then depend on their
    number."""
    return float(np.einsum("i,i->", u, v))


# ---------------------------------------------------------------------------
# the allocator of the loops

# mallopt's parameters in glibc's malloc.h, and the largest value it takes
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD, _INT_MAX = -1, -3, 2**31 - 1


@functools.cache
def _keep_freed_memory() -> None:
    """Keep what this process frees for its own reuse, from now on: once per
    process, and only on glibc, raise the mmap and then the trim threshold to
    INT_MAX.  The loops of gan.train and harness.run_experiment then reuse the
    working set each pass frees, where glibc would hand it back to the kernel
    and the kernel zero fresh pages for the next pass.  The trim threshold
    alone would fix the mmap threshold at 128 KiB and fault more, so it is set
    only once the mmap threshold took.  Nothing undoes it."""
    try:
        libc = os.confstr("CS_GNU_LIBC_VERSION")
    except (AttributeError, ValueError, OSError):  # no confstr, or no such name
        return
    if not (libc or "").startswith("glibc"):
        return
    import ctypes  # loaded only by the loops that call this

    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    if mallopt(_M_MMAP_THRESHOLD, _INT_MAX) == 1:
        mallopt(_M_TRIM_THRESHOLD, _INT_MAX)


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


def _bicubic_taps(shape: tuple, r: int) -> tuple:
    """The row and the column tap tables of the bicubic upsample by ``r`` of a
    ``(..., H, W)`` stack of ``shape``."""
    return _bicubic_axis_taps(shape[-2], r), _bicubic_axis_taps(shape[-1], r)


def _bicubic_up(a: np.ndarray, taps: tuple, rows: slice = slice(None)) -> np.ndarray:
    """Bicubic upsample of the ``(..., H, W)`` stack ``a`` by the
    :func:`_bicubic_taps` of its shape, or the ``rows`` window of the output grid.

    A window slices the row tap table of the whole output and reads only the
    source rows it names, so it is bitwise the same crop of the whole result.
    The row pass runs on the whole stack, 1/r of the output; the column pass
    adds its four taps into the output band by band, through one band of scratch.
    """
    (idx, w), (cidx, cw) = taps
    idx, w = idx[:, rows], w[:, rows]
    a = sum(a[..., idx[k], :] * w[k][:, None] for k in range(4))
    out = np.zeros(a.shape[:-1] + cw.shape[1:])  # from +0.0, as sum() starts: -0.0 taps sum to +0.0
    tap = np.empty(out.shape[-2:])
    for src, dest in zip(a.reshape(-1, *a.shape[-2:]), out.reshape(-1, *out.shape[-2:])):
        for k in range(4):
            # the indices are in range; mode "raise" would copy through a second buffer
            np.take(src, cidx[k], axis=-1, out=tap, mode="clip")
            tap *= cw[k]
            dest += tap
    return out


def upsample_band(band: RasterBand, r: int) -> RasterBand:
    """Upsample one band by an integer factor; see :func:`upsample`."""
    return RasterBand(upsample(MultispectralImage(band.data[None]), r).data[0])


def upsample(ms: MultispectralImage, r: int) -> MultispectralImage:
    """Bicubic upsample of every band by r per axis: a 4x4 Catmull-Rom kernel
    with tap indices clamped at the edges."""
    r = int(r)
    if r < 1:
        raise InvalidInputError(f"upsample ratio must be >= 1, got {r}")
    if r == 1:
        return ms
    return MultispectralImage(_bicubic_up(ms.data, _bicubic_taps(ms.data.shape, r)))


# ---------------------------------------------------------------------------
# MTF-matched degradation


def gaussian_kernel(sigma: float) -> np.ndarray:
    """Normalized 1-D Gaussian, truncated at 4 sigma (radius >= 1)."""
    radius = max(1, int(math.ceil(4.0 * sigma)))
    x = np.arange(-radius, radius + 1, dtype=np.float64)
    k = np.exp(-0.5 * (x / sigma) ** 2)
    return k / k.sum()


def mtf_sigma(r: int) -> float:
    """Blur std-dev (pixels) whose response hits NYQUIST_GAIN at the decimated
    grid's Nyquist frequency."""
    return math.sqrt(-2.0 * math.log(NYQUIST_GAIN)) * r / (2.0 * math.pi)


def mtf_degrade(band: RasterBand, r: int) -> RasterBand:
    """Sensor-style lowpass plus decimation, as one filter sampled every r pixels.

    The model is a separable Gaussian blur with sigma = sqrt(-2 ln g) * r / (2 pi)
    for g = NYQUIST_GAIN (kernel truncated at 4 sigma, symmetric borders)
    followed by the mean of each r x r block.  Both together are one separable
    filter of ``len(kernel) + r - 1`` taps, the Gaussian convolved with an r-tap
    box; it is applied along rows and then along columns, evaluated only at the
    first pixel of each block.  With r = 1 the filter is the Gaussian itself.
    """
    r = int(r)
    if r < 1:
        raise InvalidInputError(f"degrade ratio must be >= 1, got {r}")
    out = band.data
    if out.shape[0] % r or out.shape[1] % r:
        raise InvalidInputError(
            f"band dimensions {out.shape} are not divisible by ratio {r}"
        )
    k = gaussian_kernel(mtf_sigma(r))
    taps = np.convolve(k, np.full(r, 1.0 / r))
    # block y reads padded samples y r .. y r + len(taps) - 1, so the last block
    # ends at the last sample of the Gaussian's own padding
    radius = len(k) // 2
    for axis in (0, 1):
        pad = [(0, 0), (0, 0)]
        pad[axis] = (radius, radius)
        ap = np.pad(out, pad, mode="symmetric")
        n = out.shape[axis]
        shape = list(out.shape)
        shape[axis] = n // r
        out = np.zeros(shape)
        term = np.empty_like(out)
        for i, c in enumerate(taps):
            taken = slice(i, i + n, r)
            out += np.multiply(c, ap[taken] if axis == 0 else ap[:, taken], out=term)
    return RasterBand(out)


def mtf_degrade_ms(ms: MultispectralImage, r: int) -> MultispectralImage:
    """Apply :func:`mtf_degrade` band by band."""
    return MultispectralImage(np.stack([mtf_degrade(RasterBand(b), r).data for b in ms.data]))


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


def estimate_gains(ms_up: MultispectralImage, low: RasterBand) -> InjectionGains:
    """Global covariance-ratio gains of the low-resolution PAN ``low``:
    g_k = cov(band_k, low) / var(low), ddof = 1."""
    if (low.height, low.width) != (ms_up.height, ms_up.width):
        raise InvalidInputError("low-resolution pan and ms dimensions differ")
    i = low.data.ravel()
    n = i.size
    if n < 2:
        raise DegenerateInputError("need at least two pixels to estimate gains")
    ic = i - i.mean()
    var_i = dot(ic, ic) / (n - 1)
    if var_i == 0.0:
        raise DegenerateInputError("low-resolution pan has zero variance")
    gains = np.empty(ms_up.band_count, dtype=np.float64)
    for j, band in enumerate(ms_up.data):
        b = band.ravel()
        gains[j] = (dot(b - b.mean(), ic) / (n - 1)) / var_i
    return InjectionGains(gains)


def detail_inject(
    ms_up: MultispectralImage, pan: RasterBand, gains: InjectionGains, low: RasterBand
) -> MultispectralImage:
    """Detail injection: band_k + g_k * (pan - low), clamped to [0, 1].

    ``low`` is the low-resolution PAN: the intensity component for CS, the
    degraded-then-upsampled PAN for GLP.
    """
    for name, b in (("pan", pan), ("low-resolution pan", low)):
        if (b.height, b.width) != (ms_up.height, ms_up.width):
            raise InvalidInputError(f"{name} and upsampled ms dimensions differ")
    if gains.gains.size != ms_up.band_count:
        raise InvalidInputError(
            f"{gains.gains.size} gains for {ms_up.band_count} bands"
        )
    detail = pan.data - low.data
    out = np.empty_like(ms_up.data)
    for g, band, dest in zip(gains.gains, ms_up.data, out):
        np.clip(band + g * detail, 0.0, 1.0, out=dest)
    return MultispectralImage(out)


# ---------------------------------------------------------------------------
# container IO: `key = value` and CSV text, .pfr rasters, grayscale PNG ingestion


def kv_parse(data, source: str) -> dict:
    """`key = value` lines (UTF-8 bytes or text) as a dict of stripped strings.

    ``#`` starts a comment and a repeated key keeps its last value.  A line
    without ``=`` or a key, or one that holds a NUL, which no path or name may
    hold, raises ConfigError naming ``source`` and the line.
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
        if "\x00" in raw:
            raise ConfigError(f"{source}:{lineno}: a NUL character in {raw!r}")
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


def _utf8(text: str) -> bool:
    """Whether ``text`` encodes as UTF-8.  A lone surrogate does not: Python
    decodes each invalid byte of a command-line argument to one."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def _kv_safe(text: str) -> bool:
    return (not {"#", "\x00"} & set(text) and text == text.strip()
            and len(text.splitlines()) <= 1 and _utf8(text))


def kv_format(pairs) -> str:
    """``(key, value)`` pairs as `key = value` lines, values through ``str``; a
    pair that :func:`kv_parse` would not read back unchanged, or that UTF-8
    cannot encode, raises ConfigError."""
    lines = []
    for key, value in pairs:
        text = str(value)
        if not key or "=" in key or not _kv_safe(key) or not _kv_safe(text):
            raise ConfigError(f"cannot write key {key!r} with value {text!r} as `key = value`")
        lines.append(f"{key} = {text}\n")
    return "".join(lines)


def csv_format(header, rows) -> str:
    """``header`` and ``rows`` of string cells as comma-separated lines; a cell
    that :func:`parse_csv_table` would not read back, or that UTF-8 cannot
    encode, raises InvalidInputError."""
    lines = []
    for cells in (header, *rows):
        for cell in cells:
            # a line break is any boundary of str.splitlines, which the reader splits at
            if "," in cell or len((cell + "x").splitlines()) > 1 or not _utf8(cell):
                raise InvalidInputError(f"cannot write cell {cell!r} in a CSV line")
        lines.append(",".join(cells) + "\n")
    return "".join(lines)


def parse_csv_table(text: str, header: tuple, what: str, text_columns: int = 0) -> list:
    """Rows under ``header`` as tuples: ``text_columns`` strings, then floats.

    A wrong header, cell count or number raises InvalidInputError naming the line.
    """
    lines = [(n, ln) for n, ln in enumerate(text.splitlines(), start=1) if ln.strip()]
    if not lines:
        raise InvalidInputError(f"{what}: no header line")
    if tuple(lines[0][1].split(",")) != tuple(header):
        raise InvalidInputError(f"{what} line {lines[0][0]}: unrecognized header {lines[0][1]!r}")
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
    A sample beyond the float32 range raises NumericalError before the file opens.
    """
    if isinstance(image, RasterBand):
        arr = image.data[None, :, :]
    elif isinstance(image, MultispectralImage):
        arr = image.data
    else:
        raise InvalidInputError(f"cannot save object of type {type(image).__name__}")
    limit = float(np.finfo(np.float32).max)
    for i, band in enumerate(arr):
        if band.min() < -limit or band.max() > limit:
            raise NumericalError(f"band {i} holds samples beyond the float32 range of .pfr")
    k, h, w = arr.shape
    header = struct.pack("<4sIII", PFR_MAGIC, w, h, k)
    with open(path, "wb") as fh:
        fh.write(header)
        for band in arr:
            fh.write(band.astype("<f4"))


class ByteReader:
    """A bounds-checked cursor over the bytes of a file, read front to back.

    Every failure is a :class:`FormatError` that names the source, the byte
    offset and the field.  A length is compared with the bytes left before
    anything is sliced, so a header that claims any size allocates nothing.
    """

    def __init__(self, data, source: str):
        self.data = memoryview(data)
        self.source = source
        self.pos = 0

    def error(self, field: str, detail: str, at: int | None = None) -> FormatError:
        """The error for ``field`` at byte ``at``, by default the position."""
        return FormatError(f"{self.source}: {field} at byte {self.pos if at is None else at}: "
                           f"{detail}")

    def take(self, n: int, field: str) -> memoryview:
        """The next ``n`` bytes, not copied."""
        left = len(self.data) - self.pos
        if n > left:
            raise self.error(field, f"truncated, expected {n} bytes, {left} left")
        self.pos += n
        return self.data[self.pos - n : self.pos]

    def unpack(self, fmt: str, field: str) -> tuple:
        """The struct ``fmt`` from the next bytes."""
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), field))

    def close(self) -> None:
        """Reject bytes after the last field."""
        if self.pos != len(self.data):
            raise self.error("trailing bytes", f"{len(self.data) - self.pos} after the last field")


def load_raster(path):
    """Read a .pfr container (or a grayscale PNG) back into image objects.

    Single-band files become a :class:`RasterBand`; multiband files become a
    :class:`MultispectralImage`.  PNG input is normalized to [0, 1] by the
    sample-type maximum.
    """
    with open(path, "rb") as fh:
        reader = ByteReader(fh.read(), str(path))
    if str(path).lower().endswith(".png"):
        return _load_png_gray(reader)
    magic = bytes(reader.take(4, "magic"))
    if magic != PFR_MAGIC:
        raise reader.error("magic", f"expected {PFR_MAGIC!r}, got {magic!r}", at=0)
    w, h, k = reader.unpack("<III", "header")
    if w == 0 or h == 0 or k == 0:
        raise reader.error("dimensions", f"zero in {w}x{h}x{k}", at=4)
    if w * h * k > 2**34:
        raise reader.error("dimensions", f"{w}x{h}x{k} samples overflow", at=4)
    samples = np.frombuffer(reader.take(w * h * k * 4, "payload"), dtype="<f4")
    reader.close()
    # checked before the cast: a signalling NaN makes the cast warn
    if not np.isfinite(samples).all():
        first = int(np.argmin(np.isfinite(samples)))
        b, y, x = np.unravel_index(first, (k, h, w))
        raise reader.error("payload", f"non-finite samples, the first in band {b}, row {y}, "
                           f"column {x}", at=16 + 4 * first)
    vals = samples.astype(np.float64).reshape(k, h, w)
    if k == 1:
        return RasterBand(vals[0])
    return MultispectralImage(vals)


def _png_unfilter(raw: bytes, height: int, stride: int, bpp: int) -> np.ndarray:
    """The (height, stride) uint8 samples of PNG scanlines, each a filter byte
    and ``stride`` filtered bytes.

    None, Sub and Up are whole-row array ops (uint8 sums wrap mod 256); Average
    and Paeth read the byte to their left, so they loop over ints in a bytearray.
    """
    need = height * (stride + 1)
    if len(raw) != need:
        raise FormatError(
            f"truncated PNG image data: expected {need} filtered bytes, got {len(raw)}"
        )
    rows = np.frombuffer(raw, dtype=np.uint8).reshape(height, stride + 1)
    out = np.empty((height, stride), dtype=np.uint8)
    prior = np.zeros(stride, dtype=np.uint8)
    for y, (ftype, line, dst) in enumerate(zip(raw[:: stride + 1], rows[:, 1:], out)):
        if ftype == 0:
            dst[:] = line
        elif ftype == 1:
            for phase in range(bpp):
                np.cumsum(line[phase::bpp], dtype=np.uint8, out=dst[phase::bpp])
        elif ftype == 2:
            np.add(line, prior, out=dst)
        elif ftype in (3, 4):
            cur, up = bytearray(line), prior.tobytes()
            # the first bpp bytes have no left neighbour: Average adds up / 2,
            # and Paeth predicts up
            for i in range(bpp):
                cur[i] = (cur[i] + (up[i] >> 1 if ftype == 3 else up[i])) & 0xFF
            if ftype == 3:
                for i in range(bpp, stride):
                    cur[i] = (cur[i] + ((cur[i - bpp] + up[i]) >> 1)) & 0xFF
            else:
                for i in range(bpp, stride):
                    a, b, c = cur[i - bpp], up[i], up[i - bpp]
                    # distances of a + b - c to a, b and c
                    pa, pb = b - c, a - c
                    pc = pa + pb
                    if pa < 0:
                        pa = -pa
                    if pb < 0:
                        pb = -pb
                    if pc < 0:
                        pc = -pc
                    pred = a if pa <= pb and pa <= pc else b if pb <= pc else c
                    cur[i] = (cur[i] + pred) & 0xFF
            dst[:] = np.frombuffer(cur, dtype=np.uint8)
        else:
            raise FormatError(f"unknown PNG filter type {ftype} at byte {y * (stride + 1)}")
        prior = dst
    return out


def _load_png_gray(png: ByteReader) -> RasterBand:
    if png.take(8, "signature") != _PNG_SIGNATURE:
        raise png.error("signature", "not a PNG", at=0)
    ihdr = idat_at = None
    idat = bytearray()
    while True:
        at = png.pos
        length, ctype = png.unpack(">I4s", "chunk header (no IEND yet)")
        chunk_at = png.pos
        chunk = png.take(length, f"{ctype!r} chunk")
        crc_at = png.pos
        (crc,) = png.unpack(">I", f"{ctype!r} CRC")
        if crc != zlib.crc32(chunk, zlib.crc32(ctype)):
            raise png.error(f"{ctype!r} CRC", "does not match the chunk", at=crc_at)
        if ctype == b"IHDR":
            if length != 13:
                raise png.error("IHDR", f"has {length} bytes, expected 13", at=at)
            ihdr = chunk_at, ByteReader(chunk, png.source).unpack(">IIBBBBB", "IHDR")
        elif ctype == b"IDAT":
            idat_at = at if idat_at is None else idat_at
            idat.extend(chunk)
        elif ctype == b"IEND":
            break
    if ihdr is None:
        raise png.error("IHDR", "missing before IEND", at=at)
    ihdr_at, (width, height, depth, color, comp, filt, interlace) = ihdr
    if color != 0:
        raise png.error("IHDR color type", f"only grayscale PNG is supported, got {color}",
                        at=ihdr_at + 9)
    if depth not in (8, 16):
        raise png.error("IHDR bit depth", f"only 8/16-bit PNG is supported, got {depth}",
                        at=ihdr_at + 8)
    if comp != 0 or filt != 0 or interlace != 0:
        raise png.error("IHDR", "unsupported compression/filter/interlace settings "
                        f"{comp}/{filt}/{interlace}", at=ihdr_at + 10)
    if width == 0 or height == 0:
        raise png.error("IHDR", f"zero dimensions {width}x{height}", at=ihdr_at)
    if idat_at is None:
        raise png.error("IDAT", "missing before IEND", at=at)
    bpp = depth // 8
    # one filter byte per row plus the samples: all that IHDR allows, so a
    # small file cannot inflate without bound
    limit = height * (width * bpp + 1)
    inflater = zlib.decompressobj()
    try:
        raw = inflater.decompress(idat, min(limit + 1, sys.maxsize))
    except zlib.error as exc:
        raise png.error("IDAT", f"corrupt image data: {exc}", at=idat_at) from exc
    if len(raw) > limit:
        raise png.error("IDAT", f"image data inflates past the {limit} bytes that IHDR "
                        "implies", at=idat_at)
    if not inflater.eof:
        raise png.error("IDAT", "corrupt image data: truncated zlib stream", at=idat_at)
    try:
        samples = _png_unfilter(raw, height, width * bpp, bpp)
    except FormatError as exc:
        raise png.error("IDAT", f"inflated image data: {exc}", at=idat_at) from exc
    arr = samples.view(">u2") if depth == 16 else samples
    return RasterBand(arr.astype(np.float64) / float(2**depth - 1))
