"""Reduced- and full-resolution pansharpening quality metrics.

Reduced-resolution (full-reference) metrics: SAM, CC, UIQI, Q4, ERGAS.
Full-resolution (no-reference) metrics: D_lambda, D_s and their QNR product.

The windowed indices (UIQI, Q4, D_lambda, D_s) score every window at once,
and every window takes one path (``_window_tables``).  A window is whole
blocks of gy x gx pixels, g = gcd(window, stride) on each axis, or the window
on an axis with one window.  The planes are read in tiles of whole blocks,
about ``raster._BAND_ELEMENTS`` elements a pair of buffers, the one budget of
every blocked loop.  In a tile each band is shifted by the first pixel of
each block, its pivot, and the block sums of the shifted band and of the
products of shifted bands are formed while it is in cache; each block keeps
its pivot, the offset of its mean from it and its sums about its mean.
Blocks are merged into runs of 1, 2, 4, ... blocks by doubling, and a window
merges one run per set bit of its length in blocks, down the rows and then
across the columns, by the pairwise update of Chan, Golub and LeVeque
(1983).  The update moves the offsets, never the pivots, so its rounding
error grows with a window's spread, not with its distance from zero: a
plateau of 16-bit calm water or saturation, or a window one float32 step
from flat, needs no second pass.  A block's statistics do not depend on the
tile it was read in, so the budget moves no bit of any window statistic.
CC and ERGAS sum dot products over row bands, and SAM forms its angles in
bands whose four work arrays share one band's budget.

Each windowed index reads pairs of planes of one ``_Moments`` (``_join``
chains two) in one covariance pass, and D_lambda and D_s share one per image:
the fused bands with PAN, and the MS bands with PAN degraded to their scale.
UIQI reads the covariance of each band of one image with the same band of the
other, D_lambda that of each pair of bands within one image and D_s that of
each band with PAN.  Q4 reads the four covariances UIQI reads, whose sum is
Hamilton part 0 of (f - mu_f) conj(m - mu_m), and one window table for each
of parts 1-3 (Alparone et al. 2004), each the signed sum of four band
products, per pixel and in every merge, each term next to its transpose: so
Q(a, a) is exactly 1.  A window is flat when its sum of squares about its
mean is zero.  A block's sum is its sum about its pivot, one of its own
pixels, less the block size times its squared offset: positive unless every
pixel equals the pivot.  Each merge adds two such sums and a non-negative
term.  So the sum is zero exactly when the window holds one value, and the
degenerate-window conventions are exact, unless squared differences
underflow: that needs pixels within about 1e-162 of each other, finer than
any float32 or 16-bit input.  The high-resolution side of D_lambda / D_s
multiplies window and stride by the resolution ratio, so window statistics
are invariant under pixel replication.  What D_lambda and D_s read of the
MS image and of PAN at both scales is built once per call (``_full_refs``),
so that :func:`harness.run_experiment` can score every method against one
build, as it does against one set of window statistics of the ground truth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import raster
from .errors import ConfigError, DegenerateInputError, InvalidInputError
from .raster import MultispectralImage, RasterBand, csv_format, kv_format, kv_parse, kv_value

REDUCED_METRICS = ("SAM", "CC", "UIQI", "Q4", "ERGAS")
FULL_METRICS = ("D_lambda", "D_s", "QNR")


@dataclass(frozen=True)
class MetricConfig:
    """Window and stride of the windowed indices, and the pixel-size ratio.

    ``ratio`` is the PAN-to-MS pixel-size ratio d_h/d_l used by ERGAS
    (1/4 for a 4:1 sharpening ratio).
    """

    window: int = 32
    stride: int = 32
    ratio: Fraction = Fraction(1, 4)

    def __post_init__(self):
        if self.window < 2:
            raise InvalidInputError(f"window must be >= 2, got {self.window}")
        if self.stride < 1:
            raise InvalidInputError(f"stride must be >= 1, got {self.stride}")
        if not 0 < self.ratio <= np.finfo(float).max:
            raise InvalidInputError("pixel-size ratio must be positive and within the float range")


def _as_ms(image) -> MultispectralImage:
    if isinstance(image, MultispectralImage):
        return image
    raise InvalidInputError(f"expected a multispectral image, got {type(image).__name__}")


def _as_band(image) -> RasterBand:
    if isinstance(image, RasterBand):
        return image
    raise InvalidInputError(f"expected a single band, got {type(image).__name__}")


def _signed_products(terms, a, b, out=None, tmp=None) -> np.ndarray:
    """Sum of s * a[i] * b[j] over the (s, i, j) of ``terms``, added in their
    order into ``out``, with ``tmp`` holding each later product (new arrays
    where None).  The first sign must be +1."""
    (_, i, j), *rest = terms
    out = np.multiply(a[i], b[j], out=out)
    for s, i, j in rest:
        (np.add if s > 0 else np.subtract)(out, np.multiply(a[i], b[j], out=tmp), out=out)
    return out


# ---------------------------------------------------------------------------
# spectral angle


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


def _angle_blocks(fi: MultispectralImage, mi: MultispectralImage):
    """Per-pixel spectral angles in degrees, as (rows, angles) for row bands.

    Every band is formed in the same four reused buffers, which share one
    band's budget of elements, so the caller must use it before taking the next.
    """
    if fi.band_count < 2:
        raise InvalidInputError("spectral angle needs at least two bands")
    bands = raster.row_bands(fi.height, 4 * fi.width)
    work = np.empty((4, bands[0].stop, fi.width))
    same = [(1, k, k) for k in range(fi.band_count)]
    for rows in bands:
        f, m = fi.data[:, rows], mi.data[:, rows]
        dot, sf, sm, ang = work[:, : f.shape[1]]
        _signed_products(same, f, m, dot, ang)
        _signed_products(same, f, f, sf, ang)
        _signed_products(same, m, m, sm, ang)
        # single sqrt of the product keeps cos exactly 1 for identical vectors
        norm = np.sqrt(np.multiply(sf, sm, out=sf), out=sf)
        # a zero spectral vector keeps cos = 1, so its angle is exactly 0
        ang.fill(1.0)
        np.divide(dot, norm, out=ang, where=norm > 0.0)
        np.clip(ang, -1.0, 1.0, out=ang)
        np.degrees(np.arccos(ang, out=ang), out=ang)
        yield rows, ang


def sam_global(F, M) -> float:
    """Mean per-pixel spectral angle between F and M, in degrees."""
    fi, mi = _check_pair(F, M)
    total = sum(float(ang.sum()) for _, ang in _angle_blocks(fi, mi))
    return total / (fi.height * fi.width)


def sam_map(F, M) -> RasterBand:
    """Per-pixel angle map linearized so min maps to 0 and max to 255.

    Rounding is half-up; a constant angle map yields all zeros.
    """
    fi, mi = _check_pair(F, M)
    ang = np.empty((fi.height, fi.width))
    for rows, block in _angle_blocks(fi, mi):
        ang[rows] = block
    lo, hi = float(ang.min()), float(ang.max())
    if hi == lo:
        return RasterBand(np.zeros_like(ang))
    ang -= lo
    ang /= hi - lo
    ang *= 255.0
    ang += 0.5
    return RasterBand(np.floor(ang, out=ang))


# ---------------------------------------------------------------------------
# correlation coefficient


def _cc_band(f: np.ndarray, m: np.ndarray) -> float:
    mu_f, mu_m = f.mean(), m.mean()
    bands = raster.row_bands(*f.shape)
    fc, mc = np.empty((2, bands[0].stop, f.shape[1]))
    ff = mm = fm = 0.0
    for rows in bands:
        a = np.subtract(f[rows], mu_f, out=fc[: rows.stop - rows.start]).ravel()
        b = np.subtract(m[rows], mu_m, out=mc[: rows.stop - rows.start]).ravel()
        ff += raster.dot(a, a)
        mm += raster.dot(b, b)
        fm += raster.dot(a, b)
    den = math.sqrt(ff * mm)
    if den == 0.0:
        raise DegenerateInputError("correlation undefined for a constant image")
    return fm / den


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


def _block_rows(starts: np.ndarray, window: int) -> int:
    """g = gcd(window, stride): a window is window / g whole blocks of g rows."""
    return math.gcd(window, int(starts[1] - starts[0]) if starts.size > 1 else window)


def _window_runs(run: np.ndarray, starts: np.ndarray, window: int, size: int,
                 merge) -> np.ndarray:
    """The statistics of blocks s .. s + window - 1 along axis 1, for each s in
    ``starts``, from ``run``, those of consecutive g-long blocks of ``size``
    pixels each, which it overwrites.

    Runs of 1, 2, 4, ... blocks are built by doubling, and each window combines
    one run per set bit of k = window / g.  ``merge(a, b, n_a, n_b)`` puts in
    a the statistics of runs a and b, of n_a and n_b pixels, joined.
    """
    g = _block_rows(starts, window)
    k, s = window // g, int(starts[1] - starts[0]) // g if starts.size > 1 else 1
    last = (starts.size - 1) * s
    out, offset, length = None, 0, 1
    while True:
        if k & length:
            part = run[:, offset : offset + last + 1 : s]
            if out is None:
                out = part.copy()
            else:
                merge(out, part, offset * size, length * size)
            offset += length
            if offset == k:
                return out
        # in place: numpy gives overlapping operands copy semantics, and with
        # the output ahead of the input it needs no temporary copy for that
        merge(run[:, :-length], run[:, length:], length * size, length * size)
        length *= 2


def _chan_merge(count: int, sums):
    """The merge of _window_runs for ``count`` planes and the centred sums of
    ``sums`` (Chan, Golub and LeVeque 1983).  The statistics are, for each
    plane, the pivot (the run's first pixel) and the offset of the mean from
    it, then the sums.  With n = n_a + n_b and d = mu_b - mu_a, the offset
    takes d n_b / n, and a sum adds the same signed sum of products of the d
    of its factors, in order, times n_a n_b / n.  The run keeps the pivot of
    a; the offsets, and so d, are about the spread of a run, not its level,
    and so is the rounding error.
    """
    def merge(a, b, n_a, n_b):
        d = np.subtract(b[:count], a[:count])
        d += np.subtract(b[count : 2 * count], a[count : 2 * count])
        np.add(a[2 * count :], b[2 * count :], out=a[2 * count :])
        between, tmp = np.empty_like(a[2 * count :]), np.empty_like(d[0])
        for sum_, terms in zip(between, sums):
            _signed_products(terms, d, d, sum_, tmp)
        between *= n_a * n_b / (n_a + n_b)
        a[2 * count :] += between
        d *= n_b / (n_a + n_b)
        a[count : 2 * count] += d
    return merge


def _block_columns(rows: np.ndarray, gx: int, buffer, out) -> None:
    """The sums of each gx columns of every (r, c) table of ``rows`` into
    ``out``, added in their order, through ``buffer``.  numpy keeps that order
    only beside a longer axis, so a table is at least two blocks wide, or one
    block as wide as the plane; so is a table of rows summed the same way."""
    k, r, c = rows.shape
    cols = buffer[: rows.size].reshape(k, r, gx, c // gx)
    np.copyto(cols, rows.reshape(k, r, c // gx, gx).swapaxes(2, 3))
    np.add.reduce(cols, axis=2, out=out)


def _window_tables(grid: _WindowGrid, planes, sums, offsets=None):
    """Window statistics of ``planes`` and of the signed products in ``sums``,
    a list of (s, i, j) terms for s (planes[i] - mean) (planes[j] - mean).

    Returns (tables, offsets).  ``tables`` (2 len(planes) + len(sums), ny, nx)
    holds the first pixel of each window of each plane, then the window mean
    of each plane, then the window sum of each centred product.  ``offsets``
    (len(planes), nby, nbx) holds the mean of each block of each plane less
    its first pixel, its pivot; pass it back to skip forming it again.

    A window is whole blocks of gy x gx pixels, g = _block_rows on each axis.
    The planes are read in tiles of whole blocks, at least two of them wide
    (see _block_columns), whose buffers hold about ``raster._BAND_ELEMENTS``
    elements a pair.  Each plane is shifted by the pivot of each block in a
    buffer, and the block sums of it and of the products of the shifted planes
    are formed while the tile is in cache; a sum less the block size times the
    product of the offsets is the sum about the block means.  The blocks are
    merged into windows down the rows and then across the columns
    (_chan_merge).  Every window takes this one path, and no statistic
    depends on the tiles.
    """
    gy, gx = (_block_rows(starts, grid.window) for starts in (grid.ys, grid.xs))
    nby, nbx = ((int(s[-1]) + grid.window) // g for s, g in ((grid.ys, gy), (grid.xs, gx)))
    count, size = len(planes), gy * gx
    # a shifted plane each, the product and, for a sum of several, one more
    buffers = count + min(2, max(map(len, sums), default=1))
    pairs = (buffers + 1) // 2
    tiles = []
    for cols in raster.row_bands(nbx * gx, gy * pairs, 2 * gx):
        # a last strip of one block takes in the block before it
        cols = slice(max(0, min(cols.start, cols.stop - 2 * gx)), cols.stop)
        c = cols.stop - cols.start
        tiles += [(rows, cols) for rows in raster.row_bands(nby * gy, c * pairs, gy)]
    largest = max((rows.stop - rows.start) * (cols.stop - cols.start) for rows, cols in tiles)
    # pivots, offsets and sums; the offsets formed here are block sums until the tiles end
    moments = np.empty((2 * count + len(sums), nby, nbx))
    pivots = moments[:count]
    for pivot, plane in zip(pivots, planes):
        pivot[...] = plane[: nby * gy : gy, : nbx * gx : gx]
    first = count if offsets is None else 2 * count  # the first statistic summed in the tiles
    if offsets is not None:
        moments[count : 2 * count] = offsets
    summed = len(moments) - first
    work = np.empty((buffers, largest))
    # the block rows of each statistic of a tile, g times smaller than it, and
    # the pivot under each pixel of a block row
    block_rows = np.empty((summed + 1, largest // gy))
    buffer = np.empty(summed * (largest // gy))
    for rows, cols in tiles:
        r, c = rows.stop - rows.start, cols.stop - cols.start
        by, bx = slice(rows.start // gy, rows.stop // gy), slice(cols.start // gx, cols.stop // gx)
        shifted = work[:, : r * c].reshape(-1, r, c)
        tile_rows = block_rows[:, : r // gy * c].reshape(-1, r // gy, c)
        under = tile_rows[-1].reshape(r // gy, 1, c)
        for v, plane in enumerate(planes):
            x = plane[rows, cols].reshape(r // gy, gy, c)
            np.copyto(under.reshape(r // gy, -1, gx), pivots[v, by, bx, None])
            np.subtract(x, under, out=shifted[v].reshape(r // gy, gy, c))
            if offsets is None:
                np.add.reduce(shifted[v].reshape(r // gy, gy, c), axis=1, out=tile_rows[v])
        for t, terms in enumerate(sums, summed - len(sums)):
            product = _signed_products(terms, shifted, shifted, shifted[count], shifted[-1])
            np.add.reduce(product.reshape(r // gy, gy, c), axis=1, out=tile_rows[t])
        _block_columns(tile_rows[:summed], gx, buffer, moments[first:, by, bx])
    if offsets is None:
        moments[count : 2 * count] /= size
        offsets = moments[count : 2 * count].copy()
    # the sums about the block means
    for t, terms in enumerate(sums, 2 * count):
        moments[t] -= size * _signed_products(terms, offsets, offsets)
    merge = _chan_merge(count, sums)
    runs = _window_runs(moments, grid.ys, grid.window, size, merge)
    runs = _window_runs(np.ascontiguousarray(runs.transpose(0, 2, 1)), grid.xs, grid.window,
                        grid.window * gx, merge)
    tables = np.ascontiguousarray(runs.transpose(0, 2, 1))
    # the pivot of a window is its first pixel, and its mean the pivot plus the offset
    tables[count : 2 * count] += tables[:count]
    return tables, offsets


@dataclass(frozen=True)
class _Moments:
    """Per-window statistics, each (k, ny, nx), of k planes on one window grid."""

    grid: _WindowGrid
    bands: tuple  # the k (H, W) planes
    offsets: np.ndarray  # of the blocks (see _window_tables), (k, nby, nbx)
    mean: np.ndarray
    var: np.ndarray  # ddof = 1
    flat: np.ndarray  # the window holds one value: its sum of squares about its mean is 0
    level: np.ndarray  # the window's first pixel, the value of a flat window


def _moments(image, window: int, stride: int) -> _Moments:
    """Window statistics of a RasterBand or of every band of an MS image."""
    bands = tuple(image.data if isinstance(image, MultispectralImage) else image.data[None])
    grid = _window_origins(*bands[0].shape, window, stride)
    k = len(bands)
    stats, offsets = _window_tables(grid, bands, [((1, b, b),) for b in range(k)])
    # before the division, which could take a subnormal sum to 0
    flat = stats[2 * k :] == 0.0
    stats[2 * k :] /= window * window - 1
    return _Moments(grid, bands, offsets, stats[k : 2 * k], stats[2 * k :], flat, stats[:k])


def _join(a: _Moments, b: _Moments) -> _Moments:
    """The planes of a, then those of b, on the grid of a, which b must share."""
    return _Moments(a.grid, a.bands + b.bands,
                    *(np.concatenate((getattr(a, name), getattr(b, name)))
                      for name in ("offsets", "mean", "var", "flat", "level")))


def _covariances(s: _Moments, sums) -> np.ndarray:
    """Per-window covariance (ddof = 1) of each signed sum of products in
    ``sums``, whose (s, i, j) terms index the planes of s: (len(sums), ny, nx)."""
    stats, _ = _window_tables(s.grid, s.bands, sums, s.offsets)
    return stats[2 * len(s.bands):] / (s.grid.window ** 2 - 1)


def _q_map(mu_a, mu_b, var_a, var_b, cov, flat_a, flat_b, same) -> np.ndarray:
    """Per-window 2 cov / (var_a + var_b) x luminance; both flat -> same, one flat -> 0."""
    mu_sq = mu_a * mu_a + mu_b * mu_b
    with np.errstate(divide="ignore", invalid="ignore"):
        lum = np.where(mu_sq == 0.0, 1.0, 2.0 * (mu_a * mu_b) / mu_sq)  # symmetric in a, b
        q = 2.0 * cov / (var_a + var_b) * lum
    return np.where(flat_a & flat_b, same, np.where(flat_a | flat_b, 0.0, q))


def _uiqi_map(s: _Moments, i: int, j: int, cov: np.ndarray) -> np.ndarray:
    return _q_map(s.mean[i], s.mean[j], s.var[i], s.var[j], cov,
                  s.flat[i], s.flat[j], s.level[i] == s.level[j])


def _uiqi_means(s: _Moments, pairs) -> list:
    """Window-mean UIQI of plane i of s with plane j, for each (i, j) in ``pairs``."""
    covs = _covariances(s, [((1, i, j),) for i, j in pairs])
    return [_uiqi_map(s, i, j, cov).mean() for (i, j), cov in zip(pairs, covs)]


# (sign, f band, 4 + m band) terms of the four parts of (f - mu_f) conj(m - mu_m),
# each term next to its transpose, so that the parts of an image with itself
# cancel exactly
_HAMILTON = (((1, 0, 4), (1, 1, 5), (1, 2, 6), (1, 3, 7)),
             ((1, 1, 4), (-1, 0, 5), (1, 3, 6), (-1, 2, 7)),
             ((1, 1, 7), (-1, 3, 5), (1, 2, 4), (-1, 0, 6)),
             ((1, 2, 5), (-1, 1, 6), (1, 3, 4), (-1, 0, 7)))


def _q4_tables(f: _Moments, m: _Moments) -> np.ndarray:
    """Per-window covariances (7, ny, nx): of band b of f with band b of m, for
    b = 0..3, then Hamilton parts 1-3; part 0 is the sum of the first four."""
    if len(f.bands) != 4:
        raise InvalidInputError(f"Q4 requires exactly 4 bands, got {len(f.bands)}")
    return _covariances(_join(f, m), [(term,) for term in _HAMILTON[0]] + list(_HAMILTON[1:]))


def _q4_value(f: _Moments, m: _Moments, covs: np.ndarray) -> float:
    """Window mean of quaternion Q; a window is flat when it is flat in all four bands."""
    parts = [sum(covs[:4]), *covs[4:]]
    q = _q_map(*(np.linalg.norm(x.mean, axis=0) for x in (f, m)), f.var.sum(0), m.var.sum(0),
               np.linalg.norm(parts, axis=0), f.flat.all(0), m.flat.all(0),
               (f.level == m.level).all(0))
    return float(q.mean())


def uiqi(A: RasterBand, B: RasterBand, cfg: MetricConfig | None = None) -> float:
    """Wang-Bovik index averaged over window x window tiles at the given stride."""
    cfg = cfg or MetricConfig()
    a, b = _as_band(A), _as_band(B)
    if a.data.shape != b.data.shape:
        raise InvalidInputError(f"dimensions differ: {a.data.shape} vs {b.data.shape}")
    ma, mb = (_moments(x, cfg.window, cfg.stride) for x in (a, b))
    return float(_uiqi_means(_join(ma, mb), [(0, 1)])[0])


def q4(F, M, cfg: MetricConfig | None = None) -> float:
    """Quaternion-valued UIQI for exactly four bands, averaged over windows."""
    cfg = cfg or MetricConfig()
    f, m = (_moments(x, cfg.window, cfg.stride) for x in _check_pair(F, M))
    return _q4_value(f, m, _q4_tables(f, m))


# ---------------------------------------------------------------------------
# ERGAS


def ergas(F, M, cfg: MetricConfig | None = None) -> float:
    """Scaled RMS of band-relative errors: 100 (d_h/d_l) sqrt(mean_k (RMSE_k / mu_k)^2)."""
    cfg = cfg or MetricConfig()
    fi, mi = _check_pair(F, M)
    bands = raster.row_bands(fi.height, fi.width)
    diff = np.empty((bands[0].stop, fi.width))
    acc = 0.0
    for f, m in zip(fi.data, mi.data):
        mu = float(m.mean())
        if mu == 0.0:
            raise DegenerateInputError("ERGAS undefined for a zero-mean reference band")
        sq = 0.0
        for rows in bands:
            d = np.subtract(f[rows], m[rows], out=diff[: rows.stop - rows.start]).ravel()
            sq += raster.dot(d, d)
        rmse = math.sqrt(sq / f.size)
        acc += (rmse / mu) ** 2
    return 100.0 * float(cfg.ratio) * math.sqrt(acc / fi.band_count)


# ---------------------------------------------------------------------------
# no-reference distortions


def _ratio(M, F) -> int:
    """The resolution ratio of F over M, which must have as many bands."""
    mi, fi = _as_ms(M), _as_ms(F)
    if mi.band_count != fi.band_count:
        raise InvalidInputError("band counts differ")
    if fi.height % mi.height or fi.width % mi.width:
        raise InvalidInputError(
            f"high-resolution size {fi.height}x{fi.width} is not an integer multiple "
            f"of {mi.height}x{mi.width}"
        )
    r_h = fi.height // mi.height
    r_w = fi.width // mi.width
    if r_h != r_w:
        raise InvalidInputError(f"anisotropic scale factors {r_h} vs {r_w}")
    return r_h


def _band_pairs(k: int) -> list:
    # Q is symmetric, so each unordered pair stands for both orders
    return [(i, j) for i in range(k) for j in range(i + 1, k)]


def _full_refs(M, P: RasterBand, P_L: RasterBand, r: int, cfg: MetricConfig,
               spatial_only: bool = False) -> tuple:
    """What D_lambda and D_s read of the MS image M, of PAN P at r times its
    scale and of P_L, PAN degraded to the scale of M, the same for every fused
    image: the window statistics of P on windows and strides times r, the
    pairs of the k bands of M and P_L, as plane k, in _band_pairs order, and
    the UIQI of each pair, from one pass.  A pair (i, k) is D_s's, and any
    other D_lambda's; ``spatial_only`` takes D_s's pairs alone."""
    m = _moments(M, cfg.window, cfg.stride)
    k, (h, w) = len(m.bands), m.bands[0].shape
    if P.data.shape != (h * r, w * r):
        raise InvalidInputError("PAN and fused dimensions differ")
    if P_L.data.shape != (h, w):
        raise InvalidInputError("degraded PAN and MS dimensions differ")
    joint = _join(m, _moments(P_L, cfg.window, cfg.stride))
    pairs = [(i, k) for i in range(k)] if spatial_only else _band_pairs(k + 1)
    return _moments(P, cfg.window * r, cfg.stride * r), pairs, _uiqi_means(joint, pairs)


def _gaps(F, refs: tuple, r: int, cfg: MetricConfig) -> tuple:
    """|UIQI of F - reference| of each pair of ``refs``, the scene's _full_refs,
    F at r times their scale, from one pass: D_lambda's, then D_s's."""
    high, pairs, reference = refs
    f = _moments(F, cfg.window * r, cfg.stride * r)
    k = len(f.bands)
    gaps = [abs(a - b) for a, b in zip(reference, _uiqi_means(_join(f, high), pairs))]
    return ([gap for (_, j), gap in zip(pairs, gaps) if j < k],
            [gap for (_, j), gap in zip(pairs, gaps) if j == k])


def _distortion(gaps: list) -> float:
    """Mean gap between matching UIQI values; only D_lambda's can be none."""
    if not gaps:
        raise InvalidInputError("spectral distortion needs at least two bands")
    return sum(gaps) / len(gaps)


def d_lambda(M, F, cfg: MetricConfig | None = None) -> float:
    """Spectral distortion: mean gap between the inter-band UIQI of M and of F
    over band pairs.

    M sits at MS scale and F at PAN scale; windows on the F side scale with
    the resolution ratio.
    """
    cfg = cfg or MetricConfig()
    r = _ratio(M, F)
    m, f = _moments(M, cfg.window, cfg.stride), _moments(F, cfg.window * r, cfg.stride * r)
    pairs = _band_pairs(len(m.bands))
    return _distortion([abs(a - b) for a, b in zip(_uiqi_means(m, pairs), _uiqi_means(f, pairs))])


def d_s(M, F, P: RasterBand, P_L: RasterBand, cfg: MetricConfig | None = None) -> float:
    """Spatial distortion: mean gap between UIQI(band, PAN) at the two scales
    over bands."""
    cfg = cfg or MetricConfig()
    r = _ratio(M, F)
    refs = _full_refs(M, P, P_L, r, cfg, spatial_only=True)
    return _distortion(_gaps(F, refs, r, cfg)[1])


def qnr(dl: float, ds: float) -> float:
    """No-reference quality: (1 - D_lambda) * (1 - D_s)."""
    if not (0.0 <= dl <= 1.0) or not (0.0 <= ds <= 1.0):
        raise InvalidInputError(f"distortions must lie in [0, 1], got {dl}, {ds}")
    return (1.0 - dl) * (1.0 - ds)


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
        for name, value in entries.items():
            if not math.isfinite(value):
                raise InvalidInputError(f"metric {name!r} is not finite: {value}")
        object.__setattr__(self, "entries", entries)

    def metric_names(self) -> tuple:
        return REDUCED_METRICS if self.mode == "reduced" else FULL_METRICS

    def to_csv(self) -> str:
        names = self.metric_names()
        return csv_format(names, [[f"{self.entries[n]:.6g}" for n in names]])

    def to_kv(self) -> str:
        c = self.config
        return kv_format([
            ("mode", self.mode), ("window", c.window), ("stride", c.stride), ("ratio", c.ratio),
            *((name, self.entries[name]) for name in self.metric_names()),
        ])

    @staticmethod
    def parse_kv(text, source: str = "report") -> "QualityReport":
        """Read :meth:`to_kv` output (text or bytes); other keys are ignored."""
        fields = kv_parse(text, source)

        def get(key, convert):
            return kv_value(fields, key, convert, source)

        window, stride, ratio = get("window", int), get("stride", int), get("ratio", Fraction)
        entries = {k: get(k, float) for k in fields if k in REDUCED_METRICS + FULL_METRICS}
        mode = get("mode", str)
        try:
            return QualityReport(mode, entries, MetricConfig(window, stride, ratio))
        except InvalidInputError as exc:
            raise ConfigError(f"{source}: {exc}") from exc


def _reduced(fi: MultispectralImage, gi: MultispectralImage, g: _Moments,
             cfg: MetricConfig) -> QualityReport:
    """Full-reference scoring of fi against gi, whose window statistics are g."""
    # the window statistics of fi are built after SAM and CC, so their memory peaks do not add
    entries = {"SAM": sam_global(fi, gi), "CC": cc(fi, gi)}
    f = _moments(fi, cfg.window, cfg.stride)
    # UIQI reads the first four of Q4's covariance tables
    covs, s, k = _q4_tables(f, g), _join(f, g), fi.band_count
    entries["UIQI"] = float(np.mean([_uiqi_map(s, b, k + b, covs[b]).mean() for b in range(k)]))
    entries["Q4"] = _q4_value(f, g, covs)
    entries["ERGAS"] = ergas(fi, gi, cfg)
    return QualityReport(mode="reduced", entries=entries, config=cfg)


def evaluate_reduced(F, GT, cfg: MetricConfig | None = None) -> QualityReport:
    """Full-reference scoring of a fused image against ground truth."""
    cfg = cfg or MetricConfig()
    fi, gi = _check_pair(F, GT)
    return _reduced(fi, gi, _moments(gi, cfg.window, cfg.stride), cfg)


def _full(F, refs: tuple, r: int, cfg: MetricConfig) -> QualityReport:
    """No-reference scoring of F, at r times the scale of the MS image of
    ``refs``, the _full_refs of the scene."""
    dl, ds = map(_distortion, _gaps(F, refs, r, cfg))
    entries = {"D_lambda": dl, "D_s": ds, "QNR": qnr(dl, ds)}
    return QualityReport(mode="full", entries=entries, config=cfg)


def evaluate_full(F, M, P: RasterBand, P_L: RasterBand,
                  cfg: MetricConfig | None = None) -> QualityReport:
    """No-reference scoring of a fused image against its MS/PAN inputs.

    D_lambda and D_s share the window statistics of F and one covariance pass.
    """
    cfg = cfg or MetricConfig()
    r = _ratio(M, F)
    return _full(F, _full_refs(M, P, P_L, r, cfg), r, cfg)
