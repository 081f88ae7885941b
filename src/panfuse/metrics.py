"""Reduced- and full-resolution pansharpening quality metrics.

Reduced-resolution (full-reference) metrics: SAM, CC, UIQI, Q4, ERGAS.
Full-resolution (no-reference) metrics: D_lambda, D_s and their QNR product.

The windowed indices (UIQI, Q4, D_lambda, D_s) score every window at once.
Each band is centred on its image mean.  The window sums of it, its square
and of band products come from one kernel, run down the rows of the plane and
then down the rows of its transposed result: rows are summed in blocks of
g = gcd(window, stride), runs of 1, 2, 4, ... blocks are built by doubling,
and each window combines one run per set bit of its length in blocks, whether
windows overlap, tile or leave gaps.  The first step reads the image in the
row bands of whole blocks of ``raster.row_bands``: ``raster._BAND_ELEMENTS``
elements, the one budget of every blocked loop, or one block each.  Every
plane the statistics need (band - centre, its square, the band itself for
the max and the min, each band product) is formed for one band in a reused
buffer and reduced at once, while it is in cache, into a g-times-smaller
table of block sums, so no full-size temporary plane is formed.  Each window
sum adds the same values in the same order as a whole-plane pass would.  CC
and ERGAS sum dot products over the same row bands, and SAM forms its angles
in bands whose four work arrays share one band's budget.

Per-window covariances come from window sums of products of centred bands.
UIQI reads the covariance of each band of one image with the same band of the
other, D_lambda that of each pair of bands within one image and D_s that of
each band with PAN.  Q4 reads the four covariances UIQI reads, whose sum is
Hamilton part 0 of (f - mu_f) conj(m - mu_m), and one window table for each
of parts 1-3 (Alparone et al. 2004): the eight bands are centred once per row
band, each part is formed per pixel as the signed sum of its four band
products, and its window sums are corrected by the same signed sum of the
products of the window sums of the factors.  A window is flat when its max,
from the same kernel, equals its min, so the degenerate-window conventions
are exact.  A window whose one-pass variance is within rounding of zero (a
small spread far from the image mean) has its mean and variance, and every
covariance or part it enters, recomputed from its tiles in two passes.  The
high-resolution side of D_lambda / D_s multiplies window and stride by the
resolution ratio, so window statistics are invariant under pixel
replication.  What D_lambda and D_s read of the MS image and of PAN at both
scales is built once per call (``_full_refs``), so that
:func:`harness.run_experiment` can score every method against one build, as
it does against one set of window statistics of the ground truth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import raster
from .errors import DegenerateInputError, InvalidInputError
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


def _dot(u: np.ndarray, v: np.ndarray) -> float:
    """Sum of u * v over two 1-D arrays by numpy's own loop: np.dot's BLAS may
    split a long sum across threads, and its last bits then depend on their
    number."""
    return float(np.einsum("i,i->", u, v))


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
        ff += _dot(a, a)
        mm += _dot(b, b)
        fm += _dot(a, b)
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


def _window_runs(run: np.ndarray, starts: np.ndarray, window: int, ufunc) -> np.ndarray:
    """``ufunc`` over rows s .. s + window - 1, for each s in ``starts``, from
    ``run``, the reductions of consecutive g-row blocks, which it overwrites.

    Runs of 1, 2, 4, ... blocks are built by doubling, and each window combines
    one run per set bit of k = window / g.
    """
    g = _block_rows(starts, window)
    k, s = window // g, int(starts[1] - starts[0]) // g if starts.size > 1 else 1
    last = (starts.size - 1) * s
    out, offset, length = None, 0, 1
    while True:
        if k & length:
            part = run[offset : offset + last + 1 : s]
            offset += length
            if offset == k:
                return part if out is None else ufunc(out, part, out=out)
            out = part.copy() if out is None else ufunc(out, part, out=out)
        # in place: numpy gives overlapping operands copy semantics, and with
        # the output ahead of the input it needs no temporary copy for that
        run = ufunc(run[:-length], run[length:], out=run[:-length])
        length *= 2


def _window_rows(a: np.ndarray, starts: np.ndarray, window: int, ufunc) -> np.ndarray:
    """``ufunc`` over rows s .. s + window - 1 of ``a``, for each s in ``starts``."""
    g = _block_rows(starts, window)
    n = (int(starts[-1]) + window) // g
    blocks = ufunc.reduce(a[: n * g].reshape(n, g, *a.shape[1:]), axis=1)
    return _window_runs(blocks, starts, window, ufunc)


def _window_tables(grid: _WindowGrid, width: int, jobs, plane, buffers: int = 1):
    """``ufunc`` over every window of the plane of each (ufunc, key) job:
    (len(jobs), ny, nx).

    The row pass reads the image one band of whole g-row blocks at a time.
    ``plane(rows, key, work)`` gives rows ``rows`` of the plane of ``key``,
    read from an image or formed in the ``buffers`` (rows, width) arrays of
    ``work``, which are the same arrays on every call, so a plane may use what
    the last one left there; it is reduced into its table of g-row blocks
    before the next is formed.  The doubling and the column pass then run on
    these tables, g times smaller than a plane.  The jobs share a pass in
    groups whose tables hold at most a quarter of a plane or, if more, about
    two bands of ``raster._BAND_ELEMENTS``: for g < 8 on a large image they go
    one at a time, each with one table, as a whole-plane pass had.
    """
    g = _block_rows(grid.ys, grid.window)
    n = (int(grid.ys[-1]) + grid.window) // g
    # each pair of buffers gets about _BAND_ELEMENTS elements of a band
    bands = raster.row_bands(n * g, width * max(1, buffers // 2), g)
    size = max(1, min(len(jobs), max(g // 4, 2 * raster._BAND_ELEMENTS // (n * width))))
    # the result outlives the tables and buffers, so it is allocated first:
    # freed last-in, they leave no hole under it in the heap
    out = np.empty((len(jobs), grid.ys.size, grid.xs.size))
    tables = np.empty((size, n, width))
    work = np.empty((buffers, bands[0].stop, width))
    for lo in range(0, len(jobs), size):
        group = jobs[lo : lo + size]
        for rows in bands:
            blocks = slice(rows.start // g, rows.stop // g)
            for table, (ufunc, key) in zip(tables, group):
                formed = plane(rows, key, work[:, : rows.stop - rows.start])
                ufunc.reduce(formed.reshape(-1, g, width), axis=1, out=table[blocks])
        for t, (table, (ufunc, _)) in enumerate(zip(tables, group), lo):
            runs = np.ascontiguousarray(_window_runs(table, grid.ys, grid.window, ufunc).T)
            out[t] = _window_rows(runs, grid.xs, grid.window, ufunc).T
    return out


@dataclass(frozen=True)
class _Moments:
    """Per-window statistics, each (k, ny, nx), of the k bands of an image."""

    grid: _WindowGrid
    bands: np.ndarray  # (k, H, W)
    centre: list  # the image mean of each band
    dsum: np.ndarray  # window sums of band - centre
    mean: np.ndarray  # centre + dsum / n, or the tile's mean where redo
    var: np.ndarray  # ddof = 1
    flat: np.ndarray  # the window holds one value
    level: np.ndarray  # the window's first pixel, the value of a flat window
    redo: np.ndarray  # mean and var were recomputed from the tile in two passes


def _tile(a: np.ndarray, grid: _WindowGrid, iy: int, ix: int) -> np.ndarray:
    """The pixels of window (iy, ix) of a 2-D array."""
    y, x = grid.ys[iy], grid.xs[ix]
    return a[y : y + grid.window, x : x + grid.window]


def _covariance(cross, dsum_product, n: int) -> np.ndarray:
    """ddof = 1 covariance from the window sum of the centred product and the
    product of the window sums of its centred factors."""
    return (cross - dsum_product / n) / (n - 1)


def _moments(image, window: int, stride: int) -> _Moments:
    """Window statistics of a RasterBand or of every band of an MS image."""
    bands = image.data if isinstance(image, MultispectralImage) else image.data[None]
    grid = _window_origins(*bands[0].shape, window, stride)
    n = window * window
    centre = [x.mean() for x in bands]

    held = None  # (first row, band) of the centred rows in work[0]

    # key (b, p): band b centred and raised to the power p, or as it is for p = 0
    def plane(rows, key, work):
        nonlocal held
        b, p = key
        x = bands[b, rows]
        if p == 0:
            return x
        if held != (rows.start, b):
            np.subtract(x, centre[b], out=work[0])
        # the square comes after the first power of its band, so in place
        held = (rows.start, b) if p == 1 else None
        return work[0] if p == 1 else np.multiply(work[0], work[0], out=work[0])

    jobs = [job for b in range(len(bands))
            for job in ((np.add, (b, 1)), (np.add, (b, 2)), (np.maximum, (b, 0)),
                        (np.minimum, (b, 0)))]
    stats = _window_tables(grid, bands.shape[2], jobs, plane)
    stats = stats.reshape(len(bands), 4, *stats.shape[1:])
    # a copy, so that the other three statistics are freed when this returns
    dsum, square = stats[:, 0].copy(), stats[:, 1]
    mean = np.asarray(centre)[:, None, None] + dsum / n
    var = _covariance(square, dsum * dsum, n)
    # a window is flat when its max equals its min
    flat = stats[:, 2] == stats[:, 3]
    # One pass forms (n - 1) var = S2 - dsum^2 / n, where S2 is the window sum
    # of (x - c)^2, with a rounding error below 2 n eps S2 (Chan, Golub and
    # LeVeque 1983).  A window whose (n - 1) var is under 2^20 times that bound
    # may keep fewer than 20 correct bits, and its Q can leave [-1, 1]; it is
    # recomputed from its tile in two passes, and so are its covariances with
    # every band (see _cross).
    redo = ~flat & ((n - 1) * var <= 2.0**21 * n * np.finfo(float).eps * square)
    for b, y, x in np.argwhere(redo):
        tile = _tile(bands[b], grid, y, x)
        mean[b, y, x] = tile.mean()
        var[b, y, x] = np.square(tile - mean[b, y, x]).sum() / (n - 1)
    return _Moments(grid, bands, centre, dsum, mean, var, flat,
                    np.stack([x[np.ix_(grid.ys, grid.xs)] for x in bands]), redo)


def _centred_tile(x: _Moments, b: int, iy: int, ix: int) -> np.ndarray:
    tile = _tile(x.bands[b], x.grid, iy, ix)
    return tile - tile.mean()


def _signed_cross(a: _Moments, b: _Moments, sums, plane, buffers: int) -> np.ndarray:
    """Per-window covariance of each signed sum of products in ``sums``, a list
    of (s, i, j) terms for s (band i of a - mean) (band j of b - mean):
    (len(sums), ny, nx).

    ``plane`` forms the centred sum of a row band in ``buffers`` work arrays
    (see _window_tables).  A window that either image recomputed in two passes
    in any band of the sum takes the sum from its tiles in two passes too.
    """
    table = _window_tables(a.grid, a.bands.shape[2], [(np.add, t) for t in sums], plane, buffers)
    n = a.grid.window ** 2
    for cov, terms in zip(table, sums):
        cov[...] = _covariance(cov, _signed_products(terms, a.dsum, b.dsum), n)
        redo = np.logical_or.reduce([a.redo[i] | b.redo[j] for _, i, j in terms])
        for y, x in np.argwhere(redo):
            ta = {i: _centred_tile(a, i, y, x) for _, i, _ in terms}
            tb = {j: _centred_tile(b, j, y, x) for _, _, j in terms}
            cov[y, x] = np.sum(_signed_products(terms, ta, tb)) / (n - 1)
    return table


def _cross(a: _Moments, b: _Moments, pairs) -> np.ndarray:
    """Per-window covariance of band i of a with band j of b, for each (i, j) in
    ``pairs``: (len(pairs), ny, nx).

    Band i of a is centred again only when i or the rows change from one
    pair to the next.
    """
    held = None  # (first row, band i) of the centred rows in work[0]

    def plane(rows, terms, work):
        nonlocal held
        ((_, i, j),) = terms
        if held != (rows.start, i):
            np.subtract(a.bands[i, rows], a.centre[i], out=work[0])
            held = (rows.start, i)
        np.subtract(b.bands[j, rows], b.centre[j], out=work[1])
        return np.multiply(work[0], work[1], out=work[1])

    return _signed_cross(a, b, [((1, i, j),) for i, j in pairs], plane, 2)


def _q_map(mu_a, mu_b, var_a, var_b, cov, flat_a, flat_b, same) -> np.ndarray:
    """Per-window 2 cov / (var_a + var_b) x luminance; both flat -> same, one flat -> 0."""
    mu_sq = mu_a * mu_a + mu_b * mu_b
    with np.errstate(divide="ignore", invalid="ignore"):
        lum = np.where(mu_sq == 0.0, 1.0, 2.0 * (mu_a * mu_b) / mu_sq)  # symmetric in a, b
        q = 2.0 * cov / (var_a + var_b) * lum
    return np.where(flat_a & flat_b, same, np.where(flat_a | flat_b, 0.0, q))


def _uiqi_map(a: _Moments, i: int, b: _Moments, j: int, cov: np.ndarray) -> np.ndarray:
    return _q_map(a.mean[i], b.mean[j], a.var[i], b.var[j], cov,
                  a.flat[i], b.flat[j], a.level[i] == b.level[j])


def _uiqi_means(a: _Moments, b: _Moments, pairs) -> list:
    """Window-mean UIQI of band i of a with band j of b, for each (i, j) in ``pairs``."""
    return [_uiqi_map(a, i, b, j, cov).mean() for (i, j), cov in zip(pairs, _cross(a, b, pairs))]


# (sign, f band, m band) terms of the four parts of (f - mu_f) conj(m - mu_m),
# each term next to its transpose, so that the parts of an image with itself
# cancel exactly
_HAMILTON = (((1, 0, 0), (1, 1, 1), (1, 2, 2), (1, 3, 3)),
             ((1, 1, 0), (-1, 0, 1), (1, 3, 2), (-1, 2, 3)),
             ((1, 1, 3), (-1, 3, 1), (1, 2, 0), (-1, 0, 2)),
             ((1, 2, 1), (-1, 1, 2), (1, 3, 0), (-1, 0, 3)))


def _q4_tables(f: _Moments, m: _Moments) -> np.ndarray:
    """Per-window covariances (7, ny, nx): of band b of f with band b of m, for
    b = 0..3, then Hamilton parts 1-3; part 0 is the sum of the first four.

    Band b of f is centred into work[b] and band b of m into work[4 + b] once
    per row band and group of tables, and each part is formed as one plane.
    """
    if len(f.bands) != 4:
        raise InvalidInputError(f"Q4 requires exactly 4 bands, got {len(f.bands)}")
    bands, centres = (*f.bands, *m.bands), (*f.centre, *m.centre)
    held = [None] * 8  # first row of the centred band in each of work[0:8]

    def plane(rows, terms, work):
        for k in {i for _, i, _ in terms} | {4 + j for _, _, j in terms}:
            if held[k] != rows.start:
                np.subtract(bands[k][rows], centres[k], out=work[k])
                held[k] = rows.start
        return _signed_products(terms, work[:4], work[4:8], work[8], work[9])

    sums = [(term,) for term in _HAMILTON[0]] + list(_HAMILTON[1:])
    return _signed_cross(f, m, sums, plane, 10)


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
    return float(_uiqi_means(ma, mb, [(0, 0)])[0])


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
            sq += _dot(d, d)
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


def _scaled_moments(image, r: int, cfg: MetricConfig) -> _Moments:
    """Window statistics at PAN scale: window and stride times the ratio r."""
    return _moments(image, cfg.window * r, cfg.stride * r)


def _band_pairs(k: int) -> list:
    # Q is symmetric, so each unordered pair stands for both orders
    return [(i, j) for i in range(k) for j in range(i + 1, k)]


def _full_refs(M, P: RasterBand, P_L: RasterBand, r: int, cfg: MetricConfig) -> tuple:
    """What D_lambda and D_s read of the MS image M, of PAN P at r times its
    scale and of P_L, PAN degraded to the scale of M, the same for every fused
    image: the window statistics of P on windows and strides scaled by r, the
    UIQI of each _band_pairs pair of bands of M, and that of each band of M
    with P_L."""
    m = _moments(M, cfg.window, cfg.stride)
    k, h, w = m.bands.shape
    if P.data.shape != (h * r, w * r):
        raise InvalidInputError("PAN and fused dimensions differ")
    if P_L.data.shape != (h, w):
        raise InvalidInputError("degraded PAN and MS dimensions differ")
    low = _moments(P_L, cfg.window, cfg.stride)
    return (_scaled_moments(P, r, cfg), _uiqi_means(m, m, _band_pairs(k)),
            _uiqi_means(m, low, [(b, 0) for b in range(k)]))


def _distortion(reference: list, fused: list) -> float:
    """Mean absolute gap between matching UIQI values."""
    return sum(abs(a - b) for a, b in zip(reference, fused)) / len(reference)


def _d_lambda(f: _Moments, q_bands: list) -> float:
    if not q_bands:
        raise InvalidInputError("spectral distortion needs at least two bands")
    return _distortion(q_bands, _uiqi_means(f, f, _band_pairs(len(f.bands))))


def _d_s(f: _Moments, high: _Moments, q_low: list) -> float:
    pairs = [(b, 0) for b in range(len(f.bands))]
    return _distortion(q_low, _uiqi_means(f, high, pairs))


def d_lambda(M, F, cfg: MetricConfig | None = None) -> float:
    """Spectral distortion: mean gap between the inter-band UIQI of M and of F
    over band pairs.

    M sits at MS scale and F at PAN scale; windows on the F side scale with
    the resolution ratio.
    """
    cfg = cfg or MetricConfig()
    r = _ratio(M, F)
    m = _moments(M, cfg.window, cfg.stride)
    f = _scaled_moments(F, r, cfg)
    return _d_lambda(f, _uiqi_means(m, m, _band_pairs(len(m.bands))))


def d_s(M, F, P: RasterBand, P_L: RasterBand, cfg: MetricConfig | None = None) -> float:
    """Spatial distortion: mean gap between UIQI(band, PAN) at the two scales
    over bands."""
    cfg = cfg or MetricConfig()
    r = _ratio(M, F)
    high, _, q_low = _full_refs(M, P, P_L, r, cfg)
    return _d_s(_scaled_moments(F, r, cfg), high, q_low)


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
        if not all(math.isfinite(v) for v in entries.values()):
            raise InvalidInputError("report contains non-finite metric values")
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

        cfg = MetricConfig(window=get("window", int), stride=get("stride", int),
                           ratio=get("ratio", Fraction))
        known = REDUCED_METRICS + FULL_METRICS
        entries = {k: get(k, float) for k in fields if k in known}
        return QualityReport(mode=get("mode", str), entries=entries, config=cfg)


def _reduced(fi: MultispectralImage, gi: MultispectralImage, g: _Moments,
             cfg: MetricConfig) -> QualityReport:
    """Full-reference scoring of fi against gi, whose window statistics are g."""
    # the window statistics of fi are built after SAM and CC, so their memory peaks do not add
    entries = {"SAM": sam_global(fi, gi), "CC": cc(fi, gi)}
    f = _moments(fi, cfg.window, cfg.stride)
    # UIQI reads the first four of Q4's covariance tables
    covs = _q4_tables(f, g)
    entries["UIQI"] = float(np.mean([_uiqi_map(f, b, g, b, covs[b]).mean()
                                     for b in range(fi.band_count)]))
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
    high, q_bands, q_low = refs
    f = _scaled_moments(F, r, cfg)
    dl = _d_lambda(f, q_bands)
    ds = _d_s(f, high, q_low)
    entries = {"D_lambda": dl, "D_s": ds, "QNR": qnr(dl, ds)}
    return QualityReport(mode="full", entries=entries, config=cfg)


def evaluate_full(F, M, P: RasterBand, P_L: RasterBand,
                  cfg: MetricConfig | None = None) -> QualityReport:
    """No-reference scoring of a fused image against its MS/PAN inputs.

    D_lambda and D_s share the window statistics of F.
    """
    cfg = cfg or MetricConfig()
    r = _ratio(M, F)
    return _full(F, _full_refs(M, P, P_L, r, cfg), r, cfg)
