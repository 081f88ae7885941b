"""Independent brute-force reference implementations used to verify the fast paths.

Everything here is written straight from the metric definitions with plain
loops and explicit statistics; nothing is shared with the package internals,
except that :func:`chain_q_index` composes the public elementwise and
reduction ops of :mod:`panfuse.autodiff`, and :func:`tape_keeping_backward`
walks the tape that those ops record.
"""

import math

import numpy as np

from panfuse import autodiff as ad


def window_origins(h, w, window, stride):
    return [
        (y, x)
        for y in range(0, h - window + 1, stride)
        for x in range(0, w - window + 1, stride)
    ]


def naive_window_reduce(a, window, stride, fn):
    """``fn`` of every window x window tile of a 2-D array, as an (ny, nx) array."""
    ys = range(0, a.shape[0] - window + 1, stride)
    xs = range(0, a.shape[1] - window + 1, stride)
    return np.array([[fn(a[y : y + window, x : x + window]) for x in xs] for y in ys])


def naive_window_moments(a, b, window, stride):
    """Two-pass window statistics of the 2-D arrays a and b: (mean_a, var_a,
    mean_b, var_b, cov), each (ny, nx), ddof 1, every sum correctly rounded."""
    stats = []
    for y, x in window_origins(a.shape[0], a.shape[1], window, stride):
        ta = [float(v) for v in a[y : y + window, x : x + window].ravel()]
        tb = [float(v) for v in b[y : y + window, x : x + window].ravel()]
        n = len(ta)
        mu_a, mu_b = math.fsum(ta) / n, math.fsum(tb) / n
        da, db = [v - mu_a for v in ta], [v - mu_b for v in tb]
        stats.append((mu_a, math.fsum(d * d for d in da) / (n - 1),
                      mu_b, math.fsum(d * d for d in db) / (n - 1),
                      math.fsum(u * v for u, v in zip(da, db)) / (n - 1)))
    ny = len(range(0, a.shape[0] - window + 1, stride))
    return tuple(np.array(s).reshape(ny, -1) for s in zip(*stats))


def q_tile(a, b):
    """Wang-Bovik index on one tile, direct three-factor evaluation, ddof 1."""
    a = np.asarray(a, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()
    n = a.size
    mu_a = sum(a) / n
    mu_b = sum(b) / n
    var_a = sum((x - mu_a) ** 2 for x in a) / (n - 1)
    var_b = sum((x - mu_b) ** 2 for x in b) / (n - 1)
    if var_a == 0.0 and var_b == 0.0:
        return 1.0 if mu_a == mu_b else 0.0
    if var_a == 0.0 or var_b == 0.0:
        return 0.0
    cov = sum((x - mu_a) * (y - mu_b) for x, y in zip(a, b)) / (n - 1)
    corr = cov / math.sqrt(var_a * var_b)
    mu_sq = mu_a**2 + mu_b**2
    lum = 1.0 if mu_sq == 0.0 else 2.0 * mu_a * mu_b / mu_sq
    con = 2.0 * math.sqrt(var_a * var_b) / (var_a + var_b)
    return corr * lum * con


def naive_uiqi(a, b, window, stride):
    vals = [
        q_tile(a[y : y + window, x : x + window], b[y : y + window, x : x + window])
        for y, x in window_origins(a.shape[0], a.shape[1], window, stride)
    ]
    return sum(vals) / len(vals)


def _quat_mul_conj(p, q):
    """Hamilton product p * conj(q) for 4-component sequences."""
    a0, a1, a2, a3 = p
    b0, b1, b2, b3 = q
    return (
        a0 * b0 + a1 * b1 + a2 * b2 + a3 * b3,
        -a0 * b1 + a1 * b0 - a2 * b3 + a3 * b2,
        -a0 * b2 + a1 * b3 + a2 * b0 - a3 * b1,
        -a0 * b3 - a1 * b2 + a2 * b1 + a3 * b0,
    )


def q4_tile(fw, mw):
    """Quaternion Q on one (4, win, win) tile pair."""
    n = fw.shape[1] * fw.shape[2]
    f = fw.reshape(4, n)
    m = mw.reshape(4, n)
    mu_f = [sum(f[c]) / n for c in range(4)]
    mu_m = [sum(m[c]) / n for c in range(4)]
    var_f = sum((f[c, i] - mu_f[c]) ** 2 for c in range(4) for i in range(n)) / (n - 1)
    var_m = sum((m[c, i] - mu_m[c]) ** 2 for c in range(4) for i in range(n)) / (n - 1)
    if var_f == 0.0 and var_m == 0.0:
        return 1.0 if mu_f == mu_m else 0.0
    if var_f == 0.0 or var_m == 0.0:
        return 0.0
    acc = [0.0, 0.0, 0.0, 0.0]
    for i in range(n):
        df = [f[c, i] - mu_f[c] for c in range(4)]
        dm = [m[c, i] - mu_m[c] for c in range(4)]
        prod = _quat_mul_conj(df, dm)
        for c in range(4):
            acc[c] += prod[c]
    cov_mod = math.sqrt(sum((v / (n - 1)) ** 2 for v in acc))
    corr = cov_mod / math.sqrt(var_f * var_m)
    nf = math.sqrt(sum(v * v for v in mu_f))
    nm = math.sqrt(sum(v * v for v in mu_m))
    mu_sq = nf * nf + nm * nm
    lum = 1.0 if mu_sq == 0.0 else 2.0 * nf * nm / mu_sq
    con = 2.0 * math.sqrt(var_f * var_m) / (var_f + var_m)
    return corr * lum * con


def naive_q4(f, m, window, stride):
    vals = [
        q4_tile(f[:, y : y + window, x : x + window], m[:, y : y + window, x : x + window])
        for y, x in window_origins(f.shape[1], f.shape[2], window, stride)
    ]
    return sum(vals) / len(vals)


def naive_sam_angles(f, m):
    """Per-pixel spectral angles in degrees; zero vectors contribute zero."""
    k, h, w = f.shape
    out = np.zeros((h, w))
    for y in range(h):
        for x in range(w):
            fv = f[:, y, x]
            mv = m[:, y, x]
            nf = math.sqrt(sum(v * v for v in fv))
            nm = math.sqrt(sum(v * v for v in mv))
            if nf == 0.0 or nm == 0.0:
                continue
            cosv = sum(a * b for a, b in zip(fv, mv)) / (nf * nm)
            out[y, x] = math.degrees(math.acos(max(-1.0, min(1.0, cosv))))
    return out


def naive_sam_global(f, m):
    ang = naive_sam_angles(f, m)
    return float(ang.sum() / ang.size)


def naive_sam_map(f, m):
    ang = naive_sam_angles(f, m)
    lo, hi = ang.min(), ang.max()
    if hi == lo:
        return np.zeros_like(ang)
    out = np.empty_like(ang)
    for y in range(ang.shape[0]):
        for x in range(ang.shape[1]):
            out[y, x] = math.floor((ang[y, x] - lo) / (hi - lo) * 255.0 + 0.5)
    return out


def naive_cc(f, m):
    f = np.asarray(f, dtype=float).ravel()
    m = np.asarray(m, dtype=float).ravel()
    mu_f = sum(f) / f.size
    mu_m = sum(m) / m.size
    num = sum((a - mu_f) * (b - mu_m) for a, b in zip(f, m))
    den = math.sqrt(
        sum((a - mu_f) ** 2 for a in f) * sum((b - mu_m) ** 2 for b in m)
    )
    return num / den


def naive_ergas(f, m, ratio):
    k = f.shape[0]
    acc = 0.0
    for c in range(k):
        diff = f[c] - m[c]
        rmse = math.sqrt(float((diff * diff).mean()))
        acc += (rmse / float(m[c].mean())) ** 2
    return 100.0 * ratio * math.sqrt(acc / k)


def naive_d_lambda(m, f, window, stride, p, r):
    """High-resolution-side windows scale with the resolution ratio r."""
    k = m.shape[0]
    total = 0.0
    for i in range(k):
        for j in range(k):
            if i == j:
                continue
            q_m = naive_uiqi(m[i], m[j], window, stride)
            q_f = naive_uiqi(f[i], f[j], window * r, stride * r)
            total += abs(q_m - q_f) ** p
    return (total / (k * (k - 1))) ** (1.0 / p)


def naive_d_s(m, f, pan, pan_low, window, stride, q, r):
    k = m.shape[0]
    total = 0.0
    for c in range(k):
        q_lo = naive_uiqi(m[c], pan_low, window, stride)
        q_hi = naive_uiqi(f[c], pan, window * r, stride * r)
        total += abs(q_lo - q_hi) ** q
    return (total / k) ** (1.0 / q)


def naive_conv2d_reflect(a, kernel2d):
    """Direct 2-D correlation with half-sample symmetric border reflection."""
    h, w = a.shape
    kh, kw = kernel2d.shape
    ry, rx = kh // 2, kw // 2

    def reflect(i, n):
        # half-sample symmetric: ... 1 0 | 0 1 2 ... n-1 | n-1 n-2 ...
        while i < 0 or i >= n:
            if i < 0:
                i = -i - 1
            else:
                i = 2 * n - i - 1
        return i

    out = np.zeros_like(a)
    for y in range(h):
        for x in range(w):
            acc = 0.0
            for dy in range(kh):
                for dx in range(kw):
                    yy = reflect(y + dy - ry, h)
                    xx = reflect(x + dx - rx, w)
                    acc += kernel2d[dy, dx] * a[yy, xx]
            out[y, x] = acc
    return out


def naive_conv2d_zero_pad(x, weight, bias, stride):
    """Direct loop convolution matching 'same' zero-padding geometry."""
    c_in, h, w = x.shape
    c_out, _, k, _ = weight.shape
    pad = k // 2
    h_out = (h + 2 * pad - k) // stride + 1
    w_out = (w + 2 * pad - k) // stride + 1
    out = np.zeros((c_out, h_out, w_out))
    for co in range(c_out):
        for oy in range(h_out):
            for ox in range(w_out):
                acc = bias[co] if bias is not None else 0.0
                for ci in range(c_in):
                    for dy in range(k):
                        for dx in range(k):
                            yy = oy * stride + dy - pad
                            xx = ox * stride + dx - pad
                            if 0 <= yy < h and 0 <= xx < w:
                                acc += weight[co, ci, dy, dx] * x[ci, yy, xx]
                out[co, oy, ox] = acc
    return out


def naive_conv2d_zero_pad_pullbacks(x, weight, g, stride):
    """Gradients of sum(g * naive_conv2d_zero_pad(x, weight, b, stride)).

    Returns (grad_x, grad_w, grad_b): every output sample adds g times each
    of its products to the input pixel and the weight that formed it.
    """
    c_in, h, w = x.shape
    c_out, _, k, _ = weight.shape
    pad = k // 2
    _, h_out, w_out = g.shape
    gx = np.zeros_like(x, dtype=float)
    gw = np.zeros_like(weight, dtype=float)
    gb = np.zeros(c_out)
    for co in range(c_out):
        for oy in range(h_out):
            for ox in range(w_out):
                go = g[co, oy, ox]
                gb[co] += go
                for ci in range(c_in):
                    for dy in range(k):
                        for dx in range(k):
                            yy = oy * stride + dy - pad
                            xx = ox * stride + dx - pad
                            if 0 <= yy < h and 0 <= xx < w:
                                gx[ci, yy, xx] += go * weight[co, ci, dy, dx]
                                gw[co, ci, dy, dx] += go * x[ci, yy, xx]
    return gx, gw, gb


def naive_covariance(a, b):
    a = np.asarray(a, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()
    mu_a = sum(a) / a.size
    mu_b = sum(b) / b.size
    return sum((x - mu_a) * (y - mu_b) for x, y in zip(a, b)) / (a.size - 1)


def chain_q_index(a, b):
    """The per-channel Wang-Bovik Q of two (C, H, W) tensors as a chain of tape
    ops, one scalar tensor per channel: two ``mean``, two ``variance``, one
    ``covariance``, six ``mul``, two ``add`` and one ``div``, in the order
    of the formula 4 cov mu_a mu_b / ((var_a + var_b)(mu_a^2 + mu_b^2))."""
    out = []
    for i in range(a.shape[0]):
        x, y = ad.channel_slice(a, i), ad.channel_slice(b, i)
        mu_x, mu_y = ad.mean(x), ad.mean(y)
        num = ad.mul(ad.mul(ad.mul(ad.Tensor(4.0), ad.covariance(x, y)), mu_x), mu_y)
        spread = ad.add(ad.variance(x), ad.variance(y))
        level = ad.add(ad.mul(mu_x, mu_x), ad.mul(mu_y, mu_y))
        out.append(ad.div(num, ad.mul(spread, level)))
    return out


def tape_keeping_backward(loss):
    """Reverse-mode pass that keeps the whole tape until it returns.

    The reference for :func:`panfuse.autodiff.backward`, which frees the tape
    as it walks it: it visits the same tensors in the same order and sums the
    same cotangents in the same order, so the gradients it leaves on the
    leaves are bitwise the same.  It also stores ``.grad`` on every
    grad-tracked op output, and leaves every node in place.
    """
    if loss.data.size != 1:
        raise ValueError(f"backward needs a scalar loss, got shape {loss.shape}")

    def relevant(t):
        return t.requires_grad or t.node is not None

    order, seen, stack = [], set(), [(loss, False)]
    while stack:
        t, expanded = stack.pop()
        if expanded:
            order.append(t)
            continue
        if id(t) in seen:
            continue
        seen.add(id(t))
        stack.append((t, True))
        if t.node is not None:
            for parent in t.node.inputs:
                if id(parent) not in seen and relevant(parent):
                    stack.append((parent, False))
    pending = {id(loss): np.ones_like(loss.data)}
    for t in reversed(order):
        g = pending.pop(id(t), None)
        if g is None:
            continue
        if t.requires_grad:
            t.grad = g.copy() if t.grad is None else t.grad + g
        node = t.node
        if node is None:
            continue
        needs = tuple(relevant(p) for p in node.inputs)
        for parent, pg in zip(node.inputs, node.backward_fn(g, needs)):
            if pg is None:
                continue
            key = id(parent)
            if key in pending:
                pending[key] = pending[key] + pg
            else:
                pending[key] = pg


def finite_difference_grads(fn, arrays, eps=1e-4):
    """Central-difference gradients of a scalar function of several arrays."""
    grads = []
    for idx, base in enumerate(arrays):
        g = np.zeros_like(base, dtype=float)
        flat = g.reshape(-1)
        for i in range(base.size):
            bumped = [arr.copy() for arr in arrays]
            bumped[idx].reshape(-1)[i] += eps
            hi = fn(bumped)
            bumped = [arr.copy() for arr in arrays]
            bumped[idx].reshape(-1)[i] -= eps
            lo = fn(bumped)
            flat[i] = (hi - lo) / (2.0 * eps)
        grads.append(g)
    return grads


def max_relative_error(approx, exact, floor=1e-6):
    approx = np.asarray(approx, dtype=float)
    exact = np.asarray(exact, dtype=float)
    denom = np.maximum(floor, np.maximum(np.abs(approx), np.abs(exact)))
    return float(np.max(np.abs(approx - exact) / denom))



def _paeth(a, b, c):
    p = a + b - c
    pa, pb, pc = abs(p - a), abs(p - b), abs(p - c)
    if pa <= pb and pa <= pc:
        return a
    if pb <= pc:
        return b
    return c


def naive_png_unfilter(raw, height, stride, bpp):
    """PNG scanlines undone one byte at a time, each filter as the PNG
    specification states it: ``bytes`` of height * stride samples."""
    out = bytearray(height * stride)
    prior = bytearray(stride)
    for y in range(height):
        row_off = y * (stride + 1)
        ftype = raw[row_off]
        line = bytearray(raw[row_off + 1 : row_off + 1 + stride])
        if ftype == 1:
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
        elif ftype != 0:
            raise ValueError(f"unknown PNG filter type {ftype}")
        out[y * stride : (y + 1) * stride] = line
        prior = line
    return bytes(out)
