"""Independent reference implementations used to cross-check the package.

Everything here is written the dumbest way possible — explicit loops,
no shared code with the library — so agreement is meaningful.
"""

import numpy as np


def conv2d_loops(x, w, stride=1, padding=0):
    """Quadruple-loop 2-D convolution; x (N,H,W,Cin), w (kh,kw,Cin,Cout)."""
    n, h, wd, cin = x.shape
    kh, kw, _, cout = w.shape
    if padding:
        xp = np.zeros((n, h + 2 * padding, wd + 2 * padding, cin), dtype=x.dtype)
        xp[:, padding:padding + h, padding:padding + wd, :] = x
    else:
        xp = x
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (wd + 2 * padding - kw) // stride + 1
    out = np.zeros((n, ho, wo, cout), dtype=x.dtype)
    for b in range(n):
        for i in range(ho):
            for j in range(wo):
                for co in range(cout):
                    acc = 0.0
                    for di in range(kh):
                        for dj in range(kw):
                            for ci in range(cin):
                                acc += (xp[b, i * stride + di, j * stride + dj, ci]
                                        * w[di, dj, ci, co])
                    out[b, i, j, co] = acc
    return out


def conv2d_dx_shift_gemm(g, w, x_shape, stride=1, padding=0):
    """Input gradient of a 2-D convolution by shift-and-GEMM: per kernel tap,
    ``g @ w[i, j].T`` added into the strided view of the padded input that
    the tap reads, taps in row-major order. g (N,Ho,Wo,Cout), w
    (kh,kw,Cin,Cout); returns (N,H,W,Cin)."""
    n, h, wd, cin = x_shape
    kh, kw, _, cout = w.shape
    _, ho, wo, _ = g.shape
    gxp = np.zeros((n, h + 2 * padding, wd + 2 * padding, cin), dtype=g.dtype)
    g_flat = g.reshape(n * ho * wo, cout)
    for i in range(kh):
        for j in range(kw):
            view = gxp[:, i:i + stride * ho:stride, j:j + stride * wo:stride, :]
            view += (g_flat @ w[i, j].T).reshape(n, ho, wo, cin)
    return gxp[:, padding:padding + h, padding:padding + wd, :]


def equal_image_runs(n, outs, rows):
    """Image counts of the fewest runs of whole images, of ``outs`` output
    rows each, that cover a batch of ``n`` with at most ``rows`` rows per
    run (or one image where one has more); run i ends at image
    n*(i+1)//count."""
    count = -(-n // max(1, rows // outs))
    return [n * (i + 1) // count - n * i // count for i in range(count)]


def conv2d_im2col_blocks(x, w, g, stride=1, padding=0, slice_rows=8192, images=None):
    """A conv's output and weight gradient by whole-image im2col blocks:
    per block, a fresh copy of its images' windows ``cols``, ``cols @ w``
    into its output rows and ``cols.T @ g`` for its dW, the blocks' dW
    summed in order. The blocks hold ``images`` images each, by default the
    equal runs of at most ``slice_rows`` output rows. x (N,H,W,Cin), w
    (kh,kw,Cin,Cout), g the output's gradient; returns (output, dW)."""
    n, h, wd, cin = x.shape
    kh, kw, _, cout = w.shape
    xp = np.zeros((n, h + 2 * padding, wd + 2 * padding, cin), dtype=x.dtype)
    xp[:, padding:padding + h, padding:padding + wd, :] = x
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (wd + 2 * padding - kw) // stride + 1
    sn, sh, sw, sc = xp.strides
    windows = np.lib.stride_tricks.as_strided(
        xp, shape=(n, ho, wo, kh, kw, cin),
        strides=(sn, stride * sh, stride * sw, sh, sw, sc), writeable=False)
    w_flat = w.reshape(kh * kw * cin, cout)
    out = np.empty((n * ho * wo, cout), dtype=x.dtype)
    g_flat = g.reshape(n * ho * wo, cout)
    dw = None
    b = 0
    for count in images or equal_image_runs(n, ho * wo, slice_rows):
        e = b + count
        rows = slice(b * ho * wo, e * ho * wo)
        cols = np.ascontiguousarray(windows[b:e]).reshape(-1, kh * kw * cin)
        np.matmul(cols, w_flat, out=out[rows])
        part = cols.T @ g_flat[rows]
        dw = part if dw is None else dw + part
        b = e
    assert b == n
    return out.reshape(n, ho, wo, cout), dw.reshape(w.shape)


def _flat_grid(x, w, padding):
    """The zero-padded input, its (N*Hp*Wp, Cin) rows and each kernel tap's
    (row offset, (Cin, Cout) matrix) on them."""
    n, h, wd, cin = x.shape
    kh, kw = w.shape[:2]
    xp = np.zeros((n, h + 2 * padding, wd + 2 * padding, cin), dtype=x.dtype)
    xp[:, padding:padding + h, padding:padding + wd, :] = x
    wp = xp.shape[2]
    taps = [(i * wp + j, w[i, j]) for i in range(kh) for j in range(kw)]
    return xp, xp.reshape(-1, cin), taps


def conv2d_flat_forward_slices(gemm, x, w, padding=1, grid_rows=16384):
    """A stride-1 conv's output on the flat padded grid, in slices of as many
    whole images as fill ``grid_rows`` grid rows (at least one), the last
    slice ragged: per slice, one ``gemm(c, a, b, beta)`` per kernel tap into
    a (grid rows, Cout) buffer, the first overwriting it, whose valid corner
    is the output."""
    kh, kw, _, cout = w.shape
    xp, grid, taps = _flat_grid(x, w, padding)
    n, hp, wp, _ = xp.shape
    ho, wo = hp - kh + 1, wp - kw + 1
    out = np.empty((n, ho, wo, cout), dtype=x.dtype)
    step = max(1, grid_rows // (hp * wp))
    for b in range(0, n, step):
        e = min(b + step, n)
        buf = np.empty(((e - b) * hp * wp, cout), dtype=x.dtype)
        rows = len(buf) - taps[-1][0]
        for k, (off, w_tap) in enumerate(taps):
            gemm(buf[:rows], grid[b * hp * wp + off:b * hp * wp + off + rows], w_tap, int(k > 0))
        out[b:e] = buf.reshape(e - b, hp, wp, cout)[:, :ho, :wo]
    return out


def conv2d_flat_dx_whole_grid(gemm, g, w, x_shape, padding=1):
    """A stride-1 conv's input gradient on one flat grid of the whole batch:
    g in the top-left corners of a zero (N*Hp*Wp, Cout) grid, and per kernel
    tap one ``gemm`` of it, shifted by the tap's row offset, into the padded
    input gradient's rows."""
    n, h, wd, _ = x_shape
    cout = w.shape[3]
    gxp, gx_rows, taps = _flat_grid(np.zeros(x_shape, dtype=g.dtype), w, padding)
    _, hp, wp, _ = gxp.shape
    g_grid = np.zeros((n, hp, wp, cout), dtype=g.dtype)
    g_grid[:, :g.shape[1], :g.shape[2]] = g
    g_rows = g_grid.reshape(-1, cout)
    for off, w_tap in taps:
        gemm(gx_rows[off:], g_rows[:len(g_rows) - off], np.ascontiguousarray(w_tap.T), 1)
    return gxp[:, padding:padding + h, padding:padding + wd, :]


def fold_shape_three_branch(c, fold_n=None, fold_m=None):
    """The folded map's (n, m) by the earlier three-case rule: both given
    (checked), n alone (kept when it splits C into whole row pairs, else m
    from the largest divisor of C not above 2C // n), or m alone (16 by
    default, capped the same way). Raises ValueError for an invalid pair."""
    def divisor_at_most(cap):
        return max(d for d in range(1, min(cap, c) + 1) if c % d == 0)

    if fold_n is not None and fold_m is not None:
        if fold_n * fold_m != 2 * c or fold_n % 2 != 0:
            raise ValueError((c, fold_n, fold_m))
        return fold_n, fold_m
    if fold_n is not None:
        if fold_n % 2 == 0 and (2 * c) % fold_n == 0 and c % ((2 * c) // fold_n) == 0:
            return fold_n, 2 * c // fold_n
        m = divisor_at_most(max(1, 2 * c // fold_n))
        return 2 * c // m, m
    m = divisor_at_most(16 if fold_m is None else fold_m)
    return 2 * c // m, m


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def sigmoid_by_sign(x):
    """The logistic function as 1 / (1 + e^-x) on x >= 0 and e^x / (1 + e^x)
    below, each over its own gathered entries, clipped strictly inside
    (0, 1) in the dtype of x."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    one, zero = x.dtype.type(1), x.dtype.type(0)
    return np.clip(out, np.nextafter(zero, one), np.nextafter(one, zero))


def se_reference(u, w1, w2):
    """s = sigmoid(w2 @ relu(w1 @ u)) written as straight-line matmuls."""
    h = np.maximum(u @ w1.T, 0.0)
    return _sigmoid(h @ w2.T)


def double_fc_reference(u, x, w1_res, w1_id, w2):
    """Two embeddings, concatenated residual-first, one excitation FC."""
    h_res = np.maximum(u @ w1_res.T, 0.0)
    h_id = np.maximum(x @ w1_id.T, 0.0)
    joint = np.concatenate([h_res, h_id], axis=1)
    return _sigmoid(joint @ w2.T)


def encode_excite_reference(v, w1, w2):
    h = np.maximum(v @ w1.T, 0.0)
    return _sigmoid(h @ w2.T)


def pairview_scan_reference(vmap, kernels, padding=0):
    """Convolve an (N, rows, cols) map with each (kh, kw) kernel slice and
    average the kernel outputs. kernels: (kh, kw, 1, n_kernels)."""
    x = vmap[..., None]
    n_kernels = kernels.shape[3]
    outs = [conv2d_loops(x, kernels[:, :, :, k:k + 1], 1, padding)[..., 0]
            for k in range(n_kernels)]
    return np.mean(np.stack(outs, axis=0), axis=0)


def batch_norm_saving_xn(x, gamma, beta, running_mean, running_var, g, training,
                         momentum=0.9, eps=1e-5):
    """Batch norm as a graph that saves its normalized input ``xn``, with its
    backward for the output gradient ``g``, in plain numpy expressions.

    Returns (out, grad_x, grad_gamma, grad_beta); the running buffers are
    updated in place in training mode.
    """
    axes = tuple(range(x.ndim - 1))
    dt = x.dtype.type
    eps = dt(eps)
    if training:
        mean = x.mean(axis=axes)
        xc = x - mean
        var = (xc * xc).mean(axis=axes)
        m = dt(momentum)
        running_mean[...] = m * running_mean + (dt(1) - m) * mean
        running_var[...] = m * running_var + (dt(1) - m) * var
    else:
        xc = x - running_mean
        var = running_var
    inv_std = dt(1) / np.sqrt(var + eps)
    xn = xc * inv_std
    out = gamma * xn + beta
    grad_beta = g.sum(axis=axes)
    grad_gamma = (g * xn).sum(axis=axes)
    if training:
        gxn = g * gamma
        gm = gxn.mean(axis=axes)
        gv = (gxn * xn).mean(axis=axes)
        grad_x = inv_std * (gxn - gm - xn * gv)
    else:
        grad_x = g * gamma * inv_std
    return out, grad_x, grad_gamma, grad_beta


def channel_scale_add_composite(s, u, x, g):
    """The block tail as the composite ``add(mul(reshape(s), u), x)`` with
    its backward for the output gradient ``g``, in plain numpy expressions:
    s (N, C); u, x (N, H, W, C). Returns (out, grad_s, grad_u, grad_x)."""
    s4 = s.reshape(s.shape[0], 1, 1, s.shape[1])
    out = s4 * u + x
    grad_s = (g * u).sum(axis=(1, 2))
    return out, grad_s, g * s4, g


def mean_var_two_pass(s):
    """Population mean/variance, re-derived elementwise."""
    total = 0.0
    count = 0
    for v in np.asarray(s).ravel():
        total += float(v)
        count += 1
    mean = total / count
    sq = 0.0
    for v in np.asarray(s).ravel():
        sq += (float(v) - mean) ** 2
    return mean, sq / count


def ridge_probe_accuracy(images, labels, class_count, lam=1e-3):
    """Closed-form linear probe on raw pixels: one-vs-all ridge regression.
    Used to certify that a dataset is linearly learnable."""
    x = images.reshape(images.shape[0], -1).astype(np.float64)
    x = np.concatenate([x, np.ones((x.shape[0], 1))], axis=1)
    y = np.zeros((x.shape[0], class_count))
    y[np.arange(x.shape[0]), labels] = 1.0
    gram = x.T @ x + lam * np.eye(x.shape[1])
    w = np.linalg.solve(gram, x.T @ y)
    pred = np.argmax(x @ w, axis=1)
    return float((pred == labels).mean())
