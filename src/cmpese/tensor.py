"""Minimal reverse-mode autodiff on dense numpy arrays.

Layout convention is channels-last throughout: feature maps are
(batch, height, width, channels), squeezed vectors are (batch, channels).
Ops preserve the dtype of their inputs; float32 is the training default
and float64 is used for finite-difference gradient checks.
"""

from __future__ import annotations

import contextlib
import functools

import numpy as np

from .errors import NonFiniteError, ShapeError

# When False, ops return detached results (inference mode).
_grad_enabled = True
# When True, every op output is checked for NaN/Inf. Cheap insurance for
# tests and gradcheck; off by default in training loops.
_finite_checks = False


@contextlib.contextmanager
def no_grad():
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


@contextlib.contextmanager
def finite_checks(enabled=True):
    global _finite_checks
    prev = _finite_checks
    _finite_checks = enabled
    try:
        yield
    finally:
        _finite_checks = prev


class Tensor:
    """Dense array plus optional gradient buffer and autodiff linkage."""

    __slots__ = ("data", "grad", "requires_grad", "name", "_parents", "_backward")

    def __init__(self, data, requires_grad=False, name=None):
        self.data = np.asarray(data)
        self.grad = None
        self.requires_grad = requires_grad
        self.name = name
        self._parents = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self):
        return self.data.size

    def detach(self):
        return Tensor(self.data, requires_grad=False, name=self.name)

    def zero_grad(self):
        self.grad = None

    def accumulate_grad(self, g):
        if self.grad is None:
            self.grad = np.array(g, dtype=self.data.dtype, copy=True)
        else:
            self.grad += g

    def backward(self, grad=None):
        """Reverse-mode sweep from this tensor through its graph."""
        if grad is None:
            if self.data.size != 1:
                raise ShapeError("backward", "implicit gradient requires a scalar output")
            grad = np.ones_like(self.data)
        topo = []
        seen = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        self.accumulate_grad(grad)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
        if _finite_checks:
            for node in topo:
                if node.grad is not None and not np.all(np.isfinite(node.grad)):
                    raise NonFiniteError("non-finite gradient", node.name)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.dtype}, requires_grad={self.requires_grad})"

    # light operator sugar used by the training code
    def __add__(self, other):
        return add(self, other)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return scale(self, other)
        return mul(self, other)

    __rmul__ = __mul__


def _result(data, parents, backward_fn, name=None):
    """Wrap an op result, attaching graph edges only when grad is live."""
    if _finite_checks and not np.all(np.isfinite(data)):
        raise NonFiniteError("non-finite forward value", name)
    requires = _grad_enabled and any(p.requires_grad for p in parents)
    out = Tensor(data, requires_grad=requires, name=name)
    if requires:
        out._parents = tuple(p for p in parents if p.requires_grad or p._parents)
        out._backward = backward_fn
    return out


def _sum_to(grad, shape):
    """Reduce a broadcasted gradient back to the original shape."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def as_tensor(x, dtype=np.float32):
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=dtype))


# ---------------------------------------------------------------------------
# elementwise / broadcast ops
# ---------------------------------------------------------------------------

def add(a, b):
    a, b = as_tensor(a), as_tensor(b)
    data = a.data + b.data

    def backward(g):
        if a.requires_grad or a._parents:
            a.accumulate_grad(_sum_to(g, a.shape))
        if b.requires_grad or b._parents:
            b.accumulate_grad(_sum_to(g, b.shape))

    return _result(data, (a, b), backward, "add")


def mul(a, b):
    a, b = as_tensor(a), as_tensor(b)
    data = a.data * b.data

    def backward(g):
        if a.requires_grad or a._parents:
            a.accumulate_grad(_sum_to(g * b.data, a.shape))
        if b.requires_grad or b._parents:
            b.accumulate_grad(_sum_to(g * a.data, b.shape))

    return _result(data, (a, b), backward, "mul")


def scale(a, c):
    """Multiply by a python scalar, without dtype promotion."""
    c = a.data.dtype.type(c)
    data = a.data * c

    def backward(g):
        a.accumulate_grad(g * c)

    return _result(data, (a,), backward, "scale")


def relu(a):
    data = np.maximum(a.data, 0)

    def backward(g):
        a.accumulate_grad(g * (a.data > 0))

    return _result(data, (a,), backward, "relu")


def sigmoid(a):
    x = a.data
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    # keep outputs strictly inside (0, 1) even where the dtype saturates
    one = x.dtype.type(1)
    zero = x.dtype.type(0)
    np.clip(out, np.nextafter(zero, one), np.nextafter(one, zero), out=out)

    def backward(g):
        a.accumulate_grad(g * out * (1.0 - out))

    return _result(out, (a,), backward, "sigmoid")


# ---------------------------------------------------------------------------
# shape ops
# ---------------------------------------------------------------------------

def reshape(a, shape):
    old = a.shape
    data = a.data.reshape(shape)

    def backward(g):
        a.accumulate_grad(g.reshape(old))

    return _result(data, (a,), backward, "reshape")


def transpose(a, axes):
    inv = np.argsort(axes)
    data = np.transpose(a.data, axes)

    def backward(g):
        a.accumulate_grad(np.transpose(g, inv))

    return _result(data, (a,), backward, "transpose")


def stack_rows(a, b):
    """Stack two (N, C) vectors into an (N, 2, C) map, first row = a."""
    if a.shape != b.shape:
        raise ShapeError("stack_rows", f"row lengths differ: {a.shape} vs {b.shape}", axis=1)
    data = np.stack([a.data, b.data], axis=1)

    def backward(g):
        if a.requires_grad or a._parents:
            a.accumulate_grad(g[:, 0])
        if b.requires_grad or b._parents:
            b.accumulate_grad(g[:, 1])

    return _result(data, (a, b), backward, "stack_rows")


def mean_over(a, axes, keepdims=False):
    axes = tuple(axes)
    data = a.data.mean(axis=axes, keepdims=keepdims)
    count = 1
    for ax in axes:
        count *= a.shape[ax]
    inv = a.data.dtype.type(1.0 / count)

    def backward(g):
        if not keepdims:
            g = np.expand_dims(g, axes)
        a.accumulate_grad(np.broadcast_to(g * inv, a.shape))

    return _result(data, (a,), backward, "mean")


def sum_over(a, axes, keepdims=False):
    axes = tuple(axes)
    data = a.data.sum(axis=axes, keepdims=keepdims)

    def backward(g):
        if not keepdims:
            g = np.expand_dims(g, axes)
        a.accumulate_grad(np.broadcast_to(g, a.shape))

    return _result(data, (a,), backward, "sum")


# ---------------------------------------------------------------------------
# neural-net ops
# ---------------------------------------------------------------------------

def linear(x, w, bias=None):
    """y = x @ w.T (+ bias); x is (N, D), w is (out, D)."""
    if x.shape[-1] != w.shape[1]:
        raise ShapeError(
            "linear", f"input width {x.shape[-1]} != weight inner dim {w.shape[1]}", axis=1
        )
    data = x.data @ w.data.T
    if bias is not None:
        data = data + bias.data

    def backward(g):
        if x.requires_grad or x._parents:
            x.accumulate_grad(g @ w.data)
        if w.requires_grad:
            w.accumulate_grad(g.T @ x.data)
        if bias is not None and bias.requires_grad:
            bias.accumulate_grad(g.sum(axis=0))

    parents = (x, w) if bias is None else (x, w, bias)
    return _result(data, parents, backward, "linear")


def dual_linear(h_a, h_b, w):
    """y = h_a @ w[:, :r].T + h_b @ w[:, r:].T with w of shape (out, 2r).

    Equivalent to concatenating <h_a, h_b> before one linear layer, written
    as two block products so that a zeroed branch drops out exactly.
    """
    r = h_a.shape[-1]
    if h_b.shape[-1] != r or w.shape[1] != 2 * r:
        raise ShapeError(
            "dual_linear",
            f"branch widths {h_a.shape[-1]}/{h_b.shape[-1]} must be half of {w.shape[1]}",
            axis=1,
        )
    w_a = np.ascontiguousarray(w.data[:, :r])
    w_b = np.ascontiguousarray(w.data[:, r:])
    data = h_a.data @ w_a.T + h_b.data @ w_b.T

    def backward(g):
        if h_a.requires_grad or h_a._parents:
            h_a.accumulate_grad(g @ w_a)
        if h_b.requires_grad or h_b._parents:
            h_b.accumulate_grad(g @ w_b)
        if w.requires_grad:
            gw = np.empty_like(w.data)
            gw[:, :r] = g.T @ h_a.data
            gw[:, r:] = g.T @ h_b.data
            w.accumulate_grad(gw)

    return _result(data, (h_a, h_b, w), backward, "dual_linear")


# Output rows per im2col block. One block is at most _SLICE_ROWS x kh*kw*Cin
# (9 MiB for a float32 3x3 conv over 32 channels), so the transient copy stays
# small while its GEMMs stay deep: K = kh*kw*Cin in the forward pass, and a
# kh*kw*Cin x Cout output for the weight gradient. Per-tap GEMMs (K = Cin, or
# a Cin x Cout output) measured slower for both.
_SLICE_ROWS = 8192


def conv2d(x, w, stride=1, padding=0):
    """2-D convolution, channels-last.

    x: (N, H, W, Cin); w: (kh, kw, Cin, Cout); symmetric zero padding.
    Output spatial extent is floor((in + 2*pad - k)/stride) + 1.

    The forward pass and the weight gradient run one deep GEMM per im2col
    block, built over a slice of the batch and dropped after its GEMM. The
    input gradient is shift-and-GEMM: one GEMM per kernel tap, added into
    that tap's strided view of the padded input. The graph keeps only the
    padded input.
    """
    if x.ndim != 4:
        raise ShapeError("conv2d", f"input must be 4-D, got {x.ndim}-D")
    if w.ndim != 4:
        raise ShapeError("conv2d", f"kernels must be 4-D, got {w.ndim}-D")
    n, h, wd, cin = x.shape
    kh, kw, kcin, cout = w.shape
    if kcin != cin:
        raise ShapeError(
            "conv2d", f"input has {cin} channels but kernels expect {kcin}", axis=3
        )
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (wd + 2 * padding - kw) // stride + 1
    if ho <= 0 or wo <= 0:
        raise ShapeError(
            "conv2d",
            f"kernel {kh}x{kw} with padding {padding} does not fit input {h}x{wd}",
        )
    if padding > 0:
        xp = np.zeros((n, h + 2 * padding, wd + 2 * padding, cin), dtype=x.dtype)
        xp[:, padding : padding + h, padding : padding + wd, :] = x.data
    else:
        xp = x.data
    pointwise = kh == kw == 1 and stride == 1
    w_flat = w.data.reshape(kh * kw * cin, cout)
    sn, sh, sw, sc = xp.strides
    windows = np.lib.stride_tricks.as_strided(
        xp,
        shape=(n, ho, wo, kh, kw, cin),
        strides=(sn, stride * sh, stride * sw, sh, sw, sc),
        writeable=False,
    )

    def blocks():
        """(output rows, im2col block) pairs covering the batch in order."""
        if pointwise:  # the input is its own im2col matrix
            yield slice(None), xp.reshape(n * ho * wo, cin)
            return
        step = max(1, _SLICE_ROWS // (ho * wo))
        for b in range(0, n, step):
            e = min(b + step, n)
            cols = np.ascontiguousarray(windows[b:e]).reshape(-1, kh * kw * cin)
            yield slice(b * ho * wo, e * ho * wo), cols

    data = np.empty((n, ho, wo, cout), dtype=np.result_type(xp, w_flat))
    out = data.reshape(n * ho * wo, cout)
    for rows, cols in blocks():
        np.matmul(cols, w_flat, out=out[rows])

    def backward(g):
        g_flat = g.reshape(n * ho * wo, cout)
        if w.requires_grad:
            gw = functools.reduce(
                np.add, (cols.T @ g_flat[rows] for rows, cols in blocks()))
            w.accumulate_grad(gw.reshape(w.shape))
        if x.requires_grad or x._parents:
            if pointwise:
                gxp = (g_flat @ w_flat.T).reshape(xp.shape)
            else:
                gxp = np.zeros_like(xp)
                for i in range(kh):
                    for j in range(kw):
                        # the padded-input positions that tap (i, j) reads
                        view = gxp[:, i : i + stride * ho : stride,
                                   j : j + stride * wo : stride, :]
                        view += (g_flat @ w.data[i, j].T).reshape(n, ho, wo, cin)
            if padding > 0:
                gxp = gxp[:, padding : padding + h, padding : padding + wd, :]
            x.accumulate_grad(gxp)

    return _result(data, (x, w), backward, "conv2d")


def global_avg_pool(x):
    """Per-sample, per-channel spatial mean: (N, H, W, C) -> (N, C)."""
    if x.ndim != 4:
        raise ShapeError("global_avg_pool", f"input must be 4-D, got {x.ndim}-D")
    n, h, w, c = x.shape
    if h * w == 0:
        raise ShapeError("global_avg_pool", "zero spatial extent", axis=1)
    return mean_over(x, (1, 2))


def channel_scale(s, u):
    """Scale every spatial position of channel c by s[:, c].

    s: (N, C); u: (N, H, W, C).
    """
    if s.shape[-1] != u.shape[-1]:
        raise ShapeError(
            "channel_scale",
            f"scale length {s.shape[-1]} != channel count {u.shape[-1]}",
            axis=3,
        )
    s4 = reshape(s, (s.shape[0], 1, 1, s.shape[1]))
    return mul(s4, u)


def batch_norm(x, gamma, beta, running_mean, running_var, training,
               momentum=0.9, eps=1e-5):
    """Normalize over all axes but the last; affine scale/shift.

    Training mode uses batch statistics and updates the running buffers in
    place (biased variance, momentum 0.9 convention: new = m*old + (1-m)*batch).
    Eval mode normalizes with the running buffers.
    """
    c = x.shape[-1]
    if gamma.shape != (c,):
        raise ShapeError(
            "batch_norm", f"affine params sized {gamma.shape[0]} but input has {c} channels",
            axis=x.ndim - 1,
        )
    axes = tuple(range(x.ndim - 1))
    dt = x.data.dtype.type
    eps = dt(eps)
    if training:
        mean = x.data.mean(axis=axes)
        xc = x.data - mean
        var = (xc * xc).mean(axis=axes)   # bitwise x.data.var(axis=axes)
        m = dt(momentum)
        running_mean.data[...] = m * running_mean.data + (dt(1) - m) * mean
        running_var.data[...] = m * running_var.data + (dt(1) - m) * var
    else:
        xc = x.data - running_mean.data
        var = running_var.data
    inv_std = dt(1) / np.sqrt(var + eps)
    xn = xc * inv_std
    data = gamma.data * xn + beta.data

    if training:

        def backward(g):
            if beta.requires_grad:
                beta.accumulate_grad(g.sum(axis=axes))
            if gamma.requires_grad:
                gamma.accumulate_grad((g * xn).sum(axis=axes))
            if x.requires_grad or x._parents:
                gxn = g * gamma.data
                gm = gxn.mean(axis=axes)
                gv = (gxn * xn).mean(axis=axes)
                x.accumulate_grad(inv_std * (gxn - gm - xn * gv))

    else:

        def backward(g):
            if beta.requires_grad:
                beta.accumulate_grad(g.sum(axis=axes))
            if gamma.requires_grad:
                gamma.accumulate_grad((g * xn).sum(axis=axes))
            if x.requires_grad or x._parents:
                x.accumulate_grad(g * gamma.data * inv_std)

    return _result(data, (x, gamma, beta), backward, "batch_norm")


def cross_entropy(logits, labels):
    """Mean softmax cross-entropy; labels are integer class indices."""
    z = logits.data
    n = z.shape[0]
    zmax = z.max(axis=1, keepdims=True)
    ez = np.exp(z - zmax)
    sez = ez.sum(axis=1, keepdims=True)
    log_probs = (z - zmax) - np.log(sez)
    data = np.asarray(-log_probs[np.arange(n), labels].mean(), dtype=z.dtype)

    def backward(g):
        probs = ez / sez
        probs[np.arange(n), labels] -= 1
        logits.accumulate_grad(g * probs / z.dtype.type(n))

    return _result(data, (logits,), backward, "cross_entropy")


def assert_finite(t, name=None):
    if not np.all(np.isfinite(t.data)):
        raise NonFiniteError("non-finite values", name or t.name)
    return t
