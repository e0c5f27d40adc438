"""Minimal reverse-mode autodiff on dense numpy arrays.

Layout convention is channels-last throughout: feature maps are
(batch, height, width, channels), squeezed vectors are (batch, channels).
Ops preserve the dtype of their inputs; float32 is the training default
and float64 is used for finite-difference gradient checks.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math

import numpy as np

from .errors import GraphReleasedError, NonFiniteError, ShapeError

# When False, ops return detached results (inference mode).
_grad_enabled = True
# When True, every op output is checked for NaN/Inf. Cheap insurance for
# tests and gradcheck; off by default in training loops.
_finite_checks = False


def _keep_freed_memory():
    """Make glibc malloc serve activation-sized arrays from the heap and keep
    freed heap memory mapped, so the next op and step reuse it without page
    faults. By default glibc maps each array above its dynamic threshold
    (at most 32 MiB) afresh and trims the heap top as soon as it is freed.
    Both thresholds are needed: setting the trim threshold alone pins the
    mmap threshold at its 128 KiB default. Returns False off glibc."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    m_trim_threshold, m_mmap_threshold, ceiling = -1, -3, 1 << 30
    return bool(mallopt(m_mmap_threshold, ceiling)) and bool(mallopt(m_trim_threshold, ceiling))


_KEEPS_FREED_MEMORY = _keep_freed_memory()


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
        """Add ``g`` to this tensor's gradient.

        The first gradient is kept without a copy when it is already a
        C-contiguous array of the right dtype; later ones are added out of
        place. Nothing writes into a stored gradient, so one array may be the
        gradient of several tensors.
        """
        if self.grad is None:
            self.grad = np.asarray(g, dtype=self.data.dtype, order="C")
        else:
            self.grad = (self.grad + g).astype(self.data.dtype, copy=False)

    def backward(self, grad=None):
        """Reverse-mode sweep from this tensor through its graph.

        The sweep frees the graph as it walks: once an interior node's
        closure has run, the node drops its gradient, its closure (with the
        arrays the closure saved) and its parent links. Leaves keep their
        gradients. A graph supports one backward; a second one through it
        raises ``GraphReleasedError``.
        """
        if self._backward is _released:
            raise GraphReleasedError(self.name)
        if grad is None:
            if self.data.size != 1:
                raise ShapeError("backward", "implicit gradient requires a scalar output")
            grad = np.ones_like(self.data)
        else:
            # the graph may hand views of the root gradient to leaves
            grad = np.array(grad, dtype=self.data.dtype)
        order = _topo_order(self)
        self.accumulate_grad(grad)
        while order:
            node = order.pop()
            g = node.grad
            if g is not None and _finite_checks and not np.all(np.isfinite(g)):
                raise NonFiniteError("non-finite gradient", node.name)
            if node._backward is None:
                continue  # a leaf keeps its gradient
            if node._backward is _released:
                raise GraphReleasedError(node.name)
            if g is not None:
                node._backward(g)
            node.grad = None
            node._backward = _released
            node._parents = ()

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


def _topo_order(root):
    """Nodes of ``root``'s graph, each after all of its parents."""
    order = []
    seen = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))
    return order


def _released(g):
    """Stands in for the closure of a node whose backward has run."""
    raise GraphReleasedError()


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


def _sum_leading(x, axes, y=None, keepdims=False):
    """``(x * y).sum(axis=axes)``, or ``x.sum(axis=axes)``, bitwise.

    When the reduced axes are all leading and the last axis is kept, has more
    than one element and is unit-stride, this is one np.einsum contraction:
    no product temporary, and the rows are added in the order ndarray.sum
    adds them. numpy sums a contiguous reduced axis pairwise, so any other
    case (and a ``y`` of another shape) falls back to ndarray.sum.
    """
    ops = (x,) if y is None else (x, y)
    if (axes and all(0 <= ax < x.ndim - 1 for ax in axes) and x.shape[-1] > 1
            and all(op.shape == x.shape and op.strides[-1] == op.itemsize for op in ops)):
        sub = "".join(chr(ord("a") + i) for i in range(x.ndim))
        kept = "".join(c for i, c in enumerate(sub) if i not in axes)
        out = np.einsum(",".join([sub] * len(ops)) + "->" + kept, *ops)
        if keepdims:
            out = out.reshape([1 if i in axes else n for i, n in enumerate(x.shape)])
        return out
    return np.asarray((x if y is None else x * y).sum(axis=axes, keepdims=keepdims))


def _mean_leading(x, axes, y=None, keepdims=False):
    """``_sum_leading`` divided by the count the way np.mean divides."""
    s = _sum_leading(x, axes, y, keepdims)
    count = np.intp(math.prod(x.shape[ax] for ax in axes))
    return np.true_divide(s, count, out=s, casting="unsafe")


# Row length, in elements, of the views _by_channel computes over.
_WIDE_ROW = 8192


def _by_channel(op, a, v, out=None):
    """``op(a, v)`` for a C-vector ``v`` broadcast over ``a`` of shape (..., C).

    numpy broadcasts ``v`` one C-long inner loop per row of ``a``. This runs
    the same elementwise arithmetic, so the same bits, over rows of k whole
    channel vectors (k*C <= _WIDE_ROW) against ``v`` tiled k times: far fewer
    inner loops. ``out`` must be C-contiguous, so that its view is written.
    """
    c = a.shape[-1]
    k = math.gcd(a.size // c, max(1, _WIDE_ROW // c))
    wide = (a.size // (k * c), k * c)
    res = op(a.reshape(wide), np.tile(v, k), out=None if out is None else out.reshape(wide))
    return res.reshape(a.shape)


def _sum_to(grad, shape, y=None):
    """Reduce a broadcasted gradient, times ``y`` if given, back to ``shape``."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = _sum_leading(grad, tuple(range(extra)), y)
        y = None
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        return _sum_leading(grad, axes, y, keepdims=True)
    return grad if y is None else grad * y


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
            a.accumulate_grad(_sum_to(g, a.shape, b.data))
        if b.requires_grad or b._parents:
            b.accumulate_grad(_sum_to(g, b.shape, a.data))

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
    data = _mean_leading(a.data, axes, keepdims=keepdims)
    inv = a.data.dtype.type(1.0 / math.prod(a.shape[ax] for ax in axes))

    def backward(g):
        if not keepdims:
            g = np.expand_dims(g, axes)
        a.accumulate_grad(np.broadcast_to(g * inv, a.shape))

    return _result(data, (a,), backward, "mean")


def sum_over(a, axes, keepdims=False):
    axes = tuple(axes)
    data = _sum_leading(a.data, axes, keepdims=keepdims)

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

    Besides its output, the op keeps only per-channel vectors (the mean and
    1/std it used): backward recomputes the normalized input from ``x``,
    whose data the graph holds anyway.
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
        mean = _mean_leading(x.data, axes)
        data = _by_channel(np.subtract, x.data, mean)
        var = _mean_leading(data, axes, data)   # bitwise x.data.var(axis=axes)
        m = dt(momentum)
        running_mean.data[...] = m * running_mean.data + (dt(1) - m) * mean
        running_var.data[...] = m * running_var.data + (dt(1) - m) * var
    else:
        mean = running_mean.data.copy()     # backward needs the mean used here
        data = _by_channel(np.subtract, x.data, mean)
        var = running_var.data
    inv_std = dt(1) / np.sqrt(var + eps)
    # the output is built in place: xn = (x - mean) * inv_std, then xn * gamma + beta
    _by_channel(np.multiply, data, inv_std, out=data)
    _by_channel(np.multiply, data, gamma.data, out=data)
    _by_channel(np.add, data, beta.data, out=data)

    def backward(g):
        # xn is recomputed from the input the graph holds, not saved
        xn = _by_channel(np.subtract, x.data, mean)
        _by_channel(np.multiply, xn, inv_std, out=xn)
        if beta.requires_grad:
            beta.accumulate_grad(_sum_leading(g, axes))
        if gamma.requires_grad:
            gamma.accumulate_grad(_sum_leading(g, axes, xn))
        if not (x.requires_grad or x._parents):
            return
        if not training:
            x.accumulate_grad(g * gamma.data * inv_std)
            return
        # inv_std * (gxn - mean(gxn) - xn * mean(gxn * xn)), in place
        gx = _by_channel(np.multiply, g, gamma.data)
        gm = _mean_leading(gx, axes)
        gv = _mean_leading(gx, axes, xn)
        _by_channel(np.subtract, gx, gm, out=gx)
        _by_channel(np.multiply, xn, gv, out=xn)
        gx -= xn
        _by_channel(np.multiply, gx, inv_std, out=gx)
        x.accumulate_grad(gx)

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
