"""Minimal reverse-mode autodiff on dense numpy arrays.

Layout convention is channels-last throughout: feature maps are
(batch, height, width, channels), squeezed vectors are (batch, channels).
Ops preserve the dtype of their inputs; float32 is the training default
and float64 is used for finite-difference gradient checks.
"""

from __future__ import annotations

import contextlib
import ctypes
import glob
import math
import os

import numpy as np

from .errors import ActivationReleasedError, GraphReleasedError, NonFiniteError, ShapeError

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

_CBLAS_ROW_MAJOR, _CBLAS_NO_TRANS = 101, 111


def _bind_blas_gemm():
    """``gemm(c, a, b, beta)``: ``c[...] = a @ b + beta * c`` in place for
    C-contiguous ``a``, ``b`` and ``c`` (a row-offset slice of a contiguous
    array is one), through the float32 and float64 GEMMs of the OpenBLAS
    that numpy's wheel bundles, or None where they cannot be found or fail
    ``_gemm_is_exact``. Any other layout raises ValueError.

    numpy's matmul has no beta, so it cannot add a product into an array
    without a temporary. The library is ILP64: sizes are int64, the
    enumerations C ints. It is the one numpy already loaded, so it shares
    numpy's BLAS threads.
    """
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas64_*.so"))):
        try:
            lib = ctypes.CDLL(path)
            routines = {np.dtype(np.float32): (lib.scipy_cblas_sgemm64_, ctypes.c_float),
                        np.dtype(np.float64): (lib.scipy_cblas_dgemm64_, ctypes.c_double)}
        except (AttributeError, OSError):
            continue
        i64, ptr = ctypes.c_int64, ctypes.c_void_p
        for fn, real in routines.values():
            fn.argtypes = (ctypes.c_int,) * 3 + (i64,) * 3 + (real, ptr, i64, ptr, i64, real, ptr, i64)
            fn.restype = None

        def gemm(c, a, b, beta, routines=routines):
            fn, real = routines[c.dtype]
            (m, n), k = c.shape, a.shape[1]
            if a.dtype != c.dtype or b.dtype != c.dtype or a.shape[0] != m or b.shape != (k, n):
                raise ValueError(f"gemm operands {a.shape} {a.dtype} @ {b.shape} {b.dtype} "
                                 f"-> {c.shape} {c.dtype}")
            if not (a.flags.c_contiguous and b.flags.c_contiguous and c.flags.c_contiguous):
                raise ValueError(f"gemm operands must be C-contiguous, got strides "
                                 f"{a.strides} @ {b.strides} -> {c.strides}")
            fn(_CBLAS_ROW_MAJOR, _CBLAS_NO_TRANS, _CBLAS_NO_TRANS, m, n, k, real(1),
               a.ctypes.data, k, b.ctypes.data, n, real(beta), c.ctypes.data, n)

        if _gemm_is_exact(gemm):
            return gemm
    return None


def _gemm_is_exact(gemm):
    """Whether ``gemm`` adds a product into a row-offset view of its output
    exactly as numpy computes it. Small integers keep every sum exact in
    both dtypes."""
    rng = np.random.default_rng(0)
    for dt in (np.float32, np.float64):
        a = rng.integers(-4, 5, (7, 5)).astype(dt)
        b = rng.integers(-4, 5, (5, 6)).astype(dt)
        c = rng.integers(-4, 5, (9, 6)).astype(dt)
        want = c.copy()
        want[2:] += a @ b
        try:
            gemm(c[2:], a, b, 1)
        except (ValueError, KeyError, ctypes.ArgumentError):
            return False
        if not np.array_equal(c, want):
            return False
    return True


# c = a @ b + beta * c in place for float32/float64, or None: see _bind_blas_gemm
_BLAS_GEMM = _bind_blas_gemm()


@contextlib.contextmanager
def _flag(name, value):
    """Set the module flag ``name`` to ``value`` inside the block, and give
    it back its previous value on leaving, also when the block raises."""
    prev = globals()[name]
    globals()[name] = value
    try:
        yield
    finally:
        globals()[name] = prev


def no_grad():
    """Ops inside the block return detached results."""
    return _flag("_grad_enabled", False)


def finite_checks(enabled=True):
    """Inside the block, a non-finite op output or gradient raises
    NonFiniteError naming its tensor."""
    return _flag("_finite_checks", enabled)


class Tensor:
    """Dense array plus optional gradient buffer and autodiff linkage.

    ``padded`` is None except on the output of ``batch_norm(..., pad=p)``:
    there it is the zero-bordered array whose interior view is ``data``,
    which ``conv2d`` with the same padding reads (``padded_by``) in place of
    its own copy. A ``batch_norm`` output in a graph can also be rebuilt, so
    that ``release`` may drop its arrays between forward and backward; a
    tensor that backward reads only for its shape and dtype may ``drop``
    them for good.
    """

    __slots__ = ("data", "shape", "dtype", "grad", "requires_grad", "name", "_parents",
                 "_backward", "padded", "_rebuild")

    def __init__(self, data, requires_grad=False, name=None):
        self.data = np.asarray(data)
        # data is rebound only by padded_by's rebuild, with the same shape and dtype
        self.shape, self.dtype = self.data.shape, self.data.dtype
        self.grad = None
        self.requires_grad = requires_grad
        self.name = name
        self._parents = ()
        self._backward = None
        self.padded = None
        self._rebuild = None

    def __getattr__(self, name):
        # reached only for an unset slot: data and padded after drop()
        if name in ("data", "padded"):
            raise ActivationReleasedError(self.name)
        raise AttributeError(name)

    def release(self):
        """Drop ``data`` and ``padded`` until backward reads them again.

        Only a ``batch_norm`` output in a graph drops anything, since only it
        can be rebuilt; any other tensor keeps its arrays. Its readers'
        gradient functions call ``padded_by``, which rebuilds both with the
        forward's bits, once for all of them, and the rebuild is freed with
        the graph after its batch norm's backward. Until then, reading
        ``data`` or ``padded`` raises ``ActivationReleasedError``.
        """
        if self._rebuild is not None:
            self.drop()
            self._rebuild.arrays = None

    def drop(self):
        """Drop ``data`` and ``padded``, keeping ``shape`` and ``dtype``
        readable; reading ``data`` or ``padded`` then raises
        ``ActivationReleasedError``. Unless ``release`` called it, they are
        gone for good: for a tensor whose gradient functions read nothing
        else of it, such as a block's projection output (see
        ``network.ResidualBlock.forward``), or for one outside any graph
        that no op will read again, such as a projection block's input once
        its bn1 has run without a graph (``branch_and_shortcut``)."""
        del self.data, self.padded

    def padded_by(self, pad):
        """``data`` zero-padded by ``pad`` on both sides of its two spatial
        axes, when that array exists: ``data`` itself for pad 0, ``padded``
        when it has the padded shape, else None. A released tensor is
        rebuilt first (see ``release``)."""
        if self._rebuild is not None:
            self.data, self.padded = self._rebuild()
        if pad == 0:
            return self.data
        n, h, w, c = self.data.shape
        if self.padded is not None and self.padded.shape == (n, h + 2 * pad, w + 2 * pad, c):
            return self.padded
        return None

    @property
    def ndim(self):
        return len(self.shape)

    @property
    def size(self):
        return math.prod(self.shape)

    def zero_grad(self):
        self.grad = None

    def accumulate_grad(self, g):
        """Add ``g`` to this tensor's gradient.

        The first gradient is kept as given when it is a writeable array of
        the right dtype, such as the interior view of a conv's padded input
        gradient; a read-only one, such as a pool's stride-0 broadcast, is
        copied, so no tensor holds a broadcast. Later ones are added out of
        place. Nothing writes into a stored gradient, so one array may be the
        gradient of several tensors.
        """
        dtype = self.dtype
        if self.grad is None:
            writeable = isinstance(g, np.ndarray) and g.dtype == dtype and g.flags.writeable
            self.grad = g if writeable else np.array(g, dtype=dtype, order="C")
        else:
            self.grad = (self.grad + g).astype(dtype, copy=False)

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


def _result(data, name, *vjps):
    """Wrap an op result; the one place where the graph rule lives.

    ``vjps`` are ``(input, fn)`` pairs in the op's parent order, where
    ``fn(g)`` is that input's gradient given the output's gradient ``g``.
    The result requires grad when grad is enabled and an input does. It then
    links as parents exactly the inputs that require grad, and its backward
    adds each of their products to its input, last input first: a conv's
    weight gradient is made and kept before the larger input gradient is, and
    batch_norm's x product runs after its beta and gamma sums.
    """
    if _finite_checks and not np.all(np.isfinite(data)):
        raise NonFiniteError("non-finite forward value", name)
    live = [pair for pair in vjps if pair[0].requires_grad] if _grad_enabled else None
    out = Tensor(data, requires_grad=bool(live), name=name)
    if live:
        out._parents = tuple([p for p, _ in live])
        live.reverse()

        def backward(g):
            for p, fn in live:
                p.accumulate_grad(fn(g))

        out._backward = backward
    return out


def _once_per_gradient(fn):
    """``fn`` memoized on the identity of its gradient argument: the products
    of one op, called with the same ``g``, share one ``fn(g)``."""
    last = [None, None]

    def shared(g):
        if last[0] is not g:
            last[:] = g, fn(g)
        return last[1]

    return shared


class _Rebuild:
    """A tensor's ``(data, padded)`` pair: the forward's, until
    ``Tensor.release`` drops it, then the one ``make()`` builds on first
    use, which every later reader shares."""

    __slots__ = ("make", "arrays")

    def __init__(self, make, arrays):
        self.make, self.arrays = make, arrays

    def __call__(self):
        if self.arrays is None:
            self.arrays = self.make()
        return self.arrays


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
    inner loops. ``out`` must be C-contiguous, so that its view is written:
    any other layout raises ValueError, since its reshape would be a copy.
    """
    if out is not None and not out.flags.c_contiguous:
        raise ValueError(f"_by_channel writes only a C-contiguous out, got shape "
                         f"{out.shape} with strides {out.strides}")
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


# ---------------------------------------------------------------------------
# elementwise / broadcast ops
# ---------------------------------------------------------------------------

def add(a, b):
    return _result(a.data + b.data, "add",
                   (a, lambda g: _sum_to(g, a.shape)), (b, lambda g: _sum_to(g, b.shape)))


def mul(a, b):
    return _result(a.data * b.data, "mul", (a, lambda g: _sum_to(g, a.shape, b.data)),
                   (b, lambda g: _sum_to(g, b.shape, a.data)))


def scale(a, c):
    """Multiply by a python scalar, without dtype promotion."""
    c = a.data.dtype.type(c)
    return _result(a.data * c, "scale", (a, lambda g: g * c))


def relu(a):
    return _result(np.maximum(a.data, 0), "relu", (a, lambda g: g * (a.data > 0)))


def sigmoid(a):
    x = a.data
    # exp of -|x| only, so it cannot overflow: 1 / (1 + e^-x) for x >= 0,
    # e^x / (1 + e^x) below
    e = np.exp(-np.abs(x))
    out = np.where(x >= 0, 1.0, e) / (1.0 + e)
    # keep outputs strictly inside (0, 1) even where the dtype saturates
    one = x.dtype.type(1)
    zero = x.dtype.type(0)
    np.clip(out, np.nextafter(zero, one), np.nextafter(one, zero), out=out)
    return _result(out, "sigmoid", (a, lambda g: g * out * (1.0 - out)))


# ---------------------------------------------------------------------------
# shape ops
# ---------------------------------------------------------------------------

def reshape(a, shape):
    old = a.shape
    return _result(a.data.reshape(shape), "reshape", (a, lambda g: g.reshape(old)))


def transpose(a, axes):
    inv = np.argsort(axes)
    return _result(np.transpose(a.data, axes), "transpose", (a, lambda g: np.transpose(g, inv)))


def stack_rows(a, b):
    """Stack two (N, C) vectors into an (N, 2, C) map, first row = a."""
    if a.shape != b.shape:
        raise ShapeError("stack_rows", f"row lengths differ: {a.shape} vs {b.shape}", axis=1)
    return _result(np.stack([a.data, b.data], axis=1), "stack_rows",
                   (a, lambda g: g[:, 0]), (b, lambda g: g[:, 1]))


def mean_over(a, axes, keepdims=False):
    axes = tuple(axes)
    data = _mean_leading(a.data, axes, keepdims=keepdims)
    inv = a.data.dtype.type(1.0 / math.prod(a.shape[ax] for ax in axes))

    def grad_a(g):
        return np.broadcast_to((g if keepdims else np.expand_dims(g, axes)) * inv, a.shape)

    return _result(data, "mean", (a, grad_a))


def sum_over(a, axes, keepdims=False):
    axes = tuple(axes)
    data = _sum_leading(a.data, axes, keepdims=keepdims)

    def grad_a(g):
        return np.broadcast_to(g if keepdims else np.expand_dims(g, axes), a.shape)

    return _result(data, "sum", (a, grad_a))


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
    vjps = [(x, lambda g: g @ w.data), (w, lambda g: g.T @ x.data)]
    if bias is not None:
        data = data + bias.data
        vjps.append((bias, lambda g: g.sum(axis=0)))
    return _result(data, "linear", *vjps)


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

    def grad_w(g):
        gw = np.empty_like(w.data)
        gw[:, :r] = g.T @ h_a.data
        gw[:, r:] = g.T @ h_b.data
        return gw

    return _result(data, "dual_linear",
                   (h_a, lambda g: g @ w_a), (h_b, lambda g: g @ w_b), (w, grad_w))


# Outputs per block. Every conv pass cuts the batch into equal runs of whole
# images of at most this many outputs, or single images where one has more.
# An output is one GEMM row of the forward and input-gradient passes, so
# where their blocks end moves no bit, as long as no block is so small that
# BLAS takes its small-matrix kernel, which sums in another order: equal
# blocks keep each at least half as large as the bound allows. The weight
# gradient's GEMMs sum over a block's rows (a kh*kw*Cin x Cout output) and
# the blocks' products add in order, so its block ends fix its bits. Per-tap
# weight-gradient GEMMs (a Cin x Cout output) measured slower.
_SLICE_ROWS = 8192
# Bytes of an im2col copy: one workspace per im2col forward or
# weight-gradient call, overwritten block after block. Both passes take
# fewer images per block to fit it, and walk the same blocks.
_WORKSPACE_BYTES = 9 << 19   # 4.5 MiB
# Smallest output height and width that run on the flat padded grid. Each
# image has (H+2)(W+2) grid rows for H*W outputs (56% more at 8x8); below
# these floors, measured per shape at batch 32-256, the extra rows cost more
# than the copies and strided adds the grid saves.
_FLAT_FORWARD_MIN = 16
_FLAT_DX_MIN = 8
# Fewest input channels for the flat forward pass: a 3-channel stem's per-tap
# GEMMs (depth 3) measured 3-19% slower than its one im2col GEMM (depth 27).
_FLAT_FORWARD_MIN_CIN = 8


def _image_blocks(n, images):
    """``(start, stop)`` of each of the fewest equal runs of whole images,
    at most ``images`` long, that cover a batch of ``n``; the last run is
    the longest."""
    count = -(-n // images)
    ends = [n * i // count for i in range(count + 1)]
    return list(zip(ends, ends[1:]))


def conv2d(x, w, stride=1, padding=0):
    """2-D convolution, channels-last.

    x: (N, H, W, Cin); w: (kh, kw, Cin, Cout); symmetric zero padding.
    Output spatial extent is floor((in + 2*pad - k)/stride) + 1.

    ==== ============== ============================== ================================
    pass path           blocks of whole images         why
    ==== ============== ============================== ================================
    y    flat grid      equal, <= _SLICE_ROWS outputs  no im2col copy
    y    im2col         equal, <= _SLICE_ROWS outputs  one deep GEMM over all taps
                        and _WORKSPACE_BYTES
    dX   flat grid      equal, <= _SLICE_ROWS outputs  no per-tap temporary or strided add
    dX   shift-and-GEMM equal, <= _SLICE_ROWS outputs  any stride, kernel and Cin
    dW   im2col         equal, <= _SLICE_ROWS outputs  the forward's blocks: one workspace
                        and _WORKSPACE_BYTES           and one block setup for both
    ==== ============== ============================== ================================

    The flat grid (stride 1, a kernel above 1x1, Cin > 1 and ``_BLAS_GEMM``
    bound) reads the padded input as (N*Hp*Wp, Cin) rows, tap (i, j) at row
    offset i*Wp + j, and adds each tap's GEMM in place; the forward pass takes
    it when Ho, Wo >= _FLAT_FORWARD_MIN and Cin >= _FLAT_FORWARD_MIN_CIN, dX
    when Ho, Wo >= _FLAT_DX_MIN. Its dX has shift-and-GEMM's bits up to 256
    output channels (Cin = 1 would run as matrix-vector products, which add
    in another order); its forward differs from im2col's in the last bits.

    With ``padding`` p the conv reads ``x.padded`` when it has the padded
    shape (see ``batch_norm``), and dW reads it again through
    ``x.padded_by(p)``, rebuilt if x was released. Otherwise it pads its own
    copy, which the graph keeps for dW. dX is the interior view of a padded
    array.
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
    # the conv's own padded copy, or None when it reads x's array
    copy = None
    xp = x.padded_by(padding)
    if xp is None:
        xp = copy = np.zeros((n, h + 2 * padding, wd + 2 * padding, cin), dtype=x.dtype)
        copy[:, padding : padding + h, padding : padding + wd, :] = x.data
    w_flat = np.ascontiguousarray(w.data).reshape(kh * kw * cin, cout)
    dtype = np.result_type(xp, w_flat)
    xp_shape, xp_dtype = xp.shape, xp.dtype
    hp, wp = xp_shape[1:3]
    flat = (_BLAS_GEMM is not None and stride == 1 and kh * kw > 1 and cin > 1
            and xp.dtype == w_flat.dtype == dtype and dtype in (np.float32, np.float64))
    # tap (i, j)'s row offset on the flat grid
    offsets = [i * wp + j for i in range(kh) for j in range(kw)]
    outs = ho * wo                        # outputs per image
    blocks = _image_blocks(n, max(1, _SLICE_ROWS // outs))
    most = blocks[-1][1] - blocks[-1][0]
    # the im2col passes take fewer images where a block's rows overfill the workspace
    fits = _WORKSPACE_BYTES // (kh * kw * cin * xp.itemsize)
    cut = _image_blocks(n, max(1, min(_SLICE_ROWS, fits) // outs))

    def im2col(xp):
        """``(rows, cols)`` per run of ``cut``: its output rows, and its
        images' (rows, kh*kw*Cin) im2col block, copied from a window view of
        ``xp`` into the front of one workspace that each block overwrites."""
        sn, sh, sw, sc = xp.strides
        windows = np.lib.stride_tricks.as_strided(
            xp, shape=(n, ho, wo, kh, kw, cin),
            strides=(sn, stride * sh, stride * sw, sh, sw, sc), writeable=False)
        ws = np.empty((cut[-1][1] - cut[-1][0]) * outs * kh * kw * cin, dtype=xp.dtype)
        for b, e in cut:
            part = windows[b:e]
            block = ws[:part.size].reshape(part.shape)
            block[...] = part
            yield slice(b * outs, e * outs), block.reshape(-1, kh * kw * cin)

    data = np.empty((n, ho, wo, cout), dtype=dtype)
    if flat and min(ho, wo) >= _FLAT_FORWARD_MIN and cin >= _FLAT_FORWARD_MIN_CIN:
        # a block's last grid rows would read past the block, and hold no
        # output position, so the GEMMs stop short of them
        grid = xp.reshape(n * hp * wp, cin)
        buf = np.empty((most * hp * wp, cout), dtype=dtype)
        for b, e in blocks:
            base, rows = b * hp * wp, (e - b) * hp * wp - offsets[-1]
            beta = 0   # the first tap overwrites what the last block left
            for off, w_tap in zip(offsets, w_flat.reshape(kh * kw, cin, cout)):
                _BLAS_GEMM(buf[:rows], grid[base + off:base + off + rows], w_tap, beta)
                beta = 1
            data[b:e] = buf[:(e - b) * hp * wp].reshape(e - b, hp, wp, cout)[:, :ho, :wo]
    else:
        out = data.reshape(n * outs, cout)
        for rows, cols in im2col(xp):
            np.matmul(cols, w_flat, out=out[rows])

    def grad_w(g):
        g_flat = g.reshape(n * outs, cout)
        gw = np.zeros(w_flat.shape, dtype=dtype)
        prod = np.empty_like(gw)
        # x's own array, rebuilt if x was released, or the copy; the blocks'
        # products add in order
        for rows, cols in im2col(x.padded_by(padding) if copy is None else copy):
            gw += np.matmul(cols.T, g_flat[rows], out=prod)
        return gw.reshape(w.shape)

    def grad_x(g):
        # each tap's (Cout, Cin) weight, contiguous for the binding
        kernel_t = np.ascontiguousarray(w_flat.reshape(kh * kw, cin, cout).transpose(0, 2, 1))
        gxp = np.zeros(xp_shape, dtype=xp_dtype)
        if flat and min(ho, wo) >= _FLAT_DX_MIN:
            # a block of g sits in the top-left corners of a zero grid, so
            # grid row r holds the gradient of the output that tap (i, j)
            # computed from padded row r + i*wp + j, and every other row is
            # zero; the blocks overwrite only the corners
            g_grid = np.zeros((most, hp, wp, cout), dtype=dtype)
            for b, e in blocks:
                g_grid[:e - b, :ho, :wo] = g[b:e]
                g_rows = g_grid[:e - b].reshape(-1, cout)
                gx_rows = gxp[b:e].reshape(-1, cin)
                for off, w_tap in zip(offsets, kernel_t):
                    _BLAS_GEMM(gx_rows[off:], g_rows[:len(g_rows) - off], w_tap, 1)
        else:
            for b, e in blocks:
                g_rows = g[b:e].reshape(-1, cout)
                for tap, w_tap in enumerate(kernel_t):
                    # the padded-input positions that tap (i, j) reads
                    i, j = divmod(tap, kw)
                    view = gxp[b:e, i : i + stride * ho : stride,
                               j : j + stride * wo : stride, :]
                    view += (g_rows @ w_tap).reshape(e - b, ho, wo, cin)
        return gxp[:, padding : padding + h, padding : padding + wd, :]

    return _result(data, "conv2d", (x, grad_x), (w, grad_w))


def global_avg_pool(x):
    """Per-sample, per-channel spatial mean: (N, H, W, C) -> (N, C)."""
    if x.ndim != 4:
        raise ShapeError("global_avg_pool", f"input must be 4-D, got {x.ndim}-D")
    n, h, w, c = x.shape
    if h * w == 0:
        raise ShapeError("global_avg_pool", "zero spatial extent", axis=1)
    return mean_over(x, (1, 2))


def channel_scale_add(s, u, x):
    """``u * s[:, None, None, :] + x`` as one op: s (N, C); u, x (N, H, W, C).

    The block tail of a recalibrated residual: one output array, and no
    product array kept for backward, which reads ``u`` and ``s``. Its bits
    and gradients are those of ``add(mul(reshape(s), u), x)``; the parents
    are ordered (s, u, x) so that a tensor reached through several of them
    sums its gradient terms in that composite's order.
    """
    if s.shape != (u.shape[0], u.shape[-1]):
        raise ShapeError("channel_scale_add",
                         f"scale {s.shape} does not match (batch, channels) of {u.shape}",
                         axis=3)
    if x.shape != u.shape:
        raise ShapeError("channel_scale_add", f"addend {x.shape} does not match {u.shape}")
    n, c = s.shape
    s4 = s.data.reshape(n, 1, 1, c)
    data = s4 * u.data
    data += x.data
    return _result(data, "channel_scale_add",
                   (s, lambda g: _sum_to(g, s4.shape, u.data).reshape(s.shape)),
                   (u, lambda g: g * s4), (x, lambda g: g))


def _centered(x, mean, pad):
    """``(buf, data)``: ``x - mean`` in a new array ``data``. With ``pad`` it
    is the interior view of ``buf``, a zeroed (N, H+2p, W+2p, C) array;
    else ``buf`` is ``data``."""
    if not pad:
        buf = _by_channel(np.subtract, x, mean)
        return buf, buf
    n, h, wd, c = x.shape
    buf = np.zeros((n, h + 2 * pad, wd + 2 * pad, c), dtype=np.result_type(x, mean))
    # x - mean straight into the interior, one image row (W*C values) at a time
    rows = buf.reshape(n, h + 2 * pad, -1)[:, pad : pad + h, pad * c : (pad + wd) * c]
    np.subtract(x.reshape(n, h, wd * c), np.tile(mean, wd), out=rows)
    return buf, buf[:, pad : pad + h, pad : pad + wd]


def _scale_shift(buf, inv_std, gamma, beta, relu, pad):
    """In place over the whole of ``_centered``'s buffer: xn = (x - mean) *
    inv_std, then xn * gamma + beta, then the ReLU. Wide rows of the whole
    buffer run faster than the interior's rows."""
    _by_channel(np.multiply, buf, inv_std, out=buf)
    _by_channel(np.multiply, buf, gamma, out=buf)
    _by_channel(np.add, buf, beta, out=buf)
    if relu:
        np.maximum(buf, 0, out=buf)
    if pad:
        # the shift set the border to max(beta, 0)
        buf[:, :pad] = buf[:, -pad:] = 0
        buf[:, :, :pad] = buf[:, :, -pad:] = 0


def batch_norm(x, gamma, beta, running_mean, running_var, training,
               momentum=0.9, eps=1e-5, relu=False, pad=0):
    """Normalize over all axes but the last; affine scale/shift.

    Training mode uses batch statistics and updates the running buffers in
    place (biased variance, momentum 0.9 convention: new = m*old + (1-m)*batch).
    Eval mode normalizes with the running buffers.

    Besides its output, the op keeps only per-channel vectors (the mean and
    1/std it used): backward recomputes the normalized input from ``x``,
    whose data the graph holds anyway.

    ``relu=True`` returns ``relu(batch_norm(x))`` as one op: the ReLU runs in
    place on the output, and backward masks the gradient with ``output > 0``
    before the batch-norm backward. ``pad=p > 0`` (with ``relu``, on a 4-D
    input) builds that output in the interior of a zeroed (N, H+2p, W+2p, C)
    array: the result's ``data`` is the interior view and its ``padded`` the
    whole array, which a following ``conv2d`` with padding p uses as its
    padded input. A pre-activation unit ``conv(relu(bn(x)))`` then builds one
    copy of its activation instead of three.

    In a graph, the result can also be rebuilt from ``x``, the mean and
    1/std, by the forward's own ops in the same order, so with its bits. A
    caller whose forward readers are done with it may ``release`` it. The
    graph then holds none of it: its readers' gradient functions rebuild it
    once and share it, the mask included, and it is freed after this op's
    backward.
    """
    c = x.shape[-1]
    if gamma.shape != (c,):
        raise ShapeError(
            "batch_norm", f"affine params sized {gamma.shape[0]} but input has {c} channels",
            axis=x.ndim - 1,
        )
    if pad and not (relu and x.ndim == 4):
        raise ShapeError("batch_norm", f"pad={pad} needs relu=True and a 4-D input")
    axes = tuple(range(x.ndim - 1))
    dt = x.data.dtype.type
    eps = dt(eps)
    # backward needs the mean used here
    mean = _mean_leading(x.data, axes) if training else running_mean.data.copy()
    buf, data = _centered(x.data, mean, pad)
    if training:
        var = _mean_leading(data, axes, data)   # bitwise x.data.var(axis=axes)
        m = dt(momentum)
        running_mean.data[...] = m * running_mean.data + (dt(1) - m) * mean
        running_var.data[...] = m * running_var.data + (dt(1) - m) * var
    else:
        var = running_var.data
    inv_std = dt(1) / np.sqrt(var + eps)
    _scale_shift(buf, inv_std, gamma.data, beta.data, relu, pad)
    padded = buf if pad else None

    def rebuild():
        buf, data = _centered(x.data, mean, pad)
        _scale_shift(buf, inv_std, gamma.data, beta.data, relu, pad)
        return data, (buf if pad else None)

    arrays = _Rebuild(rebuild, (data, padded))

    @_once_per_gradient
    def masked(g):
        # multiply, not np.where: a masked negative gradient stays -0.0
        return g * (arrays()[0] > 0) if relu else g

    @_once_per_gradient
    def normalized(g):
        # xn is recomputed from the input the graph holds, not saved
        xn = _by_channel(np.subtract, x.data, mean)
        return _by_channel(np.multiply, xn, inv_std, out=xn)

    def grad_x(g):
        # x's product runs last, so it may write over this op's own products:
        # masked(g) with relu (without, it is g itself) and xn
        gx = masked(g)
        own = relu and gx.flags.c_contiguous
        gx = _by_channel(np.multiply, gx, gamma.data, out=gx if own else None)
        if not training:
            return _by_channel(np.multiply, gx, inv_std, out=gx)
        # inv_std * (gxn - mean(gxn) - xn * mean(gxn * xn)), in place
        xn = normalized(g)
        gm = _mean_leading(gx, axes)
        gv = _mean_leading(gx, axes, xn)
        _by_channel(np.subtract, gx, gm, out=gx)
        _by_channel(np.multiply, xn, gv, out=xn)
        gx -= xn
        return _by_channel(np.multiply, gx, inv_std, out=gx)

    out = _result(data, "batch_norm", (x, grad_x),
                  (gamma, lambda g: _sum_leading(masked(g), axes, normalized(g))),
                  (beta, lambda g: _sum_leading(masked(g), axes)))
    out.padded = padded
    if out.requires_grad:
        out._rebuild = arrays
    return out


def cross_entropy(logits, labels):
    """Mean softmax cross-entropy; labels are integer class indices."""
    z = logits.data
    n = z.shape[0]
    zmax = z.max(axis=1, keepdims=True)
    ez = np.exp(z - zmax)
    sez = ez.sum(axis=1, keepdims=True)
    log_probs = (z - zmax) - np.log(sez)
    data = np.asarray(-log_probs[np.arange(n), labels].mean(), dtype=z.dtype)

    def grad_logits(g):
        probs = ez / sez
        probs[np.arange(n), labels] -= 1
        return g * probs / z.dtype.type(n)

    return _result(data, "cross_entropy", (logits, grad_logits))
