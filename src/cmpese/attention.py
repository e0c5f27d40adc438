"""Channel re-weighting units for residual blocks.

Five variants, selected by AttentionMode:

* ``se`` — squeeze-and-excitation on the residual branch alone.
* ``doublefc`` — separate FC embeddings of the squeezed residual and
  identity vectors, concatenated (residual first) into one excitation FC.
* ``pairview2x1`` — the two squeezed vectors stacked into a 2-row map and
  scanned by a bank of 2x1 kernels; kernel outputs are averaged, normalized,
  and encoded back down to C channels.
* ``pairview1x1`` — same map scanned by 1x1 kernels; the 2xC result is
  flattened so the encoder sees both rows.
* ``folded3x3`` — the 2-row map refolded into an n x m matrix with
  alternating residual/identity rows so 3x3 kernels can scan it.

ExcitationUnit builds and runs all five from UNIT_SPECS, which gives per
mode the encoder children, the scan kernel (kh, kw) or none, the inner-map
layout (none, stacked 2 x C or folded n x m) and the encoder input width in
multiples of C; attention_param_count reads the same table. The five public
class names are subclasses that only set ``mode``.

All excitation outputs are strictly inside (0, 1) and multiply the residual
branch channel-wise before the shortcut addition.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import tensor as T
from .errors import ConfigError, ShapeError, require_int
from .layers import BatchNorm2d, Linear, Module, he_normal


class AttentionMode(str, Enum):
    NONE = "none"
    SE = "se"
    DOUBLE_FC = "doublefc"
    PAIR_2X1 = "pairview2x1"
    PAIR_1X1 = "pairview1x1"
    FOLDED_3X3 = "folded3x3"


MODE_NAMES = tuple(m.value for m in AttentionMode)


def parse_mode(name):
    if isinstance(name, AttentionMode):
        return name
    if name is None:
        return AttentionMode.NONE
    try:
        return AttentionMode(str(name).lower())
    except ValueError:
        raise ConfigError(
            f"unknown attention mode {name!r}; expected one of {', '.join(MODE_NAMES)}"
        ) from None


@dataclass
class AttentionConfig:
    mode: AttentionMode = AttentionMode.NONE
    t: int = 16                # reduction ratio of the encoder bottleneck
    fold_n: int | None = None  # folded map rows (folded3x3 only)
    fold_m: int | None = None  # folded map cols (folded3x3 only)

    def __post_init__(self):
        self.mode = parse_mode(self.mode)
        require_int("t", self.t, 1)
        for key in ("fold_n", "fold_m"):
            if getattr(self, key) is not None:
                require_int(key, getattr(self, key), 1)
        if self.mode is not AttentionMode.FOLDED_3X3 and (
                self.fold_n is not None or self.fold_m is not None):
            raise ConfigError(
                f"fold_n/fold_m apply to mode 'folded3x3' only, not {self.mode.value!r}")


def reduced_width(c, t):
    """Encoder bottleneck width C/t, floored at 1 so tiny nets stay usable."""
    return max(1, c // t)


def kernel_count(c, t):
    """Number of pair-view kernels: block width / t, rounded, floored at 1."""
    return max(1, int(round(c / t)))


def largest_divisor_leq(c, cap):
    for d in range(min(cap, c), 0, -1):
        if c % d == 0:
            return d
    return 1


def check_fold_shape(c, n, m):
    """Refuse an (n, m) fold of a 2 x C map unless n*m = 2C and n is even."""
    if n * m != 2 * c or n % 2 != 0:
        raise ConfigError(
            f"fold shape ({n}, {m}) invalid for {c} channels: need n*m = {2 * c} with even n")


def resolve_fold_shape(c, fold_n=None, fold_m=None):
    """Pick (n, m) with n*m = 2C and n even (row pairs cover channels in
    blocks of m). Explicitly inconsistent (n, m) is an error. A requested n
    asks for m = 2C // n; m (16 when neither is given) falls back to the
    largest divisor of C not exceeding it."""
    if fold_n is not None and fold_m is not None:
        check_fold_shape(c, fold_n, fold_m)
        return fold_n, fold_m
    if fold_n is not None:
        fold_m = max(1, 2 * c // fold_n)
    m = largest_divisor_leq(c, 16 if fold_m is None else fold_m)
    return 2 * c // m, m


# ---------------------------------------------------------------------------
# pair-view map construction
# ---------------------------------------------------------------------------

def stack_pair_view(u_hat, x_hat):
    """Arrange squeezed vectors as an (N, 2, C) map, residual row first."""
    return T.stack_rows(u_hat, x_hat)


def fold_map(v, n, m):
    """(N, 2, C) -> (N, n, m) with rows alternating residual/identity.

    Row 2i holds residual channels [i*m, (i+1)*m); row 2i+1 the matching
    identity channels. Pure reshape/transpose, hence exactly invertible.
    """
    batch, two, c = v.shape
    if two != 2:
        raise ShapeError("fold", f"expected a 2-row map, got {two} rows", axis=1)
    check_fold_shape(c, n, m)
    half = n // 2
    a = T.reshape(v, (batch, 2, half, m))
    b = T.transpose(a, (0, 2, 1, 3))
    return T.reshape(b, (batch, n, m))


def unfold_map(v, n, m):
    """Inverse of fold_map: (N, n, m) -> (N, 2, C)."""
    batch = v.shape[0]
    if v.shape[1] != n or v.shape[2] != m:
        raise ShapeError("unfold", f"map shape {v.shape[1:]} != declared ({n}, {m})")
    half = n // 2
    a = T.reshape(v, (batch, half, 2, m))
    b = T.transpose(a, (0, 2, 1, 3))
    return T.reshape(b, (batch, 2, half * m))


def reweight_map(before, s, layout):
    """The inner map of the re-weighted block: residual entries scale by s,
    identity entries are untouched. Global average pooling is linear, so
    s * GAP(u_r) is the squeeze of the scaled branch s * u_r."""
    after = np.array(before, copy=True)
    if layout == "stacked":
        after[:, 0, :] = before[:, 0, :] * s
    elif layout == "folded":
        batch, n, m = before.shape
        after[:, 0::2, :] = before[:, 0::2, :] * s.reshape(batch, n // 2, m)
    else:
        raise ConfigError(f"unknown inner-map layout {layout!r}")
    return after


# ---------------------------------------------------------------------------
# excitation units
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class UnitSpec:
    encoders: tuple           # encoder child names, registered in this order
    kernel: tuple | None      # scan kernel (kh, kw); None for no inner map
    layout: str | None        # inner map: None, "stacked" (2 x C) or "folded" (n x m)
    width: int                # encoder input width, in multiples of C
    reads_shortcut: bool      # whether the unit reads the shortcut's squeeze too


UNIT_SPECS = {
    AttentionMode.SE: UnitSpec(("reduce",), None, None, 1, False),
    AttentionMode.DOUBLE_FC: UnitSpec(("reduce_res", "reduce_id"), None, None, 1, True),
    AttentionMode.PAIR_2X1: UnitSpec(("encode",), (2, 1), "stacked", 1, True),
    AttentionMode.PAIR_1X1: UnitSpec(("encode",), (1, 1), "stacked", 2, True),
    AttentionMode.FOLDED_3X3: UnitSpec(("encode",), (3, 3), "folded", 2, True),
}


class ExcitationUnit(Module):
    """s = sigmoid(expand(relu(encoders(squeezes)))), shaped by UNIT_SPECS[mode].

    Without an inner map each encoder reads its own squeeze (residual, then
    identity) and ``expand`` sees the encodings concatenated. With one, the
    squeezes are stacked (and folded), scanned by the kernel bank, averaged,
    normalized and flattened into the single encoder. Subclasses set ``mode``.
    """

    mode = None
    # What the last ``excite`` computed, read by diagnostics.capture_trace:
    # s (N, C) and the inner map it scanned (None without one). These are the
    # forward pass's own arrays, not copies. No op writes into another op's
    # output, and each call rebinds them, so arrays read earlier stay valid.
    last_s = None
    last_map = None

    def __init__(self, channels, t=16, n_kernels=None, fold_n=None, fold_m=None,
                 use_bn=True, rng=None, dtype=np.float32):
        super().__init__()
        self.spec = spec = UNIT_SPECS[self.mode]
        if spec.kernel is None and (n_kernels is not None or not use_bn):
            raise ConfigError(
                f"mode {self.mode.value!r} has no scan; n_kernels and use_bn do not apply")
        if spec.layout != "folded" and (fold_n is not None or fold_m is not None):
            raise ConfigError(
                f"mode {self.mode.value!r} has no folded map; fold_n and fold_m do not apply")
        self.channels = channels
        if spec.kernel is not None:
            kh, kw = spec.kernel
            self.n_kernels = kernel_count(channels, t) if n_kernels is None else n_kernels
            if self.n_kernels < 1:
                raise ConfigError(f"kernel count must be positive, got {self.n_kernels}")
            self.use_bn = use_bn
            w = he_normal(rng, (kh, kw, 1, self.n_kernels), kh * kw * self.n_kernels, dtype)
            self.kernels = self.param("kernels", w, decay=True)
            if use_bn:
                self.norm = self.child("norm", BatchNorm2d(1, dtype=dtype))
        if spec.layout == "folded":
            self.fold_n, self.fold_m = resolve_fold_shape(channels, fold_n, fold_m)
        r = reduced_width(channels, t)
        for name in spec.encoders:
            setattr(self, name, self.child(
                name, Linear(spec.width * channels, r, bias=False, rng=rng, dtype=dtype)))
        # doublefc: one weight of shape (C, 2r), block-multiplied so a zeroed
        # branch contributes an exact zero
        self.expand = self.child(
            "expand", Linear(len(spec.encoders) * r, channels, bias=False, rng=rng, dtype=dtype))

    def _scan(self, vmap):
        """Convolve the map with every kernel, average, optionally BN.

        vmap: (N, rows, cols); returns (N, rows', cols'). Only the 3x3 kernel
        is padded, so the map keeps its shape.
        """
        batch, rows, cols = vmap.shape
        x4 = T.reshape(vmap, (batch, rows, cols, 1))
        pad = (self.spec.kernel[0] - 1) // 2
        out = T.conv2d(x4, self.kernels, stride=1, padding=pad)
        avg = T.mean_over(out, (3,), keepdims=True)
        if self.use_bn:
            avg = self.norm(avg)
        return T.reshape(avg, avg.shape[:3])

    def excite(self, u_hat, x_hat=None):
        spec, vmap, squeezes = self.spec, None, (u_hat, x_hat)
        if spec.layout is not None:
            vmap = stack_pair_view(u_hat, x_hat)
            if spec.layout == "folded":
                vmap = fold_map(vmap, self.fold_n, self.fold_m)
            squeezes = (T.reshape(self._scan(vmap), (vmap.shape[0], spec.width * self.channels)),)
        hidden = [T.relu(getattr(self, name)(v)) for name, v in zip(spec.encoders, squeezes)]
        if len(hidden) == 2:
            z = T.dual_linear(hidden[0], hidden[1], self.expand.weight)
        else:
            z = self.expand(hidden[0])
        s = T.sigmoid(z)
        self.last_s = s.data
        self.last_map = None if vmap is None else vmap.data
        return s


class SqueezeExcite(ExcitationUnit):
    mode = AttentionMode.SE


class CompetitiveDoubleFC(ExcitationUnit):
    mode = AttentionMode.DOUBLE_FC


class PairView2x1(ExcitationUnit):
    mode = AttentionMode.PAIR_2X1


class PairView1x1(ExcitationUnit):
    mode = AttentionMode.PAIR_1X1


class FoldedPairView3x3(ExcitationUnit):
    mode = AttentionMode.FOLDED_3X3


_UNIT_TYPES = {cls.mode: cls for cls in (SqueezeExcite, CompetitiveDoubleFC, PairView2x1,
                                         PairView1x1, FoldedPairView3x3)}


def make_attention_unit(channels, cfg, rng=None, dtype=np.float32):
    """Build the unit for one residual block; None for mode 'none'."""
    if cfg.mode is AttentionMode.NONE:
        return None
    return _UNIT_TYPES[cfg.mode](channels, cfg.t, fold_n=cfg.fold_n, fold_m=cfg.fold_m,
                                 rng=rng, dtype=dtype)


def attention_param_count(channels, cfg):
    """Trainable scalars of one unit, from UNIT_SPECS alone (no allocation)."""
    if cfg.mode is AttentionMode.NONE:
        return 0
    spec = UNIT_SPECS[cfg.mode]
    c, r = channels, reduced_width(channels, cfg.t)
    count = len(spec.encoders) * (spec.width * c * r + r * c)
    if spec.kernel is not None:
        kh, kw = spec.kernel
        count += kh * kw * kernel_count(c, cfg.t) + 2   # kernel bank + BN affine
    return count


def recalibrate_and_add(u_r, x_id, unit, out=None):
    """Block output: scale the residual map channel-wise by the excitation
    of (u_r, x_id) and add the shortcut. Mode 'none' is a plain addition.
    The shortcut is squeezed only for a unit that reads its squeeze.
    Outside a graph, ``out`` receives the output; it may be ``u_r.data``,
    since the squeezes have read it by then."""
    if u_r.shape != x_id.shape:
        raise ShapeError(
            "recalibrate_and_add",
            f"residual {u_r.shape} and shortcut {x_id.shape} must match",
        )
    if unit is None:
        return T.add(u_r, x_id, out=out)
    u_hat = T.global_avg_pool(u_r)
    x_hat = T.global_avg_pool(x_id) if unit.spec.reads_shortcut else None
    s = unit.excite(u_hat, x_hat)
    return T.channel_scale_add(s, u_r, x_id, out=out)
