"""Pre-activation residual networks (plain and wide) with channel attention.

Families:

* ``preact-resnet`` — CIFAR-style stem (3x3 conv to 16 channels) and three
  stages. Basic blocks give depth 6u+2; bottleneck blocks give 9u+2 with
  stage outputs (64, 128, 256) and internal width out/4.
* ``wrn`` — basic blocks, depth 6u+4, stage widths (16k, 32k, 64k).

``block_units`` lists a block kind's convs; building a block, running it and
counting its parameters all read that one table.

Every residual block squeezes its branch output, and its (possibly
projected) shortcut for a competitive unit, feeds the squeezes to the
configured attention unit, scales the branch by the excitation, then adds
the shortcut. SE reads only the branch's squeeze.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import tensor as T
from .attention import (
    AttentionConfig,
    AttentionMode,
    attention_param_count,
    make_attention_unit,
    recalibrate_and_add,
)
from .errors import ConfigError, ShapeError, from_dict, require_choice, require_int
from .layers import BatchNorm2d, Conv2d, Linear, Module


@dataclass
class BlockSpec:
    kind: str                 # "basic" | "bottleneck"
    in_channels: int
    out_channels: int
    stride: int
    attention: AttentionConfig

    @property
    def shortcut(self):
        if self.in_channels != self.out_channels or self.stride != 1:
            return "projection"
        return "identity"


@dataclass
class NetworkSpec:
    family: str                       # "preact-resnet" | "wrn"
    depth: int
    widen_factor: int = 1
    num_classes: int = 10
    block: str = "auto"               # "basic" | "bottleneck" | "auto"
    attention: AttentionConfig = field(default_factory=AttentionConfig)

    def __post_init__(self):
        require_choice("family", self.family, ("preact-resnet", "wrn"))
        require_choice("block", self.block, ("basic", "bottleneck", "auto"))
        for key in ("depth", "widen_factor", "num_classes"):
            require_int(key, getattr(self, key), 1)
        if self.family == "preact-resnet" and self.widen_factor != 1:
            raise ConfigError(f"widen_factor applies to family 'wrn' only; got "
                              f"{self.widen_factor} for preact-resnet")
        if self.family == "wrn" and self.block != "auto":
            raise ConfigError(f"block applies to family 'preact-resnet' only; got "
                              f"{self.block!r} for wrn")


def resolve_block_kind(spec):
    """Basic vs bottleneck for a given depth.

    Depths of the form 9u+2 and 6u+2 overlap (110 and 164 satisfy both);
    published configurations pin 164+ to bottleneck and 110 to basic, so
    auto prefers bottleneck only from depth 164 up.
    """
    if spec.family == "wrn":
        return "basic"
    if spec.block != "auto":
        return spec.block
    d = spec.depth - 2
    if d % 9 == 0 and spec.depth >= 164:
        return "bottleneck"
    if d % 6 == 0:
        return "basic"
    if d % 9 == 0:
        return "bottleneck"
    raise ConfigError(
        f"preact-resnet depth must be 6u+2 (basic) or 9u+2 (bottleneck); got {spec.depth}")


def block_units(bspec):
    """(in, out, kernel, stride) of each pre-activated conv of a block, in
    build order: two 3x3 for ``basic``; 1x1, 3x3, 1x1 at width out/4 for
    ``bottleneck``, its stride on the 3x3."""
    cin, cout, stride = bspec.in_channels, bspec.out_channels, bspec.stride
    if bspec.kind == "basic":
        return [(cin, cout, 3, stride), (cout, cout, 3, 1)]
    if cout % 4 != 0:
        raise ConfigError(f"bottleneck output width must be divisible by 4, got {cout}")
    w = cout // 4
    return [(cin, w, 1, 1), (w, w, 3, stride), (w, cout, 1, 1)]


# depth = per·u + base; base is the family's count of layers outside its blocks
_DEPTH_BASE = {"preact-resnet": 2, "wrn": 4}


def stage_plan(spec):
    """Expand a NetworkSpec into (stem_width, [BlockSpec...], final_width)."""
    att = spec.attention
    # published fold recipes: n = 20 rows for wrn, else resolve_fold_shape's m = 16
    if (spec.family == "wrn" and att.mode is AttentionMode.FOLDED_3X3
            and att.fold_n is None and att.fold_m is None):
        att = replace(att, fold_n=20)
    kind, base = resolve_block_kind(spec), _DEPTH_BASE[spec.family]
    # three stages of u blocks: a block's conv count sets the depth per u, and
    # its output width over its inner width (4 for bottlenecks) the stage widths
    units = block_units(BlockSpec(kind, 4, 4, 1, att))
    per, expand = 3 * len(units), units[-1][1] // units[-1][0]
    if (spec.depth - base) % per != 0 or spec.depth < base + per:
        raise ConfigError(
            f"{spec.family} {kind} depth must be {per}u+{base} with u >= 1; got {spec.depth}")
    u = (spec.depth - base) // per
    widths = tuple(w * spec.widen_factor * expand for w in (16, 32, 64))
    stem = cin = 16
    blocks = []
    for stage, width in enumerate(widths):
        for b in range(u):
            stride = 2 if (stage > 0 and b == 0) else 1
            blocks.append(BlockSpec(kind, cin, width, stride, att))
            cin = width
    return stem, blocks, widths[-1]


class ResidualBlock(Module):
    """Pre-activation block: shared BN+ReLU feeds both the branch and the
    projection shortcut (when one is needed). ``bn{i}``/``conv{i}`` follow
    ``block_units``."""

    def __init__(self, bspec, rng=None, dtype=np.float32):
        super().__init__()
        self.spec = bspec
        self.units = []
        for i, (a, c, k, stride) in enumerate(block_units(bspec), 1):
            bn = self.child(f"bn{i}", BatchNorm2d(a, dtype=dtype))
            conv = self.child(f"conv{i}", Conv2d(a, c, k, stride=stride, padding=k // 2,
                                                 rng=rng, dtype=dtype))
            # attributes too: perfbench's batch_norms() finds batch norms only so
            setattr(self, f"bn{i}", bn)
            setattr(self, f"conv{i}", conv)
            self.units.append((bn, conv))
        self.proj = None
        if bspec.shortcut == "projection":
            self.proj = self.child("proj", Conv2d(bspec.in_channels, bspec.out_channels, 1,
                                                  stride=bspec.stride, rng=rng, dtype=dtype))
        self.attn = make_attention_unit(bspec.out_channels, bspec.attention, rng=rng, dtype=dtype)
        if self.attn is not None:
            self.child("attn", self.attn)

    def branch_and_shortcut(self, x):
        """Returns (residual branch output, shortcut tensor). The shortcut
        is the raw input for identity blocks, else the projected first
        pre-activation — the tensor whose squeeze competes with the branch.

        Once its conv (and, for the first, the projection) has read it, each
        pre-activation is released: a graph then holds none of them, and
        backward rebuilds each for its readers (``Tensor.release``). Without
        a graph nothing is released; rebinding ``h`` and dropping ``pre``
        free each activation before the next is built.

        A projection block's input has no reader after bn1, but its caller
        still holds it. So when neither it nor bn1's output is in a graph,
        it is dropped there (``Tensor.drop``); in a graph it is bn1's input,
        and a leaf that requires grad is kept for whoever made it."""
        h, x_id = x, x
        for i, (bn, conv) in enumerate(self.units):
            h = bn(h, relu=True, pad=conv.padding)
            if i == 0 and self.proj is not None:
                if not (h.requires_grad or x.requires_grad):
                    x.drop()
                x_id = self.proj(h)
            pre, h = h, conv(h)
            pre.release()
            del pre
        return h, x_id

    def forward(self, x):
        """The block output. A projection output is dropped after the tail:
        backward reads only its shape, in the pool, and passes the tail's
        gradient to it unchanged (``Tensor.drop``)."""
        u_r, x_id = self.branch_and_shortcut(x)
        out = recalibrate_and_add(u_r, x_id, self.attn)
        if self.proj is not None:
            x_id.drop()
        return out


class Network(Module):
    def __init__(self, spec, rng=None, dtype=np.float32):
        super().__init__()
        self.spec = spec
        rng = rng or np.random.default_rng()
        stem, plan, final_width = stage_plan(spec)
        self.stem = self.child("stem", Conv2d(3, stem, 3, padding=1, rng=rng, dtype=dtype))
        self.blocks = []
        for i, bspec in enumerate(plan):
            blk = ResidualBlock(bspec, rng=rng, dtype=dtype)
            self.blocks.append(self.child(f"block{i}", blk))
        self.bn_final = self.child("bn_final", BatchNorm2d(final_width, dtype=dtype))
        self.fc = self.child(
            "fc", Linear(final_width, spec.num_classes, bias=True, rng=rng, dtype=dtype))

    def forward(self, x):
        if x.ndim != 4 or x.shape[3] != 3:
            raise ShapeError("forward", f"expected (N, H, W, 3) input, got {tuple(x.shape)}")
        h = self.stem(x)
        for blk in self.blocks:
            h = blk(h)
        h = self.bn_final(h, relu=True)
        return self.fc(T.global_avg_pool(h))

    def attention_units(self):
        return [blk.attn for blk in self.blocks]


def build(spec, rng=None, dtype=np.float32):
    return Network(spec, rng=rng, dtype=dtype)


def param_count(spec):
    """Exact trainable-scalar count from the stage plan alone (BN affine
    included, running statistics excluded). Fold shape never changes the
    count — the encoder input stays 2C. Cross-checked in tests against
    built models."""
    stem, plan, final_width = stage_plan(spec)
    total = 9 * 3 * stem
    for b in plan:
        total += sum(2 * a + k * k * a * c for a, c, k, _ in block_units(b))   # bn, conv
        if b.shortcut == "projection":
            total += b.in_channels * b.out_channels
        total += attention_param_count(b.out_channels, b.attention)
    total += 2 * final_width + final_width * spec.num_classes + spec.num_classes
    return total


# Reported sizes (millions of parameters) for the published configurations,
# used by the CLI to annotate param-count output. Keyed by
# (family, depth, widen_factor, mode).
REFERENCE_MPARAMS = {
    ("preact-resnet", 164, 1, "none"): 1.70,
    ("preact-resnet", 164, 1, "se"): 1.95,
    ("preact-resnet", 164, 1, "doublefc"): 2.12,
    ("preact-resnet", 164, 1, "pairview2x1"): 1.95,
    ("preact-resnet", 164, 1, "pairview1x1"): 2.04,
    ("preact-resnet", 164, 1, "folded3x3"): 1.99,
    ("wrn", 28, 10, "none"): 36.5,
    ("wrn", 28, 10, "se"): 36.8,
    ("wrn", 28, 10, "doublefc"): 37.04,
    ("wrn", 28, 10, "pairview1x1"): 36.92,
    ("wrn", 28, 10, "folded3x3"): 36.90,
    ("wrn", 16, 8, "none"): 11.1,
    ("preact-resnet", 110, 1, "pairview1x1"): 1.76,
}


def reference_mparams(spec):
    key = (spec.family, spec.depth, spec.widen_factor, spec.attention.mode.value)
    return REFERENCE_MPARAMS.get(key)


# ---------------------------------------------------------------------------
# NetworkSpec serialization
# ---------------------------------------------------------------------------

def spec_to_dict(spec):
    return asdict(spec)


def spec_from_dict(d):
    return from_dict(NetworkSpec, d, "network")
