"""Attention diagnostics: excitation traces, per-block statistics, and
inner-image exports.

Capture runs one forward pass of a frozen model in eval mode and reads the
excitation each unit computed in it. For the pair-view and folded modes
each trace also carries the inner map the unit scanned (before
re-weighting) and that map after re-weighting (residual entries scaled by
the excitation, identity entries untouched).
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .attention import reweight_map
from .errors import ConfigError
from .tensor import Tensor, no_grad


@dataclass
class BlockTrace:
    index: int
    channels: int
    mode: str
    s: np.ndarray                  # (samples, channels), each value in (0,1)
    layout: str | None = None      # "stacked" | "folded" | None
    before: np.ndarray | None = None   # (samples, rows, cols)
    after: np.ndarray | None = None


@dataclass
class AttentionTrace:
    blocks: list
    sample_count: int


def capture_trace(model, probe):
    """Feed a probe batch through the model and read every unit's excitation.

    probe: (N, H, W, 3) array. The model must contain attention units
    (mode 'none' has nothing to trace).
    """
    units = model.attention_units()
    if all(u is None for u in units):
        raise ConfigError(
            "model was built with attention mode 'none'; there are no "
            "excitation vectors to trace")
    model.eval()
    with no_grad():
        model.forward(Tensor(np.asarray(probe, dtype=np.float32)))
    blocks = []
    for i, u in enumerate(units):
        if u is None:
            continue
        s, before, layout = u.last_s, u.last_map, u.spec.layout
        after = None if before is None else reweight_map(before, s, layout)
        blocks.append(BlockTrace(i, s.shape[1], u.mode.value, s, layout, before, after))
    return AttentionTrace(blocks=blocks, sample_count=probe.shape[0])


def attention_stats(trace):
    """Per block: mean excitation over channels and samples, and the
    population variance over channels within each sample averaged over
    samples."""
    if not trace.blocks:
        raise ConfigError("empty trace")
    rows = []
    for b in trace.blocks:
        per_sample_var = b.s.var(axis=1)     # population variance over channels
        rows.append({
            "block": b.index,
            "mean": float(b.s.mean()),
            "variance": float(per_sample_var.mean()),
        })
    return rows


def stats_to_csv(rows, path):
    with open(path, "w") as f:
        f.write("block,mean,variance\n")
        for r in rows:
            f.write(f"{r['block']},{r['mean']:.9g},{r['variance']:.9g}\n")
    return path


def export_inner_images(trace, out_dir):
    """Write inner_images.csv: one row per (block, sample, phase) holding the
    row-major map values. Only inner-imaging modes carry maps."""
    blocks = [b for b in trace.blocks if b.before is not None]
    if not blocks:
        raise ConfigError(
            "trace has no inner-imaged maps; only the pair-view and folded "
            "modes produce them")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "inner_images.csv")
    with open(path, "w") as f:
        f.write("block,sample,phase,rows,cols,values\n")
        for b in blocks:
            rows, cols = b.before.shape[1], b.before.shape[2]
            for sample in range(b.before.shape[0]):
                for phase, mat in (("before", b.before), ("after", b.after)):
                    flat = ",".join(f"{v:.9g}" for v in mat[sample].ravel())
                    f.write(f"{b.index},{sample},{phase},{rows},{cols},{flat}\n")
    return path


def read_inner_images(path):
    """Inverse of export_inner_images, for round-trip checks: returns
    {(block, sample, phase): matrix}."""
    out = {}
    with open(path) as f:
        header = f.readline()
        if not header.startswith("block,sample,phase,rows,cols"):
            raise ConfigError(f"{path}: unexpected header {header!r}")
        for line in f:
            parts = line.rstrip("\n").split(",")
            block, sample, phase = int(parts[0]), int(parts[1]), parts[2]
            rows, cols = int(parts[3]), int(parts[4])
            vals = np.array([float(v) for v in parts[5:]]).reshape(rows, cols)
            out[(block, sample, phase)] = vals
    return out


_HEAT_CHARS = " .:-=+*#%@"


def ascii_heatmap(mat):
    """Rough terminal rendering of a small matrix, one char per cell."""
    mat = np.asarray(mat, dtype=np.float64)
    lo, hi = float(mat.min()), float(mat.max())
    span = hi - lo if hi > lo else 1.0
    idx = ((mat - lo) / span * (len(_HEAT_CHARS) - 1)).round().astype(int)
    return "\n".join("".join(_HEAT_CHARS[i] for i in row) for row in idx)
