"""Finite-difference verification of reverse-mode gradients.

Central differences in float64 against a scalar-valued function of named
parameter tensors. Used both by the test suite and the `gradcheck` CLI
subcommand, which checks one residual block per mode with
``block_gradient_check``.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .attention import AttentionConfig
from .network import BlockSpec, ResidualBlock
from .tensor import Tensor, no_grad


class GradcheckResult:
    def __init__(self, max_rel_err, worst_name, per_tensor):
        self.max_rel_err = max_rel_err
        self.worst_name = worst_name
        self.per_tensor = per_tensor

    def __repr__(self):
        return f"GradcheckResult(max_rel_err={self.max_rel_err:.3e}, worst={self.worst_name!r})"


def gradcheck(fn, params, h=1e-5, rtol=1e-4, atol=1e-5, raise_on_fail=True):
    """Compare analytic gradients of ``fn(params) -> scalar Tensor`` to
    central finite differences.

    ``params`` maps names to float64 leaf Tensors with requires_grad set.
    Relative error per element is |a - n| / max(|a|, |n|, atol); the check
    passes when the max over all elements is below ``rtol``. The atol floor
    sits above the finite-difference noise (~eps * |f| / h), so near-zero
    gradients are compared absolutely rather than drowned in roundoff.
    """
    for name, p in params.items():
        if p.data.dtype != np.float64:
            raise ValueError(f"gradcheck requires float64 params, {name} is {p.data.dtype}")
        p.zero_grad()

    out = fn(params)
    if out.data.size != 1:
        raise ValueError("gradcheck target must be scalar")
    out.backward()

    per_tensor = {}
    worst = 0.0
    worst_name = None
    for name, p in params.items():
        analytic = np.zeros_like(p.data) if p.grad is None else p.grad
        numeric = np.zeros_like(p.data)
        flat = p.data.reshape(-1)
        nflat = numeric.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            with no_grad():
                f_plus = float(fn(params).data)
            flat[i] = orig - h
            with no_grad():
                f_minus = float(fn(params).data)
            flat[i] = orig
            nflat[i] = (f_plus - f_minus) / (2.0 * h)
        denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), atol)
        rel = np.abs(analytic - numeric) / denom
        err = float(rel.max()) if rel.size else 0.0
        per_tensor[name] = err
        if err > worst:
            worst = err
            worst_name = name
    result = GradcheckResult(worst, worst_name, per_tensor)
    if raise_on_fail and worst > rtol:
        raise AssertionError(
            f"gradient check failed on {worst_name!r}: max relative error "
            f"{worst:.3e} exceeds {rtol:.1e}"
        )
    return result


def leaf(rng, shape, scale=1.0, name=None):
    """Convenience: a float64 leaf with requires_grad for gradcheck runs."""
    return Tensor(rng.standard_normal(shape) * scale, requires_grad=True, name=name)


def block_gradient_check(mode, channels=8, t=4, spatial=4, batch=2, seed=0,
                         rtol=1e-4, kind="basic", raise_on_fail=True):
    """Finite-difference check through one full residual block in float64.

    The scalar target is a fixed random weighting of the block output, so
    every output element contributes to every gradient.
    """
    rng = np.random.default_rng(seed)
    bspec = BlockSpec(kind, channels, channels, 1, AttentionConfig(mode=mode, t=t))
    blk = ResidualBlock(bspec, rng=rng, dtype=np.float64)
    blk.train()
    x = Tensor(rng.standard_normal((batch, spatial, spatial, channels)),
               requires_grad=True, name="input")
    probe = rng.standard_normal((batch, spatial, spatial, channels))

    params = {"input": x}
    params.update(dict(blk.named_parameters()))

    def fn(_):
        out = blk.forward(x)
        return T.sum_over(T.mul(out, Tensor(probe)), tuple(range(out.ndim)))

    return gradcheck(fn, params, rtol=rtol, raise_on_fail=raise_on_fail)
