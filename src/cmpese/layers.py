"""Parameter-owning building blocks on top of the tensor core.

A Module keeps explicit registries of parameters, buffers, and children;
no metaclass or attribute magic. Every call enters through ``__call__``, and
every walk of the tree is ``modules()``. Weight decay eligibility is recorded
per parameter at registration time (convolution and fully-connected weights
decay; batch-norm affine parameters and biases do not).
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .errors import ShapeError
from .tensor import Tensor


def he_normal(rng, shape, fan, dtype):
    """Normal draws of ``shape`` with std sqrt(2 / fan) (He et al.), cast to
    ``dtype``; a fresh generator stands in for a None ``rng``."""
    rng = rng or np.random.default_rng()
    return (rng.standard_normal(shape) * np.sqrt(2.0 / fan)).astype(dtype)


class Module:
    def __init__(self):
        self._params = {}   # name -> (Tensor, decay: bool)
        self._buffers = {}  # name -> Tensor
        self._children = {}
        self.training = True

    def param(self, name, data, decay):
        t = Tensor(np.asarray(data), requires_grad=True, name=name)
        self._params[name] = (t, decay)
        return t

    def buffer(self, name, data):
        t = Tensor(np.asarray(data), requires_grad=False, name=name)
        self._buffers[name] = t
        return t

    def child(self, name, module):
        self._children[name] = module
        return module

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def modules(self):
        """Yield (dotted prefix, module) for this module and each descendant,
        parents first and children in registration order. The root's prefix
        is "" and a descendant's ends in a dot, e.g. "block0.conv1."."""
        yield "", self
        for name, child in self._children.items():
            for prefix, m in child.modules():
                yield f"{name}.{prefix}", m

    def named_parameters(self):
        for prefix, m in self.modules():
            for name, (t, _) in m._params.items():
                yield prefix + name, t

    def parameters(self):
        return [t for _, t in self.named_parameters()]

    def decay_flags(self):
        return {prefix + name: d
                for prefix, m in self.modules() for name, (_, d) in m._params.items()}

    def named_buffers(self):
        for prefix, m in self.modules():
            for name, t in m._buffers.items():
                yield prefix + name, t

    def train(self, mode=True):
        for _, m in self.modules():
            m.training = mode
        return self

    def eval(self):
        return self.train(False)

    def zero_grad(self):
        for p in self.parameters():
            p.zero_grad()

    def state_dict(self):
        state = {name: t.data for name, t in self.named_parameters()}
        state.update((name, t.data) for name, t in self.named_buffers())
        return state

    def load_state_dict(self, state):
        own = dict(self.named_parameters())
        own.update(self.named_buffers())
        missing = sorted(set(own) - set(state))
        extra = sorted(set(state) - set(own))
        if missing or extra:
            raise ShapeError(
                "load_state_dict",
                f"state mismatch; missing={missing[:4]} extra={extra[:4]}",
            )
        for name, t in own.items():
            arr = np.asarray(state[name])
            if arr.shape != t.data.shape:
                raise ShapeError(
                    "load_state_dict",
                    f"{name}: stored shape {arr.shape} != model shape {t.data.shape}",
                )
            t.data[...] = arr.astype(t.data.dtype)

    def param_count(self):
        return sum(p.size for p in self.parameters())


class Conv2d(Module):
    """Bias-free 2-D convolution; kernels are (kh, kw, cin, cout).

    He initialization scaled by fan-out (kh*kw*cout), the usual choice for
    residual stacks feeding batch norm.
    """

    def __init__(self, cin, cout, kernel_size, stride=1, padding=0, rng=None,
                 dtype=np.float32):
        super().__init__()
        kh = kw = kernel_size
        self.stride = stride
        self.padding = padding
        self.weight = self.param(
            "weight", he_normal(rng, (kh, kw, cin, cout), kh * kw * cout, dtype), decay=True)

    def forward(self, x, **outside_graph):
        """``outside_graph``: conv2d's ``source`` and ``out``, which read the
        padded input block by block and write the output into a given
        array; see ``tensor.conv2d``."""
        return T.conv2d(x, self.weight, stride=self.stride, padding=self.padding,
                        **outside_graph)


class Linear(Module):
    """y = x @ W.T + b with W of shape (out, in)."""

    def __init__(self, in_features, out_features, bias=True, rng=None,
                 dtype=np.float32):
        super().__init__()
        self.weight = self.param(
            "weight", he_normal(rng, (out_features, in_features), in_features, dtype),
            decay=True)
        self.bias = None
        if bias:
            self.bias = self.param("bias", np.zeros(out_features, dtype=dtype), decay=False)

    def forward(self, x):
        return T.linear(x, self.weight, self.bias)


class BatchNorm2d(Module):
    """Batch normalization over all axes but channels (works on 2-D, 3-D or
    4-D inputs with channels last). Biased batch variance; running buffers
    blended with momentum 0.9."""

    def __init__(self, channels, momentum=0.9, eps=1e-5, dtype=np.float32):
        super().__init__()
        self.momentum = momentum
        self.eps = eps
        self.gamma = self.param("gamma", np.ones(channels, dtype=dtype), decay=False)
        self.beta = self.param("beta", np.zeros(channels, dtype=dtype), decay=False)
        self.running_mean = self.buffer("running_mean", np.zeros(channels, dtype=dtype))
        self.running_var = self.buffer("running_var", np.ones(channels, dtype=dtype))

    def forward(self, x, relu=False, pad=0):
        """``relu``/``pad``: fuse the following ReLU, and pad for the next
        conv; see ``tensor.batch_norm``."""
        return T.batch_norm(
            x, self.gamma, self.beta, self.running_mean, self.running_var,
            training=self.training, momentum=self.momentum, eps=self.eps,
            relu=relu, pad=pad,
        )

    def relu_source(self, x):
        """A conv's ``source`` for ``self(x, relu=True, pad=p)`` in eval mode
        outside a graph: see ``tensor.eval_bn_relu_source``."""
        return T.eval_bn_relu_source(x, self.gamma, self.beta, self.running_mean,
                                     self.running_var, eps=self.eps)
