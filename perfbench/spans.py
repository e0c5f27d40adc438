"""Span tracing for the benchmark's traced run.

``install`` wraps the public functions and methods of the cmpese modules
from outside the program: nothing under ``src/`` changes, and the returned
undo list puts every original back. Each wrapped call records one span
(id, parent, name, start, end, self time, run id) in memory; ``Tracer.dump``
writes the spans out and ``layer_metrics`` folds them into the per-layer
metrics named in ``BENCHMARK.json``.

Span names:

    tensor.<op>            forward call of a tensor op
    tensor.<op>.bwd        the ``_backward`` closure of the tensor it returned
    ...@<mode>             suffix on op spans made inside an excitation unit
    tensor.backward        Tensor.backward (graph walk and closure dispatch)
    layers.<Class>         Conv2d / Linear / BatchNorm2d calls
    network.block          ResidualBlock calls
    network.forward        Network.forward
    attention.<mode>.excite, attention.recalibrate
    train.step, eval.batch one training step / eval batch, from the moment the
                           loop receives its batch until it asks for the next
    data.batch_wait, data.eval_batch_wait
                           producing the batch that a step / eval batch uses
    data.augment, data.mixup, train.optimizer, train.evaluate,
    checkpoint.save, checkpoint.load, network.build, diagnostics.capture
"""

from __future__ import annotations

import importlib
import json
import os
import time
from collections import defaultdict

from cmpese import attention, checkpoint, diagnostics, layers, network
from cmpese import tensor as T

# the cmpese package re-exports the train() function under the module's name
train_mod = importlib.import_module("cmpese.train")
MODES = attention.MODE_NAMES

# primitive ops: each builds its result through tensor._result, so each call
# is one graph node; composites (global_avg_pool, channel_scale) are made of
# these and need no span of their own
OPS = ("add", "mul", "scale", "relu", "sigmoid", "reshape", "transpose",
       "stack_rows", "mean_over", "sum_over", "linear", "dual_linear",
       "conv2d", "batch_norm", "cross_entropy")

_ID, _PARENT, _NAME, _START, _CHILD, _OPEN = range(6)


class Tracer:
    """In-memory span recorder for one thread of calls.

    A span's self time is its duration minus the durations of the spans
    opened and closed inside it.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.run_id = ""
        self.spans = []          # (id, parent, name, start, end, self, run_id)
        self.work = {}           # span id -> computed FLOPs or bytes
        self.attn_tag = ""       # "@<mode>" while an excite() call is open
        self._stack = []
        self._next_id = 0

    def start(self, name):
        self._next_id += 1
        parent = self._stack[-1][_ID] if self._stack else None
        frame = [self._next_id, parent, name, 0.0, 0.0, True]
        self._stack.append(frame)
        frame[_START] = self.clock()
        return frame

    def stop(self, frame):
        """Close ``frame``, and any span still open inside it."""
        end = self.clock()
        if not frame[_OPEN]:
            return
        stack = self._stack
        while stack:
            top = stack.pop()
            top[_OPEN] = False
            duration = end - top[_START]
            self.spans.append((top[_ID], top[_PARENT], top[_NAME], top[_START], end,
                               duration - top[_CHILD], self.run_id))
            if stack:
                stack[-1][_CHILD] += duration
            if top is frame:
                return

    def dump(self, path):
        with open(path, "w") as f:
            for sid, parent, name, start, end, self_s, run_id in self.spans:
                f.write(json.dumps({
                    "id": sid, "parent": parent, "name": name, "start": start,
                    "end": end, "self": self_s, "run": run_id,
                    "work": self.work.get(sid, 0.0)}) + "\n")


# ---------------------------------------------------------------------------
# wrappers
# ---------------------------------------------------------------------------

def _call(tr, name, fn):
    def traced(*args, **kwargs):
        frame = tr.start(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tr.stop(frame)
    return traced


def _file_call(tr, name, fn):
    """Span for a call whose first argument is a checkpoint path; its work is
    the bytes of the tensor file plus its JSON sidecar."""
    def traced(path, *args, **kwargs):
        frame = tr.start(name)
        try:
            out = fn(path, *args, **kwargs)
        finally:
            tr.stop(frame)
        tr.work[frame[_ID]] = float(os.path.getsize(path)
                                    + os.path.getsize(str(path) + ".json"))
        return out
    return traced


def _backward(tr, name, closure, flop=0.0):
    def traced(g):
        frame = tr.start(name)
        try:
            closure(g)
        finally:
            tr.stop(frame)
        if flop:
            tr.work[frame[_ID]] = flop
    return traced


def _op(tr, op, fn):
    base = "tensor." + op

    def traced(*args, **kwargs):
        tag = tr.attn_tag
        frame = tr.start(base + tag)
        try:
            out = fn(*args, **kwargs)
        finally:
            tr.stop(frame)
        if out._backward is not None:
            out._backward = _backward(tr, base + ".bwd" + tag, out._backward)
        return out
    return traced


def _conv(tr, fn):
    """conv2d span whose work is its computed FLOPs: 2*N*Ho*Wo*kh*kw*Cin for
    the forward GEMM, and as much again for each of dW and dX in backward."""
    def traced(x, w, *args, **kwargs):
        tag = tr.attn_tag
        frame = tr.start("tensor.conv2d" + tag)
        try:
            out = fn(x, w, *args, **kwargs)
        finally:
            tr.stop(frame)
        kh, kw, cin, _ = w.shape
        gemm = 2.0 * out.data.size * kh * kw * cin
        tr.work[frame[_ID]] = gemm
        if out._backward is not None:
            grads = int(w.requires_grad) + int(x.requires_grad or bool(x._parents))
            out._backward = _backward(tr, "tensor.conv2d.bwd" + tag, out._backward,
                                      flop=gemm * grads)
        return out
    return traced


def _excite(tr, mode, fn):
    name = f"attention.{mode}.excite"
    tag = "@" + mode

    def traced(self, *args, **kwargs):
        outer = tr.attn_tag
        tr.attn_tag = tag
        frame = tr.start(name)
        try:
            return fn(self, *args, **kwargs)
        finally:
            tr.stop(frame)
            tr.attn_tag = outer
    return traced


def _batches(tr, fn):
    def traced(images, labels, batch_size, rng=None, shuffle=True):
        wait, step = (("data.batch_wait", "train.step") if shuffle
                      else ("data.eval_batch_wait", "eval.batch"))
        it = fn(images, labels, batch_size, rng=rng, shuffle=shuffle)
        while True:
            frame = tr.start(wait)
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                tr.stop(frame)
            frame = tr.start(step)
            try:
                yield item
            finally:
                tr.stop(frame)
    return traced


def patch(owner, attr, value, undo):
    """Set ``owner.attr`` and remember the original on ``undo``."""
    undo.append((owner, attr, getattr(owner, attr)))
    setattr(owner, attr, value)


def restore(undo):
    while undo:
        owner, attr, value = undo.pop()
        setattr(owner, attr, value)


def install(tr):
    """Wrap every traced entry point; returns the undo list for ``restore``."""
    undo = []
    for op in OPS:
        fn = getattr(T, op)
        patch(T, op, _conv(tr, fn) if op == "conv2d" else _op(tr, op, fn), undo)
    patch(T.Tensor, "backward", _call(tr, "tensor.backward", T.Tensor.backward), undo)
    modules = ((layers.Conv2d, "layers.Conv2d"), (layers.Linear, "layers.Linear"),
               (layers.BatchNorm2d, "layers.BatchNorm2d"),
               (network.ResidualBlock, "network.block"), (network.Network, "network.forward"))
    for cls, name in modules:
        # __call__ is bound to the original forward at class creation
        wrapped = _call(tr, name, cls.forward)
        patch(cls, "forward", wrapped, undo)
        patch(cls, "__call__", wrapped, undo)
    for cls in (attention.SqueezeExcite, attention.CompetitiveDoubleFC,
                attention.PairView2x1, attention.PairView1x1,
                attention.FoldedPairView3x3):
        patch(cls, "excite", _excite(tr, cls.mode.value, cls.excite), undo)
    patch(network, "recalibrate_and_add",
          _call(tr, "attention.recalibrate", network.recalibrate_and_add), undo)
    patch(network, "build", _call(tr, "network.build", network.build), undo)
    for attr, name in (("augment_batch", "data.augment"), ("mixup_batch", "data.mixup"),
                       ("sgd_nesterov_step", "train.optimizer"),
                       ("evaluate", "train.evaluate")):
        patch(train_mod, attr, _call(tr, name, getattr(train_mod, attr)), undo)
    patch(train_mod, "iterate_minibatches", _batches(tr, train_mod.iterate_minibatches), undo)
    patch(train_mod, "save_checkpoint",
          _file_call(tr, "checkpoint.save", train_mod.save_checkpoint), undo)
    patch(checkpoint, "load_checkpoint",
          _file_call(tr, "checkpoint.load", checkpoint.load_checkpoint), undo)
    patch(diagnostics, "capture_trace",
          _call(tr, "diagnostics.capture", diagnostics.capture_trace), undo)
    return undo


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

# spans whose metrics are per call rather than per step
PER_CALL = ("checkpoint.save", "checkpoint.load", "network.build", "diagnostics.capture")


def layer_metrics(tr, run_id, step_kind):
    """Fold the spans of one run into per-layer metrics: {name: (value, unit)}.

    A step is a training step when ``step_kind`` is "train" and an eval batch
    when it is "eval". Values in s/step are the time a layer took in the
    whole run divided by the run's steps; the forward and backward phases,
    the loop's own time and the batch wait count only what happened in or
    for a step. Values per call average over every call, set-up included.
    """
    step_name, wait_name = (("train.step", "data.batch_wait") if step_kind == "train"
                            else ("eval.batch", "data.eval_batch_wait"))
    names = {s[0]: s[2] for s in tr.spans}
    total = defaultdict(float)     # name -> summed duration
    own = defaultdict(float)       # name -> summed self time
    count = defaultdict(int)
    stepped = defaultdict(float)   # name -> summed duration of spans right under a step
    per_call = defaultdict(list)   # name -> [(duration, work)]
    conv_flop = 0.0
    for sid, parent, name, start, end, self_s, run in tr.spans:
        if name in PER_CALL:
            per_call[name].append((end - start, tr.work.get(sid, 0.0)))
        if run != run_id:
            continue
        total[name] += end - start
        own[name] += self_s
        count[name] += 1
        if names.get(parent) == step_name:
            stepped[name] += end - start
        if name.startswith("tensor.conv2d"):
            conv_flop += tr.work.get(sid, 0.0)

    ops = defaultdict(float)       # (conv2d | batch_norm | other, fwd | bwd) -> s
    attn = defaultdict(float)      # (mode, fwd | bwd) -> s
    op_calls = conv_calls = 0
    for name, seconds in own.items():
        if not name.startswith("tensor.") or name == "tensor.backward":
            continue
        base, _, mode = name.partition("@")
        op = base[len("tensor."):]
        phase = "bwd" if op.endswith(".bwd") else "fwd"
        op = op.removesuffix(".bwd")
        ops[op if op in ("conv2d", "batch_norm") else "other", phase] += seconds
        if phase == "fwd":
            op_calls += count[name]
            conv_calls += count[name] if op == "conv2d" else 0
        elif mode:
            attn[mode, "bwd"] += total[name]
    for mode in MODES:
        attn[mode, "fwd"] = total[f"attention.{mode}.excite"]

    steps = count[step_name]
    per = 1.0 / steps if steps else 0.0

    def step_s(seconds):
        return (seconds * per, "s/step")

    def mean(name, i, scale=1.0):
        calls = per_call[name]
        return sum(c[i] for c in calls) / len(calls) * scale if calls else 0.0

    conv_s = ops["conv2d", "fwd"] + ops["conv2d", "bwd"]
    wall = total[step_name] + total[wait_name]
    m = {
        "tensor.conv2d.fwd_s": step_s(ops["conv2d", "fwd"]),
        "tensor.conv2d.bwd_s": step_s(ops["conv2d", "bwd"]),
        "tensor.conv2d.calls": (conv_calls * per, "calls/step"),
        "tensor.conv2d.gflop": (conv_flop * 1e-9 * per, "GFLOP/step"),
        "tensor.conv2d.gflop_per_s": (conv_flop * 1e-9 / conv_s if conv_s else 0.0, "GFLOP/s"),
        "tensor.batch_norm.fwd_s": step_s(ops["batch_norm", "fwd"]),
        "tensor.batch_norm.bwd_s": step_s(ops["batch_norm", "bwd"]),
        "tensor.other.fwd_s": step_s(ops["other", "fwd"]),
        "tensor.other.bwd_s": step_s(ops["other", "bwd"]),
        "tensor.backward.self_s": step_s(own["tensor.backward"]),
        "tensor.ops_per_step": (op_calls * per, "ops/step"),
        "layers.dispatch.self_s": step_s(
            sum(s for n, s in own.items() if n.startswith("layers.")) + own["network.block"]),
        "attention.excite.fwd_s": step_s(sum(attn[m, "fwd"] for m in MODES)),
        "attention.excite.bwd_s": step_s(sum(attn[m, "bwd"] for m in MODES)),
        "attention.recalibrate.self_s": step_s(own["attention.recalibrate"]),
    }
    for mode in MODES:
        m[f"attention.{mode}.fwd_s"] = step_s(attn[mode, "fwd"])
        m[f"attention.{mode}.bwd_s"] = step_s(attn[mode, "bwd"])
    m.update({
        "network.forward_s": step_s(stepped["network.forward"]),
        "train.backward_s": step_s(stepped["tensor.backward"]),
        "train.optimizer_s": step_s(total["train.optimizer"]),
        "train.eval_s": step_s(total["train.evaluate"]),
        "train.loop.self_s": step_s(own[step_name]),
        "train.steps": (count["train.step"], "steps"),
        "data.batch_wait_s": step_s(total[wait_name]),
        "data.augment_s": step_s(total["data.augment"]),
        "data.mixup_s": step_s(total["data.mixup"]),
        "checkpoint.save_s": (mean("checkpoint.save", 0), "s/call"),
        "checkpoint.save_mb": (mean("checkpoint.save", 1, 2.0 ** -20), "MiB/call"),
        "checkpoint.load_s": (mean("checkpoint.load", 0), "s/call"),
        "checkpoint.load_mb": (mean("checkpoint.load", 1, 2.0 ** -20), "MiB/call"),
        "network.build_s": (mean("network.build", 0), "s/call"),
        "diagnostics.capture_s": (mean("diagnostics.capture", 0), "s/call"),
        # share of step wall time that a span other than the step's own
        # loop code accounts for
        "trace.coverage_pct": (100.0 * (1.0 - own[step_name] / wall) if wall else 0.0, "%"),
    })
    return m

