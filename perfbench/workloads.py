"""The benchmark's workloads and correctness checks.

Each workload makes its inputs from the seed outside the timed region and
hands cmpese only a ``Dataset`` (and, for eval, a checkpoint file). The timed
work is a sequence of whole calls into the public API, ``chunk`` at a time,
so a run always ends on a call boundary.
"""

from __future__ import annotations

import math
import os
import time

import numpy as np

from cmpese import checkpoint, diagnostics, network
from cmpese.attention import MODE_NAMES, AttentionConfig
from cmpese.data import Dataset, MixupConfig, synth_dataset
from cmpese.layers import BatchNorm2d, Module
from cmpese.network import NetworkSpec
from cmpese.tensor import Tensor, no_grad

from spans import patch, restore, train_mod

# float32 logits agree with a float64 build of the same weights to about
# 2e-6 at logit scale 1; the bound leaves room for reassociation in faster
# kernels but not for a wrong one
LOGIT_TOL = 1e-4


class Recorder:
    """Counts and times taken at public-call boundaries during a run.

    ``install`` wraps ``cmpese.train.iterate_minibatches`` so that every
    batch counts as an operation and, while ``timing`` is on, each step's
    duration is kept: from the loop asking for the batch to the loop asking
    for the next one. Checkpoint writes are counted the same way.
    """

    def __init__(self, step_kind):
        self.step_kind = step_kind    # "train" or "eval": which batches are steps
        self.timing = False
        self.step_s = []
        self.images = 0               # images through the timed steps
        self.wall = 0.0               # wall time of the timed calls
        self.attempted = 0
        self.failed = 0
        self.loss_final = None
        self._undo = []

    def reset_timing(self):
        self.step_s, self.images, self.wall = [], 0, 0.0

    def install(self):
        batches = train_mod.iterate_minibatches
        save = train_mod.save_checkpoint

        def timed_batches(images, labels, batch_size, rng=None, shuffle=True):
            timed = self.timing and shuffle == (self.step_kind == "train")
            start = time.perf_counter()
            for xb, yb in batches(images, labels, batch_size, rng=rng, shuffle=shuffle):
                self.attempted += 1
                yield xb, yb
                if timed:
                    now = time.perf_counter()
                    self.step_s.append(now - start)
                    self.images += len(yb)
                    start = now

        def counted_save(*args, **kwargs):
            self.attempted += 1
            return save(*args, **kwargs)

        patch(train_mod, "iterate_minibatches", timed_batches, self._undo)
        patch(train_mod, "save_checkpoint", counted_save, self._undo)

    def restore(self):
        restore(self._undo)

    def call(self, fn, *args, **kwargs):
        """Run one public call, adding its wall time when timing."""
        start = time.perf_counter()
        out = fn(*args, **kwargs)
        if self.timing:
            self.wall += time.perf_counter() - start
        return out

    def check(self, ok):
        self.attempted += 1
        self.failed += 0 if ok else 1


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------

def synth(classes, n, size, seed, split="train"):
    """``n`` generated images, classes interleaved (synth_dataset shuffles)."""
    ds = synth_dataset(class_count=classes, n_per_class=math.ceil(n / classes),
                       image_size=size, seed=seed, split=split)
    return Dataset(ds.images[:n], ds.labels[:n], classes, split)


def wrn_spec(depth, widen, classes, mode, t):
    return NetworkSpec("wrn", depth, widen, classes, attention=AttentionConfig(mode, t))


def float64_twin(model):
    """A float64 build of the same spec holding the model's weights."""
    twin = network.build(model.spec, rng=np.random.default_rng(0), dtype=np.float64)
    twin.load_state_dict(model.state_dict())
    return twin


def logits(model, images, dtype=np.float32):
    model.eval()
    with no_grad():
        return model.forward(Tensor(np.asarray(images, dtype=dtype))).data


def logit_gap(model, twin, probe):
    """Largest |float32 - float64| logit difference, relative to the float64
    logit scale (floored at 1)."""
    ref = logits(twin, probe, np.float64)
    got = logits(model, probe).astype(np.float64)
    return float(np.max(np.abs(got - ref)) / max(1.0, float(np.max(np.abs(ref)))))


def logits_agree(model, twin, probe):
    gap = logit_gap(model, twin, probe)
    return bool(np.isfinite(gap) and gap <= LOGIT_TOL)


def cross_entropy(z, labels):
    z = z.astype(np.float64)
    z = z - z.max(axis=1, keepdims=True)
    log_probs = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    return float(-log_probs[np.arange(len(labels)), labels].mean())


def batch_norms(module):
    for value in vars(module).values():
        if isinstance(value, BatchNorm2d):
            yield value
        elif isinstance(value, Module):
            yield from batch_norms(value)
        elif isinstance(value, list):
            for item in value:
                if isinstance(item, Module):
                    yield from batch_norms(item)


def finite_losses(history):
    return all(np.isfinite(row["train_loss"]) for row in history)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class TrainWRN:
    """``train`` on one WRN with the CIFAR recipe: pad-crop-flip augmentation
    and mixup, Nesterov SGD at lr 0.1. One chunk is one ``train`` call of one
    epoch over ``n_train`` images, evaluating ``n_eval`` held-out images."""

    step_kind = "train"

    def __init__(self, depth=16, widen=2, image_size=32, classes=10, batch=64,
                 n_train=256, n_eval=64, n_warm=64, mode="folded3x3", t=16):
        self.spec_args = (depth, widen, classes, mode, t)
        self.image_size, self.classes, self.batch = image_size, classes, batch
        self.n_train, self.n_eval, self.n_warm = n_train, n_eval, n_warm

    def prepare(self, seed, workdir):
        pass

    def setup(self, seed, workdir, rec):
        size = self.image_size
        preset = train_mod.PRESETS["wrn-cifar"]
        return {
            "train": synth(self.classes, self.n_train, size, seed),
            "eval": synth(self.classes, self.n_eval, size, seed + 1, split="test"),
            "model": network.build(wrn_spec(*self.spec_args), rng=np.random.default_rng(seed)),
            "cfg": train_mod.TrainConfig(
                epochs=1, batch_size=self.batch, base_lr=preset["base_lr"],
                augment=preset["augment"], seed=seed,
                mixup=MixupConfig(enabled=True, alpha=1.0, tail_epochs=0)),
        }

    def _train(self, state, rec, data):
        history = rec.call(train_mod.train, state["model"], data, state["cfg"],
                           eval_data=state["eval"])
        rec.check(finite_losses(history))
        return history

    def warmup(self, state, rec):
        ds = state["train"]
        self._train(state, rec, Dataset(ds.images[:self.n_warm], ds.labels[:self.n_warm],
                                        ds.class_count))

    def chunk(self, state, rec):
        history = self._train(state, rec, state["train"])
        if rec.loss_final is None:
            rec.loss_final = history[-1]["train_loss"]

    mem_chunk = warmup

    def check(self, state, rec):
        model = state["model"]
        rec.check(logits_agree(model, float64_twin(model), state["eval"].images[:8]))


class TrainDeskAllModes:
    """The desk-scale experiment shape (scripts/synth_experiment.json) in all
    six modes: one chunk trains every mode in a fixed order, two epochs each
    with a checkpoint per epoch, then reloads each checkpoint and captures the
    excitation diagnostics on a probe batch."""

    step_kind = "train"

    def __init__(self, depth=10, widen=1, image_size=16, classes=4, batch=32,
                 n_train=192, epochs=2, n_probe=8, n_warm=32, t=4):
        self.depth, self.widen, self.t = depth, widen, t
        self.image_size, self.classes, self.batch = image_size, classes, batch
        self.n_train, self.epochs, self.n_probe, self.n_warm = n_train, epochs, n_probe, n_warm

    def prepare(self, seed, workdir):
        pass

    def setup(self, seed, workdir, rec):
        return {
            "train": synth(self.classes, self.n_train, self.image_size, seed),
            "models": {mode: network.build(
                wrn_spec(self.depth, self.widen, self.classes, mode, self.t),
                rng=np.random.default_rng(seed)) for mode in MODE_NAMES},
            "cfg": train_mod.TrainConfig(
                epochs=self.epochs, batch_size=self.batch, base_lr=0.05,
                schedule=((20, 10),), checkpoint_every=1, seed=seed),
            "workdir": workdir,
        }

    def warmup(self, state, rec):
        ds = state["train"]
        warm = Dataset(ds.images[:self.n_warm], ds.labels[:self.n_warm], ds.class_count)
        cfg = train_mod.TrainConfig(epochs=1, batch_size=self.batch, base_lr=0.05,
                                    seed=state["cfg"].seed)
        for model in state["models"].values():
            rec.check(finite_losses(rec.call(train_mod.train, model, warm, cfg)))

    mem_chunk = warmup

    def chunk(self, state, rec):
        ds, cfg = state["train"], state["cfg"]
        probe = ds.images[:self.n_probe]
        losses = []
        for mode, model in state["models"].items():
            out_dir = os.path.join(state["workdir"], mode)
            history = rec.call(train_mod.train, model, ds, cfg, out_dir=out_dir)
            rec.check(finite_losses(history))
            losses.append(history[-1]["train_loss"])
            saved, velocity, meta = checkpoint.load_checkpoint(
                os.path.join(out_dir, "last.ckpt"))
            live = model.state_dict()
            rec.check(meta["epoch"] == cfg.total_epochs() - 1 and len(velocity) > 0
                      and saved.keys() == live.keys()
                      and all(np.array_equal(saved[k], live[k]) for k in live))
            if mode != "none":
                stats = diagnostics.attention_stats(diagnostics.capture_trace(model, probe))
                rec.check(len(stats) == len(model.blocks) and all(
                    0.0 < r["mean"] < 1.0 and np.isfinite(r["variance"]) for r in stats))
        if rec.loss_final is None:
            rec.loss_final = float(np.mean(losses))

    def check(self, state, rec):
        probe = state["train"].images[:self.n_probe]
        for model in state["models"].values():
            rec.check(logits_agree(model, float64_twin(model), probe))


class EvalWRN:
    """``evaluate`` of a WRN checkpoint at batch 256, loaded as ``cmpese eval``
    loads it. The checkpoint is made once per run before set-up, from a model
    whose batch-norm running statistics come from one batch of the data."""

    step_kind = "eval"

    def __init__(self, depth=16, widen=2, image_size=32, classes=10, batch=256,
                 n_eval=512, n_probe=64, mode="folded3x3", t=16):
        self.spec_args = (depth, widen, classes, mode, t)
        self.image_size, self.classes, self.batch = image_size, classes, batch
        self.n_eval, self.n_probe = n_eval, n_probe

    def _data(self, seed):
        return synth(self.classes, self.n_eval, self.image_size, seed, split="test")

    def prepare(self, seed, workdir):
        spec = wrn_spec(*self.spec_args)
        model = network.build(spec, rng=np.random.default_rng(seed))
        bns = list(batch_norms(model))
        for bn in bns:
            bn.momentum = 0.0          # running statistics := this batch's
        model.train()
        with no_grad():
            model.forward(Tensor(self._data(seed + 1).images[:64]))
        for bn in bns:
            bn.momentum = 0.9
        checkpoint.save_checkpoint(os.path.join(workdir, "eval.ckpt"), model.state_dict(),
                                   network.spec_to_dict(spec))

    def setup(self, seed, workdir, rec):
        data = self._data(seed)
        state, _, meta = checkpoint.load_checkpoint(os.path.join(workdir, "eval.ckpt"))
        rec.attempted += 1
        model = network.build(network.spec_from_dict(meta["network"]),
                              rng=np.random.default_rng(0))
        model.load_state_dict(state)
        return {"data": data, "model": model, "errors": []}

    def warmup(self, state, rec):
        d = state["data"]
        rec.call(train_mod.evaluate, state["model"],
                 Dataset(d.images[:self.batch], d.labels[:self.batch], d.class_count, d.split),
                 batch_size=self.batch)

    mem_chunk = warmup

    def chunk(self, state, rec):
        state["errors"].append(rec.call(train_mod.evaluate, state["model"], state["data"],
                                        batch_size=self.batch))

    def check(self, state, rec):
        model, data, errors = state["model"], state["data"], state["errors"]
        probe = data.images[:self.n_probe]
        rec.loss_final = cross_entropy(logits(model, probe), data.labels[:self.n_probe])
        # every pass over the same data must give the same error rate
        rec.check(len(set(errors)) == 1 and 0.0 <= errors[0] <= 100.0)
        rec.check(logits_agree(model, float64_twin(model), probe[:8]))


WORKLOADS = {
    "train-wrn16x2": TrainWRN,
    "train-desk-allmodes": TrainDeskAllModes,
    "eval-wrn16x2": EvalWRN,
}
