"""SGD training loop with Nesterov momentum, step schedules, weight decay,
mixup, checkpointing, and evaluation.

Everything random flows from one generator seeded by the config, so a fixed
seed reproduces the whole trajectory; the wall-clock column of the metrics
log is the only nondeterministic output, and the clock is injectable for
tests that need byte-identical logs.
"""

from __future__ import annotations

import os
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import tensor as T
from .checkpoint import config_hash, load_checkpoint, save_checkpoint
from .data import MixupConfig, augment_batch, iterate_minibatches, mixup_batch
from .errors import ConfigError, DataFormatError, NonFiniteError, TrainingDiverged, \
    from_dict, require_bool, require_choice, require_int, require_number
from .network import spec_to_dict
from .tensor import Tensor, no_grad


@dataclass
class TrainConfig:
    epochs: int = 30
    batch_size: int = 32
    base_lr: float = 0.05
    momentum: float = 0.9
    nesterov: bool = True
    weight_decay: float = 5e-4
    schedule: tuple = ()          # ((boundary_epoch, divisor), ...)
    mixup: MixupConfig = field(default_factory=MixupConfig)
    augment: bool = False
    seed: int = 0
    checkpoint_every: int = 0     # 0 = only the final checkpoint
    eval_batch_size: int = 256

    def __post_init__(self):
        for key, least in (("batch_size", 1), ("eval_batch_size", 1), ("epochs", 0),
                           ("checkpoint_every", 0), ("seed", 0)):
            require_int(key, getattr(self, key), least)
        for key in ("base_lr", "momentum", "weight_decay"):
            require_number(key, getattr(self, key))
        for key in ("nesterov", "augment"):
            require_bool(key, getattr(self, key))
        if self.total_epochs() < 1:
            raise ConfigError("epochs plus mixup tail_epochs must be at least 1, got "
                              f"{self.total_epochs()}")
        if not isinstance(self.schedule, (list, tuple)) or not all(
                isinstance(e, (list, tuple)) and len(e) == 2 for e in self.schedule):
            raise ConfigError(f"schedule must be a list of [epoch, divisor] pairs, "
                              f"got {self.schedule!r}")
        self.schedule = tuple(tuple(e) for e in self.schedule)
        for b, d in self.schedule:
            require_int("schedule epoch", b, 0)
            require_number("schedule divisor", d)
            if d <= 1:
                raise ConfigError(f"schedule divisor must exceed 1, got {d} at epoch {b}")
        boundaries = [b for b, _ in self.schedule]
        if boundaries != sorted(set(boundaries)):
            raise ConfigError(f"schedule epochs must be strictly increasing: {boundaries}")

    def total_epochs(self):
        return self.epochs + (self.mixup.tail_epochs if self.mixup.enabled else 0)


# published training recipes, by name; values are TrainConfig field overrides
PRESETS = {
    "preact-cifar": dict(
        epochs=200, batch_size=128, base_lr=0.1,
        schedule=((100, 10), (150, 10)), augment=True,
    ),
    "wrn-cifar": dict(
        epochs=200, batch_size=128, base_lr=0.1,
        schedule=((60, 5), (120, 5), (160, 5)), augment=True,
    ),
    "svhn": dict(
        epochs=160, batch_size=128, base_lr=0.01,
        schedule=((80, 10), (120, 10)), augment=False,
    ),
}


def train_config_from_dict(d):
    """A train section: the named preset's fields, then the section's own."""
    if isinstance(d, dict) and "preset" in d:
        d = dict(d)
        preset = d.pop("preset")
        require_choice("preset", preset, sorted(PRESETS))
        d = {**PRESETS[preset], **d}
    return from_dict(TrainConfig, d, "train")


def train_config_to_dict(cfg):
    return asdict(cfg)


def lr_at(epoch, base_lr, schedule):
    """Base rate divided by every divisor whose boundary epoch has passed."""
    lr = base_lr
    for boundary, divisor in schedule:
        if epoch >= boundary:
            lr /= divisor
    return lr


def sgd_nesterov_step(params, velocity, lr, momentum, weight_decay,
                      decay_flags=None, nesterov=True):
    """In-place update: v <- mu*v - lr*(g + wd*w); w <- w + mu*v - lr*(g + wd*w)
    (classic momentum applies w <- w + v instead). Decay touches only
    parameters whose decay flag is set."""
    for name, p in params.items():
        g = p.grad
        if g is None:
            continue
        if not np.isfinite(g).all():
            raise NonFiniteError("non-finite gradient in optimizer step", name)
        w = p.data
        dt = w.dtype.type
        if weight_decay and (decay_flags is None or decay_flags.get(name)):
            g = g + dt(weight_decay) * w
        v = velocity.get(name)
        if v is None:
            v = np.zeros_like(w)
        v = dt(momentum) * v - dt(lr) * g
        if nesterov:
            w += dt(momentum) * v - dt(lr) * g
        else:
            w += v
        velocity[name] = v


def _csv_row(row):
    return (f"{row['epoch']},{row['lr']:.10g},{row['train_loss']:.6f},"
            f"{row['train_acc']:.4f},{row['eval_err']:.4f},{row['seconds']:.3f}\n")


_CSV_HEADER = "epoch,lr,train_loss,train_acc,eval_err,seconds\n"


def _open_metrics(path, start_epoch):
    """Open the metrics log for appending the rows of epochs >= start_epoch.

    A fresh run (start_epoch 0) starts the file with its header. A resumed
    run keeps the header and the whole rows of earlier epochs and cuts the
    rest: rows written after the checkpoint it resumes from are redone, and
    would otherwise appear twice.
    """
    keep = 0
    if start_epoch > 0 and os.path.exists(path):
        with open(path, "rb") as f:
            lines = f.readlines()
        if lines and lines[0] == _CSV_HEADER.encode():
            keep = len(lines[0])
            for line in lines[1:]:
                if not line.endswith(b"\n") or int(line.split(b",", 1)[0]) >= start_epoch:
                    break
                keep += len(line)
    if keep == 0:
        f = open(path, "w")
        f.write(_CSV_HEADER)
        f.flush()
        return f
    os.truncate(path, keep)
    return open(path, "a")


def train(model, train_data, cfg, eval_data=None, out_dir=None, clock=None,
          resume_from=None):
    """Run the full schedule; returns the per-epoch history (list of dicts).

    With mixup enabled, epochs [0, cfg.epochs) mix batches and the final
    cfg.mixup.tail_epochs train plainly. Under out_dir, when given, writes
    metrics.csv, and last.ckpt after every checkpoint_every-th epoch and the
    last. resume_from restores weights, velocity, and rng state, continuing
    the exact trajectory.
    """
    clock = clock or time.perf_counter
    rng = np.random.default_rng(cfg.seed)
    params = dict(model.named_parameters())
    flags = model.decay_flags()
    velocity = {}
    start_epoch = 0
    net_dict = spec_to_dict(model.spec)
    cfg_hash = config_hash({"train": train_config_to_dict(cfg), "network": net_dict})

    if resume_from:
        state, vel, meta = load_checkpoint(resume_from)
        if meta["epoch"] is None or meta["rng_state"] is None:
            raise DataFormatError(
                f"{resume_from}.json: null epoch or rng_state; not a checkpoint to resume from")
        try:
            rng.bit_generator.state = meta["rng_state"]
        except (KeyError, TypeError, ValueError) as e:
            raise DataFormatError(
                f"{resume_from}.json: rng_state does not restore a generator ({e})") from None
        model.load_state_dict(state)
        velocity = vel
        start_epoch = meta["epoch"] + 1

    csv_file = None
    ckpt_path = None
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        ckpt_path = os.path.join(out_dir, "last.ckpt")
        csv_file = _open_metrics(os.path.join(out_dir, "metrics.csv"), start_epoch)

    history = []
    try:
        for epoch in range(start_epoch, cfg.total_epochs()):
            tick = clock()
            lr = lr_at(epoch, cfg.base_lr, cfg.schedule)
            mixup_on = cfg.mixup.enabled and epoch < cfg.epochs
            model.train()
            loss_sum, correct, seen = 0.0, 0, 0
            for xb, yb in iterate_minibatches(
                    train_data.images, train_data.labels, cfg.batch_size, rng):
                if cfg.augment:
                    xb = augment_batch(xb, rng)
                if mixup_on:
                    xb, ya, y_perm, lam = mixup_batch(xb, yb, cfg.mixup.alpha, rng)
                else:
                    ya = yb
                logits = model.forward(Tensor(xb))
                if mixup_on:
                    loss = T.add(T.scale(T.cross_entropy(logits, ya), lam),
                                 T.scale(T.cross_entropy(logits, y_perm), 1.0 - lam))
                else:
                    loss = T.cross_entropy(logits, ya)
                if not np.isfinite(loss.data):
                    raise TrainingDiverged(
                        f"loss became non-finite in epoch {epoch}"
                        + (f"; last checkpoint: {ckpt_path}" if ckpt_path else ""))
                model.zero_grad()
                loss.backward()
                sgd_nesterov_step(params, velocity, lr, cfg.momentum,
                                  cfg.weight_decay, flags, cfg.nesterov)
                n = xb.shape[0]
                loss_sum += float(loss.data) * n
                seen += n
                correct += int((np.argmax(logits.data, axis=1) == ya).sum())
            eval_err = evaluate(model, eval_data if eval_data is not None else train_data,
                                batch_size=cfg.eval_batch_size)
            row = {
                "epoch": epoch, "lr": lr,
                "train_loss": loss_sum / seen,
                "train_acc": 100.0 * correct / seen,
                "eval_err": eval_err,
                "seconds": clock() - tick,
                "mixup": mixup_on,
            }
            history.append(row)
            if csv_file:
                csv_file.write(_csv_row(row))
                csv_file.flush()
            if ckpt_path and (epoch == cfg.total_epochs() - 1 or (
                    cfg.checkpoint_every and (epoch + 1) % cfg.checkpoint_every == 0)):
                save_checkpoint(ckpt_path, model.state_dict(), net_dict,
                                velocity=velocity, epoch=epoch,
                                rng_state=rng.bit_generator.state, cfg_hash=cfg_hash)
    finally:
        if csv_file:
            csv_file.close()
    return history


def evaluate(model, dataset, batch_size=256, topk=None):
    """Top-1 error percentage on the dataset (eval mode, running BN stats).

    topk=(1, 5) returns a dict of error rates instead of one float.
    """
    ks = (1,) if topk is None else tuple(topk)
    wrong = {k: 0 for k in ks}
    total = 0
    model.eval()
    with no_grad():
        for xb, yb in iterate_minibatches(dataset.images, dataset.labels,
                                          batch_size, shuffle=False):
            logits = model.forward(Tensor(xb)).data
            order = np.argsort(-logits, axis=1)
            for k in ks:
                hit = (order[:, :k] == yb[:, None]).any(axis=1)
                wrong[k] += int((~hit).sum())
            total += xb.shape[0]
    errors = {k: 100.0 * wrong[k] / total for k in ks}
    return errors if topk is not None else errors[1]
