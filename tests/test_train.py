"""Optimizer arithmetic, schedules, the training loop's determinism and
resume behaviour, and checkpoint serialization."""

import importlib
import json
import os
import re

import numpy as np
import pytest

from cmpese.attention import AttentionConfig
from cmpese.checkpoint import (
    config_hash,
    load_checkpoint,
    load_tensors,
    save_tensors,
)
from cmpese.data import MixupConfig, synth_dataset
from cmpese.errors import ConfigError, DataFormatError, NonFiniteError, TrainingDiverged
from cmpese.network import NetworkSpec, build, spec_from_dict, spec_to_dict
from cmpese.tensor import Tensor
from cmpese.train import (
    PRESETS,
    TrainConfig,
    evaluate,
    lr_at,
    sgd_nesterov_step,
    train,
    train_config_from_dict,
    train_config_to_dict,
)


def leafp(data, grad=None):
    t = Tensor(np.asarray(data, dtype=np.float64), requires_grad=True)
    t.grad = None if grad is None else np.asarray(grad, dtype=np.float64)
    return t


def tiny_model(mode="none", classes=2, seed=7):
    spec = NetworkSpec(family="wrn", depth=10, widen_factor=1, num_classes=classes,
                       attention=AttentionConfig(mode=mode, t=4))
    return build(spec, rng=np.random.default_rng(seed))


# ---------------------------------------------------------------------------
# optimizer step
# ---------------------------------------------------------------------------

def test_zero_momentum_zero_decay_is_plain_sgd():
    p = leafp([1.0, -2.0], grad=[0.5, 0.25])
    sgd_nesterov_step({"w": p}, {}, lr=0.1, momentum=0.0, weight_decay=0.0)
    np.testing.assert_allclose(p.data, [1.0 - 0.05, -2.0 - 0.025], rtol=1e-15)


def test_zero_gradient_from_rest_is_noop():
    p = leafp([3.0, 4.0], grad=[0.0, 0.0])
    vel = {}
    sgd_nesterov_step({"w": p}, vel, lr=0.1, momentum=0.9, weight_decay=0.0)
    np.testing.assert_array_equal(p.data, [3.0, 4.0])
    np.testing.assert_array_equal(vel["w"], [0.0, 0.0])


def test_zero_lr_from_rest_leaves_weights_fixed():
    p = leafp([1.0, 2.0], grad=[5.0, -5.0])
    sgd_nesterov_step({"w": p}, {}, lr=0.0, momentum=0.9, weight_decay=5e-4)
    np.testing.assert_array_equal(p.data, [1.0, 2.0])


def test_nesterov_update_matches_hand_rolled_form():
    w0, g, lr, mu, v0 = 2.0, 0.3, 0.1, 0.9, -0.05
    p = leafp([w0], grad=[g])
    vel = {"w": np.array([v0])}
    sgd_nesterov_step({"w": p}, vel, lr=lr, momentum=mu, weight_decay=0.0)
    v1 = mu * v0 - lr * g
    np.testing.assert_allclose(vel["w"], [v1], rtol=1e-15)
    np.testing.assert_allclose(p.data, [w0 + mu * v1 - lr * g], rtol=1e-15)


def test_classic_momentum_applies_velocity_directly():
    p = leafp([1.0], grad=[1.0])
    vel = {"w": np.array([0.5])}
    sgd_nesterov_step({"w": p}, vel, lr=0.1, momentum=0.9, weight_decay=0.0,
                      nesterov=False)
    np.testing.assert_allclose(p.data, [1.0 + (0.9 * 0.5 - 0.1)], rtol=1e-15)


def test_quadratic_bowl_converges_with_decaying_envelope():
    """f(w) = w^2/2, so grad = w. A straight-line scalar simulation of the
    update form must match the optimizer step for step; momentum makes |w|
    oscillate through zero, so decay is asserted on the peak envelope."""
    p = leafp([1.0])
    vel = {}
    w_sim, v_sim = 1.0, 0.0
    trace = []
    for _ in range(100):
        p.grad = p.data.copy()
        sgd_nesterov_step({"w": p}, vel, lr=0.1, momentum=0.9, weight_decay=0.0)
        g_sim = w_sim
        v_sim = 0.9 * v_sim - 0.1 * g_sim
        w_sim = w_sim + (0.9 * v_sim - 0.1 * g_sim)
        assert float(p.data[0]) == w_sim
        trace.append(abs(w_sim))
    peaks = [max(trace[i: i + 10]) for i in range(10, 100, 10)]
    assert all(b < a for a, b in zip(peaks, peaks[1:]))
    assert trace[-1] < 1e-3


def test_weight_decay_shrinks_norm_with_zero_gradients():
    p = leafp(np.random.default_rng(0).standard_normal(8))
    norms = []
    vel = {}
    for _ in range(20):
        p.grad = np.zeros_like(p.data)
        sgd_nesterov_step({"w": p}, vel, lr=0.1, momentum=0.0, weight_decay=0.01,
                          decay_flags={"w": True})
        norms.append(np.linalg.norm(p.data))
    assert all(b < a for a, b in zip(norms, norms[1:]))


def test_decay_flag_off_skips_decay():
    p = leafp([1.0], grad=[0.0])
    sgd_nesterov_step({"w": p}, {}, lr=0.1, momentum=0.0, weight_decay=0.5,
                      decay_flags={"w": False})
    np.testing.assert_array_equal(p.data, [1.0])


def test_nonfinite_gradient_names_the_parameter():
    p = leafp([1.0], grad=[np.nan])
    with pytest.raises(NonFiniteError, match="stem.weight"):
        sgd_nesterov_step({"stem.weight": p}, {}, lr=0.1, momentum=0.9,
                          weight_decay=0.0)


def test_params_without_grad_are_skipped():
    p = leafp([1.0])           # grad=None: e.g. frozen or unused
    sgd_nesterov_step({"w": p}, {}, lr=0.1, momentum=0.9, weight_decay=0.0)
    np.testing.assert_array_equal(p.data, [1.0])


# ---------------------------------------------------------------------------
# schedule
# ---------------------------------------------------------------------------

def test_wrn_recipe_rate_boundaries():
    sched = PRESETS["wrn-cifar"]["schedule"]
    assert lr_at(59, 0.1, sched) == pytest.approx(0.1)
    assert lr_at(60, 0.1, sched) == pytest.approx(0.02)
    assert lr_at(120, 0.1, sched) == pytest.approx(0.004)
    assert lr_at(160, 0.1, sched) == pytest.approx(0.0008)


def test_preact_recipe_rate_boundaries():
    sched = PRESETS["preact-cifar"]["schedule"]
    assert lr_at(99, 0.1, sched) == pytest.approx(0.1)
    assert lr_at(100, 0.1, sched) == pytest.approx(0.01)
    assert lr_at(199, 0.1, sched) == pytest.approx(0.001)


def test_empty_schedule_keeps_base_rate():
    for epoch in (0, 1, 50, 10_000):
        assert lr_at(epoch, 0.05, ()) == 0.05


def test_schedule_validation():
    with pytest.raises(ConfigError):
        TrainConfig(schedule=((100, 10), (50, 10)))     # not increasing
    with pytest.raises(ConfigError):
        TrainConfig(schedule=((100, 10), (100, 10)))    # duplicate boundary
    with pytest.raises(ConfigError):
        TrainConfig(schedule=((100, 1),))               # divisor must exceed 1


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

class StubModel:
    """Deterministic logits computed directly from the input pixels."""

    def __init__(self, fn):
        self.fn = fn

    def eval(self):
        pass

    def forward(self, x):
        return Tensor(self.fn(x.data))


def balanced_set(classes=10, per_class=10, seed=0):
    rng = np.random.default_rng(seed)
    labels = np.repeat(np.arange(classes, dtype=np.int64), per_class)
    images = rng.standard_normal((labels.size, 1, 1, 3)).astype(np.float32)
    return type("DS", (), {"images": images, "labels": labels})()


def test_always_class_zero_on_balanced_set_errs_ninety_percent():
    ds = balanced_set()
    model = StubModel(lambda x: np.tile(np.eye(10, dtype=np.float32)[0], (x.shape[0], 1)))
    assert evaluate(model, ds) == pytest.approx(90.0)


def test_memorizing_stub_scores_zero_error():
    ds = balanced_set()
    # plant the label in the first pixel, then read it back as a one-hot
    ds.images[:, 0, 0, 0] = ds.labels.astype(np.float32)
    model = StubModel(
        lambda x: np.eye(10, dtype=np.float32)[x[:, 0, 0, 0].astype(np.int64)])
    assert evaluate(model, ds) == pytest.approx(0.0)


def test_top5_error_of_random_logits_near_half():
    rng = np.random.default_rng(1)
    n = 10_000
    labels = rng.integers(0, 10, size=n).astype(np.int64)
    images = rng.standard_normal((n, 1, 1, 10)).astype(np.float32)
    ds = type("DS", (), {"images": images, "labels": labels})()
    model = StubModel(lambda x: x.reshape(x.shape[0], 10))
    errs = evaluate(model, ds, topk=(1, 5))
    assert abs(errs[5] - 50.0) < 3.0
    assert errs[1] > errs[5]


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------

def fake_clock():
    state = {"t": 0.0}

    def tick():
        state["t"] += 0.125
        return state["t"]

    return tick


def small_run_cfg(**kw):
    base = dict(epochs=2, batch_size=16, base_lr=0.05, weight_decay=1e-4, seed=3,
                eval_batch_size=64)
    base.update(kw)
    return TrainConfig(**base)


def test_metrics_log_byte_identical_across_runs(tmp_path):
    data = synth_dataset(class_count=2, n_per_class=24, seed=5)
    logs = []
    for run in ("a", "b"):
        model = tiny_model(mode="se")
        out = tmp_path / run
        train(model, data, small_run_cfg(), out_dir=str(out), clock=fake_clock())
        logs.append((out / "metrics.csv").read_bytes())
    assert logs[0] == logs[1]
    header = logs[0].decode().splitlines()[0]
    assert header == "epoch,lr,train_loss,train_acc,eval_err,seconds"
    assert len(logs[0].decode().splitlines()) == 3   # header + 2 epochs


def test_zero_lr_keeps_weights_and_loss_fixed():
    data = synth_dataset(class_count=2, n_per_class=16, seed=6)
    model = tiny_model()
    before = {k: v.data.copy() for k, v in model.named_parameters()}
    # one full-set batch per epoch: reshuffling then only permutes rows, so
    # batch-norm statistics match across epochs up to f32 summation order
    hist = train(model, data, small_run_cfg(base_lr=0.0, epochs=3,
                                            weight_decay=0.0, batch_size=64))
    for k, p in model.named_parameters():
        np.testing.assert_array_equal(p.data, before[k])
    losses = [row["train_loss"] for row in hist]
    assert max(losses) - min(losses) < 5e-6


def test_resume_reproduces_uninterrupted_run(tmp_path):
    data = synth_dataset(class_count=2, n_per_class=24, seed=8)

    full = tiny_model(mode="doublefc")
    out_full = tmp_path / "full"
    train(full, data, small_run_cfg(epochs=4), out_dir=str(out_full), clock=fake_clock())

    first = tiny_model(mode="doublefc")
    out_split = tmp_path / "split"
    train(first, data, small_run_cfg(epochs=2), out_dir=str(out_split), clock=fake_clock())
    second = tiny_model(mode="doublefc", seed=99)   # weights come from the checkpoint
    clk = fake_clock()
    clk(); clk(); clk(); clk()                       # align the fake clock
    train(second, data, small_run_cfg(epochs=4), out_dir=str(out_split),
          clock=clk, resume_from=str(out_split / "last.ckpt"))

    for (ka, a), (kb, b) in zip(full.named_parameters(), second.named_parameters()):
        assert ka == kb
        np.testing.assert_array_equal(a.data, b.data)
    assert (out_full / "metrics.csv").read_bytes() \
        == (out_split / "metrics.csv").read_bytes()


class Killed(Exception):
    pass


def killing_clock(reads):
    """fake_clock that kills the run on read number reads + 1."""
    clk, count = fake_clock(), [0]

    def tick():
        count[0] += 1
        if count[0] > reads:
            raise Killed
        return clk()

    return tick


def test_resume_after_kill_past_last_checkpoint_repeats_no_rows(tmp_path):
    data = synth_dataset(class_count=2, n_per_class=24, seed=8)
    cfg = small_run_cfg(epochs=4, checkpoint_every=2)

    full = tiny_model(mode="se")
    out_full = tmp_path / "full"
    train(full, data, cfg, out_dir=str(out_full), clock=fake_clock())

    # two clock reads per epoch: the run dies as epoch 3 starts, after the
    # epoch-2 row was logged but with its last checkpoint at epoch 1
    out_split = tmp_path / "split"
    with pytest.raises(Killed):
        train(tiny_model(mode="se"), data, cfg, out_dir=str(out_split),
              clock=killing_clock(6))
    ckpt = str(out_split / "last.ckpt")
    assert load_checkpoint(ckpt)[2]["epoch"] == 1
    assert len((out_split / "metrics.csv").read_text().splitlines()) == 4

    clk = fake_clock()
    for _ in range(4):                               # align the fake clock
        clk()
    resumed = tiny_model(mode="se", seed=99)        # weights come from the checkpoint
    train(resumed, data, cfg, out_dir=str(out_split), clock=clk, resume_from=ckpt)
    for (ka, a), (kb, b) in zip(full.named_parameters(), resumed.named_parameters()):
        assert ka == kb
        np.testing.assert_array_equal(a.data, b.data)
    assert (out_full / "metrics.csv").read_bytes() \
        == (out_split / "metrics.csv").read_bytes()


# the run lasts until the last epoch saved: every checkpoint_every-th epoch
# saves, and so does the final one, once
@pytest.mark.parametrize("every,epochs_saved", [(0, [1]), (1, [0, 1]), (2, [1]),
                                                (0, [4]), (2, [1, 3, 4]), (3, [2, 4])])
def test_final_checkpoint_written_once(tmp_path, monkeypatch, every, epochs_saved):
    epochs = epochs_saved[-1] + 1
    train_mod = importlib.import_module("cmpese.train")   # the package re-exports train()
    saved = []
    save = train_mod.save_checkpoint

    def recording_save(*args, **kwargs):
        saved.append(kwargs["epoch"])
        return save(*args, **kwargs)

    monkeypatch.setattr(train_mod, "save_checkpoint", recording_save)
    data = synth_dataset(class_count=2, n_per_class=16, seed=8)
    train(tiny_model(), data, small_run_cfg(epochs=epochs, checkpoint_every=every),
          out_dir=str(tmp_path))
    assert saved == epochs_saved
    assert load_checkpoint(str(tmp_path / "last.ckpt"))[2]["epoch"] == epochs - 1


def test_mixup_runs_tail_epochs_plainly():
    data = synth_dataset(class_count=2, n_per_class=16, seed=9)
    cfg = small_run_cfg(epochs=2, mixup=MixupConfig(enabled=True, alpha=1.0,
                                                    tail_epochs=3))
    assert cfg.total_epochs() == 5
    hist = train(tiny_model(), data, cfg)
    assert [row["mixup"] for row in hist] == [True, True, False, False, False]


@pytest.mark.parametrize("mode", ["none", "se", "doublefc", "pairview2x1",
                                  "pairview1x1", "folded3x3"])
def test_fixed_batch_loss_descends_fifty_steps(mode):
    from cmpese import tensor as T
    data = synth_dataset(class_count=2, n_per_class=16, seed=10)
    model = tiny_model(mode=mode)
    model.train()
    params = dict(model.named_parameters())
    flags = model.decay_flags()
    vel = {}
    xb, yb = data.images[:16], data.labels[:16]
    losses = []
    for _ in range(50):
        logits = model.forward(Tensor(xb))
        loss = T.cross_entropy(logits, yb)
        model.zero_grad()
        loss.backward()
        sgd_nesterov_step(params, vel, 0.05, 0.9, 5e-4, flags)
        losses.append(float(loss.data))
    assert losses[-1] < losses[0]
    assert np.mean(losses[-10:]) < np.mean(losses[:10])


def test_divergence_aborts_and_keeps_last_checkpoint(tmp_path):
    data = synth_dataset(class_count=2, n_per_class=16, seed=11)
    out = tmp_path / "run"
    model = tiny_model()
    train(model, data, small_run_cfg(epochs=1), out_dir=str(out))
    ckpt = out / "last.ckpt"
    assert ckpt.exists()
    stamp = ckpt.read_bytes()

    model.stem.weight.data[0, 0, 0, 0] = np.nan
    with pytest.raises(TrainingDiverged):
        train(model, data, small_run_cfg(epochs=1), out_dir=str(out))
    assert ckpt.read_bytes() == stamp    # poisoned run never overwrote it


def test_augmented_training_still_deterministic(tmp_path):
    data = synth_dataset(class_count=2, n_per_class=16, seed=12, image_size=16)
    outs = []
    for run in ("a", "b"):
        model = tiny_model()
        out = tmp_path / run
        train(model, data, small_run_cfg(epochs=1, augment=True),
              out_dir=str(out), clock=fake_clock())
        outs.append((out / "metrics.csv").read_bytes())
    assert outs[0] == outs[1]


# ---------------------------------------------------------------------------
# checkpoint file format
# ---------------------------------------------------------------------------

def test_tensor_file_round_trip_bitwise(tmp_path):
    rng = np.random.default_rng(13)
    arrays = {
        "a/weight": rng.standard_normal((3, 4)).astype(np.float32),
        "b/running": rng.standard_normal(5),
        "c/step": np.arange(6, dtype=np.int64).reshape(2, 3),
        "d/scalarish": np.float32([7.25]),
    }
    path = tmp_path / "t.bin"
    save_tensors(path, arrays)
    back = load_tensors(path)
    assert list(back) == list(arrays)
    for k in arrays:
        assert back[k].dtype == arrays[k].dtype
        np.testing.assert_array_equal(back[k], arrays[k])


def test_tensor_file_bad_magic(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOTMAGIC" + b"\x00" * 16)
    with pytest.raises(DataFormatError) as exc:
        load_tensors(path)
    assert exc.value.byte_offset == 0


def test_tensor_file_truncation_detected(tmp_path):
    path = tmp_path / "t.bin"
    save_tensors(path, {"w": np.ones((4, 4), np.float32)})
    whole = path.read_bytes()
    path.write_bytes(whole[:-8])
    with pytest.raises(DataFormatError, match="truncated"):
        load_tensors(path)


def edited_tensor_file(tmp_path, at, new):
    """A saved two-tensor file with the bytes from offset ``at`` replaced by
    ``new``. Layout: magic and count to byte 12; "ab" (float32, rank 2)
    with its name at 14 and its rank at 17; "cd" with its name at 52."""
    path = tmp_path / "t.bin"
    save_tensors(path, {"ab": np.ones((2, 3), np.float32), "cd": np.zeros(2)})
    raw = bytearray(path.read_bytes())
    assert raw[14:16] == b"ab" and raw[17] == 2 and raw[52:54] == b"cd"
    raw[at:at + len(new)] = new
    path.write_bytes(bytes(raw))
    return path


@pytest.mark.parametrize("at, new, message", [
    (15, b"\xff", "tensor name is not UTF-8"),
    (17, b"\xfd", "rank 253 of 'ab' is above numpy's 64"),
    (52, b"ab", "tensor 'ab' repeats an earlier name"),
])
def test_tensor_file_layout_errors_name_file_and_offset(tmp_path, at, new, message):
    path = edited_tensor_file(tmp_path, at, new)
    with pytest.raises(DataFormatError, match=re.escape(f"{path}: {message}")) as exc:
        load_tensors(path)
    assert exc.value.byte_offset == at


def test_tensor_file_rejects_unsupported_dtype(tmp_path):
    with pytest.raises(DataFormatError):
        save_tensors(tmp_path / "t.bin", {"w": np.ones(3, dtype=np.float16)})


def test_checkpoint_sidecar_metadata(tmp_path):
    data = synth_dataset(class_count=2, n_per_class=16, seed=14)
    model = tiny_model(mode="se")
    out = tmp_path / "run"
    train(model, data, small_run_cfg(epochs=1), out_dir=str(out))
    state, velocity, meta = load_checkpoint(str(out / "last.ckpt"))
    assert meta["epoch"] == 0
    assert meta["network"]["attention"]["mode"] == "se"
    assert meta["format"] == "cmpese-checkpoint-v1"
    assert set(state) == {k for k, _ in model.named_parameters()} | \
        {k for k, _ in model.named_buffers()}
    assert velocity               # optimizer state came along
    with open(str(out / "last.ckpt") + ".json") as f:
        assert json.load(f)["config_hash"] == meta["config_hash"]


@pytest.fixture
def saved_run(tmp_path):
    """A one-epoch training run's checkpoint path and its sidecar path."""
    data = synth_dataset(class_count=2, n_per_class=8, seed=14)
    out = tmp_path / "run"
    train(tiny_model(), data, small_run_cfg(epochs=1), out_dir=str(out))
    ckpt = str(out / "last.ckpt")
    return ckpt, ckpt + ".json"


def resume(ckpt):
    data = synth_dataset(class_count=2, n_per_class=8, seed=14)
    train(tiny_model(), data, small_run_cfg(epochs=2), resume_from=ckpt)


def test_truncated_sidecar_is_a_named_format_error(saved_run):
    ckpt, sidecar = saved_run
    with open(sidecar, "rb") as f:
        text = f.read()
    with open(sidecar, "wb") as f:
        f.write(text[: len(text) // 2])
    with pytest.raises(DataFormatError, match=re.escape(sidecar)):
        load_checkpoint(ckpt)
    with pytest.raises(DataFormatError, match=re.escape(sidecar)):
        resume(ckpt)


def rewrite_sidecar(sidecar, edit):
    with open(sidecar) as f:
        meta = json.load(f)
    edit(meta)
    with open(sidecar, "w") as f:
        json.dump(meta, f)


@pytest.mark.parametrize("key", ["epoch", "rng_state", "network"])
def test_sidecar_missing_a_key_is_a_named_format_error(saved_run, key):
    ckpt, sidecar = saved_run
    rewrite_sidecar(sidecar, lambda meta: meta.pop(key))
    with pytest.raises(DataFormatError, match=re.escape(sidecar) + ".*" + key):
        load_checkpoint(ckpt)
    with pytest.raises(DataFormatError, match=re.escape(sidecar)):
        resume(ckpt)


@pytest.mark.parametrize("key,value", [("epoch", "1"), ("epoch", -1), ("epoch", 1.0),
                                       ("rng_state", [1, 2]), ("network", 5),
                                       ("network", [1])])
def test_sidecar_with_a_malformed_value_is_a_named_format_error(saved_run, key, value):
    ckpt, sidecar = saved_run
    rewrite_sidecar(sidecar, lambda meta: meta.update({key: value}))
    with pytest.raises(DataFormatError, match=re.escape(sidecar) + ".*" + key):
        load_checkpoint(ckpt)


@pytest.mark.parametrize("value", ["cmpese-checkpoint-v2", None])
def test_sidecar_of_another_format_is_a_named_format_error(saved_run, value):
    ckpt, sidecar = saved_run
    rewrite_sidecar(sidecar, lambda meta: meta.update(format=value))
    with pytest.raises(DataFormatError, match=re.escape(sidecar) + ".*format.*" + repr(value)):
        load_checkpoint(ckpt)
    # a sidecar without the key still loads
    rewrite_sidecar(sidecar, lambda meta: meta.pop("format"))
    assert load_checkpoint(ckpt)[2]["epoch"] == 0


def test_sidecar_network_in_the_sparse_format_still_loads(saved_run):
    # sidecars written before the network dict listed every NetworkSpec
    # field omit block when it is "auto" and fold keys when they are null
    ckpt, sidecar = saved_run
    full = load_checkpoint(ckpt)[2]["network"]
    assert full["block"] == "auto" and full["attention"]["fold_n"] is None

    def sparse(meta):
        del meta["network"]["block"]
        del meta["network"]["attention"]["fold_n"], meta["network"]["attention"]["fold_m"]
    rewrite_sidecar(sidecar, sparse)
    spec = spec_from_dict(load_checkpoint(ckpt)[2]["network"])
    assert spec == tiny_model().spec
    assert spec_to_dict(spec) == full


@pytest.mark.parametrize("key,value", [("epoch", None), ("rng_state", None),
                                       ("rng_state", {"bit_generator": "MT19937"})])
def test_resume_refuses_a_sidecar_without_training_state(saved_run, key, value):
    # a checkpoint saved without training state (epoch and rng state null)
    # loads for evaluation but cannot be resumed from
    ckpt, sidecar = saved_run
    rewrite_sidecar(sidecar, lambda meta: meta.update({key: value}))
    assert load_checkpoint(ckpt)[2][key] == value
    with pytest.raises(DataFormatError, match=re.escape(sidecar)):
        resume(ckpt)


def test_config_hash_is_order_insensitive():
    a = config_hash({"x": 1, "y": [1, 2]})
    b = config_hash({"y": [1, 2], "x": 1})
    c = config_hash({"x": 2, "y": [1, 2]})
    assert a == b != c


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

def test_preset_merge_and_override():
    cfg = train_config_from_dict({"preset": "wrn-cifar", "base_lr": 0.2, "epochs": 5})
    assert cfg.base_lr == 0.2 and cfg.epochs == 5
    assert cfg.schedule == ((60, 5), (120, 5), (160, 5))
    assert cfg.augment is True


def test_svhn_preset_recipe():
    cfg = train_config_from_dict({"preset": "svhn"})
    assert cfg.base_lr == 0.01 and cfg.epochs == 160 and cfg.augment is False
    assert lr_at(80, cfg.base_lr, cfg.schedule) == pytest.approx(0.001)


def test_unknown_keys_rejected():
    with pytest.raises(ConfigError, match="warmup"):
        train_config_from_dict({"warmup": 5})
    with pytest.raises(ConfigError, match="preset"):
        train_config_from_dict({"preset": "imagenet"})
    with pytest.raises(ConfigError, match="beta"):
        train_config_from_dict({"mixup": {"enabled": True, "beta": 0.2}})


@pytest.mark.parametrize("override,key", [
    ({"batch_size": 0}, "batch_size"),
    ({"eval_batch_size": 0}, "eval_batch_size"),
    ({"epochs": -1}, "epochs"),
    ({"checkpoint_every": -2}, "checkpoint_every"),
    ({"batch_size": "64"}, "batch_size"),
    ({"epochs": 2.5}, "epochs"),
    ({"checkpoint_every": True}, "checkpoint_every"),
    ({"epochs": 0}, "epochs"),
    ({"epochs": 0, "mixup": {"enabled": True, "tail_epochs": 0}}, "epochs"),
    ({"mixup": {"enabled": True, "tail_epochs": -1}}, "tail_epochs"),
    # a value of the wrong type is refused, never coerced
    ({"nesterov": "false"}, "nesterov"),
    ({"augment": "no"}, "augment"),
    ({"mixup": {"enabled": "false"}}, "enabled"),
    ({"mixup": {"enabled": True, "alpha": "1.0"}}, "alpha"),
    ({"mixup": {"tail_epochs": 2.5}}, "tail_epochs"),
    ({"mixup": [True, 1.0, 20]}, "mixup"),
    ({"schedule": [[2.9, 10]]}, "schedule"),
    ({"schedule": [[10, "10"]]}, "schedule"),
    ({"schedule": [[10, 10, 2]]}, "schedule"),
    ({"schedule": 10}, "schedule"),
    ({"seed": 1.5}, "seed"),
    ({"seed": -1}, "seed"),
    ({"base_lr": "0.1"}, "base_lr"),
    ({"momentum": True}, "momentum"),
    ({"weight_decay": None}, "weight_decay"),
    ({"preset": ["svhn"]}, "preset"),
])
def test_settings_that_cannot_train_are_rejected(override, key):
    with pytest.raises(ConfigError, match=key):
        train_config_from_dict(override)


def test_smallest_valid_settings_are_accepted():
    cfg = train_config_from_dict({"epochs": 0, "batch_size": 1, "eval_batch_size": 1,
                                  "checkpoint_every": 0,
                                  "mixup": {"enabled": True, "tail_epochs": 1}})
    assert cfg.total_epochs() == 1


def test_precision_key_rejected():
    # training always runs in the model's dtype; a precision setting would
    # be accepted and then ignored
    with pytest.raises(ConfigError, match="unknown train keys: precision"):
        train_config_from_dict({"precision": "float64"})
    assert "precision" not in train_config_to_dict(TrainConfig())


def test_config_dict_round_trip():
    cfg = train_config_from_dict({"preset": "preact-cifar",
                                  "mixup": {"enabled": True, "alpha": 0.5}})
    again = train_config_from_dict(train_config_to_dict(cfg))
    assert again == cfg
    # through JSON the schedule comes back as lists; it is normalised to tuples
    again = train_config_from_dict(json.loads(json.dumps(train_config_to_dict(cfg))))
    assert again == cfg and again.schedule == ((100, 10), (150, 10))
