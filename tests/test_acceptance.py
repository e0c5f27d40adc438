"""Acceptance suite. Each test covers one numbered criterion and prints a
single PASS/FAIL line (bypassing capture) so a plain pytest run shows the
scorecard:

    ACCEPTANCE <n> <slug>: PASS|FAIL

Criteria are checked at the exact operating points they pin; tolerances are
stated inline next to each assertion.
"""

import time

import numpy as np
import pytest

from cmpese import tensor as T
from cmpese.attention import (
    AttentionConfig,
    CompetitiveDoubleFC,
    FoldedPairView3x3,
    PairView1x1,
    PairView2x1,
    SqueezeExcite,
    fold_map,
    stack_pair_view,
    unfold_map,
)
from cmpese.data import MixupConfig, mixup_batch, synth_dataset
from cmpese.diagnostics import attention_stats, capture_trace, stats_to_csv
from cmpese.gradcheck import block_gradient_check
from cmpese.network import NetworkSpec, build, param_count
from cmpese.tensor import Tensor
from cmpese.train import TrainConfig, train

import oracles


@pytest.fixture
def report(capsys):
    def _emit(num, slug, passed, detail=""):
        with capsys.disabled():
            verdict = "PASS" if passed else "FAIL"
            suffix = f"  ({detail})" if detail else ""
            print(f"ACCEPTANCE {num} {slug}: {verdict}{suffix}")
    return _emit


def spec_for(family, depth, k=1, mode="none", classes=100):
    return NetworkSpec(family=family, depth=depth, widen_factor=k,
                       num_classes=classes,
                       attention=AttentionConfig(mode=mode, t=16))


# ---------------------------------------------------------------------------

def test_criterion_1_parameter_count_golden_tables(report):
    """Published totals, +/-2% for rounding and unstated bias conventions."""
    golden = [
        ("preact-resnet", 164, 1, "none", 1.70),
        ("preact-resnet", 164, 1, "se", 1.95),
        ("preact-resnet", 164, 1, "doublefc", 2.12),
        ("preact-resnet", 164, 1, "pairview1x1", 2.04),
        ("preact-resnet", 164, 1, "folded3x3", 1.99),
        ("wrn", 28, 10, "none", 36.5),
        ("wrn", 28, 10, "se", 36.8),
        ("wrn", 28, 10, "doublefc", 37.04),
        ("wrn", 28, 10, "pairview1x1", 36.92),
        ("wrn", 28, 10, "folded3x3", 36.90),
    ]
    failures = []
    for family, depth, k, mode, ref_m in golden:
        tick = time.perf_counter()
        count = param_count(spec_for(family, depth, k, mode))
        elapsed = time.perf_counter() - tick
        ref = ref_m * 1e6
        if abs(count - ref) > 0.02 * ref:
            failures.append(f"{family}-{depth} {mode}: {count} vs {ref_m}M")
        if elapsed >= 1.0:
            failures.append(f"{family}-{depth} {mode}: took {elapsed:.2f}s")
    report(1, "param-count-golden", not failures,
           f"{len(golden) - len(failures)}/{len(golden)} within 2%")
    assert not failures, failures


def test_criterion_2_gradient_checks_every_mode(report):
    modes = ("none", "se", "doublefc", "pairview2x1", "pairview1x1", "folded3x3")
    tick = time.perf_counter()
    worst = {}
    for mode in modes:
        res = block_gradient_check(mode, channels=8, t=4, spatial=4, batch=2,
                                   seed=0, rtol=1e-4, raise_on_fail=False)
        worst[mode] = res.max_rel_err
    elapsed = time.perf_counter() - tick
    ok = all(err < 1e-4 for err in worst.values()) and elapsed < 60.0
    report(2, "finite-difference-gradients", ok,
           f"max {max(worst.values()):.2e}, {elapsed:.1f}s")
    assert elapsed < 60.0, f"gradient checks took {elapsed:.1f}s"
    for mode, err in worst.items():
        assert err < 1e-4, f"{mode}: max relative error {err:.3e}"


def test_criterion_3_degeneration_to_baseline_is_bitwise(report):
    c, t, r = 16, 4, 4
    rng = np.random.default_rng(0)
    u = Tensor(rng.standard_normal((8, c)))
    x = Tensor(rng.standard_normal((8, c)))
    se = SqueezeExcite(c, t, rng=np.random.default_rng(1), dtype=np.float64)
    s_base = se.excite(u).data

    joint = CompetitiveDoubleFC(c, t, rng=np.random.default_rng(2), dtype=np.float64)
    joint.reduce_res.weight.data[...] = se.reduce.weight.data
    joint.reduce_id.weight.data[...] = 0.0
    joint.expand.weight.data[:, :r] = se.expand.weight.data
    double_ok = np.array_equal(joint.excite(u, x).data, s_base)

    pv = PairView2x1(c, t, n_kernels=1, use_bn=False, dtype=np.float64)
    pv.kernels.data[...] = np.array([[[[1.0]]], [[[0.0]]]])   # residual selector
    pv.encode.weight.data[...] = se.reduce.weight.data
    pv.expand.weight.data[...] = se.expand.weight.data
    pv_ok = np.array_equal(pv.excite(u, x).data, s_base)

    report(3, "degenerates-to-baseline-bitwise", double_ok and pv_ok,
           f"double-fc {'=' if double_ok else '!='} base, "
           f"selector {'=' if pv_ok else '!='} base")
    assert double_ok, "double-FC with zeroed identity branch drifted from baseline"
    assert pv_ok, "2x1 selector kernel with BN bypassed drifted from baseline"


def test_criterion_4_fold_bijection_and_fixed_encoder_width(report):
    rng = np.random.default_rng(3)
    checked, failures = 0, []
    for c in (16, 32, 64, 160, 640):
        u = Tensor(rng.standard_normal((2, c)))
        x = Tensor(rng.standard_normal((2, c)))
        v = stack_pair_view(u, x)
        shapes = [(2 * c // m, m) for m in range(1, c + 1) if c % m == 0]
        # the published recipes must be in the valid set when they fit
        assert (2 * c // 16, 16) in shapes
        if c % 10 == 0:
            assert (20, c // 10) in shapes
        for n, m in shapes:
            back = unfold_map(fold_map(v, n, m), n, m)
            if not np.array_equal(back.data, v.data):
                failures.append(f"C={c} (n={n}, m={m}) not inverted")
            unit = FoldedPairView3x3(c, 16, fold_n=n, fold_m=m, dtype=np.float64)
            if unit.encode.weight.data.shape[1] != 2 * c:
                failures.append(f"C={c} (n={n}, m={m}) encoder width "
                                f"{unit.encode.weight.data.shape[1]} != {2 * c}")
            checked += 1
    report(4, "fold-unfold-bijection", not failures, f"{checked} shapes")
    assert not failures, failures


def test_criterion_5_convolutions_match_brute_force(report):
    rng = np.random.default_rng(4)
    kinds = [(PairView2x1, 0), (PairView1x1, 0), (FoldedPairView3x3, 1)]
    worst = 0.0
    for i in range(50):
        cls, pad = kinds[i % len(kinds)]
        c = int(rng.choice([8, 16, 32]))
        t = int(rng.choice([4, 8]))
        unit = cls(c, t, use_bn=False, rng=rng, dtype=np.float64)
        u = Tensor(rng.standard_normal((3, c)))
        x = Tensor(rng.standard_normal((3, c)))
        v = stack_pair_view(u, x)
        if cls is FoldedPairView3x3:
            v = fold_map(v, unit.fold_n, unit.fold_m)
        got = unit._scan(v).data
        want = oracles.pairview_scan_reference(v.data, unit.kernels.data, padding=pad)
        rel = np.abs(got - want) / np.maximum(np.abs(want), 1e-12)
        worst = max(worst, float(rel.max()))
    ok = worst < 1e-6
    report(5, "pair-view-conv-vs-brute-force", ok, f"50 instances, max {worst:.2e}")
    assert ok, f"max relative error {worst:.3e} over 50 instances"


@pytest.mark.parametrize("mode", ["se", "doublefc", "pairview2x1", "pairview1x1",
                                  "folded3x3"])
def test_criterion_6_training_smoke_per_mode(mode, report):
    data = synth_dataset(class_count=2, n_per_class=100, seed=6)   # 200 samples
    spec = NetworkSpec(family="wrn", depth=10, widen_factor=1, num_classes=2,
                       attention=AttentionConfig(mode=mode, t=4))
    model = build(spec, rng=np.random.default_rng(6))
    cfg = TrainConfig(epochs=30, batch_size=32, base_lr=0.05, seed=6,
                      schedule=((20, 10),))
    tick = time.perf_counter()
    history = train(model, data, cfg)
    elapsed = time.perf_counter() - tick
    best = max(row["train_acc"] for row in history)
    finite = all(np.isfinite(row["train_loss"]) for row in history)
    ok = best >= 95.0 and elapsed < 300.0 and finite
    report(6, f"training-smoke-{mode}", ok, f"best {best:.1f}%, {elapsed:.0f}s")
    assert finite, "loss went non-finite"
    assert best >= 95.0, f"{mode}: best train accuracy {best:.2f}% < 95%"
    assert elapsed < 300.0, f"{mode}: took {elapsed:.0f}s"


def test_criterion_7_mixup_moments_and_plain_tail(report):
    # lambda draws against Beta(alpha, alpha) moments
    batch = np.zeros((2, 1, 1, 3), dtype=np.float32)
    labels = np.zeros(2, dtype=np.int64)
    rng = np.random.default_rng(7)
    moment_fail = []
    for alpha in (1.0, 2.0):
        lams = np.array([mixup_batch(batch, labels, alpha, rng)[3]
                         for _ in range(10_000)])
        want_mean = 0.5
        want_var = 1.0 / (4.0 * (2.0 * alpha + 1.0))
        if abs(lams.mean() - want_mean) > 0.02 * want_mean:
            moment_fail.append(f"alpha={alpha} mean {lams.mean():.4f}")
        if abs(lams.var() - want_var) > 0.02 * want_var:
            moment_fail.append(f"alpha={alpha} var {lams.var():.4f} vs {want_var:.4f}")

    # the protocol appends a plain tail after the mixup phase
    cfg = TrainConfig(epochs=2, batch_size=16, base_lr=0.05, seed=7,
                      mixup=MixupConfig(enabled=True, alpha=1.0))
    tail_len_ok = cfg.total_epochs() == 2 + 20
    data = synth_dataset(class_count=2, n_per_class=16, seed=7)
    spec = NetworkSpec(family="wrn", depth=10, widen_factor=1, num_classes=2,
                       attention=AttentionConfig(mode="se", t=4))
    history = train(build(spec, rng=np.random.default_rng(7)), data, cfg)
    flags = [row["mixup"] for row in history]
    tail_ok = tail_len_ok and flags == [True] * 2 + [False] * 20

    ok = not moment_fail and tail_ok
    report(7, "mixup-moments-and-tail", ok,
           f"moments {'ok' if not moment_fail else 'off'}, "
           f"tail {'ok' if tail_ok else 'wrong'}")
    assert not moment_fail, moment_fail
    assert tail_ok, f"mixup phase flags: {flags}"


def test_criterion_8_diagnostics_block_counts_and_zero_fixture(report, tmp_path):
    expected = [
        (("wrn", 28, 10), 12),
        (("wrn", 22, 10), 9),
        (("wrn", 16, 8), 6),
        (("preact-resnet", 164, 1), 54),
        (("preact-resnet", 110, 1), 54),
    ]
    failures = []
    probe = np.random.default_rng(8).standard_normal((2, 8, 8, 3)).astype(np.float32)
    for (family, depth, k), want_blocks in expected:
        model = build(spec_for(family, depth, k, mode="se", classes=10),
                      rng=np.random.default_rng(8))
        for unit in model.attention_units():
            for _, p in unit.named_parameters():
                p.data[...] = 0
        model.eval()
        trace = capture_trace(model, probe)
        rows = attention_stats(trace)
        csv_path = stats_to_csv(rows, tmp_path / f"{family}-{depth}-{k}.csv")
        exported = open(csv_path).read().splitlines()
        name = f"{family}-{depth}" + (f"-{k}" if family == "wrn" else "")
        if len(exported) - 1 != want_blocks:
            failures.append(f"{name}: {len(exported) - 1} blocks, want {want_blocks}")
        if any(r["mean"] != 0.5 or r["variance"] != 0.0 for r in rows):
            failures.append(f"{name}: zero-parameter fixture not at (0.5, 0)")
    report(8, "diagnostics-block-counts", not failures,
           "12/9/6/54/54" if not failures else "; ".join(failures))
    assert not failures, failures


def test_criterion_9_metrics_logs_byte_identical(report, tmp_path):
    data = synth_dataset(class_count=2, n_per_class=32, seed=9)
    spec = NetworkSpec(family="wrn", depth=10, widen_factor=1, num_classes=2,
                       attention=AttentionConfig(mode="doublefc", t=4))
    cfg = TrainConfig(epochs=3, batch_size=16, base_lr=0.05, seed=9, augment=True,
                      mixup=MixupConfig(enabled=True, alpha=1.0, tail_epochs=1))

    def run(out, clock=None):
        model = build(spec, rng=np.random.default_rng(9))
        train(model, data, cfg, out_dir=str(out), clock=clock)
        return (out / "metrics.csv").read_bytes()

    def fixed_clock():
        state = {"t": 0.0}

        def tick():
            state["t"] += 1.0
            return state["t"]
        return tick

    # injected clock: whole file byte-identical
    a = run(tmp_path / "a", fixed_clock())
    b = run(tmp_path / "b", fixed_clock())
    clocked_ok = a == b

    # wall clock: everything but the timing column must still agree
    c = run(tmp_path / "c")
    d = run(tmp_path / "d")
    strip = lambda blob: [line.rsplit(",", 1)[0] for line in blob.decode().splitlines()]
    wall_ok = strip(c) == strip(d)

    report(9, "deterministic-metrics-log", clocked_ok and wall_ok,
           f"{len(a.splitlines()) - 1} epochs compared")
    assert clocked_ok, "metrics logs differ under an injected clock"
    assert wall_ok, "metrics logs differ beyond the seconds column"
