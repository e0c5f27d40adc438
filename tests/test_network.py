"""Network construction: stage plans, parameter accounting, forward shape and
numeric sanity, and config round-trips."""

import tracemalloc

import numpy as np
import pytest

from cmpese.attention import (
    AttentionConfig,
    AttentionMode,
    make_attention_unit,
    recalibrate_and_add,
)
from cmpese.data import Dataset
from cmpese.errors import ActivationReleasedError, ConfigError, ShapeError
from cmpese.gradcheck import gradcheck
from cmpese.network import (
    BlockSpec,
    NetworkSpec,
    ResidualBlock,
    block_units,
    build,
    param_count,
    reference_mparams,
    resolve_block_kind,
    spec_from_dict,
    spec_to_dict,
    stage_plan,
)
from cmpese import tensor as T
from cmpese.tensor import Tensor, no_grad
from cmpese.train import evaluate


def wrn(depth, k, mode="none", classes=10, **att):
    return NetworkSpec(family="wrn", depth=depth, widen_factor=k, num_classes=classes,
                       attention=AttentionConfig(mode=mode, **att))


def preact(depth, mode="none", classes=10, block="auto"):
    return NetworkSpec(family="preact-resnet", depth=depth, num_classes=classes,
                       block=block, attention=AttentionConfig(mode=mode))


# ---------------------------------------------------------------------------
# stage plans
# ---------------------------------------------------------------------------

def test_wrn_16_8_plan():
    stem, blocks, final = stage_plan(wrn(16, 8))
    assert stem == 16
    assert len(blocks) == 6
    assert [b.out_channels for b in blocks] == [128, 128, 256, 256, 512, 512]
    assert [b.stride for b in blocks] == [1, 1, 2, 1, 2, 1]
    assert final == 512
    assert all(b.kind == "basic" for b in blocks)


def test_wrn_28_10_plan():
    _, blocks, final = stage_plan(wrn(28, 10))
    assert len(blocks) == 12
    assert final == 640
    # first block of each stage carries the projection
    assert [b.shortcut for b in blocks].count("projection") == 3


def test_preact_164_uses_bottlenecks():
    _, blocks, final = stage_plan(preact(164))
    assert len(blocks) == 54
    assert all(b.kind == "bottleneck" for b in blocks)
    assert final == 256


def test_preact_110_uses_basic_blocks():
    _, blocks, final = stage_plan(preact(110))
    assert len(blocks) == 54
    assert all(b.kind == "basic" for b in blocks)
    assert final == 64


def test_preact_110_explicit_bottleneck():
    # (110-2) % 9 == 0, so a bottleneck reading is also coherent when forced
    _, blocks, _ = stage_plan(preact(110, block="bottleneck"))
    assert len(blocks) == 36
    assert all(b.kind == "bottleneck" for b in blocks)


def test_published_fold_recipes():
    """WRN folds to 20 rows (n, m) = (20, C/10); preact-resnet to 16 columns
    (2C/16, 16). A pinned value overrides the family's recipe."""
    def folds(spec):
        _, blocks, _ = stage_plan(spec)
        return [(b.out_channels, make_attention_unit(b.out_channels, b.attention))
                for b in blocks]

    wrn_units = folds(wrn(28, 10, mode="folded3x3", t=16))
    assert len(wrn_units) == 12
    for c, unit in wrn_units:
        assert (unit.fold_n, unit.fold_m) == (20, c // 10)
    preact_units = folds(preact(164, mode="folded3x3"))
    assert len(preact_units) == 54
    for c, unit in preact_units:
        assert (unit.fold_n, unit.fold_m) == (2 * c // 16, 16)
    for c, unit in folds(wrn(28, 10, mode="folded3x3", t=16, fold_m=16)):
        assert (unit.fold_n, unit.fold_m) == (2 * c // 16, 16)


def test_spec_refuses_fold_outside_folded_mode():
    d = spec_to_dict(wrn(10, 1, mode="se"))
    d["attention"]["fold_m"] = 16
    with pytest.raises(ConfigError, match="folded3x3"):
        spec_from_dict(d)


@pytest.mark.parametrize("where, key, value", [
    ("attention", "fold_n", 0),
    ("attention", "fold_n", "20"),
    ("attention", "fold_m", -4),
    ("attention", "fold_m", True),
    ("attention", "t", "abc"),
    ("attention", "t", 2.9),
    ("network", "depth", 16.0),
    ("network", "widen_factor", "2"),
    ("network", "num_classes", 0),
])
def test_spec_refuses_bad_numeric_keys(where, key, value):
    d = spec_to_dict(wrn(16, 2, mode="folded3x3"))
    (d["attention"] if where == "attention" else d)[key] = value
    with pytest.raises(ConfigError, match=key):
        spec_from_dict(d)


@pytest.mark.parametrize("where, value", [
    ("attention", ["folded3x3", 16]),
    ("attention", "folded3x3"),
    ("network", 5),
    ("network", [["family", "wrn"], ["depth", 16]]),
])
def test_spec_refuses_a_section_that_is_not_an_object(where, value):
    d = spec_to_dict(wrn(16, 2, mode="folded3x3"))
    if where == "attention":
        d["attention"] = value
    else:
        d = value
    with pytest.raises(ConfigError, match=f"{where} must be an object"):
        spec_from_dict(d)


@pytest.mark.parametrize("key, value", [("family", 5), ("family", "WRN"),
                                        ("block", None), ("block", "bogus")])
def test_spec_refuses_unknown_family_and_block(key, value):
    d = spec_to_dict(preact(20))
    d[key] = value
    with pytest.raises(ConfigError, match=key):
        spec_from_dict(d)


@pytest.mark.parametrize("base, key, value", [("preact-resnet-20", "widen_factor", 4),
                                               ("wrn-16-2", "block", "basic"),
                                               ("wrn-16-2", "block", "bottleneck")])
def test_spec_refuses_a_key_its_family_does_not_use(base, key, value):
    d = spec_to_dict(preact(20) if base == "preact-resnet-20" else wrn(16, 2))
    d[key] = value
    with pytest.raises(ConfigError, match=key):
        spec_from_dict(d)


def test_block_units_list_each_pre_activated_conv():
    basic, bottleneck = (stage_plan(spec)[1][1] for spec in (wrn(10, 2), preact(164)))
    assert (basic.in_channels, basic.out_channels, basic.stride) == (32, 64, 2)
    assert block_units(basic) == [(32, 64, 3, 2), (64, 64, 3, 1)]
    assert (bottleneck.in_channels, bottleneck.out_channels) == (64, 64)
    assert block_units(bottleneck) == [(64, 16, 1, 1), (16, 16, 3, 1), (16, 64, 1, 1)]
    blk = build(preact(20, block="bottleneck"), rng=np.random.default_rng(0)).blocks[0]
    assert [(bn.gamma.size, conv.weight.shape, conv.stride, conv.padding)
            for bn, conv in blk.units] == [(16, (1, 1, 16, 16), 1, 0),
                                           (16, (3, 3, 16, 16), 1, 1),
                                           (16, (1, 1, 16, 64), 1, 0)]
    assert blk.units == [(blk.bn1, blk.conv1), (blk.bn2, blk.conv2), (blk.bn3, blk.conv3)]


def test_invalid_depths_rejected():
    with pytest.raises(ConfigError):
        stage_plan(wrn(17, 8))           # (17-4) % 6 != 0
    with pytest.raises(ConfigError):
        stage_plan(preact(100))          # fits neither 6u+2 nor 9u+2
    with pytest.raises(ConfigError):
        resolve_block_kind(preact(110, block="bogus"))


def test_unknown_family_rejected():
    with pytest.raises(ConfigError):
        stage_plan(NetworkSpec(family="vgg", depth=16))


# ---------------------------------------------------------------------------
# parameter accounting
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("mode", ["none", "se", "doublefc", "pairview1x1", "folded3x3"])
def test_analytic_count_matches_built_model_small(mode):
    spec = wrn(10, 2, mode=mode, t=4)
    model = build(spec, rng=np.random.default_rng(0))
    assert model.param_count() == param_count(spec)


@pytest.mark.parametrize("mode", ["none", "se", "doublefc"])
def test_analytic_count_matches_built_model_bottleneck(mode):
    spec = NetworkSpec(family="preact-resnet", depth=20, block="bottleneck",
                       attention=AttentionConfig(mode=mode, t=4))
    model = build(spec, rng=np.random.default_rng(0))
    assert model.param_count() == param_count(spec)


def test_reference_window_lookup():
    ref = reference_mparams(wrn(28, 10, mode="se", classes=100))
    assert ref == pytest.approx(36.8)
    assert abs(param_count(wrn(28, 10, mode="se", classes=100)) - ref * 1e6) <= 0.02 * ref * 1e6
    assert reference_mparams(wrn(10, 1)) is None


def test_projection_blocks_counted():
    # widening means every stage-opening block projects; removing attention
    # must change the count by exactly the attention parameters
    base = param_count(wrn(16, 4))
    se = param_count(wrn(16, 4, mode="se", t=4))
    per_block = [2 * (c // 4) * c for c in (64, 128, 256)]   # two blocks per stage
    assert se - base == 2 * sum(per_block)


# ---------------------------------------------------------------------------
# forward behaviour
# ---------------------------------------------------------------------------

def tiny(mode="none", classes=10):
    return build(wrn(10, 1, mode=mode, t=4, classes=classes),
                 rng=np.random.default_rng(7))


def test_forward_output_shape():
    model = tiny()
    model.eval()
    with no_grad():
        out = model.forward(Tensor(np.zeros((3, 32, 32, 3), dtype=np.float32)))
    assert out.data.shape == (3, 10)


def test_forward_rejects_bad_layout():
    model = tiny()
    with pytest.raises(ShapeError):
        model.forward(Tensor(np.zeros((3, 3, 32, 32), dtype=np.float32)))


def test_zero_classifier_gives_zero_logits():
    model = tiny()
    model.eval()
    model.fc.weight.data[...] = 0
    model.fc.bias.data[...] = 0
    with no_grad():
        out = model.forward(Tensor(np.random.default_rng(1)
                                   .standard_normal((2, 32, 32, 3)).astype(np.float32)))
    np.testing.assert_array_equal(out.data, np.zeros((2, 10), np.float32))


def test_single_pixel_perturbation_moves_logits():
    model = tiny(mode="folded3x3")
    model.eval()
    x = np.random.default_rng(2).standard_normal((1, 32, 32, 3)).astype(np.float32)
    with no_grad():
        a = model.forward(Tensor(x)).data
        x2 = x.copy()
        x2[0, 16, 16, 1] += 1.0
        b = model.forward(Tensor(x2)).data
    assert np.abs(a - b).max() > 1e-6


@pytest.mark.parametrize("mode", ["se", "doublefc", "pairview2x1", "pairview1x1",
                                  "folded3x3"])
def test_float64_and_float32_agree(mode):
    spec = wrn(10, 1, mode=mode, t=4)
    m32 = build(spec, rng=np.random.default_rng(3), dtype=np.float32)
    m64 = build(spec, rng=np.random.default_rng(3), dtype=np.float64)
    sd = {k: v.astype(np.float64) for k, v in m32.state_dict().items()}
    m64.load_state_dict(sd)
    m32.eval(); m64.eval()
    x = np.random.default_rng(4).standard_normal((2, 32, 32, 3))
    with no_grad():
        a = m32.forward(Tensor(x.astype(np.float32))).data
        b = m64.forward(Tensor(x)).data
    assert np.abs(a - b).max() < 1e-3


@pytest.mark.parametrize("spec", [wrn(10, 1), preact(11, block="bottleneck")],
                         ids=["basic", "bottleneck"])
def test_preactivations_are_fused_into_the_convs_padded_input(spec, monkeypatch):
    # each pre-activation is one batch_norm node, and each padded conv after
    # the stem reads the buffer that batch_norm padded for it
    model = build(spec, rng=np.random.default_rng(6))
    conv, reads = T.conv2d, []

    def spy(x, w, stride=1, padding=0):
        reads.append((x.shape[-1], padding, x.padded is not None))
        return conv(x, w, stride=stride, padding=padding)

    monkeypatch.setattr(T, "conv2d", spy)
    x = np.random.default_rng(8).standard_normal((2, 16, 16, 3)).astype(np.float32)
    out = model.forward(Tensor(x))
    assert "relu" not in {node.name for node in T._topo_order(out)}
    padded = [fused for cin, padding, fused in reads[1:] if padding]
    assert padded and all(padded)
    assert reads[0] == (3, 1, False)


@pytest.mark.parametrize("mode", ["se", "doublefc", "pairview2x1", "pairview1x1", "folded3x3"])
def test_block_tail_is_one_node_on_the_excitation(mode):
    # s * u_r + x_id is one node whose first parent is the excitation
    # itself: no reshape or product node lies between them
    model = build(wrn(10, 1, mode=mode, t=4), rng=np.random.default_rng(9))
    blk = model.blocks[0]
    assert blk.proj is None
    x = Tensor(np.random.default_rng(10).standard_normal((2, 8, 8, 16)), requires_grad=True)
    out = blk(x)
    assert out.name == "channel_scale_add"
    s, u_r, x_id = out._parents
    assert s.data is blk.attn.last_s
    assert u_r.name == "conv2d" and x_id is x


@pytest.mark.parametrize("mode, pools", [("none", 0), ("se", 1), ("doublefc", 2),
                                         ("pairview2x1", 2), ("pairview1x1", 2),
                                         ("folded3x3", 2)])
def test_block_squeezes_the_shortcut_only_for_a_unit_that_reads_it(monkeypatch, mode, pools):
    # SE reads the branch's squeeze alone; the competitive units read both
    model = build(wrn(10, 1, mode=mode, t=4), rng=np.random.default_rng(9))
    pooled = []
    pool = T.global_avg_pool

    def spy(x):
        pooled.append(x)
        return pool(x)

    monkeypatch.setattr(T, "global_avg_pool", spy)
    model.blocks[0](Tensor(np.random.default_rng(10).standard_normal((2, 8, 8, 16))))
    assert len(pooled) == pools


@pytest.mark.skipif(T._BLAS_GEMM is None, reason="no BLAS gemm binding")
def test_identity_block_forward_peak_without_a_graph():
    # WRN-16-2 stage-1 identity block at batch 64, as evaluation runs it:
    # beyond its input it peaks at one padded activation, one conv output and
    # the conv's block buffer (2.27x the input). With batch norm's temporary,
    # the product array of the tail and no early frees it peaked at 4.51x
    model = build(wrn(16, 2, mode="folded3x3", t=4), rng=np.random.default_rng(0))
    model.eval()
    blk = model.blocks[1]
    assert blk.proj is None and blk.spec.in_channels == 32
    x = Tensor(np.random.default_rng(1).standard_normal((64, 32, 32, 32), dtype=np.float32))
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        with no_grad():
            y = blk(x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert y.shape == x.shape
    assert peak - before <= 2.7 * x.data.nbytes


@pytest.mark.skipif(T._BLAS_GEMM is None, reason="no BLAS gemm binding")
def test_wrn_16_2_forward_without_a_graph_frees_each_projection_block_s_input():
    # above the parameters and the input, a WRN-16-2 eval forward at batch
    # 64 peaks at a block conv2: its shortcut, padded pre-activation and
    # output. Keeping the input of each projection block through that block
    # peaked at 30.2 MiB
    x = np.random.default_rng(1).standard_normal((64, 32, 32, 3), dtype=np.float32)
    tracemalloc.start()
    try:
        model = build(wrn(16, 2, mode="folded3x3", t=4), rng=np.random.default_rng(0))
        model.eval()
        before, _ = tracemalloc.get_traced_memory()
        with no_grad():
            logits = model.forward(Tensor(x))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert logits.shape == (64, 10)
    assert peak - before <= 27.5 * 2**20


def projection_block_and_input(requires_grad=False):
    """The ``projection`` block of ``RELEASING_BLOCKS`` in eval mode, and an
    input to it: an op output, or a leaf that requires grad."""
    blk = ResidualBlock(RELEASING_BLOCKS["projection"], rng=np.random.default_rng(6))
    blk.eval()
    a = np.random.default_rng(7).standard_normal((2, 8, 8, 8), dtype=np.float32)
    if requires_grad:
        return blk, Tensor(a, requires_grad=True)
    with no_grad():
        return blk, T.scale(Tensor(a), 1.0)


def test_a_projection_block_without_a_graph_drops_its_input():
    # its bn1 was the input's last reader
    blk, x = projection_block_and_input()
    with no_grad():
        y = blk(x)
    assert y.shape == (2, 4, 4, 16)
    assert x.shape == (2, 8, 8, 8) and x.dtype == np.float32
    with pytest.raises(ActivationReleasedError):
        x.data


def test_a_projection_block_keeps_a_leaf_that_requires_grad():
    # gradcheck's finite differences run the block under no_grad on it
    blk, x = projection_block_and_input(requires_grad=True)
    want = x.data.copy()
    with no_grad():
        blk(x)
    assert np.array_equal(x.data, want)


@pytest.mark.parametrize("requires_grad", [False, True])
def test_a_projection_block_in_a_graph_keeps_its_input(requires_grad):
    # in a graph the input is bn1's input, which its backward reads
    blk, x = projection_block_and_input(requires_grad)
    blk.train()
    want = x.data.copy()
    y = blk(x)
    assert y.requires_grad and np.array_equal(x.data, want)
    T.sum_over(y, (0, 1, 2, 3)).backward()
    assert blk.bn1.gamma.grad is not None


def evaluated(model, ds):
    """Top-1 and top-5 error of ``evaluate`` in batches of 4, and the
    logits of one forward of every image without a graph."""
    errors = evaluate(model, ds, batch_size=4, topk=(1, 5))
    with no_grad():
        return errors, model.forward(Tensor(ds.images)).data


@pytest.mark.parametrize("mode", [m.value for m in AttentionMode])
def test_evaluation_is_bitwise_that_of_a_forward_that_drops_nothing(mode, monkeypatch):
    model = tiny(mode=mode)
    rng = np.random.default_rng(9)
    ds = Dataset(rng.standard_normal((10, 16, 16, 3), dtype=np.float32),
                 rng.integers(0, 10, 10), 10, "test")
    dropped, drop = [], Tensor.drop
    monkeypatch.setattr(Tensor, "drop", lambda t: dropped.append(t.shape) or drop(t))
    got_errors, got = evaluated(model, ds)
    # in each of the four forwards, each projection block drops its input
    # after bn1 and its projection output after the tail
    assert len(dropped) == 4 * 4
    assert dropped[-4:] == [(10, 16, 16, 16), (10, 8, 8, 32), (10, 8, 8, 32), (10, 4, 4, 64)]
    monkeypatch.setattr(Tensor, "drop", lambda t: None)
    want_errors, want = evaluated(model, ds)
    assert got_errors == want_errors
    assert np.array_equal(got, want)


def test_identity_block_graph_holds_no_pre_activation():
    # the same block in training: the graph holds the two conv outputs and
    # the block output, and backward rebuilds the pre-activations. Holding
    # the two padded pre-activations too, it held 5.29x the input
    model = build(wrn(16, 2, mode="folded3x3", t=4), rng=np.random.default_rng(0))
    blk = model.blocks[1]
    assert blk.proj is None and blk.spec.in_channels == 32
    x = Tensor(np.random.default_rng(1).standard_normal((64, 32, 32, 32), dtype=np.float32),
               requires_grad=True)
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        y = blk(x)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert y.requires_grad
    assert held - before <= 3.2 * x.data.nbytes


# an identity block, a stride-2 block whose projection reads the first
# pre-activation too, and a bottleneck, whose 1x1 units use pad=0
RELEASING_BLOCKS = {
    "identity": BlockSpec("basic", 8, 8, 1, AttentionConfig(mode="folded3x3", t=4)),
    "projection": BlockSpec("basic", 8, 16, 2, AttentionConfig(mode="pairview1x1", t=4)),
    "bottleneck": BlockSpec("bottleneck", 8, 16, 1, AttentionConfig(mode="se", t=4)),
}


def held_block_forward(blk, x):
    """``blk.forward`` through the tensor API, releasing nothing."""
    h, x_id = x, x
    for i, (bn, conv) in enumerate(blk.units):
        h = T.batch_norm(h, bn.gamma, bn.beta, bn.running_mean, bn.running_var, True,
                         relu=True, pad=conv.padding)
        if i == 0 and blk.proj is not None:
            x_id = T.conv2d(h, blk.proj.weight, stride=blk.proj.stride)
        h = T.conv2d(h, conv.weight, stride=conv.stride, padding=conv.padding)
    return recalibrate_and_add(h, x_id, blk.attn)


def block_gradients(blk, forward):
    """The output of ``forward(x)`` and the gradients of x and of every
    parameter of ``blk`` under a fixed weighting of it."""
    rng = np.random.default_rng(4)
    x = Tensor(rng.standard_normal((4, 8, 8, 8), dtype=np.float32), requires_grad=True)
    blk.zero_grad()
    out = forward(x)
    probe = Tensor(rng.standard_normal(out.shape, dtype=np.float32))
    T.sum_over(T.mul(out, probe), (0, 1, 2, 3)).backward()
    return [out.data, x.grad] + [p.grad for p in blk.parameters()]


@pytest.mark.parametrize("kind", list(RELEASING_BLOCKS))
def test_released_block_gradients_are_bitwise_the_held_ones(kind):
    blk = ResidualBlock(RELEASING_BLOCKS[kind], rng=np.random.default_rng(3))
    got = block_gradients(blk, blk)
    want = block_gradients(blk, lambda x: held_block_forward(blk, x))
    assert len(got) == len(want) and all(g is not None for g in got)
    for a, b in zip(got, want):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("kind", list(RELEASING_BLOCKS))
def test_backward_rebuilds_each_pre_activation_once(kind, monkeypatch):
    # the conv's weight gradient, the projection's and the ReLU mask share
    # one rebuild; a held pre-activation is not rebuilt
    blk = ResidualBlock(RELEASING_BLOCKS[kind], rng=np.random.default_rng(3))
    built = T._centered
    calls = []
    monkeypatch.setattr(T, "_centered", lambda *a: calls.append(1) or built(*a))
    for forward, rebuilds in ((blk, len(blk.units)),
                              (lambda x: held_block_forward(blk, x), 0)):
        x = Tensor(np.random.default_rng(5).standard_normal((2, 8, 8, 8), dtype=np.float32),
                   requires_grad=True)
        out = forward(x)
        calls.clear()
        T.sum_over(out, (0, 1, 2, 3)).backward()
        assert len(calls) == rebuilds


def test_released_projection_block_passes_gradcheck():
    blk = ResidualBlock(RELEASING_BLOCKS["projection"], rng=np.random.default_rng(6),
                        dtype=np.float64)
    x = Tensor(np.random.default_rng(7).standard_normal((2, 4, 4, 8)), requires_grad=True)
    probe = Tensor(np.random.default_rng(8).standard_normal((2, 2, 2, 16)))
    params = {"input": x, **dict(blk.named_parameters())}
    gradcheck(lambda _: T.sum_over(T.mul(blk(x), probe), (0, 1, 2, 3)), params)


def test_projection_block_graph_holds_no_projection_output(monkeypatch):
    # the pool reads the projection output only for its shape, and the tail
    # passes its gradient on unchanged, so the graph drops it after the tail:
    # a forward that keeps its array from outside holds that much more
    blk = ResidualBlock(RELEASING_BLOCKS["projection"], rng=np.random.default_rng(6))
    x = Tensor(np.random.default_rng(7).standard_normal((16, 16, 16, 8), dtype=np.float32),
               requires_grad=True)
    outputs, kept = [], []
    project = blk.proj.forward

    def held_after_forward(keep):
        def spy(h):
            outputs.append(project(h))
            if keep:
                kept.append(outputs[-1].data)
            return outputs[-1]

        monkeypatch.setattr(blk.proj, "forward", spy)
        tracemalloc.start()
        try:
            return blk(x), tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()

    held_after_forward(keep=False)   # first calls allocate a few caches
    out, held = held_after_forward(keep=False)
    x_id = outputs[-1]
    assert x_id.shape == (16, 8, 8, 16) and x_id.dtype == np.float32
    with pytest.raises(ActivationReleasedError):
        x_id.data
    T.sum_over(out, (0, 1, 2, 3)).backward()
    assert x.grad is not None and blk.proj.weight.grad is not None
    _, held_with_it = held_after_forward(keep=True)
    assert abs(held_with_it - held - kept[0].nbytes) < 1024


def copying_accumulate_grad(self, g):
    """``Tensor.accumulate_grad`` that copies every first gradient into a
    C-ordered array."""
    if self.grad is None:
        self.grad = np.asarray(g, dtype=self.dtype, order="C")
    else:
        self.grad = (self.grad + g).astype(self.dtype, copy=False)


@pytest.mark.parametrize("kind", list(RELEASING_BLOCKS))
def test_block_gradients_are_bitwise_those_of_copied_first_gradients(kind, monkeypatch):
    blk = ResidualBlock(RELEASING_BLOCKS[kind], rng=np.random.default_rng(3))
    got = block_gradients(blk, blk)
    monkeypatch.setattr(Tensor, "accumulate_grad", copying_accumulate_grad)
    want = block_gradients(blk, blk)
    for a, b in zip(got, want):
        assert np.array_equal(a, b)


def test_pre_activation_gradient_is_a_view_of_its_conv_s_padded_input_gradient(monkeypatch):
    # each pre-activation of an identity block has one reader, its 3x3 conv,
    # whose input gradient is the interior of a padded array: it is stored
    # as given, not copied
    blk = ResidualBlock(RELEASING_BLOCKS["identity"], rng=np.random.default_rng(3))
    stored = []
    accumulate = Tensor.accumulate_grad

    def spy(self, g):
        accumulate(self, g)
        if self.name == "batch_norm" and self.padded is not None:   # a pre-activation
            stored.append((self.grad, g, self.padded.shape))

    monkeypatch.setattr(Tensor, "accumulate_grad", spy)
    block_gradients(blk, blk)
    assert len(stored) == 2
    for grad, g, padded_shape in stored:
        assert grad is g and not grad.flags.c_contiguous
        assert g.base is not None and g.base.shape == padded_shape
        assert np.shares_memory(grad, g.base)


def test_a_read_only_first_gradient_is_copied():
    # a pool's gradient is a stride-0 broadcast: no tensor keeps one
    x = Tensor(np.ones((2, 3, 3, 4), np.float32), requires_grad=True)
    T.sum_over(T.global_avg_pool(x), (0, 1)).backward()
    assert x.grad.flags.writeable and x.grad.flags.c_contiguous
    assert np.array_equal(x.grad, np.full(x.shape, 1 / 9, np.float32))


def pool_inputs(monkeypatch):
    """The inputs of every ``global_avg_pool`` call from here on."""
    seen = []
    pool = T.global_avg_pool

    def spy(h):
        seen.append(h)
        return pool(h)

    monkeypatch.setattr(T, "global_avg_pool", spy)
    return seen


@pytest.mark.parametrize("training", [True, False])
def test_a_forward_without_a_graph_releases_no_final_output(training, monkeypatch):
    model = tiny()
    model.train() if training else model.eval()
    seen = pool_inputs(monkeypatch)
    with no_grad():
        model.forward(Tensor(np.ones((2, 16, 16, 3), np.float32)))
    assert seen[-1].data.shape == (2, 4, 4, 64)


def test_attention_units_one_per_block():
    model = tiny(mode="se")
    units = model.attention_units()
    assert len(units) == 3
    assert all(u is not None for u in units)
    assert all(u is None for u in tiny().attention_units())


def test_identity_squeeze_uses_post_projection_shortcut():
    """Where the shortcut projects, the identity embedding must have the
    output width, not the input width."""
    model = build(wrn(10, 2, mode="doublefc", t=4), rng=np.random.default_rng(5))
    model.eval()
    seen = []
    for blk in model.blocks:
        orig = blk.attn.excite

        def spy(u, x, _orig=orig, _c=blk.spec.out_channels):
            seen.append((u.data.shape[1], x.data.shape[1], _c))
            return _orig(u, x)

        blk.attn.excite = spy
    with no_grad():
        model.forward(Tensor(np.zeros((1, 32, 32, 3), dtype=np.float32)))
    assert len(seen) == 3
    for u_c, x_c, out_c in seen:
        assert u_c == x_c == out_c


def test_state_dict_round_trip():
    src = tiny(mode="folded3x3")
    dst = tiny(mode="folded3x3")
    dst.load_state_dict(src.state_dict())
    for (ka, a), (kb, b) in zip(src.named_parameters(), dst.named_parameters()):
        assert ka == kb
        np.testing.assert_array_equal(a.data, b.data)


def test_named_parameters_are_unique_and_ordered():
    model = tiny(mode="doublefc")
    names = [k for k, _ in model.named_parameters()]
    assert len(names) == len(set(names))
    assert names[0].startswith("stem")
    assert names == [k for k, _ in model.named_parameters()]  # stable ordering


def test_modules_walk_parents_first_in_registration_order():
    model = tiny(mode="se")
    prefixes = [prefix for prefix, _ in model.modules()]
    assert prefixes[:9] == ["", "stem.", "block0.", "block0.bn1.", "block0.conv1.",
                            "block0.bn2.", "block0.conv2.", "block0.attn.",
                            "block0.attn.reduce."]
    assert prefixes[-2:] == ["bn_final.", "fc."]
    walked = [prefix + name for prefix, m in model.modules() for name in m._params]
    assert walked == [k for k, _ in model.named_parameters()]
    assert all(m.training is False for _, m in model.eval().modules())


def test_every_module_call_runs_its_forward(monkeypatch):
    from cmpese.layers import BatchNorm2d, Conv2d
    calls = []
    for cls in (Conv2d, BatchNorm2d):
        def spy(self, *args, _forward=cls.forward, **kwargs):
            calls.append(type(self).__name__)
            return _forward(self, *args, **kwargs)
        monkeypatch.setattr(cls, "forward", spy)
    model = tiny(mode="pairview2x1")
    with no_grad():
        model(Tensor(np.zeros((1, 8, 8, 3), dtype=np.float32)))
    # stem + 2 per block + 2 projections; 2 per block + 1 per unit + final
    assert calls.count("Conv2d") == 1 + 2 * 3 + 2
    assert calls.count("BatchNorm2d") == 2 * 3 + 3 + 1


def test_load_state_dict_shape_mismatch_raises():
    model = tiny()
    sd = model.state_dict()
    key = next(k for k in sd if k.endswith("weight"))
    sd[key] = np.zeros((1, 1), dtype=np.float32)
    with pytest.raises(ShapeError):
        model.load_state_dict(sd)


# ---------------------------------------------------------------------------
# NetworkSpec serialization
# ---------------------------------------------------------------------------

def test_spec_round_trip():
    spec = NetworkSpec(family="preact-resnet", depth=164, num_classes=100,
                       block="bottleneck",
                       attention=AttentionConfig(mode="folded3x3", t=16, fold_m=16))
    again = spec_from_dict(spec_to_dict(spec))
    assert again == spec
    assert spec_to_dict(again) == spec_to_dict(spec)


def test_spec_dict_defaults():
    d = spec_to_dict(wrn(16, 8))
    assert d["family"] == "wrn" and d["depth"] == 16 and d["widen_factor"] == 8
    assert d["attention"]["mode"] == "none"


def test_spec_unknown_keys_rejected():
    d = spec_to_dict(wrn(16, 8))
    d["dropout"] = 0.3
    with pytest.raises(ConfigError):
        spec_from_dict(d)
    d2 = spec_to_dict(wrn(16, 8))
    d2["attention"]["temperature"] = 2
    with pytest.raises(ConfigError):
        spec_from_dict(d2)
