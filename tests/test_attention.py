"""Excitation units: exact layouts, degeneration to the SE baseline,
fold/unfold bijection, and agreement with brute-force references."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmpese import tensor as T
from cmpese.attention import (
    AttentionConfig,
    AttentionMode,
    CompetitiveDoubleFC,
    FoldedPairView3x3,
    PairView1x1,
    PairView2x1,
    SqueezeExcite,
    attention_param_count,
    fold_map,
    kernel_count,
    make_attention_unit,
    parse_mode,
    recalibrate_and_add,
    resolve_fold_shape,
    reweight_map,
    stack_pair_view,
    unfold_map,
)
from cmpese.errors import ConfigError, ShapeError
from cmpese.tensor import Tensor

import oracles

RNG = np.random.default_rng(42)


def rand_vecs(n, c, dtype=np.float64):
    return (Tensor(RNG.standard_normal((n, c)).astype(dtype)),
            Tensor(RNG.standard_normal((n, c)).astype(dtype)))


def zero_params(module):
    for _, p in module.named_parameters():
        p.data[...] = 0
    return module


# ---------------------------------------------------------------------------
# baseline SE and double-FC
# ---------------------------------------------------------------------------

def test_se_zero_params_gives_half():
    unit = zero_params(SqueezeExcite(8, t=4))
    u, _ = rand_vecs(3, 8, np.float32)
    np.testing.assert_array_equal(unit.excite(u).data, np.full((3, 8), 0.5, np.float32))


def test_se_zero_input_gives_half():
    unit = SqueezeExcite(8, t=4, rng=np.random.default_rng(0))
    s = unit.excite(Tensor(np.zeros((2, 8), dtype=np.float32)))
    np.testing.assert_array_equal(s.data, np.full((2, 8), 0.5, np.float32))


def test_se_matches_straight_line_reference():
    unit = SqueezeExcite(8, t=4, rng=np.random.default_rng(1), dtype=np.float64)
    u, _ = rand_vecs(5, 8)
    want = oracles.se_reference(u.data, unit.reduce.weight.data, unit.expand.weight.data)
    np.testing.assert_allclose(unit.excite(u).data, want, rtol=1e-12)


def test_double_fc_matches_straight_line_reference():
    unit = CompetitiveDoubleFC(8, t=4, rng=np.random.default_rng(2), dtype=np.float64)
    u, x = rand_vecs(5, 8)
    want = oracles.double_fc_reference(
        u.data, x.data, unit.reduce_res.weight.data, unit.reduce_id.weight.data,
        unit.expand.weight.data)
    np.testing.assert_allclose(unit.excite(u, x).data, want, rtol=1e-12)


def test_double_fc_zero_params_gives_half():
    unit = zero_params(CompetitiveDoubleFC(8, t=4))
    u, x = rand_vecs(3, 8, np.float32)
    np.testing.assert_array_equal(unit.excite(u, x).data, np.full((3, 8), 0.5, np.float32))


def test_double_fc_zero_identity_branch_degenerates_to_se_bitwise():
    """With the identity embedding zeroed, the joint unit must equal plain SE
    run on the matching weight slices — bit for bit."""
    c, t = 16, 4
    r = c // t
    se = SqueezeExcite(c, t, rng=np.random.default_rng(3), dtype=np.float64)
    joint = CompetitiveDoubleFC(c, t, rng=np.random.default_rng(4), dtype=np.float64)
    joint.reduce_res.weight.data[...] = se.reduce.weight.data
    joint.reduce_id.weight.data[...] = 0.0
    joint.expand.weight.data[:, :r] = se.expand.weight.data
    u, x = rand_vecs(6, c)
    assert np.array_equal(joint.excite(u, x).data, se.excite(u).data)


# ---------------------------------------------------------------------------
# pair-view stacking and folding
# ---------------------------------------------------------------------------

def test_stack_layout_residual_first():
    u = Tensor(np.array([[1.0, 2.0, 3.0, 4.0]]))
    x = Tensor(np.array([[5.0, 6.0, 7.0, 8.0]]))
    np.testing.assert_array_equal(stack_pair_view(u, x).data,
                                  [[[1, 2, 3, 4], [5, 6, 7, 8]]])


def test_stack_single_channel():
    u = Tensor(np.array([[1.5]]))
    x = Tensor(np.array([[-2.5]]))
    np.testing.assert_array_equal(stack_pair_view(u, x).data, [[[1.5], [-2.5]]])


def test_stack_length_mismatch_raises():
    with pytest.raises(ShapeError):
        stack_pair_view(Tensor(np.zeros((1, 3))), Tensor(np.zeros((1, 4))))


def test_fold_row_pattern_c4_m2():
    u = Tensor(np.array([[1.0, 2.0, 3.0, 4.0]]))
    x = Tensor(np.array([[5.0, 6.0, 7.0, 8.0]]))
    folded = fold_map(stack_pair_view(u, x), 4, 2)
    np.testing.assert_array_equal(folded.data, [[[1, 2], [5, 6], [3, 4], [7, 8]]])


def test_fold_m_equals_c_is_degenerate():
    u, x = rand_vecs(2, 6)
    v = stack_pair_view(u, x)
    np.testing.assert_array_equal(fold_map(v, 2, 6).data, v.data)


def test_fold_invalid_shape_rejected():
    v = stack_pair_view(*rand_vecs(1, 4))
    with pytest.raises(ConfigError):
        fold_map(v, 3, 3)   # 3*3 != 8


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([4, 8, 12, 16, 24, 60]), st.data())
def test_unfold_fold_roundtrip(c, data):
    divisors = [m for m in range(1, c + 1) if c % m == 0]
    m = data.draw(st.sampled_from(divisors))
    n = 2 * c // m
    u, x = rand_vecs(3, c)
    v = stack_pair_view(u, x)
    back = unfold_map(fold_map(v, n, m), n, m)
    np.testing.assert_array_equal(back.data, v.data)


def test_fold_rows_carry_source_tags():
    # even rows must hold residual channels, odd rows identity channels
    c, m = 12, 4
    u = Tensor(np.arange(c, dtype=np.float64)[None, :])
    x = Tensor(-np.arange(c, dtype=np.float64)[None, :] - 100)
    folded = fold_map(stack_pair_view(u, x), 2 * c // m, m).data[0]
    assert np.all(folded[0::2] >= 0)
    assert np.all(folded[1::2] <= -100)


def test_resolve_fold_shape_recipes_and_fallback():
    assert resolve_fold_shape(64) == (8, 16)
    assert resolve_fold_shape(160, fold_n=20) == (20, 16)
    assert resolve_fold_shape(8) == (2, 8)                        # m falls back to C
    assert resolve_fold_shape(48, fold_m=20) == (6, 16)           # 20 ∤ 48 -> 16
    assert resolve_fold_shape(16, fold_n=20) == (32, 1)           # 2C/20 not integral
    with pytest.raises(ConfigError):
        resolve_fold_shape(16, fold_n=3, fold_m=2)


def test_resolve_fold_shape_matches_the_three_case_rule():
    """A requested n asks for m = 2C // n, then takes the divisor rule: the
    same (n, m) as the rule that first kept an n dividing C into whole row
    pairs, on every C <= 640 with n or m <= 64. The case of both, which
    did not change, runs on a sample of C."""
    sizes = [None] + list(range(1, 65))
    for c in range(1, 641):
        for fold_n in sizes:
            for fold_m in (sizes if fold_n is None or c <= 16 or c % 64 == 0 else [None]):
                try:
                    want = oracles.fold_shape_three_branch(c, fold_n, fold_m)
                except ValueError:
                    with pytest.raises(ConfigError):
                        resolve_fold_shape(c, fold_n, fold_m)
                    continue
                assert resolve_fold_shape(c, fold_n, fold_m) == want, (c, fold_n, fold_m)


# ---------------------------------------------------------------------------
# pair-view convolution units
# ---------------------------------------------------------------------------

def selector_2x1(top, bottom):
    unit = PairView2x1(8, t=4, n_kernels=1, use_bn=False, dtype=np.float64)
    unit.kernels.data[...] = np.array([[[[top]]], [[[bottom]]]])
    return unit


def test_selector_kernel_passes_residual_row_through():
    unit = selector_2x1(1.0, 0.0)
    u, x = rand_vecs(4, 8)
    vmap = stack_pair_view(u, x)
    got = unit._scan(vmap)
    np.testing.assert_array_equal(got.data[:, 0, :], u.data)


def test_two_selector_kernels_average_the_rows():
    unit = PairView2x1(8, t=4, n_kernels=2, use_bn=False, dtype=np.float64)
    unit.kernels.data[...] = 0
    unit.kernels.data[0, 0, 0, 0] = 1.0   # kernel 0 = [1, 0]^T
    unit.kernels.data[1, 0, 0, 1] = 1.0   # kernel 1 = [0, 1]^T
    u, x = rand_vecs(4, 8)
    got = unit._scan(stack_pair_view(u, x))
    np.testing.assert_allclose(got.data[:, 0, :], (u.data + x.data) / 2, rtol=1e-15)


def test_pairview_2x1_selector_degenerates_to_se_bitwise():
    c, t = 16, 4
    se = SqueezeExcite(c, t, rng=np.random.default_rng(5), dtype=np.float64)
    unit = PairView2x1(c, t, n_kernels=1, use_bn=False, dtype=np.float64)
    unit.kernels.data[...] = np.array([[[[1.0]]], [[[0.0]]]])
    unit.encode.weight.data[...] = se.reduce.weight.data
    unit.expand.weight.data[...] = se.expand.weight.data
    u, x = rand_vecs(6, c)
    assert np.array_equal(unit.excite(u, x).data, se.excite(u).data)


def test_scan_matches_brute_force_2x1_and_1x1():
    for cls, pad in ((PairView2x1, 0), (PairView1x1, 0)):
        unit = cls(8, t=2, use_bn=False, rng=np.random.default_rng(6), dtype=np.float64)
        assert unit.n_kernels == 4
        u, x = rand_vecs(3, 8)
        vmap = stack_pair_view(u, x)
        want = oracles.pairview_scan_reference(vmap.data, unit.kernels.data, padding=pad)
        np.testing.assert_allclose(unit._scan(vmap).data, want, rtol=1e-12)


def test_folded_scan_identity_kernel_returns_input_map():
    unit = FoldedPairView3x3(16, t=4, n_kernels=1, use_bn=False, dtype=np.float64)
    unit.kernels.data[...] = 0
    unit.kernels.data[1, 1, 0, 0] = 1.0
    folded = fold_map(stack_pair_view(*rand_vecs(2, 16)), unit.fold_n, unit.fold_m)
    np.testing.assert_array_equal(unit._scan(folded).data, folded.data)


def test_folded_scan_zero_kernels_give_zero_map():
    unit = FoldedPairView3x3(16, t=4, use_bn=False, dtype=np.float64)
    unit.kernels.data[...] = 0
    folded = fold_map(stack_pair_view(*rand_vecs(2, 16)), unit.fold_n, unit.fold_m)
    assert np.all(unit._scan(folded).data == 0)


def test_folded_scan_matches_brute_force():
    unit = FoldedPairView3x3(16, t=4, n_kernels=3, use_bn=False,
                             rng=np.random.default_rng(7), dtype=np.float64)
    folded = fold_map(stack_pair_view(*rand_vecs(2, 16)), unit.fold_n, unit.fold_m)
    want = oracles.pairview_scan_reference(folded.data, unit.kernels.data, padding=1)
    np.testing.assert_allclose(unit._scan(folded).data, want, rtol=1e-12)


def test_kernel_average_is_order_invariant_under_sorted_summation():
    """Permuting the kernel bank permutes per-kernel outputs only; summing
    those outputs in sorted order gives identical averages."""
    unit = PairView1x1(8, t=2, use_bn=False, rng=np.random.default_rng(8), dtype=np.float64)
    u, x = rand_vecs(2, 8)
    vmap = T.reshape(stack_pair_view(u, x), (2, 2, 8, 1))
    per_kernel = T.conv2d(vmap, unit.kernels).data          # (N, 2, 8, eps)
    perm = np.random.default_rng(9).permutation(unit.n_kernels)
    a = np.sort(per_kernel, axis=3).sum(axis=3)
    b = np.sort(per_kernel[..., perm], axis=3).sum(axis=3)
    assert np.array_equal(a, b)


def test_scan_normalization_standardizes_the_map():
    unit = PairView1x1(32, t=4, rng=np.random.default_rng(10))
    unit.train()
    u, x = rand_vecs(16, 32, np.float32)
    out = unit._scan(stack_pair_view(u, x)).data
    assert abs(out.mean()) < 1e-5
    assert abs(out.std() - 1.0) < 1e-2


# ---------------------------------------------------------------------------
# block application and invariants
# ---------------------------------------------------------------------------

def rand_maps(n, h, c):
    u = Tensor(RNG.standard_normal((n, h, h, c)).astype(np.float32))
    x = Tensor(RNG.standard_normal((n, h, h, c)).astype(np.float32))
    return u, x


def test_mode_none_is_plain_addition():
    u, x = rand_maps(2, 4, 8)
    out = recalibrate_and_add(u, x, None)
    np.testing.assert_array_equal(out.data, u.data + x.data)


@pytest.mark.parametrize("mode", ["se", "doublefc", "pairview2x1", "pairview1x1",
                                  "folded3x3"])
def test_zero_params_scale_residual_by_half(mode):
    u, x = rand_maps(2, 4, 8)
    unit = zero_params(make_attention_unit(8, AttentionConfig(mode=mode, t=4)))
    unit.eval()
    out = recalibrate_and_add(u, x, unit)
    np.testing.assert_allclose(out.data, 0.5 * u.data + x.data, rtol=1e-6)


@pytest.mark.parametrize("mode", ["se", "doublefc", "pairview2x1", "pairview1x1",
                                  "folded3x3"])
def test_output_channel_mean_is_linear_in_scaling(mode):
    u, x = rand_maps(3, 5, 8)
    unit = make_attention_unit(8, AttentionConfig(mode=mode, t=4),
                               rng=np.random.default_rng(11))
    unit.eval()
    out = recalibrate_and_add(u, x, unit)
    s = unit.excite(T.global_avg_pool(u), T.global_avg_pool(x)).data
    want = s * u.data.mean(axis=(1, 2)) + x.data.mean(axis=(1, 2))
    np.testing.assert_allclose(out.data.mean(axis=(1, 2)), want, rtol=2e-4)


@settings(max_examples=15, deadline=None)
@given(st.sampled_from(["se", "doublefc", "pairview2x1", "pairview1x1", "folded3x3"]),
       st.floats(0.1, 100.0), st.integers(0, 2 ** 31 - 1))
def test_excitation_strictly_inside_unit_interval(mode, weight_scale, seed):
    rng = np.random.default_rng(seed)
    unit = make_attention_unit(8, AttentionConfig(mode=mode, t=4), rng=rng)
    unit.eval()
    for _, p in unit.named_parameters():
        p.data *= p.data.dtype.type(weight_scale)
    u = Tensor((rng.standard_normal((2, 8)) * weight_scale).astype(np.float32))
    x = Tensor((rng.standard_normal((2, 8)) * weight_scale).astype(np.float32))
    s = unit.excite(u, x).data
    assert np.all(s > 0.0) and np.all(s < 1.0)


def test_residual_shortcut_shape_mismatch_raises():
    u = Tensor(np.zeros((1, 4, 4, 8), dtype=np.float32))
    x = Tensor(np.zeros((1, 2, 2, 8), dtype=np.float32))
    with pytest.raises(ShapeError):
        recalibrate_and_add(u, x, None)


# ---------------------------------------------------------------------------
# parameter arithmetic
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("mode", ["none", "se", "doublefc", "pairview2x1",
                                  "pairview1x1", "folded3x3"])
@pytest.mark.parametrize("c,t", [(8, 4), (16, 16), (64, 16), (96, 16)])
def test_param_count_formula_matches_built_unit(mode, c, t):
    cfg = AttentionConfig(mode=mode, t=t)
    unit = make_attention_unit(c, cfg)
    built = 0 if unit is None else unit.param_count()
    assert attention_param_count(c, cfg) == built


_BN_AFFINE = [("norm.gamma", (1,)), ("norm.beta", (1,))]
_BN_STATS = [("norm.running_mean", (1,)), ("norm.running_var", (1,))]
CHECKPOINT_LAYOUT = {   # C = 16, t = 4: r = 4 and 4 kernels
    "se": [("reduce.weight", (4, 16)), ("expand.weight", (16, 4))],
    "doublefc": [("reduce_res.weight", (4, 16)), ("reduce_id.weight", (4, 16)),
                 ("expand.weight", (16, 8))],
    "pairview2x1": [("kernels", (2, 1, 1, 4)), *_BN_AFFINE, ("encode.weight", (4, 16)),
                    ("expand.weight", (16, 4)), *_BN_STATS],
    "pairview1x1": [("kernels", (1, 1, 1, 4)), *_BN_AFFINE, ("encode.weight", (4, 32)),
                    ("expand.weight", (16, 4)), *_BN_STATS],
    "folded3x3": [("kernels", (3, 3, 1, 4)), *_BN_AFFINE, ("encode.weight", (4, 32)),
                  ("expand.weight", (16, 4)), *_BN_STATS],
}


@pytest.mark.parametrize("mode", sorted(CHECKPOINT_LAYOUT))
def test_checkpoint_layout_is_pinned(mode):
    """State-dict keys, their order and shapes are the checkpoint format."""
    unit = make_attention_unit(16, AttentionConfig(mode=mode, t=4))
    got = [(k, v.shape) for k, v in unit.state_dict().items()]
    assert got == CHECKPOINT_LAYOUT[mode]


def test_param_count_ordering():
    for c in (16, 64, 160):
        cfg = lambda m: AttentionConfig(mode=m, t=16)
        assert attention_param_count(c, cfg("se")) > 0
        assert (attention_param_count(c, cfg("doublefc"))
                > attention_param_count(c, cfg("se")))


# ---------------------------------------------------------------------------
# settings that would do nothing are refused
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("mode", ["none", "se", "doublefc", "pairview2x1", "pairview1x1"])
@pytest.mark.parametrize("fold", [{"fold_n": 4}, {"fold_m": 16}])
def test_config_refuses_fold_outside_folded_mode(mode, fold):
    with pytest.raises(ConfigError, match="folded3x3"):
        AttentionConfig(mode=mode, **fold)


@pytest.mark.parametrize("cls", [SqueezeExcite, CompetitiveDoubleFC])
def test_unit_without_scan_refuses_n_kernels(cls):
    with pytest.raises(ConfigError, match="no scan"):
        cls(8, t=4, n_kernels=2)


@pytest.mark.parametrize("cls", [SqueezeExcite, CompetitiveDoubleFC])
def test_unit_without_scan_refuses_use_bn_false(cls):
    with pytest.raises(ConfigError, match="no scan"):
        cls(8, t=4, use_bn=False)


@pytest.mark.parametrize("cls", [SqueezeExcite, CompetitiveDoubleFC, PairView2x1, PairView1x1])
@pytest.mark.parametrize("fold", [{"fold_n": 4}, {"fold_m": 4}])
def test_unit_without_fold_refuses_fold_shape(cls, fold):
    with pytest.raises(ConfigError, match="no folded map"):
        cls(8, t=4, **fold)


def test_kernel_count_rule():
    assert kernel_count(64, 16) == 4
    assert kernel_count(8, 16) == 1    # floored at one kernel
    assert kernel_count(160, 16) == 10


def test_parse_mode_rejects_unknown():
    assert parse_mode("SE") is AttentionMode.SE
    with pytest.raises(ConfigError):
        parse_mode("squeeze")


def test_reweight_scales_residual_rows_only():
    before = RNG.standard_normal((2, 4, 3))
    s = RNG.random((2, 6))
    after = reweight_map(before, s, "folded")
    np.testing.assert_array_equal(after[:, 1::2, :], before[:, 1::2, :])
    np.testing.assert_allclose(after[:, 0::2, :],
                               before[:, 0::2, :] * s.reshape(2, 2, 3), rtol=1e-7)
