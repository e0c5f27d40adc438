"""Excitation tracing, per-block statistics, and inner-image export."""

import numpy as np
import pytest

from cmpese.attention import MODE_NAMES, AttentionConfig, fold_map, reweight_map, \
    stack_pair_view
from cmpese.diagnostics import (
    AttentionTrace,
    BlockTrace,
    ascii_heatmap,
    attention_stats,
    capture_trace,
    export_inner_images,
    read_inner_images,
    stats_to_csv,
)
from cmpese.errors import ConfigError
from cmpese.network import NetworkSpec, build
from cmpese.tensor import Tensor, no_grad

import oracles


def probe_batch(n=4, seed=0):
    return np.random.default_rng(seed).standard_normal((n, 32, 32, 3)).astype(np.float32)


def small_model(mode, seed=1, **att):
    spec = NetworkSpec(family="wrn", depth=10, widen_factor=1, num_classes=10,
                       attention=AttentionConfig(mode=mode, t=4, **att))
    model = build(spec, rng=np.random.default_rng(seed))
    model.eval()
    return model


# ---------------------------------------------------------------------------
# trace capture
# ---------------------------------------------------------------------------

def test_trace_covers_every_block():
    trace = capture_trace(small_model("se"), probe_batch())
    assert len(trace.blocks) == 3
    assert [b.index for b in trace.blocks] == [0, 1, 2]
    assert [b.channels for b in trace.blocks] == [16, 32, 64]
    assert all(b.mode == "se" for b in trace.blocks)


def test_four_samples_give_four_vectors_per_block():
    trace = capture_trace(small_model("doublefc"), probe_batch(n=4))
    assert trace.sample_count == 4
    for b in trace.blocks:
        assert b.s.shape == (4, b.channels)


def test_excitations_strictly_inside_unit_interval():
    trace = capture_trace(small_model("folded3x3"), probe_batch())
    for b in trace.blocks:
        assert np.all(b.s > 0.0) and np.all(b.s < 1.0)


def test_zero_parameter_units_give_exactly_half():
    model = small_model("doublefc")
    for unit in model.attention_units():
        for _, p in unit.named_parameters():
            p.data[...] = 0
    trace = capture_trace(model, probe_batch(n=3))
    for b in trace.blocks:
        np.testing.assert_array_equal(b.s, np.full((3, b.channels), 0.5, np.float32))
    for row in attention_stats(trace):
        assert row["mean"] == 0.5
        assert row["variance"] == 0.0


def test_mode_none_has_nothing_to_trace():
    with pytest.raises(ConfigError, match="none"):
        capture_trace(small_model("none"), probe_batch())


def test_sample_order_only_permutes_rows():
    model = small_model("se")
    probe = probe_batch(n=5)
    perm = np.array([3, 0, 4, 1, 2])
    a = capture_trace(model, probe)
    b = capture_trace(model, probe[perm])
    for ba, bb in zip(a.blocks, b.blocks):
        np.testing.assert_array_equal(ba.s[perm], bb.s)


def spy_on_excite(model):
    """Record (squeezes, returned excitation) of every unit's excite call."""
    calls = []
    for u in model.attention_units():
        def spy(*squeezes, excite=u.excite):
            calls.append((squeezes, excite(*squeezes)))
            return calls[-1][1]
        u.excite = spy
    return calls


def test_plain_forward_binds_the_returned_excitation():
    model = small_model("pairview2x1")
    calls = spy_on_excite(model)
    with no_grad():
        model.forward(Tensor(probe_batch(n=2)))
    assert len(calls) == 3
    for u, (_, s) in zip(model.attention_units(), calls):
        assert u.last_s is s.data
        assert u.last_map.shape == (2, 2, u.channels)


@pytest.mark.parametrize("mode", ["pairview2x1", "folded3x3"])
def test_trace_survives_a_later_forward(mode):
    model = small_model(mode)
    trace = capture_trace(model, probe_batch(n=2, seed=0))
    kept = [(b.s.copy(), b.before.copy(), b.after.copy()) for b in trace.blocks]
    other = capture_trace(model, probe_batch(n=2, seed=1))
    for b, (s, before, after), o in zip(trace.blocks, kept, other.blocks):
        assert not np.array_equal(o.s, s)
        np.testing.assert_array_equal(b.s, s)
        np.testing.assert_array_equal(b.before, before)
        np.testing.assert_array_equal(b.after, after)


@pytest.mark.parametrize("mode", [m for m in MODE_NAMES if m != "none"])
def test_capture_matches_an_independent_eval_forward(mode):
    model = small_model(mode)
    probe = probe_batch(n=3)
    trace = capture_trace(model, probe)
    calls = spy_on_excite(model)
    with no_grad():
        model.forward(Tensor(probe))
    assert len(calls) == len(trace.blocks) == 3
    for b, u, ((u_hat, x_hat), s) in zip(trace.blocks, model.attention_units(), calls):
        assert b.s.tobytes() == s.data.tobytes()
        if b.layout is None:
            assert b.before is None and b.after is None
            continue
        want = stack_pair_view(u_hat, x_hat)
        if b.layout == "folded":
            want = fold_map(want, u.fold_n, u.fold_m)
        assert b.before.tobytes() == want.data.tobytes()


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

def fixture_trace(s_rows):
    s = np.asarray(s_rows, dtype=np.float32)
    block = BlockTrace(index=0, channels=s.shape[1], mode="se", s=s)
    return AttentionTrace(blocks=[block], sample_count=s.shape[0])


def test_constant_half_trace_stats():
    rows = attention_stats(fixture_trace(np.full((4, 8), 0.5)))
    assert rows == [{"block": 0, "mean": 0.5, "variance": 0.0}]


def test_two_channel_extremes_have_quarter_variance():
    rows = attention_stats(fixture_trace([[0.0, 1.0]]))
    assert rows[0]["mean"] == 0.5
    assert rows[0]["variance"] == 0.25    # population variance over channels


def test_stats_match_two_pass_oracle():
    s = np.random.default_rng(2).random((5, 12))
    rows = attention_stats(fixture_trace(s))
    want_mean, _ = oracles.mean_var_two_pass(s.ravel().astype(np.float64))
    want_var = np.mean([oracles.mean_var_two_pass(row.astype(np.float64))[1]
                        for row in s])
    assert rows[0]["mean"] == pytest.approx(want_mean, rel=1e-6)
    assert rows[0]["variance"] == pytest.approx(want_var, rel=1e-6)


def test_empty_trace_rejected():
    with pytest.raises(ConfigError):
        attention_stats(AttentionTrace(blocks=[], sample_count=0))


def test_stats_csv_round_trip(tmp_path):
    trace = capture_trace(small_model("se"), probe_batch())
    rows = attention_stats(trace)
    path = stats_to_csv(rows, tmp_path / "stats.csv")
    lines = open(path).read().splitlines()
    assert lines[0] == "block,mean,variance"
    assert len(lines) == len(rows) + 1
    for line, row in zip(lines[1:], rows):
        block, mean, var = line.split(",")
        assert int(block) == row["block"]
        assert float(mean) == pytest.approx(row["mean"], rel=1e-8)
        assert float(var) == pytest.approx(row["variance"], rel=1e-8)


# ---------------------------------------------------------------------------
# inner-image export
# ---------------------------------------------------------------------------

def test_folded_map_shapes_follow_channel_widths():
    trace = capture_trace(small_model("folded3x3", fold_m=16), probe_batch(n=2))
    shapes = {b.channels: b.before.shape for b in trace.blocks}
    # m=16: n = 2C/16 rows
    assert shapes[64] == (2, 8, 16)
    assert shapes[32] == (2, 4, 16)
    assert shapes[16] == (2, 2, 16)


def test_stacked_map_shapes_are_two_rows():
    trace = capture_trace(small_model("pairview2x1"), probe_batch(n=2))
    for b in trace.blocks:
        assert b.layout == "stacked"
        assert b.before.shape == (2, 2, b.channels)


def test_export_round_trips_through_csv(tmp_path):
    trace = capture_trace(small_model("folded3x3"), probe_batch(n=2))
    path = export_inner_images(trace, tmp_path)
    back = read_inner_images(path)
    for b in trace.blocks:
        for i in range(2):
            # %.9g is enough digits to recover float32 exactly
            got_before = back[(b.index, i, "before")].astype(np.float32)
            got_after = back[(b.index, i, "after")].astype(np.float32)
            np.testing.assert_array_equal(got_before, b.before[i])
            np.testing.assert_array_equal(got_after, b.after[i])


def test_identity_reweighting_exports_identical_phases(tmp_path):
    before = np.random.default_rng(3).standard_normal((2, 4, 8)).astype(np.float32)
    s = np.ones((2, 16), dtype=np.float32)
    block = BlockTrace(index=0, channels=16, mode="folded3x3", s=s, layout="folded",
                       before=before, after=reweight_map(before, s, "folded"))
    path = export_inner_images(AttentionTrace([block], 2), tmp_path)
    back = read_inner_images(path)
    for i in range(2):
        np.testing.assert_array_equal(back[(0, i, "before")], back[(0, i, "after")])


def test_captured_reweighting_touches_only_residual_rows():
    for mode in ("pairview2x1", "folded3x3"):
        trace = capture_trace(small_model(mode), probe_batch(n=3))
        for b in trace.blocks:
            n_rows = b.before.shape[1]
            if b.layout == "stacked":
                scale = b.s[:, None, :]
                res, ident = b.before[:, :1, :], b.before[:, 1:, :]
                res_after, ident_after = b.after[:, :1, :], b.after[:, 1:, :]
            else:
                scale = b.s.reshape(3, n_rows // 2, 1, b.before.shape[2])
                res, ident = b.before[:, 0::2, None, :], b.before[:, 1::2, None, :]
                res_after = b.after[:, 0::2, None, :]
                ident_after = b.after[:, 1::2, None, :]
            np.testing.assert_array_equal(ident_after, ident)
            np.testing.assert_array_equal(res_after, res * scale)


def test_export_requires_inner_imaging_mode(tmp_path):
    trace = capture_trace(small_model("se"), probe_batch(n=2))
    with pytest.raises(ConfigError, match="inner"):
        export_inner_images(trace, tmp_path)


def test_export_unwritable_path_raises(tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("occupied")
    trace = capture_trace(small_model("folded3x3"), probe_batch(n=1))
    with pytest.raises(OSError):
        export_inner_images(trace, blocker / "sub")


def test_ascii_heatmap_shape_and_extremes():
    art = ascii_heatmap(np.array([[0.0, 1.0], [0.5, 0.25]]))
    lines = art.splitlines()
    assert len(lines) == 2 and all(len(l) == 2 for l in lines)
    assert lines[0][0] == " " and lines[0][1] == "@"
    flat = ascii_heatmap(np.zeros((3, 3)))
    assert set("".join(flat.splitlines())) == {" "}
