"""Core tensor ops: forward semantics against reference implementations,
backward passes against central finite differences."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmpese import tensor as T
from cmpese.attention import AttentionConfig
from cmpese.errors import GraphReleasedError, NonFiniteError, ShapeError
from cmpese.gradcheck import gradcheck, leaf
from cmpese.network import NetworkSpec, build
from cmpese.tensor import Tensor, finite_checks, no_grad

from oracles import conv2d_loops

RNG = np.random.default_rng(20240811)


def scalarize(t):
    return T.sum_over(t, tuple(range(t.ndim))) if t.ndim else t


# ---------------------------------------------------------------------------
# forward semantics
# ---------------------------------------------------------------------------

# (input shape, kernel shape, stride, padding): edge shapes that get both a
# loop-reference and a gradient check
CONV_EDGE_CASES = [
    ((2, 6, 5, 3), (1, 1, 3, 4), 2, 0),    # 1x1 stride 2
    ((2, 5, 4, 3), (2, 1, 3, 2), 1, 1),    # 2x1 kernel
    ((2, 7, 5, 2), (3, 3, 2, 3), 2, 1),    # stride 2 on odd input extents
    ((2, 5, 5, 1), (3, 3, 1, 2), 1, 1),    # Cin = 1
]


def test_conv2d_matches_loop_reference():
    cases = [((2, 6, 5, 3), (kh, kh if kh != 2 else 1, 3, 4), stride, padding)
             for stride, padding, kh in
             [(1, 0, 3), (1, 1, 3), (2, 1, 3), (2, 0, 1), (1, 0, 2), (1, 0, 1)]]
    for x_shape, w_shape, stride, padding in cases + CONV_EDGE_CASES:
        x = RNG.standard_normal(x_shape)
        w = RNG.standard_normal(w_shape)
        got = T.conv2d(Tensor(x), Tensor(w), stride=stride, padding=padding).data
        want = conv2d_loops(x, w, stride=stride, padding=padding)
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12)


def test_conv2d_batch_spanning_several_slices_matches_loop_reference():
    # 64x64 outputs per image: two images fill the first im2col slice of
    # _SLICE_ROWS rows and the third is a ragged last slice
    x = RNG.standard_normal((3, 64, 64, 2))
    w = RNG.standard_normal((3, 3, 2, 2))
    assert T._SLICE_ROWS // (64 * 64) == 2
    got = T.conv2d(Tensor(x), Tensor(w), stride=1, padding=1).data
    np.testing.assert_allclose(got, conv2d_loops(x, w, 1, 1), rtol=1e-10, atol=1e-12)


def test_conv2d_graph_keeps_no_im2col_matrix():
    # an im2col graph would hold a 9x copy of the input for a 3x3 kernel;
    # besides its output this one holds the padded input
    x = Tensor(RNG.standard_normal((4, 16, 16, 8)).astype(np.float32), requires_grad=True)
    w = Tensor(RNG.standard_normal((3, 3, 8, 8)).astype(np.float32), requires_grad=True)
    padded_bytes = 4 * 18 * 18 * 8 * 4
    tracemalloc.start()
    try:
        y = T.conv2d(x, w, stride=1, padding=1)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert y.requires_grad
    assert held - y.data.nbytes < 2 * padded_bytes


def test_conv2d_output_extent():
    x = Tensor(np.zeros((1, 7, 7, 2), dtype=np.float32))
    w = Tensor(np.zeros((3, 3, 2, 1), dtype=np.float32))
    assert T.conv2d(x, w, stride=2, padding=1).shape == (1, 4, 4, 1)


def test_conv2d_shape_errors_name_the_axis():
    x = Tensor(np.zeros((1, 4, 4, 3), dtype=np.float32))
    w = Tensor(np.zeros((3, 3, 2, 1), dtype=np.float32))
    with pytest.raises(ShapeError, match="axis 3"):
        T.conv2d(x, w)
    big = Tensor(np.zeros((5, 5, 3, 1), dtype=np.float32))
    with pytest.raises(ShapeError, match="does not fit"):
        T.conv2d(x, big)


def test_sigmoid_strictly_inside_unit_interval():
    x = Tensor(np.array([-1e6, -40.0, 0.0, 40.0, 1e6], dtype=np.float32))
    s = T.sigmoid(x).data
    assert np.all(s > 0.0) and np.all(s < 1.0)
    assert s[2] == 0.5


def test_cross_entropy_matches_log_softmax():
    z = RNG.standard_normal((5, 7))
    y = RNG.integers(0, 7, size=5)
    loss = T.cross_entropy(Tensor(z), y)
    ref = -np.mean(
        [z[i, y[i]] - np.log(np.exp(z[i]).sum()) for i in range(5)])
    np.testing.assert_allclose(float(loss.data), ref, rtol=1e-12)


def test_cross_entropy_gradient_rows_sum_to_zero():
    z = Tensor(RNG.standard_normal((4, 6)), requires_grad=True)
    y = np.array([0, 1, 2, 3])
    T.cross_entropy(z, y).backward()
    np.testing.assert_allclose(z.grad.sum(axis=1), 0.0, atol=1e-12)


def test_batch_norm_single_element_batch_collapses_to_shift():
    x = Tensor(RNG.standard_normal((1, 1, 1, 4)))
    gamma = Tensor(np.ones(4))
    beta = Tensor(np.full(4, 0.7))
    rm, rv = Tensor(np.zeros(4)), Tensor(np.ones(4))
    out = T.batch_norm(x, gamma, beta, rm, rv, training=True)
    np.testing.assert_allclose(out.data, 0.7, atol=1e-3)


def test_batch_norm_eval_before_any_update_uses_init_stats():
    x = RNG.standard_normal((3, 2, 2, 4))
    gamma = Tensor(np.full(4, 2.0))
    beta = Tensor(np.zeros(4))
    rm, rv = Tensor(np.zeros(4)), Tensor(np.ones(4))
    out = T.batch_norm(Tensor(x), gamma, beta, rm, rv, training=False)
    np.testing.assert_allclose(out.data, 2.0 * x / np.sqrt(1 + 1e-5), rtol=1e-6)


def test_batch_norm_running_stats_blend():
    x = RNG.standard_normal((8, 3, 3, 2))
    rm, rv = Tensor(np.zeros(2)), Tensor(np.ones(2))
    T.batch_norm(Tensor(x), Tensor(np.ones(2)), Tensor(np.zeros(2)), rm, rv,
                 training=True)
    np.testing.assert_allclose(rm.data, 0.1 * x.mean(axis=(0, 1, 2)), rtol=1e-6)
    np.testing.assert_allclose(
        rv.data, 0.9 * 1.0 + 0.1 * x.var(axis=(0, 1, 2)), rtol=1e-6)


def test_batch_norm_normalizes_training_batch():
    x = 3.0 + 2.0 * RNG.standard_normal((16, 4, 4, 3))
    out = T.batch_norm(Tensor(x), Tensor(np.ones(3)), Tensor(np.zeros(3)),
                       Tensor(np.zeros(3)), Tensor(np.ones(3)), training=True)
    np.testing.assert_allclose(out.data.mean(axis=(0, 1, 2)), 0.0, atol=1e-6)
    np.testing.assert_allclose(out.data.std(axis=(0, 1, 2)), 1.0, atol=1e-3)


def test_no_grad_builds_no_graph():
    x = Tensor(np.ones(3), requires_grad=True)
    with no_grad():
        y = T.mul(x, x)
    assert not y.requires_grad and y._backward is None


def test_float32_chain_stays_float32():
    x = Tensor(np.ones((2, 3, 3, 2), dtype=np.float32), requires_grad=True)
    w = Tensor(np.ones((3, 3, 2, 2), dtype=np.float32), requires_grad=True)
    y = T.relu(T.conv2d(x, w, padding=1))
    assert y.dtype == np.float32
    scalarize(y).backward()
    assert x.grad.dtype == np.float32 and w.grad.dtype == np.float32


def test_backward_requires_scalar_without_explicit_grad():
    x = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ShapeError):
        T.mul(x, x).backward()


def test_stack_rows_layout_and_grad_split():
    a = Tensor(np.array([[1.0, 2.0]]), requires_grad=True)
    b = Tensor(np.array([[3.0, 4.0]]), requires_grad=True)
    v = T.stack_rows(a, b)
    np.testing.assert_array_equal(v.data, [[[1, 2], [3, 4]]])
    scalarize(T.mul(v, Tensor(np.array([[[1.0, 0.0], [0.0, 5.0]]])))).backward()
    np.testing.assert_array_equal(a.grad, [[1, 0]])
    np.testing.assert_array_equal(b.grad, [[0, 5]])


# ---------------------------------------------------------------------------
# backward frees the graph it walks
# ---------------------------------------------------------------------------

def test_backward_releases_interior_nodes_and_keeps_leaf_grads():
    a = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
    b = Tensor(np.array([4.0, 5.0, -6.0]), requires_grad=True)
    c = T.mul(a, b)
    d = T.relu(c)
    loss = scalarize(d)
    loss.backward()
    for node in (c, d, loss):
        assert node.grad is None and node._parents == ()
    np.testing.assert_array_equal(a.grad, [4.0, 0.0, 0.0])
    np.testing.assert_array_equal(b.grad, [1.0, 0.0, 0.0])


def test_tensor_consumed_twice_gets_the_exact_sum():
    a = Tensor(np.array([0.1, 0.7, -1.3]), requires_grad=True)
    scalarize(T.add(a, a)).backward()
    np.testing.assert_array_equal(a.grad, [2.0, 2.0, 2.0])
    # a residual: an interior node read by both the branch and the shortcut
    x = Tensor(np.array([0.5, -0.25, 2.0]), requires_grad=True)
    u = T.scale(x, 3.0)
    scalarize(T.add(u, T.mul(u, u))).backward()
    u_data = 3.0 * x.data
    np.testing.assert_array_equal(x.grad, (1.0 + (u_data + u_data)) * 3.0)


@pytest.mark.parametrize("a_first", [True, False])
def test_shared_stack_rows_gradient_survives_later_accumulation(a_first):
    # add() hands one array to both of its inputs: v and the leaf w share it,
    # and with one row a's gradient from stack_rows is a view into it. a then
    # gets a second gradient, which must not be written into that view.
    a = Tensor(np.array([[1.0, 2.0]]), requires_grad=True)
    b = Tensor(np.array([[3.0, 4.0]]), requires_grad=True)
    w = Tensor(np.zeros((1, 2, 2)), requires_grad=True)
    m = np.array([[[1.0, 2.0], [3.0, 4.0]]])
    k = np.array([[10.0, 20.0]])
    y = T.add(T.stack_rows(a, b), w)
    terms = [scalarize(T.mul(y, Tensor(m))), scalarize(T.mul(a, Tensor(k)))]
    T.add(*(terms if a_first else terms[::-1])).backward()
    np.testing.assert_array_equal(w.grad, m)
    np.testing.assert_array_equal(a.grad, m[:, 0] + k)
    np.testing.assert_array_equal(b.grad, m[:, 1])


def test_second_backward_through_a_graph_raises():
    a = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    h = T.relu(a)
    loss = scalarize(T.mul(h, h))
    loss.backward()
    first = a.grad.copy()
    with pytest.raises(GraphReleasedError):
        loss.backward()
    np.testing.assert_array_equal(a.grad, first)
    # a new graph built on a node whose graph is gone cannot reach the leaf
    with pytest.raises(GraphReleasedError, match="relu"):
        scalarize(T.scale(h, 2.0)).backward()


def test_finite_checks_name_the_first_nonfinite_gradient():
    a = Tensor(np.array([1e-30], dtype=np.float32), requires_grad=True, name="a")
    b = Tensor(np.array([3e38], dtype=np.float32), requires_grad=True, name="b")
    with finite_checks(), np.errstate(over="ignore"):
        y = T.scale(T.mul(a, b), 10.0)
        with pytest.raises(NonFiniteError, match="'a'"):
            scalarize(y).backward()


@pytest.mark.parametrize("mode", ["none", "folded3x3"])
def test_backward_peak_stays_near_the_forward_graph(mode):
    # keeping every interior gradient and saved array to the end of the walk
    # peaked at 1.9x the after-forward graph
    spec = NetworkSpec(family="wrn", depth=10, widen_factor=1, num_classes=4,
                       attention=AttentionConfig(mode=mode, t=4))
    model = build(spec, rng=np.random.default_rng(2))
    x = Tensor(RNG.standard_normal((16, 16, 16, 3)).astype(np.float32))
    y = RNG.integers(0, 4, size=16)
    model.zero_grad()
    tracemalloc.start()
    try:
        loss = T.cross_entropy(model.forward(x), y)
        graph, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        loss.backward()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.3 * graph


# ---------------------------------------------------------------------------
# gradients vs finite differences (float64)
# ---------------------------------------------------------------------------

def fd_case(make_params, fn):
    rng = np.random.default_rng(99)
    params = make_params(rng)
    res = gradcheck(fn, params)
    assert res.max_rel_err < 1e-4


def test_grad_add_mul_broadcast():
    fd_case(
        lambda rng: {"a": leaf(rng, (3, 4)), "b": leaf(rng, (4,)), "c": leaf(rng, (3, 1))},
        lambda p: scalarize(T.mul(T.add(p["a"], p["b"]), p["c"])),
    )


def test_grad_linear_and_bias():
    fd_case(
        lambda rng: {"x": leaf(rng, (3, 5)), "w": leaf(rng, (2, 5)), "b": leaf(rng, (2,))},
        lambda p: scalarize(T.relu(T.linear(p["x"], p["w"], p["b"]))),
    )


def test_grad_dual_linear():
    fd_case(
        lambda rng: {"ha": leaf(rng, (3, 2)), "hb": leaf(rng, (3, 2)), "w": leaf(rng, (5, 4))},
        lambda p: scalarize(T.sigmoid(T.dual_linear(p["ha"], p["hb"], p["w"]))),
    )


def test_grad_conv2d_small_input_two_kernels():
    # 1x4x4x2 input, two 3x3 kernels
    fd_case(
        lambda rng: {"x": leaf(rng, (1, 4, 4, 2)), "w": leaf(rng, (3, 3, 2, 2))},
        lambda p: scalarize(T.conv2d(p["x"], p["w"], stride=1, padding=0)),
    )


def test_grad_conv2d_strided_padded():
    fd_case(
        lambda rng: {"x": leaf(rng, (2, 5, 5, 2)), "w": leaf(rng, (3, 3, 2, 3))},
        lambda p: scalarize(T.conv2d(p["x"], p["w"], stride=2, padding=1)),
    )


@pytest.mark.parametrize("x_shape,w_shape,stride,padding", CONV_EDGE_CASES)
def test_grad_conv2d_edge_shapes(x_shape, w_shape, stride, padding):
    def fn(p):
        y = T.conv2d(p["x"], p["w"], stride=stride, padding=padding)
        return scalarize(T.mul(y, y))
    fd_case(lambda rng: {"x": leaf(rng, x_shape), "w": leaf(rng, w_shape)}, fn)


def test_grad_reductions_and_reshapes():
    def fn(p):
        h = T.transpose(T.reshape(p["x"], (2, 2, 3, 2)), (0, 2, 1, 3))
        return scalarize(T.mul(T.mean_over(h, (1, 2)), T.sum_over(h, (1, 2))))
    fd_case(lambda rng: {"x": leaf(rng, (2, 6, 2))}, fn)


def test_grad_batch_norm_training_mode():
    def fn(p):
        rm, rv = Tensor(np.zeros(3)), Tensor(np.ones(3))
        out = T.batch_norm(p["x"], p["g"], p["b"], rm, rv, training=True)
        return scalarize(T.mul(out, out))
    fd_case(lambda rng: {"x": leaf(rng, (4, 2, 2, 3)), "g": leaf(rng, (3,), 0.5),
                         "b": leaf(rng, (3,), 0.5)}, fn)


def test_grad_channel_scale_and_pool():
    def fn(p):
        s = T.sigmoid(p["s"])
        return scalarize(T.global_avg_pool(T.channel_scale(s, p["u"])))
    fd_case(lambda rng: {"s": leaf(rng, (2, 3)), "u": leaf(rng, (2, 4, 4, 3))}, fn)


def test_grad_cross_entropy():
    y = np.array([1, 0, 2])
    fd_case(lambda rng: {"z": leaf(rng, (3, 4))},
            lambda p: T.cross_entropy(p["z"], y))


# ---------------------------------------------------------------------------
# property checks
# ---------------------------------------------------------------------------

@settings(max_examples=30, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4))
def test_broadcast_grad_shapes_match_leaves(n, m, k):
    a = Tensor(np.ones((n, 1, k)), requires_grad=True)
    b = Tensor(np.ones((m, k)), requires_grad=True)
    scalarize(T.mul(a, b)).backward()
    assert a.grad.shape == a.shape
    assert b.grad.shape == b.shape
    np.testing.assert_allclose(a.grad, m * np.ones((n, 1, k)))


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 6), st.integers(1, 8))
def test_global_avg_pool_is_spatial_mean(h, c):
    x = RNG.standard_normal((2, h, h, c))
    got = T.global_avg_pool(Tensor(x)).data
    np.testing.assert_allclose(got, x.mean(axis=(1, 2)), rtol=1e-6)
