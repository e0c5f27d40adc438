"""Core tensor ops: forward semantics against reference implementations,
backward passes against central finite differences."""

import resource
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmpese import tensor as T
from cmpese.attention import AttentionConfig
from cmpese.errors import ActivationReleasedError, GraphReleasedError, NonFiniteError, ShapeError
from cmpese.gradcheck import gradcheck, leaf
from cmpese.network import NetworkSpec, build
from cmpese.tensor import Tensor, finite_checks, no_grad

from oracles import (batch_norm_saving_xn, channel_scale_add_composite, conv2d_dx_shift_gemm,
                     conv2d_flat_dx_whole_grid, conv2d_flat_forward_slices, conv2d_im2col_blocks,
                     conv2d_loops, equal_image_runs, sigmoid_by_sign)

RNG = np.random.default_rng(20240811)


def scalarize(t):
    return T.sum_over(t, tuple(range(t.ndim))) if t.ndim else t


class GemmSpy:
    """Counts the calls conv2d makes to the BLAS binding it wraps."""

    def __init__(self, gemm):
        self.gemm, self.calls = gemm, 0

    def __call__(self, *args):
        self.calls += 1
        return self.gemm(*args)


@pytest.fixture
def flat_conv(monkeypatch):
    """Lowers conv2d's size floors to 1, so that every eligible stride-1
    shape runs on the flat padded grid, and returns a spy on the BLAS
    binding; returns None where there is no binding."""
    if T._BLAS_GEMM is None:
        return None
    spy = GemmSpy(T._BLAS_GEMM)
    monkeypatch.setattr(T, "_BLAS_GEMM", spy)
    monkeypatch.setattr(T, "_FLAT_FORWARD_MIN", 1)
    monkeypatch.setattr(T, "_FLAT_DX_MIN", 1)
    monkeypatch.setattr(T, "_FLAT_FORWARD_MIN_CIN", 1)
    return spy


@pytest.fixture
def conv_path(request, monkeypatch):
    """``flat``: as ``flat_conv``, skipped without a binding; ``fallback``:
    no binding, as on a numpy without one. Returns the spy or None."""
    if request.param == "fallback":
        monkeypatch.setattr(T, "_BLAS_GEMM", None)
        return None
    if T._BLAS_GEMM is None:
        pytest.skip("no BLAS gemm binding: conv2d has only the fallback path")
    return request.getfixturevalue("flat_conv")


def takes_flat_path(x_shape, w_shape, stride):
    return stride == 1 and w_shape[:2] != (1, 1) and x_shape[3] > 1


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


@pytest.mark.parametrize("conv_path", ["flat", "fallback"], indirect=True)
def test_conv2d_paths_match_loop_reference(conv_path):
    cases = [((2, 6, 5, 3), (3, 3, 3, 4), 1, 1), ((1, 7, 4, 2), (3, 3, 2, 3), 1, 0),
             ((2, 5, 4, 3), (2, 1, 3, 2), 1, 1), ((2, 5, 6, 3), (1, 3, 3, 2), 1, 0)]
    for x_shape, w_shape, stride, padding in cases:
        x = RNG.standard_normal(x_shape)
        w = RNG.standard_normal(w_shape)
        got = T.conv2d(Tensor(x), Tensor(w), stride=stride, padding=padding).data
        want = conv2d_loops(x, w, stride=stride, padding=padding)
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12)
    if conv_path is not None:   # one GEMM per kernel tap, one batch slice each
        assert conv_path.calls == 9 + 9 + 2 + 3


def test_conv2d_batch_spanning_several_slices_matches_loop_reference(monkeypatch):
    # 64x64 outputs per image: two images fill a block of _SLICE_ROWS
    # outputs, so the three go as equal blocks of one and two images
    x = RNG.standard_normal((3, 64, 64, 2))
    w = RNG.standard_normal((3, 3, 2, 2))
    assert T._SLICE_ROWS // (64 * 64) == 2
    assert T._image_blocks(3, 2) == [(0, 1), (1, 3)]
    got = T.conv2d(Tensor(x), Tensor(w), stride=1, padding=1).data
    np.testing.assert_allclose(got, conv2d_loops(x, w, 1, 1), rtol=1e-10, atol=1e-12)
    monkeypatch.setattr(T, "_BLAS_GEMM", None)
    im2col = T.conv2d(Tensor(x), Tensor(w), stride=1, padding=1).data
    np.testing.assert_allclose(im2col, conv2d_loops(x, w, 1, 1), rtol=1e-10, atol=1e-12)


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


# (input, kernel, stride): WRN-16-2's 3x3 convs at batch 64 (stages 1-3 and
# both stride-2 convs), the desk WRN-10-1's at batch 32, a batch of 40
# images, the stem, a 1x1 stride-2 projection and the stage-3 pairview2x1
# scan over one channel (kw*Cin == 1)
IM2COL_SHAPES = [
    ((64, 32, 32, 32), (3, 3, 32, 32), 1), ((64, 16, 16, 64), (3, 3, 64, 64), 1),
    ((64, 8, 8, 128), (3, 3, 128, 128), 1), ((64, 32, 32, 32), (3, 3, 32, 64), 2),
    ((64, 16, 16, 64), (3, 3, 64, 128), 2), ((32, 16, 16, 16), (3, 3, 16, 16), 1),
    ((32, 8, 8, 32), (3, 3, 32, 32), 1), ((32, 4, 4, 64), (3, 3, 64, 64), 1),
    ((32, 16, 16, 16), (3, 3, 16, 32), 2), ((40, 16, 16, 64), (3, 3, 64, 64), 1),
    ((64, 32, 32, 3), (3, 3, 3, 16), 1), ((64, 32, 32, 32), (1, 1, 32, 64), 2),
    ((64, 2, 128, 1), (2, 1, 1, 4), 1),
]
# images per block of WRN-16-2's five 3x3 convs under the default 4.5 MiB
# workspace: its rows (3x3xCin float32 values each) take fewer images than
# the 8192-output bound
WRN16X2_IMAGES = {
    IM2COL_SHAPES[0]: [4] * 16, IM2COL_SHAPES[1]: [8] * 8, IM2COL_SHAPES[2]: [16] * 4,
    IM2COL_SHAPES[3]: [16] * 4, IM2COL_SHAPES[4]: [32] * 2,
}


# a 1 MiB workspace cuts blocks of fewer images, or of one image where one is
# larger; a 40 kB one cuts the scan's 64 images into two blocks
@pytest.mark.parametrize("x_shape, w_shape, stride, workspace",
                         [(*shape, ws) for shape in IM2COL_SHAPES for ws in (None, 1 << 20)]
                         + [(*IM2COL_SHAPES[-1], 40_000)])
def test_conv2d_workspace_is_bitwise_the_whole_image_blocks(x_shape, w_shape, stride, workspace,
                                                            monkeypatch):
    # the forward pass on the im2col path (no BLAS binding) and dW against
    # fresh copies of the same equal whole-image blocks, each at most
    # _SLICE_ROWS outputs and the workspace's bytes of im2col rows
    monkeypatch.setattr(T, "_BLAS_GEMM", None)
    if workspace is not None:
        monkeypatch.setattr(T, "_WORKSPACE_BYTES", workspace)
    rng = np.random.default_rng(21)
    x = rng.standard_normal(x_shape, dtype=np.float32)
    w = Tensor(rng.standard_normal(w_shape, dtype=np.float32), requires_grad=True)
    padding = (w_shape[0] - 1) // 2
    y = T.conv2d(Tensor(x), w, stride=stride, padding=padding)
    g = rng.standard_normal(y.shape, dtype=np.float32)
    row_bytes = w_shape[0] * w_shape[1] * w_shape[2] * 4
    images = equal_image_runs(x_shape[0], y.shape[1] * y.shape[2],
                              min(T._SLICE_ROWS, T._WORKSPACE_BYTES // row_bytes))
    if workspace is None and (x_shape, w_shape, stride) in WRN16X2_IMAGES:
        assert images == WRN16X2_IMAGES[x_shape, w_shape, stride]
    want_y, want_dw = conv2d_im2col_blocks(x, w.data, g, stride, padding, images=images)
    assert np.array_equal(y.data, want_y)
    y.backward(g)
    assert np.array_equal(w.grad, want_dw)


def test_conv2d_forward_blocks_are_equal(monkeypatch):
    # 129 images of 4x4 outputs over 64 channels: the bound allows 128
    # images, and 129 cut as 128 + 1 would leave a last GEMM of 16 rows, which
    # BLAS runs in its small-matrix kernel with other bits; 64 + 65 do not
    monkeypatch.setattr(T, "_BLAS_GEMM", None)
    x = RNG.standard_normal((129, 4, 4, 64), dtype=np.float32)
    w = RNG.standard_normal((3, 3, 64, 64), dtype=np.float32)
    assert T._WORKSPACE_BYTES // (9 * 64 * 4) // 16 == 128
    assert T._image_blocks(129, 128) == [(0, 64), (64, 129)]
    with no_grad():
        y = T.conv2d(Tensor(x), Tensor(w), padding=1).data
    want, _ = conv2d_im2col_blocks(x, w, np.zeros_like(y), 1, 1, T._SLICE_ROWS)
    assert np.array_equal(y, want)


def test_conv2d_weight_gradient_holds_one_workspace():
    # a stage-2 WRN-16-2 conv: its im2col blocks (8 images, 4.5 MiB) go
    # through one workspace; beside it live the root gradient's copy, dW and
    # one block's product
    x = Tensor(RNG.standard_normal((64, 16, 16, 64), dtype=np.float32))
    w = Tensor(RNG.standard_normal((3, 3, 64, 64), dtype=np.float32), requires_grad=True)
    y = T.conv2d(x, w, stride=1, padding=1)
    g = RNG.standard_normal(y.shape, dtype=np.float32)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        y.backward(g)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= T._WORKSPACE_BYTES + g.nbytes + 2 * w.data.nbytes + 4096


@pytest.mark.skipif(not T._KEEPS_FREED_MEMORY,
                    reason="no glibc mallopt: the allocator's policy is left as it is")
def test_steady_state_conv_takes_no_page_faults():
    # the padded input, 128x34x34x64 float32, is 37.9 MB: above the 32 MiB
    # ceiling of glibc's dynamic mmap threshold, so by default every pass
    # maps it afresh and faults its pages in again
    x = Tensor(RNG.standard_normal((128, 32, 32, 64), dtype=np.float32))
    w = Tensor(RNG.standard_normal((3, 3, 64, 64), dtype=np.float32))

    def faults():
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        with no_grad():
            T.conv2d(x, w, stride=1, padding=1)
        return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

    for _ in range(2):
        faults()
    counts = [faults() for _ in range(3)]
    assert max(counts) < 50, counts


# ---------------------------------------------------------------------------
# the flat padded grid and its BLAS binding
# ---------------------------------------------------------------------------

def test_gemm_self_check_refuses_a_binding_that_does_not_add():
    def numpy_gemm(c, a, b, beta):
        c *= beta
        c += a @ b

    def overwriting_gemm(c, a, b, beta):   # ignores beta
        np.matmul(a, b, out=c)

    assert T._gemm_is_exact(numpy_gemm)
    assert not T._gemm_is_exact(lambda c, a, b, beta: None)
    assert not T._gemm_is_exact(overwriting_gemm)
    if T._BLAS_GEMM is not None:
        assert T._gemm_is_exact(T._BLAS_GEMM)


def test_binding_is_none_without_the_library_or_on_a_mismatch(monkeypatch):
    monkeypatch.setattr(T.glob, "glob", lambda pattern: [])
    assert T._bind_blas_gemm() is None
    monkeypatch.undo()
    monkeypatch.setattr(T, "_gemm_is_exact", lambda gemm: False)
    assert T._bind_blas_gemm() is None


@pytest.mark.skipif(T._BLAS_GEMM is None, reason="no BLAS gemm binding")
def test_blas_gemm_rejects_operands_it_cannot_pass():
    a = np.ones((4, 3), np.float32)
    b = np.ones((3, 5), np.float32)
    c = np.zeros((4, 5), np.float32)
    for args in [(c, a, b.astype(np.float64)), (c[:, ::2], a, b[:, ::2]),
                 (c, a[:, ::2], b[:2]), (c[:3], a, b),
                 (c, np.ones((3, 4), np.float32).T, b), (c, a, np.ones((5, 3), np.float32).T),
                 (c, np.ones((4, 6), np.float32)[:, :3], b)]:
        with pytest.raises(ValueError):
            T._BLAS_GEMM(*args, 1)
    with pytest.raises(KeyError):
        T._BLAS_GEMM(c.astype(np.int64), a.astype(np.int64), b.astype(np.int64), 1)


# (input, kernel, padding): WRN-16-2's stride-1 convs at batch 64, the desk
# WRN-10-1's at batch 32, one image, H != W, no padding and a 2x1 kernel
DX_SHAPES = [
    ((64, 32, 32, 16), (3, 3, 16, 32), 1), ((64, 32, 32, 32), (3, 3, 32, 32), 1),
    ((64, 16, 16, 64), (3, 3, 64, 64), 1), ((64, 8, 8, 128), (3, 3, 128, 128), 1),
    ((32, 16, 16, 16), (3, 3, 16, 16), 1), ((32, 8, 8, 32), (3, 3, 32, 32), 1),
    ((32, 4, 4, 64), (3, 3, 64, 64), 1), ((1, 16, 16, 8), (3, 3, 8, 8), 1),
    ((2, 12, 20, 4), (3, 3, 4, 6), 1), ((2, 10, 10, 4), (3, 3, 4, 5), 0),
    ((2, 9, 8, 3), (2, 1, 3, 2), 1),
]


def conv_dx(x, w, padding, g):
    xt = Tensor(x, requires_grad=True)
    y = T.conv2d(xt, Tensor(w), stride=1, padding=padding)
    y.backward(g)
    return xt.grad


@pytest.mark.parametrize("conv_path", ["flat", "fallback"], indirect=True)
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("x_shape,w_shape,padding", DX_SHAPES)
def test_conv2d_dx_is_bitwise_shift_and_gemm(x_shape, w_shape, padding, dtype, conv_path):
    rng = np.random.default_rng(7)
    x = rng.standard_normal(x_shape).astype(dtype)
    w = rng.standard_normal(w_shape).astype(dtype)
    ho = x_shape[1] + 2 * padding - w_shape[0] + 1
    wo = x_shape[2] + 2 * padding - w_shape[1] + 1
    g = rng.standard_normal((x_shape[0], ho, wo, w_shape[3])).astype(dtype)
    got = conv_dx(x, w, padding, g)
    assert got.dtype == dtype
    assert np.array_equal(got, conv2d_dx_shift_gemm(g, w, x_shape, 1, padding))
    if conv_path is not None:   # forward and input gradient on the flat grid
        assert conv_path.calls > 0


@pytest.mark.parametrize("x_shape,w_shape,padding", [
    ((64, 4, 8, 1), (3, 3, 1, 20), 1),    # folded3x3's excitation map
    ((64, 2, 64, 1), (2, 1, 1, 20), 0),   # pairview2x1's
    ((64, 16, 16, 1), (3, 3, 1, 8), 1),   # a fold of 2C = 256 channels
])
def test_single_channel_convs_stay_on_shift_and_gemm(x_shape, w_shape, padding, flat_conv):
    # numpy runs a one-channel input gradient as matrix-vector products,
    # which BLAS sums in another order than a GEMM: the flat grid would
    # change its bits, so the routing keeps Cin = 1 off it at any size
    rng = np.random.default_rng(3)
    x = rng.standard_normal(x_shape, dtype=np.float32)
    w = rng.standard_normal(w_shape, dtype=np.float32)
    ho = x_shape[1] + 2 * padding - w_shape[0] + 1
    wo = x_shape[2] + 2 * padding - w_shape[1] + 1
    g = rng.standard_normal((x_shape[0], ho, wo, w_shape[3]), dtype=np.float32)
    got = conv_dx(x, w, padding, g)
    assert np.array_equal(got, conv2d_dx_shift_gemm(g, w, x_shape, 1, padding))
    if flat_conv is not None:
        assert flat_conv.calls == 0


# the equal blocks of whole images that a pass cuts these batches into: 8
# images a block at 32x32, 32 at 16x16; every other routing shape is one block
ROUTING_BLOCKS = {(64, 32, 32, 32): 8, (64, 16, 16, 64): 2, (9, 32, 32, 8): 2}


@pytest.mark.skipif(T._BLAS_GEMM is None, reason="no BLAS gemm binding")
@pytest.mark.parametrize("x_shape,w_shape,stride,forward_flat,dx_flat", [
    ((64, 32, 32, 32), (3, 3, 32, 32), 1, True, True),
    ((64, 16, 16, 64), (3, 3, 64, 64), 1, True, True),
    ((64, 8, 8, 128), (3, 3, 128, 128), 1, False, True),   # forward measured slower
    ((32, 4, 4, 64), (3, 3, 64, 64), 1, False, False),
    ((8, 32, 32, 3), (3, 3, 3, 16), 1, False, True),       # a stem; a network takes no dX there
    ((8, 32, 32, 8), (3, 3, 8, 16), 1, True, True),
    ((8, 32, 32, 32), (3, 3, 32, 64), 2, False, False),
    ((8, 32, 32, 32), (1, 1, 32, 64), 1, False, False),
    ((9, 32, 32, 8), (3, 3, 8, 16), 1, True, True),        # 4 + 5 images
])
def test_conv2d_routing_rule(x_shape, w_shape, stride, forward_flat, dx_flat, monkeypatch):
    # a flat pass makes one GEMM per kernel tap and block
    blocks = ROUTING_BLOCKS.get(x_shape, 1)
    spy = GemmSpy(T._BLAS_GEMM)
    monkeypatch.setattr(T, "_BLAS_GEMM", spy)
    x = Tensor(np.ones(x_shape, np.float32), requires_grad=True)
    w = Tensor(np.ones(w_shape, np.float32))
    y = T.conv2d(x, w, stride=stride, padding=1 if w_shape[0] == 3 else 0)
    assert spy.calls == (9 * blocks if forward_flat else 0)
    spy.calls = 0
    y.backward(np.ones(y.shape, np.float32))
    assert spy.calls == (9 * blocks if dx_flat else 0)


# (input, kernel): the stride-1 multi-channel IM2COL_SHAPES, WRN-16-2's
# stage-1 and stage-2 convs at the eval batch of 256, and a ragged batch of
# 9 images at 32x32 (blocks of 4 and 5)
FLAT_SHAPES = ([shape[:2] for shape in IM2COL_SHAPES if shape[2] == 1 and shape[0][3] > 1]
               + [((256, 32, 32, 32), (3, 3, 32, 32)), ((256, 16, 16, 64), (3, 3, 64, 64)),
                  ((9, 32, 32, 32), (3, 3, 32, 32))])


@pytest.mark.skipif(T._BLAS_GEMM is None, reason="no BLAS gemm binding")
@pytest.mark.parametrize("x_shape,w_shape", FLAT_SHAPES)
def test_flat_blocks_are_bitwise_the_grid_slices_and_the_whole_batch_grid(x_shape, w_shape,
                                                                         flat_conv):
    # the forward pass against slices of 16384 grid rows, the input gradient
    # against one grid of the whole batch: equal blocks of whole images move
    # no bit
    rng = np.random.default_rng(22)
    x = Tensor(rng.standard_normal(x_shape, dtype=np.float32), requires_grad=True)
    w = rng.standard_normal(w_shape, dtype=np.float32)
    y = T.conv2d(x, Tensor(w), stride=1, padding=1)
    assert np.array_equal(y.data, conv2d_flat_forward_slices(flat_conv.gemm, x.data, w))
    g = rng.standard_normal(y.shape, dtype=np.float32)
    y.backward(g)
    assert np.array_equal(x.grad, conv2d_flat_dx_whole_grid(flat_conv.gemm, g, w, x_shape))


@pytest.mark.skipif(T._BLAS_GEMM is None, reason="no BLAS gemm binding")
def test_flat_dx_peaks_near_two_padded_inputs():
    # the padded input gradient, whose interior view is x's gradient, and one
    # block's gradient grid of 8 images: an eighth of the batch's
    x = Tensor(RNG.standard_normal((64, 32, 32, 32), dtype=np.float32), requires_grad=True)
    w = Tensor(RNG.standard_normal((3, 3, 32, 32), dtype=np.float32))
    y = T.conv2d(x, w, stride=1, padding=1)
    g = RNG.standard_normal(y.shape, dtype=np.float32)
    padded_bytes = 64 * 34 * 34 * 32 * 4
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        y._backward(g)    # the conv's own closure: no copy of the root gradient
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert x.grad is not None
    assert peak - before <= padded_bytes + 8 * 34 * 34 * 32 * 4 + 2 ** 16


@pytest.mark.skipif(T._BLAS_GEMM is None, reason="no BLAS gemm binding")
def test_flat_forward_slice_buffer_stays_bounded_at_eval_batch():
    # batch 256, as the eval workload runs: beyond the padded input and the
    # output, the forward pass holds one block's grid buffer, of 8 images,
    # less than the im2col block the other path would build
    n, cin, cout = 256, 32, 32
    x = Tensor(RNG.standard_normal((n, 32, 32, cin), dtype=np.float32))
    w = Tensor(RNG.standard_normal((3, 3, cin, cout), dtype=np.float32))
    padded_bytes, out_bytes = n * 34 * 34 * cin * 4, n * 32 * 32 * cout * 4
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        with no_grad():
            y = T.conv2d(x, w, stride=1, padding=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert y.shape == (n, 32, 32, cout)
    extra = peak - before - padded_bytes - out_bytes
    assert extra <= 8 * 34 * 34 * cout * 4 + 2 ** 16
    assert extra < T._SLICE_ROWS * 9 * cin * 4


def test_conv2d_output_extent():
    x = Tensor(np.zeros((1, 7, 7, 2), dtype=np.float32))
    w = Tensor(np.zeros((3, 3, 2, 1), dtype=np.float32))
    assert T.conv2d(x, w, stride=2, padding=1).shape == (1, 4, 4, 1)


def eval_bn_params(c, dtype=np.float32):
    """gamma, beta, running mean and running variance of an eval batch norm."""
    rng = np.random.default_rng(31)
    return [Tensor(v.astype(dtype)) for v in (rng.uniform(0.5, 1.5, c), 0.1 * rng.standard_normal(c),
                                              0.1 * rng.standard_normal(c), rng.uniform(0.5, 2, c))]


@pytest.mark.parametrize("conv_path", ["flat", "fallback"], indirect=True)
@pytest.mark.parametrize("kernel, stride, pad, cout", [(3, 1, 1, 8), (1, 2, 0, 16), (3, 2, 1, 16)])
def test_conv2d_from_an_eval_bn_relu_source_is_bitwise_the_two_ops(conv_path, monkeypatch,
                                                                   kernel, stride, pad, cout):
    # the conv takes its padded pre-activation one run of images at a time,
    # from one reused buffer: one or two images per run here; given its
    # input's array as out, it writes over it
    monkeypatch.setattr(T, "_SLICE_ROWS", 32)
    x = Tensor(RNG.standard_normal((5, 8, 8, 8), dtype=np.float32))
    w = Tensor(RNG.standard_normal((kernel, kernel, 8, cout), dtype=np.float32))
    bn = eval_bn_params(8)
    with no_grad():
        pre = T.batch_norm(x, *bn, False, relu=True, pad=pad)
        want = T.conv2d(pre, w, stride=stride, padding=pad).data
        source = T.eval_bn_relu_source(x, *bn)
        assert np.array_equal(T.conv2d(x, w, stride=stride, padding=pad, source=source).data,
                              want)
        if want.shape == x.shape:
            y = T.conv2d(x, w, stride=stride, padding=pad, source=source, out=x.data)
            assert y.data is x.data and np.array_equal(x.data, want)


def test_out_arrays_and_sources_are_refused_in_a_graph():
    # a gradient function would read what out overwrote, or the whole padded
    # input that a source never builds
    x = Tensor(RNG.standard_normal((2, 4, 4, 3), dtype=np.float32), requires_grad=True)
    w = Tensor(RNG.standard_normal((3, 3, 3, 3), dtype=np.float32))
    s = Tensor(RNG.uniform(0.1, 0.9, (2, 3)).astype(np.float32))
    for op in (lambda: T.conv2d(x, w, padding=1, out=np.empty(x.shape, np.float32)),
               lambda: T.conv2d(x, w, padding=1, source=lambda block, b, e: None),
               lambda: T.channel_scale_add(s, x, x, out=np.empty(x.shape, np.float32)),
               lambda: T.add(x, x, out=np.empty(x.shape, np.float32))):
        with pytest.raises(ValueError, match="only outside a graph"):
            op()
    with no_grad():
        with pytest.raises(ValueError, match="C-contiguous"):
            T.conv2d(x, w, padding=1, out=np.empty((2, 4, 4, 4), np.float32))
        u = Tensor(x.data.copy())
        want = T.channel_scale_add(s, u, x).data
        y = T.channel_scale_add(s, u, x, out=u.data)
    assert y.data is u.data and np.array_equal(u.data, want)


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


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_sigmoid_is_bitwise_the_sign_split_formulation(dtype):
    edges = [0.0, -0.0, 1e-30, -1e-30, 1e-45, -1e-45, 17, -17, 88, -88, 710, -710,
             1000, -1000, np.inf, -np.inf]
    x = np.concatenate([RNG.normal(0, 20, 20000), edges]).astype(dtype)
    got = T.sigmoid(Tensor(x)).data
    assert got.dtype == dtype
    assert got.tobytes() == sigmoid_by_sign(x).tobytes()


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


# ---------------------------------------------------------------------------
# per-channel reductions: bitwise equal to the numpy expressions they replace
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("c", [1, 2, 3, 16, 32, 128])
@pytest.mark.parametrize("axes", [(0, 1, 2), (1, 2), (0,)])
def test_sum_leading_is_bitwise_ndarray_sum(dtype, c, axes):
    rng = np.random.default_rng(c)
    x = rng.standard_normal((9, 7, 13, c)).astype(dtype)
    y = rng.standard_normal(x.shape).astype(dtype)
    for keepdims in (False, True):
        got = T._sum_leading(x, axes, keepdims=keepdims)
        assert np.array_equal(got, x.sum(axis=axes, keepdims=keepdims))
        got = T._sum_leading(x, axes, y, keepdims=keepdims)
        assert np.array_equal(got, (x * y).sum(axis=axes, keepdims=keepdims))
    assert np.array_equal(T.mean_over(Tensor(x), axes).data, x.mean(axis=axes))
    assert np.array_equal(T.sum_over(Tensor(x), axes).data, x.sum(axis=axes))
    rows = x.reshape(-1, c)
    assert np.array_equal(T._sum_leading(rows, (0,), rows), (rows * rows).sum(axis=0))


def test_sum_leading_falls_back_off_the_einsum_layout():
    # a reduced last axis, a negative axis, all axes, and (in the
    # channel-first view) a last axis that is not the unit-stride one: numpy
    # sums each of these in another order, or keeps other axes
    x = RNG.standard_normal((6, 9, 11, 32)).astype(np.float32)
    view = np.ascontiguousarray(x.transpose(0, 3, 1, 2)).transpose(0, 2, 3, 1)
    assert view.strides[-1] != view.itemsize
    for a, cases in [(x, [(3,), (-2,), (0, -3), (0, 1, 2, 3)]),
                     (view, [(0, 1, 2), (1, 2), (0,)])]:
        for axes in cases:
            assert np.array_equal(T._sum_leading(a, axes), a.sum(axis=axes))
            assert np.array_equal(T._sum_leading(a, axes, a), (a * a).sum(axis=axes))


@pytest.mark.parametrize("op", [np.add, np.subtract, np.multiply])
def test_by_channel_is_bitwise_the_broadcast_op(op):
    for shape in [(64, 32, 32, 32), (3, 5, 7, 6), (31, 1), (13, 128)]:
        a = RNG.standard_normal(shape).astype(np.float32)
        v = RNG.standard_normal(shape[-1]).astype(np.float32)
        want = op(a, v)
        assert np.array_equal(T._by_channel(op, a, v), want)
        T._by_channel(op, a, v, out=a)
        assert np.array_equal(a, want)


def test_by_channel_refuses_an_out_it_cannot_write():
    # an interior view of a padded array reshapes to a copy, so the result
    # would land in the copy and leave the view unchanged
    padded = np.zeros((2, 6, 7, 4), dtype=np.float32)
    interior = padded[:, 1:-1, 1:-1]
    a = RNG.standard_normal(interior.shape).astype(np.float32)
    v = np.ones(4, dtype=np.float32)
    with pytest.raises(ValueError, match=r"C-contiguous out.*\(2, 4, 5, 4\).*strides"):
        T._by_channel(np.add, a, v, out=interior)
    assert not padded.any()


BN_SHAPES = [(8, 5, 7, 16), (4, 6, 6, 3), (16, 4, 4, 128), (32, 2, 16, 1), (32, 1), (50, 32)]


@pytest.mark.parametrize("training", [True, False])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", BN_SHAPES)
def test_batch_norm_is_bitwise_the_saved_xn_formulation(shape, dtype, training):
    rng = np.random.default_rng(len(shape) * 100 + shape[-1])
    c = shape[-1]
    x = (1.5 + 2.0 * rng.standard_normal(shape)).astype(dtype)
    g = rng.standard_normal(shape).astype(dtype)
    gamma = (1.0 + 0.3 * rng.standard_normal(c)).astype(dtype)
    beta = rng.standard_normal(c).astype(dtype)
    rm = (0.5 * rng.standard_normal(c)).astype(dtype)
    rv = (0.5 + rng.random(c)).astype(dtype)
    ref_rm, ref_rv = rm.copy(), rv.copy()
    want = batch_norm_saving_xn(x, gamma, beta, ref_rm, ref_rv, g, training)

    xt, gt, bt = (Tensor(a.copy(), requires_grad=True) for a in (x, gamma, beta))
    run_mean, run_var = Tensor(rm.copy()), Tensor(rv.copy())
    out = T.batch_norm(xt, gt, bt, run_mean, run_var, training)
    assert np.array_equal(run_mean.data, ref_rm) and np.array_equal(run_var.data, ref_rv)
    if not training:
        # a training pass between forward and backward moves the running
        # mean; the eval graph keeps the mean its forward pass used
        T.batch_norm(Tensor(x), Tensor(gamma), Tensor(beta), run_mean, run_var, True)
    out.backward(g)
    for got, ref in zip((out.data, xt.grad, gt.grad, bt.grad), want):
        assert got.dtype == ref.dtype
        assert np.array_equal(got, ref)


def test_batch_norm_graph_holds_only_its_output():
    # saving xn as well held 2.0x the output beyond the input
    x = Tensor(RNG.standard_normal((64, 32, 32, 32)).astype(np.float32), requires_grad=True)
    gamma = Tensor(np.ones(32, dtype=np.float32), requires_grad=True)
    beta = Tensor(np.zeros(32, dtype=np.float32), requires_grad=True)
    rm, rv = Tensor(np.zeros(32, dtype=np.float32)), Tensor(np.ones(32, dtype=np.float32))
    tracemalloc.start()
    try:
        y = T.batch_norm(x, gamma, beta, rm, rv, training=True)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert y.requires_grad
    assert held <= 1.2 * y.data.nbytes


def preact_unit_params(rng, dtype, shape=(3, 6, 5, 4), cout=5):
    """x, gamma, beta, running mean and variance, a 3x3 kernel and a 1x1
    kernel for a pre-activation unit on ``shape``."""
    c = shape[-1]
    return dict(x=(0.5 + rng.standard_normal(shape)).astype(dtype),
                gamma=(1.0 + 0.3 * rng.standard_normal(c)).astype(dtype),
                beta=(0.2 * rng.standard_normal(c)).astype(dtype),
                rm=(0.3 * rng.standard_normal(c)).astype(dtype),
                rv=(0.5 + rng.random(c)).astype(dtype),
                w=rng.standard_normal((3, 3, c, cout)).astype(dtype),
                proj=rng.standard_normal((1, 1, c, cout)).astype(dtype))


def run_preact_unit(p, training, fused, pad, seed, release=False):
    """conv3x3(relu(bn(x))) and a 1x1 stride-2 projection of the same
    activation, as a residual block wires them, then backward from seeded
    gradients; ``release`` releases the activation after both convs.
    Returns the outputs, running buffers and gradients."""
    x, gamma, beta, w, proj = (Tensor(p[k].copy(), requires_grad=True)
                               for k in ("x", "gamma", "beta", "w", "proj"))
    rm, rv = Tensor(p["rm"].copy()), Tensor(p["rv"].copy())
    if fused:
        t = T.batch_norm(x, gamma, beta, rm, rv, training, relu=True, pad=pad)
    else:
        t = T.relu(T.batch_norm(x, gamma, beta, rm, rv, training))
    y = T.conv2d(t, w, padding=1)
    s = T.conv2d(t, proj, stride=2)
    if release:
        t.release()
    rng = np.random.default_rng(seed)
    gy = T.mul(y, Tensor(rng.standard_normal(y.shape).astype(y.dtype)))
    gs = T.mul(s, Tensor(rng.standard_normal(s.shape).astype(s.dtype)))
    T.add(scalarize(gy), scalarize(gs)).backward()
    return [y.data, s.data, rm.data, rv.data, x.grad, gamma.grad, beta.grad, w.grad, proj.grad]


@pytest.mark.parametrize("conv_path", ["flat", "fallback"], indirect=True)
@pytest.mark.parametrize("pad", [0, 1])
@pytest.mark.parametrize("training", [True, False])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_fused_preact_unit_is_bitwise_the_unfused_one(dtype, training, pad, conv_path):
    p = preact_unit_params(np.random.default_rng(7), dtype)
    want = run_preact_unit(p, training, fused=False, pad=0, seed=3)
    got = run_preact_unit(p, training, fused=True, pad=pad, seed=3)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()    # tells -0.0 from 0.0, unlike array_equal


@pytest.mark.parametrize("training", [True, False])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_fused_preact_unit_is_bitwise_on_one_channel(dtype, training):
    # one channel takes the reductions' ndarray.sum fallback, which sums
    # pairwise: the statistics must not read the padded buffer's border
    p = preact_unit_params(np.random.default_rng(17), dtype, shape=(4, 7, 9, 1))
    want = run_preact_unit(p, training, fused=False, pad=0, seed=5)
    got = run_preact_unit(p, training, fused=True, pad=1, seed=5)
    for a, b in zip(got, want):
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("pad", [0, 1])
@pytest.mark.parametrize("training", [True, False])
def test_released_preact_unit_is_bitwise_the_held_one(training, pad):
    # backward rebuilds the released activation by the forward's own ops,
    # for the conv, the projection and the ReLU mask
    p = preact_unit_params(np.random.default_rng(7), np.float32)
    want = run_preact_unit(p, training, fused=True, pad=pad, seed=3)
    got = run_preact_unit(p, training, fused=True, pad=pad, seed=3, release=True)
    for a, b in zip(got, want):
        assert a.tobytes() == b.tobytes()


def test_a_released_pre_activation_raises_on_read():
    p = preact_unit_params(np.random.default_rng(12), np.float32)
    x, gamma, beta, w = (Tensor(p[k], requires_grad=True) for k in ("x", "gamma", "beta", "w"))
    t = T.batch_norm(x, gamma, beta, Tensor(p["rm"]), Tensor(p["rv"]), True, relu=True, pad=1)
    loss = scalarize(T.conv2d(t, w, padding=1))
    t.release()
    for attr in ("data", "padded"):
        with pytest.raises(ActivationReleasedError, match="'batch_norm'"):
            getattr(t, attr)
    loss.backward()
    assert x.grad is not None and w.grad is not None
    with pytest.raises(GraphReleasedError):
        loss.backward()


def test_release_keeps_a_tensor_that_nothing_could_rebuild():
    # without a graph, and for any tensor but a batch_norm output
    p = preact_unit_params(np.random.default_rng(13), np.float32)
    with no_grad():
        t = T.batch_norm(Tensor(p["x"]), Tensor(p["gamma"], requires_grad=True),
                         Tensor(p["beta"], requires_grad=True), Tensor(p["rm"]),
                         Tensor(p["rv"]), True, relu=True, pad=1)
    y = T.conv2d(Tensor(p["x"], requires_grad=True), Tensor(p["w"]), padding=1)
    for tensor in (t, y):
        data, padded = tensor.data, tensor.padded
        tensor.release()
        assert tensor.data is data and tensor.padded is padded


def test_fused_batch_norm_writes_into_a_zero_bordered_buffer():
    p = preact_unit_params(np.random.default_rng(8), np.float32)
    t = T.batch_norm(Tensor(p["x"]), Tensor(p["gamma"]), Tensor(p["beta"]),
                     Tensor(p["rm"]), Tensor(p["rv"]), True, relu=True, pad=2)
    n, h, w, c = p["x"].shape
    assert t.padded.shape == (n, h + 4, w + 4, c)
    assert np.shares_memory(t.data, t.padded)
    assert np.array_equal(t.padded[:, 2:-2, 2:-2], t.data)
    border = t.padded.copy()
    border[:, 2:-2, 2:-2] = 0
    assert not border.any()
    assert t.data.min() == 0 and t.data.max() > 0
    # only the padded output carries a buffer
    assert T.batch_norm(Tensor(p["x"]), Tensor(p["gamma"]), Tensor(p["beta"]),
                        Tensor(p["rm"]), Tensor(p["rv"]), True, relu=True).padded is None
    with pytest.raises(ShapeError, match="pad"):
        T.batch_norm(Tensor(p["x"]), Tensor(p["gamma"]), Tensor(p["beta"]),
                     Tensor(p["rm"]), Tensor(p["rv"]), True, pad=1)


def test_conv2d_copies_when_the_padded_buffer_does_not_match():
    p = preact_unit_params(np.random.default_rng(9), np.float64)
    w5 = Tensor(np.random.default_rng(10).standard_normal((5, 5, 4, 2)))
    t = T.batch_norm(Tensor(p["x"]), Tensor(p["gamma"]), Tensor(p["beta"]),
                     Tensor(p["rm"]), Tensor(p["rv"]), True, relu=True, pad=1)
    for kernel, padding in ((w5, 2), (Tensor(p["w"]), 0)):
        got = T.conv2d(t, kernel, padding=padding).data
        want = T.conv2d(Tensor(t.data.copy()), kernel, padding=padding).data
        assert np.array_equal(got, want)


def test_conv2d_zero_pads_an_interior_slice_of_a_caller_array():
    # a caller's array with a non-zero border: its interior view must be
    # padded with zeros, not read through into the border
    rng = np.random.default_rng(11)
    whole = 5.0 + rng.random((2, 7, 6, 3))
    x = Tensor(whole[:, 1:-1, 1:-1])
    w = Tensor(rng.standard_normal((3, 3, 3, 2)))
    got = T.conv2d(x, w, padding=1).data
    assert np.array_equal(got, T.conv2d(Tensor(x.data.copy()), w, padding=1).data)
    np.testing.assert_allclose(got, conv2d_loops(x.data, w.data, padding=1), rtol=1e-10)


def test_preact_unit_graph_holds_one_padded_activation():
    # bn -> relu -> conv as separate ops held the BN output, the ReLU output,
    # the conv's padded copy and its output: 4.13x the input beyond it
    x = Tensor(RNG.standard_normal((64, 32, 32, 32)).astype(np.float32), requires_grad=True)
    gamma = Tensor(np.ones(32, dtype=np.float32), requires_grad=True)
    beta = Tensor(np.zeros(32, dtype=np.float32), requires_grad=True)
    rm, rv = Tensor(np.zeros(32, dtype=np.float32)), Tensor(np.ones(32, dtype=np.float32))
    w = Tensor(RNG.standard_normal((3, 3, 32, 32)).astype(np.float32), requires_grad=True)
    tracemalloc.start()
    try:
        y = T.conv2d(T.batch_norm(x, gamma, beta, rm, rv, training=True, relu=True, pad=1),
                     w, padding=1)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert y.requires_grad
    assert held <= 2.3 * x.data.nbytes


@pytest.mark.parametrize("training", [True, False])
def test_fused_batch_norm_builds_no_temporary(training):
    # the output is built in its padded buffer; building it in a contiguous
    # temporary first peaked at 2.13x the input beyond it
    x = Tensor(RNG.standard_normal((64, 32, 32, 32)).astype(np.float32), requires_grad=True)
    gamma = Tensor(np.ones(32, dtype=np.float32), requires_grad=True)
    beta = Tensor(np.zeros(32, dtype=np.float32), requires_grad=True)
    rm, rv = Tensor(np.zeros(32, dtype=np.float32)), Tensor(np.ones(32, dtype=np.float32))
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        y = T.batch_norm(x, gamma, beta, rm, rv, training, relu=True, pad=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert y.padded.nbytes <= peak - before <= 1.3 * x.data.nbytes


@pytest.mark.parametrize("training", [True, False])
def test_relu_batch_norm_backward_writes_x_gradient_over_its_masked_gradient(training):
    # beyond the input, backward holds the sweep's copy of g, the masked
    # gradient (which becomes x's) and xn for gamma's sum; a fresh array
    # for x's gradient peaked at 4.00x in training and 5.00x in eval
    x = Tensor(RNG.standard_normal((64, 32, 32, 32)).astype(np.float32), requires_grad=True)
    gamma = Tensor(np.ones(32, dtype=np.float32), requires_grad=True)
    beta = Tensor(np.zeros(32, dtype=np.float32), requires_grad=True)
    rm, rv = Tensor(np.zeros(32, dtype=np.float32)), Tensor(np.ones(32, dtype=np.float32))
    y = T.batch_norm(x, gamma, beta, rm, rv, training, relu=True)
    g = RNG.standard_normal(y.shape).astype(np.float32)
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        y.backward(g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert x.grad is not None
    assert peak - before <= 3.3 * x.data.nbytes


@pytest.mark.parametrize("relu", [False, True])
@pytest.mark.parametrize("training", [True, False])
def test_batch_norm_backward_leaves_a_shared_gradient_untouched(training, relu):
    # add hands its one gradient array to both inputs; without relu that
    # array is the batch norm's masked gradient, which it must not write over
    x = Tensor(RNG.standard_normal((4, 5, 6, 3)).astype(np.float32), requires_grad=True)
    other = Tensor(np.zeros((4, 5, 6, 3), dtype=np.float32), requires_grad=True)
    gamma = Tensor(np.full(3, 2.0, dtype=np.float32), requires_grad=True)
    beta = Tensor(np.zeros(3, dtype=np.float32), requires_grad=True)
    rm, rv = Tensor(np.zeros(3, dtype=np.float32)), Tensor(np.ones(3, dtype=np.float32))
    y = T.batch_norm(x, gamma, beta, rm, rv, training, relu=relu)
    g = RNG.standard_normal(y.shape).astype(np.float32)
    T.add(y, other).backward(g)
    assert x.grad is not None
    assert np.array_equal(other.grad, g)


def test_pool_and_channel_scale_add_are_single_graph_nodes():
    # the benchmark's traced run wraps the primitive ops: the pool must keep
    # returning a primitive node so its time stays in the op spans. The block
    # tail is one node of its own, with no product node under it
    u = Tensor(RNG.standard_normal((2, 3, 3, 4)), requires_grad=True)
    x = Tensor(RNG.standard_normal((2, 3, 3, 4)), requires_grad=True)
    s = Tensor(RNG.standard_normal((2, 4)), requires_grad=True)
    assert T.global_avg_pool(u).name == "mean"
    out = T.channel_scale_add(s, u, x)
    assert out.name == "channel_scale_add"
    assert out._parents == (s, u, x)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_channel_scale_add_is_bitwise_the_composite(dtype):
    rng = np.random.default_rng(12)
    n, h, w, c = 3, 5, 4, 6
    arrays = [rng.standard_normal(shape).astype(dtype)
              for shape in ((n, c), (n, h, w, c), (n, h, w, c), (n, h, w, c))]
    s, u, x = (Tensor(a.copy(), requires_grad=True) for a in arrays[:3])
    out = T.channel_scale_add(s, u, x)
    out.backward(arrays[3])
    for got, ref in zip((out.data, s.grad, u.grad, x.grad), channel_scale_add_composite(*arrays)):
        assert got.dtype == ref.dtype and got.shape == ref.shape
        assert got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_channel_scale_add_sums_a_shared_input_as_the_composite_does(dtype):
    # as in an identity block, the input reaches the tail three ways: as the
    # addend, through the branch and through the excitation. Its gradient
    # adds those three terms in the composite graph's order
    rng = np.random.default_rng(13)
    n, h, w, c = 4, 6, 5, 8
    x0, w0, g = (rng.standard_normal(shape).astype(dtype)
                 for shape in ((n, h, w, c), (c,), (n, h, w, c)))

    def run(fused):
        x, wt = Tensor(x0.copy(), requires_grad=True), Tensor(w0.copy(), requires_grad=True)
        u = T.relu(T.mul(x, wt))
        s = T.sigmoid(T.global_avg_pool(T.mul(x, x)))
        if fused:
            out = T.channel_scale_add(s, u, x)
        else:
            out = T.add(T.mul(T.reshape(s, (n, 1, 1, c)), u), x)
        out.backward(g)
        return out.data, x.grad, wt.grad

    for got, ref in zip(run(True), run(False)):
        assert got.tobytes() == ref.tobytes()


def test_channel_scale_add_checks_shapes():
    u = Tensor(np.zeros((2, 3, 3, 4)))
    with pytest.raises(ShapeError, match="scale"):
        T.channel_scale_add(Tensor(np.zeros((2, 3))), u, u)
    with pytest.raises(ShapeError, match="addend"):
        T.channel_scale_add(Tensor(np.zeros((2, 4))), u, Tensor(np.zeros((2, 3, 3, 5))))


def test_no_grad_builds_no_graph():
    x = Tensor(np.ones(3), requires_grad=True)
    with no_grad():
        y = T.mul(x, x)
    assert not y.requires_grad and y._backward is None


def grad_enabled():
    return T.mul(Tensor(np.ones(1), requires_grad=True), Tensor(np.ones(1))).requires_grad


def finite_checks_enabled():
    try:
        T.scale(Tensor(np.array([np.inf])), 1.0)
    except NonFiniteError:
        return True
    return False


@pytest.mark.parametrize("outer, inner, probe", [
    (no_grad, no_grad, grad_enabled),
    (finite_checks, lambda: finite_checks(False), finite_checks_enabled),
])
def test_a_nested_flag_block_restores_the_flag_it_found(outer, inner, probe):
    before = probe()
    with outer():
        inside = probe()
        assert inside != before
        with inner():
            pass
        assert probe() == inside
        with pytest.raises(KeyError):
            with inner():
                raise KeyError("leave the block")
        assert probe() == inside
    assert probe() == before


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


# each op's inputs, by shape, and the call that applies it to them
GRAPH_OPS = {
    "conv2d": ([(2, 5, 5, 3), (3, 3, 3, 4)], lambda x, w: T.conv2d(x, w, padding=1)),
    "batch_norm": ([(2, 3, 3, 4), (4,), (4,)], lambda x, g, b: T.batch_norm(
        x, g, b, Tensor(np.zeros(4)), Tensor(np.ones(4)), training=True)),
    "linear": ([(3, 4), (5, 4), (5,)], T.linear),
    "channel_scale_add": ([(2, 4), (2, 3, 3, 4), (2, 3, 3, 4)], T.channel_scale_add),
}


@pytest.mark.parametrize("op", sorted(GRAPH_OPS))
def test_an_input_that_needs_no_grad_stays_off_the_graph(op):
    # the graph rule: an op links only the inputs that require grad, and its
    # closure hands a gradient to exactly those
    shapes, call = GRAPH_OPS[op]
    for frozen in range(len(shapes)):
        inputs = [Tensor(RNG.standard_normal(shape), requires_grad=i != frozen)
                  for i, shape in enumerate(shapes)]
        out = call(*inputs)
        assert out._parents == tuple(t for t in inputs if t.requires_grad)
        scalarize(out).backward()
        assert inputs[frozen].grad is None
        assert all(t.grad is not None for t in inputs if t.requires_grad)


class VjpSpy:
    """Stands in for tensor._result and counts, per op call and input
    position, the calls to the gradient functions the op hands it."""

    def __init__(self, result):
        self.result, self.counts = result, []

    def __call__(self, data, name, *vjps):
        counts = [0] * len(vjps)
        self.counts.append(counts)

        def counted(i, fn):
            def call(g):
                counts[i] += 1
                return fn(g)
            return call

        return self.result(data, name, *((p, counted(i, fn)) for i, (p, fn) in enumerate(vjps)))


# every op with more than one input: (input shapes, the call that applies it)
MULTI_INPUT_OPS = {
    **GRAPH_OPS,
    "add": ([(3, 4), (4,)], T.add),
    "mul": ([(3, 4), (3, 1)], T.mul),
    "stack_rows": ([(3, 4), (3, 4)], T.stack_rows),
    "dual_linear": ([(3, 2), (3, 2), (5, 4)], T.dual_linear),
    "batch_norm_eval": ([(2, 3, 3, 4), (4,), (4,)], lambda x, g, b: T.batch_norm(
        x, g, b, Tensor(np.zeros(4)), Tensor(np.ones(4)), training=False, relu=True)),
}


@pytest.mark.parametrize("op", sorted(MULTI_INPUT_OPS))
def test_no_gradient_function_runs_for_a_frozen_input(op, monkeypatch):
    shapes, call = MULTI_INPUT_OPS[op]
    for frozen in range(len(shapes)):
        spy = VjpSpy(T._result)
        monkeypatch.setattr(T, "_result", spy)
        inputs = [Tensor(RNG.standard_normal(shape), requires_grad=i != frozen)
                  for i, shape in enumerate(shapes)]
        out = call(*inputs)
        monkeypatch.undo()
        out.backward(RNG.standard_normal(out.shape))
        assert spy.counts == [[int(i != frozen) for i in range(len(shapes))]]


@pytest.mark.skipif(T._BLAS_GEMM is None, reason="no BLAS gemm binding")
def test_a_frozen_conv_input_makes_no_input_gradient_gemm(flat_conv):
    w = Tensor(RNG.standard_normal((3, 3, 4, 4), dtype=np.float32), requires_grad=True)
    for x_grad, dx_gemms in ((False, 0), (True, 9)):
        x = Tensor(RNG.standard_normal((2, 5, 5, 4), dtype=np.float32), requires_grad=x_grad)
        y = T.conv2d(x, w, padding=1)
        flat_conv.calls = 0
        y.backward(np.ones(y.shape, np.float32))
        assert flat_conv.calls == dx_gemms


def test_a_frozen_batch_norm_input_leaves_the_x_branch_unrun(monkeypatch):
    # in training mode only x's product takes the two means of gamma * g
    means = []
    mean_leading = T._mean_leading
    for x_grad in (False, True):
        x = Tensor(RNG.standard_normal((2, 3, 3, 4)), requires_grad=x_grad)
        gamma, beta = (Tensor(RNG.standard_normal(4), requires_grad=True) for _ in range(2))
        y = T.batch_norm(x, gamma, beta, Tensor(np.zeros(4)), Tensor(np.ones(4)),
                         training=True, relu=True)
        monkeypatch.setattr(T, "_mean_leading", lambda *a, **k: means.append(1) or
                            mean_leading(*a, **k))
        y.backward(RNG.standard_normal(y.shape))
        monkeypatch.undo()
        assert len(means) == (2 if x_grad else 0)
        assert gamma.grad is not None and beta.grad is not None
        means.clear()


@pytest.mark.parametrize("training", [True, False])
def test_batch_norm_masks_the_gradient_and_makes_xn_once(training, monkeypatch):
    runs = []
    once = T._once_per_gradient

    def counted(fn):
        def run(g):
            runs.append(fn.__name__)
            return fn(g)
        return once(run)

    monkeypatch.setattr(T, "_once_per_gradient", counted)
    x, gamma, beta = (Tensor(RNG.standard_normal(shape), requires_grad=True)
                      for shape in ((2, 3, 3, 4), (4,), (4,)))
    y = T.batch_norm(x, gamma, beta, Tensor(np.zeros(4)), Tensor(np.ones(4)),
                     training=training, relu=True)
    y.backward(RNG.standard_normal(y.shape))
    assert sorted(runs) == ["masked", "normalized"]


@pytest.mark.parametrize("op, products", [
    ("mul", lambda g, x: (g * x.data, g * x.data)),
    ("add", lambda g, x: (g, g)),
    ("stack_rows", lambda g, x: (g[:, 0], g[:, 1])),
    ("dual_linear", lambda g, x, w: (g @ np.ascontiguousarray(w.data[:, :2]),
                                     g @ np.ascontiguousarray(w.data[:, 2:]))),
])
def test_an_input_passed_twice_gets_the_sum_of_its_two_products(op, products):
    x = Tensor(RNG.standard_normal((3, 2)), requires_grad=True)
    args = (x, x)
    if op == "dual_linear":
        args += (Tensor(RNG.standard_normal((5, 4)), requires_grad=True),)
    out = getattr(T, op)(*args)
    g = RNG.standard_normal(out.shape)
    out.backward(g)
    first, second = products(g, *args[1:])
    np.testing.assert_array_equal(x.grad, first + second)


def test_result_adds_the_products_last_input_first():
    # the rule two ops rely on: conv2d makes its weight gradient and lets it
    # go before the larger input gradient exists (running dX first lifted
    # test_backward_peak_stays_near_the_forward_graph[none] past its bound),
    # and batch_norm's x product may write over the xn its gamma sum reads
    order = []
    inputs = [Tensor(np.zeros(2), requires_grad=True, name=n) for n in "abc"]
    out = T._result(np.zeros(2), "probe", *(
        (t, lambda g, t=t: order.append(t.name) or g) for t in inputs))
    out.backward(np.ones(2))
    assert order == ["c", "b", "a"]
    assert all(np.array_equal(t.grad, np.ones(2)) for t in inputs)


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
    # bounded by the peaks measured while the graph held every
    # pre-activation: 4.26 and 4.56 MiB. Rebuilding them in backward shrinks
    # the graph (3.42 -> 1.93 MiB for none) more than the peak (4.26 ->
    # 3.95 MiB), so a bound relative to the graph no longer fits. Keeping
    # every interior gradient to the end of the walk peaked at 5.21 and
    # 6.38 MiB
    spec = NetworkSpec(family="wrn", depth=10, widen_factor=1, num_classes=4,
                       attention=AttentionConfig(mode=mode, t=4))
    model = build(spec, rng=np.random.default_rng(2))
    x = Tensor(RNG.standard_normal((16, 16, 16, 3)).astype(np.float32))
    y = RNG.integers(0, 4, size=16)
    model.zero_grad()
    tracemalloc.start()
    try:
        loss = T.cross_entropy(model.forward(x), y)
        tracemalloc.reset_peak()
        loss.backward()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= {"none": 4.26, "folded3x3": 4.56}[mode] * 2**20


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


def test_grad_conv2d_small_input_two_kernels(flat_conv):
    # 1x4x4x2 input, two 3x3 kernels
    fd_case(
        lambda rng: {"x": leaf(rng, (1, 4, 4, 2)), "w": leaf(rng, (3, 3, 2, 2))},
        lambda p: scalarize(T.conv2d(p["x"], p["w"], stride=1, padding=0)),
    )
    if flat_conv is not None:   # the check covers the flat forward and input gradient
        assert flat_conv.calls > 0


def test_grad_conv2d_strided_padded():
    fd_case(
        lambda rng: {"x": leaf(rng, (2, 5, 5, 2)), "w": leaf(rng, (3, 3, 2, 3))},
        lambda p: scalarize(T.conv2d(p["x"], p["w"], stride=2, padding=1)),
    )


@pytest.mark.parametrize("x_shape,w_shape,stride,padding", CONV_EDGE_CASES)
def test_grad_conv2d_edge_shapes(x_shape, w_shape, stride, padding, flat_conv):
    def fn(p):
        y = T.conv2d(p["x"], p["w"], stride=stride, padding=padding)
        return scalarize(T.mul(y, y))
    fd_case(lambda rng: {"x": leaf(rng, x_shape), "w": leaf(rng, w_shape)}, fn)
    if flat_conv is not None:
        assert (flat_conv.calls > 0) == takes_flat_path(x_shape, w_shape, stride)


@pytest.mark.parametrize("x_shape,w_shape,padding",
                         [((1, 4, 4, 2), (3, 3, 2, 2), 0), ((2, 5, 4, 3), (2, 1, 3, 2), 1)])
def test_grad_conv2d_without_blas_binding(x_shape, w_shape, padding, monkeypatch):
    # the gradchecks above run stride-1 convs on the flat grid; these run
    # the same shapes through im2col and shift-and-GEMM
    monkeypatch.setattr(T, "_BLAS_GEMM", None)

    def fn(p):
        y = T.conv2d(p["x"], p["w"], stride=1, padding=padding)
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


@pytest.mark.parametrize("training", [True, False])
def test_grad_fused_batch_norm_relu_conv(training, flat_conv):
    def fn(p):
        rm, rv = Tensor(np.zeros(3)), Tensor(np.ones(3))
        t = T.batch_norm(p["x"], p["g"], p["b"], rm, rv, training, relu=True, pad=1)
        y = T.conv2d(t, p["w"], padding=1)
        return scalarize(T.mul(y, y))
    fd_case(lambda rng: {"x": leaf(rng, (2, 3, 4, 3)), "g": leaf(rng, (3,), 0.5),
                         "b": leaf(rng, (3,), 0.5), "w": leaf(rng, (3, 3, 3, 2))}, fn)


def test_grad_channel_scale_add_and_pool():
    def fn(p):
        s = T.sigmoid(p["s"])
        return scalarize(T.global_avg_pool(T.channel_scale_add(s, p["u"], p["x"])))
    fd_case(lambda rng: {"s": leaf(rng, (2, 3)), "u": leaf(rng, (2, 4, 4, 3)),
                         "x": leaf(rng, (2, 4, 4, 3))}, fn)


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
