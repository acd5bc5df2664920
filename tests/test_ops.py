import numpy as np
import pytest

from mixnet import ops
from mixnet.autodiff import Node, backward, grad_check
from mixnet.errors import DataError, ParameterError, ShapeError

import oracles


def leaf(x, rq=False):
    return Node.leaf(np.asarray(x, dtype=np.float64), requires_grad=rq)


# ---------------------------------------------------------------------------
# conv2d


def test_same_padding_split():
    # (k - 1) * d / 2 on every side of H and W, none on N and C
    for k, d, p in ((5, 1, 2), (3, 2, 2), (1, 4, 0), (3, 8, 8)):
        assert ops._same_pads(k, d) == ((0, 0), (p, p), (p, p), (0, 0))


def test_conv2d_hand_values_3x3_ones():
    x = np.arange(9, dtype=np.float64).reshape(1, 3, 3, 1)
    w = np.ones((3, 3, 1, 1))
    out = ops.conv2d(leaf(x), leaf(w)).data
    assert out.shape == (1, 3, 3, 1)
    # center tap sees the whole ramp, the corner only a 2x2 patch
    assert out[0, 1, 1, 0] == 36.0
    assert out[0, 0, 0, 0] == 0 + 1 + 3 + 4


def test_conv2d_dilation_2_hand_value():
    x = np.arange(25, dtype=np.float64).reshape(1, 5, 5, 1)
    w = np.ones((3, 3, 1, 1))
    out = ops.conv2d(leaf(x), leaf(w), dilation=2).data
    assert out.shape == (1, 5, 5, 1)
    # taps land on the corners, edge midpoints and center of the 5x5
    assert out[0, 2, 2, 0] == 0 + 2 + 4 + 10 + 12 + 14 + 20 + 22 + 24


def test_conv2d_matches_naive_oracle():
    rng = np.random.default_rng(11)
    x = rng.normal(size=(2, 5, 6, 3))
    w = rng.normal(size=(3, 3, 3, 4))
    b = rng.normal(size=(4,))
    for d in (1, 2, 4):
        got = ops.conv2d(leaf(x), leaf(w), leaf(b), dilation=d).data
        want = oracles.conv2d_naive(x, w, b, dilation=d)
        np.testing.assert_allclose(got, want, rtol=1e-12)


def test_conv2d_1x1_is_a_channel_matmul():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(1, 4, 4, 5))
    w = rng.normal(size=(1, 1, 5, 2))
    got = ops.conv2d(leaf(x), leaf(w)).data
    np.testing.assert_allclose(got, x @ w[0, 0], rtol=1e-12)


def test_conv2d_5x5_matches_oracle():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(1, 6, 6, 2))
    w = rng.normal(size=(5, 5, 2, 3))
    got = ops.conv2d(leaf(x), leaf(w)).data
    np.testing.assert_allclose(got, oracles.conv2d_naive(x, w), rtol=1e-12)


def test_conv2d_shape_errors():
    x = leaf(np.zeros((1, 4, 4, 3)))
    with pytest.raises(ShapeError):
        ops.conv2d(x, leaf(np.zeros((3, 3, 2, 4))))          # cin mismatch
    with pytest.raises(ShapeError):
        ops.conv2d(leaf(np.zeros((4, 4, 3))), leaf(np.zeros((3, 3, 3, 1))))
    with pytest.raises(ShapeError):
        ops.conv2d(x, leaf(np.zeros((3, 3, 3, 4))), leaf(np.zeros(5)))
    with pytest.raises(ParameterError):
        ops.conv2d(x, leaf(np.zeros((3, 3, 3, 4))), dilation=0)


def test_convolutions_take_odd_square_kernels_and_one_integer_dilation():
    x, b = leaf(np.zeros((1, 6, 6, 2))), leaf(np.zeros(3))
    for kk in ((2, 2), (3, 5)):
        with pytest.raises(ShapeError, match="with k odd"):
            ops.conv2d(x, leaf(np.zeros(kk + (2, 3))), b)
        with pytest.raises(ShapeError, match="with k odd"):
            ops.pyramid_head(x, leaf(np.zeros(kk + (6, 3))), b, (2, 3))
    for dilation in (1.5, (1, 2), 0, True):
        with pytest.raises(ParameterError, match="^dilation must be an integer >= 1"):
            ops.conv2d(x, leaf(np.zeros((3, 3, 2, 3))), b, dilation=dilation)
    # a numpy integer is an integer
    out = ops.conv2d(x, leaf(np.zeros((3, 3, 2, 3))), b, dilation=np.int64(2))
    assert out.shape == (1, 6, 6, 3)


def test_conv2d_gradients():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(1, 4, 4, 2))
    w = rng.normal(size=(3, 3, 2, 3))
    b = rng.normal(size=(3,))

    def build(lv):
        return ops.reduce_sum(ops.conv2d(lv[0], lv[1], lv[2], dilation=2))

    report = grad_check(build, [x, w, b])
    assert report.passed, report.worst


def test_conv2d_float32_stays_float32():
    x = Node.leaf(np.zeros((1, 3, 3, 1), dtype=np.float32))
    w = Node.leaf(np.zeros((3, 3, 1, 2), dtype=np.float32))
    assert ops.conv2d(x, w).dtype == np.float32


# kernel shape -> whether forward stacks the input side (taps * Cin <= 2 * Cout)
LOWERINGS = {(5, 5, 1, 24): True,    # v2's init conv
             (5, 5, 3, 72): True,    # v1's init conv
             (5, 5, 1, 13): True, (5, 5, 1, 12): False,
             (3, 3, 2, 9): True, (3, 3, 2, 8): False,
             (3, 3, 3, 4): False, (1, 1, 3, 8): False}


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("dilation", [1, 2])
@pytest.mark.parametrize("shape", LOWERINGS, ids=lambda s: "x".join(map(str, s)))
def test_conv2d_lowerings_match_naive_oracle(monkeypatch, shape, dilation, dtype):
    ran = []

    def spy(helper):
        real = getattr(ops, helper)

        def call(*args):
            ran.append(helper)
            return real(*args)
        monkeypatch.setattr(ops, helper, call)

    spy("_patch_matrix")
    rng = np.random.default_rng(sum(shape) + dilation)
    x = rng.normal(size=(2, 7, 9, shape[2])).astype(dtype)
    w = rng.normal(size=shape).astype(dtype)
    b = rng.normal(size=shape[3]).astype(dtype)
    out = ops.conv2d(Node.leaf(x), Node.leaf(w), Node.leaf(b), dilation=dilation)
    assert ran == (["_patch_matrix"] if LOWERINGS[shape] else [])
    assert out.dtype == dtype
    want = oracles.conv2d_naive(x, w, b, dilation=dilation)
    # a GEMM sums a pixel's taps in another order than the oracle, so an
    # output that cancels to near zero also gets a floor scaled to the output
    scale = np.abs(want).max()
    if dtype == np.float64:
        np.testing.assert_allclose(out.data, want, rtol=1e-12, atol=1e-13 * scale)
    else:
        np.testing.assert_allclose(out.data, want, rtol=0, atol=1e-6 * scale)


# kernel shape -> whether the input gradient stacks the patch matrix of the
# output gradient (its correlation has Cin and Cout swapped: taps * Cout <= 2 * Cin)
INPUT_GRAD_LOWERINGS = {**{shape: False for shape in LOWERINGS},
                        (3, 3, 9, 2): True, (3, 3, 8, 2): False}
# footprints conv2d no longer takes (even or non-square kernels, which the
# oracle pads unevenly wherever (k - 1) * d is odd); these, and every
# kernel at a dilation per axis, run as their odd square kernel
OTHER_FOOTPRINTS = [(2, 2, 4, 2), (2, 2, 3, 4), (2, 3, 3, 1), (2, 3, 5, 2),
                    (4, 4, 8, 1), (4, 4, 2, 3)]


def _as_odd_square(w, dilation):
    """The (K, K, Cin, Cout) kernel, K odd, that correlates at dilation 1
    as ``w`` does at ``dilation`` (an int or a (dh, dw) pair) under the
    oracles' (k - 1) * d pads, split floor-left: w's taps at their offsets
    from the output pixel, zeros elsewhere."""
    kh, kw = w.shape[:2]
    dh, dw = dilation if isinstance(dilation, tuple) else (dilation, dilation)
    rows = np.arange(kh) * dh - (kh - 1) * dh // 2
    cols = np.arange(kw) * dw - (kw - 1) * dw // 2
    r = max(np.abs(rows).max(), np.abs(cols).max())
    out = np.zeros((2 * r + 1, 2 * r + 1) + w.shape[2:], w.dtype)
    out[np.ix_(rows + r, cols + r)] = w
    return out


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("dilation", [1, 2, 4, 8, (1, 2), (2, 1)], ids=str)
@pytest.mark.parametrize("shape", [*INPUT_GRAD_LOWERINGS, *OTHER_FOOTPRINTS],
                         ids=lambda s: "x".join(map(str, s)))
def test_conv2d_input_gradient_matches_naive_oracle(monkeypatch, shape, dilation, dtype):
    rng = np.random.default_rng(sum(shape))
    x = rng.normal(size=(2, 7, 9, shape[2])).astype(dtype)
    w = rng.normal(size=shape).astype(dtype)
    g = rng.normal(size=(2, 7, 9, shape[3])).astype(dtype)
    direct = shape in INPUT_GRAD_LOWERINGS and isinstance(dilation, int)
    kernel, d = (w, dilation) if direct else (_as_odd_square(w, dilation), 1)
    node = ops.conv2d(Node.leaf(x, requires_grad=True), Node.leaf(kernel), dilation=d)
    ran = []
    real = ops._patch_matrix
    monkeypatch.setattr(ops, "_patch_matrix", lambda *a: ran.append(a) or real(*a))
    gx = node._backward(g)[0]
    if direct:
        assert len(ran) == INPUT_GRAD_LOWERINGS[shape]
    assert gx.shape == x.shape and gx.dtype == dtype
    want = oracles.conv2d_input_grad_naive(g, w, dilation)
    # the floor scaled to the output covers pixels whose taps cancel
    scale = np.abs(want).max()
    if dtype == np.float64:
        np.testing.assert_allclose(gx, want, rtol=1e-12, atol=1e-13 * scale)
    else:
        np.testing.assert_allclose(gx, want, rtol=0, atol=1e-6 * scale)


@pytest.mark.parametrize("c", [1, 3, 36])
@pytest.mark.parametrize("dilation", [1, 2, 4, 8])
@pytest.mark.parametrize("k", [5, 3])
def test_patch_matrix_matches_the_window_loop_exactly(k, dilation, c):
    rng = np.random.default_rng(k * dilation + c)
    h, wd = 6, 7
    xp = ops._pad(rng.normal(size=(2, h, wd, c)).astype(np.float32),
                  ops._same_pads(k, dilation))
    got = ops._patch_matrix(xp, k, dilation)
    want = oracles.patch_matrix_naive(xp, k, k, h, wd, dilation, dilation)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(got, want)


@pytest.mark.parametrize("shape, dilation", [((3, 3, 36, 36), 1), ((3, 3, 36, 36), 2),
                                             ((3, 3, 36, 36), 8), ((1, 1, 72, 36), 1),
                                             ((3, 3, 12, 12), 2)], ids=str)
def test_correlate_gives_a_kernel_view_the_bits_of_its_c_ordered_copy(shape, dilation):
    # the input gradient's kernel: flipped, channels swapped, F-ordered taps
    k, _, cin, cout = shape
    rng = np.random.default_rng(cin + dilation)
    view = rng.normal(size=shape).astype(np.float32)[::-1, ::-1].transpose(0, 1, 3, 2)
    gp = ops._pad(rng.normal(size=(4, 24, 24, cout)).astype(np.float32),
                  ops._same_pads(k, dilation))
    got = ops._correlate(gp, view, dilation)
    want = ops._correlate(gp, np.ascontiguousarray(view), dilation)
    assert got.shape == (4, 24, 24, cin)
    assert np.array_equal(got, want)


# ---------------------------------------------------------------------------
# pooling


def test_maxpool_values_even_and_ragged():
    x = np.arange(16, dtype=np.float64).reshape(1, 4, 4, 1)
    out = ops.maxpool2x2(leaf(x)).data
    np.testing.assert_array_equal(out[0, :, :, 0], [[5, 7], [13, 15]])
    # 3x3 input: ceil mode gives 2x2, the corner cell sees only x[2,2]
    y = np.arange(9, dtype=np.float64).reshape(1, 3, 3, 1)
    out = ops.maxpool2x2(leaf(y)).data
    np.testing.assert_array_equal(out[0, :, :, 0], [[4, 5], [7, 8]])


def test_maxpool_matches_oracle():
    rng = np.random.default_rng(7)
    for shape in [(2, 6, 6, 3), (1, 5, 7, 2), (3, 1, 1, 4)]:
        x = rng.normal(size=shape)
        got = ops.maxpool2x2(leaf(x)).data
        np.testing.assert_allclose(got, oracles.maxpool2x2_naive(x))


def test_maxpool_tie_goes_to_first_window_slot():
    x = np.zeros((1, 2, 2, 1))
    node = leaf(x, rq=True)
    out = ops.maxpool2x2(node)
    backward(ops.reduce_sum(out))
    # all four cells tie at 0; only the scan-first one may receive gradient
    np.testing.assert_array_equal(node.grad[0, :, :, 0], [[1, 0], [0, 0]])


def _bits(a):
    return a.view(f"u{a.itemsize}")


def _value_and_grad(op, x, g):
    node = Node.leaf(x, requires_grad=True)
    out = op(node)
    backward(ops.reduce_sum(ops.mul(out, Node.leaf(g))))
    return out.data, node.grad


def _maxpool_cases(rng):
    yield np.fmax(rng.normal(size=(2, 6, 8, 3)), 0)           # many tied zeros
    yield np.fmax(rng.normal(size=(1, 5, 7, 2)), 0)           # ragged edges
    yield rng.normal(size=(2, 3, 1, 2))
    yield np.full((1, 4, 3, 2), 0.25)                          # all-equal windows
    yield rng.choice([0.0, -0.0], size=(2, 4, 4, 2))           # +-0 ties
    with_nan = rng.normal(size=(1, 5, 5, 2))
    with_nan[0, 1, 1, 0] = np.nan    # not the window's first cell
    with_nan[0, 0, 2, 1] = np.nan    # first cell of its window
    with_nan[0, 1, 3, 1] = np.nan    # a second NaN in that window
    with_nan[0, 4, 4, 0] = np.nan    # ragged corner window
    yield with_nan
    all_neg_inf = np.zeros((1, 3, 3, 1))
    all_neg_inf[0, 2, 2, 0] = -np.inf    # the only in-bounds cell of its window
    yield all_neg_inf


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_maxpool_forward_and_backward_match_first_max_oracle(dtype):
    rng = np.random.default_rng(31)
    for x in _maxpool_cases(rng):
        x = x.astype(dtype)
        n, h, w, c = x.shape
        g = rng.normal(size=(n, (h + 1) // 2, (w + 1) // 2, c)).astype(dtype)
        out, gx = _value_and_grad(ops.maxpool2x2, x, g)
        want_out, want_gx = oracles.maxpool2x2_first_max_naive(x, g)
        assert out.dtype == gx.dtype == dtype
        np.testing.assert_array_equal(_bits(out), _bits(want_out))
        np.testing.assert_array_equal(_bits(gx), _bits(want_gx))


def test_maxpool_gradient():
    rng = np.random.default_rng(8)
    x = rng.normal(size=(2, 5, 4, 2))

    def build(lv):
        return ops.reduce_sum(ops.maxpool2x2(lv[0]))

    assert grad_check(build, [x]).passed


@pytest.mark.parametrize("shape", [(4, 96, 96, 72), (4, 96, 96, 24), (3, 7, 9, 5)])
def test_pool_then_relu_is_relu_then_pool_bit_for_bit(shape):
    """relu is monotone, so the init unit may pool first: same values, same
    input gradient, ties and zeros included."""
    rng = np.random.default_rng(sum(shape))
    x = rng.normal(size=shape).astype(np.float32)
    plant = rng.random(shape)
    x[plant < 0.3] = 0.0
    x[plant > 0.9] = -0.0
    x[(0.5 < plant) & (plant < 0.6)] = 0.75          # ties between positive cells
    n, h, w, c = shape
    g = rng.normal(size=(n, (h + 1) // 2, (w + 1) // 2, c)).astype(np.float32)
    pool_first = _value_and_grad(lambda n: ops.relu(ops.maxpool2x2(n)), x, g)
    relu_first = _value_and_grad(lambda n: ops.maxpool2x2(ops.relu(n)), x, g)
    for got, want in zip(pool_first, relu_first):
        np.testing.assert_array_equal(_bits(got), _bits(want))


def test_avgpool_region_hand_value():
    x = np.arange(16, dtype=np.float64).reshape(1, 4, 4, 1)
    out = ops.avgpool_region(leaf(x), 2).data
    np.testing.assert_allclose(out[0, :, :, 0], [[2.5, 4.5], [10.5, 12.5]])


def test_avgpool_region_uneven_sizes_match_oracle():
    rng = np.random.default_rng(10)
    # 7 and 10 do not divide evenly by most bin counts
    x = rng.normal(size=(2, 7, 10, 3))
    for bins in (1, 2, 3, 4, 6):
        got = ops.avgpool_region(leaf(x), bins).data
        want = oracles.avgpool_region_naive(x, bins)
        np.testing.assert_allclose(got, want, rtol=1e-12)
        assert got.shape == (2, bins, bins, 3)


def test_avgpool_region_needs_enough_pixels():
    with pytest.raises(ShapeError):
        ops.avgpool_region(leaf(np.zeros((1, 5, 5, 1))), 6)


def test_pool_and_resize_sizes_are_checked_never_truncated():
    x = leaf(np.zeros((1, 5, 5, 1)))
    for bins in (2.7, 0, True, "2"):
        with pytest.raises(ParameterError, match="^bins must be an integer >= 1"):
            ops.avgpool_region(x, bins)
    for size in ((9.5, 11), (9, 0), (np.float64(9), 11), (9, False)):
        with pytest.raises(ParameterError, match="^target (height|width) must be an integer"):
            ops.bilinear_resize(x, *size)
    assert ops.avgpool_region(x, np.int32(2)).shape == (1, 2, 2, 1)
    assert ops.bilinear_resize(x, np.int64(9), 11).shape == (1, 9, 11, 1)


def test_avgpool_region_gradient():
    rng = np.random.default_rng(12)
    x = rng.normal(size=(1, 7, 6, 2))

    def build(lv):
        return ops.reduce_sum(ops.avgpool_region(lv[0], 3))

    assert grad_check(build, [x]).passed


# ---------------------------------------------------------------------------
# resize


def test_bilinear_identity_when_size_unchanged():
    rng = np.random.default_rng(13)
    x = rng.normal(size=(1, 5, 5, 2))
    out = ops.bilinear_resize(leaf(x), 5, 5).data
    np.testing.assert_allclose(out, x, rtol=1e-12)


def test_bilinear_constant_input_is_exact():
    x = np.full((1, 3, 3, 1), 7.25, dtype=np.float32)
    out = ops.bilinear_resize(Node.leaf(x), 12, 12).data
    assert (out == np.float32(7.25)).all()


def test_bilinear_upsample_hand_values():
    x = np.array([[0.0, 1.0], [2.0, 3.0]]).reshape(1, 2, 2, 1)
    out = ops.bilinear_resize(leaf(x), 4, 4).data[0, :, :, 0]
    # half-pixel centers: sources at -0.25, 0.25, 0.75, 1.25 (clamped)
    assert out[0, 0] == 0.0
    assert out[3, 3] == 3.0
    np.testing.assert_allclose(out[1, 1], 0.75)
    np.testing.assert_allclose(out[1, 2], 1.25)


def test_bilinear_matches_naive_oracle():
    rng = np.random.default_rng(14)
    x = rng.normal(size=(2, 5, 7, 3))
    for oh, ow in [(10, 14), (3, 4), (5, 7), (12, 12), (1, 1)]:
        got = ops.bilinear_resize(leaf(x), oh, ow).data
        want = oracles.bilinear_naive(x, oh, ow)
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12)


def test_bilinear_gradient_up_and_down():
    rng = np.random.default_rng(15)
    x = rng.normal(size=(1, 4, 5, 2))

    def build_up(lv):
        return ops.reduce_sum(ops.bilinear_resize(lv[0], 9, 11))

    def build_down(lv):
        return ops.reduce_sum(ops.bilinear_resize(lv[0], 2, 3))

    assert grad_check(build_up, [x]).passed
    assert grad_check(build_down, [x]).passed


def _assert_adjoint(op, x, rng):
    """<g, A x> == <A^T g, x> for the linear op A and its backward."""
    out = op(leaf(x))
    g = rng.normal(size=out.shape)
    lhs, rhs = np.vdot(g, out.data), np.vdot(out._backward(g)[0], x)
    assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0), (lhs, rhs)


def test_region_pool_and_resize_backward_are_their_adjoints():
    rng = np.random.default_rng(16)
    x = rng.normal(size=(2, 7, 10, 3))
    for bins in (1, 3, 4):
        _assert_adjoint(lambda n, bins=bins: ops.avgpool_region(n, bins), x, rng)
    x = rng.normal(size=(2, 5, 7, 3))
    for oh, ow in ((9, 11), (3, 2)):
        _assert_adjoint(lambda n, oh=oh, ow=ow: ops.bilinear_resize(n, oh, ow), x, rng)


# ---------------------------------------------------------------------------
# pyramid pooling head

# summed width of the level outputs feeding the head at each variant's
# default config
HEAD_WIDTHS = {"v1": 360, "v2": 216, "v3": 360}
BINS = (2, 4, 6, 12)


def _head_and_grads(head, arrays, g):
    lv = [Node.leaf(a, requires_grad=True) for a in arrays]
    out = head(*lv, BINS)
    backward(ops.reduce_sum(ops.mul(out, Node.leaf(g))))
    return [out.data] + [node.grad for node in lv]


@pytest.mark.parametrize("variant", sorted(HEAD_WIDTHS))
@pytest.mark.parametrize("dtype, tol", [(np.float64, 1e-12), (np.float32, 1e-5)])
def test_pyramid_head_matches_unfused_composition(variant, dtype, tol):
    c = HEAD_WIDTHS[variant]
    rng = np.random.default_rng(22)
    # h = w = max(bins); sizes no bin divides; a batch of one and of several
    # and a 5x5 kernel, padded two pixels a side
    for n, h, w, (kh, kw) in ((1, 12, 12, (3, 3)), (2, 13, 17, (3, 3)),
                              (3, 25, 14, (3, 3)), (2, 13, 17, (5, 5))):
        arrays = [rng.normal(size=(n, h, w, c)).astype(dtype),
                  (rng.normal(size=(kh, kw, 5 * c, 4))
                   / np.sqrt(kh * kw * 5 * c)).astype(dtype),
                  rng.normal(size=(4,)).astype(dtype)]
        g = rng.normal(size=(n, h, w, 4)).astype(dtype)
        got = _head_and_grads(ops.pyramid_head, arrays, g)
        want = _head_and_grads(oracles.pyramid_head_unfused, arrays, g)
        for what, a, ref in zip(("logits", "gx", "gw", "gb"), got, want):
            assert a.dtype == dtype, what
            rel = np.abs(a - ref).max() / np.abs(ref).max()
            assert rel <= tol, f"{what} at {(n, h, w, c)}: rel err {rel:.2e}"


def _head_over(*args):
    *parts, w, b, bins = args
    return ops.pyramid_head(parts, w, b, bins)


def _unfused_head_over(*args):
    *parts, w, b, bins = args
    return oracles.pyramid_head_unfused(ops.concat_channels(parts), w, b, bins)


@pytest.mark.parametrize("widths", [(5, 7, 12), (24,)], ids=str)
@pytest.mark.parametrize("dtype, tol", [(np.float64, 1e-12), (np.float32, 1e-5)])
def test_pyramid_head_over_parts_matches_the_unfused_head_of_their_concat(widths, dtype, tol):
    c = sum(widths)
    rng = np.random.default_rng(23)
    # the shapes of test_pyramid_head_matches_unfused_composition
    for n, h, w, (kh, kw) in ((1, 12, 12, (3, 3)), (2, 13, 17, (3, 3)),
                              (3, 25, 14, (3, 3)), (2, 13, 17, (5, 5))):
        arrays = [rng.normal(size=(n, h, w, ci)).astype(dtype) for ci in widths]
        arrays += [(rng.normal(size=(kh, kw, 5 * c, 4))
                    / np.sqrt(kh * kw * 5 * c)).astype(dtype),
                   rng.normal(size=(4,)).astype(dtype)]
        g = rng.normal(size=(n, h, w, 4)).astype(dtype)
        got = _head_and_grads(_head_over, arrays, g)
        want = _head_and_grads(_unfused_head_over, arrays, g)
        names = ["logits"] + [f"g part {i}" for i in range(len(widths))] + ["gw", "gb"]
        for what, a, ref in zip(names, got, want, strict=True):
            assert a.dtype == dtype and a.shape == ref.shape, what
            rel = np.abs(a - ref).max() / np.abs(ref).max()
            assert rel <= tol, f"{what} at {(n, h, w, widths)}: rel err {rel:.2e}"


def test_pyramid_head_part_errors():
    w, b = leaf(np.zeros((3, 3, 9, 3))), leaf(np.zeros(3))
    with pytest.raises(ParameterError):
        ops.pyramid_head([], w, b, (2,))
    with pytest.raises(ShapeError):   # parts of different spatial sizes
        ops.pyramid_head([leaf(np.zeros((1, 6, 6, 2))), leaf(np.zeros((1, 6, 7, 1)))],
                         w, b, (2, 3))


def _one_hot_along(axis, size, width):
    """(1, size, size, width) with x[0, i, j, c] = 1 where the index on
    ``axis`` (1: i, 2: j) equals c, else 0: a one-hot along one axis,
    constant along the other."""
    eye = np.eye(size, width)
    return np.broadcast_to(eye[:, None] if axis == 1 else eye[None], (1, size, size, width))


@pytest.mark.parametrize("size, bins", [(size, bins) for bins in ((2, 3), BINS)
                                         for size in (7, 13, 17, 25) if size >= max(bins)],
                         ids=str)
def test_pyramid_axis_maps_are_the_pool_and_resize_along_each_axis(size, bins):
    pool, up = ops._pyramid_axis(size, bins, np.float64)
    assert pool.shape == (sum(bins), size) and up.shape == (size, sum(bins))
    edges = np.cumsum((0,) + bins)
    for nb, lo, hi in zip(bins, edges, edges[1:]):
        # pooled or resized, the one-hot along an axis gives back the
        # (out, in) matrix of that axis, repeated along the other
        for axis in (1, 2):
            pooled = oracles.avgpool_region_naive(_one_hot_along(axis, size, size), nb)
            resized = oracles.bilinear_naive(_one_hot_along(axis, nb, nb), size, size)
            for got, want in ((pool[lo:hi], pooled), (up[:, lo:hi], resized)):
                want = np.moveaxis(want[0], 2 - axis, 0)
                np.testing.assert_allclose(np.broadcast_to(got, want.shape), want,
                                           rtol=0, atol=1e-12)


def test_pyramid_head_shape_errors():
    x = leaf(np.zeros((1, 6, 6, 2)))
    b = leaf(np.zeros(3))
    with pytest.raises(ShapeError):   # kernel not (1 + len(bins)) * C wide
        ops.pyramid_head(x, leaf(np.zeros((3, 3, 4, 3))), b, (2, 3))
    with pytest.raises(ShapeError):
        ops.pyramid_head(x, leaf(np.zeros((3, 3, 6, 3))), leaf(np.zeros(2)), (2, 3))
    with pytest.raises(ShapeError):   # more bins than pixels
        ops.pyramid_head(x, leaf(np.zeros((3, 3, 6, 3))), b, (2, 7))
    for bins in ((), (0, 2), (2.5,), (True, 2)):     # counted, never truncated
        with pytest.raises(ParameterError):
            ops.pyramid_head(x, leaf(np.zeros((3, 3, 2 * (1 + len(bins)), 3))), b, bins)


# ---------------------------------------------------------------------------
# structural ops


def _relu_input(rng, dtype):
    x = rng.normal(size=(3, 7, 5, 4))
    special = [np.nan, np.inf, -np.inf, 0.0, -0.0]
    x.flat[:len(special)] = special
    x[rng.random(x.shape) < 0.2] = -0.0
    x[rng.random(x.shape) < 0.2] = 0.0
    return x.astype(dtype)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_relu_forward_bits_match_where(dtype):
    x = _relu_input(np.random.default_rng(32), dtype)
    out = ops.relu(Node.leaf(x)).data
    assert out.dtype == dtype
    np.testing.assert_array_equal(_bits(out), _bits(np.where(x > 0, x, 0)))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_relu_backward_bits_match_masked_gradient(dtype):
    rng = np.random.default_rng(33)
    x = _relu_input(rng, dtype)
    g = rng.normal(size=x.shape).astype(dtype)
    g[rng.random(g.shape) < 0.1] = -0.0
    _, gx = _value_and_grad(ops.relu, x, g)
    assert gx.dtype == dtype
    np.testing.assert_array_equal(_bits(gx), _bits(np.where(x > 0, g, 0)))



def test_concat_channels_values_and_gradient():
    rng = np.random.default_rng(16)
    a = rng.normal(size=(1, 3, 3, 2))
    b = rng.normal(size=(1, 3, 3, 5))
    out = ops.concat_channels([leaf(a), leaf(b)]).data
    np.testing.assert_array_equal(out, np.concatenate([a, b], axis=-1))

    def build(lv):
        return ops.reduce_sum(ops.relu(ops.concat_channels(lv)))

    assert grad_check(build, [a, b]).passed


def test_concat_channels_rejects_spatial_mismatch():
    with pytest.raises(ShapeError):
        ops.concat_channels([leaf(np.zeros((1, 3, 3, 1))),
                             leaf(np.zeros((1, 4, 3, 1)))])


def test_add_mul_scale_and_reductions():
    a = leaf(np.array([[1.0, -2.0]]), rq=True)
    b = leaf(np.array([[3.0, 5.0]]), rq=True)
    np.testing.assert_array_equal(ops.add(a, b).data, [[4.0, 3.0]])
    np.testing.assert_array_equal(ops.mul(a, b).data, [[3.0, -10.0]])
    assert float(ops.reduce_sum(b).data) == 8.0


# ---------------------------------------------------------------------------
# softmax cross entropy


def test_uniform_logits_loss_is_log_k():
    logits = leaf(np.zeros((1, 2, 2, 3)))
    labels = np.zeros((1, 2, 2), dtype=np.int64)
    loss = ops.softmax_cross_entropy(logits, labels, reduction="mean")
    np.testing.assert_allclose(float(loss.data), np.log(3.0), rtol=1e-12)
    loss_sum = ops.softmax_cross_entropy(logits, labels, reduction="sum")
    np.testing.assert_allclose(float(loss_sum.data), 4 * np.log(3.0), rtol=1e-12)


def test_xent_matches_naive_oracle():
    rng = np.random.default_rng(18)
    logits = rng.normal(size=(2, 3, 4, 5)) * 3
    labels = rng.integers(0, 5, size=(2, 3, 4))
    for red in ("sum", "mean"):
        got = float(ops.softmax_cross_entropy(leaf(logits), labels, red).data)
        want = oracles.softmax_xent_naive(logits, labels, red)
        np.testing.assert_allclose(got, want, rtol=1e-12)


def test_xent_is_stable_for_huge_logits():
    logits = leaf(np.array([[1000.0, 0.0, -1000.0]]))
    labels = np.array([0], dtype=np.int64)
    loss = float(ops.softmax_cross_entropy(logits, labels).data)
    assert np.isfinite(loss)
    assert loss < 1e-6  # the correct class dominates completely


def test_xent_gradient_both_reductions():
    rng = np.random.default_rng(19)
    logits = rng.normal(size=(1, 3, 3, 4))
    labels = rng.integers(0, 4, size=(1, 3, 3))

    for red in ("sum", "mean"):
        def build(lv, red=red):
            return ops.softmax_cross_entropy(lv[0], labels, red)

        assert grad_check(build, [logits]).passed


def test_xent_gradient_is_probs_minus_onehot():
    logits = np.random.default_rng(20).normal(size=(1, 2, 2, 3))
    labels = np.array([[[0, 1], [2, 0]]])
    node = Node.leaf(np.asarray(logits), requires_grad=True)
    backward(ops.softmax_cross_entropy(node, labels, "sum"))
    probs = ops.softmax(logits)
    onehot = np.eye(3)[labels]
    np.testing.assert_allclose(node.grad, probs - onehot, rtol=1e-12)


def _swung_logits():
    """float32 logits spread over +-170, as early v1 training produces."""
    rng = np.random.default_rng(24)
    logits = rng.uniform(-170, 170, size=(4, 12, 12, 4)).astype(np.float32)
    return logits, rng.integers(0, 4, size=(4, 12, 12))


def test_xent_gradient_of_swung_logits_has_no_subnormals():
    logits, labels = _swung_logits()
    tiny = np.finfo(np.float32).tiny
    for red in ("sum", "mean"):
        node = Node.leaf(logits, requires_grad=True)
        backward(ops.softmax_cross_entropy(node, labels, red))
        assert node.grad.dtype == np.float32
        grad = np.abs(node.grad)
        assert not np.any((grad > 0) & (grad < tiny)), red


def test_xent_flushed_gradient_is_within_tiny_of_unflushed():
    logits, labels = _swung_logits()
    tiny = np.finfo(np.float32).tiny
    node = Node.leaf(logits, requires_grad=True)
    backward(ops.softmax_cross_entropy(node, labels, "mean"))
    flat = ops.softmax(logits.reshape(-1, 4))
    flat[np.arange(flat.shape[0]), labels.reshape(-1)] -= 1
    flat /= flat.shape[0]
    unflushed = flat.reshape(logits.shape)
    assert np.any((unflushed != 0) & (np.abs(unflushed) < tiny))  # the case is hit
    assert np.abs(node.grad - unflushed).max() < tiny


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("k", range(2, 10))
def test_reduce_classes_is_the_ufunc_reduction(k, dtype):
    rng = np.random.default_rng(k)
    a = (rng.normal(size=(3, 5, 7, k)) * 50).astype(dtype)
    hit = rng.random(a.shape) < 0.2
    a[hit] = rng.choice(np.array([np.nan, np.inf, -np.inf, 0.0, -0.0], dtype=dtype), hit.sum())
    with np.errstate(invalid="ignore"):         # inf - inf
        for ufunc, out_dtype in ((np.maximum, None), (np.add, None), (np.add, np.float64)):
            got = ops._reduce_classes(a, ufunc, out_dtype)
            want = ufunc.reduce(a, axis=-1, keepdims=True, dtype=out_dtype)
            assert got.dtype == want.dtype
            assert np.array_equal(got, want, equal_nan=True), (ufunc, out_dtype)


def test_xent_label_validation():
    logits = leaf(np.zeros((1, 2, 2, 3)))
    with pytest.raises(DataError):
        ops.softmax_cross_entropy(logits, np.full((1, 2, 2), 3, dtype=np.int64))
    with pytest.raises(DataError):
        ops.softmax_cross_entropy(logits, np.full((1, 2, 2), -1, dtype=np.int64))
    with pytest.raises(DataError):
        ops.softmax_cross_entropy(logits, np.zeros((1, 2, 2)))  # float labels
    with pytest.raises(ShapeError):
        ops.softmax_cross_entropy(logits, np.zeros((1, 2), dtype=np.int64))
    with pytest.raises(ParameterError):
        ops.softmax_cross_entropy(logits, np.zeros((1, 2, 2), dtype=np.int64),
                                  reduction="median")


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(21)
    p = ops.softmax(rng.normal(size=(4, 7)) * 10)
    np.testing.assert_allclose(p.sum(axis=-1), np.ones(4), rtol=1e-12)
    assert (p >= 0).all()


def test_conv2d_builds_no_gradient_for_an_input_that_needs_none():
    rng = np.random.default_rng(13)
    x = rng.normal(size=(2, 6, 7, 3))
    for shape in ((5, 5, 3, 4), (1, 1, 3, 4), (3, 3, 3, 2)):
        w = rng.normal(size=shape)
        g = rng.normal(size=(2, 6, 7, shape[3]))
        gx, gw, gb = ops.conv2d(leaf(x), leaf(w, rq=True), leaf(np.zeros(shape[3])),
                                dilation=2)._backward(g)
        assert gx is None and gb is None
        want = ops.conv2d(leaf(x, rq=True), leaf(w, rq=True), dilation=2)._backward(g)[1]
        np.testing.assert_array_equal(gw, want)
        # the kernel gradient is the correlation of x with g at each tap
        np.testing.assert_allclose(gw, oracles.conv2d_kernel_grad_naive(x, g, shape, 2),
                                   rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("dtype, rtol", [(np.float32, 1e-6), (np.float64, 1e-12)],
                         ids=["float32", "float64"])
def test_avgpool_region_backward_matches_the_adjoint_loop(dtype, rtol):
    rng = np.random.default_rng(14)
    for h, w, bins in ((7, 10, 3), (12, 12, 4), (13, 17, 6), (5, 5, 1), (9, 11, 9)):
        g = rng.normal(size=(2, bins, bins, 3)).astype(dtype)
        got = ops.avgpool_region(Node.leaf(np.zeros((2, h, w, 3), dtype)), bins)._backward(g)[0]
        want = oracles.region_mean_adjoint_naive(g, h, w)
        assert got.dtype == want.dtype
        np.testing.assert_allclose(got, want, rtol=rtol, err_msg=str((h, w, bins)))
