"""Differentiable operations on graph nodes.

All image-like values use channels-last layout ``(N, H, W, C)`` and
convolution kernels use ``(k, k, c_in, c_out)`` with k odd (the network's
are 1, 3 and 5; another footprint is an odd square kernel with zero
taps).  Convolutions are cross-correlations (no kernel flip), stride 1,
at one integer dilation d, padded with ``p = (k - 1) * d / 2`` zeros on
every side, so output rows [r0, r1) read padded rows [r0, r1 + 2p); the
input gradient is the same correlation, padded alike, and the kernel
gradient a sum over taps, each lowered by the same rule (:func:`conv2d`):
of the network's convs, only the 5x5 init convs build a patch matrix.

The max pool uses 2x2 windows with stride 2 and ceil-mode output sizes:
a ragged bottom/right edge still produces an output cell, fed by the
in-bounds values only.  Its backward reads one byte per output, the scan
position of each window's winner, not the input (:func:`maxpool2x2`).

A weight matrix that meets an activation-sized operand in a stacked
matmul, ``(N, H, W, C) @ (C, K)``, is C-ordered: numpy runs that matmul
1.4-2.7x slower when the 2-D operand is a transposed (F-ordered) view
(numpy 2.4.6 with OpenBLAS, one thread: ``(4, 24, 24, 36) @ (36, 360)``
in float32 took 0.45-0.60 ms C-ordered and 1.08-1.66 ms F-ordered on a
2-core x86 box).  Copying the weights costs at most taps*Cin*Cout floats
a call (47 KB for a 3x3 kernel at 36 -> 36 channels).  So
:func:`_correlate` copies a kernel view's tap matrices, and
:func:`pyramid_head`'s backward builds its kernel blocks transposed.

Everything is dtype-generic: float64 inputs stay float64 end to end,
which is what the finite-difference checker relies on.

A backward rule's closure captures the arrays and ``requires_grad``
flags it reads, never a node, so an input array no rule reads is freed
once forward code drops it (see :mod:`mixnet.autodiff`).
"""

from __future__ import annotations

from functools import cache
from typing import Optional, Sequence

import numpy as np

from .autodiff import Node, grad_enabled
from .errors import ParameterError, ShapeError
from .records import check_count, check_labels


# ---------------------------------------------------------------------------
# elementwise / structural ops


def _masked(g: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """``np.where(mask, g, 0)`` bit for bit, as an integer multiply of
    g's bits by the mask: no per-element branch, and +0.0 where the mask
    is False."""
    return (g.view(f"u{g.itemsize}") * mask).view(g.dtype)


def relu(x: Node, name: str = "relu") -> Node:
    """max(x, 0), with NaN -> 0 and -0.0 -> +0.0.  Both passes are
    branch-free (``np.fmax``, :func:`_masked`): ``np.where`` on the random
    sign mask of an activation costs about 9 ns an element.  Backward
    takes the mask from the output, as ``out > 0``, which is ``x > 0``
    for every x (NaN and -0.0 map to +0.0)."""
    out = np.fmax(x.data, 0)

    def bwd(g):
        return (_masked(g, out > 0),)

    return Node(out, (x,), bwd, name=name)


def add(a: Node, b: Node, name: str = "add") -> Node:
    if a.shape != b.shape:
        raise ShapeError(f"add needs matching shapes, got {a.shape} and {b.shape}")
    out = a.data + b.data

    def bwd(g):
        return g, g

    return Node(out, (a, b), bwd, name=name)


def mul(a: Node, b: Node, name: str = "mul") -> Node:
    if a.shape != b.shape:
        raise ShapeError(f"mul needs matching shapes, got {a.shape} and {b.shape}")
    out = a.data * b.data
    ad, bd = a.data, b.data

    def bwd(g):
        return g * bd, g * ad

    return Node(out, (a, b), bwd, name=name)


def reduce_sum(x: Node, name: str = "sum") -> Node:
    out = np.asarray(x.data.sum(dtype=np.float64), dtype=x.dtype).reshape(())
    shp, dt = x.shape, x.dtype

    def bwd(g):
        return (np.broadcast_to(g.reshape(()), shp).astype(dt, copy=True),)

    return Node(out, (x,), bwd, name=name)


def concat_channels(parts: Sequence[Node], name: str = "concat") -> Node:
    if not parts:
        raise ParameterError("concat_channels needs at least one input")
    base = parts[0].shape[:-1]
    for p in parts:
        if p.shape[:-1] != base:
            raise ShapeError(f"concat_channels spatial mismatch: {p.shape} vs {base + ('C',)}")
    widths = [p.shape[-1] for p in parts]
    out = np.concatenate([p.data for p in parts], axis=-1)
    splits = np.cumsum(widths)[:-1]

    def bwd(g):
        return tuple(np.ascontiguousarray(piece) for piece in np.split(g, splits, axis=-1))

    return Node(out, tuple(parts), bwd, name=name)


# ---------------------------------------------------------------------------
# convolution


def _pad(a: np.ndarray, pads, value=0) -> np.ndarray:
    """``np.pad(a, pads, constant_values=value)``, or ``a`` itself when
    every pad is zero."""
    if not any(lo or hi for lo, hi in pads):
        return a
    return np.pad(a, pads, constant_values=value)


def _same_pads(k: int, d: int) -> tuple:
    """Same-size zero padding of an (N, H, W, C) array under a k x k
    window at dilation d: (k - 1) * d / 2 on every side."""
    p = (k - 1) * d // 2
    return (0, 0), (p, p), (p, p), (0, 0)


def _odd_square(w: Node, op: str) -> int:
    """The size k of a (k, k, cin, cout) kernel with k odd."""
    k = w.shape[0]
    if w.ndim != 4 or w.shape[1] != k or k % 2 == 0:
        raise ShapeError(f"{op} kernel must be (k,k,cin,cout) with k odd, got {w.shape}")
    return k


def _windows(xp: np.ndarray, k: int, d: int):
    """Each tap's shifted output-sized view of the padded ``xp`` (axes 1
    and 2 spatial), tap-major like a (k, k, ...) kernel's taps."""
    h, wd = xp.shape[1] - (k - 1) * d, xp.shape[2] - (k - 1) * d
    for i in range(k):
        for j in range(k):
            yield xp[:, i * d:i * d + h, j * d:j * d + wd]


def _patch_matrix(xp: np.ndarray, k: int, d: int) -> np.ndarray:
    """(N*h*wd, k*k*C) matrix whose row holds the padded (N, ., ., C)
    ``xp`` under one output pixel's kernel window, tap-major like a (k,
    k, C, Cout) kernel's rows; a 1x1 kernel's is ``xp`` itself, reshaped.
    Otherwise it is the transposed view of a C-ordered (k*k*C, N*h*wd)
    matrix filled from a channels-first copy of ``xp``, so each tap writes
    runs of wd elements, not of C (Chetlur et al. 2014)."""
    n, hp, wp, c = xp.shape
    h, wd = hp - (k - 1) * d, wp - (k - 1) * d
    if k == 1:
        return xp.reshape(n * h * wd, c)
    xc = np.ascontiguousarray(np.moveaxis(xp, -1, 0)).reshape(c * n, hp, wp)
    cols = np.empty((k * k, c * n, h, wd), dtype=xp.dtype)
    for t, v in enumerate(_windows(xc, k, d)):
        cols[t] = v
    return cols.reshape(k * k * c, n * h * wd).T


def _stacks(k: int, cin: int, cout: int) -> bool:
    """conv2d's lowering rule: whether a k x k correlation of ``cin`` into
    ``cout`` channels builds its patch matrix, which it does where that
    matrix is at most twice the output's size and k > 1."""
    return k > 1 and k * k * cin <= 2 * cout


def _correlate(xp: np.ndarray, w: np.ndarray, d: int) -> np.ndarray:
    """Dilated correlation of the padded input ``xp`` with the (k, k,
    Cin, Cout) kernel ``w``, lowered by conv2d's rule.  Its (Cin, Cout)
    tap matrices are taken C-ordered (the module docstring's layout
    rule): that copies the input gradient's kernel view, whose taps are
    F-ordered, and leaves a forward kernel as is."""
    k, _, cin, cout = w.shape
    taps = k * k
    if _stacks(k, cin, cout):
        out = _patch_matrix(xp, k, d) @ w.reshape(taps * cin, cout)
        return out.reshape(len(xp), -1, xp.shape[2] - (k - 1) * d, cout)
    mats = np.ascontiguousarray(w.reshape(taps, cin, cout))
    views = _windows(xp, k, d)
    out = next(views) @ mats[0]
    for v, m in zip(views, mats[1:]):
        out += v @ m
    return out


def _kernel_gradient(xp: np.ndarray, g: np.ndarray, k: int, d: int) -> np.ndarray:
    """The (k, k, Cin, Cout) kernel gradient of the correlation of the
    padded input ``xp`` whose output gradient is ``g``, lowered by
    conv2d's rule: the patch matrix transposed times ``g``, or one GEMM
    per tap, ``window(xp).reshape(-1, Cin).T @ g.reshape(-1, Cout)``."""
    cin, cout = xp.shape[-1], g.shape[-1]
    gm = g.reshape(-1, cout)
    if _stacks(k, cin, cout):
        return (_patch_matrix(xp, k, d).T @ gm).reshape(k, k, cin, cout)
    gw = np.empty((k * k, cin, cout), dtype=g.dtype)
    for t, v in enumerate(_windows(xp, k, d)):
        gw[t] = v.reshape(-1, cin).T @ gm
    return gw.reshape(k, k, cin, cout)


def conv2d(x: Node, w: Node, b: Optional[Node] = None, dilation: int = 1,
           name: str = "conv") -> Node:
    """Stride-1 dilated cross-correlation with size-preserving zero padding.

    x: (N, H, W, Cin), w: (k, k, Cin, Cout) with k odd, b: (Cout,) or
    None, dilation: an integer d >= 1.
    Forward, input gradient and kernel gradient follow one rule
    (:func:`_stacks`): a correlation whose patch matrix is at most twice
    the output's size (``taps * Cin <= 2 * Cout``, the 5x5 init convs'
    25*3/72 and 25*1/24) takes one GEMM against that matrix (im2col;
    Chetlur et al. 2014); any other runs a loop over the taps' shifted
    views, one GEMM each (a 1x1 kernel's one view is its input).
    Forward multiplies each view by its (Cin, Cout) tap matrix and adds
    it to the first tap's product (:func:`_correlate`).  The adjoint of a
    stride-1 dilated correlation padded (k - 1) * d / 2 on every side is
    the same correlation of the output gradient, padded the same, with
    the kernel flipped along both spatial axes and its channel axes
    swapped; so the input gradient's rule reads ``taps * Cout <= 2 * Cin``.
    The flipped, swapped kernel is a view; :func:`_correlate` copies its
    tap matrices C-ordered (the layout rule in the module docstring).
    The kernel gradient is a sum over output pixels, so each tap's
    (Cin, Cout) block is that tap's view of the padded input, as a
    (pixels, Cin) matrix, transposed times the output gradient
    (:func:`_kernel_gradient`; the per-tap form of Anderson et al.'s
    2017 low-memory GEMM convolutions): where the rule stacks, the
    stacked blocks are the patch matrix transposed times it.  Either way
    it reads the padded input built again, not kept.
    """
    if x.ndim != 4:
        raise ShapeError(f"conv2d input must be (N,H,W,C), got {x.shape}")
    k = _odd_square(w, "conv2d")
    cin, cout = w.shape[2:]
    if x.shape[-1] != cin:
        raise ShapeError(f"kernel expects {cin} input channels, tensor has {x.shape[-1]}")
    d = check_count(dilation, "dilation")
    if b is not None and b.shape != (cout,):
        raise ShapeError(f"bias must be ({cout},), got {b.shape}")

    pads = _same_pads(k, d)
    wd_ = w.data

    out = _correlate(_pad(x.data, pads), wd_, d)
    if b is not None:
        out += b.data
    parents = (x, w) if b is None else (x, w, b)
    # of x's data only the kernel gradient reads
    nparents = len(parents)
    x_grad, w_grad = x.requires_grad, w.requires_grad
    b_grad = b is not None and b.requires_grad
    xd = x.data if w_grad else None

    def bwd(g):
        grads = [None] * nparents
        if x_grad:
            grads[0] = _correlate(_pad(g, pads), wd_[::-1, ::-1].transpose(0, 1, 3, 2), d)
        if w_grad:
            grads[1] = _kernel_gradient(_pad(xd, pads), g, k, d)
        if b_grad:
            grads[2] = g.sum(axis=(0, 1, 2))
        return tuple(grads)

    return Node(out, parents, bwd, name=name)


# ---------------------------------------------------------------------------
# pooling


def maxpool2x2(x: Node, name: str = "maxpool") -> Node:
    """2x2 stride-2 max pool, ceil mode.  Ties route the gradient to the
    first maximum in window scan order, so backward is deterministic; a
    window holding NaN pools to NaN and routes to its first NaN.  Both
    passes work on the four strided window views: a window copy, argmax
    and gather made the forward ten times slower.  Backward reads only
    which cell of each window won, so that is all it keeps (Chen et al.
    2016): when x requires a gradient, forward records one uint8 per
    output, the winner's scan position, and keeps neither x nor the
    output; under ``no_grad`` it records nothing.  The winners are
    compared for NaN only if the output holds one (NaN propagates through
    the max, and the padding is -inf), and the windows no earlier scan
    position won go to the last: their maximum can only sit there."""
    if x.ndim != 4:
        raise ShapeError(f"maxpool2x2 input must be (N,H,W,C), got {x.shape}")
    n, h, w, c = x.shape
    # pad ragged edges only; -inf padding never beats an in-bounds cell,
    # and every window's scan-first cell is in bounds, so no gradient
    # lands in the padding
    pads = ((0, 0), (0, h % 2), (0, w % 2), (0, 0))
    xp = _pad(x.data, pads, -np.inf)
    scan = [(slice(None), slice(i, None, 2), slice(j, None, 2)) for i in (0, 1) for j in (0, 1)]
    views = [xp[s] for s in scan]
    # np.maximum returns its second argument on a tie: +-0 ties keep the scan-first value
    out = np.maximum(np.maximum(views[3], views[2]), np.maximum(views[1], views[0]))
    padded, code = xp.shape, None
    if x.requires_grad and grad_enabled():
        code = np.full(out.shape, 3, dtype=np.uint8)
        nan = np.isnan(out).any()
        for i in (2, 1, 0):     # the scan-first hit is written last
            hit = views[i] == out
            if nan:
                hit |= views[i] != views[i]
            np.copyto(code, i, where=hit)

    def bwd(g):
        gxp = np.empty(padded, dtype=g.dtype)
        for i, s in enumerate(scan):
            gxp[s] = _masked(g, code == i)
        return (np.ascontiguousarray(gxp[:, :h, :w, :]),)

    return Node(out, (x,), bwd, name=name)


def _along_hw(x: np.ndarray, mh: np.ndarray, mw: np.ndarray) -> np.ndarray:
    """(N, H, W, C) -> (N, oh, ow, C): the (oh, H) matrix ``mh`` applied
    along the rows, then the (ow, W) matrix ``mw`` along the columns."""
    n, h, w, c = x.shape
    return mw @ (mh @ x.reshape(n, h, w * c)).reshape(n, -1, w, c)


@cache
def _region_axis(size: int, bins: int, dtype) -> np.ndarray:
    """(bins, size) matrix whose row r averages region r of an axis of
    ``size`` pixels, [r*size//bins, (r+1)*size//bins), in ``dtype``."""
    mat = np.zeros((bins, size))
    edges = [i * size // bins for i in range(bins + 1)]
    for row, lo, hi in zip(mat, edges, edges[1:]):
        row[lo:hi] = 1 / (hi - lo)
    return mat.astype(dtype)


def avgpool_region(x: Node, bins: int, name: str = "regionpool") -> Node:
    """Adaptive average pooling onto a bins x bins grid.

    Region r along an axis of length L covers [r*L//bins, (r+1)*L//bins),
    so region sizes differ by at most one pixel.  The region means are
    the per-axis averaging matrices of :func:`_region_axis` applied in
    the input dtype; backward applies their transposes.
    """
    if x.ndim != 4:
        raise ShapeError(f"avgpool_region input must be (N,H,W,C), got {x.shape}")
    bins = check_count(bins, "bins")
    h, w = x.shape[1:3]
    if h < bins or w < bins:
        raise ShapeError(f"region pooling with {bins} bins needs spatial size "
                         f">= {bins}, got {h}x{w}")
    mh, mw = _region_axis(h, bins, x.dtype), _region_axis(w, bins, x.dtype)

    def bwd(g):
        return (_along_hw(g, mh.T, mw.T),)

    return Node(_along_hw(x.data, mh, mw), (x,), bwd, name=name)


# ---------------------------------------------------------------------------
# bilinear resize


@cache
def _resize_axis(in_size: int, out_size: int, dtype) -> np.ndarray:
    """(out_size, in_size) interpolation matrix of one axis, in ``dtype``,
    half-pixel-center mapping (align_corners false): output i reads
    src = (i + 0.5) * in/out - 0.5, clamped, from its two neighbours."""
    src = (np.arange(out_size) + 0.5) * (in_size / out_size) - 0.5
    src = np.clip(src, 0.0, in_size - 1.0)
    i0 = np.floor(src).astype(np.int64)
    # the far neighbour's weight is rounded to dtype before 1 - w is taken
    wgt = (src - i0).astype(dtype).astype(np.float64)
    mat = np.zeros((out_size, in_size))
    rows = np.arange(out_size)
    np.add.at(mat, (rows, i0), 1 - wgt)
    np.add.at(mat, (rows, np.minimum(i0 + 1, in_size - 1)), wgt)
    return mat.astype(dtype)


@cache
def _pyramid_axis(size: int, bins: tuple, dtype) -> tuple:
    """The pyramid head's two maps along one axis of ``size`` pixels, in
    ``dtype``: the (sum(bins), size) matrix whose rows average each bin
    count's regions (as avgpool_region), and the (size, sum(bins))
    matrix of the bins' resizes back to ``size`` (as bilinear_resize),
    side by side in the order of ``bins``."""
    return (np.concatenate([_region_axis(size, nb, dtype) for nb in bins]),
            np.concatenate([_resize_axis(nb, size, dtype) for nb in bins], axis=1))


def bilinear_resize(x: Node, out_h: int, out_w: int, name: str = "resize") -> Node:
    """Bilinear resampling to (out_h, out_w) with half-pixel centers, as
    the per-axis interpolation matrices of :func:`_resize_axis`; backward
    applies their transposes.
    """
    if x.ndim != 4:
        raise ShapeError(f"bilinear_resize input must be (N,H,W,C), got {x.shape}")
    out_h, out_w = check_count(out_h, "target height"), check_count(out_w, "target width")
    h, w = x.shape[1:3]
    mh, mw = _resize_axis(h, out_h, x.dtype), _resize_axis(w, out_w, x.dtype)

    def bwd(g):
        return (_along_hw(g, mh.T, mw.T),)

    return Node(_along_hw(x.data, mh, mw), (x,), bwd, name=name)


# ---------------------------------------------------------------------------
# pyramid pooling head


def pyramid_head(parts: Sequence[Node], w: Node, b: Node, bins: Sequence[int],
                 name: str = "pyramid_head") -> Node:
    """Pyramid pooling prior plus the output convolution in one op.

    With x the channel concatenation of the input parts, computes
    ``conv2d(concat([x] + [bilinear_resize(avgpool_region(x, n), H, W)
    for n in bins]), w, b)`` without forming either concatenation.
    parts: a list of nodes (N, H, W, C_i), C = sum(C_i); w: (k, k,
    (1 + len(bins)) * C, K) with k odd, b: (K,); bins: integers >= 1.
    Input channel block j of ``w`` belongs to ``x`` (j = 0) or to
    ``bins[j-1]``, and its row block i to part i.

    Each block's source (x itself as the identity bin, else the pooled
    map) is multiplied by the block's kernel as one (C, k*k*K) matrix
    at its own resolution; the products are resized, summed, padded
    (k - 1) / 2 on every side like conv2d's input, and their k*k tap
    slices added at the tap offsets.  The prior's gradient is the patch
    matrix of the output gradient under that same pad, its taps in
    reverse (conv2d's adjoint).  The identity bin's product is each part
    times its rows of the block, accumulated.  The pools and resizes run
    as per-axis matrices (:func:`_pyramid_axis`): one matmul per part
    pools the rows of every bin, one per bin and part pools their
    columns, and the tiny pooled parts are joined per bin; one matmul per
    bin resizes its columns back, and one resizes every bin's rows back
    at once, in the input dtype.  Backward applies the same matrices transposed, and the
    kernel gradient's identity block stacks the parts' products.  The
    identities behind this are in the ``arch`` docstring.
    """
    if not parts:
        raise ParameterError("pyramid_head needs at least one input part")
    for p in parts:
        if p.ndim != 4:
            raise ShapeError(f"pyramid_head input must be (N,H,W,C), got {p.shape}")
        if p.shape[:3] != parts[0].shape[:3]:
            raise ShapeError(f"pyramid_head parts differ in (N,H,W): {p.shape} "
                             f"vs {parts[0].shape}")
    k = _odd_square(w, "pyramid_head")
    bins = tuple(check_count(v, "a bin count") for v in bins)
    if not bins:
        raise ParameterError("pyramid_head needs one or more bin counts")
    n, h, wd = parts[0].shape[:3]
    widths = [p.shape[-1] for p in parts]
    c = sum(widths)
    wcin, cout = w.shape[2:]
    if wcin != (1 + len(bins)) * c:
        raise ShapeError(f"kernel expects {wcin} input channels, the pyramid "
                         f"over {len(bins)} bins gives {(1 + len(bins)) * c}")
    if b.shape != (cout,):
        raise ShapeError(f"bias must be ({cout},), got {b.shape}")
    if min(h, wd) < max(bins):
        raise ShapeError(f"region pooling with {max(bins)} bins needs spatial size "
                         f">= {max(bins)}, got {h}x{wd}")

    taps = k * k
    xds, wdata = [p.data for p in parts], w.data
    pads = _same_pads(k, 1)
    pool_h, up_h = _pyramid_axis(h, bins, xds[0].dtype)
    pool_w, up_w = _pyramid_axis(wd, bins, xds[0].dtype)
    edges = np.cumsum((0,) + bins)
    spans = [slice(lo, hi) for lo, hi in zip(edges, edges[1:])]
    cuts = np.cumsum([0] + widths)
    chans = [slice(lo, hi) for lo, hi in zip(cuts, cuts[1:])]

    # input-channel block j of w, (k, k, C, K); forward multiplies by it
    # as a (C, taps*K) matrix with tap-major columns, backward by its
    # transpose, each built C-ordered (a copy, so backward builds its own
    # rather than keep the forward's)
    wblocks = wdata.reshape(k, k, 1 + len(bins), c, cout)
    wx, *wmats = wblocks.transpose(2, 3, 0, 1, 4).reshape(1 + len(bins), c, taps * cout)
    prior = xds[0] @ wx[chans[0]]
    for xd, cs in zip(xds[1:], chans[1:]):
        prior += xd @ wx[cs]
    # per part, every bin's row means, then per bin its (N, nb, nb, C_i)
    # region means; a bin's parts are joined along the channels
    pieces = []
    for xd in xds:
        rows = (pool_h @ xd.reshape(n, h, -1)).reshape(n, -1, wd, xd.shape[-1])
        pieces.append([pool_w[s] @ rows[:, s] for s in spans])
    pooled = [np.concatenate(ps, axis=-1) for ps in zip(*pieces)]
    del rows

    wide = np.concatenate([up_w[:, s] @ (p @ m) for s, p, m in zip(spans, pooled, wmats)],
                          axis=1)
    prior += (up_h @ wide.reshape(n, -1, wd * taps * cout)).reshape(prior.shape)
    prior = _pad(prior.reshape(n, h, wd, taps, cout), pads + ((0, 0),))
    out = sum(v[:, :, :, t] for t, v in enumerate(_windows(prior, k, 1)))
    out += b.data

    def bwd(g):
        # the shift-add's adjoint: tap t of the prior gradient is tap
        # taps-1-t of the patch matrix of g, padded as the prior (as in conv2d)
        wxt, *wmts = wblocks.transpose(2, 0, 1, 4, 3).reshape(1 + len(bins), taps * cout, c)
        gprior = _patch_matrix(_pad(g, pads), k, 1).reshape(
            n, h, wd, taps, cout)[:, :, :, ::-1].reshape(n, h, wd, -1)
        gwide = (up_h.T @ gprior.reshape(n, h, -1)).reshape(n, -1, wd, taps * cout)
        gqs = [up_w[:, s].T @ gwide[:, s] for s in spans]
        del gwide
        gpooled = [gq @ mt for gq, mt in zip(gqs, wmts)]
        gxs = []
        for width, cs in zip(widths, chans):
            grows = np.empty((n, sum(bins), wd, width), dtype=g.dtype)
            for s, gp in zip(spans, gpooled):
                grows[:, s] = pool_w[s].T @ gp[..., cs]
            gx = (pool_h.T @ grows.reshape(n, -1, wd * width)).reshape(n, h, wd, width)
            del grows       # one full-size temporary at a time
            gx += gprior @ np.ascontiguousarray(wxt[:, cs])
            gxs.append(gx)
        gms = [np.tensordot(xd, gprior, axes=([0, 1, 2], [0, 1, 2])) for xd in xds]
        gms += [np.tensordot(p, gq, axes=([0, 1, 2], [0, 1, 2])) for p, gq in zip(pooled, gqs)]
        gw = np.concatenate(gms).reshape(wcin, k, k, cout).transpose(1, 2, 0, 3)
        return (*gxs, np.ascontiguousarray(gw), g.sum(axis=(0, 1, 2)))

    return Node(out, (*parts, w, b), bwd, name=name)


# ---------------------------------------------------------------------------
# classification loss


def _reduce_classes(a: np.ndarray, ufunc, dtype=None) -> np.ndarray:
    """``ufunc.reduce(a, axis=-1, keepdims=True, dtype=dtype)`` bit for
    bit, as K-1 elementwise calls over the class planes in class order:
    numpy reduces a short last axis several times slower, and sums fewer
    than 8 terms sequentially (from 8 on it regroups, so a wider axis
    takes the reduction itself)."""
    k = a.shape[-1]
    if k >= 8:
        return ufunc.reduce(a, axis=-1, keepdims=True, dtype=dtype)
    out = np.array(a[..., 0], dtype=a.dtype if dtype is None else dtype)
    for i in range(1, k):
        ufunc(out, a[..., i], out=out)
    return out[..., None]


def softmax(logits: np.ndarray) -> np.ndarray:
    """Numerically stable softmax over the last axis (plain ndarray helper)."""
    e = np.exp(logits - _reduce_classes(logits, np.maximum))
    return e / _reduce_classes(e, np.add)


def softmax_cross_entropy(logits: Node, labels: np.ndarray,
                          reduction: str = "sum",
                          name: str = "xent") -> Node:
    """Cross entropy between per-pixel logits (..., K) and integer labels.

    ``reduction="sum"`` adds the per-pixel losses; ``"mean"`` divides by
    the pixel count, which keeps gradient magnitudes independent of patch
    size.  Labels must lie in [0, K).
    """
    if reduction not in ("sum", "mean"):
        raise ParameterError(f"reduction must be 'sum' or 'mean', got {reduction!r}")
    labels = np.asarray(labels)
    k = logits.shape[-1]
    if labels.shape != logits.shape[:-1]:
        raise ShapeError(f"labels shape {labels.shape} does not match "
                         f"logit positions {logits.shape[:-1]}")
    check_labels(labels, k, "labels")

    flat = logits.data.reshape(-1, k)
    lab = labels.reshape(-1)
    m = _reduce_classes(flat, np.maximum)
    e = np.exp(flat - m)
    lse = np.log(_reduce_classes(e, np.add, np.float64)[:, 0]) + m[:, 0]
    picked = flat[np.arange(flat.shape[0]), lab]
    per_pixel = lse - picked
    count = flat.shape[0]
    total = per_pixel.sum(dtype=np.float64)
    if reduction == "mean":
        total = total / count
    out = np.asarray(total, dtype=logits.dtype).reshape(())

    probs = e / _reduce_classes(e, np.add)      # softmax(flat)
    shp, dt = logits.shape, logits.dtype

    def bwd(g):
        gflat = probs.astype(dt, copy=True)
        gflat[np.arange(count), lab] -= 1
        gflat *= g.reshape(())
        if reduction == "mean":
            gflat /= count
        # Flush subnormals (no entry moves by more than tiny): saturated
        # float32 logits leave subnormal probabilities, and the matmuls of
        # the rest of the backward pass run far slower on them.
        gflat[np.abs(gflat) < np.finfo(dt).tiny] = 0
        return (gflat.reshape(shp),)

    return Node(out, (logits,), bwd, name=name)
