"""Slow reference implementations used to validate the library.

Everything here is written the obvious way (explicit loops, float64)
and stays independent of the code under test: no imports from the
mixnet op modules.  Tests compare the fast paths against these.

The exceptions build on separately tested parts: ``pyramid_head_unfused``
is the output head composed of the ops it fuses, so that its gradients
come from their backward rules, ``expand_slices_naive`` is the
materialising loop over the tested ``augment.apply_op``, and
``predict_volume_restacked`` runs a network's ``predict_probs``.

The metric references and the Nesterov trace are the plain-loop ones
that ship with the package in :mod:`mixnet.verify` for ``mixnet
verify``; they share no code with :mod:`mixnet.metrics` or
:mod:`mixnet.trainer`.
"""

import numpy as np

from mixnet.verify import (dice_ref as dice_naive, hd95_ref as hd95_naive,  # noqa: F401
                           nesterov_ref as nesterov_trace,
                           surface_ref as surface_voxels_naive,
                           vs_ref as volumetric_similarity_naive)


def conv2d_naive(x, w, b=None, dilation=1):
    """Cross-correlation, stride 1, zero padding (k-1)*d split
    floor-left / ceil-right.  x (N,H,W,Ci), w (kh,kw,Ci,Co)."""
    x = np.asarray(x, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    if isinstance(dilation, (tuple, list)):
        dh, dw = dilation
    else:
        dh = dw = dilation
    n, h, wid, ci = x.shape
    kh, kw, _, co = w.shape
    pt = (kh - 1) * dh // 2
    pl = (kw - 1) * dw // 2
    out = np.zeros((n, h, wid, co))
    for b_i in range(n):
        for oy in range(h):
            for ox in range(wid):
                for ky in range(kh):
                    iy = oy + ky * dh - pt
                    if iy < 0 or iy >= h:
                        continue
                    for kx in range(kw):
                        ix = ox + kx * dw - pl
                        if ix < 0 or ix >= wid:
                            continue
                        out[b_i, oy, ox] += x[b_i, iy, ix] @ w[ky, kx]
    if b is not None:
        out += np.asarray(b, dtype=np.float64)
    return out


def patch_matrix_naive(xp, kh, kw, h, wd, dh, dw):
    """(N*h*wd, kh*kw*C) im2col matrix of the padded (N, ., ., C) ``xp``,
    one output pixel's window at a time: row (n, y, x) holds, tap-major,
    xp[n, y + i*dh, x + j*dw, :] for each tap (i, j)."""
    n, c = xp.shape[0], xp.shape[-1]
    cols = np.empty((n * h * wd, kh * kw * c), dtype=xp.dtype)
    row = 0
    for b_i in range(n):
        for oy in range(h):
            for ox in range(wd):
                window = [xp[b_i, oy + i * dh, ox + j * dw]
                          for i in range(kh) for j in range(kw)]
                cols[row] = np.concatenate(window)
                row += 1
    return cols


def maxpool2x2_naive(x):
    x = np.asarray(x, dtype=np.float64)
    n, h, w, c = x.shape
    ho, wo = (h + 1) // 2, (w + 1) // 2
    out = np.empty((n, ho, wo, c))
    for i in range(ho):
        for j in range(wo):
            out[:, i, j] = x[:, 2 * i:2 * i + 2, 2 * j:2 * j + 2].max(axis=(1, 2))
    return out


def maxpool2x2_first_max_naive(x, g):
    """Max pool forward and backward in x's dtype, one window at a time:
    each 2x2 window (ceil mode, in-bounds cells only) picks its first
    maximum in scan order, or its first NaN if it holds one, and that cell
    alone receives the window's output gradient from g."""
    x = np.asarray(x)
    n, h, w, c = x.shape
    ho, wo = (h + 1) // 2, (w + 1) // 2
    out = np.empty((n, ho, wo, c), dtype=x.dtype)
    gx = np.zeros(x.shape, dtype=g.dtype)
    for b_i in range(n):
        for i in range(ho):
            for j in range(wo):
                for ch in range(c):
                    best = None
                    for y in range(2 * i, min(2 * i + 2, h)):
                        for xx in range(2 * j, min(2 * j + 2, w)):
                            v = x[b_i, y, xx, ch]
                            if best is None or (not np.isnan(x[best])
                                                and (np.isnan(v) or v > x[best])):
                                best = (b_i, y, xx, ch)
                    out[b_i, i, j, ch] = x[best]
                    gx[best] = g[b_i, i, j, ch]
    return out, gx


def avgpool_region_naive(x, bins):
    x = np.asarray(x, dtype=np.float64)
    n, h, w, c = x.shape
    out = np.empty((n, bins, bins, c))
    for r in range(bins):
        for s in range(bins):
            h0, h1 = r * h // bins, (r + 1) * h // bins
            w0, w1 = s * w // bins, (s + 1) * w // bins
            out[:, r, s] = x[:, h0:h1, w0:w1].mean(axis=(1, 2))
    return out


def region_mean_adjoint_naive(g, h, w):
    """Gradient of the bins x bins region mean of an (N, h, w, C) input,
    added into zeros one region at a time, in g's dtype."""
    n, bins, _, c = g.shape
    he = [i * h // bins for i in range(bins + 1)]
    we = [i * w // bins for i in range(bins + 1)]
    gx = np.zeros((n, h, w, c), dtype=g.dtype)
    for r in range(bins):
        for s in range(bins):
            area = (he[r + 1] - he[r]) * (we[s + 1] - we[s])
            gx[:, he[r]:he[r + 1], we[s]:we[s + 1], :] += \
                g[:, r:r + 1, s:s + 1, :] / area
    return gx


def bilinear_naive(x, out_h, out_w):
    """Half-pixel-center bilinear resampling, one output pixel at a time."""
    x = np.asarray(x, dtype=np.float64)
    n, h, w, c = x.shape
    out = np.empty((n, out_h, out_w, c))
    for oy in range(out_h):
        sy = min(max((oy + 0.5) * h / out_h - 0.5, 0.0), h - 1.0)
        y0 = int(np.floor(sy))
        y1 = min(y0 + 1, h - 1)
        fy = sy - y0
        for ox in range(out_w):
            sx = min(max((ox + 0.5) * w / out_w - 0.5, 0.0), w - 1.0)
            x0 = int(np.floor(sx))
            x1 = min(x0 + 1, w - 1)
            fx = sx - x0
            top = x[:, y0, x0] * (1 - fx) + x[:, y0, x1] * fx
            bot = x[:, y1, x0] * (1 - fx) + x[:, y1, x1] * fx
            out[:, oy, ox] = top * (1 - fy) + bot * fy
    return out


def pyramid_head_unfused(x, w, b, bins):
    """The pyramid head as its plain composition on graph nodes: region
    pools resized back to full size, concatenated with x, 3x3 conv."""
    from mixnet import ops
    h, wd = x.shape[1:3]
    parts = [x] + [ops.bilinear_resize(ops.avgpool_region(x, nb), h, wd)
                   for nb in bins]
    return ops.conv2d(ops.concat_channels(parts), w, b)


def expand_slices_naive(images, labels, policy, seed=0):
    """The whole augmented stack, one slice after another: block i holds
    every op of the policy applied to source slice i."""
    from mixnet.augment import apply_op, policy_ops
    from mixnet.tensor import derive_seed
    ops = policy_ops(policy)
    out_img = np.empty((images.shape[0] * len(ops),) + images.shape[1:],
                       dtype=images.dtype)
    out_lab = np.empty((labels.shape[0] * len(ops),) + labels.shape[1:],
                       dtype=labels.dtype)
    pos = 0
    for i in range(images.shape[0]):
        for op in ops:
            rng = np.random.Generator(np.random.PCG64(derive_seed(seed, i, op[0])))
            out_img[pos], out_lab[pos] = apply_op(images[i], labels[i], op, rng)
            pos += 1
    return out_img, out_lab


def predict_volume_restacked(net, images, axis, batch_size=8):
    """Probabilities (X, Y, Z, K) the way ``volume.predict_volume`` once
    made them: a contiguous stack of the slices along ``axis``, a list of
    per-batch probabilities, their concatenation, and that moved back
    into the volume grid."""
    stack = np.ascontiguousarray(np.moveaxis(images, axis, 0))
    probs = [net.predict_probs(stack[lo:lo + batch_size])
             for lo in range(0, stack.shape[0], batch_size)]
    return np.ascontiguousarray(np.moveaxis(np.concatenate(probs), 0, axis))


def softmax_xent_naive(logits, labels, reduction="sum"):
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels)
    k = logits.shape[-1]
    flat = logits.reshape(-1, k)
    lab = labels.reshape(-1)
    total = 0.0
    for i in range(flat.shape[0]):
        row = flat[i]
        m = row.max()
        total += m + np.log(np.exp(row - m).sum()) - row[lab[i]]
    if reduction == "mean":
        total /= flat.shape[0]
    return total


def num_grad(f, x, step=1e-3):
    """Central-difference gradient of scalar f at x, independent of the
    library's own checker."""
    x = np.array(x, dtype=np.float64)
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        fp = f(x)
        flat[i] = orig - step
        fm = f(x)
        flat[i] = orig
        gflat[i] = (fp - fm) / (2 * step)
    return g


def conv2d_input_grad_naive(g, w, dilation=1):
    """Gradient of sum(g * conv2d(x, w)) for the input, one output pixel
    and one tap at a time (padding as in conv2d_naive)."""
    g = np.asarray(g, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    if isinstance(dilation, (tuple, list)):
        dh, dw = dilation
    else:
        dh = dw = dilation
    n, h, wid, _ = g.shape
    kh, kw, ci, _ = w.shape
    pt = (kh - 1) * dh // 2
    pl = (kw - 1) * dw // 2
    gx = np.zeros((n, h, wid, ci))
    for oy in range(h):
        for ox in range(wid):
            for ky in range(kh):
                iy = oy + ky * dh - pt
                if not 0 <= iy < h:
                    continue
                for kx in range(kw):
                    ix = ox + kx * dw - pl
                    if 0 <= ix < wid:
                        gx[:, iy, ix] += g[:, oy, ox] @ w[ky, kx].T
    return gx


def conv2d_kernel_grad_naive(x, g, w_shape, dilation=1):
    """Gradient of sum(g * conv2d(x, w)) for the kernel, one tap and one
    output pixel at a time (padding as in conv2d_naive)."""
    x = np.asarray(x, dtype=np.float64)
    g = np.asarray(g, dtype=np.float64)
    n, h, wid, _ = x.shape
    kh, kw = w_shape[:2]
    pt, pl = (kh - 1) * dilation // 2, (kw - 1) * dilation // 2
    gw = np.zeros(w_shape)
    for ky in range(kh):
        for kx in range(kw):
            for oy in range(h):
                iy = oy + ky * dilation - pt
                if not 0 <= iy < h:
                    continue
                for ox in range(wid):
                    ix = ox + kx * dilation - pl
                    if 0 <= ix < wid:
                        gw[ky, kx] += x[:, iy, ix].T @ g[:, oy, ox]
    return gw
