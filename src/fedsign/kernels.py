"""Hot numeric kernels: 2-d convolution and 2x2 max-pooling, vectorized
with numpy (im2col views and window reshapes, no compiled code).

Layout is NHWC, float64.  Convolutions are stride 1 with symmetric
zero padding ``k // 2`` ("same" for odd kernels).  Pooling is 2x2,
stride 2, ties resolved to the first window position in row-major
order.  ``python3 sessionbench/run.py --workload cnn-pgd --trace 1``
reports their per-call times and conv GFLOP/s.
"""

import numpy as np


def _im2col(xp, kh, kw):
    bs, hp, wp, ci = xp.shape
    oh = hp - kh + 1
    ow = wp - kw + 1
    s0, s1, s2, s3 = xp.strides
    view = np.lib.stride_tricks.as_strided(
        xp, (bs, oh, ow, kh, kw, ci), (s0, s1, s2, s1, s2, s3))
    return view.reshape(bs, oh, ow, kh * kw * ci)


def _pad(x, p):
    """x with p zero rows and columns around each image, C-contiguous."""
    if p == 0:
        return x
    bs, h, w, c = x.shape
    xp = np.zeros((bs, h + 2 * p, w + 2 * p, c))
    xp[:, p:-p, p:-p] = x
    return xp


def _unpad(xp, p):
    if p == 0:
        return xp
    return xp[:, p:-p, p:-p, :]


# ---------------------------------------------------------------------------
# public API

def conv2d_forward(x, w, b):
    """x (B,H,W,Cin), w (kh,kw,Cin,Cout), b (Cout,) -> y (B,H,W,Cout)."""
    kh, kw, _, co = w.shape
    xp = np.ascontiguousarray(_pad(x, kh // 2))
    cols = _im2col(xp, kh, kw)
    return cols @ w.reshape(-1, co) + b


def conv2d_backward(x, w, dy):
    """Gradients of conv2d_forward: returns (dx, dw, db)."""
    kh, kw, ci, co = w.shape
    p = kh // 2
    xp = np.ascontiguousarray(_pad(x, p))
    cols = _im2col(xp, kh, kw)
    db = dy.sum(axis=(0, 1, 2))
    dw = np.einsum("bhwk,bhwc->kc", cols, dy).reshape(w.shape)
    dcols = (dy @ w.reshape(-1, co).T).reshape(
        dy.shape[0], dy.shape[1], dy.shape[2], kh, kw, ci)
    dxp = np.zeros_like(xp)
    oh, ow = dy.shape[1], dy.shape[2]
    for u in range(kh):
        for v in range(kw):
            dxp[:, u:u + oh, v:v + ow, :] += dcols[:, :, :, u, v, :]
    return _unpad(dxp, p), dw, db


def maxpool2_forward(x):
    """2x2 / stride-2 max pool.  Returns (y, argmax) with argmax in 0..3."""
    bs, h, w, c = x.shape
    if h % 2 or w % 2:
        raise ValueError(f"maxpool2 needs even spatial dims, got {h}x{w}")
    win = x.reshape(bs, h // 2, 2, w // 2, 2, c).transpose(0, 1, 3, 2, 4, 5)
    win = win.reshape(bs, h // 2, w // 2, 4, c)
    arg = win.argmax(axis=3)
    y = np.take_along_axis(win, arg[:, :, :, None, :], axis=3)[:, :, :, 0, :]
    return y, arg


def maxpool2_backward(arg, dy, in_shape):
    """Scatter dy back to the argmax positions of the forward input."""
    bs, h, w, c = in_shape
    dwin = np.zeros((bs, h // 2, w // 2, 4, c))
    np.put_along_axis(dwin, arg[:, :, :, None, :], dy[:, :, :, None, :], axis=3)
    dwin = dwin.reshape(bs, h // 2, w // 2, 2, 2, c).transpose(0, 1, 3, 2, 4, 5)
    return dwin.reshape(in_shape)
