"""Hot numeric kernels: 2-d convolution and 2x2 max-pooling, vectorized
with numpy (no compiled code).

Layout is NHWC, float64.  Convolutions are stride 1 with symmetric
zero padding ``k // 2`` ("same" for odd kernels).  The forward pass and
both backward products are GEMMs on im2col views: ``dw`` multiplies the
input's view by ``dy``, and ``dx`` is the "same" convolution of ``dy``
with the kernel turned 180 degrees and its channel axes swapped.
Pooling is 2x2, stride 2, elementwise over the four strided slices
``x[:, u::2, v::2]``; ties resolve to the first window position in
row-major order.  ``python3 sessionbench/run.py --workload cnn-pgd
--trace 1`` reports their per-call times and conv GFLOP/s.
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
        return np.ascontiguousarray(x)
    bs, h, w, c = x.shape
    xp = np.zeros((bs, h + 2 * p, w + 2 * p, c))
    xp[:, p:-p, p:-p] = x
    return xp


# ---------------------------------------------------------------------------
# public API

def conv2d_forward(x, w, b):
    """x (B,H,W,Cin), w (kh,kw,Cin,Cout), b (Cout,) -> y (B,H,W,Cout)."""
    kh, kw, _, co = w.shape
    cols = _im2col(_pad(x, kh // 2), kh, kw)
    return cols @ w.reshape(-1, co) + b


def conv2d_backward(x, w, dy):
    """Gradients of conv2d_forward: returns (dx, dw, db)."""
    kh, kw, ci, co = w.shape
    p = kh // 2
    cols = _im2col(_pad(x, p), kh, kw)
    db = dy.sum(axis=(0, 1, 2))
    dw = (cols.reshape(-1, kh * kw * ci).T @ dy.reshape(-1, co)).reshape(w.shape)
    w_turned = w[::-1, ::-1].transpose(0, 1, 3, 2).reshape(-1, ci)
    dx = _im2col(_pad(dy, p), kh, kw) @ w_turned
    return dx, dw, db


_SLOTS = ((0, 0), (0, 1), (1, 0), (1, 1))  # window positions, row-major


def maxpool2_forward(x):
    """2x2 / stride-2 max pool.  Returns (y, argmax) with argmax in 0..3."""
    h, w = x.shape[1:3]
    if h % 2 or w % 2:
        raise ValueError(f"maxpool2 needs even spatial dims, got {h}x{w}")
    s = [x[:, u::2, v::2] for u, v in _SLOTS]
    # np.maximum returns its second operand on ties, so equal values
    # (+0.0 and -0.0 included) keep the earlier slot's
    y = np.maximum(np.maximum(s[3], s[2]), np.maximum(s[1], s[0]))
    arg = np.where(s[0] == y, 0, np.where(s[1] == y, 1, np.where(s[2] == y, 2, 3)))
    return y, arg


def maxpool2_backward(arg, dy, in_shape):
    """Route dy back to the argmax positions of the forward input; +0.0
    everywhere else."""
    dx = np.empty(in_shape)
    for k, (u, v) in enumerate(_SLOTS):
        dx[:, u::2, v::2] = np.where(arg == k, dy, 0.0)
    return dx
