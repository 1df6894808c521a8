"""Hot numeric kernels: 2-d convolution, 2x2 max-pooling and per-channel
sums, vectorized with numpy (no compiled code).

Layout is NHWC, float64.  Convolutions are stride 1 with symmetric
zero padding ``k // 2`` ("same" for odd kernels).  The forward pass and
both backward products are GEMMs on im2col views: ``dw`` multiplies the
input's view by ``dy``, and ``dx`` is the "same" convolution of ``dy``
with the kernel turned 180 degrees and its channel axes swapped; a caller
that never reads ``dx`` (the first layer of a training step) skips it.
Per-channel sums (``db``, ScaleNorm's statistics and gradients) are one
GEMV per client over exactly that client's real rows (`channel_sums`).
Pooling is 2x2, stride 2, elementwise over the four strided slices
``x[:, u::2, v::2]``; ties resolve to the first window position in
row-major order.  ``python3 sessionbench/run.py --workload cnn-pgd
--trace 1`` reports their per-call times and conv GFLOP/s.
"""

import functools

import numpy as np


def _pad(x, p):
    """x with p zero rows and columns around each image, C-contiguous."""
    if p == 0:
        return np.ascontiguousarray(x)
    bs, h, w, c = x.shape
    xp = np.zeros((bs, h + 2 * p, w + 2 * p, c))
    xp[:, p:-p, p:-p] = x
    return xp


@functools.cache
def _ones(m):
    v = np.ones(m)
    v.flags.writeable = False
    return v


# ---------------------------------------------------------------------------
# public API

def channel_sums(x):
    """Sums of x (..., M, C) over its M axis, as (..., C): one GEMV per
    leading index.  Numpy's own reduction over several short axes is
    slower: 20 us against 3 us for a (16, 8, 8, 8) batch."""
    return _ones(x.shape[-2]) @ x


def im2col(x, k):
    """The (B,OH,OW,k*k*Cin) im2col matrix of x (B,H,W,Cin), zero-padded by
    k // 2, for a k x k kernel."""
    xp = _pad(x, k // 2)
    bs, hp, wp, ci = xp.shape
    oh, ow = hp - k + 1, wp - k + 1
    s0, s1, s2, s3 = xp.strides
    view = np.lib.stride_tricks.as_strided(xp, (bs, oh, ow, k, k, ci), (s0, s1, s2, s1, s2, s3))
    return view.reshape(bs, oh, ow, k * k * ci)


def conv2d_forward(x, w, b, cols=None):
    """x (B,H,W,Cin), w (kh,kw,Cin,Cout), b (Cout,) -> y (B,H,W,Cout).
    `cols` is x's `im2col` matrix, if the caller keeps it."""
    kh, _, _, co = w.shape
    if cols is None:
        cols = im2col(x, kh)
    return cols @ w.reshape(-1, co) + b


def conv2d_backward(x, w, dy, cols=None, input_grad=True):
    """Gradients of conv2d_forward: returns (dx, dw, db); dx is None when
    `input_grad` is false.  `cols` is x's `im2col` matrix, if kept."""
    kh, kw, ci, co = w.shape
    if cols is None:
        cols = im2col(x, kh)
    db = channel_sums(dy.reshape(-1, co))
    dw = (cols.reshape(-1, kh * kw * ci).T @ dy.reshape(-1, co)).reshape(w.shape)
    dx = None
    if input_grad:
        w_turned = w[::-1, ::-1].transpose(0, 1, 3, 2).reshape(-1, ci)
        dx = im2col(dy, kh) @ w_turned
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
