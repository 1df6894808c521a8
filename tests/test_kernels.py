"""Conv/pool kernels against naive reference implementations written here."""

import numpy as np
import pytest

from fedsign import kernels
from fedsign.nn import rng_for


def ref_conv2d(x, w, b):
    kh, kw, ci, co = w.shape
    p = kh // 2
    xp = np.pad(x, ((0, 0), (p, p), (p, p), (0, 0)))
    bs, h, wd, _ = x.shape
    y = np.zeros((bs, h, wd, co))
    for n in range(bs):
        for i in range(h):
            for j in range(wd):
                for o in range(co):
                    acc = b[o]
                    for u in range(kh):
                        for v in range(kw):
                            for c in range(ci):
                                acc += xp[n, i + u, j + v, c] * w[u, v, c, o]
                    y[n, i, j, o] = acc
    return y


def ref_conv2d_backward(x, w, dy):
    """The chain rule of ref_conv2d, summed one output pixel and one kernel
    tap at a time: y[:, i, j] += xp[:, i + u, j + v] @ w[u, v]."""
    kh, kw, ci, co = w.shape
    p = kh // 2
    xp = np.pad(x, ((0, 0), (p, p), (p, p), (0, 0)))
    bs, h, wd, _ = x.shape
    dxp = np.zeros_like(xp)
    dw = np.zeros_like(w)
    db = np.zeros(co)
    for i in range(h):
        for j in range(wd):
            db += dy[:, i, j].sum(axis=0)
            for u in range(kh):
                for v in range(kw):
                    dw[u, v] += xp[:, i + u, j + v].T @ dy[:, i, j]
                    dxp[:, i + u, j + v] += dy[:, i, j] @ w[u, v].T
    return dxp[:, p:p + h, p:p + wd], dw, db


def window_maxpool2(x):
    """Max-pooling as an argmax over each image's 2x2 windows laid out on
    their own axis: the formulation the kernels replaced, kept as a bitwise
    oracle for y, arg and the backward pass."""
    bs, h, w, c = x.shape
    win = x.reshape(bs, h // 2, 2, w // 2, 2, c).transpose(0, 1, 3, 2, 4, 5)
    win = win.reshape(bs, h // 2, w // 2, 4, c)
    arg = win.argmax(axis=3)
    y = np.take_along_axis(win, arg[:, :, :, None, :], axis=3)[:, :, :, 0, :]
    return y, arg


def window_maxpool2_backward(arg, dy, in_shape):
    bs, h, w, c = in_shape
    dwin = np.zeros((bs, h // 2, w // 2, 4, c))
    np.put_along_axis(dwin, arg[:, :, :, None, :], dy[:, :, :, None, :], axis=3)
    dwin = dwin.reshape(bs, h // 2, w // 2, 2, 2, c).transpose(0, 1, 3, 2, 4, 5)
    return dwin.reshape(in_shape)


def ref_maxpool2(x):
    bs, h, w, c = x.shape
    y = np.zeros((bs, h // 2, w // 2, c))
    for n in range(bs):
        for i in range(h // 2):
            for j in range(w // 2):
                for k in range(c):
                    y[n, i, j, k] = x[n, 2 * i:2 * i + 2, 2 * j:2 * j + 2, k].max()
    return y


@pytest.mark.parametrize("p", [1, 2])
def test_pad_matches_np_pad(p):
    x = rng_for("pad", p).normal(size=(3, 5, 4, 2))
    got = kernels._pad(x, p)
    assert got.flags.c_contiguous
    np.testing.assert_array_equal(got, np.pad(x, ((0, 0), (p, p), (p, p), (0, 0))))


@pytest.mark.parametrize("seed", range(4))
def test_conv2d_forward_matches_reference(seed):
    rng = rng_for("kernels", seed)
    x = rng.normal(size=(3, 6, 6, 2))
    w = rng.normal(size=(3, 3, 2, 4))
    b = rng.normal(size=4)
    np.testing.assert_allclose(kernels.conv2d_forward(x, w, b), ref_conv2d(x, w, b),
                               rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("seed", range(4))
def test_conv2d_backward_matches_finite_differences(seed):
    rng = rng_for("kernels-bwd", seed)
    x = rng.normal(size=(2, 4, 4, 2))
    w = rng.normal(size=(3, 3, 2, 3))
    b = rng.normal(size=3)
    dy = rng.normal(size=(2, 4, 4, 3))
    dx, dw, db = kernels.conv2d_backward(x, w, dy)

    def loss(x_, w_, b_):
        return float((kernels.conv2d_forward(x_, w_, b_) * dy).sum())

    h = 1e-6
    for arr, grad in ((x, dx), (w, dw), (b, db)):
        for flat in rng.choice(arr.size, size=min(8, arr.size), replace=False):
            orig = arr.flat[flat]
            arr.flat[flat] = orig + h
            up = loss(x, w, b)
            arr.flat[flat] = orig - h
            dn = loss(x, w, b)
            arr.flat[flat] = orig
            fd = (up - dn) / (2 * h)
            assert abs(fd - grad.flat[flat]) <= 1e-5 * max(abs(fd), 1.0)


@pytest.mark.parametrize("hw", [8, 4])
@pytest.mark.parametrize("bs", [1, 9, 18])
@pytest.mark.parametrize("ci,co", [(1, 8), (8, 16)])
def test_conv2d_backward_matches_reference(ci, co, bs, hw):
    rng = rng_for("kernels-bwd-ref", ci, bs, hw)
    x = rng.normal(size=(bs, hw, hw, ci))
    w = rng.normal(size=(3, 3, ci, co))
    dy = rng.normal(size=(bs, hw, hw, co))
    for got, want in zip(kernels.conv2d_backward(x, w, dy), ref_conv2d_backward(x, w, dy)):
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


def relu_tie_images(seed, shape):
    """ReLU outputs (x * (x > 0), so +0.0 and -0.0 both occur), with some
    values rounded to collide, one image of all-equal windows, and windows
    mixing +0.0 and -0.0 only."""
    rng = rng_for("pool-ties", seed)
    x = rng.normal(size=shape)
    x[:, ::3] = np.round(x[:, ::3])
    x = x * (x > 0)
    x[0] = 1.5
    x[-1, :2, :2] = np.where(rng.random(size=x[-1, :2, :2].shape) < 0.5, 0.0, -0.0)
    return x


@pytest.mark.parametrize("seed,shape", [(0, (3, 4, 4, 2)), (1, (16, 8, 8, 8)), (2, (5, 6, 2, 3))])
def test_maxpool_is_bitwise_the_window_argmax(seed, shape):
    x = relu_tie_images(seed, shape)
    y, arg = kernels.maxpool2_forward(x)
    want_y, want_arg = window_maxpool2(x)
    assert y.shape == want_y.shape and y.tobytes() == want_y.tobytes()
    assert arg.dtype == want_arg.dtype and np.array_equal(arg, want_arg)
    dy = rng_for("pool-ties-dy", seed).normal(size=y.shape)
    dx = kernels.maxpool2_backward(arg, dy, x.shape)
    want_dx = window_maxpool2_backward(want_arg, dy, x.shape)
    assert dx.shape == want_dx.shape and dx.tobytes() == want_dx.tobytes()


def test_maxpool_forward_matches_reference():
    rng = rng_for("pool")
    x = rng.normal(size=(3, 6, 6, 4))
    y, arg = kernels.maxpool2_forward(x)
    np.testing.assert_array_equal(y, ref_maxpool2(x))
    assert arg.min() >= 0 and arg.max() <= 3


def test_maxpool_tie_breaks_to_first_window_slot():
    x = np.ones((1, 2, 2, 1))
    _, arg = kernels.maxpool2_forward(x)
    assert arg[0, 0, 0, 0] == 0


def test_maxpool_backward_scatters_to_argmax():
    rng = rng_for("pool-bwd")
    x = rng.normal(size=(2, 4, 4, 3))
    y, arg = kernels.maxpool2_forward(x)
    dy = rng.normal(size=y.shape)
    dx = kernels.maxpool2_backward(arg, dy, x.shape)
    # every window routes its upstream value to exactly the max position
    assert dx.shape == x.shape
    for n in range(2):
        for i in range(2):
            for j in range(2):
                for c in range(3):
                    win = dx[n, 2 * i:2 * i + 2, 2 * j:2 * j + 2, c]
                    assert np.count_nonzero(win) <= 1
                    assert win.sum() == pytest.approx(dy[n, i, j, c])


def test_maxpool_rejects_odd_dims():
    with pytest.raises(ValueError):
        kernels.maxpool2_forward(np.zeros((1, 3, 4, 1)))
