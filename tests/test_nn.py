import math

import numpy as np
import pytest

from fedsign import io
from fedsign.errors import ShapeError, StateError
from fedsign.nn import (
    Conv2d,
    Dense,
    MaxPool2,
    ModelParams,
    Network,
    Relu,
    ScaleNorm,
    SgdMomentum,
    SoftmaxLayer,
    accuracy,
    build_cnn,
    build_mlp,
    cross_entropy,
    fit,
    network_from_descriptor,
    rng_for,
    sgd_epochs,
    softmax,
)

from conftest import gradcheck


def tiny_net(layers, input_shape, n_classes):
    return Network(layers, input_shape, n_classes, "custom")


# ---------------------------------------------------------------------------
# forward

def test_zero_weight_dense_gives_zero_logits():
    rng = rng_for(0)
    net = tiny_net([Dense(5, 3, rng)], (5,), 3)
    net.layers[0].w[:] = 0.0
    out = net.forward(rng.normal(size=(4, 5)))
    assert not out.any()


def test_identity_dense_maps_basis_vector():
    rng = rng_for(1)
    net = tiny_net([Dense(4, 4, rng)], (4,), 4)
    net.layers[0].w[:] = np.eye(4)
    e1 = np.zeros((1, 4))
    e1[0, 0] = 1.0
    np.testing.assert_array_equal(net.forward(e1), e1)


def test_fresh_scale_norm_is_identity_at_eval():
    layer = ScaleNorm(6)
    x = rng_for(2).normal(size=(5, 6))
    np.testing.assert_allclose(layer.forward(x, train=False), x, rtol=1e-5)


def test_forward_rejects_wrong_input_shape():
    net = build_mlp(8, [4], 3, seed=0)
    with pytest.raises(ShapeError):
        net.forward(np.zeros((2, 7)))


def test_forward_deterministic():
    net = build_cnn(8, 1, [4, 8], 3, seed=5)
    x = rng_for(3).normal(size=(2, 8, 8, 1))
    np.testing.assert_array_equal(net.forward(x), net.forward(x))


# ---------------------------------------------------------------------------
# backward

def test_backward_before_forward_raises():
    net = build_mlp(4, [4], 2, seed=0)
    with pytest.raises(StateError):
        net.backward(np.zeros((1, 2)))


def test_linear_layer_gradient_is_input_outer_product():
    rng = rng_for(4)
    net = tiny_net([Dense(3, 2, rng)], (3,), 2)
    x = rng.normal(size=(5, 3))
    net.forward(x, train=True)
    # loss = sum of logits -> dlogits = 1
    grads = net.backward(np.ones((5, 2)))
    np.testing.assert_allclose(grads[(0, "kernel")], x.T @ np.ones((5, 2)))
    np.testing.assert_allclose(grads[(0, "bias")], np.full(2, 5.0))


def test_zero_upstream_gradient_gives_zero_grads():
    net = build_mlp(6, [5, 4], 3, seed=1)
    net.forward(rng_for(5).normal(size=(4, 6)), train=True)
    grads = net.backward(np.zeros((4, 3)))
    assert all(not g.any() for g in grads.entries.values())


def layer_cases():
    rng = rng_for("cases")
    return [
        ("dense", tiny_net([Dense(6, 4, rng)], (6,), 4), (6,)),
        ("relu", tiny_net([Dense(6, 5, rng), Relu(), Dense(5, 3, rng)], (6,), 3), (6,)),
        ("scale-norm", tiny_net([Dense(6, 5, rng), ScaleNorm(5), Dense(5, 3, rng)], (6,), 3), (6,)),
        ("softmax", tiny_net([Dense(6, 5, rng), SoftmaxLayer(), Dense(5, 3, rng)], (6,), 3), (6,)),
        ("conv2d", tiny_net([Conv2d(2, 3, 3, rng), Dense(4 * 4 * 3, 3, rng)], (4, 4, 2), 3), (4, 4, 2)),
        ("maxpool", tiny_net([Conv2d(1, 3, 3, rng), MaxPool2(), Dense(2 * 2 * 3, 3, rng)], (4, 4, 1), 3), (4, 4, 1)),
        ("full-cnn", build_cnn(8, 1, [4, 6], 3, seed=9), (8, 8, 1)),
        ("full-mlp", build_mlp(8, [6, 6], 3, seed=9), (8,)),
    ]


@pytest.mark.parametrize("name,net,in_shape", layer_cases(), ids=lambda c: c if isinstance(c, str) else "")
def test_gradients_match_finite_differences(name, net, in_shape):
    rng = rng_for("fd", name)
    x = rng.normal(size=(5,) + in_shape)
    labels = rng.integers(0, net.n_classes, size=5)
    gradcheck(net, x, labels, rng)


# ---------------------------------------------------------------------------
# losses

def test_uniform_logits_loss_is_log_class_count():
    for c in (2, 5, 10):
        loss, _ = cross_entropy(np.zeros((3, c)), np.zeros(3, dtype=int))
        assert loss == pytest.approx(math.log(c), rel=1e-12)


def test_large_margin_loss_tends_to_zero():
    logits = np.zeros((1, 4))
    logits[0, 2] = 50.0
    loss, _ = cross_entropy(logits, [2])
    assert loss < 1e-3


def test_two_class_closed_form():
    loss, _ = cross_entropy(np.array([[1.0, 0.0]]), [0])
    assert loss == pytest.approx(math.log(1 + math.exp(-1)), rel=1e-12)


def test_cross_entropy_gradient_is_softmax_minus_onehot():
    rng = rng_for(6)
    logits = rng.normal(size=(4, 3))
    labels = np.array([0, 2, 1, 1])
    _, d = cross_entropy(logits, labels)
    expect = softmax(logits)
    expect[np.arange(4), labels] -= 1
    np.testing.assert_allclose(d, expect / 4, rtol=1e-12)


def test_out_of_range_label_raises():
    with pytest.raises(ShapeError):
        cross_entropy(np.zeros((2, 3)), [0, 3])


def test_softmax_rows_sum_to_one():
    p = softmax(rng_for(7).normal(size=(50, 9), scale=30))
    np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)


# ---------------------------------------------------------------------------
# sgd

def make_params():
    return ModelParams({(0, "kernel"): np.array([1.0, 2.0]), (0, "bias"): np.array([0.5])})


def test_plain_sgd_update():
    p = make_params()
    g = ModelParams({(0, "kernel"): np.array([1.0, -1.0]), (0, "bias"): np.array([2.0])})
    SgdMomentum(p, momentum=0.0).step(p, g, lr=0.01)
    np.testing.assert_allclose(p[(0, "kernel")], [0.99, 2.01])
    np.testing.assert_allclose(p[(0, "bias")], [0.48])


def test_zero_grad_keeps_params():
    p = make_params()
    out = p.clone()
    zeros = ModelParams({k: np.zeros_like(v) for k, v in p.entries.items()})
    SgdMomentum(out, momentum=0.9).step(out, zeros, lr=0.1)
    assert out.equal(p)


def test_two_momentum_steps_unroll():
    p = ModelParams({(0, "kernel"): np.zeros(3)})
    g = ModelParams({(0, "kernel"): np.ones(3)})
    opt = SgdMomentum(p, momentum=0.9)
    opt.step(p, g, lr=1.0)
    opt.step(p, g, lr=1.0)
    np.testing.assert_allclose(p[(0, "kernel")], np.full(3, -(1.0 + 1.9)))


def test_sgd_key_mismatch_raises():
    p = make_params()
    g = ModelParams({(0, "kernel"): np.zeros(2)})
    with pytest.raises(StateError):
        SgdMomentum(p, momentum=0.0).step(p, g, lr=0.1)


def test_inplace_optimizer_matches_functional():
    # a first step from zero velocity is p - lr * g, applied to the live arrays
    net = build_mlp(5, [4], 2, seed=3)
    x = rng_for(8).normal(size=(6, 5))
    y = rng_for(9).integers(0, 2, size=6)
    logits = net.forward(x, train=True)
    _, d = cross_entropy(logits, y)
    grads = net.backward(d)
    expect = net.params.vec - 0.05 * grads.vec  # after forward: running stats updated
    SgdMomentum(net.params, momentum=0.9).step(net.params, grads, lr=0.05)
    np.testing.assert_array_equal(net.params.vec, expect)


# ---------------------------------------------------------------------------
# params plumbing

def test_flatten_unflatten_roundtrip_bitwise(tmp_path):
    # checkpoint entries -> one vector -> views -> the same checkpoint bytes
    net = build_cnn(8, 1, [4, 8], 5, seed=11)
    first, again = tmp_path / "a.bin", tmp_path / "b.bin"
    io.save_checkpoint(first, net.descriptor, 3, net.params.entries)
    _, _, entries = io.load_checkpoint(first)
    p = ModelParams(entries)
    assert p.equal(net.params)
    io.save_checkpoint(again, net.descriptor, 3, p.entries)
    assert again.read_bytes() == first.read_bytes()


def test_layer_tensors_are_views_into_one_vector():
    for net in (build_mlp(6, [5, 4], 3, seed=1), build_cnn(8, 1, [4, 8], 5, seed=1)):
        vec = net.params.vec
        assert vec.dtype == np.float64 and vec.flags.c_contiguous
        tensors = [getattr(layer, attr) for layer in net.layers
                   for attr in layer.ROLES.values()]
        assert sum(t.size for t in tensors) == vec.size
        assert all(np.shares_memory(t, vec) for t in tensors)
        net.layers[0].w[...] = 7.0
        assert (vec[net.params.layout.slices[(0, "kernel")]] == 7.0).all()


def test_set_get_roundtrip_and_key_check():
    net = build_mlp(6, [4], 3, seed=2)
    other = build_mlp(6, [4], 3, seed=12)
    p = other.get_params()
    net.set_params(p)
    assert net.get_params().equal(p)
    with pytest.raises(StateError):
        net.set_params(build_mlp(6, [5], 3, seed=2).get_params())


def test_descriptor_roundtrip():
    for net in (build_mlp(32, [16, 16], 4, seed=7), build_cnn(8, 1, [8, 16], 4, seed=7)):
        rebuilt = network_from_descriptor(net.descriptor, seed=7)
        assert rebuilt.get_params().equal(net.get_params())
        assert rebuilt.descriptor == net.descriptor


def test_bad_descriptor_raises():
    with pytest.raises(ShapeError):
        network_from_descriptor("vit:16:2", seed=0)


# ---------------------------------------------------------------------------
# training determinism

def test_fit_is_bitwise_deterministic():
    rng = rng_for(10)
    x = rng.normal(size=(40, 6))
    y = rng.integers(0, 3, size=40)
    runs = []
    for _ in range(2):
        net = build_mlp(6, [8], 3, seed=21)
        fit(net, x, y, epochs=3, lr=0.05, seed=33)
        runs.append(net.get_params())
    assert runs[0].equal(runs[1])


def test_fit_history_is_per_epoch_mean_loss():
    rng = rng_for(12)
    x = rng.normal(size=(30, 5))
    y = rng.integers(0, 3, size=30)
    net = build_mlp(5, [6], 3, seed=8)
    replay = net.stacked(1)
    history = fit(net, x, y, epochs=3, lr=0.05, batch=8, seed=2, lr_decay=0.5)

    opt = SgdMomentum(replay.params, 0.9)
    lr = 0.05
    expect = []
    for epoch in range(3):
        order = rng_for(2, "fit", epoch).permutation(30)
        losses = []
        for s in range(0, 30, 8):
            idx = order[s:s + 8]
            loss, d = cross_entropy(replay.forward(x[idx], train=True), y[idx])
            opt.step(replay.params, replay.backward(d), lr)
            losses.append(loss)
        expect.append(float(np.mean(losses)))
        lr *= 0.5
    assert history == expect
    assert net.get_params().equal(replay.get_params())


@pytest.mark.parametrize("net", [build_mlp(6, [8, 5], 3, seed=14),
                                 build_cnn(8, 1, [3, 4], 3, seed=14)], ids=["mlp", "cnn"])
def test_stacked_sgd_matches_one_client_runs(net):
    # 13, 9 and 22 rows in batches of 4: the clients run out of batches at
    # different steps, client 1's last batch is one row, and client 0's
    # batches carry two trigger rows
    rng = rng_for(15)
    sizes = (13, 9, 22)
    inputs = [rng.normal(size=(n,) + net.input_shape) for n in sizes]
    labels = [rng.integers(0, 3, size=n) for n in sizes]
    trig = (rng.normal(size=(5,) + net.input_shape), np.array([2, 2, 1, 0, 2]), 0.7, 2)

    def run(clients):
        stack = net.stacked(len(clients))
        losses, _ = sgd_epochs(stack, [inputs[c] for c in clients], [labels[c] for c in clients],
                               3, 0.05, 0.9, 4, ("stacked", 1), lr_decay=0.8,
                               triggers=[trig + (rng_for(16),) if c == 0 else None
                                         for c in clients])
        return stack.params.vec.reshape(len(clients), -1), losses

    vecs, losses = run([0, 1, 2])
    for c in range(3):
        vec, [loss] = run([c])
        np.testing.assert_array_equal(vecs[c], vec[0])
        np.testing.assert_array_equal(losses[c], loss)
        assert loss.shape == (3, 3, -(-sizes[c] // 4))
    assert losses[0][1].all() and not losses[1][1].any()


def test_stacked_sgd_keeps_each_clients_epochs():
    # clients of 13, 9 and 22 rows end their epochs at different steps; the
    # copy kept for e epochs holds each client's row from its own e-epoch run
    net = build_mlp(6, [8, 5], 3, seed=14)
    rng = rng_for(17)
    inputs = [rng.normal(size=(n, 6)) for n in (13, 9, 22)]
    labels = [rng.integers(0, 3, size=len(x)) for x in inputs]

    def run(clients, epochs, keep=()):
        stack = net.stacked(len(clients))
        _, kept = sgd_epochs(stack, [inputs[c] for c in clients], [labels[c] for c in clients],
                             epochs, 0.05, 0.9, 4, ("keep", 1), lr_decay=0.8, keep=keep)
        return stack.params.vec.reshape(len(clients), -1), kept

    keep = (2, 0, 3, 1)
    final, kept = run([0, 1, 2], 3, keep)
    np.testing.assert_array_equal(kept[2].vec, final)
    for e, copy in zip(keep, kept):
        assert copy.vec.shape == final.shape
        for c in range(3):
            np.testing.assert_array_equal(copy.vec[c], run([c], e)[0][0])
    with pytest.raises(ShapeError):
        run([0, 1], 3, (4,))


def test_fit_learns_separable_data():
    rng = rng_for(11)
    n = 60
    y = np.repeat([0, 1], n // 2)
    x = rng.normal(size=(n, 4)) + 4.0 * y[:, None]
    net = build_mlp(4, [8], 2, seed=13)
    fit(net, x, y, epochs=30, lr=0.05, seed=1)
    assert accuracy(net, x, y) >= 0.95


# ---------------------------------------------------------------------------
# seed streams

def test_rng_for_numpy_ints_draw_like_python_ints():
    assert rng_for(np.int64(5), "x").integers(0, 2**31) == rng_for(5, "x").integers(0, 2**31)
    assert rng_for(np.uint8(7)).normal() == rng_for(7).normal()
    assert rng_for((np.int32(7), "data"), "x").normal() == rng_for((7, "data"), "x").normal()


def test_rng_for_python_int_streams_are_pinned():
    assert rng_for(5).integers(0, 2**31) == 1969731490
    assert rng_for(5, "x").integers(0, 2**31) == 2114053720


@pytest.mark.parametrize("part", [1.0, np.float64(2.0), None, b"x", [1, 2], (1, 2.0)])
def test_rng_for_rejects_parts_that_are_not_int_or_str(part):
    with pytest.raises(TypeError):
        rng_for(3, part)
