import math

import numpy as np
import pytest

from fedsign import io
from fedsign.data import TriggerSet, make_synthetic
from fedsign.errors import CapacityError, FormatError, KeyMismatchError, ShapeError
from fedsign.nn import ModelParams, build_mlp, fit, rng_for
from fedsign.watermark import (
    WatermarkKey,
    bce_reg,
    bits_to_binary,
    default_eps_h,
    default_selector,
    extract,
    hinge_reg,
    keygen,
    load_key,
    read_bits,
    save_key,
    verify_black,
    verify_white,
)


def scale_params(values):
    return ModelParams({(0, "scale"): np.asarray(values, dtype=float)})


def reg_grad(reg, params, key, beta=1.0):
    """(loss, beta * dR/dparams) of a regularizer, added into zeros."""
    grad = np.zeros(params.layout.size)
    loss = reg(params, key, grad, beta)
    return loss, ModelParams.wrap(params.layout, grad)


def scale_key(n, bits=None, matrix=None, coords=None, margin=0.1):
    """A key on an n-entry scale pool: the identity matrix and all bits +1
    unless given."""
    if matrix is None and coords is None:
        matrix = np.eye(n)
    if bits is None:
        bits = np.ones(len(coords) if coords is not None else matrix.shape[1])
    return WatermarkKey(0, np.asarray(bits, dtype=np.int8), ((0, "scale"),), n,
                        coords=coords, matrix=matrix, margin=margin)


# ---------------------------------------------------------------------------
# key generation

def test_scale_keygen_gives_distinct_channel_indices():
    net = build_mlp(8, [16], 3, seed=0)  # one 16-channel scale-norm layer
    key = keygen(net, client_id=0, n_bits=8, n_triggers=0, mode="scale", seed=1)
    assert key.coords is not None
    assert len(np.unique(key.coords)) == 8
    assert key.pool_size == 16


def test_scale_keygen_clients_disjoint_within_capacity():
    net = build_mlp(8, [16, 16], 3, seed=0)  # pool of 32 channels
    keys = [keygen(net, k, 8, 0, "scale", seed=5) for k in range(4)]
    merged = np.concatenate([k.coords for k in keys])
    assert len(np.unique(merged)) == 32


def test_kernel_keygen_matrices_differ_between_clients():
    net = build_mlp(8, [16, 16], 3, seed=0)
    a = keygen(net, 0, 8, 0, "kernel", seed=5)
    b = keygen(net, 1, 8, 0, "kernel", seed=5)
    assert a.matrix.shape == (16 * 16, 8)
    assert not np.array_equal(a.matrix, b.matrix)


def test_keygen_deterministic_per_seed_and_client():
    net = build_mlp(8, [16], 3, seed=0)
    a = keygen(net, 2, 6, 0, "kernel", seed=9)
    b = keygen(net, 2, 6, 0, "kernel", seed=9)
    np.testing.assert_array_equal(a.bits, b.bits)
    np.testing.assert_array_equal(a.matrix, b.matrix)


def test_bit_balance_monte_carlo():
    net = build_mlp(8, [16], 3, seed=0)
    means = [keygen(net, k, 16, 0, "kernel", seed=77).bits.mean() for k in range(1000)]
    assert abs(np.mean(means)) <= 0.1


def test_scale_capacity_error():
    net = build_mlp(8, [16], 3, seed=0)
    with pytest.raises(CapacityError):
        keygen(net, 0, 17, 0, "scale", seed=1)


def test_default_selector_policies():
    mlp = build_mlp(8, [16, 16], 3, seed=0)
    assert default_selector(mlp, "scale") == ((1, "scale"), (4, "scale"))
    assert default_selector(mlp, "kernel") == ((3, "kernel"),)
    with pytest.raises(KeyMismatchError):
        default_selector(mlp, "activations")


# ---------------------------------------------------------------------------
# extraction

def test_extract_identity():
    vals = extract(scale_params([0.3, -0.5]), scale_key(2))
    np.testing.assert_allclose(vals, [0.3, -0.5])


def test_extract_zero_matrix():
    e = scale_key(2, matrix=np.zeros((2, 3)))
    np.testing.assert_array_equal(extract(scale_params([0.3, -0.5]), e), np.zeros(3))


def test_extract_matches_double_loop_oracle():
    rng = rng_for("extract-oracle")
    w = rng.normal(size=12)
    e = rng.normal(size=(12, 5))
    got = extract(scale_params(w), scale_key(12, matrix=e))
    expect = np.zeros(5)
    for j in range(5):
        for m in range(12):
            expect[j] += w[m] * e[m, j]
    np.testing.assert_allclose(got, expect, rtol=0, atol=1e-12)


def test_extract_rejects_wrong_pool():
    with pytest.raises(KeyMismatchError):
        extract(scale_params([1.0, 2.0, 3.0]), scale_key(2))


@pytest.mark.parametrize("fields", [dict(coords=np.array([2, 2])), dict(coords=np.array([0, 4])),
                                    dict(matrix=np.ones((3, 2))),
                                    dict(bits=[1, 0], coords=np.array([0, 1]))])
def test_key_parts_that_do_not_fit_are_rejected_on_construction(fields):
    with pytest.raises(KeyMismatchError):
        scale_key(4, **{"bits": [1, -1], **fields})


def test_read_bits_signs_and_tie_rule():
    np.testing.assert_array_equal(read_bits([0.3, -0.5]), [1, -1])
    np.testing.assert_array_equal(read_bits([0.0, 0.0]), [1, 1])


def test_read_bits_invariant_under_positive_scaling():
    rng = rng_for("scaling")
    w = rng.normal(size=10)
    e = rng.normal(size=(10, 6))
    ek = scale_key(10, matrix=e)
    base = read_bits(extract(scale_params(w), ek))
    for c in (0.1, 3.0, 1e6):
        np.testing.assert_array_equal(read_bits(extract(scale_params(c * w), ek)), base)


def test_binary_bit_mapping_roundtrip():
    bits = np.array([-1, 1, 1, -1], dtype=np.int8)
    np.testing.assert_array_equal(bits_to_binary(bits), [0, 1, 1, 0])
    assert bits_to_binary(bits).dtype == np.int8


# ---------------------------------------------------------------------------
# regularizers

def test_hinge_terms_by_hand():
    key = scale_key(1, [1], margin=0.5)
    loss, _ = reg_grad(hinge_reg, scale_params([1.0]), key)
    assert loss == 0.0
    loss, _ = reg_grad(hinge_reg, scale_params([-0.2]), key)
    assert loss == pytest.approx(0.7)


def test_hinge_zero_iff_margins_met_and_verifies():
    rng = rng_for("hinge-zero")
    bits = read_bits(rng.normal(size=6))
    key = scale_key(6, bits, margin=0.1)
    good = scale_params(0.2 * bits.astype(float))
    loss, grads = reg_grad(hinge_reg, good, key)
    assert loss == 0.0
    assert not grads.entries[(0, "scale")].any()
    assert verify_white(good, key).hamming == 0
    # one bit dips under the margin -> positive loss
    w = 0.2 * bits.astype(float)
    w[3] = 0.05 * bits[3]
    assert reg_grad(hinge_reg, scale_params(w), key)[0] > 0


def _fd_reg(reg, params, key, probe, idx, h=1e-6):
    arr = params.entries[probe]
    orig = arr.flat[idx]
    arr.flat[idx] = orig + h
    up = reg_grad(reg, params, key)[0]
    arr.flat[idx] = orig - h
    dn = reg_grad(reg, params, key)[0]
    arr.flat[idx] = orig
    return (up - dn) / (2 * h)


@pytest.mark.parametrize("reg", [hinge_reg, bce_reg], ids=["hinge", "bce"])
def test_regularizer_gradients_match_finite_differences(reg):
    rng = rng_for("reg-fd", reg.__name__)
    for trial in range(5):
        w = rng.normal(size=10)
        e = rng.normal(size=(10, 7))
        key = scale_key(10, read_bits(rng.normal(size=7)), matrix=e)
        params = scale_params(w)
        if reg is hinge_reg:
            slack = key.margin - key.bits * extract(params, key)
            if np.abs(slack).min() < 1e-3:  # keep probes away from the kink
                continue
        _, grads = reg_grad(reg, params, key)
        for idx in rng.choice(10, size=6, replace=False):
            fd = _fd_reg(reg, params, key, (0, "scale"), idx)
            a = grads.entries[(0, "scale")].flat[idx]
            assert abs(a - fd) <= 1e-4 * max(abs(a), abs(fd), 1e-3)


def test_bce_values_by_hand():
    for t in (-1, 1):
        loss, _ = reg_grad(bce_reg, scale_params([0.0]), scale_key(1, [t]))
        assert loss == pytest.approx(math.log(2), rel=1e-12)
    loss, _ = reg_grad(bce_reg, scale_params([40.0]), scale_key(1, [1]))
    assert loss < 1e-12


def test_gradients_vanish_on_satisfied_bits():
    # hinge gradient must be exactly zero for bits already past the margin
    e = np.eye(4)
    key = scale_key(4, [1, 1, -1, -1], matrix=e, margin=0.1)
    params = scale_params([0.5, 0.05, -0.5, 0.02])
    _, grads = reg_grad(hinge_reg, params, key)
    g = grads.entries[(0, "scale")]
    assert g[0] == 0.0 and g[2] == 0.0  # satisfied
    assert g[1] == -1.0 and g[3] == 1.0  # active, pushes toward the sign


@pytest.mark.parametrize("reg", [hinge_reg, bce_reg], ids=["hinge", "bce"])
@pytest.mark.parametrize("mode", ["scale", "kernel"])
def test_regularizer_adds_into_the_pool_entries_only(reg, mode):
    """grad gains beta * E @ dloss_db on the key's pool; every other entry,
    -0.0 included, keeps its bits."""
    net = build_mlp(8, [16, 16], 3, seed=2)
    key = keygen(net, 1, 8, 0, mode, seed=3)
    params = net.params
    rng = rng_for("reg-into-row", mode)
    grad = rng.normal(size=params.layout.size)
    grad[rng.choice(grad.size, size=grad.size // 4, replace=False)] = -0.0
    before = grad.copy()
    beta = 2.5
    loss = reg(params, key, grad, beta)

    b = extract(params, key)
    t = key.bits.astype(float)
    if reg is hinge_reg:
        slack = key.margin - t * b
        dloss_db = np.where(slack > 0, -t, 0.0)
        assert loss == float(slack[slack > 0].sum())
    else:
        dloss_db = 1.0 / (1.0 + np.exp(-b)) - bits_to_binary(key.bits)
    pool = params.layout.index(key.selector)
    touched = pool if key.coords is None else pool[key.coords]
    outside = np.ones(grad.size, dtype=bool)
    outside[touched] = False
    assert before[outside].tobytes() == grad[outside].tobytes()
    step = beta * (key.dense() @ dloss_db)
    assert step.any() and before[pool].any()
    expect = before.copy()
    expect[pool] += step  # added to the row's entries, not written over them
    np.testing.assert_array_equal(grad, expect)


# ---------------------------------------------------------------------------
# verification

def test_verify_white_perfect_embedding():
    bits = np.array([1, -1, 1, 1, -1, -1, 1, -1], dtype=np.int8)
    key = scale_key(8, bits)
    res = verify_white(scale_params(bits.astype(float)), key)
    assert res.hamming == 0 and res.detection_rate == 1.0 and res.verdict


def test_verify_white_eta_formula():
    bits = np.ones(8, dtype=np.int8)
    key = scale_key(8, bits)
    w = np.ones(8)
    w[:2] = -1.0  # two mismatches
    res = verify_white(scale_params(w), key)
    assert res.hamming == 2
    assert res.detection_rate == pytest.approx(0.75)
    assert not res.verdict  # eps_h = ceil(0.4) = 1


def test_default_eps_h():
    assert default_eps_h(8) == 1
    assert default_eps_h(32) == 2
    assert default_eps_h(20) == 1


def test_random_model_fails_white_check():
    # chance-level detection on a fresh model: eta ~ 0.5 and verdict False
    # (false-positive probability 2^-32 * sum_{i<=2} C(32,i) ~ 1.2e-7)
    net_seed_etas = []
    fails = 0
    trials = 200
    for seed in range(trials):
        net = build_mlp(8, [16, 16], 3, seed=seed)
        key = keygen(net, 0, 32, 0, "kernel", seed=seed + 5000)
        res = verify_white(net.params, key)
        net_seed_etas.append(res.detection_rate)
        fails += not res.verdict
    assert fails == trials
    assert abs(np.mean(net_seed_etas) - 0.5) < 0.03


def test_verify_black_trained_and_thresholds():
    ds = make_synthetic(4, 30, seed=2)
    net = build_mlp(32, [16, 16], 4, seed=3)
    key = keygen(net, 1, 4, 20, "scale", seed=8, dataset=ds)
    # memorize the trigger set -> error 0
    fit(net, key.triggers.samples, key.triggers.target_labels, epochs=40, lr=0.05, seed=0)
    res = verify_black(net, key.triggers)
    assert res.trigger_error == 0.0 and res.verdict
    # vacuous threshold is always TRUE
    fresh = build_mlp(32, [16, 16], 4, seed=99)
    assert verify_black(fresh, key.triggers, eps_y=1.0).verdict


def test_verify_black_chance_level_fails():
    ds = make_synthetic(10, 20, seed=4)
    net = build_mlp(32, [16, 16], 10, seed=11)
    key = keygen(net, 3, 4, 40, "scale", seed=21, dataset=ds)
    res = verify_black(net, key.triggers, eps_y=0.2)
    assert res.trigger_error >= 0.5
    assert not res.verdict


@pytest.mark.parametrize("shape", [(5, 9), (1, 3, 8), (2, 3, 8)])
def test_verify_black_rejects_samples_that_do_not_fit_the_network(shape):
    """A one-sample set with an extra axis could read as a stacked batch;
    the network's forward rejects it like any other misfit."""
    net = build_mlp(8, [16], 3, seed=0)
    triggers = TriggerSet(np.zeros(shape), np.zeros(shape[0], dtype=int), "pattern", 3)
    with pytest.raises(ShapeError):
        verify_black(net, triggers)


# ---------------------------------------------------------------------------
# keyfiles

def test_keyfile_roundtrip_scale(tmp_path):
    ds = make_synthetic(4, 30, seed=2)
    net = build_mlp(32, [16, 16], 4, seed=3)
    key = keygen(net, 5, 8, 12, "scale", seed=13, dataset=ds)
    path = tmp_path / "client5.key"
    save_key(key, path)
    back = load_key(path)
    assert back.client_id == 5 and back.seed == 13 and back.margin == key.margin
    np.testing.assert_array_equal(back.bits, key.bits)
    np.testing.assert_array_equal(back.coords, key.coords)
    assert back.pool_size == key.pool_size
    assert back.selector == key.selector
    np.testing.assert_array_equal(back.triggers.samples, key.triggers.samples)
    import os
    assert (os.stat(path).st_mode & 0o777) == 0o600


def test_keyfile_roundtrip_kernel(tmp_path):
    net = build_mlp(32, [16, 16], 4, seed=3)
    key = keygen(net, 2, 16, 0, "kernel", seed=4)
    path = tmp_path / "client2.key"
    save_key(key, path)
    back = load_key(path)
    np.testing.assert_array_equal(back.matrix, key.matrix)
    assert back.triggers is None
    # loaded key verifies against the same model exactly like the original
    assert verify_white(net.params, back).hamming == verify_white(net.params, key).hamming


@pytest.mark.parametrize("ref", ["../other/client_4.key.triggers", "ABSOLUTE",
                                 "other/client_4.key.triggers", ".", ".."])
def test_keyfile_trigger_ref_must_be_a_sibling_name(tmp_path, ref):
    """A forged reference may not reach another directory's trigger set."""
    ds = make_synthetic(4, 30, seed=2)
    key = keygen(build_mlp(32, [16, 16], 4, seed=3), 4, 8, 12, "scale", seed=13, dataset=ds)
    (tmp_path / "other").mkdir()
    save_key(key, tmp_path / "other" / "client_4.key")  # a real trigger set to point at
    (tmp_path / "run").mkdir()
    if ref == "ABSOLUTE":
        ref = str(tmp_path / "other" / "client_4.key.triggers")
    forged = tmp_path / "run" / "client_4.key"
    io.save_keyfile(forged, client_id=4, mode="scale", seed=13, bits=key.bits,
                    selector=key.selector, pool_size=key.pool_size,
                    coords=key.coords, trigger_ref=ref)
    with pytest.raises(FormatError, match="trigger reference"):
        load_key(forged)


@pytest.mark.parametrize("mode,extractor", [("banana", "coords"), ("kernel", "coords"),
                                            ("scale", "matrix"), ("", "matrix")])
def test_keyfile_mode_must_fit_its_extractor(tmp_path, mode, extractor):
    net = build_mlp(32, [16, 16], 4, seed=3)
    key = keygen(net, 2, 8, 0, "scale" if extractor == "coords" else "kernel", seed=4)
    path = tmp_path / "forged.key"
    io.save_keyfile(path, client_id=2, mode=mode, seed=4, bits=key.bits,
                    selector=key.selector, pool_size=key.pool_size,
                    coords=key.coords, matrix=key.matrix)
    with pytest.raises(FormatError, match="mode"):
        load_key(path)
