import numpy as np
import pytest

from fedsign.attacks import (
    CSV_COLUMNS,
    attack_reports_to_csv,
    evaluate_attack,
    finetune,
    prune,
    run_attack_suite,
)
from fedsign.data import make_synthetic, split
from fedsign.federation import FedConfig, WatermarkSpec, run_federation, setup_clients
from fedsign.nn import SgdMomentum, build_mlp, cross_entropy, rng_for
from fedsign.watermark import verify_white


@pytest.fixture(scope="module")
def robustness_run():
    """Standard desk-scale run: two hinge/scale clients, two bce/kernel."""
    seed = 0
    train = make_synthetic(4, 250, seed=100, kind="blobs")
    test = make_synthetic(4, 100, seed=100, kind="blobs", salt=1)
    net = build_mlp(32, [16, 16], 4, seed=seed)
    shards = split(train, 8, seed=seed)
    specs = {0: WatermarkSpec("scale", 8, 0, "hinge", beta=3.0),
             1: WatermarkSpec("scale", 8, 0, "hinge", beta=3.0),
             2: WatermarkSpec("kernel", 32, 0, "bce", beta=3.0),
             3: WatermarkSpec("kernel", 32, 0, "bce", beta=3.0)}
    clients = setup_clients(train, shards, net, specs, seed)
    cfg = FedConfig(n_clients=8, rounds=60, seed=seed)
    params, _ = run_federation(cfg, clients, net, eval_data=(test.inputs, test.labels))
    keys = [c.key for c in clients if c.key is not None]
    return net, params, keys, train, test


# ---------------------------------------------------------------------------
# pruning

def params_of(seed=5):
    return build_mlp(16, [8, 8], 3, seed=seed).get_params()


def test_prune_zero_rate_is_identity():
    p = params_of()
    assert prune(p, 0.0, seed=1).equal(p)


def test_prune_full_rate_zeroes_all_kernels():
    p = params_of()
    out = prune(p, 1.0, seed=1)
    for (idx, role), arr in out.entries.items():
        if role == "kernel":
            assert not arr.any()
        else:
            np.testing.assert_array_equal(arr, p.entries[(idx, role)])


def test_prune_count_is_exact():
    p = params_of()
    total = sum(v.size for (i, r), v in p.entries.items() if r == "kernel")
    for rate in (0.1, 0.33, 0.5, 0.77):
        out = prune(p, rate, seed=2)
        zeroed = sum(int((out.entries[k] == 0).sum()) - int((p.entries[k] == 0).sum())
                     for k in p.entries if k[1] == "kernel")
        assert zeroed == round(rate * total)


def test_prune_deterministic():
    p = params_of()
    assert prune(p, 0.4, seed=9).equal(prune(p, 0.4, seed=9))


def test_prune_composition_zeroes_at_least_max_fraction():
    p = params_of()
    out = prune(prune(p, 0.6, seed=1), 0.3, seed=2)
    total = sum(v.size for (i, r), v in p.entries.items() if r == "kernel")
    zeroed = sum(int((out.entries[k] == 0).sum()) for k in p.entries if k[1] == "kernel")
    assert zeroed >= round(0.6 * total)


# ---------------------------------------------------------------------------
# fine-tuning

def test_finetune_zero_epochs_is_identity(robustness_run):
    net, params, keys, train, test = robustness_run
    assert finetune(net, params, train, [0])[0].equal(params)


def test_finetune_replays_momentum_sgd():
    ds = make_synthetic(3, 30, seed=7, kind="blobs")  # 90 rows: ragged last batch
    net = build_mlp(32, [16, 16], 3, seed=2)
    start = net.get_params()
    [got] = finetune(net, start, ds, [3], lr=0.01, seed=4)

    replay = net.stacked(1)
    replay.set_params(start)
    opt = SgdMomentum(replay.params, 0.9)
    lr = 0.01
    for epoch in range(3):
        order = rng_for(4, "finetune", epoch).permutation(ds.n)
        for s in range(0, ds.n, 16):
            idx = order[s:s + 16]
            _, d = cross_entropy(replay.forward(ds.inputs[idx], train=True), ds.labels[idx])
            opt.step(replay.params, replay.backward(d), lr)
        lr *= 0.99
    assert got.equal(replay.get_params())
    assert not got.equal(start)


def replay_finetune(net, start, ds, epochs, lr, batch, seed):
    """Momentum SGD written out step by step, as `finetune` runs it."""
    replay = net.stacked(1)
    replay.set_params(start)
    opt = SgdMomentum(replay.params, 0.9)
    for epoch in range(epochs):
        order = rng_for(seed, "finetune", epoch).permutation(ds.n)
        for s in range(0, ds.n, batch):
            idx = order[s:s + batch]
            _, d = cross_entropy(replay.forward(ds.inputs[idx], train=True), ds.labels[idx])
            opt.step(replay.params, replay.backward(d), lr)
        lr *= 0.99
    return replay.get_params()


def test_finetune_budgets_equal_their_own_runs():
    ds = make_synthetic(3, 30, seed=7, kind="blobs")  # 90 rows: ragged last batch
    net = build_mlp(32, [16, 16], 3, seed=2)
    start = net.get_params()
    budgets = (0, 5, 3, 5)
    got = finetune(net, start, ds, budgets, lr=0.01, seed=4)
    assert len(got) == len(budgets)
    for epochs, params in zip(budgets, got):
        assert params.equal(replay_finetune(net, start, ds, epochs, 0.01, 16, 4))
    assert got[0].equal(start) and not got[2].equal(got[1])


def test_finetune_grid_takes_the_largest_budget_of_steps(monkeypatch):
    ds = make_synthetic(3, 30, seed=7, kind="blobs")
    net = build_mlp(32, [16, 16], 3, seed=2)
    steps = []
    step = SgdMomentum.step
    monkeypatch.setattr(SgdMomentum, "step", lambda *a: (steps.append(1), step(*a)))
    finetune(net, net.get_params(), ds, (2, 7, 4))
    assert len(steps) == 7 * -(-ds.n // 16)


def test_finetune_keeps_main_accuracy(robustness_run):
    net, params, keys, train, test = robustness_run
    acc_before, *_ = evaluate_attack(net, params, keys, (test.inputs, test.labels))
    [attacked] = finetune(net, params, train, [50], lr=1e-4, seed=0)
    acc_after, *_ = evaluate_attack(net, attacked, keys, (test.inputs, test.labels))
    assert acc_after >= acc_before - 0.01


def test_finetune_hinge_scale_outlives_bce_kernel(robustness_run):
    net, params, keys, train, test = robustness_run
    [attacked] = finetune(net, params, train, [50], lr=1e-4, seed=0)
    _, eta_gamma, eta_kernel, _ = evaluate_attack(net, attacked, keys,
                                                  (test.inputs, test.labels))
    assert eta_gamma >= eta_kernel


def test_attacks_leave_keys_usable(robustness_run):
    net, params, keys, train, test = robustness_run
    attacked = prune(params, 0.3, seed=4)
    assert not attacked.equal(params)
    for key in keys:
        before = verify_white(params, key)
        after = verify_white(attacked, key)
        assert before.hamming == 0
        assert 0.0 <= after.detection_rate <= 1.0


# ---------------------------------------------------------------------------
# suite

def test_empty_grid_gives_empty_reports(robustness_run):
    net, params, keys, train, test = robustness_run
    assert run_attack_suite(net, params, keys, (test.inputs, test.labels), train) == []


def test_report_count_matches_grid(robustness_run):
    net, params, keys, train, test = robustness_run
    reports = run_attack_suite(net, params, keys, (test.inputs, test.labels), train,
                               prune_rates=(0.0, 0.25, 0.5), finetune_epochs=(5,),
                               seed=0)
    assert len(reports) == 4
    assert [r.attack for r in reports] == ["prune"] * 3 + ["finetune"]
    zero = reports[0]
    assert zero.acc_after == zero.acc_before  # prune at rate 0 changes nothing


def test_suite_reports_follow_the_grid(robustness_run):
    net, params, keys, train, test = robustness_run
    reports = run_attack_suite(net, params, keys, (test.inputs, test.labels), train,
                               prune_rates=(0.5, 0.0), finetune_epochs=(3, 0, 1, 3), seed=0)
    assert [(r.attack, r.param) for r in reports] == [
        ("prune", 0.5), ("prune", 0.0), ("finetune", 3.0), ("finetune", 0.0),
        ("finetune", 1.0), ("finetune", 3.0)]
    assert reports[3].acc_after == reports[3].acc_before  # 0 epochs change nothing
    assert reports[2] == reports[5]


def test_gamma_signature_survives_half_pruning(robustness_run):
    net, params, keys, train, test = robustness_run
    reports = run_attack_suite(net, params, keys, (test.inputs, test.labels), train,
                               prune_rates=(0.5,), seed=0)
    assert reports[0].eta_gamma >= 0.95
    assert reports[0].eta_gamma >= reports[0].eta_kernel


def test_attack_csv_layout(tmp_path, robustness_run):
    net, params, keys, train, test = robustness_run
    reports = run_attack_suite(net, params, keys, (test.inputs, test.labels), train,
                               prune_rates=(0.1,), seed=0)
    path = tmp_path / "attacks.csv"
    attack_reports_to_csv(reports, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == ",".join(CSV_COLUMNS)
    cells = lines[1].split(",")
    assert cells[0] == "prune" and cells[1] == "0.1"
    assert cells[-1] == ""  # no trigger keys in this run
