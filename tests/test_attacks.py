import numpy as np
import pytest

import fedsign.attacks
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
from fedsign.manifest import RunManifest
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
    assert np.array_equal(prune(p, 0.0, seed=1).vec, p.vec)


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
    assert np.array_equal(prune(p, 0.4, seed=9).vec, prune(p, 0.4, seed=9).vec)


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
    assert np.array_equal(finetune(net, params, train, [0], lr=1e-4, seed=0)[0].vec, params.vec)


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
    assert np.array_equal(got.vec, replay.get_params().vec)
    assert not np.array_equal(got.vec, start.vec)


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
        assert np.array_equal(params.vec, replay_finetune(net, start, ds, epochs, 0.01, 16, 4).vec)
    assert np.array_equal(got[0].vec, start.vec) and not np.array_equal(got[2].vec, got[1].vec)


def test_finetune_grid_takes_the_largest_budget_of_steps(monkeypatch):
    ds = make_synthetic(3, 30, seed=7, kind="blobs")
    net = build_mlp(32, [16, 16], 3, seed=2)
    steps = []
    step = SgdMomentum.step
    monkeypatch.setattr(SgdMomentum, "step", lambda *a: (steps.append(1), step(*a)))
    finetune(net, net.get_params(), ds, (2, 7, 4), lr=1e-4, seed=0)
    assert len(steps) == 7 * -(-ds.n // 16)


def test_finetune_keeps_main_accuracy(robustness_run):
    net, params, keys, train, test = robustness_run
    acc_before, *_ = evaluate_attack(net, params, keys, [], (test.inputs, test.labels))
    [attacked] = finetune(net, params, train, [50], lr=1e-4, seed=0)
    acc_after, *_ = evaluate_attack(net, attacked, keys, [], (test.inputs, test.labels))
    assert acc_after >= acc_before - 0.01


def test_finetune_hinge_scale_outlives_bce_kernel(robustness_run):
    net, params, keys, train, test = robustness_run
    [attacked] = finetune(net, params, train, [50], lr=1e-4, seed=0)
    _, eta_gamma, eta_kernel, _ = evaluate_attack(net, attacked, keys, [],
                                                  (test.inputs, test.labels))
    assert eta_gamma >= eta_kernel


def test_attacks_leave_keys_usable(robustness_run):
    net, params, keys, train, test = robustness_run
    attacked = prune(params, 0.3, seed=4)
    assert not np.array_equal(attacked.vec, params.vec)
    for key in keys:
        before = verify_white(params, key)
        after = verify_white(attacked, key)
        assert before.hamming == 0
        assert 0.0 <= after.detection_rate <= 1.0


# ---------------------------------------------------------------------------
# suite

def run_grid(run, prune=(), finetune=()):
    """The attack suite over `run` on a manifest grid of these rates and
    budgets (attack seed 0), over the run's feature keys."""
    net, params, keys, train, test = run
    m = RunManifest(attack_prune=prune, attack_finetune_epochs=finetune)
    return run_attack_suite(m, net, params, keys, [], train, (test.inputs, test.labels))


def test_empty_grid_gives_empty_reports(robustness_run):
    assert run_grid(robustness_run) == []


def test_report_count_matches_grid(robustness_run):
    reports = run_grid(robustness_run, prune=(0.0, 0.25, 0.5), finetune=(5,))
    assert len(reports) == 4
    assert [r.attack for r in reports] == ["prune"] * 3 + ["finetune"]
    zero = reports[0]
    assert zero.acc_after == zero.acc_before  # prune at rate 0 changes nothing


def test_suite_reports_follow_the_grid(robustness_run):
    reports = run_grid(robustness_run, prune=(0.5, 0.0), finetune=(3, 0, 1, 3))
    assert [(r.attack, r.param) for r in reports] == [
        ("prune", 0.5), ("prune", 0.0), ("finetune", 3.0), ("finetune", 0.0),
        ("finetune", 1.0), ("finetune", 3.0)]
    assert reports[3].acc_after == reports[3].acc_before  # 0 epochs change nothing
    assert reports[2] == reports[5]


def test_suite_runs_one_finetune_and_one_prune_per_rate(robustness_run, monkeypatch):
    """Every budget is read off a single fine-tune run, and the suite looks
    `prune` and `finetune` up as module names, where the tracer binds."""
    calls = []
    for name in ("prune", "finetune"):
        original = getattr(fedsign.attacks, name)
        monkeypatch.setattr(fedsign.attacks, name,
                            lambda *a, _f=original, _n=name: calls.append(_n) or _f(*a))
    reports = run_grid(robustness_run, prune=(0.2, 0.4), finetune=(1, 3, 2))
    assert calls == ["prune", "prune", "finetune"]
    assert [(r.attack, r.param) for r in reports] == [
        ("prune", 0.2), ("prune", 0.4), ("finetune", 1.0), ("finetune", 3.0),
        ("finetune", 2.0)]


def test_gamma_signature_survives_half_pruning(robustness_run):
    [report] = run_grid(robustness_run, prune=(0.5,))
    assert report.eta_gamma >= 0.95
    assert report.eta_gamma >= report.eta_kernel


def test_attack_csv_layout(tmp_path, robustness_run):
    reports = run_grid(robustness_run, prune=(0.1,))
    path = tmp_path / "attacks.csv"
    attack_reports_to_csv(reports, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == ",".join(CSV_COLUMNS)
    cells = lines[1].split(",")
    assert cells[0] == "prune" and cells[1] == "0.1"
    assert cells[-1] == ""  # no trigger keys in this run
