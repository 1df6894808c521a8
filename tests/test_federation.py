import numpy as np
import pytest

from fedsign.data import make_synthetic, split
from fedsign.errors import ConfigError, StateError
from fedsign.federation import (
    ClientState,
    FedConfig,
    RoundLog,
    WatermarkSpec,
    add_dp_noise,
    aggregate,
    client_update,
    round_log_columns,
    round_logs_to_csv,
    run_federation,
    sample_clients,
    setup_clients,
)
from fedsign.nn import ModelParams, SgdMomentum, build_mlp, cross_entropy, rng_for
from fedsign.watermark import bce_reg, hinge_reg, keygen, verify_white

from conftest import softmax


def small_world(seed=0, n_clients=4, specs=None, **cfg_kw):
    tr = make_synthetic(3, 40, seed=50 + seed, kind="blobs")
    net = build_mlp(32, [16, 16], 3, seed=seed)
    shards = split(tr, n_clients, seed=seed)
    cfg = FedConfig(n_clients=n_clients, rounds=cfg_kw.pop("rounds", 3), seed=seed, **cfg_kw)
    clients = setup_clients(tr, shards, net, specs or {}, seed)
    return tr, net, shards, cfg, clients


# ---------------------------------------------------------------------------
# client_update

def test_plain_client_update_is_local_sgd():
    tr, net, shards, cfg, clients = small_world()
    state = clients[1]
    start = net.get_params()
    [(got, losses)] = client_update(net, [state], start, cfg, round_index=2)

    # replay: same shuffle stream, same lr schedule, cross-entropy only
    replay = net.stacked(1)
    replay.set_params(start)
    opt = SgdMomentum(replay.params, cfg.momentum)
    lr = cfg.lr * cfg.lr_decay ** 2
    for epoch in range(cfg.local_epochs):
        order = rng_for(cfg.seed, "batches", 2, epoch).permutation(state.data.n)
        for s in range(0, state.data.n, cfg.batch):
            idx = order[s:s + cfg.batch]
            logits = replay.forward(state.data.inputs[idx], train=True)
            _, d = cross_entropy(logits, state.data.labels[idx])
            opt.step(replay.params, replay.backward(d), lr)
    assert got.equal(replay.get_params())
    assert losses["trigger"] == 0.0 and losses["feature"] == 0.0


@pytest.mark.parametrize("loss", ["hinge", "bce"])
def test_poisoned_regularized_client_update_replays(loss):
    # alpha != 1, three trigger rows per batch, 30-sample shard in batches
    # of 12 (ragged last batch), feature regularizer on top
    spec = WatermarkSpec("scale", 8, 5, loss, alpha=0.3, beta=2.0)
    tr, net, shards, cfg, clients = small_world(seed=2, specs={1: spec},
                                                batch=12, backdoor_batch=3)
    state = clients[1]
    assert state.data.n % cfg.batch
    start = net.get_params()
    [(got, losses)] = client_update(net, [state], start, cfg, round_index=3)

    reg = hinge_reg if loss == "hinge" else bce_reg
    trig = state.key.triggers
    replay = net.stacked(1)
    replay.set_params(start)
    opt = SgdMomentum(replay.params, cfg.momentum)
    lr = cfg.lr * cfg.lr_decay ** 3
    trig_rng = rng_for(cfg.seed, "trigger-batches", 3, state.client_id)
    seen = {"main": [], "trigger": [], "feature": []}
    for epoch in range(cfg.local_epochs):
        order = rng_for(cfg.seed, "batches", 3, epoch).permutation(state.data.n)
        for s in range(0, state.data.n, cfg.batch):
            idx = order[s:s + cfg.batch]
            pick = trig_rng.integers(0, trig.size, size=3)
            n = len(idx)
            logits = replay.forward(
                np.concatenate([state.data.inputs[idx], trig.samples[pick]]), train=True)
            main, d_main = cross_entropy(logits[:n], state.data.labels[idx])
            trig_loss, _ = cross_entropy(logits[n:], trig.target_labels[pick])
            d_trig = softmax(logits[n:])
            d_trig[np.arange(3), trig.target_labels[pick]] -= 1.0
            d_trig *= state.spec.alpha / 3
            grads = replay.backward(np.concatenate([d_main, d_trig]))
            feat = reg(replay.params, state.key, grads.vec, state.spec.beta)
            opt.step(replay.params, grads, lr)
            seen["main"].append(main)
            seen["trigger"].append(trig_loss)
            seen["feature"].append(feat)
    assert got.equal(replay.get_params())
    assert losses == {k: float(np.mean(v)) for k, v in seen.items()}
    assert losses["trigger"] > 0.0 and losses["feature"] > 0.0


def test_zero_local_epochs_returns_global_unchanged():
    tr, net, shards, cfg, clients = small_world(local_epochs=0)
    start = net.get_params()
    [(got, _)] = client_update(net, clients[:1], start, cfg)
    assert got.equal(start)


def test_identical_shards_produce_identical_updates():
    tr, net, shards, cfg, clients = small_world(n_clients=2)
    shared = clients[0].data
    clients[1] = ClientState(1, shared)
    (a, _), (b, _) = client_update(net, clients, net.get_params(), cfg, 0)
    assert a.equal(b)


def test_beta_without_key_is_config_error():
    tr, net, shards, cfg, clients = small_world()
    state = clients[0]
    state.spec = WatermarkSpec(beta=1.0)
    with pytest.raises(ConfigError):
        client_update(net, [state], net.get_params(), cfg)


@pytest.mark.parametrize("field, value, key", [("batch", 0, "batch"), ("lr", -0.01, "lr"),
                                               ("momentum", 1.0, "momentum"),
                                               ("n_clients", 0, "clients")])
def test_fedconfig_rejects_out_of_range_fields_by_key(field, value, key):
    with pytest.raises(ConfigError, match=f"^{key} "):
        FedConfig(**{field: value})


def test_alpha_without_triggers_is_config_error():
    tr, net, shards, cfg, clients = small_world()
    state = clients[0]
    state.key = keygen(net, 0, 4, 0, "scale", seed=1)
    state.spec = WatermarkSpec(alpha=1.0)
    with pytest.raises(ConfigError):
        client_update(net, [state], net.get_params(), cfg)


def test_isolated_hinge_embedding_reaches_zero_hamming():
    # with the main loss frozen, the hinge regularizer alone is a feasible
    # linear program the optimizer solves exactly
    net = build_mlp(32, [16, 16], 3, seed=4)
    key = keygen(net, 0, 8, 0, "scale", seed=9)
    params = net.params
    opt = SgdMomentum(params, momentum=0.9)
    for _ in range(200):
        grads = ModelParams.wrap(params.layout, np.zeros(params.layout.size))
        if hinge_reg(params, key, grads.vec, 1.0) == 0.0:
            break
        opt.step(params, grads, lr=0.01)
    assert hinge_reg(params, key, np.zeros(params.layout.size), 1.0) == 0.0
    assert verify_white(params, key).hamming == 0


# ---------------------------------------------------------------------------
# stacked rounds: one stacked update equals one-client runs bitwise

def one_client_runs(net, states, global_params, cfg, round_index):
    return [client_update(net, [state], global_params, cfg, round_index)[0]
            for state in states]


def test_stacked_round_matches_one_client_runs_iid():
    # 15-sample shards in batches of 12: every step pads the trigger
    # clients' batches wider than the others'
    specs = {0: WatermarkSpec("scale", 4, 0, "hinge", beta=2.0),
             1: WatermarkSpec("scale", 4, 0, "hinge", beta=3.0),
             2: WatermarkSpec("kernel", 8, 0, "bce", beta=2.0),
             3: WatermarkSpec("kernel", 8, 0, "bce", beta=1.0),
             4: WatermarkSpec("scale", 4, 5, "hinge", alpha=0.3),
             5: WatermarkSpec("scale", 4, 6, "hinge", alpha=1.0)}
    tr, net, shards, cfg, clients = small_world(seed=4, n_clients=8, specs=specs,
                                                batch=12, backdoor_batch=3)
    assert all(c.data.n % cfg.batch for c in clients)
    start, _ = run_federation(FedConfig(**{**cfg.__dict__, "rounds": 1}), clients, net)
    stacked = client_update(net, clients, start, cfg, round_index=1)
    single = one_client_runs(net, clients, start, cfg, 1)
    for (got, losses), (want, want_losses) in zip(stacked, single):
        assert got.equal(want)
        assert losses == want_losses
    assert all(losses["feature"] > 0 for _, losses in stacked[2:4])  # bce is never 0
    assert all(losses["trigger"] > 0 for _, losses in stacked[4:6])


def test_stacked_rounds_match_one_client_runs_noniid():
    # Dirichlet shards of 2 to 63 samples: clients run out of batches at
    # different steps, and client 1's last batch is a single row
    tr = make_synthetic(3, 60, seed=52, kind="blobs")
    net = build_mlp(32, [16, 16], 3, seed=2)
    shards = split(tr, 8, mode="noniid", seed=2, concentration=0.5)
    specs = {1: WatermarkSpec("scale", 4, 0, "hinge", beta=2.0),
             4: WatermarkSpec("scale", 4, 5, "hinge", alpha=0.5),
             5: WatermarkSpec("kernel", 8, 0, "bce", beta=1.0)}
    cfg = FedConfig(n_clients=8, fraction=0.5, rounds=3, batch=8, backdoor_batch=2,
                    dp_sigma=0.01, seed=2)
    assert len({s.size for s in shards}) > 4 and shards[1].size % cfg.batch == 1
    final, logs = run_federation(cfg, setup_clients(tr, shards, net, specs, 2), net)

    by_id = {c.client_id: c for c in setup_clients(tr, shards, net, specs, 2)}
    global_params = build_mlp(32, [16, 16], 3, seed=2).get_params()
    for r, log in enumerate(logs):
        states = [by_id[cid] for cid in sample_clients(8, 0.5, r, cfg.seed)]
        updates = []
        for state, (local, losses) in zip(states, one_client_runs(net, states, global_params,
                                                                  cfg, r)):
            cid = state.client_id
            assert (log.loss_main[cid], log.loss_trigger[cid], log.loss_feature[cid]) == (
                losses["main"], losses["trigger"], losses["feature"])
            updates.append((cid, add_dp_noise(local, cfg.dp_sigma, (cfg.seed, r, cid)),
                            state.n_samples))
        global_params = aggregate(updates)
    assert final.equal(global_params)
    assert 1 in logs[0].selected and 4 in logs[2].selected


# ---------------------------------------------------------------------------
# dp noise

def test_dp_zero_sigma_is_identity():
    net = build_mlp(8, [4], 2, seed=0)
    p = net.get_params()
    assert add_dp_noise(p, 0.0, seed=3).equal(p)


def test_dp_noise_std_and_determinism():
    p = ModelParams({(0, "kernel"): np.zeros(100_000)})
    a = add_dp_noise(p, 0.05, seed=("s", 1))
    b = add_dp_noise(p, 0.05, seed=("s", 1))
    assert a.equal(b)
    std = a.entries[(0, "kernel")].std()
    assert abs(std - 0.05) <= 0.02 * 0.05


def test_dp_noise_leaves_running_stats_alone():
    p = ModelParams({(0, "scale"): np.ones(50), (0, "running_var"): np.ones(50)})
    noisy = add_dp_noise(p, 0.1, seed=1)
    assert not np.array_equal(noisy.entries[(0, "scale")], p.entries[(0, "scale")])
    np.testing.assert_array_equal(noisy.entries[(0, "running_var")], p.entries[(0, "running_var")])


# ---------------------------------------------------------------------------
# aggregation

def make_vec(*values):
    return ModelParams({(0, "kernel"): np.asarray(values, dtype=float)})


def test_aggregate_equal_weights():
    out = aggregate([(0, make_vec(1.0, 0.0), 10), (1, make_vec(0.0, 1.0), 10)])
    np.testing.assert_allclose(out.entries[(0, "kernel")], [0.5, 0.5])


def test_aggregate_single_client_identity():
    p = make_vec(0.1, -0.7, 3.3)
    out = aggregate([(0, p, 17)])
    assert out.equal(p)


def test_aggregate_weighted_mean():
    out = aggregate([(0, make_vec(0.0), 1), (1, make_vec(4.0), 3)])
    assert out.entries[(0, "kernel")][0] == pytest.approx(3.0)


def test_aggregate_rejects_mismatched_keys():
    with pytest.raises(StateError):
        aggregate([(0, make_vec(1.0), 1),
                   (1, ModelParams({(1, "bias"): np.zeros(1)}), 1)])
    with pytest.raises(StateError):
        aggregate([])


# ---------------------------------------------------------------------------
# sampling

def test_sample_all_clients_at_full_fraction():
    assert sample_clients(7, 1.0, 0, seed=1) == tuple(range(7))


def test_sample_ceil_size():
    assert len(sample_clients(20, 0.05, 3, seed=1)) == 1
    assert len(sample_clients(8, 0.25, 3, seed=1)) == 2


def test_sample_deterministic_per_round():
    a = sample_clients(10, 0.3, 5, seed=2)
    b = sample_clients(10, 0.3, 5, seed=2)
    c = sample_clients(10, 0.3, 6, seed=2)
    assert a == b
    assert len(c) == len(a)


def test_sample_frequency_uniform():
    n, frac, rounds = 10, 0.3, 10_000
    counts = np.zeros(n)
    for r in range(rounds):
        for cid in sample_clients(n, frac, r, seed=11):
            counts[cid] += 1
    freq = counts / rounds
    sigma = np.sqrt(frac * (1 - frac) / rounds)
    assert (np.abs(freq - frac) <= 3 * sigma + 1e-12).all()


# ---------------------------------------------------------------------------
# key assignment

@pytest.mark.parametrize("bits", [{0: 8, 4: 8}, {1: 4, 2: 12, 5: 16}])
def test_setup_clients_scale_coords_disjoint(bits):
    tr = make_synthetic(3, 40, seed=50, kind="blobs")
    net = build_mlp(32, [16, 16], 3, seed=0)  # 32-channel scale pool
    specs = {cid: WatermarkSpec("scale", n, 0, "hinge", beta=1.0) for cid, n in bits.items()}
    specs[3] = WatermarkSpec("kernel", 16, 0, "bce", beta=1.0)  # takes no channels
    clients = setup_clients(tr, split(tr, 6, seed=0), net, specs, seed=3)
    coords = [c.key.coords for c in clients
              if c.key is not None and c.key.coords is not None]
    assert [len(c) for c in coords] == [bits[cid] for cid in sorted(bits)]
    assert len(np.unique(np.concatenate(coords))) == sum(bits.values())


# ---------------------------------------------------------------------------
# full loop

def test_zero_rounds_returns_initial_params():
    tr, net, shards, cfg, clients = small_world(rounds=0)
    start = net.get_params()
    final, logs = run_federation(cfg, clients, net)
    assert final.equal(start)
    assert logs == []


def test_single_client_fedavg_degenerates_to_sequential_updates():
    tr, net, shards, cfg, clients = small_world(n_clients=1, rounds=3)
    start = net.get_params()
    final, _ = run_federation(cfg, clients, net)

    chained = start
    replay = ClientState(0, clients[0].data)
    for r in range(3):
        [(chained, _)] = client_update(net, [replay], chained, cfg, r)
    assert final.equal(chained)


def test_default_spec_trains_plainly_with_no_telemetry(monkeypatch):
    """The default spec has alpha = beta = 0: a client holding a key and a
    trigger set under it trains as a keyless one, with no regularizer call
    and no trigger rows, and the round logs carry no eta or trigger error."""
    import fedsign.federation as fed
    tr, net, shards, cfg, clients = small_world(n_clients=2)
    assert all(c.spec == WatermarkSpec() and c.key is None for c in clients)
    plain, _ = run_federation(cfg, clients, net)

    tr, net, shards, cfg, clients = small_world(n_clients=2)
    key = keygen(net, 0, 4, 3, "scale", seed=1, dataset=tr)
    for reg in ("hinge_reg", "bce_reg"):
        monkeypatch.setattr(fed, reg, lambda *args: pytest.fail("regularizer called"))
    final, logs = run_federation(cfg, [ClientState(c.client_id, c.data, key) for c in clients],
                                 net)
    assert final.equal(plain)
    assert all(not log.eta and not log.trigger_error for log in logs)
    assert all(losses == {0: 0.0, 1: 0.0} for log in logs
               for losses in (log.loss_trigger, log.loss_feature))


def test_run_federation_bitwise_deterministic(tmp_path):
    outputs = []
    csvs = []
    for _ in range(2):
        tr, net, shards, cfg, clients = small_world(
            seed=3, specs={0: WatermarkSpec("scale", 4, 3, "hinge", alpha=0.5, beta=1.0)})
        te = make_synthetic(3, 10, seed=53, kind="blobs", salt=1)
        final, logs = run_federation(cfg, clients, net, eval_data=(te.inputs, te.labels))
        path = tmp_path / f"log{len(outputs)}.csv"
        round_logs_to_csv(logs, path, cfg.n_clients)
        outputs.append(final)
        csvs.append(path.read_bytes())
    assert outputs[0].equal(outputs[1])
    assert csvs[0] == csvs[1]


def test_aggregation_path_sees_only_params_and_counts(monkeypatch):
    import fedsign.federation as fed
    seen = []
    real = fed.aggregate

    def spy(updates):
        for cid, params, n_k in updates:
            seen.append((type(cid), type(params), type(n_k)))
        return real(updates)

    monkeypatch.setattr(fed, "aggregate", spy)
    tr, net, shards, cfg, clients = small_world(
        seed=1, specs={0: WatermarkSpec("scale", 4, 3, "hinge", alpha=0.5, beta=1.0)})
    run_federation(cfg, clients, net)
    assert seen
    assert all(t == (int, ModelParams, int) for t in seen)


def test_round_log_csv_layout(tmp_path):
    logs = [RoundLog(0, (0, 1), 0.5, {0: 1.0}, {0: 0.0}, {0: 0.25}, {0: 1.0}, {})]
    path = tmp_path / "rounds.csv"
    round_logs_to_csv(logs, path, 2)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == ",".join(round_log_columns(2))
    cells = lines[1].split(",")
    assert cells[0] == "0" and cells[1] == "0;1" and cells[2] == "0.5"
    assert cells[3] == "1.0" and cells[8] == ""  # client 1 absent -> empty


def test_fedavg_preserves_key_sets_and_shapes():
    tr, net, shards, cfg, clients = small_world(rounds=2)
    start = net.get_params()
    final, _ = run_federation(cfg, clients, net)
    assert final.entries.keys() == start.entries.keys()
    assert all(final.entries[k].shape == start.entries[k].shape for k in final.entries)
