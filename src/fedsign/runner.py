"""Assemble and execute one federated run from a manifest."""

from dataclasses import dataclass, replace

from .data import make_synthetic, split
from .federation import run_federation, setup_clients
from .manifest import RunManifest
from .nn import Network, build_cnn, build_mlp, fit, rng_for


@dataclass
class RunResult:
    params: object        # final global ModelParams
    logs: list
    net: Network
    clients: list
    train: object
    test: object

    @property
    def final_accuracy(self):
        return self.logs[-1].accuracy if self.logs else None


def make_data(m, seed):
    train = make_synthetic(m.classes, m.per_class, (seed, "data"),
                           kind=m.data_kind, dim=m.data_dim)
    test = make_synthetic(m.classes, m.test_per_class, (seed, "data"),
                          kind=m.data_kind, dim=m.data_dim, salt=1)
    return train, test


def make_network(m, seed):
    if m.arch == "mlp":
        return build_mlp(m.data_dim, list(m.hidden), m.classes, (seed, "net"))
    return build_cnn(8, 1, list(m.channels), m.classes, (seed, "net"))


def run_once(m: RunManifest, seed=None):
    """One full federated training run; `seed` overrides the manifest seed
    (sweeps repeat the same manifest under derived seeds)."""
    seed = m.seed if seed is None else seed
    train, test = make_data(m, seed)
    net = make_network(m, seed)
    shards = split(train, m.fed.n_clients, mode=m.split, seed=(seed, "split"),
                   concentration=m.concentration)
    vanilla = None
    if any(s.trigger_kind == "pgd" and s.n_triggers > 0 for s in m.embed.values()):
        vanilla = make_network(m, (seed, "vanilla"))
        fit(vanilla, train.inputs, train.labels, epochs=40, lr=0.01,
            seed=(seed, "vanilla-fit"))
    clients = setup_clients(train, shards, net, m.embed, (seed, "keys"),
                            vanilla=vanilla)
    cfg = replace(m.fed, seed=int(rng_for(seed, "fed").integers(0, 2**31)))
    params, logs = run_federation(cfg, clients, net,
                                  eval_data=(test.inputs, test.labels))
    return RunResult(params, logs, net, clients, train, test)
